//! `clb-perfbench` — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_hot|serve_cold|dse_sweep --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. It builds `clb` from the checkout, starts
//! `clb serve --threads 2` as a child process and drives it with closed-loop
//! keep-alive clients (two for the serve workloads, one for `dse_sweep`).
//! Every response is compared byte for byte with in-process
//! `api::dispatch` of the same body, computed outside the timed window,
//! and the server's `/v1/cache_stats` deltas are checked against the load
//! that was sent.
//!
//! With `--trace 0` the last stdout line carries the end-to-end metrics,
//! measured with tracing off. With `--trace 1` the run measures the same
//! phase twice — untraced, then with the server's request log on — and
//! afterwards replays the traced phase's bodies single-threaded in this
//! process with a span around every layer call (see [`trace`]). The last
//! line then carries the per-layer metrics, including `rows.*`: the
//! traced phase's mean client latency split into layer rows plus a
//! `remainder` row, which add up to `rows.e2e_us`. Spans are written to
//! `<target dir>/perfbench/spans-<workload>-<seed>.jsonl`.

mod load;
mod server;
mod stats;
mod trace;
mod workload;

use std::collections::{BTreeMap, HashMap};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use clb_core::NetworkReport;
use clb_service::CacheStatsResponse;
use serde::Value;

use load::{Feed, Phase, Sample, READ_TIMEOUT, SLICE};
use server::{LogLine, ServerProc};
use stats::{mean, median, percentile, ratio, Metric};
use trace::{Profile, Tracer};
use workload::{Request, Workload};

/// Server instances started and timed per phase; the last one serves the
/// timed load and `setup_s` is their median.
const SETUPS: usize = 9;

/// Upper bound on `serve_cold` bodies replayed in the traced run (spread
/// evenly over the traced phase; the rest take their route's mean).
const COLD_REPLAYS: usize = 400;

/// Replays of each `serve_hot` body; the profile is the per-layer median.
const HOT_REPLAYS: usize = 15;

/// VGG-16's convolution layer count: each evaluated DSE candidate plans
/// every one of them once.
const VGG16_CONV_LAYERS: u64 = 13;

/// The top-16 frontier of the `dse_sweep` grid, one candidate per line.
const GOLDEN_FRONTIER: &str = include_str!("../golden/dse_frontier.txt");

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: clb-perfbench --workload serve_hot|serve_cold|dse_sweep --seed N --seconds S --trace 0|1";

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags = HashMap::new();
    for pair in argv.chunks(2) {
        match pair {
            [key, value] if key.starts_with("--") => {
                flags.insert(key.trim_start_matches("--").to_string(), value.clone());
            }
            _ => return Err(format!("malformed arguments {argv:?}")),
        }
    }
    let get = |name: &str| flags.get(name).ok_or_else(|| format!("missing --{name}"));
    let workload = get("workload")?;
    Ok(Args {
        workload: Workload::parse(workload)
            .ok_or_else(|| format!("unknown workload `{workload}`"))?,
        seed: get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: get("seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: match get("trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
        },
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// In-process `api::dispatch` of one request: the expected response.
fn dispatch(request: &Request) -> clb_service::Response {
    match serde_json::from_str::<Value>(&request.body) {
        Ok(value) => clb_service::api::dispatch(request.path, &value),
        Err(e) => clb_service::Response::error(400, &e.to_string()),
    }
}

/// Everything one run shares across its phases.
struct Bench {
    bin: std::path::PathBuf,
    workload: Workload,
    seed: u64,
    hot: Vec<Request>,
    hot_expected: Vec<String>,
    /// Expected bodies of `serve_cold` catalog entries, by index.
    cold_expected: HashMap<usize, clb_service::Response>,
    /// The two `dse_sweep` posts and their expected bodies.
    dse: Vec<(Request, String)>,
    /// Every failed check, in the order found.
    problems: Vec<String>,
    setup_secs: Vec<f64>,
    dram_over_bound: f64,
}

/// One measured phase: its samples (indexing `catalog`), the servers'
/// counter deltas, request logs and peak memory.
#[derive(Default)]
struct Measured {
    phase: Phase,
    catalog: Vec<Request>,
    /// Per sample, which server of `servers` answered it.
    server_of: Vec<usize>,
    servers: Vec<ServerRun>,
}

struct ServerRun {
    before: CacheStatsResponse,
    after: CacheStatsResponse,
    log: Vec<LogLine>,
    rss_mb: f64,
    sent: u64,
}

impl Bench {
    fn problem(&mut self, what: String) {
        eprintln!("perfbench: check failed: {what}");
        self.problems.push(what);
    }

    /// Starts a server, waits until it answers, warms the hot set on one
    /// connection (checking every response), and records the time taken.
    fn setup(&mut self, log: bool) -> Result<ServerProc, String> {
        let t0 = Instant::now();
        let server = ServerProc::spawn(&self.bin, log)?;
        let mut conn = server
            .connect(READ_TIMEOUT)
            .map_err(|e| format!("connect: {e}"))?;
        let mut bodies = Vec::with_capacity(self.hot.len());
        for request in &self.hot {
            let resp = conn
                .exchange(&request.wire())
                .map_err(|e| format!("warm-up: {e}"))?;
            bodies.push((resp.status, resp.body));
        }
        self.setup_secs.push(t0.elapsed().as_secs_f64());
        for (i, (status, body)) in bodies.iter().enumerate() {
            if *status != 200 || *body != self.hot_expected[i] {
                self.problem(format!(
                    "warm-up {} answered {status} with other bytes",
                    self.hot[i].path
                ));
            }
        }
        match dram_over_bound(&bodies[0].1) {
            Ok(r) => self.dram_over_bound = r,
            Err(e) => self.problem(format!("dram_over_bound: {e}")),
        }
        Ok(server)
    }

    /// [`SETUPS`] set-ups; all but the last server are stopped at once.
    fn setups(&mut self, log: bool) -> Result<ServerProc, String> {
        for _ in 1..SETUPS {
            self.setup(log)?.stop();
        }
        self.setup(log)
    }

    /// Runs the workload's timed phase for `seconds`.
    fn measure(&mut self, seconds: f64, log: bool) -> Result<Measured, String> {
        match self.workload {
            Workload::ServeHot | Workload::ServeCold => self.measure_closed_loop(seconds, log),
            Workload::DseSweep => self.measure_dse(seconds, log),
        }
    }

    fn measure_closed_loop(&mut self, seconds: f64, log: bool) -> Result<Measured, String> {
        let server = self.setups(log)?;
        let wires: Vec<Vec<u8>> = self.hot.iter().map(Request::wire).collect();
        let feed = match self.workload {
            Workload::ServeHot => Feed::Hot {
                seed: self.seed,
                wires: &wires,
                expected: &self.hot_expected,
                next: 0.into(),
            },
            _ => Feed::cold(self.seed),
        };
        let before = server.cache_stats()?;
        let phase = load::closed_loop(&server, &feed, self.workload.clients(), seconds);
        let after = server.cache_stats()?;
        let rss_mb = phase.rss_mb;
        let log = server::parse_log(&server.stop());
        let catalog = match feed {
            Feed::Hot { .. } => self.hot.clone(),
            cold => cold.into_catalog(),
        };
        let mut measured = Measured {
            server_of: vec![0; phase.samples.len()],
            servers: vec![ServerRun {
                before,
                after,
                log,
                rss_mb,
                sent: phase.samples.len() as u64,
            }],
            phase,
            catalog,
        };
        if self.workload == Workload::ServeCold {
            self.check_deferred(&mut measured);
        }
        Ok(measured)
    }

    /// Compares every `serve_cold` response kept during the window with
    /// in-process dispatch of the same body, computed now on two threads.
    fn check_deferred(&mut self, m: &mut Measured) {
        let mut todo: Vec<usize> = m.phase.samples.iter().map(|s| s.request).collect();
        todo.sort_unstable();
        todo.dedup();
        todo.retain(|i| !self.cold_expected.contains_key(i));
        let next = std::sync::atomic::AtomicUsize::new(0);
        let computed: Vec<(usize, clb_service::Response)> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..2)
                .map(|_| {
                    scope.spawn(|| {
                        let mut out = Vec::new();
                        loop {
                            let k = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                            let Some(&i) = todo.get(k) else { break out };
                            out.push((i, dispatch(&m.catalog[i])));
                        }
                    })
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().expect("dispatch worker panicked"))
                .collect()
        });
        self.cold_expected.extend(computed);
        for sample in &mut m.phase.samples {
            if let Some(body) = sample.body.take() {
                let expected = &self.cold_expected[&sample.request];
                sample.matched =
                    sample.status == 200 && expected.status == 200 && body == expected.body;
            }
        }
    }

    /// `dse_sweep`: each pair of posts (`top_k` 8 then 16) runs on a
    /// freshly set-up server, so the first post of every pair is cold.
    fn measure_dse(&mut self, seconds: f64, log: bool) -> Result<Measured, String> {
        let mut m = Measured {
            catalog: self.dse.iter().map(|(r, _)| r.clone()).collect(),
            ..Measured::default()
        };
        let mut server = self.setups(log)?;
        let mut spent = Duration::ZERO;
        loop {
            let before = server.cache_stats()?;
            let mut conn = server
                .connect(READ_TIMEOUT)
                .map_err(|e| format!("connect: {e}"))?;
            for (i, (request, expected)) in self.dse.iter().enumerate() {
                let t0 = Instant::now();
                let result = conn.exchange(&request.wire());
                let elapsed = t0.elapsed();
                spent += elapsed;
                let sample = match result {
                    Ok(resp) => Sample {
                        request: i,
                        conn: conn.ordinal,
                        latency_ns: load::nanos(elapsed),
                        done_ns: load::nanos(spent),
                        status: resp.status,
                        bytes: resp.body.len(),
                        matched: resp.status == 200 && resp.body == *expected,
                        body: None,
                    },
                    Err(e) => {
                        eprintln!("perfbench: /v1/dse exchange failed: {e}");
                        Sample::failed(i, conn.ordinal, load::nanos(spent))
                    }
                };
                m.phase.samples.push(sample);
                m.server_of.push(m.servers.len());
            }
            drop(conn);
            let after = server.cache_stats()?;
            let rss_mb = server.peak_rss_mb().unwrap_or(0.0);
            m.servers.push(ServerRun {
                before,
                after,
                log: server::parse_log(&server.stop()),
                rss_mb,
                sent: self.dse.len() as u64,
            });
            if spent.as_secs_f64() >= seconds {
                break;
            }
            server = self.setup(log)?;
        }
        m.phase.window = spent;
        Ok(m)
    }

    /// The Röhl check: every counter must report exactly the load sent.
    fn check_counters(&mut self, m: &Measured) {
        for (k, run) in m.servers.iter().enumerate() {
            let (b, a) = (&run.before.service, &run.after.service);
            // The `before` snapshot is itself one request the `after` one counts.
            if a.requests - b.requests != run.sent + 1 {
                self.problem(format!(
                    "server {k}: service.requests rose by {}, expected {} sent + 1 stats read",
                    a.requests - b.requests,
                    run.sent
                ));
            }
            let cached = a.responses_cached - b.responses_cached;
            let want_cached = if self.workload == Workload::ServeHot {
                run.sent
            } else {
                0
            };
            if cached != want_cached {
                self.problem(format!(
                    "server {k}: responses_cached rose by {cached}, expected {want_cached}"
                ));
            }
            for (name, delta) in [
                ("shed", a.shed - b.shed),
                ("coalesced", a.coalesced - b.coalesced),
            ] {
                if delta != 0 {
                    self.problem(format!(
                        "server {k}: service.{name} rose by {delta} at {} clients",
                        self.workload.clients()
                    ));
                }
            }
            if self.workload == Workload::DseSweep {
                let lookups = plan_lookups(&run.after) - plan_lookups(&run.before);
                let evaluated: u64 = m
                    .phase
                    .samples
                    .iter()
                    .zip(&m.server_of)
                    .filter(|(_, &s)| s == k)
                    .map(|(s, _)| dse_counts(&self.dse[s.request].1).map_or(0, |c| c.evaluated))
                    .sum();
                if lookups != VGG16_CONV_LAYERS * evaluated {
                    self.problem(format!(
                        "server {k}: plan hits+misses+coalesced = {lookups}, expected 13 x {evaluated} evaluated"
                    ));
                }
            }
        }
    }
}

fn plan_lookups(s: &CacheStatsResponse) -> u64 {
    s.plan.hits + s.plan.misses + s.plan.coalesced
}

/// Simulated DRAM words over the analytic DRAM bound, summed over the
/// layers of a `/v1/network` report — the paper's headline ratio.
fn dram_over_bound(body: &str) -> Result<f64, String> {
    let report: NetworkReport = serde_json::from_str(body).map_err(|e| e.to_string())?;
    let simulated: u64 = report
        .layers
        .iter()
        .map(|l| l.stats.dram.total_words())
        .sum();
    let bound: f64 = report.layers.iter().map(|l| l.bounds.dram_words).sum();
    Ok(simulated as f64 / bound)
}

struct DseCounts {
    unique: u64,
    pruned: u64,
    evaluated: u64,
}

fn dse_counts(body: &str) -> Option<DseCounts> {
    let v: Value = serde_json::from_str(body).ok()?;
    let n = |name: &str| v.get_field(name).ok()?.as_number().ok().map(|x| x as u64);
    Some(DseCounts {
        unique: n("unique")?,
        pruned: n("pruned")?,
        evaluated: n("evaluated")?,
    })
}

/// The ranked frontier of a staged `/v1/dse` response, one line per
/// entry: the swept axes and the total cycles.
fn frontier_lines(body: &str) -> Result<Vec<String>, String> {
    let v: Value = serde_json::from_str(body).map_err(|e| e.to_string())?;
    let results = v
        .get_field("results")
        .and_then(Value::as_array)
        .map_err(|e| e.to_string())?;
    results
        .iter()
        .map(|entry| {
            let arch = entry.get_field("arch").map_err(|e| e.to_string())?;
            let mut parts = Vec::new();
            for (name, _) in workload::DSE_AXES {
                let x = arch
                    .get_field(name)
                    .and_then(Value::as_number)
                    .map_err(|e| e.to_string())?;
                parts.push(format!("{name}={x}"));
            }
            let cycles = entry
                .get_field("total_cycles")
                .and_then(Value::as_number)
                .map_err(|e| e.to_string())?;
            parts.push(format!("total_cycles={cycles}"));
            Ok(parts.join(" "))
        })
        .collect()
}

fn run(args: &Args) -> Result<(), String> {
    let bin = server::build_clb()?;
    let hot = workload::hot_set();
    let mut hot_expected = Vec::with_capacity(hot.len());
    for request in &hot {
        let resp = dispatch(request);
        if resp.status != 200 {
            return Err(format!(
                "in-process {} answered {}",
                request.path, resp.status
            ));
        }
        hot_expected.push(resp.body);
    }
    let mut bench = Bench {
        bin,
        workload: args.workload,
        seed: args.seed,
        hot,
        hot_expected,
        cold_expected: HashMap::new(),
        dse: Vec::new(),
        problems: Vec::new(),
        setup_secs: Vec::new(),
        dram_over_bound: 0.0,
    };
    if args.workload == Workload::DseSweep {
        clb_core::clear_plan_cache();
        for top_k in workload::DSE_TOP_KS {
            let request = workload::dse_body(args.seed, top_k);
            let resp = dispatch(&request);
            if resp.status != 200 {
                return Err(format!("in-process /v1/dse answered {}", resp.status));
            }
            match frontier_lines(&resp.body) {
                Ok(lines) => {
                    let golden: Vec<&str> = GOLDEN_FRONTIER.lines().take(top_k).collect();
                    if lines != golden {
                        bench.problem(format!(
                            "top-{top_k} frontier differs from perfbench/golden/dse_frontier.txt"
                        ));
                    }
                }
                Err(e) => bench.problem(format!("frontier: {e}")),
            }
            bench.dse.push((request, resp.body));
        }
    }

    let untraced = bench.measure(args.seconds, false)?;
    bench.check_counters(&untraced);
    let (mut attempted, mut failed) = tally(&untraced);
    let metrics = if args.trace {
        let traced = bench.measure(args.seconds, true)?;
        bench.check_counters(&traced);
        let (a, f) = tally(&traced);
        attempted += a;
        failed += f;
        per_layer(&mut bench, &untraced, &traced)
    } else {
        end_to_end(&bench, &untraced)
    };
    for m in &metrics {
        println!("{:<44} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let correct = failed == 0 && bench.problems.is_empty();
    println!(
        "{}",
        stats::result_line(correct, attempted, failed, &metrics)
    );
    Ok(())
}

/// Requests attempted and failed (refused, non-200 or other bytes).
fn tally(m: &Measured) -> (u64, u64) {
    let failed = m.phase.samples.iter().filter(|s| !s.matched).count() as u64;
    (m.phase.samples.len() as u64, failed)
}

fn latencies_ms<'a>(samples: impl IntoIterator<Item = &'a Sample>) -> Vec<f64> {
    // A failed request counts as missing any latency limit.
    samples
        .into_iter()
        .map(|s| {
            if s.matched {
                s.latency_ns as f64 / 1e6
            } else {
                f64::INFINITY
            }
        })
        .collect()
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// Splits a window into slices, each with its length in seconds: whole
/// [`SLICE`]s by completion time on the closed-loop workloads (a trailing
/// partial slice is dropped), one slice per server — one pair of posts —
/// on `dse_sweep`.
fn slices(workload: Workload, m: &Measured) -> Vec<(Vec<&Sample>, f64)> {
    if workload == Workload::DseSweep {
        let mut out: Vec<(Vec<&Sample>, f64)> = vec![(Vec::new(), 0.0); m.servers.len()];
        let mut prev_done = 0;
        for (s, &k) in m.phase.samples.iter().zip(&m.server_of) {
            out[k].0.push(s);
            out[k].1 += (s.done_ns - prev_done) as f64 / 1e9;
            prev_done = s.done_ns;
        }
        return out;
    }
    let slice_ns = load::nanos(SLICE);
    let whole = (load::nanos(m.phase.window) / slice_ns).max(1) as usize;
    let mut out = vec![(Vec::new(), SLICE.as_secs_f64()); whole];
    for s in &m.phase.samples {
        if let Some(slice) = out.get_mut((s.done_ns / slice_ns) as usize) {
            slice.0.push(s);
        }
    }
    out
}

/// The end-to-end metrics. The host's CPU speed swings by tens of percent
/// for seconds at a time, and some stretches stall it for milliseconds, so
/// every timing is computed per slice of the window (see [`slices`]) and
/// summarised over slices. Throughput, p50 and `sweep_s` take the median
/// slice. The p99 takes the quietest quarter: the slice p99 that a quarter
/// of the slices stay at or below. Host stalls land in the tail first, and
/// in a disturbed run more than half of the slices can carry them. The
/// traced run's `service.server.handle_us_p99` pools every request, so a
/// tail regression that only some slices show still shows there.
fn end_to_end(bench: &Bench, m: &Measured) -> Vec<Metric> {
    let slices = slices(bench.workload, m);
    let over_slices = |p: f64, f: &dyn Fn(&[&Sample], f64) -> f64| {
        percentile(
            &slices
                .iter()
                .map(|(s, secs)| f(s, *secs))
                .collect::<Vec<_>>(),
            p,
        )
    };
    let ok = |s: &[&Sample]| s.iter().filter(|x| x.matched).count() as f64;
    let lat = |s: &[&Sample]| latencies_ms(s.iter().copied());
    let sweep_s = |s: &[&Sample]| {
        let sweeps = s
            .iter()
            .filter(|x| matches!(m.catalog[x.request].path, "/v1/sweep" | "/v1/dse"));
        median(
            &latencies_ms(sweeps.copied())
                .iter()
                .map(|ms| ms / 1e3)
                .collect::<Vec<_>>(),
        )
    };
    let samples: Vec<&Sample> = m.phase.samples.iter().collect();
    println!(
        "samples: {} requests in {} slices over {:.3} s, {} keep-alive reconnects; \
         set-ups (s): {:.4?}",
        samples.len(),
        slices.len(),
        slices.iter().map(|(_, secs)| secs).sum::<f64>(),
        m.phase.reconnects,
        bench.setup_secs
    );
    vec![
        metric("setup_s", median(&bench.setup_secs), "s"),
        metric(
            "throughput_rps",
            over_slices(50.0, &|s, secs| ok(s) / secs),
            "1/s",
        ),
        metric(
            "latency_p50_ms",
            over_slices(50.0, &|s, _| percentile(&lat(s), 50.0)),
            "ms",
        ),
        metric(
            "latency_p99_ms",
            over_slices(25.0, &|s, _| percentile(&lat(s), 99.0)),
            "ms",
        ),
        metric("sweep_s", over_slices(50.0, &|s, _| sweep_s(s)), "s"),
        metric(
            "ok_frac",
            ratio(ok(&samples), samples.len() as f64),
            "ratio",
        ),
        metric(
            "rss_peak_mb",
            m.servers.iter().map(|s| s.rss_mb).fold(0.0, f64::max),
            "MiB",
        ),
        metric("dram_over_bound", bench.dram_over_bound, "ratio"),
    ]
}

/// One traced sample joined with the server's log line for it.
struct Joined<'a> {
    sample: &'a Sample,
    line: &'a LogLine,
}

/// Joins each sample with its request-log line: connection ordinal `n` is
/// the server's `conn=n+1`, and requests on one connection are logged in
/// the order they were sent.
fn join_log<'a>(m: &'a Measured) -> (Vec<Joined<'a>>, usize) {
    let mut by_conn: HashMap<(usize, u64), Vec<&LogLine>> = HashMap::new();
    for (k, run) in m.servers.iter().enumerate() {
        for line in &run.log {
            by_conn.entry((k, line.conn)).or_default().push(line);
        }
    }
    let mut seen: HashMap<(usize, u64), usize> = HashMap::new();
    let mut joined = Vec::new();
    let mut unmatched = 0;
    for (sample, &k) in m.phase.samples.iter().zip(&m.server_of) {
        let key = (k, sample.conn + 1);
        let pos = seen.entry(key).or_insert(0);
        let line = by_conn.get(&key).and_then(|lines| lines.get(*pos));
        *pos += 1;
        match line {
            Some(line) if line.path == m.catalog[sample.request].path && sample.matched => {
                joined.push(Joined { sample, line });
            }
            _ => unmatched += 1,
        }
    }
    (joined, unmatched)
}

/// The layer rows, in report order: each is a per-request mean in µs.
const ROWS: [&str; 13] = [
    "frame", "parse", "key", "handler", "plan", "search", "simulate", "energy", "bound", "floors",
    "dse_eval", "render", "outside",
];

/// A replay profile as layer rows (µs). A response-cache hit never reaches
/// the handler, so it only pays framing, parse and key.
fn rows_of(p: &Profile, hit: bool) -> BTreeMap<&'static str, f64> {
    let us = |name: &str| p.get(name) as f64 / 1e3;
    let mut rows = BTreeMap::new();
    rows.insert("frame", us("service.http.frame"));
    rows.insert("parse", us("service.api.parse"));
    rows.insert("key", us("service.api.key"));
    if !hit {
        rows.insert("handler", us("service.api.handler"));
        rows.insert(
            "plan",
            us("core.planner.plan") + us("core.planner.plan_hit"),
        );
        rows.insert("search", us("dataflow.engine.search"));
        rows.insert("simulate", us("sim.simulate"));
        rows.insert("energy", us("core.energy"));
        rows.insert("bound", us("bound.summary"));
        rows.insert("floors", us("bound.filter.floors"));
        // The server's staged sweep computes the floors inside itself.
        rows.insert("dse_eval", us("core.dse.sweep") - us("bound.filter.floors"));
        rows.insert("render", us("service.api.render"));
    }
    rows
}

fn clear_caches() {
    clb_core::clear_plan_cache();
    dataflow::clear_search_cache();
}

/// Replays the traced phase's bodies; returns one profile per replayed
/// catalog index plus the tracer holding every span.
fn replay_all(bench: &mut Bench, traced: &Measured) -> (HashMap<usize, Profile>, Tracer) {
    let mut tracer = Tracer::new();
    let mut profiles = HashMap::new();
    let mut failures = Vec::new();
    match bench.workload {
        Workload::ServeHot => {
            for (i, request) in bench.hot.iter().enumerate() {
                let reps: Result<Vec<Profile>, String> = (0..HOT_REPLAYS)
                    .map(|_| {
                        clear_caches();
                        tracer.replay(request, &bench.hot_expected[i])
                    })
                    .collect();
                match reps {
                    Ok(reps) => {
                        profiles.insert(i, Profile::merge(&reps, median));
                    }
                    Err(e) => failures.push(e),
                }
            }
        }
        Workload::ServeCold => {
            let mut sent: Vec<usize> = traced.phase.samples.iter().map(|s| s.request).collect();
            sent.sort_unstable();
            sent.dedup();
            let step = sent.len().div_ceil(COLD_REPLAYS).max(1);
            for &i in sent.iter().step_by(step) {
                clear_caches();
                match tracer.replay(&traced.catalog[i], &bench.cold_expected[&i].body) {
                    Ok(p) => {
                        profiles.insert(i, p);
                    }
                    Err(e) => failures.push(e),
                }
            }
        }
        Workload::DseSweep => {
            clear_caches();
            for (i, (request, expected)) in bench.dse.iter().enumerate() {
                match tracer.replay(request, expected) {
                    Ok(p) => {
                        profiles.insert(i, p);
                    }
                    Err(e) => failures.push(e),
                }
            }
            // Per-call planner / simulator / bound timings at network scale:
            // VGG-16 b3 on implementation 1, cold (not part of the rows).
            clear_caches();
            if let Err(e) = tracer.replay(&bench.hot[0], &bench.hot_expected[0]) {
                failures.push(e);
            }
        }
    }
    for e in failures {
        bench.problem(format!("trace replay: {e}"));
    }
    (profiles, tracer)
}

fn per_layer(bench: &mut Bench, untraced: &Measured, traced: &Measured) -> Vec<Metric> {
    let (profiles, tracer) = replay_all(bench, traced);
    let spans_path = server::target_dir().join("perfbench").join(format!(
        "spans-{}-{}.jsonl",
        bench.workload.name(),
        bench.seed
    ));
    if let Err(e) = tracer.write_jsonl(&spans_path) {
        eprintln!("perfbench: cannot write {}: {e}", spans_path.display());
    }

    let (joined, unmatched) = join_log(traced);
    if unmatched > 0 {
        bench.problem(format!(
            "{unmatched} traced requests have no request-log line"
        ));
    }

    // Route means stand in for bodies the replay did not cover.
    let mut by_route: HashMap<&str, Vec<Profile>> = HashMap::new();
    for (&i, p) in &profiles {
        by_route
            .entry(traced.catalog[i].path)
            .or_default()
            .push(p.clone());
    }
    let route_mean: HashMap<&str, Profile> = by_route
        .into_iter()
        .map(|(route, ps)| (route, Profile::merge(&ps, mean)))
        .collect();

    let n = joined.len().max(1) as f64;
    let mut rows: BTreeMap<&str, f64> = ROWS.iter().map(|r| (*r, 0.0)).collect();
    let mut client_us = Vec::new();
    let mut server_us = Vec::new();
    let mut outside_us = Vec::new();
    for j in &joined {
        let c = j.sample.latency_ns as f64 / 1e3;
        // Server time is the request log's exact `micros=`, not the
        // `/v1/cache_stats` latency histogram: its p50/p99 are log2 bucket
        // upper bounds, which can exceed the recorded `max`.
        let s = j.line.micros as f64;
        client_us.push(c);
        server_us.push(s);
        outside_us.push(c - s);
        let route = traced.catalog[j.sample.request].path;
        let profile = profiles
            .get(&j.sample.request)
            .or_else(|| route_mean.get(route));
        if let Some(p) = profile {
            for (row, us) in rows_of(p, j.line.cache == "hit") {
                *rows.get_mut(row).expect("known row") += us / n;
            }
        }
    }
    *rows.get_mut("outside").expect("known row") = mean(&outside_us);
    let e2e = mean(&client_us);
    let remainder = e2e - rows.values().sum::<f64>();

    let delta = |f: fn(&CacheStatsResponse) -> u64| -> f64 {
        traced
            .servers
            .iter()
            .map(|r| f(&r.after) - f(&r.before))
            .sum::<u64>() as f64
    };
    let sent = traced.phase.samples.len() as f64;
    let us_p50 = |name: &str| {
        median(
            &tracer
                .durations(name)
                .iter()
                .map(|&d| d as f64 / 1e3)
                .collect::<Vec<_>>(),
        )
    };
    let s_p50 = |name: &str| us_p50(name) / 1e6;
    let floors_s = s_p50("bound.filter.floors");
    let dse: Vec<DseCounts> = bench
        .dse
        .iter()
        .filter_map(|(_, body)| dse_counts(body))
        .collect();
    let sweeps = traced
        .phase
        .samples
        .iter()
        .filter(|s| traced.catalog[s.request].path == "/v1/dse")
        .count();
    let untraced_p50 = percentile(&latencies_ms(&untraced.phase.samples), 50.0);
    let traced_p50 = percentile(&latencies_ms(&traced.phase.samples), 50.0);

    let mut out = vec![
        metric(
            "service.server.handle_us_p50",
            percentile(&server_us, 50.0),
            "us",
        ),
        metric(
            "service.server.handle_us_p99",
            percentile(&server_us, 99.0),
            "us",
        ),
        metric(
            "service.outside_us_p50",
            percentile(&outside_us, 50.0),
            "us",
        ),
        metric("service.http.frame_us", us_p50("service.http.frame"), "us"),
        metric("service.api.parse_us", us_p50("service.api.parse"), "us"),
        metric("service.api.key_us", us_p50("service.api.key"), "us"),
        metric("service.api.render_us", us_p50("service.api.render"), "us"),
        metric(
            "service.server.response_cache_hit_ratio",
            ratio(delta(|s| s.service.responses_cached), sent),
            "ratio",
        ),
        metric(
            "service.server.keepalive_reuse_ratio",
            ratio(
                delta(|s| s.service.keepalive_reuses),
                delta(|s| s.service.requests),
            ),
            "ratio",
        ),
        metric(
            "service.bytes_per_response",
            mean(
                &traced
                    .phase
                    .samples
                    .iter()
                    .map(|s| s.bytes as f64)
                    .collect::<Vec<_>>(),
            ),
            "bytes",
        ),
        metric(
            "service.client.reconnects",
            traced.phase.reconnects as f64,
            "count",
        ),
        metric("service.latency_samples", sent, "count"),
        metric(
            "service.tracing_overhead_ms",
            traced_p50 - untraced_p50,
            "ms",
        ),
        metric("service.pool.shed", delta(|s| s.service.shed), "count"),
        metric(
            "service.server.coalesced",
            delta(|s| s.service.coalesced),
            "count",
        ),
        metric("core.planner.plan_us", us_p50("core.planner.plan"), "us"),
        metric(
            "core.planner.cache_hit_ratio",
            ratio(
                delta(|s| s.plan.hits),
                delta(|s| s.plan.hits + s.plan.misses),
            ),
            "ratio",
        ),
        metric(
            "core.planner.plans_per_sweep",
            ratio(delta(|s| s.plan.misses), sweeps as f64),
            "count",
        ),
        metric(
            "dataflow.engine.search_us",
            us_p50("dataflow.engine.search"),
            "us",
        ),
        metric(
            "dataflow.engine.cache_hit_ratio",
            ratio(
                delta(|s| s.search.hits),
                delta(|s| s.search.hits + s.search.misses),
            ),
            "ratio",
        ),
        metric("sim.simulate_us", us_p50("sim.simulate"), "us"),
        metric("bound.summary_us", us_p50("bound.summary"), "us"),
        metric("bound.filter.floors_s", floors_s, "s"),
        metric(
            "core.dse.pruned_ratio",
            mean(
                &dse.iter()
                    .map(|c| ratio(c.pruned as f64, c.unique as f64))
                    .collect::<Vec<_>>(),
            ),
            "ratio",
        ),
        metric(
            "core.dse.evaluated",
            mean(&dse.iter().map(|c| c.evaluated as f64).collect::<Vec<_>>()),
            "count",
        ),
        metric(
            "core.dse.eval_s",
            (s_p50("core.dse.sweep") - floors_s).max(0.0),
            "s",
        ),
        metric("rows.e2e_us", e2e, "us"),
    ];
    for row in ROWS {
        out.push(metric(&format!("rows.{row}_us"), rows[row], "us"));
    }
    out.push(metric("rows.remainder_us", remainder, "us"));
    println!(
        "rows: {} joined requests; layer rows + remainder = {:.3} us = e2e {:.3} us",
        joined.len(),
        rows.values().sum::<f64>() + remainder,
        e2e
    );
    out
}
