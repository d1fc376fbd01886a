//! The closed-loop load generator: each client sends its next request only
//! after the previous reply arrived, over a keep-alive connection that it
//! re-opens whenever the server ends one.

use std::borrow::Cow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::server::ServerProc;
use crate::workload::{hot_pick, ColdGen, Request};

/// Client-side read timeout: far above any request of these workloads, so
/// only a hung server trips it.
pub const READ_TIMEOUT: Duration = Duration::from_secs(60);

/// One timed request.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Index of the request in the feed's catalog.
    pub request: usize,
    /// Ordinal of the connection it was sent on.
    pub conn: u64,
    /// Client-observed latency: first byte written to last byte read.
    pub latency_ns: u64,
    /// When the exchange ended, in ns since the timed window opened.
    pub done_ns: u64,
    /// Response status, 0 when the exchange itself failed.
    pub status: u16,
    /// Response body length.
    pub bytes: usize,
    /// The response body, kept when the expected bytes are computed after
    /// the timed window; `None` once checked.
    pub body: Option<String>,
    /// Whether the response equals the expected bytes (decided inline for
    /// feeds that know them up front, after the window otherwise).
    pub matched: bool,
}

/// Where a closed-loop phase gets its requests.
pub enum Feed<'a> {
    /// `serve_hot`: the `i`-th request replays [`hot_pick`] of the set,
    /// checked inline against the precomputed responses.
    Hot {
        /// Workload seed.
        seed: u64,
        /// Wire bytes of each set member.
        wires: &'a [Vec<u8>],
        /// Expected response body of each set member.
        expected: &'a [String],
        /// Requests handed out so far.
        next: AtomicU64,
    },
    /// `serve_cold`: fresh unique bodies, appended to the catalog as they
    /// are handed out and checked after the window.
    Cold(Mutex<(ColdGen, Vec<Request>)>),
}

impl Feed<'_> {
    /// A `serve_cold` feed for `seed`.
    pub fn cold(seed: u64) -> Feed<'static> {
        Feed::Cold(Mutex::new((ColdGen::new(seed), Vec::new())))
    }

    fn next(&self) -> (usize, Cow<'_, [u8]>) {
        match self {
            Feed::Hot {
                seed, wires, next, ..
            } => {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let idx = hot_pick(*seed, i, wires.len());
                (idx, Cow::Borrowed(&wires[idx]))
            }
            Feed::Cold(state) => {
                let mut state = state.lock().expect("cold feed poisoned");
                let request = state.0.next_request();
                let wire = request.wire();
                state.1.push(request);
                (state.1.len() - 1, Cow::Owned(wire))
            }
        }
    }

    fn expected(&self, idx: usize) -> Option<&str> {
        match self {
            Feed::Hot { expected, .. } => Some(&expected[idx]),
            Feed::Cold(_) => None,
        }
    }

    /// The requests a `serve_cold` feed handed out, in catalog order.
    pub fn into_catalog(self) -> Vec<Request> {
        match self {
            Feed::Hot { .. } => Vec::new(),
            Feed::Cold(state) => state.into_inner().expect("cold feed poisoned").1,
        }
    }
}

/// What one closed-loop phase observed.
#[derive(Debug, Default)]
pub struct Phase {
    /// Every request sent, per client in send order, clients concatenated.
    pub samples: Vec<Sample>,
    /// Wall time from the start until the last client finished.
    pub window: Duration,
    /// Connections the server ended at its keep-alive budget, each
    /// followed by a reconnect (not a failure).
    pub reconnects: u64,
    /// The server's peak resident set (MiB) when the [`RSS_AT`]-th request
    /// completed, or at the end of the window if fewer completed.
    pub rss_mb: f64,
}

/// Completed requests after which a closed-loop phase reads the server's
/// peak memory. The `serve_cold` caches grow with every request, so a peak
/// read at the end of the window would grow with the host's speed; a fixed
/// request count makes it a property of the work done. 4,500 lies between
/// two growth steps of the server's caches. At the slowest `serve_cold`
/// throughput seen on a 2-vCPU host, about 300 requests/s, it is reached
/// after 15 s.
pub const RSS_AT: u64 = 4_500;

/// The slice length the window is cut into for the end-to-end medians.
pub const SLICE: Duration = Duration::from_secs(1);

/// Runs `clients` closed-loop clients against `server` for `seconds`.
pub fn closed_loop(server: &ServerProc, feed: &Feed<'_>, clients: usize, seconds: f64) -> Phase {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let completed = AtomicU64::new(0);
    let rss_at = Mutex::new(None);
    let per_client: Vec<(Vec<Sample>, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| scope.spawn(|| client(server, feed, start, deadline, &completed, &rss_at)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let rss_at = rss_at.into_inner().expect("rss lock poisoned");
    let mut phase = Phase {
        window: start.elapsed(),
        rss_mb: rss_at.or_else(|| server.peak_rss_mb()).unwrap_or(0.0),
        ..Phase::default()
    };
    for (samples, reconnects) in per_client {
        phase.samples.extend(samples);
        phase.reconnects += reconnects;
    }
    phase
}

fn client(
    server: &ServerProc,
    feed: &Feed<'_>,
    start: Instant,
    deadline: Instant,
    completed: &AtomicU64,
    rss_at: &Mutex<Option<f64>>,
) -> (Vec<Sample>, u64) {
    let since_start = || nanos(start.elapsed());
    let mut samples = Vec::new();
    let mut reconnects = 0;
    let mut conn = None;
    while Instant::now() < deadline {
        let (request, wire) = feed.next();
        let mut c = match conn.take() {
            Some(c) => c,
            None => match server.connect(READ_TIMEOUT) {
                Ok(c) => c,
                Err(_) => {
                    samples.push(Sample::failed(request, u64::MAX, since_start()));
                    continue;
                }
            },
        };
        let t0 = Instant::now();
        let result = c.exchange(&wire);
        let latency_ns = nanos(t0.elapsed());
        if completed.fetch_add(1, Ordering::Relaxed) + 1 == RSS_AT {
            *rss_at.lock().expect("rss lock poisoned") = server.peak_rss_mb();
        }
        match result {
            Ok(resp) => {
                let keep = resp.keeps_alive();
                let bytes = resp.body.len();
                let (matched, body) = match feed.expected(request) {
                    Some(expected) => (resp.status == 200 && resp.body == expected, None),
                    None => (false, Some(resp.body)),
                };
                samples.push(Sample {
                    request,
                    conn: c.ordinal,
                    latency_ns,
                    done_ns: since_start(),
                    status: resp.status,
                    bytes,
                    body,
                    matched,
                });
                if keep {
                    conn = Some(c);
                } else {
                    reconnects += 1;
                }
            }
            Err(_) => samples.push(Sample::failed(request, c.ordinal, since_start())),
        }
    }
    (samples, reconnects)
}

/// A duration in whole nanoseconds.
pub fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

impl Sample {
    /// A request that got no response: refused, reset or timed out.
    pub fn failed(request: usize, conn: u64, done_ns: u64) -> Sample {
        Sample {
            request,
            conn,
            latency_ns: u64::MAX,
            done_ns,
            status: 0,
            bytes: 0,
            body: None,
            matched: false,
        }
    }
}
