//! Seeded request generation for the three workloads.
//!
//! Every body the server sees comes from here, and each is a pure function
//! of the workload seed and the request's position in its sequence: the
//! same seed always yields the same request sequence, a different seed a
//! different one (the tests at the bottom pin both).

use std::collections::HashSet;

/// The benchmark's workloads (see `BENCHMARK.json` for why each exists).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed-loop replay of [`hot_set`]: every timed request is a
    /// response-cache read.
    ServeHot,
    /// Closed-loop stream of unique bodies from [`ColdGen`]: every timed
    /// request computes.
    ServeCold,
    /// Two staged network-mode `/v1/dse` posts over the [`dse_body`] grid.
    DseSweep,
}

impl Workload {
    /// Parses a workload name as `BENCHMARK.json` spells it.
    pub fn parse(name: &str) -> Option<Workload> {
        [Workload::ServeHot, Workload::ServeCold, Workload::DseSweep]
            .into_iter()
            .find(|w| w.name() == name)
    }

    /// The name `BENCHMARK.json` gives the workload.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeHot => "serve_hot",
            Workload::ServeCold => "serve_cold",
            Workload::DseSweep => "dse_sweep",
        }
    }

    /// Concurrent closed-loop clients.
    pub fn clients(self) -> usize {
        match self {
            Workload::ServeHot | Workload::ServeCold => 2,
            Workload::DseSweep => 1,
        }
    }
}

/// One POST request: route plus JSON body.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Request {
    /// The endpoint, e.g. `/v1/plan`.
    pub path: &'static str,
    /// The JSON body exactly as sent.
    pub body: String,
}

impl Request {
    fn new(path: &'static str, body: String) -> Request {
        Request { path, body }
    }

    /// The keep-alive HTTP/1.1 request bytes, framed by the service's own
    /// client toolkit.
    pub fn wire(&self) -> Vec<u8> {
        clb_service::request_bytes("POST", self.path, &self.body, true)
    }
}

/// SplitMix64: a tiny, fast, well-mixed generator — all the benchmark
/// needs to turn a seed into shapes and orders.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` on a named `stream`, so independent uses of
    /// one seed do not share a sequence.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A uniform element of a non-empty slice.
    pub fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len())]
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}

const HOT_STREAM: u64 = 1;
const COLD_STREAM: u64 = 2;
const DSE_STREAM: u64 = 3;

/// The fixed `serve_hot` body set: two or three bodies per analysis route
/// plus the two large network reports (VGG-16 b3, 24.9 KB; ResNet-50 b3,
/// 97 KB).
/// The first network body is the VGG-16 b3 report on implementation 1 that
/// `dram_over_bound` reads.
pub fn hot_set() -> Vec<Request> {
    let r = |path, body: &str| Request::new(path, body.to_string());
    vec![
        r("/v1/network", r#"{"net":"vgg16","batch":3}"#),
        r("/v1/network", r#"{"net":"resnet50","batch":3}"#),
        r(
            "/v1/bound",
            r#"{"co":512,"size":28,"ci":256,"batch":3,"mem_kib":66.5}"#,
        ),
        r(
            "/v1/bound",
            r#"{"co":64,"size":56,"ci":64,"batch":1,"mem_kib":16}"#,
        ),
        r(
            "/v1/plan",
            r#"{"co":128,"size":56,"ci":64,"batch":3,"implem":1}"#,
        ),
        r(
            "/v1/plan",
            r#"{"co":512,"size":14,"ci":512,"batch":3,"implem":3}"#,
        ),
        r(
            "/v1/plan",
            r#"{"co":256,"size":28,"ci":128,"batch":2,"arch":{"pe_rows":24,"pe_cols":24,"lreg_entries_per_pe":64,"igbuf_entries":640}}"#,
        ),
        r(
            "/v1/simulate",
            r#"{"co":64,"size":56,"ci":64,"batch":1,"implem":1,"tiling":{"b":1,"z":64,"y":4,"x":56}}"#,
        ),
        r(
            "/v1/simulate",
            r#"{"co":32,"size":14,"ci":16,"batch":2,"implem":1,"tiling":{"b":1,"z":8,"y":7,"x":7}}"#,
        ),
        r(
            "/v1/sweep",
            r#"{"co":512,"size":28,"ci":256,"batch":3,"mem_kib":66.5}"#,
        ),
        r(
            "/v1/sweep",
            r#"{"co":128,"size":112,"ci":64,"batch":1,"mem_kib":32}"#,
        ),
        r(
            "/v1/sweep",
            r#"{"co":256,"size":14,"ci":256,"batch":3,"mem_kib":128}"#,
        ),
    ]
}

/// Index into [`hot_set`] of the `i`-th `serve_hot` request.
pub fn hot_pick(seed: u64, i: u64, set_len: usize) -> usize {
    Rng::new(seed ^ i.wrapping_mul(0xA24B_AED4_963E_E407), HOT_STREAM).below(set_len)
}

/// Every `COLD_NETWORK_EVERY`-th `serve_cold` body is a `/v1/network`
/// request: a small fixed share of whole-network analyses.
pub const COLD_NETWORK_EVERY: u64 = 16;

/// The `serve_cold` body stream: unique bodies with a random layer shape
/// and (for `/v1/plan` and `/v1/network`) a random architecture, drawn in
/// sequence from one seeded generator. Every shape and architecture here is
/// inside the service limits and plannable, so every request answers 200.
#[derive(Debug)]
pub struct ColdGen {
    rng: Rng,
    seen: HashSet<String>,
    produced: u64,
}

impl ColdGen {
    /// The stream for `seed`.
    pub fn new(seed: u64) -> ColdGen {
        ColdGen {
            rng: Rng::new(seed, COLD_STREAM),
            seen: HashSet::new(),
            produced: 0,
        }
    }

    /// The next unique request of the stream.
    pub fn next_request(&mut self) -> Request {
        let i = self.produced;
        self.produced += 1;
        loop {
            let request = if i % COLD_NETWORK_EVERY == COLD_NETWORK_EVERY - 1 {
                self.network()
            } else if self.rng.below(2) == 0 {
                self.plan()
            } else {
                self.sweep()
            };
            if self.seen.insert(request.body.clone()) {
                return request;
            }
        }
    }

    fn layer_fields(&mut self) -> String {
        let co = 16 * (1 + self.rng.below(32));
        let ci = 8 * (1 + self.rng.below(48));
        let size = 7 + self.rng.below(50);
        let k = self.rng.pick(&[1, 3, 3, 5]);
        let stride = self.rng.pick(&[1, 1, 2]);
        let batch = 1 + self.rng.below(4);
        format!(r#""co":{co},"size":{size},"ci":{ci},"k":{k},"stride":{stride},"batch":{batch}"#)
    }

    fn arch(&mut self) -> String {
        let pe = [8, 12, 16, 24, 32];
        let (rows, cols) = (self.rng.pick(&pe), self.rng.pick(&pe));
        let (group_rows, group_cols) = (self.rng.pick(&[1, 2, 4]), self.rng.pick(&[1, 2, 4]));
        let lreg = self.rng.pick(&[32, 64, 128]);
        let igbuf = self.rng.pick(&[256, 640, 1024, 1600]);
        let wgbuf = self.rng.pick(&[256, 1024]);
        format!(
            r#"{{"pe_rows":{rows},"pe_cols":{cols},"group_rows":{group_rows},"group_cols":{group_cols},"lreg_entries_per_pe":{lreg},"igbuf_entries":{igbuf},"wgbuf_entries":{wgbuf}}}"#
        )
    }

    fn plan(&mut self) -> Request {
        let layer = self.layer_fields();
        let arch = self.arch();
        Request::new("/v1/plan", format!(r#"{{{layer},"arch":{arch}}}"#))
    }

    fn sweep(&mut self) -> Request {
        let layer = self.layer_fields();
        let mem = self.rng.pick(&["16", "32", "66.5", "128"]);
        Request::new("/v1/sweep", format!(r#"{{{layer},"mem_kib":{mem}}}"#))
    }

    fn network(&mut self) -> Request {
        let depth = 2 + self.rng.below(3);
        let layers: Vec<String> = (0..depth)
            .map(|_| {
                let co = 16 * (1 + self.rng.below(16));
                let ci = 8 * (1 + self.rng.below(32));
                let size = 7 + self.rng.below(50);
                let kernel = self.rng.pick(&[1, 3, 3, 5]);
                format!(r#"{{"co":{co},"ci":{ci},"size":{size},"kernel":{kernel}}}"#)
            })
            .collect();
        let batch = 1 + self.rng.below(4);
        let arch = self.arch();
        Request::new(
            "/v1/network",
            format!(
                r#"{{"net":{{"name":"cold","batch":{batch},"layers":[{}]}},"arch":{arch}}}"#,
                layers.join(",")
            ),
        )
    }
}

/// The `dse_sweep` grid, in [`clb_service::api::GRID_AXES`] order (the two
/// GReg axes stay at the implementation-1 base): 7 × 7 × 3 × 3 × 4 × 5 × 3
/// = 26,460 candidates.
pub const DSE_AXES: [(&str, &[usize]); 7] = [
    ("pe_rows", &[4, 8, 12, 16, 24, 32, 64]),
    ("pe_cols", &[4, 8, 12, 16, 24, 32, 64]),
    ("group_rows", &[1, 2, 4]),
    ("group_cols", &[1, 2, 4]),
    ("lreg_entries_per_pe", &[16, 32, 64, 128]),
    ("igbuf_entries", &[96, 256, 640, 1024, 1600]),
    ("wgbuf_entries", &[64, 256, 1024]),
];

/// The `top_k` of the two `dse_sweep` posts, in order: the second misses
/// the response cache but could reuse the first one's plans.
pub const DSE_TOP_KS: [usize; 2] = [8, 16];

/// The staged network-mode `/v1/dse` body (`vgg16` b3, cycles objective)
/// with the seed permuting the order of every axis's values. The
/// frontier does not depend on that order, so every seed must get the
/// same answer.
pub fn dse_body(seed: u64, top_k: usize) -> Request {
    let mut rng = Rng::new(seed, DSE_STREAM);
    let axes: Vec<String> = DSE_AXES
        .iter()
        .map(|(name, values)| {
            let mut values = values.to_vec();
            rng.shuffle(&mut values);
            let list: Vec<String> = values.iter().map(usize::to_string).collect();
            format!(r#""{name}":[{}]"#, list.join(","))
        })
        .collect();
    Request::new(
        "/v1/dse",
        format!(
            r#"{{"target":{{"network":"vgg16","batch":3}},"objective":"cycles","top_k":{top_k},"grid":{{{}}}}}"#,
            axes.join(",")
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cold_prefix(seed: u64, n: usize) -> Vec<Request> {
        let mut gen = ColdGen::new(seed);
        (0..n).map(|_| gen.next_request()).collect()
    }

    fn hot_prefix(seed: u64, n: u64) -> Vec<usize> {
        (0..n).map(|i| hot_pick(seed, i, hot_set().len())).collect()
    }

    #[test]
    fn same_seed_same_sequences() {
        assert_eq!(cold_prefix(7, 300), cold_prefix(7, 300));
        assert_eq!(hot_prefix(7, 300), hot_prefix(7, 300));
        assert_eq!(dse_body(7, 8), dse_body(7, 8));
    }

    #[test]
    fn different_seeds_different_sequences() {
        assert_ne!(cold_prefix(7, 50), cold_prefix(8, 50));
        assert_ne!(hot_prefix(7, 50), hot_prefix(8, 50));
        assert_ne!(dse_body(7, 8), dse_body(8, 8));
    }

    #[test]
    fn cold_bodies_are_unique_and_mixed() {
        let bodies = cold_prefix(3, 2000);
        let distinct: HashSet<&String> = bodies.iter().map(|r| &r.body).collect();
        assert_eq!(distinct.len(), bodies.len());
        for path in ["/v1/plan", "/v1/sweep", "/v1/network"] {
            assert!(bodies.iter().any(|r| r.path == path), "no {path} body");
        }
        let networks = bodies.iter().filter(|r| r.path == "/v1/network").count();
        assert_eq!(networks as u64, 2000 / COLD_NETWORK_EVERY);
    }

    #[test]
    fn dse_grid_is_the_26460_candidate_one_for_every_seed() {
        let count: usize = DSE_AXES.iter().map(|(_, v)| v.len()).product();
        assert_eq!(count, 26_460);
        for seed in [1, 2, 3] {
            let body: serde::Value = serde_json::from_str(&dse_body(seed, 8).body).unwrap();
            let serde::Value::Object(fields) = &body else {
                panic!("not an object")
            };
            let grid = &fields.iter().find(|(k, _)| k == "grid").unwrap().1;
            let serde::Value::Object(axes) = grid else {
                panic!("grid not an object")
            };
            for ((name, values), (got_name, got)) in DSE_AXES.iter().zip(axes) {
                assert_eq!(name, got_name);
                let mut got = axis_values(got);
                got.sort_unstable();
                assert_eq!(&got, values);
            }
        }
    }

    fn axis_values(v: &serde::Value) -> Vec<usize> {
        let serde::Value::Array(items) = v else {
            panic!("axis not a list")
        };
        items
            .iter()
            .map(|x| match x {
                serde::Value::Number(n) => *n as usize,
                other => panic!("axis value {other:?}"),
            })
            .collect()
    }

    /// Every generated `serve_cold` body answers 200 in-process — the
    /// workload never fails by construction.
    #[test]
    fn cold_bodies_answer_200() {
        for request in cold_prefix(11, 100) {
            let value: serde::Value = serde_json::from_str(&request.body).unwrap();
            let response = clb_service::api::dispatch(request.path, &value);
            assert_eq!(
                response.status, 200,
                "{} {}: {}",
                request.path, request.body, response.body
            );
        }
    }
}
