//! Criterion benchmark of the network-mode `/v1/dse` hot path: a
//! 16-candidate architecture sweep over **all of VGG-16 at batch 3**,
//! versus the serial per-candidate `/v1/network` oracle loop a client
//! would otherwise issue.
//!
//! Run with `cargo bench -p clb-bench --bench dse_network`. The run first
//! proves **bit identity**: every feasible candidate's `report` in the
//! sweep response equals the `/v1/network` response for that architecture
//! byte for byte (infeasible candidates must carry the identical
//! diagnosis `/v1/network` would 422 with). Then it times both paths and
//! enforces the acceptance bar: the warm-cache sweep (amortized by the
//! plan cache, keyed by layer and planning geometry, and the flat
//! `(candidate × layer)` rayon fan-out) must be ≥ 5× faster than the cold
//! serial oracle. The run prints the measured ratio and exits non-zero if
//! parity or the bar is missed.

use std::time::{Duration, Instant};

use accel_sim::{ArchConfig, DramConfig};
use clb_service::api;
use criterion::black_box;
use serde::{Deserialize, Serialize, Value};

const CANDIDATES: usize = 16;

/// The 16-candidate grid: PE height × LReg depth around the Table I design
/// space.
fn candidates() -> Vec<ArchConfig> {
    let mut archs = Vec::new();
    for pe_rows in [16usize, 24, 32, 48] {
        for lreg in [64usize, 128, 256, 512] {
            archs.push(ArchConfig {
                pe_rows,
                pe_cols: 16,
                group_rows: 4,
                group_cols: 4,
                lreg_entries_per_pe: lreg,
                igbuf_entries: 1600,
                wgbuf_entries: 256,
                greg_bytes: 10 * 1024,
                greg_segment_entries: 64,
                core_freq_hz: 500e6,
                dram: DramConfig::default(),
            });
        }
    }
    assert_eq!(archs.len(), CANDIDATES);
    for arch in &archs {
        arch.validate().expect("bench candidates are valid");
    }
    archs
}

fn obj(pairs: Vec<(&str, Value)>) -> Value {
    Value::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn dse_body(archs: &[ArchConfig]) -> Value {
    obj(vec![
        (
            "target",
            obj(vec![
                ("network", Value::String("vgg16".to_string())),
                ("batch", Value::Number(3.0)),
            ]),
        ),
        (
            "candidates",
            Value::Array(archs.iter().map(Serialize::to_value).collect()),
        ),
    ])
}

/// The serial oracle: one `/v1/network` request per candidate — exactly
/// what a client without network-mode `/v1/dse` would issue.
fn serial_oracle(archs: &[ArchConfig]) -> Vec<Result<String, String>> {
    archs
        .iter()
        .map(|arch| {
            let req = obj(vec![
                ("net", Value::String("vgg16".to_string())),
                ("batch", Value::Number(3.0)),
                ("arch", Serialize::to_value(arch)),
            ]);
            match api::network_response(&req) {
                Ok(raw) => Ok(raw),
                Err(api::ApiError::Unprocessable(msg)) => Err(msg),
                Err(other) => panic!("oracle failed unexpectedly: {other:?}"),
            }
        })
        .collect()
}

fn clear_caches() {
    clb_core::clear_plan_cache();
    dataflow::clear_search_cache();
}

/// Median wall-clock of `f` over `samples` runs.
fn measure<F: FnMut()>(samples: usize, mut f: F) -> Duration {
    let mut times: Vec<Duration> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed()
        })
        .collect();
    times.sort_unstable();
    times[times.len() / 2]
}

fn main() {
    let archs = candidates();
    let body = dse_body(&archs);

    // ---- Parity proof before any timing -------------------------------
    clear_caches();
    let dse_raw = api::dse_response(&body).expect("sweep completes");
    let dse: Value = serde_json::from_str(&dse_raw).unwrap();
    let results = dse.get_field("results").unwrap().as_array().unwrap();
    assert_eq!(results.len(), CANDIDATES, "all candidates evaluated");

    let oracle = serial_oracle(&archs);
    let mut feasible = 0usize;
    for entry in results {
        let arch = ArchConfig::from_value(entry.get_field("arch").unwrap()).unwrap();
        let i = archs
            .iter()
            .position(|a| a.cache_key() == arch.cache_key())
            .expect("every result echoes a submitted candidate");
        match (&oracle[i], entry.get_field("error").unwrap()) {
            (Ok(network_raw), Value::Null) => {
                feasible += 1;
                let network: Value = serde_json::from_str(network_raw).unwrap();
                assert_eq!(
                    entry.get_field("report").unwrap(),
                    &network,
                    "candidate {i}: dse network report != /v1/network report"
                );
            }
            (Err(msg), Value::String(reason)) => {
                assert_eq!(msg, reason, "candidate {i}: diagnoses diverged");
            }
            (oracle_side, dse_side) => {
                panic!("candidate {i}: oracle {oracle_side:?} disagrees with dse {dse_side:?}")
            }
        }
    }
    println!(
        "parity: {CANDIDATES}-candidate network-mode /v1/dse sweep over VGG-16 (batch 3) is \
         bit-identical to the serial /v1/network oracle ({feasible} feasible)"
    );

    // ---- Timings ------------------------------------------------------
    // Cold serial oracle: what a client pays issuing candidates one-by-one
    // against cold caches.
    let cold_serial = measure(5, || {
        clear_caches();
        black_box(serial_oracle(&archs));
    });

    // Warm sweep: the production shape — repeated whole-model what-if
    // sweeps against the resident service, planning amortized by the plan
    // cache.
    clear_caches();
    black_box(api::dse_response(&body).unwrap()); // warm the caches
    let warm_sweep = measure(10, || {
        black_box(api::dse_response(&body).unwrap());
    });

    let ratio = cold_serial.as_secs_f64() / warm_sweep.as_secs_f64();
    println!(
        "dse_network: serial /v1/network oracle (cold) {cold_serial:?}, network-mode /v1/dse \
         sweep (warm) {warm_sweep:?} — {ratio:.1}x"
    );
    assert!(
        ratio >= 5.0,
        "acceptance bar: warm-cache network sweep must be >= 5x the serial oracle, got {ratio:.2}x"
    );
}
