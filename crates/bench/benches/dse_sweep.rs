//! Criterion benchmark of the `/v1/dse` hot path: a 64-candidate
//! architecture sweep over VGG-16 conv4_1, versus the serial per-candidate
//! `/v1/plan` + `/v1/simulate` oracle loop a client would otherwise issue.
//!
//! Run with `cargo bench -p clb-bench --bench dse_sweep`. The run first
//! proves **bit identity**: every feasible candidate's report in the sweep
//! response equals the `/v1/plan` response's report for that architecture,
//! and its stats equal the `/v1/simulate` response for the planned tiling
//! (infeasible candidates must fail `/v1/plan` with the identical
//! diagnosis). Then it times both paths and enforces the acceptance bar:
//! the warm-cache sweep (amortized by the plan cache, keyed by layer and
//! planning geometry, and the rayon fan-out) must be ≥ 5× faster than the
//! serial oracle. The run prints the measured ratio and exits non-zero if
//! parity or the bar is missed.

use std::time::{Duration, Instant};

use accel_sim::{ArchConfig, DramConfig};
use clb_service::api;
use criterion::black_box;
use serde::{Deserialize, Serialize, Value};

const CANDIDATES: usize = 64;

/// The 64-candidate grid: PE height × LReg depth × IGBuf × GReg, around the
/// Table I design space.
fn candidates() -> Vec<ArchConfig> {
    let mut archs = Vec::new();
    for pe_rows in [16usize, 24, 32, 48] {
        for lreg in [64usize, 128, 256, 512] {
            for igbuf in [1024usize, 1600] {
                for greg_kb in [10usize, 18] {
                    archs.push(ArchConfig {
                        pe_rows,
                        pe_cols: 16,
                        group_rows: 4,
                        group_cols: 4,
                        lreg_entries_per_pe: lreg,
                        igbuf_entries: igbuf,
                        wgbuf_entries: 256,
                        greg_bytes: greg_kb * 1024,
                        greg_segment_entries: 64,
                        core_freq_hz: 500e6,
                        dram: DramConfig::default(),
                    });
                }
            }
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

/// VGG-16 conv4_1 at batch 3 (the paper's evaluation batch).
fn layer_fields() -> Vec<(&'static str, Value)> {
    vec![
        ("co", Value::Number(512.0)),
        ("size", Value::Number(28.0)),
        ("ci", Value::Number(256.0)),
        ("k", Value::Number(3.0)),
        ("stride", Value::Number(1.0)),
        ("batch", Value::Number(3.0)),
    ]
}

fn dse_body(archs: &[ArchConfig]) -> Value {
    let mut fields = layer_fields();
    fields.push((
        "candidates",
        Value::Array(archs.iter().map(Serialize::to_value).collect()),
    ));
    obj(fields)
}

/// The serial oracle: per candidate, `/v1/plan` then `/v1/simulate` on the
/// planned tiling — exactly what a client without `/v1/dse` would issue.
/// Returns the raw per-candidate responses for the parity proof.
fn serial_oracle(archs: &[ArchConfig]) -> Vec<Result<(String, String), String>> {
    archs
        .iter()
        .map(|arch| {
            let mut plan_fields = layer_fields();
            plan_fields.push(("arch", Serialize::to_value(arch)));
            let plan_req = obj(plan_fields);
            match api::plan_response(&plan_req) {
                Ok(plan_raw) => {
                    let plan: Value = serde_json::from_str(&plan_raw).unwrap();
                    let tiling = plan
                        .get_field("report")
                        .unwrap()
                        .get_field("tiling")
                        .unwrap()
                        .clone();
                    let mut sim_fields = layer_fields();
                    sim_fields.push(("arch", Serialize::to_value(arch)));
                    sim_fields.push(("tiling", tiling));
                    let sim_raw =
                        api::simulate_response(&obj(sim_fields)).expect("planned tilings simulate");
                    Ok((plan_raw, sim_raw))
                }
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
            (Ok((plan_raw, sim_raw)), Value::Null) => {
                feasible += 1;
                let plan: Value = serde_json::from_str(plan_raw).unwrap();
                assert_eq!(
                    entry.get_field("report").unwrap(),
                    plan.get_field("report").unwrap(),
                    "candidate {i}: dse report != /v1/plan report"
                );
                let sim: Value = serde_json::from_str(sim_raw).unwrap();
                assert_eq!(
                    entry
                        .get_field("report")
                        .unwrap()
                        .get_field("stats")
                        .unwrap(),
                    sim.get_field("stats").unwrap(),
                    "candidate {i}: dse stats != /v1/simulate stats"
                );
                assert_eq!(
                    entry.get_field("total_cycles").unwrap(),
                    sim.get_field("total_cycles").unwrap()
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
        "parity: {CANDIDATES}-candidate /v1/dse sweep over VGG-16 conv4_1 is bit-identical \
         to the serial /v1/plan + /v1/simulate oracle ({feasible} feasible)"
    );

    // ---- Timings ------------------------------------------------------
    // Cold serial oracle: what a client pays issuing candidates one-by-one
    // against cold caches.
    let cold_serial = measure(5, || {
        clear_caches();
        black_box(serial_oracle(&archs));
    });

    // Warm sweep: the production shape — repeated what-if sweeps against
    // the resident service, planning amortized by the plan cache.
    clear_caches();
    black_box(api::dse_response(&body).unwrap()); // warm the caches
    let warm_sweep = measure(10, || {
        black_box(api::dse_response(&body).unwrap());
    });

    let ratio = cold_serial.as_secs_f64() / warm_sweep.as_secs_f64();
    println!(
        "dse_sweep: serial oracle (cold) {cold_serial:?}, /v1/dse sweep (warm) {warm_sweep:?} \
         — {ratio:.1}x"
    );
    assert!(
        ratio >= 5.0,
        "acceptance bar: warm-cache sweep must be >= 5x the serial oracle, got {ratio:.2}x"
    );
}
