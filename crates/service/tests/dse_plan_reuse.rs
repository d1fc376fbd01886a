//! Pins plan reuse across design-space candidates: candidates that differ
//! only in fields the planner never reads (PE-group shape and total GReg
//! bytes here) share one plan per layer geometry, with the process-wide
//! plan-cache statistics as the witness.
//!
//! This file deliberately holds a single `#[test]`: integration-test files
//! build into their own binary (own process), so nothing else touches the
//! plan cache and the counters are exact rather than bounds.

use clb_service::api;
use serde::Value;

fn obj(pairs: Vec<(&str, Value)>) -> Value {
    Value::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn num(n: f64) -> Value {
    Value::Number(n)
}

fn nums(values: &[f64]) -> Value {
    Value::Array(values.iter().copied().map(num).collect())
}

fn layer(co: f64, ci: f64, size: f64) -> Value {
    obj(vec![("co", num(co)), ("ci", num(ci)), ("size", num(size))])
}

#[test]
fn candidates_sharing_a_planning_geometry_plan_each_layer_once() {
    clb_core::clear_plan_cache();

    // Three layers, two geometries: the last two layers are identical.
    let net = obj(vec![
        ("name", Value::String("reuse".to_string())),
        ("batch", num(1.0)),
        (
            "layers",
            Value::Array(vec![
                layer(16.0, 8.0, 14.0),
                layer(16.0, 16.0, 14.0),
                layer(16.0, 16.0, 14.0),
            ]),
        ),
    ]);
    let (layers, geometries) = (3u64, 2u64);
    // Every candidate keeps implementation 1's PE array, LRegs, GBufs and
    // GReg segment; only the group shape and the GReg total vary.
    let body = obj(vec![
        ("target", obj(vec![("network", net.clone())])),
        (
            "grid",
            obj(vec![
                ("group_rows", nums(&[1.0, 2.0, 4.0])),
                ("group_cols", nums(&[1.0, 2.0, 4.0])),
            ]),
        ),
        (
            "candidates",
            Value::Array(vec![
                obj(vec![("greg_bytes", num(4096.0))]),
                obj(vec![("greg_bytes", num(65536.0))]),
            ]),
        ),
    ]);
    let response = api::dispatch("/v1/dse", &body);
    assert_eq!(response.status, 200, "{}", response.body);
    let dse: Value = serde_json::from_str(&response.body).unwrap();
    let unique = dse.get_field("unique").unwrap().as_number().unwrap() as u64;
    assert_eq!(unique, 11, "3 × 3 group grid plus two GReg totals");

    let stats = clb_core::plan_cache_stats();
    assert_eq!(
        stats.misses, geometries,
        "one plan per layer geometry, shared by every candidate: {stats:?}"
    );
    assert_eq!(
        stats.hits + stats.misses + stats.coalesced,
        unique * layers,
        "every (candidate, layer) unit looks its plan up once: {stats:?}"
    );

    // Sharing a plan changes no answer: each entry is the per-candidate
    // `/v1/network` response, byte for byte.
    let results = dse.get_field("results").unwrap().as_array().unwrap();
    assert_eq!(results.len() as u64, unique);
    for entry in results {
        assert_eq!(entry.get_field("error").unwrap(), &Value::Null);
        let oracle = api::dispatch(
            "/v1/network",
            &obj(vec![
                ("net", net.clone()),
                ("arch", entry.get_field("arch").unwrap().clone()),
            ]),
        );
        assert_eq!(oracle.status, 200, "{}", oracle.body);
        let report = serde_json::to_string_pretty(entry.get_field("report").unwrap()).unwrap();
        assert_eq!(report, oracle.body, "dse report must equal /v1/network");
    }
}
