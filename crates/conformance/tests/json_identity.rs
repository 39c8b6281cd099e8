//! JSON writer byte-identity: every value the store keys or persists —
//! one trace per fuzz shape, GPU and telemetry configs, a stored
//! result — must serialize to exactly the bytes pinned in
//! `tests/golden/json_identity.txt`, compact and pretty. The trace
//! digests (and therefore every store key) are hashes of these bytes,
//! so a writer change that moves one byte would silently turn every
//! persisted store cold.
//!
//! Each sample must also survive a trip through the generic `Value`
//! tree unchanged: writing a value directly and writing the tree parsed
//! back from that text are the same bytes.
//!
//! Re-bless with `CONFORMANCE_BLESS=1` only for an intentional format
//! change — which also requires a `SIM_VERSION` bump.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use arc_core::technique::Technique;
use conformance::fuzz::{Fuzzer, TraceShape};
use gpu_sim::telemetry::TelemetryConfig;
use gpu_sim::GpuConfig;
use serde::{Serialize, Value};
use sim_service::{blake2s, run_cell, EngineOpts, SimRequest, StoredValue};

fn golden_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/json_identity.txt")
}

/// A hand-built tree covering the writer's edge cases: escapes,
/// non-finite floats (written as `null`), integer extremes, and empty
/// and nested containers.
fn edge_value() -> Value {
    Value::Object(vec![
        (
            "str".to_string(),
            Value::Str("quote\" back\\ nl\n cr\r tab\t bell\u{7} é".to_string()),
        ),
        ("nan".to_string(), Value::Float(f64::NAN)),
        ("inf".to_string(), Value::Float(f64::NEG_INFINITY)),
        ("neg_zero".to_string(), Value::Float(-0.0)),
        ("tiny".to_string(), Value::Float(1e-300)),
        ("huge".to_string(), Value::Float(1e300)),
        ("min".to_string(), Value::Int(i64::MIN)),
        ("max".to_string(), Value::UInt(u64::MAX)),
        ("empty_arr".to_string(), Value::Array(vec![])),
        ("empty_obj".to_string(), Value::Object(vec![])),
        (
            "nested".to_string(),
            Value::Array(vec![
                Value::Null,
                Value::Bool(false),
                Value::Array(vec![Value::Object(vec![])]),
                Value::Object(vec![("k".to_string(), Value::Array(vec![]))]),
            ]),
        ),
    ])
}

/// Every sample as `(name, compact, pretty)` JSON text.
fn samples() -> Vec<(String, String, String)> {
    fn entry<T: Serialize + ?Sized>(name: String, x: &T) -> (String, String, String) {
        (
            name,
            serde_json::to_string(x).unwrap(),
            serde_json::to_string_pretty(x).unwrap(),
        )
    }
    let seed = conformance::DEFAULT_SEED;
    let mut out = Vec::new();
    for (case, shape) in TraceShape::ALL.iter().enumerate() {
        let mut f = Fuzzer::new(seed, case as u64);
        assert_eq!(f.shape(), *shape);
        out.push(entry(format!("trace/{}", shape.label()), &f.trace()));
        out.push(entry(format!("config/fuzz-{}", shape.label()), &f.config()));
    }
    out.push(entry("config/tiny".into(), &GpuConfig::tiny()));
    out.push(entry("config/4090-sim".into(), &GpuConfig::rtx4090_sim()));
    out.push(entry(
        "telemetry/default".into(),
        &TelemetryConfig::default(),
    ));
    out.push(entry(
        "telemetry/every-32".into(),
        &TelemetryConfig::every(32),
    ));

    // A stored result with telemetry and an embedded chrome-trace
    // string (itself JSON, so full of escapes).
    let mut f = Fuzzer::new(seed, 1);
    let req = SimRequest {
        config: GpuConfig::tiny(),
        technique: Technique::ArcHw,
        trace: f.trace().into(),
        rewrite: true,
        telemetry: Some(TelemetryConfig::every(8)),
        want_chrome: true,
        passes: Default::default(),
        stage: None,
    };
    let r = run_cell(None, &req, &EngineOpts::default()).expect("fuzz cell drains");
    let stored = StoredValue {
        key: "00".repeat(32),
        sim_version: gpu_sim::SIM_VERSION.to_string(),
        report: r.report,
        telemetry: r.telemetry,
        chrome: r.chrome,
    };
    out.push(entry("stored/hot-storm".into(), &stored));
    out.push(entry("value/edge-cases".into(), &edge_value()));
    out
}

fn snapshot(samples: &[(String, String, String)]) -> String {
    let mut text = String::new();
    for (name, compact, pretty) in samples {
        writeln!(
            text,
            "{name} {} {} {} {}",
            compact.len(),
            blake2s(compact.as_bytes()).to_hex(),
            pretty.len(),
            blake2s(pretty.as_bytes()).to_hex()
        )
        .unwrap();
    }
    text
}

#[test]
fn writer_output_matches_the_blessed_snapshot() {
    let fresh = snapshot(&samples());
    if std::env::var("CONFORMANCE_BLESS").is_ok() {
        std::fs::write(golden_path(), &fresh).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(golden_path()).expect("golden snapshot present");
    for (want, got) in golden.lines().zip(fresh.lines()) {
        assert_eq!(got, want, "JSON bytes moved for this sample");
    }
    assert_eq!(golden.lines().count(), fresh.lines().count());
}

#[test]
fn direct_writes_equal_value_tree_writes() {
    for (name, compact, pretty) in samples() {
        let tree: Value = serde_json::from_str(&compact).unwrap();
        assert_eq!(serde_json::to_string(&tree).unwrap(), compact, "{name}");
        assert_eq!(
            serde_json::to_string_pretty(&tree).unwrap(),
            pretty,
            "{name}"
        );
    }
}
