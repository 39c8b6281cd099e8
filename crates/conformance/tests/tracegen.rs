//! Trace-generation fingerprint: the stage digests of every registered
//! workload spec, pinned under `arc_workloads::TRACEGEN_VERSION` in
//! `tests/golden/tracegen.txt`.
//!
//! A result store memoizes `spec → per-stage trace digests` keyed by
//! that version, so a warm store can key its lookups without rendering.
//! A change that moves any digest without a version bump would make
//! every memo silently wrong (its cells keyed by digests no render
//! produces any more); this test turns that into a CI failure.
//!
//! After an intentional trace-generation change: bump
//! `TRACEGEN_VERSION`, then re-bless with `CONFORMANCE_BLESS=1`.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use arc_workloads::TRACEGEN_VERSION;
use sim_service::trace_digest;

/// Small enough to build every workload in seconds, large enough that
/// every stage carries real atomics.
const SCALE: f64 = 0.2;

fn golden_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/tracegen.txt")
}

/// One `id stage rewritable|fixed digest` row per stage of every
/// Table-2 spec plus the tile-binned frame.
fn rows() -> Vec<String> {
    let specs = arc_workloads::all_specs()
        .into_iter()
        .chain([arc_workloads::tile_binned_spec()]);
    let mut rows = Vec::new();
    for spec in specs {
        let frame = spec.clone().scaled(SCALE).build();
        for stage in frame.stages() {
            let role = if stage.rewritable() {
                "rewritable"
            } else {
                "fixed"
            };
            rows.push(format!(
                "{} {} {role} {}",
                spec.id,
                stage.name(),
                trace_digest(stage.trace()).to_hex()
            ));
        }
    }
    rows
}

fn header(version: &str) -> String {
    format!("tracegen-version {version} scale {SCALE}")
}

#[test]
fn stage_digests_match_the_golden_for_this_tracegen_version() {
    let fresh = rows();
    if std::env::var("CONFORMANCE_BLESS").is_ok() {
        let mut text = header(TRACEGEN_VERSION);
        text.push('\n');
        for row in &fresh {
            writeln!(text, "{row}").unwrap();
        }
        std::fs::write(golden_path(), text).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(golden_path()).expect("golden present");
    let mut lines = golden.lines();
    let blessed = lines.next().unwrap_or_default();
    assert_eq!(
        blessed,
        header(TRACEGEN_VERSION),
        "the golden was blessed under another TRACEGEN_VERSION or scale: \
         re-bless with CONFORMANCE_BLESS=1"
    );
    let pinned: Vec<&str> = lines.collect();
    for (want, got) in pinned.iter().zip(&fresh) {
        assert_eq!(
            got, want,
            "a stage digest moved under TRACEGEN_VERSION {TRACEGEN_VERSION}: \
             bump TRACEGEN_VERSION and re-bless (CONFORMANCE_BLESS=1)"
        );
    }
    assert_eq!(
        pinned.len(),
        fresh.len(),
        "the stage list changed under TRACEGEN_VERSION {TRACEGEN_VERSION}: \
         bump TRACEGEN_VERSION and re-bless (CONFORMANCE_BLESS=1)"
    );
}
