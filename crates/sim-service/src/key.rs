//! Content-addressed store keys.
//!
//! A key is the BLAKE2s-256 digest of a domain-separated, length-prefixed
//! concatenation of everything that determines a simulation's *output*:
//!
//! ```text
//! key = H( tag("arc-store-key-v1")
//!        ‖ seg(SIM_VERSION)
//!        ‖ seg(canonical GpuConfig JSON)
//!        ‖ seg(canonical Technique JSON)
//!        ‖ seg("rewritten" | "raw")
//!        ‖ seg(canonical TelemetryConfig JSON)   (or seg("none"))
//!        ‖ seg(trace digest bytes)
//!        ‖ seg(pass-pipeline key)                (omitted when empty) )
//! ```
//!
//! where `seg(x)` is `u64_le(len(x)) ‖ x` — the length prefixes make the
//! encoding injective, so no two distinct input tuples collide by
//! concatenation tricks. The trace enters via its own digest (hash of
//! its canonical JSON) so harness callers can hash each workload trace
//! once and reuse the digest across every (config, technique) cell.
//!
//! Deliberately *excluded* from the key: engine execution knobs — worker
//! count, fast-forward, epoch mode, job fan-out. The conformance
//! invariants `worker-determinism`, `fast-forward`, and
//! `epoch-equivalence` pin those to be byte-identical, so they can only
//! change how fast a result is produced, never the result. Folding them
//! in would shatter the cache across machines for no correctness gain.
//! The telemetry configuration *is* keyed: it changes the telemetry and
//! chrome-trace bytes stored alongside the report.
//!
//! The `ARC_PASSES` optimizer pipeline (`arc_core::passes`) is keyed
//! too — unlike the engine knobs, passes rewrite the trace the
//! simulator sees, so results legitimately differ per pass set. The
//! segment is appended *only* for a non-empty pipeline, which keeps
//! every pre-pipeline key (and every on-disk store populated before
//! passes existed) byte-identical for default-off runs. This stays
//! injective: the trace-digest segment before it is fixed-length
//! (8-byte prefix + 32-byte digest), so a keyless stream can never
//! alias a stream that carries the extra segment.
//!
//! Frame-pipeline stages follow the same compatibility discipline via
//! [`store_key_staged`]: a `seg("stage:" ‖ name)` segment is appended
//! *only* for stage names outside the legacy three-kernel frame
//! (`forward` / `loss` / `gradcomp`). Legacy stages and stage-less
//! requests key byte-identically to every store populated before frames
//! existed. Injectivity holds because the stage segment always starts
//! with `stage:` while a pass key never can (pass keys are comma-joined
//! names from a fixed registry containing no `:`), and both trail the
//! fixed-length trace-digest segment — so no (passes, stage) ambiguity
//! can arise.

use crate::hash::{Blake2s, Digest};
use arc_core::passes::PassPipeline;
use arc_core::technique::Technique;
use gpu_sim::telemetry::TelemetryConfig;
use gpu_sim::GpuConfig;
use warp_trace::KernelTrace;

/// Append one length-prefixed segment.
pub(crate) fn seg(h: &mut Blake2s, bytes: &[u8]) {
    h.update(&(bytes.len() as u64).to_le_bytes());
    h.update(bytes);
}

/// Digest of a trace's canonical JSON serialization.
///
/// This is the expensive part of key derivation for large traces;
/// callers batching many cells over the same trace should compute it
/// once and pass it to [`store_key`]. The JSON is written once into a
/// buffer and hashed from there: `seg` needs the length before the
/// bytes, so the text cannot be streamed into the hasher as it is
/// written without changing every existing key.
pub fn trace_digest(trace: &KernelTrace) -> Digest {
    let json = serde_json::to_vec(trace).expect("KernelTrace serializes");
    let mut h = Blake2s::new();
    seg(&mut h, b"arc-trace-v1");
    seg(&mut h, &json);
    h.finalize()
}

/// Derive the store key for one simulation cell.
///
/// `telemetry = None` keys a report-only run; `Some(cfg)` keys a run
/// whose stored value also carries the telemetry (and derived chrome
/// trace) produced under `cfg`. `rewrite` says whether the technique's
/// trace transform is applied before simulating (true for gradcomp
/// kernels, false for forward/loss kernels, which run unrewritten on
/// the technique's hardware path — see `run_iteration_with`). `passes`
/// is the optimizer pipeline applied to the trace before any technique
/// rewrite; an empty pipeline keys identically to a build without the
/// pipeline (see the module docs for why that stays injective).
pub fn store_key(
    sim_version: &str,
    config: &GpuConfig,
    technique: Technique,
    rewrite: bool,
    telemetry: Option<&TelemetryConfig>,
    trace: &Digest,
    passes: &PassPipeline,
) -> Digest {
    store_key_staged(
        sim_version,
        config,
        technique,
        rewrite,
        telemetry,
        trace,
        passes,
        None,
    )
}

/// [`store_key`] for one named stage of a frame pipeline.
///
/// Legacy stage names (`forward`, `loss`, `gradcomp`) and `None` key
/// byte-identically to [`store_key`] — the legacy frame is fully
/// determined by `(trace digest, rewrite)`, so renaming its stages must
/// not shatter existing on-disk stores. Non-legacy stages (the
/// tile-binned frame's sort/scan/bin kernels) append a `stage:`-tagged
/// segment so two stages sharing a trace digest but differing in name
/// stay distinct cells.
#[allow(clippy::too_many_arguments)]
pub fn store_key_staged(
    sim_version: &str,
    config: &GpuConfig,
    technique: Technique,
    rewrite: bool,
    telemetry: Option<&TelemetryConfig>,
    trace: &Digest,
    passes: &PassPipeline,
    stage: Option<&str>,
) -> Digest {
    let mut h = Blake2s::new();
    seg(&mut h, b"arc-store-key-v1");
    seg(&mut h, sim_version.as_bytes());
    let cfg_json = serde_json::to_string(config).expect("GpuConfig serializes");
    seg(&mut h, cfg_json.as_bytes());
    let tech_json = serde_json::to_string(&technique).expect("Technique serializes");
    seg(&mut h, tech_json.as_bytes());
    seg(&mut h, if rewrite { b"rewritten" } else { b"raw" });
    match telemetry {
        Some(t) => {
            let t_json = serde_json::to_string(t).expect("TelemetryConfig serializes");
            seg(&mut h, t_json.as_bytes());
        }
        None => seg(&mut h, b"none"),
    }
    seg(&mut h, &trace.0);
    if !passes.is_empty() {
        seg(&mut h, passes.key().as_bytes());
    }
    if let Some(name) = stage {
        if !arc_workloads::is_legacy_stage(name) {
            let mut tagged = Vec::with_capacity(6 + name.len());
            tagged.extend_from_slice(b"stage:");
            tagged.extend_from_slice(name.as_bytes());
            seg(&mut h, &tagged);
        }
    }
    h.finalize()
}

/// Key of a trace-digest memo entry (see [`crate::store::TraceMemo`]):
///
/// ```text
/// memo key = H( tag("arc-tracegen-memo-v1")
///             ‖ seg(TRACEGEN_VERSION)
///             ‖ seg(canonical WorkloadSpec JSON) )
/// ```
///
/// `spec_json` is the compact JSON of the exact spec handed to
/// `WorkloadSpec::build` — already scaled, so the scale is part of
/// the key through the canvas and primitive counts it sets.
pub fn memo_key(tracegen_version: &str, spec_json: &str) -> Digest {
    let mut h = Blake2s::new();
    seg(&mut h, b"arc-tracegen-memo-v1");
    seg(&mut h, tracegen_version.as_bytes());
    seg(&mut h, spec_json.as_bytes());
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use warp_trace::{KernelKind, WarpTraceBuilder};

    fn tiny_trace(name: &str) -> KernelTrace {
        let mut w = WarpTraceBuilder::new();
        w.compute_fp32(1);
        KernelTrace::new(name, KernelKind::GradCompute, vec![w.finish()])
    }

    #[test]
    fn key_sensitivity() {
        let cfg = GpuConfig::tiny();
        let mut cfg2 = cfg.clone();
        cfg2.num_sms += 1;
        let t = trace_digest(&tiny_trace("a"));
        let t2 = trace_digest(&tiny_trace("b"));
        let none = PassPipeline::empty();
        let base = store_key("v1", &cfg, Technique::Baseline, true, None, &t, &none);
        // Every input moves the key.
        assert_ne!(
            base,
            store_key("v2", &cfg, Technique::Baseline, true, None, &t, &none)
        );
        assert_ne!(
            base,
            store_key("v1", &cfg2, Technique::Baseline, true, None, &t, &none)
        );
        assert_ne!(
            base,
            store_key("v1", &cfg, Technique::ArcHw, true, None, &t, &none)
        );
        assert_ne!(
            base,
            store_key("v1", &cfg, Technique::Baseline, false, None, &t, &none)
        );
        assert_ne!(
            base,
            store_key("v1", &cfg, Technique::Baseline, true, None, &t2, &none)
        );
        assert_ne!(
            base,
            store_key(
                "v1",
                &cfg,
                Technique::Baseline,
                true,
                Some(&TelemetryConfig::every(4)),
                &t,
                &none
            )
        );
        // Telemetry interval is keyed too.
        assert_ne!(
            store_key(
                "v1",
                &cfg,
                Technique::Baseline,
                true,
                Some(&TelemetryConfig::every(4)),
                &t,
                &none
            ),
            store_key(
                "v1",
                &cfg,
                Technique::Baseline,
                true,
                Some(&TelemetryConfig::every(8)),
                &t,
                &none
            ),
        );
        // The pass set is keyed, and distinct sets key distinctly.
        let all = PassPipeline::all();
        let one = PassPipeline::parse("coalesce").unwrap();
        assert_ne!(
            base,
            store_key("v1", &cfg, Technique::Baseline, true, None, &t, &all)
        );
        assert_ne!(
            store_key("v1", &cfg, Technique::Baseline, true, None, &t, &one),
            store_key("v1", &cfg, Technique::Baseline, true, None, &t, &all)
        );
        // And it is deterministic.
        assert_eq!(
            base,
            store_key("v1", &cfg, Technique::Baseline, true, None, &t, &none)
        );
    }

    #[test]
    fn legacy_and_absent_stages_key_identically() {
        let cfg = GpuConfig::tiny();
        let t = trace_digest(&tiny_trace("a"));
        let none = PassPipeline::empty();
        let base = store_key("v1", &cfg, Technique::ArcHw, true, None, &t, &none);
        // None and every legacy stage name reproduce the historical key.
        for stage in [None, Some("forward"), Some("loss"), Some("gradcomp")] {
            assert_eq!(
                base,
                store_key_staged("v1", &cfg, Technique::ArcHw, true, None, &t, &none, stage),
                "stage {stage:?} must not move a legacy key"
            );
        }
    }

    #[test]
    fn non_legacy_stages_key_distinctly() {
        let cfg = GpuConfig::tiny();
        let t = trace_digest(&tiny_trace("a"));
        let none = PassPipeline::empty();
        let base = store_key("v1", &cfg, Technique::ArcHw, true, None, &t, &none);
        let hist = store_key_staged(
            "v1",
            &cfg,
            Technique::ArcHw,
            true,
            None,
            &t,
            &none,
            Some("radix-histogram"),
        );
        let scan = store_key_staged(
            "v1",
            &cfg,
            Technique::ArcHw,
            true,
            None,
            &t,
            &none,
            Some("intersect-scan"),
        );
        assert_ne!(base, hist, "a named pipeline stage is a distinct cell");
        assert_ne!(hist, scan, "stage names separate cells sharing a digest");
        // Deterministic.
        assert_eq!(
            hist,
            store_key_staged(
                "v1",
                &cfg,
                Technique::ArcHw,
                true,
                None,
                &t,
                &none,
                Some("radix-histogram"),
            )
        );
        // Stage and pass segments compose without aliasing.
        let all = PassPipeline::all();
        let hist_piped = store_key_staged(
            "v1",
            &cfg,
            Technique::ArcHw,
            true,
            None,
            &t,
            &all,
            Some("radix-histogram"),
        );
        assert_ne!(hist, hist_piped);
        assert_ne!(
            hist_piped,
            store_key("v1", &cfg, Technique::ArcHw, true, None, &t, &all)
        );
    }

    /// The digest of a fixed trace, pinned to the value computed before
    /// the JSON writer was rewritten: any byte the writer moves would
    /// re-key every store entry.
    #[test]
    fn trace_digest_is_pinned() {
        use warp_trace::{AtomicBundle, AtomicInstr, LaneOp, WarpTrace};
        let op = |lane, addr, value| LaneOp { lane, addr, value };
        let mut a = WarpTraceBuilder::new();
        a.compute_fp32(3)
            .load(2)
            .atomic(AtomicInstr::new(vec![
                op(0, 64, 0.1),
                op(7, u64::MAX, -2.5e-7),
                op(31, 0, f32::MAX),
            ]))
            .store(1);
        let mut b = WarpTraceBuilder::new();
        b.compute_ffma(2)
            .atomic_bundle(AtomicBundle::non_uniform(vec![
                AtomicInstr::new(vec![op(3, 128, 1.0)]),
                AtomicInstr::new(vec![]),
            ]));
        let trace = KernelTrace::new(
            "pin \"q\" \\ k",
            KernelKind::GradCompute,
            vec![a.finish(), b.finish(), WarpTrace::new()],
        );
        assert_eq!(
            trace_digest(&trace).to_hex(),
            "bbf7cd22276f0e971764e99c3a4a4bf271aeb8e5cbfd2a69b9972e3d59aff20b"
        );
    }

    #[test]
    fn memo_key_moves_with_version_and_spec() {
        let base = memo_key("v1", "{\"id\":\"a\"}");
        assert_eq!(base, memo_key("v1", "{\"id\":\"a\"}"));
        assert_ne!(base, memo_key("v2", "{\"id\":\"a\"}"));
        assert_ne!(base, memo_key("v1", "{\"id\":\"b\"}"));
        // Length prefixes keep the version/spec split injective.
        assert_ne!(memo_key("v1{", "x"), memo_key("v1", "{x"));
        // Pinned: moving the encoding strands every stored memo.
        assert_eq!(
            memo_key("v1", "{\"id\":\"a\"}").to_hex(),
            "55c6ea32502822059ba590b0c240e4d99496a3b1d6a73367e66941d08a81c6a4"
        );
    }

    #[test]
    fn trace_digest_reflects_content() {
        let a = tiny_trace("k");
        let mut w = WarpTraceBuilder::new();
        w.compute_fp32(2);
        let b = KernelTrace::new("k", KernelKind::GradCompute, vec![w.finish()]);
        assert_ne!(trace_digest(&a), trace_digest(&b));
        assert_eq!(trace_digest(&a), trace_digest(&tiny_trace("k")));
    }
}
