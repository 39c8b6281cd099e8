//! Cell execution: run one simulation through the store (check before,
//! populate after) or straight through the engine.
//!
//! This is the single choke point both the in-process API and the
//! daemon use, so the "store hit is byte-identical to a fresh run"
//! guarantee is enforced in exactly one place. It comes in two halves:
//! [`lookup`] serves a cell from the store knowing only its trace's
//! digest, and [`simulate`] runs and populates a miss.
//! [`run_cell_with_digest`] is one then the other; a batch caller that
//! has digests before it has traces (the bench harness on a memoized
//! store) calls the halves itself, rendering only for the misses.

use std::borrow::Cow;
use std::sync::Arc;

use arc_core::passes::PassPipeline;
use arc_core::technique::{Technique, TraceTransform};
use gpu_sim::telemetry::{KernelTelemetry, TelemetryConfig};
use gpu_sim::{EpochMode, GpuConfig, KernelReport, SimError, Simulator, TechniquePath};
use warp_trace::KernelTrace;

use crate::hash::Digest;
use crate::key::{store_key_staged, trace_digest};
use crate::store::ResultStore;

/// One simulation cell: everything that determines the output.
#[derive(Clone, Debug)]
pub struct SimRequest {
    /// GPU model.
    pub config: GpuConfig,
    /// Atomic-reduction technique (selects path + trace rewrite).
    pub technique: Technique,
    /// The kernel to run (pre-rewrite; the executor applies the
    /// technique's trace transform when `rewrite` is set).
    pub trace: Arc<KernelTrace>,
    /// Apply the technique's trace rewrite before simulating. True for
    /// gradcomp kernels; false for forward/loss kernels, which run
    /// unrewritten on the technique's hardware path (mirroring
    /// `run_iteration_with`).
    pub rewrite: bool,
    /// Telemetry sampling configuration; `None` = report only.
    pub telemetry: Option<TelemetryConfig>,
    /// Also produce the `chrome://tracing` export (requires
    /// `telemetry`).
    pub want_chrome: bool,
    /// Optimizer pass pipeline applied to the trace *before* any
    /// technique rewrite (`ARC_PASSES`). Part of the store key; the
    /// empty pipeline keys and simulates exactly like a build without
    /// passes.
    pub passes: PassPipeline,
    /// Frame-pipeline stage name this cell simulates, if any. Keys the
    /// cell via [`crate::key::store_key_staged`]: `None` and legacy
    /// stage names (`forward`/`loss`/`gradcomp`) reproduce the
    /// historical stage-less key; other stages get their own cell even
    /// when two stages share a trace digest. Execution is unaffected.
    pub stage: Option<String>,
}

/// Engine execution knobs. These never change results (pinned by the
/// conformance determinism invariants) and are therefore *not* part of
/// the store key; they only apply when a cell actually simulates.
/// `None` fields fall back to the engine's environment-variable
/// defaults (`ARC_SIM_WORKERS`, `ARC_FF`, `ARC_SIM_EPOCH`).
#[derive(Clone, Copy, Debug, Default)]
pub struct EngineOpts {
    /// SM worker threads.
    pub workers: Option<usize>,
    /// Event-driven fast-forward.
    pub fast_forward: Option<bool>,
    /// Epoch synchronization mode.
    pub epoch: Option<EpochMode>,
}

/// The observable output of one cell, plus whether it came from the
/// store.
#[derive(Clone, Debug)]
pub struct SimResult {
    /// The kernel report.
    pub report: KernelReport,
    /// Telemetry (present iff requested).
    pub telemetry: Option<KernelTelemetry>,
    /// Chrome-trace JSON (present iff requested).
    pub chrome: Option<String>,
    /// True when served from the store without simulating.
    pub cached: bool,
}

/// Everything about a cell except its trace: the fields that key it in
/// the store and shape its answer. A caller that knows a trace's digest
/// can look the cell up without holding the trace
/// ([`lookup`]); [`CellQuery::with_trace`] completes it into a
/// [`SimRequest`] for the miss path.
#[derive(Clone, Debug, PartialEq)]
pub struct CellQuery {
    /// See [`SimRequest::config`].
    pub config: GpuConfig,
    /// See [`SimRequest::technique`].
    pub technique: Technique,
    /// See [`SimRequest::rewrite`].
    pub rewrite: bool,
    /// See [`SimRequest::telemetry`].
    pub telemetry: Option<TelemetryConfig>,
    /// See [`SimRequest::want_chrome`].
    pub want_chrome: bool,
    /// See [`SimRequest::passes`].
    pub passes: PassPipeline,
    /// See [`SimRequest::stage`].
    pub stage: Option<String>,
}

impl CellQuery {
    /// The store key of this cell run on the trace with digest `trace`.
    pub fn key(&self, trace: &Digest) -> Digest {
        store_key_staged(
            gpu_sim::SIM_VERSION,
            &self.config,
            self.technique,
            self.rewrite,
            self.telemetry.as_ref(),
            trace,
            &self.passes,
            self.stage.as_deref(),
        )
    }

    /// The full request: this cell on `trace`.
    pub fn with_trace(self, trace: Arc<KernelTrace>) -> SimRequest {
        SimRequest {
            config: self.config,
            technique: self.technique,
            trace,
            rewrite: self.rewrite,
            telemetry: self.telemetry,
            want_chrome: self.want_chrome,
            passes: self.passes,
            stage: self.stage,
        }
    }
}

impl SimRequest {
    /// The trace-free half of the request.
    pub fn query(&self) -> CellQuery {
        CellQuery {
            config: self.config.clone(),
            technique: self.technique,
            rewrite: self.rewrite,
            telemetry: self.telemetry.clone(),
            want_chrome: self.want_chrome,
            passes: self.passes.clone(),
            stage: self.stage.clone(),
        }
    }
}

/// Derive the store key for `req` given a precomputed trace digest.
pub fn request_key(req: &SimRequest, trace: &Digest) -> Digest {
    req.query().key(trace)
}

/// The hit half of [`run_cell_with_digest`]: serve `query` on the
/// trace with digest `trace` from `store`, without the trace itself.
/// Counts one hit or one miss in the store's stats; `None` means the
/// cell must simulate ([`simulate`]).
pub fn lookup(store: &ResultStore, query: &CellQuery, trace: &Digest) -> Option<SimResult> {
    let mut hit = store.get(&query.key(trace))?;
    // A hit must be able to serve everything the request wants; an
    // entry produced without telemetry cannot answer a telemetry
    // request (the key includes the telemetry config, so this only
    // happens with hand-built entries — treat as a defect, i.e. a
    // miss).
    let servable = (query.telemetry.is_none() || hit.telemetry.is_some())
        && (!query.want_chrome || hit.telemetry.is_some());
    if !servable {
        return None;
    }
    let chrome = if query.want_chrome {
        // chrome_trace is a pure function of the telemetry, which
        // round-trips exactly through JSON — so a derived export is
        // byte-identical to a fresh one.
        match hit.chrome.take() {
            Some(c) => Some(c),
            None => hit.telemetry.as_ref().map(KernelTelemetry::chrome_trace),
        }
    } else {
        None
    };
    Some(SimResult {
        report: hit.report,
        telemetry: if query.telemetry.is_some() {
            hit.telemetry
        } else {
            None
        },
        chrome,
        cached: true,
    })
}

/// The miss half of [`run_cell_with_digest`]: simulate `req` and, when
/// `store` is present, populate it under the key `trace` (the digest of
/// `req.trace`) implies. Never reads the store.
pub fn simulate(
    store: Option<&ResultStore>,
    req: &SimRequest,
    opts: &EngineOpts,
    trace: &Digest,
) -> Result<SimResult, SimError> {
    let mut sim = Simulator::new(req.config.clone(), req.technique.path())?;
    if let Some(w) = opts.workers {
        sim = sim.with_sm_workers(w);
    }
    if let Some(ff) = opts.fast_forward {
        sim = sim.with_fast_forward(ff);
    }
    if let Some(e) = opts.epoch {
        sim = sim.with_epoch(e);
    }
    let piped: Cow<'_, KernelTrace> = req.passes.apply(&req.trace);
    let prepared: Cow<'_, KernelTrace> = if req.rewrite {
        match req.technique.prepare_cow(&piped) {
            Cow::Borrowed(_) => piped,
            Cow::Owned(t) => Cow::Owned(t),
        }
    } else {
        piped
    };
    let (report, telemetry) = match &req.telemetry {
        Some(tcfg) => {
            let sim = sim.with_telemetry(tcfg.clone());
            sim.run_with_telemetry(&prepared)?
        }
        None => (sim.run(&prepared)?, None),
    };
    let chrome = if req.want_chrome {
        telemetry.as_ref().map(KernelTelemetry::chrome_trace)
    } else {
        None
    };

    if let Some(store) = store {
        // Population failures (disk full, permissions) must not fail
        // the simulation itself — the result is already in hand.
        let key = request_key(req, trace);
        let _ = store.put(&key, &report, telemetry.as_ref(), chrome.as_deref());
    }

    Ok(SimResult {
        report,
        telemetry,
        chrome,
        cached: false,
    })
}

/// Run one cell, consulting `store` first when present and populating
/// it after a miss: [`lookup`], then [`simulate`]. `digest` is the
/// precomputed digest of `req.trace` (see [`trace_digest`]); batch
/// callers hash each trace once.
pub fn run_cell_with_digest(
    store: Option<&ResultStore>,
    req: &SimRequest,
    opts: &EngineOpts,
    digest: &Digest,
) -> Result<SimResult, SimError> {
    if let Some(hit) = store.and_then(|s| lookup(s, &req.query(), digest)) {
        return Ok(hit);
    }
    simulate(store, req, opts, digest)
}

/// [`run_cell_with_digest`] with the trace digest computed on the spot.
pub fn run_cell(
    store: Option<&ResultStore>,
    req: &SimRequest,
    opts: &EngineOpts,
) -> Result<SimResult, SimError> {
    let digest = trace_digest(&req.trace);
    run_cell_with_digest(store, req, opts, &digest)
}
