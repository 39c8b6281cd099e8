//! The frame pipeline: an ordered sequence of named, role-tagged
//! kernel stages.
//!
//! Earlier revisions modeled a training iteration as exactly three
//! kernels (`forward`/`loss`/`gradcomp` fields on `IterationTraces`),
//! which every layer above `warp-trace` then hardcoded. Real renderers
//! run more: tile-binned 3DGS spends a large share of each frame in
//! map-intersect / radix-sort / scan / binning kernels before the
//! rasterizer ever fires. [`FrameTrace`] generalizes the model to an
//! ordered list of [`KernelStage`]s, each carrying
//!
//! * a **name** — joins the sim-service store key (legacy stage names
//!   `forward`/`loss`/`gradcomp` are exempt so pre-existing store
//!   entries stay valid; see `sim_service::store_key_staged`) and keys
//!   the bench harness's pass/report caches;
//! * a **kind** — the [`KernelKind`] of its trace (derived, never set
//!   independently);
//! * a **role** — [`StageRole::Rewritable`] stages are candidates for
//!   the technique's atomic-reduction trace rewrite
//!   (`prepare_cow`); [`StageRole::Fixed`] stages run as-is on the
//!   technique's hardware path.
//!
//! The trace itself sits behind an [`Arc`], so handing a stage's trace
//! to a simulation request ([`KernelStage::shared_trace`]) shares it
//! instead of copying every warp.
//!
//! The legacy three-stage shape is [`FrameTrace::legacy`]; consumers
//! that only care about the classic triple keep working through the
//! [`FrameTrace::forward`]/[`loss`](FrameTrace::loss)/
//! [`gradcomp`](FrameTrace::gradcomp) accessors.

use std::sync::Arc;

use warp_trace::{KernelKind, KernelTrace};

/// Whether a stage's trace is eligible for the technique's
/// atomic-reduction rewrite.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum StageRole {
    /// The technique's trace transform is applied before simulation
    /// (classically the gradient-computation kernel; for tile-binned
    /// 3DGS also the radix-sort digit histogram).
    Rewritable,
    /// The stage runs unmodified on the technique's atomic path.
    Fixed,
}

/// One named kernel stage of a frame.
#[derive(Clone, Debug, PartialEq)]
pub struct KernelStage {
    name: String,
    kind: KernelKind,
    role: StageRole,
    trace: Arc<KernelTrace>,
}

impl KernelStage {
    /// A stage wrapping `trace`; the stage kind is the trace's kind.
    pub fn new(name: impl Into<String>, role: StageRole, trace: KernelTrace) -> Self {
        KernelStage {
            name: name.into(),
            kind: trace.kind(),
            role,
            trace: Arc::new(trace),
        }
    }

    /// Stage name (joins store keys and harness cache keys).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The wrapped trace's kernel kind.
    pub fn kind(&self) -> KernelKind {
        self.kind
    }

    /// Rewrite eligibility.
    pub fn role(&self) -> StageRole {
        self.role
    }

    /// The stage's kernel trace.
    pub fn trace(&self) -> &KernelTrace {
        &self.trace
    }

    /// The stage's kernel trace as a shared handle: cloning it is a
    /// reference-count bump, not a copy of the trace.
    pub fn shared_trace(&self) -> &Arc<KernelTrace> {
        &self.trace
    }

    /// True iff the technique rewrite applies to this stage.
    pub fn rewritable(&self) -> bool {
        self.role == StageRole::Rewritable
    }
}

/// The legacy stage names whose store keys predate the stage segment.
pub const LEGACY_STAGES: [&str; 3] = ["forward", "loss", "gradcomp"];

/// One frame (or training iteration) as an ordered kernel pipeline.
#[derive(Clone, Debug, PartialEq)]
pub struct FrameTrace {
    id: String,
    stages: Vec<KernelStage>,
}

impl FrameTrace {
    /// A frame from an explicit stage list. Stage names must be unique
    /// (they key caches and store entries).
    pub fn new(id: impl Into<String>, stages: Vec<KernelStage>) -> Self {
        let id = id.into();
        assert!(!stages.is_empty(), "{id}: a frame needs at least one stage");
        for (i, s) in stages.iter().enumerate() {
            assert!(
                !stages[..i].iter().any(|p| p.name == s.name),
                "{id}: duplicate stage name `{}`",
                s.name
            );
        }
        FrameTrace { id, stages }
    }

    /// The classic three-stage training iteration: `forward` and
    /// `loss` fixed, `gradcomp` rewritable.
    pub fn legacy(
        id: impl Into<String>,
        forward: KernelTrace,
        loss: KernelTrace,
        gradcomp: KernelTrace,
    ) -> Self {
        FrameTrace::new(
            id,
            vec![
                KernelStage::new("forward", StageRole::Fixed, forward),
                KernelStage::new("loss", StageRole::Fixed, loss),
                KernelStage::new("gradcomp", StageRole::Rewritable, gradcomp),
            ],
        )
    }

    /// Workload identifier, e.g. `3D-DR`.
    pub fn id(&self) -> &str {
        &self.id
    }

    /// The stages in execution order.
    pub fn stages(&self) -> &[KernelStage] {
        &self.stages
    }

    /// Looks up a stage by name.
    pub fn stage(&self, name: &str) -> Option<&KernelStage> {
        self.stages.iter().find(|s| s.name == name)
    }

    fn expect_stage(&self, name: &str) -> &KernelTrace {
        self.stage(name)
            .unwrap_or_else(|| {
                panic!(
                    "frame `{}` has no `{name}` stage (stages: {:?})",
                    self.id,
                    self.stages
                        .iter()
                        .map(KernelStage::name)
                        .collect::<Vec<_>>()
                )
            })
            .trace()
    }

    /// The legacy forward stage. Panics if this frame has none.
    pub fn forward(&self) -> &KernelTrace {
        self.expect_stage("forward")
    }

    /// The legacy loss stage. Panics if this frame has none.
    pub fn loss(&self) -> &KernelTrace {
        self.expect_stage("loss")
    }

    /// The legacy gradient-computation stage. Panics if this frame has
    /// none.
    pub fn gradcomp(&self) -> &KernelTrace {
        self.expect_stage("gradcomp")
    }

    /// The frame's primary rewritable stage — the kernel the paper's
    /// techniques target (gradcomp for legacy frames, the radix digit
    /// histogram for tile-binned ones). Panics if no stage is
    /// rewritable.
    pub fn rewritable(&self) -> &KernelStage {
        self.stages
            .iter()
            .find(|s| s.rewritable())
            .unwrap_or_else(|| panic!("frame `{}` has no rewritable stage", self.id))
    }

    /// True iff this frame is exactly the legacy
    /// forward/loss/gradcomp triple.
    pub fn is_legacy(&self) -> bool {
        self.stages.len() == LEGACY_STAGES.len()
            && self
                .stages
                .iter()
                .zip(LEGACY_STAGES)
                .all(|(s, name)| s.name == name)
    }
}

/// True iff `name` is one of the legacy stage names whose store keys
/// must stay byte-identical to the pre-stage-segment era.
pub fn is_legacy_stage(name: &str) -> bool {
    LEGACY_STAGES.contains(&name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use warp_trace::{AtomicInstr, LaneOp, WarpTraceBuilder};

    fn tiny_trace(name: &str, kind: KernelKind) -> KernelTrace {
        let mut b = WarpTraceBuilder::new();
        b.compute_fp32(1).atomic(AtomicInstr::new(vec![LaneOp {
            lane: 0,
            addr: 0,
            value: 1.0,
        }]));
        KernelTrace::new(name.to_string(), kind, vec![b.finish()])
    }

    #[test]
    fn legacy_frame_exposes_the_classic_triple() {
        let f = FrameTrace::legacy(
            "T",
            tiny_trace("f", KernelKind::Forward),
            tiny_trace("l", KernelKind::Loss),
            tiny_trace("g", KernelKind::GradCompute),
        );
        assert!(f.is_legacy());
        assert_eq!(f.stages().len(), 3);
        assert_eq!(f.forward().kind(), KernelKind::Forward);
        assert_eq!(f.loss().kind(), KernelKind::Loss);
        assert_eq!(f.gradcomp().kind(), KernelKind::GradCompute);
        assert_eq!(f.rewritable().name(), "gradcomp");
        assert!(f.stage("forward").unwrap().role() == StageRole::Fixed);
        for name in LEGACY_STAGES {
            assert!(is_legacy_stage(name));
        }
        assert!(!is_legacy_stage("radix-histogram"));
    }

    #[test]
    fn stage_kind_follows_trace_kind() {
        let s = KernelStage::new("x", StageRole::Fixed, tiny_trace("x", KernelKind::Other));
        assert_eq!(s.kind(), KernelKind::Other);
        assert!(!s.rewritable());
    }

    #[test]
    #[should_panic(expected = "duplicate stage name")]
    fn duplicate_stage_names_are_rejected() {
        let t = tiny_trace("a", KernelKind::Other);
        FrameTrace::new(
            "D",
            vec![
                KernelStage::new("a", StageRole::Fixed, t.clone()),
                KernelStage::new("a", StageRole::Fixed, t),
            ],
        );
    }

    #[test]
    fn non_legacy_frame_is_detected() {
        let f = FrameTrace::new(
            "NL",
            vec![
                KernelStage::new(
                    "sort",
                    StageRole::Rewritable,
                    tiny_trace("s", KernelKind::Other),
                ),
                KernelStage::new(
                    "rasterize",
                    StageRole::Fixed,
                    tiny_trace("r", KernelKind::Forward),
                ),
            ],
        );
        assert!(!f.is_legacy());
        assert_eq!(f.rewritable().name(), "sort");
        assert!(f.stage("gradcomp").is_none());
    }
}
