//! Warp-level instructions.

use serde::{Deserialize, Serialize};

use crate::{LaneMask, WARP_SIZE};

/// Classification of a single-cycle-issue compute instruction.
///
/// The simulator charges one issue slot per compute instruction regardless
/// of kind; the kind matters for the energy model and for instruction-mix
/// statistics (e.g. how many `Shfl`/`Match` instructions an ARC-SW rewrite
/// inserted).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ComputeKind {
    /// Integer ALU operation (IADD, logic, address arithmetic).
    IntAlu,
    /// Single-precision floating point op (FADD/FMUL).
    Fp32,
    /// Fused multiply-add.
    Ffma,
    /// Special function unit op (rsqrt, exp, ...).
    Sfu,
    /// Warp shuffle (`__shfl_sync`) — the workhorse of software reduction.
    Shfl,
    /// Warp match (`__match_any_sync`) — finds lanes updating the same
    /// address.
    Match,
    /// Warp vote / ballot / popc of a mask.
    Vote,
    /// Branch / control-flow overhead instruction.
    Branch,
}

impl ComputeKind {
    /// All compute kinds, in a fixed order usable for dense indexing.
    pub const ALL: [ComputeKind; 8] = [
        ComputeKind::IntAlu,
        ComputeKind::Fp32,
        ComputeKind::Ffma,
        ComputeKind::Sfu,
        ComputeKind::Shfl,
        ComputeKind::Match,
        ComputeKind::Vote,
        ComputeKind::Branch,
    ];

    /// Dense index of this kind within [`ComputeKind::ALL`].
    pub fn index(self) -> usize {
        match self {
            ComputeKind::IntAlu => 0,
            ComputeKind::Fp32 => 1,
            ComputeKind::Ffma => 2,
            ComputeKind::Sfu => 3,
            ComputeKind::Shfl => 4,
            ComputeKind::Match => 5,
            ComputeKind::Vote => 6,
            ComputeKind::Branch => 7,
        }
    }
}

/// One lane's contribution to an atomic instruction: lane index, the global
/// address it updates, and the f32 value it adds.
///
/// All atomics in the differentiable-rendering workloads are commutative
/// f32 `atomicAdd`s (paper §5.2), so the operation itself is implicit.
#[derive(Copy, Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct LaneOp {
    /// Lane index within the warp (0..32).
    pub lane: u8,
    /// Global memory address of the parameter-gradient word being updated.
    pub addr: u64,
    /// The gradient contribution added by this lane.
    pub value: f32,
}

/// A warp-wide atomic-add instruction: for each active lane, an address and
/// a value. Inactive lanes (control divergence; the paper's `COND1`/`COND2`
/// skips) simply have no [`LaneOp`].
///
/// # Example
///
/// ```
/// use warp_trace::{AtomicInstr, LaneOp};
///
/// // Lanes 0 and 5 update the same address; lane 9 a different one.
/// let instr = AtomicInstr::new(vec![
///     LaneOp { lane: 0, addr: 64, value: 1.0 },
///     LaneOp { lane: 5, addr: 64, value: 2.0 },
///     LaneOp { lane: 9, addr: 128, value: 3.0 },
/// ]);
/// assert_eq!(instr.active_mask().count(), 3);
/// assert!(!instr.single_address());
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct AtomicInstr {
    // Shared, not owned: an `AtomicInstr` is immutable once built, and
    // the trace-IR optimizer clones instructions wholesale when it
    // rebuilds a warp, so cloning must be a refcount bump rather than
    // a lane-op buffer copy.
    ops: std::sync::Arc<[LaneOp]>,
}

// Hand-written to keep the wire format identical to the former
// `#[derive]` on `ops: Vec<LaneOp>` (an object with one `ops` array):
// the `Arc` is invisible to serialization, and every golden trace file
// round-trips unchanged.
impl Serialize for AtomicInstr {
    fn serialize(&self, w: &mut serde::Writer) {
        w.begin_object();
        w.field("ops", &self.ops[..]);
        w.end_object();
    }
}

impl Deserialize for AtomicInstr {
    fn deserialize(v: &serde::Value) -> Result<Self, serde::Error> {
        let ops: Vec<LaneOp> = Deserialize::deserialize(v.field("ops")?)?;
        Ok(AtomicInstr { ops: ops.into() })
    }
}

impl AtomicInstr {
    /// Creates an atomic instruction from per-lane operations.
    ///
    /// # Panics
    ///
    /// Panics if lanes are not strictly ascending (which also rules out
    /// duplicates) or any lane index is `>= 32`.
    pub fn new(ops: Vec<LaneOp>) -> Self {
        let mut prev: i32 = -1;
        for op in &ops {
            assert!(
                (op.lane as usize) < WARP_SIZE,
                "lane {} out of range",
                op.lane
            );
            assert!(
                (op.lane as i32) > prev,
                "lane ops must be strictly ascending by lane (got {} after {})",
                op.lane,
                prev
            );
            prev = op.lane as i32;
        }
        AtomicInstr { ops: ops.into() }
    }

    /// Convenience constructor: all 32 lanes update `addr` with the given
    /// per-lane values.
    pub fn same_address(addr: u64, values: &[f32; WARP_SIZE]) -> Self {
        AtomicInstr {
            ops: values
                .iter()
                .enumerate()
                .map(|(lane, &value)| LaneOp {
                    lane: lane as u8,
                    addr,
                    value,
                })
                .collect(),
        }
    }

    /// The per-lane operations, ascending by lane.
    pub fn ops(&self) -> &[LaneOp] {
        &self.ops
    }

    /// Mask of lanes that participate in this atomic.
    pub fn active_mask(&self) -> LaneMask {
        self.ops.iter().map(|op| op.lane).collect()
    }

    /// Number of participating lanes — the paper's "atomic request" count
    /// for this instruction.
    pub fn active_count(&self) -> u32 {
        self.ops.len() as u32
    }

    /// Whether every active lane targets the same address (the intra-warp
    /// locality of paper §3.1 Observation 1). Empty instructions count as
    /// single-address.
    pub fn single_address(&self) -> bool {
        match self.ops.split_first() {
            None => true,
            Some((first, rest)) => rest.iter().all(|op| op.addr == first.addr),
        }
    }

    /// Whether no lane participates.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

/// One "reduce call" worth of atomics: the gradient updates a thread makes
/// for *all parameters of one primitive* (paper Fig. 5 lines 12–14, and the
/// `num_params` argument of `reduce_arc` in Fig. 13).
///
/// Every [`AtomicInstr`] in the bundle shares the grouping structure (which
/// lanes update which primitive) but targets a different parameter array,
/// so rewrites pay the `match`/branch overhead once per bundle and the
/// shuffle/atomic cost once per parameter.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct AtomicBundle {
    /// Per-parameter atomic instructions (e.g. 9 for 3DGS: dmean2D ×2,
    /// dconic ×3, dopacity, dcolor ×3).
    pub params: Vec<AtomicInstr>,
    /// Whether the enclosing loop is *warp-uniform*: every lane of the warp
    /// executes every iteration (as in 3DGS/NvDiffRec tile loops, where all
    /// threads walk the same per-tile primitive list). Only then can the
    /// programmer apply the paper's Fig. 17 transform (inactive lanes
    /// contribute zero) that butterfly reduction (SW-B) requires. Per-thread
    /// loops (Pulsar) are not uniform, which is why "SW-B cannot be used for
    /// PS-SS and PS-SL" (paper Fig. 23 caption).
    pub uniform_iteration: bool,
}

impl AtomicBundle {
    /// Creates a bundle whose enclosing loop is warp-uniform (the common
    /// tile-rasterizer case).
    pub fn new(params: Vec<AtomicInstr>) -> Self {
        AtomicBundle {
            params,
            uniform_iteration: true,
        }
    }

    /// Creates a bundle whose enclosing loop is per-thread (not
    /// warp-uniform), making SW-B ineligible.
    pub fn non_uniform(params: Vec<AtomicInstr>) -> Self {
        AtomicBundle {
            params,
            uniform_iteration: false,
        }
    }

    /// Number of parameters updated per active thread.
    pub fn num_params(&self) -> usize {
        self.params.len()
    }

    /// The union of active lanes across all parameters (normally all
    /// parameters share the same mask).
    pub fn active_mask(&self) -> LaneMask {
        self.params
            .iter()
            .fold(LaneMask::EMPTY, |m, p| m | p.active_mask())
    }

    /// Total lane-level atomic requests in the bundle.
    pub fn total_requests(&self) -> u64 {
        self.params.iter().map(|p| p.active_count() as u64).sum()
    }

    /// Whether every parameter's active lanes each target a single address.
    pub fn single_address(&self) -> bool {
        self.params.iter().all(AtomicInstr::single_address)
    }
}

/// A warp-level instruction, the unit the simulator issues.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Instr {
    /// `repeat` back-to-back compute instructions of the same kind
    /// (compressed representation; each costs one issue slot).
    Compute {
        /// Functional-unit class.
        kind: ComputeKind,
        /// How many consecutive instructions of this kind to issue.
        repeat: u16,
    },
    /// A global load that coalesced into `sectors` 32-byte memory sectors.
    /// The warp blocks until the data returns.
    Load {
        /// Number of memory transactions after address coalescing.
        sectors: u16,
    },
    /// A global store of `sectors` memory sectors (fire-and-forget, but it
    /// occupies LSU bandwidth).
    Store {
        /// Number of memory transactions after address coalescing.
        sectors: u16,
    },
    /// A bundle of plain `atomicAdd`s — the baseline path straight to the
    /// L2 ROP units.
    Atomic(AtomicBundle),
    /// A bundle of ARC-HW `atomred` instructions — eligible for warp-level
    /// reduction at the sub-core's reduction unit (paper §5.1).
    AtomRed(AtomicBundle),
}

impl Instr {
    /// One compute instruction of the given kind.
    pub fn compute(kind: ComputeKind) -> Self {
        Instr::Compute { kind, repeat: 1 }
    }

    /// Number of issue slots this instruction consumes at the sub-core.
    pub fn issue_slots(&self) -> u64 {
        match self {
            Instr::Compute { repeat, .. } => u64::from(*repeat),
            // Memory instructions and each atomic in a bundle occupy one
            // issue slot apiece.
            Instr::Load { .. } | Instr::Store { .. } => 1,
            Instr::Atomic(b) | Instr::AtomRed(b) => b.num_params().max(1) as u64,
        }
    }

    /// The atomic bundle carried by this instruction, if any.
    pub fn bundle(&self) -> Option<&AtomicBundle> {
        match self {
            Instr::Atomic(b) | Instr::AtomRed(b) => Some(b),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ops(v: &[(u8, u64, f32)]) -> Vec<LaneOp> {
        v.iter()
            .map(|&(lane, addr, value)| LaneOp { lane, addr, value })
            .collect()
    }

    #[test]
    fn atomic_instr_masks_and_locality() {
        let a = AtomicInstr::new(ops(&[(0, 8, 1.0), (1, 8, 2.0), (7, 8, 3.0)]));
        assert_eq!(a.active_mask(), LaneMask::from_lanes([0, 1, 7]));
        assert!(a.single_address());
        assert_eq!(a.active_count(), 3);

        let b = AtomicInstr::new(ops(&[(0, 8, 1.0), (1, 16, 2.0)]));
        assert!(!b.single_address());
    }

    #[test]
    fn empty_atomic_is_single_address() {
        let a = AtomicInstr::new(vec![]);
        assert!(a.single_address());
        assert!(a.is_empty());
        assert_eq!(a.active_mask(), LaneMask::EMPTY);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn unsorted_lanes_panic() {
        let _ = AtomicInstr::new(ops(&[(3, 8, 1.0), (1, 8, 2.0)]));
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn duplicate_lanes_panic() {
        let _ = AtomicInstr::new(ops(&[(3, 8, 1.0), (3, 8, 2.0)]));
    }

    #[test]
    fn same_address_constructor() {
        let a = AtomicInstr::same_address(0x40, &[0.5; 32]);
        assert!(a.single_address());
        assert!(a.active_mask().is_full());
        assert_eq!(a.active_count(), 32);
    }

    #[test]
    fn bundle_accounting() {
        let p0 = AtomicInstr::same_address(0, &[1.0; 32]);
        let p1 = AtomicInstr::same_address(4, &[2.0; 32]);
        let b = AtomicBundle::new(vec![p0, p1]);
        assert_eq!(b.num_params(), 2);
        assert_eq!(b.total_requests(), 64);
        assert!(b.single_address());
        assert!(b.active_mask().is_full());
    }

    #[test]
    fn issue_slots() {
        assert_eq!(
            Instr::Compute {
                kind: ComputeKind::Ffma,
                repeat: 7
            }
            .issue_slots(),
            7
        );
        assert_eq!(Instr::Load { sectors: 9 }.issue_slots(), 1);
        let b = AtomicBundle::new(vec![AtomicInstr::same_address(0, &[1.0; 32]); 3]);
        assert_eq!(Instr::Atomic(b.clone()).issue_slots(), 3);
        assert_eq!(Instr::AtomRed(b).issue_slots(), 3);
    }

    #[test]
    fn compute_kind_index_is_dense() {
        for (i, k) in ComputeKind::ALL.iter().enumerate() {
            assert_eq!(k.index(), i);
        }
    }
}
