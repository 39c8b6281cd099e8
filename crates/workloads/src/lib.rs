//! Workload registry and experiment runner for the ARC reproduction.
//!
//! [`specs::all_specs`] reproduces the paper's Table 2: twelve
//! workloads across three raster-based differentiable rendering
//! applications (3DGS, NvDiffRec, Pulsar), each a seeded synthetic
//! scene matched to its dataset's characteristics (primitive count,
//! screen coverage, divergence); the extra `3D-TB` workload is the
//! production tile-binned 3DGS frame (sort/scan/bin kernels included).
//! [`pagerank`] is the Pannotia-style contrast workload of paper §5.6.
//! Every workload builds a [`frame::FrameTrace`] — an ordered pipeline
//! of named, role-tagged kernel stages — and [`runner`] wires those
//! stages to the `gpu-sim` simulator under every evaluated technique.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod frame;
pub mod pagerank;
pub mod runner;
pub mod specs;

pub use frame::{is_legacy_stage, FrameTrace, KernelStage, StageRole, LEGACY_STAGES};
pub use gpu_sim::TechniquePath;
pub use runner::{
    run_frame_staged, run_gradcomp, run_gradcomp_telemetry, run_iteration, run_iteration_piped,
    run_iteration_with, Technique,
};
pub use specs::{all_specs, spec, tile_binned_spec, App, WorkloadSpec};

/// Semantic fingerprint of trace generation, mixed into every
/// trace-digest memo key (see `sim_service::store`): a memo maps a
/// [`WorkloadSpec`] to the per-stage digests of the frame its
/// [`WorkloadSpec::build`] renders, so a warm store can key result
/// lookups without rendering anything.
///
/// Bump this string whenever a change can alter, for some spec, the
/// frame `build` returns: its stage list, a stage's name or role, or
/// any byte of a stage trace's canonical JSON. That covers the
/// renderers and backward passes in `diffrender`, trace costs and
/// primitives, the spec builders here, the `rand` shim's streams, the
/// `warp-trace` serialization, and `sim_service::trace_digest`'s
/// encoding. Do not bump it for changes that only make building
/// faster. The golden `crates/conformance/tests/golden/tracegen.txt`
/// pins every registered spec's stage digests under this version, so
/// a digest that moves without a bump fails CI. A stale memo is never
/// served: its key embeds the version, and every entry repeats it and
/// is checked on read.
pub const TRACEGEN_VERSION: &str = "arc-tracegen-2026.10";
