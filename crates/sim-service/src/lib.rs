//! Simulation-as-a-service for the ARC reproduction.
//!
//! Cycle-level simulation is this repo's cost center. The engine-side
//! levers (worker sharding, fast-forward, epoch sync — PRs 1/4/6) make
//! a single run faster; this crate adds the complementary lever:
//! **never simulating the same cell twice**. It provides
//!
//! * [`store::ResultStore`] — a content-addressed on-disk cache keyed
//!   by a vendored BLAKE2s digest ([`hash`]) of the canonical trace
//!   bytes, [`gpu_sim::GpuConfig`], `Technique`, telemetry config, and
//!   the [`gpu_sim::SIM_VERSION`] fingerprint ([`key`]); entries are
//!   written atomically and anything unservable is a miss, never an
//!   error. It also memoizes each workload spec's per-stage trace
//!   digests ([`store::TraceMemo`], keyed by
//!   `arc_workloads::TRACEGEN_VERSION`), so callers can key lookups
//!   without rendering;
//! * [`exec`] — the single execution choke point: check the store
//!   ([`exec::lookup`], trace-free), simulate on miss and populate
//!   ([`exec::simulate`]);
//! * [`daemon`] / [`client`] — `simserved`, a long-lived Unix-socket
//!   server speaking length-prefixed JSON ([`proto`]) with request
//!   deduplication, a global concurrency bound, and streamed batch
//!   responses.
//!
//! The contract — a store or daemon hit is **byte-identical** to a
//! fresh run — is enforced by the conformance invariant
//! `store-equivalence` (see `crates/conformance`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod daemon;
pub mod exec;
pub mod hash;
pub mod key;
pub mod proto;
pub mod store;

pub use client::{ClientError, DaemonClient};
pub use daemon::DaemonHandle;
pub use exec::request_key;
pub use exec::{
    lookup, run_cell, run_cell_with_digest, simulate, CellQuery, EngineOpts, SimRequest, SimResult,
};
pub use hash::{blake2s, Digest};
pub use key::{memo_key, store_key, store_key_staged, trace_digest};
pub use proto::WireCell;
pub use store::{
    FsckReport, GcReport, MemoStage, ResultStore, StoreStats, StoredValue, TraceMemo, VerifyReport,
};
