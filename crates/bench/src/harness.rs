//! Shared trace-building and simulation cache for the figure harness.

use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use arc_core::passes::{PassCache, PassPipeline};
use arc_workloads::{all_specs, FrameTrace, StageRole, Technique, TechniquePath};
use gpu_sim::{
    par_map, AtomicPath, GpuConfig, IterationReport, KernelReport, KernelTelemetry, Simulator,
    TelemetryConfig, TelemetrySummary,
};
use sim_service::{
    lookup, simulate, trace_digest, CellQuery, DaemonClient, Digest, EngineOpts, MemoStage,
    ResultStore, StoreStats, WireCell,
};
use warp_trace::KernelTrace;

/// Builds workload traces on demand (each is an actual render + backward
/// pass) and caches simulation reports so figures sharing data points —
/// e.g. the baseline runs used by every speedup — are computed once.
///
/// Traces are held behind [`Arc`] and simulators are cached per
/// (config, path), so neither is cloned or rebuilt per simulation. The
/// batch APIs ([`Harness::gradcomp_batch`] / [`Harness::iteration_batch`])
/// fan missing cells across a job pool (`jobs`, defaulting to the
/// `ARC_JOBS` environment variable or the machine's core count); the
/// per-cell accessors then serve warm cache hits, so figure code keeps
/// its simple serial loops and deterministic output order.
///
/// Beyond the in-memory caches, simulations can be routed through the
/// persistent result store or a `simserved` daemon: set `ARC_STORE` to
/// a directory (or call [`Harness::set_store`] /
/// [`Harness::set_daemon`]) and every kernel run first consults the
/// store, simulating and populating it only on a miss. Results are
/// byte-identical with and without a store — the conformance
/// `store-equivalence` invariant pins this — so the default stays off
/// and nothing changes unless explicitly opted in.
///
/// A store also memoizes each workload's per-stage trace digests (see
/// `sim_service::TraceMemo`), so the store-backed paths key their
/// lookups without rendering: a workload's frame is rendered only when
/// its memo is missing or one of its cells misses the store, and only
/// the missing cells simulate. A fully warm grid renders nothing
/// ([`Harness::frames_built`] stays 0).
///
/// Independently of the backend, a trace-IR optimizer pass pipeline
/// (`arc_core::passes`) can run on every kernel before the technique
/// rewrite: set `ARC_PASSES` (or call [`Harness::set_passes`]). The
/// default (empty) pipeline is byte-identical to a build without the
/// pipeline; a non-empty pipeline is part of the result-store key, so
/// optimized and unoptimized results never alias.
pub struct Harness {
    scale: f64,
    jobs: usize,
    telemetry: TelemetryConfig,
    config_names: Interner,
    workload_names: Interner,
    traces: HashMap<String, Arc<FrameTrace>>,
    sims: HashMap<(ConfigId, AtomicPath), Arc<Simulator>>,
    gradcomp_cache: HashMap<CacheKey, KernelReport>,
    iteration_cache: HashMap<CacheKey, IterationReport>,
    telemetry_cache: HashMap<CacheKey, KernelTelemetry>,
    store: Option<Arc<ResultStore>>,
    daemon: Option<Arc<DaemonClient>>,
    /// Per-stage trace digests of each workload the store path has
    /// keyed; the traces themselves load lazily into `traces`, only
    /// when a cell must simulate.
    frame_digests: HashMap<WorkloadId, FrameDigests>,
    /// Frames rendered so far (each an actual render + backward pass).
    frames_built: u64,
    passes: PassPipeline,
    /// Memoized optimized traces, keyed `workload-id/kernel`: across
    /// the full (config × technique) grid each kernel trace pays for
    /// the fused pass traversal once; every other cell gets the cached
    /// `Arc`. The stored pipeline acts as the cache generation, so
    /// [`Harness::set_passes`] invalidation is automatic.
    pass_cache: PassCache,
}

/// A simulation cell: one (config, technique, workload) point.
pub type Cell = (GpuConfig, Technique, String);

/// Interned GPU-config name (see [`Interner`]).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
struct ConfigId(u32);

/// A registered technique, keyed as the typed value itself — two
/// distinct techniques can never collide the way formatted labels
/// could.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
struct TechniqueId(Technique);

/// Interned workload id (see [`Interner`]).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
struct WorkloadId(u32);

/// Typed cache key: no `String` triple allocation per lookup on the
/// hot batch path, and no label-collision foot-gun.
type CacheKey = (ConfigId, TechniqueId, WorkloadId);

/// Bidirectional name ↔ small-id map for config/workload names. Keys
/// are interned once; every subsequent lookup is a `Copy` id.
#[derive(Default)]
struct Interner {
    names: Vec<String>,
    index: HashMap<String, u32>,
}

impl Interner {
    fn intern(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.index.get(name) {
            return id;
        }
        let id = u32::try_from(self.names.len()).expect("interner overflow");
        self.names.push(name.to_string());
        self.index.insert(name.to_string(), id);
        id
    }

    fn name(&self, id: u32) -> &str {
        &self.names[id as usize]
    }
}

/// A cache miss prepared for the job pool: its key plus the shared
/// simulator and frame it runs on, and the workload id (the pass-cache
/// key prefix).
type PreparedCell = (CacheKey, Arc<Simulator>, Technique, Arc<FrameTrace>, String);

/// A workload's stage list with each stage trace's digest: everything
/// the store path needs to key the workload's cells.
struct FrameDigests {
    stages: Vec<MemoStage>,
    /// True when computed from a frame this harness rendered; false
    /// when read from the store's memo and not yet checked against a
    /// render.
    rendered: bool,
}

/// What a service batch asks of each cell.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum Want {
    /// The primary rewritable stage's report.
    Gradcomp,
    /// The same stage with telemetry.
    Telemetry,
    /// Every stage's report: the full frame.
    Iteration,
}

/// One kernel's output: its report, plus telemetry when requested.
type KernelOut = (KernelReport, Option<KernelTelemetry>);

/// The stages a cell runs for `want`, given each stage's rewrite
/// eligibility: all of them for a full frame, else the frame's primary
/// rewritable stage (gradcomp for legacy workloads, the radix digit
/// histogram for tile-binned ones).
fn stage_indices(want: Want, rewritable: impl Iterator<Item = bool>, id: &str) -> Vec<usize> {
    let rewritable: Vec<bool> = rewritable.collect();
    if want == Want::Iteration {
        return (0..rewritable.len()).collect();
    }
    let primary = rewritable
        .iter()
        .position(|&r| r)
        .unwrap_or_else(|| panic!("workload `{id}` has no rewritable stage"));
    vec![primary]
}

/// Locks `m`, ignoring poisoning: a panicking pool worker propagates
/// its panic out of [`par_map`] anyway, and the maps locked here only
/// ever gain whole entries.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// The canonical non-rewriting technique for a hardware path: what the
/// fixed stages of a frame run as (they are never trace-rewritten — see
/// `run_frame_staged`), so every technique sharing a path also shares
/// their store entries.
fn path_technique(path: AtomicPath) -> Technique {
    match path {
        AtomicPath::Baseline => Technique::Baseline,
        AtomicPath::ArcHw => Technique::ArcHw,
        AtomicPath::Lab => Technique::Lab,
        AtomicPath::LabIdeal => Technique::LabIdeal,
        AtomicPath::Phi => Technique::Phi,
    }
}

/// Memoized pass application (see [`Harness::optimized`]); free
/// function so the batch closures can call it while borrowing only the
/// cache and pipeline fields. The cold path fans the fused traversal's
/// per-warp work over [`par_map`] when `jobs > 1`.
fn optimize_cached(
    cache: &PassCache,
    passes: &PassPipeline,
    id: &str,
    kernel: &str,
    trace: &KernelTrace,
    jobs: usize,
) -> Arc<KernelTrace> {
    let key = format!("{id}/{kernel}");
    cache.apply_with(passes, &key, trace, |p, t| {
        gpu_sim::apply_passes(p, t, jobs).0.into_owned()
    })
}

/// The exact spec `id`'s frame is built from at `scale`: the memo key
/// hashes this, so it must be what [`build_traces`] builds.
fn scaled_spec(scale: f64, id: &str) -> arc_workloads::WorkloadSpec {
    let spec = arc_workloads::spec(id).unwrap_or_else(|| panic!("unknown workload id `{id}`"));
    if (scale - 1.0).abs() < 1e-9 {
        spec
    } else {
        spec.scaled(scale)
    }
}

fn build_traces(scale: f64, id: &str) -> FrameTrace {
    scaled_spec(scale, id).build()
}

impl Harness {
    /// Creates a harness. `scale` scales workload canvases/primitive
    /// counts (1.0 = the full evaluation size; benches use less).
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not positive.
    pub fn new(scale: f64) -> Self {
        assert!(scale > 0.0, "scale must be positive");
        // Opt into the persistent result store via the environment so
        // every binary built on the harness gets it without plumbing;
        // unset (the default) leaves behaviour byte-identical to a
        // store-less build.
        let store = match std::env::var("ARC_STORE") {
            Ok(dir) if !dir.is_empty() => {
                let store = ResultStore::open(&dir)
                    .unwrap_or_else(|e| panic!("ARC_STORE={dir}: cannot open result store: {e}"));
                Some(Arc::new(store))
            }
            _ => None,
        };
        // Same story for the optimizer pass pipeline: `ARC_PASSES`
        // opts in, unset keeps the trace untouched.
        let passes = PassPipeline::from_env().unwrap_or_else(|e| panic!("ARC_PASSES: {e}"));
        Harness {
            scale,
            jobs: gpu_sim::default_jobs(),
            telemetry: TelemetryConfig::default(),
            config_names: Interner::default(),
            workload_names: Interner::default(),
            traces: HashMap::new(),
            sims: HashMap::new(),
            gradcomp_cache: HashMap::new(),
            iteration_cache: HashMap::new(),
            telemetry_cache: HashMap::new(),
            store,
            daemon: None,
            frame_digests: HashMap::new(),
            frames_built: 0,
            passes,
            pass_cache: PassCache::new(),
        }
    }

    /// The optimizer pass pipeline applied before every simulation.
    pub fn passes(&self) -> &PassPipeline {
        &self.passes
    }

    /// Overrides the optimizer pass pipeline (`ARC_PASSES` sets it at
    /// construction). The report caches are keyed by cell only, so
    /// changing the pipeline mid-flight drops anything already cached
    /// rather than serving results computed under the old pipeline.
    /// The memoized optimized traces invalidate themselves: the pass
    /// cache stores the pipeline it was filled under and clears on the
    /// first apply with a different one.
    pub fn set_passes(&mut self, passes: PassPipeline) {
        if passes != self.passes {
            self.gradcomp_cache.clear();
            self.iteration_cache.clear();
            self.telemetry_cache.clear();
        }
        self.passes = passes;
    }

    /// The workload scale in use.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// The job-pool width used by the batch APIs.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Overrides the job-pool width (1 = serial). Never affects results,
    /// only wall-clock time.
    pub fn set_jobs(&mut self, jobs: usize) {
        self.jobs = jobs.max(1);
    }

    /// Sets the telemetry configuration used by the telemetry APIs
    /// ([`Harness::gradcomp_telemetry`] and friends). Plain report runs
    /// never collect telemetry regardless of this setting.
    pub fn set_telemetry(&mut self, telemetry: TelemetryConfig) {
        self.telemetry = telemetry;
    }

    /// Routes simulations through an on-disk result store: hits skip
    /// the simulation entirely, misses simulate and populate. Byte
    /// behaviour is unchanged (pinned by the conformance
    /// `store-equivalence` invariant).
    pub fn set_store(&mut self, store: Arc<ResultStore>) {
        self.store = Some(store);
    }

    /// [`Harness::set_store`] by directory path, creating it if needed.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the directory cannot be created or its
    /// index cannot be read.
    pub fn set_store_dir(&mut self, dir: &str) -> std::io::Result<()> {
        self.store = Some(Arc::new(ResultStore::open(dir)?));
        Ok(())
    }

    /// Routes simulations to a running `simserved` daemon on `sock`
    /// (which typically has its own store). Takes precedence over a
    /// local store.
    ///
    /// # Errors
    ///
    /// Returns the connect/ping error if no daemon answers on `sock`.
    pub fn set_daemon(&mut self, sock: &str) -> Result<(), sim_service::ClientError> {
        let client = DaemonClient::connect(sock)?;
        client.ping()?;
        self.daemon = Some(Arc::new(client));
        Ok(())
    }

    /// Hit/miss/put counters of the local store, if one is configured.
    pub fn store_stats(&self) -> Option<StoreStats> {
        self.store.as_ref().map(|s| s.stats())
    }

    /// True when simulations route through the store or a daemon
    /// instead of the plain in-process engine.
    fn service_enabled(&self) -> bool {
        self.store.is_some() || self.daemon.is_some()
    }

    /// Frames rendered so far. A store-backed pass over cells the
    /// store already holds renders none.
    pub fn frames_built(&self) -> u64 {
        self.frames_built
    }

    /// The trace-free query for one stage of a cell. Fixed stages run
    /// unrewritten under the path's canonical technique; rewritable
    /// stages carry the real technique and its trace rewrite. The stage
    /// name keys the cell (legacy names key identically to the
    /// stage-less era, see `sim_service::store_key_staged`).
    fn query(
        &self,
        cfg: &GpuConfig,
        technique: Technique,
        stage: &str,
        rewritable: bool,
        want: Want,
    ) -> CellQuery {
        let (technique, rewrite) = if rewritable {
            (technique, true)
        } else {
            (path_technique(technique.path()), false)
        };
        CellQuery {
            config: cfg.clone(),
            technique,
            rewrite,
            telemetry: (want == Want::Telemetry).then(|| self.telemetry.clone()),
            want_chrome: false,
            passes: self.passes.clone(),
            stage: Some(stage.to_string()),
        }
    }

    /// Runs `cells` through the service backend — the daemon if
    /// connected, the local store otherwise — and files the results in
    /// the report caches under `keys`.
    ///
    /// # Panics
    ///
    /// Panics on simulator or daemon failure, like the engine path.
    fn service_fill(&mut self, cells: &[Cell], keys: Vec<CacheKey>, want: Want) {
        let results = match (self.daemon.clone(), self.store.clone()) {
            (Some(client), _) => self.daemon_run(&client, cells, want),
            (None, Some(store)) => self.store_run(&store, cells, want),
            (None, None) => unreachable!("service_fill without a backend"),
        };
        for (key, kernels) in keys.into_iter().zip(results) {
            if want == Want::Iteration {
                let kernels = kernels.into_iter().map(|(r, _)| r).collect();
                self.iteration_cache
                    .insert(key, IterationReport { kernels });
                continue;
            }
            let (report, tel) = kernels.into_iter().next().expect("one primary stage");
            self.gradcomp_cache.insert(key, report);
            if want == Want::Telemetry {
                self.telemetry_cache
                    .insert(key, tel.expect("telemetry was requested"));
            }
        }
    }

    /// The daemon path: renders every frame and ships each kernel's
    /// trace in one batch (the daemon digests and keys on its side).
    fn daemon_run(
        &mut self,
        client: &DaemonClient,
        cells: &[Cell],
        want: Want,
    ) -> Vec<Vec<KernelOut>> {
        let ids: Vec<String> = cells.iter().map(|(_, _, id)| id.clone()).collect();
        self.trace_batch(&ids);
        let mut wire = Vec::new();
        let mut counts = Vec::with_capacity(cells.len());
        for (cfg, technique, id) in cells {
            let frame = self.traces_arc(id);
            let stages = stage_indices(want, frame.stages().iter().map(|s| s.rewritable()), id);
            counts.push(stages.len());
            for s in stages {
                let stage = &frame.stages()[s];
                let q = self.query(cfg, *technique, stage.name(), stage.rewritable(), want);
                wire.push(WireCell {
                    config: q.config,
                    technique: q.technique,
                    trace: stage.trace().clone(),
                    rewrite: q.rewrite,
                    telemetry: q.telemetry,
                    want_chrome: q.want_chrome,
                    passes: q.passes,
                    stage: q.stage,
                });
            }
        }
        let mut results = client
            .batch(wire)
            .expect("daemon batch must succeed")
            .into_iter()
            .map(|r| (r.report, r.telemetry));
        counts
            .into_iter()
            .map(|n| results.by_ref().take(n).collect())
            .collect()
    }

    /// The store path. Stage digests come from memory or the store's
    /// memo, so every (cell, stage) is looked up without rendering; only
    /// workloads with no memo, or with a cell the store misses, are
    /// rendered and digested, and only their missing kernels simulate —
    /// each distinct store key once. A kernel is looked up once, and
    /// again only where a render contradicts the memo's digest.
    fn store_run(
        &mut self,
        store: &ResultStore,
        cells: &[Cell],
        want: Want,
    ) -> Vec<Vec<KernelOut>> {
        let mut ids: Vec<&str> = Vec::new();
        for (_, _, id) in cells {
            if !ids.contains(&id.as_str()) {
                ids.push(id);
            }
        }
        for id in &ids {
            let wid = WorkloadId(self.workload_names.intern(id));
            if self.frame_digests.contains_key(&wid) {
                continue;
            }
            if let Some(memo) = store.get_memo(&scaled_spec(self.scale, id)) {
                let stages = memo.stages;
                self.frame_digests.insert(
                    wid,
                    FrameDigests {
                        stages,
                        rendered: false,
                    },
                );
            }
        }

        let mut out: Vec<Option<Vec<Option<KernelOut>>>> = vec![None; cells.len()];
        let known: Vec<usize> = (0..cells.len())
            .filter(|&i| self.frame_digests.contains_key(&self.wid(&cells[i].2)))
            .collect();
        self.lookup_into(store, cells, &known, want, &mut out);

        let pending: Vec<String> = ids
            .iter()
            .filter(|id| {
                cells.iter().zip(&out).any(|((_, _, cid), o)| {
                    cid == *id && o.as_ref().is_none_or(|ks| ks.iter().any(Option::is_none))
                })
            })
            .map(|id| id.to_string())
            .collect();
        if !pending.is_empty() {
            self.trace_batch(&pending);
            self.digest_and_fill(store, cells, &pending, want, &mut out);
        }
        out.into_iter()
            .map(|o| {
                o.expect("every cell was looked up")
                    .into_iter()
                    .map(|k| k.expect("every miss was simulated"))
                    .collect()
            })
            .collect()
    }

    fn wid(&self, id: &str) -> WorkloadId {
        WorkloadId(self.workload_names.index[id])
    }

    /// Looks up every wanted stage of `cells[i]` for each `i` in
    /// `which` on the job pool, replacing `out[i]` with what the store
    /// holds (`None` per missing kernel).
    fn lookup_into(
        &self,
        store: &ResultStore,
        cells: &[Cell],
        which: &[usize],
        want: Want,
        out: &mut [Option<Vec<Option<KernelOut>>>],
    ) {
        let mut todo: Vec<(usize, usize, CellQuery, Digest)> = Vec::new();
        for &i in which {
            let (cfg, technique, id) = &cells[i];
            let stages = &self.frame_digests[&self.wid(id)].stages;
            let wanted = stage_indices(want, stages.iter().map(|s| s.rewritable), id);
            out[i] = Some(vec![None; wanted.len()]);
            for (slot, s) in wanted.into_iter().enumerate() {
                let stage = &stages[s];
                let q = self.query(cfg, *technique, &stage.name, stage.rewritable, want);
                todo.push((i, slot, q, stage.digest));
            }
        }
        let found = par_map(self.jobs, todo, |(i, slot, q, digest)| {
            (i, slot, lookup(store, &q, &digest))
        });
        for (i, slot, hit) in found {
            out[i].as_mut().expect("slots were sized")[slot] = hit.map(|r| (r.report, r.telemetry));
        }
    }

    /// Digests every stage of the rendered `pending` frames and, in the
    /// same pool pass, settles each of their kernels as soon as its
    /// stage's digest lands, so simulations start while the largest
    /// traces are still being hashed. All digest tasks precede all
    /// kernel tasks in the pool's queue, largest trace first, so no
    /// kernel waits on a digest no worker has claimed; kernels follow in
    /// reverse, so the stages hashed first simulate first.
    ///
    /// A kernel keeps its first-round answer when the fresh digest
    /// equals the one it was looked up under; otherwise it is looked up
    /// under the fresh digest. Misses simulate, once per distinct store
    /// key. Fresh digests that differ from the memo's (or had no memo)
    /// are written back as the workload's memo.
    fn digest_and_fill(
        &mut self,
        store: &ResultStore,
        cells: &[Cell],
        pending: &[String],
        want: Want,
        out: &mut [Option<Vec<Option<KernelOut>>>],
    ) {
        let frames: Vec<(WorkloadId, Arc<FrameTrace>)> = pending
            .iter()
            .map(|id| (self.wid(id), self.traces_arc(id)))
            .collect();
        let frame_of = |id: &str| frames.iter().position(|(w, _)| *w == self.wid(id));

        // The digests each frame's first-round lookups used, if they
        // describe the rendered stage list; a frame rendered earlier by
        // this harness needs no digests at all.
        let mut recalled: Vec<Option<Vec<Digest>>> = Vec::new();
        let mut digests = Vec::new();
        let mut known = Vec::new();
        for (f, (wid, frame)) in frames.iter().enumerate() {
            let memo = self.frame_digests.get(wid).filter(|fd| {
                fd.stages.len() == frame.stages().len()
                    && fd
                        .stages
                        .iter()
                        .zip(frame.stages())
                        .all(|(m, s)| m.name == s.name() && m.rewritable == s.rewritable())
            });
            let stages = 0..frame.stages().len();
            match memo {
                Some(fd) if fd.rendered => {
                    known.extend(stages.map(|s| (f, s, fd.stages[s].digest)))
                }
                _ => digests.extend(stages.map(|s| (f, s))),
            }
            recalled.push(memo.map(|fd| fd.stages.iter().map(|m| m.digest).collect()));
        }
        // First-round answers for a stage list the render contradicts
        // belong to other stages.
        for (i, (_, _, id)) in cells.iter().enumerate() {
            if frame_of(id).is_some_and(|f| recalled[f].is_none()) {
                out[i] = None;
            }
        }
        // JSON size is dominated by lane ops, then instructions.
        digests.sort_by_key(|&(f, s)| {
            let t = frames[f].1.stages()[s].trace();
            let instrs: usize = t.warps().iter().map(|w| w.instrs.len()).sum();
            std::cmp::Reverse(t.total_atomic_requests() + instrs as u64)
        });

        // One kernel per distinct store key, with the output slots it
        // fills and its first-round answer (`Some(None)`: a known miss).
        struct Kernel {
            frame: usize,
            stage: usize,
            query: CellQuery,
            prior: Option<Option<KernelOut>>,
            slots: Vec<(usize, usize)>,
        }
        let wanted: Vec<Vec<usize>> = cells
            .iter()
            .map(|(_, _, id)| match frame_of(id) {
                Some(f) => {
                    let stages = frames[f].1.stages().iter().map(|s| s.rewritable());
                    stage_indices(want, stages, id)
                }
                None => Vec::new(),
            })
            .collect();
        let order = known
            .iter()
            .map(|&(f, s, _)| (f, s))
            .chain(digests.iter().rev().copied());
        let mut kernels: Vec<Kernel> = Vec::new();
        for (f, s) in order {
            let stage = &frames[f].1.stages()[s];
            for (i, (cfg, technique, id)) in cells.iter().enumerate() {
                if frame_of(id) != Some(f) {
                    continue;
                }
                let Some(slot) = wanted[i].iter().position(|&w| w == s) else {
                    continue;
                };
                let query = self.query(cfg, *technique, stage.name(), stage.rewritable(), want);
                // Same query on an equal trace is the same store key:
                // simulate it once (two workloads can share a kernel,
                // e.g. a loss pass over equal canvases).
                let same_trace = |k: &Kernel| {
                    let other = frames[k.frame].1.stages()[k.stage].shared_trace();
                    Arc::ptr_eq(other, stage.shared_trace()) || other == stage.shared_trace()
                };
                if let Some(k) = kernels
                    .iter_mut()
                    .find(|k| k.query == query && same_trace(k))
                {
                    k.slots.push((i, slot));
                    continue;
                }
                let prior = recalled[f]
                    .as_ref()
                    .and(out[i].as_ref())
                    .map(|slots| slots[slot].clone());
                kernels.push(Kernel {
                    frame: f,
                    stage: s,
                    query,
                    prior,
                    slots: vec![(i, slot)],
                });
            }
        }

        enum Task {
            Digest(usize, usize),
            Kernel(usize),
        }
        // `None` marks a digest that panicked, so its waiters panic too
        // instead of waiting forever.
        let ready: Mutex<HashMap<(usize, usize), Option<Digest>>> =
            Mutex::new(known.iter().map(|&(f, s, d)| ((f, s), Some(d))).collect());
        let landed = Condvar::new();
        let tasks: Vec<Task> = digests
            .iter()
            .map(|&(f, s)| Task::Digest(f, s))
            .chain((0..kernels.len()).map(Task::Kernel))
            .collect();
        let settled = par_map(self.jobs, tasks, |task| match task {
            Task::Digest(f, s) => {
                let trace = frames[f].1.stages()[s].trace();
                let digest = catch_unwind(AssertUnwindSafe(|| trace_digest(trace)));
                lock(&ready).insert((f, s), digest.as_ref().ok().copied());
                landed.notify_all();
                if let Err(panic) = digest {
                    resume_unwind(panic);
                }
                None
            }
            Task::Kernel(k) => {
                let Kernel {
                    frame: f,
                    stage: s,
                    query,
                    prior,
                    ..
                } = &kernels[k];
                let mut done = lock(&ready);
                let digest = loop {
                    match done.get(&(*f, *s)) {
                        Some(digest) => break digest.expect("the stage's digest panicked"),
                        None => done = landed.wait(done).unwrap_or_else(|e| e.into_inner()),
                    }
                };
                drop(done);
                let unchanged = recalled[*f].as_ref().is_some_and(|r| r[*s] == digest);
                let answer = match prior {
                    Some(prior) if unchanged => prior.clone(),
                    _ => lookup(store, query, &digest).map(|r| (r.report, r.telemetry)),
                };
                Some(answer.unwrap_or_else(|| {
                    let trace = Arc::clone(frames[*f].1.stages()[*s].shared_trace());
                    let req = query.clone().with_trace(trace);
                    let r = simulate(Some(store), &req, &EngineOpts::default(), &digest)
                        .expect("kernel must drain");
                    (r.report, r.telemetry)
                }))
            }
        });

        for (kernel, answer) in kernels.iter().zip(settled.into_iter().flatten()) {
            for &(i, slot) in &kernel.slots {
                out[i].get_or_insert_with(|| vec![None; wanted[i].len()])[slot] =
                    Some(answer.clone());
            }
        }

        let ready = ready.into_inner().unwrap_or_else(|e| e.into_inner());
        for (f, (wid, frame)) in frames.iter().enumerate() {
            let stages: Vec<MemoStage> = frame
                .stages()
                .iter()
                .enumerate()
                .map(|(s, stage)| MemoStage {
                    name: stage.name().to_string(),
                    rewritable: stage.rewritable(),
                    digest: ready[&(f, s)].expect("every digest landed"),
                })
                .collect();
            if self.frame_digests.get(wid).map(|fd| &fd.stages) != Some(&stages) {
                // A failed memo write only costs the next pass a render.
                let spec = scaled_spec(self.scale, self.workload_names.name(wid.0));
                let _ = store.put_memo(&spec, &stages);
            }
            self.frame_digests.insert(
                *wid,
                FrameDigests {
                    stages,
                    rendered: true,
                },
            );
        }
    }

    /// All workload ids, in Table-2 order.
    pub fn workload_ids(&self) -> Vec<String> {
        all_specs().into_iter().map(|s| s.id).collect()
    }

    /// The 3DGS workload ids only.
    pub fn gaussian_ids(&self) -> Vec<String> {
        all_specs()
            .into_iter()
            .filter(|s| s.id.starts_with("3D"))
            .map(|s| s.id)
            .collect()
    }

    fn ensure_trace(&mut self, id: &str) {
        if !self.traces.contains_key(id) {
            let t = build_traces(self.scale, id);
            self.traces.insert(id.to_string(), Arc::new(t));
            self.frames_built += 1;
        }
    }

    /// Builds any missing workload traces for `ids` in parallel on the
    /// job pool. Each build is an actual render + backward pass, so this
    /// is worth fanning out even before any simulation runs.
    pub fn trace_batch(&mut self, ids: &[String]) {
        let scale = self.scale;
        let mut seen: HashSet<&str> = HashSet::new();
        let missing: Vec<String> = ids
            .iter()
            .filter(|id| seen.insert(id.as_str()) && !self.traces.contains_key(id.as_str()))
            .cloned()
            .collect();
        let built = par_map(self.jobs, missing, |id| {
            let traces = Arc::new(build_traces(scale, &id));
            (id, traces)
        });
        self.frames_built += built.len() as u64;
        for (id, traces) in built {
            self.traces.insert(id, traces);
        }
    }

    /// The (possibly scaled) frame for a workload, building it on
    /// first use.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a registered workload id.
    pub fn traces(&mut self, id: &str) -> &FrameTrace {
        self.ensure_trace(id);
        self.traces[id].as_ref()
    }

    fn traces_arc(&mut self, id: &str) -> Arc<FrameTrace> {
        self.ensure_trace(id);
        Arc::clone(&self.traces[id])
    }

    /// The typed cache key for one cell, interning the names on first
    /// sight.
    fn key(&mut self, cfg: &GpuConfig, technique: Technique, id: &str) -> CacheKey {
        (
            ConfigId(self.config_names.intern(&cfg.name)),
            TechniqueId(technique),
            WorkloadId(self.workload_names.intern(id)),
        )
    }

    /// Memoized pass application for one kernel of a workload: the
    /// fused traversal runs once per (pipeline, workload, kernel) and
    /// every later cell sharing the kernel reuses the cached trace
    /// (pointer-identical `Arc` — the `pass-equivalence` conformance
    /// invariant pins it). `jobs` sizes the cold-path warp fan-out;
    /// the batch paths pass 1 because they already parallelize at cell
    /// granularity.
    fn optimized(
        &self,
        id: &str,
        kernel: &str,
        trace: &KernelTrace,
        jobs: usize,
    ) -> Arc<KernelTrace> {
        optimize_cached(&self.pass_cache, &self.passes, id, kernel, trace, jobs)
    }

    /// The number of distinct kernel traces whose optimized form is
    /// currently memoized (observability for tests and perf_smoke).
    pub fn pass_cache_len(&self) -> usize {
        self.pass_cache.len()
    }

    fn sim_for(&mut self, cfg: &GpuConfig, path: AtomicPath) -> Arc<Simulator> {
        let key = (ConfigId(self.config_names.intern(&cfg.name)), path);
        if let Some(sim) = self.sims.get(&key) {
            return Arc::clone(sim);
        }
        let sim = Arc::new(Simulator::new(cfg.clone(), path).expect("valid config"));
        self.sims.insert(key, Arc::clone(&sim));
        sim
    }

    /// Simulates (with caching) the frame's primary rewritable stage —
    /// the kernel the techniques target: gradcomp for the legacy
    /// workloads, the radix digit histogram for tile-binned ones —
    /// under `technique` on `cfg`.
    ///
    /// # Panics
    ///
    /// Panics on unknown workload or simulator failure (the workloads
    /// and configs shipped here always drain).
    pub fn gradcomp(&mut self, cfg: &GpuConfig, technique: Technique, id: &str) -> KernelReport {
        let key = self.key(cfg, technique, id);
        if let Some(hit) = self.gradcomp_cache.get(&key) {
            return hit.clone();
        }
        if self.service_enabled() {
            let cell = (cfg.clone(), technique, id.to_string());
            self.service_fill(&[cell], vec![key], Want::Gradcomp);
            return self.gradcomp_cache[&key].clone();
        }
        let frame = self.traces_arc(id);
        let sim = self.sim_for(cfg, technique.path());
        let stage = frame.rewritable();
        let piped = self.optimized(id, stage.name(), stage.trace(), self.jobs);
        let report = sim
            .run(&technique.prepare_cow(&piped))
            .expect("kernel must drain");
        self.gradcomp_cache.insert(key, report.clone());
        report
    }

    /// Simulates (with caching) the gradient-computation kernel with
    /// telemetry collection, returning the report plus the sampled
    /// [`KernelTelemetry`]. The report is byte-identical to the one
    /// [`Harness::gradcomp`] returns (telemetry never changes results),
    /// so this also warms the plain report cache.
    ///
    /// # Panics
    ///
    /// Panics on unknown workload or simulator failure.
    pub fn gradcomp_telemetry(
        &mut self,
        cfg: &GpuConfig,
        technique: Technique,
        id: &str,
    ) -> (KernelReport, KernelTelemetry) {
        let key = self.key(cfg, technique, id);
        if let (Some(report), Some(tel)) = (
            self.gradcomp_cache.get(&key),
            self.telemetry_cache.get(&key),
        ) {
            return (report.clone(), tel.clone());
        }
        if self.service_enabled() {
            let cell = (cfg.clone(), technique, id.to_string());
            self.service_fill(&[cell], vec![key], Want::Telemetry);
            return (
                self.gradcomp_cache[&key].clone(),
                self.telemetry_cache[&key].clone(),
            );
        }
        let frame = self.traces_arc(id);
        let sim = self.telemetry_sim(cfg, technique.path());
        let stage = frame.rewritable();
        let piped = self.optimized(id, stage.name(), stage.trace(), self.jobs);
        let (report, tel) = sim
            .run_with_telemetry(&technique.prepare_cow(&piped))
            .expect("kernel must drain");
        let tel = tel.expect("telemetry was enabled");
        self.gradcomp_cache.insert(key, report.clone());
        self.telemetry_cache.insert(key, tel.clone());
        (report, tel)
    }

    /// Computes every missing gradient-computation + telemetry cell in
    /// parallel on the job pool (the telemetry analogue of
    /// [`Harness::gradcomp_batch`]). Cells whose *report* is cached but
    /// whose telemetry is not are re-run with telemetry enabled; results
    /// are identical to computing each cell serially.
    pub fn gradcomp_telemetry_batch(&mut self, cells: &[Cell]) {
        let jobs = self.jobs;
        let mut claimed: HashSet<CacheKey> = HashSet::new();
        let mut misses: Vec<Cell> = Vec::new();
        let mut keys: Vec<CacheKey> = Vec::new();
        for cell @ (cfg, technique, id) in cells {
            let key = self.key(cfg, *technique, id);
            if self.telemetry_cache.contains_key(&key) || !claimed.insert(key) {
                continue;
            }
            misses.push(cell.clone());
            keys.push(key);
        }

        if self.service_enabled() {
            self.service_fill(&misses, keys, Want::Telemetry);
            return;
        }

        let ids: Vec<String> = misses.iter().map(|(_, _, id)| id.clone()).collect();
        self.trace_batch(&ids);
        let mut todo: Vec<PreparedCell> = Vec::new();
        for ((cfg, technique, id), key) in misses.iter().zip(&keys) {
            let sim = Arc::new(self.telemetry_sim(cfg, technique.path()));
            let frame = Arc::clone(&self.traces[id.as_str()]);
            todo.push((*key, sim, *technique, frame, id.clone()));
        }
        let cache = &self.pass_cache;
        let passes = &self.passes;
        let results = par_map(jobs, todo, move |(key, sim, technique, frame, id)| {
            let stage = frame.rewritable();
            let piped = optimize_cached(cache, passes, &id, stage.name(), stage.trace(), 1);
            let (report, tel) = sim
                .run_with_telemetry(&technique.prepare_cow(&piped))
                .expect("kernel must drain");
            (key, report, tel.expect("telemetry was enabled"))
        });
        for (key, report, tel) in results {
            self.gradcomp_cache.insert(key, report);
            self.telemetry_cache.insert(key, tel);
        }
    }

    /// All collected telemetry summaries as
    /// `(config, technique, workload, summary)` rows, sorted for
    /// deterministic output — the payload of the machine-readable
    /// `telemetry.json` the experiment binaries write.
    pub fn telemetry_summaries(&self) -> Vec<(String, String, String, TelemetrySummary)> {
        let mut rows: Vec<_> = self
            .telemetry_cache
            .iter()
            .map(|(&(c, t, w), tel)| {
                (
                    self.config_names.name(c.0).to_string(),
                    t.0.label(),
                    self.workload_names.name(w.0).to_string(),
                    tel.summary(),
                )
            })
            .collect();
        rows.sort_by(|a, b| (&a.0, &a.1, &a.2).cmp(&(&b.0, &b.1, &b.2)));
        rows
    }

    /// Chrome-trace (`chrome://tracing`) JSON for one telemetry cell,
    /// running it first if needed.
    ///
    /// # Panics
    ///
    /// Panics on unknown workload or simulator failure.
    pub fn gradcomp_chrome_trace(
        &mut self,
        cfg: &GpuConfig,
        technique: Technique,
        id: &str,
    ) -> String {
        self.gradcomp_telemetry(cfg, technique, id).1.chrome_trace()
    }

    /// A telemetry-enabled clone of the cached simulator for this
    /// (config, path). Kept out of the `sims` cache so plain report
    /// runs never pay for sampling.
    fn telemetry_sim(&mut self, cfg: &GpuConfig, path: AtomicPath) -> Simulator {
        let base = self.sim_for(cfg, path);
        (*base).clone().with_telemetry(self.telemetry.clone())
    }

    /// Simulates (with caching) the full frame — every stage of the
    /// workload's pipeline, in order (three kernels for the legacy
    /// workloads, six for tile-binned 3DGS).
    ///
    /// # Panics
    ///
    /// Panics on unknown workload or simulator failure.
    pub fn iteration(
        &mut self,
        cfg: &GpuConfig,
        technique: Technique,
        id: &str,
    ) -> IterationReport {
        let key = self.key(cfg, technique, id);
        if let Some(hit) = self.iteration_cache.get(&key) {
            return hit.clone();
        }
        if self.service_enabled() {
            let cell = (cfg.clone(), technique, id.to_string());
            self.service_fill(&[cell], vec![key], Want::Iteration);
            return self.iteration_cache[&key].clone();
        }
        let frame = self.traces_arc(id);
        let sim = self.sim_for(cfg, technique.path());
        let optimized: Vec<(StageRole, Arc<KernelTrace>)> = frame
            .stages()
            .iter()
            .map(|s| (s.role(), self.optimized(id, s.name(), s.trace(), self.jobs)))
            .collect();
        let report = arc_workloads::run_frame_staged(
            &sim,
            technique,
            optimized.iter().map(|(role, t)| (*role, t.as_ref())),
        )
        .expect("iteration must drain");
        self.iteration_cache.insert(key, report.clone());
        report
    }

    /// Computes every missing gradient-computation cell in parallel on
    /// the job pool, filling the cache consulted by
    /// [`Harness::gradcomp`] / [`Harness::gradcomp_speedup`] /
    /// [`Harness::best_sw`]. Duplicate and already-cached cells are
    /// skipped; results are identical to computing each cell serially.
    pub fn gradcomp_batch(&mut self, cells: &[Cell]) {
        self.prefill(cells, false);
    }

    /// Computes every missing full-iteration cell in parallel on the
    /// job pool, filling the cache consulted by [`Harness::iteration`] /
    /// [`Harness::e2e_speedup`].
    pub fn iteration_batch(&mut self, cells: &[Cell]) {
        self.prefill(cells, true);
    }

    fn prefill(&mut self, cells: &[Cell], iteration: bool) {
        let jobs = self.jobs;

        // Collect the unique uncached cells.
        let mut claimed: HashSet<CacheKey> = HashSet::new();
        let mut misses: Vec<Cell> = Vec::new();
        let mut keys: Vec<CacheKey> = Vec::new();
        for cell @ (cfg, technique, id) in cells {
            let key = self.key(cfg, *technique, id);
            let cached = if iteration {
                self.iteration_cache.contains_key(&key)
            } else {
                self.gradcomp_cache.contains_key(&key)
            };
            if cached || !claimed.insert(key) {
                continue;
            }
            misses.push(cell.clone());
            keys.push(key);
        }

        if self.service_enabled() {
            let want = if iteration {
                Want::Iteration
            } else {
                Want::Gradcomp
            };
            self.service_fill(&misses, keys, want);
            return;
        }

        // Build every missing workload trace first (each is an actual
        // render + backward pass — the other expensive step), also in
        // parallel.
        let ids: Vec<String> = misses.iter().map(|(_, _, id)| id.clone()).collect();
        self.trace_batch(&ids);
        let mut todo: Vec<PreparedCell> = Vec::new();
        for ((cfg, technique, id), key) in misses.iter().zip(&keys) {
            let sim = self.sim_for(cfg, technique.path());
            let frame = Arc::clone(&self.traces[id.as_str()]);
            todo.push((*key, sim, *technique, frame, id.clone()));
        }

        // Simulate across the pool; inserting in input order keeps the
        // whole operation deterministic regardless of `jobs`.
        let cache = &self.pass_cache;
        let passes = &self.passes;
        if iteration {
            let reports = par_map(jobs, todo, move |(key, sim, technique, frame, id)| {
                let optimized: Vec<(StageRole, Arc<KernelTrace>)> = frame
                    .stages()
                    .iter()
                    .map(|s| {
                        let t = optimize_cached(cache, passes, &id, s.name(), s.trace(), 1);
                        (s.role(), t)
                    })
                    .collect();
                let report = arc_workloads::run_frame_staged(
                    &sim,
                    technique,
                    optimized.iter().map(|(role, t)| (*role, t.as_ref())),
                )
                .expect("iteration must drain");
                (key, report)
            });
            for (key, report) in reports {
                self.iteration_cache.insert(key, report);
            }
        } else {
            let reports = par_map(jobs, todo, move |(key, sim, technique, frame, id)| {
                let stage = frame.rewritable();
                let piped = optimize_cached(cache, passes, &id, stage.name(), stage.trace(), 1);
                let report = sim
                    .run(&technique.prepare_cow(&piped))
                    .expect("kernel must drain");
                (key, report)
            });
            for (key, report) in reports {
                self.gradcomp_cache.insert(key, report);
            }
        }
    }

    /// Gradient-computation speedup of `technique` over the baseline.
    pub fn gradcomp_speedup(&mut self, cfg: &GpuConfig, technique: Technique, id: &str) -> f64 {
        let base = self.gradcomp(cfg, Technique::Baseline, id).cycles;
        let var = self.gradcomp(cfg, technique, id).cycles;
        base as f64 / var as f64
    }

    /// End-to-end (forward + loss + gradcomp) speedup over baseline.
    pub fn e2e_speedup(&mut self, cfg: &GpuConfig, technique: Technique, id: &str) -> f64 {
        let base = self.iteration(cfg, Technique::Baseline, id).total_cycles();
        let var = self.iteration(cfg, technique, id).total_cycles();
        base as f64 / var as f64
    }

    /// The techniques [`Harness::best_sw`] sweeps: both ARC-SW
    /// algorithms over the paper's threshold grid.
    pub fn sw_sweep() -> Vec<Technique> {
        arc_core::BalanceThreshold::paper_sweep()
            .into_iter()
            .flat_map(|thr| [Technique::SwS(thr), Technique::SwB(thr)])
            .collect()
    }

    /// The best-performing ARC-SW configuration for a workload on a
    /// GPU, sweeping both algorithms over the paper's threshold grid
    /// (§7.2: "SW-B and SW-S with the best-performing balancing
    /// threshold").
    pub fn best_sw(&mut self, cfg: &GpuConfig, id: &str) -> (Technique, f64) {
        let mut best: Option<(Technique, f64)> = None;
        for technique in Self::sw_sweep() {
            let s = self.gradcomp_speedup(cfg, technique, id);
            if best.as_ref().is_none_or(|(_, b)| s > *b) {
                best = Some((technique, s));
            }
        }
        best.expect("sweep is non-empty")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harness_caches_reports() {
        let mut h = Harness::new(0.2);
        let cfg = GpuConfig::tiny();
        let a = h.gradcomp(&cfg, Technique::Baseline, "PS-SS");
        let b = h.gradcomp(&cfg, Technique::Baseline, "PS-SS");
        assert_eq!(a, b);
        assert_eq!(h.workload_ids().len(), 12);
        assert_eq!(h.gaussian_ids().len(), 6);
    }

    #[test]
    fn speedup_of_baseline_is_one() {
        let mut h = Harness::new(0.2);
        let cfg = GpuConfig::tiny();
        let s = h.gradcomp_speedup(&cfg, Technique::Baseline, "PS-SS");
        assert!((s - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "unknown workload")]
    fn unknown_id_panics() {
        let mut h = Harness::new(0.2);
        let _ = h.traces("3D-XX");
    }

    #[test]
    fn telemetry_batch_matches_serial_and_plain_reports() {
        let cfg = GpuConfig::tiny();
        let cells: Vec<Cell> = [Technique::Baseline, Technique::ArcHw]
            .into_iter()
            .map(|t| (cfg.clone(), t, "PS-SS".to_string()))
            .collect();

        let mut serial = Harness::new(0.2);
        serial.set_jobs(1);
        let mut parallel = Harness::new(0.2);
        parallel.set_jobs(4);
        parallel.gradcomp_telemetry_batch(&cells);

        for (cfg, technique, id) in &cells {
            let (sr, st) = serial.gradcomp_telemetry(cfg, *technique, id);
            let (pr, pt) = parallel.gradcomp_telemetry(cfg, *technique, id);
            assert_eq!(sr, pr, "telemetry report for {}", technique.label());
            assert_eq!(st, pt, "telemetry for {}", technique.label());
            // Telemetry runs also warm the plain report cache with
            // identical results.
            assert_eq!(serial.gradcomp(cfg, *technique, id), sr);
        }
        let rows = parallel.telemetry_summaries();
        assert_eq!(rows.len(), cells.len());
        assert!(rows.windows(2).all(|w| w[0].1 <= w[1].1), "rows sorted");
    }

    #[test]
    fn store_backed_harness_matches_engine() {
        let dir = std::env::temp_dir().join(format!("arc-harness-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = GpuConfig::tiny();
        let cells: Vec<Cell> = [Technique::Baseline, Technique::ArcHw]
            .into_iter()
            .map(|t| (cfg.clone(), t, "PS-SS".to_string()))
            .collect();

        let mut plain = Harness::new(0.2);
        let mut stored = Harness::new(0.2);
        stored.set_store_dir(dir.to_str().unwrap()).unwrap();
        stored.gradcomp_batch(&cells);
        stored.iteration_batch(&cells);
        for (cfg, t, id) in &cells {
            assert_eq!(plain.gradcomp(cfg, *t, id), stored.gradcomp(cfg, *t, id));
            assert_eq!(plain.iteration(cfg, *t, id), stored.iteration(cfg, *t, id));
            let (pr, pt) = plain.gradcomp_telemetry(cfg, *t, id);
            let (sr, st) = stored.gradcomp_telemetry(cfg, *t, id);
            assert_eq!(pr, sr, "telemetry report via store for {}", t.label());
            assert_eq!(pt, st, "telemetry via store for {}", t.label());
        }

        // A fresh harness over the same store serves everything warm.
        let mut warm = Harness::new(0.2);
        warm.set_store_dir(dir.to_str().unwrap()).unwrap();
        for (cfg, t, id) in &cells {
            assert_eq!(plain.gradcomp(cfg, *t, id), warm.gradcomp(cfg, *t, id));
            assert_eq!(plain.iteration(cfg, *t, id), warm.iteration(cfg, *t, id));
        }
        let stats = warm.store_stats().unwrap();
        assert_eq!(stats.misses, 0, "warm pass must not simulate");
        assert!(stats.hits > 0);
        assert_eq!(warm.frames_built(), 0, "warm pass must not render");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn batch_prefill_matches_serial() {
        let cfg = GpuConfig::tiny();
        let mut cells: Vec<Cell> = Vec::new();
        for id in ["PS-SS", "3D-LE"] {
            for t in [Technique::Baseline, Technique::ArcHw] {
                cells.push((cfg.clone(), t, id.to_string()));
            }
        }

        let mut serial = Harness::new(0.2);
        serial.set_jobs(1);
        let mut parallel = Harness::new(0.2);
        parallel.set_jobs(4);
        parallel.gradcomp_batch(&cells);
        parallel.iteration_batch(&cells);

        for (cfg, technique, id) in &cells {
            assert_eq!(
                serial.gradcomp(cfg, *technique, id),
                parallel.gradcomp(cfg, *technique, id),
                "gradcomp mismatch for {} on {}",
                technique.label(),
                id
            );
            assert_eq!(
                serial.iteration(cfg, *technique, id),
                parallel.iteration(cfg, *technique, id),
                "iteration mismatch for {} on {}",
                technique.label(),
                id
            );
        }
    }
}
