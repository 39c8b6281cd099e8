//! Shared trace-building and simulation cache for the figure harness.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use arc_core::passes::{PassCache, PassPipeline};
use arc_workloads::{all_specs, FrameTrace, StageRole, Technique, TechniquePath};
use gpu_sim::{
    par_map, AtomicPath, GpuConfig, IterationReport, KernelReport, KernelTelemetry, Simulator,
    TelemetryConfig, TelemetrySummary,
};
use sim_service::{
    run_cell_with_digest, trace_digest, DaemonClient, Digest, EngineOpts, ResultStore, SimRequest,
    StoreStats, WireCell,
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
    service_traces: HashMap<(WorkloadId, usize), (Arc<KernelTrace>, Digest)>,
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

/// One kernel-level request prepared for the service backend (store or
/// daemon), with the trace digest already computed. `stage` is the
/// frame-stage name; legacy names key identically to the stage-less
/// era (see `sim_service::store_key_staged`).
struct ServiceCell {
    cfg: GpuConfig,
    technique: Technique,
    trace: Arc<KernelTrace>,
    rewrite: bool,
    digest: Digest,
    telemetry: Option<TelemetryConfig>,
    stage: String,
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

fn build_traces(scale: f64, id: &str) -> FrameTrace {
    let spec = arc_workloads::spec(id).unwrap_or_else(|| panic!("unknown workload id `{id}`"));
    let spec = if (scale - 1.0).abs() < 1e-9 {
        spec
    } else {
        spec.scaled(scale)
    };
    spec.build()
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
            service_traces: HashMap::new(),
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

    /// The shared trace + digest for one stage of a workload's frame,
    /// hashed once on first use (the batch paths hash ahead of time on
    /// the pool, see [`Harness::digest_stages`]).
    fn service_trace(&mut self, id: &str, stage: usize) -> (Arc<KernelTrace>, Digest) {
        let wid = WorkloadId(self.workload_names.intern(id));
        if let Some((trace, digest)) = self.service_traces.get(&(wid, stage)) {
            return (Arc::clone(trace), *digest);
        }
        let trace = Arc::clone(self.traces_arc(id).stages()[stage].shared_trace());
        let digest = trace_digest(&trace);
        self.service_traces
            .insert((wid, stage), (Arc::clone(&trace), digest));
        (trace, digest)
    }

    /// Digests every not-yet-hashed `(workload, stage)` trace on the
    /// job pool. Largest traces go first, so the longest hash starts
    /// earliest instead of trailing the batch on one worker.
    fn digest_stages(&mut self, stages: impl IntoIterator<Item = (String, usize)>) {
        let mut seen = HashSet::new();
        let mut todo = Vec::new();
        for (id, stage) in stages {
            let wid = WorkloadId(self.workload_names.intern(&id));
            if self.service_traces.contains_key(&(wid, stage)) || !seen.insert((wid, stage)) {
                continue;
            }
            let trace = Arc::clone(self.traces_arc(&id).stages()[stage].shared_trace());
            todo.push(((wid, stage), trace));
        }
        // JSON size is dominated by lane ops, then instructions.
        todo.sort_by_key(|(_, t)| {
            let instrs: usize = t.warps().iter().map(|w| w.instrs.len()).sum();
            std::cmp::Reverse(t.total_atomic_requests() + instrs as u64)
        });
        let digested = par_map(self.jobs, todo, |(slot, trace)| {
            let digest = trace_digest(&trace);
            (slot, (trace, digest))
        });
        self.service_traces.extend(digested);
    }

    /// The index of the frame's primary rewritable stage (gradcomp for
    /// legacy workloads, the radix digit histogram for tile-binned
    /// ones).
    fn rewritable_index(&mut self, id: &str) -> usize {
        let frame = self.traces_arc(id);
        frame
            .stages()
            .iter()
            .position(|s| s.rewritable())
            .unwrap_or_else(|| panic!("workload `{id}` has no rewritable stage"))
    }

    /// Builds one service request for stage `stage` of `id`'s frame.
    /// Fixed stages run unrewritten under the path's canonical
    /// technique; rewritable stages carry the real technique and its
    /// trace rewrite.
    fn service_cell(
        &mut self,
        cfg: &GpuConfig,
        technique: Technique,
        id: &str,
        stage: usize,
        telemetry: bool,
    ) -> ServiceCell {
        let (trace, digest) = self.service_trace(id, stage);
        let frame = self.traces_arc(id);
        let s = &frame.stages()[stage];
        let (technique, rewrite) = if s.rewritable() {
            (technique, true)
        } else {
            (path_technique(technique.path()), false)
        };
        ServiceCell {
            cfg: cfg.clone(),
            technique,
            trace,
            rewrite,
            digest,
            telemetry: if telemetry {
                Some(self.telemetry.clone())
            } else {
                None
            },
            stage: s.name().to_string(),
        }
    }

    /// Runs kernel cells through the service backend — the daemon if
    /// connected, the local store otherwise — preserving input order.
    ///
    /// # Panics
    ///
    /// Panics on simulator or daemon failure, like the engine path.
    fn service_run(&self, cells: Vec<ServiceCell>) -> Vec<(KernelReport, Option<KernelTelemetry>)> {
        if let Some(client) = &self.daemon {
            let wire: Vec<WireCell> = cells
                .iter()
                .map(|c| WireCell {
                    config: c.cfg.clone(),
                    technique: c.technique,
                    trace: (*c.trace).clone(),
                    rewrite: c.rewrite,
                    telemetry: c.telemetry.clone(),
                    want_chrome: false,
                    passes: self.passes.clone(),
                    stage: Some(c.stage.clone()),
                })
                .collect();
            let results = client.batch(wire).expect("daemon batch must succeed");
            return results
                .into_iter()
                .map(|r| (r.report, r.telemetry))
                .collect();
        }
        let store = self.store.as_ref().expect("service_run without a backend");
        let passes = self.passes.clone();
        par_map(self.jobs, cells, move |c| {
            let req = SimRequest {
                config: c.cfg,
                technique: c.technique,
                trace: c.trace,
                rewrite: c.rewrite,
                telemetry: c.telemetry,
                want_chrome: false,
                passes: passes.clone(),
                stage: Some(c.stage),
            };
            let r = run_cell_with_digest(Some(store), &req, &EngineOpts::default(), &c.digest)
                .expect("kernel must drain");
            (r.report, r.telemetry)
        })
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
        let report = if self.service_enabled() {
            let stage = self.rewritable_index(id);
            let cell = self.service_cell(cfg, technique, id, stage, false);
            self.service_run(vec![cell]).remove(0).0
        } else {
            let frame = self.traces_arc(id);
            let sim = self.sim_for(cfg, technique.path());
            let stage = frame.rewritable();
            let piped = self.optimized(id, stage.name(), stage.trace(), self.jobs);
            sim.run(&technique.prepare_cow(&piped))
                .expect("kernel must drain")
        };
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
        let (report, tel) = if self.service_enabled() {
            let stage = self.rewritable_index(id);
            let cell = self.service_cell(cfg, technique, id, stage, true);
            let (report, tel) = self.service_run(vec![cell]).remove(0);
            (report, tel.expect("telemetry was requested"))
        } else {
            let frame = self.traces_arc(id);
            let sim = self.telemetry_sim(cfg, technique.path());
            let stage = frame.rewritable();
            let piped = self.optimized(id, stage.name(), stage.trace(), self.jobs);
            let (report, tel) = sim
                .run_with_telemetry(&technique.prepare_cow(&piped))
                .expect("kernel must drain");
            (report, tel.expect("telemetry was enabled"))
        };
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
        let ids: Vec<String> = cells.iter().map(|(_, _, id)| id.clone()).collect();
        self.trace_batch(&ids);

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
            let stages: Vec<(String, usize)> = misses
                .iter()
                .map(|(_, _, id)| (id.clone(), self.rewritable_index(id)))
                .collect();
            self.digest_stages(stages);
            let svc: Vec<ServiceCell> = misses
                .iter()
                .map(|(cfg, t, id)| {
                    let stage = self.rewritable_index(id);
                    self.service_cell(cfg, *t, id, stage, true)
                })
                .collect();
            for (key, (report, tel)) in keys.into_iter().zip(self.service_run(svc)) {
                self.gradcomp_cache.insert(key, report);
                self.telemetry_cache
                    .insert(key, tel.expect("telemetry was requested"));
            }
            return;
        }

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
        let report = if self.service_enabled() {
            let stages = self.traces_arc(id).stages().len();
            let svc: Vec<ServiceCell> = (0..stages)
                .map(|stage| self.service_cell(cfg, technique, id, stage, false))
                .collect();
            let kernels = self.service_run(svc).into_iter().map(|(r, _)| r).collect();
            IterationReport { kernels }
        } else {
            let frame = self.traces_arc(id);
            let sim = self.sim_for(cfg, technique.path());
            let optimized: Vec<(StageRole, Arc<KernelTrace>)> = frame
                .stages()
                .iter()
                .map(|s| (s.role(), self.optimized(id, s.name(), s.trace(), self.jobs)))
                .collect();
            arc_workloads::run_frame_staged(
                &sim,
                technique,
                optimized.iter().map(|(role, t)| (*role, t.as_ref())),
            )
            .expect("iteration must drain")
        };
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

        // Build every missing workload trace first (each is an actual
        // render + backward pass — the other expensive step), also in
        // parallel.
        let ids: Vec<String> = cells.iter().map(|(_, _, id)| id.clone()).collect();
        self.trace_batch(&ids);

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
            let mut stages = Vec::new();
            for (_, _, id) in &misses {
                if iteration {
                    let n = self.traces_arc(id).stages().len();
                    stages.extend((0..n).map(|stage| (id.clone(), stage)));
                } else {
                    stages.push((id.clone(), self.rewritable_index(id)));
                }
            }
            self.digest_stages(stages);
            if iteration {
                // One kernel request per frame stage per cell, flattened
                // so the pool (or daemon) schedules them all at once;
                // per-cell stage counts unflatten the results (frames
                // are no longer uniformly three kernels).
                let mut svc = Vec::new();
                let mut counts = Vec::with_capacity(misses.len());
                for (cfg, t, id) in &misses {
                    let stages = self.traces_arc(id).stages().len();
                    counts.push(stages);
                    for stage in 0..stages {
                        svc.push(self.service_cell(cfg, *t, id, stage, false));
                    }
                }
                let mut results = self.service_run(svc).into_iter();
                for (key, stages) in keys.into_iter().zip(counts) {
                    let mut kernels = Vec::with_capacity(stages);
                    for _ in 0..stages {
                        kernels.push(results.next().expect("one kernel per stage").0);
                    }
                    self.iteration_cache
                        .insert(key, IterationReport { kernels });
                }
            } else {
                let svc: Vec<ServiceCell> = misses
                    .iter()
                    .map(|(cfg, t, id)| {
                        let stage = self.rewritable_index(id);
                        self.service_cell(cfg, *t, id, stage, false)
                    })
                    .collect();
                for (key, (report, _)) in keys.into_iter().zip(self.service_run(svc)) {
                    self.gradcomp_cache.insert(key, report);
                }
            }
            return;
        }

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
