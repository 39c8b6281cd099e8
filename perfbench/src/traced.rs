//! The traced run: each workload replayed as explicit calls into every
//! layer's public functions, each call wrapped in a span.
//!
//! The replay does what the untraced pass does inside `Harness` or the
//! daemon, step by step — build frames (`workloads`), apply passes
//! (`core::passes`), rewrite (`core::technique`), simulate (`gpu-sim`),
//! digest (`sim-service::key`), read and write the store — and its
//! outputs go through the same exactness check, so a replay that
//! drifted from the real path would fail. Work the daemon does on its
//! side of the socket cannot be timed from outside; the daemon replay
//! times the batch itself and then repeats the server's digests, store
//! operations, JSON framing and (on cold passes) simulations in
//! process.
//!
//! Layer times are self times (see `spans`), summed per pass; each
//! metric is the median over the measured passes, or over the set-up
//! passes for a layer only set-up touches (the engine on the warm
//! workloads). A layer a workload never reaches reads 0.

use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use arc_core::passes::trace_traversals;
use arc_workloads::{FrameTrace, Technique};
use gpu_sim::{par_map, AtomicPath, IterationReport, KernelReport, Simulator, TechniquePath};
use serde_json::Value;
use sim_service::daemon::DaemonHandle;
use sim_service::proto::{read_frame, write_frame, WireRequest, WireResponse, WireResult};
use sim_service::{
    request_key, trace_digest, DaemonClient, ResultStore, SimRequest, SimResult, StoredValue,
    WireCell,
};
use warp_trace::KernelTrace;

use crate::check;
use crate::spans::{self, Span, SpanId, Tracer};
use crate::workloads::{self, Plan, Scratch, Tally, MIN_PASSES, WARM_SETUPS};
use crate::{median, metric};

/// Per-layer metrics: (name, unit). Ratios come with their bases
/// (`engine.skip_ratio` with the two cycle counts, `store.hit_ratio`
/// with hits and misses, `pool.efficiency` with `pool.busy_s` and
/// `harness.batch_s`).
pub const PER_LAYER: [(&str, &str); 44] = [
    ("workloads.build_s", "s"),
    ("workloads.atomic_requests", "count"),
    ("workloads.trace_bytes", "bytes"),
    ("passes.apply_s", "s"),
    ("passes.traversals", "count"),
    ("passes.issue_slots_removed", "count"),
    ("technique.prepare_s", "s"),
    ("engine.run_s", "s"),
    ("engine.cycles_simulated", "cycles"),
    ("engine.cycles_stepped", "cycles"),
    ("engine.skip_ratio", "ratio"),
    ("engine.lane_steps", "count"),
    ("engine.lane_skip_ratio", "ratio"),
    ("engine.ns_per_stepped_cycle", "ns"),
    ("engine.instructions", "count"),
    ("engine.sim_instr_per_s", "1/s"),
    ("telemetry.run_s", "s"),
    ("telemetry.chrome_s", "s"),
    ("telemetry.bytes", "bytes"),
    ("pool.busy_s", "s"),
    ("pool.efficiency", "ratio"),
    ("pool.critical_path_s", "s"),
    ("service.digest_s", "s"),
    ("service.digests", "count"),
    ("service.digest_bytes", "bytes"),
    ("store.get_s", "s"),
    ("store.put_s", "s"),
    ("store.hits", "count"),
    ("store.misses", "count"),
    ("store.puts", "count"),
    ("store.hit_ratio", "ratio"),
    ("store.bytes_read", "bytes"),
    ("store.bytes_written", "bytes"),
    ("daemon.batch_s", "s"),
    ("daemon.transport_s", "s"),
    ("daemon.request_bytes", "bytes"),
    ("daemon.response_bytes", "bytes"),
    ("daemon.coalesced", "count"),
    ("harness.batch_s", "s"),
    ("harness.unattributed_s", "s"),
    ("tracing.untraced_wall_s", "s"),
    ("tracing.traced_wall_s", "s"),
    ("tracing.overhead_s", "s"),
    ("host.probe_s", "s"),
];

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Setup,
    Measured,
}

/// State shared by one traced run's passes.
struct Ctx<'a> {
    plan: &'a Plan,
    tr: Tracer,
    kinds: Mutex<Vec<Kind>>,
    /// JSON size of each (workload id, stage) trace: computed once, off
    /// the clock, and counted in every pass that touches the trace.
    trace_bytes: Mutex<HashMap<(String, usize), f64>>,
}

impl Ctx<'_> {
    fn new_pass(&self, kind: Kind) -> usize {
        let mut kinds = self.kinds.lock().expect("pass list poisoned");
        kinds.push(kind);
        kinds.len() - 1
    }

    fn bytes_of(&self, id: &str, stage: usize, trace: &KernelTrace) -> f64 {
        let mut cache = self.trace_bytes.lock().expect("byte cache poisoned");
        *cache.entry((id.to_string(), stage)).or_insert_with(|| {
            serde_json::to_string(trace)
                .expect("traces serialize")
                .len() as f64
        })
    }

    /// Builds every frame of the plan on the job pool.
    fn build_frames(&self, pass: usize, parent: Option<SpanId>) -> Vec<FrameTrace> {
        let plan = self.plan;
        let frames = par_map(plan.jobs, plan.ids.clone(), |id| {
            self.tr.span("workloads.build", parent, pass, |_| {
                arc_workloads::spec(&id)
                    .expect("plan ids are registered")
                    .scaled(plan.scale)
                    .build()
            })
        });
        for f in &frames {
            for (i, s) in f.stages().iter().enumerate() {
                let atomics = s.trace().total_atomic_requests() as f64;
                self.tr.count(pass, "workloads.atomic_requests", atomics);
                let bytes = self.bytes_of(f.id(), i, s.trace());
                self.tr.count(pass, "workloads.trace_bytes", bytes);
            }
        }
        frames
    }

    /// One engine run, with its engine counters.
    fn engine_run(
        &self,
        pass: usize,
        parent: Option<SpanId>,
        sim: &Simulator,
        trace: &KernelTrace,
    ) -> KernelReport {
        let (report, _, engine) = self
            .tr
            .span("engine.run", parent, pass, |_| sim.run_detailed(trace))
            .expect("kernel must drain");
        let c = |name, v: u64| self.tr.count(pass, name, v as f64);
        c("engine.cycles_simulated", engine.cycles_simulated);
        c("engine.cycles_stepped", engine.cycles_stepped);
        c("engine.lane_steps", engine.lane_steps_total);
        c("engine.lane_steps_skipped", engine.lane_steps_skipped);
        c("engine.instructions", report.counters.instructions_issued);
        report
    }

    /// `Harness::iteration_batch` without a store: passes applied once
    /// per kernel trace, then every cell's stages on the job pool.
    fn harness_batch(&self, pass: usize, frames: &[FrameTrace]) -> Vec<IterationReport> {
        let plan = self.plan;
        let tr = &self.tr;
        tr.span("harness.batch", None, pass, |batch| {
            let piped: Vec<Vec<Cow<'_, KernelTrace>>> = frames
                .iter()
                .map(|f| {
                    f.stages()
                        .iter()
                        .map(|s| {
                            if plan.passes.is_empty() {
                                return Cow::Borrowed(s.trace());
                            }
                            tr.span("passes.apply", Some(batch), pass, |_| {
                                let before = trace_traversals();
                                let (t, stats) = gpu_sim::apply_passes(&plan.passes, s.trace(), 1);
                                let removed: u64 =
                                    stats.iter().map(|(_, s)| s.issue_slots_removed).sum();
                                let traversals = trace_traversals() - before;
                                tr.count(pass, "passes.traversals", traversals as f64);
                                tr.count(pass, "passes.issue_slots_removed", removed as f64);
                                t
                            })
                        })
                        .collect()
                })
                .collect();
            let items: Vec<(usize, Technique)> = (0..frames.len())
                .flat_map(|fi| plan.techniques.iter().map(move |t| (fi, *t)))
                .collect();
            par_map(plan.jobs, items, |(fi, technique)| {
                tr.span("pool.cell", Some(batch), pass, |cell| {
                    let sim = Simulator::new(plan.config.clone(), technique.path())
                        .expect("valid config");
                    let kernels = frames[fi]
                        .stages()
                        .iter()
                        .zip(&piped[fi])
                        .map(|(s, t)| {
                            let prepared = if s.rewritable() {
                                tr.span("technique.prepare", Some(cell), pass, |_| {
                                    technique.prepare_cow(t)
                                })
                            } else {
                                Cow::Borrowed(t.as_ref())
                            };
                            self.engine_run(pass, Some(cell), &sim, &prepared)
                        })
                        .collect();
                    IterationReport { kernels }
                })
            })
        })
    }

    /// `Harness::iteration_batch` through a store: build, digest every
    /// stage trace once, then one store request per cell per stage,
    /// simulating and writing back on a miss (as `run_cell_with_digest`
    /// does).
    fn store_batch(&self, pass: usize, store: &ResultStore) -> Vec<IterationReport> {
        let plan = self.plan;
        let tr = &self.tr;
        tr.span("harness.batch", None, pass, |batch| {
            let frames = self.build_frames(pass, Some(batch));
            let mut traces = Vec::new();
            for f in &frames {
                let mut stages = Vec::new();
                for (i, s) in f.stages().iter().enumerate() {
                    let digest = tr.span("service.digest", Some(batch), pass, |_| {
                        trace_digest(s.trace())
                    });
                    tr.count(pass, "service.digests", 1.0);
                    let bytes = self.bytes_of(f.id(), i, s.trace());
                    tr.count(pass, "service.digest_bytes", bytes);
                    stages.push((Arc::new(s.trace().clone()), digest));
                }
                traces.push(stages);
            }
            let mut items = Vec::new();
            for (fi, f) in frames.iter().enumerate() {
                for t in &plan.techniques {
                    for si in 0..f.stages().len() {
                        items.push((fi, *t, si));
                    }
                }
            }
            let kernels = par_map(plan.jobs, items, |(fi, technique, si)| {
                tr.span("pool.cell", Some(batch), pass, |cell| {
                    let stage = &frames[fi].stages()[si];
                    let (trace, digest) = &traces[fi][si];
                    let (technique, rewrite) = if stage.rewritable() {
                        (technique, true)
                    } else {
                        (path_technique(technique.path()), false)
                    };
                    let req = SimRequest {
                        config: plan.config.clone(),
                        technique,
                        trace: Arc::clone(trace),
                        rewrite,
                        telemetry: None,
                        want_chrome: false,
                        passes: plan.passes.clone(),
                        stage: Some(stage.name().to_string()),
                    };
                    let key = request_key(&req, digest);
                    let hit = tr.span("store.get", Some(cell), pass, |_| store.get(&key));
                    tr.count(pass, "store.hits", f64::from(u8::from(hit.is_some())));
                    tr.count(pass, "store.misses", f64::from(u8::from(hit.is_none())));
                    if let Some(value) = hit {
                        tr.count(pass, "store.bytes_read", stored_bytes(&value));
                        return value.report;
                    }
                    let sim =
                        Simulator::new(req.config.clone(), technique.path()).expect("valid config");
                    let prepared = if rewrite {
                        tr.span("technique.prepare", Some(cell), pass, |_| {
                            technique.prepare_cow(&req.trace)
                        })
                    } else {
                        Cow::Borrowed(req.trace.as_ref())
                    };
                    let report = self.engine_run(pass, Some(cell), &sim, &prepared);
                    let put = tr.span("store.put", Some(cell), pass, |_| {
                        store.put(&key, &report, None, None)
                    });
                    if put.is_ok() {
                        tr.count(pass, "store.puts", 1.0);
                        let value = StoredValue {
                            key: key.to_hex(),
                            sim_version: store.sim_version().to_string(),
                            report: report.clone(),
                            telemetry: None,
                            chrome: None,
                        };
                        tr.count(pass, "store.bytes_written", stored_bytes(&value));
                    }
                    report
                })
            });
            let mut it = kernels.into_iter();
            let mut reports = Vec::new();
            for f in &frames {
                for _ in &plan.techniques {
                    let kernels = it.by_ref().take(f.stages().len()).collect();
                    reports.push(IterationReport { kernels });
                }
            }
            reports
        })
    }

    /// One daemon batch from a fresh client, then in-process replays of
    /// the work the batch implies: the server's trace digests and store
    /// operations, JSON framing of the request and every response, and
    /// on cold passes the simulations with and without telemetry plus
    /// the chrome export.
    fn daemon_pass(
        &self,
        pass: usize,
        handle: &DaemonHandle,
        store: &ResultStore,
        wire: &[WireCell],
        cold: bool,
    ) -> Option<Vec<SimResult>> {
        let tr = &self.tr;
        let coalesced = handle.coalesced();
        let before = store.stats();
        let batch = wire.to_vec();
        let results = tr.span("daemon.batch", None, pass, |_| {
            let client = DaemonClient::connect(handle.socket_path()).ok()?;
            client.batch(batch).ok()
        })?;
        let after = store.stats();
        tr.count(
            pass,
            "daemon.coalesced",
            (handle.coalesced() - coalesced) as f64,
        );
        tr.count(pass, "store.hits", (after.hits - before.hits) as f64);
        tr.count(pass, "store.misses", (after.misses - before.misses) as f64);
        if after.puts > before.puts {
            tr.count(pass, "store.puts", (after.puts - before.puts) as f64);
        }

        let request = WireRequest {
            id: 1,
            op: "batch".to_string(),
            cell: None,
            cells: Some(wire.to_vec()),
        };
        let responses: Vec<WireResponse> = results
            .iter()
            .enumerate()
            .map(|(i, r)| {
                let mut resp = WireResponse::ack(1);
                resp.item = Some(i as u64);
                resp.result = Some(WireResult {
                    report: r.report.clone(),
                    telemetry: r.telemetry.clone(),
                    chrome: r.chrome.clone(),
                    cached: r.cached,
                });
                resp
            })
            .collect();
        tr.span("daemon.transport", None, pass, |_| {
            let mut buf = Vec::new();
            write_frame(&mut buf, &request).expect("request frames encode");
            tr.count(pass, "daemon.request_bytes", buf.len() as f64);
            let _: Option<WireRequest> =
                read_frame(&mut buf.as_slice()).expect("request frames decode");
            for resp in &responses {
                buf.clear();
                write_frame(&mut buf, resp).expect("response frames encode");
                tr.count(pass, "daemon.response_bytes", buf.len() as f64);
                let _: Option<WireResponse> =
                    read_frame(&mut buf.as_slice()).expect("response frames decode");
            }
        });

        for (i, (cell, result)) in wire.iter().zip(&results).enumerate() {
            let digest = tr.span("service.digest", None, pass, |_| trace_digest(&cell.trace));
            tr.count(pass, "service.digests", 1.0);
            tr.count(
                pass,
                "service.digest_bytes",
                self.bytes_of("wire", i, &cell.trace),
            );
            let tel_bytes = result.telemetry.as_ref().map_or(0, |t| {
                serde_json::to_string(t)
                    .expect("telemetry serializes")
                    .len()
            });
            let chrome_bytes = result.chrome.as_ref().map_or(0, String::len);
            tr.count(pass, "telemetry.bytes", (tel_bytes + chrome_bytes) as f64);

            let req = SimRequest {
                config: cell.config.clone(),
                technique: cell.technique,
                trace: Arc::new(cell.trace.clone()),
                rewrite: cell.rewrite,
                telemetry: cell.telemetry.clone(),
                want_chrome: cell.want_chrome,
                passes: cell.passes.clone(),
                stage: cell.stage.clone(),
            };
            let key = request_key(&req, &digest);
            let value = StoredValue {
                key: key.to_hex(),
                sim_version: store.sim_version().to_string(),
                report: result.report.clone(),
                telemetry: result.telemetry.clone(),
                chrome: result.chrome.clone(),
            };
            if cold {
                self.replay_simulation(pass, &req);
                tr.span("store.put", None, pass, |_| {
                    store.put(
                        &key,
                        &value.report,
                        value.telemetry.as_ref(),
                        value.chrome.as_deref(),
                    )
                })
                .expect("store accepts the replayed entry");
                tr.count(pass, "store.bytes_written", stored_bytes(&value));
            } else {
                tr.span("store.get", None, pass, |_| store.get(&key));
                tr.count(pass, "store.bytes_read", stored_bytes(&value));
            }
        }
        Some(results)
    }

    /// What the daemon does for one cold cell, in process: rewrite,
    /// simulate without and with telemetry (their difference is the
    /// telemetry cost), export the chrome trace.
    fn replay_simulation(&self, pass: usize, req: &SimRequest) {
        let tr = &self.tr;
        let prepared = if req.rewrite {
            tr.span("technique.prepare", None, pass, |_| {
                req.technique.prepare_cow(&req.trace)
            })
        } else {
            Cow::Borrowed(req.trace.as_ref())
        };
        let sim = Simulator::new(req.config.clone(), req.technique.path()).expect("valid config");
        self.engine_run(pass, None, &sim, &prepared);
        let Some(tcfg) = &req.telemetry else {
            return;
        };
        let sim = sim.with_telemetry(tcfg.clone());
        let (_, telemetry, _) = tr
            .span("telemetry.run", None, pass, |_| sim.run_detailed(&prepared))
            .expect("kernel must drain");
        let telemetry = telemetry.expect("telemetry was enabled");
        if req.want_chrome {
            tr.span("telemetry.chrome", None, pass, |_| telemetry.chrome_trace());
        }
    }
}

/// The canonical non-rewriting technique of a hardware path, which
/// fixed frame stages run as (mirrors the harness).
fn path_technique(path: AtomicPath) -> Technique {
    match path {
        AtomicPath::Baseline => Technique::Baseline,
        AtomicPath::ArcHw => Technique::ArcHw,
        AtomicPath::Lab => Technique::Lab,
        AtomicPath::LabIdeal => Technique::LabIdeal,
        AtomicPath::Phi => Technique::Phi,
    }
}

fn stored_bytes(value: &StoredValue) -> f64 {
    serde_json::to_string(value)
        .expect("stored values serialize")
        .len() as f64
}

/// A finished traced run.
pub struct Traced {
    pub tally: Tally,
    spans: Vec<Span>,
    counts: BTreeMap<(usize, &'static str), f64>,
    kinds: Vec<Kind>,
    traced_wall: Vec<f64>,
    jobs: usize,
}

/// Runs `plan` traced for about `seconds` (at least [`MIN_PASSES`]
/// measured passes), checking every pass's outputs like the untraced
/// run.
pub fn run(plan: &Plan, expected: &mut Option<String>, scratch: &Scratch, seconds: f64) -> Traced {
    let ctx = Ctx {
        plan,
        tr: Tracer::default(),
        kinds: Mutex::new(Vec::new()),
        trace_bytes: Mutex::new(HashMap::new()),
    };
    let mut tally = Tally::default();
    let mut traced_wall = Vec::new();
    let lost = (plan.ids.len() * plan.techniques.len()) as u64;
    let requests = |reports: &[IterationReport]| -> u64 {
        reports.iter().map(|r| r.kernels.len() as u64).sum()
    };
    match plan.workload {
        "grid" | "frame" => workloads::repeat(seconds, MIN_PASSES, || {
            let (setup, measured) = (ctx.new_pass(Kind::Setup), ctx.new_pass(Kind::Measured));
            let pass = catch_unwind(AssertUnwindSafe(|| {
                let frames = ctx.build_frames(setup, None);
                let t = Instant::now();
                let reports = ctx.harness_batch(measured, &frames);
                (t.elapsed().as_secs_f64(), reports)
            }));
            match pass {
                Ok((wall, reports)) => {
                    traced_wall.push(wall);
                    tally.pass(expected, &check::digest_of(&reports), requests(&reports), 0);
                }
                Err(_) => tally.lost(lost),
            }
        }),
        "store-warm" => {
            let store_pass = |kind: Kind, dir: &PathBuf| {
                let pass = ctx.new_pass(kind);
                catch_unwind(AssertUnwindSafe(|| {
                    let t = Instant::now();
                    let store = ResultStore::open(dir).expect("scratch store opens");
                    let reports = ctx.store_batch(pass, &store);
                    let misses = store.stats().misses;
                    (t.elapsed().as_secs_f64(), reports, misses)
                }))
                .ok()
            };
            let mut dir = PathBuf::new();
            for k in 0..WARM_SETUPS {
                let _ = std::fs::remove_dir_all(&dir);
                dir = scratch.path(&format!("traced-store-{k}"));
                match store_pass(Kind::Setup, &dir) {
                    Some((_, reports, _)) => {
                        tally.pass(expected, &check::digest_of(&reports), requests(&reports), 0);
                    }
                    None => tally.lost(lost),
                }
            }
            workloads::repeat(seconds, MIN_PASSES, || {
                match store_pass(Kind::Measured, &dir) {
                    Some((wall, reports, misses)) => {
                        traced_wall.push(wall);
                        let digest = check::digest_of(&reports);
                        tally.pass(expected, &digest, requests(&reports), misses);
                    }
                    None => tally.lost(lost),
                }
            });
        }
        _ => {
            let wire = workloads::wire_cells(plan);
            let n = wire.len() as u64;
            let daemon_pass = |kind: Kind, handle: &DaemonHandle, store: &ResultStore| {
                let pass = ctx.new_pass(kind);
                catch_unwind(AssertUnwindSafe(|| {
                    ctx.daemon_pass(pass, handle, store, &wire, kind == Kind::Setup)
                }))
                .ok()
                .flatten()
            };
            let mut warm = None;
            for k in 0..WARM_SETUPS {
                drop(warm.take());
                let Ok((handle, store)) = workloads::spawn_daemon(plan, scratch, 10 + k) else {
                    tally.lost(n);
                    continue;
                };
                match daemon_pass(Kind::Setup, &handle, &store) {
                    Some(results) => {
                        let digest = check::digest_of(&workloads::outputs(&results));
                        tally.pass(expected, &digest, n, 0);
                    }
                    None => tally.lost(n),
                }
                warm = Some((handle, store));
            }
            if let Some((handle, store)) = &warm {
                workloads::repeat(seconds, MIN_PASSES, || {
                    match daemon_pass(Kind::Measured, handle, store) {
                        Some(results) => {
                            let misses = results.iter().filter(|r| !r.cached).count() as u64;
                            let digest = check::digest_of(&workloads::outputs(&results));
                            tally.pass(expected, &digest, n, misses);
                        }
                        None => tally.lost(n),
                    }
                });
            }
        }
    }
    let Ctx { tr, kinds, .. } = ctx;
    let (spans, counts) = tr.finish();
    Traced {
        tally,
        spans,
        counts,
        kinds: kinds.into_inner().expect("pass list poisoned"),
        traced_wall,
        jobs: plan.jobs,
    }
}

/// One pass's span and count totals.
#[derive(Default)]
struct PassData {
    self_s: BTreeMap<&'static str, f64>,
    wall_s: BTreeMap<&'static str, f64>,
    counts: BTreeMap<&'static str, f64>,
    longest_cell_s: f64,
}

/// `num / den`, when both were recorded and `den` is positive.
fn ratio(num: Option<f64>, den: Option<f64>) -> Option<f64> {
    match (num, den) {
        (Some(n), Some(d)) if d > 0.0 => Some(n / d),
        _ => None,
    }
}

impl PassData {
    fn self_of(&self, name: &str) -> Option<f64> {
        self.self_s.get(name).copied()
    }

    fn wall(&self, name: &str) -> Option<f64> {
        self.wall_s.get(name).copied()
    }

    fn count(&self, name: &str) -> Option<f64> {
        self.counts.get(name).copied()
    }

    /// The value of per-layer metric `name` in this pass; `None` when
    /// the pass never reached the layer.
    fn layer_metric(&self, name: &str, jobs: usize) -> Option<f64> {
        let s = |n: &str| self.self_of(n);
        let w = |n: &str| self.wall(n);
        let c = |n: &str| self.count(n);
        match name {
            "workloads.build_s" => s("workloads.build"),
            "passes.apply_s" => s("passes.apply"),
            "technique.prepare_s" => s("technique.prepare"),
            "engine.run_s" => s("engine.run"),
            "engine.skip_ratio" => {
                ratio(c("engine.cycles_stepped"), c("engine.cycles_simulated")).map(|r| 1.0 - r)
            }
            "engine.lane_skip_ratio" => {
                ratio(c("engine.lane_steps_skipped"), c("engine.lane_steps"))
            }
            "engine.ns_per_stepped_cycle" => {
                ratio(s("engine.run").map(|t| t * 1e9), c("engine.cycles_stepped"))
            }
            "engine.sim_instr_per_s" => ratio(c("engine.instructions"), s("engine.run")),
            "telemetry.run_s" => Some(w("telemetry.run")? - w("engine.run")?),
            "telemetry.chrome_s" => s("telemetry.chrome"),
            "pool.busy_s" => w("pool.cell"),
            "pool.efficiency" => ratio(w("pool.cell"), w("harness.batch").map(|b| b * jobs as f64)),
            "pool.critical_path_s" => w("pool.cell").map(|_| self.longest_cell_s),
            "service.digest_s" => s("service.digest"),
            "store.get_s" => s("store.get"),
            "store.put_s" => s("store.put"),
            "store.hit_ratio" => {
                let hits = c("store.hits");
                ratio(hits, Some(hits? + c("store.misses")?))
            }
            "daemon.batch_s" => w("daemon.batch"),
            "daemon.transport_s" => s("daemon.transport"),
            "harness.batch_s" => w("harness.batch"),
            "harness.unattributed_s" => s("harness.batch"),
            count => c(count),
        }
    }
}

impl Traced {
    fn pass_data(&self) -> Vec<PassData> {
        let mut data: Vec<PassData> = self.kinds.iter().map(|_| PassData::default()).collect();
        for ((pass, name), v) in spans::self_seconds_by_pass(&self.spans) {
            data[pass].self_s.insert(name, v);
        }
        for ((pass, name), v) in spans::wall_seconds_by_pass(&self.spans) {
            data[pass].wall_s.insert(name, v);
        }
        for s in self.spans.iter().filter(|s| s.name == "pool.cell") {
            let d = &mut data[s.pass];
            d.longest_cell_s = d.longest_cell_s.max((s.end_ns - s.start_ns) as f64 * 1e-9);
        }
        for (&(pass, name), &v) in &self.counts {
            data[pass].counts.insert(name, v);
        }
        data
    }

    /// Every per-layer metric: the median over measured passes that
    /// reached the layer, else over set-up passes that did, else 0.
    /// The tracing overhead is the traced median minus the `untraced`
    /// run's median, both in host seconds; `host.probe_s` is the
    /// untraced run's median probe.
    pub fn per_layer(&self, untraced: &Tally) -> Vec<(&'static str, Value)> {
        let untraced_wall = median(&untraced.wall_s);
        let data = self.pass_data();
        let layer = |name: &str| {
            let of = |kind| -> Vec<f64> {
                data.iter()
                    .zip(&self.kinds)
                    .filter(|(_, k)| **k == kind)
                    .filter_map(|(d, _)| d.layer_metric(name, self.jobs))
                    .collect()
            };
            let measured = of(Kind::Measured);
            if measured.is_empty() {
                median(&of(Kind::Setup))
            } else {
                median(&measured)
            }
        };
        // The daemon's measured pass is its batch span; the others time
        // their replayed pass directly.
        let traced_wall = if self.traced_wall.is_empty() {
            layer("daemon.batch_s")
        } else {
            median(&self.traced_wall)
        };
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let value = match name {
                    "tracing.untraced_wall_s" => untraced_wall,
                    "tracing.traced_wall_s" => traced_wall,
                    "tracing.overhead_s" => traced_wall - untraced_wall,
                    "host.probe_s" => median(&untraced.probe_s),
                    _ => layer(name),
                };
                (name, metric(value, unit))
            })
            .collect()
    }

    /// Spans, counts and pass kinds as JSON, for the spans file.
    pub fn spans_json(&self) -> Value {
        let kinds = self
            .kinds
            .iter()
            .map(|k| {
                Value::Str(
                    if *k == Kind::Setup {
                        "setup"
                    } else {
                        "measured"
                    }
                    .to_string(),
                )
            })
            .collect();
        let counts = self
            .counts
            .iter()
            .map(|(&(pass, name), &v)| {
                Value::Object(vec![
                    ("pass".to_string(), Value::UInt(pass as u64)),
                    ("name".to_string(), Value::Str(name.to_string())),
                    ("value".to_string(), Value::Float(v)),
                ])
            })
            .collect();
        Value::Object(vec![
            ("passes".to_string(), Value::Array(kinds)),
            (
                "spans".to_string(),
                serde_json::to_value(&self.spans).expect("spans serialize"),
            ),
            ("counts".to_string(), Value::Array(counts)),
        ])
    }
}
