//! `simserved` — the simulation service CLI.
//!
//! ```text
//! simserved serve --sock PATH [--store DIR] [--jobs N]
//! simserved fsck  --store DIR [--verify-traces]
//! simserved gc    --store DIR --max-bytes N
//! simserved sweep --store DIR [--scale S] [--jobs N] [--daemon SOCK]
//! ```
//!
//! `serve` runs the daemon until a client sends `shutdown`. `fsck`
//! verifies every object and trace-digest memo and rebuilds the index;
//! with `--verify-traces` it also re-renders every memoized workload
//! spec, compares the fresh stage digests with the memo's, deletes the
//! memos that disagree and exits non-zero if there were any (CI's proof
//! that a memoized digest equals a fresh one). `gc` evicts
//! oldest-first down to a byte budget. `sweep` simulates a fixed,
//! deterministic cell grid through the store (or a daemon) and prints
//! one canonical line per cell — CI runs it twice against a fresh store
//! and asserts the warm pass is byte-identical and ≥5× faster (see
//! `scripts/ci.sh`, step `store`).

use std::process::ExitCode;
use std::sync::Arc;

use arc_core::passes::PassPipeline;
use arc_core::technique::Technique;
use arc_core::BalanceThreshold;
use gpu_sim::telemetry::TelemetryConfig;
use gpu_sim::GpuConfig;
use sim_service::{
    daemon, exec, trace_digest, DaemonClient, EngineOpts, MemoStage, ResultStore, SimRequest,
    WireCell,
};

fn usage() -> ExitCode {
    eprintln!(
        "usage: simserved <serve|fsck|gc|sweep> [options]\n\
         \n\
         serve --sock PATH [--store DIR] [--jobs N]   run the daemon\n\
         fsck  --store DIR [--verify-traces]          verify objects and memos (and re-render\n\
                                                      memoized specs), rebuild index\n\
         gc    --store DIR --max-bytes N              evict oldest entries to fit N bytes\n\
         sweep --store DIR [--scale S] [--jobs N]     run the fixed CI cell grid through the store\n\
               [--daemon SOCK]                        ...or through a running daemon"
    );
    ExitCode::FAILURE
}

/// Pop `--flag VALUE` from `args`; returns the value.
fn take_opt(args: &mut Vec<String>, flag: &str) -> Option<String> {
    let pos = args.iter().position(|a| a == flag)?;
    if pos + 1 >= args.len() {
        eprintln!("simserved: {flag} requires a value");
        std::process::exit(2);
    }
    args.remove(pos);
    Some(args.remove(pos))
}

/// Pop a bare `--flag` from `args`; true if it was there.
fn take_flag(args: &mut Vec<String>, flag: &str) -> bool {
    let Some(pos) = args.iter().position(|a| a == flag) else {
        return false;
    };
    args.remove(pos);
    true
}

/// The stages a memoized spec renders to now: the spec is built afresh
/// and each stage trace digested on the pool. `None` if the spec is not
/// a `WorkloadSpec`.
fn render_stages(spec: &serde::Value) -> Option<Vec<MemoStage>> {
    let spec: arc_workloads::WorkloadSpec = serde_json::from_value(spec).ok()?;
    let frame = spec.build();
    let traces: Vec<_> = frame.stages().iter().map(|s| s.shared_trace()).collect();
    let digests = gpu_sim::par_map(gpu_sim::default_jobs(), traces, |t| trace_digest(t));
    Some(
        frame
            .stages()
            .iter()
            .zip(digests)
            .map(|(s, digest)| MemoStage {
                name: s.name().to_string(),
                rewritable: s.rewritable(),
                digest,
            })
            .collect(),
    )
}

fn open_store(dir: &str) -> ResultStore {
    match ResultStore::open(dir) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("simserved: cannot open store at {dir}: {e}");
            std::process::exit(1);
        }
    }
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        return usage();
    }
    let cmd = args.remove(0);
    match cmd.as_str() {
        "serve" => {
            let Some(sock) = take_opt(&mut args, "--sock") else {
                eprintln!("simserved serve: --sock PATH is required");
                return ExitCode::FAILURE;
            };
            let store = take_opt(&mut args, "--store").map(|d| Arc::new(open_store(&d)));
            let jobs = take_opt(&mut args, "--jobs")
                .map(|j| j.parse::<usize>().unwrap_or(0).max(1))
                .unwrap_or_else(gpu_sim::default_jobs);
            if !args.is_empty() {
                return usage();
            }
            match daemon::spawn(&sock, store, jobs) {
                Ok(mut handle) => {
                    eprintln!("simserved: listening on {sock} ({jobs} jobs)");
                    handle.wait();
                    eprintln!(
                        "simserved: stopped ({} requests coalesced)",
                        handle.coalesced()
                    );
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("simserved: cannot bind {sock}: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        "fsck" => {
            let Some(dir) = take_opt(&mut args, "--store") else {
                eprintln!("simserved fsck: --store DIR is required");
                return ExitCode::FAILURE;
            };
            let verify = take_flag(&mut args, "--verify-traces");
            if !args.is_empty() {
                return usage();
            }
            let store = open_store(&dir);
            match store.fsck() {
                Ok(r) => println!(
                    "fsck: {} valid, {} removed, {} temp files swept; memos: {} valid, {} removed",
                    r.valid, r.removed, r.temps_swept, r.memos_valid, r.memos_removed
                ),
                Err(e) => {
                    eprintln!("simserved: fsck failed: {e}");
                    return ExitCode::FAILURE;
                }
            }
            if !verify {
                return ExitCode::SUCCESS;
            }
            match store.verify_memos(render_stages) {
                Ok(r) => {
                    println!(
                        "verify-traces: {} verified, {} mismatched (removed)",
                        r.verified, r.mismatched
                    );
                    if r.mismatched == 0 {
                        ExitCode::SUCCESS
                    } else {
                        eprintln!(
                            "simserved: memoized trace digests disagree with a fresh render; \
                             trace generation changed without a TRACEGEN_VERSION bump"
                        );
                        ExitCode::FAILURE
                    }
                }
                Err(e) => {
                    eprintln!("simserved: verify-traces failed: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        "gc" => {
            let Some(dir) = take_opt(&mut args, "--store") else {
                eprintln!("simserved gc: --store DIR is required");
                return ExitCode::FAILURE;
            };
            let Some(max) = take_opt(&mut args, "--max-bytes") else {
                eprintln!("simserved gc: --max-bytes N is required");
                return ExitCode::FAILURE;
            };
            let Ok(max_bytes) = max.parse::<u64>() else {
                eprintln!("simserved gc: --max-bytes wants an integer, got `{max}`");
                return ExitCode::FAILURE;
            };
            if !args.is_empty() {
                return usage();
            }
            let store = open_store(&dir);
            match store.gc(max_bytes) {
                Ok(r) => {
                    println!(
                        "gc: {} evicted, {} pinned kept, {} memos evicted, {} bytes remain",
                        r.evicted, r.pinned_kept, r.memos_evicted, r.bytes_after
                    );
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("simserved: gc failed: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        "sweep" => {
            let Some(dir) = take_opt(&mut args, "--store") else {
                eprintln!("simserved sweep: --store DIR is required");
                return ExitCode::FAILURE;
            };
            let scale = take_opt(&mut args, "--scale")
                .map(|s| s.parse::<f64>().unwrap_or(0.2))
                .unwrap_or(0.2);
            let jobs = take_opt(&mut args, "--jobs")
                .map(|j| j.parse::<usize>().unwrap_or(0).max(1))
                .unwrap_or_else(gpu_sim::default_jobs);
            let daemon_sock = take_opt(&mut args, "--daemon");
            if !args.is_empty() {
                return usage();
            }
            sweep(&dir, scale, jobs, daemon_sock.as_deref())
        }
        _ => usage(),
    }
}

/// FNV-1a fingerprint, same as the determinism probe: keeps the chrome
/// trace's full byte stream in the comparison without megabytes of
/// output.
fn fnv1a(data: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in data {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The fixed CI grid: small but exercises every atomic path, telemetry,
/// and the chrome export. Deterministic by construction — byte-equal
/// stdout on every run is the point.
fn sweep(dir: &str, scale: f64, jobs: usize, daemon_sock: Option<&str>) -> ExitCode {
    let thr = BalanceThreshold::new(16).expect("0..=32");
    let techniques = [
        Technique::Baseline,
        Technique::ArcHw,
        Technique::SwB(thr),
        Technique::Phi,
    ];
    let cfg = GpuConfig::tiny();
    let telemetry = TelemetryConfig::every(32);

    // Trace construction is deliberately outside the timed region: the
    // cold/warm comparison in CI measures simulation avoided, not trace
    // synthesis.
    let mut cells = Vec::new();
    for id in ["3D-LE", "PS-SS"] {
        let traces = arc_workloads::spec(id)
            .expect("known workload")
            .scaled(scale)
            .build();
        let gradcomp = Arc::new(traces.gradcomp().clone());
        let digest = trace_digest(&gradcomp);
        for t in techniques {
            cells.push((id, t, Arc::clone(&gradcomp), digest));
        }
    }

    let store = open_store(dir);
    let start = std::time::Instant::now();
    let rows: Vec<Result<String, String>> = if let Some(sock) = daemon_sock {
        let client = match DaemonClient::connect(sock) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("simserved sweep: cannot connect to {sock}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let wire: Vec<WireCell> = cells
            .iter()
            .map(|(_, t, trace, _)| WireCell {
                config: cfg.clone(),
                technique: *t,
                trace: (**trace).clone(),
                rewrite: true,
                telemetry: Some(telemetry.clone()),
                want_chrome: true,
                // The sweep is a byte-compared CI fixture: always
                // pass-free so its output never depends on ARC_PASSES,
                // and stage-less so its keys predate frame naming.
                passes: PassPipeline::empty(),
                stage: None,
            })
            .collect();
        match client.batch(wire) {
            Ok(results) => cells
                .iter()
                .zip(results)
                .map(|((id, t, _, _), r)| Ok(render_row(id, *t, &r)))
                .collect(),
            Err(e) => {
                eprintln!("simserved sweep: batch failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        gpu_sim::par_map(jobs, cells, |(id, technique, trace, digest)| {
            let req = SimRequest {
                config: cfg.clone(),
                technique,
                trace,
                rewrite: true,
                telemetry: Some(telemetry.clone()),
                want_chrome: true,
                passes: PassPipeline::empty(),
                stage: None,
            };
            exec::run_cell_with_digest(Some(&store), &req, &EngineOpts::default(), &digest)
                .map(|r| render_row(id, technique, &r))
                .map_err(|e| format!("{id}/{}: {e}", technique.label()))
        })
    };
    let elapsed = start.elapsed().as_secs_f64();

    let mut failed = false;
    for row in rows {
        match row {
            Ok(line) => println!("{line}"),
            Err(e) => {
                eprintln!("simserved sweep: {e}");
                failed = true;
            }
        }
    }
    let stats = store.stats();
    eprintln!(
        "sweep-wall-seconds {elapsed:.3} hits {} misses {}",
        stats.hits, stats.misses
    );
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn render_row(id: &str, technique: Technique, r: &sim_service::SimResult) -> String {
    let tel = r.telemetry.as_ref().expect("sweep requests telemetry");
    let s = tel.summary();
    let chrome = r.chrome.as_deref().expect("sweep requests chrome");
    format!(
        "{id} {:<8} cycles={} instr={} lsu_full={} icnt={} rop_peak={}@{} chrome_fnv={:016x}",
        technique.label(),
        r.report.cycles,
        r.report.counters.instructions_issued,
        r.report.stalls.lsu_full,
        r.report.counters.icnt_flits,
        s.rop_queue_peak,
        s.rop_queue_peak_cycle,
        fnv1a(chrome.as_bytes())
    )
}
