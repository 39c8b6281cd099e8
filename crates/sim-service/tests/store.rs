//! Store and daemon behaviour under concurrency and byte-identity
//! checks (the crate-local half; the cross-engine-matrix half lives in
//! the conformance `store-equivalence` invariant).

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

use arc_core::passes::PassPipeline;
use arc_core::technique::Technique;
use gpu_sim::telemetry::TelemetryConfig;
use gpu_sim::GpuConfig;
use sim_service::{
    daemon, memo_key, run_cell, trace_digest, DaemonClient, EngineOpts, MemoStage, ResultStore,
    SimRequest, TraceMemo, WireCell,
};
use warp_trace::{AtomicInstr, KernelKind, KernelTrace, WarpTraceBuilder};

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

/// A unique scratch directory (no tempfile crate in the workspace).
fn scratch_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "arc-sim-service-{tag}-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn gradcomp_trace(scale: f64) -> Arc<KernelTrace> {
    Arc::new(
        arc_workloads::spec("3D-LE")
            .expect("known workload")
            .scaled(scale)
            .build()
            .gradcomp()
            .clone(),
    )
}

/// A hot-address storm whose repeated same-address atomics the
/// `coalesce` pass merges, so `ARC_PASSES=all` visibly shortens the
/// simulated kernel (a tiny gradcomp slice can round-trip to the same
/// cycle count and make the liveness half of the test vacuous).
fn storm_trace(warps: usize, atomics: usize) -> Arc<KernelTrace> {
    let w = (0..warps)
        .map(|_| {
            let mut b = WarpTraceBuilder::new();
            for _ in 0..atomics {
                b.compute_fp32(1)
                    .atomic(AtomicInstr::same_address(0x100, &[0.5; 32]));
            }
            b.finish()
        })
        .collect();
    Arc::new(KernelTrace::new(
        "store-hot-storm",
        KernelKind::GradCompute,
        w,
    ))
}

fn request(trace: &Arc<KernelTrace>, technique: Technique) -> SimRequest {
    SimRequest {
        config: GpuConfig::tiny(),
        technique,
        trace: Arc::clone(trace),
        rewrite: true,
        telemetry: Some(TelemetryConfig::every(16)),
        want_chrome: true,
        passes: PassPipeline::empty(),
        stage: None,
    }
}

/// Serialize the full observable output for byte comparison.
fn result_bytes(r: &sim_service::SimResult) -> (String, String, String) {
    (
        serde_json::to_string(&r.report).unwrap(),
        serde_json::to_string(&r.telemetry).unwrap(),
        r.chrome.clone().unwrap_or_default(),
    )
}

#[test]
fn warm_hit_is_byte_identical_to_cold_run() {
    let dir = scratch_dir("roundtrip");
    let store = ResultStore::open(&dir).unwrap();
    let trace = gradcomp_trace(0.05);
    let req = request(&trace, Technique::ArcHw);
    let opts = EngineOpts::default();

    let cold = run_cell(None, &req, &opts).unwrap();
    assert!(!cold.cached);
    let miss = run_cell(Some(&store), &req, &opts).unwrap();
    assert!(!miss.cached);
    let warm = run_cell(Some(&store), &req, &opts).unwrap();
    assert!(warm.cached, "second store pass must hit");

    assert_eq!(result_bytes(&cold), result_bytes(&miss));
    assert_eq!(result_bytes(&cold), result_bytes(&warm));
    let stats = store.stats();
    assert_eq!(stats.hits, 1);
    assert_eq!(stats.puts, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn pass_sets_key_separate_entries_and_round_trip() {
    let dir = scratch_dir("passes");
    let store = ResultStore::open(&dir).unwrap();
    let trace = storm_trace(8, 6);
    let opts = EngineOpts::default();

    let mut plain = request(&trace, Technique::Baseline);
    plain.telemetry = None;
    plain.want_chrome = false;
    let mut piped = plain.clone();
    piped.passes = PassPipeline::all();

    // Distinct pass sets never share a store entry.
    let digest = trace_digest(&trace);
    assert_ne!(
        sim_service::exec::request_key(&plain, &digest),
        sim_service::exec::request_key(&piped, &digest)
    );

    let plain_cold = run_cell(Some(&store), &plain, &opts).unwrap();
    let piped_cold = run_cell(Some(&store), &piped, &opts).unwrap();
    assert!(!plain_cold.cached && !piped_cold.cached);
    assert_eq!(store.stats().puts, 2, "two entries, one per pass set");

    // Warm hits are byte-identical to their own cold runs — and the
    // pass pipeline really changed the simulated result.
    let plain_warm = run_cell(Some(&store), &plain, &opts).unwrap();
    let piped_warm = run_cell(Some(&store), &piped, &opts).unwrap();
    assert!(plain_warm.cached && piped_warm.cached);
    assert_eq!(result_bytes(&plain_cold), result_bytes(&plain_warm));
    assert_eq!(result_bytes(&piped_cold), result_bytes(&piped_warm));
    assert_ne!(
        plain_cold.report.cycles, piped_cold.report.cycles,
        "ARC_PASSES=all should shorten the simulated storm kernel"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_same_key_writes_race_safely() {
    let dir = scratch_dir("race");
    let store = Arc::new(ResultStore::open(&dir).unwrap());
    let trace = gradcomp_trace(0.02);
    let req = request(&trace, Technique::Baseline);
    let opts = EngineOpts::default();

    // Establish the entry once; from here on a reader must never see a
    // torn or absent state, no matter how many writers overwrite it.
    let expected = run_cell(Some(&store), &req, &opts).unwrap();
    let expected_bytes = result_bytes(&expected);
    let digest = trace_digest(&req.trace);
    let key = sim_service::exec::request_key(&req, &digest);

    let writers = 4;
    let readers = 4;
    let barrier = Arc::new(Barrier::new(writers + readers));
    std::thread::scope(|scope| {
        for _ in 0..writers {
            let store = Arc::clone(&store);
            let barrier = Arc::clone(&barrier);
            let report = expected.report.clone();
            let telemetry = expected.telemetry.clone();
            let chrome = expected.chrome.clone();
            scope.spawn(move || {
                barrier.wait();
                for _ in 0..25 {
                    store
                        .put(&key, &report, telemetry.as_ref(), chrome.as_deref())
                        .unwrap();
                }
            });
        }
        for _ in 0..readers {
            let store = Arc::clone(&store);
            let barrier = Arc::clone(&barrier);
            let req = req.clone();
            let expected_bytes = expected_bytes.clone();
            scope.spawn(move || {
                barrier.wait();
                for _ in 0..50 {
                    let got = run_cell(Some(&store), &req, &opts).unwrap();
                    assert!(got.cached, "entry vanished or tore mid-overwrite");
                    assert_eq!(result_bytes(&got), expected_bytes);
                }
            });
        }
    });
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn gc_never_evicts_a_pinned_entry() {
    let dir = scratch_dir("gc-pin");
    let store = ResultStore::open(&dir).unwrap();
    let trace = gradcomp_trace(0.02);
    let opts = EngineOpts::default();

    // Three entries under distinct keys.
    let techniques = [Technique::Baseline, Technique::ArcHw, Technique::Phi];
    let mut keys = Vec::new();
    for t in techniques {
        let req = request(&trace, t);
        let digest = trace_digest(&req.trace);
        run_cell(Some(&store), &req, &opts).unwrap();
        keys.push(sim_service::exec::request_key(&req, &digest));
    }
    assert_eq!(store.entry_count(), 3);

    // Pin the middle one (a reader holding it open) and squeeze to zero.
    {
        let _pin = store.pin(keys[1]);
        let gc = store.gc(0).unwrap();
        assert_eq!(gc.pinned_kept, 1, "the pinned entry must be skipped");
        assert_eq!(gc.evicted, 2);
        assert!(store.get(&keys[1]).is_some(), "pinned entry still readable");
        assert!(store.get(&keys[0]).is_none());
        assert!(store.get(&keys[2]).is_none());
    }
    // Pin released: now it can go.
    let gc = store.gc(0).unwrap();
    assert_eq!(gc.evicted, 1);
    assert_eq!(store.entry_count(), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn gc_evicts_oldest_first_and_respects_budget() {
    let dir = scratch_dir("gc-order");
    let store = ResultStore::open(&dir).unwrap();
    let trace = gradcomp_trace(0.02);
    let opts = EngineOpts::default();
    let order = [Technique::Baseline, Technique::ArcHw, Technique::Phi];
    let mut keys = Vec::new();
    for t in order {
        let req = request(&trace, t);
        let digest = trace_digest(&req.trace);
        run_cell(Some(&store), &req, &opts).unwrap();
        keys.push(sim_service::exec::request_key(&req, &digest));
    }
    // Budget that fits roughly the two newest entries.
    let sizes: Vec<u64> = keys
        .iter()
        .map(|k| {
            let obj = dir.join("objects").join(format!("{}.json", k.to_hex()));
            std::fs::metadata(obj).unwrap().len()
        })
        .collect();
    let budget = sizes[1] + sizes[2];
    let gc = store.gc(budget).unwrap();
    assert_eq!(gc.evicted, 1, "only the oldest entry should go");
    assert!(store.get(&keys[0]).is_none(), "oldest evicted");
    assert!(store.get(&keys[1]).is_some());
    assert!(store.get(&keys[2]).is_some());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn gc_keeps_a_reread_entry_over_a_never_read_older_one() {
    let dir = scratch_dir("gc-lru");
    let store = ResultStore::open(&dir).unwrap();
    let trace = gradcomp_trace(0.02);
    let opts = EngineOpts::default();

    // Insert A, then B (B is newer by insertion order).
    let req_a = request(&trace, Technique::Baseline);
    let req_b = request(&trace, Technique::ArcHw);
    run_cell(Some(&store), &req_a, &opts).unwrap();
    run_cell(Some(&store), &req_b, &opts).unwrap();
    let key_a = sim_service::exec::request_key(&req_a, &trace_digest(&req_a.trace));
    let key_b = sim_service::exec::request_key(&req_b, &trace_digest(&req_b.trace));

    // Re-read A: it is now the most recently *used* entry even though
    // it is the older insertion.
    assert!(store.get(&key_a).is_some());

    // Budget that fits exactly one entry: LRU must evict B, not A.
    let size = |k: &sim_service::Digest| {
        let obj = dir.join("objects").join(format!("{}.json", k.to_hex()));
        std::fs::metadata(obj).unwrap().len()
    };
    let budget = size(&key_a).max(size(&key_b));
    let gc = store.gc(budget).unwrap();
    assert_eq!(gc.evicted, 1);
    assert!(
        store.get(&key_a).is_some(),
        "re-read entry must survive the sweep"
    );
    assert!(
        store.get(&key_b).is_none(),
        "never-read entry goes first despite being newer"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fsck_removes_garbage_and_keeps_valid_entries() {
    let dir = scratch_dir("fsck");
    let store = ResultStore::open(&dir).unwrap();
    let trace = gradcomp_trace(0.02);
    let req = request(&trace, Technique::Baseline);
    run_cell(Some(&store), &req, &EngineOpts::default()).unwrap();

    // Plant garbage: a truncated object under a plausible key, and an
    // orphaned temp file.
    let bogus_key = sim_service::blake2s(b"bogus");
    std::fs::write(
        dir.join("objects")
            .join(format!("{}.json", bogus_key.to_hex())),
        "{\"key\": \"truncat",
    )
    .unwrap();
    std::fs::write(dir.join("objects").join("x.json.tmp.99.1"), "junk").unwrap();

    let report = store.fsck().unwrap();
    assert_eq!(report.valid, 1);
    assert_eq!(report.removed, 1);
    assert_eq!(report.temps_swept, 1);
    assert_eq!(store.entry_count(), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A stand-in workload spec: memos accept any serializable spec.
fn memo_spec(id: &str) -> serde::Value {
    serde_json::from_str(&format!("{{\"id\":\"{id}\",\"width\":64}}")).unwrap()
}

fn memo_stages(seed: &[u8]) -> Vec<MemoStage> {
    vec![
        MemoStage {
            name: "forward".to_string(),
            rewritable: false,
            digest: sim_service::blake2s(seed),
        },
        MemoStage {
            name: "gradcomp".to_string(),
            rewritable: true,
            digest: sim_service::blake2s(&[seed, b"/g"].concat()),
        },
    ]
}

fn memo_file(dir: &std::path::Path, spec: &serde::Value) -> PathBuf {
    let key = memo_key(
        arc_workloads::TRACEGEN_VERSION,
        &serde_json::to_string(spec).unwrap(),
    );
    dir.join("traces").join(format!("{}.json", key.to_hex()))
}

#[test]
fn memo_round_trips_and_fails_closed() {
    let dir = scratch_dir("memo");
    let store = ResultStore::open(&dir).unwrap();
    let spec = memo_spec("a");
    assert!(store.get_memo(&spec).is_none(), "absent memo is a miss");
    store.put_memo(&spec, &memo_stages(b"a")).unwrap();
    let memo = store.get_memo(&spec).expect("fresh memo is served");
    assert_eq!(memo.stages, memo_stages(b"a"));
    assert_eq!(memo.spec, spec);
    assert!(store.get_memo(&memo_spec("b")).is_none());

    // A memo whose spec was edited no longer hashes to its key.
    let path = memo_file(&dir, &spec);
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::write(&path, text.replace("\"width\":64", "\"width\":65")).unwrap();
    assert!(store.get_memo(&spec).is_none(), "edited spec is a miss");
    // So is a digest that is not 64 hex digits.
    store.put_memo(&spec, &memo_stages(b"a")).unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    let hex = memo_stages(b"a")[0].digest.to_hex();
    std::fs::write(&path, text.replace(&hex, &hex[..10])).unwrap();
    assert!(store.get_memo(&spec).is_none(), "short digest is a miss");
    // Memo lookups are not result lookups.
    assert_eq!(store.stats().hits + store.stats().misses, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fsck_sweeps_bad_memos_and_memo_temp_files() {
    let dir = scratch_dir("fsck-memo");
    let store = ResultStore::open(&dir).unwrap();
    store
        .put_memo(&memo_spec("good"), &memo_stages(b"good"))
        .unwrap();
    store
        .put_memo(&memo_spec("stale"), &memo_stages(b"stale"))
        .unwrap();
    let stale = memo_file(&dir, &memo_spec("stale"));
    let mut memo: TraceMemo =
        serde_json::from_str(&std::fs::read_to_string(&stale).unwrap()).unwrap();
    memo.tracegen_version = "arc-tracegen-old".to_string();
    std::fs::write(&stale, serde_json::to_string(&memo).unwrap()).unwrap();
    let bogus = sim_service::blake2s(b"bogus-memo");
    std::fs::write(
        dir.join("traces").join(format!("{}.json", bogus.to_hex())),
        "{\"key\": \"trunc",
    )
    .unwrap();
    std::fs::write(dir.join("traces").join("y.json.tmp.7.1"), "junk").unwrap();

    let report = store.fsck().unwrap();
    assert_eq!(report.memos_valid, 1);
    assert_eq!(report.memos_removed, 2);
    assert_eq!(report.temps_swept, 1);
    assert!(store.get_memo(&memo_spec("good")).is_some());
    assert!(!stale.exists());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn gc_evicts_memos_only_after_every_object() {
    let dir = scratch_dir("gc-memo");
    let store = ResultStore::open(&dir).unwrap();
    let trace = gradcomp_trace(0.02);
    let req = request(&trace, Technique::Baseline);
    run_cell(Some(&store), &req, &EngineOpts::default()).unwrap();
    store.put_memo(&memo_spec("m"), &memo_stages(b"m")).unwrap();
    let memo_bytes = std::fs::metadata(memo_file(&dir, &memo_spec("m")))
        .unwrap()
        .len();

    // A budget the memo alone fits: the object goes, the memo stays.
    let gc = store.gc(memo_bytes).unwrap();
    assert_eq!((gc.evicted, gc.memos_evicted), (1, 0));
    assert_eq!(gc.bytes_after, memo_bytes);
    assert!(store.get_memo(&memo_spec("m")).is_some());
    // Nothing fits: the memo goes too.
    let gc = store.gc(0).unwrap();
    assert_eq!((gc.evicted, gc.memos_evicted), (0, 1));
    assert_eq!(gc.bytes_after, 0);
    assert!(store.get_memo(&memo_spec("m")).is_none());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn verify_memos_deletes_what_a_fresh_render_contradicts() {
    let dir = scratch_dir("verify-memo");
    let store = ResultStore::open(&dir).unwrap();
    for id in ["same", "moved", "unrenderable"] {
        store
            .put_memo(&memo_spec(id), &memo_stages(id.as_bytes()))
            .unwrap();
    }
    let report = store
        .verify_memos(|spec| {
            let id = spec.field("id").ok().and_then(|v| match v {
                serde::Value::Str(s) => Some(s.clone()),
                _ => None,
            })?;
            match id.as_str() {
                "same" => Some(memo_stages(b"same")),
                "moved" => Some(memo_stages(b"moved elsewhere")),
                _ => None,
            }
        })
        .unwrap();
    assert_eq!(report.verified, 1);
    assert_eq!(report.mismatched, 2);
    assert!(store.get_memo(&memo_spec("same")).is_some());
    assert!(store.get_memo(&memo_spec("moved")).is_none());
    assert!(store.get_memo(&memo_spec("unrenderable")).is_none());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn daemon_dedup_delivers_identical_bytes_to_concurrent_clients() {
    let dir = scratch_dir("daemon");
    let sock = std::env::temp_dir().join(format!(
        "arc-simserved-test-{}-{}.sock",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let store = Arc::new(ResultStore::open(&dir).unwrap());
    let mut handle = daemon::spawn(&sock, Some(Arc::clone(&store)), 2).unwrap();

    // A cell big enough that 8 barrier-released clients overlap with
    // the first computation.
    let trace = gradcomp_trace(0.15);
    let cell = WireCell {
        config: GpuConfig::tiny(),
        technique: Technique::SwB(arc_core::BalanceThreshold::new(16).unwrap()),
        trace: (*trace).clone(),
        rewrite: true,
        telemetry: Some(TelemetryConfig::every(16)),
        want_chrome: true,
        passes: PassPipeline::empty(),
        stage: None,
    };

    let n = 8;
    let barrier = Arc::new(Barrier::new(n));
    let mut outputs = Vec::new();
    std::thread::scope(|scope| {
        let mut joins = Vec::new();
        for _ in 0..n {
            let barrier = Arc::clone(&barrier);
            let cell = cell.clone();
            let sock = sock.clone();
            joins.push(scope.spawn(move || {
                let client = DaemonClient::connect(&sock).unwrap();
                barrier.wait();
                let r = client.sim(cell).unwrap();
                (
                    serde_json::to_string(&r.report).unwrap(),
                    serde_json::to_string(&r.telemetry).unwrap(),
                    r.chrome.unwrap_or_default(),
                )
            }));
        }
        for j in joins {
            outputs.push(j.join().unwrap());
        }
    });
    for other in &outputs[1..] {
        assert_eq!(
            &outputs[0], other,
            "all clients must receive the same bytes"
        );
    }
    // With a multi-hundred-ms simulation and barrier-released clients,
    // at least one request must have coalesced onto the in-flight run
    // (and the rest hit the now-populated store).
    let coalesced = handle.coalesced();
    let stats = store.stats();
    assert_eq!(
        stats.puts, 1,
        "dedup + store must yield exactly one simulation (coalesced={coalesced}, stats={stats:?})"
    );

    // Batch round-trip: input order restored, all served from the store.
    let client = DaemonClient::connect(&sock).unwrap();
    let batch = client
        .batch(vec![cell.clone(), cell.clone(), cell])
        .unwrap();
    assert_eq!(batch.len(), 3);
    for r in &batch {
        assert!(r.cached, "everything is in the store now");
        assert_eq!(
            serde_json::to_string(&r.report).unwrap(),
            outputs[0].0,
            "batch bytes match the first client's"
        );
    }
    client.shutdown().unwrap();
    handle.wait();
    let _ = std::fs::remove_dir_all(&dir);
}
