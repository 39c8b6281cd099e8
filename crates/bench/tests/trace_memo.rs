//! The store's trace-digest memo fails closed: a defective memo — or
//! a memo whose cells the store no longer holds — costs a re-render,
//! never a wrong report. Each case fills a store, damages it, and runs
//! a fresh store-backed harness over the same cells; its reports must
//! be byte-identical to a store-less run, and it must render exactly
//! the workloads it has to.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use arc_bench::harness::Cell;
use arc_bench::Harness;
use arc_workloads::{Technique, TRACEGEN_VERSION};
use gpu_sim::{GpuConfig, SIM_VERSION};
use sim_service::{memo_key, store_key_staged, Digest, ResultStore, TraceMemo};

const SCALE: f64 = 0.2;

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn scratch_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "arc-trace-memo-{tag}-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn cells(ids: &[&str]) -> Vec<Cell> {
    let cfg = GpuConfig::tiny();
    ids.iter()
        .flat_map(|id| {
            [Technique::Baseline, Technique::ArcHw].map(|t| (cfg.clone(), t, id.to_string()))
        })
        .collect()
}

fn spec_json(id: &str) -> String {
    let spec = arc_workloads::spec(id).unwrap().scaled(SCALE);
    serde_json::to_string(&spec).unwrap()
}

fn memo_path(dir: &Path, id: &str) -> PathBuf {
    let key = memo_key(TRACEGEN_VERSION, &spec_json(id));
    dir.join("traces").join(format!("{}.json", key.to_hex()))
}

/// Every report of `cells` (the rewritable stage, then the full
/// frame), as JSON: the bytes a figure is computed from.
fn report_bytes(h: &mut Harness, cells: &[Cell]) -> Vec<String> {
    h.gradcomp_batch(cells);
    h.iteration_batch(cells);
    let mut out = Vec::new();
    for (cfg, t, id) in cells {
        out.push(serde_json::to_string(&h.gradcomp(cfg, *t, id)).unwrap());
        out.push(serde_json::to_string(&h.iteration(cfg, *t, id)).unwrap());
    }
    out
}

fn store_harness(dir: &Path) -> Harness {
    let mut h = Harness::new(SCALE);
    h.set_store_dir(dir.to_str().unwrap()).unwrap();
    h
}

/// Fills a fresh store with `cells` and checks the fill against a
/// store-less run; returns the store-less reports.
fn filled_store(dir: &Path, cells: &[Cell]) -> Vec<String> {
    let reference = report_bytes(&mut Harness::new(SCALE), cells);
    let mut cold = store_harness(dir);
    assert_eq!(report_bytes(&mut cold, cells), reference);
    let mut warm = store_harness(dir);
    assert_eq!(report_bytes(&mut warm, cells), reference);
    assert_eq!(warm.frames_built(), 0, "an intact memo serves every digest");
    reference
}

/// Damages `id`'s memo with `damage`, then checks that a fresh harness
/// renders that one workload, simulates nothing, reproduces the
/// reference bytes and leaves a servable memo behind.
fn damaged_memo_falls_back_to_render(tag: &str, damage: impl Fn(&Path)) {
    let dir = scratch_dir(tag);
    let cells = cells(&["PS-SS"]);
    let reference = filled_store(&dir, &cells);
    let path = memo_path(&dir, "PS-SS");
    damage(&path);

    let mut h = store_harness(&dir);
    assert_eq!(report_bytes(&mut h, &cells), reference);
    assert_eq!(h.frames_built(), 1, "the damaged memo's workload renders");
    let stats = h.store_stats().unwrap();
    assert_eq!(stats.misses, 0, "results were intact: nothing simulates");
    assert_eq!(stats.puts, 0);

    let spec = arc_workloads::spec("PS-SS").unwrap().scaled(SCALE);
    let store = ResultStore::open(&dir).unwrap();
    assert!(
        store.get_memo(&spec).is_some(),
        "the render rewrote the memo"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

fn rewrite_memo(path: &Path, edit: impl Fn(&mut TraceMemo)) {
    let mut memo: TraceMemo =
        serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
    edit(&mut memo);
    std::fs::write(path, serde_json::to_string(&memo).unwrap()).unwrap();
}

#[test]
fn truncated_memo_falls_back_to_render() {
    damaged_memo_falls_back_to_render("truncated", |path| {
        let bytes = std::fs::read(path).unwrap();
        std::fs::write(path, &bytes[..bytes.len() / 2]).unwrap();
    });
}

#[test]
fn stale_version_memo_falls_back_to_render() {
    damaged_memo_falls_back_to_render("stale", |path| {
        rewrite_memo(path, |m| {
            m.tracegen_version = "arc-tracegen-stale".to_string()
        });
    });
}

#[test]
fn wrong_key_memo_falls_back_to_render() {
    damaged_memo_falls_back_to_render("wrong-key", |path| {
        rewrite_memo(path, |m| {
            m.key = sim_service::blake2s(b"elsewhere").to_hex()
        });
    });
}

#[test]
fn memo_with_a_wrong_digest_is_corrected_by_the_render() {
    let dir = scratch_dir("wrong-digest");
    let cells = cells(&["PS-SS"]);
    let reference = filled_store(&dir, &cells);
    let path = memo_path(&dir, "PS-SS");
    let right = ResultStore::open(&dir)
        .unwrap()
        .get_memo(&arc_workloads::spec("PS-SS").unwrap().scaled(SCALE))
        .unwrap();
    assert_eq!(right.stages[0].name, "forward");
    // A well-formed memo that lies about the forward stage's digest.
    rewrite_memo(&path, |m| {
        m.stages[0].digest = sim_service::blake2s(b"wrong")
    });

    let mut h = store_harness(&dir);
    assert_eq!(report_bytes(&mut h, &cells), reference);
    assert_eq!(h.frames_built(), 1, "the missed lookups force a render");
    let stats = h.store_stats().unwrap();
    assert_eq!(
        stats.misses, 2,
        "each technique path's forward kernel missed under the wrong digest"
    );
    assert_eq!(stats.puts, 0, "the fresh digest finds the stored results");
    let spec = arc_workloads::spec("PS-SS").unwrap().scaled(SCALE);
    let memo = ResultStore::open(&dir).unwrap().get_memo(&spec).unwrap();
    assert_eq!(memo.stages, right.stages, "the render rewrote the memo");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn memo_hit_with_an_evicted_result_renders_only_that_workload() {
    let dir = scratch_dir("evicted");
    let cells = cells(&["PS-SS", "3D-LE"]);
    let reference = filled_store(&dir, &cells);

    // Evict one result of PS-SS: its Baseline gradcomp kernel.
    let spec = arc_workloads::spec("PS-SS").unwrap().scaled(SCALE);
    let memo = ResultStore::open(&dir).unwrap().get_memo(&spec).unwrap();
    let gradcomp = memo.stages.iter().find(|s| s.rewritable).unwrap();
    let key: Digest = store_key_staged(
        SIM_VERSION,
        &GpuConfig::tiny(),
        Technique::Baseline,
        true,
        None,
        &gradcomp.digest,
        &arc_core::passes::PassPipeline::empty(),
        Some(&gradcomp.name),
    );
    let object = dir.join("objects").join(format!("{}.json", key.to_hex()));
    std::fs::remove_file(&object).expect("the evicted result was stored");

    let mut h = store_harness(&dir);
    assert_eq!(report_bytes(&mut h, &cells), reference);
    assert_eq!(h.frames_built(), 1, "only PS-SS renders");
    let stats = h.store_stats().unwrap();
    assert_eq!(stats.misses, 1, "one kernel lookup missed");
    assert_eq!(stats.puts, 1, "and only it simulated");
    assert!(object.exists(), "the result is back in the store");
    let _ = std::fs::remove_dir_all(&dir);
}
