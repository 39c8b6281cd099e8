//! Content-addressed on-disk result store.
//!
//! Layout under the store root:
//!
//! ```text
//! <root>/objects/<64-hex-key>.json   one entry per simulated cell
//! <root>/traces/<64-hex-key>.json    one trace-digest memo per workload spec
//! <root>/index.json                  {sim_version, next_seq, entries}
//! ```
//!
//! Every write is atomic: the bytes land in a uniquely named `*.tmp.*`
//! sibling first and are `rename(2)`d into place, so readers (including
//! concurrent processes) only ever observe absent or complete files —
//! never torn ones. Two writers racing on the same key both write valid
//! identical content; whichever rename lands last wins and nothing is
//! corrupted.
//!
//! Reads are paranoid by construction: an entry is served only if its
//! JSON parses, its embedded key matches the file it was addressed by,
//! and its embedded `sim_version` matches the store's. Anything else —
//! truncation, stale version, hand-edited bytes, partial copy — is a
//! *miss*, and the caller recomputes. The store can therefore never make
//! a result wrong, only slower.
//!
//! The index file is a cache of entry sizes and insertion order for
//! `gc`; it is advisory. `fsck` rebuilds it from the objects directory
//! and deletes undecodable objects.
//!
//! A trace-digest memo ([`TraceMemo`]) maps a workload spec to the
//! per-stage trace digests of the frame it renders, so a caller can key
//! its result lookups without rendering. Memos follow the same rules —
//! atomic writes, paranoid reads — and are checked against
//! `arc_workloads::TRACEGEN_VERSION` instead of `SIM_VERSION`. They are
//! not in the index: `gc` evicts them only once evicting objects alone
//! cannot meet its budget, and losing one costs a re-render, never a
//! wrong result.

use std::collections::HashMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use gpu_sim::telemetry::KernelTelemetry;
use gpu_sim::KernelReport;
use serde::{Deserialize, Serialize, Value};

use crate::hash::Digest;
use crate::key::memo_key;

/// The value stored per key: the full observable output of one
/// simulation cell.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct StoredValue {
    /// Hex of the key this value was stored under (integrity check).
    pub key: String,
    /// `gpu_sim::SIM_VERSION` at production time.
    pub sim_version: String,
    /// The kernel report.
    pub report: KernelReport,
    /// Telemetry, when the keyed request sampled it.
    pub telemetry: Option<KernelTelemetry>,
    /// Pre-rendered `chrome://tracing` JSON, when it was requested at
    /// production time. Derivable from `telemetry`, so optional.
    pub chrome: Option<String>,
}

/// One stage of a memoized frame: what keys the stage's store lookups.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemoStage {
    /// Stage name (joins the store key for non-legacy stages).
    pub name: String,
    /// Whether the technique's trace rewrite applies to the stage.
    pub rewritable: bool,
    /// [`crate::key::trace_digest`] of the stage's trace.
    pub digest: Digest,
}

/// A trace-digest memo entry: the stages of the frame one workload
/// spec renders to, under one trace-generation version. Stored at
/// `traces/<hex of memo_key(tracegen_version, spec JSON)>.json`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TraceMemo {
    /// Hex of the memo key (integrity check, like [`StoredValue::key`]).
    pub key: String,
    /// `arc_workloads::TRACEGEN_VERSION` at production time.
    pub tracegen_version: String,
    /// The exact workload spec that was built, as JSON.
    pub spec: Value,
    /// The frame's stages, in pipeline order.
    pub stages: Vec<MemoStage>,
}

/// One advisory index row.
#[derive(Clone, Debug, Serialize, Deserialize)]
struct IndexEntry {
    key: String,
    bytes: u64,
    seq: u64,
    /// Recency stamp of the most recent successful `get`, drawn from
    /// the same monotonic counter as `seq` (0 = never read). Defaults
    /// so index files written before hit tracking still parse; their
    /// entries age by insertion order until re-read.
    #[serde(default)]
    last_hit: u64,
}

impl IndexEntry {
    /// Eviction ordering stamp: an entry is as recent as its last read,
    /// or its insertion when it was never read.
    fn recency(&self) -> u64 {
        self.seq.max(self.last_hit)
    }
}

#[derive(Debug, Serialize, Deserialize)]
struct IndexFile {
    sim_version: String,
    next_seq: u64,
    entries: Vec<IndexEntry>,
}

/// Hit/miss/insert counters for one store handle.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StoreStats {
    /// Successful `get`s.
    pub hits: u64,
    /// `get`s that found nothing servable (absent, torn, or stale).
    pub misses: u64,
    /// Successful `put`s.
    pub puts: u64,
}

/// Outcome of [`ResultStore::fsck`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FsckReport {
    /// Valid entries kept.
    pub valid: u64,
    /// Undecodable / mismatched / stale objects removed.
    pub removed: u64,
    /// Orphaned temp files swept (objects and memos).
    pub temps_swept: u64,
    /// Valid trace-digest memos kept.
    pub memos_valid: u64,
    /// Undecodable / mismatched / stale memos removed.
    pub memos_removed: u64,
}

/// Outcome of [`ResultStore::verify_memos`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct VerifyReport {
    /// Memos whose stages a fresh render reproduced.
    pub verified: u64,
    /// Memos a fresh render contradicted (or could not render); removed.
    pub mismatched: u64,
}

/// Outcome of [`ResultStore::gc`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Entries evicted (oldest first).
    pub evicted: u64,
    /// Entries skipped because a reader had them pinned.
    pub pinned_kept: u64,
    /// Trace-digest memos evicted (only once no object is left to
    /// evict).
    pub memos_evicted: u64,
    /// Total object and memo bytes remaining after the sweep.
    pub bytes_after: u64,
}

/// A content-addressed, crash-safe result store rooted at a directory.
pub struct ResultStore {
    root: PathBuf,
    sim_version: String,
    tracegen_version: String,
    tmp_seq: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    puts: AtomicU64,
    /// Keys currently being read (or externally pinned); `gc` will not
    /// evict them.
    pins: Mutex<HashMap<Digest, u64>>,
    /// Serializes index rewrites within this process.
    index_lock: Mutex<()>,
    /// Hits observed since the last index rewrite: hex key → in-process
    /// hit order. Folded into the index (as `last_hit` stamps) by the
    /// next `put`/`gc`/`fsck` under `index_lock`, so the hot read path
    /// never pays an index rewrite — which would wreck warm-store
    /// latency for nothing, since recency only matters when `gc` runs.
    pending_hits: Mutex<HashMap<String, u64>>,
    /// Orders entries within `pending_hits`.
    hit_seq: AtomicU64,
}

impl ResultStore {
    /// Opens (creating if needed) a store rooted at `root`, keyed for
    /// the current [`gpu_sim::SIM_VERSION`].
    pub fn open(root: impl Into<PathBuf>) -> io::Result<ResultStore> {
        Self::open_versioned(root, gpu_sim::SIM_VERSION)
    }

    /// Opens a store pinned to an explicit version string (tests use
    /// this to simulate stale stores). Memos are keyed for the current
    /// `arc_workloads::TRACEGEN_VERSION`.
    pub fn open_versioned(root: impl Into<PathBuf>, sim_version: &str) -> io::Result<ResultStore> {
        let root = root.into();
        fs::create_dir_all(root.join("objects"))?;
        fs::create_dir_all(root.join("traces"))?;
        Ok(ResultStore {
            root,
            sim_version: sim_version.to_string(),
            tracegen_version: arc_workloads::TRACEGEN_VERSION.to_string(),
            tmp_seq: AtomicU64::new(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            puts: AtomicU64::new(0),
            pins: Mutex::new(HashMap::new()),
            index_lock: Mutex::new(()),
            pending_hits: Mutex::new(HashMap::new()),
            hit_seq: AtomicU64::new(1),
        })
    }

    /// The store root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The version string entries must carry to be served.
    pub fn sim_version(&self) -> &str {
        &self.sim_version
    }

    fn object_path(&self, key: &Digest) -> PathBuf {
        self.root
            .join("objects")
            .join(format!("{}.json", key.to_hex()))
    }

    fn memo_path(&self, key: &Digest) -> PathBuf {
        self.root
            .join("traces")
            .join(format!("{}.json", key.to_hex()))
    }

    fn index_path(&self) -> PathBuf {
        self.root.join("index.json")
    }

    /// Write `bytes` to `path` atomically (unique temp file + rename).
    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let tag = self.tmp_seq.fetch_add(1, Ordering::Relaxed);
        let tmp = path.with_extension(format!("tmp.{}.{}", std::process::id(), tag));
        fs::write(&tmp, bytes)?;
        match fs::rename(&tmp, path) {
            Ok(()) => Ok(()),
            Err(e) => {
                let _ = fs::remove_file(&tmp);
                Err(e)
            }
        }
    }

    /// Pin `key` against eviction for the guard's lifetime.
    pub fn pin(&self, key: Digest) -> PinGuard<'_> {
        *self.pins.lock().unwrap().entry(key).or_insert(0) += 1;
        PinGuard { store: self, key }
    }

    fn is_pinned(&self, key: &Digest) -> bool {
        self.pins.lock().unwrap().contains_key(key)
    }

    /// Validate raw object bytes against the key and store version.
    fn decode(&self, key: &Digest, bytes: &str) -> Option<StoredValue> {
        let value: StoredValue = serde_json::from_str(bytes).ok()?;
        if value.key != key.to_hex() || value.sim_version != self.sim_version {
            return None;
        }
        Some(value)
    }

    /// Look up `key`. Any defect in the stored entry — missing file,
    /// truncated or unparsable JSON, key/version mismatch — is reported
    /// as a miss (`None`); the store never errors a read.
    pub fn get(&self, key: &Digest) -> Option<StoredValue> {
        // Pin for the duration of the read so a concurrent `gc` cannot
        // unlink the object mid-read.
        let _pin = self.pin(*key);
        let found = fs::read_to_string(self.object_path(key))
            .ok()
            .and_then(|bytes| self.decode(key, &bytes));
        match &found {
            Some(_) => {
                // Record the read for LRU eviction; inserting again
                // overwrites the order stamp, so only the latest read
                // of a key counts.
                let order = self.hit_seq.fetch_add(1, Ordering::Relaxed);
                self.pending_hits
                    .lock()
                    .unwrap()
                    .insert(key.to_hex(), order);
                self.hits.fetch_add(1, Ordering::Relaxed)
            }
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Insert `value` under `key`. The embedded key/version fields are
    /// overwritten to match, so callers only supply the payload.
    pub fn put(
        &self,
        key: &Digest,
        report: &KernelReport,
        telemetry: Option<&KernelTelemetry>,
        chrome: Option<&str>,
    ) -> io::Result<()> {
        let value = StoredValue {
            key: key.to_hex(),
            sim_version: self.sim_version.clone(),
            report: report.clone(),
            telemetry: telemetry.cloned(),
            chrome: chrome.map(str::to_string),
        };
        let json = serde_json::to_string(&value)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        self.write_atomic(&self.object_path(key), json.as_bytes())?;
        self.puts.fetch_add(1, Ordering::Relaxed);
        self.index_add(key, json.len() as u64)?;
        Ok(())
    }

    /// The memo for `spec`, if the store holds a servable one. Like
    /// [`ResultStore::get`], any defect — missing file, unparsable
    /// JSON, an embedded key or `tracegen_version` that does not match,
    /// a spec that does not hash to the key — is a miss. Memo lookups
    /// do not count in [`StoreStats`], which counts result lookups.
    pub fn get_memo<S: Serialize + ?Sized>(&self, spec: &S) -> Option<TraceMemo> {
        let spec_json = serde_json::to_string(spec).ok()?;
        self.read_memo(&memo_key(&self.tracegen_version, &spec_json))
    }

    /// Records the stages `spec` renders to under the store's
    /// trace-generation version.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the memo cannot be written.
    pub fn put_memo<S: Serialize + ?Sized>(
        &self,
        spec: &S,
        stages: &[MemoStage],
    ) -> io::Result<()> {
        let to_io =
            |e: serde_json::Error| io::Error::new(io::ErrorKind::InvalidData, e.to_string());
        let spec_json = serde_json::to_string(spec).map_err(to_io)?;
        let key = memo_key(&self.tracegen_version, &spec_json);
        let memo = TraceMemo {
            key: key.to_hex(),
            tracegen_version: self.tracegen_version.clone(),
            spec: serde_json::from_str(&spec_json).map_err(to_io)?,
            stages: stages.to_vec(),
        };
        let json = serde_json::to_string(&memo).map_err(to_io)?;
        self.write_atomic(&self.memo_path(&key), json.as_bytes())
    }

    /// The memo stored under `key`, validated against that key and the
    /// store's trace-generation version.
    fn read_memo(&self, key: &Digest) -> Option<TraceMemo> {
        let bytes = fs::read_to_string(self.memo_path(key)).ok()?;
        let memo: TraceMemo = serde_json::from_str(&bytes).ok()?;
        let spec_json = serde_json::to_string(&memo.spec).ok()?;
        let valid = memo.key == key.to_hex()
            && memo.tracegen_version == self.tracegen_version
            && memo_key(&memo.tracegen_version, &spec_json) == *key
            && !memo.stages.is_empty();
        valid.then_some(memo)
    }

    /// Hex keys (with sizes) of every memo file on disk.
    fn scan_memos(&self) -> Vec<(Digest, u64)> {
        scan_dir(&self.root.join("traces"))
    }

    /// Re-derives every servable memo's stages with `render` (given
    /// the memo's spec JSON; `None` when the spec cannot be rendered)
    /// and deletes each memo the fresh stages contradict. Undecodable
    /// memos are left to [`ResultStore::fsck`].
    ///
    /// # Errors
    ///
    /// Returns the I/O error if a contradicted memo cannot be removed.
    pub fn verify_memos(
        &self,
        render: impl Fn(&Value) -> Option<Vec<MemoStage>>,
    ) -> io::Result<VerifyReport> {
        let mut report = VerifyReport::default();
        for (key, _) in self.scan_memos() {
            let Some(memo) = self.read_memo(&key) else {
                continue;
            };
            if render(&memo.spec).as_deref() == Some(memo.stages.as_slice()) {
                report.verified += 1;
            } else {
                fs::remove_file(self.memo_path(&key))?;
                report.mismatched += 1;
            }
        }
        Ok(report)
    }

    /// Hit/miss/put counters for this handle.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            puts: self.puts.load(Ordering::Relaxed),
        }
    }

    /// Number of object files currently on disk.
    pub fn entry_count(&self) -> u64 {
        self.scan_objects().len() as u64
    }

    fn load_index(&self) -> IndexFile {
        let fallback = IndexFile {
            sim_version: self.sim_version.clone(),
            next_seq: 1,
            entries: Vec::new(),
        };
        let Ok(bytes) = fs::read_to_string(self.index_path()) else {
            return fallback;
        };
        match serde_json::from_str::<IndexFile>(&bytes) {
            Ok(idx) if idx.sim_version == self.sim_version => idx,
            _ => fallback,
        }
    }

    fn store_index(&self, idx: &IndexFile) -> io::Result<()> {
        let json = serde_json::to_string(idx)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        self.write_atomic(&self.index_path(), json.as_bytes())
    }

    /// Fold hits recorded since the last index rewrite into `entries`,
    /// stamping `last_hit` from `next_seq` in observed read order.
    /// Caller must hold `index_lock`. Hits on keys the index does not
    /// know (stale index, foreign object) are dropped — they re-arm on
    /// the next read.
    fn fold_pending_hits(&self, entries: &mut [IndexEntry], next_seq: &mut u64) {
        let pending = std::mem::take(&mut *self.pending_hits.lock().unwrap());
        if pending.is_empty() {
            return;
        }
        let mut hits: Vec<(String, u64)> = pending.into_iter().collect();
        hits.sort_by_key(|&(_, order)| order);
        for (hex, _) in hits {
            if let Some(e) = entries.iter_mut().find(|e| e.key == hex) {
                e.last_hit = *next_seq;
                *next_seq += 1;
            }
        }
    }

    fn index_add(&self, key: &Digest, bytes: u64) -> io::Result<()> {
        let _guard = self.index_lock.lock().unwrap();
        let mut idx = self.load_index();
        self.fold_pending_hits(&mut idx.entries, &mut idx.next_seq);
        let hex = key.to_hex();
        let seq = idx.next_seq;
        idx.next_seq += 1;
        match idx.entries.iter_mut().find(|e| e.key == hex) {
            // Re-insert refreshes the size but keeps the original age:
            // identical content, no reason to treat it as newer.
            Some(e) => e.bytes = bytes,
            None => idx.entries.push(IndexEntry {
                key: hex,
                bytes,
                seq,
                last_hit: 0,
            }),
        }
        self.store_index(&idx)
    }

    /// Hex keys (with sizes) of every object file on disk.
    fn scan_objects(&self) -> Vec<(Digest, u64)> {
        scan_dir(&self.root.join("objects"))
    }

    /// Verify every object on disk; remove undecodable/stale ones and
    /// rebuild the index (preserving known insertion order).
    pub fn fsck(&self) -> io::Result<FsckReport> {
        let _guard = self.index_lock.lock().unwrap();
        let mut report = FsckReport::default();

        // Sweep orphaned temp files first (crashed writers).
        for sub in ["objects", "traces"] {
            let Ok(dir) = fs::read_dir(self.root.join(sub)) else {
                continue;
            };
            for entry in dir.flatten() {
                let name = entry.file_name();
                let Some(name) = name.to_str() else { continue };
                if name.contains(".tmp.") {
                    let _ = fs::remove_file(entry.path());
                    report.temps_swept += 1;
                }
            }
        }

        for (key, _) in self.scan_memos() {
            if self.read_memo(&key).is_some() {
                report.memos_valid += 1;
            } else {
                let _ = fs::remove_file(self.memo_path(&key));
                report.memos_removed += 1;
            }
        }

        let old = self.load_index();
        let old_entry: HashMap<&str, (u64, u64)> = old
            .entries
            .iter()
            .map(|e| (e.key.as_str(), (e.seq, e.last_hit)))
            .collect();
        let mut entries = Vec::new();
        let mut next_seq = old.next_seq;
        for (key, _) in self.scan_objects() {
            let path = self.object_path(&key);
            let ok = fs::read_to_string(&path)
                .ok()
                .and_then(|bytes| self.decode(&key, &bytes));
            match ok {
                Some(_) => {
                    let hex = key.to_hex();
                    let bytes = fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
                    let (seq, last_hit) =
                        old_entry.get(hex.as_str()).copied().unwrap_or_else(|| {
                            let s = next_seq;
                            next_seq += 1;
                            (s, 0)
                        });
                    entries.push(IndexEntry {
                        key: hex,
                        bytes,
                        seq,
                        last_hit,
                    });
                    report.valid += 1;
                }
                None => {
                    let _ = fs::remove_file(&path);
                    report.removed += 1;
                }
            }
        }
        entries.sort_by_key(|e| e.seq);
        self.fold_pending_hits(&mut entries, &mut next_seq);
        self.store_index(&IndexFile {
            sim_version: self.sim_version.clone(),
            next_seq,
            entries,
        })?;
        Ok(report)
    }

    /// Evict least-recently-used entries until total object and memo
    /// bytes fit in `max_bytes`. "Used" means read (`get`) or inserted,
    /// whichever came later — so a hot entry survives a sweep even when
    /// it was written long before colder, newer ones. Pinned entries
    /// (mid-read) are never evicted — they are skipped this pass and
    /// remain candidates for the next one. Memos go only when evicting
    /// every unpinned object still leaves the store over budget, oldest
    /// write first: each is tiny, and losing one only costs a
    /// re-render.
    pub fn gc(&self, max_bytes: u64) -> io::Result<GcReport> {
        let _guard = self.index_lock.lock().unwrap();
        let mut report = GcReport::default();

        // Refresh the index from disk so cross-process writes are seen.
        let old = self.load_index();
        let old_entry: HashMap<&str, (u64, u64)> = old
            .entries
            .iter()
            .map(|e| (e.key.as_str(), (e.seq, e.last_hit)))
            .collect();
        let mut next_seq = old.next_seq;
        let mut live: Vec<(Digest, IndexEntry)> = self
            .scan_objects()
            .into_iter()
            .map(|(key, bytes)| {
                let hex = key.to_hex();
                let (seq, last_hit) = old_entry.get(hex.as_str()).copied().unwrap_or_else(|| {
                    let s = next_seq;
                    next_seq += 1;
                    (s, 0)
                });
                (
                    key,
                    IndexEntry {
                        key: hex,
                        bytes,
                        seq,
                        last_hit,
                    },
                )
            })
            .collect();
        {
            let mut entries: Vec<IndexEntry> = live.iter().map(|(_, e)| e.clone()).collect();
            self.fold_pending_hits(&mut entries, &mut next_seq);
            for ((_, live), folded) in live.iter_mut().zip(entries) {
                *live = folded;
            }
        }
        live.sort_by_key(|(_, e)| e.recency());

        let mut memos: Vec<(std::time::SystemTime, Digest, u64)> = self
            .scan_memos()
            .into_iter()
            .map(|(key, bytes)| {
                let written = fs::metadata(self.memo_path(&key))
                    .and_then(|m| m.modified())
                    .unwrap_or(std::time::UNIX_EPOCH);
                (written, key, bytes)
            })
            .collect();
        memos.sort();

        let mut total: u64 = live.iter().map(|(_, e)| e.bytes).sum::<u64>()
            + memos.iter().map(|(_, _, b)| b).sum::<u64>();
        let mut kept = Vec::new();
        for (key, entry) in live {
            if total <= max_bytes {
                kept.push(entry);
                continue;
            }
            if self.is_pinned(&key) {
                report.pinned_kept += 1;
                kept.push(entry);
                continue;
            }
            let _ = fs::remove_file(self.object_path(&key));
            report.evicted += 1;
            total -= entry.bytes;
        }
        for (_, key, bytes) in memos {
            if total <= max_bytes {
                break;
            }
            let _ = fs::remove_file(self.memo_path(&key));
            report.memos_evicted += 1;
            total -= bytes;
        }
        report.bytes_after = total;
        kept.sort_by_key(|e| e.seq);
        self.store_index(&IndexFile {
            sim_version: self.sim_version.clone(),
            next_seq,
            entries: kept,
        })?;
        Ok(report)
    }
}

/// Keys (with sizes) of every `<64-hex>.json` file in `dir`, sorted.
fn scan_dir(dir: &Path) -> Vec<(Digest, u64)> {
    let mut out = Vec::new();
    let Ok(entries) = fs::read_dir(dir) else {
        return out;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(hex) = name.strip_suffix(".json") else {
            continue;
        };
        let Some(key) = Digest::from_hex(hex) else {
            continue;
        };
        let size = entry.metadata().map(|m| m.len()).unwrap_or(0);
        out.push((key, size));
    }
    out.sort_by_key(|(k, _)| *k);
    out
}

/// Keeps one key safe from `gc` while alive. Returned by
/// [`ResultStore::pin`]; also taken internally for the span of every
/// `get`.
pub struct PinGuard<'a> {
    store: &'a ResultStore,
    key: Digest,
}

impl Drop for PinGuard<'_> {
    fn drop(&mut self) {
        let mut pins = self.store.pins.lock().unwrap();
        if let Some(count) = pins.get_mut(&self.key) {
            *count -= 1;
            if *count == 0 {
                pins.remove(&self.key);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The index file's JSON, compact and pretty, pinned to the bytes
    /// written before the JSON writer was rewritten.
    #[test]
    fn index_file_bytes_are_pinned() {
        let entry = |key: &str, bytes, seq, last_hit| IndexEntry {
            key: key.to_string(),
            bytes,
            seq,
            last_hit,
        };
        let idx = IndexFile {
            sim_version: "v\"1".to_string(),
            next_seq: 3,
            entries: vec![entry("ab", 10, 1, 0), entry("cd", u64::MAX, 2, 7)],
        };
        let empty = IndexFile {
            sim_version: String::new(),
            next_seq: 0,
            entries: Vec::new(),
        };
        let cases = [
            (
                &idx,
                "{\"sim_version\":\"v\\\"1\",\"next_seq\":3,\"entries\":[{\"key\":\"ab\",\"bytes\":10,\"seq\":1,\"last_hit\":0},{\"key\":\"cd\",\"bytes\":18446744073709551615,\"seq\":2,\"last_hit\":7}]}",
                "{\n  \"sim_version\": \"v\\\"1\",\n  \"next_seq\": 3,\n  \"entries\": [\n    {\n      \"key\": \"ab\",\n      \"bytes\": 10,\n      \"seq\": 1,\n      \"last_hit\": 0\n    },\n    {\n      \"key\": \"cd\",\n      \"bytes\": 18446744073709551615,\n      \"seq\": 2,\n      \"last_hit\": 7\n    }\n  ]\n}",
            ),
            (
                &empty,
                "{\"sim_version\":\"\",\"next_seq\":0,\"entries\":[]}",
                "{\n  \"sim_version\": \"\",\n  \"next_seq\": 0,\n  \"entries\": []\n}",
            ),
        ];
        for (value, compact, pretty) in cases {
            assert_eq!(serde_json::to_string(value).unwrap(), compact);
            assert_eq!(serde_json::to_string_pretty(value).unwrap(), pretty);
            // Writing the parsed tree reproduces the direct write.
            let tree: serde::Value = serde_json::from_str(compact).unwrap();
            assert_eq!(serde_json::to_string(&tree).unwrap(), compact);
        }
    }
}
