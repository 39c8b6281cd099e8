//! The `simserved` daemon: a long-lived simulation server on a Unix
//! socket.
//!
//! Per connection, a thread reads request frames and answers them.
//! Simulation work flows through two shared mechanisms:
//!
//! * a **job semaphore** bounding concurrently running simulations
//!   across *all* connections to the configured job count (the same
//!   knob `gpu_sim::par_map` uses for in-process fan-out);
//! * an **in-flight table** deduplicating identical requests: when two
//!   clients (or one client's batch twice) ask for the same store key
//!   while the first computation is still running, the later arrivals
//!   block on the first one's slot and receive a clone of the same
//!   result — one simulation, N answers, all byte-identical. The table
//!   fails closed: a leader that panics hands its followers an error
//!   and frees the slot, so nobody waits forever.
//!
//! Batches stream: each cell's frame is written as soon as that cell
//! finishes (tagged with its index), so a client can overlap its own
//! post-processing with the daemon's remaining work.

use std::collections::HashMap;
use std::io;
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

use crate::exec::{run_cell_with_digest, EngineOpts, SimRequest, SimResult};
use crate::hash::{Blake2s, Digest};
use crate::key::{seg, trace_digest};
use crate::proto::{read_frame, write_frame, WireCell, WireRequest, WireResponse, WireResult};
use crate::store::ResultStore;

/// Counting semaphore (std has none): bounds concurrent simulations.
struct Semaphore {
    slots: Mutex<usize>,
    cv: Condvar,
}

impl Semaphore {
    fn new(slots: usize) -> Self {
        Semaphore {
            slots: Mutex::new(slots.max(1)),
            cv: Condvar::new(),
        }
    }

    fn acquire(&self) -> SemGuard<'_> {
        let mut slots = self.slots.lock().unwrap();
        while *slots == 0 {
            slots = self.cv.wait(slots).unwrap();
        }
        *slots -= 1;
        SemGuard { sem: self }
    }
}

struct SemGuard<'a> {
    sem: &'a Semaphore,
}

impl Drop for SemGuard<'_> {
    fn drop(&mut self) {
        *self.sem.slots.lock().unwrap() += 1;
        self.sem.cv.notify_one();
    }
}

/// One deduplicated computation slot.
struct Inflight {
    done: Mutex<Option<Result<SimResult, String>>>,
    cv: Condvar,
}

impl Inflight {
    fn new() -> Self {
        Inflight {
            done: Mutex::new(None),
            cv: Condvar::new(),
        }
    }

    fn wait(&self) -> Result<SimResult, String> {
        let mut done = lock(&self.done);
        while done.is_none() {
            done = self.cv.wait(done).unwrap_or_else(|e| e.into_inner());
        }
        done.clone().unwrap()
    }

    fn fulfill(&self, result: Result<SimResult, String>) {
        *lock(&self.done) = Some(result);
        self.cv.notify_all();
    }
}

/// Locks `m`, ignoring poisoning: every critical section here only
/// moves values in or out, so a panic elsewhere cannot leave the data
/// half-updated — and the leader's drop guard must not panic again
/// while unwinding.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Locks a connection's writer. A poisoned lock means a thread panicked
/// while writing, so the stream may end mid-frame: the connection ends
/// with this error instead of the panic spreading to its other threads.
fn lock_writer<W>(writer: &Mutex<W>) -> io::Result<MutexGuard<'_, W>> {
    writer
        .lock()
        .map_err(|_| io::Error::other("connection writer poisoned by a panicked writer"))
}

/// The in-flight table: one slot per distinct request being computed.
#[derive(Default)]
struct Coalescer {
    inflight: Mutex<HashMap<Digest, Arc<Inflight>>>,
    /// Dedup diagnostics: requests that piggybacked on an in-flight
    /// computation instead of starting their own.
    coalesced: AtomicUsize,
}

/// A leader's hold on its slot. Dropping it — normally, or while the
/// leader unwinds — removes the slot from the table and fills it: with
/// the leader's result if one was set, with an error otherwise.
struct LeaderGuard<'a> {
    table: &'a Coalescer,
    key: Digest,
    slot: Arc<Inflight>,
    result: Option<Result<SimResult, String>>,
}

impl Drop for LeaderGuard<'_> {
    fn drop(&mut self) {
        lock(&self.table.inflight).remove(&self.key);
        let result = self
            .result
            .take()
            .unwrap_or_else(|| Err("coalesced leader panicked".to_string()));
        self.slot.fulfill(result);
    }
}

impl Coalescer {
    /// Runs `compute` for `key` unless an identical request is already
    /// in flight, in which case waits for and clones that one's result.
    /// A panicking `compute` becomes an error for the leader and every
    /// follower.
    fn run(
        &self,
        key: Digest,
        compute: impl FnOnce() -> Result<SimResult, String>,
    ) -> Result<SimResult, String> {
        let slot = {
            let mut inflight = lock(&self.inflight);
            if let Some(slot) = inflight.get(&key) {
                let slot = Arc::clone(slot);
                drop(inflight);
                self.coalesced.fetch_add(1, Ordering::Relaxed);
                return slot.wait();
            }
            let slot = Arc::new(Inflight::new());
            inflight.insert(key, Arc::clone(&slot));
            slot
        };
        let mut guard = LeaderGuard {
            table: self,
            key,
            slot,
            result: None,
        };
        let result = catch_unwind(AssertUnwindSafe(compute)).unwrap_or_else(|panic| {
            let msg = panic
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| panic.downcast_ref::<String>().map(String::as_str))
                .unwrap_or("non-string panic payload");
            Err(format!("simulation panicked: {msg}"))
        });
        guard.result = Some(result.clone());
        result
    }
}

/// The in-flight table key for a request: its store key plus, as a
/// separate length-prefixed segment, the output-shape flag the store
/// key does not carry. A chrome-less waiter thus never receives a
/// chrome-less clone of a richer request or vice versa, and no two
/// (key, flag) pairs can alias.
fn slot_key(request_key: &Digest, want_chrome: bool) -> Digest {
    let mut h = Blake2s::new();
    h.update(&request_key.0);
    seg(&mut h, if want_chrome { b"chrome" } else { b"no-chrome" });
    h.finalize()
}

/// Shared daemon state.
struct Shared {
    store: Option<Arc<ResultStore>>,
    opts: EngineOpts,
    sock: PathBuf,
    jobs: usize,
    sem: Semaphore,
    coalescer: Coalescer,
    stop: AtomicBool,
}

impl Shared {
    /// Run one cell with dedup + the job semaphore. The cell's trace
    /// moves into the request; nothing is copied.
    fn exec(&self, cell: WireCell) -> Result<SimResult, String> {
        let req = SimRequest {
            config: cell.config,
            technique: cell.technique,
            trace: Arc::new(cell.trace),
            rewrite: cell.rewrite,
            telemetry: cell.telemetry,
            want_chrome: cell.want_chrome,
            passes: cell.passes,
            stage: cell.stage,
        };
        let digest = trace_digest(&req.trace);
        let key = slot_key(&crate::exec::request_key(&req, &digest), req.want_chrome);
        self.coalescer.run(key, || {
            let _permit = self.sem.acquire();
            run_cell_with_digest(self.store.as_deref(), &req, &self.opts, &digest)
                .map_err(|e| e.to_string())
        })
    }
}

fn to_wire(result: SimResult) -> WireResult {
    WireResult {
        report: result.report,
        telemetry: result.telemetry,
        chrome: result.chrome,
        cached: result.cached,
    }
}

fn handle_connection(shared: &Arc<Shared>, stream: UnixStream) -> io::Result<()> {
    let mut reader = stream.try_clone()?;
    let writer = Arc::new(Mutex::new(stream));
    loop {
        let Some(req): Option<WireRequest> = read_frame(&mut reader)? else {
            return Ok(());
        };
        match req.op.as_str() {
            "ping" => {
                write_frame(&mut *lock_writer(&writer)?, &WireResponse::ack(req.id))?;
            }
            "stats" => {
                let mut resp = WireResponse::ack(req.id);
                resp.stats = shared.store.as_ref().map(|s| s.stats());
                write_frame(&mut *lock_writer(&writer)?, &resp)?;
            }
            "shutdown" => {
                shared.stop.store(true, Ordering::SeqCst);
                write_frame(&mut *lock_writer(&writer)?, &WireResponse::ack(req.id))?;
                // Wake the accept loop so it observes the stop flag.
                let _ = UnixStream::connect(&shared.sock);
                return Ok(());
            }
            "sim" => {
                let Some(cell) = req.cell else {
                    write_frame(
                        &mut *lock_writer(&writer)?,
                        &WireResponse::err(req.id, None, "sim request without cell"),
                    )?;
                    continue;
                };
                let resp = match shared.exec(cell) {
                    Ok(result) => {
                        let mut r = WireResponse::ack(req.id);
                        r.result = Some(to_wire(result));
                        r
                    }
                    Err(e) => WireResponse::err(req.id, None, e),
                };
                write_frame(&mut *lock_writer(&writer)?, &resp)?;
            }
            "batch" => {
                let cells = req.cells.unwrap_or_default();
                let id = req.id;
                // Stream results as cells finish: a shared queue hands
                // cells (by value) to a bounded set of worker threads;
                // each worker writes its own frames (writer mutex keeps
                // frames whole). The job semaphore inside exec() still
                // bounds *global* simulation concurrency across
                // connections.
                let workers = shared.jobs.max(1).min(cells.len().max(1));
                let queue = Mutex::new(cells.into_iter().enumerate());
                std::thread::scope(|scope| {
                    for _ in 0..workers {
                        scope.spawn(|| loop {
                            let Some((i, cell)) = lock(&queue).next() else {
                                return;
                            };
                            let resp = match shared.exec(cell) {
                                Ok(result) => {
                                    let mut r = WireResponse::ack(id);
                                    r.item = Some(i as u64);
                                    r.result = Some(to_wire(result));
                                    r
                                }
                                Err(e) => WireResponse::err(id, Some(i as u64), e),
                            };
                            let Ok(mut out) = lock_writer(&writer) else {
                                return;
                            };
                            let _ = write_frame(&mut *out, &resp);
                        });
                    }
                });
                let mut done = WireResponse::ack(id);
                done.done = true;
                write_frame(&mut *lock_writer(&writer)?, &done)?;
            }
            other => {
                write_frame(
                    &mut *lock_writer(&writer)?,
                    &WireResponse::err(req.id, None, format!("unknown op `{other}`")),
                )?;
            }
        }
        if shared.stop.load(Ordering::SeqCst) {
            return Ok(());
        }
    }
}

/// A running daemon. Dropping the handle shuts it down and removes the
/// socket file.
pub struct DaemonHandle {
    sock: PathBuf,
    accept_thread: Option<JoinHandle<()>>,
    shared: Arc<Shared>,
}

impl DaemonHandle {
    /// The socket path clients connect to.
    pub fn socket_path(&self) -> &Path {
        &self.sock
    }

    /// Requests deduplicated onto an already-running computation so far.
    pub fn coalesced(&self) -> usize {
        self.shared.coalescer.coalesced.load(Ordering::Relaxed)
    }

    /// Block until the daemon stops (a client sent `shutdown`).
    pub fn wait(&mut self) {
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        let _ = std::fs::remove_file(&self.sock);
    }

    /// Ask the daemon to stop and wait for the accept loop to exit.
    pub fn shutdown(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        // Wake the blocking accept with a throwaway connection.
        let _ = UnixStream::connect(&self.sock);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        let _ = std::fs::remove_file(&self.sock);
    }
}

impl Drop for DaemonHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Start a daemon listening on `sock`, serving through `store` (if
/// any), running at most `jobs` simulations concurrently.
///
/// This is a library entry point so tests and the conformance suite can
/// spin up an in-process daemon on a temp socket; the `simserved serve`
/// subcommand is a thin wrapper.
pub fn spawn(
    sock: impl Into<PathBuf>,
    store: Option<Arc<ResultStore>>,
    jobs: usize,
) -> io::Result<DaemonHandle> {
    let sock = sock.into();
    // A stale socket file from a dead daemon would fail the bind.
    let _ = std::fs::remove_file(&sock);
    let listener = UnixListener::bind(&sock)?;
    let shared = Arc::new(Shared {
        store,
        opts: EngineOpts::default(),
        sock: sock.clone(),
        jobs: jobs.max(1),
        sem: Semaphore::new(jobs),
        coalescer: Coalescer::default(),
        stop: AtomicBool::new(false),
    });

    let accept_shared = Arc::clone(&shared);
    let accept_thread = std::thread::spawn(move || {
        let mut conn_threads = Vec::new();
        for stream in listener.incoming() {
            if accept_shared.stop.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = stream else { break };
            let conn_shared = Arc::clone(&accept_shared);
            conn_threads.push(std::thread::spawn(move || {
                let _ = handle_connection(&conn_shared, stream);
            }));
        }
        for t in conn_threads {
            let _ = t.join();
        }
    });

    Ok(DaemonHandle {
        sock,
        accept_thread: Some(accept_thread),
        shared,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::Duration;

    const DEADLINE: Duration = Duration::from_secs(10);

    /// A computation on its own thread whose result is awaited with a
    /// deadline, so a hang fails the test instead of stalling it.
    struct Bounded<T> {
        rx: mpsc::Receiver<T>,
        thread: std::thread::JoinHandle<()>,
    }

    fn within_deadline<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> Bounded<T> {
        let (tx, rx) = mpsc::channel();
        let thread = std::thread::spawn(move || {
            let _ = tx.send(f());
        });
        Bounded { rx, thread }
    }

    impl<T> Bounded<T> {
        fn join(self, what: &str) -> T {
            let out = self
                .rx
                .recv_timeout(DEADLINE)
                .unwrap_or_else(|e| panic!("{what}: {e}"));
            self.thread.join().expect("thread exits after sending");
            out
        }
    }

    #[test]
    fn leader_panic_fails_followers_and_later_requests() {
        let table = Arc::new(Coalescer::default());
        let key = Digest([7; 32]);
        let (entered_tx, entered_rx) = mpsc::channel();

        // The leader enters its computation, waits until a follower has
        // coalesced onto its slot, then panics.
        let leader = {
            let table = Arc::clone(&table);
            within_deadline(move || {
                table.run(key, || {
                    entered_tx.send(()).unwrap();
                    while table.coalesced.load(Ordering::SeqCst) == 0 {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    panic!("forced leader panic");
                })
            })
        };
        entered_rx.recv_timeout(DEADLINE).expect("leader started");
        let follower = {
            let table = Arc::clone(&table);
            within_deadline(move || table.run(key, || unreachable!("the follower must coalesce")))
        };

        let leader = leader.join("leader returns");
        let follower = follower.join("follower does not hang");
        assert!(leader.unwrap_err().contains("forced leader panic"));
        assert!(
            follower.unwrap_err().contains("forced leader panic"),
            "the follower gets the leader's error"
        );
        assert_eq!(table.coalesced.load(Ordering::SeqCst), 1);
        assert!(lock(&table.inflight).is_empty(), "the slot is freed");

        // A later identical request finds no stale slot: it runs its own
        // computation, whose panic is again an error, not a hang.
        let later = {
            let table = Arc::clone(&table);
            within_deadline(move || table.run(key, || panic!("forced again")))
        };
        let later = later.join("later request does not hang");
        assert!(later.unwrap_err().contains("forced again"));
        assert!(lock(&table.inflight).is_empty());
    }

    #[test]
    fn chrome_flag_never_shares_a_slot() {
        for seed in 0..=255u8 {
            let key = Digest([seed; 32]);
            // The flipped-bit key the old in-place flag marking aliased.
            let mut flipped = key;
            flipped.0[0] ^= 0x80;
            let slots = [
                slot_key(&key, false),
                slot_key(&key, true),
                slot_key(&flipped, false),
                slot_key(&flipped, true),
            ];
            for (i, a) in slots.iter().enumerate() {
                for b in &slots[i + 1..] {
                    assert_ne!(a, b, "request key {key:?}");
                }
            }
            assert_eq!(slot_key(&key, true), slot_key(&key, true));
        }
    }

    #[test]
    fn a_poisoned_writer_is_an_io_error_not_a_panic() {
        let writer = Arc::new(Mutex::new(Vec::<u8>::new()));
        lock_writer(&writer).unwrap().extend_from_slice(b"ok");
        let poisoner = Arc::clone(&writer);
        let panicked = std::thread::spawn(move || {
            let _held = poisoner.lock().unwrap();
            panic!("writer thread dies mid-frame");
        })
        .join();
        assert!(panicked.is_err());
        let err = lock_writer(&writer).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::Other);
        assert!(err.to_string().contains("poisoned"), "{err}");
    }
}
