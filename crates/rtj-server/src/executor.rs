//! A sharded work-stealing executor over OS threads, with a lock-light
//! hot path.
//!
//! Jobs are distributed round-robin across per-worker shards (a
//! `Mutex<VecDeque>` each). A worker pops from the **front** of its own
//! shard and, when that is empty, steals from the **back** of a
//! sibling's shard — the classic deque discipline that keeps owners on
//! cache-warm recent work and sends thieves to the cold end.
//!
//! Coordination is deliberately split by temperature:
//!
//! * **Hot path** — all run-level accounting (`submitted`, `completed`,
//!   `queued`, `in_flight`, `peak_in_flight`, `stolen`) lives in atomics;
//!   `submit` touches only the target shard's mutex, so two submitters
//!   (or a submitter and seven workers) never serialize on a global
//!   lock. `peak_in_flight` is exact: the in-flight counter is
//!   incremented *before* the job is published and the peak is
//!   maintained with an atomic max at that instant.
//! * **Cold path** — an empty-handed worker parks on the `work` condvar,
//!   and `drain` / bounded-queue `submit` back-off park on `drained`;
//!   both share the one `idle` mutex that is only ever touched when the
//!   pool empties out, never per job.
//!
//! Worker parking is a Dekker-style handshake, not a polling tick: a
//! worker advertises itself in `idlers` *before* re-checking `queued`
//! under the idle lock, and a submitter publishes to `queued` *before*
//! reading `idlers` — both with `SeqCst`, so in every interleaving at
//! least one side sees the other. Either the worker observes the new job
//! and skips the sleep, or the submitter observes the parked worker and
//! signals `work` under the lock. Idle workers therefore cost zero CPU
//! until work (or shutdown) actually arrives, instead of waking every
//! millisecond to rescan; under the open-loop harness the 1 ms tick this
//! replaces was the pool's dominant idle-state wakeup source.
//!
//! Jobs receive the **executing worker's index** — that is what lets the
//! server keep per-worker result shards (sharing serialized by
//! construction, not by a global results lock). A job that panics is
//! contained: the unwind is caught, the `panicked` counter increments,
//! and completion accounting proceeds, so one poisoned session can never
//! wedge a batch.
//!
//! Backpressure: a bounded executor (`queue_capacity > 0`) blocks
//! [`Executor::submit`] while `queued >= capacity`, so an open-loop
//! driver that outruns the service rate is throttled at the submission
//! edge rather than growing the queue without bound. `0` means
//! unbounded, the right setting for measuring backlog under overload.

use std::collections::VecDeque;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::Duration;

use crate::telemetry::{EventKind, FlightRecorder, WorkerSample};

/// A unit of work: one session execution. The argument is the index of
/// the worker that runs the job (the shard-ownership token for
/// per-worker result aggregation) — not necessarily the shard the job
/// was submitted to, when it was stolen.
pub type Job = Box<dyn FnOnce(usize) + Send + 'static>;

/// One worker's queue: its own mutex, so submissions to different
/// shards never contend.
struct Shard {
    queue: Mutex<VecDeque<Job>>,
    /// Jobs this shard's owning worker has executed (telemetry gauge;
    /// only the owner writes it).
    completed: AtomicU64,
}

struct Inner {
    shards: Vec<Shard>,
    /// Total jobs ever submitted (also the round-robin ticket counter).
    submitted: AtomicU64,
    /// Total jobs fully executed (including contained panics).
    completed: AtomicU64,
    /// Jobs a worker took from a sibling's shard.
    stolen: AtomicU64,
    /// Jobs whose unwind was caught and contained.
    panicked: AtomicU64,
    /// Jobs pushed to a shard but not yet claimed by a worker.
    queued: AtomicUsize,
    /// `submitted - completed`, maintained directly so the peak is exact.
    in_flight: AtomicU64,
    /// High-water mark of `in_flight`.
    peak_in_flight: AtomicU64,
    /// Set once; workers exit when the queue is empty.
    shutdown: AtomicBool,
    /// Workers currently parked (or committing to park) on `work`.
    /// Advertised *before* the final `queued` re-check — the submitter
    /// side of the Dekker handshake (see the module docs).
    idlers: AtomicUsize,
    /// Cold-path parking for idle workers, `drain`, and bounded-queue
    /// submitters.
    idle: Mutex<()>,
    /// Signalled (under `idle`) when work arrives for a parked worker,
    /// and at shutdown.
    work: Condvar,
    /// Signalled when the pool fully drains or queue space frees up.
    drained: Condvar,
    capacity: usize,
    /// Flight recorder for park/unpark events. `None` (the default)
    /// compiles the telemetry hooks down to one untaken branch per
    /// park transition — the hot claim/execute path is untouched.
    recorder: Option<Arc<FlightRecorder>>,
}

impl Inner {
    fn stats(&self) -> ExecutorStats {
        ExecutorStats {
            workers: self.shards.len(),
            submitted: self.submitted.load(Ordering::SeqCst),
            completed: self.completed.load(Ordering::SeqCst),
            stolen: self.stolen.load(Ordering::SeqCst),
            peak_in_flight: self.peak_in_flight.load(Ordering::SeqCst),
            panicked: self.panicked.load(Ordering::SeqCst),
        }
    }
}

/// How long `drain` and a backpressured bounded-queue submitter sleep
/// between re-checks. Both are cold-path waits whose wakeups are also
/// signalled; the tick only bounds the delay of a lost `drained` signal
/// (worker parking itself is handshake-based and never polls).
const IDLE_TICK: Duration = Duration::from_millis(1);

/// Point-in-time executor counters, reported in the `rtj-load/v1`
/// document.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecutorStats {
    /// Worker-thread (and shard) count.
    pub workers: usize,
    /// Total jobs submitted.
    pub submitted: u64,
    /// Total jobs completed.
    pub completed: u64,
    /// Jobs executed by a worker other than the one whose shard received
    /// them.
    pub stolen: u64,
    /// High-water mark of in-flight jobs (queued + executing).
    pub peak_in_flight: u64,
    /// Jobs that panicked; the unwind was caught and the job counted as
    /// completed.
    pub panicked: u64,
}

/// The sharded work-stealing thread pool. See the module docs.
pub struct Executor {
    inner: Arc<Inner>,
    workers: Vec<thread::JoinHandle<()>>,
}

impl Executor {
    /// Starts `workers` threads (0 selects the machine's available
    /// parallelism) with one shard each and the given queue capacity
    /// (0 = unbounded).
    ///
    /// Fails with `cannot start worker thread N: …` when the OS refuses
    /// a thread; the workers already started are stopped first.
    pub fn new(workers: usize, queue_capacity: usize) -> io::Result<Executor> {
        Executor::with_recorder(workers, queue_capacity, None)
    }

    /// Like [`Executor::new`], but wires a flight recorder into the
    /// workers so park/unpark transitions are traced. The recorder must
    /// have (at least) one lane per worker.
    pub fn with_recorder(
        workers: usize,
        queue_capacity: usize,
        recorder: Option<Arc<FlightRecorder>>,
    ) -> io::Result<Executor> {
        let workers = resolve_workers(workers);
        if let Some(rec) = &recorder {
            assert!(rec.workers() >= workers, "recorder lane per worker");
        }
        let inner = Arc::new(Inner {
            shards: (0..workers)
                .map(|_| Shard {
                    queue: Mutex::new(VecDeque::new()),
                    completed: AtomicU64::new(0),
                })
                .collect(),
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            stolen: AtomicU64::new(0),
            panicked: AtomicU64::new(0),
            queued: AtomicUsize::new(0),
            in_flight: AtomicU64::new(0),
            peak_in_flight: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            idlers: AtomicUsize::new(0),
            idle: Mutex::new(()),
            work: Condvar::new(),
            drained: Condvar::new(),
            capacity: queue_capacity,
            recorder,
        });
        let mut executor = Executor {
            inner,
            workers: Vec::with_capacity(workers),
        };
        for id in 0..workers {
            let inner = Arc::clone(&executor.inner);
            // On failure, dropping `executor` stops the workers started.
            let handle = thread::Builder::new()
                .name(format!("rtj-worker-{id}"))
                .spawn(move || worker_loop(id, &inner))
                .map_err(|e| {
                    io::Error::new(e.kind(), format!("cannot start worker thread {id}: {e}"))
                })?;
            executor.workers.push(handle);
        }
        Ok(executor)
    }

    /// Number of worker threads (== number of shards).
    pub fn workers(&self) -> usize {
        self.inner.shards.len()
    }

    /// Submits a job, blocking while the queue is at capacity. The shard
    /// is chosen round-robin by submission index, so load is spread even
    /// when workers are busy.
    pub fn submit(&self, job: Job) {
        let ticket = self.inner.submitted.load(Ordering::Relaxed) as usize;
        self.submit_to(ticket % self.inner.shards.len(), job);
    }

    /// Submits a job **pinned** to one shard, bypassing round-robin
    /// spreading. The executing worker may still differ (stealing);
    /// pinning only chooses where the job waits. Used to construct
    /// deliberately unbalanced load (tests, affinity experiments).
    pub fn submit_to(&self, shard: usize, job: Job) {
        let inner = &*self.inner;
        assert!(shard < inner.shards.len(), "shard {shard} out of range");
        if inner.capacity > 0 {
            // Bounded queue: park on the cold-path condvar until a claim
            // frees space. Timed wait so a lost wakeup only delays.
            let mut guard = inner.idle.lock().unwrap();
            while inner.queued.load(Ordering::SeqCst) >= inner.capacity
                && !inner.shutdown.load(Ordering::SeqCst)
            {
                let (g, _) = inner.drained.wait_timeout(guard, IDLE_TICK).unwrap();
                guard = g;
            }
        }
        assert!(
            !inner.shutdown.load(Ordering::SeqCst),
            "submit after shutdown"
        );
        // Count the job in-flight *before* publishing it so the peak can
        // never under-read: the atomic max happens at the increment.
        let now_in_flight = inner.in_flight.fetch_add(1, Ordering::SeqCst) + 1;
        inner
            .peak_in_flight
            .fetch_max(now_in_flight, Ordering::SeqCst);
        inner.submitted.fetch_add(1, Ordering::SeqCst);
        inner.queued.fetch_add(1, Ordering::SeqCst);
        {
            let mut queue = inner.shards[shard].queue.lock().unwrap();
            queue.push_back(job);
        }
        // Dekker handshake, submitter side: `queued` is published above,
        // so a worker that re-checks it after this point skips parking;
        // a worker that advertised in `idlers` before this read is seen
        // here and signalled under the lock (which it holds until it is
        // actually waiting — the signal cannot slip into the gap).
        if inner.idlers.load(Ordering::SeqCst) > 0 {
            let _guard = inner.idle.lock().unwrap();
            inner.work.notify_one();
        }
    }

    /// Blocks until every submitted job has finished executing.
    pub fn drain(&self) {
        let inner = &*self.inner;
        let mut guard = inner.idle.lock().unwrap();
        while inner.in_flight.load(Ordering::SeqCst) > 0 {
            let (g, _) = inner.drained.wait_timeout(guard, IDLE_TICK).unwrap();
            guard = g;
        }
    }

    /// Current counters.
    pub fn stats(&self) -> ExecutorStats {
        self.inner.stats()
    }

    /// A handle the telemetry sampler can poll from its own thread while
    /// the pool runs.
    pub fn probe(&self) -> ExecutorProbe {
        ExecutorProbe {
            inner: Arc::clone(&self.inner),
        }
    }

    /// Drains outstanding work, stops the workers, and returns the final
    /// counters.
    pub fn shutdown(mut self) -> ExecutorStats {
        self.drain();
        self.stop_workers();
        self.stats()
    }

    fn stop_workers(&mut self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        {
            // Take the idle lock so the store above cannot fall between
            // a worker's shutdown re-check and its wait.
            let _guard = self.inner.idle.lock().unwrap();
            self.inner.work.notify_all();
            self.inner.drained.notify_all();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Resolves a requested worker count (0 = the machine's available
/// parallelism) to the actual thread count — shared with the server so
/// the flight recorder can size its lanes before the pool exists.
pub(crate) fn resolve_workers(workers: usize) -> usize {
    if workers == 0 {
        thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
    } else {
        workers
    }
}

/// A sampling handle onto a live executor: reads the gauge counters
/// without participating in the pool's lifecycle (holding one does not
/// keep workers alive or delay shutdown accounting).
pub struct ExecutorProbe {
    inner: Arc<Inner>,
}

/// One probe reading, consumed by the telemetry sampler.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProbeSample {
    /// Jobs submitted but not finished (queued + executing).
    pub in_flight: u64,
    /// Jobs queued but not yet claimed.
    pub queued: u64,
    /// Jobs fully executed.
    pub completed: u64,
    /// Per-worker completed counts and instantaneous queue depths.
    pub workers: Vec<WorkerSample>,
}

impl ExecutorProbe {
    /// Current counters (same snapshot as [`Executor::stats`]).
    pub fn stats(&self) -> ExecutorStats {
        self.inner.stats()
    }

    /// Reads the run gauges plus the per-worker breakdown. Queue depths
    /// take each shard's lock briefly; the sampler tick (≥ 100 µs)
    /// bounds how often.
    pub fn sample(&self) -> ProbeSample {
        let inner = &*self.inner;
        ProbeSample {
            in_flight: inner.in_flight.load(Ordering::SeqCst),
            queued: inner.queued.load(Ordering::SeqCst) as u64,
            completed: inner.completed.load(Ordering::SeqCst),
            workers: inner
                .shards
                .iter()
                .map(|shard| WorkerSample {
                    completed: shard.completed.load(Ordering::SeqCst),
                    queued: shard.queue.lock().unwrap().len() as u64,
                })
                .collect(),
        }
    }
}

impl Drop for Executor {
    fn drop(&mut self) {
        if !self.workers.is_empty() {
            self.stop_workers();
        }
    }
}

fn worker_loop(id: usize, inner: &Inner) {
    let shards = inner.shards.len();
    loop {
        // Own shard first (front: cache-warm recent work), then steal
        // from siblings' backs. The own-shard guard is a `let`-statement
        // temporary, dropped before the steal scan — holding it while
        // locking a victim's queue would let empty-handed workers form a
        // hold-and-wait cycle.
        let mut claimed = inner.shards[id].queue.lock().unwrap().pop_front();
        let mut stole = false;
        if claimed.is_none() {
            for off in 1..shards {
                let victim = &inner.shards[(id + off) % shards];
                if let Some(job) = victim.queue.lock().unwrap().pop_back() {
                    claimed = Some(job);
                    stole = true;
                    break;
                }
            }
        }

        let job = match claimed {
            Some(job) => job,
            None => {
                if inner.shutdown.load(Ordering::SeqCst) && inner.queued.load(Ordering::SeqCst) == 0
                {
                    return;
                }
                // Dekker handshake, worker side: advertise in `idlers`,
                // then re-check `queued` while holding the idle lock.
                // A submitter publishes `queued` before reading `idlers`
                // (both `SeqCst`), so either this re-check sees its job
                // or it sees this worker and signals `work` — the signal
                // cannot be lost because the lock is held from here
                // until the wait actually parks.
                let guard = inner.idle.lock().unwrap();
                inner.idlers.fetch_add(1, Ordering::SeqCst);
                if inner.queued.load(Ordering::SeqCst) == 0
                    && !inner.shutdown.load(Ordering::SeqCst)
                {
                    if let Some(rec) = &inner.recorder {
                        rec.record(id, EventKind::Park, None);
                    }
                    let _guard = inner.work.wait(guard).unwrap();
                    if let Some(rec) = &inner.recorder {
                        rec.record(id, EventKind::Unpark, None);
                    }
                }
                inner.idlers.fetch_sub(1, Ordering::SeqCst);
                continue;
            }
        };

        inner.queued.fetch_sub(1, Ordering::SeqCst);
        if stole {
            inner.stolen.fetch_add(1, Ordering::SeqCst);
        }
        if inner.capacity > 0 {
            // A claim frees queue space for a blocked submitter.
            inner.drained.notify_all();
        }

        // Panic containment: a session that unwinds is recorded and
        // counted; the worker, its shard, and the batch survive.
        if catch_unwind(AssertUnwindSafe(|| job(id))).is_err() {
            inner.panicked.fetch_add(1, Ordering::SeqCst);
        }

        inner.completed.fetch_add(1, Ordering::SeqCst);
        inner.shards[id].completed.fetch_add(1, Ordering::SeqCst);
        let remaining = inner.in_flight.fetch_sub(1, Ordering::SeqCst) - 1;
        if remaining == 0 {
            // Cold path: only the last job of a lull pays for the lock.
            let _guard = inner.idle.lock().unwrap();
            inner.drained.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn executes_every_job_once() {
        let pool = Executor::new(4, 0).unwrap();
        let hits = Arc::new(AtomicU64::new(0));
        for _ in 0..1000 {
            let hits = Arc::clone(&hits);
            pool.submit(Box::new(move |_worker| {
                hits.fetch_add(1, Ordering::Relaxed);
            }));
        }
        let stats = pool.shutdown();
        assert_eq!(hits.load(Ordering::Relaxed), 1000);
        assert_eq!(stats.submitted, 1000);
        assert_eq!(stats.completed, 1000);
        assert_eq!(stats.panicked, 0);
    }

    #[test]
    fn bounded_queue_applies_backpressure() {
        let pool = Executor::new(2, 8).unwrap();
        let hits = Arc::new(AtomicU64::new(0));
        for _ in 0..200 {
            let hits = Arc::clone(&hits);
            pool.submit(Box::new(move |_worker| {
                hits.fetch_add(1, Ordering::Relaxed);
            }));
        }
        let stats = pool.shutdown();
        assert_eq!(hits.load(Ordering::Relaxed), 200);
        // In-flight never exceeds capacity + workers-in-execution.
        assert!(stats.peak_in_flight <= 8 + 2);
    }

    #[test]
    fn drain_then_reuse() {
        let pool = Executor::new(3, 0).unwrap();
        let hits = Arc::new(AtomicU64::new(0));
        for _ in 0..50 {
            let hits = Arc::clone(&hits);
            pool.submit(Box::new(move |_worker| {
                hits.fetch_add(1, Ordering::Relaxed);
            }));
        }
        pool.drain();
        assert_eq!(hits.load(Ordering::Relaxed), 50);
        for _ in 0..50 {
            let hits = Arc::clone(&hits);
            pool.submit(Box::new(move |_worker| {
                hits.fetch_add(1, Ordering::Relaxed);
            }));
        }
        let stats = pool.shutdown();
        assert_eq!(hits.load(Ordering::Relaxed), 100);
        assert_eq!(stats.submitted, 100);
    }

    #[test]
    fn pinned_submissions_force_stealing() {
        // Everything lands in shard 0; workers 1..3 have empty shards
        // and can only make progress by stealing. Each pinned submission
        // still wakes a parked worker (the handshake signals any idler,
        // not just the shard's owner), and the jobs sleep long enough
        // that one worker cannot drain the queue before the woken
        // thieves scan it.
        let pool = Executor::new(4, 0).unwrap();
        let hits = Arc::new(AtomicU64::new(0));
        for _ in 0..64 {
            let hits = Arc::clone(&hits);
            pool.submit_to(
                0,
                Box::new(move |_worker| {
                    std::thread::sleep(Duration::from_millis(2));
                    hits.fetch_add(1, Ordering::Relaxed);
                }),
            );
        }
        let stats = pool.shutdown();
        assert_eq!(hits.load(Ordering::Relaxed), 64);
        assert_eq!(stats.completed, 64);
        assert!(stats.stolen > 0, "uneven pinning must force steals");
    }

    #[test]
    fn peak_in_flight_matches_reference_simulation() {
        // Deterministic schedule: first occupy every worker with a gate
        // job, then queue extra jobs while all workers are blocked — no
        // completion can interleave with the submissions, so the true
        // peak is known exactly and a single-threaded replay of the
        // same event order must agree with the atomic counter.
        use std::sync::atomic::AtomicBool;
        const WORKERS: usize = 3;
        const EXTRA: usize = 17;

        let pool = Executor::new(WORKERS, 0).unwrap();
        let gate = Arc::new(AtomicBool::new(false));
        let started = Arc::new(AtomicU64::new(0));
        for shard in 0..WORKERS {
            let gate = Arc::clone(&gate);
            let started = Arc::clone(&started);
            pool.submit_to(
                shard,
                Box::new(move |_worker| {
                    started.fetch_add(1, Ordering::SeqCst);
                    while !gate.load(Ordering::SeqCst) {
                        std::thread::sleep(Duration::from_micros(50));
                    }
                }),
            );
        }
        while started.load(Ordering::SeqCst) < WORKERS as u64 {
            std::thread::sleep(Duration::from_micros(50));
        }
        for i in 0..EXTRA {
            pool.submit_to(i % WORKERS, Box::new(|_worker| {}));
        }
        gate.store(true, Ordering::SeqCst);
        let stats = pool.shutdown();

        // Reference replay: (WORKERS + EXTRA) submissions before the
        // first completion, then all completions.
        let mut in_flight = 0u64;
        let mut peak = 0u64;
        for _ in 0..WORKERS + EXTRA {
            in_flight += 1;
            peak = peak.max(in_flight);
        }
        assert_eq!(stats.peak_in_flight, peak);
        assert_eq!(stats.completed, (WORKERS + EXTRA) as u64);
    }

    #[test]
    fn panicking_job_is_contained_and_counted() {
        let pool = Executor::new(2, 0).unwrap();
        let hits = Arc::new(AtomicU64::new(0));
        for i in 0..20 {
            let hits = Arc::clone(&hits);
            pool.submit(Box::new(move |_worker| {
                if i == 7 {
                    panic!("injected");
                }
                hits.fetch_add(1, Ordering::Relaxed);
            }));
        }
        let stats = pool.shutdown();
        assert_eq!(hits.load(Ordering::Relaxed), 19);
        assert_eq!(stats.completed, 20, "the panicked job still completes");
        assert_eq!(stats.panicked, 1);
    }

    #[test]
    fn worker_index_is_in_range() {
        let pool = Executor::new(3, 0).unwrap();
        let bad = Arc::new(AtomicU64::new(0));
        for _ in 0..300 {
            let bad = Arc::clone(&bad);
            pool.submit(Box::new(move |worker| {
                if worker >= 3 {
                    bad.fetch_add(1, Ordering::Relaxed);
                }
            }));
        }
        pool.shutdown();
        assert_eq!(bad.load(Ordering::Relaxed), 0);
    }
}
