//! The multi-tenant server: prepared program artifacts shared across
//! sessions, per-session runtimes, per-worker result shards, and the
//! executor gluing them.
//!
//! [`Server::start`] compiles every (program, variant) in the request
//! mix **once** ([`rtj_interp::prepare`]) and shares the immutable
//! artifacts by `Arc` across all sessions; each submitted session then
//! builds a fresh [`rtj_runtime::Runtime`] inside the worker thread
//! ([`rtj_interp::run_prepared`]), so tenants share *code* but never
//! *state*. The `Runtime: Send` audit in rtj-runtime plus the global
//! string interner (PR 1) are the only cross-session surfaces.
//!
//! # Result aggregation: sharing serialized by construction
//!
//! Completed sessions land in **per-worker result shards**: worker `w`
//! appends to shard `w` (its own `Vec<SessionResult>` plus incrementally
//! merged per-mode `rtj-metrics/v1` accumulators), so the hot
//! path never touches a lock another thread wants — the
//! regions-and-locks framing (Gerakios et al.) applied to the serving
//! layer: exclusive ownership instead of a global results mutex. The
//! shards are merged **once**, at [`Server::finish`], and sorting by
//! session id restores the deterministic result order, so byte-identity
//! across `--workers` is unaffected.
//!
//! # Admission control and deadline shedding
//!
//! With [`ServeConfig::deadline`] set, a session whose deadline
//! (scheduled arrival + deadline) has already passed is **shed**:
//! either at admission (before it ever reaches the executor) or in the
//! queue (a worker claims it, sees the deadline expired, and skips the
//! engine). Shed sessions produce a [`SessionResult`] with
//! [`ShedStage`] set and empty virtual outcome; they are reported in
//! the `sessions.shed` block of `rtj-load/v1` and excluded from the
//! executed population the Figure-12 ledger is computed over.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rtj_interp::{prepare, run_prepared, Prepared, RunConfig, RunError};
use rtj_runtime::{CheckMode, MetricsSnapshot};

use crate::executor::{resolve_workers, Executor, ExecutorStats};
use crate::session::{SessionResult, SessionSpec, ShedStage};
use crate::telemetry::{EventKind, FlightRecorder, ServerTrace, Telemetry, TelemetryConfig};

/// The narrowest timeline bucket the server derives: it bounds the
/// timeline at 10 000 samples per second of run.
const MIN_TICK: Duration = Duration::from_micros(100);

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads (0 = the machine's available parallelism).
    pub workers: usize,
    /// Executor queue capacity; 0 = unbounded (measure backlog instead
    /// of throttling the submitter).
    pub queue_capacity: usize,
    /// Which server programs to serve (subset of
    /// [`rtj_corpus::SERVER_PROGRAMS`]).
    pub programs: Vec<String>,
    /// Request variants per program (distinct baked-in `seq` values,
    /// each compiled once).
    pub variants: u32,
    /// Check modes in the request mix.
    pub modes: Vec<CheckMode>,
    /// Per-session deadline, measured from the scheduled arrival.
    /// `None` disables shedding. Sessions past their deadline are shed
    /// at admission or in the queue instead of executed.
    pub deadline: Option<Duration>,
    /// Simulated downstream stall per session (a real `thread::sleep`
    /// inside the worker, after the engine run). Models request handlers
    /// blocked on external I/O; lets worker sweeps measure executor
    /// concurrency independent of host core count. Zero disables it.
    pub stall_us: u64,
    /// Fault injection: the session id (if any) whose job panics instead
    /// of running — exercises panic containment (the session is recorded
    /// as failed; the round completes).
    pub panic_session: Option<u64>,
    /// Flight-recorder options. `None` (the default) disables telemetry
    /// entirely: the per-event hooks compile down to one untaken
    /// `Option` branch each. On or off, the server starts no thread
    /// beyond its workers. What turning it on costs is perfbench's
    /// `trace.overhead.batch_sessions_per_s`; session results are
    /// byte-identical either way (asserted by the fingerprint-identity
    /// tests).
    pub telemetry: Option<TelemetryConfig>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            workers: 0,
            queue_capacity: 0,
            programs: rtj_corpus::SERVER_PROGRAMS
                .iter()
                .map(|s| s.to_string())
                .collect(),
            variants: 4,
            modes: vec![CheckMode::Static, CheckMode::Dynamic, CheckMode::Audit],
            deadline: None,
            stall_us: 0,
            panic_session: None,
            telemetry: None,
        }
    }
}

/// A serving failure: an unknown program name, a variant that failed to
/// build (parse/type-check), a thread the server could not start, or a
/// workload out of range (a load rate or a batch too large to count).
#[derive(Debug)]
pub struct ServeError {
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for ServeError {}

/// One entry of the request mix: a compiled (program, variant) under a
/// check mode. Session id `s` maps to `mix[s % mix.len()]`.
struct MixEntry {
    /// Interned program name — cloned per session as a refcount bump,
    /// never a heap copy, so the 60k/s submit path stays allocation-light.
    program: Arc<str>,
    variant: u32,
    mode: CheckMode,
    prepared: Arc<Prepared>,
}

impl MixEntry {
    /// The spec of session `session`, which runs this entry.
    fn spec(&self, session: u64) -> SessionSpec {
        SessionSpec {
            session,
            program: Arc::clone(&self.program),
            variant: self.variant,
            mode: self.mode,
        }
    }
}

/// Sessions shed instead of executed, by stage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShedStats {
    /// Shed at admission: the deadline had passed before the session
    /// reached the executor.
    pub admission: u64,
    /// Shed in queue: a worker claimed the session after its deadline.
    pub queue: u64,
}

impl ShedStats {
    /// Counts `results` by [`ShedStage`].
    fn of(results: &[SessionResult]) -> ShedStats {
        let count = |stage| results.iter().filter(|r| r.shed == Some(stage)).count() as u64;
        ShedStats {
            admission: count(ShedStage::Admission),
            queue: count(ShedStage::Queue),
        }
    }

    /// Total shed sessions.
    pub fn total(&self) -> u64 {
        self.admission + self.queue
    }
}

/// Everything a finished serving run produced.
#[derive(Debug)]
pub struct ServeOutcome {
    /// Per-session results (executed and shed), sorted by session id.
    pub results: Vec<SessionResult>,
    /// Final executor counters.
    pub stats: ExecutorStats,
    /// Per-mode merged `rtj-metrics/v1` snapshots over executed
    /// sessions, accumulated incrementally in the worker shards and
    /// merged once at drain. Ordered by first appearance in session-id
    /// order.
    pub mode_metrics: Vec<(CheckMode, MetricsSnapshot)>,
    /// Shed counts by stage.
    pub shed: ShedStats,
    /// Flight-recorder output (trace, timeline, per-session stages);
    /// `None` unless [`ServeConfig::telemetry`] was set.
    pub telemetry: Option<Telemetry>,
}

/// One worker's private result aggregation: owned by exactly one worker
/// thread while the run is live (the mutex is uncontended; it exists to
/// hand the shard to `finish` safely).
#[derive(Debug, Default)]
struct ResultShard {
    results: Vec<SessionResult>,
    /// Incrementally merged per-mode snapshots of executed sessions —
    /// the streaming aggregation that replaces a re-merge over every
    /// per-session snapshot at report time.
    metrics: Vec<(CheckMode, MetricsSnapshot)>,
}

impl ResultShard {
    fn record(&mut self, result: SessionResult) {
        if result.shed.is_none() {
            let mode = result.spec.mode;
            match self.metrics.iter_mut().find(|(m, _)| *m == mode) {
                Some((_, merged)) => merged.merge(&result.metrics),
                None => {
                    let mut merged = MetricsSnapshot {
                        mode,
                        ..Default::default()
                    };
                    merged.merge(&result.metrics);
                    self.metrics.push((mode, merged));
                }
            }
        }
        self.results.push(result);
    }
}

/// The running server. `submit` is cheap (boxes a closure, bumps
/// refcounts); all engine work happens on the executor's workers.
pub struct Server {
    executor: Executor,
    mix: Vec<Arc<MixEntry>>,
    /// One result shard per worker, indexed by executing-worker id.
    shards: Arc<Vec<Mutex<ResultShard>>>,
    /// Admission-shed results, owned by the submitting thread (the
    /// drivers submit from one thread; this mutex is uncontended).
    admission_shed: Mutex<Vec<SessionResult>>,
    /// Sessions whose engine run panicked. The server contains the
    /// unwind *inside* the job (to record a failed result), so the
    /// executor's own counter never sees it; this one does.
    panicked: Arc<AtomicU64>,
    deadline: Option<Duration>,
    stall: Duration,
    panic_session: Option<u64>,
    /// Flight recorder, when telemetry is on. Submitter-side events go
    /// to the extra submitter lane; worker-side events are recorded from
    /// inside the job closures onto the executing worker's lane.
    recorder: Option<Arc<FlightRecorder>>,
    /// The timeline's bucket width in µs: the configured tick, floored
    /// at [`MIN_TICK`].
    tick_us: u64,
}

impl Server {
    /// Compiles the request mix and starts the workers.
    ///
    /// The mix is the cross product *mode-major*:
    /// `modes × programs × variants`. A whole number of mix
    /// rounds therefore runs every (program, variant) pair under every
    /// mode equally often, which is what makes the Figure-12 ledger
    /// (`static.elided == dynamic.performed`) hold **exactly** on the
    /// merged per-session snapshots.
    pub fn start(cfg: &ServeConfig) -> Result<Server, ServeError> {
        if cfg.programs.is_empty() || cfg.modes.is_empty() {
            return Err(ServeError {
                message: "empty request mix (need >= 1 program and mode)".into(),
            });
        }
        // Compile each (program, variant) once; share across modes.
        let mut compiled: Vec<(Arc<str>, u32, Arc<Prepared>)> = Vec::new();
        for name in &cfg.programs {
            let sources =
                rtj_corpus::request_variants(name, cfg.variants).ok_or_else(|| ServeError {
                    message: format!(
                        "unknown server program `{name}` (expected one of {})",
                        rtj_corpus::SERVER_PROGRAMS.join(", ")
                    ),
                })?;
            let name: Arc<str> = Arc::from(name.as_str());
            for (variant, src) in sources.iter().enumerate() {
                let checked = rtj_interp::build(src).map_err(|e| ServeError {
                    message: format!("{name} variant {variant} failed to build: {e:?}"),
                })?;
                compiled.push((
                    Arc::clone(&name),
                    variant as u32,
                    Arc::new(prepare(&checked)),
                ));
            }
        }
        let mut mix = Vec::new();
        for mode in &cfg.modes {
            for (program, variant, prepared) in &compiled {
                mix.push(Arc::new(MixEntry {
                    program: Arc::clone(program),
                    variant: *variant,
                    mode: *mode,
                    prepared: Arc::clone(prepared),
                }));
            }
        }
        let workers = resolve_workers(cfg.workers);
        let recorder = cfg
            .telemetry
            .as_ref()
            .map(|_| Arc::new(FlightRecorder::new(workers)));
        let executor = Executor::with_recorder(workers, cfg.queue_capacity, recorder.clone())
            .map_err(|e| ServeError {
                message: e.to_string(),
            })?;
        let shards = Arc::new(
            (0..executor.workers())
                .map(|_| Mutex::new(ResultShard::default()))
                .collect::<Vec<_>>(),
        );
        Ok(Server {
            executor,
            mix,
            shards,
            admission_shed: Mutex::new(Vec::new()),
            panicked: Arc::new(AtomicU64::new(0)),
            deadline: cfg.deadline,
            stall: Duration::from_micros(cfg.stall_us),
            panic_session: cfg.panic_session,
            recorder,
            tick_us: cfg.telemetry.as_ref().map_or(0, |t| {
                u64::try_from(t.tick.max(MIN_TICK).as_micros()).unwrap_or(u64::MAX)
            }),
        })
    }

    /// Requests per mix round (`modes × programs × variants`).
    pub fn mix_len(&self) -> usize {
        self.mix.len()
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.executor.workers()
    }

    /// The spec session `session` will run — a pure function of the id.
    pub fn spec(&self, session: u64) -> SessionSpec {
        self.mix[(session as usize) % self.mix.len()].spec(session)
    }

    /// Submits session `session`, anchored to `scheduled` for latency
    /// accounting (pass the open-loop arrival time, or `Instant::now()`
    /// for an unpaced batch). Blocks only when the executor queue is at
    /// capacity. With a deadline configured, a session already past it
    /// is shed here (admission) and never reaches the executor.
    pub fn submit(&self, session: u64, scheduled: Instant) {
        let entry = Arc::clone(&self.mix[(session as usize) % self.mix.len()]);
        let deadline = self.deadline.map(|d| scheduled + d);
        let rec = self.recorder.clone();
        let submit_lane = self.executor.workers();
        if let Some(r) = &rec {
            r.record(submit_lane, EventKind::Submit, Some(session));
        }

        // Shed on admission: the deadline passed while the submitter
        // itself was behind — refuse before paying for the queue.
        if let Some(dl) = deadline {
            if Instant::now() >= dl {
                if let Some(r) = &rec {
                    r.record(submit_lane, EventKind::Shed, Some(session));
                }
                self.admission_shed.lock().unwrap().push(shed_result(
                    &entry,
                    session,
                    scheduled,
                    ShedStage::Admission,
                ));
                return;
            }
        }
        if let Some(r) = &rec {
            r.record(submit_lane, EventKind::Admit, Some(session));
        }

        let shards = Arc::clone(&self.shards);
        let panicked = Arc::clone(&self.panicked);
        let stall = self.stall;
        let panic_session = self.panic_session;
        let shard = home_shard(session, self.executor.workers());
        if let Some(r) = &rec {
            r.record(submit_lane, EventKind::Enqueue, Some(session));
        }
        self.executor.submit_to(
            shard,
            Box::new(move |worker: usize| {
                if let Some(r) = &rec {
                    r.record(worker, EventKind::Dequeue, Some(session));
                    if worker != shard {
                        r.record(worker, EventKind::Steal, Some(session));
                    }
                }
                // Shed in queue: claimed too late to matter.
                if let Some(dl) = deadline {
                    if Instant::now() >= dl {
                        if let Some(r) = &rec {
                            r.record(worker, EventKind::Shed, Some(session));
                        }
                        let result = shed_result(&entry, session, scheduled, ShedStage::Queue);
                        shards[worker].lock().unwrap().record(result);
                        return;
                    }
                }
                let cfg = RunConfig::new(entry.mode);
                if let Some(r) = &rec {
                    r.record(worker, EventKind::RunStart, Some(session));
                }
                // Contain unwinds *before* touching the shard lock: a
                // panicking session is recorded as failed and can neither
                // poison the shard nor wedge the batch.
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    if panic_session == Some(session) {
                        panic!("injected fault: session {session}");
                    }
                    run_prepared(&entry.prepared, cfg)
                }));
                if !stall.is_zero() {
                    // Simulated downstream I/O: the worker is occupied but
                    // off-CPU, exactly like a handler awaiting an upstream.
                    std::thread::sleep(stall);
                }
                if outcome.is_err() {
                    panicked.fetch_add(1, Ordering::Relaxed);
                }
                if let Some(r) = &rec {
                    r.record(worker, EventKind::RunEnd, Some(session));
                    if outcome.is_err() {
                        r.record(worker, EventKind::Panic, Some(session));
                    }
                }
                let mut result = match outcome {
                    Ok(outcome) => SessionResult {
                        spec: entry.spec(session),
                        cycles: outcome.cycles,
                        metrics: outcome.metrics,
                        output: outcome.trace,
                        error: outcome.error,
                        shed: None,
                        service_us: outcome.wall.as_micros() as u64,
                        latency_us: 0,
                    },
                    Err(payload) => {
                        let msg = panic_message(payload.as_ref());
                        SessionResult {
                            spec: entry.spec(session),
                            cycles: 0,
                            metrics: MetricsSnapshot {
                                mode: entry.mode,
                                ..Default::default()
                            },
                            output: Vec::new(),
                            error: Some(RunError::Interp(format!("session panicked: {msg}"))),
                            shed: None,
                            service_us: 0,
                            latency_us: 0,
                        }
                    }
                };
                // Stamp the merge boundary with the shard lock held, then
                // measure end-to-end latency *after* it: the session's
                // stage sum (submit → record) can never exceed its
                // reported latency — the cross-check the attribution
                // tests assert. The lock is uncontended by construction
                // (one worker per shard), so the point moves by nanoseconds.
                let mut shard_guard = shards[worker].lock().unwrap();
                if let Some(r) = &rec {
                    r.record(worker, EventKind::Record, Some(session));
                }
                result.latency_us = scheduled.elapsed().as_micros() as u64;
                shard_guard.record(result);
            }),
        );
    }

    /// Blocks until all submitted sessions finish.
    pub fn drain(&self) {
        self.executor.drain();
    }

    /// Drains, stops the workers, merges the per-worker result shards
    /// (once), and returns the per-session results sorted by session id
    /// plus the pre-merged per-mode metrics. With telemetry on, it drains
    /// the flight recorder and derives the timeline and the stage
    /// breakdown from its log.
    pub fn finish(self) -> ServeOutcome {
        let workers = self.executor.workers();
        let mut stats = self.executor.shutdown();
        stats.panicked += self.panicked.load(Ordering::Relaxed);
        let telemetry = self.recorder.map(|rec| {
            let trace = ServerTrace::new(workers, rec.now_us(), rec.drain());
            Telemetry {
                timeline: trace.timeline(self.tick_us),
                stages: trace.session_stages(),
                trace,
            }
        });
        let shards = Arc::try_unwrap(self.shards).expect("workers stopped");
        let mut results = self.admission_shed.into_inner().unwrap();
        let mut merged: Vec<(CheckMode, MetricsSnapshot)> = Vec::new();
        for shard in shards {
            let shard = shard.into_inner().unwrap();
            results.extend(shard.results);
            merged.extend(shard.metrics);
        }
        results.sort_by_key(|r| r.spec.session);

        // Merge the shards' per-mode accumulators in first-appearance
        // (session-id) order, so the report is byte-identical at any
        // worker count.
        let mut mode_metrics: Vec<(CheckMode, MetricsSnapshot)> = Vec::new();
        for r in results.iter().filter(|r| r.shed.is_none()) {
            if !mode_metrics.iter().any(|(m, _)| *m == r.spec.mode) {
                mode_metrics.push((
                    r.spec.mode,
                    MetricsSnapshot {
                        mode: r.spec.mode,
                        ..Default::default()
                    },
                ));
            }
        }
        for (mode, snap) in &merged {
            let slot = mode_metrics
                .iter_mut()
                .find(|(m, _)| m == mode)
                .expect("accumulated mode appears in results");
            slot.1.merge(snap);
        }

        ServeOutcome {
            shed: ShedStats::of(&results),
            results,
            stats,
            mode_metrics,
            telemetry,
        }
    }
}

/// The shard session `session` is pinned to: `session % workers`, the
/// same round-robin spread the single-threaded drivers got from the
/// ticket counter, but a choice the job closure can compare against its
/// executing worker to detect steals, and the timeline can charge queue
/// depth to.
pub(crate) fn home_shard(session: u64, workers: usize) -> usize {
    (session % workers as u64) as usize
}

/// Builds the placeholder result for a shed session: empty virtual
/// outcome, latency measured to the shed decision.
fn shed_result(
    entry: &MixEntry,
    session: u64,
    scheduled: Instant,
    stage: ShedStage,
) -> SessionResult {
    SessionResult {
        spec: entry.spec(session),
        cycles: 0,
        metrics: MetricsSnapshot {
            mode: entry.mode,
            ..Default::default()
        },
        output: Vec::new(),
        error: None,
        shed: Some(stage),
        service_us: 0,
        latency_us: scheduled.elapsed().as_micros() as u64,
    }
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "<non-string panic payload>"
    }
}

/// Runs `rounds` complete mix rounds as fast as the workers allow (no
/// pacing) and returns the results — the `rtjc serve` entry point and
/// the saturation benchmark.
///
/// Fails if the server cannot start, or if the session count
/// `rounds × mix length` overflows a `u64`.
pub fn run_batch(cfg: &ServeConfig, rounds: u64) -> Result<ServeOutcome, ServeError> {
    let server = Server::start(cfg)?;
    let mix_len = server.mix_len() as u64;
    let Some(sessions) = rounds.checked_mul(mix_len) else {
        server.finish();
        return Err(ServeError {
            message: format!("{rounds} rounds of {mix_len} sessions overflow the session count"),
        });
    };
    for session in 0..sessions {
        server.submit(session, Instant::now());
    }
    Ok(server.finish())
}
