//! The server flight recorder: scheduling event log, periodic telemetry
//! sampler, and per-session latency attribution.
//!
//! Three layers, all gated by [`crate::ServeConfig::telemetry`] and
//! compiled down to a single `Option` branch when disabled:
//!
//! 1. **Event log** — every scheduling decision (submit, admit, enqueue,
//!    dequeue, steal, park, unpark, run-start, run-end, record, shed,
//!    panic) is appended to a per-lane buffer with a monotonic-clock
//!    timestamp. Lanes are per-worker plus one submitter lane; each lane
//!    is written by exactly one thread while the run is live, so the
//!    lane mutexes are uncontended and an append is a timestamp read
//!    plus a `Vec` push (allocation-light: buffers are pre-reserved and
//!    grow amortised). The lanes drain shard-by-shard at the end of the
//!    run into a versioned [`SERVER_TRACE_SCHEMA`] document with Chrome
//!    `trace_event` export ([`ServerTrace::to_chrome_trace`]) so worker
//!    lanes render in `chrome://tracing` / Perfetto.
//! 2. **Sampler** — a background thread snapshots executor gauges
//!    (in-flight, queued, completed, shed, per-worker completed counts
//!    and queue depths) every [`TelemetryConfig::tick`] into a
//!    [`TIMELINE_SCHEMA`] time-series.
//! 3. **Attribution** — [`ServerTrace::session_stages`] replays the
//!    event log into per-session stage intervals (admission, queue,
//!    steal, service, merge). Stage boundaries are stamped so that the
//!    sum of a session's stages is always ≤ its end-to-end latency (the
//!    `record` boundary is stamped *before* the latency measurement),
//!    which the test suite asserts.
//!
//! **Determinism contract**: the recorder never touches session results
//! — `results_fingerprint` is byte-identical with telemetry on or off.
//! Timestamps are wall-clock and differ between runs; the *structure*
//! (per-kind event counts over session-bound kinds, per-session stage
//! ordering) is deterministic for a fixed seed, and timestamps are
//! monotone per lane (each lane is written by one thread reading a
//! monotonic clock).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use rtj_runtime::{Json, JsonError};

/// Version tag of the scheduling-trace schema.
pub const SERVER_TRACE_SCHEMA: &str = "rtj-server-trace/v1";

/// Version tag of the telemetry time-series schema.
pub const TIMELINE_SCHEMA: &str = "rtj-timeline/v1";

/// Telemetry options: enabling this on [`crate::ServeConfig`] turns the
/// flight recorder and sampler on.
#[derive(Debug, Clone)]
pub struct TelemetryConfig {
    /// Sampler tick. Default 10 ms.
    pub tick: Duration,
}

impl Default for TelemetryConfig {
    fn default() -> TelemetryConfig {
        TelemetryConfig {
            tick: Duration::from_millis(10),
        }
    }
}

/// One kind of scheduling event. Session-bound kinds carry the session
/// id; `park`/`unpark` describe the worker itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A session arrived at the server (submitter lane).
    Submit,
    /// The session passed admission control (submitter lane).
    Admit,
    /// The session was handed to an executor shard (submitter lane).
    Enqueue,
    /// A worker claimed the session from a queue (worker lane).
    Dequeue,
    /// The claiming worker was not the shard owner (worker lane,
    /// stamped right after the matching `Dequeue`).
    Steal,
    /// The worker found no work and parked (worker lane).
    Park,
    /// The worker woke from a park (worker lane).
    Unpark,
    /// The engine started executing the session (worker lane).
    RunStart,
    /// The engine (plus any simulated downstream stall) finished
    /// (worker lane).
    RunEnd,
    /// The session's result reached its result shard — stamped with the
    /// shard lock held, *before* the end-to-end latency measurement, so
    /// per-session stage sums never exceed the measured latency
    /// (worker lane).
    Record,
    /// The session was shed instead of executed (submitter lane at
    /// admission, worker lane in queue).
    Shed,
    /// The session's engine run panicked; the unwind was contained
    /// (worker lane).
    Panic,
}

impl EventKind {
    /// Every kind, in stable serialization order.
    pub const ALL: [EventKind; 12] = [
        EventKind::Submit,
        EventKind::Admit,
        EventKind::Enqueue,
        EventKind::Dequeue,
        EventKind::Steal,
        EventKind::Park,
        EventKind::Unpark,
        EventKind::RunStart,
        EventKind::RunEnd,
        EventKind::Record,
        EventKind::Shed,
        EventKind::Panic,
    ];

    /// Stable lower-case name used in the JSON documents.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::Submit => "submit",
            EventKind::Admit => "admit",
            EventKind::Enqueue => "enqueue",
            EventKind::Dequeue => "dequeue",
            EventKind::Steal => "steal",
            EventKind::Park => "park",
            EventKind::Unpark => "unpark",
            EventKind::RunStart => "run-start",
            EventKind::RunEnd => "run-end",
            EventKind::Record => "record",
            EventKind::Shed => "shed",
            EventKind::Panic => "panic",
        }
    }

    /// Inverse of [`EventKind::name`].
    pub fn parse(name: &str) -> Option<EventKind> {
        EventKind::ALL.into_iter().find(|k| k.name() == name)
    }

    fn index(&self) -> usize {
        EventKind::ALL.iter().position(|k| k == self).unwrap()
    }
}

/// One recorded scheduling event. `Copy`-sized on purpose: the hot-path
/// append is a clock read and a 24-byte push.
///
/// Timestamps are **nanoseconds** since the recorder's epoch. The
/// precision matters for the attribution invariant: per-stage durations
/// are truncated to microseconds *per stage*, and because truncation is
/// superadditive (`⌊a⌋ + ⌊b⌋ ≤ ⌊a + b⌋`) the stage sum can never
/// exceed the separately truncated end-to-end latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Nanoseconds since the recorder's epoch (monotonic clock).
    pub ts_ns: u64,
    /// What happened.
    pub kind: EventKind,
    /// The session involved, when the kind is session-bound
    /// (`park`/`unpark` are not).
    pub session: Option<u64>,
}

/// The in-flight event log: one pre-reserved buffer per lane (worker
/// lanes `0..workers`, submitter lane `workers`). Each lane is written
/// by exactly one thread while the run is live — the same exclusive
/// ownership discipline as the result shards — so the per-lane mutex is
/// uncontended and exists only to hand the buffers to the drain safely.
#[derive(Debug)]
pub struct FlightRecorder {
    epoch: Instant,
    lanes: Vec<Mutex<Vec<TraceEvent>>>,
}

impl FlightRecorder {
    /// Creates a recorder with `workers` worker lanes plus the
    /// submitter lane.
    pub fn new(workers: usize) -> FlightRecorder {
        FlightRecorder {
            epoch: Instant::now(),
            lanes: (0..workers + 1)
                .map(|_| Mutex::new(Vec::with_capacity(1024)))
                .collect(),
        }
    }

    /// Number of worker lanes (the submitter lane is extra).
    pub fn workers(&self) -> usize {
        self.lanes.len() - 1
    }

    /// The submitter lane index.
    pub fn submit_lane(&self) -> usize {
        self.lanes.len() - 1
    }

    /// Microseconds since the recorder's epoch.
    pub fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Nanoseconds since the recorder's epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Appends one event to `lane`.
    #[inline]
    pub fn record(&self, lane: usize, kind: EventKind, session: Option<u64>) {
        let event = TraceEvent {
            ts_ns: self.now_ns(),
            kind,
            session,
        };
        self.lanes[lane].lock().unwrap().push(event);
    }

    /// Takes every lane's buffer (worker lanes first, submitter last).
    /// Call after the workers have stopped.
    pub fn drain(&self) -> Vec<Vec<TraceEvent>> {
        self.lanes
            .iter()
            .map(|lane| std::mem::take(&mut *lane.lock().unwrap()))
            .collect()
    }
}

/// Per-worker gauge pair inside one timeline sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WorkerSample {
    /// Jobs this worker has executed so far.
    pub completed: u64,
    /// Jobs currently waiting in this worker's shard queue.
    pub queued: u64,
}

/// One tick of the telemetry sampler.
#[derive(Debug, Clone, PartialEq)]
pub struct TimelineSample {
    /// Microseconds since the recorder epoch.
    pub ts_us: u64,
    /// Sessions in flight (queued + executing).
    pub in_flight: u64,
    /// Sessions queued but not yet claimed.
    pub queued: u64,
    /// Sessions executed so far (cumulative).
    pub completed: u64,
    /// Sessions shed so far (admission + queue, cumulative).
    pub shed: u64,
    /// Completion rate over the previous tick (sessions/s); `0` for the
    /// first sample. Derived from the `completed` deltas at document
    /// build time.
    pub throughput_hz: f64,
    /// Per-worker completed counts and queue depths.
    pub workers: Vec<WorkerSample>,
}

/// The `rtj-timeline/v1` time-series: what the executor's gauges did
/// over the run, sampled every `tick_us`.
#[derive(Debug, Clone, PartialEq)]
pub struct Timeline {
    /// Sampler tick, microseconds.
    pub tick_us: u64,
    /// The samples, in time order.
    pub samples: Vec<TimelineSample>,
}

impl Timeline {
    /// Builds the document from raw sampler output, deriving each
    /// sample's throughput from the `completed` deltas.
    pub fn new(tick_us: u64, mut samples: Vec<TimelineSample>) -> Timeline {
        for i in 1..samples.len() {
            let dt_us = samples[i].ts_us.saturating_sub(samples[i - 1].ts_us);
            let dn = samples[i]
                .completed
                .saturating_sub(samples[i - 1].completed);
            samples[i].throughput_hz = if dt_us > 0 {
                dn as f64 * 1_000_000.0 / dt_us as f64
            } else {
                0.0
            };
        }
        Timeline { tick_us, samples }
    }

    /// Serialises to the versioned document.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("schema", Json::Str(TIMELINE_SCHEMA.into())),
            ("tick_us", Json::Int(self.tick_us as i64)),
            (
                "samples",
                Json::Arr(
                    self.samples
                        .iter()
                        .map(|s| {
                            Json::obj(vec![
                                ("ts_us", Json::Int(s.ts_us as i64)),
                                ("in_flight", Json::Int(s.in_flight as i64)),
                                ("queued", Json::Int(s.queued as i64)),
                                ("completed", Json::Int(s.completed as i64)),
                                ("shed", Json::Int(s.shed as i64)),
                                ("throughput_hz", Json::Float(s.throughput_hz)),
                                (
                                    "workers",
                                    Json::Arr(
                                        s.workers
                                            .iter()
                                            .map(|w| {
                                                Json::Arr(vec![
                                                    Json::Int(w.completed as i64),
                                                    Json::Int(w.queued as i64),
                                                ])
                                            })
                                            .collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Parses a document produced by [`Timeline::to_json`], rejecting
    /// wrong or missing schema tags.
    pub fn from_json(v: &Json) -> Result<Timeline, JsonError> {
        match v.get("schema").and_then(Json::as_str) {
            Some(TIMELINE_SCHEMA) => {}
            Some(other) => return Err(bad(format!("expected {TIMELINE_SCHEMA}, got {other}"))),
            None => return Err(bad("missing `schema`")),
        }
        let mut samples = Vec::new();
        for s in v
            .get("samples")
            .and_then(Json::as_arr)
            .ok_or_else(|| bad("missing `samples`"))?
        {
            let field = |k: &str| -> Result<u64, JsonError> {
                s.get(k)
                    .and_then(Json::as_u64)
                    .ok_or_else(|| bad(format!("missing sample `{k}`")))
            };
            let mut workers = Vec::new();
            for w in s
                .get("workers")
                .and_then(Json::as_arr)
                .ok_or_else(|| bad("missing sample `workers`"))?
            {
                let pair = w.as_arr().ok_or_else(|| bad("bad worker pair"))?;
                match (
                    pair.first().and_then(Json::as_u64),
                    pair.get(1).and_then(Json::as_u64),
                ) {
                    (Some(completed), Some(queued)) => {
                        workers.push(WorkerSample { completed, queued })
                    }
                    _ => return Err(bad("bad worker pair")),
                }
            }
            samples.push(TimelineSample {
                ts_us: field("ts_us")?,
                in_flight: field("in_flight")?,
                queued: field("queued")?,
                completed: field("completed")?,
                shed: field("shed")?,
                throughput_hz: s
                    .get("throughput_hz")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| bad("missing sample `throughput_hz`"))?,
                workers,
            });
        }
        Ok(Timeline {
            tick_us: v
                .get("tick_us")
                .and_then(Json::as_u64)
                .ok_or_else(|| bad("missing `tick_us`"))?,
            samples,
        })
    }

    /// Parses the rendered text form.
    pub fn parse(text: &str) -> Result<Timeline, JsonError> {
        Timeline::from_json(&Json::parse(text)?)
    }

    /// Renders the JSON document.
    pub fn render(&self) -> String {
        self.to_json().render()
    }

    /// Renders the human-readable timeline: one row per sample with the
    /// run gauges, the per-tick shed delta (the shed timeline), and the
    /// per-worker queue depths.
    pub fn render_report(&self) -> String {
        let mut out = String::new();
        out += &format!("telemetry timeline ({TIMELINE_SCHEMA})\n");
        out += &format!("tick          : {} µs\n", self.tick_us);
        out += &format!("samples       : {}\n\n", self.samples.len());
        out += &format!(
            "{:>9} {:>9} {:>7} {:>10} {:>6} {:>6} {:>11}  {}\n",
            "ts µs",
            "in_flight",
            "queued",
            "completed",
            "shed",
            "Δshed",
            "sessions/s",
            "queue depth/worker"
        );
        let mut prev_shed = 0u64;
        for s in &self.samples {
            let depths: Vec<String> = s.workers.iter().map(|w| w.queued.to_string()).collect();
            out += &format!(
                "{:>9} {:>9} {:>7} {:>10} {:>6} {:>6} {:>11.0}  {}\n",
                s.ts_us,
                s.in_flight,
                s.queued,
                s.completed,
                s.shed,
                s.shed.saturating_sub(prev_shed),
                s.throughput_hz,
                depths.join("/"),
            );
            prev_shed = s.shed;
        }
        out
    }
}

/// The background sampler thread: calls `probe` every tick, pushes a
/// final sample at stop (so the drained end state is always captured).
#[derive(Debug)]
pub(crate) struct Sampler {
    stop: Arc<AtomicBool>,
    handle: thread::JoinHandle<Vec<TimelineSample>>,
}

impl Sampler {
    /// Spawns the sampler thread, or fails when the OS refuses it.
    pub(crate) fn start(
        tick: Duration,
        probe: impl Fn() -> TimelineSample + Send + 'static,
    ) -> std::io::Result<Sampler> {
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let tick = tick.max(Duration::from_micros(100));
        let handle = thread::Builder::new()
            .name("rtj-telemetry".into())
            .spawn(move || {
                let mut samples = Vec::new();
                loop {
                    samples.push(probe());
                    // Sleep the tick in small chunks so a stop request is
                    // honoured promptly even with a coarse tick.
                    let mut slept = Duration::ZERO;
                    while slept < tick {
                        if stop_flag.load(Ordering::SeqCst) {
                            samples.push(probe());
                            return samples;
                        }
                        let chunk = (tick - slept).min(Duration::from_millis(2));
                        thread::sleep(chunk);
                        slept += chunk;
                    }
                }
            })?;
        Ok(Sampler { stop, handle })
    }

    /// Stops the thread and returns the samples (including one final
    /// sample taken after the stop request).
    pub(crate) fn stop(self) -> Vec<TimelineSample> {
        self.stop.store(true, Ordering::SeqCst);
        self.handle.join().expect("sampler thread")
    }
}

/// One lane of the drained trace: who wrote it and what they recorded.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceLane {
    /// `worker-N` or `submit`.
    pub name: String,
    /// The lane's events, in the order they were recorded (timestamps
    /// are monotone within a lane).
    pub events: Vec<TraceEvent>,
}

/// Per-session stage intervals derived from the event log. The stages
/// partition `submit → record` into consecutive intervals whose
/// durations are truncated to microseconds individually, so their sum
/// never exceeds the recorder-observed end-to-end time — and, because
/// the `record` boundary is stamped before the latency measurement,
/// never exceeds the session's reported `latency_us` either.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionStages {
    /// The session these stages describe.
    pub session: u64,
    /// Whether a non-owner worker executed the session.
    pub stolen: bool,
    /// `submit → enqueue`: admission control and submit-side setup.
    pub admission_us: u64,
    /// `enqueue → dequeue`: waiting in the shard queue (includes
    /// bounded-queue backpressure). For sessions the owning worker ran
    /// itself, the `dequeue → run-start` dispatch gap folds in here.
    pub queue_us: u64,
    /// `dequeue → run-start` when a non-owner worker claimed the
    /// session — the steal handoff. Always `0` when not stolen.
    pub steal_us: u64,
    /// `run-start → run-end`: the engine run plus any simulated
    /// downstream stall.
    pub service_us: u64,
    /// `run-end → record`: result-shard lock acquisition.
    pub merge_us: u64,
}

/// Stage names, in breakdown order (matches the `stages` object of the
/// `rtj-load/v1` attribution block).
pub const STAGE_NAMES: [&str; 5] = ["admission", "queue", "steal", "service", "merge"];

impl SessionStages {
    /// The stage intervals, in [`STAGE_NAMES`] order.
    pub fn stages_us(&self) -> [u64; 5] {
        [
            self.admission_us,
            self.queue_us,
            self.steal_us,
            self.service_us,
            self.merge_us,
        ]
    }

    /// Sum of the stages — at most the recorder-observed
    /// `submit → record` time (per-stage truncation rounds down).
    pub fn total_us(&self) -> u64 {
        self.stages_us().iter().sum()
    }
}

/// The `rtj-server-trace/v1` document: the drained event log, one lane
/// per writer.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerTrace {
    /// Worker-lane count (the submitter lane is extra).
    pub workers: usize,
    /// Recorder time at drain, microseconds since epoch.
    pub duration_us: u64,
    /// Worker lanes `0..workers`, then the submitter lane.
    pub lanes: Vec<TraceLane>,
}

impl ServerTrace {
    /// Assembles the document from a drained recorder (worker lanes
    /// first, submitter lane last — [`FlightRecorder::drain`] order).
    pub fn new(workers: usize, duration_us: u64, buffers: Vec<Vec<TraceEvent>>) -> ServerTrace {
        let lanes = buffers
            .into_iter()
            .enumerate()
            .map(|(i, events)| TraceLane {
                name: if i < workers {
                    format!("worker-{i}")
                } else {
                    "submit".to_string()
                },
                events,
            })
            .collect();
        ServerTrace {
            workers,
            duration_us,
            lanes,
        }
    }

    /// Event counts per kind over all lanes, in [`EventKind::ALL`] order.
    pub fn counts(&self) -> [u64; 12] {
        let mut counts = [0u64; 12];
        for lane in &self.lanes {
            for e in &lane.events {
                counts[e.kind.index()] += 1;
            }
        }
        counts
    }

    /// Derives the per-session stage breakdown from the event log.
    /// Sessions missing any boundary (shed or still in flight) are
    /// skipped. Sorted by session id.
    pub fn session_stages(&self) -> Vec<SessionStages> {
        use std::collections::HashMap;
        // submit, enqueue, dequeue, run-start, run-end, record
        let mut bounds: HashMap<u64, ([Option<u64>; 6], bool)> = HashMap::new();
        for lane in &self.lanes {
            for e in &lane.events {
                let Some(session) = e.session else { continue };
                let slot = match e.kind {
                    EventKind::Submit => 0,
                    EventKind::Enqueue => 1,
                    EventKind::Dequeue => 2,
                    EventKind::RunStart => 3,
                    EventKind::RunEnd => 4,
                    EventKind::Record => 5,
                    EventKind::Steal => {
                        bounds.entry(session).or_default().1 = true;
                        continue;
                    }
                    _ => continue,
                };
                bounds.entry(session).or_default().0[slot] = Some(e.ts_ns);
            }
        }
        let mut stages: Vec<SessionStages> = bounds
            .into_iter()
            .filter_map(|(session, (b, stolen))| {
                let [Some(submit), Some(enqueue), Some(dequeue), Some(run_start), Some(run_end), Some(record)] =
                    b
                else {
                    return None;
                };
                // Durations are computed in nanoseconds and truncated to
                // microseconds per stage; the non-stolen dispatch gap
                // folds into the queue stage so `steal` measures actual
                // migrations only.
                let us = |ns: u64| ns / 1_000;
                let dispatch = run_start.saturating_sub(dequeue);
                let (queue_ns, steal_ns) = if stolen {
                    (dequeue.saturating_sub(enqueue), dispatch)
                } else {
                    (dequeue.saturating_sub(enqueue) + dispatch, 0)
                };
                Some(SessionStages {
                    session,
                    stolen,
                    admission_us: us(enqueue.saturating_sub(submit)),
                    queue_us: us(queue_ns),
                    steal_us: us(steal_ns),
                    service_us: us(run_end.saturating_sub(run_start)),
                    merge_us: us(record.saturating_sub(run_end)),
                })
            })
            .collect();
        stages.sort_by_key(|s| s.session);
        stages
    }

    /// Serialises to the versioned document. Events are compact
    /// `[ts_ns, kind, session]` triples (`session` is `null` for
    /// park/unpark).
    pub fn to_json(&self) -> Json {
        let counts = self.counts();
        Json::obj(vec![
            ("schema", Json::Str(SERVER_TRACE_SCHEMA.into())),
            ("workers", Json::Int(self.workers as i64)),
            ("duration_us", Json::Int(self.duration_us as i64)),
            (
                "counts",
                Json::obj(
                    EventKind::ALL
                        .iter()
                        .enumerate()
                        .map(|(i, k)| (k.name(), Json::Int(counts[i] as i64)))
                        .collect(),
                ),
            ),
            (
                "lanes",
                Json::Arr(
                    self.lanes
                        .iter()
                        .map(|lane| {
                            Json::obj(vec![
                                ("name", Json::Str(lane.name.clone())),
                                (
                                    "events",
                                    Json::Arr(
                                        lane.events
                                            .iter()
                                            .map(|e| {
                                                Json::Arr(vec![
                                                    Json::Int(e.ts_ns as i64),
                                                    Json::Str(e.kind.name().into()),
                                                    match e.session {
                                                        Some(s) => Json::Int(s as i64),
                                                        None => Json::Null,
                                                    },
                                                ])
                                            })
                                            .collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Parses a document produced by [`ServerTrace::to_json`], rejecting
    /// wrong or missing schema tags.
    pub fn from_json(v: &Json) -> Result<ServerTrace, JsonError> {
        match v.get("schema").and_then(Json::as_str) {
            Some(SERVER_TRACE_SCHEMA) => {}
            Some(other) => return Err(bad(format!("expected {SERVER_TRACE_SCHEMA}, got {other}"))),
            None => return Err(bad("missing `schema`")),
        }
        let mut lanes = Vec::new();
        for lane in v
            .get("lanes")
            .and_then(Json::as_arr)
            .ok_or_else(|| bad("missing `lanes`"))?
        {
            let name = lane
                .get("name")
                .and_then(Json::as_str)
                .ok_or_else(|| bad("missing lane `name`"))?
                .to_string();
            let mut events = Vec::new();
            for e in lane
                .get("events")
                .and_then(Json::as_arr)
                .ok_or_else(|| bad("missing lane `events`"))?
            {
                let triple = e.as_arr().ok_or_else(|| bad("bad event triple"))?;
                let ts_ns = triple
                    .first()
                    .and_then(Json::as_u64)
                    .ok_or_else(|| bad("bad event timestamp"))?;
                let kind = triple
                    .get(1)
                    .and_then(Json::as_str)
                    .and_then(EventKind::parse)
                    .ok_or_else(|| bad("bad event kind"))?;
                let session = match triple.get(2) {
                    Some(s) if s.is_null() => None,
                    Some(s) => Some(s.as_u64().ok_or_else(|| bad("bad event session"))?),
                    None => return Err(bad("bad event triple")),
                };
                events.push(TraceEvent {
                    ts_ns,
                    kind,
                    session,
                });
            }
            lanes.push(TraceLane { name, events });
        }
        Ok(ServerTrace {
            workers: v
                .get("workers")
                .and_then(Json::as_u64)
                .ok_or_else(|| bad("missing `workers`"))? as usize,
            duration_us: v
                .get("duration_us")
                .and_then(Json::as_u64)
                .ok_or_else(|| bad("missing `duration_us`"))?,
            lanes,
        })
    }

    /// Parses the rendered text form.
    pub fn parse(text: &str) -> Result<ServerTrace, JsonError> {
        ServerTrace::from_json(&Json::parse(text)?)
    }

    /// Renders the JSON document.
    pub fn render(&self) -> String {
        self.to_json().render()
    }

    /// Exports the trace as a Chrome `trace_event` JSON array (load it
    /// in `chrome://tracing` or Perfetto): one `tid` per lane with
    /// `thread_name` metadata, `X` complete events for run and park
    /// intervals, instant events for everything else.
    pub fn to_chrome_trace(&self) -> Json {
        let mut events = Vec::new();
        for (tid, lane) in self.lanes.iter().enumerate() {
            events.push(Json::obj(vec![
                ("name", Json::Str("thread_name".into())),
                ("ph", Json::Str("M".into())),
                ("pid", Json::Int(0)),
                ("tid", Json::Int(tid as i64)),
                (
                    "args",
                    Json::obj(vec![("name", Json::Str(lane.name.clone()))]),
                ),
            ]));
            let complete = |name: String, cat: &str, ts: u64, dur: u64| {
                Json::obj(vec![
                    ("name", Json::Str(name)),
                    ("cat", Json::Str(cat.into())),
                    ("ph", Json::Str("X".into())),
                    ("ts", Json::Int(ts as i64)),
                    ("dur", Json::Int(dur as i64)),
                    ("pid", Json::Int(0)),
                    ("tid", Json::Int(tid as i64)),
                ])
            };
            let instant = |e: &TraceEvent| {
                Json::obj(vec![
                    (
                        "name",
                        Json::Str(match e.session {
                            Some(s) => format!("{} s{}", e.kind.name(), s),
                            None => e.kind.name().to_string(),
                        }),
                    ),
                    ("cat", Json::Str("sched".into())),
                    ("ph", Json::Str("i".into())),
                    ("s", Json::Str("t".into())),
                    ("ts", Json::Int((e.ts_ns / 1_000) as i64)),
                    ("pid", Json::Int(0)),
                    ("tid", Json::Int(tid as i64)),
                ])
            };
            // Pair interval starts with their ends; the lane is written
            // by one thread, so matching is sequential. Chrome `ts`/
            // `dur` are microseconds.
            let mut run_start: Option<(u64, u64)> = None; // (ts_ns, session)
            let mut park_start: Option<u64> = None;
            for e in &lane.events {
                match e.kind {
                    EventKind::RunStart => run_start = Some((e.ts_ns, e.session.unwrap_or(0))),
                    EventKind::RunEnd => {
                        if let Some((ts, session)) = run_start.take() {
                            events.push(complete(
                                format!("session {session}"),
                                "run",
                                ts / 1_000,
                                e.ts_ns.saturating_sub(ts) / 1_000,
                            ));
                        }
                    }
                    EventKind::Park => park_start = Some(e.ts_ns),
                    EventKind::Unpark => {
                        if let Some(ts) = park_start.take() {
                            events.push(complete(
                                "park".to_string(),
                                "idle",
                                ts / 1_000,
                                e.ts_ns.saturating_sub(ts) / 1_000,
                            ));
                        }
                    }
                    _ => events.push(instant(e)),
                }
            }
            // A worker can still be parked at drain time.
            if let Some(ts) = park_start {
                events.push(complete(
                    "park".to_string(),
                    "idle",
                    ts / 1_000,
                    self.duration_us.saturating_sub(ts / 1_000),
                ));
            }
        }
        Json::Arr(events)
    }

    /// The Chrome trace as JSONL: one `trace_event` object per line.
    pub fn to_trace_jsonl(&self) -> String {
        let Json::Arr(events) = self.to_chrome_trace() else {
            unreachable!("chrome trace is an array");
        };
        let mut out = String::new();
        for e in events {
            out.push_str(&e.render());
            out.push('\n');
        }
        out
    }

    /// Renders the human-readable trace summary: the per-kind event
    /// counts and the worker-utilization table (runs, steals, parks,
    /// busy time from the run intervals).
    pub fn render_report(&self) -> String {
        let mut out = String::new();
        out += &format!("server trace ({SERVER_TRACE_SCHEMA})\n");
        out += &format!("workers       : {}\n", self.workers);
        out += &format!("duration      : {} µs\n", self.duration_us);
        let counts = self.counts();
        let summary: Vec<String> = EventKind::ALL
            .iter()
            .enumerate()
            .filter(|(i, _)| counts[*i] > 0)
            .map(|(i, k)| format!("{} {}", k.name(), counts[i]))
            .collect();
        out += &format!("events        : {}\n\n", summary.join(", "));
        out += &format!(
            "{:<10} {:>7} {:>7} {:>7} {:>11} {:>7}\n",
            "lane", "runs", "steals", "parks", "busy µs", "busy %"
        );
        for lane in &self.lanes {
            let mut runs = 0u64;
            let mut steals = 0u64;
            let mut parks = 0u64;
            let mut busy_ns = 0u64;
            let mut run_start: Option<u64> = None;
            for e in &lane.events {
                match e.kind {
                    EventKind::RunStart => run_start = Some(e.ts_ns),
                    EventKind::RunEnd => {
                        runs += 1;
                        if let Some(ts) = run_start.take() {
                            busy_ns += e.ts_ns.saturating_sub(ts);
                        }
                    }
                    EventKind::Steal => steals += 1,
                    EventKind::Park => parks += 1,
                    _ => {}
                }
            }
            let busy_us = busy_ns / 1_000;
            let busy_pct = if self.duration_us > 0 {
                busy_us as f64 * 100.0 / self.duration_us as f64
            } else {
                0.0
            };
            out += &format!(
                "{:<10} {:>7} {:>7} {:>7} {:>11} {:>7.1}\n",
                lane.name, runs, steals, parks, busy_us, busy_pct
            );
        }
        out
    }
}

/// Everything the flight recorder produced for one run: the trace, the
/// timeline, and the derived per-session stage breakdown.
#[derive(Debug, Clone, PartialEq)]
pub struct Telemetry {
    /// The drained scheduling-event log.
    pub trace: ServerTrace,
    /// The sampler's time-series.
    pub timeline: Timeline,
    /// Per-session stage intervals derived from the trace.
    pub stages: Vec<SessionStages>,
}

fn bad(message: impl Into<String>) -> JsonError {
    JsonError {
        at: 0,
        message: message.into(),
    }
}
