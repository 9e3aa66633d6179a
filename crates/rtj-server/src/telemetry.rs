//! The server flight recorder: scheduling event log, the gauge
//! timeline derived from it, and per-session latency attribution.
//!
//! One mechanism observes the executor, gated by
//! [`crate::ServeConfig::telemetry`] and compiled down to a single
//! `Option` branch when disabled; the other two layers are read off its
//! log after the run:
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
//! 2. **Timeline** — `ServerTrace::timeline` counts the drained log's
//!    events into the executor's gauges (in-flight, queued, completed,
//!    shed, per-worker completed counts and queue depths) at every
//!    boundary `k × tick_us` and at the end of the run: the
//!    [`TIMELINE_SCHEMA`] time-series. No thread reads the executor
//!    while it runs.
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

use std::sync::Mutex;
use std::time::{Duration, Instant};

use rtj_runtime::json::{chrome, Json, JsonError};

use crate::server::home_shard;

/// Version tag of the scheduling-trace schema.
pub const SERVER_TRACE_SCHEMA: &str = "rtj-server-trace/v1";

/// Version tag of the telemetry time-series schema.
pub const TIMELINE_SCHEMA: &str = "rtj-timeline/v1";

/// Telemetry options: enabling this on [`crate::ServeConfig`] turns the
/// flight recorder on.
#[derive(Debug, Clone)]
pub struct TelemetryConfig {
    /// The timeline's bucket width. Default 10 ms; the server floors it
    /// at 100 µs.
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

impl TraceEvent {
    /// Reads one `[ts_ns, kind, session]` triple of an
    /// `rtj-server-trace/v1` lane: exactly three elements.
    fn from_json(e: &Json) -> Option<TraceEvent> {
        let [ts_ns, kind, session] = e.as_arr()? else {
            return None;
        };
        Some(TraceEvent {
            ts_ns: ts_ns.as_u64()?,
            kind: EventKind::parse(kind.as_str()?)?,
            session: if session.is_null() {
                None
            } else {
                Some(session.as_u64()?)
            },
        })
    }
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
    /// Jobs this worker has finished so far, queue sheds included.
    pub completed: u64,
    /// Sessions pinned to this worker's shard, enqueued but not yet
    /// claimed.
    pub queued: u64,
}

/// The executor's gauges at one timeline boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct TimelineSample {
    /// Microseconds since the recorder epoch: a multiple of the tick, or
    /// the end of the run for the last sample.
    pub ts_us: u64,
    /// Sessions in flight (queued + executing).
    pub in_flight: u64,
    /// Sessions enqueued but not yet claimed.
    pub queued: u64,
    /// Sessions finished so far, queue sheds included (cumulative).
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
/// over the run, every `tick_us`.
#[derive(Debug, Clone, PartialEq)]
pub struct Timeline {
    /// Bucket width, microseconds.
    pub tick_us: u64,
    /// The samples, in time order.
    pub samples: Vec<TimelineSample>,
}

impl Timeline {
    /// Builds the document from gauge samples, deriving each sample's
    /// throughput from the `completed` deltas.
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
        v.expect_schema(TIMELINE_SCHEMA)?;
        let mut samples = Vec::new();
        for s in v.arr_field("samples")? {
            samples.push(TimelineSample {
                ts_us: s.u64_field("ts_us")?,
                in_flight: s.u64_field("in_flight")?,
                queued: s.u64_field("queued")?,
                completed: s.u64_field("completed")?,
                shed: s.u64_field("shed")?,
                throughput_hz: s.f64_field("throughput_hz")?,
                workers: s.field_as("workers", "a list of [completed, queued] pairs", |ws| {
                    ws.as_arr()?
                        .iter()
                        .map(|w| {
                            let [completed, queued] = w.as_arr()? else {
                                return None;
                            };
                            Some(WorkerSample {
                                completed: completed.as_u64()?,
                                queued: queued.as_u64()?,
                            })
                        })
                        .collect()
                })?,
            });
        }
        Ok(Timeline {
            tick_us: v.u64_field("tick_us")?,
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

    /// Derives the [`TIMELINE_SCHEMA`] gauges from the event log: one
    /// sample at each boundary `k × tick_us` before `duration_us`, and a
    /// last one at `duration_us`. A gauge at a boundary counts the events
    /// stamped at or before it (the last sample counts them all):
    ///
    /// - `enqueue`: +1 `in_flight`, +1 `queued`, +1 on the queue of the
    ///   session's home shard;
    /// - `dequeue`: −1 `queued`, −1 on that shard's queue;
    /// - `record`, or `shed` on a worker lane: −1 `in_flight`,
    ///   +1 `completed`, +1 on that worker's completed count (the
    ///   executor counts a queue-shed job as completed);
    /// - `shed` on any lane: +1 `shed`.
    ///
    /// Each event adds its deltas to the first boundary at or after its
    /// timestamp, and the samples are their prefix sums, so the lanes
    /// are neither merged nor sorted. `tick_us` must be positive.
    pub(crate) fn timeline(&self, tick_us: u64) -> Timeline {
        assert!(tick_us > 0, "the timeline tick must be positive");
        let workers = self.workers;
        let ticks = self.duration_us.div_ceil(tick_us);
        let tick_ns = tick_us.saturating_mul(1_000);
        // One row of deltas per boundary: in_flight, queued, completed,
        // shed, then each worker's completed count and queue depth.
        let width = 4 + 2 * workers;
        let mut rows = vec![0i64; (ticks as usize + 1) * width];
        for (lane, l) in self.lanes.iter().enumerate() {
            for e in &l.events {
                let at = e.ts_ns.div_ceil(tick_ns).min(ticks) as usize * width;
                let row = &mut rows[at..at + width];
                let queue = |session: u64| 5 + 2 * home_shard(session, workers);
                match (e.kind, e.session) {
                    (EventKind::Enqueue, Some(s)) => {
                        row[0] += 1;
                        row[1] += 1;
                        row[queue(s)] += 1;
                    }
                    (EventKind::Dequeue, Some(s)) => {
                        row[1] -= 1;
                        row[queue(s)] -= 1;
                    }
                    _ => {}
                }
                if matches!(e.kind, EventKind::Record | EventKind::Shed) && lane < workers {
                    row[0] -= 1;
                    row[2] += 1;
                    row[4 + 2 * lane] += 1;
                }
                if e.kind == EventKind::Shed {
                    row[3] += 1;
                }
            }
        }
        // Every decrement is stamped after the increment it undoes, so
        // no running count goes negative.
        let mut sum = vec![0i64; width];
        let samples = rows
            .chunks(width)
            .enumerate()
            .map(|(k, row)| {
                for (total, delta) in sum.iter_mut().zip(row) {
                    *total += delta;
                }
                let gauge = |i: usize| sum[i] as u64;
                TimelineSample {
                    ts_us: (k as u64).saturating_mul(tick_us).min(self.duration_us),
                    in_flight: gauge(0),
                    queued: gauge(1),
                    completed: gauge(2),
                    shed: gauge(3),
                    throughput_hz: 0.0,
                    workers: (0..workers)
                        .map(|w| WorkerSample {
                            completed: gauge(4 + 2 * w),
                            queued: gauge(5 + 2 * w),
                        })
                        .collect(),
                }
            })
            .collect();
        Timeline::new(tick_us, samples)
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
        v.expect_schema(SERVER_TRACE_SCHEMA)?;
        let mut lanes = Vec::new();
        for lane in v.arr_field("lanes")? {
            lanes.push(TraceLane {
                name: lane.str_field("name")?.to_string(),
                events: lane.field_as(
                    "events",
                    "a list of [ts_ns, kind, session] triples",
                    |es| es.as_arr()?.iter().map(TraceEvent::from_json).collect(),
                )?,
            });
        }
        Ok(ServerTrace {
            workers: v.u64_field("workers")? as usize,
            duration_us: v.u64_field("duration_us")?,
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
        Json::Arr(self.chrome_events())
    }

    fn chrome_events(&self) -> Vec<Json> {
        let mut events = Vec::new();
        for (tid, lane) in self.lanes.iter().enumerate() {
            let tid = tid as u64;
            events.push(chrome::thread_name(tid, &lane.name));
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
                            events.push(chrome::complete(
                                format!("session {session}"),
                                "run",
                                ts / 1_000,
                                e.ts_ns.saturating_sub(ts) / 1_000,
                                tid,
                            ));
                        }
                    }
                    EventKind::Park => park_start = Some(e.ts_ns),
                    EventKind::Unpark => {
                        if let Some(ts) = park_start.take() {
                            events.push(chrome::complete(
                                "park".to_string(),
                                "idle",
                                ts / 1_000,
                                e.ts_ns.saturating_sub(ts) / 1_000,
                                tid,
                            ));
                        }
                    }
                    _ => {
                        let name = match e.session {
                            Some(s) => format!("{} s{}", e.kind.name(), s),
                            None => e.kind.name().to_string(),
                        };
                        events.push(chrome::instant(name, "sched", e.ts_ns / 1_000, tid));
                    }
                }
            }
            // A worker can still be parked at drain time.
            if let Some(ts) = park_start {
                events.push(chrome::complete(
                    "park".to_string(),
                    "idle",
                    ts / 1_000,
                    self.duration_us.saturating_sub(ts / 1_000),
                    tid,
                ));
            }
        }
        events
    }

    /// The Chrome trace as JSONL: one `trace_event` object per line.
    pub fn to_trace_jsonl(&self) -> String {
        chrome::jsonl(&self.chrome_events())
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
    /// The gauge time-series derived from the trace.
    pub timeline: Timeline,
    /// Per-session stage intervals derived from the trace.
    pub stages: Vec<SessionStages>,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A worker lane that parks and wakes, dequeues a stolen session,
    /// runs and records it and parks again until drain, plus the
    /// submitter lane that admitted it.
    fn sample() -> ServerTrace {
        let ev = |ts_ns, kind, session| TraceEvent {
            ts_ns,
            kind,
            session,
        };
        ServerTrace::new(
            1,
            40,
            vec![
                vec![
                    ev(1_500, EventKind::Park, None),
                    ev(4_200, EventKind::Unpark, None),
                    ev(5_000, EventKind::Dequeue, Some(7)),
                    ev(5_400, EventKind::Steal, Some(7)),
                    ev(6_000, EventKind::RunStart, Some(7)),
                    ev(17_900, EventKind::RunEnd, Some(7)),
                    ev(18_300, EventKind::Record, Some(7)),
                    ev(21_000, EventKind::Park, None),
                ],
                vec![
                    ev(300, EventKind::Submit, Some(7)),
                    ev(700, EventKind::Admit, Some(7)),
                    ev(2_100, EventKind::Enqueue, Some(7)),
                ],
            ],
        )
    }

    #[test]
    fn chrome_trace_bytes_are_pinned() {
        const EVENTS: [&str; 11] = [
            r#"{"name":"thread_name","ph":"M","pid":0,"tid":0,"args":{"name":"worker-0"}}"#,
            r#"{"name":"park","cat":"idle","ph":"X","ts":1,"dur":2,"pid":0,"tid":0}"#,
            r#"{"name":"dequeue s7","cat":"sched","ph":"i","s":"t","ts":5,"pid":0,"tid":0}"#,
            r#"{"name":"steal s7","cat":"sched","ph":"i","s":"t","ts":5,"pid":0,"tid":0}"#,
            r#"{"name":"session 7","cat":"run","ph":"X","ts":6,"dur":11,"pid":0,"tid":0}"#,
            r#"{"name":"record s7","cat":"sched","ph":"i","s":"t","ts":18,"pid":0,"tid":0}"#,
            r#"{"name":"park","cat":"idle","ph":"X","ts":21,"dur":19,"pid":0,"tid":0}"#,
            r#"{"name":"thread_name","ph":"M","pid":0,"tid":1,"args":{"name":"submit"}}"#,
            r#"{"name":"submit s7","cat":"sched","ph":"i","s":"t","ts":0,"pid":0,"tid":1}"#,
            r#"{"name":"admit s7","cat":"sched","ph":"i","s":"t","ts":0,"pid":0,"tid":1}"#,
            r#"{"name":"enqueue s7","cat":"sched","ph":"i","s":"t","ts":2,"pid":0,"tid":1}"#,
        ];
        let t = sample();
        assert_eq!(
            t.to_chrome_trace().render(),
            format!("[{}]", EVENTS.join(","))
        );
        assert_eq!(t.to_trace_jsonl(), format!("{}\n", EVENTS.join("\n")));
    }

    /// At a 10 µs width the boundaries fall at 0, 10, 20 and 30 µs, plus
    /// the end of the run at 40: the enqueue (2.1 µs) and the dequeue
    /// (5 µs) land in the same bucket, the record (18.3 µs) in the next.
    #[test]
    fn timeline_of_the_sample_is_pinned() {
        const SAMPLES: [&str; 5] = [
            r#"{"ts_us":0,"in_flight":0,"queued":0,"completed":0,"shed":0,"throughput_hz":0.0,"workers":[[0,0]]}"#,
            r#"{"ts_us":10,"in_flight":1,"queued":0,"completed":0,"shed":0,"throughput_hz":0.0,"workers":[[0,0]]}"#,
            r#"{"ts_us":20,"in_flight":0,"queued":0,"completed":1,"shed":0,"throughput_hz":100000.0,"workers":[[1,0]]}"#,
            r#"{"ts_us":30,"in_flight":0,"queued":0,"completed":1,"shed":0,"throughput_hz":0.0,"workers":[[1,0]]}"#,
            r#"{"ts_us":40,"in_flight":0,"queued":0,"completed":1,"shed":0,"throughput_hz":0.0,"workers":[[1,0]]}"#,
        ];
        assert_eq!(
            sample().timeline(10).render(),
            format!(
                r#"{{"schema":"rtj-timeline/v1","tick_us":10,"samples":[{}]}}"#,
                SAMPLES.join(",")
            )
        );
    }
}
