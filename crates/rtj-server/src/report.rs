//! The versioned `rtj-load/v1` serving report.
//!
//! One load (or batch-serve) run renders to a single JSON document:
//! run-level totals (including the `sessions.shed` overload block),
//! per-(program, mode) latency groups with exact p50/p95/p99 and
//! a mergeable log₂-µs histogram, the per-mode **merged** `rtj-metrics/v1`
//! snapshots (accumulated in the worker shards), and the Figure-12
//! ledger computed over the mode-matched admitted population. `rtjc
//! report` accepts these documents alongside metrics/checker/fig12
//! documents. Schema documented in `SERVER.md`. Documents written before
//! the server dropped its engine dimension carry an `engine` key in each
//! group and attribution group; the parser ignores it.

use rtj_runtime::{CheckMode, Histogram, Json, JsonError, MetricsSnapshot};

use crate::load::LoadOutcome;
use crate::server::ServeOutcome;
use crate::session::SessionResult;
use crate::telemetry::{SessionStages, STAGE_NAMES};

/// Version tag of the serving-report schema.
pub const LOAD_SCHEMA: &str = "rtj-load/v1";

/// Exact order statistics over one group's wall-clock samples, plus a
/// log₂ histogram (same bucketing as `rtj-metrics/v1` cost histograms)
/// for lossy-but-mergeable downstream aggregation.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LatencySummary {
    /// Sample count.
    pub count: u64,
    /// Mean, microseconds (rounded).
    pub mean_us: u64,
    /// Median, microseconds.
    pub p50_us: u64,
    /// 95th percentile, microseconds.
    pub p95_us: u64,
    /// 99th percentile, microseconds.
    pub p99_us: u64,
    /// Worst sample, microseconds.
    pub max_us: u64,
    /// Log₂-bucketed histogram of the samples (µs).
    pub hist: Histogram,
}

impl LatencySummary {
    /// Summarises a set of samples (microseconds). Percentiles use the
    /// nearest-rank method on the full sorted sample set — exact, not
    /// interpolated from buckets.
    pub fn from_samples(mut samples: Vec<u64>) -> LatencySummary {
        if samples.is_empty() {
            return LatencySummary::default();
        }
        samples.sort_unstable();
        let count = samples.len() as u64;
        let sum: u64 = samples.iter().sum();
        let rank = |p: f64| -> u64 {
            let idx = ((p / 100.0) * count as f64).ceil() as usize;
            samples[idx.clamp(1, samples.len()) - 1]
        };
        let mut hist = Histogram::default();
        for &s in &samples {
            hist.record(s);
        }
        LatencySummary {
            count,
            mean_us: (sum as f64 / count as f64).round() as u64,
            p50_us: rank(50.0),
            p95_us: rank(95.0),
            p99_us: rank(99.0),
            max_us: *samples.last().unwrap(),
            hist,
        }
    }

    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("count", Json::Int(self.count as i64)),
            ("mean_us", Json::Int(self.mean_us as i64)),
            ("p50_us", Json::Int(self.p50_us as i64)),
            ("p95_us", Json::Int(self.p95_us as i64)),
            ("p99_us", Json::Int(self.p99_us as i64)),
            ("max_us", Json::Int(self.max_us as i64)),
            ("hist_log2_us", self.hist.to_json()),
        ])
    }

    fn from_json(v: &Json) -> Result<LatencySummary, JsonError> {
        Ok(LatencySummary {
            count: v.u64_field("count")?,
            mean_us: v.u64_field("mean_us")?,
            p50_us: v.u64_field("p50_us")?,
            p95_us: v.u64_field("p95_us")?,
            p99_us: v.u64_field("p99_us")?,
            max_us: v.u64_field("max_us")?,
            hist: v.field_as(
                "hist_log2_us",
                "a list of [bucket, count] pairs",
                Histogram::from_json,
            )?,
        })
    }
}

/// One request class: all sessions of one program under one check mode,
/// with request-side latency (scheduled arrival → completion)
/// and server-side service time (engine entry → exit). `requests`,
/// `latency`, `service`, and `cycles` cover **executed** sessions only;
/// `shed` counts the sessions of this class the server gave up on.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadGroup {
    /// Server program name.
    pub program: String,
    /// Check mode of the group.
    pub mode: CheckMode,
    /// Executed requests in the group.
    pub requests: u64,
    /// Requests that halted with a runtime error.
    pub failed: u64,
    /// Requests shed (admission or queue) instead of executed.
    pub shed: u64,
    /// Total virtual cycles across the group (deterministic).
    pub cycles: u64,
    /// Arrival-anchored latency (includes queueing).
    pub latency: LatencySummary,
    /// Service time only.
    pub service: LatencySummary,
}

/// Per-(program, mode) latency attribution derived from the
/// flight recorder's event log: where the group's sessions spent their
/// time between submission and result merge, as exact nearest-rank
/// percentiles per stage. Present in `rtj-load/v1` only when the run
/// had telemetry on.
#[derive(Debug, Clone, PartialEq)]
pub struct AttributionGroup {
    /// Server program name.
    pub program: String,
    /// Check mode of the group.
    pub mode: CheckMode,
    /// Sessions with a complete stage chain (executed sessions observed
    /// by the recorder).
    pub sessions: u64,
    /// How many of those were executed by a non-owner worker.
    pub stolen: u64,
    /// One summary per stage, in [`STAGE_NAMES`] order: admission,
    /// queue, steal, service, merge.
    pub stages: Vec<(String, LatencySummary)>,
}

/// Joins the recorder's per-session stages to the result groups. Group
/// order matches the report's `groups` (sorted keys), so the block is
/// deterministic given the same event-log structure.
fn build_attribution(
    stages: &[SessionStages],
    results: &[SessionResult],
    keys: &[(String, CheckMode)],
) -> Vec<AttributionGroup> {
    let mut groups: Vec<AttributionGroup> = keys
        .iter()
        .map(|(program, mode)| AttributionGroup {
            program: program.clone(),
            mode: *mode,
            sessions: 0,
            stolen: 0,
            stages: Vec::new(),
        })
        .collect();
    let mut samples: Vec<[Vec<u64>; 5]> = keys.iter().map(|_| Default::default()).collect();
    // `results` is sorted by session id — binary search instead of a map.
    for s in stages {
        let Ok(idx) = results.binary_search_by_key(&s.session, |r| r.spec.session) else {
            continue;
        };
        let r = &results[idx];
        let key = (r.spec.program.to_string(), r.spec.mode);
        let Some(g) = keys.iter().position(|k| *k == key) else {
            continue;
        };
        groups[g].sessions += 1;
        groups[g].stolen += s.stolen as u64;
        for (slot, us) in samples[g].iter_mut().zip(s.stages_us()) {
            slot.push(us);
        }
    }
    for (g, stage_samples) in groups.iter_mut().zip(samples) {
        g.stages = STAGE_NAMES
            .iter()
            .zip(stage_samples)
            .map(|(name, samples)| (name.to_string(), LatencySummary::from_samples(samples)))
            .collect();
    }
    groups.retain(|g| g.sessions > 0);
    groups
}

impl AttributionGroup {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("program", Json::Str(self.program.clone())),
            ("mode", Json::Str(self.mode.name().into())),
            ("sessions", Json::Int(self.sessions as i64)),
            ("stolen", Json::Int(self.stolen as i64)),
            (
                "stages",
                Json::Obj(
                    self.stages
                        .iter()
                        .map(|(name, summary)| (name.clone(), summary.to_json()))
                        .collect(),
                ),
            ),
        ])
    }

    fn from_json(v: &Json) -> Result<AttributionGroup, JsonError> {
        Ok(AttributionGroup {
            program: v.str_field("program")?.to_string(),
            mode: mode_field(v)?,
            sessions: v.u64_field("sessions")?,
            stolen: v.u64_field_or("stolen", 0)?,
            stages: v
                .obj_field("stages")?
                .iter()
                .map(|(name, summary)| Ok((name.clone(), LatencySummary::from_json(summary)?)))
                .collect::<Result<_, JsonError>>()?,
        })
    }
}

/// The Figure-12 ledger over the **mode-matched admitted population**:
/// for each (program, variant), the largest equal number of executed
/// static and dynamic sessions is matched, and the checks static mode
/// elided on that population are exactly the checks dynamic mode
/// performed. Without shedding every round is complete, the whole
/// population matches, and the numbers equal the plain merged totals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoadLedger {
    /// Checks elided under [`CheckMode::Static`] over the matched
    /// population.
    pub static_elided: u64,
    /// Checks performed under [`CheckMode::Dynamic`] over the matched
    /// population.
    pub dynamic_performed: u64,
    /// Matched sessions per mode (Σ over (program, variant) of
    /// `min(static_executed, dynamic_executed)`).
    pub matched_sessions: u64,
}

impl LoadLedger {
    /// Whether the ledger balances.
    pub fn holds(&self) -> bool {
        self.static_elided == self.dynamic_performed
    }
}

/// The full `rtj-load/v1` document.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Human description of the request mix, e.g. `http,game,phone x4`.
    pub workload: String,
    /// Worker-thread count.
    pub workers: usize,
    /// Target arrival rate (sessions/s); `0` for an unpaced batch run.
    pub rate_hz: f64,
    /// Wall-clock time from first arrival to full drain, milliseconds.
    pub duration_ms: u64,
    /// Sessions offered to the server (executed + shed, including the
    /// round-completion top-up).
    pub submitted: u64,
    /// Sessions executed to completion.
    pub completed: u64,
    /// Sessions that halted with a runtime error (contained panics
    /// included).
    pub failed: u64,
    /// Sessions shed at admission (deadline passed before enqueue).
    pub shed_admission: u64,
    /// Sessions shed in queue (deadline passed before a worker claim).
    pub shed_queue: u64,
    /// High-water mark of concurrently in-flight sessions (queued +
    /// executing).
    pub peak_concurrent: u64,
    /// Sessions executed by a worker other than the shard owner.
    pub stolen: u64,
    /// Sessions whose engine run panicked (contained; counted in
    /// `failed` too).
    pub panicked: u64,
    /// Executed sessions per second of wall-clock time.
    pub throughput_hz: f64,
    /// Per-(program, mode) groups, in deterministic order.
    pub groups: Vec<LoadGroup>,
    /// Per-group latency attribution from the flight recorder; empty
    /// when the run had telemetry off.
    pub attribution: Vec<AttributionGroup>,
    /// Per-mode merged `rtj-metrics/v1` snapshots across all executed
    /// sessions of that mode.
    pub mode_metrics: Vec<(CheckMode, MetricsSnapshot)>,
    /// The Figure-12 ledger, when both static and dynamic ran.
    pub ledger: Option<LoadLedger>,
}

/// The `mode` field of a group.
fn mode_field(v: &Json) -> Result<CheckMode, JsonError> {
    v.field_as("mode", "a check mode", |m| {
        m.as_str().and_then(CheckMode::parse)
    })
}

/// The matched-population ledger: per (program, variant), every static
/// session elides a deterministic per-session count and every dynamic
/// session performs one; matching `min(n_static, n_dynamic)` sessions of
/// each mode makes the comparison exact over the admitted population
/// even when shedding unbalanced the modes.
fn matched_ledger(results: &[SessionResult]) -> Option<LoadLedger> {
    struct PvRow {
        program: String,
        variant: u32,
        static_n: u64,
        static_per_session: u64,
        dynamic_n: u64,
        dynamic_per_session: u64,
    }
    let mut rows: Vec<PvRow> = Vec::new();
    let mut saw_static = false;
    let mut saw_dynamic = false;
    for r in results.iter().filter(|r| r.shed.is_none()) {
        let (is_static, per_session) = match r.spec.mode {
            CheckMode::Static => {
                saw_static = true;
                (true, r.metrics.checks_elided())
            }
            CheckMode::Dynamic => {
                saw_dynamic = true;
                (false, r.metrics.checks_performed())
            }
            _ => continue,
        };
        let row = match rows
            .iter_mut()
            .find(|row| *row.program == *r.spec.program && row.variant == r.spec.variant)
        {
            Some(row) => row,
            None => {
                rows.push(PvRow {
                    program: r.spec.program.to_string(),
                    variant: r.spec.variant,
                    static_n: 0,
                    static_per_session: 0,
                    dynamic_n: 0,
                    dynamic_per_session: 0,
                });
                rows.last_mut().unwrap()
            }
        };
        if is_static {
            row.static_n += 1;
            row.static_per_session = per_session;
        } else {
            row.dynamic_n += 1;
            row.dynamic_per_session = per_session;
        }
    }
    if !saw_static || !saw_dynamic {
        return None;
    }
    let mut ledger = LoadLedger {
        static_elided: 0,
        dynamic_performed: 0,
        matched_sessions: 0,
    };
    for row in &rows {
        let matched = row.static_n.min(row.dynamic_n);
        ledger.static_elided += matched * row.static_per_session;
        ledger.dynamic_performed += matched * row.dynamic_per_session;
        ledger.matched_sessions += matched;
    }
    Some(ledger)
}

impl LoadReport {
    /// Builds the report from a finished serving run. `rate_hz = 0`
    /// marks an unpaced batch.
    pub fn from_serve(
        outcome: &ServeOutcome,
        workload: String,
        rate_hz: f64,
        duration_ms: u64,
    ) -> LoadReport {
        let results = &outcome.results;

        // Group results by (program, mode), in program then mode-name
        // order.
        let mut keys: Vec<(String, CheckMode)> = Vec::new();
        for r in results {
            let key = (r.spec.program.to_string(), r.spec.mode);
            if !keys.contains(&key) {
                keys.push(key);
            }
        }
        keys.sort_by(|a, b| (a.0.as_str(), a.1.name()).cmp(&(b.0.as_str(), b.1.name())));

        let groups = keys
            .iter()
            .cloned()
            .map(|(program, mode)| {
                let members: Vec<&SessionResult> = results
                    .iter()
                    .filter(|r| *r.spec.program == *program && r.spec.mode == mode)
                    .collect();
                let executed: Vec<&&SessionResult> =
                    members.iter().filter(|r| r.shed.is_none()).collect();
                LoadGroup {
                    requests: executed.len() as u64,
                    failed: executed.iter().filter(|r| r.error.is_some()).count() as u64,
                    shed: (members.len() - executed.len()) as u64,
                    cycles: executed.iter().map(|r| r.cycles).sum(),
                    latency: LatencySummary::from_samples(
                        executed.iter().map(|r| r.latency_us).collect(),
                    ),
                    service: LatencySummary::from_samples(
                        executed.iter().map(|r| r.service_us).collect(),
                    ),
                    program,
                    mode,
                }
            })
            .collect();

        // The per-mode merged snapshots were accumulated incrementally
        // in the worker shards and merged once at drain
        // (`MetricsSnapshot::merge` is associative and commutative —
        // proptested in rtj-runtime — so the shard merge order cannot
        // change the totals).
        let mode_metrics = outcome.mode_metrics.clone();
        let ledger = matched_ledger(results);
        let attribution = outcome
            .telemetry
            .as_ref()
            .map(|t| build_attribution(&t.stages, results, &keys))
            .unwrap_or_default();

        let executed = results.iter().filter(|r| r.shed.is_none());
        let completed = executed.clone().count() as u64;
        let failed = executed.clone().filter(|r| r.error.is_some()).count() as u64;
        let throughput_hz = if duration_ms > 0 {
            completed as f64 * 1000.0 / duration_ms as f64
        } else {
            0.0
        };
        LoadReport {
            workload,
            workers: outcome.stats.workers,
            rate_hz,
            duration_ms,
            submitted: results.len() as u64,
            completed,
            failed,
            shed_admission: outcome.shed.admission,
            shed_queue: outcome.shed.queue,
            peak_concurrent: outcome.stats.peak_in_flight,
            stolen: outcome.stats.stolen,
            panicked: outcome.stats.panicked,
            throughput_hz,
            groups,
            attribution,
            mode_metrics,
            ledger,
        }
    }

    /// Builds the report from an open-loop load run.
    pub fn from_load(outcome: &LoadOutcome, workload: String) -> LoadReport {
        LoadReport::from_serve(
            &outcome.serve,
            workload,
            outcome.plan.rate_hz,
            outcome.elapsed.as_millis() as u64,
        )
    }

    /// Total shed sessions (admission + queue).
    pub fn shed_total(&self) -> u64 {
        self.shed_admission + self.shed_queue
    }

    /// Serialises to the versioned document.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("schema", Json::Str(LOAD_SCHEMA.into())),
            ("workload", Json::Str(self.workload.clone())),
            ("workers", Json::Int(self.workers as i64)),
            ("rate_hz", Json::Float(self.rate_hz)),
            ("duration_ms", Json::Int(self.duration_ms as i64)),
            (
                "sessions",
                Json::obj(vec![
                    ("submitted", Json::Int(self.submitted as i64)),
                    ("completed", Json::Int(self.completed as i64)),
                    ("failed", Json::Int(self.failed as i64)),
                    (
                        "shed",
                        Json::obj(vec![
                            ("admission", Json::Int(self.shed_admission as i64)),
                            ("queue", Json::Int(self.shed_queue as i64)),
                            ("total", Json::Int(self.shed_total() as i64)),
                        ]),
                    ),
                    ("peak_concurrent", Json::Int(self.peak_concurrent as i64)),
                    ("stolen", Json::Int(self.stolen as i64)),
                    ("panicked", Json::Int(self.panicked as i64)),
                ]),
            ),
            ("throughput_hz", Json::Float(self.throughput_hz)),
            (
                "groups",
                Json::Arr(
                    self.groups
                        .iter()
                        .map(|g| {
                            Json::obj(vec![
                                ("program", Json::Str(g.program.clone())),
                                ("mode", Json::Str(g.mode.name().into())),
                                ("requests", Json::Int(g.requests as i64)),
                                ("failed", Json::Int(g.failed as i64)),
                                ("shed", Json::Int(g.shed as i64)),
                                ("cycles", Json::Int(g.cycles as i64)),
                                ("latency", g.latency.to_json()),
                                ("service", g.service.to_json()),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "attribution",
                if self.attribution.is_empty() {
                    Json::Null
                } else {
                    Json::Arr(
                        self.attribution
                            .iter()
                            .map(AttributionGroup::to_json)
                            .collect(),
                    )
                },
            ),
            (
                "mode_metrics",
                Json::Arr(
                    self.mode_metrics
                        .iter()
                        .map(|(mode, snap)| {
                            Json::obj(vec![
                                ("mode", Json::Str(mode.name().into())),
                                ("metrics", snap.to_json()),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "ledger",
                match &self.ledger {
                    Some(l) => Json::obj(vec![
                        ("static_elided", Json::Int(l.static_elided as i64)),
                        ("dynamic_performed", Json::Int(l.dynamic_performed as i64)),
                        ("matched_sessions", Json::Int(l.matched_sessions as i64)),
                        ("holds", Json::Bool(l.holds())),
                    ]),
                    None => Json::Null,
                },
            ),
        ])
    }

    /// Parses a document produced by [`LoadReport::to_json`], rejecting
    /// wrong or missing schema tags.
    pub fn from_json(v: &Json) -> Result<LoadReport, JsonError> {
        v.expect_schema(LOAD_SCHEMA)?;
        let sessions = v.field("sessions")?;
        // The shed block is optional so pre-shedding documents parse.
        let (shed_admission, shed_queue) = match sessions.get("shed") {
            Some(_) => {
                let shed = sessions.field_as("shed", "an object", |s| s.as_obj().map(|_| s))?;
                (
                    shed.u64_field_or("admission", 0)?,
                    shed.u64_field_or("queue", 0)?,
                )
            }
            None => (0, 0),
        };
        let mut groups = Vec::new();
        for g in v.arr_field("groups")? {
            groups.push(LoadGroup {
                program: g.str_field("program")?.to_string(),
                mode: mode_field(g)?,
                requests: g.u64_field("requests")?,
                failed: g.u64_field_or("failed", 0)?,
                shed: g.u64_field_or("shed", 0)?,
                cycles: g.u64_field_or("cycles", 0)?,
                latency: LatencySummary::from_json(g.field("latency")?)?,
                service: LatencySummary::from_json(g.field("service")?)?,
            });
        }
        // Optional blocks: pre-telemetry documents (and telemetry-off
        // runs) parse with an empty attribution and zero panicked.
        let attribution = match v.get("attribution") {
            Some(Json::Null) | None => Vec::new(),
            Some(_) => v
                .arr_field("attribution")?
                .iter()
                .map(AttributionGroup::from_json)
                .collect::<Result<_, JsonError>>()?,
        };
        let mut mode_metrics = Vec::new();
        for m in v.arr_field("mode_metrics")? {
            let snap = MetricsSnapshot::from_json(m.field("metrics")?)?;
            mode_metrics.push((snap.mode, snap));
        }
        let ledger = match v.get("ledger") {
            Some(Json::Null) | None => None,
            Some(l) => Some(LoadLedger {
                static_elided: l.u64_field("static_elided")?,
                dynamic_performed: l.u64_field("dynamic_performed")?,
                matched_sessions: l.u64_field_or("matched_sessions", 0)?,
            }),
        };
        Ok(LoadReport {
            workload: v.str_field("workload")?.to_string(),
            workers: v.u64_field("workers")? as usize,
            rate_hz: v.f64_field("rate_hz")?,
            duration_ms: v.u64_field("duration_ms")?,
            submitted: sessions.u64_field("submitted")?,
            completed: sessions.u64_field("completed")?,
            failed: sessions.u64_field("failed")?,
            shed_admission,
            shed_queue,
            peak_concurrent: sessions.u64_field("peak_concurrent")?,
            stolen: sessions.u64_field("stolen")?,
            panicked: sessions.u64_field_or("panicked", 0)?,
            throughput_hz: v.f64_field("throughput_hz")?,
            groups,
            attribution,
            mode_metrics,
            ledger,
        })
    }

    /// Parses the rendered text form.
    pub fn parse(text: &str) -> Result<LoadReport, JsonError> {
        LoadReport::from_json(&Json::parse(text)?)
    }

    /// Renders the JSON document.
    pub fn render(&self) -> String {
        self.to_json().render()
    }

    /// Renders the human-readable serving report: run totals, then the
    /// per-group tail-latency table, then the ledger.
    pub fn render_report(&self) -> String {
        let mut out = String::new();
        out += &format!("serving report ({LOAD_SCHEMA})\n");
        out += &format!("workload      : {}\n", self.workload);
        out += &format!("workers       : {}\n", self.workers);
        if self.rate_hz > 0.0 {
            out += &format!("arrival rate  : {:.0} /s (open loop)\n", self.rate_hz);
        } else {
            out += "arrival rate  : unpaced batch\n";
        }
        out += &format!("duration      : {} ms\n", self.duration_ms);
        out += &format!(
            "sessions      : {} offered, {} completed, {} failed\n",
            self.submitted, self.completed, self.failed
        );
        if self.shed_total() > 0 {
            out += &format!(
                "shed          : {} ({} at admission, {} in queue)\n",
                self.shed_total(),
                self.shed_admission,
                self.shed_queue
            );
        }
        out += &format!(
            "concurrency   : peak {} in flight, {} stolen, {} panicked\n",
            self.peak_concurrent, self.stolen, self.panicked
        );
        out += &format!("throughput    : {:.0} sessions/s\n\n", self.throughput_hz);
        out += &format!(
            "{:<8} {:<8} {:>8} {:>6} {:>9} {:>9} {:>9} {:>9}\n",
            "program", "mode", "requests", "shed", "p50 µs", "p95 µs", "p99 µs", "max µs"
        );
        for g in &self.groups {
            out += &format!(
                "{:<8} {:<8} {:>8} {:>6} {:>9} {:>9} {:>9} {:>9}\n",
                g.program,
                g.mode.name(),
                g.requests,
                g.shed,
                g.latency.p50_us,
                g.latency.p95_us,
                g.latency.p99_us,
                g.latency.max_us,
            );
        }
        if !self.attribution.is_empty() {
            out += &format!(
                "\nstage attribution (flight recorder)\n{:<8} {:<8} {:<9} {:>8} {:>9} {:>9} {:>9} {:>9}\n",
                "program", "mode", "stage", "sessions", "p50 µs", "p95 µs", "p99 µs", "max µs"
            );
            for g in &self.attribution {
                for (stage, summary) in &g.stages {
                    out += &format!(
                        "{:<8} {:<8} {:<9} {:>8} {:>9} {:>9} {:>9} {:>9}\n",
                        g.program,
                        g.mode.name(),
                        stage,
                        summary.count,
                        summary.p50_us,
                        summary.p95_us,
                        summary.p99_us,
                        summary.max_us,
                    );
                }
            }
            let stolen: u64 = self.attribution.iter().map(|g| g.stolen).sum();
            let sessions: u64 = self.attribution.iter().map(|g| g.sessions).sum();
            out += &format!("stolen sessions: {stolen}/{sessions}\n");
        }
        if let Some(l) = &self.ledger {
            out += &format!(
                "\nfigure-12 ledger: static.elided {} {} dynamic.performed {} ({}, {} matched sessions/mode)\n",
                l.static_elided,
                if l.holds() { "==" } else { "!=" },
                l.dynamic_performed,
                if l.holds() { "holds" } else { "VIOLATED" },
                l.matched_sessions,
            );
        }
        out
    }
}
