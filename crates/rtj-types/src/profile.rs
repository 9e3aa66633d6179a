//! Checker self-profiling: the phase-span tree and the versioned
//! `rtj-checker-metrics/v1` snapshot.
//!
//! This is the static-checker half of the repo's observability story,
//! mirroring `rtj-runtime`'s `rtj-metrics/v1`: where the runtime counts
//! the dynamic checks it performs (and elides), this module accounts for
//! the *static* effort that made the elision sound — per-phase wall
//! time, per-judgment-family cache traffic, and interner footprint.
//!
//! Profiling is opt-in through [`crate::CheckOptions::profile`] and
//! zero-cost when disabled: the checking driver takes no per-phase or
//! per-class timestamps unless the flag is set.
//!
//! Determinism contract (inherited from the parallel driver): two runs
//! of the same program at the same `--jobs` produce snapshots with the
//! same *structure* — span tree shape and names, judgment counters,
//! interner sizes — while wall-clock fields (`elapsed_ns`, `start_ns`,
//! `wall_ns`) may differ. [`CheckerSnapshot::structure`] erases exactly
//! the timing fields so tests can assert structural identity.

use crate::check::CheckStats;
use crate::env::JudgmentCounters;
use rtj_lang::json::{chrome, Json, JsonError};
use std::time::Duration;

/// Schema identifier embedded in every checker snapshot document.
pub const CHECKER_METRICS_SCHEMA: &str = "rtj-checker-metrics/v1";

/// One timed span in the checker's phase tree.
///
/// `start` is the offset from the profile epoch (the moment
/// `check_program_in` began, or parsing began once
/// [`CheckProfile::prepend`] has added the `parse` span), so sibling
/// spans from parallel workers can be laid out on a timeline; `wall` is
/// the span's duration.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PhaseSpan {
    /// Span name (phase name, or `class <Name>` for per-class spans).
    pub name: String,
    /// Offset from the profile epoch.
    pub start: Duration,
    /// Wall-clock duration of the span.
    pub wall: Duration,
    /// Nested child spans (per-class spans under the `classes` phase).
    pub children: Vec<PhaseSpan>,
}

impl PhaseSpan {
    /// A leaf span with no children.
    pub fn leaf(name: impl Into<String>, start: Duration, wall: Duration) -> PhaseSpan {
        PhaseSpan {
            name: name.into(),
            start,
            wall,
            children: Vec::new(),
        }
    }

    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("name", Json::Str(self.name.clone())),
            ("start_ns", Json::Int(self.start.as_nanos() as i64)),
            ("wall_ns", Json::Int(self.wall.as_nanos() as i64)),
        ];
        if !self.children.is_empty() {
            fields.push((
                "children",
                Json::Arr(self.children.iter().map(PhaseSpan::to_json).collect()),
            ));
        }
        Json::obj(fields)
    }

    fn from_json(v: &Json) -> Result<PhaseSpan, JsonError> {
        let children = match v.get("children") {
            Some(_) => spans(v.arr_field("children")?)?,
            None => Vec::new(),
        };
        Ok(PhaseSpan {
            name: v.str_field("name")?.to_string(),
            start: Duration::from_nanos(v.u64_field("start_ns")?),
            wall: Duration::from_nanos(v.u64_field("wall_ns")?),
            children,
        })
    }

    fn shift(&mut self, by: Duration) {
        self.start += by;
        for c in &mut self.children {
            c.shift(by);
        }
    }

    fn zero_timings(&mut self) {
        self.start = Duration::ZERO;
        self.wall = Duration::ZERO;
        for c in &mut self.children {
            c.zero_timings();
        }
    }
}

/// The raw phase-span tree recorded by a profiled checking run, before
/// it is folded into a [`CheckerSnapshot`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CheckProfile {
    /// Top-level phase spans, in pipeline order.
    pub phases: Vec<PhaseSpan>,
}

impl CheckProfile {
    /// Inserts a span before every recorded phase and moves the recorded
    /// spans (children included) later by the new span's end, so they
    /// follow it on the timeline. The CLI uses this to prepend the
    /// `parse` span, which runs before `check_program_in`: the recorded
    /// offsets count from `check_program_in`'s start, the end of parsing.
    pub fn prepend(&mut self, span: PhaseSpan) {
        let end = span.start + span.wall;
        for p in &mut self.phases {
            p.shift(end);
        }
        self.phases.insert(0, span);
    }
}

/// Cache counters for one judgment family as carried by a snapshot.
///
/// `evals` counts actual deduction runs; with a memo table in front of
/// every family this equals `misses`, but the schema keeps it explicit
/// so the invariant is visible (and checkable) in the document itself.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JudgmentProfile {
    /// Queries answered from the memo table.
    pub hits: u64,
    /// Queries not found in the memo table.
    pub misses: u64,
    /// Underlying deduction evaluations (== `misses`).
    pub evals: u64,
}

/// A versioned `rtj-checker-metrics/v1` snapshot: the static checker's
/// counters plus (when profiling was enabled) its phase-span tree.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CheckerSnapshot {
    /// Classes checked.
    pub classes_checked: u64,
    /// Method bodies checked.
    pub methods_checked: u64,
    /// Worker threads used for the class-checking phase.
    pub threads_used: u64,
    /// Wall-clock time of the whole checking run.
    pub elapsed: Duration,
    /// Per-judgment-family cache counters, in stable rendering order.
    pub judgments: Vec<(String, JudgmentProfile)>,
    /// Distinct interned symbols alive in the process.
    pub interner_symbols: u64,
    /// Total bytes of interned string contents.
    pub interner_bytes: u64,
    /// Top-level phase spans (empty if profiling was disabled).
    pub phases: Vec<PhaseSpan>,
}

impl CheckerSnapshot {
    /// Builds a snapshot from a run's stats and (optional) span tree,
    /// sampling the global interner sizes at call time.
    pub fn capture(stats: &CheckStats, profile: Option<&CheckProfile>) -> CheckerSnapshot {
        let (symbols, bytes) = rtj_lang::intern::intern_table_stats();
        CheckerSnapshot {
            classes_checked: stats.classes_checked as u64,
            methods_checked: stats.methods_checked as u64,
            threads_used: stats.threads_used as u64,
            elapsed: stats.elapsed,
            judgments: judgment_profiles(&stats.judgments),
            interner_symbols: symbols as u64,
            interner_bytes: bytes as u64,
            phases: profile.map(|p| p.phases.clone()).unwrap_or_default(),
        }
    }

    /// The snapshot as a JSON document (insertion-ordered, so rendering
    /// is byte-deterministic for a given snapshot).
    pub fn to_json(&self) -> Json {
        let judgments = Json::Obj(
            self.judgments
                .iter()
                .map(|(name, j)| {
                    (
                        name.clone(),
                        Json::obj(vec![
                            ("hits", Json::Int(j.hits as i64)),
                            ("misses", Json::Int(j.misses as i64)),
                            ("evals", Json::Int(j.evals as i64)),
                        ]),
                    )
                })
                .collect(),
        );
        let hits: u64 = self.judgments.iter().map(|(_, j)| j.hits).sum();
        let misses: u64 = self.judgments.iter().map(|(_, j)| j.misses).sum();
        Json::obj(vec![
            ("schema", Json::Str(CHECKER_METRICS_SCHEMA.to_string())),
            ("classes_checked", Json::Int(self.classes_checked as i64)),
            ("methods_checked", Json::Int(self.methods_checked as i64)),
            ("threads_used", Json::Int(self.threads_used as i64)),
            ("elapsed_ns", Json::Int(self.elapsed.as_nanos() as i64)),
            // Summary counters duplicate the per-family sums so simple
            // consumers need not walk `judgments`; `from_json` derives
            // them back from the families.
            ("cache_hits", Json::Int(hits as i64)),
            ("cache_misses", Json::Int(misses as i64)),
            ("judgments", judgments),
            (
                "interner",
                Json::obj(vec![
                    ("symbols", Json::Int(self.interner_symbols as i64)),
                    ("bytes", Json::Int(self.interner_bytes as i64)),
                ]),
            ),
            (
                "phases",
                Json::Arr(self.phases.iter().map(PhaseSpan::to_json).collect()),
            ),
        ])
    }

    /// Renders the snapshot as a compact JSON string.
    pub fn render(&self) -> String {
        self.to_json().render()
    }

    /// Parses a snapshot document, validating the schema tag.
    pub fn parse(text: &str) -> Result<CheckerSnapshot, JsonError> {
        Self::from_json(&Json::parse(text)?)
    }

    /// Reads a snapshot back from its JSON form.
    pub fn from_json(v: &Json) -> Result<CheckerSnapshot, JsonError> {
        v.expect_schema(CHECKER_METRICS_SCHEMA)?;
        let judgments = v
            .obj_field("judgments")?
            .iter()
            .map(|(name, jv)| {
                Ok((
                    name.clone(),
                    JudgmentProfile {
                        hits: jv.u64_field("hits")?,
                        misses: jv.u64_field("misses")?,
                        evals: jv.u64_field("evals")?,
                    },
                ))
            })
            .collect::<Result<_, JsonError>>()?;
        let interner = v.field("interner")?;
        Ok(CheckerSnapshot {
            classes_checked: v.u64_field("classes_checked")?,
            methods_checked: v.u64_field("methods_checked")?,
            threads_used: v.u64_field("threads_used")?,
            elapsed: Duration::from_nanos(v.u64_field("elapsed_ns")?),
            judgments,
            interner_symbols: interner.u64_field("symbols")?,
            interner_bytes: interner.u64_field("bytes")?,
            phases: spans(v.arr_field("phases")?)?,
        })
    }

    /// A copy with every timing field (`elapsed`, span `start`/`wall`)
    /// zeroed. Two profiled runs of the same program with the same
    /// options must produce equal structures — that is the determinism
    /// contract the test suite asserts.
    pub fn structure(&self) -> CheckerSnapshot {
        let mut s = self.clone();
        s.elapsed = Duration::ZERO;
        for p in &mut s.phases {
            p.zero_timings();
        }
        s
    }

    /// The span tree as Chrome trace-event JSON (an array of `"ph":"X"`
    /// complete events, timestamps in microseconds), loadable in
    /// `chrome://tracing` or Perfetto.
    ///
    /// Spans are placed on trace "threads" (tids) by a deterministic
    /// greedy lane assignment per nesting depth, so parallel per-class
    /// spans that overlap in time render side by side instead of on top
    /// of each other.
    pub fn to_chrome_trace(&self) -> Json {
        Json::Arr(self.chrome_events())
    }

    /// The same trace events as [`CheckerSnapshot::to_chrome_trace`],
    /// one JSON object per line.
    pub fn to_trace_jsonl(&self) -> String {
        chrome::jsonl(&self.chrome_events())
    }

    fn chrome_events(&self) -> Vec<Json> {
        let mut events = Vec::new();
        emit_chrome(&self.phases, 0, &mut events);
        events
    }

    /// A human-readable rendering (the `rtjc report` view).
    pub fn render_report(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "static checker ({CHECKER_METRICS_SCHEMA})");
        let _ = writeln!(out, "  classes checked : {}", self.classes_checked);
        let _ = writeln!(out, "  methods checked : {}", self.methods_checked);
        let _ = writeln!(out, "  threads used    : {}", self.threads_used);
        let _ = writeln!(out, "  wall time       : {:?}", self.elapsed);
        let _ = writeln!(
            out,
            "  interner        : {} symbols, {} bytes",
            self.interner_symbols, self.interner_bytes
        );
        let _ = writeln!(out, "  judgment caches:");
        let _ = writeln!(
            out,
            "    {:<10} {:>10} {:>10} {:>10} {:>9}",
            "family", "hits", "misses", "evals", "hit rate"
        );
        for (name, j) in &self.judgments {
            let total = j.hits + j.misses;
            let rate = if total == 0 {
                0.0
            } else {
                j.hits as f64 / total as f64
            };
            let _ = writeln!(
                out,
                "    {:<10} {:>10} {:>10} {:>10} {:>8.1}%",
                name,
                j.hits,
                j.misses,
                j.evals,
                rate * 100.0
            );
        }
        if !self.phases.is_empty() {
            let _ = writeln!(out, "  phases:");
            for p in &self.phases {
                render_span(&mut out, p, 2);
            }
        }
        out
    }
}

fn judgment_profiles(j: &JudgmentCounters) -> Vec<(String, JudgmentProfile)> {
    j.families()
        .iter()
        .map(|(name, f)| {
            (
                name.to_string(),
                JudgmentProfile {
                    hits: f.hits,
                    misses: f.misses,
                    evals: f.misses,
                },
            )
        })
        .collect()
}

fn render_span(out: &mut String, span: &PhaseSpan, indent: usize) {
    use std::fmt::Write as _;
    let pad = "  ".repeat(indent);
    let _ = writeln!(out, "{pad}{:<24} {:?}", span.name, span.wall);
    for c in &span.children {
        render_span(out, c, indent + 1);
    }
}

/// Emits complete events for `spans` and their children. Lane assignment
/// is greedy within one sibling list: a span takes the first lane whose
/// previous occupant ended before the span started (relevant for
/// parallel per-class spans, which overlap in time).
fn emit_chrome(spans: &[PhaseSpan], base_tid: u64, events: &mut Vec<Json>) {
    let mut lane_ends: Vec<Duration> = Vec::new();
    for span in spans {
        let end = span.start + span.wall;
        let lane = match lane_ends.iter().position(|&e| e <= span.start) {
            Some(i) => {
                lane_ends[i] = end;
                i
            }
            None => {
                lane_ends.push(end);
                lane_ends.len() - 1
            }
        };
        let tid = base_tid + lane as u64;
        events.push(chrome::complete(
            span.name.clone(),
            "checker",
            span.start.as_micros() as u64,
            span.wall.as_micros() as u64,
            tid,
        ));
        emit_chrome(&span.children, tid, events);
    }
}

/// Reads a list of spans back from their JSON form.
fn spans(items: &[Json]) -> Result<Vec<PhaseSpan>, JsonError> {
    items.iter().map(PhaseSpan::from_json).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CheckerSnapshot {
        CheckerSnapshot {
            classes_checked: 3,
            methods_checked: 7,
            threads_used: 4,
            elapsed: Duration::from_micros(1500),
            judgments: vec![
                (
                    "ownership".to_string(),
                    JudgmentProfile {
                        hits: 10,
                        misses: 4,
                        evals: 4,
                    },
                ),
                (
                    "outlives".to_string(),
                    JudgmentProfile {
                        hits: 20,
                        misses: 6,
                        evals: 6,
                    },
                ),
            ],
            interner_symbols: 42,
            interner_bytes: 321,
            phases: vec![
                PhaseSpan::leaf("lower", Duration::ZERO, Duration::from_micros(10)),
                PhaseSpan {
                    name: "classes".to_string(),
                    start: Duration::from_micros(10),
                    wall: Duration::from_micros(900),
                    children: vec![
                        PhaseSpan::leaf(
                            "class A",
                            Duration::from_micros(10),
                            Duration::from_micros(400),
                        ),
                        PhaseSpan::leaf(
                            "class B",
                            Duration::from_micros(15),
                            Duration::from_micros(420),
                        ),
                    ],
                },
            ],
        }
    }

    #[test]
    fn snapshot_round_trips() {
        let s = sample();
        let text = s.render();
        let back = CheckerSnapshot::parse(&text).unwrap();
        assert_eq!(s, back);
        // Rendering is stable.
        assert_eq!(text, back.render());
    }

    #[test]
    fn parse_rejects_wrong_schema() {
        assert!(CheckerSnapshot::parse(r#"{"schema":"rtj-metrics/v1"}"#).is_err());
        assert!(CheckerSnapshot::parse(r#"{}"#).is_err());
    }

    #[test]
    fn structure_erases_only_timings() {
        let s = sample();
        let t = s.structure();
        assert_eq!(t.elapsed, Duration::ZERO);
        assert_eq!(t.phases[1].children[0].wall, Duration::ZERO);
        // Counters and shape survive.
        assert_eq!(t.classes_checked, s.classes_checked);
        assert_eq!(t.judgments, s.judgments);
        assert_eq!(t.phases.len(), s.phases.len());
        assert_eq!(t.phases[1].children.len(), 2);
        // Two snapshots differing only in timings agree structurally.
        let mut other = sample();
        other.elapsed = Duration::from_secs(9);
        other.phases[0].wall = Duration::from_secs(1);
        assert_ne!(s, other);
        assert_eq!(s.structure(), other.structure());
    }

    #[test]
    fn prepend_moves_the_recorded_spans_after_the_new_one() {
        let mut profile = CheckProfile {
            phases: sample().phases,
        };
        let parse = PhaseSpan::leaf("parse", Duration::ZERO, Duration::from_micros(5));
        profile.prepend(parse.clone());
        let starts = |p: &PhaseSpan| (p.start.as_micros(), p.wall.as_micros());
        assert_eq!(starts(&profile.phases[0]), (0, 5));
        assert_eq!(starts(&profile.phases[1]), (5, 10));
        assert_eq!(starts(&profile.phases[2]), (15, 900));
        assert_eq!(starts(&profile.phases[2].children[1]), (20, 420));
        let mut unshifted = sample();
        unshifted.phases.insert(0, parse);
        let snapshot = |phases| CheckerSnapshot { phases, ..sample() };
        assert_eq!(snapshot(profile.phases).structure(), unshifted.structure());
    }

    #[test]
    fn chrome_trace_shape() {
        let s = sample();
        let Json::Arr(events) = s.to_chrome_trace() else {
            panic!("chrome trace must be a JSON array");
        };
        assert_eq!(events.len(), 4, "one complete event per span");
        for ev in &events {
            assert_eq!(ev.get("ph"), Some(&Json::Str("X".to_string())));
            assert!(ev.get("ts").and_then(Json::as_u64).is_some());
            assert!(ev.get("dur").and_then(Json::as_u64).is_some());
        }
        // The two overlapping class spans land on different lanes.
        let tids: Vec<_> = events
            .iter()
            .filter(|e| matches!(e.get("name"), Some(Json::Str(n)) if n.starts_with("class ")))
            .map(|e| e.get("tid").cloned())
            .collect();
        assert_ne!(tids[0], tids[1]);
        // JSONL is the same events, one per line.
        assert_eq!(s.to_trace_jsonl().lines().count(), 4);
    }

    #[test]
    fn chrome_trace_bytes_are_pinned() {
        const EVENTS: [&str; 4] = [
            r#"{"name":"lower","cat":"checker","ph":"X","ts":0,"dur":10,"pid":0,"tid":0}"#,
            r#"{"name":"classes","cat":"checker","ph":"X","ts":10,"dur":900,"pid":0,"tid":0}"#,
            r#"{"name":"class A","cat":"checker","ph":"X","ts":10,"dur":400,"pid":0,"tid":0}"#,
            r#"{"name":"class B","cat":"checker","ph":"X","ts":15,"dur":420,"pid":0,"tid":1}"#,
        ];
        let s = sample();
        assert_eq!(
            s.to_chrome_trace().render(),
            format!("[{}]", EVENTS.join(","))
        );
        assert_eq!(s.to_trace_jsonl(), format!("{}\n", EVENTS.join("\n")));
    }

    #[test]
    fn report_mentions_families_and_phases() {
        let r = sample().render_report();
        assert!(r.contains("ownership"));
        assert!(r.contains("class A"));
        assert!(r.contains("classes checked : 3"));
    }
}
