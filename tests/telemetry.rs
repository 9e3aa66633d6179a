//! Flight-recorder invariants: telemetry must *observe* the server
//! without perturbing it, and the documents it emits must be internally
//! consistent.
//!
//! Three properties are pinned here:
//!
//! 1. **Identity** — session results (deterministic keys, fingerprints)
//!    are byte-identical with telemetry on and off, at every worker
//!    count.
//! 2. **Structural determinism** — the event log's *structure* (counts
//!    per session-bound kind, the set of attributed sessions, per-lane
//!    timestamp monotonicity) is a function of the workload, not of
//!    scheduling noise, and repeats across fixed-seed runs.
//! 3. **Attribution soundness** — per-session stage intervals are
//!    derived from one monotonic clock chain, so their sum never
//!    exceeds the session's measured latency.

use rtjava::runtime::{CheckMode, Json};
use rtjava::server::{
    run_batch, run_load, EventKind, LoadPlan, LoadReport, ServeConfig, ServeOutcome, ServerTrace,
    TelemetryConfig, Timeline, SERVER_TRACE_SCHEMA, STAGE_NAMES, TIMELINE_SCHEMA,
};
use std::collections::BTreeSet;
use std::time::Duration;

fn traced_config(workers: usize) -> ServeConfig {
    ServeConfig {
        workers,
        programs: vec!["http".into(), "game".into(), "phone".into()],
        variants: 2,
        modes: vec![CheckMode::Static, CheckMode::Dynamic, CheckMode::Audit],
        telemetry: Some(TelemetryConfig::default()),
        ..ServeConfig::default()
    }
}

fn keys(outcome: &ServeOutcome) -> Vec<String> {
    outcome
        .results
        .iter()
        .map(|r| r.deterministic_key())
        .collect()
}

fn count(trace: &ServerTrace, kind: EventKind) -> u64 {
    let idx = EventKind::ALL.iter().position(|k| *k == kind).unwrap();
    trace.counts()[idx]
}

#[test]
fn results_identical_with_telemetry_on_and_off() {
    for workers in [1usize, 4] {
        let mut off = traced_config(workers);
        off.telemetry = None;
        let base = run_batch(&off, 2).expect("serve");
        let traced = run_batch(&traced_config(workers), 2).expect("serve");
        assert!(base.telemetry.is_none());
        assert!(traced.telemetry.is_some());
        assert_eq!(
            keys(&base),
            keys(&traced),
            "telemetry perturbed results at {workers} workers"
        );
        assert_eq!(
            rtjava::server::results_fingerprint(&base.results),
            rtjava::server::results_fingerprint(&traced.results),
        );
    }
}

#[test]
fn event_structure_is_deterministic_across_runs_and_worker_counts() {
    // The *structure* of the log — how many of each session-bound event
    // were recorded, and which sessions got a full stage breakdown — is
    // a pure function of the workload. Wall-clock timestamps and
    // park/unpark/steal counts are scheduling noise and excluded.
    let bound = [
        EventKind::Submit,
        EventKind::Admit,
        EventKind::Enqueue,
        EventKind::Dequeue,
        EventKind::RunStart,
        EventKind::RunEnd,
        EventKind::Record,
    ];
    let mut reference: Option<(Vec<u64>, Vec<u64>)> = None;
    for workers in [1usize, 4] {
        for _ in 0..2 {
            let outcome = run_batch(&traced_config(workers), 2).expect("serve");
            let telemetry = outcome.telemetry.as_ref().expect("telemetry on");
            let executed = outcome.results.len() as u64;
            let counts: Vec<u64> = bound.iter().map(|k| count(&telemetry.trace, *k)).collect();
            for (kind, n) in bound.iter().zip(&counts) {
                assert_eq!(*n, executed, "{} count != executed sessions", kind.name());
            }
            let sessions: Vec<u64> = telemetry.stages.iter().map(|s| s.session).collect();
            match &reference {
                None => reference = Some((counts, sessions)),
                Some((ref_counts, ref_sessions)) => {
                    assert_eq!(*ref_counts, counts, "counts diverged at {workers} workers");
                    assert_eq!(
                        *ref_sessions, sessions,
                        "attributed sessions diverged at {workers} workers"
                    );
                }
            }
        }
    }
}

#[test]
fn single_worker_never_steals() {
    let outcome = run_batch(&traced_config(1), 2).expect("serve");
    let telemetry = outcome.telemetry.expect("telemetry on");
    assert_eq!(count(&telemetry.trace, EventKind::Steal), 0);
    assert!(telemetry
        .stages
        .iter()
        .all(|s| !s.stolen && s.steal_us == 0));
    assert_eq!(outcome.stats.stolen, 0);
}

#[test]
fn timestamps_are_monotone_per_lane() {
    let outcome = run_batch(&traced_config(4), 3).expect("serve");
    let trace = outcome.telemetry.expect("telemetry on").trace;
    assert_eq!(trace.lanes.len(), trace.workers + 1);
    for lane in &trace.lanes {
        let mut prev = 0u64;
        for ev in &lane.events {
            assert!(
                ev.ts_ns >= prev,
                "lane {} went backwards: {} then {}",
                lane.name,
                prev,
                ev.ts_ns
            );
            prev = ev.ts_ns;
        }
    }
}

#[test]
fn stage_sums_never_exceed_measured_latency() {
    // The attribution cross-check from the schema contract: every stage
    // boundary is stamped on the same monotonic clock *before* the
    // latency measurement, so admission + queue + steal + service +
    // merge ≤ the session's recorded latency.
    let outcome = run_batch(&traced_config(4), 2).expect("serve");
    let telemetry = outcome.telemetry.as_ref().expect("telemetry on");
    assert!(!telemetry.stages.is_empty());
    let executed: BTreeSet<u64> = outcome
        .results
        .iter()
        .filter(|r| r.shed.is_none())
        .map(|r| r.spec.session)
        .collect();
    let attributed: BTreeSet<u64> = telemetry.stages.iter().map(|s| s.session).collect();
    assert_eq!(
        executed, attributed,
        "attribution must cover every executed session"
    );
    for stages in &telemetry.stages {
        let result = outcome
            .results
            .iter()
            .find(|r| r.spec.session == stages.session)
            .expect("attributed session has a result");
        assert!(
            stages.total_us() <= result.latency_us,
            "session {}: stage sum {} > latency {}",
            stages.session,
            stages.total_us(),
            result.latency_us
        );
        assert_eq!(stages.stages_us().iter().sum::<u64>(), stages.total_us());
    }
}

#[test]
fn attribution_folds_into_load_report() {
    let outcome = run_batch(&traced_config(2), 2).expect("serve");
    let report = LoadReport::from_serve(&outcome, "attribution".into(), 0.0, 1);
    assert!(!report.attribution.is_empty());
    // Groups mirror the latency groups: one per (program, mode),
    // each carrying every stage with a full latency summary.
    assert_eq!(report.attribution.len(), report.groups.len());
    for group in &report.attribution {
        assert_eq!(
            group
                .stages
                .iter()
                .map(|(n, _)| n.as_str())
                .collect::<Vec<_>>(),
            STAGE_NAMES.to_vec()
        );
        for (name, summary) in &group.stages {
            assert_eq!(summary.count, group.sessions, "{name}");
            assert!(summary.p50_us <= summary.p95_us);
            assert!(summary.p99_us <= summary.max_us);
        }
    }
    let attributed: u64 = report.attribution.iter().map(|g| g.sessions).sum();
    assert_eq!(attributed, outcome.results.len() as u64);
    // The JSON document round-trips with the attribution block intact,
    // and the human report renders the stage table.
    let parsed = LoadReport::parse(&report.render()).expect("parses");
    assert_eq!(report.render(), parsed.render());
    assert_eq!(parsed.attribution.len(), report.attribution.len());
    assert!(parsed.render_report().contains("stage attribution"));
}

#[test]
fn reports_without_telemetry_have_no_attribution() {
    let mut cfg = traced_config(2);
    cfg.telemetry = None;
    let outcome = run_batch(&cfg, 1).expect("serve");
    let report = LoadReport::from_serve(&outcome, "plain".into(), 0.0, 1);
    assert!(report.attribution.is_empty());
    let parsed = LoadReport::parse(&report.render()).expect("parses");
    assert!(parsed.attribution.is_empty());
    assert!(!parsed.render_report().contains("stage attribution"));
}

#[test]
fn trace_and_timeline_documents_round_trip() {
    let outcome = run_batch(&traced_config(2), 1).expect("serve");
    let telemetry = outcome.telemetry.expect("telemetry on");

    let rendered = telemetry.trace.render();
    let parsed = ServerTrace::parse(&rendered).expect("trace parses");
    assert_eq!(rendered, parsed.render(), "trace round-trip changed bytes");
    assert_eq!(parsed.counts(), telemetry.trace.counts());
    let doc = Json::parse(&rendered).expect("valid json");
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some(SERVER_TRACE_SCHEMA)
    );

    let rendered = telemetry.timeline.render();
    let parsed = Timeline::parse(&rendered).expect("timeline parses");
    assert_eq!(
        rendered,
        parsed.render(),
        "timeline round-trip changed bytes"
    );
    let doc = Json::parse(&rendered).expect("valid json");
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some(TIMELINE_SCHEMA)
    );
}

#[test]
fn chrome_export_is_wellformed_trace_event_json() {
    let outcome = run_batch(&traced_config(2), 1).expect("serve");
    let trace = outcome.telemetry.expect("telemetry on").trace;
    let rendered = trace.to_chrome_trace().render();
    let doc = Json::parse(&rendered).expect("chrome export is valid JSON");
    let events = doc.as_arr().expect("trace_event array form");
    assert!(!events.is_empty());
    let mut metadata = 0u64;
    let mut complete = 0u64;
    for ev in events {
        let ph = ev.get("ph").and_then(Json::as_str).expect("ph");
        assert!(ev.get("pid").and_then(Json::as_u64).is_some());
        assert!(ev.get("tid").and_then(Json::as_u64).is_some());
        match ph {
            "M" => metadata += 1,
            "X" => {
                complete += 1;
                assert!(ev.get("ts").and_then(Json::as_u64).is_some());
                assert!(ev.get("dur").and_then(Json::as_u64).is_some());
            }
            "i" => {
                assert_eq!(ev.get("s").and_then(Json::as_str), Some("t"));
            }
            other => panic!("unexpected phase {other:?}"),
        }
    }
    // One thread_name record per lane; every run is a complete event.
    assert_eq!(metadata as usize, trace.lanes.len());
    assert!(complete >= count(&trace, EventKind::RunStart));
    // The JSONL export carries the same events, one per line.
    let jsonl = trace.to_trace_jsonl();
    assert_eq!(jsonl.lines().count(), events.len());
    for line in jsonl.lines() {
        Json::parse(line).expect("each JSONL line is a valid object");
    }
}

#[test]
fn injected_panic_is_traced_and_surfaced() {
    let mut cfg = traced_config(2);
    cfg.panic_session = Some(3);
    let outcome = run_batch(&cfg, 1).expect("serve");
    assert_eq!(outcome.stats.panicked, 1);
    let telemetry = outcome.telemetry.as_ref().expect("telemetry on");
    assert_eq!(count(&telemetry.trace, EventKind::Panic), 1);
    // The executor counter reaches the report and its rendering.
    let report = LoadReport::from_serve(&outcome, "panic".into(), 0.0, 1);
    assert_eq!(report.panicked, 1);
    assert!(report.render_report().contains("1 panicked"));
    let parsed = LoadReport::parse(&report.render()).expect("parses");
    assert_eq!(parsed.panicked, 1);
}

#[test]
fn sampler_tracks_completions_to_the_end() {
    let mut cfg = traced_config(2);
    cfg.telemetry = Some(TelemetryConfig {
        tick: Duration::from_micros(500),
    });
    let plan = LoadPlan {
        rate_hz: 2000.0,
        duration: Duration::from_millis(120),
        seed: 9,
    };
    let outcome = run_load(&cfg, &plan).expect("load");
    let timeline = outcome.serve.telemetry.expect("telemetry on").timeline;
    assert_eq!(timeline.tick_us, 500);
    assert!(timeline.samples.len() >= 2, "sampler produced no ticks");
    let mut prev = 0u64;
    for s in &timeline.samples {
        assert!(s.ts_us >= prev);
        prev = s.ts_us;
        assert_eq!(s.workers.len(), 2);
    }
    // The final sample is pushed after executor shutdown: it must see
    // the fully drained server.
    let last = timeline.samples.last().unwrap();
    assert_eq!(last.completed, outcome.serve.stats.completed);
    assert_eq!(last.in_flight, 0);
    assert_eq!(last.queued, 0);
}
