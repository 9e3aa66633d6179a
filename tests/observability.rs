//! The observability layer's determinism and accounting guarantees
//! (DESIGN.md §7, OBSERVABILITY.md):
//!
//! * metrics snapshots and event traces are byte-identical across
//!   repeated runs and across checker `--jobs` settings;
//! * every trace line is valid JSON with the event envelope fields;
//! * tracing is observation only: capture off and full give the same
//!   virtual clock, metrics and program output;
//! * elision accounting balances per check kind: a `Static` run elides
//!   exactly the checks the `Dynamic` run performs, because the
//!   deterministic scheduler visits the same sites.

use rtjava::corpus::{all, Scale};
use rtjava::interp::{build, run_checked, RunConfig, TraceCapture};
use rtjava::runtime::{CheckKind, CheckMode, Json, MetricsSnapshot};
use rtjava::types::{check_program_in, CheckOptions};

fn traced(mode: CheckMode) -> RunConfig {
    let mut cfg = RunConfig::new(mode);
    cfg.events = TraceCapture::Full;
    cfg
}

#[test]
fn metrics_and_traces_are_identical_across_repeated_runs() {
    for bench in all(Scale::Smoke) {
        let checked = build(&bench.source).unwrap_or_else(|e| panic!("{}: {e}", bench.name));
        let a = run_checked(&checked, traced(CheckMode::Dynamic));
        let b = run_checked(&checked, traced(CheckMode::Dynamic));
        assert!(a.error.is_none(), "{}: {:?}", bench.name, a.error);
        assert_eq!(a.metrics, b.metrics, "{}: metrics drifted", bench.name);
        assert_eq!(
            a.metrics.render(),
            b.metrics.render(),
            "{}: snapshot text drifted",
            bench.name
        );
        assert_eq!(a.events, b.events, "{}: trace drifted", bench.name);
        assert_eq!(a.cycles, b.cycles, "{}: virtual time drifted", bench.name);
    }
}

#[test]
fn metrics_and_traces_are_identical_across_checker_jobs() {
    // Checker parallelism may only change *checking* wall time — the
    // checked program, and therefore the run's metrics and trace, must
    // be bit-for-bit the same.
    for bench in all(Scale::Smoke).into_iter().take(4) {
        let program = rtjava::lang::parse_program(&bench.source)
            .unwrap_or_else(|e| panic!("{}: {}", bench.name, e.message));
        let serial = check_program_in(
            program.clone(),
            &CheckOptions {
                jobs: 1,
                ..Default::default()
            },
        )
        .unwrap_or_else(|_| panic!("{}: serial check failed", bench.name));
        let parallel = check_program_in(
            program,
            &CheckOptions {
                jobs: 4,
                ..Default::default()
            },
        )
        .unwrap_or_else(|_| panic!("{}: parallel check failed", bench.name));
        let a = run_checked(&serial, traced(CheckMode::Dynamic));
        let b = run_checked(&parallel, traced(CheckMode::Dynamic));
        assert_eq!(
            a.metrics.render(),
            b.metrics.render(),
            "{}: --jobs changed the metrics snapshot",
            bench.name
        );
        assert_eq!(
            a.events, b.events,
            "{}: --jobs changed the trace",
            bench.name
        );
    }
}

#[test]
fn trace_lines_are_valid_json_with_the_event_envelope() {
    let bench = &all(Scale::Smoke)[0];
    let checked = build(&bench.source).unwrap();
    let out = run_checked(&checked, traced(CheckMode::Dynamic));
    let events = out.events.expect("full capture requested");
    assert!(!events.is_empty(), "a run should emit events");
    let mut last_at = 0u64;
    for line in &events {
        let ev = Json::parse(line).unwrap_or_else(|e| panic!("bad JSONL `{line}`: {e}"));
        let tag = ev.get("ev").and_then(Json::as_str).expect("`ev` tag");
        assert!(!tag.is_empty());
        let at = ev.get("at").and_then(Json::as_u64).expect("`at` stamp");
        assert!(at >= last_at, "timestamps must be monotone: {line}");
        last_at = at;
    }
    // The check events carry the site taxonomy.
    let check_lines: Vec<&String> = events
        .iter()
        .filter(|l| l.contains("\"ev\":\"check\""))
        .collect();
    assert!(!check_lines.is_empty(), "dynamic run records check events");
    for line in check_lines {
        let ev = Json::parse(line).unwrap();
        let kind = ev.get("kind").and_then(Json::as_str).unwrap();
        assert!(CheckKind::parse(kind).is_some(), "unknown kind in {line}");
        assert_eq!(
            ev.get("outcome").and_then(Json::as_str),
            Some("charged"),
            "{line}"
        );
    }
}

#[test]
fn tracing_changes_neither_cycles_nor_metrics_nor_output() {
    for bench in all(Scale::Smoke) {
        let checked = build(&bench.source).unwrap_or_else(|e| panic!("{}: {e}", bench.name));
        for mode in [CheckMode::Dynamic, CheckMode::Static, CheckMode::Audit] {
            let off = run_checked(&checked, RunConfig::new(mode));
            assert!(
                off.error.is_none(),
                "{} {mode:?}: {:?}",
                bench.name,
                off.error
            );
            let traced = run_checked(&checked, traced(mode));
            let at = format!("{} {mode:?}", bench.name);
            assert_eq!(off.cycles, traced.cycles, "{at}: tracing cost virtual time");
            assert_eq!(off.metrics, traced.metrics, "{at}: tracing changed metrics");
            assert_eq!(off.trace, traced.trace, "{at}: tracing changed the output");
        }
    }
}

#[test]
fn elision_accounting_balances_per_check_kind() {
    for bench in all(Scale::Smoke) {
        let checked = build(&bench.source).unwrap_or_else(|e| panic!("{}: {e}", bench.name));
        let dynamic = run_checked(&checked, RunConfig::new(CheckMode::Dynamic));
        let static_ = run_checked(&checked, RunConfig::new(CheckMode::Static));
        let audit = run_checked(&checked, RunConfig::new(CheckMode::Audit));
        for kind in CheckKind::ALL {
            let d = dynamic.metrics.check(kind);
            let s = static_.metrics.check(kind);
            let a = audit.metrics.check(kind);
            assert_eq!(
                s.elided,
                d.performed,
                "{} {}: static must elide exactly what dynamic performs",
                bench.name,
                kind.name()
            );
            assert_eq!(s.performed, 0, "{}: static ran a check", bench.name);
            assert_eq!(d.elided, 0, "{}: dynamic elided a check", bench.name);
            assert_eq!(a.performed, d.performed, "{}", bench.name);
            assert_eq!(a.cycles, 0, "{}: audit charged cycles", bench.name);
            // Corpus programs are well-typed: no check ever fails.
            assert_eq!(d.failed + s.failed + a.failed, 0, "{}", bench.name);
        }
        assert!(
            dynamic.metrics.checks_performed() > 0,
            "{}: a corpus program should exercise at least one check site",
            bench.name
        );
    }
}

#[test]
fn snapshots_roundtrip_through_json() {
    let bench = &all(Scale::Smoke)[1];
    let checked = build(&bench.source).unwrap();
    let out = run_checked(&checked, RunConfig::new(CheckMode::Dynamic));
    let text = out.metrics.render();
    let back = MetricsSnapshot::parse(&text).unwrap();
    assert_eq!(back, out.metrics);
    assert_eq!(back.render(), text, "rendering is stable");
}
