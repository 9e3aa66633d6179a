//! Acceptance tests for the static-checker observability layer
//! (OBSERVABILITY.md "Static-checker observability"):
//!
//! * self-profiling is opt-in (no span tree unless requested), leaves
//!   the judgment counters as they are without it, and two
//!   profiled runs at the same `--jobs` produce *structurally*
//!   identical `rtj-checker-metrics/v1` snapshots — same span tree
//!   shape, judgment counters, and interner footprint, with only the
//!   wall-clock fields free to differ;
//! * snapshots round-trip through their JSON rendering and render as a
//!   report (the `rtjc report` view) and as Chrome trace events;
//! * type errors carry judgment derivation traces: a negative corpus
//!   program produces a multi-step `≽` chain under `--explain`.

use rtjava::corpus::{all, negatives, scaled_classes, Scale};
use rtjava::lang::{diag, parse_program};
use rtjava::runtime::Json;
use rtjava::types::{
    check_program_in, CheckOptions, Checked, CheckerSnapshot, CHECKER_METRICS_SCHEMA,
};

fn checked_with_profile(source: &str, jobs: usize) -> Checked {
    let program = parse_program(source).expect("parses");
    check_program_in(
        program,
        &CheckOptions {
            jobs,
            profile: true,
        },
    )
    .expect("well-typed")
}

#[test]
fn profiling_is_opt_in() {
    let program = parse_program(&all(Scale::Smoke)[0].source).expect("parses");
    let checked = check_program_in(
        program,
        &CheckOptions {
            jobs: 2,
            ..Default::default()
        },
    )
    .expect("well-typed");
    assert!(
        checked.profile.is_none(),
        "no span tree without opts.profile"
    );
}

#[test]
fn profiling_leaves_the_judgment_counters_unchanged() {
    let program = parse_program(&scaled_classes(12)).expect("parses");
    let check = |profile| {
        check_program_in(program.clone(), &CheckOptions { jobs: 1, profile }).expect("well-typed")
    };
    let off = check(false);
    let on = check(true);
    assert!(off.profile.is_none(), "no span tree when profiling is off");
    assert!(on.profile.is_some(), "a span tree when profiling is on");
    assert_eq!(
        off.stats.judgments, on.stats.judgments,
        "profiling must not change the judgment cache traffic"
    );
}

#[test]
fn repeated_profiled_runs_are_structurally_identical() {
    // The acceptance criterion behind `rtjc check --profile=prof.json
    // --jobs 4` twice: wall times differ, structure never does.
    let source = scaled_classes(6);
    let a = checked_with_profile(&source, 4);
    let b = checked_with_profile(&source, 4);
    let sa = CheckerSnapshot::capture(&a.stats, a.profile.as_ref());
    let sb = CheckerSnapshot::capture(&b.stats, b.profile.as_ref());
    assert_eq!(
        sa.structure(),
        sb.structure(),
        "span-tree shape, judgment counters, or interner sizes drifted between runs"
    );
    // The span tree contains the pipeline phases, with per-class spans
    // nested under `classes` in declaration order.
    let names: Vec<&str> = sa.phases.iter().map(|p| p.name.as_str()).collect();
    assert_eq!(names, ["lower", "table", "wf", "classes", "main"]);
    let classes = &sa.phases[3];
    assert!(
        classes.children.len() >= 6,
        "one child span per class, got {}",
        classes.children.len()
    );
    assert!(classes.children[0].name.starts_with("class "));
}

#[test]
fn serial_and_parallel_profiles_share_their_class_span_order() {
    let source = scaled_classes(6);
    let serial = checked_with_profile(&source, 1);
    let parallel = checked_with_profile(&source, 4);
    let spans = |c: &Checked| -> Vec<String> {
        let profile = c.profile.as_ref().expect("profiled");
        profile
            .phases
            .iter()
            .find(|p| p.name == "classes")
            .expect("classes phase")
            .children
            .iter()
            .map(|s| s.name.clone())
            .collect()
    };
    assert_eq!(
        spans(&serial),
        spans(&parallel),
        "worker scheduling leaked into the span tree"
    );
}

#[test]
fn snapshot_round_trips_and_renders() {
    let checked = checked_with_profile(&all(Scale::Smoke)[0].source, 2);
    let snap = CheckerSnapshot::capture(&checked.stats, checked.profile.as_ref());
    // Versioned JSON document with the summary counter fields.
    let doc = snap.to_json();
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some(CHECKER_METRICS_SCHEMA)
    );
    for field in [
        "classes_checked",
        "methods_checked",
        "threads_used",
        "elapsed_ns",
        "cache_hits",
        "cache_misses",
    ] {
        assert!(
            doc.get(field).and_then(Json::as_u64).is_some(),
            "missing `{field}`"
        );
    }
    // Round-trip: render → parse → render is a fixed point.
    let text = snap.render();
    let back = CheckerSnapshot::parse(&text).expect("parses back");
    assert_eq!(snap, back);
    assert_eq!(text, back.render());
    // The report view (what `rtjc report` prints) names the judgment
    // families and the pipeline phases.
    let report = back.render_report();
    for needle in [
        "ownership",
        "outlives",
        "subkind",
        "classes checked",
        "phases:",
    ] {
        assert!(
            report.contains(needle),
            "report missing `{needle}`:\n{report}"
        );
    }
    // Chrome trace export: one complete event per span, all well-formed.
    let Json::Arr(events) = snap.to_chrome_trace() else {
        panic!("chrome trace must be a JSON array");
    };
    assert_eq!(events.len(), span_count(&snap));
    for ev in &events {
        assert_eq!(ev.get("ph").and_then(Json::as_str), Some("X"));
        assert!(ev.get("ts").and_then(Json::as_u64).is_some());
    }
}

fn span_count(snap: &CheckerSnapshot) -> usize {
    fn walk(spans: &[rtjava::types::PhaseSpan]) -> usize {
        spans.len() + spans.iter().map(|s| walk(&s.children)).sum::<usize>()
    }
    walk(&snap.phases)
}

#[test]
fn negative_corpus_explains_a_multi_step_outlives_chain() {
    let (_, source) = negatives()
        .into_iter()
        .find(|(name, _)| *name == "outlives-chain")
        .expect("outlives-chain negative in the corpus");
    let program = parse_program(&source).expect("parses");
    let errs = check_program_in(program, &CheckOptions::default()).expect_err("ill-typed");
    let with_chain = errs
        .iter()
        .find(|e| !e.notes.is_empty())
        .expect("at least one error carries a derivation trace");
    // The failed direction is stated, then the reverse direction's
    // evidence chain — two `≽` steps through the declared `where`
    // facts — shows why the required lifetime ordering cannot hold.
    let notes = with_chain.notes.join("\n");
    assert!(
        notes.contains("does not hold"),
        "failure statement missing:\n{notes}"
    );
    let chain_steps = with_chain
        .notes
        .iter()
        .filter(|n| n.contains('≽') && n.contains('—'))
        .count();
    assert!(
        chain_steps >= 2,
        "expected a multi-step derivation chain, got {chain_steps} step(s):\n{notes}"
    );
    // `--explain` renders the notes as secondary labels; the default
    // rendering stays byte-identical to the note-free form.
    let explained = diag::render_with_notes(
        &source,
        with_chain.span,
        &with_chain.message,
        &with_chain.notes,
    );
    assert!(explained.contains("= note:"));
    assert_eq!(
        diag::render_with_notes(&source, with_chain.span, &with_chain.message, &[]),
        diag::render(&source, with_chain.span, &with_chain.message),
    );
}

#[test]
fn derivation_notes_are_identical_across_jobs() {
    // PR 1's determinism contract extends to the notes: the explanation
    // engine replays facts in insertion order, never scheduling order.
    for (name, source) in negatives() {
        let program = parse_program(&source).unwrap_or_else(|e| panic!("{name}: {e}"));
        let serial = check_program_in(
            program.clone(),
            &CheckOptions {
                jobs: 1,
                ..Default::default()
            },
        )
        .expect_err("ill-typed");
        let parallel = check_program_in(
            program,
            &CheckOptions {
                jobs: 4,
                ..Default::default()
            },
        )
        .expect_err("ill-typed");
        assert_eq!(serial, parallel, "{name}: --jobs changed the diagnostics");
    }
}
