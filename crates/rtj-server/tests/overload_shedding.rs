//! Overload behaviour of the multi-tenant server: deadline shedding
//! (admission and queue), panic containment, and the `sessions.shed`
//! report surface.
//!
//! Shedding is a wall-clock decision, so these tests construct the
//! overload deterministically — a zero deadline sheds everything at
//! admission; a long per-session stall with a short deadline forces the
//! backlog past the deadline so later sessions shed in queue — rather
//! than relying on CI box timing.

use rtj_interp::Engine;
use rtj_runtime::CheckMode;
use rtj_server::{
    results_fingerprint, run_batch, LoadReport, ServeConfig, SessionResult, ShedStage,
};
use std::time::Duration;

fn small_config(workers: usize) -> ServeConfig {
    ServeConfig {
        workers,
        programs: vec!["http".into(), "game".into()],
        variants: 1,
        modes: vec![CheckMode::Static, CheckMode::Dynamic],
        engines: vec![Engine::Vm],
        ..ServeConfig::default()
    }
}

fn executed(results: &[SessionResult]) -> impl Iterator<Item = &SessionResult> {
    results.iter().filter(|r| r.shed.is_none())
}

#[test]
fn zero_deadline_sheds_every_session_at_admission() {
    let mut cfg = small_config(2);
    cfg.deadline = Some(Duration::ZERO);
    let outcome = run_batch(&cfg, 3).expect("serve");
    assert_eq!(outcome.results.len(), 12); // 2 programs × 2 modes × 3 rounds
    assert_eq!(outcome.shed.admission, 12);
    assert_eq!(outcome.shed.queue, 0);
    assert_eq!(executed(&outcome.results).count(), 0);
    for r in &outcome.results {
        assert_eq!(r.shed, Some(ShedStage::Admission));
        assert_eq!(r.cycles, 0);
        assert!(r.error.is_none());
    }
    // Shed-only runs have no executed population: no metrics, no ledger.
    let report = LoadReport::from_serve(&outcome, "shed-all".into(), 0.0, 1);
    assert_eq!(report.completed, 0);
    assert_eq!(report.submitted, 12);
    assert_eq!(report.shed_admission, 12);
    assert!(report.mode_metrics.is_empty());
    assert!(report.ledger.is_none());
    assert_eq!(report.groups.iter().map(|g| g.shed).sum::<u64>(), 12);
}

#[test]
fn slow_sessions_shed_in_queue_and_matched_ledger_still_holds() {
    // One worker, each executed session stalls 30 ms, deadline 10 ms:
    // the first claim beats its deadline, the backlog behind it cannot.
    let mut cfg = small_config(1);
    cfg.stall_us = 30_000;
    cfg.deadline = Some(Duration::from_millis(10));
    let outcome = run_batch(&cfg, 4).expect("serve");
    assert_eq!(outcome.results.len(), 16);
    assert!(
        outcome.shed.queue > 0,
        "expected queue shedding, got {:?}",
        outcome.shed
    );
    let ran = executed(&outcome.results).count();
    assert!(ran >= 1, "at least the first claim executes");
    assert_eq!(ran as u64 + outcome.shed.total(), 16);

    let report = LoadReport::from_serve(&outcome, "shed-queue".into(), 0.0, 1);
    assert_eq!(report.completed as usize, ran);
    assert_eq!(report.shed_queue, outcome.shed.queue);
    // The matched-population ledger holds exactly even though shedding
    // unbalanced the modes: per (program, variant), only
    // min(static, dynamic) executed sessions of each mode are compared.
    if let Some(ledger) = report.ledger {
        assert!(
            ledger.holds(),
            "matched ledger violated: {} != {}",
            ledger.static_elided,
            ledger.dynamic_performed
        );
    }
}

#[test]
fn shed_sessions_do_not_perturb_the_fingerprint() {
    // The byte-identity witness covers executed sessions only, so a run
    // that shed nothing and a run that shed everything-but-one-round
    // can still be compared on what actually ran.
    let clean = run_batch(&small_config(2), 1).expect("serve");
    let all_shed = {
        let mut cfg = small_config(2);
        cfg.deadline = Some(Duration::ZERO);
        run_batch(&cfg, 1).expect("serve")
    };
    assert_ne!(
        results_fingerprint(&clean.results),
        results_fingerprint(&[]),
        "executed sessions must contribute"
    );
    assert_eq!(
        results_fingerprint(&all_shed.results),
        results_fingerprint(&[]),
        "shed sessions must not contribute"
    );
}

#[test]
fn panicking_session_is_contained_and_round_completes() {
    let mut cfg = small_config(3);
    cfg.panic_session = Some(2);
    let outcome = run_batch(&cfg, 2).expect("serve");
    assert_eq!(outcome.results.len(), 8, "the round completed");
    let poisoned = &outcome.results[2];
    assert_eq!(poisoned.spec.session, 2);
    let err = format!("{:?}", poisoned.error.as_ref().expect("recorded as failed"));
    assert!(err.contains("panicked"), "unexpected error: {err}");
    assert_eq!(poisoned.cycles, 0);
    for r in outcome.results.iter().filter(|r| r.spec.session != 2) {
        assert!(r.error.is_none(), "bystander session failed: {:?}", r.spec);
    }
    let report = LoadReport::from_serve(&outcome, "panic".into(), 0.0, 1);
    assert_eq!(report.failed, 1);
    assert_eq!(report.completed, 8);
}

#[test]
fn shed_counts_round_trip_through_the_load_document() {
    let mut cfg = small_config(2);
    cfg.stall_us = 30_000;
    cfg.deadline = Some(Duration::from_millis(10));
    let outcome = run_batch(&cfg, 4).expect("serve");
    let report = LoadReport::from_serve(&outcome, "roundtrip".into(), 0.0, 7);
    let parsed = LoadReport::parse(&report.render()).expect("parses");
    assert_eq!(report.render(), parsed.render());
    assert_eq!(parsed.shed_admission, report.shed_admission);
    assert_eq!(parsed.shed_queue, report.shed_queue);
    assert_eq!(
        parsed.groups.iter().map(|g| g.shed).sum::<u64>(),
        report.shed_total()
    );
    if report.shed_total() > 0 {
        assert!(parsed.render_report().contains("shed"));
    }
}
