//! Determinism and ledger invariants of the multi-tenant server.
//!
//! Every session owns its own `Runtime` and the interpreter's scheduler
//! is deterministic, so the *virtual* outcome of a session (cycles,
//! metrics snapshot, output) is a pure function of its spec — no matter
//! how many workers the executor runs or how work-stealing interleaves
//! sessions. These tests pin that property, plus the Figure-12 ledger
//! on merged snapshots and the `rtj-load/v1` document round-trip.

use rtjava::interp::{run_checked, RunConfig};
use rtjava::runtime::{CheckMode, MetricsSnapshot};
use rtjava::server::{run_batch, LoadPlan, LoadReport, ServeConfig, ServeOutcome};
use std::time::Duration;

fn smoke_config(workers: usize) -> ServeConfig {
    ServeConfig {
        workers,
        queue_capacity: 0,
        programs: vec!["http".into(), "game".into(), "phone".into()],
        variants: 2,
        modes: vec![CheckMode::Static, CheckMode::Dynamic, CheckMode::Audit],
        ..ServeConfig::default()
    }
}

fn deterministic_keys(outcome: &ServeOutcome) -> Vec<String> {
    outcome
        .results
        .iter()
        .map(|r| r.deterministic_key())
        .collect()
}

#[test]
fn per_session_results_identical_across_worker_counts() {
    let rounds = 2;
    let baseline = run_batch(&smoke_config(1), rounds).expect("serve");
    for workers in [4, 7] {
        let outcome = run_batch(&smoke_config(workers), rounds).expect("serve");
        assert_eq!(
            deterministic_keys(&baseline),
            deterministic_keys(&outcome),
            "results diverged between 1 and {workers} workers"
        );
        // The result fingerprint agrees with the full diff.
        assert_eq!(
            rtjava::server::results_fingerprint(&baseline.results),
            rtjava::server::results_fingerprint(&outcome.results),
        );
    }
}

#[test]
fn sessions_match_standalone_runs() {
    // A session on the shared server must produce byte-identical virtual
    // results to a standalone `run_checked` of the same program — the
    // shared-state audit: nothing leaks between tenants or from the
    // serving machinery into the virtual world.
    let cfg = smoke_config(4);
    let outcome = run_batch(&cfg, 1).expect("serve");
    for result in &outcome.results {
        let src = rtjava::corpus::request_program(&result.spec.program, result.spec.variant)
            .expect("server program");
        let checked = rtjava::interp::build(&src).expect("builds");
        let solo = run_checked(&checked, RunConfig::new(result.spec.mode));
        assert_eq!(result.cycles, solo.cycles, "{:?}", result.spec);
        assert_eq!(result.output, solo.trace, "{:?}", result.spec);
        assert_eq!(
            result.metrics.render(),
            solo.metrics.render(),
            "{:?}",
            result.spec
        );
        assert!(result.error.is_none(), "{:?}", result.spec);
    }
}

#[test]
fn merged_totals_equal_sum_of_sessions_and_ledger_holds() {
    let cfg = smoke_config(6);
    let rounds = 3;
    let outcome = run_batch(&cfg, rounds).expect("serve");
    let report = LoadReport::from_serve(&outcome, "test".into(), 0.0, 1);

    // Merged per-mode totals == sums over that mode's sessions.
    for (mode, merged) in &report.mode_metrics {
        let sessions: Vec<&MetricsSnapshot> = outcome
            .results
            .iter()
            .filter(|r| r.spec.mode == *mode)
            .map(|r| &r.metrics)
            .collect();
        assert_eq!(
            merged.checks_performed(),
            sessions.iter().map(|m| m.checks_performed()).sum::<u64>()
        );
        assert_eq!(
            merged.checks_elided(),
            sessions.iter().map(|m| m.checks_elided()).sum::<u64>()
        );
        assert_eq!(
            merged.total_cycles,
            sessions.iter().map(|m| m.total_cycles).sum::<u64>()
        );
        assert_eq!(
            merged.objects_allocated,
            sessions.iter().map(|m| m.objects_allocated).sum::<u64>()
        );
    }

    // The Figure-12 ledger survives concurrent execution: the checks
    // static mode elided are exactly the checks dynamic mode performed.
    let ledger = report.ledger.expect("static and dynamic both ran");
    assert!(ledger.static_elided > 0);
    assert!(
        ledger.holds(),
        "ledger violated: static.elided={} dynamic.performed={}",
        ledger.static_elided,
        ledger.dynamic_performed
    );
}

#[test]
fn batch_runs_complete_rounds() {
    let cfg = smoke_config(3);
    let outcome = run_batch(&cfg, 2).expect("serve");
    // mix = 3 programs × 2 variants × 3 modes = 18; 2 rounds.
    assert_eq!(outcome.results.len(), 36);
    assert_eq!(outcome.stats.submitted, 36);
    assert_eq!(outcome.stats.completed, 36);
    // Every mode saw the same multiset of (program, variant).
    let report = LoadReport::from_serve(&outcome, "test".into(), 0.0, 1);
    for g in &report.groups {
        assert_eq!(g.requests, 4, "{} {:?}", g.program, g.mode);
        assert_eq!(g.failed, 0);
    }
}

#[test]
fn open_loop_load_emits_valid_report() {
    let mut cfg = smoke_config(4);
    cfg.variants = 2;
    let plan = LoadPlan {
        rate_hz: 3000.0,
        duration: Duration::from_millis(200),
        seed: 42,
    };
    let outcome = rtjava::server::run_load(&cfg, &plan).expect("load");
    assert!(outcome.serve.stats.submitted > 0);
    // Top-up made the total a whole number of mix rounds.
    let mix = (3 * 2 * 3) as u64; // programs × variants × modes
    assert_eq!(outcome.serve.stats.submitted % mix, 0);

    let report = LoadReport::from_load(&outcome, "load-test".into());
    assert_eq!(report.submitted, report.completed);
    assert_eq!(report.failed, 0);
    assert!(report.ledger.expect("ledger").holds());
    for g in &report.groups {
        assert!(g.latency.count > 0);
        assert!(g.latency.p50_us <= g.latency.p95_us);
        assert!(g.latency.p95_us <= g.latency.p99_us);
        assert!(g.latency.p99_us <= g.latency.max_us);
        assert_eq!(g.latency.hist.count(), g.requests);
    }
}

#[test]
fn load_report_round_trips_through_json() {
    let cfg = smoke_config(2);
    let outcome = run_batch(&cfg, 1).expect("serve");
    let report = LoadReport::from_serve(&outcome, "roundtrip".into(), 1234.5, 99);
    let rendered = report.render();
    let parsed = LoadReport::parse(&rendered).expect("parses");
    assert_eq!(rendered, parsed.render(), "round-trip changed the document");
    assert_eq!(report.groups.len(), parsed.groups.len());
    assert_eq!(report.peak_concurrent, parsed.peak_concurrent);
    // The rendered report is renderable too (no panics, ledger present).
    assert!(parsed.render_report().contains("figure-12 ledger"));
}

#[test]
fn deterministic_arrival_pattern_is_seed_stable() {
    // Two loads with the same seed submit the same number of windowed
    // arrivals only if wall-clock pacing kept up, which is not
    // guaranteed on a loaded CI box — so instead pin the PRNG-driven
    // spec assignment: session i always maps to the same spec.
    let cfg = smoke_config(2);
    let a = run_batch(&cfg, 1).expect("serve");
    let b = run_batch(&cfg, 1).expect("serve");
    assert_eq!(deterministic_keys(&a), deterministic_keys(&b));
}

#[test]
fn bounded_queue_serves_everything() {
    let mut cfg = smoke_config(2);
    cfg.queue_capacity = 4;
    let outcome = run_batch(&cfg, 2).expect("serve");
    assert_eq!(outcome.stats.submitted, outcome.stats.completed);
    // Backpressure bounds in-flight work: capacity + executing workers.
    assert!(outcome.stats.peak_in_flight <= 4 + 2);
}
