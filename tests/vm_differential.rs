//! Differential test: the tree-walking interpreter and the bytecode VM
//! must be observationally indistinguishable on every deterministic
//! output the run model defines.
//!
//! For each corpus program (plus the scaled interpreter workload and a
//! set of error-path programs), both engines run in `Dynamic` and
//! `Audit` modes with full trace capture, and everything is compared:
//! the print trace, the final error (if any), the virtual cycle count,
//! the legacy stats, the full `rtj-metrics/v1` snapshot (both
//! structurally and as rendered bytes), the ordered structured-event
//! sequence, and the per-region peak table. Wall time and the DOT graph
//! are the only `RunOutcome` fields excluded (wall is physical;
//! the graph is excluded because it is not captured by default).
//!
//! This is the empirical half of the Figure-12 byte-identity guarantee:
//! `--engine vm` and `--engine tree` produce the same ledger, so the
//! paper's `static.elided == dynamic.performed` invariant transfers to
//! the VM unchanged.

use rtjava::corpus::programs::{all, scaled_vm_workload, Scale};
use rtjava::interp::{build, run_checked, Engine, RunConfig, RunOutcome, TraceCapture};
use rtjava::runtime::CheckMode;

/// Runs `src` on one engine with full capture.
fn run_on(src: &str, mode: CheckMode, engine: Engine) -> RunOutcome {
    let checked = build(src).expect("program builds");
    let mut cfg = RunConfig::new(mode);
    cfg.engine = engine;
    cfg.events = TraceCapture::Full;
    run_checked(&checked, cfg)
}

/// Asserts the two engines produced identical outcomes for `name`.
fn assert_identical(name: &str, src: &str, mode: CheckMode) {
    let tree = run_on(src, mode, Engine::Tree);
    let vm = run_on(src, mode, Engine::Vm);
    let ctx = format!("{name} ({mode:?})");
    assert_eq!(
        format!("{:?}", tree.error),
        format!("{:?}", vm.error),
        "{ctx}: errors differ"
    );
    assert_eq!(tree.trace, vm.trace, "{ctx}: print traces differ");
    assert_eq!(tree.cycles, vm.cycles, "{ctx}: virtual cycles differ");
    assert_eq!(tree.stats, vm.stats, "{ctx}: stats differ");
    assert_eq!(tree.metrics, vm.metrics, "{ctx}: metrics snapshots differ");
    assert_eq!(
        tree.metrics.render(),
        vm.metrics.render(),
        "{ctx}: rendered metrics documents are not byte-identical"
    );
    assert_eq!(
        tree.events, vm.events,
        "{ctx}: structured event sequences differ"
    );
    assert_eq!(
        tree.region_peaks, vm.region_peaks,
        "{ctx}: region peak tables differ"
    );
}

const MODES: [CheckMode; 2] = [CheckMode::Dynamic, CheckMode::Audit];

#[test]
fn corpus_programs_agree_across_engines() {
    for bench in all(Scale::Smoke) {
        for mode in MODES {
            assert_identical(bench.name, &bench.source, mode);
        }
    }
}

#[test]
fn scaled_vm_workload_agrees_across_engines() {
    let src = scaled_vm_workload(4);
    for mode in MODES {
        assert_identical("scaled_vm_workload:4", &src, mode);
    }
}

#[test]
fn static_mode_agrees_across_engines() {
    // Figure 12's other half: the static (checks-elided) runs must also
    // match, or the overhead ratio would depend on the engine.
    for bench in all(Scale::Smoke).into_iter().take(4) {
        assert_identical(bench.name, &bench.source, CheckMode::Static);
    }
    assert_identical(
        "scaled_vm_workload:2",
        &scaled_vm_workload(2),
        CheckMode::Static,
    );
}

/// Error paths: the engines must halt with the same message after the
/// same number of virtual cycles, with identical partial output.
#[test]
fn error_paths_agree_across_engines() {
    let cases: &[(&str, &str)] = &[
        (
            "division-by-zero",
            "{ let x = 3; print(x); let y = x - 3; let z = 10 / y; }",
        ),
        ("remainder-by-zero", "{ let x = 0; let z = 10 % x; }"),
        (
            "null-field-read",
            r#"
            class C<Owner o> { int v; }
            { (RHandle<r> h) { let C<r> c = null; print(c.v); } }
            "#,
        ),
        (
            "null-field-write",
            r#"
            class C<Owner o> { int v; }
            { (RHandle<r> h) { let C<r> c = null; c.v = 1; } }
            "#,
        ),
        (
            "null-method-call",
            r#"
            class C<Owner o> { int m() { return 1; } }
            { (RHandle<r> h) { let C<r> c = null; let x = c.m(); } }
            "#,
        ),
        (
            "unbounded-recursion",
            r#"
            class R<Owner o> { int down(int n) { return this.down(n + 1); } }
            { (RHandle<r> h) { let r0 = new R<r>; let x = r0.down(0); } }
            "#,
        ),
        (
            // The error unwinds through two open region scopes; the
            // exits must still run, in the same order, on both engines.
            "error-inside-nested-regions",
            r#"
            class C<Owner o> { int v; }
            {
                print("before");
                (RHandle<a> ha) {
                    let c = new C<a>;
                    c.v = 2;
                    (RHandle<b> hb) {
                        let d = new C<b>;
                        d.v = 0;
                        print(c.v / d.v);
                    }
                }
            }
            "#,
        ),
    ];
    for (name, src) in cases {
        for mode in MODES {
            assert_identical(name, src, mode);
        }
        let out = run_on(src, CheckMode::Dynamic, Engine::Vm);
        assert!(out.error.is_some(), "{name}: expected a runtime error");
    }
}

/// The step limit must trip at the same virtual instant on both engines.
#[test]
fn step_limit_agrees_across_engines() {
    let src = "{ let i = 0; while (true) { i = i + 1; } }";
    let checked = build(src).expect("builds");
    let outs: Vec<RunOutcome> = [Engine::Tree, Engine::Vm]
        .into_iter()
        .map(|engine| {
            let mut cfg = RunConfig::new(CheckMode::Dynamic);
            cfg.engine = engine;
            cfg.max_steps = 5_000;
            run_checked(&checked, cfg)
        })
        .collect();
    assert_eq!(
        format!("{:?}", outs[0].error),
        format!("{:?}", outs[1].error)
    );
    assert_eq!(outs[0].cycles, outs[1].cycles);
    assert_eq!(outs[0].stats, outs[1].stats);
}
