//! Differential test: the tree-walking interpreter and the bytecode VM
//! must be observationally indistinguishable on every deterministic
//! output the run model defines.
//!
//! For each corpus program (plus the scaled interpreter workload and a
//! set of error-path programs), both engines run in `Dynamic` and
//! `Audit` modes with full trace capture, and everything is compared:
//! the print trace, the final error (if any), the virtual cycle count,
//! the full `rtj-metrics/v1` snapshot (both structurally and as
//! rendered bytes), the ordered structured-event sequence, and the
//! per-region peak table, and the Figure-6 ownership graph. Wall time
//! is the only `RunOutcome` field excluded: it is physical.
//!
//! This is the empirical half of the Figure-12 byte-identity guarantee:
//! the VM and the tree-walker produce the same ledger, so the paper's
//! `static.elided == dynamic.performed` invariant transfers to the VM
//! unchanged. Everything outside the tests runs the VM; the tree-walker
//! is kept as this oracle.
//!
//! Programs that fork are also run repeatedly: the machine's scheduler
//! decides their interleaving, and every run must repeat the first one
//! exactly. Both engines share that scheduler, so engine agreement
//! cannot see a change to its policy; pinned digests of the outcomes
//! can. For the same reason the ownership graphs of four programs are
//! pinned by digest: both engines draw them from the one runtime.

use rtjava::corpus::programs::{all, request_variants, scaled_vm_workload, Scale};
use rtjava::corpus::SERVER_PROGRAMS;
use rtjava::interp::bytecode::{compile, Op};
use rtjava::interp::eval::ProgramData;
use rtjava::interp::{build, run_checked, Engine, RunConfig, RunError, RunOutcome, TraceCapture};
use rtjava::lang::fingerprint::Fnv64;
use rtjava::runtime::CheckMode;
use std::sync::Arc;

/// Runs `src` on one engine with full capture.
fn run_on(src: &str, mode: CheckMode, engine: Engine) -> RunOutcome {
    run_cfg(src, mode, engine, false)
}

/// Heap bytes between collections when a run turns the collector on:
/// 1/32 of the default, so a few thousand allocations start several
/// collections.
const GC_THRESHOLD_BYTES: u64 = 32 << 10;

/// Runs `src` on one engine with full capture, the collector on or off.
fn run_cfg(src: &str, mode: CheckMode, engine: Engine, gc: bool) -> RunOutcome {
    let checked = build(src).expect("program builds");
    let mut cfg = RunConfig::new(mode);
    cfg.engine = engine;
    cfg.events = TraceCapture::Full;
    cfg.capture_graph = true;
    cfg.gc_enabled = gc;
    cfg.cost.gc_threshold_bytes = GC_THRESHOLD_BYTES;
    run_checked(&checked, cfg)
}

/// Asserts the two engines produced identical outcomes for `name`.
fn assert_identical(name: &str, src: &str, mode: CheckMode) {
    let tree = run_on(src, mode, Engine::Tree);
    let vm = run_on(src, mode, Engine::Vm);
    assert_same(&format!("{name} ({mode:?})"), &tree, &vm);
}

/// Asserts two outcomes agree on every deterministic field.
fn assert_same(ctx: &str, a: &RunOutcome, b: &RunOutcome) {
    assert_eq!(
        format!("{:?}", a.error),
        format!("{:?}", b.error),
        "{ctx}: errors differ"
    );
    assert_eq!(a.trace, b.trace, "{ctx}: print traces differ");
    assert_eq!(a.cycles, b.cycles, "{ctx}: virtual cycles differ");
    assert_eq!(a.metrics, b.metrics, "{ctx}: metrics snapshots differ");
    assert_eq!(
        a.metrics.render(),
        b.metrics.render(),
        "{ctx}: rendered metrics documents are not byte-identical"
    );
    assert_eq!(
        a.events, b.events,
        "{ctx}: structured event sequences differ"
    );
    assert_eq!(
        a.region_peaks, b.region_peaks,
        "{ctx}: region peak tables differ"
    );
    assert_eq!(a.graph, b.graph, "{ctx}: ownership graphs differ");
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

/// The programs the server serves, two request variants each, in every
/// check mode. The server runs them on the VM only, so this is where
/// they meet the oracle.
#[test]
fn served_request_variants_agree_across_engines() {
    for name in SERVER_PROGRAMS {
        let variants = request_variants(name, 2).expect("a server program");
        for (variant, src) in variants.iter().enumerate() {
            for mode in CHECK_MODES {
                assert_identical(&format!("{name} variant {variant}"), src, mode);
            }
        }
    }
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
            // The region exit that unwinds the error flushes the steps
            // pending at the failing division, which no runtime call
            // flushed before it.
            "division-by-zero-inside-a-region",
            "{ (RHandle<r> h) { let x = 0; let y = 10 / x; } }",
        ),
        (
            // A null receiver fails at the receiver check, before the
            // arguments, with the call's steps pending.
            "null-receiver-with-arguments-inside-a-region",
            r#"
            class C<Owner o> { int m(int a) { return a; } }
            { (RHandle<r> h) { let C<r> c = null; let y = c.m(1); } }
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
    assert_eq!(outs[0].metrics, outs[1].metrics);
}

/// Runs `src` on one engine with full capture and a step budget.
fn run_budget(src: &str, mode: CheckMode, engine: Engine, max_steps: u64) -> RunOutcome {
    let checked = build(src).expect("program builds");
    let mut cfg = RunConfig::new(mode);
    cfg.engine = engine;
    cfg.events = TraceCapture::Full;
    cfg.capture_graph = true;
    cfg.max_steps = max_steps;
    run_checked(&checked, cfg)
}

/// Every Smoke corpus program and served request variant, by name.
fn smoke_and_served() -> Vec<(String, String)> {
    let mut programs: Vec<(String, String)> = all(Scale::Smoke)
        .into_iter()
        .map(|b| (b.name.to_string(), b.source))
        .collect();
    for name in SERVER_PROGRAMS {
        let variants = request_variants(name, 2).expect("a server program");
        for (variant, src) in variants.into_iter().enumerate() {
            programs.push((format!("{name} variant {variant}"), src));
        }
    }
    programs
}

/// The number of steps `src` runs in `mode`: the smallest budget it
/// completes within, found by bisection on the VM. Every step costs at
/// least a cycle, so the cycle count bounds it.
fn step_count(src: &str, mode: CheckMode) -> u64 {
    let (mut trips, mut completes) = (0, run_on(src, mode, Engine::Vm).cycles);
    while completes - trips > 1 {
        let mid = trips + (completes - trips) / 2;
        match run_budget(src, mode, Engine::Vm, mid).error {
            Some(RunError::StepLimit) => trips = mid,
            _ => completes = mid,
        }
    }
    completes
}

/// The step budget trips at the same instant on both engines wherever
/// it falls: at 1/8 … 7/8 of each program's run, in Dynamic and Static
/// mode. Steps are charged by the ops that carry them, so a budget can
/// run out at any flush point, not only at a loop head. The eighths are
/// of the step count, not the cycle count: `io` cycles make some served
/// programs' steps less than an eighth of their cycles.
#[test]
fn step_limit_agrees_at_many_budgets() {
    for (name, src) in smoke_and_served() {
        let mut tripped = false;
        for mode in [CheckMode::Dynamic, CheckMode::Static] {
            let steps = step_count(&src, mode);
            for eighth in 1..8 {
                // A budget of 0 would mean no budget at all.
                let budget = (steps * eighth / 8).max(1);
                let tree = run_budget(&src, mode, Engine::Tree, budget);
                let vm = run_budget(&src, mode, Engine::Vm, budget);
                assert_same(&format!("{name} ({mode:?}, budget {budget})"), &tree, &vm);
                tripped |= vm.error == Some(RunError::StepLimit);
            }
        }
        assert!(tripped, "{name}: no budget tripped the step limit");
    }
}

/// A small program with a field store, a call, an `if` and a loop, run
/// under every budget from 1 to 300 steps: each flush point in turn is
/// where the budget runs out.
#[test]
fn step_limit_agrees_at_every_small_budget() {
    let src = r#"
        class Acc<Owner o> {
            int total;
            void add(int v) { this.total = this.total + v; }
        }
        {
            (RHandle<r> h) {
                let a = new Acc<r>;
                let i = 0;
                while (i < 12) {
                    if (i % 2 == 0) { a.add(i); } else { a.total = a.total - 1; }
                    i = i + 1;
                }
                print(a.total);
            }
        }
    "#;
    for mode in [CheckMode::Dynamic, CheckMode::Static] {
        let mut tripped = 0;
        for budget in 1..=300 {
            let tree = run_budget(src, mode, Engine::Tree, budget);
            let vm = run_budget(src, mode, Engine::Vm, budget);
            assert_same(&format!("budget {budget} ({mode:?})"), &tree, &vm);
            tripped += usize::from(vm.error == Some(RunError::StepLimit));
        }
        assert!(tripped > 0, "{mode:?}: no budget tripped the step limit");
        assert!(tripped < 300, "{mode:?}: no budget let the program finish");
    }
}

/// The compiled code of every function of `src`.
fn bytecode_of(src: &str) -> Vec<Vec<Op>> {
    let checked = build(src).expect("program builds");
    let data = ProgramData::new(Arc::clone(&checked.program), checked.table.clone());
    compile(&data).funcs.into_iter().map(|f| f.code).collect()
}

/// The fused ops' names.
const FUSED: [&str; 5] = [
    "LoadLocal2",
    "LoadLocalNull",
    "LoadLocalField",
    "BinaryInt",
    "BinaryJumpIfFalse",
];

/// The name of a fused op, `None` for any other op.
fn fused_kind(op: &Op) -> Option<&'static str> {
    Some(match op {
        Op::LoadLocal2(..) => "LoadLocal2",
        Op::LoadLocalNull(_) => "LoadLocalNull",
        Op::LoadLocalField { .. } => "LoadLocalField",
        Op::BinaryInt { .. } => "BinaryInt",
        Op::BinaryJumpIfFalse { .. } => "BinaryJumpIfFalse",
        _ => return None,
    })
}

/// The bytecode's shape: an op is 16 bytes; a `Step` survives only in
/// front of a jump target, where the jumps in must not pay it; and every
/// fused op occurs in a program the engines are compared on here.
#[test]
fn bytecode_carries_steps_on_ops_and_fuses_pairs() {
    assert_eq!(std::mem::size_of::<Op>(), 16);
    let mut programs = smoke_and_served();
    for bench in all(Scale::Paper) {
        programs.push((format!("{} (paper)", bench.name), bench.source));
    }
    for (name, src) in &programs {
        for (f, code) in bytecode_of(src).iter().enumerate() {
            let targets: Vec<u32> = code.iter().filter_map(Op::target).collect();
            for (i, pair) in code.windows(2).enumerate() {
                let next = i as u32 + 1;
                if let [Op::Step(_), op] = pair {
                    assert!(
                        op.steps().is_none() || targets.contains(&next),
                        "{name}: function {f} op {i}: a Step before {op:?}, which carries steps"
                    );
                }
            }
        }
    }
    // The programs `corpus_programs_agree_across_engines` and
    // `served_request_variants_agree_across_engines` run.
    let compared: Vec<&str> = smoke_and_served()
        .iter()
        .flat_map(|(_, src)| bytecode_of(src).into_iter().flatten())
        .filter_map(|op| fused_kind(&op))
        .collect();
    for kind in FUSED {
        assert!(
            compared.contains(&kind),
            "no compared program has a {kind}, so the oracle never checks it"
        );
    }
}

/// FNV-1a digest of every deterministic field of an outcome: error,
/// print trace, cycles, the rendered metrics document, the event
/// stream and the region peaks.
fn digest(out: &RunOutcome) -> u64 {
    let mut h = Fnv64::new();
    h.write_str(&format!("{:?}", out.error));
    for line in &out.trace {
        h.write_str(line);
    }
    h.write_u64(out.cycles);
    h.write_str(&out.metrics.render());
    for line in out.events.iter().flatten() {
        h.write_str(line);
    }
    h.write_str(&format!("{:?}", out.region_peaks));
    h.finish()
}

/// How many times each forking program is run per engine and mode.
const REPEATS: usize = 10;

const CHECK_MODES: [CheckMode; 3] = [CheckMode::Dynamic, CheckMode::Static, CheckMode::Audit];

/// Runs `src` `REPEATS` times on each engine in `mode`, asserts every
/// run matches the first tree run, and returns that run's digest.
fn repeat_and_digest(name: &str, src: &str, mode: CheckMode, gc: bool) -> u64 {
    let first = run_cfg(src, mode, Engine::Tree, gc);
    if gc {
        assert!(
            first.metrics.gc_collections > 1,
            "{name}: the collector ran"
        );
    }
    for engine in [Engine::Tree, Engine::Vm] {
        for i in 0..REPEATS {
            let again = run_cfg(src, mode, engine, gc);
            assert_same(
                &format!("{name} ({mode:?}, {engine:?}, run {i})"),
                &first,
                &again,
            );
        }
    }
    digest(&first)
}

/// Figure 8's producer and consumer (`tests/paper_examples.rs`): two
/// forked threads hand frames through a flushed subregion.
const PRODUCER_CONSUMER: &str = r#"
    regionKind BufferRegion extends SharedRegion {
        subregion BufferSubRegion : LT(4096) NoRT b;
        Token<this> produced;
        Token<this> consumed;
    }
    regionKind BufferSubRegion extends SharedRegion {
        Frame<this> f;
    }
    class Token<Owner o> { int n; }
    class Frame<Owner o> { int data; }
    class Producer<BufferRegion r> {
        void run(RHandle<r> h, int iters) accesses r, heap {
            let i = 0;
            while (i < iters) {
                let c = h.consumed;
                while (c == null || c.n != i) { yield(); c = h.consumed; }
                (RHandle<BufferSubRegion r2> h2 = h.b) {
                    let frame = new Frame<r2>;
                    frame.data = 10 + i;
                    h2.f = frame;
                }
                let t = new Token<r>;
                t.n = i + 1;
                h.produced = t;
                i = i + 1;
            }
        }
    }
    class Consumer<BufferRegion r> {
        void run(RHandle<r> h, int iters) accesses r, heap {
            let i = 0;
            while (i < iters) {
                let p = h.produced;
                while (p == null || p.n != i + 1) { yield(); p = h.produced; }
                (RHandle<BufferSubRegion r2> h2 = h.b) {
                    let frame = h2.f;
                    print(frame.data);
                    h2.f = null;
                }
                let t = new Token<r>;
                t.n = i + 1;
                h.consumed = t;
                i = i + 1;
            }
        }
    }
    {
        (RHandle<BufferRegion : VT r> h) {
            let kick = new Token<r>;
            kick.n = 0;
            h.consumed = kick;
            fork (new Producer<r>).run(h, 4);
            fork (new Consumer<r>).run(h, 4);
        }
    }
"#;

/// The GC storm beside a real-time thread (`tests/runtime_behavior.rs`,
/// with 2,000 allocations instead of 30,000), run with the collector
/// on: the regular churner is paused by every collection while the `RT
/// fork`ed sensor keeps its turns.
const GC_CHURN_RT_FORK: &str = r#"
    regionKind SensorRegion extends SharedRegion {
        subregion ScratchRegion : LT(4096) RT scratch;
        Reading<this> latest;
    }
    regionKind ScratchRegion extends SharedRegion { }
    class Reading<Owner o> { int seq; }
    class Blob<Owner o> { int a; int b; int c; int d; }
    class Churner<Owner o> {
        void run(int n) accesses heap {
            let i = 0;
            while (i < n) {
                let b = new Blob<heap>;
                b.a = i;
                i = i + 1;
            }
        }
    }
    class Sensor<SensorRegion r> {
        void run(RHandle<r> h, int periods) accesses r, RT {
            let p = 0;
            while (p < periods) {
                (RHandle<ScratchRegion s> hs = h.scratch) {
                    let rd = new Reading<r>;
                    rd.seq = p + 1;
                    h.latest = rd;
                }
                p = p + 1;
            }
        }
    }
    {
        (RHandle<SensorRegion : LT(65536) r> h) {
            fork (new Churner<heap>).run(2000);
            RT fork (new Sensor<r>).run(h, 8);
            let done = false;
            while (!done) {
                let rd = h.latest;
                if (rd != null && rd.seq == 8) { done = true; }
                yield();
            }
            print("rt finished");
        }
    }
"#;

/// The sensor pipeline of `examples/realtime_pipeline.rs`: an `RT
/// fork`ed sensor reduces windows in a flushed LT subregion while the
/// main thread watches the portal.
const REALTIME_PIPELINE: &str = r#"
    regionKind SensorRegion extends SharedRegion {
        subregion ScratchRegion : LT(8192) RT scratch;
        Reading<this> latest;
    }
    regionKind ScratchRegion extends SharedRegion { }
    class Reading<Owner o> { int value; int seq; }
    class Sample<Owner o> { int raw; Sample<o> next; }
    class Sensor<SensorRegion r> {
        void run(RHandle<r> h, int periods) accesses r, RT {
            let p = 0;
            while (p < periods) {
                (RHandle<ScratchRegion s> hs = h.scratch) {
                    let Sample<s> window = null;
                    let i = 0;
                    while (i < 16) {
                        let smp = new Sample<s>;
                        smp.raw = p * 16 + i;
                        smp.next = window;
                        window = smp;
                        i = i + 1;
                    }
                    let sum = 0;
                    let w = window;
                    while (w != null) {
                        sum = sum + w.raw;
                        w = w.next;
                    }
                    let rd = new Reading<r>;
                    rd.value = sum / 16;
                    rd.seq = p + 1;
                    h.latest = rd;
                }
                p = p + 1;
            }
        }
    }
    {
        (RHandle<SensorRegion : LT(65536) r> h) {
            RT fork (new Sensor<r>).run(h, 4);
            let last = 0;
            while (last < 4) {
                let rd = h.latest;
                if (rd != null && rd.seq > last) {
                    print(rd.value);
                    last = rd.seq;
                }
                yield();
            }
        }
    }
"#;

/// Each forking program (with the collector on or off) and its pinned
/// digests in Dynamic, Static and Audit mode.
const FORKING: &[(&str, &str, bool, [u64; 3])] = &[
    (
        "producer-consumer",
        PRODUCER_CONSUMER,
        false,
        [0x4a0a9404dd53684f, 0x7322c618cd2f3cf8, 0x2ccb4d276e70e6de],
    ),
    (
        "gc-churn-rt-fork",
        GC_CHURN_RT_FORK,
        true,
        [0x24d31c8a85f9daa7, 0x8610f74c84a6f238, 0x31d652ef09e85820],
    ),
    (
        "realtime-pipeline",
        REALTIME_PIPELINE,
        false,
        [0x904896689053a386, 0x1eea5a9d2ca6bb49, 0x31290a6a775ab7d5],
    ),
    (
        "halt-among-waiters",
        HALT_AMONG_WAITERS,
        false,
        [0xc315521c4c863416, 0x915964125e10e0d2, 0xf66cbed4ec579a36],
    ),
];

/// Two forked threads wait on a portal inside a local region while a
/// third dereferences null after three yields. The halt reaches the
/// waiters in a fixed order, so their region exits and thread stops
/// repeat exactly.
const HALT_AMONG_WAITERS: &str = r#"
    regionKind Mailbox extends SharedRegion {
        Note<this> note;
    }
    class Note<Owner o> { int v; }
    class Cell<Owner o> { int v; }
    class Waiter<Mailbox r> {
        void run(RHandle<r> h) accesses r, heap {
            (RHandle<w> hw) {
                let c = new Cell<w>;
                let n = h.note;
                while (n == null) {
                    c.v = c.v + 1;
                    yield();
                    n = h.note;
                }
            }
        }
    }
    class Crasher<Mailbox r> {
        void run(RHandle<r> h) accesses r {
            let i = 0;
            while (i < 3) {
                yield();
                i = i + 1;
            }
            let Note<r> n = null;
            print(n.v);
        }
    }
    {
        (RHandle<Mailbox : VT r> h) {
            fork (new Waiter<r>).run(h);
            fork (new Waiter<r>).run(h);
            fork (new Crasher<r>).run(h);
            let n = h.note;
            while (n == null) {
                yield();
                n = h.note;
            }
        }
    }
"#;

/// Forking programs agree across engines, repeat exactly, and keep
/// their pinned outcomes.
#[test]
fn forking_programs_are_deterministic_and_pinned() {
    let mut moved = Vec::new();
    for (name, src, gc, pinned) in FORKING {
        let error = run_on(src, CheckMode::Dynamic, Engine::Vm).error;
        assert_eq!(
            error.is_some(),
            name.starts_with("halt"),
            "{name}: {error:?}"
        );
        for (mode, want) in CHECK_MODES.into_iter().zip(pinned) {
            let got = repeat_and_digest(name, src, mode, *gc);
            if got != *want {
                moved.push(format!(
                    "{name} ({mode:?}): {got:#018x}, pinned {want:#018x}"
                ));
            }
        }
    }
    assert!(moved.is_empty(), "digests moved:\n{}", moved.join("\n"));
}

/// Pinned FNV-1a digests of the ownership graph (the paper's Figure 6,
/// `RunOutcome::graph`) left by a run in Dynamic and Static mode. The
/// drawing shows each object solid or dotted by liveness with its
/// first-owner edge, and each region with its outlives edges, so a pin
/// sees a change to which objects a run leaves dead, to an object's
/// first owner, or to what a new region records as outliving it. The
/// corpus programs run at Paper scale.
const GRAPHS: &[(&str, [u64; 2])] = &[
    ("http", [0x4577c26e69524020, 0x4577c26e69524020]),
    ("phone", [0x9b10e18f0c9c3066, 0x9b10e18f0c9c3066]),
    ("save", [0xb808de143c4d7fbb, 0xb808de143c4d7fbb]),
    (
        "producer-consumer",
        [0xb7e5e4d4d2c4ad30, 0xb7e5e4d4d2c4ad30],
    ),
];

/// The source of a pinned graph's program.
fn graph_source(name: &str) -> String {
    if name == "producer-consumer" {
        return PRODUCER_CONSUMER.to_string();
    }
    all(Scale::Paper)
        .into_iter()
        .find(|b| b.name == name)
        .expect("a corpus program")
        .source
}

/// Runs `src` on one engine and captures the ownership graph but no
/// event trace: the Paper-scale programs allocate up to 69,633 objects.
fn run_graph(src: &str, mode: CheckMode, engine: Engine) -> RunOutcome {
    let checked = build(src).expect("program builds");
    let mut cfg = RunConfig::new(mode);
    cfg.engine = engine;
    cfg.capture_graph = true;
    run_checked(&checked, cfg)
}

/// Both engines draw the same ownership graph, and it keeps its pinned
/// digest.
#[test]
fn ownership_graphs_agree_and_are_pinned() {
    let mut moved = Vec::new();
    for (name, pinned) in GRAPHS {
        let src = graph_source(name);
        for (mode, want) in [CheckMode::Dynamic, CheckMode::Static]
            .into_iter()
            .zip(pinned)
        {
            let tree = run_graph(&src, mode, Engine::Tree);
            let vm = run_graph(&src, mode, Engine::Vm);
            assert_same(&format!("{name} ({mode:?})"), &tree, &vm);
            assert!(vm.error.is_none(), "{name} ({mode:?}): {:?}", vm.error);
            let graph = vm.graph.expect("the graph is captured");
            let mut h = Fnv64::new();
            h.write_str(&graph);
            let got = h.finish();
            if got != *want {
                moved.push(format!(
                    "{name} ({mode:?}): {got:#018x}, pinned {want:#018x}"
                ));
            }
        }
    }
    assert!(
        moved.is_empty(),
        "graph digests moved:\n{}",
        moved.join("\n")
    );
}
