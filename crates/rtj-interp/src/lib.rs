//! Interpreter for the core real-time Java-like language, executing on
//! the simulated RTSJ region runtime (`rtj-runtime`).
//!
//! The interpreter runs *checked* programs (see [`rtj_types::check_program`])
//! in one of three check modes:
//!
//! * [`CheckMode::Dynamic`] — the RTSJ baseline: every reference load and
//!   store pays for the dynamic memory-area checks;
//! * [`CheckMode::Static`] — the paper's contribution: the type system
//!   guarantees the checks cannot fail, so they are elided;
//! * [`CheckMode::Audit`] — checks run at zero cost and any failure is
//!   reported, which the test-suite uses to validate Theorems 3 and 4.
//!
//! Figure 12 of the paper is exactly `Dynamic` vs `Static` on the same
//! program.
//!
//! # Example
//!
//! ```
//! use rtj_interp::{run_source, RunConfig};
//! use rtj_runtime::CheckMode;
//!
//! let src = r#"
//!     class Cell<Owner o> { int v; }
//!     {
//!         (RHandle<r> h) {
//!             let c = new Cell<r>;
//!             c.v = 41;
//!             c.v = c.v + 1;
//!             print(c.v);
//!         }
//!     }
//! "#;
//! let out = run_source(src, RunConfig::new(CheckMode::Dynamic)).unwrap();
//! assert_eq!(out.trace, vec!["42"]);
//! assert!(out.error.is_none());
//! ```

#![warn(missing_docs)]

pub mod bytecode;
pub mod eval;
pub mod layout;
mod machine;
pub mod vm;

use eval::{Evaluator, ProgramData};
pub use machine::RunError;
use machine::{Machine, State};
use rtj_runtime::{CheckMode, CostModel, MetricsSnapshot, Runtime, ThreadId};
use rtj_types::Checked;
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How structured trace events are captured during a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceCapture {
    /// No tracing (the default): the runtime pays one `Option` test per
    /// emission point and constructs no events.
    #[default]
    Off,
    /// Keep every event (JSONL lines in [`RunOutcome::events`]).
    Full,
}

/// Which execution engine interprets the program: the oracle's selector.
///
/// Both engines run on the same scheduler and runtime and produce
/// byte-identical virtual-cycle accounting, `rtj-metrics/v1` snapshots,
/// and trace event sequences; they differ only in host-level speed.
/// Everything outside the tests runs the VM; the tree-walker is the
/// semantics oracle that `tests/vm_differential.rs` and the
/// benchmark's correctness gate compare it against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// The reference tree-walking interpreter ([`eval::Evaluator`]).
    Tree,
    /// The bytecode VM with inline caches ([`vm::Vm`]) — the default.
    #[default]
    Vm,
}

/// Configuration for one run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// How the RTSJ dynamic checks are handled.
    pub mode: CheckMode,
    /// The platform cost model.
    pub cost: CostModel,
    /// Whether the simulated garbage collector runs (off by default, as in
    /// the paper's Figure 12 measurements).
    pub gc_enabled: bool,
    /// Interpreter step budget across all threads (0 = unlimited).
    pub max_steps: u64,
    /// Capture a post-run ownership/outlives graph (DOT) in
    /// [`RunOutcome::graph`] — the paper's Figure 6 rendering.
    pub capture_graph: bool,
    /// Structured-event capture (off by default).
    pub events: TraceCapture,
    /// The execution engine ([`Engine::Vm`] by default; the tests set
    /// [`Engine::Tree`] to run the oracle).
    pub engine: Engine,
    /// Session (tenant) identifier stamped on the run's [`Runtime`] — `0`
    /// for standalone runs; the multi-tenant server (`rtj-server`) assigns
    /// each session a distinct id.
    pub session: u64,
}

impl RunConfig {
    /// A configuration with the default cost model, no GC, and a generous
    /// step budget.
    pub fn new(mode: CheckMode) -> RunConfig {
        RunConfig {
            mode,
            cost: CostModel::default(),
            gc_enabled: false,
            max_steps: 500_000_000,
            capture_graph: false,
            events: TraceCapture::Off,
            engine: Engine::default(),
            session: 0,
        }
    }
}

/// The result of a run.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Virtual cycles consumed (the paper's "execution time").
    pub cycles: u64,
    /// The full per-check-kind metrics snapshot (`rtj-metrics/v1`):
    /// counters, elision accounting, and cost histograms. Deterministic —
    /// identical for identical programs, regardless of tracing, wall
    /// time, or checker parallelism.
    pub metrics: MetricsSnapshot,
    /// Output of `print`.
    pub trace: Vec<String>,
    /// Structured trace events as JSONL lines, when
    /// [`RunConfig::events`] requested capture.
    pub events: Option<Vec<String>>,
    /// The error that halted the run, if any.
    pub error: Option<RunError>,
    /// Wall-clock duration of the interpretation.
    pub wall: Duration,
    /// Post-run ownership graph in DOT form, when requested.
    pub graph: Option<String>,
    /// Per-region peak usage `(label, policy, peak bytes, capacity
    /// bytes)`, for LT sizing advice.
    pub region_peaks: Vec<(String, rtj_runtime::AllocPolicy, u64, u64)>,
}

/// An error turning source text into a runnable program.
#[derive(Debug, Clone)]
pub enum BuildError {
    /// The source did not parse.
    Parse(rtj_lang::ParseError),
    /// The program is not well-typed.
    Type(Vec<rtj_types::TypeError>),
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::Parse(e) => write!(f, "{e}"),
            BuildError::Type(errs) => {
                for e in errs {
                    writeln!(f, "{e}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for BuildError {}

/// Parses and type-checks source text.
///
/// # Errors
///
/// Returns [`BuildError`] on parse or type errors.
pub fn build(src: &str) -> Result<Checked, BuildError> {
    let program = rtj_lang::parse_program(src).map_err(BuildError::Parse)?;
    rtj_types::check_program_in(program, &rtj_types::CheckOptions::default())
        .map_err(BuildError::Type)
}

/// A checked program prepared for repeated execution: the elaborated
/// program data (the checked AST, shared with the [`Checked`] it came
/// from, its class table and field layouts) and the compiled bytecode,
/// both behind `Arc`s.
///
/// Preparing once and calling [`run_prepared`] many times — possibly from
/// many threads at once — is the multi-tenant serving path (`rtj-server`):
/// every run gets a fresh, fully isolated [`Runtime`], while the immutable
/// program artifacts are shared by reference. [`run_checked`] is the
/// one-shot convenience over the same pair.
#[derive(Clone)]
pub struct Prepared {
    data: Arc<ProgramData>,
    bytecode: Arc<bytecode::CompiledProgram>,
}

/// Elaborates and compiles a checked program for (repeated) execution.
pub fn prepare(checked: &Checked) -> Prepared {
    let data = Arc::new(ProgramData::new(
        Arc::clone(&checked.program),
        checked.table.clone(),
    ));
    let bytecode = Arc::new(bytecode::compile(&data));
    Prepared { data, bytecode }
}

/// Runs a checked program.
pub fn run_checked(checked: &Checked, cfg: RunConfig) -> RunOutcome {
    run_prepared(&prepare(checked), cfg)
}

/// Runs a prepared program on a fresh, session-local [`Runtime`].
///
/// Reentrant: `&Prepared` is immutable shared state, every mutable piece
/// of run state (runtime, scheduler, engine frames, inline caches) is
/// local to this call, so any number of sessions may execute the same
/// [`Prepared`] concurrently and each observes the deterministic
/// single-tenant outcome. A program that never forks runs on the calling
/// thread and takes no lock once it has started.
pub fn run_prepared(prepared: &Prepared, cfg: RunConfig) -> RunOutcome {
    let data = Arc::clone(&prepared.data);
    let mut rt = Runtime::new(cfg.mode, cfg.cost);
    rt.enable_gc(cfg.gc_enabled);
    rt.set_session(cfg.session);
    if cfg.events == TraceCapture::Full {
        rt.capture_events();
    }
    let machine = Arc::new(Machine::default());
    let st = State::new(rt, cfg.max_steps);
    let start = Instant::now();
    let main_tid = ThreadId(0);
    let (mut st, result) = match cfg.engine {
        Engine::Tree => Evaluator::new(Arc::clone(&machine), st, data, main_tid, false).run_main(),
        Engine::Vm => {
            let prog = Arc::clone(&prepared.bytecode);
            vm::Vm::new(Arc::clone(&machine), st, data, prog, main_tid, false).run_main()
        }
    };
    if let Err(e) = &result {
        st.halt(e.clone());
    }
    let mut st = machine.finish_main(st, main_tid);
    let error = result.err().or_else(|| st.halt_error().cloned());
    let wall = start.elapsed();
    let rt = &mut st.rt;
    RunOutcome {
        cycles: rt.now(),
        metrics: rt.metrics_snapshot(),
        trace: rt.trace().to_vec(),
        events: rt.take_events(),
        error,
        wall,
        graph: cfg.capture_graph.then(|| rt.ownership_dot()),
        region_peaks: rt.region_peaks(),
    }
}

/// Parses, checks, and runs source text.
///
/// # Errors
///
/// Returns [`BuildError`] if the program does not parse or type-check; a
/// *runtime* failure is reported in [`RunOutcome::error`] instead.
pub fn run_source(src: &str, cfg: RunConfig) -> Result<RunOutcome, BuildError> {
    let checked = build(src)?;
    Ok(run_checked(&checked, cfg))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtj_runtime::CheckKind;

    fn run_ok(src: &str) -> RunOutcome {
        let out = run_source(src, RunConfig::new(CheckMode::Dynamic)).unwrap();
        assert!(out.error.is_none(), "unexpected error: {:?}", out.error);
        out
    }

    #[test]
    fn arithmetic_and_control_flow() {
        let out = run_ok(
            r#"
            {
                let n = 10;
                let sum = 0;
                let i = 1;
                while (i <= n) {
                    sum = sum + i;
                    i = i + 1;
                }
                print(sum);
                if (sum == 55) { print("ok"); } else { print("bad"); }
            }
            "#,
        );
        assert_eq!(out.trace, vec!["55", "ok"]);
    }

    #[test]
    fn objects_fields_and_methods() {
        let out = run_ok(
            r#"
            class Counter<Owner o> {
                int n;
                void bump(int by) { this.n = this.n + by; }
                int get() { return this.n; }
            }
            {
                (RHandle<r> h) {
                    let c = new Counter<r>;
                    c.bump(3);
                    c.bump(4);
                    print(c.get());
                }
            }
            "#,
        );
        assert_eq!(out.trace, vec!["7"]);
    }

    #[test]
    fn short_circuit_and_division_guard() {
        let out = run_ok(
            r#"
            {
                let x = 0;
                if (x != 0 && 10 / x > 1) { print("no"); } else { print("safe"); }
                if (x == 0 || 10 / x > 1) { print("safe2"); }
            }
            "#,
        );
        assert_eq!(out.trace, vec!["safe", "safe2"]);
        let out = run_source(
            "{ let x = 0; let y = 1 / x; }",
            RunConfig::new(CheckMode::Dynamic),
        )
        .unwrap();
        assert!(matches!(out.error, Some(RunError::Interp(_))));
    }

    #[test]
    fn region_objects_die_with_region() {
        let out = run_ok(
            r#"
            class Cell<Owner o> { int v; }
            {
                let made = 0;
                (RHandle<r> h) {
                    let c = new Cell<r>;
                    c.v = 1;
                    made = made + c.v;
                }
                (RHandle<r2> h2) {
                    let c2 = new Cell<r2>;
                    made = made + 1;
                }
                print(made);
            }
            "#,
        );
        assert_eq!(out.trace, vec!["2"]);
        assert_eq!(out.metrics.regions_deleted, 2);
    }

    #[test]
    fn ownership_allocates_in_owner_region() {
        // TStack from Figure 5: nodes owned by the stack live in the
        // stack's region.
        let out = run_ok(
            r#"
            class TStack<Owner stackOwner, Owner TOwner> {
                TNode<this, TOwner> head;
                void push(T<TOwner> value) {
                    let TNode<this, TOwner> n = new TNode<this, TOwner>;
                    n.init(value, this.head);
                    this.head = n;
                }
                T<TOwner> pop() {
                    let TNode<this, TOwner> h = this.head;
                    if (h == null) { return null; }
                    this.head = h.next;
                    return h.value;
                }
            }
            class TNode<Owner nodeOwner, Owner TOwner> {
                T<TOwner> value;
                TNode<nodeOwner, TOwner> next;
                void init(T<TOwner> v, TNode<nodeOwner, TOwner> n) {
                    this.value = v;
                    this.next = n;
                }
            }
            class T<Owner o> { int x; }
            {
                (RHandle<r1> h1) {
                    (RHandle<r2> h2) {
                        let TStack<r2, r1> s = new TStack<r2, r1>;
                        let t1 = new T<r1>;
                        t1.x = 11;
                        let t2 = new T<r1>;
                        t2.x = 22;
                        s.push(t1);
                        s.push(t2);
                        let p = s.pop();
                        print(p.x);
                        let q = s.pop();
                        print(q.x);
                        let e = s.pop();
                        if (e == null) { print("empty"); }
                    }
                }
            }
            "#,
        );
        assert_eq!(out.trace, vec!["22", "11", "empty"]);
    }

    #[test]
    fn full_trace_capture_yields_valid_jsonl() {
        let src = r#"
            class Cell<Owner o> { Cell<o> next; }
            {
                (RHandle<r> h) {
                    let a = new Cell<r>;
                    let b = new Cell<r>;
                    a.next = b;
                }
            }
        "#;
        let mut cfg = RunConfig::new(CheckMode::Dynamic);
        cfg.events = TraceCapture::Full;
        let out = run_source(src, cfg).unwrap();
        assert!(out.error.is_none());
        let lines = out.events.expect("events captured");
        assert!(!lines.is_empty());
        let mut saw_check = false;
        for line in &lines {
            let v = rtj_runtime::Json::parse(line)
                .unwrap_or_else(|e| panic!("invalid JSONL `{line}`: {e}"));
            if v.get("ev").and_then(rtj_runtime::Json::as_str) == Some("check") {
                saw_check = true;
            }
        }
        assert!(saw_check, "trace includes check events");
        // Off capture reports none.
        let off = run_source(src, RunConfig::new(CheckMode::Dynamic)).unwrap();
        assert!(off.events.is_none());
    }

    #[test]
    fn metrics_elisions_mirror_dynamic_checks() {
        let src = r#"
            class Cell<Owner o> { Cell<o> next; int v; }
            {
                (RHandle<r> h) {
                    let head = new Cell<r>;
                    let i = 0;
                    while (i < 50) {
                        let c = new Cell<r>;
                        c.next = head;
                        head = c;
                        i = i + 1;
                    }
                }
            }
        "#;
        let dynamic = run_source(src, RunConfig::new(CheckMode::Dynamic)).unwrap();
        let static_ = run_source(src, RunConfig::new(CheckMode::Static)).unwrap();
        assert!(dynamic.error.is_none() && static_.error.is_none());
        assert!(dynamic.metrics.checks_performed() > 0);
        assert_eq!(dynamic.metrics.checks_elided(), 0);
        assert_eq!(static_.metrics.checks_performed(), 0);
        for kind in CheckKind::ALL {
            assert_eq!(
                static_.metrics.check(kind).elided,
                dynamic.metrics.check(kind).performed,
                "elision parity for {}",
                kind.name()
            );
        }
        assert_eq!(dynamic.metrics.total_cycles, dynamic.cycles);
    }

    #[test]
    fn static_mode_is_cheaper_than_dynamic() {
        let src = r#"
            class Cell<Owner o> { Cell<o> next; int v; }
            {
                (RHandle<r> h) {
                    let head = new Cell<r>;
                    let i = 0;
                    while (i < 200) {
                        let c = new Cell<r>;
                        c.next = head;
                        head = c;
                        i = i + 1;
                    }
                }
            }
        "#;
        let dynamic = run_source(src, RunConfig::new(CheckMode::Dynamic)).unwrap();
        let static_ = run_source(src, RunConfig::new(CheckMode::Static)).unwrap();
        assert!(dynamic.error.is_none() && static_.error.is_none());
        let stores = |out: &RunOutcome| out.metrics.check(CheckKind::Assignment).performed;
        assert!(stores(&dynamic) > 0);
        assert_eq!(stores(&static_), 0);
        assert!(
            dynamic.cycles > static_.cycles,
            "dynamic {} should exceed static {}",
            dynamic.cycles,
            static_.cycles
        );
    }

    #[test]
    fn audit_mode_confirms_soundness() {
        let src = r#"
            class Cell<Owner o> { Cell<o> next; }
            class Pair<Owner o, Owner p> { Cell<p> other; Cell<o> mine; }
            {
                (RHandle<r> h) {
                    let a = new Cell<r>;
                    let b = new Cell<heap>;
                    let c = new Cell<immortal>;
                    a.next = a;
                    b.next = b;
                    c.next = c;
                    let pr = new Pair<heap, immortal>;
                    pr.other = c;
                    pr.mine = b;
                }
            }
        "#;
        let out = run_source(src, RunConfig::new(CheckMode::Audit)).unwrap();
        assert!(out.error.is_none(), "{:?}", out.error);
        assert!(
            out.metrics.check(CheckKind::Assignment).performed > 0,
            "checks ran"
        );
        assert_eq!(out.metrics.check_cycles(), 0, "but cost nothing");
    }

    #[test]
    fn owner_arguments_thread_through_calls() {
        // A method allocates into a region passed as an owner parameter,
        // receiving the handle as a value argument — the paper's idiom
        // for cross-region factories.
        let out = run_ok(
            r#"
            class Factory<Owner o> {
                Cell<q> make<Region q>(RHandle<q> h, int v) accesses q {
                    let c = new Cell<q>;
                    c.v = v;
                    return c;
                }
            }
            class Cell<Owner o> { int v; }
            {
                (RHandle<r1> h1) {
                    (RHandle<r2> h2) {
                        let f = new Factory<r2>;
                        let outer_cell = f.make<r1>(h1, 10);
                        let inner_cell = f.make<r2>(h2, 20);
                        print(outer_cell.v + inner_cell.v);
                    }
                    // r2 is gone; the r1 allocation survives by
                    // construction (the types prove it).
                }
            }
            "#,
        );
        assert_eq!(out.trace, vec!["30"]);
    }

    #[test]
    fn inherited_fields_share_layout() {
        let out = run_ok(
            r#"
            class Base<Owner o> { int a; }
            class Mid<Owner o> extends Base<o> { int b; }
            class Leaf<Owner o> extends Mid<o> {
                int c;
                int total() { return this.a + this.b + this.c; }
            }
            {
                (RHandle<r> h) {
                    let x = new Leaf<r>;
                    x.a = 1;
                    x.b = 2;
                    x.c = 4;
                    print(x.total());
                    let Base<r> up = x;
                    up.a = 10;
                    print(x.total());
                }
            }
            "#,
        );
        assert_eq!(out.trace, vec!["7", "16"]);
    }

    #[test]
    fn recursion_depth_is_guarded() {
        let src = r#"
            class R<Owner o> {
                int down(int n) { return this.down(n + 1); }
            }
            {
                (RHandle<r> h) {
                    let r0 = new R<r>;
                    let x = r0.down(0);
                }
            }
        "#;
        let out = run_source(src, RunConfig::new(CheckMode::Dynamic)).unwrap();
        match out.error {
            Some(RunError::Interp(m)) => assert!(m.contains("call depth"), "{m}"),
            other => panic!("expected call-depth error, got {other:?}"),
        }
    }

    #[test]
    fn null_method_call_is_an_error_not_a_crash() {
        let src = r#"
            class C<Owner o> { int m() { return 1; } }
            {
                (RHandle<r> h) {
                    let C<r> c = null;
                    let x = c.m();
                }
            }
        "#;
        let out = run_source(src, RunConfig::new(CheckMode::Dynamic)).unwrap();
        assert!(matches!(out.error, Some(RunError::Interp(_))));
    }

    #[test]
    fn region_peaks_are_reported() {
        let out = run_ok(
            r#"
            regionKind K extends SharedRegion {
                subregion S : LT(1024) NoRT s;
            }
            regionKind S extends SharedRegion { }
            class Chunk<Owner o> { int a; }
            {
                (RHandle<K : VT r> h) {
                    (RHandle<S sc> hs = h.s) {
                        let c = new Chunk<sc>;
                        let d = new Chunk<sc>;
                    }
                }
            }
            "#,
        );
        let lt = out
            .region_peaks
            .iter()
            .find(|(label, _, _, _)| label.contains(".s "))
            .expect("LT subregion reported");
        assert_eq!(lt.2, 48, "two 24-byte objects peak");
        assert_eq!(lt.3, 1024);
    }

    #[test]
    fn step_limit_stops_infinite_loops() {
        let mut cfg = RunConfig::new(CheckMode::Dynamic);
        cfg.max_steps = 10_000;
        let out = run_source("{ while (true) { } }", cfg).unwrap();
        assert!(matches!(out.error, Some(RunError::StepLimit)));
    }

    #[test]
    fn fork_and_join_with_shared_region() {
        let out = run_ok(
            r#"
            regionKind Mailbox extends SharedRegion {
                Note<this> slot;
            }
            class Note<Owner o> { int v; }
            class Writer<Mailbox r> {
                void run(RHandle<r> h) accesses r {
                    let n = new Note<r>;
                    n.v = 99;
                    h.slot = n;
                }
            }
            {
                (RHandle<Mailbox : VT r> h) {
                    fork (new Writer<r>).run(h);
                    let seen = h.slot;
                    while (seen == null) {
                        yield();
                        seen = h.slot;
                    }
                    print(seen.v);
                }
            }
            "#,
        );
        assert_eq!(out.trace, vec!["99"]);
        assert_eq!(out.metrics.threads_spawned, 1);
    }

    #[test]
    fn producer_consumer_subregion_flushes_per_iteration() {
        // Figure 8, bounded: the producer fills a frame in the subregion,
        // the consumer drains it; the subregion is flushed each iteration,
        // so memory does not grow with the number of iterations.
        let out = run_ok(
            r#"
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
                        // Wait until the previous frame was consumed.
                        let c = h.consumed;
                        while (c == null || c.n != i) {
                            yield();
                            c = h.consumed;
                        }
                        (RHandle<BufferSubRegion r2> h2 = h.b) {
                            let frame = new Frame<r2>;
                            frame.data = 100 + i;
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
                        while (p == null || p.n != i + 1) {
                            yield();
                            p = h.produced;
                        }
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
                    fork (new Producer<r>).run(h, 3);
                    fork (new Consumer<r>).run(h, 3);
                }
            }
            "#,
        );
        assert_eq!(out.trace, vec!["100", "101", "102"]);
        assert!(
            out.metrics.regions_flushed >= 3,
            "subregion flushed per iteration: {:?}",
            out.metrics.regions_flushed
        );
    }
}
