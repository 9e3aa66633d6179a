//! The type checker: implements the typing judgments of Appendix B.
//!
//! Entry point: [`check_program`]. On success it returns the *elaborated*
//! program (inferred `let` types, defaulted `new` owners, and inferred
//! call-site owner arguments written back into the AST) together with the
//! [`ProgramTable`], which the interpreter uses for method resolution and
//! object layout. The program is the only AST that holds method bodies:
//! the table keeps each class's signature (bodies empty), which is all
//! the rules of Appendix B read.
//!
//! Rule coverage (paper → function):
//!
//! | Paper rule | Here |
//! |---|---|
//! | `[PROG]` | `check_main` (main block: `X = {heap, immortal}`, `rcr = heap`) |
//! | `[CLASS DEF]`, `[METHOD]` | `check_class`, `check_method` |
//! | `[REGION KIND DEF]` | `check_region_kind` |
//! | `[TYPE C]`, `[TYPE REGION HANDLE]` | `wf_stype` |
//! | `[USER DECLARED SHARED REGION]` | `wf_kind` |
//! | `[EXPR VAR/LET/NEW/REF READ/REF WRITE/INVOKE]` | `check_expr`, `check_stmt`, `field_access`, `check_call` |
//! | `[EXPR LOCALREGION/REGION/SUBREGION]` | `check_stmt` (region forms) |
//! | `[EXPR FORK]`, `[EXPR RTFORK]` | `check_stmt` (`Stmt::Fork`) |
//! | `[EXPR GET/SET REGION FIELD]` | `field_access` (portal branch) |
//! | `[AV ...]`, `[RKIND ...]` | [`crate::env::Env`] queries |
//! | `InheritanceOK`, `OverridesOK` | `check_inheritance` |

use crate::env::{Effects, Env, JudgmentCounters};
use crate::error::TypeError;
use crate::infer;
use crate::kind::Kind;
use crate::owner::{Owner, Subst};
use crate::profile::{CheckProfile, PhaseSpan};
use crate::stype::SType;
use crate::table::{resolve_kind, ClassInfo, ProgramTable, SConstraint};
use rtj_lang::ast::*;
use rtj_lang::intern::Symbol;
use rtj_lang::span::Span;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A successfully checked program: the elaborated AST plus its table.
#[derive(Debug, Clone)]
pub struct Checked {
    /// The program with inference results written back: the one copy of
    /// the method bodies, which the engines share (`Arc`) and execute.
    pub program: Arc<Program>,
    /// Class/region-kind table of the program's declarations: their
    /// signatures, with method bodies empty.
    pub table: ProgramTable,
    /// Statistics from the checking run.
    pub stats: CheckStats,
    /// Phase-span tree recorded when [`CheckOptions::profile`] was set.
    pub profile: Option<CheckProfile>,
}

/// Options for the checking driver.
#[derive(Debug, Clone, Default)]
pub struct CheckOptions {
    /// Worker threads for per-class checking. `0` means one per available
    /// CPU core; `1` forces the fully serial driver.
    pub jobs: usize,
    /// Record a per-phase (and per-class) span tree in
    /// [`Checked::profile`]. Off by default; when off the driver takes no
    /// phase or per-class timestamps at all, so checking runs exactly the
    /// PR 1 code path.
    pub profile: bool,
}

/// The worker threads [`CheckOptions::jobs`] asks for: `0` is one per
/// available core.
pub(crate) fn resolve_jobs(jobs: usize) -> usize {
    match jobs {
        0 => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        n => n,
    }
}

/// Statistics produced by a checking run (surfaced by `rtjc check --stats`).
#[derive(Debug, Clone, Default)]
pub struct CheckStats {
    /// Classes checked (the units fanned out to worker threads).
    pub classes_checked: usize,
    /// Method bodies checked.
    pub methods_checked: usize,
    /// Judgment-cache counters, broken out per judgment family
    /// (ownership `≽ₒ`, outlives `≽`, subkinding `≤ₖ`, region kinds,
    /// handle availability), summed over all typing environments.
    pub judgments: JudgmentCounters,
    /// Worker threads used for the class-checking phase.
    pub threads_used: usize,
    /// Wall-clock time of the whole checking run.
    pub elapsed: Duration,
}

impl CheckStats {
    /// Judgment-cache hits summed over every family (derived; the
    /// per-family split lives in [`CheckStats::judgments`]).
    pub fn cache_hits(&self) -> u64 {
        self.judgments.hits()
    }

    /// Judgment-cache misses summed over every family (derived).
    pub fn cache_misses(&self) -> u64 {
        self.judgments.misses()
    }

    /// Judgment-cache hit rate in `[0, 1]`; `0` when no queries ran.
    pub fn hit_rate(&self) -> f64 {
        let total = self.cache_hits() + self.cache_misses();
        if total == 0 {
            0.0
        } else {
            self.cache_hits() as f64 / total as f64
        }
    }
}

/// Type-checks a program.
///
/// # Errors
///
/// Returns every type error found (the checker recovers and keeps going
/// where it can, so multiple independent errors are reported together).
///
/// # Examples
///
/// ```
/// use rtj_lang::parser::parse_program;
/// use rtj_types::check_program;
///
/// let p = parse_program(r#"
///     class Cell<Owner o> { int v; }
///     {
///         (RHandle<r> h) {
///             let Cell<r> c = new Cell<r>;
///             c.v = 42;
///         }
///     }
/// "#).unwrap();
/// assert!(check_program(&p).is_ok());
/// ```
pub fn check_program(p: &Program) -> Result<Checked, Vec<TypeError>> {
    check_program_in(p.clone(), &CheckOptions::default())
}

/// Type-checks a program, consuming it (no up-front clone).
///
/// Classes are independent checking units: with `opts.jobs != 1` they are
/// fanned out across worker threads. Diagnostics are collected per unit,
/// merged in declaration order, and stably sorted by source span, so
/// serial and parallel runs produce byte-identical output.
///
/// # Errors
///
/// Returns every type error found, sorted by span.
pub fn check_program_in(mut prog: Program, opts: &CheckOptions) -> Result<Checked, Vec<TypeError>> {
    let start = Instant::now();
    // Profiling spans: every timestamp below is behind this flag, so an
    // unprofiled run takes exactly two clock reads (start/elapsed), the
    // same as before the profiler existed.
    let profiling = opts.profile;
    let mut phases: Vec<PhaseSpan> = Vec::new();

    let p0 = profiling.then(|| start.elapsed());
    infer::apply_declaration_defaults(&mut prog);
    if let Some(p0) = p0 {
        phases.push(PhaseSpan::leaf("lower", p0, start.elapsed() - p0));
    }

    let p0 = profiling.then(|| start.elapsed());
    let table = ProgramTable::build(&prog)?;
    if let Some(p0) = p0 {
        phases.push(PhaseSpan::leaf("table", p0, start.elapsed() - p0));
    }
    let mut stats = CheckStats {
        classes_checked: prog.classes.len(),
        ..CheckStats::default()
    };

    // Serial prelude: region kinds and inheritance (cheap, and inheritance
    // reads the whole table). Iterated in declaration order so diagnostics
    // are deterministic run to run.
    let p0 = profiling.then(|| start.elapsed());
    let mut ck = Checker::new(&table);
    for rk in &prog.region_kinds {
        ck.check_region_kind(rk);
    }
    ck.check_inheritance(&prog.classes);
    let prelude_errors = std::mem::take(&mut ck.errors);
    if let Some(p0) = p0 {
        phases.push(PhaseSpan::leaf("wf", p0, start.elapsed() - p0));
    }

    // Per-class units, checked serially or in parallel; either way each
    // unit's diagnostics land in its own slot, so the merge below is the
    // same code path for both drivers.
    let mut classes = std::mem::take(&mut prog.classes);
    let workers = resolve_jobs(opts.jobs).min(classes.len().max(1));
    stats.threads_used = workers;
    let p0 = profiling.then(|| start.elapsed());
    let slots = classes.len();
    let units = check_units(
        &table,
        workers,
        classes.iter_mut().enumerate(),
        slots,
        profiling.then_some(start),
    );
    if let Some(p0) = p0 {
        // Assembled in slot order, so the span tree's structure (names and
        // ordering) never depends on scheduling.
        let children = classes
            .iter()
            .zip(&units)
            .map(|(c, u)| {
                let (s0, w) = u.as_ref().and_then(|u| u.time).unwrap_or_default();
                PhaseSpan::leaf(format!("class {}", c.name.name), s0, w)
            })
            .collect();
        phases.push(PhaseSpan {
            name: "classes".to_string(),
            start: p0,
            wall: start.elapsed() - p0,
            children,
        });
    }
    prog.classes = classes;
    // Single merge path for serial and parallel drivers: declaration
    // order (prelude, class units, main), then a stable sort by span
    // (same-span diagnostics keep declaration order).
    let mut all = prelude_errors;
    for u in units.into_iter().flatten() {
        ck.methods_checked += u.methods_checked;
        ck.judgments.absorb(&u.judgments);
        all.extend(u.errors);
    }

    let p0 = profiling.then(|| start.elapsed());
    ck.check_main(&mut prog.main);
    let main_errors = std::mem::take(&mut ck.errors);
    if let Some(p0) = p0 {
        phases.push(PhaseSpan::leaf("main", p0, start.elapsed() - p0));
    }

    all.extend(main_errors);
    all.sort_by_key(|e| e.span);

    stats.methods_checked = ck.methods_checked;
    stats.judgments = ck.judgments;
    stats.elapsed = start.elapsed();
    if all.is_empty() {
        Ok(Checked {
            program: Arc::new(prog),
            table,
            stats,
            profile: profiling.then_some(CheckProfile { phases }),
        })
    } else {
        Err(all)
    }
}

/// What checking one class unit yields.
pub(crate) struct UnitResult {
    pub(crate) errors: Vec<TypeError>,
    pub(crate) methods_checked: usize,
    pub(crate) judgments: JudgmentCounters,
    /// `(start offset, wall)` against the pass's clock, when it is timed.
    pub(crate) time: Option<(Duration, Duration)>,
}

/// Checks each `(slot, class)` unit of `units` on up to `workers`
/// threads, one [`Checker`] per thread, and returns each result in its
/// slot; a slot no unit names stays `None`. A unit leaves its checker as
/// it found it (see [`Checker::check_class`]), so every result, counters
/// included, is the same whatever the thread count or the order the
/// workers take units in. With `clock` (the pass's start) each unit is
/// timed against it.
pub(crate) fn check_units<'a>(
    table: &ProgramTable,
    workers: usize,
    units: impl Iterator<Item = (usize, &'a mut ClassDecl)> + Send,
    slots: usize,
    clock: Option<Instant>,
) -> Vec<Option<UnitResult>> {
    let check = |ck: &mut Checker, c: &mut ClassDecl| {
        let c0 = clock.map(|start| start.elapsed());
        ck.check_class(c);
        UnitResult {
            errors: std::mem::take(&mut ck.errors),
            methods_checked: std::mem::take(&mut ck.methods_checked),
            judgments: std::mem::take(&mut ck.judgments),
            time: clock.zip(c0).map(|(start, c0)| (c0, start.elapsed() - c0)),
        }
    };
    let mut results: Vec<Option<UnitResult>> = (0..slots).map(|_| None).collect();
    if workers <= 1 {
        let mut ck = Checker::new(table);
        for (i, c) in units {
            results[i] = Some(check(&mut ck, c));
        }
        return results;
    }
    let queue = Mutex::new(units);
    let done: Vec<Vec<(usize, UnitResult)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut ck = Checker::new(table);
                    let mut done = Vec::new();
                    loop {
                        let item = queue.lock().expect("taking a unit never panics").next();
                        let Some((i, c)) = item else { break };
                        done.push((i, check(&mut ck, c)));
                    }
                    done
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a class-checking worker panicked"))
            .collect()
    });
    for (i, result) in done.into_iter().flatten() {
        results[i] = Some(result);
    }
    results
}

/// The per-unit checking state. Crate-visible so the incremental engine
/// (`crate::incremental`) can run the exact same per-class / per-region-kind
/// routines the batch driver runs, one unit at a time.
pub(crate) struct Checker<'t> {
    table: &'t ProgramTable,
    /// The base environment of `[PROG]`. Each class's environment
    /// extends it under a scope mark and is rolled back when the class
    /// is done, so one environment serves every class the checker
    /// checks.
    base: Env,
    pub(crate) errors: Vec<TypeError>,
    pub(crate) methods_checked: usize,
    pub(crate) judgments: JudgmentCounters,
}

impl<'t> Checker<'t> {
    pub(crate) fn new(table: &'t ProgramTable) -> Checker<'t> {
        Checker {
            table,
            base: Env::base(),
            errors: Vec::new(),
            methods_checked: 0,
            judgments: JudgmentCounters::default(),
        }
    }

    fn err(&mut self, message: impl Into<String>, span: Span) {
        self.errors.push(TypeError::new(message, span));
    }

    /// Like [`Checker::err`], carrying the derivation trace the failed
    /// judgment explored (rendered by `rtjc check --explain`).
    fn err_with(&mut self, message: impl Into<String>, span: Span, notes: Vec<String>) {
        self.errors
            .push(TypeError::with_notes(message, span, notes));
    }

    /// Derivation notes for a failed `where` constraint.
    fn explain_constraint(env: &Env, c: &SConstraint) -> Vec<String> {
        match c.rel {
            ConstraintRel::Owns => env.explain_owns(&c.lhs, &c.rhs),
            ConstraintRel::Outlives => env.explain_outlives(&c.lhs, &c.rhs),
        }
    }

    /// Folds an environment's judgment-cache counters into the run totals
    /// and resets them, so no judgment is counted twice.
    pub(crate) fn absorb_env(&mut self, env: &Env) {
        self.judgments.absorb(&env.take_judgment_counters());
    }

    // -------------------------------------------------------------- resolve

    /// Resolves a surface owner reference, checking that it is in scope.
    /// `allow_rt` permits the `RT` pseudo-effect (accesses clauses only).
    fn resolve_owner(&mut self, env: &Env, o: &OwnerRef, allow_rt: bool) -> Option<Owner> {
        let owner = Owner::resolve(o, |n| env.is_region_name(n));
        match &owner {
            Owner::Rt if allow_rt => Some(owner),
            Owner::Rt => {
                self.err("`RT` is only valid in `accesses` clauses", o.span());
                None
            }
            Owner::This => {
                if env.kind_of(&Owner::This).is_some() {
                    Some(owner)
                } else {
                    self.err("`this` is not available here", o.span());
                    None
                }
            }
            Owner::InitialRegion => {
                if env.kind_of(&Owner::InitialRegion).is_some() {
                    Some(owner)
                } else {
                    self.err(
                        "`initialRegion` is only available inside method bodies",
                        o.span(),
                    );
                    None
                }
            }
            Owner::Heap | Owner::Immortal => Some(owner),
            Owner::Formal(n) | Owner::Region(n) => {
                if env.is_declared_owner(*n) {
                    Some(owner)
                } else {
                    self.err(format!("unknown owner `{n}`"), o.span());
                    None
                }
            }
        }
    }

    /// Resolves a surface type and checks it well-formed.
    fn resolve_type(&mut self, env: &Env, ty: &Type) -> Option<SType> {
        let st = match ty {
            Type::Int(_) => SType::Int,
            Type::Bool(_) => SType::Bool,
            Type::Void(_) => SType::Void,
            Type::Class(ct) => {
                let mut owners = Vec::with_capacity(ct.owners.len());
                for o in &ct.owners {
                    owners.push(self.resolve_owner(env, o, false)?);
                }
                SType::Class {
                    name: ct.name.name,
                    owners,
                }
            }
            Type::Handle(r, _) => SType::Handle(self.resolve_owner(env, r, false)?),
        };
        if self.wf_stype(env, &st, ty.span()) {
            Some(st)
        } else {
            None
        }
    }

    /// `[TYPE C]` / `[TYPE REGION HANDLE]`: type well-formedness.
    fn wf_stype(&mut self, env: &Env, t: &SType, span: Span) -> bool {
        match t {
            SType::Int | SType::Bool | SType::Void | SType::Null | SType::Str => true,
            SType::Handle(r) => match env.kind_of(r) {
                Some(k) if k.is_region_kind() => true,
                _ => {
                    self.err(format!("`{r}` is not a region"), span);
                    false
                }
            },
            SType::Class { name, owners } => self.wf_class_type(env, *name, owners, span),
        }
    }

    fn wf_class_type(&mut self, env: &Env, name: Symbol, owners: &[Owner], span: Span) -> bool {
        let object;
        let (names, kinds, constraints) = match self.table.class(name) {
            _ if name == "Object" => {
                object = ([Symbol::intern("o")], [Kind::Owner]);
                (&object.0[..], &object.1[..], &[][..])
            }
            Some(info) => (
                &info.formal_names[..],
                &info.formal_kinds[..],
                &info.constraints[..],
            ),
            None => {
                self.err(format!("unknown class `{name}`"), span);
                return false;
            }
        };
        let of = Formals {
            class: true,
            name,
            names,
            kinds,
            constraints,
        };
        self.wf_instance(env, &of, owners, span)
    }

    /// `[USER DECLARED SHARED REGION]`: well-formedness of a (named) region
    /// kind used at a region-creation site.
    fn wf_kind(&mut self, env: &Env, k: &Kind, span: Span) -> bool {
        match k.without_lt() {
            Kind::Named { name, owners } => {
                let Some(info) = self.table.region_kind(name) else {
                    self.err(format!("unknown region kind `{name}`"), span);
                    return false;
                };
                let of = Formals {
                    class: false,
                    name: *name,
                    names: &info.formal_names,
                    kinds: &info.formal_kinds,
                    constraints: &info.constraints,
                };
                self.wf_instance(env, &of, owners, span)
            }
            Kind::SharedRegion => true,
            other => {
                self.err(format!("`{other}` is not a shared region kind"), span);
                false
            }
        }
    }

    /// The instantiation check [TYPE C] and [USER DECLARED SHARED REGION]
    /// share: one owner per formal, each owner's kind a subkind of its
    /// formal's, and the declared constraints hold. A class instance also
    /// needs every owner to outlive the first, checked with each owner's
    /// kind so that equal-span diagnostics keep their order.
    fn wf_instance(&mut self, env: &Env, of: &Formals<'_>, owners: &[Owner], span: Span) -> bool {
        let (what, name) = (if of.class { "class" } else { "region kind" }, of.name);
        if owners.len() != of.names.len() {
            self.err(
                format!(
                    "{what} `{name}` expects {} owner argument(s), found {}",
                    of.names.len(),
                    owners.len()
                ),
                span,
            );
            return false;
        }
        let s = Subst::from_formals(of.names, owners);
        let mut ok = true;
        for (o, dk) in owners.iter().zip(of.kinds) {
            let declared = dk.subst(&s);
            match env.kind_of(o) {
                Some(k) if env.subkind(self.table, &k, &declared) => {}
                Some(k) => {
                    let notes = crate::kind::explain_subkind(self.table, &k, &declared);
                    self.err_with(
                        format!(
                            "owner `{o}` has kind `{k}`, which is not a subkind of `{declared}`"
                        ),
                        span,
                        notes,
                    );
                    ok = false;
                }
                None => {
                    self.err(format!("owner `{o}` has no kind here"), span);
                    ok = false;
                }
            }
            // Every owner in a legal type outlives the first owner.
            let first = &owners[0];
            if of.class && !env.outlives(o, first) {
                let notes = env.explain_outlives(o, first);
                self.err_with(
                    format!(
                        "owner `{o}` must outlive the first owner `{first}` \
                         in type `{name}<...>`"
                    ),
                    span,
                    notes,
                );
                ok = false;
            }
        }
        for c in of.constraints {
            let c = c.subst(&s);
            if !self.constraint_holds(env, &c) {
                let notes = Self::explain_constraint(env, &c);
                self.err_with(
                    format!(
                        "constraint `{} {} {}` of {what} `{name}` is not satisfied",
                        c.lhs, c.rel, c.rhs
                    ),
                    span,
                    notes,
                );
                ok = false;
            }
        }
        ok
    }

    fn constraint_holds(&self, env: &Env, c: &SConstraint) -> bool {
        match c.rel {
            ConstraintRel::Owns => env.owns(&c.lhs, &c.rhs),
            ConstraintRel::Outlives => env.outlives(&c.lhs, &c.rhs),
        }
    }

    fn assume_constraints(&mut self, env: &mut Env, cs: &[Constraint]) {
        for c in cs {
            let lhs = self.resolve_owner(env, &c.lhs, false);
            let rhs = self.resolve_owner(env, &c.rhs, false);
            if let (Some(lhs), Some(rhs)) = (lhs, rhs) {
                match c.rel {
                    ConstraintRel::Owns => env.add_owns(lhs, rhs),
                    ConstraintRel::Outlives => env.add_outlives(lhs, rhs),
                }
            }
        }
    }

    fn require_effect(&mut self, env: &Env, x: &Effects, o: &Owner, span: Span, what: &str) {
        if !env.effect_covered(x, o) {
            let notes = env.explain_effect_covered(x, o);
            self.err_with(
                format!(
                    "the permitted effects do not cover {what} `{o}`; \
                     add it (or an owner that outlives it) to the `accesses` clause"
                ),
                span,
                notes,
            );
        }
    }

    fn require_subtype(&mut self, sub: &SType, sup: &SType, span: Span, what: &str) {
        if !self.table.is_subtype(sub, sup) {
            self.err(format!("{what}: expected `{sup}`, found `{sub}`"), span);
        }
    }

    // ---------------------------------------------------------- declarations

    /// `[REGION KIND DEF]`: portal field and subregion types are checked in
    /// an environment where `this` denotes the region and every formal
    /// outlives it.
    pub(crate) fn check_region_kind(&mut self, rk: &RegionKindDecl) {
        let mut env = Env::base();
        let formal_owners: Vec<Owner> = rk
            .formals
            .iter()
            .map(|f| Owner::Formal(f.name.name))
            .collect();
        for f in &rk.formals {
            let k = resolve_kind(&f.kind, &|_| false);
            env.declare_owner(Owner::Formal(f.name.name), k);
        }
        self.assume_constraints(&mut env, &rk.where_clauses);
        env.set_this_region(
            Kind::Named {
                name: rk.name.name,
                owners: formal_owners.clone(),
            },
            &formal_owners,
        );
        if let Some(ext) = &rk.extends {
            let k = resolve_kind(ext, &|_| false);
            self.wf_kind(&env, &k, ext.span());
        }
        for f in &rk.portals {
            if let Some(t) = self.resolve_type(&env, &f.ty) {
                if !matches!(t, SType::Class { .. }) {
                    self.err(
                        format!(
                            "portal fields must have class type (they are the typed \
                             hand-off points between threads), found `{t}`"
                        ),
                        f.span,
                    );
                }
            }
        }
        for s in &rk.subregions {
            let k = resolve_kind(&s.kind, &|_| false);
            if matches!(k, Kind::Lt(_)) {
                self.err(
                    "subregion kinds take their LT/VT policy from the declaration, \
                     not an `: LT` refinement",
                    s.span,
                );
            }
            self.wf_kind(&env, &k, s.span);
        }
        self.absorb_env(&env);
    }

    /// Runs `check` in the environment of `[CLASS DEF]` for `info`: the
    /// base environment, extended under a scope mark, then absorbed and
    /// rolled back by [`Env::leave_declaration`], so the checker is left
    /// as it was found.
    fn in_class_env(&mut self, info: &ClassInfo, check: impl FnOnce(&mut Self, &mut Env)) {
        let mut env = std::mem::take(&mut self.base);
        let class_scope = env.mark();
        for (name, kind) in info.formal_names.iter().zip(&info.formal_kinds) {
            env.declare_owner(Owner::Formal(*name), kind.clone());
        }
        self.assume_constraints(&mut env, &info.decl.where_clauses);
        let owners = info.formal_names.iter().map(|n| Owner::Formal(*n));
        env.set_this(info.decl.name.name, owners);
        check(self, &mut env);
        self.absorb_env(&env);
        env.leave_declaration(class_scope);
        self.base = env;
    }

    /// `[PROG]`: the main block runs on the main (regular) thread with
    /// effects `{heap, immortal}` and the heap as the current region.
    pub(crate) fn check_main(&mut self, main: &mut Block) {
        let mut env = Env::base();
        let x: Effects = [Owner::Heap, Owner::Immortal].into_iter().collect();
        for s in &mut main.stmts {
            self.check_stmt(&mut env, &x, &Owner::Heap, Some(&SType::Void), false, s);
        }
        self.absorb_env(&env);
    }

    /// `[CLASS DEF]`, on the checker's base environment, which it leaves
    /// as it found it.
    pub(crate) fn check_class(&mut self, c: &mut ClassDecl) {
        let table = self.table;
        let Some(info) = table.class(c.name.name) else {
            return; // table construction already reported this
        };
        self.in_class_env(info, |ck, env| {
            if let Some(ext) = &c.extends {
                let owners: Vec<Owner> = ext
                    .owners
                    .iter()
                    .filter_map(|o| ck.resolve_owner(env, o, false))
                    .collect();
                if owners.len() == ext.owners.len() {
                    ck.wf_class_type(env, ext.name.name, &owners, ext.span);
                }
            }
            for f in &c.fields {
                ck.resolve_type(env, &f.ty);
            }
            for m in &mut c.methods {
                ck.check_method(info, env, m);
            }
        });
    }

    /// `[METHOD]`, on the class's environment `env`, which it extends
    /// under a scope mark and rolls back.
    fn check_method(&mut self, info: &ClassInfo, env: &mut Env, m: &mut MethodDecl) {
        let method_scope = env.mark();
        for f in &m.formals {
            let k = resolve_kind(&f.kind, &|_| false);
            env.declare_owner(Owner::Formal(f.name.name), k);
        }
        self.assume_constraints(env, &m.where_clauses);
        env.declare_owner(Owner::InitialRegion, Kind::Region);
        env.add_handle(Owner::InitialRegion);
        // A type that does not resolve is reported here, once: its
        // parameter is bound untyped, and an unknown return type checks
        // no `return` against it.
        let ret = self.resolve_type(env, &m.ret);
        for p in &m.params {
            match self.resolve_type(env, &p.ty) {
                Some(t) => env.bind_var(p.name.name, t),
                None => env.bind_untyped(p.name.name),
            }
        }
        // Effects: explicit clause or the default (all class and method
        // owner parameters plus initialRegion).
        let mut x: Effects = Effects::new();
        match &m.effects {
            Some(list) => {
                for o in list {
                    if let Some(owner) = self.resolve_owner(env, o, true) {
                        if owner != Owner::Rt && env.kind_of(&owner).is_none() {
                            self.err(format!("effect owner `{owner}` has no kind here"), o.span());
                        }
                        x.insert(owner);
                    }
                }
            }
            None => {
                for n in &info.formal_names {
                    x.insert(Owner::Formal(*n));
                }
                for f in &m.formals {
                    x.insert(Owner::Formal(f.name.name));
                }
                x.insert(Owner::InitialRegion);
            }
        }
        for s in &mut m.body.stmts {
            self.check_stmt(env, &x, &Owner::InitialRegion, ret.as_ref(), false, s);
        }
        if let Some(ret) = ret.filter(|r| *r != SType::Void && !always_returns(&m.body)) {
            self.err(
                format!(
                    "method `{}` must return a value of type `{ret}` on all paths",
                    m.name
                ),
                m.span,
            );
        }
        env.truncate_to(method_scope);
        self.methods_checked += 1;
    }

    /// `InheritanceOK` + `OverridesOK`.
    pub(crate) fn check_inheritance(&mut self, classes: &[ClassDecl]) {
        // Iterate in declaration order (not table-map order) so the
        // diagnostics this pass emits are deterministic run to run.
        for c in classes {
            let table = self.table;
            let Some(info) = table.class(c.name.name) else {
                continue;
            };
            let Some(ext) = info
                .decl
                .extends
                .as_ref()
                .filter(|e| e.name.name != "Object")
            else {
                continue;
            };
            self.in_class_env(info, |ck, env| ck.check_overrides(env, info, ext));
        }
    }

    /// `InheritanceOK` + `OverridesOK` for class `info`, which extends
    /// `ext`, in its class environment `env`.
    fn check_overrides(&mut self, env: &Env, info: &ClassInfo, ext: &ClassType) {
        let sup_args: Vec<Owner> = ext
            .owners
            .iter()
            .filter_map(|o| self.resolve_owner(env, o, false))
            .collect();
        if sup_args.len() != ext.owners.len() {
            return;
        }
        let Some(sup_info) = self.table.class(ext.name.name) else {
            return;
        };
        // Superclass constraints must be implied by the subclass's.
        let s = Subst::from_formals(&sup_info.formal_names, &sup_args);
        for c in &sup_info.constraints {
            let c = c.subst(&s);
            if !self.constraint_holds(env, &c) {
                self.err(
                    format!(
                        "constraint `{} {} {}` of superclass `{}` is not implied \
                         by the constraints of `{}`",
                        c.lhs, c.rel, c.rhs, ext.name, info.decl.name
                    ),
                    ext.span,
                );
            }
        }
        // Overriding methods.
        let own_owners: Vec<Owner> = info
            .formal_names
            .iter()
            .map(|n| Owner::Formal(*n))
            .collect();
        for m in &info.decl.methods {
            let Some(sup_sig) = self.table.method_sig(ext.name.name, &sup_args, m.name.name) else {
                continue;
            };
            let my_sig = self
                .table
                .method_sig(info.decl.name.name, &own_owners, m.name.name)
                .expect("own method exists");
            if my_sig.formals.len() != sup_sig.formals.len()
                || my_sig.params.len() != sup_sig.params.len()
            {
                self.err(
                    format!(
                        "method `{}` overrides a superclass method with a \
                         different shape",
                        m.name
                    ),
                    m.span,
                );
                continue;
            }
            // Alpha-rename the super method's formals to ours.
            let mut alpha = Subst::new();
            for ((sn, _), (mn, _)) in sup_sig.formals.iter().zip(&my_sig.formals) {
                alpha.push(*sn, Owner::Formal(*mn));
            }
            for ((_, mine), (_, sup)) in my_sig.params.iter().zip(&sup_sig.params) {
                if *mine != sup.subst(&alpha) {
                    self.err(
                        format!(
                            "method `{}`: parameter types must match the \
                             overridden method",
                            m.name
                        ),
                        m.span,
                    );
                }
            }
            if my_sig.ret != sup_sig.ret.subst(&alpha) {
                self.err(
                    format!(
                        "method `{}`: return type must match the overridden method",
                        m.name
                    ),
                    m.span,
                );
            }
            // The overrider's effects must be included in the
            // overridden method's effects.
            let sup_fx: Effects = sup_sig.effects.iter().map(|o| alpha.apply(o)).collect();
            let my_fx: Effects = my_sig.effects.iter().copied().collect();
            if !env.effects_subsume(&sup_fx, &my_fx) {
                self.err(
                    format!(
                        "method `{}`: effects must be included among the \
                         overridden method's effects",
                        m.name
                    ),
                    m.span,
                );
            }
        }
    }

    // ------------------------------------------------------------ statements

    #[allow(clippy::too_many_arguments)]
    fn check_block(
        &mut self,
        env: &mut Env,
        x: &Effects,
        rcr: &Owner,
        ret: Option<&SType>,
        in_region: bool,
        b: &mut Block,
    ) {
        // Scope marks replace whole-environment clones: the fact vectors
        // are append-only, so exiting the block truncates back.
        let m = env.mark();
        for s in &mut b.stmts {
            self.check_stmt(env, x, rcr, ret, in_region, s);
        }
        env.truncate_to(m);
    }

    pub(crate) fn check_stmt(
        &mut self,
        env: &mut Env,
        x: &Effects,
        rcr: &Owner,
        ret: Option<&SType>,
        in_region: bool,
        s: &mut Stmt,
    ) {
        match s {
            Stmt::Let {
                ty,
                name,
                init,
                span,
            } => {
                let t_init = self.check_expr(env, x, rcr, init);
                match ty {
                    Some(t) => match self.resolve_type(env, t) {
                        Some(declared) => {
                            if let Some(ti) = t_init {
                                self.require_subtype(&ti, &declared, *span, "initializer");
                            }
                            env.bind_var(name.name, declared);
                        }
                        None => env.bind_untyped(name.name),
                    },
                    // A local whose type cannot be inferred is bound
                    // untyped after its one error, so its uses add none.
                    None => match t_init {
                        Some(SType::Null) => {
                            self.err(
                                format!(
                                    "cannot infer a type for `{name}` from `null`; \
                                     annotate the declaration"
                                ),
                                *span,
                            );
                            env.bind_untyped(name.name);
                        }
                        Some(SType::Void) | Some(SType::Str) => {
                            self.err(
                                format!("cannot bind `{name}` to a valueless expression"),
                                *span,
                            );
                            env.bind_untyped(name.name);
                        }
                        Some(t) => {
                            *ty = t.to_surface();
                            env.bind_var(name.name, t);
                        }
                        None => env.bind_untyped(name.name),
                    },
                }
            }
            Stmt::AssignLocal { name, value, span } => {
                let vt = self.check_expr(env, x, rcr, value);
                match env.lookup_var(name.name) {
                    Some(Some(SType::Handle(_))) => {
                        self.err("region handles cannot be reassigned", *span);
                    }
                    Some(Some(t)) => {
                        if let Some(vt) = vt {
                            self.require_subtype(&vt, t, *span, "assignment");
                        }
                    }
                    Some(None) => {}
                    None => self.err(format!("unknown variable `{name}`"), *span),
                }
            }
            Stmt::AssignField {
                recv,
                field,
                value,
                span,
            } => {
                let ft = self.field_access(env, x, rcr, recv, field, *span);
                let vt = self.check_expr(env, x, rcr, value);
                if let (Some(ft), Some(vt)) = (ft, vt) {
                    self.require_subtype(&vt, &ft, *span, "field assignment");
                }
            }
            Stmt::Expr(e) => {
                self.check_expr(env, x, rcr, e);
            }
            Stmt::If {
                cond,
                then_blk,
                else_blk,
                span,
            } => {
                if let Some(t) = self.check_expr(env, x, rcr, cond) {
                    if t != SType::Bool {
                        self.err(format!("`if` condition must be `bool`, found `{t}`"), *span);
                    }
                }
                self.check_block(env, x, rcr, ret, in_region, then_blk);
                if let Some(eb) = else_blk {
                    self.check_block(env, x, rcr, ret, in_region, eb);
                }
            }
            Stmt::While { cond, body, span } => {
                if let Some(t) = self.check_expr(env, x, rcr, cond) {
                    if t != SType::Bool {
                        self.err(
                            format!("`while` condition must be `bool`, found `{t}`"),
                            *span,
                        );
                    }
                }
                self.check_block(env, x, rcr, ret, in_region, body);
            }
            Stmt::Return { value, span } => {
                if in_region {
                    self.err(
                        "`return` inside a region block is not allowed \
                         (region lifetimes are lexically scoped)",
                        *span,
                    );
                }
                // An unknown return type (`None`) checks the returned
                // expression alone.
                match (value, ret) {
                    (None, None | Some(SType::Void)) => {}
                    (None, Some(ret)) => {
                        self.err(format!("expected a return value of type `{ret}`"), *span)
                    }
                    (Some(v), Some(SType::Void)) => {
                        self.err("`void` method cannot return a value", *span);
                        self.check_expr(env, x, rcr, v);
                    }
                    (Some(v), None) => {
                        self.check_expr(env, x, rcr, v);
                    }
                    (Some(v), Some(ret)) => {
                        if let Some(vt) = self.check_expr(env, x, rcr, v) {
                            self.require_subtype(&vt, ret, *span, "return value");
                        }
                    }
                }
            }
            Stmt::LocalRegion {
                region,
                handle,
                body,
                span,
            } => {
                // [EXPR LOCALREGION] = [EXPR REGION] with LocalRegion : VT.
                self.enter_new_region(env, x, ret, region, handle, Kind::LocalRegion, body, *span);
            }
            Stmt::NewRegion {
                kind,
                policy,
                region,
                handle,
                body,
                span,
            } => {
                let is_region = |n: Symbol| env.is_region_name(n);
                let mut k = resolve_kind(kind, &is_region);
                // Validate owner args of the kind annotation.
                for o in kind_owner_refs(kind) {
                    self.resolve_owner(env, &o, false);
                }
                if !self.wf_kind(env, &k, *span) {
                    return;
                }
                if matches!(policy, Policy::Lt { .. }) {
                    k = k.with_lt();
                }
                self.enter_new_region(env, x, ret, region, handle, k, body, *span);
            }
            Stmt::EnterSubregion {
                kind,
                region,
                handle,
                fresh,
                parent,
                sub,
                body,
                span,
            } => {
                self.enter_subregion(
                    env, x, ret, kind, region, handle, *fresh, parent, sub, body, *span,
                );
            }
            Stmt::Fork { rt, call, span } => {
                self.check_fork(env, x, rcr, *rt, call, *span);
            }
        }
    }

    /// `[EXPR REGION]` / `[EXPR LOCALREGION]`: creates a top-level region.
    #[allow(clippy::too_many_arguments)]
    fn enter_new_region(
        &mut self,
        env: &mut Env,
        x: &Effects,
        ret: Option<&SType>,
        region: &Ident,
        handle: &Ident,
        kind: Kind,
        body: &mut Block,
        span: Span,
    ) {
        if env.is_declared_owner_name(region.name) {
            self.err(
                format!("region name `{region}` shadows an existing owner"),
                region.span,
            );
        }
        // Creating a region allocates memory: X ⊇ heap.
        self.require_effect(
            env,
            x,
            &Owner::Heap,
            span,
            "region creation (allocates from)",
        );
        let r = Owner::Region(region.name);
        let m = env.mark();
        // All existing regions outlive the new one.
        for re in env.regions() {
            env.add_outlives(re, r);
        }
        env.declare_owner(r, kind);
        env.bind_var(handle.name, SType::Handle(r));
        let mut x2 = x.clone();
        x2.insert(r);
        for s in &mut body.stmts {
            self.check_stmt(env, &x2, &r, ret, true, s);
        }
        env.truncate_to(m);
    }

    /// `[EXPR SUBREGION]`: enters (optionally recreating) a subregion.
    #[allow(clippy::too_many_arguments)]
    fn enter_subregion(
        &mut self,
        env: &mut Env,
        x: &Effects,
        ret: Option<&SType>,
        kind_ann: &KindAnn,
        region: &Ident,
        handle: &Ident,
        fresh: bool,
        parent: &Ident,
        sub: &Ident,
        body: &mut Block,
        span: Span,
    ) {
        let parent_ty = match env.lookup_var(parent.name) {
            Some(Some(t)) => t.clone(),
            Some(None) => return,
            None => {
                self.err(format!("unknown variable `{parent}`"), parent.span);
                return;
            }
        };
        let SType::Handle(r2) = parent_ty else {
            self.err(
                format!("`{parent}` must be a region handle to enter a subregion"),
                parent.span,
            );
            return;
        };
        let parent_kind = env.kind_of(&r2);
        let Some(Kind::Named {
            name: pk_name,
            owners: pk_owners,
        }) = parent_kind.as_ref().map(|k| k.without_lt().clone())
        else {
            self.err(
                format!(
                    "region `{r2}` has no user-declared region kind, \
                     so it has no subregions"
                ),
                parent.span,
            );
            return;
        };
        let Some(info) = self.table.subregion(pk_name, &pk_owners, sub.name) else {
            self.err(
                format!("region kind `{pk_name}` has no subregion `{sub}`"),
                sub.span,
            );
            return;
        };
        // Substitute the parent region for `this` in the subregion's kind.
        let k3 = info.kind.subst(&Subst::new().with_this(r2));
        // The declared kind annotation must match.
        let is_region = |n: Symbol| env.is_region_name(n);
        let declared = resolve_kind(kind_ann, &is_region);
        if declared.without_lt() != k3.without_lt() {
            self.err(
                format!("subregion `{sub}` has kind `{k3}`, but the block declares `{declared}`"),
                kind_ann.span(),
            );
        }
        // Effects preconditions.
        if fresh || info.policy == Policy::Vt || info.thread == ThreadTag::NoRt {
            self.require_effect(
                env,
                x,
                &Owner::Heap,
                span,
                "entering this subregion (requires the heap effect because it may allocate \
                 or synchronize with regular threads)",
            );
        }
        if info.thread == ThreadTag::Rt && !x.contains(&Owner::Rt) {
            self.err(
                "entering an RT subregion requires the `RT` effect in the \
                 method's `accesses` clause",
                span,
            );
        }
        if env.is_declared_owner_name(region.name) {
            self.err(
                format!("region name `{region}` shadows an existing owner"),
                region.span,
            );
        }
        let r = Owner::Region(region.name);
        let kr = if matches!(info.policy, Policy::Lt { .. }) {
            k3.with_lt()
        } else {
            k3
        };
        let m = env.mark();
        env.declare_owner(r, kr);
        env.add_outlives(r2, r);
        env.bind_var(handle.name, SType::Handle(r));
        let mut x2 = x.clone();
        x2.insert(r);
        for s in &mut body.stmts {
            self.check_stmt(env, &x2, &r, ret, true, s);
        }
        env.truncate_to(m);
    }

    /// `[EXPR FORK]` / `[EXPR RTFORK]`.
    fn check_fork(
        &mut self,
        env: &Env,
        x: &Effects,
        rcr: &Owner,
        rt: bool,
        call: &mut Expr,
        span: Span,
    ) {
        let x_callee: Effects = if rt {
            // X' = owners of X living in SharedRegion:LT regions, plus RT.
            let mut x2: Effects = x
                .iter()
                .filter(|o| {
                    env.rkind_of(self.table, o)
                        .is_some_and(|k| env.subkind(self.table, &k, &Kind::SharedRegion.with_lt()))
                })
                .copied()
                .collect();
            x2.insert(Owner::Rt);
            x2
        } else {
            let mut x2 = x.clone();
            x2.remove(&Owner::Rt);
            x2
        };
        let Some(call_info) = self.check_call_expr(env, &x_callee, rcr, call) else {
            return;
        };
        let table = self.table;
        let non_local = |env: &Env, k: &Kind| {
            env.subkind(table, k, &Kind::SharedRegion) || env.subkind(table, k, &Kind::GcRegion)
        };
        let bound_name = if rt {
            "SharedRegion"
        } else {
            "SharedRegion or GCRegion"
        };
        // The current region must be shared (RT fork) or shared/heap (fork).
        match env.rkind_of(self.table, rcr) {
            Some(k) if rt && env.subkind(self.table, &k, &Kind::SharedRegion) => {}
            Some(k) if !rt && non_local(env, &k) => {}
            Some(k) => self.err(
                format!(
                    "cannot fork here: the current region `{rcr}` has kind `{k}`, \
                     which is not a subkind of {bound_name}"
                ),
                span,
            ),
            None => self.err(
                format!("cannot fork here: the kind of the current region `{rcr}` is unknown"),
                span,
            ),
        }
        // A real-time thread must not allocate in VT regions: every effect
        // of the spawned method must live in an LT shared region. (Effect
        // *subsumption* alone is not enough — `immortal` outlives every
        // region and would cover a VT-region effect.)
        if rt {
            for fx in &call_info.callee_effects {
                if *fx == Owner::Rt {
                    continue;
                }
                match env.rkind_of(self.table, fx) {
                    Some(k) if env.subkind(self.table, &k, &Kind::SharedRegion.with_lt()) => {}
                    Some(k) => self.err(
                        format!(
                            "a real-time thread would access `{fx}`, which lives in a \
                             region of kind `{k}`; real-time threads may only touch \
                             preallocated (LT) shared regions"
                        ),
                        span,
                    ),
                    None => self.err(
                        format!(
                            "a real-time thread would access `{fx}`, whose region \
                             kind is unknown"
                        ),
                        span,
                    ),
                }
            }
        }
        // Every owner visible to the new thread must live in a shared
        // region (or the heap, for regular forks).
        for o in call_info.recv_owners.iter().chain(&call_info.owner_args) {
            match env.rkind_of(self.table, o) {
                Some(k) if rt && env.subkind(self.table, &k, &Kind::SharedRegion) => {}
                Some(k) if !rt && non_local(env, &k) => {}
                Some(k) => self.err(
                    format!(
                        "cannot pass owner `{o}` to a forked thread: it lives in a \
                         region of kind `{k}`, which is not a subkind of {bound_name}"
                    ),
                    span,
                ),
                None => self.err(
                    format!(
                        "cannot pass owner `{o}` to a forked thread: the kind of the \
                         region it lives in is unknown"
                    ),
                    span,
                ),
            }
        }
    }

    // ----------------------------------------------------------- expressions

    fn check_expr(&mut self, env: &Env, x: &Effects, rcr: &Owner, e: &mut Expr) -> Option<SType> {
        match e {
            Expr::Int(..) => Some(SType::Int),
            Expr::Bool(..) => Some(SType::Bool),
            Expr::Str(..) => Some(SType::Str),
            Expr::Null(_) => Some(SType::Null),
            Expr::This(span) => match env.this_type() {
                Some((name, owners)) => Some(SType::Class {
                    name,
                    owners: owners.to_vec(),
                }),
                None => {
                    self.err("`this` is not available here", *span);
                    None
                }
            },
            Expr::Var(id) => match env.lookup_var(id.name) {
                Some(t) => t.cloned(),
                None => {
                    self.err(format!("unknown variable `{id}`"), id.span);
                    None
                }
            },
            Expr::Unary { op, expr, span } => {
                let t = self.check_expr(env, x, rcr, expr)?;
                let (want, out) = match op {
                    UnOp::Neg => (SType::Int, SType::Int),
                    UnOp::Not => (SType::Bool, SType::Bool),
                };
                if t != want {
                    self.err(
                        format!("operand of `{op:?}` must be `{want}`, found `{t}`"),
                        *span,
                    );
                }
                Some(out)
            }
            Expr::Binary { op, lhs, rhs, span } => {
                let lt = self.check_expr(env, x, rcr, lhs);
                let rt = self.check_expr(env, x, rcr, rhs);
                let (lt, rt) = (lt?, rt?);
                use BinOp::*;
                match op {
                    Add | Sub | Mul | Div | Rem => {
                        if lt != SType::Int || rt != SType::Int {
                            self.err(
                                format!("arithmetic `{op}` requires `int` operands, found `{lt}` and `{rt}`"),
                                *span,
                            );
                        }
                        Some(SType::Int)
                    }
                    Lt | Le | Gt | Ge => {
                        if lt != SType::Int || rt != SType::Int {
                            self.err(
                                format!("comparison `{op}` requires `int` operands, found `{lt}` and `{rt}`"),
                                *span,
                            );
                        }
                        Some(SType::Bool)
                    }
                    Eq | Ne => {
                        let ok = (lt == SType::Int && rt == SType::Int)
                            || (lt == SType::Bool && rt == SType::Bool)
                            || (lt.is_reference() && rt.is_reference());
                        if !ok {
                            self.err(format!("cannot compare `{lt}` with `{rt}`"), *span);
                        }
                        Some(SType::Bool)
                    }
                    And | Or => {
                        if lt != SType::Bool || rt != SType::Bool {
                            self.err(
                                format!("logical `{op}` requires `bool` operands, found `{lt}` and `{rt}`"),
                                *span,
                            );
                        }
                        Some(SType::Bool)
                    }
                }
            }
            Expr::Field { recv, field, span } => {
                let field = *field;
                let span = *span;
                self.field_access(env, x, rcr, recv, &field, span)
            }
            Expr::Call { .. } => self.check_call_expr(env, x, rcr, e).map(|i| i.ret),
            Expr::New { class, span } => {
                // Default completion for `new C` with no owner arguments:
                // allocate in the current region.
                if class.owners.is_empty() {
                    let n = if class.name.name == "Object" {
                        1
                    } else {
                        self.table
                            .class(class.name.name)
                            .map(|i| i.formal_names.len())
                            .unwrap_or(0)
                    };
                    class.owners = vec![rcr.to_ref(); n];
                }
                let mut owners = Vec::with_capacity(class.owners.len());
                for o in &class.owners {
                    owners.push(self.resolve_owner(env, o, false)?);
                }
                if !self.wf_class_type(env, class.name.name, &owners, *span) {
                    return None;
                }
                let first = owners.first().copied()?;
                // Allocating an object accesses its owner.
                self.require_effect(env, x, &first, *span, "allocation owned by");
                // The handle of the target region must be obtainable.
                if !env.handle_available(&first) {
                    self.err(
                        format!(
                            "no region handle is available for owner `{first}`; \
                             pass an `RHandle` argument or allocate through `this`"
                        ),
                        *span,
                    );
                }
                Some(SType::Class {
                    name: class.name.name,
                    owners,
                })
            }
            Expr::IntrinsicCall {
                intrinsic,
                args,
                span,
            } => {
                let tys: Vec<Option<SType>> = args
                    .iter_mut()
                    .map(|a| self.check_expr(env, x, rcr, a))
                    .collect();
                match intrinsic {
                    Intrinsic::Print => {
                        if args.len() != 1 {
                            self.err("`print` takes exactly one argument", *span);
                        } else if let Some(Some(SType::Void)) = tys.first() {
                            self.err("cannot print a `void` value", *span);
                        }
                        Some(SType::Void)
                    }
                    Intrinsic::Io | Intrinsic::Workload => {
                        if args.len() != 1 || !matches!(tys.first(), Some(Some(SType::Int))) {
                            self.err(
                                format!("`{}` takes exactly one `int` argument", intrinsic.name()),
                                *span,
                            );
                        }
                        Some(SType::Void)
                    }
                    Intrinsic::Yield => {
                        if !args.is_empty() {
                            self.err("`yield` takes no arguments", *span);
                        }
                        Some(SType::Void)
                    }
                }
            }
        }
    }

    /// `[EXPR REF READ]` / `[EXPR REF WRITE]` /
    /// `[EXPR GET/SET REGION FIELD]`: resolves a field access (object field
    /// or portal field) and returns the field's type as seen here. The
    /// effects check (`X` must cover the owner of the referenced object)
    /// applies to both reads and writes.
    fn field_access(
        &mut self,
        env: &Env,
        x: &Effects,
        rcr: &Owner,
        recv: &mut Expr,
        field: &Ident,
        span: Span,
    ) -> Option<SType> {
        let recv_is_this = matches!(recv, Expr::This(_));
        let t_recv = self.check_expr(env, x, rcr, recv)?;
        let ft = match &t_recv {
            SType::Handle(r) => {
                // Portal field.
                let k = env.kind_of(r)?;
                let Kind::Named {
                    name: kn,
                    owners: ko,
                } = k.without_lt().clone()
                else {
                    self.err(
                        format!("region `{r}` has no user-declared kind, so no portal fields"),
                        span,
                    );
                    return None;
                };
                let Some(pt) = self.table.portal_type(kn, &ko, field.name) else {
                    self.err(
                        format!("region kind `{kn}` has no portal field `{field}`"),
                        field.span,
                    );
                    return None;
                };
                // `this` in a portal type denotes the region itself.
                pt.subst(&Subst::new().with_this(*r))
            }
            SType::Class { name, owners } => {
                let Some((ft, declared_mentions_this)) =
                    self.table.field(*name, owners, field.name)
                else {
                    self.err(format!("class `{name}` has no field `{field}`"), field.span);
                    return None;
                };
                // Fields whose declared type mentions `this` can only be
                // accessed through `this` (otherwise the owner would be
                // captured by the wrong object).
                if !recv_is_this && declared_mentions_this {
                    self.err(
                        format!(
                            "field `{field}` is owned by its object (its type mentions \
                             `this`) and can only be accessed through `this`"
                        ),
                        span,
                    );
                    return None;
                }
                ft
            }
            SType::Null => {
                self.err("cannot access a field of `null`", span);
                return None;
            }
            other => {
                self.err(format!("type `{other}` has no fields"), span);
                return None;
            }
        };
        if let Some(owner) = ft.first_owner() {
            self.require_effect(env, x, owner, span, "the referenced object's owner");
        }
        Some(ft)
    }

    /// `[EXPR INVOKE]`, shared by plain calls and forks. Also elaborates
    /// inferred owner arguments into the AST.
    fn check_call_expr(
        &mut self,
        env: &Env,
        x: &Effects,
        rcr: &Owner,
        e: &mut Expr,
    ) -> Option<CallInfo> {
        let Expr::Call {
            recv,
            method,
            owner_args,
            args,
            span,
        } = e
        else {
            self.err("`fork` must be applied to a method invocation", e.span());
            return None;
        };
        let span = *span;
        let recv_is_this = matches!(**recv, Expr::This(_));
        let t_recv = self.check_expr(env, x, rcr, recv)?;
        let SType::Class {
            name: cn,
            owners: recv_owners,
        } = t_recv
        else {
            self.err(format!("type `{t_recv}` has no methods"), span);
            return None;
        };
        let Some(sig) = self.table.method_sig(cn, &recv_owners, method.name) else {
            self.err(
                format!("class `{cn}` has no method `{method}`"),
                method.span,
            );
            return None;
        };
        if sig.declared_mentions_this && !recv_is_this {
            self.err(
                format!(
                    "method `{method}`'s signature mentions `this` and can only be \
                     invoked on `this`"
                ),
                span,
            );
            return None;
        }
        // Argument types first (also needed for owner-argument inference).
        let mut arg_tys = Vec::with_capacity(args.len());
        for a in args.iter_mut() {
            arg_tys.push(self.check_expr(env, x, rcr, a)?);
        }
        if args.len() != sig.params.len() {
            self.err(
                format!(
                    "method `{method}` expects {} argument(s), found {}",
                    sig.params.len(),
                    args.len()
                ),
                span,
            );
            return None;
        }
        // Owner arguments: explicit, or inferred by unification.
        let oargs: Vec<Owner> = if owner_args.is_empty() && !sig.formals.is_empty() {
            match infer::infer_call_owner_args(self.table, &sig, &arg_tys, rcr) {
                Ok(inferred) => {
                    *owner_args = inferred.iter().map(Owner::to_ref).collect();
                    inferred
                }
                Err(msg) => {
                    self.err(msg, span);
                    return None;
                }
            }
        } else {
            if owner_args.len() != sig.formals.len() {
                self.err(
                    format!(
                        "method `{method}` expects {} owner argument(s), found {}",
                        sig.formals.len(),
                        owner_args.len()
                    ),
                    span,
                );
                return None;
            }
            let mut out = Vec::with_capacity(owner_args.len());
            for o in owner_args.iter() {
                out.push(self.resolve_owner(env, o, false)?);
            }
            out
        };
        // Rename(·) = [owner args / method formals][rcr / initialRegion].
        let mut rename = Subst::new().with_initial(*rcr);
        for ((fname, _), o) in sig.formals.iter().zip(&oargs) {
            rename.push(*fname, *o);
        }
        // Kinds of the owner arguments.
        for ((fname, fkind), o) in sig.formals.iter().zip(&oargs) {
            let declared = fkind.subst(&rename);
            match env.kind_of(o) {
                Some(k) if env.subkind(self.table, &k, &declared) => {}
                Some(k) => {
                    let notes = crate::kind::explain_subkind(self.table, &k, &declared);
                    self.err_with(
                        format!(
                            "owner argument `{o}` for `{fname}` has kind `{k}`, \
                             which is not a subkind of `{declared}`"
                        ),
                        span,
                        notes,
                    )
                }
                None => self.err(format!("owner `{o}` has no kind here"), span),
            }
            // A formal instantiated with an *object* must own the receiver's
            // owner (Section 2.1); regions are unconstrained.
            let is_region = env.kind_of(o).map(|k| k.is_region_kind()).unwrap_or(false);
            if !is_region {
                if let Some(first) = recv_owners.first() {
                    if !env.owns(o, first) {
                        let notes = env.explain_owns(o, first);
                        self.err_with(
                            format!(
                                "object owner argument `{o}` must (transitively) own \
                                 the receiver's owner `{first}`"
                            ),
                            span,
                            notes,
                        );
                    }
                }
            }
        }
        // Method constraints.
        for c in &sig.constraints {
            let c = c.subst(&rename);
            if !self.constraint_holds(env, &c) {
                let notes = Self::explain_constraint(env, &c);
                self.err_with(
                    format!(
                        "method constraint `{} {} {}` is not satisfied at this call",
                        c.lhs, c.rel, c.rhs
                    ),
                    span,
                    notes,
                );
            }
        }
        // Value arguments.
        for ((_, pt), (a, at)) in sig.params.iter().zip(args.iter().zip(&arg_tys)) {
            let want = pt.subst(&rename);
            self.require_subtype(at, &want, a.span(), "argument");
        }
        // Effects: X must subsume the callee's renamed effects.
        for fx in &sig.effects {
            let fx = rename.apply(fx);
            if fx == Owner::Rt {
                if !x.contains(&Owner::Rt) {
                    self.err(
                        format!(
                            "method `{method}` has the `RT` effect, which the caller \
                             does not have"
                        ),
                        span,
                    );
                }
            } else {
                self.require_effect(env, x, &fx, span, "the callee effect");
            }
        }
        let callee_effects = sig.effects.iter().map(|fx| rename.apply(fx)).collect();
        Some(CallInfo {
            ret: sig.ret.subst(&rename),
            recv_owners,
            owner_args: oargs,
            callee_effects,
        })
    }
}

/// What [`Checker::wf_instance`] checks an owner list against: a class
/// or region kind's formals and constraints, borrowed from its table
/// entry.
struct Formals<'a> {
    /// A class, or else a region kind.
    class: bool,
    name: Symbol,
    names: &'a [Symbol],
    kinds: &'a [Kind],
    constraints: &'a [SConstraint],
}

struct CallInfo {
    ret: SType,
    recv_owners: Vec<Owner>,
    owner_args: Vec<Owner>,
    /// The callee's effects, renamed to the caller's context.
    callee_effects: Vec<Owner>,
}

/// Collects the surface owner references inside a kind annotation (for
/// scope validation).
fn kind_owner_refs(k: &KindAnn) -> Vec<OwnerRef> {
    match k {
        KindAnn::Named { owners, .. } => owners.clone(),
        KindAnn::Lt(inner, _) => kind_owner_refs(inner),
        _ => Vec::new(),
    }
}

/// Conservative "all paths return" analysis. Region blocks do not count:
/// `return` is disallowed inside them.
fn always_returns(b: &Block) -> bool {
    b.stmts.iter().any(stmt_returns)
}

fn stmt_returns(s: &Stmt) -> bool {
    match s {
        Stmt::Return { .. } => true,
        Stmt::If {
            then_blk,
            else_blk: Some(eb),
            ..
        } => always_returns(then_blk) && always_returns(eb),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtj_lang::parser::parse_program;

    fn check(src: &str) -> Result<Checked, Vec<TypeError>> {
        check_program(&parse_program(src).unwrap())
    }

    fn assert_err_containing(src: &str, needle: &str) {
        match check(src) {
            Ok(_) => panic!("expected a type error containing {needle:?}"),
            Err(errs) => {
                assert!(
                    errs.iter().any(|e| e.message.contains(needle)),
                    "no error contains {needle:?}; got: {:#?}",
                    errs.iter().map(|e| &e.message).collect::<Vec<_>>()
                );
            }
        }
    }

    /// A declared type that does not resolve is one error. The
    /// parameter, the local or the local inferred from it is bound
    /// untyped, and an unknown return type checks no `return` against it,
    /// so no use adds an error of its own.
    #[test]
    fn an_unresolved_declaration_type_reports_one_error() {
        let errs = check(
            r#"
            class C<Owner o> { int v; }
            class A<Owner o> {
                Ghost3<o> r(int x) { return null; }
                int g(Ghost4<o> y) { return y.v; }
                void h(Ghost5<o> z) { let C<o> c = z; }
            }
            { let Ghost6<heap> g = null; let b = g == null; print(b); g = null; }
            "#,
        )
        .unwrap_err();
        let messages: Vec<&str> = errs.iter().map(|e| e.message.as_str()).collect();
        assert_eq!(
            messages,
            [
                "unknown class `Ghost3`",
                "unknown class `Ghost4`",
                "unknown class `Ghost5`",
                "unknown class `Ghost6`"
            ]
        );
    }

    /// A local whose type cannot be inferred is one error: it is bound
    /// untyped, so its uses report nothing more.
    #[test]
    fn a_local_without_an_inferable_type_reports_one_error() {
        let errs =
            check("class C<Owner o> { int v; } { let x = null; let C<heap> c = x; x = null; }")
                .unwrap_err();
        let messages: Vec<&str> = errs.iter().map(|e| e.message.as_str()).collect();
        assert_eq!(
            messages,
            ["cannot infer a type for `x` from `null`; annotate the declaration"]
        );
    }

    #[test]
    fn minimal_program_checks() {
        check("{ let x = 1 + 2; print(x); }").unwrap();
    }

    #[test]
    fn region_nesting_and_outlives() {
        // Figure 5's legality matrix: s1, s2, s3 legal; s6 illegal.
        let ok = r#"
            class TStack<Owner stackOwner, Owner TOwner> { int n; }
            {
                (RHandle<r1> h1) {
                    (RHandle<r2> h2) {
                        let TStack<r2, r2> s1 = new TStack<r2, r2>;
                        let TStack<r2, r1> s2 = new TStack<r2, r1>;
                        let TStack<r1, immortal> s3 = new TStack<r1, immortal>;
                        let TStack<heap, immortal> s4 = new TStack<heap, immortal>;
                        let TStack<immortal, heap> s5 = new TStack<immortal, heap>;
                    }
                }
            }
        "#;
        check(ok).unwrap();
        assert_err_containing(
            r#"
            class TStack<Owner stackOwner, Owner TOwner> { int n; }
            {
                (RHandle<r1> h1) {
                    (RHandle<r2> h2) {
                        let TStack<r1, r2> s6 = new TStack<r1, r2>;
                    }
                }
            }
            "#,
            "must outlive the first owner",
        );
    }

    #[test]
    fn dangling_field_write_rejected() {
        // Storing an inner-region object into an outer-region object's field
        // would create a dangling reference.
        assert_err_containing(
            r#"
            class Box<Owner o, Owner p> { Cell<p> c; }
            class Cell<Owner o> { int v; }
            {
                (RHandle<r1> h1) {
                    (RHandle<r2> h2) {
                        let Box<r1, r2> b = new Box<r1, r2>;
                    }
                }
            }
            "#,
            "must outlive the first owner",
        );
    }

    #[test]
    fn effects_are_enforced() {
        assert_err_containing(
            r#"
            class C<Owner o> {
                void leakyAlloc(RHandle<heap> hh) accesses o {
                    let Object<heap> x = new Object<heap>;
                }
            }
            { }
            "#,
            "do not cover",
        );
    }

    #[test]
    fn handle_required_for_allocation() {
        assert_err_containing(
            r#"
            class C<Owner o> {
                void alloc<Region q>() accesses q {
                    let Object<q> x = new Object<q>;
                }
            }
            { }
            "#,
            "no region handle",
        );
        // With the handle passed, it checks.
        check(
            r#"
            class C<Owner o> {
                void alloc<Region q>(RHandle<q> h) accesses q {
                    let Object<q> x = new Object<q>;
                }
            }
            { }
            "#,
        )
        .unwrap();
    }

    #[test]
    fn this_owned_fields_are_encapsulated() {
        assert_err_containing(
            r#"
            class Stack<Owner o> {
                Node<this> head;
            }
            class Node<Owner o> { int v; }
            {
                (RHandle<r> h) {
                    let Stack<r> s = new Stack<r>;
                    let x = s.head;
                }
            }
            "#,
            "can only be accessed through `this`",
        );
    }

    #[test]
    fn let_type_inference_elaborates() {
        let checked = check(
            r#"
            class Cell<Owner o> { int v; }
            {
                (RHandle<r> h) {
                    let c = new Cell<r>;
                    c.v = 3;
                }
            }
            "#,
        )
        .unwrap();
        // The `let` should now carry an explicit type.
        let Stmt::LocalRegion { body, .. } = &checked.program.main.stmts[0] else {
            panic!("expected region");
        };
        let Stmt::Let { ty, .. } = &body.stmts[0] else {
            panic!("expected let");
        };
        assert!(ty.is_some(), "inferred type written back");
    }

    #[test]
    fn return_inside_region_rejected() {
        assert_err_containing(
            r#"
            class C<Owner o> {
                int m() accesses heap {
                    (RHandle<r> h) {
                        return 1;
                    }
                    return 2;
                }
            }
            { }
            "#,
            "region block",
        );
    }

    #[test]
    fn missing_return_rejected() {
        assert_err_containing(
            r#"
            class C<Owner o> {
                int m(bool b) {
                    if (b) { return 1; }
                }
            }
            { }
            "#,
            "on all paths",
        );
    }

    #[test]
    fn region_creation_requires_heap_effect() {
        assert_err_containing(
            r#"
            class C<Owner o> {
                void m() accesses o {
                    (RHandle<r> h) { }
                }
            }
            { }
            "#,
            "do not cover",
        );
        check(
            r#"
            class C<Owner o> {
                void m() accesses o, heap {
                    (RHandle<r> h) { }
                }
            }
            { }
            "#,
        )
        .unwrap();
    }

    #[test]
    fn null_inference_requires_annotation() {
        assert_err_containing("{ let x = null; }", "annotate");
    }

    #[test]
    fn condition_must_be_bool() {
        assert_err_containing("{ if (1) { } }", "must be `bool`");
        assert_err_containing("{ while (0) { } }", "must be `bool`");
    }
}
