//! Incremental, fingerprint-keyed re-checking.
//!
//! [`IncrementalChecker`] keeps the result of the last check — per-class
//! diagnostics, per-class judgment-cache counters, the built
//! [`ProgramTable`] — keyed by structural fingerprints
//! ([`rtj_lang::fingerprint`]), and re-checks only the *dirty closure* of
//! an edit batch. The contract, enforced by
//! `tests/incremental_differential.rs`, is strict:
//!
//! > At any `--jobs`, a `recheck` produces **byte-identical diagnostics**
//! > and a structurally identical `rtj-checker-metrics/v1` snapshot to a
//! > from-scratch [`crate::check_program_in`] of the same source.
//!
//! How the reuse works:
//!
//! * Every class gets a **signature** fingerprint (what dependents can
//!   observe; span-free) and a **full** fingerprint (everything, with
//!   declaration-relative spans). A body-only edit changes `full` but not
//!   `sig`.
//! * A **reverse dependency index** is derived from the class/region-kind
//!   names each declaration mentions. Signature changes (and class or
//!   region-kind additions/removals) seed a BFS over reversed edges; the
//!   resulting closure is re-checked. The index is transitive, so names a
//!   class only reaches through a dependency's members are still covered.
//! * If **no** signature changed, the cached `ProgramTable` is reused:
//!   only the edited classes' stored declarations are swapped
//!   ([`ProgramTable::refresh_class_decl`]), skipping the full structural
//!   rebuild — at `scaled_classes(64)` the rebuild alone costs ~18% of a
//!   from-scratch check, which would cap the incremental speedup well
//!   below its target.
//! * Clean classes contribute their cached diagnostics with spans
//!   **shifted** by the declaration's movement. Equal full fingerprints
//!   guarantee the declaration's internal layout is unchanged, so the
//!   uniform shift is exact, not approximate.
//! * Judgment-cache counters are cached per class. Each class is checked
//!   in a fresh environment (the driver has always worked that way), so
//!   per-class counters are deterministic and scheduling-independent —
//!   summing cached and fresh counters reproduces the from-scratch totals
//!   exactly.
//!
//! The region-kind and inheritance well-formedness passes are cached the
//! same way (per declaration), and the `main` block is always re-checked
//! (it is a fraction of a percent of the total).

use crate::check::{CheckOptions, CheckStats, Checker};
use crate::env::{Effects, Env, JudgmentCounters};
use crate::error::TypeError;
use crate::infer;
use crate::owner::Owner;
use crate::profile::{CheckProfile, PhaseSpan};
use crate::stype::SType;
use crate::table::ProgramTable;
use rtj_lang::ast::Program;
use rtj_lang::fingerprint::{
    class_refs, fingerprint_class, fingerprint_region_kind, ClassFingerprint,
};
use rtj_lang::intern::Symbol;
use rtj_lang::parser::{parse_program, ParseError};
use rtj_lang::span::Span;
use std::collections::{HashMap, HashSet};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// A single-class edit: replace the declaration of `class` with `source`
/// (the full replacement declaration text, `class ... { ... }`).
#[derive(Debug, Clone, PartialEq)]
pub struct ClassEdit {
    /// Name of the class to replace.
    pub class: String,
    /// Replacement declaration source text.
    pub source: String,
}

/// Why a [`IncrementalChecker::recheck`] call could not run.
#[derive(Debug, Clone)]
pub enum RecheckError {
    /// The edited source no longer parses. The engine state is unchanged
    /// (the next well-formed batch diffs against the last good check).
    Parse(ParseError),
    /// An edit targeted a class the current source does not declare.
    UnknownClass(String),
}

impl std::fmt::Display for RecheckError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecheckError::Parse(e) => write!(f, "parse error: {}", e.message),
            RecheckError::UnknownClass(c) => write!(f, "no class `{c}` to edit"),
        }
    }
}

impl std::error::Error for RecheckError {}

/// The result of one incremental (or initial) check pass.
#[derive(Debug, Clone)]
pub struct RecheckOutcome {
    /// All diagnostics for the *current* source, byte-identical to a
    /// from-scratch check (cached ones span-shifted, dirty ones fresh).
    pub errors: Vec<TypeError>,
    /// Statistics equal to a from-scratch run's (counters summed over
    /// cached and fresh units; `elapsed` is this pass's wall clock).
    pub stats: CheckStats,
    /// Phase-span tree when [`CheckOptions::profile`] is set; structure
    /// (names and ordering) matches a from-scratch profile.
    pub profile: Option<CheckProfile>,
    /// Names of the classes that were actually re-checked, in declaration
    /// order.
    pub dirty: Vec<Symbol>,
    /// Class units whose cached results were reused.
    pub reused: usize,
    /// Total classes in the program.
    pub classes: usize,
    /// Whether the pass rebuilt the [`ProgramTable`] from scratch
    /// (signature/region-kind/class-set change — or the first pass).
    pub full_rebuild: bool,
    /// Wall-clock nanoseconds of the checking work, parsing excluded
    /// (parse time is reported separately by the drivers; both sides of
    /// the bench speedup exclude it).
    pub check_ns: u64,
}

impl RecheckOutcome {
    /// Whether the current source checks cleanly.
    pub fn ok(&self) -> bool {
        self.errors.is_empty()
    }
}

/// Cached per-class results from the last pass that processed the class.
#[derive(Debug, Clone)]
struct UnitCache {
    sig: u64,
    full: u64,
    start: u32,
    refs: Vec<Symbol>,
    wf_errors: Vec<TypeError>,
    wf_judgments: JudgmentCounters,
    errors: Vec<TypeError>,
    methods_checked: usize,
    judgments: JudgmentCounters,
}

/// Cached per-region-kind well-formedness results.
#[derive(Debug, Clone)]
struct RkCache {
    fp: u64,
    start: u32,
    errors: Vec<TypeError>,
    judgments: JudgmentCounters,
}

/// The incremental re-check engine. See the module docs for the contract
/// and the reuse strategy.
#[derive(Debug, Default)]
pub struct IncrementalChecker {
    opts: CheckOptions,
    source: String,
    /// Class name → its span in `source` (for edit splicing).
    decl_spans: Vec<(Symbol, Span)>,
    /// Table from the last pass whose build succeeded.
    table: Option<ProgramTable>,
    units: HashMap<Symbol, UnitCache>,
    rkinds: HashMap<Symbol, RkCache>,
}

impl IncrementalChecker {
    /// Creates an empty engine; the first [`IncrementalChecker::check_source`]
    /// is a full check that populates the caches.
    pub fn new(opts: CheckOptions) -> IncrementalChecker {
        IncrementalChecker {
            opts,
            ..IncrementalChecker::default()
        }
    }

    /// The source text of the last successfully parsed pass.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// Checks a full source text, reusing whatever the fingerprints prove
    /// unchanged since the last pass.
    ///
    /// # Errors
    ///
    /// Returns the parse error if `source` does not parse; the engine
    /// state is left at the last good pass.
    pub fn check_source(&mut self, source: &str) -> Result<RecheckOutcome, ParseError> {
        let prog = parse_program(source)?;
        Ok(self.process(source.to_string(), prog, None))
    }

    /// Applies a batch of single-class edits to the stored source and
    /// re-checks the dirty closure.
    ///
    /// # Errors
    ///
    /// [`RecheckError::UnknownClass`] if an edit names a class the current
    /// source does not declare; [`RecheckError::Parse`] if the edited
    /// source does not parse. Either way the engine state is unchanged.
    pub fn recheck(&mut self, edits: &[ClassEdit]) -> Result<RecheckOutcome, RecheckError> {
        let mut source = self.source.clone();
        let mut spans = self.decl_spans.clone();
        for e in edits {
            let idx = spans
                .iter()
                .position(|(n, _)| n.as_str() == e.class)
                .ok_or_else(|| RecheckError::UnknownClass(e.class.clone()))?;
            let (lo, hi) = (spans[idx].1.start as usize, spans[idx].1.end as usize);
            source.replace_range(lo..hi, &e.source);
            let delta = e.source.len() as i64 - (hi - lo) as i64;
            spans[idx].1.end = (hi as i64 + delta) as u32;
            for (j, (_, s)) in spans.iter_mut().enumerate() {
                if j != idx && s.start as usize >= hi {
                    s.start = (s.start as i64 + delta) as u32;
                    s.end = (s.end as i64 + delta) as u32;
                }
            }
        }
        let prog = parse_program(&source).map_err(RecheckError::Parse)?;
        // The splice only rewrote the named declarations' text, so only
        // those classes need structural re-fingerprinting — the dominant
        // cost of a pass once everything else is cache hits.
        let touched: HashSet<String> = edits.iter().map(|e| e.class.clone()).collect();
        Ok(self.process(source, prog, Some(&touched)))
    }

    /// One checking pass over a parsed program: diff fingerprints, decide
    /// the dirty set, check it, merge with cached results, commit.
    ///
    /// `touched`, when given, is the set of class names whose declaration
    /// text may differ from the cached pass — every other declaration is
    /// textually identical (the [`IncrementalChecker::recheck`] splicing
    /// invariant), so its cached fingerprints are reused unhashed. A
    /// class parsed out of a replaced span either carries the edited name
    /// (in the set) or a new name (not in the unit cache) — both are
    /// hashed fresh; a duplicate of an existing name trips the
    /// duplicate/table-error path before any fingerprint is trusted.
    fn process(
        &mut self,
        source: String,
        mut prog: Program,
        touched: Option<&HashSet<String>>,
    ) -> RecheckOutcome {
        let start = Instant::now();
        let profiling = self.opts.profile;
        let mut phases: Vec<PhaseSpan> = Vec::new();

        self.decl_spans = prog.classes.iter().map(|c| (c.name.name, c.span)).collect();
        self.source = source;

        // lower: exactly the from-scratch phase (idempotent, ~2% of a full
        // check; re-running it whole keeps elaborated fingerprints honest).
        let p0 = profiling.then(|| start.elapsed());
        infer::apply_declaration_defaults(&mut prog);
        if let Some(p0) = p0 {
            phases.push(PhaseSpan::leaf("lower", p0, start.elapsed() - p0));
        }

        // table: fingerprint, diff, and rebuild-or-patch.
        let p0 = profiling.then(|| start.elapsed());
        let total = prog.classes.len();
        let fps: Vec<ClassFingerprint> = prog
            .classes
            .iter()
            .map(|c| {
                if let Some(touched) = touched {
                    if !touched.contains(c.name.name.as_str()) {
                        if let Some(u) = self.units.get(&c.name.name) {
                            return ClassFingerprint {
                                sig: u.sig,
                                full: u.full,
                            };
                        }
                    }
                }
                fingerprint_class(c)
            })
            .collect();
        let rkfps: Vec<u64> = prog
            .region_kinds
            .iter()
            .map(fingerprint_region_kind)
            .collect();

        let mut names: HashSet<Symbol> = HashSet::with_capacity(total);
        let mut dup = false;
        for c in &prog.classes {
            dup |= !names.insert(c.name.name);
        }
        let mut rknames: HashSet<Symbol> = HashSet::new();
        for rk in &prog.region_kinds {
            dup |= !rknames.insert(rk.name.name);
        }

        // Seeds: classes whose *signature* changed (or appeared/vanished)
        // and region kinds that changed at all.
        let mut seeds: Vec<Symbol> = Vec::new();
        for (c, fp) in prog.classes.iter().zip(&fps) {
            match self.units.get(&c.name.name) {
                Some(u) if u.sig == fp.sig => {}
                _ => seeds.push(c.name.name),
            }
        }
        seeds.extend(self.units.keys().filter(|n| !names.contains(n)));
        for (rk, fp) in prog.region_kinds.iter().zip(&rkfps) {
            match self.rkinds.get(&rk.name.name) {
                Some(r) if r.fp == *fp => {}
                _ => seeds.push(rk.name.name),
            }
        }
        seeds.extend(self.rkinds.keys().filter(|n| !rknames.contains(n)));

        let fast = !dup && seeds.is_empty() && self.table.is_some();
        let mut dirty = vec![false; total];
        let table = if fast {
            let mut table = self.table.take().expect("fast path requires a table");
            for (i, (c, fp)) in prog.classes.iter().zip(&fps).enumerate() {
                let cached = self.units.get(&c.name.name).expect("class set unchanged");
                if cached.full != fp.full {
                    dirty[i] = true;
                    // The structural facts still hold (signature unchanged)
                    // but spans and bodies moved: swap the stored decl so
                    // error reporting against this class reads current spans.
                    table.refresh_class_decl(c.name.name, c);
                }
            }
            table
        } else {
            let built = match ProgramTable::build(&prog) {
                Ok(t) => t,
                Err(errors) => {
                    // From-scratch parity: the driver returns table errors
                    // alone, before any unit runs. Keep the caches at the
                    // last good pass so the next diff is against it.
                    let elapsed = start.elapsed();
                    return RecheckOutcome {
                        errors,
                        stats: CheckStats {
                            classes_checked: total,
                            elapsed,
                            ..CheckStats::default()
                        },
                        profile: None,
                        dirty: Vec::new(),
                        reused: 0,
                        classes: total,
                        full_rebuild: true,
                        check_ns: elapsed.as_nanos() as u64,
                    };
                }
            };
            // Reverse dependency index over declaration references, then
            // the BFS closure of the seeds. Content-unchanged classes
            // reuse their cached (elaborated) reference sets.
            let mut reverse: HashMap<Symbol, Vec<Symbol>> = HashMap::new();
            for (c, fp) in prog.classes.iter().zip(&fps) {
                let refs = match self.units.get(&c.name.name) {
                    Some(u) if u.full == fp.full => u.refs.clone(),
                    _ => class_refs(c),
                };
                for r in refs {
                    reverse.entry(r).or_default().push(c.name.name);
                }
            }
            for rk in &prog.region_kinds {
                for r in rtj_lang::fingerprint::region_kind_refs(rk) {
                    reverse.entry(r).or_default().push(rk.name.name);
                }
            }
            let mut closure: HashSet<Symbol> = HashSet::new();
            let mut work = seeds;
            while let Some(n) = work.pop() {
                if !closure.insert(n) {
                    continue;
                }
                if let Some(deps) = reverse.get(&n) {
                    work.extend(deps.iter().copied());
                }
            }
            for (i, (c, fp)) in prog.classes.iter().zip(&fps).enumerate() {
                dirty[i] = closure.contains(&c.name.name)
                    || self
                        .units
                        .get(&c.name.name)
                        .is_none_or(|u| u.full != fp.full);
            }
            built
        };
        if let Some(p0) = p0 {
            phases.push(PhaseSpan::leaf("table", p0, start.elapsed() - p0));
        }

        // wf: region kinds, then inheritance, both per declaration (a
        // fresh `Checker` per unit absorbs the same environments in the
        // same order as the from-scratch single-pass prelude, so errors
        // and counters are identical). Fast path reuses clean units.
        let p0 = profiling.then(|| start.elapsed());
        let mut rk_results: Vec<(Vec<TypeError>, JudgmentCounters)> =
            Vec::with_capacity(prog.region_kinds.len());
        for rk in &prog.region_kinds {
            if fast {
                let cached = self.rkinds.get(&rk.name.name).expect("rk set unchanged");
                let delta = i64::from(rk.span.start) - i64::from(cached.start);
                rk_results.push((shift_errors(&cached.errors, delta), cached.judgments));
            } else {
                let mut ck = Checker::new(&table);
                ck.check_region_kind(rk);
                rk_results.push((std::mem::take(&mut ck.errors), ck.judgments));
            }
        }
        let mut cls_wf: Vec<(Vec<TypeError>, JudgmentCounters)> = Vec::with_capacity(total);
        for (i, c) in prog.classes.iter().enumerate() {
            if fast && !dirty[i] {
                let cached = self.units.get(&c.name.name).expect("class set unchanged");
                let delta = i64::from(c.span.start) - i64::from(cached.start);
                cls_wf.push((shift_errors(&cached.wf_errors, delta), cached.wf_judgments));
            } else {
                let mut ck = Checker::new(&table);
                ck.check_inheritance(std::slice::from_ref(c));
                cls_wf.push((std::mem::take(&mut ck.errors), ck.judgments));
            }
        }
        if let Some(p0) = p0 {
            phases.push(PhaseSpan::leaf("wf", p0, start.elapsed() - p0));
        }

        // classes: check the dirty units (parallel like the from-scratch
        // driver), reuse the rest from cache with spans shifted.
        let jobs_resolved = match self.opts.jobs {
            0 => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            n => n,
        };
        let dirty_count = dirty.iter().filter(|d| **d).count();
        let workers = jobs_resolved.min(dirty_count.max(1));
        let mut classes = std::mem::take(&mut prog.classes);
        let p0 = profiling.then(|| start.elapsed());
        type FreshUnit = (
            Vec<TypeError>,
            usize,
            JudgmentCounters,
            Option<(Duration, Duration)>,
        );
        let mut fresh: Vec<Option<FreshUnit>> = (0..total).map(|_| None).collect();
        if workers <= 1 {
            for (i, c) in classes.iter_mut().enumerate().filter(|(i, _)| dirty[*i]) {
                let c0 = profiling.then(|| start.elapsed());
                let mut ck = Checker::new(&table);
                ck.check_class(c);
                let t = c0.map(|c0| (c0, start.elapsed() - c0));
                fresh[i] = Some((
                    std::mem::take(&mut ck.errors),
                    ck.methods_checked,
                    ck.judgments,
                    t,
                ));
            }
        } else {
            let dirty = &dirty;
            let queue = Mutex::new(classes.iter_mut().enumerate().filter(|(i, _)| dirty[*i]));
            let results: Vec<Vec<(usize, FreshUnit)>> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..workers)
                    .map(|_| {
                        let queue = &queue;
                        let table = &table;
                        s.spawn(move || {
                            let mut units = Vec::new();
                            loop {
                                let item = queue.lock().unwrap().next();
                                let Some((i, c)) = item else { break };
                                let c0 = profiling.then(|| start.elapsed());
                                let mut ck = Checker::new(table);
                                ck.check_class(c);
                                let t = c0.map(|c0| (c0, start.elapsed() - c0));
                                units.push((
                                    i,
                                    (
                                        std::mem::take(&mut ck.errors),
                                        ck.methods_checked,
                                        ck.judgments,
                                        t,
                                    ),
                                ));
                            }
                            units
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            for (i, unit) in results.into_iter().flatten() {
                fresh[i] = Some(unit);
            }
        }
        // Per-class final results, cached or fresh.
        let mut unit_final: Vec<FreshUnit> = Vec::with_capacity(total);
        for (i, c) in classes.iter().enumerate() {
            if dirty[i] {
                unit_final.push(fresh[i].take().expect("dirty unit was checked"));
            } else {
                let cached = self.units.get(&c.name.name).expect("clean unit is cached");
                let delta = i64::from(c.span.start) - i64::from(cached.start);
                unit_final.push((
                    shift_errors(&cached.errors, delta),
                    cached.methods_checked,
                    cached.judgments,
                    None,
                ));
            }
        }
        if let Some(p0) = p0 {
            let children = classes
                .iter()
                .zip(&unit_final)
                .map(|(c, (_, _, _, t))| {
                    let (s0, w) = t.unwrap_or((Duration::ZERO, Duration::ZERO));
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

        // main: always re-checked (a fraction of a percent of the total,
        // and it may reference any class).
        let p0 = profiling.then(|| start.elapsed());
        let mut ck = Checker::new(&table);
        let mut env = Env::base();
        let x: Effects = [Owner::Heap, Owner::Immortal].into_iter().collect();
        for s in &mut prog.main.stmts {
            ck.check_stmt(&mut env, &x, &Owner::Heap, &SType::Void, false, s);
        }
        ck.absorb_env(&env);
        let main_errors = std::mem::take(&mut ck.errors);
        let main_judgments = ck.judgments;
        if let Some(p0) = p0 {
            phases.push(PhaseSpan::leaf("main", p0, start.elapsed() - p0));
        }

        // Merge in from-scratch order: region kinds, inheritance, class
        // units (declaration order), main; stable span sort.
        let mut all: Vec<TypeError> = Vec::new();
        let mut judgments = JudgmentCounters::default();
        let mut methods_checked = 0usize;
        for (errs, j) in &rk_results {
            all.extend(errs.iter().cloned());
            judgments.absorb(j);
        }
        for (errs, j) in &cls_wf {
            all.extend(errs.iter().cloned());
            judgments.absorb(j);
        }
        for (errs, m, j, _) in &unit_final {
            all.extend(errs.iter().cloned());
            methods_checked += m;
            judgments.absorb(j);
        }
        all.extend(main_errors);
        judgments.absorb(&main_judgments);
        all.sort_by_key(|e| e.span);

        // Commit the new cache state.
        let dirty_names: Vec<Symbol> = classes
            .iter()
            .zip(&dirty)
            .filter(|(_, d)| **d)
            .map(|(c, _)| c.name.name)
            .collect();
        if fast {
            // Class and region-kind sets are unchanged, and a clean entry's
            // stored `(start, errors)` pair stays internally consistent (the
            // shift delta is recomputed against it every pass) — so only the
            // dirty entries need rewriting.
            for (i, ((c, (errors, m, j, _)), (wf_errors, wf_j))) in
                classes.iter().zip(unit_final).zip(cls_wf).enumerate()
            {
                if !dirty[i] {
                    continue;
                }
                let u = self
                    .units
                    .get_mut(&c.name.name)
                    .expect("class set unchanged");
                u.full = fps[i].full;
                u.start = c.span.start;
                u.refs = class_refs(c);
                u.wf_errors = wf_errors;
                u.wf_judgments = wf_j;
                u.errors = errors;
                u.methods_checked = m;
                u.judgments = j;
            }
        } else {
            let mut old_units = std::mem::take(&mut self.units);
            for (i, ((c, (errors, m, j, _)), (wf_errors, wf_j))) in
                classes.iter().zip(unit_final).zip(cls_wf).enumerate()
            {
                let refs = if dirty[i] {
                    class_refs(c)
                } else {
                    old_units
                        .remove(&c.name.name)
                        .map(|u| u.refs)
                        .unwrap_or_else(|| class_refs(c))
                };
                self.units.insert(
                    c.name.name,
                    UnitCache {
                        sig: fps[i].sig,
                        full: fps[i].full,
                        start: c.span.start,
                        refs,
                        wf_errors,
                        wf_judgments: wf_j,
                        errors,
                        methods_checked: m,
                        judgments: j,
                    },
                );
            }
            self.rkinds.clear();
            for ((rk, fp), unit) in prog.region_kinds.iter().zip(&rkfps).zip(&rk_results) {
                let (errors, j) = unit.clone();
                self.rkinds.insert(
                    rk.name.name,
                    RkCache {
                        fp: *fp,
                        start: rk.span.start,
                        errors,
                        judgments: j,
                    },
                );
            }
        }
        self.table = Some(table);

        let elapsed = start.elapsed();
        let stats = CheckStats {
            classes_checked: total,
            methods_checked,
            judgments,
            threads_used: jobs_resolved.min(total.max(1)),
            elapsed,
        };
        RecheckOutcome {
            errors: all,
            stats,
            profile: profiling.then_some(CheckProfile { phases }),
            dirty: dirty_names,
            reused: total - dirty_count,
            classes: total,
            full_rebuild: !fast,
            check_ns: elapsed.as_nanos() as u64,
        }
    }
}

/// Relocates cached diagnostics by the declaration's movement. Dummy
/// spans (synthesized nodes) are position-independent and stay put.
fn shift_errors(errors: &[TypeError], delta: i64) -> Vec<TypeError> {
    if delta == 0 {
        return errors.to_vec();
    }
    errors
        .iter()
        .map(|e| {
            let mut e = e.clone();
            e.span = shift_span(e.span, delta);
            e
        })
        .collect()
}

fn shift_span(s: Span, delta: i64) -> Span {
    if s == Span::DUMMY {
        return s;
    }
    Span {
        start: (i64::from(s.start) + delta) as u32,
        end: (i64::from(s.end) + delta) as u32,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::check_program_in;

    fn src() -> String {
        "class B<Owner o> { int v; int get() { return this.v; } }\n\
         class A<Owner o> { B<o> f; int probe() { return this.f.get(); } }\n\
         { let b = new B<heap>; print(b.get()); }\n"
            .to_string()
    }

    #[test]
    fn initial_pass_matches_from_scratch() {
        let mut eng = IncrementalChecker::new(CheckOptions::default());
        let out = eng.check_source(&src()).unwrap();
        assert!(out.ok());
        assert!(out.full_rebuild);
        assert_eq!(out.dirty.len(), 2);
        let scratch =
            check_program_in(parse_program(&src()).unwrap(), &CheckOptions::default()).unwrap();
        assert_eq!(out.stats.judgments, scratch.stats.judgments);
        assert_eq!(out.stats.methods_checked, scratch.stats.methods_checked);
    }

    #[test]
    fn body_edit_rechecks_only_the_edited_class() {
        let mut eng = IncrementalChecker::new(CheckOptions::default());
        eng.check_source(&src()).unwrap();
        let out = eng
            .recheck(&[ClassEdit {
                class: "B".to_string(),
                source: "class B<Owner o> { int v; int get() { return this.v + 0; } }".to_string(),
            }])
            .unwrap();
        assert!(out.ok(), "{:?}", out.errors);
        assert!(!out.full_rebuild, "body edit must not rebuild the table");
        let names: Vec<&str> = out.dirty.iter().map(|s| s.as_str()).collect();
        assert_eq!(names, vec!["B"]);
        assert_eq!(out.reused, 1);
    }

    #[test]
    fn signature_edit_invalidates_dependents() {
        let mut eng = IncrementalChecker::new(CheckOptions::default());
        eng.check_source(&src()).unwrap();
        let out = eng
            .recheck(&[ClassEdit {
                class: "B".to_string(),
                source: "class B<Owner o> { int v; int get() { return this.v; } \
                         int extra() { return 7; } }"
                    .to_string(),
            }])
            .unwrap();
        assert!(out.ok(), "{:?}", out.errors);
        assert!(out.full_rebuild);
        let names: Vec<&str> = out.dirty.iter().map(|s| s.as_str()).collect();
        assert_eq!(names, vec!["B", "A"], "A references B and must re-check");
    }

    #[test]
    fn unknown_class_edit_is_rejected() {
        let mut eng = IncrementalChecker::new(CheckOptions::default());
        eng.check_source(&src()).unwrap();
        let err = eng
            .recheck(&[ClassEdit {
                class: "Zed".to_string(),
                source: "class Zed<Owner o> { }".to_string(),
            }])
            .unwrap_err();
        assert!(matches!(err, RecheckError::UnknownClass(_)));
    }
}
