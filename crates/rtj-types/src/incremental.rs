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
//! * A **reverse dependency index** maps each class and region-kind name
//!   to the declarations that mention it. The engine keeps it in step
//!   with the committed reference sets. Signature changes (and class or
//!   region-kind additions/removals) seed a BFS over it; the resulting
//!   closure is re-checked. The closure is transitive, so names a class
//!   only reaches through a dependency's members are still covered.
//! * The table is rebuilt only when the class set, a region kind or a
//!   formal count changes. Otherwise each re-parsed class's entry is
//!   patched ([`ProgramTable::patch_class`]) and the table's per-class
//!   structural rules re-run over the closure
//!   ([`ProgramTable::check_classes`]). At `scaled_classes(512)` the
//!   rebuild, the reverse index and the closure take ~16 ms; a whole
//!   signature re-check on the patched table takes ~2 ms.
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
//!
//! Parsing is reused too. A batch takes the **fragment path** when every
//! edited declaration parses on its own at its splice offset, fills its
//! text exactly, and keeps its name and formal count. Then only the edited
//! declarations, the unchanged text of the classes in a changed
//! signature's dirty closure, and `main` are parsed; every other class is
//! known by its name and current start alone. Renames, formal-count
//! changes, text with leading or trailing trivia, parse errors, a closure
//! that reaches a region kind and a structural error on the patched table
//! parse the whole source. [`IncrementalChecker::check_source`] takes the
//! same path when the new text differs from the stored one inside a
//! single class declaration. DESIGN.md §9 states the route rule and why
//! both parses agree.

use crate::check::{CheckOptions, CheckStats, Checker};
use crate::env::{Effects, Env, JudgmentCounters};
use crate::error::TypeError;
use crate::infer;
use crate::owner::Owner;
use crate::profile::{CheckProfile, PhaseSpan};
use crate::stype::SType;
use crate::table::ProgramTable;
use rtj_lang::ast::{Block, ClassDecl, Program};
use rtj_lang::fingerprint::{
    class_refs, fingerprint_class, fingerprint_region_kind, region_kind_refs, ClassFingerprint,
};
use rtj_lang::intern::Symbol;
use rtj_lang::parser::{parse_block_at, parse_class_at, parse_program, ParseError};
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
    /// Whether the pass rebuilt the [`ProgramTable`] from scratch: the
    /// first pass, and whole-source passes that change the class set, a
    /// region kind or a signature. The fragment path patches the kept
    /// table instead.
    pub full_rebuild: bool,
    /// Whether the pass parsed the whole source. `false` only on the
    /// fragment path, which parses the edited declarations, the classes
    /// of a changed signature's dirty closure, and `main`.
    pub whole_parse: bool,
    /// Wall-clock nanoseconds of the checking work, parsing excluded.
    /// Edit-to-verdict latency is the whole `recheck` (or `check_source`)
    /// call; this is the part of it that is not lexing or parsing.
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

/// Reverse dependency index: each class or region-kind name to the
/// declarations that mention it ([`class_refs`], [`region_kind_refs`]).
type Dependents = HashMap<Symbol, Vec<Symbol>>;

/// Records that declaration `from` mentions each of `refs`.
fn link(index: &mut Dependents, from: Symbol, refs: &[Symbol]) {
    for r in refs {
        index.entry(*r).or_default().push(from);
    }
}

/// Undoes [`link`].
fn unlink(index: &mut Dependents, from: Symbol, refs: &[Symbol]) {
    for r in refs {
        if let Some(deps) = index.get_mut(r) {
            if let Some(at) = deps.iter().position(|d| *d == from) {
                deps.swap_remove(at);
            }
        }
    }
}

/// Every name reachable from `seeds` over `index`: the seeds and each
/// declaration that mentions one, directly or through other
/// declarations.
fn dependent_closure(index: &Dependents, seeds: Vec<Symbol>) -> HashSet<Symbol> {
    let mut closure = HashSet::new();
    let mut work = seeds;
    while let Some(n) = work.pop() {
        if closure.insert(n) {
            if let Some(deps) = index.get(&n) {
                work.extend(deps.iter().copied());
            }
        }
    }
    closure
}

/// Where the declarations of the stored source sit. A whole-source parse
/// records it; edit splicing keeps it in step with the text.
#[derive(Debug, Clone, Default)]
struct Layout {
    /// Class names and spans, in declaration order.
    classes: Vec<(Symbol, Span)>,
    /// Region-kind names and spans, in declaration order.
    region_kinds: Vec<(Symbol, Span)>,
    /// Byte offset of the main block's opening brace.
    main: u32,
}

impl Layout {
    fn of(prog: &Program) -> Layout {
        Layout {
            classes: prog.classes.iter().map(|c| (c.name.name, c.span)).collect(),
            region_kinds: prog
                .region_kinds
                .iter()
                .map(|rk| (rk.name.name, rk.span))
                .collect(),
            main: prog.main.span.start,
        }
    }

    /// Records that class `idx`'s text was replaced by `len` bytes: its
    /// span now ends `len` bytes after its start, and every declaration
    /// after it (`main` included) moves by the change in length.
    fn splice(&mut self, idx: usize, len: usize) {
        let Span { start, end } = self.classes[idx].1;
        let delta = len as i64 - i64::from(end - start);
        self.classes[idx].1.end = start + len as u32;
        for (_, s) in self.classes.iter_mut().chain(&mut self.region_kinds) {
            if s.start >= end {
                *s = shift_span(*s, delta);
            }
        }
        self.main = (i64::from(self.main) + delta) as u32;
    }
}

/// Parses the class declaration at `span` of `source` on its own, at its
/// offset. `None` unless it parses, fills the span exactly (first token
/// at its first byte, closing brace at its last) and is called `name`.
fn parse_fragment(source: &str, (name, span): (Symbol, Span)) -> Option<ClassDecl> {
    let text = &source[span.start as usize..span.end as usize];
    let decl = parse_class_at(text, span.start).ok()?;
    (decl.span == span && decl.name.name == name).then_some(decl)
}

/// One class of a pass, in declaration order.
struct Slot {
    name: Symbol,
    /// Where the declaration starts in the current source.
    start: u32,
    /// The parsed declaration: every class's on the whole-source path,
    /// only the re-parsed ones' on the fragment path.
    decl: Option<ClassDecl>,
    /// Fresh fingerprints when the class re-checks; `None` when its
    /// cached results are reused.
    dirty: Option<ClassFingerprint>,
}

/// One region kind of a pass, in declaration order.
struct RkSlot {
    name: Symbol,
    start: u32,
    /// The fingerprint when the region kind re-checks (the table was
    /// rebuilt); `None` when its cached results are reused.
    fresh: Option<u64>,
}

/// A pass after its route is decided: what the shared back half
/// ([`IncrementalChecker::finish`]) checks, reuses and commits.
struct Pass {
    start: Instant,
    phases: Vec<PhaseSpan>,
    table: ProgramTable,
    /// Whether `table` is the kept one, patched rather than rebuilt, so
    /// clean classes and region kinds reuse their well-formedness results
    /// too.
    reused_table: bool,
    classes: Vec<Slot>,
    region_kinds: Vec<RkSlot>,
    main: Block,
    whole_parse: bool,
    /// Time spent after `start` re-parsing the closure's dependents,
    /// which [`RecheckOutcome::check_ns`] leaves out.
    reparse: Duration,
}

/// The incremental re-check engine. See the module docs for the contract
/// and the reuse strategy.
#[derive(Debug, Default)]
pub struct IncrementalChecker {
    opts: CheckOptions,
    source: String,
    layout: Layout,
    /// Table from the last pass whose build succeeded.
    table: Option<ProgramTable>,
    units: HashMap<Symbol, UnitCache>,
    rkinds: HashMap<Symbol, RkCache>,
    /// The reverse dependency index of the committed reference sets
    /// (`units`' and the region kinds'), kept in step by every commit.
    dependents: Dependents,
    /// The last pass stopped at a table error after storing its source,
    /// so the caches describe an older text: the next pass fingerprints
    /// every class and parses the whole source.
    stale: bool,
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
    /// After a committed pass, the text is first diffed against
    /// [`IncrementalChecker::source`] by common prefix and suffix. When
    /// the changed bytes lie inside one class declaration of the stored
    /// text, that declaration's new text is re-checked as a
    /// [`IncrementalChecker::recheck`] edit would be, and an identical
    /// text re-checks only `main`. Any other change parses the whole
    /// text.
    ///
    /// # Errors
    ///
    /// Returns the parse error if `source` does not parse (the error
    /// [`parse_program`] gives for it); the engine state is left at the
    /// last good pass.
    pub fn check_source(&mut self, source: &str) -> Result<RecheckOutcome, ParseError> {
        if let Some((layout, edited)) = self.diff(source) {
            return self.recheck_spliced(source.to_string(), layout, &edited);
        }
        let prog = parse_program(source)?;
        Ok(self.process(source.to_string(), prog, None))
    }

    /// The stored layout spliced for `source`, and the index of the one
    /// class whose text changed (none for an identical text), when
    /// `source` differs from the stored text only inside that class
    /// declaration. Only a committed pass's layout describes its text.
    fn diff(&self, source: &str) -> Option<(Layout, Vec<usize>)> {
        if self.table.is_none() || self.stale {
            return None;
        }
        let (old, new) = (self.source.as_bytes(), source.as_bytes());
        let prefix = old.iter().zip(new).take_while(|(a, b)| a == b).count();
        if prefix == old.len() && prefix == new.len() {
            return Some((self.layout.clone(), Vec::new()));
        }
        let suffix = old[prefix..]
            .iter()
            .rev()
            .zip(new[prefix..].iter().rev())
            .take_while(|(a, b)| a == b)
            .count();
        let changed_end = old.len() - suffix;
        let idx = self
            .layout
            .classes
            .iter()
            .position(|(_, s)| s.start as usize <= prefix && changed_end <= s.end as usize)?;
        // The text before the class and after it is unchanged, so the
        // class's new text takes up the whole difference in length.
        let Span { start, end } = self.layout.classes[idx].1;
        let len = (end - start) as usize + new.len() - old.len();
        let mut layout = self.layout.clone();
        layout.splice(idx, len);
        Some((layout, vec![idx]))
    }

    /// Applies a batch of single-class edits to the stored source and
    /// re-checks the dirty closure, on the fragment path when the batch
    /// allows it (see the module docs) and on the whole edited source
    /// otherwise.
    ///
    /// # Errors
    ///
    /// [`RecheckError::UnknownClass`] if an edit names a class the current
    /// source does not declare; [`RecheckError::Parse`] if the edited
    /// source does not parse. Either way the engine state is unchanged.
    pub fn recheck(&mut self, edits: &[ClassEdit]) -> Result<RecheckOutcome, RecheckError> {
        let mut source = self.source.clone();
        let mut layout = self.layout.clone();
        let mut edited: Vec<usize> = Vec::with_capacity(edits.len());
        for e in edits {
            let idx = layout
                .classes
                .iter()
                .position(|(n, _)| n.as_str() == e.class)
                .ok_or_else(|| RecheckError::UnknownClass(e.class.clone()))?;
            let span = layout.classes[idx].1;
            source.replace_range(span.start as usize..span.end as usize, &e.source);
            layout.splice(idx, e.source.len());
            if !edited.contains(&idx) {
                edited.push(idx);
            }
        }
        self.recheck_spliced(source, layout, &edited)
            .map_err(RecheckError::Parse)
    }

    /// Re-checks `source`, whose declarations `layout` records and whose
    /// text differs from the stored one only inside the classes `edited`
    /// (indices into `layout.classes`): the fragment path if it applies,
    /// else the whole source.
    fn recheck_spliced(
        &mut self,
        source: String,
        layout: Layout,
        edited: &[usize],
    ) -> Result<RecheckOutcome, ParseError> {
        if !self.stale {
            if let Some(out) = self.recheck_fragments(&source, &layout, edited) {
                self.source = source;
                self.layout = layout;
                return Ok(out);
            }
        }
        let prog = parse_program(&source)?;
        // The splice only rewrote the edited declarations, so only those
        // classes need structural re-fingerprinting — the dominant cost of
        // a pass once everything else is cache hits. After a table error
        // the caches lag the text, so every class is hashed.
        let touched: Option<HashSet<Symbol>> =
            (!self.stale).then(|| edited.iter().map(|&i| layout.classes[i].0).collect());
        Ok(self.process(source, prog, touched.as_ref()))
    }

    /// The fragment path: re-checks a batch without parsing any
    /// declaration but the edited ones and the dependents in the dirty
    /// closure of their changed signatures. Returns `None`, with the
    /// engine untouched, unless every edited declaration parses on its
    /// own at its splice offset, fills its text exactly (no leading or
    /// trailing trivia, which could lex differently against the text
    /// around it), and keeps its name and its formal count. Then a
    /// whole-source parse would yield the same declarations with the same
    /// spans, and every class outside the closure is known by its name
    /// and current start alone. It also returns `None` when the closure
    /// reaches a region kind or the patched table breaks a structural
    /// rule; the whole-source path reports such errors.
    fn recheck_fragments(
        &mut self,
        source: &str,
        layout: &Layout,
        edited: &[usize],
    ) -> Option<RecheckOutcome> {
        let table = self.table.as_ref()?;
        let mut parsed = Vec::with_capacity(edited.len());
        for &i in edited {
            let decl = parse_fragment(source, layout.classes[i])?;
            // Other classes' bare types are completed with this count.
            if table.formal_count(decl.name.name) != Some(decl.formals.len()) {
                return None;
            }
            parsed.push((i, decl));
        }
        let main = parse_block_at(&source[layout.main as usize..], layout.main).ok()?;

        let start = Instant::now();
        let profiling = self.opts.profile;
        let mut phases: Vec<PhaseSpan> = Vec::new();

        let p0 = profiling.then(|| start.elapsed());
        // The class set and every formal count are unchanged, so the kept
        // table has the counts a whole-program pass would use.
        let formals = |n: Symbol| table.formal_count(n);
        for (_, decl) in &mut parsed {
            infer::apply_class_defaults(decl, &formals);
        }
        if let Some(p0) = p0 {
            phases.push(PhaseSpan::leaf("lower", p0, start.elapsed() - p0));
        }

        let p0 = profiling.then(|| start.elapsed());
        let mut fresh = Vec::with_capacity(parsed.len());
        let mut seeds = Vec::new();
        for (i, decl) in parsed {
            let fp = fingerprint_class(&decl);
            if self.units.get(&decl.name.name)?.sig != fp.sig {
                seeds.push(decl.name.name);
            }
            fresh.push((i, decl, fp));
        }
        let closure = dependent_closure(&self.dependents, seeds);
        if closure.iter().any(|n| self.rkinds.contains_key(n)) {
            return None;
        }
        // Each dependent's text is unchanged since a parse that gave it
        // this span, so on its own it parses to the same declaration
        // (DESIGN.md §9), completed with the same counts.
        let mut reparse = Duration::ZERO;
        for &name in &closure {
            if fresh.iter().any(|(_, d, _)| d.name.name == name) {
                continue;
            }
            let i = layout.classes.iter().position(|(n, _)| *n == name)?;
            let r0 = Instant::now();
            let mut decl = parse_fragment(source, layout.classes[i])?;
            reparse += r0.elapsed();
            infer::apply_class_defaults(&mut decl, &formals);
            let fp = fingerprint_class(&decl);
            fresh.push((i, decl, fp));
        }
        let mut table = self.table.take().expect("checked above");
        let replaced: Vec<_> = fresh
            .iter()
            .filter_map(|(_, decl, _)| table.patch_class(decl))
            .collect();
        if table.check_classes(closure.iter().copied()).is_err() {
            for info in replaced {
                table.restore_class(info);
            }
            self.table = Some(table);
            return None;
        }
        fresh.sort_unstable_by_key(|(i, _, _)| *i);
        let mut fresh = fresh.into_iter().peekable();
        let classes = layout
            .classes
            .iter()
            .enumerate()
            .map(|(i, &(name, span))| {
                let (decl, dirty) = fresh
                    .next_if(|(j, _, _)| *j == i)
                    .filter(|(_, _, fp)| {
                        closure.contains(&name) || self.units[&name].full != fp.full
                    })
                    .map(|(_, decl, fp)| (decl, fp))
                    .unzip();
                Slot {
                    name,
                    start: span.start,
                    decl,
                    dirty,
                }
            })
            .collect();
        let region_kinds = layout
            .region_kinds
            .iter()
            .map(|&(name, span)| RkSlot {
                name,
                start: span.start,
                fresh: None,
            })
            .collect();
        if let Some(p0) = p0 {
            phases.push(PhaseSpan::leaf("table", p0, start.elapsed() - p0));
        }
        Some(self.finish(Pass {
            start,
            phases,
            table,
            reused_table: true,
            classes,
            region_kinds,
            main,
            whole_parse: false,
            reparse,
        }))
    }

    /// One checking pass over a parsed program: diff fingerprints and
    /// decide the dirty set, then [`IncrementalChecker::finish`].
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
        touched: Option<&HashSet<Symbol>>,
    ) -> RecheckOutcome {
        let start = Instant::now();
        let profiling = self.opts.profile;
        let mut phases: Vec<PhaseSpan> = Vec::new();

        self.layout = Layout::of(&prog);
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
        let cached_fp = |c: &ClassDecl| {
            if touched?.contains(&c.name.name) {
                return None;
            }
            let u = self.units.get(&c.name.name)?;
            Some(ClassFingerprint {
                sig: u.sig,
                full: u.full,
            })
        };
        let fps: Vec<ClassFingerprint> = prog
            .classes
            .iter()
            .map(|c| cached_fp(c).unwrap_or_else(|| fingerprint_class(c)))
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
                    // but spans and bodies moved: patch the entry so error
                    // reporting against this class reads current spans.
                    table.patch_class(c);
                }
            }
            table
        } else {
            let built = match ProgramTable::build(&prog) {
                Ok(t) => t,
                Err(errors) => {
                    // From-scratch parity: the driver returns table errors
                    // alone, before any unit runs. Keep the caches at the
                    // last good pass so the next diff is against it; the
                    // source has moved on, so that diff hashes everything.
                    self.stale = true;
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
                        whole_parse: true,
                        check_ns: elapsed.as_nanos() as u64,
                    };
                }
            };
            // Reverse dependency index over this text's declarations, then
            // the BFS closure of the seeds. Content-unchanged classes
            // reuse their cached (elaborated) reference sets.
            let mut reverse = Dependents::new();
            for (c, fp) in prog.classes.iter().zip(&fps) {
                match self.units.get(&c.name.name) {
                    Some(u) if u.full == fp.full => link(&mut reverse, c.name.name, &u.refs),
                    _ => link(&mut reverse, c.name.name, &class_refs(c)),
                }
            }
            for rk in &prog.region_kinds {
                link(&mut reverse, rk.name.name, &region_kind_refs(rk));
            }
            let closure = dependent_closure(&reverse, seeds);
            for (i, (c, fp)) in prog.classes.iter().zip(&fps).enumerate() {
                dirty[i] = closure.contains(&c.name.name)
                    || self
                        .units
                        .get(&c.name.name)
                        .is_none_or(|u| u.full != fp.full);
            }
            built
        };
        let classes = std::mem::take(&mut prog.classes)
            .into_iter()
            .zip(fps)
            .zip(dirty)
            .map(|((c, fp), dirty)| Slot {
                name: c.name.name,
                start: c.span.start,
                // A dirty class is committed with fresh fingerprints: a
                // cached one predates any change to the formal counts its
                // bare class types were completed with.
                dirty: dirty.then(|| match cached_fp(&c) {
                    Some(_) => fingerprint_class(&c),
                    None => fp,
                }),
                decl: Some(c),
            })
            .collect();
        let region_kinds = prog
            .region_kinds
            .iter()
            .zip(rkfps)
            .map(|(rk, fp)| RkSlot {
                name: rk.name.name,
                start: rk.span.start,
                fresh: (!fast).then_some(fp),
            })
            .collect();
        if let Some(p0) = p0 {
            phases.push(PhaseSpan::leaf("table", p0, start.elapsed() - p0));
        }
        self.finish(Pass {
            start,
            phases,
            table,
            reused_table: fast,
            classes,
            region_kinds,
            main: prog.main,
            whole_parse: true,
            reparse: Duration::ZERO,
        })
    }

    /// The back half every committed pass shares: check what is dirty,
    /// shift what is clean, merge in from-scratch order, commit.
    fn finish(&mut self, pass: Pass) -> RecheckOutcome {
        let Pass {
            start,
            mut phases,
            table,
            reused_table,
            mut classes,
            region_kinds,
            mut main,
            whole_parse,
            reparse,
        } = pass;
        let profiling = self.opts.profile;
        let total = classes.len();

        // wf: region kinds, then inheritance, both per declaration (a
        // fresh `Checker` per unit absorbs the same environments in the
        // same order as the from-scratch single-pass prelude, so errors
        // and counters are identical). A rebuilt table re-checks every
        // declaration; a reused one re-checks only the dirty classes.
        let p0 = profiling.then(|| start.elapsed());
        let rk_results: Vec<(Vec<TypeError>, JudgmentCounters)> = region_kinds
            .iter()
            .map(|rk| {
                if rk.fresh.is_some() {
                    let info = table.region_kind(rk.name).expect("built from this program");
                    let mut ck = Checker::new(&table);
                    ck.check_region_kind(&info.decl);
                    (std::mem::take(&mut ck.errors), ck.judgments)
                } else {
                    let cached = &self.rkinds[&rk.name];
                    let delta = i64::from(rk.start) - i64::from(cached.start);
                    (shift_errors(&cached.errors, delta), cached.judgments)
                }
            })
            .collect();
        let cls_wf: Vec<(Vec<TypeError>, JudgmentCounters)> = classes
            .iter()
            .map(|c| {
                if reused_table && c.dirty.is_none() {
                    let cached = &self.units[&c.name];
                    let delta = i64::from(c.start) - i64::from(cached.start);
                    return (shift_errors(&cached.wf_errors, delta), cached.wf_judgments);
                }
                let decl = c
                    .decl
                    .as_ref()
                    .expect("only a clean class of a fragment pass is unparsed");
                let mut ck = Checker::new(&table);
                ck.check_inheritance(std::slice::from_ref(decl));
                (std::mem::take(&mut ck.errors), ck.judgments)
            })
            .collect();
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
        let dirty_count = classes.iter().filter(|c| c.dirty.is_some()).count();
        let workers = jobs_resolved.min(dirty_count.max(1));
        let p0 = profiling.then(|| start.elapsed());
        type FreshUnit = (
            Vec<TypeError>,
            usize,
            JudgmentCounters,
            Option<(Duration, Duration)>,
        );
        let check_unit = |c: &mut ClassDecl| -> FreshUnit {
            let c0 = profiling.then(|| start.elapsed());
            let mut ck = Checker::new(&table);
            ck.check_class(c);
            let t = c0.map(|c0| (c0, start.elapsed() - c0));
            (
                std::mem::take(&mut ck.errors),
                ck.methods_checked,
                ck.judgments,
                t,
            )
        };
        let mut fresh: Vec<Option<FreshUnit>> = (0..total).map(|_| None).collect();
        let mut queue = classes
            .iter_mut()
            .enumerate()
            .filter(|(_, c)| c.dirty.is_some())
            .map(|(i, c)| (i, c.decl.as_mut().expect("a dirty class is parsed")));
        if workers <= 1 {
            for (i, c) in queue {
                fresh[i] = Some(check_unit(c));
            }
        } else {
            let queue = Mutex::new(&mut queue);
            let results: Vec<Vec<(usize, FreshUnit)>> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..workers)
                    .map(|_| {
                        let queue = &queue;
                        let check_unit = &check_unit;
                        s.spawn(move || {
                            let mut units = Vec::new();
                            loop {
                                let item = queue.lock().unwrap().next();
                                let Some((i, c)) = item else { break };
                                units.push((i, check_unit(c)));
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
        let unit_final: Vec<FreshUnit> = classes
            .iter()
            .zip(&mut fresh)
            .map(|(c, fresh)| match fresh.take() {
                Some(unit) => unit,
                None => {
                    let cached = &self.units[&c.name];
                    let delta = i64::from(c.start) - i64::from(cached.start);
                    (
                        shift_errors(&cached.errors, delta),
                        cached.methods_checked,
                        cached.judgments,
                        None,
                    )
                }
            })
            .collect();
        if let Some(p0) = p0 {
            let children = classes
                .iter()
                .zip(&unit_final)
                .map(|(c, (_, _, _, t))| {
                    let (s0, w) = t.unwrap_or((Duration::ZERO, Duration::ZERO));
                    PhaseSpan::leaf(format!("class {}", c.name), s0, w)
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
        for s in &mut main.stmts {
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
        for (errs, j) in rk_results.iter().chain(&cls_wf) {
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

        // Commit. With the table kept, class and region-kind sets are
        // unchanged and a clean entry's stored `(start, errors)` pair stays
        // internally consistent (the shift delta is recomputed against it
        // every pass), so only the dirty entries are rewritten, and the
        // reverse index follows their reference sets. A rebuilt table
        // re-ran every well-formedness check, so every entry is rewritten
        // and the index re-derived.
        let dirty_names: Vec<Symbol> = classes
            .iter()
            .filter(|c| c.dirty.is_some())
            .map(|c| c.name)
            .collect();
        let mut old = if reused_table {
            HashMap::new()
        } else {
            std::mem::take(&mut self.units)
        };
        for ((c, (errors, m, j, _)), (wf_errors, wf_j)) in
            classes.iter().zip(unit_final).zip(cls_wf)
        {
            let (sig, full, refs) = match c.dirty {
                Some(fp) => {
                    let decl = c.decl.as_ref().expect("a dirty class is parsed");
                    (fp.sig, fp.full, class_refs(decl))
                }
                None if reused_table => continue,
                None => {
                    let u = old.remove(&c.name).expect("clean unit is cached");
                    (u.sig, u.full, u.refs)
                }
            };
            if let Some(prev) = self.units.get(&c.name).filter(|u| u.refs != refs) {
                unlink(&mut self.dependents, c.name, &prev.refs);
                link(&mut self.dependents, c.name, &refs);
            }
            self.units.insert(
                c.name,
                UnitCache {
                    sig,
                    full,
                    start: c.start,
                    refs,
                    wf_errors,
                    wf_judgments: wf_j,
                    errors,
                    methods_checked: m,
                    judgments: j,
                },
            );
        }
        if !reused_table {
            self.dependents.clear();
            for (name, u) in &self.units {
                link(&mut self.dependents, *name, &u.refs);
            }
            self.rkinds.clear();
            for (rk, (errors, judgments)) in region_kinds.iter().zip(rk_results) {
                let fp = rk
                    .fresh
                    .expect("a rebuilt table re-checks every region kind");
                let info = table.region_kind(rk.name).expect("built from this program");
                link(&mut self.dependents, rk.name, &region_kind_refs(&info.decl));
                self.rkinds.insert(
                    rk.name,
                    RkCache {
                        fp,
                        start: rk.start,
                        errors,
                        judgments,
                    },
                );
            }
        }
        self.table = Some(table);
        self.stale = false;

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
            full_rebuild: !reused_table,
            whole_parse,
            check_ns: (elapsed - reparse).as_nanos() as u64,
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
        assert!(!out.whole_parse, "a body edit parses only its fragment");
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
        assert!(!out.full_rebuild, "a signature edit patches the table");
        assert!(
            !out.whole_parse,
            "a signature edit parses its fragment and its dependents"
        );
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

    /// Class templates for the replay below: `{pad}` sits in a method
    /// body (a body edit), `{extra}` before the closing brace (a
    /// signature edit).
    const TEMPLATES: [(&str, &str); 4] = [
        ("Item", "class Item<Owner o> { int v; int get() { {pad}return this.v; } {extra}}"),
        (
            "Node",
            "class Node<Owner o> { Item<o> item; Node next; \
             int sum() { let s = 0; {pad}return s; } {extra}}",
        ),
        (
            "Base",
            "class Base<Owner o> { int tag; \
             int bump(int x) { {pad}this.tag = this.tag + x; return this.tag; } {extra}}",
        ),
        (
            "Leaf",
            "class Leaf<Owner o> extends Base<o> { int probe() { {pad}return this.bump(1); } {extra}}",
        ),
    ];

    /// Region kinds sit between the classes, so body edits move them too.
    fn replay_source() -> String {
        let decl = |i: usize| TEMPLATES[i].1.replace("{pad}", "").replace("{extra}", "");
        format!(
            "// replay\n{}\nregionKind Pool extends SharedRegion {{ Item head; }}\n{}\n{}\n\
             regionKind Lane extends SharedRegion {{ Node<this> head; }}\n{}\n\
             {{ let n = new Node<heap>; print(n.sum()); }}\n",
            decl(0),
            decl(1),
            decl(2),
            decl(3)
        )
    }

    /// Seeded batches of one or two edits: mostly body edits (some ill
    /// typed), plus signature edits and trailing comments. A signature
    /// edit to `Item` or `Node` reaches a region kind and a trailing
    /// comment is trivia, so those take the whole-source path.
    fn replay_batch(state: &mut u64, id: usize) -> Vec<ClassEdit> {
        let mut next = || {
            *state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (*state >> 33) as usize
        };
        let edits = 1 + next() % 2;
        (0..edits)
            .map(|_| {
                let (class, template) = TEMPLATES[next() % TEMPLATES.len()];
                let width = "x".repeat(next() % 12);
                let (pad, extra, tail) = match next() % 8 {
                    0..=4 => (format!("let p{id}{width} = {id}; "), String::new(), ""),
                    5 => (format!("let p{id} = oops{id}; "), String::new(), ""),
                    6 => (
                        String::new(),
                        format!("int m{id}{width}() {{ return {id}; }} "),
                        "",
                    ),
                    _ => (String::new(), String::new(), " // note"),
                };
                let text = template.replace("{pad}", &pad).replace("{extra}", &extra);
                ClassEdit {
                    class: class.to_string(),
                    source: text + tail,
                }
            })
            .collect()
    }

    /// After every batch of two seeded replays, the spliced layout is a
    /// fresh parse's, and each declaration the fragment path parsed (the
    /// edited ones and the re-parsed dependents of a changed signature)
    /// is held by the table exactly as the fresh parse's elaborated one.
    /// Debug output is compared because `Ident` equality ignores spans.
    #[test]
    fn fragment_path_tracks_a_fresh_parse() {
        // Batches by route: fragment, whole source, and fragment batches
        // that re-parsed a dependent of a changed signature.
        let mut routes = [0usize; 3];
        for seed in [3u64, 17] {
            let mut eng = IncrementalChecker::new(CheckOptions::default());
            assert!(eng.check_source(&replay_source()).unwrap().ok());
            let mut state = seed;
            for id in 0..32 {
                let batch = replay_batch(&mut state, id);
                let out = eng.recheck(&batch).unwrap();
                routes[usize::from(out.whole_parse)] += 1;
                assert!(
                    out.whole_parse || !out.full_rebuild,
                    "seed {seed} batch {id}: the fragment path patches the table"
                );

                let mut fresh = parse_program(eng.source()).unwrap();
                let layout = Layout::of(&fresh);
                assert_eq!(eng.layout.classes, layout.classes, "seed {seed} batch {id}");
                assert_eq!(
                    eng.layout.region_kinds, layout.region_kinds,
                    "seed {seed} batch {id}"
                );
                assert_eq!(eng.layout.main, layout.main, "seed {seed} batch {id}");

                let scratch = check_program_in(fresh.clone(), &CheckOptions::default());
                assert_eq!(
                    out.errors,
                    scratch.err().unwrap_or_default(),
                    "seed {seed} batch {id}"
                );

                infer::apply_declaration_defaults(&mut fresh);
                if !out.whole_parse {
                    let dependents: Vec<Symbol> = out
                        .dirty
                        .iter()
                        .copied()
                        .filter(|n| batch.iter().all(|e| e.class != n.as_str()))
                        .collect();
                    routes[2] += usize::from(!dependents.is_empty());
                    let table = eng.table.as_ref().unwrap();
                    let parsed = batch.iter().map(|e| Symbol::intern(&e.class));
                    for name in parsed.chain(dependents) {
                        let want = fresh.classes.iter().find(|c| c.name.name == name);
                        let have = &table.class(name).unwrap().decl;
                        assert_eq!(
                            format!("{:?}", have),
                            format!("{:?}", want.unwrap()),
                            "seed {seed} batch {id}: table decl of {name}"
                        );
                    }
                }
            }
        }
        assert!(
            routes[0] >= 44,
            "body edits and signature edits to Base or Leaf take the fragment path: {routes:?}"
        );
        assert!(
            routes[1] >= 12,
            "trailing comments and signature edits to Item or Node fall back: {routes:?}"
        );
        assert!(
            routes[2] >= 4,
            "a signature edit to Base re-parses Leaf: {routes:?}"
        );
    }
}
