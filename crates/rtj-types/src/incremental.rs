//! Incremental, fingerprint-keyed re-checking.
//!
//! [`IncrementalChecker`] keeps the result of the last check — per-class
//! diagnostics, per-class judgment-cache counters, the built
//! [`ProgramTable`] — keyed by fingerprints ([`rtj_lang::fingerprint`]),
//! and re-checks only what an edit can change. The contract, enforced by
//! `tests/incremental_differential.rs`, is strict:
//!
//! > At any `--jobs`, a `recheck` produces **byte-identical diagnostics**
//! > and a structurally identical `rtj-checker-metrics/v1` snapshot to a
//! > from-scratch [`crate::check_program_in`] of the same source.
//!
//! One rule decides what a pass reuses. A pass **patches** when its
//! program has the committed shape: the same class names, each with its
//! committed formal count, and the same region kinds with unchanged text.
//! It then re-checks the classes whose text changed plus the dependent
//! closure of their changed signatures, on the kept table. Any other pass
//! **starts over**: it runs the batch driver's own pass and refills every
//! cache from its verdicts. So does a patch the closure refuses (it
//! reaches a region kind, or the patched table breaks a structural rule).
//!
//! How a patch reuses:
//!
//! * Every class and region kind gets a **text** fingerprint (a hash of
//!   its source bytes), and every class a **signature** fingerprint (what
//!   dependents can observe; span-free, over the elaborated declaration).
//!   A body-only edit changes the text but not the signature.
//! * A **reverse dependency index** maps each class and region-kind name
//!   to the declarations that mention it. The engine keeps it in step
//!   with the committed reference sets. The edited classes whose
//!   signature changed seed a search over it, and the closure re-checks.
//!   The closure is transitive, so names a class only reaches through a
//!   dependency's members are still covered.
//! * Each re-parsed class's table entry is patched (the crate-private
//!   `ProgramTable::patch_class`) and the table's per-class structural
//!   rules re-run over the closure (`ProgramTable::check_classes`). A
//!   patch that breaks a rule is undone (`ProgramTable::restore_class`)
//!   before the table is read again, so a patched table, like a built
//!   one, holds no cyclic or unknown chain.
//! * Clean classes contribute their cached diagnostics with spans
//!   **shifted** by the declaration's movement. Equal text parses to the
//!   same declaration, only moved, so the uniform shift is exact, not
//!   approximate.
//! * Judgment-cache counters are cached per declaration. Each is checked
//!   in an environment that starts as a fresh one would: its checker's
//!   base environment, rolled back with every memo when the declaration
//!   is done. So the counters are deterministic and
//!   scheduling-independent — summing cached and fresh counters
//!   reproduces the from-scratch totals exactly.
//!
//! The `main` block is re-checked every pass (it is a fraction of a
//! percent of the total).
//!
//! A patch parses one of two ways. A batch takes the **fragment path**
//! when every edited declaration parses on its own at its splice offset,
//! fills its text exactly, and keeps its name and formal count. Then only
//! the edited declarations, the unchanged text of the classes in a
//! changed signature's dirty closure, and `main` are parsed; every other
//! class is known by its name and current start alone. Any other batch,
//! and the pass after a table error, parses the whole source and then
//! patches or starts over by the rule above.
//! [`IncrementalChecker::check_source`] takes the fragment path when the
//! new text differs from the stored one inside a single class declaration
//! or inside the main block. DESIGN.md §9 states the route rule and why
//! both parses agree.
//!
//! A fragment pass costs what it dirties. On that path the class set and
//! its order are fixed, so the engine also keeps, between passes, a
//! name-to-position index, the counters summed over every cached unit,
//! and the positions of the classes and region kinds whose cached
//! diagnostics are non-empty. The pass splices the stored source in
//! place and shifts the layout's spans (a linear pass over 12-byte
//! entries); past that it touches only the classes it re-parses, the
//! classes with cached diagnostics, and `main`. A whole-source pass may
//! move declarations, so it re-derives the index, the diagnostic
//! positions and the totals.

use crate::check::{
    check_pass, check_units, classes_phase, merge, resolve_jobs, CheckOptions, CheckStats, Checker,
    Verdict,
};
use crate::env::JudgmentCounters;
use crate::error::TypeError;
use crate::infer;
use crate::profile::{CheckProfile, PhaseSpan};
use crate::table::ProgramTable;
use rtj_lang::ast::{Block, Class, Program};
use rtj_lang::fingerprint::{
    class_refs, region_kind_refs, signature_fingerprint, text_fingerprint,
};
use rtj_lang::intern::Symbol;
use rtj_lang::parser::{parse_block_at, parse_class_at, parse_program, ParseError};
use rtj_lang::span::Span;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::ops::Range;
use std::sync::Arc;
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
    /// order: every class on a fresh pass, none after a table error, and
    /// on a patch the classes whose text changed plus the dirty closure
    /// of their changed signatures.
    pub dirty: Vec<Symbol>,
    /// Class units whose cached results were reused.
    pub reused: usize,
    /// Total classes in the program.
    pub classes: usize,
    /// Whether the pass started over: the batch driver's pass built a
    /// fresh [`ProgramTable`] and checked every declaration. That is the
    /// first pass, a pass whose program lacks the committed shape (a class
    /// added, removed or renamed, a formal count or a region kind's text
    /// changed), and a patch the closure refused. A patch keeps the table.
    pub full_rebuild: bool,
    /// Whether the pass parsed the whole source: every fresh pass, and a
    /// patch whose batch falls outside the fragment rule (trivia at a
    /// class's edge, a change between declarations or across two, the
    /// pass after a table error). `false` only on the fragment path,
    /// which parses the edited declarations, the classes of a changed
    /// signature's dirty closure, and `main`.
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

/// Cached per-class results from the last pass that checked the class.
#[derive(Debug, Clone)]
struct UnitCache {
    sig: u64,
    text: u64,
    start: u32,
    refs: Vec<Symbol>,
    /// Its inheritance's verdict.
    wf: Verdict,
    /// Its unit's verdict.
    unit: Verdict,
}

impl UnitCache {
    /// Whether a merge has diagnostics to take from this class.
    fn has_errors(&self) -> bool {
        !self.wf.errors.is_empty() || !self.unit.errors.is_empty()
    }
}

/// Cached per-region-kind well-formedness results.
#[derive(Debug, Clone)]
struct RkCache {
    text: u64,
    start: u32,
    verdict: Verdict,
}

/// Counters summed over cached verdicts, kept as running sums so a pass
/// reports from-scratch totals without visiting the units it reuses.
#[derive(Debug, Clone, Copy, Default)]
struct Totals {
    methods_checked: usize,
    judgments: JudgmentCounters,
}

impl Totals {
    fn add(&mut self, v: &Verdict) {
        self.methods_checked += v.methods_checked;
        self.judgments.absorb(&v.judgments);
    }

    fn remove(&mut self, v: &Verdict) {
        self.methods_checked -= v.methods_checked;
        self.judgments.retract(&v.judgments);
    }
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
            classes: (prog.classes.iter())
                .map(|c| (c.decl.name.name, c.decl.span))
                .collect(),
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
    /// after it (`main` included) moves by the change in length. An
    /// empty span stays put, so a splice back restores the layout.
    fn splice(&mut self, idx: usize, len: usize) {
        let Span { start, end } = self.classes[idx].1;
        let delta = len as i64 - i64::from(end - start);
        self.classes[idx].1.end = start + len as u32;
        let later = self.region_kinds.iter_mut().filter(|(_, s)| s.start >= end);
        for (_, s) in self.classes[idx + 1..].iter_mut().chain(later) {
            *s = shift_span(*s, delta);
        }
        self.main = (i64::from(self.main) + delta) as u32;
    }

    /// Each class's position by name, the first one's should a name
    /// repeat (such a text starts over, and stops at a table error).
    fn index(&self) -> HashMap<&'static str, usize> {
        let mut index = HashMap::with_capacity(self.classes.len());
        for (i, (name, _)) in self.classes.iter().enumerate() {
            index.entry(name.as_str()).or_insert(i);
        }
        index
    }
}

/// Parses the class declaration at `span` of `source` on its own, at its
/// offset. `None` unless it parses, fills the span exactly (first token
/// at its first byte, closing brace at its last) and is called `name`.
fn parse_fragment(source: &str, (name, span): (Symbol, Span)) -> Option<Class> {
    let text = &source[span.start as usize..span.end as usize];
    let class = parse_class_at(text, span.start).ok()?;
    (class.decl.span == span && class.decl.name.name == name).then_some(class)
}

/// The fragment path's parse: the edited classes, by layout position,
/// and `main`.
type Fragments = (Vec<(usize, Class)>, Block);

/// One undoable splice: the position of the class whose text was
/// replaced, and the text it had.
type Undo = (usize, String);

/// The incremental re-check engine. See the module docs for the contract
/// and the reuse strategy.
#[derive(Debug, Default)]
pub struct IncrementalChecker {
    opts: CheckOptions,
    source: String,
    layout: Layout,
    /// Each class's position in `layout.classes`, by name. Re-derived
    /// with the layout; the fragment path keeps the class order.
    index: HashMap<&'static str, usize>,
    /// Table from the last pass that committed.
    table: Option<ProgramTable>,
    units: HashMap<Symbol, UnitCache>,
    rkinds: HashMap<Symbol, RkCache>,
    /// The reverse dependency index of the committed reference sets
    /// (`units`' and the region kinds'), kept in step by every commit.
    dependents: Dependents,
    /// Positions in `layout.classes` of the classes whose cached
    /// diagnostics are non-empty: the only clean classes a merge visits.
    noisy: BTreeSet<usize>,
    /// Positions in `layout.region_kinds` of the region kinds whose
    /// cached diagnostics are non-empty, in declaration order.
    noisy_rkinds: Vec<usize>,
    /// Counters summed over every cached unit: each region kind, each
    /// class's well-formedness and each class unit. `main` re-checks
    /// every pass, so it is never kept.
    totals: Totals,
    /// The last pass stopped at a table error after storing its source,
    /// so the caches describe an older text: the next pass parses the
    /// whole source.
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
    /// [`IncrementalChecker::recheck`] edit would be. When the common
    /// prefix reaches past the main block's opening brace, the text is an
    /// empty batch, which re-parses and re-checks only `main`. Any other
    /// change parses the whole text.
    ///
    /// # Errors
    ///
    /// Returns the parse error if `source` does not parse (the error
    /// [`parse_program`] gives for it); the engine state is left at the
    /// last good pass.
    pub fn check_source(&mut self, source: &str) -> Result<RecheckOutcome, ParseError> {
        match self.diff(source) {
            Some(Some((pos, text))) => {
                let undo = self.splice(pos, &source[text]);
                self.recheck_spliced(vec![undo])
            }
            Some(None) => {
                let old = std::mem::replace(&mut self.source, source.to_owned());
                self.recheck_spliced(Vec::new())
                    .inspect_err(|_| self.source = old)
            }
            None => self.route(None, |eng| {
                let prog = parse_program(source)?;
                source.clone_into(&mut eng.source);
                Ok(prog)
            }),
        }
    }

    /// How `source` differs from the stored text, when a committed pass's
    /// layout describes the stored text: the position of the one class
    /// whose text differs, with the range of its new text in `source`,
    /// when the change lies inside that class declaration; `Some(None)`
    /// when the common prefix reaches past the main block's opening brace
    /// (`main` is last, so only it changed). `None` for any other change.
    fn diff(&self, source: &str) -> Option<Option<(usize, Range<usize>)>> {
        if self.table.is_none() || self.stale {
            return None;
        }
        let (old, new) = (self.source.as_bytes(), source.as_bytes());
        let prefix = old.iter().zip(new).take_while(|(a, b)| a == b).count();
        if prefix > self.layout.main as usize {
            return Some(None);
        }
        let suffix = old[prefix..]
            .iter()
            .rev()
            .zip(new[prefix..].iter().rev())
            .take_while(|(a, b)| a == b)
            .count();
        let changed_end = old.len() - suffix;
        let pos = self
            .layout
            .classes
            .iter()
            .position(|(_, s)| s.start as usize <= prefix && changed_end <= s.end as usize)?;
        // The text before the class and after it is unchanged, so the
        // class's new text takes up the whole difference in length.
        let Span { start, end } = self.layout.classes[pos].1;
        let len = (end - start) as usize + new.len() - old.len();
        Some(Some((pos, start as usize..start as usize + len)))
    }

    /// Applies a batch of single-class edits to the stored source and
    /// re-checks it by the reuse rule (see the module docs), on the
    /// fragment path when the batch allows it and on the whole edited
    /// source otherwise.
    ///
    /// # Errors
    ///
    /// [`RecheckError::UnknownClass`] if an edit names a class the current
    /// source does not declare; [`RecheckError::Parse`] if the edited
    /// source does not parse. Either way the engine state is unchanged.
    pub fn recheck(&mut self, edits: &[ClassEdit]) -> Result<RecheckOutcome, RecheckError> {
        let mut undo = Vec::with_capacity(edits.len());
        for e in edits {
            let Some(&pos) = self.index.get(e.class.as_str()) else {
                self.unsplice(undo);
                return Err(RecheckError::UnknownClass(e.class.clone()));
            };
            undo.push(self.splice(pos, &e.source));
        }
        self.recheck_spliced(undo).map_err(RecheckError::Parse)
    }

    /// Replaces the text of class `pos` with `text` in the stored source
    /// and layout, and returns what undoes it.
    fn splice(&mut self, pos: usize, text: &str) -> Undo {
        let Span { start, end } = self.layout.classes[pos].1;
        let range = start as usize..end as usize;
        let old = self.source[range.clone()].to_string();
        self.source.replace_range(range, text);
        self.layout.splice(pos, text.len());
        (pos, old)
    }

    /// Undoes a batch's splices, last first.
    fn unsplice(&mut self, undo: Vec<Undo>) {
        for (pos, old) in undo.into_iter().rev() {
            self.splice(pos, &old);
        }
    }

    /// Re-checks the stored source after the splices `undo` records. A
    /// source that does not parse is spliced back, leaving the engine as
    /// it was.
    fn recheck_spliced(&mut self, undo: Vec<Undo>) -> Result<RecheckOutcome, ParseError> {
        let mut edited: Vec<usize> = undo.iter().map(|(pos, _)| *pos).collect();
        edited.sort_unstable();
        edited.dedup();
        let fragments = self.fragments(&edited);
        self.route(fragments, |eng| {
            parse_program(&eng.source).inspect_err(|_| eng.unsplice(undo))
        })
    }

    /// The fragment rule for the classes at layout positions `edited`:
    /// each parsed on its own at its splice offset, and `main`. `None`
    /// after a table error (the caches describe an older text), or unless
    /// every edited declaration parses, fills its text exactly (no
    /// leading or trailing trivia, which could lex differently against
    /// the text around it), and keeps its name and its formal count. Then
    /// a whole-source parse would yield the same declarations with the
    /// same spans, and every class outside the closure is known by its
    /// name and current start alone.
    fn fragments(&self, edited: &[usize]) -> Option<Fragments> {
        if self.stale {
            return None;
        }
        let table = self.table.as_ref()?;
        let mut parsed = Vec::with_capacity(edited.len());
        for &pos in edited {
            let class = parse_fragment(&self.source, self.layout.classes[pos])?;
            // Other classes' bare types are completed with this count.
            if table.formal_count(class.decl.name.name) != Some(class.decl.formals.len()) {
                return None;
            }
            parsed.push((pos, class));
        }
        let main = &self.source[self.layout.main as usize..];
        let main = parse_block_at(main, self.layout.main).ok()?;
        Some((parsed, main))
    }

    /// The reuse rule, decided once per pass over the stored source:
    ///
    /// * a fragment parse patches;
    /// * otherwise `whole` parses the whole source, and the pass patches
    ///   when that program has the committed shape
    ///   ([`IncrementalChecker::edited`]);
    /// * any other pass starts over, as does a patch the closure refuses
    ///   ([`IncrementalChecker::patch`]).
    ///
    /// # Errors
    ///
    /// `whole`'s parse error, which leaves the engine as it was.
    fn route(
        &mut self,
        fragments: Option<Fragments>,
        whole: impl FnOnce(&mut Self) -> Result<Program, ParseError>,
    ) -> Result<RecheckOutcome, ParseError> {
        if let Some((edited, main)) = fragments {
            if let Some(out) = self.patch(Instant::now(), edited, main, None) {
                return Ok(out);
            }
            // The spliced layout is the whole parse's.
            let prog = whole(self)?;
            return Ok(self.start_over(prog));
        }
        let prog = whole(self)?;
        let start = Instant::now();
        self.layout = Layout::of(&prog);
        self.index = self.layout.index();
        if let Some(edited) = self.edited(&prog) {
            if let Some(out) = self.patch(start, edited, prog.main.clone(), Some(&prog)) {
                return Ok(out);
            }
        }
        Ok(self.start_over(prog))
    }

    /// The classes whose text changed, by layout position, when `prog`
    /// (the whole parse, laid out) has the committed shape: the committed
    /// class names, none twice, each with the kept table's formal count,
    /// and the committed region kinds, none twice, with unchanged text.
    /// `None` otherwise, and before any pass committed. The shape is read
    /// off the caches and the kept table, which describe the last
    /// committed pass; after a table error the old layout does not.
    fn edited(&self, prog: &Program) -> Option<Vec<(usize, Class)>> {
        let table = self.table.as_ref()?;
        // The index keeps one position a name, so a repeated class name
        // leaves it shorter than the class list.
        let classes_kept =
            prog.classes.len() == self.units.len() && self.index.len() == self.units.len();
        let rk_names: HashSet<Symbol> = prog.region_kinds.iter().map(|rk| rk.name.name).collect();
        let region_kinds_kept = rk_names.len() == self.rkinds.len()
            && prog.region_kinds.len() == self.rkinds.len()
            && (prog.region_kinds.iter()).all(|rk| {
                let text = text_fingerprint(&self.source, rk.span);
                self.rkinds
                    .get(&rk.name.name)
                    .is_some_and(|c| c.text == text)
            });
        if !classes_kept || !region_kinds_kept {
            return None;
        }
        let mut edited = Vec::new();
        for (pos, c) in prog.classes.iter().enumerate() {
            let cached = self.units.get(&c.decl.name.name)?;
            if table.formal_count(c.decl.name.name) != Some(c.decl.formals.len()) {
                return None;
            }
            if cached.text != text_fingerprint(&self.source, c.decl.span) {
                edited.push((pos, c.clone()));
            }
        }
        Some(edited)
    }

    /// The patch route: re-checks the classes `edited` (layout positions
    /// and parsed classes, in declaration order) and the dependent
    /// closure of their changed signatures on the kept table, as the
    /// batch driver checks them, and commits them. The closure's other
    /// classes come from `whole`, or on the fragment path are re-parsed
    /// from their unchanged text, which on its own parses to the same
    /// declaration (DESIGN.md §9). Returns `None`, with the engine
    /// untouched, when the closure reaches a region kind or the patched
    /// table breaks a structural rule: such a pass starts over, and its
    /// fresh table reports the errors.
    fn patch(
        &mut self,
        start: Instant,
        mut edited: Vec<(usize, Class)>,
        mut main: Block,
        whole: Option<&Program>,
    ) -> Option<RecheckOutcome> {
        let table = self.table.as_ref()?;
        let profiling = self.opts.profile;
        let mut phases: Vec<PhaseSpan> = Vec::new();

        let p0 = profiling.then(|| start.elapsed());
        // The class set and every formal count are unchanged, so the kept
        // table has the counts a whole-program pass would use.
        let formals = |n: Symbol| table.formal_count(n);
        for (_, class) in &mut edited {
            infer::apply_class_defaults(Arc::make_mut(&mut class.decl), &formals);
        }
        if let Some(p0) = p0 {
            phases.push(PhaseSpan::leaf("lower", p0, start.elapsed() - p0));
        }

        let p0 = profiling.then(|| start.elapsed());
        let mut fresh = Vec::with_capacity(edited.len());
        let mut seeds = Vec::new();
        for (pos, class) in edited {
            let sig = signature_fingerprint(&class.decl);
            if self.units.get(&class.decl.name.name)?.sig != sig {
                seeds.push(class.decl.name.name);
            }
            fresh.push((pos, class, sig));
        }
        let closure = dependent_closure(&self.dependents, seeds);
        if closure.iter().any(|n| self.rkinds.contains_key(n)) {
            return None;
        }
        let mut reparse = Duration::ZERO;
        let parsed = fresh.len();
        for name in &closure {
            let pos = *self.index.get(name.as_str())?;
            if (fresh[..parsed].binary_search_by_key(&pos, |(p, _, _)| *p)).is_ok() {
                continue;
            }
            let r0 = Instant::now();
            let mut class = match whole {
                Some(prog) => prog.classes[pos].clone(),
                None => parse_fragment(&self.source, self.layout.classes[pos])?,
            };
            reparse += r0.elapsed();
            infer::apply_class_defaults(Arc::make_mut(&mut class.decl), &formals);
            let sig = signature_fingerprint(&class.decl);
            fresh.push((pos, class, sig));
        }
        let mut table = self.table.take().expect("checked above");
        let replaced: Vec<_> = fresh
            .iter()
            .filter_map(|(_, class, _)| table.patch_class(&class.decl))
            .collect();
        if table.check_classes(closure.iter().copied()).is_err() {
            for info in replaced {
                table.restore_class(info);
            }
            self.table = Some(table);
            return None;
        }
        // The classes to re-check, in declaration order.
        let source = &self.source;
        fresh.retain(|(_, class, _)| {
            let decl = &class.decl;
            let (name, text) = (decl.name.name, text_fingerprint(source, decl.span));
            closure.contains(&name) || self.units[&name].text != text
        });
        fresh.sort_unstable_by_key(|(pos, _, _)| *pos);
        if let Some(p0) = p0 {
            phases.push(PhaseSpan::leaf("table", p0, start.elapsed() - p0));
        }

        // wf: each dirty class's inheritance (the region kinds are
        // unchanged).
        let p0 = profiling.then(|| start.elapsed());
        let mut ck = Checker::new(&table);
        let wf: Vec<Verdict> = (fresh.iter())
            .map(|(_, class, _)| ck.check_inheritance(class.decl.name.name))
            .collect();
        if let Some(p0) = p0 {
            phases.push(PhaseSpan::leaf("wf", p0, start.elapsed() - p0));
        }

        // classes: the dirty units, in parallel like the batch driver.
        let workers = self.opts.jobs.min(fresh.len().max(1));
        let p0 = profiling.then(|| start.elapsed());
        let queue = fresh.iter_mut().map(|(_, class, _)| class);
        let (units, timed) = check_units(&table, workers, queue, profiling.then_some(start));
        if let Some(p0) = p0 {
            // One span per class, as a from-scratch profile has; a reused
            // class's is empty.
            let mut times = vec![None; self.layout.classes.len()];
            for ((pos, _, _), time) in fresh.iter().zip(timed) {
                times[*pos] = time;
            }
            let names = self.layout.classes.iter().map(|(name, _)| *name);
            phases.push(classes_phase(start, p0, names.zip(times)));
        }

        // main: always re-checked (a fraction of a percent of the total,
        // and it may reference any class).
        let p0 = profiling.then(|| start.elapsed());
        let main = ck.check_main(&mut main);
        if let Some(p0) = p0 {
            phases.push(PhaseSpan::leaf("main", p0, start.elapsed() - p0));
        }

        // Commit the dirty entries. A clean entry's stored `(start,
        // errors)` pair stays internally consistent (the merge shifts by
        // its current start minus the stored one), and the reverse index
        // follows the rewritten reference sets. On the fragment path the
        // class order is fixed, so the totals and the positions with
        // diagnostics follow the rewritten entries; a whole parse may have
        // moved declarations, so it re-derives them. The bodies go with
        // `fresh`; the table keeps the headers.
        let dirty: Vec<Symbol> = fresh.iter().map(|(_, c, _)| c.decl.name.name).collect();
        for (((pos, class, sig), unit), wf) in fresh.into_iter().zip(units).zip(wf) {
            let (name, span) = self.layout.classes[pos];
            let entry = UnitCache {
                sig,
                text: text_fingerprint(&self.source, span),
                start: span.start,
                refs: class_refs(&class),
                wf,
                unit,
            };
            let prev = &self.units[&name];
            if prev.refs != entry.refs {
                unlink(&mut self.dependents, name, &prev.refs);
                link(&mut self.dependents, name, &entry.refs);
            }
            self.totals.remove(&prev.wf);
            self.totals.remove(&prev.unit);
            self.totals.add(&entry.wf);
            self.totals.add(&entry.unit);
            if entry.has_errors() {
                self.noisy.insert(pos);
            } else {
                self.noisy.remove(&pos);
            }
            self.units.insert(name, entry);
        }
        if whole.is_some() {
            self.rederive();
        }
        self.table = Some(table);
        self.stale = false;
        Some(RecheckOutcome {
            whole_parse: whole.is_some(),
            ..self.outcome(start, reparse, phases, main, dirty)
        })
    }

    /// The fresh pass: the batch driver's own pass over `prog`, the whole
    /// stored source as laid out, with every cache refilled from its
    /// verdicts. The reference sets and signature fingerprints are taken
    /// from the elaborated declarations, as a patch's commit takes them.
    /// The table keeps `prog`'s headers; its bodies are dropped.
    /// A table error returns the table's errors alone, as the batch
    /// driver does, and keeps the caches of the last committed pass: the
    /// engine is `stale` until a pass commits.
    fn start_over(&mut self, mut prog: Program) -> RecheckOutcome {
        let start = Instant::now();
        let total = prog.classes.len();
        // The first pass starts over, so it asks for the core count once:
        // the call costs about as much as the checking work of a one-class
        // re-check.
        self.opts.jobs = resolve_jobs(self.opts.jobs);
        let (table, pass) = match check_pass(&mut prog, self.opts.jobs, start, self.opts.profile) {
            Ok(done) => done,
            Err(errors) => {
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
        self.units.clear();
        self.rkinds.clear();
        self.dependents.clear();
        let verdicts = pass.inheritance.into_iter().zip(pass.units);
        for (c, (wf, unit)) in prog.classes.iter().zip(verdicts) {
            let (name, refs) = (c.decl.name.name, class_refs(c));
            link(&mut self.dependents, name, &refs);
            let entry = UnitCache {
                sig: signature_fingerprint(&c.decl),
                text: text_fingerprint(&self.source, c.decl.span),
                start: c.decl.span.start,
                refs,
                wf,
                unit,
            };
            self.units.insert(name, entry);
        }
        for (rk, verdict) in prog.region_kinds.iter().zip(pass.region_kinds) {
            link(&mut self.dependents, rk.name.name, &region_kind_refs(rk));
            let entry = RkCache {
                text: text_fingerprint(&self.source, rk.span),
                start: rk.span.start,
                verdict,
            };
            self.rkinds.insert(rk.name.name, entry);
        }
        self.rederive();
        self.table = Some(table);
        self.stale = false;
        // The checked program goes before the outcome allocates. With
        // glibc's allocator, the first sizable allocation after freeing
        // its bodies consolidates their chunks, about 1 ms at 3,072
        // classes: this pass pays it, not the next edit.
        drop(prog);
        let dirty = self.layout.classes.iter().map(|(name, _)| *name).collect();
        RecheckOutcome {
            full_rebuild: true,
            whole_parse: true,
            ..self.outcome(start, Duration::ZERO, pass.phases, pass.main, dirty)
        }
    }

    /// The outcome of a committed pass that began at `start` and
    /// re-checked the classes `dirty`: the cached diagnostics and
    /// `main`'s in the batch driver's order ([`merge`]), and the totals
    /// with `main`'s counters. Classes and region kinds without
    /// diagnostics add nothing to that sequence, so visiting only those
    /// with some keeps it, and with it the order in which equal spans
    /// tie. Each is shifted by its current start minus its cached one.
    /// `reparse` is left out of the checking time.
    fn outcome(
        &self,
        start: Instant,
        reparse: Duration,
        phases: Vec<PhaseSpan>,
        main: Verdict,
        dirty: Vec<Symbol>,
    ) -> RecheckOutcome {
        let region_kinds = self.noisy_rkinds.iter().flat_map(|&i| {
            let (name, span) = self.layout.region_kinds[i];
            let rk = &self.rkinds[&name];
            shifted(&rk.verdict.errors, span.start, rk.start)
        });
        let class = |i: &usize| {
            let (name, span) = self.layout.classes[*i];
            (&self.units[&name], span.start)
        };
        let inheritance = self
            .noisy
            .iter()
            .map(class)
            .flat_map(|(u, now)| shifted(&u.wf.errors, now, u.start));
        let units = self
            .noisy
            .iter()
            .map(class)
            .flat_map(|(u, now)| shifted(&u.unit.errors, now, u.start));
        let mut totals = self.totals;
        totals.add(&main);
        let declarations = region_kinds.chain(inheritance).chain(units);
        let errors = merge(declarations.chain(main.errors));

        let total = self.layout.classes.len();
        let elapsed = start.elapsed();
        RecheckOutcome {
            errors,
            stats: CheckStats {
                classes_checked: total,
                methods_checked: totals.methods_checked,
                judgments: totals.judgments,
                threads_used: self.opts.jobs.min(total.max(1)),
                elapsed,
            },
            profile: self.opts.profile.then_some(CheckProfile { phases }),
            reused: total - dirty.len(),
            dirty,
            classes: total,
            full_rebuild: false,
            whole_parse: false,
            check_ns: (elapsed - reparse).as_nanos() as u64,
        }
    }

    /// Re-derives the totals and the positions with diagnostics from the
    /// caches of the current layout's declarations.
    fn rederive(&mut self) {
        self.totals = Totals::default();
        self.noisy.clear();
        for (i, (name, _)) in self.layout.classes.iter().enumerate() {
            let u = &self.units[name];
            self.totals.add(&u.wf);
            self.totals.add(&u.unit);
            if u.has_errors() {
                self.noisy.insert(i);
            }
        }
        self.noisy_rkinds.clear();
        for (i, (name, _)) in self.layout.region_kinds.iter().enumerate() {
            let rk = &self.rkinds[name];
            self.totals.add(&rk.verdict);
            if !rk.verdict.errors.is_empty() {
                self.noisy_rkinds.push(i);
            }
        }
    }
}

/// Cached diagnostics of a declaration that started at `cached`,
/// relocated to its current start `now`. Dummy spans (synthesized nodes)
/// are position-independent and stay put.
fn shifted(errors: &[TypeError], now: u32, cached: u32) -> impl Iterator<Item = TypeError> + '_ {
    let delta = i64::from(now) - i64::from(cached);
    errors.iter().map(move |e| {
        let mut e = e.clone();
        e.span = shift_span(e.span, delta);
        e
    })
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

    /// Every entry of `table` is `program`'s own header (`Arc::ptr_eq`),
    /// class and region kind alike.
    fn assert_shares_headers(table: &ProgramTable, program: &Program) {
        assert_eq!(table.classes().count(), program.classes.len());
        for c in &program.classes {
            let entry = &table.class(c.decl.name.name).unwrap().decl;
            assert!(Arc::ptr_eq(entry, &c.decl), "class {}", c.decl.name);
        }
        assert_eq!(table.region_kinds().count(), program.region_kinds.len());
        for rk in &program.region_kinds {
            let entry = &table.region_kind(rk.name.name).unwrap().decl;
            assert!(Arc::ptr_eq(entry, rk), "region kind {}", rk.name);
        }
    }

    /// The table alone holds each entry of the engine's table (the pass
    /// dropped the bodies and the program), and the entries of the
    /// classes `parsed` are the headers the pass parsed from the stored
    /// source, default-completed. Debug output is compared because
    /// `Ident` equality ignores spans.
    fn assert_parsed_headers(eng: &IncrementalChecker, parsed: &[&str], pass: &str) {
        let table = eng.table.as_ref().unwrap();
        for info in table.classes() {
            assert_eq!(
                Arc::strong_count(&info.decl),
                1,
                "{pass}: {}",
                info.decl.name
            );
        }
        for info in table.region_kinds() {
            assert_eq!(
                Arc::strong_count(&info.decl),
                1,
                "{pass}: {}",
                info.decl.name
            );
        }
        let mut fresh = parse_program(eng.source()).unwrap();
        infer::apply_declaration_defaults(&mut fresh);
        assert_eq!(table.classes().count(), fresh.classes.len(), "{pass}");
        for c in fresh
            .classes
            .iter()
            .filter(|c| parsed.contains(&c.decl.name.name.as_str()))
        {
            let entry = &table.class(c.decl.name.name).unwrap().decl;
            assert_eq!(format!("{entry:?}"), format!("{:?}", c.decl), "{pass}");
        }
    }

    /// The table holds the very headers the parser built, with no copy:
    /// a from-scratch check's table shares its program's, and the
    /// engine's entries are the headers its passes parsed. A patch
    /// replaces the entries of the classes it re-parsed and keeps every
    /// other one.
    #[test]
    fn the_table_shares_the_parsed_headers() {
        let src = format!(
            "regionKind Pool extends SharedRegion {{ B head; }}\n{}",
            src()
        );
        let scratch =
            check_program_in(parse_program(&src).unwrap(), &CheckOptions::default()).unwrap();
        assert_shares_headers(&scratch.table, &scratch.program);
        let bodies: Vec<_> = (scratch.program.classes.iter())
            .flat_map(|c| &c.bodies)
            .collect();
        assert_eq!(bodies.len(), 2);
        assert!(bodies.iter().all(|b| !b.stmts.is_empty()));

        let mut eng = IncrementalChecker::new(CheckOptions::default());
        assert!(eng.check_source(&src).unwrap().ok());
        assert_parsed_headers(&eng, &["A", "B"], "first pass");
        let header = |eng: &IncrementalChecker, name: &str| {
            Arc::as_ptr(&eng.table.as_ref().unwrap().class(name).unwrap().decl)
        };
        let (a, b) = (header(&eng, "A"), header(&eng, "B"));
        let out = eng
            .recheck(&[ClassEdit {
                class: "B".to_string(),
                source: "class B<Owner o> { int v; int get() { let d = new B; return this.v; } }"
                    .to_string(),
            }])
            .unwrap();
        assert!(out.ok() && !out.whole_parse && !out.full_rebuild, "{out:?}");
        assert_parsed_headers(&eng, &["B"], "fragment pass");
        assert_eq!(header(&eng, "A"), a, "a clean class keeps its entry");
        assert_ne!(
            header(&eng, "B"),
            b,
            "the edited class's entry is its new parse"
        );
        let grown = format!(
            "class Z<Owner o> {{ int z() {{ return 1; }} }}\n{}",
            eng.source()
        );
        let out = eng.check_source(&grown).unwrap();
        assert!(out.ok() && out.whole_parse && out.full_rebuild, "{out:?}");
        assert_parsed_headers(&eng, &["Z", "A", "B"], "fresh pass");
    }

    /// A batch rejected after its first edit emptied a class splices it
    /// back: the source and layout are the last good pass's, and the
    /// next edit takes the fragment path.
    #[test]
    fn a_rejected_batch_restores_the_source_and_layout() {
        let mut eng = IncrementalChecker::new(CheckOptions::default());
        eng.check_source(&src()).unwrap();
        let emptied = |class: &str| ClassEdit {
            class: class.to_string(),
            source: String::new(),
        };
        let rejected = [
            vec![emptied("B"), emptied("Zed")],
            vec![
                emptied("B"),
                ClassEdit {
                    class: "A".to_string(),
                    source: "class A<Owner o> {".to_string(),
                },
            ],
        ];
        for batch in &rejected {
            assert!(eng.recheck(batch).is_err());
            assert_eq!(eng.source(), src());
            let layout = Layout::of(&parse_program(&src()).unwrap());
            assert_eq!(eng.layout.classes, layout.classes);
            assert_eq!(eng.layout.main, layout.main);
        }
        let out = eng
            .recheck(&[ClassEdit {
                class: "A".to_string(),
                source: "class A<Owner o> { B<o> f; int probe() { return this.f.get() + 1; } }"
                    .to_string(),
            }])
            .unwrap();
        assert!(out.ok() && !out.whole_parse, "{:?}", out.errors);
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
    /// is held by the table exactly as `build` holds the fresh parse's
    /// default-completed header. Debug output is compared because `Ident`
    /// equality ignores spans.
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
                        let want = fresh.classes.iter().find(|c| c.decl.name.name == name);
                        let have = &table.class(name).unwrap().decl;
                        assert_eq!(
                            format!("{:?}", have),
                            format!("{:?}", want.unwrap().decl),
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
