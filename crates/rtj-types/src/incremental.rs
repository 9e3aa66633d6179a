//! Incremental, fingerprint-keyed re-checking.
//!
//! [`IncrementalChecker`] keeps the result of the last check — per-class
//! diagnostics, per-class judgment-cache counters, the built
//! [`ProgramTable`] — keyed by fingerprints ([`rtj_lang::fingerprint`]),
//! and re-checks only the *dirty closure* of an edit batch. The contract,
//! enforced by `tests/incremental_differential.rs`, is strict:
//!
//! > At any `--jobs`, a `recheck` produces **byte-identical diagnostics**
//! > and a structurally identical `rtj-checker-metrics/v1` snapshot to a
//! > from-scratch [`crate::check_program_in`] of the same source.
//!
//! How the reuse works:
//!
//! * Every class and region kind gets a **text** fingerprint (a hash of
//!   its source bytes), and every class a **signature** fingerprint (what
//!   dependents can observe; span-free, over the elaborated declaration).
//!   A declaration whose text is unchanged keeps its cached signature
//!   unhashed. A body-only edit changes the text but not the signature.
//! * A **reverse dependency index** maps each class and region-kind name
//!   to the declarations that mention it. The engine keeps it in step
//!   with the committed reference sets. Signature changes (and class or
//!   region-kind additions/removals) seed a BFS over it; the resulting
//!   closure is re-checked. The closure is transitive, so names a class
//!   only reaches through a dependency's members are still covered.
//! * The table is rebuilt only when the class set, a region kind or a
//!   formal count changes. Otherwise each re-parsed class's entry is
//!   patched (the crate-private `ProgramTable::patch_class`) and the
//!   table's per-class structural rules re-run over the closure
//!   (`ProgramTable::check_classes`). A patch that breaks a rule is
//!   undone (`ProgramTable::restore_class`) before the table is read
//!   again, so a patched table, like a built one, holds no cyclic or
//!   unknown chain.
//! * Clean classes contribute their cached diagnostics with spans
//!   **shifted** by the declaration's movement. Equal text parses to the
//!   same declaration, only moved, so the uniform shift is exact, not
//!   approximate.
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

use crate::check::{check_units, resolve_jobs, CheckOptions, CheckStats, Checker};
use crate::env::JudgmentCounters;
use crate::error::TypeError;
use crate::infer;
use crate::profile::{CheckProfile, PhaseSpan};
use crate::table::ProgramTable;
use rtj_lang::ast::{Block, ClassDecl, Program};
use rtj_lang::fingerprint::{
    class_refs, region_kind_refs, signature_fingerprint, text_fingerprint,
};
use rtj_lang::intern::Symbol;
use rtj_lang::parser::{parse_block_at, parse_class_at, parse_program, ParseError};
use rtj_lang::span::Span;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::ops::Range;
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
    text: u64,
    start: u32,
    refs: Vec<Symbol>,
    wf_errors: Vec<TypeError>,
    wf_judgments: JudgmentCounters,
    errors: Vec<TypeError>,
    methods_checked: usize,
    judgments: JudgmentCounters,
}

impl UnitCache {
    /// Whether a merge has diagnostics to take from this class.
    fn has_errors(&self) -> bool {
        !self.wf_errors.is_empty() || !self.errors.is_empty()
    }
}

/// Cached per-region-kind well-formedness results.
#[derive(Debug, Clone)]
struct RkCache {
    text: u64,
    start: u32,
    errors: Vec<TypeError>,
    judgments: JudgmentCounters,
}

/// Counters summed over cached units, kept as running sums so a pass
/// reports from-scratch totals without visiting the units it reuses.
#[derive(Debug, Clone, Copy, Default)]
struct Totals {
    methods_checked: usize,
    judgments: JudgmentCounters,
}

impl Totals {
    fn add(&mut self, u: &UnitCache) {
        self.methods_checked += u.methods_checked;
        self.judgments.absorb(&u.wf_judgments);
        self.judgments.absorb(&u.judgments);
    }

    fn remove(&mut self, u: &UnitCache) {
        self.methods_checked -= u.methods_checked;
        self.judgments.retract(&u.wf_judgments);
        self.judgments.retract(&u.judgments);
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
    /// repeat (such a text stops at a table error).
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
fn parse_fragment(source: &str, (name, span): (Symbol, Span)) -> Option<ClassDecl> {
    let text = &source[span.start as usize..span.end as usize];
    let decl = parse_class_at(text, span.start).ok()?;
    (decl.span == span && decl.name.name == name).then_some(decl)
}

/// A class a pass parsed.
struct Parsed {
    /// Its position in the layout.
    pos: usize,
    decl: ClassDecl,
    /// Its text fingerprint.
    text: u64,
    /// Its fresh signature fingerprint when the class re-checks; `None`
    /// when its cached results are reused.
    dirty: Option<u64>,
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
    /// The parsed classes in declaration order: every class on the
    /// whole-source path, only the re-parsed ones on the fragment path.
    classes: Vec<Parsed>,
    /// Each region kind's text fingerprint, in declaration order, which
    /// a rebuilt table commits (every region kind re-checks); the
    /// fragment path, which keeps the table, computes none.
    region_kinds: Vec<u64>,
    main: Block,
    whole_parse: bool,
    /// Time spent after `start` re-parsing the closure's dependents,
    /// which [`RecheckOutcome::check_ns`] leaves out.
    reparse: Duration,
}

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
    /// Table from the last pass whose build succeeded.
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
        if let Some(change) = self.diff(source) {
            let undo = change.map(|(pos, text)| self.splice(pos, &source[text]));
            return self.recheck_spliced(undo.into_iter().collect());
        }
        let prog = parse_program(source)?;
        source.clone_into(&mut self.source);
        Ok(self.process(prog))
    }

    /// The position of the one class whose text differs between the
    /// stored text and `source`, with the range of its new text in
    /// `source` (`None` for an identical text), when `source` differs
    /// from the stored text only inside that class declaration. Only a
    /// committed pass's layout describes its text.
    fn diff(&self, source: &str) -> Option<Option<(usize, Range<usize>)>> {
        if self.table.is_none() || self.stale {
            return None;
        }
        let (old, new) = (self.source.as_bytes(), source.as_bytes());
        let prefix = old.iter().zip(new).take_while(|(a, b)| a == b).count();
        if prefix == old.len() && prefix == new.len() {
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

    /// Re-checks the stored source after the splices `undo` records: the
    /// fragment path if it applies, else the whole source. A source that
    /// does not parse is spliced back, leaving the engine as it was.
    fn recheck_spliced(&mut self, undo: Vec<Undo>) -> Result<RecheckOutcome, ParseError> {
        let mut edited: Vec<usize> = Vec::with_capacity(undo.len());
        for &(pos, _) in &undo {
            if !edited.contains(&pos) {
                edited.push(pos);
            }
        }
        if !self.stale {
            if let Some(out) = self.recheck_fragments(&edited) {
                return Ok(out);
            }
        }
        match parse_program(&self.source) {
            Ok(prog) => Ok(self.process(prog)),
            Err(e) => {
                self.unsplice(undo);
                Err(e)
            }
        }
    }

    /// The fragment path: re-checks a batch without parsing any
    /// declaration but the edited ones (positions `edited`) and the
    /// dependents in the dirty closure of their changed signatures.
    /// Returns `None`, with the engine untouched, unless every edited
    /// declaration parses on its own at its splice offset, fills its
    /// text exactly (no leading or trailing trivia, which could lex
    /// differently against the text around it), and keeps its name and
    /// its formal count. Then a whole-source parse would yield the same
    /// declarations with the same spans, and every class outside the
    /// closure is known by its name and current start alone. It also
    /// returns `None` when the closure reaches a region kind or the
    /// patched table breaks a structural rule; the whole-source path
    /// reports such errors.
    fn recheck_fragments(&mut self, edited: &[usize]) -> Option<RecheckOutcome> {
        let table = self.table.as_ref()?;
        let (source, layout) = (&self.source, &self.layout);
        let mut parsed = Vec::with_capacity(edited.len());
        for &pos in edited {
            let decl = parse_fragment(source, layout.classes[pos])?;
            // Other classes' bare types are completed with this count.
            if table.formal_count(decl.name.name) != Some(decl.formals.len()) {
                return None;
            }
            parsed.push((pos, decl));
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
        for (pos, decl) in parsed {
            let sig = signature_fingerprint(&decl);
            if self.units.get(&decl.name.name)?.sig != sig {
                seeds.push(decl.name.name);
            }
            fresh.push((pos, decl, sig));
        }
        let closure = dependent_closure(&self.dependents, seeds);
        if closure.iter().any(|n| self.rkinds.contains_key(n)) {
            return None;
        }
        // Each dependent's text is unchanged since a parse that gave it
        // this span, so on its own it parses to the same declaration
        // (DESIGN.md §9), completed with the same counts.
        let mut reparse = Duration::ZERO;
        for name in &closure {
            let pos = *self.index.get(name.as_str())?;
            if fresh.iter().any(|(p, _, _)| *p == pos) {
                continue;
            }
            let r0 = Instant::now();
            let mut decl = parse_fragment(source, layout.classes[pos])?;
            reparse += r0.elapsed();
            infer::apply_class_defaults(&mut decl, &formals);
            let sig = signature_fingerprint(&decl);
            fresh.push((pos, decl, sig));
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
        fresh.sort_unstable_by_key(|(pos, _, _)| *pos);
        let classes = fresh
            .into_iter()
            .map(|(pos, decl, sig)| {
                let name = decl.name.name;
                let text = text_fingerprint(source, decl.span);
                let dirty = closure.contains(&name) || self.units[&name].text != text;
                Parsed {
                    pos,
                    decl,
                    text,
                    dirty: dirty.then_some(sig),
                }
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
            region_kinds: Vec::new(),
            main,
            whole_parse: false,
            reparse,
        }))
    }

    /// One checking pass over the parsed stored source: diff fingerprints
    /// and decide the dirty set, then [`IncrementalChecker::finish`].
    ///
    /// Every declaration's text is hashed. A class whose text is
    /// unchanged since the pass that cached it keeps its cached signature
    /// fingerprint unhashed; any other class is hashed fresh. A class
    /// parsed under a new name is not in the unit cache, and a duplicate
    /// of an existing name trips the table-error path before any
    /// fingerprint is trusted.
    fn process(&mut self, mut prog: Program) -> RecheckOutcome {
        let start = Instant::now();
        let profiling = self.opts.profile;
        let mut phases: Vec<PhaseSpan> = Vec::new();

        self.layout = Layout::of(&prog);
        self.index = self.layout.index();

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
        // Each class's text fingerprint, and its fresh signature
        // fingerprint unless the cache holds the same text.
        let fps: Vec<(u64, Option<u64>)> = prog
            .classes
            .iter()
            .map(|c| {
                let text = text_fingerprint(&self.source, c.span);
                let cached = self.units.get(&c.name.name).is_some_and(|u| u.text == text);
                (text, (!cached).then(|| signature_fingerprint(c)))
            })
            .collect();
        let rktexts: Vec<u64> = prog
            .region_kinds
            .iter()
            .map(|rk| text_fingerprint(&self.source, rk.span))
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
        // and region kinds whose text changed (or appeared/vanished).
        let mut seeds: Vec<Symbol> = Vec::new();
        for (c, (_, sig)) in prog.classes.iter().zip(&fps) {
            // A class whose text is unchanged keeps its signature.
            let Some(sig) = sig else { continue };
            if self.units.get(&c.name.name).is_none_or(|u| u.sig != *sig) {
                seeds.push(c.name.name);
            }
        }
        seeds.extend(self.units.keys().filter(|n| !names.contains(n)));
        for (rk, text) in prog.region_kinds.iter().zip(&rktexts) {
            let cached = self.rkinds.get(&rk.name.name);
            if cached.is_none_or(|r| r.text != *text) {
                seeds.push(rk.name.name);
            }
        }
        seeds.extend(self.rkinds.keys().filter(|n| !rknames.contains(n)));

        // A class re-checks when its text changed, or when the closure of
        // the seeds reaches it.
        let fast = !dup && seeds.is_empty() && self.table.is_some();
        let mut dirty: Vec<bool> = fps.iter().map(|(_, sig)| sig.is_some()).collect();
        let table = if fast {
            let mut table = self.table.take().expect("fast path requires a table");
            for (c, _) in prog.classes.iter().zip(&dirty).filter(|(_, d)| **d) {
                // The structural facts still hold (signature unchanged)
                // but spans and bodies moved: patch the entry so error
                // reporting against this class reads current spans.
                table.patch_class(c);
            }
            table
        } else {
            let built = match ProgramTable::build(&prog) {
                Ok(t) => t,
                Err(errors) => {
                    // From-scratch parity: the driver returns table errors
                    // alone, before any unit runs. Keep the caches at the
                    // last good pass so the next diff is against it.
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
            // the BFS closure of the seeds. Text-unchanged classes reuse
            // their cached (elaborated) reference sets.
            let mut reverse = Dependents::new();
            for (c, &changed) in prog.classes.iter().zip(&dirty) {
                match self.units.get(&c.name.name) {
                    Some(u) if !changed => link(&mut reverse, c.name.name, &u.refs),
                    _ => link(&mut reverse, c.name.name, &class_refs(c)),
                }
            }
            for rk in &prog.region_kinds {
                link(&mut reverse, rk.name.name, &region_kind_refs(rk));
            }
            let closure = dependent_closure(&reverse, seeds);
            for (c, d) in prog.classes.iter().zip(&mut dirty) {
                *d |= closure.contains(&c.name.name);
            }
            built
        };
        let classes = std::mem::take(&mut prog.classes)
            .into_iter()
            .zip(fps)
            .zip(dirty)
            .enumerate()
            .map(|(pos, ((c, (text, sig)), dirty))| Parsed {
                pos,
                text,
                // A dirty class is committed with a fresh signature: a
                // cached one predates any change to the formal counts its
                // bare class types were completed with.
                dirty: dirty.then(|| sig.unwrap_or_else(|| signature_fingerprint(&c))),
                decl: c,
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
            region_kinds: rktexts,
            main: prog.main,
            whole_parse: true,
            reparse: Duration::ZERO,
        })
    }

    /// The back half every committed pass shares: check what is dirty,
    /// commit it, then merge the kept diagnostics in from-scratch order.
    /// On the fragment path it visits only the parsed classes and the
    /// classes with cached diagnostics (the profile's per-class spans
    /// aside).
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
        let total = self.layout.classes.len();

        // wf: region kinds, then inheritance, both per declaration (a
        // fresh `Checker` per unit absorbs the same environments in the
        // same order as the from-scratch single-pass prelude, so errors
        // and counters are identical). A rebuilt table re-checks every
        // declaration; a reused one re-checks only the dirty classes.
        let p0 = profiling.then(|| start.elapsed());
        let rk_results: Vec<(Vec<TypeError>, JudgmentCounters)> = if reused_table {
            Vec::new()
        } else {
            self.layout
                .region_kinds
                .iter()
                .map(|&(name, _)| {
                    let info = table.region_kind(name).expect("built from this program");
                    let mut ck = Checker::new(&table);
                    ck.check_region_kind(&info.decl);
                    (std::mem::take(&mut ck.errors), ck.judgments)
                })
                .collect()
        };
        let cls_wf: Vec<Option<(Vec<TypeError>, JudgmentCounters)>> = classes
            .iter()
            .map(|c| {
                (c.dirty.is_some() || !reused_table).then(|| {
                    let mut ck = Checker::new(&table);
                    ck.check_inheritance(std::slice::from_ref(&c.decl));
                    (std::mem::take(&mut ck.errors), ck.judgments)
                })
            })
            .collect();
        if let Some(p0) = p0 {
            phases.push(PhaseSpan::leaf("wf", p0, start.elapsed() - p0));
        }

        // classes: check the dirty units, in parallel like the
        // from-scratch driver. The core count is asked for on the first
        // pass only: the call costs about as much as the checking work of
        // a one-class re-check.
        self.opts.jobs = resolve_jobs(self.opts.jobs);
        let dirty_count = classes.iter().filter(|c| c.dirty.is_some()).count();
        let workers = self.opts.jobs.min(dirty_count.max(1));
        let p0 = profiling.then(|| start.elapsed());
        let slots = classes.len();
        let queue = classes
            .iter_mut()
            .enumerate()
            .filter(|(_, c)| c.dirty.is_some())
            .map(|(i, c)| (i, &mut c.decl));
        let fresh = check_units(&table, workers, queue, slots, profiling.then_some(start));
        if let Some(p0) = p0 {
            // One span per class, as a from-scratch profile has; a reused
            // class's is empty.
            let mut times = classes
                .iter()
                .zip(&fresh)
                .filter_map(|(c, unit)| Some((c.pos, unit.as_ref()?.time?)))
                .peekable();
            let children = self
                .layout
                .classes
                .iter()
                .enumerate()
                .map(|(i, (name, _))| {
                    let (s0, w) = times
                        .next_if(|(pos, _)| *pos == i)
                        .map_or((Duration::ZERO, Duration::ZERO), |(_, t)| t);
                    PhaseSpan::leaf(format!("class {name}"), s0, w)
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
        ck.check_main(&mut main);
        let main_errors = std::mem::take(&mut ck.errors);
        let main_judgments = ck.judgments;
        if let Some(p0) = p0 {
            phases.push(PhaseSpan::leaf("main", p0, start.elapsed() - p0));
        }

        // Commit. With the table kept, a clean entry's stored `(start,
        // errors)` pair stays internally consistent (the merge shifts by
        // its current start minus the stored one), so only the dirty
        // entries are rewritten, and the reverse index follows their
        // reference sets. A rebuilt table re-ran every well-formedness
        // check, so every entry is rewritten and the index re-derived. On
        // the fragment path the class order is fixed: the totals and the
        // positions with diagnostics follow the rewritten entries. A
        // whole-source pass may have moved declarations, so it re-derives
        // them.
        let dirty_names: Vec<Symbol> = classes
            .iter()
            .filter(|c| c.dirty.is_some())
            .map(|c| c.decl.name.name)
            .collect();
        let mut old = if reused_table {
            HashMap::new()
        } else {
            std::mem::take(&mut self.units)
        };
        for ((c, unit), wf) in classes.iter().zip(fresh).zip(cls_wf) {
            let name = c.decl.name.name;
            let at = self.layout.classes[c.pos].1.start;
            let entry = match c.dirty {
                Some(sig) => {
                    let unit = unit.expect("a dirty class is checked");
                    let (wf_errors, wf_judgments) = wf.expect("a dirty class re-checks its wf");
                    UnitCache {
                        sig,
                        text: c.text,
                        start: at,
                        refs: class_refs(&c.decl),
                        wf_errors,
                        wf_judgments,
                        errors: unit.errors,
                        methods_checked: unit.methods_checked,
                        judgments: unit.judgments,
                    }
                }
                None if reused_table => continue,
                None => {
                    let u = old.remove(&name).expect("clean unit is cached");
                    let (wf_errors, wf_judgments) =
                        wf.expect("a rebuilt table re-checks every class");
                    UnitCache {
                        errors: shifted(&u.errors, at, u.start).collect(),
                        start: at,
                        wf_errors,
                        wf_judgments,
                        ..u
                    }
                }
            };
            if let Some(prev) = self.units.get(&name).filter(|u| u.refs != entry.refs) {
                unlink(&mut self.dependents, name, &prev.refs);
                link(&mut self.dependents, name, &entry.refs);
            }
            if whole_parse {
                self.units.insert(name, entry);
                continue;
            }
            self.totals.add(&entry);
            if entry.has_errors() {
                self.noisy.insert(c.pos);
            } else {
                self.noisy.remove(&c.pos);
            }
            let prev = self.units.insert(name, entry);
            self.totals
                .remove(&prev.expect("a fragment pass re-checks only cached classes"));
        }
        if !reused_table {
            self.dependents.clear();
            for (name, u) in &self.units {
                link(&mut self.dependents, *name, &u.refs);
            }
            self.rkinds.clear();
            for ((&(name, span), text), (errors, judgments)) in self
                .layout
                .region_kinds
                .iter()
                .zip(region_kinds)
                .zip(rk_results)
            {
                let info = table.region_kind(name).expect("built from this program");
                link(&mut self.dependents, name, &region_kind_refs(&info.decl));
                self.rkinds.insert(
                    name,
                    RkCache {
                        text,
                        start: span.start,
                        errors,
                        judgments,
                    },
                );
            }
        }
        if whole_parse {
            self.rederive();
        }
        self.table = Some(table);
        self.stale = false;

        // Merge in from-scratch order: region kinds, inheritance, class
        // units (declaration order), main; stable span sort. Classes and
        // region kinds without diagnostics add nothing to that sequence,
        // so visiting only those with some keeps it, and with it the
        // order in which equal spans (`Span::DUMMY` among them) tie.
        let mut all: Vec<TypeError> = Vec::new();
        for &i in &self.noisy_rkinds {
            let (name, span) = self.layout.region_kinds[i];
            let rk = &self.rkinds[&name];
            all.extend(shifted(&rk.errors, span.start, rk.start));
        }
        for &i in &self.noisy {
            let (name, span) = self.layout.classes[i];
            let u = &self.units[&name];
            all.extend(shifted(&u.wf_errors, span.start, u.start));
        }
        for &i in &self.noisy {
            let (name, span) = self.layout.classes[i];
            let u = &self.units[&name];
            all.extend(shifted(&u.errors, span.start, u.start));
        }
        all.extend(main_errors);
        all.sort_by_key(|e| e.span);
        let mut judgments = self.totals.judgments;
        judgments.absorb(&main_judgments);

        let elapsed = start.elapsed();
        let stats = CheckStats {
            classes_checked: total,
            methods_checked: self.totals.methods_checked,
            judgments,
            threads_used: self.opts.jobs.min(total.max(1)),
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

    /// Re-derives the totals and the positions with diagnostics from the
    /// caches of the current layout's declarations.
    fn rederive(&mut self) {
        self.totals = Totals::default();
        self.noisy.clear();
        for (i, (name, _)) in self.layout.classes.iter().enumerate() {
            let u = &self.units[name];
            self.totals.add(u);
            if u.has_errors() {
                self.noisy.insert(i);
            }
        }
        self.noisy_rkinds.clear();
        for (i, (name, _)) in self.layout.region_kinds.iter().enumerate() {
            let rk = &self.rkinds[name];
            self.totals.judgments.absorb(&rk.judgments);
            if !rk.errors.is_empty() {
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
    use crate::table::signature;

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

    /// Every class entry of `table` holds a signature: no method body.
    fn assert_signatures_only(table: &ProgramTable, pass: &str) {
        for info in table.classes() {
            for m in &info.decl.methods {
                assert!(
                    m.body.stmts.is_empty(),
                    "{pass}: the table keeps the body of {}.{}",
                    info.decl.name,
                    m.name
                );
            }
        }
    }

    /// The program holds the method bodies and the table only their
    /// signatures, after a from-scratch check and after incremental
    /// passes that patch the kept table or rebuild it.
    #[test]
    fn the_table_holds_no_method_body() {
        let scratch =
            check_program_in(parse_program(&src()).unwrap(), &CheckOptions::default()).unwrap();
        assert_signatures_only(&scratch.table, "from scratch");
        let methods: Vec<_> = scratch
            .program
            .classes
            .iter()
            .flat_map(|c| &c.methods)
            .collect();
        assert_eq!(methods.len(), 2);
        assert!(methods.iter().all(|m| !m.body.stmts.is_empty()));

        let mut eng = IncrementalChecker::new(CheckOptions::default());
        assert!(eng.check_source(&src()).unwrap().ok());
        assert_signatures_only(eng.table.as_ref().unwrap(), "first pass");
        let out = eng
            .recheck(&[ClassEdit {
                class: "B".to_string(),
                source: "class B<Owner o> { int v; int get() { let d = new B; return this.v; } }"
                    .to_string(),
            }])
            .unwrap();
        assert!(out.ok() && !out.whole_parse && !out.full_rebuild, "{out:?}");
        assert_signatures_only(eng.table.as_ref().unwrap(), "fragment pass");
        let grown = format!(
            "class Z<Owner o> {{ int z() {{ return 1; }} }}\n{}",
            eng.source()
        );
        let out = eng.check_source(&grown).unwrap();
        assert!(out.ok() && out.whole_parse && out.full_rebuild, "{out:?}");
        assert_signatures_only(eng.table.as_ref().unwrap(), "rebuild pass");
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
    /// default-completed one: as its signature. Debug output is compared
    /// because `Ident` equality ignores spans.
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
                            format!("{:?}", signature(want.unwrap())),
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
