//! Typing environments and the deduction engine.
//!
//! An [`Env`] carries variable typings, owner-kind declarations, the
//! ownership facts `o1 ≽ₒ o2` (o1 transitively owns o2), the outlives
//! facts `o1 ≽ o2`, region-handle availability, and the type of `this`.
//! Queries close the fact base under the paper's derivation rules:
//!
//! * `≽ₒ` and `≽` are reflexive and transitive, and `≽ₒ ⊆ ≽`;
//! * `heap` and `immortal` outlive every region (property R1);
//! * the first owner of `this`'s type owns `this`;
//! * handle availability (`av RH`) propagates along `≽ₒ` in both
//!   directions (owner and owned live in the same region);
//! * `RKind(o)` finds the kind of the region `o` is (or is allocated in)
//!   by walking up the ownership relation.
//!
//! One breadth-first search over the facts decides both `≽ₒ` and `≽`,
//! and `--explain` prints the derivation from the same search's tree, so
//! the explanation is the deduction that decided, not a replay of it.

use crate::kind::{is_subkind, Kind, RegionKindLookup};
use crate::owner::Owner;
use crate::stype::SType;
use rtj_lang::intern::Symbol;
use std::cell::RefCell;
use std::collections::{BTreeSet, HashMap, HashSet};

/// The set of permitted effects `X` (owners, possibly including `RT`).
///
/// A `BTreeSet` keyed on content-ordered owners, so iteration (and thus
/// diagnostic emission order) is deterministic across runs and drivers.
pub type Effects = BTreeSet<Owner>;

/// Cache counters for one memoized judgment family.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FamilyCounters {
    /// Queries answered from the memo table.
    pub hits: u64,
    /// Queries that ran the underlying deduction.
    pub misses: u64,
}

impl FamilyCounters {
    /// Total queries (hits + misses).
    pub fn total(&self) -> u64 {
        self.hits + self.misses
    }

    /// Folds another family's counters into this one.
    pub fn absorb(&mut self, other: FamilyCounters) {
        self.hits += other.hits;
        self.misses += other.misses;
    }

    /// Takes back counters an earlier [`FamilyCounters::absorb`] folded
    /// in.
    pub(crate) fn retract(&mut self, other: FamilyCounters) {
        self.hits -= other.hits;
        self.misses -= other.misses;
    }
}

/// Per-judgment-family cache counters, broken out so `--stats` and the
/// checker profile can attribute deduction work to the paper's individual
/// judgments instead of one summed pair.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JudgmentCounters {
    /// The ownership judgment `o1 ≽ₒ o2`.
    pub ownership: FamilyCounters,
    /// The outlives judgment `o1 ≽ o2`.
    pub outlives: FamilyCounters,
    /// The subkinding judgment `k1 ≤ₖ k2`.
    pub subkind: FamilyCounters,
    /// The region-kind judgment `RKind(o) = k`.
    pub rkind: FamilyCounters,
    /// Handle availability `av RH(o)`.
    pub handle: FamilyCounters,
}

impl JudgmentCounters {
    /// Stable family names, in rendering order, paired with an accessor.
    /// Used by snapshot serialization so the JSON field order never
    /// depends on insertion order.
    pub fn families(&self) -> [(&'static str, FamilyCounters); 5] {
        [
            ("ownership", self.ownership),
            ("outlives", self.outlives),
            ("subkind", self.subkind),
            ("rkind", self.rkind),
            ("handle", self.handle),
        ]
    }

    /// Total cache hits summed across families.
    pub fn hits(&self) -> u64 {
        self.families().iter().map(|(_, f)| f.hits).sum()
    }

    /// Total cache misses summed across families.
    pub fn misses(&self) -> u64 {
        self.families().iter().map(|(_, f)| f.misses).sum()
    }

    /// Folds another set of counters into this one, family by family.
    pub fn absorb(&mut self, other: &JudgmentCounters) {
        self.ownership.absorb(other.ownership);
        self.outlives.absorb(other.outlives);
        self.subkind.absorb(other.subkind);
        self.rkind.absorb(other.rkind);
        self.handle.absorb(other.handle);
    }

    /// Takes back counters an earlier [`JudgmentCounters::absorb`] folded
    /// in, family by family.
    pub(crate) fn retract(&mut self, other: &JudgmentCounters) {
        self.ownership.retract(other.ownership);
        self.outlives.retract(other.outlives);
        self.subkind.retract(other.subkind);
        self.rkind.retract(other.rkind);
        self.handle.retract(other.handle);
    }
}

/// Memoized results of the transitive judgments, keyed on interned
/// owner pairs. The cache belongs to one fact base: any mutation of the
/// environment's facts clears it (facts only ever grow within a scope,
/// and scope exits truncate, so "cleared on mutation" is exactly the
/// invalidation the append-only representation needs). The subkinding
/// memo is the exception: it depends only on the program's region-kind
/// hierarchy, which is immutable for the whole run, so it survives fact
/// mutations.
#[derive(Debug, Clone, Default)]
struct QueryCache {
    owns: HashMap<(Owner, Owner), bool>,
    outlives: HashMap<(Owner, Owner), bool>,
    rkind: HashMap<Owner, Option<Kind>>,
    subkind: HashMap<(Kind, Kind), bool>,
    /// The full handle-availability fixpoint, computed once per fact base.
    handle_avail: Option<HashSet<Owner>>,
    counters: JudgmentCounters,
}

/// A saved scope position: lengths of the append-only fact vectors.
/// Restoring a mark truncates back to it, replacing whole-environment
/// clones for block scoping.
#[derive(Debug, Clone, Copy)]
pub struct ScopeMark {
    vars: usize,
    owner_kinds: usize,
    owns: usize,
    outlives: usize,
    handles: usize,
}

/// A typing environment.
#[derive(Debug, Default)]
pub struct Env {
    /// Variable typings; `None` for a variable of unknown type.
    vars: Vec<(Symbol, Option<SType>)>,
    owner_kinds: Vec<(Owner, Kind)>,
    owns_facts: Vec<(Owner, Owner)>,
    outlives_facts: Vec<(Owner, Owner)>,
    /// Regions whose handles are available through in-scope handle values.
    handle_regions: Vec<Owner>,
    this_type: Option<(Symbol, Vec<Owner>)>,
    /// The kind of the owner `this`: `ObjOwner` inside class methods,
    /// the region kind itself inside `regionKind` declarations.
    this_kind: Option<Kind>,
    cache: RefCell<QueryCache>,
}

impl Clone for Env {
    /// Clones keep the (still-valid) memoized judgments but reset the
    /// hit/miss counters, so each environment's counters can be summed
    /// into run-wide stats without double counting.
    fn clone(&self) -> Env {
        let mut cache = self.cache.borrow().clone();
        cache.counters = JudgmentCounters::default();
        Env {
            vars: self.vars.clone(),
            owner_kinds: self.owner_kinds.clone(),
            owns_facts: self.owns_facts.clone(),
            outlives_facts: self.outlives_facts.clone(),
            handle_regions: self.handle_regions.clone(),
            this_type: self.this_type.clone(),
            this_kind: self.this_kind.clone(),
            cache: RefCell::new(cache),
        }
    }
}

impl Env {
    /// The base environment of `[PROG]`: `heap : GCRegion`,
    /// `immortal : SharedRegion : LT`, with both handles available.
    pub fn base() -> Env {
        let mut e = Env::default();
        e.owner_kinds.push((Owner::Heap, Kind::GcRegion));
        e.owner_kinds
            .push((Owner::Immortal, Kind::SharedRegion.with_lt()));
        e.handle_regions.push(Owner::Heap);
        e.handle_regions.push(Owner::Immortal);
        e
    }

    /// Drops memoized judgment results; called whenever the fact base
    /// changes shape. Hit/miss counters survive so stats cover the whole
    /// checking run, and the subkinding memo survives because it depends
    /// only on the (immutable) region-kind hierarchy, not on env facts.
    fn invalidate_cache(&self) {
        let mut c = self.cache.borrow_mut();
        c.owns.clear();
        c.outlives.clear();
        c.rkind.clear();
        c.handle_avail = None;
    }

    /// Judgment-cache counters `(hits, misses)` summed over every family,
    /// accumulated by this environment since it was created (cloning
    /// resets the clone's counters, so per-environment totals can be
    /// summed). See [`Env::judgment_counters`] for the per-family split.
    pub fn cache_counters(&self) -> (u64, u64) {
        let c = self.cache.borrow().counters;
        (c.hits(), c.misses())
    }

    /// Judgment-cache counters broken out per judgment family.
    pub fn judgment_counters(&self) -> JudgmentCounters {
        self.cache.borrow().counters
    }

    // ---------------------------------------------------------------- scoping

    /// Saves the current extent of the append-only fact vectors.
    pub fn mark(&self) -> ScopeMark {
        ScopeMark {
            vars: self.vars.len(),
            owner_kinds: self.owner_kinds.len(),
            owns: self.owns_facts.len(),
            outlives: self.outlives_facts.len(),
            handles: self.handle_regions.len(),
        }
    }

    /// Rolls the environment back to a previously saved [`ScopeMark`],
    /// discarding every binding and fact added since. Replaces the old
    /// whole-`Env` clone per checked block.
    pub fn truncate_to(&mut self, m: ScopeMark) {
        let facts_changed = self.owner_kinds.len() != m.owner_kinds
            || self.owns_facts.len() != m.owns
            || self.outlives_facts.len() != m.outlives
            || self.handle_regions.len() != m.handles;
        self.vars.truncate(m.vars);
        self.owner_kinds.truncate(m.owner_kinds);
        self.owns_facts.truncate(m.owns);
        self.outlives_facts.truncate(m.outlives);
        self.handle_regions.truncate(m.handles);
        if facts_changed {
            self.invalidate_cache();
        }
    }

    // ------------------------------------------------------------- variables

    /// Binds a variable (later bindings shadow earlier ones).
    pub fn bind_var(&mut self, name: impl Into<Symbol>, ty: SType) {
        let name = name.into();
        if let SType::Handle(r) = &ty {
            self.handle_regions.push(*r);
            self.invalidate_cache();
        }
        self.vars.push((name, Some(ty)));
    }

    /// Binds a variable of unknown type: one whose declared type did not
    /// resolve, or a local inferred from an expression with no type. The
    /// error was reported where the type was lost, so uses of the
    /// variable report nothing more.
    pub fn bind_untyped(&mut self, name: impl Into<Symbol>) {
        self.vars.push((name.into(), None));
    }

    /// Looks up a variable: `None` if it is unbound, `Some(None)` if it
    /// is bound with an unknown type ([`Env::bind_untyped`]).
    pub fn lookup_var(&self, name: impl Into<Symbol>) -> Option<Option<&SType>> {
        let sym = name.into();
        self.vars
            .iter()
            .rev()
            .find(|(n, _)| *n == sym)
            .map(|(_, t)| t.as_ref())
    }

    // ---------------------------------------------------------------- owners

    /// Declares an owner with its kind.
    pub fn declare_owner(&mut self, o: Owner, k: Kind) {
        self.owner_kinds.push((o, k));
        self.invalidate_cache();
    }

    /// Whether `name` is an in-scope region name.
    pub fn is_region_name(&self, name: impl Into<Symbol>) -> bool {
        let sym = name.into();
        self.owner_kinds
            .iter()
            .any(|(o, _)| matches!(o, Owner::Region(n) if *n == sym))
    }

    /// Whether `name` is a declared owner (formal or region).
    pub fn is_declared_owner_name(&self, name: impl Into<Symbol>) -> bool {
        self.is_declared_owner(name.into())
    }

    /// [`Self::is_declared_owner_name`] for an already-interned name.
    pub fn is_declared_owner(&self, sym: Symbol) -> bool {
        self.owner_kinds.iter().any(|(o, _)| match o {
            Owner::Region(n) | Owner::Formal(n) => *n == sym,
            _ => false,
        })
    }

    /// The declared kind of an owner (`E ⊢ₖ o : k`). `this` has kind
    /// `ObjOwner` when a `this` type is in scope.
    pub fn kind_of(&self, o: &Owner) -> Option<Kind> {
        match o {
            Owner::This => self.this_kind.clone(),
            Owner::Rt => None,
            _ => self
                .owner_kinds
                .iter()
                .rev()
                .find(|(d, _)| d == o)
                .map(|(_, k)| k.clone()),
        }
    }

    /// All in-scope owners of region kind (`Regions(E)`), including `heap`
    /// and `immortal`.
    pub fn regions(&self) -> Vec<Owner> {
        self.owner_kinds
            .iter()
            .filter(|(_, k)| k.is_region_kind())
            .map(|(o, _)| *o)
            .collect()
    }

    /// Sets the type of `this` to `cn<owners>`, recording that the first
    /// owner owns `this` and that every owner outlives the first.
    pub fn set_this(&mut self, class: impl Into<Symbol>, owners: Vec<Owner>) {
        if let Some(first) = owners.first() {
            self.owns_facts.push((*first, Owner::This));
            for o in owners.iter().skip(1) {
                self.outlives_facts.push((*o, *first));
            }
        }
        self.this_type = Some((class.into(), owners));
        self.this_kind = Some(Kind::ObjOwner);
        self.invalidate_cache();
    }

    /// Sets `this` to denote a *region* of the given kind (used when
    /// checking `regionKind` declarations, where `this` is the region
    /// itself and every formal outlives it).
    pub fn set_this_region(&mut self, kind: Kind, formal_owners: &[Owner]) {
        for f in formal_owners {
            self.outlives_facts.push((*f, Owner::This));
        }
        self.this_kind = Some(kind);
        self.invalidate_cache();
    }

    /// The type of `this`, if in a method context.
    pub fn this_type(&self) -> Option<(Symbol, &[Owner])> {
        self.this_type.as_ref().map(|(c, os)| (*c, os.as_slice()))
    }

    // ----------------------------------------------------------------- facts

    /// Records `o1 ≽ₒ o2` (o1 owns o2).
    pub fn add_owns(&mut self, o1: Owner, o2: Owner) {
        self.owns_facts.push((o1, o2));
        self.invalidate_cache();
    }

    /// Records `o1 ≽ o2` (o1 outlives o2).
    pub fn add_outlives(&mut self, o1: Owner, o2: Owner) {
        self.outlives_facts.push((o1, o2));
        self.invalidate_cache();
    }

    /// Records that a handle for region `r` is directly available.
    pub fn add_handle(&mut self, r: Owner) {
        self.handle_regions.push(r);
        self.invalidate_cache();
    }

    // --------------------------------------------------------------- queries

    /// `E ⊢ o1 ≽ₒ o2`: o1 transitively owns o2 (reflexive). Memoized.
    pub fn owns(&self, o1: &Owner, o2: &Owner) -> bool {
        if o1 == o2 {
            return true;
        }
        let key = (*o1, *o2);
        {
            let mut c = self.cache.borrow_mut();
            if let Some(&v) = c.owns.get(&key) {
                c.counters.ownership.hits += 1;
                return v;
            }
            c.counters.ownership.misses += 1;
        }
        let v = self.deduce(o1, o2, false).1.is_some();
        self.cache.borrow_mut().owns.insert(key, v);
        v
    }

    /// `E ⊢ o1 ≽ o2`: o1 outlives o2 (reflexive, transitive, includes
    /// `≽ₒ`, and `heap`/`immortal` outlive all regions and each other).
    /// Memoized.
    pub fn outlives(&self, o1: &Owner, o2: &Owner) -> bool {
        if o1 == o2 {
            return true;
        }
        let key = (*o1, *o2);
        {
            let mut c = self.cache.borrow_mut();
            if let Some(&v) = c.outlives.get(&key) {
                c.counters.outlives.hits += 1;
                return v;
            }
            c.counters.outlives.misses += 1;
        }
        let v = self.deduce(o1, o2, true).1.is_some();
        self.cache.borrow_mut().outlives.insert(key, v);
        v
    }

    /// `E ⊢ X ⊇ Y`: every owner in `needed` is outlived by some owner in
    /// `allowed`; the `RT` pseudo-effect must be present verbatim.
    pub fn effects_subsume(&self, allowed: &Effects, needed: &Effects) -> bool {
        needed.iter().all(|o| self.effect_covered(allowed, o))
    }

    /// Whether a single effect `o` is covered by `allowed`.
    ///
    /// Two effects are special: `RT` must be present verbatim, and the
    /// `heap` effect is only covered by `heap` itself. (In the outlives
    /// relation `immortal ≽ heap` — that is what makes Figure 5's
    /// `TStack<immortal, heap>` legal — but letting `immortal` *cover* the
    /// heap effect would let real-time threads reach heap-effect methods,
    /// defeating the `RT fork` rule's guarantee that the spawned method's
    /// effects "do not contain the heap region".)
    pub fn effect_covered(&self, allowed: &Effects, o: &Owner) -> bool {
        if *o == Owner::Rt {
            return allowed.contains(&Owner::Rt);
        }
        if *o == Owner::Heap {
            return allowed.contains(&Owner::Heap);
        }
        allowed
            .iter()
            .filter(|g| **g != Owner::Rt)
            .any(|g| self.outlives(g, o))
    }

    /// `E ⊢ av RH(o)`: the handle of the region `o` stands for (or is
    /// allocated in) is available. Handles are available for `heap`,
    /// `immortal`, `this`, every region with an in-scope handle value, and
    /// anything connected to one of those through the ownership relation.
    pub fn handle_available(&self, o: &Owner) -> bool {
        {
            let mut c = self.cache.borrow_mut();
            if let Some(set) = &c.handle_avail {
                let v = set.contains(o);
                c.counters.handle.hits += 1;
                return v;
            }
            c.counters.handle.misses += 1;
        }
        let mut avail: HashSet<Owner> = self.handle_regions.iter().copied().collect();
        avail.insert(Owner::Heap);
        avail.insert(Owner::Immortal);
        if self.this_type.is_some() {
            avail.insert(Owner::This);
        }
        // Propagate along owns edges (in both directions) to a fixpoint:
        // an object lives in the same region as its owner.
        loop {
            let mut changed = false;
            for (a, b) in &self.owns_facts {
                let ina = avail.contains(a);
                let inb = avail.contains(b);
                if ina != inb {
                    avail.insert(if ina { *b } else { *a });
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        let v = avail.contains(o);
        self.cache.borrow_mut().handle_avail = Some(avail);
        v
    }

    // ---------------------------------------------------------- explanation
    //
    // The premise chains `--explain` prints, read off the search tree of
    // the deduction that decided the judgment ([`Env::deduce`]). The
    // search scans the append-only fact vectors in insertion order (never
    // a hash container), so the text is identical run to run and across
    // `--jobs`, as the byte-identical-diagnostics contract requires.

    /// Derivation notes for `o1 ≽ o2` (outlives). If the judgment holds,
    /// the notes list the fact chain that proves it; if it fails, they
    /// report how far the search got, and — when the *reverse* direction
    /// holds — its derivation, which is usually the actual explanation
    /// (the region was created inside the other).
    pub fn explain_outlives(&self, o1: &Owner, o2: &Owner) -> Vec<String> {
        self.explain_order(o1, o2, true)
    }

    /// Derivation notes for `o1 ≽ₒ o2` (ownership), like
    /// [`Env::explain_outlives`].
    pub fn explain_owns(&self, o1: &Owner, o2: &Owner) -> Vec<String> {
        self.explain_order(o1, o2, false)
    }

    fn explain_order(&self, o1: &Owner, o2: &Owner, outlives: bool) -> Vec<String> {
        let rel = if outlives { "≽" } else { "≽ₒ" };
        let mut notes = Vec::new();
        if o1 == o2 {
            notes.push(format!("`{o1} {rel} {o2}` holds by reflexivity"));
            return notes;
        }
        match self.deduce(o1, o2, outlives) {
            (tree, Some(found)) => {
                let edges = derivation(&tree, found);
                notes.push(format!("deriving `{o1} {rel} {o2}`:"));
                for (a, b, label) in &edges {
                    notes.push(format!("`{a} {rel} {b}` — {label}"));
                }
                if edges.len() > 1 {
                    notes.push(format!("`{o1} {rel} {o2}` follows by transitivity"));
                }
            }
            (tree, None) => {
                let reached: Vec<String> = tree.iter().map(|(o, ..)| format!("`{o}`")).collect();
                notes.push(format!(
                    "`{o1} {rel} {o2}` does not hold: from `{o1}` the deduction reached \
                     only {{{}}}, and no recorded fact extends the chain to `{o2}`",
                    reached.join(", ")
                ));
                if outlives {
                    if let (tree, Some(found)) = self.deduce(o2, o1, true) {
                        notes.push(format!("the reverse direction `{o2} ≽ {o1}` does hold:"));
                        for (a, b, label) in &derivation(&tree, found) {
                            notes.push(format!("`{a} ≽ {b}` — {label}"));
                        }
                        notes.push(format!(
                            "so `{o1}` has the strictly shorter lifetime: an object it owns \
                             would dangle"
                        ));
                    }
                }
            }
        }
        notes
    }

    /// Derivation notes for effect coverage: why `o` is (not) covered by
    /// the permitted effects `allowed`, one note per attempted premise.
    pub fn explain_effect_covered(&self, allowed: &Effects, o: &Owner) -> Vec<String> {
        let mut notes = Vec::new();
        if *o == Owner::Rt {
            notes.push(
                "the `RT` pseudo-effect is only covered when `RT` appears verbatim \
                 in the `accesses` clause"
                    .to_string(),
            );
            return notes;
        }
        if *o == Owner::Heap {
            notes.push(
                "the `heap` effect is only covered by `heap` itself — `immortal ≽ heap`, \
                 but letting it cover the heap would let real-time threads reach \
                 heap-effect methods"
                    .to_string(),
            );
            return notes;
        }
        if allowed.is_empty() {
            notes.push("the permitted effect set is empty".to_string());
            return notes;
        }
        for g in allowed.iter().filter(|g| **g != Owner::Rt) {
            if self.outlives(g, o) {
                notes.push(format!("covered: `{g} ≽ {o}` holds"));
                notes.extend(self.explain_outlives(g, o));
                return notes;
            }
            notes.push(format!(
                "tried permitted owner `{g}`: `{g} ≽ {o}` does not hold"
            ));
        }
        notes.push(format!("no owner in the permitted effects outlives `{o}`"));
        notes
    }

    /// The deduction of `o1 ≽ o2` (`outlives`) or `o1 ≽ₒ o2`: a
    /// breadth-first search from `o1` along the facts in scope, closed
    /// under the rules of Figures 1–2. Returns the search tree and, when
    /// the search reaches `o2`, its index in the tree. The judgments
    /// decide by it and `--explain` reads its derivation off the same
    /// tree.
    fn deduce(&self, o1: &Owner, o2: &Owner, outlives: bool) -> (SearchTree, Option<usize>) {
        // `visited` doubles as the FIFO queue and the search tree.
        let mut visited: SearchTree = vec![(*o1, usize::MAX, "")];
        let mut i = 0;
        while i < visited.len() {
            let cur = visited[i].0;
            if cur == *o2 {
                return (visited, Some(i));
            }
            if outlives {
                if cur.is_everlasting() {
                    const R1: &str = "property R1 (`heap` and `immortal` outlive every region)";
                    if o2.is_everlasting() {
                        push_reach(&mut visited, i, *o2, R1);
                    }
                    for (g, k) in &self.owner_kinds {
                        if k.is_region_kind() {
                            push_reach(&mut visited, i, *g, R1);
                        }
                    }
                }
                for (a, b) in &self.outlives_facts {
                    if *a == cur {
                        push_reach(&mut visited, i, *b, "outlives fact in scope");
                    }
                }
                for (a, b) in &self.owns_facts {
                    if *a == cur {
                        push_reach(&mut visited, i, *b, "ownership fact (`≽ₒ` implies `≽`)");
                    }
                }
            } else {
                for (a, b) in &self.owns_facts {
                    if *a == cur {
                        push_reach(&mut visited, i, *b, "ownership fact in scope");
                    }
                }
            }
            i += 1;
        }
        (visited, None)
    }

    /// `P ⊢ k1 ≤ₖ k2`: the subkinding judgment, memoized. A thin caching
    /// wrapper over [`crate::kind::is_subkind`]; the memo is keyed on the
    /// kind pair and never invalidated, because subkinding depends only
    /// on the program's region-kind hierarchy (one `kinds` lookup per
    /// run), never on this environment's facts.
    pub fn subkind(&self, kinds: &dyn RegionKindLookup, k1: &Kind, k2: &Kind) -> bool {
        {
            let mut c = self.cache.borrow_mut();
            if let Some(&v) = c.subkind.get(&(k1.clone(), k2.clone())) {
                c.counters.subkind.hits += 1;
                return v;
            }
            c.counters.subkind.misses += 1;
        }
        let v = is_subkind(kinds, k1, k2);
        self.cache
            .borrow_mut()
            .subkind
            .insert((k1.clone(), k2.clone()), v);
        v
    }

    /// `E ⊢ RKind(o) = k`: the kind of the region that `o` stands for (if a
    /// region) or is allocated in (if an object, by walking up `≽ₒ`).
    pub fn rkind_of(&self, kinds: &dyn RegionKindLookup, o: &Owner) -> Option<Kind> {
        {
            let mut c = self.cache.borrow_mut();
            if let Some(v) = c.rkind.get(o) {
                let v = v.clone();
                c.counters.rkind.hits += 1;
                return v;
            }
            c.counters.rkind.misses += 1;
        }
        let v = self.rkind_inner(kinds, o, &mut HashSet::new());
        self.cache.borrow_mut().rkind.insert(*o, v.clone());
        v
    }

    fn rkind_inner(
        &self,
        kinds: &dyn RegionKindLookup,
        o: &Owner,
        visited: &mut HashSet<Owner>,
    ) -> Option<Kind> {
        if !visited.insert(*o) {
            return None;
        }
        match o {
            Owner::Heap => return Some(Kind::GcRegion),
            Owner::Immortal => return Some(Kind::SharedRegion.with_lt()),
            Owner::Rt => return None,
            Owner::This => {
                if let Some(k) = &self.this_kind {
                    if k.is_region_kind() {
                        return Some(k.clone());
                    }
                }
                if let Some((_, owners)) = &self.this_type {
                    if let Some(first) = owners.first() {
                        return self.rkind_inner(kinds, first, visited);
                    }
                }
                return None;
            }
            _ => {}
        }
        if let Some(k) = self.kind_of(o) {
            if k.is_region_kind() {
                return Some(k);
            }
        }
        // An object is allocated in the same region as its owner: find any
        // owner of `o` with a known region kind.
        for (a, b) in &self.owns_facts {
            if b == o && a != o {
                if let Some(k) = self.rkind_inner(kinds, a, visited) {
                    return Some(k);
                }
            }
        }
        let _ = kinds;
        None
    }
}

/// A deduction's search tree, in discovery order: each owner reached,
/// the index of the owner it was reached from (`usize::MAX` at the
/// root), and the rule that reached it.
type SearchTree = Vec<(Owner, usize, &'static str)>;

/// The edge chain from the root of `tree` to `tree[to]`, each edge
/// labelled with the rule that justified it.
fn derivation(tree: &SearchTree, to: usize) -> Vec<(Owner, Owner, &'static str)> {
    let mut edges = Vec::new();
    let mut idx = to;
    while tree[idx].1 != usize::MAX {
        let (o, p, label) = tree[idx];
        edges.push((tree[p].0, o, label));
        idx = p;
    }
    edges.reverse();
    edges
}

/// Queues `next` (discovered from `visited[from]` by `label`) unless it
/// was already reached.
fn push_reach(visited: &mut SearchTree, from: usize, next: Owner, label: &'static str) {
    if !visited.iter().any(|(o, _, _)| *o == next) {
        visited.push((next, from, label));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kind::NoUserKinds;

    fn r(n: &str) -> Owner {
        Owner::Region(n.into())
    }

    fn f(n: &str) -> Owner {
        Owner::Formal(n.into())
    }

    #[test]
    fn outlives_is_preorder_with_facts() {
        let mut e = Env::base();
        e.declare_owner(r("r1"), Kind::LocalRegion);
        e.declare_owner(r("r2"), Kind::LocalRegion);
        e.add_outlives(r("r1"), r("r2"));
        assert!(e.outlives(&r("r1"), &r("r2")));
        assert!(!e.outlives(&r("r2"), &r("r1")));
        assert!(e.outlives(&r("r1"), &r("r1")), "reflexive");
        // heap and immortal outlive all regions (R1).
        assert!(e.outlives(&Owner::Heap, &r("r2")));
        assert!(e.outlives(&Owner::Immortal, &r("r1")));
        assert!(e.outlives(&Owner::Heap, &Owner::Immortal));
        assert!(e.outlives(&Owner::Immortal, &Owner::Heap));
        // Regions do not outlive heap.
        assert!(!e.outlives(&r("r1"), &Owner::Heap));
    }

    #[test]
    fn outlives_transitivity() {
        let mut e = Env::base();
        for n in ["a", "b", "c"] {
            e.declare_owner(r(n), Kind::LocalRegion);
        }
        e.add_outlives(r("a"), r("b"));
        e.add_outlives(r("b"), r("c"));
        assert!(e.outlives(&r("a"), &r("c")));
        assert!(!e.outlives(&r("c"), &r("a")));
    }

    #[test]
    fn owns_implies_outlives() {
        let mut e = Env::base();
        e.set_this("TStack", vec![f("stackOwner"), f("TOwner")]);
        // stackOwner ≽ₒ this (first owner owns the object).
        assert!(e.owns(&f("stackOwner"), &Owner::This));
        assert!(e.outlives(&f("stackOwner"), &Owner::This));
        // TOwner ≽ stackOwner (all owners outlive the first).
        assert!(e.outlives(&f("TOwner"), &f("stackOwner")));
        assert!(e.outlives(&f("TOwner"), &Owner::This), "via transitivity");
        assert!(!e.owns(&f("TOwner"), &Owner::This));
    }

    #[test]
    fn effects_subsumption() {
        let mut e = Env::base();
        e.declare_owner(r("r1"), Kind::LocalRegion);
        e.set_this("C", vec![f("o")]);
        let allowed: Effects = [f("o"), r("r1")].into_iter().collect();
        let needed: Effects = [Owner::This].into_iter().collect();
        // o ≽ₒ this ⇒ o ≽ this ⇒ X ⊇ {this}.
        assert!(e.effects_subsume(&allowed, &needed));
        let needed_heap: Effects = [Owner::Heap].into_iter().collect();
        assert!(!e.effects_subsume(&allowed, &needed_heap));
        // RT must be present verbatim.
        let needed_rt: Effects = [Owner::Rt].into_iter().collect();
        assert!(!e.effects_subsume(&allowed, &needed_rt));
        let mut allowed_rt = allowed.clone();
        allowed_rt.insert(Owner::Rt);
        assert!(e.effects_subsume(&allowed_rt, &needed_rt));
        // RT never covers a region effect.
        let only_rt: Effects = [Owner::Rt].into_iter().collect();
        let need_r1: Effects = [r("r1")].into_iter().collect();
        assert!(!e.effects_subsume(&only_rt, &need_r1));
    }

    #[test]
    fn handle_availability() {
        let mut e = Env::base();
        e.declare_owner(r("r1"), Kind::LocalRegion);
        // No handle for r1 yet.
        assert!(!e.handle_available(&r("r1")));
        assert!(e.handle_available(&Owner::Heap));
        assert!(e.handle_available(&Owner::Immortal));
        e.bind_var("h1", SType::Handle(r("r1")));
        assert!(e.handle_available(&r("r1")));
        // this is available once a this-type is set, and availability
        // propagates down the ownership relation.
        e.set_this("C", vec![f("o")]);
        assert!(e.handle_available(&Owner::This));
        assert!(
            e.handle_available(&f("o")),
            "o owns this, so o's region handle is obtainable from this"
        );
    }

    #[test]
    fn rkind_walks_ownership() {
        let mut e = Env::base();
        e.declare_owner(r("r1"), Kind::SharedRegion.with_lt());
        e.set_this("C", vec![r("r1")]);
        assert_eq!(
            e.rkind_of(&NoUserKinds, &Owner::This),
            Some(Kind::SharedRegion.with_lt())
        );
        assert_eq!(e.rkind_of(&NoUserKinds, &Owner::Heap), Some(Kind::GcRegion));
        assert_eq!(
            e.rkind_of(&NoUserKinds, &Owner::Immortal),
            Some(Kind::SharedRegion.with_lt())
        );
        // A formal with no ownership facts has no known region kind.
        e.declare_owner(f("x"), Kind::Owner);
        assert_eq!(e.rkind_of(&NoUserKinds, &f("x")), None);
        // But one owned by a region does.
        e.add_owns(r("r1"), f("x"));
        assert_eq!(
            e.rkind_of(&NoUserKinds, &f("x")),
            Some(Kind::SharedRegion.with_lt())
        );
    }

    #[test]
    fn scope_truncation_restores_facts() {
        let mut e = Env::base();
        e.declare_owner(r("r1"), Kind::LocalRegion);
        let m = e.mark();
        e.declare_owner(r("r2"), Kind::LocalRegion);
        e.add_outlives(r("r2"), r("r1"));
        e.bind_var("x", SType::Int);
        assert!(e.outlives(&r("r2"), &r("r1")));
        assert!(e.lookup_var("x").is_some());
        e.truncate_to(m);
        assert!(e.lookup_var("x").is_none());
        assert!(!e.outlives(&r("r2"), &r("r1")), "fact must roll back");
        assert!(e.is_region_name("r1"));
        assert!(!e.is_region_name("r2"));
    }

    #[test]
    fn memoized_queries_track_fact_mutations() {
        let mut e = Env::base();
        e.declare_owner(r("a"), Kind::LocalRegion);
        e.declare_owner(r("b"), Kind::LocalRegion);
        assert!(!e.outlives(&r("a"), &r("b")));
        // Repeat query hits the cache.
        assert!(!e.outlives(&r("a"), &r("b")));
        let (hits, _) = e.cache_counters();
        assert!(hits >= 1, "second identical query must hit the cache");
        // New fact invalidates, and the fresh answer is correct.
        e.add_outlives(r("a"), r("b"));
        assert!(e.outlives(&r("a"), &r("b")));
        // Handle availability is also invalidated by new handles.
        assert!(!e.handle_available(&r("a")));
        e.bind_var("h", SType::Handle(r("a")));
        assert!(e.handle_available(&r("a")));
    }

    #[test]
    fn var_shadowing() {
        let mut e = Env::base();
        e.bind_var("x", SType::Int);
        e.bind_var("x", SType::Bool);
        assert_eq!(e.lookup_var("x"), Some(Some(&SType::Bool)));
        assert_eq!(e.lookup_var("y"), None);
    }

    #[test]
    fn regions_in_scope() {
        let mut e = Env::base();
        e.declare_owner(r("r1"), Kind::LocalRegion);
        e.declare_owner(f("obj"), Kind::ObjOwner);
        e.declare_owner(f("rgn"), Kind::Region);
        let rs = e.regions();
        assert!(rs.contains(&Owner::Heap));
        assert!(rs.contains(&Owner::Immortal));
        assert!(rs.contains(&r("r1")));
        assert!(rs.contains(&f("rgn")), "region-kinded formals are regions");
        assert!(!rs.contains(&f("obj")));
    }
}
