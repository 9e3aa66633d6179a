//! Resolved owners.
//!
//! An [`Owner`] is the checker's internal, span-free form of the surface
//! [`OwnerRef`]: a class or method formal, a
//! lexically scoped region name, `this`, or one of the built-in owners.

use rtj_lang::ast::{Ident, OwnerRef};
use rtj_lang::intern::Symbol;
use rtj_lang::span::Span;
use std::fmt;

/// A resolved owner (the `o` of the paper's grammar).
///
/// Names are interned [`Symbol`]s, so owners are `Copy` and compare/hash
/// in O(1). Ordering follows string content (via `Symbol`'s `Ord`), so
/// `BTreeSet<Owner>` iteration is deterministic regardless of intern
/// order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Owner {
    /// A class or method formal owner parameter.
    Formal(Symbol),
    /// An in-scope region name.
    Region(Symbol),
    /// The current object.
    This,
    /// The most recent region created before the current method was called.
    InitialRegion,
    /// The garbage-collected heap region.
    Heap,
    /// The immortal region.
    Immortal,
    /// The `RT` pseudo-effect (only meaningful inside effects clauses).
    Rt,
}

impl Owner {
    /// Converts a surface owner reference, using `is_region` to distinguish
    /// in-scope region names from formal parameters.
    pub fn resolve(r: &OwnerRef, is_region: impl Fn(Symbol) -> bool) -> Owner {
        match r {
            OwnerRef::Name(id) if is_region(id.name) => Owner::Region(id.name),
            OwnerRef::Name(id) => Owner::Formal(id.name),
            OwnerRef::This(_) => Owner::This,
            OwnerRef::InitialRegion(_) => Owner::InitialRegion,
            OwnerRef::Heap(_) => Owner::Heap,
            OwnerRef::Immortal(_) => Owner::Immortal,
            OwnerRef::Rt(_) => Owner::Rt,
        }
    }

    /// Converts back to a surface owner reference (with a dummy span), used
    /// when the checker elaborates inferred owners into the AST.
    pub fn to_ref(&self) -> OwnerRef {
        match self {
            Owner::Formal(n) | Owner::Region(n) => {
                OwnerRef::Name(Ident::synthetic(n.as_str().to_owned()))
            }
            Owner::This => OwnerRef::This(Span::DUMMY),
            Owner::InitialRegion => OwnerRef::InitialRegion(Span::DUMMY),
            Owner::Heap => OwnerRef::Heap(Span::DUMMY),
            Owner::Immortal => OwnerRef::Immortal(Span::DUMMY),
            Owner::Rt => OwnerRef::Rt(Span::DUMMY),
        }
    }

    /// Whether this owner is one of the two built-in everlasting regions.
    pub fn is_everlasting(&self) -> bool {
        matches!(self, Owner::Heap | Owner::Immortal)
    }
}

impl fmt::Display for Owner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Owner::Formal(n) | Owner::Region(n) => f.write_str(n.as_str()),
            Owner::This => f.write_str("this"),
            Owner::InitialRegion => f.write_str("initialRegion"),
            Owner::Heap => f.write_str("heap"),
            Owner::Immortal => f.write_str("immortal"),
            Owner::Rt => f.write_str("RT"),
        }
    }
}

/// Pairs a [`Subst`] keeps inline: one per formal of nearly every class,
/// region kind and method, so building a substitution allocates nothing.
const INLINE_PAIRS: usize = 4;

/// A substitution from formal owner names to owners, plus optional
/// replacements for `this` and `initialRegion`.
///
/// Renaming (the paper's `Rename(·)`) is `subst ∪ {rcr/initialRegion}`,
/// and field/portal accesses substitute the receiver (or the region) for
/// `this`. The first four pairs are kept inline, so the substitutions
/// every lookup builds and drops cost no allocation.
#[derive(Debug, Clone, Default)]
pub struct Subst {
    inline: [Option<(Symbol, Owner)>; INLINE_PAIRS],
    /// Pairs past the inline ones, in order.
    more: Vec<(Symbol, Owner)>,
    /// Replacement for the literal owner `this`, if any.
    pub this_to: Option<Owner>,
    /// Replacement for `initialRegion`, if any.
    pub initial_to: Option<Owner>,
}

impl Subst {
    /// The empty substitution.
    pub fn new() -> Self {
        Subst::default()
    }

    /// Builds a substitution mapping each formal name to the matching owner.
    ///
    /// # Panics
    ///
    /// Panics if the two slices have different lengths (callers check arity
    /// first and report a proper type error).
    pub fn from_formals(formals: &[Symbol], owners: &[Owner]) -> Self {
        assert_eq!(formals.len(), owners.len(), "substitution arity mismatch");
        let mut s = Subst::new();
        for (f, o) in formals.iter().zip(owners) {
            s.push(*f, *o);
        }
        s
    }

    /// Adds a formal↦owner pair.
    pub fn push(&mut self, formal: impl Into<Symbol>, owner: Owner) {
        let pair = (formal.into(), owner);
        match self.inline.iter_mut().find(|p| p.is_none()) {
            Some(slot) => *slot = Some(pair),
            None => self.more.push(pair),
        }
    }

    /// Sets the replacement for `this`.
    pub fn with_this(mut self, o: Owner) -> Self {
        self.this_to = Some(o);
        self
    }

    /// Sets the replacement for `initialRegion`.
    pub fn with_initial(mut self, o: Owner) -> Self {
        self.initial_to = Some(o);
        self
    }

    /// Applies the substitution to one owner. The first pair for a
    /// formal wins.
    pub fn apply(&self, o: &Owner) -> Owner {
        match o {
            Owner::Formal(n) => {
                let pairs = self.inline.iter().map_while(Option::as_ref);
                pairs
                    .chain(&self.more)
                    .find(|(f, _)| f == n)
                    .map_or(*o, |(_, to)| *to)
            }
            Owner::This => self.this_to.unwrap_or(Owner::This),
            Owner::InitialRegion => self.initial_to.unwrap_or(Owner::InitialRegion),
            _ => *o,
        }
    }

    /// Applies the substitution to a list of owners.
    pub fn apply_all(&self, os: &[Owner]) -> Vec<Owner> {
        os.iter().map(|o| self.apply(o)).collect()
    }

    /// Resolves a surface owner of a declaration, where every name is a
    /// formal, and applies the substitution to it.
    pub(crate) fn resolve(&self, r: &OwnerRef) -> Owner {
        self.apply(&Owner::resolve(r, |_| false))
    }
}

/// Owners kept inline up to [`INLINE_OWNERS`] and on the heap past that:
/// the owner arguments of one class on a class chain, which a lookup
/// reads and drops.
#[derive(Debug, Clone)]
pub(crate) enum OwnerBuf {
    /// The first `len` owners of the array are the list.
    Inline(u8, [Owner; INLINE_OWNERS]),
    /// A list longer than [`INLINE_OWNERS`].
    Heap(Vec<Owner>),
}

/// Owners an [`OwnerBuf`] keeps inline, as many as [`Subst`] keeps pairs.
const INLINE_OWNERS: usize = INLINE_PAIRS;

impl std::ops::Deref for OwnerBuf {
    type Target = [Owner];

    fn deref(&self) -> &[Owner] {
        match self {
            OwnerBuf::Inline(len, owners) => &owners[..usize::from(*len)],
            OwnerBuf::Heap(owners) => owners,
        }
    }
}

impl FromIterator<Owner> for OwnerBuf {
    fn from_iter<I: IntoIterator<Item = Owner>>(iter: I) -> Self {
        // `Heap` fills the unused slots; they are never read.
        let mut buf = OwnerBuf::Inline(0, [Owner::Heap; INLINE_OWNERS]);
        for o in iter {
            match &mut buf {
                OwnerBuf::Inline(len, owners) if usize::from(*len) < INLINE_OWNERS => {
                    owners[usize::from(*len)] = o;
                    *len += 1;
                }
                OwnerBuf::Inline(_, owners) => {
                    let mut spilled = owners.to_vec();
                    spilled.push(o);
                    buf = OwnerBuf::Heap(spilled);
                }
                OwnerBuf::Heap(owners) => owners.push(o),
            }
        }
        buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_distinguishes_regions_from_formals() {
        let r = OwnerRef::Name(Ident::synthetic("r1"));
        assert_eq!(
            Owner::resolve(&r, |n| n == "r1"),
            Owner::Region("r1".into())
        );
        assert_eq!(Owner::resolve(&r, |_| false), Owner::Formal("r1".into()));
    }

    #[test]
    fn subst_applies_formals_and_specials() {
        let mut s = Subst::new().with_this(Owner::Region("r".into()));
        s.push("a", Owner::Heap);
        assert_eq!(s.apply(&Owner::Formal("a".into())), Owner::Heap);
        assert_eq!(
            s.apply(&Owner::Formal("b".into())),
            Owner::Formal("b".into())
        );
        assert_eq!(s.apply(&Owner::This), Owner::Region("r".into()));
        assert_eq!(s.apply(&Owner::InitialRegion), Owner::InitialRegion);
        let s2 = Subst::new().with_initial(Owner::Heap);
        assert_eq!(s2.apply(&Owner::InitialRegion), Owner::Heap);
        assert_eq!(s2.apply(&Owner::This), Owner::This);
    }

    #[test]
    fn owner_ref_round_trip() {
        for o in [
            Owner::Formal("f".into()),
            Owner::Region("r".into()),
            Owner::This,
            Owner::InitialRegion,
            Owner::Heap,
            Owner::Immortal,
            Owner::Rt,
        ] {
            let back = Owner::resolve(&o.to_ref(), |n| n == "r");
            assert_eq!(back, o);
        }
    }
}
