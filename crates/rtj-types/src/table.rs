//! The program table: indexed class and region-kind declarations with
//! inheritance-aware member lookup and the structural well-formedness
//! predicates of Figure 15 (`WFClasses`, `WFRegionKinds`, `MembersOnce`).
//!
//! `InheritanceOK` (constraint/override compatibility) needs the deduction
//! engine and is checked in [`crate::check`].
//!
//! Each hierarchy has one private walk: `ProgramTable::supertypes` for
//! classes (subtyping, field and method lookup) and a chain over
//! [`RegionKindLookup::super_kind_of`] for region kinds (portal fields
//! and subregions). Neither carries a cycle guard.
//! [`ProgramTable::build`] rejects every cyclic or unknown chain, and the
//! crate-private patch protocol restores the old entries when a patched
//! class breaks a rule, so no table a query sees holds one. Only the
//! rules that establish this invariant guard against cycles.

use crate::error::TypeError;
use crate::kind::{Kind, RegionKindLookup};
use crate::owner::{Owner, Subst};
use crate::stype::SType;
use rtj_lang::ast::{
    Block, ClassDecl, ConstraintRel, KindAnn, MethodDecl, Policy, Program, RegionKindDecl,
    SubregionDecl, ThreadTag, Type,
};
use rtj_lang::intern::Symbol;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// A resolved `where`-clause constraint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SConstraint {
    /// Left operand.
    pub lhs: Owner,
    /// `owns` or `outlives`.
    pub rel: ConstraintRel,
    /// Right operand.
    pub rhs: Owner,
}

impl SConstraint {
    /// Applies an owner substitution to both sides.
    pub fn subst(&self, s: &Subst) -> SConstraint {
        SConstraint {
            lhs: s.apply(&self.lhs),
            rel: self.rel,
            rhs: s.apply(&self.rhs),
        }
    }
}

/// Resolves a surface type to a semantic type. `is_region` distinguishes
/// in-scope region names from formal owner parameters.
pub fn resolve_type(ty: &Type, is_region: &dyn Fn(Symbol) -> bool) -> SType {
    match ty {
        Type::Int(_) => SType::Int,
        Type::Bool(_) => SType::Bool,
        Type::Void(_) => SType::Void,
        Type::Class(ct) => SType::Class {
            name: ct.name.name,
            owners: ct
                .owners
                .iter()
                .map(|o| Owner::resolve(o, is_region))
                .collect(),
        },
        Type::Handle(r, _) => SType::Handle(Owner::resolve(r, is_region)),
    }
}

/// Resolves a surface kind annotation to a semantic kind.
pub fn resolve_kind(k: &KindAnn, is_region: &dyn Fn(Symbol) -> bool) -> Kind {
    match k {
        KindAnn::Owner(_) => Kind::Owner,
        KindAnn::ObjOwner(_) => Kind::ObjOwner,
        KindAnn::Region(_) => Kind::Region,
        KindAnn::GcRegion(_) => Kind::GcRegion,
        KindAnn::NoGcRegion(_) => Kind::NoGcRegion,
        KindAnn::LocalRegion(_) => Kind::LocalRegion,
        KindAnn::SharedRegion(_) => Kind::SharedRegion,
        KindAnn::Named { name, owners } => Kind::Named {
            name: name.name,
            owners: owners
                .iter()
                .map(|o| Owner::resolve(o, is_region))
                .collect(),
        },
        KindAnn::Lt(inner, _) => Kind::Lt(Box::new(resolve_kind(inner, is_region))),
    }
}

fn resolve_constraints(
    cs: &[rtj_lang::ast::Constraint],
    is_region: &dyn Fn(Symbol) -> bool,
) -> Vec<SConstraint> {
    cs.iter()
        .map(|c| SConstraint {
            lhs: Owner::resolve(&c.lhs, is_region),
            rel: c.rel,
            rhs: Owner::resolve(&c.rhs, is_region),
        })
        .collect()
}

/// In declarations, plain owner names are always formals (region names are
/// never in scope at declaration level).
fn no_regions(_: Symbol) -> bool {
    false
}

/// A class with pre-resolved formal kinds and constraints.
#[derive(Debug, Clone)]
pub struct ClassInfo {
    /// The (default-completed) declaration's signature: every member,
    /// with each method body an empty block at the body's span. The
    /// bodies live in the program alone; the typing rules and method
    /// resolution read only headers. Shared (`Arc`), since `ClassInfo`
    /// is cloned on hot checking paths.
    pub decl: Arc<ClassDecl>,
    /// Names of the formal owner parameters (interned).
    pub formal_names: Vec<Symbol>,
    /// Resolved kinds of the formals.
    pub formal_kinds: Vec<Kind>,
    /// Resolved `where` constraints.
    pub constraints: Vec<SConstraint>,
}

impl ClassInfo {
    /// The entry [`ProgramTable::build`] makes for a (default-completed)
    /// class declaration.
    fn of(c: &ClassDecl) -> ClassInfo {
        ClassInfo {
            decl: Arc::new(signature(c)),
            formal_names: c.formals.iter().map(|f| f.name.name).collect(),
            formal_kinds: c
                .formals
                .iter()
                .map(|f| resolve_kind(&f.kind, &no_regions))
                .collect(),
            constraints: resolve_constraints(&c.where_clauses, &no_regions),
        }
    }
}

/// `c` with every method body replaced by an empty block at the body's
/// span: what [`ClassInfo::decl`] holds. Nothing else is dropped, so
/// headers, fields, `extends`, `where` clauses and spans are `c`'s.
pub(crate) fn signature(c: &ClassDecl) -> ClassDecl {
    let methods = c
        .methods
        .iter()
        .map(|m| MethodDecl {
            ret: m.ret.clone(),
            name: m.name,
            formals: m.formals.clone(),
            params: m.params.clone(),
            effects: m.effects.clone(),
            where_clauses: m.where_clauses.clone(),
            body: Block {
                stmts: Vec::new(),
                span: m.body.span,
            },
            span: m.span,
        })
        .collect();
    ClassDecl {
        name: c.name,
        formals: c.formals.clone(),
        extends: c.extends.clone(),
        where_clauses: c.where_clauses.clone(),
        fields: c.fields.clone(),
        methods,
        span: c.span,
    }
}

/// A region kind with pre-resolved formal kinds and constraints.
#[derive(Debug, Clone)]
pub struct RegionKindInfo {
    /// The declaration. Shared (`Arc`), like [`ClassInfo::decl`].
    pub decl: Arc<RegionKindDecl>,
    /// Names of the formal owner parameters (interned).
    pub formal_names: Vec<Symbol>,
    /// Resolved kinds of the formals.
    pub formal_kinds: Vec<Kind>,
    /// Resolved `where` constraints.
    pub constraints: Vec<SConstraint>,
}

/// A method signature as seen from a particular receiver type: the class
/// owner parameters of every class on the inheritance path have been
/// substituted away; the method's own formals remain symbolic.
#[derive(Debug, Clone)]
pub struct MethodSig {
    /// The class that declares the method.
    pub declared_in: Symbol,
    /// Method formal owner parameters (name, kind).
    pub formals: Vec<(Symbol, Kind)>,
    /// Value parameters (name, type).
    pub params: Vec<(Symbol, SType)>,
    /// Return type.
    pub ret: SType,
    /// Effects (`accesses`) clause, with the default applied when omitted:
    /// all class and method owner parameters plus `initialRegion`.
    pub effects: Vec<Owner>,
    /// `where` constraints introduced by the method.
    pub constraints: Vec<SConstraint>,
    /// Whether the *declared* signature mentions the literal owner `this`.
    /// Such methods may only be invoked on a receiver that is literally
    /// `this` (otherwise `this` in the signature would be captured by the
    /// caller's context).
    pub declared_mentions_this: bool,
}

impl MethodSig {
    /// Whether the literal owner `this` occurs anywhere in the signature.
    pub fn mentions_this(&self) -> bool {
        self.params.iter().any(|(_, t)| t.mentions_this())
            || self.ret.mentions_this()
            || self.effects.contains(&Owner::This)
            || self
                .constraints
                .iter()
                .any(|c| c.lhs == Owner::This || c.rhs == Owner::This)
    }

    fn subst(&self, s: &Subst) -> MethodSig {
        MethodSig {
            declared_in: self.declared_in,
            declared_mentions_this: self.declared_mentions_this,
            formals: self.formals.iter().map(|(n, k)| (*n, k.subst(s))).collect(),
            params: self.params.iter().map(|(n, t)| (*n, t.subst(s))).collect(),
            ret: self.ret.subst(s),
            effects: s.apply_all(&self.effects),
            constraints: self.constraints.iter().map(|c| c.subst(s)).collect(),
        }
    }
}

/// A resolved subregion declaration as seen from a parent region instance.
#[derive(Debug, Clone)]
pub struct SubregionInfo {
    /// The subregion's kind (owner arguments substituted; `this` still
    /// denotes the parent region and is substituted by the caller).
    pub kind: Kind,
    /// Allocation policy.
    pub policy: Policy,
    /// RT / NoRT reservation.
    pub thread: ThreadTag,
}

impl SubregionInfo {
    /// The member `sr` as seen through the substitution `s` of its
    /// region kind's formals.
    fn of(sr: &SubregionDecl, s: &Subst) -> SubregionInfo {
        SubregionInfo {
            kind: resolve_kind(&sr.kind, &no_regions).subst(s),
            policy: sr.policy,
            thread: sr.thread,
        }
    }
}

/// Indexed program declarations.
#[derive(Debug, Clone)]
pub struct ProgramTable {
    classes: HashMap<Symbol, ClassInfo>,
    region_kinds: HashMap<Symbol, RegionKindInfo>,
}

impl RegionKindLookup for ProgramTable {
    fn super_kind_of(&self, name: Symbol, owners: &[Owner]) -> Option<Kind> {
        let info = self.region_kinds.get(&name)?;
        if owners.len() != info.formal_names.len() {
            return None;
        }
        let s = Subst::from_formals(&info.formal_names, owners);
        Some(match &info.decl.extends {
            Some(k) => resolve_kind(k, &no_regions).subst(&s),
            None => Kind::SharedRegion,
        })
    }
}

impl ProgramTable {
    /// Builds a table from a program, enforcing `WFClasses`,
    /// `WFRegionKinds` (including subregion finiteness), and `MembersOnce`.
    ///
    /// # Errors
    ///
    /// Returns every structural error found (duplicates, cycles, unknown
    /// superclasses/kinds, arity mismatches on `extends`), sorted by span.
    pub fn build(p: &Program) -> Result<ProgramTable, Vec<TypeError>> {
        let mut errors = Vec::new();
        let mut classes = HashMap::new();
        for c in &p.classes {
            if c.name.name == "Object" {
                errors.push(TypeError::new("class `Object` is built in", c.name.span));
                continue;
            }
            if classes.insert(c.name.name, ClassInfo::of(c)).is_some() {
                errors.push(TypeError::new(
                    format!("class `{}` is defined twice", c.name),
                    c.name.span,
                ));
            }
        }
        let mut region_kinds = HashMap::new();
        for rk in &p.region_kinds {
            if rk.name.name == "SharedRegion" {
                errors.push(TypeError::new(
                    "region kind `SharedRegion` is built in",
                    rk.name.span,
                ));
                continue;
            }
            let formal_names: Vec<Symbol> = rk.formals.iter().map(|f| f.name.name).collect();
            let formal_kinds: Vec<Kind> = rk
                .formals
                .iter()
                .map(|f| resolve_kind(&f.kind, &no_regions))
                .collect();
            let constraints = resolve_constraints(&rk.where_clauses, &no_regions);
            let info = RegionKindInfo {
                decl: Arc::new(rk.clone()),
                formal_names,
                formal_kinds,
                constraints,
            };
            if region_kinds.insert(rk.name.name, info).is_some() {
                errors.push(TypeError::new(
                    format!("region kind `{}` is defined twice", rk.name),
                    rk.name.span,
                ));
            }
        }
        let table = ProgramTable {
            classes,
            region_kinds,
        };
        for info in table.classes.values() {
            table.check_class_structure(info, &mut errors);
        }
        table.check_region_kind_hierarchy(&mut errors);
        table.check_region_kind_members_once(&mut errors);
        table.check_subregion_finiteness(&mut errors);
        sorted(errors).map(|()| table)
    }

    /// Rebuilds the entry of class `decl.name` from `decl` (a
    /// default-completed declaration), exactly as [`ProgramTable::build`]
    /// builds it, and returns the entry it replaced; `None`, with the
    /// table unchanged, if the table holds no such class. No rule is
    /// checked: [`ProgramTable::check_classes`] re-runs `build`'s
    /// per-class rules over whatever the new declaration can affect, and
    /// [`ProgramTable::restore_class`] undoes the patch.
    ///
    /// The incremental checker patches every class it re-parses. When
    /// the class's formal count is unchanged, every other entry is still
    /// what `build` would make of it, since other declarations are
    /// completed with that count.
    ///
    /// Patch, check, restore on an error: this protocol is the only way a
    /// table changes, and it keeps the invariant the chain walks rely on
    /// (no cyclic or unknown chain), so it stays private to the crate.
    pub(crate) fn patch_class(&mut self, decl: &ClassDecl) -> Option<ClassInfo> {
        let info = self.classes.get_mut(&decl.name.name)?;
        Some(std::mem::replace(info, ClassInfo::of(decl)))
    }

    /// Puts back an entry [`ProgramTable::patch_class`] replaced.
    pub(crate) fn restore_class(&mut self, info: ClassInfo) {
        self.classes.insert(info.decl.name.name, info);
    }

    /// Runs [`ProgramTable::build`]'s per-class structural rules (the
    /// class hierarchy and `MembersOnce`) over the classes `names`, and
    /// returns their errors sorted as `build` sorts them. Names the table
    /// holds no class for are skipped.
    ///
    /// # Errors
    ///
    /// Every structural error of the named classes.
    pub(crate) fn check_classes(
        &self,
        names: impl IntoIterator<Item = Symbol>,
    ) -> Result<(), Vec<TypeError>> {
        let mut errors = Vec::new();
        for name in names {
            if let Some(info) = self.classes.get(&name) {
                self.check_class_structure(info, &mut errors);
            }
        }
        sorted(errors)
    }

    /// Looks up a class.
    pub fn class(&self, name: impl Into<Symbol>) -> Option<&ClassInfo> {
        self.classes.get(&name.into())
    }

    /// Number of owner formals of class `name` (one for the built-in
    /// `Object`), or `None` if no such class exists: the counts
    /// [`crate::infer::apply_class_defaults`] completes bare types with.
    pub fn formal_count(&self, name: Symbol) -> Option<usize> {
        if name == "Object" {
            return Some(1);
        }
        self.classes.get(&name).map(|c| c.formal_names.len())
    }

    /// Looks up a region kind.
    pub fn region_kind(&self, name: impl Into<Symbol>) -> Option<&RegionKindInfo> {
        self.region_kinds.get(&name.into())
    }

    /// Iterates over all classes.
    pub fn classes(&self) -> impl Iterator<Item = &ClassInfo> {
        self.classes.values()
    }

    /// Iterates over all region kinds.
    pub fn region_kinds(&self) -> impl Iterator<Item = &RegionKindInfo> {
        self.region_kinds.values()
    }

    /// `name<owners>`'s entry, if the table declares the class and
    /// `owners` has one owner per formal (`Object` has no entry).
    fn class_at(&self, name: Symbol, owners: &[Owner]) -> Option<&ClassInfo> {
        self.classes
            .get(&name)
            .filter(|info| info.formal_names.len() == owners.len())
    }

    /// One step up the class chain: the superclass of `name<owners>` as a
    /// `(class, owner-args)` pair, after substituting `owners` for
    /// `name`'s formals. A class without an `extends` clause extends
    /// `Object<firstFormal>`; `Object` itself has no superclass.
    fn superclass(&self, name: Symbol, owners: &[Owner]) -> Option<(Symbol, Vec<Owner>)> {
        let info = self.class_at(name, owners)?;
        match &info.decl.extends {
            Some(ct) => {
                let s = Subst::from_formals(&info.formal_names, owners);
                let args = ct
                    .owners
                    .iter()
                    .map(|o| s.apply(&Owner::resolve(o, no_regions)))
                    .collect();
                Some((ct.name.name, args))
            }
            None => Some((Symbol::intern("Object"), vec![*owners.first()?])),
        }
    }

    /// The class chain of `class<owners>`: the class itself, then each
    /// superclass up to `Object`, each with its owner arguments. The one
    /// walk of the class hierarchy: subtyping and field and method lookup
    /// are searches over it. It needs no cycle guard, because
    /// [`ProgramTable::build`] rejects every cyclic or unknown chain.
    fn supertypes(
        &self,
        class: impl Into<Symbol>,
        owners: &[Owner],
    ) -> impl Iterator<Item = (Symbol, Vec<Owner>)> + '_ {
        std::iter::successors(Some((class.into(), owners.to_vec())), |(c, os)| {
            self.superclass(*c, os)
        })
    }

    /// `sub<owners>` viewed as an instance of `target`: `target`'s owner
    /// arguments, if `target` is on the class chain of `sub<owners>`.
    pub(crate) fn view_as(
        &self,
        sub: Symbol,
        owners: &[Owner],
        target: Symbol,
    ) -> Option<Vec<Owner>> {
        self.supertypes(sub, owners)
            .find(|(c, _)| *c == target)
            .map(|(_, os)| os)
    }

    /// Semantic subtyping over [`SType`]s: reflexivity, `Null ≤` any class
    /// type, and class subtyping along the superclass chain ([SUBTYPE
    /// CLASS] closed under reflexivity and transitivity).
    pub fn is_subtype(&self, sub: &SType, sup: &SType) -> bool {
        match (sub, sup) {
            _ if sub == sup => true,
            (SType::Null, SType::Class { .. }) => true,
            (
                SType::Class { name, owners },
                SType::Class {
                    name: target,
                    owners: want,
                },
            ) => self.view_as(*name, owners, *target).as_ref() == Some(want),
            _ => false,
        }
    }

    /// Field `field` of an object of type `class<owners>`, found along
    /// the class chain: its declared type, over the declaring class's
    /// formals, and that type with the owner arguments substituted. Any
    /// `this` left in either denotes the *receiver*.
    pub fn field(
        &self,
        class: impl Into<Symbol>,
        owners: &[Owner],
        field: impl Into<Symbol>,
    ) -> Option<(SType, SType)> {
        let field = field.into();
        self.supertypes(class, owners).find_map(|(c, os)| {
            let info = self.class_at(c, &os)?;
            let f = info.decl.fields.iter().find(|f| f.name.name == field)?;
            let declared = resolve_type(&f.ty, &no_regions);
            let ty = declared.subst(&Subst::from_formals(&info.formal_names, &os));
            Some((declared, ty))
        })
    }

    /// All fields (inherited first) of `class<owners>` as
    /// `(name, substituted type)` pairs; used by the interpreter to lay out
    /// objects and by the checker to audit field well-formedness.
    pub fn all_fields(&self, class: impl Into<Symbol>, owners: &[Owner]) -> Vec<(Symbol, SType)> {
        let chain: Vec<_> = self.supertypes(class, owners).collect();
        let mut out = Vec::new();
        for (c, os) in chain.iter().rev() {
            let Some(info) = self.class_at(*c, os) else {
                continue;
            };
            let s = Subst::from_formals(&info.formal_names, os);
            for f in &info.decl.fields {
                out.push((f.name.name, resolve_type(&f.ty, &no_regions).subst(&s)));
            }
        }
        out
    }

    /// The signature of method `method` on a receiver of type
    /// `class<owners>`, searching the inheritance chain; class owner
    /// parameters are substituted away, method formals stay symbolic, and
    /// `this`/`initialRegion` are left for the call rule to substitute.
    pub fn method_sig(
        &self,
        class: impl Into<Symbol>,
        owners: &[Owner],
        method: impl Into<Symbol>,
    ) -> Option<MethodSig> {
        let method = method.into();
        self.supertypes(class, owners).find_map(|(c, os)| {
            let info = self.class_at(c, &os)?;
            let m = info.decl.methods.iter().find(|m| m.name.name == method)?;
            Some(raw_method_sig(c, info, m).subst(&Subst::from_formals(&info.formal_names, &os)))
        })
    }

    /// The region-kind chain of `kind<owners>`: the kind itself, then
    /// each user-declared super kind, each with its entry and the
    /// substitution of its owner arguments for its formals. The one walk
    /// of the region-kind hierarchy, over
    /// [`RegionKindLookup::super_kind_of`]; like
    /// [`ProgramTable::supertypes`] it needs no cycle guard.
    fn kind_chain(
        &self,
        kind: Symbol,
        owners: &[Owner],
    ) -> impl Iterator<Item = (&RegionKindInfo, Subst)> + '_ {
        std::iter::successors(Some((kind, owners.to_vec())), |(k, os)| {
            match self.super_kind_of(*k, os)? {
                Kind::Named { name, owners } => Some((name, owners)),
                _ => None,
            }
        })
        .map_while(|(k, os)| {
            let info = self.region_kinds.get(&k)?;
            (info.formal_names.len() == os.len())
                .then(|| (info, Subst::from_formals(&info.formal_names, &os)))
        })
    }

    /// The subregion member `sub` of a region of kind `kind<owners>`,
    /// searching the region-kind hierarchy. The returned kind's `this`
    /// still denotes the parent region.
    pub fn subregion(
        &self,
        kind: impl Into<Symbol>,
        owners: &[Owner],
        sub: impl Into<Symbol>,
    ) -> Option<SubregionInfo> {
        let sub = sub.into();
        self.kind_chain(kind.into(), owners).find_map(|(info, s)| {
            let sr = info.decl.subregions.iter().find(|sr| sr.name.name == sub)?;
            Some(SubregionInfo::of(sr, &s))
        })
    }

    /// The type of portal field `field` of a region of kind `kind<owners>`,
    /// searching the region-kind hierarchy. Any `this` in the result
    /// denotes the region itself (the caller substitutes the region).
    pub fn portal_type(
        &self,
        kind: impl Into<Symbol>,
        owners: &[Owner],
        field: impl Into<Symbol>,
    ) -> Option<SType> {
        let field = field.into();
        self.kind_chain(kind.into(), owners).find_map(|(info, s)| {
            let f = info.decl.portals.iter().find(|f| f.name.name == field)?;
            Some(resolve_type(&f.ty, &no_regions).subst(&s))
        })
    }

    /// All portal fields (inherited first) of a region kind.
    pub fn all_portals(&self, kind: impl Into<Symbol>, owners: &[Owner]) -> Vec<(Symbol, SType)> {
        let chain: Vec<_> = self.kind_chain(kind.into(), owners).collect();
        let members = chain.iter().rev().flat_map(|(info, s)| {
            let portals = info.decl.portals.iter();
            portals.map(move |f| (f.name.name, resolve_type(&f.ty, &no_regions).subst(s)))
        });
        members.collect()
    }

    /// All subregion members (inherited first) of a region kind, with
    /// `this` in subregion kinds left denoting the parent region.
    pub fn all_subregions(
        &self,
        kind: impl Into<Symbol>,
        owners: &[Owner],
    ) -> Vec<(Symbol, SubregionInfo)> {
        let chain: Vec<_> = self.kind_chain(kind.into(), owners).collect();
        let members = chain.iter().rev().flat_map(|(info, s)| {
            let subregions = info.decl.subregions.iter();
            subregions.map(move |sr| (sr.name.name, SubregionInfo::of(sr, s)))
        });
        members.collect()
    }

    // ------------------------------------------------- structural WF checks

    /// The per-class rules of [`ProgramTable::build`], for one class:
    /// its superclass chain is known and acyclic and its `extends` clause
    /// well-shaped (`WFClasses`), and its members and owner parameters are
    /// declared once (`MembersOnce`). `build` runs them over every class,
    /// [`ProgramTable::check_classes`] over the classes an edit can affect.
    fn check_class_structure(&self, info: &ClassInfo, errors: &mut Vec<TypeError>) {
        let name = info.decl.name.name;
        // Detect unknown superclasses and cycles by walking up with a
        // visited set: the one class walk that needs a cycle guard, since
        // it runs before the table is known to be acyclic.
        let mut seen = HashSet::new();
        seen.insert(name);
        let mut cyclic = false;
        let mut cur = info.decl.extends.as_ref().map(|ct| ct.name.name);
        while let Some(c) = cur {
            if c == "Object" {
                break;
            }
            if !seen.insert(c) {
                errors.push(TypeError::new(
                    format!("cycle in class hierarchy involving `{name}`"),
                    info.decl.name.span,
                ));
                cyclic = true;
                break;
            }
            match self.classes.get(&c) {
                Some(next) => {
                    cur = next.decl.extends.as_ref().map(|ct| ct.name.name);
                }
                None => {
                    errors.push(TypeError::new(
                        format!("unknown superclass `{c}` of `{name}`"),
                        info.decl.name.span,
                    ));
                    break;
                }
            }
        }
        // The superclass's first owner must be the subclass's first
        // formal ([SUBTYPE CLASS] shape): this preserves "first owner
        // owns the object" along the chain.
        if let Some(ct) = &info.decl.extends {
            if ct.name.name != "Object" || !ct.owners.is_empty() {
                let first_formal = info.formal_names.first();
                let ok = match (ct.owners.first(), first_formal) {
                    (Some(rtj_lang::ast::OwnerRef::Name(id)), Some(f)) => *f == id.name,
                    _ => false,
                };
                if !ok {
                    errors.push(TypeError::new(
                        format!(
                            "the first owner of the superclass of `{name}` must be \
                             `{name}`'s first formal owner parameter"
                        ),
                        ct.span,
                    ));
                }
            }
        }
        // Arity of extends.
        if let Some(ct) = &info.decl.extends {
            if let Some(sup) = self.classes.get(&ct.name.name) {
                if sup.formal_names.len() != ct.owners.len() {
                    errors.push(TypeError::new(
                        format!(
                            "superclass `{}` expects {} owner argument(s), found {}",
                            ct.name,
                            sup.formal_names.len(),
                            ct.owners.len()
                        ),
                        ct.span,
                    ));
                }
            } else if ct.name.name == "Object" && ct.owners.len() != 1 {
                errors.push(TypeError::new(
                    "`Object` expects exactly one owner argument",
                    ct.span,
                ));
            }
        }
        if info.decl.formals.is_empty() {
            errors.push(TypeError::new(
                format!(
                    "class `{name}` must declare at least one owner parameter \
                     (the first owner owns the object)"
                ),
                info.decl.name.span,
            ));
        }

        let mut field_names = HashSet::new();
        for f in &info.decl.fields {
            if !field_names.insert(f.name.name) {
                errors.push(TypeError::new(
                    format!("duplicate field `{}`", f.name),
                    f.name.span,
                ));
            }
        }
        let mut method_names = HashSet::new();
        for m in &info.decl.methods {
            if !method_names.insert(m.name.name) {
                errors.push(TypeError::new(
                    format!("duplicate method `{}` (no overloading)", m.name),
                    m.name.span,
                ));
            }
            let mut owner_names: HashSet<Symbol> = info.formal_names.iter().copied().collect();
            for f in &m.formals {
                if !owner_names.insert(f.name.name) {
                    errors.push(TypeError::new(
                        format!(
                            "method owner parameter `{}` shadows another owner parameter",
                            f.name
                        ),
                        f.name.span,
                    ));
                }
            }
        }
        let mut formal_set = HashSet::new();
        for f in &info.formal_names {
            if !formal_set.insert(*f) {
                errors.push(TypeError::new(
                    format!("duplicate owner parameter `{f}`"),
                    info.decl.name.span,
                ));
            }
        }
        // Fields inherited from superclasses must not be redeclared. The
        // rule walks the class chain, so it runs only when the walk above
        // found no cycle.
        if let Some((sup, sup_args)) = info
            .decl
            .extends
            .as_ref()
            .filter(|ct| !cyclic && ct.name.name != "Object")
            .map(|ct| {
                let args: Vec<Owner> = ct
                    .owners
                    .iter()
                    .map(|o| Owner::resolve(o, no_regions))
                    .collect();
                (ct.name.name, args)
            })
        {
            for (fname, _) in self.all_fields(sup, &sup_args) {
                if field_names.contains(&fname) {
                    errors.push(TypeError::new(
                        format!("field `{fname}` is already declared in a superclass"),
                        info.decl.name.span,
                    ));
                }
            }
        }
    }

    fn check_region_kind_hierarchy(&self, errors: &mut Vec<TypeError>) {
        for (name, info) in &self.region_kinds {
            let mut seen = HashSet::new();
            seen.insert(*name);
            let mut cur = info.decl.extends.clone();
            loop {
                match cur {
                    None | Some(KindAnn::SharedRegion(_)) => break,
                    Some(KindAnn::Named { name: n, .. }) => {
                        if !seen.insert(n.name) {
                            errors.push(TypeError::new(
                                format!("cycle in region-kind hierarchy involving `{name}`"),
                                info.decl.name.span,
                            ));
                            break;
                        }
                        match self.region_kinds.get(&n.name) {
                            Some(next) => cur = next.decl.extends.clone(),
                            None => {
                                errors.push(TypeError::new(
                                    format!("unknown super region kind `{n}` of `{name}`"),
                                    n.span,
                                ));
                                break;
                            }
                        }
                    }
                    Some(other) => {
                        errors.push(TypeError::new(
                            format!(
                                "region kinds must extend `SharedRegion` or another \
                                 shared region kind, not `{:?}`",
                                other
                            ),
                            info.decl.name.span,
                        ));
                        break;
                    }
                }
            }
        }
    }

    fn check_region_kind_members_once(&self, errors: &mut Vec<TypeError>) {
        for info in self.region_kinds.values() {
            let mut names = HashSet::new();
            for f in &info.decl.portals {
                if !names.insert(f.name.name) {
                    errors.push(TypeError::new(
                        format!("duplicate portal field `{}`", f.name),
                        f.name.span,
                    ));
                }
            }
            for s in &info.decl.subregions {
                if !names.insert(s.name.name) {
                    errors.push(TypeError::new(
                        format!("duplicate subregion `{}`", s.name),
                        s.name.span,
                    ));
                }
            }
        }
    }

    /// "Our system checks that a region has a finite number of transitive
    /// subregions": the graph kind → subregion kinds must be acyclic.
    fn check_subregion_finiteness(&self, errors: &mut Vec<TypeError>) {
        // Edges over kind *names* (inheritance included).
        let edges: HashMap<Symbol, Vec<Symbol>> = self
            .region_kinds
            .iter()
            .map(|(name, info)| {
                let mut outs = Vec::new();
                for sr in &info.decl.subregions {
                    if let KindAnn::Named { name: n, .. } = &sr.kind {
                        outs.push(n.name);
                    }
                }
                (*name, outs)
            })
            .collect();
        // Inherited subregions also count.
        let parents: HashMap<Symbol, Option<Symbol>> = self
            .region_kinds
            .iter()
            .map(|(name, info)| {
                let p = match &info.decl.extends {
                    Some(KindAnn::Named { name: n, .. }) => Some(n.name),
                    _ => None,
                };
                (*name, p)
            })
            .collect();
        // The parent walk stops at a repeat: a cyclic region-kind
        // hierarchy is reported by `check_region_kind_hierarchy`, and this
        // rule runs in the same `build`.
        let all_subs = |k: Symbol| -> Vec<Symbol> {
            let mut out = Vec::new();
            let mut seen = HashSet::new();
            let mut cur = Some(k);
            while let Some(c) = cur.filter(|c| seen.insert(*c)) {
                if let Some(es) = edges.get(&c) {
                    out.extend(es.iter().copied());
                }
                cur = parents.get(&c).copied().flatten();
            }
            out
        };
        for name in self.region_kinds.keys() {
            // DFS from `name` through subregion edges looking for `name`.
            let mut stack = all_subs(*name);
            let mut seen = HashSet::new();
            while let Some(k) = stack.pop() {
                if k == *name {
                    errors.push(TypeError::new(
                        format!(
                            "region kind `{name}` has an infinite number of transitive \
                             subregions (cycle through subregion declarations)"
                        ),
                        self.region_kinds[name].decl.name.span,
                    ));
                    break;
                }
                if seen.insert(k) {
                    stack.extend(all_subs(k));
                }
            }
        }
    }
}

/// Structural errors in a fixed order. The rules walk hash maps, so the
/// order they find errors in varies run to run; a declaration's own
/// errors are pushed in a fixed order, so a stable sort fixes it, and the
/// message breaks the one tie across declarations (two region kinds that
/// reach the same unknown super kind report it at the same span).
fn sorted(mut errors: Vec<TypeError>) -> Result<(), Vec<TypeError>> {
    if errors.is_empty() {
        return Ok(());
    }
    errors.sort_by(|a, b| a.span.cmp(&b.span).then_with(|| a.message.cmp(&b.message)));
    Err(errors)
}

/// The signature of a method in its declaring class's own formal context.
pub(crate) fn raw_method_sig(class: Symbol, info: &ClassInfo, m: &MethodDecl) -> MethodSig {
    let formals: Vec<(Symbol, Kind)> = m
        .formals
        .iter()
        .map(|f| (f.name.name, resolve_kind(&f.kind, &no_regions)))
        .collect();
    let params: Vec<(Symbol, SType)> = m
        .params
        .iter()
        .map(|p| (p.name.name, resolve_type(&p.ty, &no_regions)))
        .collect();
    let ret = resolve_type(&m.ret, &no_regions);
    let effects = match &m.effects {
        Some(list) => list.iter().map(|o| Owner::resolve(o, no_regions)).collect(),
        None => {
            // Default: all class and method owner parameters + initialRegion.
            let mut fx: Vec<Owner> = info
                .formal_names
                .iter()
                .map(|n| Owner::Formal(*n))
                .collect();
            fx.extend(formals.iter().map(|(n, _)| Owner::Formal(*n)));
            fx.push(Owner::InitialRegion);
            fx
        }
    };
    let constraints = resolve_constraints(&m.where_clauses, &no_regions);
    let declared_mentions_this = params.iter().any(|(_, t)| t.mentions_this())
        || ret.mentions_this()
        || effects.contains(&Owner::This)
        || constraints
            .iter()
            .any(|c| c.lhs == Owner::This || c.rhs == Owner::This);
    MethodSig {
        declared_in: class,
        formals,
        params,
        ret,
        effects,
        constraints,
        declared_mentions_this,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtj_lang::parser::parse_program;

    fn table(src: &str) -> Result<ProgramTable, Vec<TypeError>> {
        let p = parse_program(src).unwrap();
        ProgramTable::build(&p)
    }

    #[test]
    fn builds_simple_program() {
        let t = table(
            r#"
            class TStack<Owner stackOwner, Owner TOwner> {
                TNode<this, TOwner> head;
                void push(T<TOwner> value) { }
            }
            class TNode<Owner nodeOwner, Owner TOwner> {
                T<TOwner> value;
                TNode<nodeOwner, TOwner> next;
            }
            class T<Owner o> { int x; }
            { }
            "#,
        )
        .unwrap();
        assert!(t.class("TStack").is_some());
        let (_, ft) = t
            .field("TStack", &[Owner::Region("r".into()), Owner::Heap], "head")
            .unwrap();
        assert_eq!(ft, SType::class("TNode", vec![Owner::This, Owner::Heap]));
    }

    #[test]
    fn rejects_duplicates_and_cycles() {
        assert!(table("class A<Owner o> { } class A<Owner o> { } { }").is_err());
        assert!(
            table("class A<Owner o> extends B<o> { } class B<Owner o> extends A<o> { } { }")
                .is_err()
        );
        assert!(table("class A<Owner o> { int x; int x; } { }").is_err());
        assert!(
            table("class A<Owner o> { int m() { return 1; } int m() { return 2; } } { }").is_err()
        );
        assert!(table("class A<Owner o, Owner o> { } { }").is_err());
        assert!(table("class A { } { }").is_err(), "zero formals rejected");
    }

    fn messages(src: &str) -> Vec<String> {
        let errs = table(src).expect_err("the table is rejected");
        errs.into_iter().map(|e| e.message).collect()
    }

    /// A cyclic hierarchy reports its cycle and nothing the chain walks
    /// would find on it: no field is "inherited" from the class itself.
    #[test]
    fn a_cyclic_class_hierarchy_reports_only_its_cycles() {
        assert_eq!(
            messages("class A<Owner o> extends A<o> { int f; } { }"),
            ["cycle in class hierarchy involving `A`"]
        );
        assert_eq!(
            messages(
                "class A<Owner o> extends B<o> { int f; int g; } \
                 class B<Owner o> extends A<o> { int h; } { }"
            ),
            [
                "cycle in class hierarchy involving `A`",
                "cycle in class hierarchy involving `B`"
            ]
        );
        // `C` is outside the cycle but its chain runs into it.
        assert_eq!(
            messages(
                "class A<Owner o> extends B<o> { int f; } \
                 class B<Owner o> extends A<o> { int g; } \
                 class C<Owner o> extends A<o> { int f; int k; } { }"
            ),
            [
                "cycle in class hierarchy involving `A`",
                "cycle in class hierarchy involving `B`",
                "cycle in class hierarchy involving `C`"
            ]
        );
    }

    #[test]
    fn a_cyclic_region_kind_hierarchy_reports_only_its_cycles() {
        assert_eq!(
            messages(
                "regionKind A extends B { } regionKind B extends A { } \
                 regionKind C extends C { subregion A : VT NoRT a; } { }"
            ),
            [
                "cycle in region-kind hierarchy involving `A`",
                "cycle in region-kind hierarchy involving `B`",
                "cycle in region-kind hierarchy involving `C`"
            ]
        );
    }

    #[test]
    fn rejects_unknown_superclass_and_bad_first_owner() {
        assert!(table("class A<Owner o> extends Ghost<o> { } { }").is_err());
        assert!(
            table("class A<Owner o, Owner p> extends B<p> { } class B<Owner o> { } { }").is_err(),
            "superclass first owner must be the subclass's first formal"
        );
        assert!(
            table("class A<Owner o, Owner p> extends B<o> { } class B<Owner o> { } { }").is_ok()
        );
    }

    #[test]
    fn inherited_fields_and_methods() {
        let t = table(
            r#"
            class B<Owner o> {
                C<o> data;
                C<o> get() { return this.data; }
            }
            class A<Owner o, Owner p> extends B<o> {
                C<p> extra;
            }
            class C<Owner o> { int v; }
            { }
            "#,
        )
        .unwrap();
        let owners = vec![Owner::Heap, Owner::Immortal];
        assert_eq!(
            t.field("A", &owners, "data").map(|(_, ty)| ty),
            Some(SType::class("C", vec![Owner::Heap]))
        );
        let fields = t.all_fields("A", &owners);
        assert_eq!(fields.len(), 2);
        assert_eq!(fields[0].0, "data");
        let sig = t.method_sig("A", &owners, "get").unwrap();
        assert_eq!(sig.ret, SType::class("C", vec![Owner::Heap]));
        assert_eq!(sig.declared_in, "B");
        // Default effects: class formals (substituted) + initialRegion.
        assert!(sig.effects.contains(&Owner::Heap));
        assert!(sig.effects.contains(&Owner::InitialRegion));
    }

    #[test]
    fn region_kind_lookup_and_subregions() {
        let t = table(
            r#"
            regionKind BufferRegion extends SharedRegion {
                subregion BufferSubRegion : LT(4096) NoRT b;
            }
            regionKind BufferSubRegion extends SharedRegion {
                Frame<this> f;
            }
            class Frame<Owner o> { int data; }
            { }
            "#,
        )
        .unwrap();
        let sub = t.subregion("BufferRegion", &[], "b").unwrap();
        assert_eq!(sub.policy, Policy::Lt { size: 4096 });
        assert_eq!(sub.thread, ThreadTag::NoRt);
        let pt = t.portal_type("BufferSubRegion", &[], "f").unwrap();
        assert_eq!(pt, SType::class("Frame", vec![Owner::This]));
        assert_eq!(
            t.super_kind_of("BufferRegion".into(), &[]),
            Some(Kind::SharedRegion)
        );
    }

    #[test]
    fn subregion_cycle_is_rejected() {
        let r = table(
            r#"
            regionKind A extends SharedRegion {
                subregion B : VT NoRT b;
            }
            regionKind B extends SharedRegion {
                subregion A : VT NoRT a;
            }
            { }
            "#,
        );
        assert!(r.is_err());
        let msgs = r.unwrap_err();
        assert!(msgs.iter().any(|e| e.message.contains("infinite")));
    }

    #[test]
    fn a_patched_class_is_checked_by_the_rules_build_applies() {
        let mut t =
            table("class B<Owner o> { int x; } class A<Owner o> extends B<o> { int y; } { }")
                .unwrap();
        let wider = "class B<Owner o> { int x; int y; }";
        let patch = parse_program(&format!("{wider} {{ }}")).unwrap();
        let old = t.patch_class(&patch.classes[0]).expect("B is in the table");
        assert_eq!(t.class("B").unwrap().decl.fields.len(), 2);
        let messages =
            |errs: Vec<TypeError>| -> Vec<String> { errs.into_iter().map(|e| e.message).collect() };
        let built = table(&format!(
            "{wider} class A<Owner o> extends B<o> {{ int y; }} {{ }}"
        ));
        let want = messages(built.unwrap_err());
        assert_eq!(want, ["field `y` is already declared in a superclass"]);
        assert_eq!(messages(t.check_classes(["A".into()]).unwrap_err()), want);
        assert!(
            t.check_classes(["B".into()]).is_ok(),
            "only A breaks a rule"
        );

        t.restore_class(old);
        assert_eq!(t.class("B").unwrap().decl.fields.len(), 1);
        assert!(t.check_classes(["A".into(), "B".into()]).is_ok());
        let ghost = parse_program("class Ghost<Owner o> { } { }").unwrap();
        assert!(t.patch_class(&ghost.classes[0]).is_none());
        assert!(t.class("Ghost").is_none());
    }

    #[test]
    fn subtyping_walks_chain() {
        let t = table(
            r#"
            class B<Owner o> { }
            class A<Owner o, Owner p> extends B<o> { }
            { }
            "#,
        )
        .unwrap();
        let a = SType::class("A", vec![Owner::Heap, Owner::Immortal]);
        let b = SType::class("B", vec![Owner::Heap]);
        let obj = SType::class("Object", vec![Owner::Heap]);
        assert!(t.is_subtype(&a, &b));
        assert!(t.is_subtype(&a, &obj));
        assert!(t.is_subtype(&b, &obj));
        assert!(!t.is_subtype(&b, &a));
        assert!(t.is_subtype(&SType::Null, &a));
        let b_wrong = SType::class("B", vec![Owner::Immortal]);
        assert!(!t.is_subtype(&a, &b_wrong), "owner args must match");
    }
}
