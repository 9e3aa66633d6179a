//! Class and region-kind layouts.
//!
//! Derived once from the checked program's [`ProgramTable`], layouts give
//! the interpreter constant-ish-time access to field indices, primitive
//! field defaults, runtime method resolution along the superclass chain,
//! and ready-made [`RegionSpec`]s for each region kind.
//!
//! Every lookup is keyed by interned [`Symbol`]s, so the hot paths of
//! both engines (tree-walker and bytecode VM) hash and compare pointers,
//! never string contents. The interned class symbol doubles as the VM's
//! *layout id*: two objects share a layout iff their class symbols are
//! pointer-equal, which is what the inline caches key on.

use rtj_lang::ast::{MethodDecl, OwnerRef, Policy, ThreadTag};
use rtj_lang::intern::Symbol;
use rtj_runtime::{AllocPolicy, RegionSpec, Reservation, Value};
use rtj_types::{Owner, ProgramTable, SType};
use std::collections::HashMap;

/// Field metadata for one class.
#[derive(Debug, Clone)]
pub struct ClassLayout {
    /// Field names in slot order (inherited fields first).
    pub field_names: Vec<Symbol>,
    /// Name → slot index.
    pub field_index: HashMap<Symbol, usize>,
    /// Default value per slot (`Int(0)`, `Bool(false)`, or `Null`).
    pub field_defaults: Vec<Value>,
    /// The class's formal owner parameter names (interned).
    pub formal_names: Vec<Symbol>,
}

/// All layouts for a program.
#[derive(Debug, Clone)]
pub struct Layouts {
    classes: HashMap<Symbol, ClassLayout>,
    region_specs: HashMap<Symbol, RegionSpec>,
}

fn default_for(t: &SType) -> Value {
    match t {
        SType::Int => Value::Int(0),
        SType::Bool => Value::Bool(false),
        _ => Value::Null,
    }
}

impl Layouts {
    /// Builds layouts for every class and region kind in the table.
    pub fn new(table: &ProgramTable) -> Layouts {
        let mut classes = HashMap::new();
        classes.insert(
            Symbol::intern("Object"),
            ClassLayout {
                field_names: Vec::new(),
                field_index: HashMap::new(),
                field_defaults: Vec::new(),
                formal_names: vec!["o".into()],
            },
        );
        for info in table.classes() {
            let name = info.decl.name.name;
            let formals: Vec<Owner> = info
                .formal_names
                .iter()
                .map(|n| Owner::Formal(*n))
                .collect();
            let fields = table.all_fields(name, &formals);
            let field_names: Vec<Symbol> = fields.iter().map(|(n, _)| *n).collect();
            let field_index = field_names
                .iter()
                .enumerate()
                .map(|(i, n)| (*n, i))
                .collect();
            let field_defaults = fields.iter().map(|(_, t)| default_for(t)).collect();
            classes.insert(
                name,
                ClassLayout {
                    field_names,
                    field_index,
                    field_defaults,
                    formal_names: info.formal_names.clone(),
                },
            );
        }
        let mut region_specs = HashMap::new();
        for info in table.region_kinds() {
            let name = info.decl.name.name;
            let spec = build_region_spec(table, name, AllocPolicy::Vt, Reservation::Any, 0);
            region_specs.insert(name, spec);
        }
        Layouts {
            classes,
            region_specs,
        }
    }

    /// Layout for a class.
    pub fn class(&self, name: Symbol) -> Option<&ClassLayout> {
        self.classes.get(&name)
    }

    /// A [`RegionSpec`] for creating a *top-level* region of kind
    /// `kind_name` (or a plain shared region when `None`) with the given
    /// policy.
    pub fn region_spec(&self, kind_name: Option<Symbol>, policy: Policy) -> RegionSpec {
        let mut spec = match kind_name {
            Some(k) => self
                .region_specs
                .get(&k)
                .cloned()
                .unwrap_or_else(RegionSpec::plain_vt),
            None => RegionSpec::plain_vt(),
        };
        spec.policy = convert_policy(policy);
        spec
    }
}

fn convert_policy(p: Policy) -> AllocPolicy {
    match p {
        Policy::Lt { size } => AllocPolicy::Lt { capacity: size },
        Policy::Vt => AllocPolicy::Vt,
    }
}

fn convert_tag(t: ThreadTag) -> Reservation {
    match t {
        ThreadTag::Rt => Reservation::RtOnly,
        ThreadTag::NoRt => Reservation::NoRtOnly,
    }
}

/// Recursively builds the spec for a region kind (depth-bounded as a
/// safety net; the checker guarantees finiteness).
fn build_region_spec(
    table: &ProgramTable,
    kind: Symbol,
    policy: AllocPolicy,
    reservation: Reservation,
    depth: usize,
) -> RegionSpec {
    let mut spec = RegionSpec {
        kind_name: Some(kind.as_str().to_owned()),
        policy,
        reservation,
        portals: Vec::new(),
        subregions: Vec::new(),
    };
    if depth > 16 {
        return spec;
    }
    let Some(info) = table.region_kind(kind) else {
        return spec;
    };
    let formals: Vec<Owner> = info
        .formal_names
        .iter()
        .map(|n| Owner::Formal(*n))
        .collect();
    for (name, _) in table.all_portals(kind, &formals) {
        spec.portals.push(name.as_str().to_owned());
    }
    for (member, sub) in table.all_subregions(kind, &formals) {
        let sub_kind = match &sub.kind {
            rtj_types::Kind::Named { name, .. } => *name,
            _ => continue,
        };
        let sub_spec = build_region_spec(
            table,
            sub_kind,
            convert_policy(sub.policy),
            convert_tag(sub.thread),
            depth + 1,
        );
        spec.subregions.push((member.as_str().to_owned(), sub_spec));
    }
    spec
}

/// The superclass hops from the allocated class to the declaring class:
/// `(superclass name, owner refs over the previous class's formals)`.
pub type SuperChain = Vec<(Symbol, Vec<OwnerRef>)>;

/// Resolves the method `method` for an object allocated as `class`,
/// walking the superclass chain. Returns the [`SuperChain`] of hops the
/// caller must evaluate against the object's stored owners, and the
/// method's header as the table holds it (its body is empty; the
/// program holds the bodies).
pub fn resolve_method_chain(
    table: &ProgramTable,
    class: Symbol,
    method: Symbol,
) -> Option<(SuperChain, &MethodDecl)> {
    let mut chain = Vec::new();
    let mut cur = class;
    let mut seen = std::collections::HashSet::new();
    loop {
        if !seen.insert(cur) {
            return None;
        }
        let info = table.class(cur)?;
        if let Some(m) = info.decl.methods.iter().find(|m| m.name.name == method) {
            return Some((chain, m));
        }
        match &info.decl.extends {
            Some(ct) if ct.name.name != "Object" => {
                chain.push((ct.name.name, ct.owners.clone()));
                cur = ct.name.name;
            }
            _ => return None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtj_lang::parser::parse_program;
    use rtj_types::check_program;

    fn layouts(src: &str) -> (Layouts, ProgramTable) {
        let checked = check_program(&parse_program(src).unwrap()).unwrap();
        (Layouts::new(&checked.table), checked.table)
    }

    #[test]
    fn class_layout_with_inheritance() {
        let (l, _) = layouts(
            r#"
            class B<Owner o> { int x; C<o> c; }
            class A<Owner o> extends B<o> { bool y; }
            class C<Owner o> { int v; }
            { }
            "#,
        );
        let a = l.class("A".into()).unwrap();
        assert_eq!(a.field_names, vec!["x", "c", "y"]);
        assert_eq!(a.field_index[&Symbol::intern("y")], 2);
        assert_eq!(
            a.field_defaults,
            vec![Value::Int(0), Value::Null, Value::Bool(false)]
        );
    }

    #[test]
    fn region_spec_from_kind() {
        let (l, _) = layouts(
            r#"
            regionKind Buf extends SharedRegion {
                subregion Sub : LT(2048) NoRT b;
            }
            regionKind Sub extends SharedRegion {
                Frame<this> f;
            }
            class Frame<Owner o> { int d; }
            { }
            "#,
        );
        let spec = l.region_spec(Some("Buf".into()), Policy::Vt);
        assert_eq!(spec.kind_name.as_deref(), Some("Buf"));
        assert_eq!(spec.subregions.len(), 1);
        let (member, sub) = &spec.subregions[0];
        assert_eq!(member, "b");
        assert_eq!(sub.policy, AllocPolicy::Lt { capacity: 2048 });
        assert_eq!(sub.reservation, Reservation::NoRtOnly);
        assert_eq!(sub.portals, vec!["f".to_string()]);
    }

    #[test]
    fn method_chain_resolution() {
        let (_, t) = layouts(
            r#"
            class B<Owner o> { int get() { return 1; } }
            class A<Owner o, Owner p> extends B<o> { }
            { }
            "#,
        );
        let (chain, m) = resolve_method_chain(&t, "A".into(), "get".into()).unwrap();
        assert_eq!(m.name.name, "get");
        assert_eq!(chain.len(), 1);
        assert_eq!(chain[0].0, "B");
        let (chain, _) = resolve_method_chain(&t, "B".into(), "get".into()).unwrap();
        assert!(chain.is_empty());
        assert!(resolve_method_chain(&t, "A".into(), "nope".into()).is_none());
    }
}
