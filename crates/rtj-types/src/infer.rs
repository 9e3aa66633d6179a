//! Type inference and default completion (Section 2.5 of the paper).
//!
//! The system is explicitly typed in principle, but a combination of
//! intra-procedural inference and well-chosen defaults keeps the annotation
//! burden low:
//!
//! * **Instance fields** with no owner arguments default to the owner of
//!   `this` (the enclosing class's first formal) in every position.
//! * **Method signatures** with no owner arguments default to
//!   `initialRegion`.
//! * **Portal fields** in region kinds default to `this` (the region).
//! * **`let` locals** without a type annotation take the type of their
//!   initializer (done in [`crate::check`]).
//! * **Call-site owner arguments** are inferred by unifying declared
//!   parameter types against argument types; parameters left unconstrained
//!   default to the caller's current region (which is what the callee's
//!   `initialRegion` denotes at this call).
//!
//! All completion is purely local, so separate compilation is preserved.

use crate::owner::Owner;
use crate::stype::SType;
use crate::table::{MethodSig, ProgramTable};
use rtj_lang::ast::{ClassDecl, OwnerRef, Program, Type};
use rtj_lang::intern::Symbol;
use rtj_lang::span::Span;
use std::collections::HashMap;
use std::sync::Arc;

/// Number of owner formals per class (plus built-in `Object` with one).
fn class_formal_counts(p: &Program) -> HashMap<Symbol, usize> {
    let mut m = HashMap::new();
    m.insert(Symbol::intern("Object"), 1);
    for c in &p.classes {
        m.insert(c.decl.name.name, c.decl.formals.len());
    }
    m
}

fn fill_type(ty: &mut Type, formals: &dyn Fn(Symbol) -> Option<usize>, default: &OwnerRef) {
    if let Type::Class(ct) = ty {
        if ct.owners.is_empty() {
            if let Some(n) = formals(ct.name.name) {
                ct.owners = vec![default.clone(); n];
            }
        }
    }
}

/// Applies declaration-level default completion in place: fields default
/// their owners to the enclosing class's first formal (the owner of
/// `this`), method parameter/return types to `initialRegion`, and portal
/// fields to `this` (the region). Types that already carry owner arguments
/// are left untouched. A header the program alone holds, as after a
/// parse, is written in place; a shared one is copied first.
pub fn apply_declaration_defaults(p: &mut Program) {
    let counts = class_formal_counts(p);
    let formals = |n: Symbol| counts.get(&n).copied();
    for c in &mut p.classes {
        apply_class_defaults(Arc::make_mut(&mut c.decl), &formals);
    }
    let portal_default = OwnerRef::This(Span::DUMMY);
    for rk in &mut p.region_kinds {
        for f in &mut Arc::make_mut(rk).portals {
            fill_type(&mut f.ty, &formals, &portal_default);
        }
    }
}

/// The class half of [`apply_declaration_defaults`], for one declaration.
/// `formals` gives the owner-formal count of a class name (`None` for an
/// unknown name, which is left bare): the whole program's counts, or
/// [`ProgramTable::formal_count`] when one class is re-elaborated against
/// a table built earlier.
pub fn apply_class_defaults(c: &mut ClassDecl, formals: &dyn Fn(Symbol) -> Option<usize>) {
    let field_default = match c.formals.first() {
        Some(f) => OwnerRef::Name(f.name),
        None => return, // rejected later by the table's WF checks
    };
    for f in &mut c.fields {
        fill_type(&mut f.ty, formals, &field_default);
    }
    let sig_default = OwnerRef::InitialRegion(Span::DUMMY);
    for m in &mut c.methods {
        fill_type(&mut m.ret, formals, &sig_default);
        for param in &mut m.params {
            fill_type(&mut param.ty, formals, &sig_default);
        }
    }
}

/// Infers the owner arguments of a call whose method declares owner
/// formals but whose call site omits them, by unifying the declared
/// parameter types with the argument types. Unconstrained formals default
/// to `rcr`, the caller's current region.
///
/// # Errors
///
/// Returns a message when unification binds a formal to two different
/// owners.
pub fn infer_call_owner_args(
    table: &ProgramTable,
    sig: &MethodSig,
    arg_types: &[SType],
    rcr: &Owner,
) -> Result<Vec<Owner>, String> {
    let formal_names: Vec<Symbol> = sig.formals.iter().map(|(n, _)| *n).collect();
    let mut bindings: HashMap<Symbol, Owner> = HashMap::new();
    for ((_, pt), at) in sig.params.iter().zip(arg_types) {
        unify(table, pt, at, &formal_names, &mut bindings)?;
    }
    Ok(sig
        .formals
        .iter()
        .map(|(n, _)| bindings.get(n).copied().unwrap_or(*rcr))
        .collect())
}

fn unify(
    table: &ProgramTable,
    param: &SType,
    arg: &SType,
    formals: &[Symbol],
    bindings: &mut HashMap<Symbol, Owner>,
) -> Result<(), String> {
    match (param, arg) {
        (SType::Handle(po), SType::Handle(ao)) => unify_owner(po, ao, formals, bindings),
        (
            SType::Class {
                name: pn,
                owners: po,
            },
            SType::Class {
                name: an,
                owners: ao,
            },
        ) => {
            // View the argument type at the parameter's class by walking the
            // superclass chain, so inherited-parameter calls still unify.
            let Some(ao) = table.view_as(*an, ao, *pn) else {
                return Ok(()); // Not a subtype; the later subtype check reports it.
            };
            if po.len() != ao.len() {
                return Ok(());
            }
            for (p, a) in po.iter().zip(ao.iter()) {
                unify_owner(p, a, formals, bindings)?;
            }
            Ok(())
        }
        _ => Ok(()),
    }
}

fn unify_owner(
    param: &Owner,
    arg: &Owner,
    formals: &[Symbol],
    bindings: &mut HashMap<Symbol, Owner>,
) -> Result<(), String> {
    if let Owner::Formal(f) = param {
        if formals.contains(f) {
            match bindings.get(f) {
                Some(prev) if prev != arg => {
                    return Err(format!(
                        "cannot infer owner `{f}`: bound to both `{prev}` and `{arg}`; \
                         pass owner arguments explicitly"
                    ));
                }
                Some(_) => {}
                None => {
                    bindings.insert(*f, *arg);
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtj_lang::parser::parse_program;

    #[test]
    fn defaults_fill_fields_and_signatures() {
        let mut p = parse_program(
            r#"
            class C<Owner o, Owner p> {
                D data;
                D id(D x) { return x; }
            }
            class D<Owner a> { int v; }
            { }
            "#,
        )
        .unwrap();
        apply_declaration_defaults(&mut p);
        let c = &p.classes[0].decl;
        match &c.fields[0].ty {
            Type::Class(ct) => {
                assert_eq!(ct.owners.len(), 1);
                assert!(matches!(&ct.owners[0], OwnerRef::Name(id) if id.name == "o"));
            }
            other => panic!("unexpected {other:?}"),
        }
        let m = &c.methods[0];
        match &m.ret {
            Type::Class(ct) => {
                assert!(matches!(ct.owners[0], OwnerRef::InitialRegion(_)));
            }
            other => panic!("unexpected {other:?}"),
        }
        match &m.params[0].ty {
            Type::Class(ct) => {
                assert!(matches!(ct.owners[0], OwnerRef::InitialRegion(_)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn defaults_leave_annotated_types_alone() {
        let mut p = parse_program(
            r#"
            class C<Owner o> { D<heap> data; }
            class D<Owner a> { int v; }
            { }
            "#,
        )
        .unwrap();
        apply_declaration_defaults(&mut p);
        match &p.classes[0].decl.fields[0].ty {
            Type::Class(ct) => assert!(matches!(ct.owners[0], OwnerRef::Heap(_))),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn call_owner_inference_unifies() {
        let p = parse_program(
            r#"
            class C<Owner o> {
                void take<Owner q>(D<q> x, D<q> y) { }
            }
            class D<Owner a> { int v; }
            { }
            "#,
        )
        .unwrap();
        let table = ProgramTable::build(&p).unwrap();
        let sig = table.method_sig("C", &[Owner::Heap], "take").unwrap();
        let args = vec![
            SType::class("D", vec![Owner::Region("r".into())]),
            SType::class("D", vec![Owner::Region("r".into())]),
        ];
        let inferred = infer_call_owner_args(&table, &sig, &args, &Owner::Heap).unwrap();
        assert_eq!(inferred, vec![Owner::Region("r".into())]);

        // Conflicting bindings are an error.
        let args_bad = vec![
            SType::class("D", vec![Owner::Region("r".into())]),
            SType::class("D", vec![Owner::Heap]),
        ];
        assert!(infer_call_owner_args(&table, &sig, &args_bad, &Owner::Heap).is_err());

        // Unconstrained formals default to the current region.
        let args_null = vec![SType::Null, SType::Null];
        let inferred = infer_call_owner_args(&table, &sig, &args_null, &Owner::Immortal).unwrap();
        assert_eq!(inferred, vec![Owner::Immortal]);
    }
}
