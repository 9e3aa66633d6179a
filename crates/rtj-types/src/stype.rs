//! Checker-side (semantic) types.
//!
//! [`SType`] is the span-free, owner-resolved form of the surface
//! [`Type`], plus `Null` (the type of the `null`
//! literal, a subtype of every class type) and `Str` (the type of string
//! literals, accepted only by `print`).

use crate::owner::{Owner, Subst};
use rtj_lang::ast::{ClassType, Ident, Type};
use rtj_lang::intern::Symbol;
use rtj_lang::span::Span;
use std::fmt;

/// A semantic type.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum SType {
    /// `int`.
    Int,
    /// `bool`.
    Bool,
    /// `void` (method returns only).
    Void,
    /// The type of `null`: a subtype of every class type.
    Null,
    /// The type of string literals (only usable as a `print` argument).
    Str,
    /// A class type `cn<o1..on>`; the first owner owns the object.
    Class {
        /// Class name (interned).
        name: Symbol,
        /// Owner arguments.
        owners: Vec<Owner>,
    },
    /// A region handle `RHandle<r>`.
    Handle(Owner),
}

impl SType {
    /// Builds a class type.
    pub fn class(name: impl Into<Symbol>, owners: Vec<Owner>) -> SType {
        SType::Class {
            name: name.into(),
            owners,
        }
    }

    /// The owner of values of this type, if it is a class type with at
    /// least one owner argument.
    pub fn first_owner(&self) -> Option<&Owner> {
        match self {
            SType::Class { owners, .. } => owners.first(),
            _ => None,
        }
    }

    /// Whether this is a reference (class or null) type.
    pub fn is_reference(&self) -> bool {
        matches!(self, SType::Class { .. } | SType::Null)
    }

    /// Applies an owner substitution.
    pub fn subst(&self, s: &Subst) -> SType {
        match self {
            SType::Class { name, owners } => SType::Class {
                name: *name,
                owners: s.apply_all(owners),
            },
            SType::Handle(o) => SType::Handle(s.apply(o)),
            other => other.clone(),
        }
    }

    /// All owners mentioned in this type.
    pub fn owners(&self) -> Vec<Owner> {
        match self {
            SType::Class { owners, .. } => owners.clone(),
            SType::Handle(o) => vec![*o],
            _ => Vec::new(),
        }
    }

    /// Whether the literal owner `this` appears in this type.
    ///
    /// Field and method signatures mentioning `this` denote the *declaring*
    /// object; they may only be used through a receiver that is literally
    /// `this` (otherwise the owner would be captured incorrectly).
    pub fn mentions_this(&self) -> bool {
        match self {
            SType::Class { owners, .. } => owners.contains(&Owner::This),
            SType::Handle(o) => *o == Owner::This,
            _ => false,
        }
    }

    /// Converts this semantic type back to a surface type with dummy spans
    /// (used when elaborating inferred `let` types into the AST).
    pub fn to_surface(&self) -> Option<Type> {
        Some(match self {
            SType::Int => Type::Int(Span::DUMMY),
            SType::Bool => Type::Bool(Span::DUMMY),
            SType::Void => Type::Void(Span::DUMMY),
            SType::Null | SType::Str => return None,
            SType::Class { name, owners } => Type::Class(ClassType {
                name: Ident::synthetic(name.as_str().to_owned()),
                owners: owners.iter().map(Owner::to_ref).collect(),
                span: Span::DUMMY,
            }),
            SType::Handle(o) => Type::Handle(o.to_ref(), Span::DUMMY),
        })
    }
}

impl fmt::Display for SType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SType::Int => f.write_str("int"),
            SType::Bool => f.write_str("bool"),
            SType::Void => f.write_str("void"),
            SType::Null => f.write_str("null"),
            SType::Str => f.write_str("String"),
            SType::Class { name, owners } => {
                if owners.is_empty() {
                    f.write_str(name.as_str())
                } else {
                    let os: Vec<String> = owners.iter().map(|o| o.to_string()).collect();
                    write!(f, "{name}<{}>", os.join(", "))
                }
            }
            SType::Handle(o) => write!(f, "RHandle<{o}>"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subst_class_type() {
        let t = SType::class(
            "TNode",
            vec![
                Owner::Formal("nodeOwner".into()),
                Owner::Formal("TOwner".into()),
            ],
        );
        let s = Subst::from_formals(
            &["nodeOwner".into(), "TOwner".into()],
            &[Owner::This, Owner::Region("r1".into())],
        );
        let t2 = t.subst(&s);
        assert_eq!(
            t2,
            SType::class("TNode", vec![Owner::This, Owner::Region("r1".into())])
        );
        assert!(t2.mentions_this());
    }

    #[test]
    fn first_owner_and_reference() {
        let t = SType::class("C", vec![Owner::Heap]);
        assert_eq!(t.first_owner(), Some(&Owner::Heap));
        assert!(t.is_reference());
        assert!(SType::Null.is_reference());
        assert!(!SType::Int.is_reference());
        assert_eq!(SType::Int.first_owner(), None);
    }

    #[test]
    fn surface_round_trip() {
        let t = SType::class("C", vec![Owner::Heap, Owner::Formal("f".into())]);
        let surf = t.to_surface().unwrap();
        match surf {
            Type::Class(ct) => {
                assert_eq!(ct.name.name, "C");
                assert_eq!(ct.owners.len(), 2);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(SType::Null.to_surface().is_none());
    }

    #[test]
    fn display() {
        assert_eq!(SType::class("C", vec![Owner::Heap]).to_string(), "C<heap>");
        assert_eq!(
            SType::Handle(Owner::Immortal).to_string(),
            "RHandle<immortal>"
        );
    }
}
