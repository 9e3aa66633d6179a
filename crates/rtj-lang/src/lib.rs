//! Frontend for the core real-time Java-like language of
//! *Ownership Types for Safe Region-Based Memory Management in Real-Time
//! Java* (Boyapati, Sălcianu, Beebee, Rinard; PLDI 2003).
//!
//! This crate provides the lexer, parser, AST, pretty-printer, and
//! diagnostic rendering for the paper's core language (Figures 3, 7, 9, 13),
//! extended with ordinary control flow and arithmetic so that the paper's
//! evaluation benchmarks are executable. The type system itself lives in
//! the `rtj-types` crate and the execution platform in `rtj-runtime` /
//! `rtj-interp`.
//!
//! # Examples
//!
//! Parsing the paper's `TStack` example (Figure 5):
//!
//! ```
//! use rtj_lang::parser::parse_program;
//!
//! let program = parse_program(r#"
//!     class TStack<Owner stackOwner, Owner TOwner> {
//!         TNode<this, TOwner> head;
//!     }
//!     class TNode<Owner nodeOwner, Owner TOwner> {
//!         TNode<nodeOwner, TOwner> next;
//!     }
//!     {
//!         (RHandle<r1> h1) {
//!             (RHandle<r2> h2) {
//!                 let TStack<r2, r1> s2 = new TStack<r2, r1>;
//!             }
//!         }
//!     }
//! "#)?;
//! assert_eq!(program.classes.len(), 2);
//! # Ok::<(), rtj_lang::parser::ParseError>(())
//! ```

#![warn(missing_docs)]

pub mod ast;
pub mod diag;
pub mod fingerprint;
pub mod intern;
pub mod json;
pub mod lexer;
pub mod parser;
pub mod pretty;
pub mod span;
pub mod token;

pub use ast::Program;
pub use fingerprint::{
    class_refs, region_kind_refs, signature_fingerprint, text_fingerprint, Fnv64,
};
pub use intern::Symbol;
pub use json::{Json, JsonError};
pub use parser::{parse_block_at, parse_class_at, parse_expr, parse_program, ParseError};
pub use pretty::pretty_program;
pub use span::Span;
