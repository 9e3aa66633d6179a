//! The ownership/region type system of *Ownership Types for Safe
//! Region-Based Memory Management in Real-Time Java* (PLDI 2003) —
//! the paper's primary contribution.
//!
//! The system unifies **region types** (no dangling references: an object
//! may only point to objects in regions that outlive its own) with
//! **ownership types** (object encapsulation: an object's representation
//! cannot be accessed from outside its owner), extends them to
//! multithreaded programs (shared regions, subregions, typed portal
//! fields), and to real-time programs (LT/VT allocation policies, RT/NoRT
//! subregions, effects clauses that keep `NoHeapRealtimeThread`s away from
//! the garbage-collected heap).
//!
//! Well-typed programs satisfy the paper's Theorems 3 and 4: field reads
//! and writes never follow dangling references and real-time threads never
//! touch heap references — so the RTSJ runtime checks can be elided, which
//! is exactly what `rtj-interp`'s static check mode does.
//!
//! # Example
//!
//! ```
//! use rtj_lang::parser::parse_program;
//! use rtj_types::check_program;
//!
//! // Figure 5: a stack whose nodes are owned by the stack itself.
//! let program = parse_program(r#"
//!     class TStack<Owner stackOwner, Owner TOwner> {
//!         TNode<this, TOwner> head;
//!         void push(T<TOwner> value) {
//!             let TNode<this, TOwner> n = new TNode<this, TOwner>;
//!             n.init(value, this.head);
//!             this.head = n;
//!         }
//!     }
//!     class TNode<Owner nodeOwner, Owner TOwner> {
//!         T<TOwner> value;
//!         TNode<nodeOwner, TOwner> next;
//!         void init(T<TOwner> v, TNode<nodeOwner, TOwner> n) {
//!             this.value = v;
//!             this.next = n;
//!         }
//!     }
//!     class T<Owner o> { int x; }
//!     {
//!         (RHandle<r1> h1) {
//!             (RHandle<r2> h2) {
//!                 let TStack<r2, r1> s2 = new TStack<r2, r1>;
//!             }
//!         }
//!     }
//! "#).unwrap();
//! let checked = check_program(&program).expect("well-typed");
//! assert!(checked.table.class("TStack").is_some());
//! ```

#![warn(missing_docs)]

pub mod check;
pub mod env;
pub mod error;
pub mod incremental;
pub mod infer;
pub mod kind;
pub mod lower;
pub mod owner;
pub mod profile;
pub mod stype;
pub mod table;

pub use check::{check_program, check_program_in, CheckOptions, CheckStats, Checked};
pub use env::{Effects, Env, FamilyCounters, JudgmentCounters};
pub use error::TypeError;
pub use incremental::{ClassEdit, IncrementalChecker, RecheckError, RecheckOutcome};
pub use kind::Kind;
pub use owner::Owner;
pub use profile::{CheckProfile, CheckerSnapshot, PhaseSpan, CHECKER_METRICS_SCHEMA};
pub use stype::SType;
pub use table::ProgramTable;
