//! The paper's benchmark corpus and evaluation harnesses.
//!
//! This crate holds the eight evaluation programs of Section 3 (plus the
//! six ImageRec stages), written in the core language with their primary
//! data structures allocated in regions, and the harnesses that
//! regenerate Figure 11 (programming overhead) and Figure 12 (dynamic
//! checking overhead).
//!
//! # Example
//!
//! ```
//! use rtj_corpus::{fig12_row, programs};
//!
//! let array = &programs::all(programs::Scale::Smoke)[0];
//! let row = fig12_row(array);
//! assert!(row.overhead > 1.0); // checks cost time
//! ```

#![warn(missing_docs)]

pub mod edits;
pub mod experiments;
pub mod metrics;
pub mod programs;

pub use edits::{edit_batches, edits_json, parse_edits, EditBatch, EditScript, EDITS_SCHEMA};
pub use experiments::{
    fig11, fig11_json, fig12, fig12_json, fig12_row, paper_ratio, render_fig11, render_fig12,
    Fig11Row, Fig12Row, FIG11_SCHEMA, FIG12_SCHEMA, PAPER_FIG11, PAPER_FIG12,
};
pub use metrics::{annotation_report, AnnotationReport};
pub use programs::{
    all, negatives, request_program, request_variants, scaled_classes, scaled_vm_workload,
    BenchProgram, Category, ImageStage, Scale, SERVER_PROGRAMS,
};
