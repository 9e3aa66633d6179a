//! Simulated RTSJ platform: region-based memory management with LT/VT
//! allocation policies, shared regions with reference counts, subregions
//! with portal fields, the RTSJ dynamic checks, a virtual clock with a
//! calibrated cost model, and a stop-the-world collector that pauses only
//! regular threads.
//!
//! This crate is the *substrate* the paper's evaluation runs on: the
//! authors measured their benchmarks on an RTSJ implementation with the
//! dynamic checks switched on and off; here the same comparison is
//! [`CheckMode::Dynamic`] vs [`CheckMode::Static`], and
//! [`CheckMode::Audit`] verifies at zero cost that well-typed programs
//! never fail a check (Theorems 3 and 4).
//!
//! The observability layer lives in [`events`] (typed [`TraceEvent`]s,
//! kept by the [`Runtime`] as JSONL lines while a trace is captured) and
//! [`metrics`] (the per-check-kind [`MetricsRegistry`] with elision
//! accounting, exported as mergeable `rtj-metrics/v1`
//! [`MetricsSnapshot`]s: the one record of a run's counters).
//!
//! # Example
//!
//! ```
//! use rtj_runtime::{CheckMode, RegionSpec, Runtime, RuntimeOwner, Value};
//!
//! let mut rt = Runtime::with_mode(CheckMode::Dynamic);
//! let main = rt.main_thread();
//! let region = rt.create_region(main, RegionSpec::plain_vt(), false)?;
//! let obj = rt.alloc(main, RuntimeOwner::Region(region), "Cell", &[], 1)?;
//! rt.store_field(main, obj, 0, Value::Int(42))?;
//! assert_eq!(rt.load_field(main, obj, 0)?, Value::Int(42));
//! rt.exit_created_region(main, region)?;
//! assert!(!rt.is_alive(obj)); // deleted with its region
//! # Ok::<(), rtj_runtime::RtError>(())
//! ```

#![warn(missing_docs)]

pub mod checks;
pub mod clock;
pub mod error;
pub mod events;
pub mod metrics;
pub mod objects;
pub mod region;
pub mod runtime;
pub mod value;
pub mod viz;

pub use checks::CheckMode;
pub use clock::{Clock, CostModel};
pub use error::RtError;
pub use events::TraceEvent;
pub use metrics::{
    CheckCounters, CheckKind, CheckOutcome, CheckerMetrics, Histogram, MetricsRegistry,
    MetricsSnapshot, METRICS_SCHEMA,
};
pub use objects::{object_size, ObjectRecord, ObjectStore};
pub use region::{RegionClass, RegionRecord, RegionSpec, RegionState, RegionTable};
/// Shared dependency-free JSON plumbing (re-exported from `rtj-lang`, where
/// it also serves the static checker's snapshots).
pub use rtj_lang::json;
pub use rtj_lang::json::{Json, JsonError};
pub use runtime::{GcState, Runtime, ThreadRecord};
pub use value::{
    AllocPolicy, ObjId, RegionId, Reservation, RuntimeOwner, ThreadClass, ThreadId, Value,
};
