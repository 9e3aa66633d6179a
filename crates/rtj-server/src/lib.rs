//! Multi-tenant region server for the paper's request-handling workloads.
//!
//! The paper's evaluation programs — `http` server, `game` loop, `phone`
//! database — are request handlers, but a plain `rtjc run` executes one
//! program in one process. This crate turns the reproduction into a
//! *server*: thousands of concurrent **sessions**, each a tenant owning
//! its own [`rtj_runtime::Runtime`] (regions, virtual clock, metrics),
//! scheduled on a sharded work-stealing [`executor::Executor`]. The only
//! cross-tenant state is immutable: the global string interner (PR 1)
//! and the `Arc`-shared compiled program artifacts
//! ([`rtj_interp::Prepared`]). Every session runs on the bytecode VM;
//! the tree-walker stays in `rtj-interp` as the test oracle.
//!
//! Two drivers sit on top:
//!
//! - [`server::run_batch`] (`rtjc serve`): unpaced — submit N complete
//!   rounds of the request mix and let the workers saturate.
//! - [`load::run_load`] (`rtjc load`): **open loop** — Poisson arrivals
//!   at a target rate from a seeded PRNG, latency anchored to each
//!   request's *scheduled* arrival so queueing under overload is
//!   measured, not hidden (no coordinated omission).
//!
//! Both emit the versioned [`report::LOAD_SCHEMA`] (`rtj-load/v1`)
//! document: per-(program, mode) tail latencies, per-mode merged
//! `rtj-metrics/v1` snapshots (accumulated incrementally in per-worker
//! result shards, merged once at drain), the `sessions.shed` overload
//! block, and the Figure-12 ledger
//! (`static.elided == dynamic.performed`) re-established *under
//! concurrency* over the mode-matched admitted population. With
//! [`ServeConfig::deadline`] set, sessions past their deadline are
//! **shed** (at admission or in queue) instead of queued without bound.
//! Architecture and schema reference: `SERVER.md`.
//!
//! With [`ServeConfig::telemetry`] set, the server also runs a **flight
//! recorder** ([`telemetry`]): a per-worker scheduling event log drained
//! into [`telemetry::SERVER_TRACE_SCHEMA`] (`rtj-server-trace/v1`, with
//! Chrome `trace_event` export). Two views are derived from the drained
//! log: the executor's gauges at every tick, as
//! [`telemetry::TIMELINE_SCHEMA`] (`rtj-timeline/v1`), and per-session
//! latency attribution folded into `rtj-load/v1` as the `attribution`
//! block. Telemetry starts no thread and never touches session results:
//! fingerprints are byte-identical on or off.
//!
//! # Example
//!
//! ```
//! use rtj_server::{LoadReport, ServeConfig, run_batch};
//!
//! let mut cfg = ServeConfig::default();
//! cfg.workers = 2;
//! cfg.variants = 1;
//! let outcome = run_batch(&cfg, 1).unwrap();
//! let report = LoadReport::from_serve(&outcome, "smoke".into(), 0.0, 1);
//! assert!(report.ledger.unwrap().holds());
//! ```

#![warn(missing_docs)]

pub mod executor;
pub mod load;
pub mod report;
pub mod server;
pub mod session;
pub mod telemetry;

pub use executor::{Executor, ExecutorStats, Job};
pub use load::{run_load, LoadOutcome, LoadPlan};
pub use report::{
    AttributionGroup, LatencySummary, LoadGroup, LoadLedger, LoadReport, LOAD_SCHEMA,
};
pub use server::{run_batch, ServeConfig, ServeError, ServeOutcome, Server, ShedStats};
pub use session::{results_fingerprint, SessionResult, SessionSpec, ShedStage};
pub use telemetry::{
    EventKind, FlightRecorder, ServerTrace, SessionStages, Telemetry, TelemetryConfig, Timeline,
    TimelineSample, TraceEvent, TraceLane, WorkerSample, SERVER_TRACE_SCHEMA, STAGE_NAMES,
    TIMELINE_SCHEMA,
};
