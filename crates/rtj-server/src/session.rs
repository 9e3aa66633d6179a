//! Session identity: what one tenant runs and what it produced.
//!
//! A **session** is one request-shaped program execution on its own
//! [`rtj_runtime::Runtime`]. The mix of (program, variant, check mode,
//! engine) a session runs is a pure function of its session id — see
//! [`crate::Server::spec`] — so results are reproducible no matter how
//! the executor interleaves sessions across workers.

use std::sync::Arc;

use rtj_interp::{Engine, RunError};
use rtj_runtime::{CheckMode, MetricsSnapshot};

/// What a session will execute: one request variant of a server program
/// in one check mode on one engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionSpec {
    /// The session (tenant) id, stamped on the session's `Runtime`.
    pub session: u64,
    /// Server program name (`http`, `game`, or `phone`), interned once
    /// per mix entry — cloning a spec bumps a refcount instead of
    /// copying a heap string, keeping the submit path allocation-light.
    pub program: Arc<str>,
    /// Request-variant index (`seq` baked into the program source).
    pub variant: u32,
    /// The check mode the session runs under.
    pub mode: CheckMode,
    /// The execution engine.
    pub engine: Engine,
}

/// Where an overloaded server gave up on a session instead of running
/// it (see `ServeConfig::deadline`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedStage {
    /// Refused at admission: the deadline had already passed when the
    /// session reached the server.
    Admission,
    /// Dropped from the queue: a worker claimed the session after its
    /// deadline expired and skipped the engine.
    Queue,
}

impl ShedStage {
    /// Stable lower-case name (`admission` / `queue`).
    pub fn name(&self) -> &'static str {
        match self {
            ShedStage::Admission => "admission",
            ShedStage::Queue => "queue",
        }
    }
}

/// What a completed session produced. The deterministic fields
/// (`cycles`, `metrics`, `output`, `error`) depend only on the
/// [`SessionSpec`]; the wall-clock fields (`service_us`, `latency_us`)
/// are measurements of this particular run. A shed session (`shed` is
/// `Some`) has an empty virtual outcome: the engine never ran.
#[derive(Debug, Clone)]
pub struct SessionResult {
    /// The spec this session executed.
    pub spec: SessionSpec,
    /// Virtual cycles consumed (deterministic).
    pub cycles: u64,
    /// The session's private `rtj-metrics/v1` snapshot (deterministic).
    pub metrics: MetricsSnapshot,
    /// `print` output (deterministic).
    pub output: Vec<String>,
    /// The error that halted the session, if any (deterministic).
    pub error: Option<RunError>,
    /// Set when the session was shed instead of executed. Shedding is a
    /// wall-clock decision, so this field is *not* deterministic — shed
    /// sessions are excluded from determinism comparisons and from the
    /// ledger population.
    pub shed: Option<ShedStage>,
    /// Wall-clock service time: entering the engine to leaving it.
    pub service_us: u64,
    /// Wall-clock latency from the request's **scheduled arrival** to
    /// completion — includes queueing delay, so an overloaded server
    /// shows the backlog honestly (no coordinated omission).
    pub latency_us: u64,
}

impl SessionResult {
    /// The deterministic portion of the result, rendered as stable bytes.
    /// Two runs of the same spec — on any worker count — must produce
    /// identical values here; the determinism suite compares these.
    pub fn deterministic_key(&self) -> String {
        format!(
            "session={} program={} variant={} mode={:?} engine={} cycles={} error={:?} output={:?} metrics={}",
            self.spec.session,
            self.spec.program,
            self.spec.variant,
            self.spec.mode,
            self.spec.engine,
            self.cycles,
            self.error,
            self.output,
            self.metrics.render(),
        )
    }
}

/// FNV-1a over the deterministic keys of every **executed** session, in
/// order — the byte-identity witness: equal fingerprints across worker
/// counts mean equal per-session results.
pub fn results_fingerprint(results: &[SessionResult]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut byte = |b: u8| {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for result in results.iter().filter(|r| r.shed.is_none()) {
        for b in result.deterministic_key().bytes() {
            byte(b);
        }
        byte(b'\n');
    }
    hash
}
