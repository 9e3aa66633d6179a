//! Per-check-kind metrics: counters, cost histograms, snapshots.
//!
//! Every dynamic-check *site* the runtime reaches is recorded against a
//! [`CheckKind`] with a [`CheckOutcome`]:
//!
//! * **Charged** — the check ran and its cost was charged on the virtual
//!   clock ([`CheckMode::Dynamic`], the RTSJ baseline);
//! * **Audited** — the check ran at zero cost ([`CheckMode::Audit`]);
//! * **Elided** — the site was reached in [`CheckMode::Static`] and the
//!   check was skipped because the type system already proved it.
//!
//! Counting elisions (instead of silently skipping) is what lets the
//! Figure-12 pipeline state, per check kind, *how many* checks the
//! ownership/region type system removed: because the scheduler is
//! deterministic, a Static run visits exactly the sites a Dynamic run
//! visits, so `static.elided == dynamic.performed` — an invariant the
//! test-suite asserts.
//!
//! [`MetricsRegistry`] is the mutable recorder owned by the runtime;
//! [`MetricsSnapshot`] is the plain-data export, and the one record of
//! a run's counters: mergeable across runs and serializable to the
//! `rtj-metrics/v1` JSON schema.
//!
//! [`CheckMode::Dynamic`]: crate::checks::CheckMode::Dynamic
//! [`CheckMode::Audit`]: crate::checks::CheckMode::Audit
//! [`CheckMode::Static`]: crate::checks::CheckMode::Static

use crate::checks::CheckMode;
use crate::json::{Json, JsonError};

/// The RTSJ dynamic checks the runtime implements, as measurement
/// categories.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum CheckKind {
    /// The assignment check on reference stores: the stored reference's
    /// region must outlive the holder's region (paper §2.2).
    Assignment,
    /// The reference check on loads by `NoHeapRealtimeThread`s: the read
    /// barrier that keeps real-time threads away from heap references.
    Reference,
    /// The heap/variable-time allocation check: real-time threads must
    /// not allocate heap memory or take the variable-time chunk path.
    HeapAlloc,
    /// The subregion reservation check: RT-only / no-RT-only entry
    /// restrictions (paper §2.4).
    Reservation,
}

impl CheckKind {
    /// All kinds, in canonical (serialization) order.
    pub const ALL: [CheckKind; 4] = [
        CheckKind::Assignment,
        CheckKind::Reference,
        CheckKind::HeapAlloc,
        CheckKind::Reservation,
    ];

    /// Stable lower-case name used in JSON and reports.
    pub fn name(self) -> &'static str {
        match self {
            CheckKind::Assignment => "assignment",
            CheckKind::Reference => "reference",
            CheckKind::HeapAlloc => "heap_alloc",
            CheckKind::Reservation => "reservation",
        }
    }

    /// Parses a [`CheckKind::name`] back.
    pub fn parse(name: &str) -> Option<CheckKind> {
        CheckKind::ALL.into_iter().find(|k| k.name() == name)
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// What happened at a dynamic-check site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckOutcome {
    /// The check ran and its cost was charged (`Dynamic` mode).
    Charged,
    /// The check ran at zero cost (`Audit` mode).
    Audited,
    /// The check was elided — the site was reached in `Static` mode.
    Elided,
}

impl CheckOutcome {
    /// Stable lower-case name used in trace events.
    pub fn name(self) -> &'static str {
        match self {
            CheckOutcome::Charged => "charged",
            CheckOutcome::Audited => "audited",
            CheckOutcome::Elided => "elided",
        }
    }
}

/// A log₂-bucketed histogram of virtual-cycle costs.
///
/// Bucket `0` holds zero-cost samples; bucket `i ≥ 1` holds samples in
/// `[2^(i-1), 2^i)`. 65 buckets cover the full `u64` range.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// Raw bucket counts.
    pub buckets: [u64; 65],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram { buckets: [0; 65] }
    }
}

impl Histogram {
    /// Records one sample.
    pub fn record(&mut self, cycles: u64) {
        self.buckets[Self::bucket_index(cycles)] += 1;
    }

    /// The bucket a value falls in.
    pub fn bucket_index(cycles: u64) -> usize {
        (64 - cycles.leading_zeros()) as usize
    }

    /// Inclusive lower bound of a bucket.
    pub fn bucket_floor(index: usize) -> u64 {
        if index == 0 {
            0
        } else {
            1u64 << (index - 1)
        }
    }

    /// Total number of samples.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
    }

    /// The sparse JSON form: only non-empty buckets, as `[index,
    /// count]` pairs.
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.buckets
                .iter()
                .enumerate()
                .filter(|(_, c)| **c > 0)
                .map(|(i, c)| Json::Arr(vec![Json::from(i), Json::from(*c)]))
                .collect(),
        )
    }

    /// Reads the sparse form [`Histogram::to_json`] writes: `None` unless
    /// every element is an `[index, count]` pair of exactly two
    /// non-negative integers with an index below 65.
    pub fn from_json(v: &Json) -> Option<Histogram> {
        let mut h = Histogram::default();
        for pair in v.as_arr()? {
            let [i, c] = pair.as_arr()? else {
                return None;
            };
            *h.buckets.get_mut(usize::try_from(i.as_u64()?).ok()?)? = c.as_u64()?;
        }
        Some(h)
    }
}

/// Counters for one [`CheckKind`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CheckCounters {
    /// Sites where the check logic ran (`Dynamic` + `Audit`).
    pub performed: u64,
    /// Sites where the check's cost was charged (`Dynamic` only).
    pub charged: u64,
    /// Sites reached in `Static` mode, where the check was elided.
    pub elided: u64,
    /// Checks that failed (raised an [`RtError`](crate::RtError)).
    pub failed: u64,
    /// Total virtual cycles charged for this kind.
    pub cycles: u64,
    /// Distribution of per-check charged cost.
    pub cost_hist: Histogram,
}

impl CheckCounters {
    /// Sites reached, regardless of mode.
    pub fn sites(&self) -> u64 {
        self.performed + self.elided
    }

    fn merge(&mut self, other: &CheckCounters) {
        self.performed += other.performed;
        self.charged += other.charged;
        self.elided += other.elided;
        self.failed += other.failed;
        self.cycles += other.cycles;
        self.cost_hist.merge(&other.cost_hist);
    }

    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("performed", Json::from(self.performed)),
            ("charged", Json::from(self.charged)),
            ("elided", Json::from(self.elided)),
            ("failed", Json::from(self.failed)),
            ("cycles", Json::from(self.cycles)),
            ("cost_hist", self.cost_hist.to_json()),
        ])
    }

    fn from_json(v: &Json) -> Result<CheckCounters, JsonError> {
        Ok(CheckCounters {
            performed: v.u64_field("performed")?,
            charged: v.u64_field("charged")?,
            elided: v.u64_field("elided")?,
            failed: v.u64_field("failed")?,
            cycles: v.u64_field("cycles")?,
            cost_hist: v.field_as("cost_hist", "a histogram", Histogram::from_json)?,
        })
    }
}

/// Static-checker metrics attached to a snapshot by the CLI.
///
/// Wall-clock time is deliberately excluded: snapshots must be
/// byte-identical across repeated runs and across `--jobs` settings, and
/// `cache_hits`/`threads_used` already vary with parallelism — so the
/// checker section is optional and *not* included by the library-level
/// pipeline the determinism tests cover.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CheckerMetrics {
    /// Classes type-checked.
    pub classes_checked: u64,
    /// Methods type-checked.
    pub methods_checked: u64,
    /// Memoization-cache hits.
    pub cache_hits: u64,
    /// Memoization-cache misses.
    pub cache_misses: u64,
    /// Worker threads used.
    pub threads_used: u64,
}

impl CheckerMetrics {
    fn merge(&mut self, other: &CheckerMetrics) {
        self.classes_checked += other.classes_checked;
        self.methods_checked += other.methods_checked;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.threads_used = self.threads_used.max(other.threads_used);
    }

    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("classes_checked", Json::from(self.classes_checked)),
            ("methods_checked", Json::from(self.methods_checked)),
            ("cache_hits", Json::from(self.cache_hits)),
            ("cache_misses", Json::from(self.cache_misses)),
            ("threads_used", Json::from(self.threads_used)),
        ])
    }

    fn from_json(v: &Json) -> Result<CheckerMetrics, JsonError> {
        Ok(CheckerMetrics {
            classes_checked: v.u64_field("classes_checked")?,
            methods_checked: v.u64_field("methods_checked")?,
            cache_hits: v.u64_field("cache_hits")?,
            cache_misses: v.u64_field("cache_misses")?,
            threads_used: v.u64_field("threads_used")?,
        })
    }
}

/// Schema identifier written into every snapshot.
pub const METRICS_SCHEMA: &str = "rtj-metrics/v1";

/// A point-in-time export of a [`MetricsRegistry`]: plain data, mergeable
/// and serializable.
///
/// Only *virtual* quantities appear here (cycles, counts) — never wall
/// time — so two runs of the same program produce identical snapshots.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// The check mode the run used.
    pub mode: CheckMode,
    /// Final virtual time of the run, in cycles.
    pub total_cycles: u64,
    /// Per-kind check counters, indexed in [`CheckKind::ALL`] order.
    pub checks: [CheckCounters; 4],
    /// Objects allocated.
    pub objects_allocated: u64,
    /// Bytes allocated to objects.
    pub bytes_allocated: u64,
    /// Cycles spent allocating (including zeroing).
    pub alloc_cycles: u64,
    /// Regions created (including subregion instances).
    pub regions_created: u64,
    /// Subregion flushes performed.
    pub regions_flushed: u64,
    /// Regions deleted.
    pub regions_deleted: u64,
    /// Garbage collections that ran.
    pub gc_collections: u64,
    /// Total cycles of GC pause imposed on regular threads.
    pub gc_pause_cycles: u64,
    /// Threads spawned (excluding the main thread).
    pub threads_spawned: u64,
    /// Cycles real-time threads spent waiting on region bookkeeping locks.
    pub rt_lock_wait_cycles: u64,
    /// Worst single real-time lock wait, in cycles.
    pub rt_max_lock_wait: u64,
    /// Static-checker metrics, when the CLI attached them.
    pub checker: Option<CheckerMetrics>,
}

impl Default for MetricsSnapshot {
    fn default() -> Self {
        MetricsSnapshot {
            mode: CheckMode::Dynamic,
            total_cycles: 0,
            checks: Default::default(),
            objects_allocated: 0,
            bytes_allocated: 0,
            alloc_cycles: 0,
            regions_created: 0,
            regions_flushed: 0,
            regions_deleted: 0,
            gc_collections: 0,
            gc_pause_cycles: 0,
            threads_spawned: 0,
            rt_lock_wait_cycles: 0,
            rt_max_lock_wait: 0,
            checker: None,
        }
    }
}

impl MetricsSnapshot {
    /// Counters for one check kind.
    pub fn check(&self, kind: CheckKind) -> &CheckCounters {
        &self.checks[kind.index()]
    }

    /// Total checks performed across all kinds.
    pub fn checks_performed(&self) -> u64 {
        self.checks.iter().map(|c| c.performed).sum()
    }

    /// Total checks elided across all kinds.
    pub fn checks_elided(&self) -> u64 {
        self.checks.iter().map(|c| c.elided).sum()
    }

    /// Total cycles charged to checks across all kinds.
    pub fn check_cycles(&self) -> u64 {
        self.checks.iter().map(|c| c.cycles).sum()
    }

    /// Merges another snapshot into this one (counters add; maxima take
    /// the max; `total_cycles` adds, treating runs as sequential).
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        self.total_cycles += other.total_cycles;
        for (c, o) in self.checks.iter_mut().zip(other.checks.iter()) {
            c.merge(o);
        }
        self.objects_allocated += other.objects_allocated;
        self.bytes_allocated += other.bytes_allocated;
        self.alloc_cycles += other.alloc_cycles;
        self.regions_created += other.regions_created;
        self.regions_flushed += other.regions_flushed;
        self.regions_deleted += other.regions_deleted;
        self.gc_collections += other.gc_collections;
        self.gc_pause_cycles += other.gc_pause_cycles;
        self.threads_spawned += other.threads_spawned;
        self.rt_lock_wait_cycles += other.rt_lock_wait_cycles;
        self.rt_max_lock_wait = self.rt_max_lock_wait.max(other.rt_max_lock_wait);
        if let Some(o) = &other.checker {
            self.checker
                .get_or_insert_with(CheckerMetrics::default)
                .merge(o);
        }
    }

    /// Serializes to the `rtj-metrics/v1` JSON document.
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("schema", Json::Str(METRICS_SCHEMA.into())),
            ("mode", Json::Str(self.mode.name().into())),
            ("total_cycles", Json::from(self.total_cycles)),
            (
                "checks",
                Json::Obj(
                    CheckKind::ALL
                        .into_iter()
                        .map(|k| (k.name().to_string(), self.check(k).to_json()))
                        .collect(),
                ),
            ),
            (
                "alloc",
                Json::obj(vec![
                    ("objects", Json::from(self.objects_allocated)),
                    ("bytes", Json::from(self.bytes_allocated)),
                    ("cycles", Json::from(self.alloc_cycles)),
                ]),
            ),
            (
                "regions",
                Json::obj(vec![
                    ("created", Json::from(self.regions_created)),
                    ("flushed", Json::from(self.regions_flushed)),
                    ("deleted", Json::from(self.regions_deleted)),
                ]),
            ),
            (
                "gc",
                Json::obj(vec![
                    ("collections", Json::from(self.gc_collections)),
                    ("pause_cycles", Json::from(self.gc_pause_cycles)),
                ]),
            ),
            (
                "threads",
                Json::obj(vec![
                    ("spawned", Json::from(self.threads_spawned)),
                    ("rt_lock_wait_cycles", Json::from(self.rt_lock_wait_cycles)),
                    ("rt_max_lock_wait", Json::from(self.rt_max_lock_wait)),
                ]),
            ),
        ];
        if let Some(c) = &self.checker {
            pairs.push(("checker", c.to_json()));
        }
        Json::obj(pairs)
    }

    /// Parses an `rtj-metrics/v1` document.
    ///
    /// # Errors
    ///
    /// [`JsonError`] on malformed JSON, a wrong/missing `schema` tag, or
    /// missing fields.
    pub fn from_json(v: &Json) -> Result<MetricsSnapshot, JsonError> {
        v.expect_schema(METRICS_SCHEMA)?;
        let checks_obj = v.field("checks")?;
        let mut checks: [CheckCounters; 4] = Default::default();
        for kind in CheckKind::ALL {
            checks[kind.index()] = CheckCounters::from_json(checks_obj.field(kind.name())?)?;
        }
        let alloc = v.field("alloc")?;
        let regions = v.field("regions")?;
        let gc = v.field("gc")?;
        let threads = v.field("threads")?;
        Ok(MetricsSnapshot {
            mode: v.field_as("mode", "a check mode", |m| {
                m.as_str().and_then(CheckMode::parse)
            })?,
            total_cycles: v.u64_field("total_cycles")?,
            checks,
            objects_allocated: alloc.u64_field("objects")?,
            bytes_allocated: alloc.u64_field("bytes")?,
            alloc_cycles: alloc.u64_field("cycles")?,
            regions_created: regions.u64_field("created")?,
            regions_flushed: regions.u64_field("flushed")?,
            regions_deleted: regions.u64_field("deleted")?,
            gc_collections: gc.u64_field("collections")?,
            gc_pause_cycles: gc.u64_field("pause_cycles")?,
            threads_spawned: threads.u64_field("spawned")?,
            rt_lock_wait_cycles: threads.u64_field("rt_lock_wait_cycles")?,
            rt_max_lock_wait: threads.u64_field("rt_max_lock_wait")?,
            checker: match v.get("checker") {
                Some(c) => Some(CheckerMetrics::from_json(c)?),
                None => None,
            },
        })
    }

    /// Parses a snapshot from JSON text.
    ///
    /// # Errors
    ///
    /// See [`MetricsSnapshot::from_json`].
    pub fn parse(text: &str) -> Result<MetricsSnapshot, JsonError> {
        MetricsSnapshot::from_json(&Json::parse(text)?)
    }

    /// Renders the Figure-12-style elision report `rtjc report` prints
    /// for an `rtj-metrics/v1` document: run summary, per-check-kind
    /// counter table, and the remaining platform counters.
    pub fn render_report(&self) -> String {
        let mut out = String::new();
        out += &format!("mode          : {}\n", self.mode.name());
        out += &format!("total cycles  : {}\n", self.total_cycles);
        out += &format!(
            "checks        : {} performed, {} elided, {} cycles\n",
            self.checks_performed(),
            self.checks_elided(),
            self.check_cycles()
        );
        let check_cycles = self.check_cycles();
        if check_cycles > 0 && self.total_cycles > check_cycles {
            // The paper's "Overhead" ratio, estimated from one run: what
            // this run cost relative to itself with the checks removed.
            out += &format!(
                "est. overhead : {:.2}x (total / (total - check cycles))\n",
                self.total_cycles as f64 / (self.total_cycles - check_cycles) as f64
            );
        }
        out += &format!(
            "\n{:<12} {:>10} {:>10} {:>10} {:>10} {:>12}\n",
            "check kind", "performed", "charged", "elided", "failed", "cycles"
        );
        for kind in CheckKind::ALL {
            let c = self.check(kind);
            out += &format!(
                "{:<12} {:>10} {:>10} {:>10} {:>10} {:>12}\n",
                kind.name(),
                c.performed,
                c.charged,
                c.elided,
                c.failed,
                c.cycles
            );
        }
        out += &format!(
            "\nalloc   : {} objects, {} bytes, {} cycles\n",
            self.objects_allocated, self.bytes_allocated, self.alloc_cycles
        );
        out += &format!(
            "regions : {} created, {} flushed, {} deleted\n",
            self.regions_created, self.regions_flushed, self.regions_deleted
        );
        out += &format!(
            "gc      : {} collections, {} pause cycles\n",
            self.gc_collections, self.gc_pause_cycles
        );
        out += &format!(
            "threads : {} spawned, {} rt lock-wait cycles (max {})\n",
            self.threads_spawned, self.rt_lock_wait_cycles, self.rt_max_lock_wait
        );
        if let Some(c) = &self.checker {
            out += &format!(
                "checker : {} classes, {} methods, {} cache hits / {} misses, \
                 {} threads\n",
                c.classes_checked, c.methods_checked, c.cache_hits, c.cache_misses, c.threads_used
            );
        }
        out
    }

    /// Renders the snapshot as compact JSON text.
    pub fn render(&self) -> String {
        self.to_json().render()
    }
}

/// The runtime's mutable metrics recorder.
///
/// Owned by [`Runtime`](crate::Runtime); the interpreter and CLI obtain a
/// [`MetricsSnapshot`] via
/// [`Runtime::metrics_snapshot`](crate::Runtime::metrics_snapshot).
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: MetricsSnapshot,
}

impl MetricsRegistry {
    /// Records the outcome at a dynamic-check site. `cycles` is the cost
    /// charged on the virtual clock (zero unless the outcome is
    /// [`CheckOutcome::Charged`]).
    pub fn record_check(&mut self, kind: CheckKind, outcome: CheckOutcome, cycles: u64) {
        let c = &mut self.counters.checks[kind.index()];
        match outcome {
            CheckOutcome::Charged => {
                c.performed += 1;
                c.charged += 1;
                c.cycles += cycles;
                c.cost_hist.record(cycles);
            }
            CheckOutcome::Audited => c.performed += 1,
            CheckOutcome::Elided => c.elided += 1,
        }
    }

    /// Records that a performed check failed.
    pub fn record_check_failure(&mut self, kind: CheckKind) {
        self.counters.checks[kind.index()].failed += 1;
    }

    /// Records an object allocation.
    pub fn record_alloc(&mut self, bytes: u64, cycles: u64) {
        self.counters.objects_allocated += 1;
        self.counters.bytes_allocated += bytes;
        self.counters.alloc_cycles += cycles;
    }

    /// Records `n` region creations.
    pub fn record_regions_created(&mut self, n: u64) {
        self.counters.regions_created += n;
    }

    /// Records a subregion flush.
    pub fn record_region_flushed(&mut self) {
        self.counters.regions_flushed += 1;
    }

    /// Records a region deletion.
    pub fn record_region_deleted(&mut self) {
        self.counters.regions_deleted += 1;
    }

    /// Records one garbage collection and its pause cost.
    pub fn record_gc(&mut self, pause_cycles: u64) {
        self.counters.gc_collections += 1;
        self.counters.gc_pause_cycles += pause_cycles;
    }

    /// Records a thread spawn.
    pub fn record_thread_spawned(&mut self) {
        self.counters.threads_spawned += 1;
    }

    /// Records cycles a real-time thread waited on a region lock.
    pub fn record_rt_lock_wait(&mut self, cycles: u64) {
        self.counters.rt_lock_wait_cycles += cycles;
        self.counters.rt_max_lock_wait = self.counters.rt_max_lock_wait.max(cycles);
    }

    /// Exports a snapshot stamped with the run's mode and final virtual
    /// time.
    pub fn snapshot(&self, mode: CheckMode, total_cycles: u64) -> MetricsSnapshot {
        let mut snap = self.counters.clone();
        snap.mode = mode;
        snap.total_cycles = total_cycles;
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(u64::MAX), 64);
        assert_eq!(Histogram::bucket_floor(0), 0);
        assert_eq!(Histogram::bucket_floor(1), 1);
        assert_eq!(Histogram::bucket_floor(6), 32);
        let mut h = Histogram::default();
        h.record(42);
        h.record(42);
        h.record(0);
        assert_eq!(h.count(), 3);
        assert_eq!(h.buckets[Histogram::bucket_index(42)], 2);
    }

    #[test]
    fn outcomes_update_the_right_counters() {
        let mut reg = MetricsRegistry::default();
        reg.record_check(CheckKind::Assignment, CheckOutcome::Charged, 42);
        reg.record_check(CheckKind::Assignment, CheckOutcome::Audited, 0);
        reg.record_check(CheckKind::Assignment, CheckOutcome::Elided, 0);
        reg.record_check_failure(CheckKind::Assignment);
        let snap = reg.snapshot(CheckMode::Dynamic, 100);
        let c = snap.check(CheckKind::Assignment);
        assert_eq!(c.performed, 2);
        assert_eq!(c.charged, 1);
        assert_eq!(c.elided, 1);
        assert_eq!(c.failed, 1);
        assert_eq!(c.cycles, 42);
        assert_eq!(c.sites(), 3);
        assert_eq!(c.cost_hist.count(), 1);
    }

    #[test]
    fn snapshot_sums_the_recorded_counters() {
        let mut reg = MetricsRegistry::default();
        reg.record_check(CheckKind::Assignment, CheckOutcome::Charged, 42);
        reg.record_check(CheckKind::Reference, CheckOutcome::Charged, 10);
        reg.record_alloc(24, 7);
        reg.record_thread_spawned();
        let snap = reg.snapshot(CheckMode::Dynamic, 100);
        assert_eq!(snap.check(CheckKind::Assignment).performed, 1);
        assert_eq!(snap.check(CheckKind::Reference).performed, 1);
        assert_eq!(snap.check_cycles(), 52);
        assert_eq!(snap.objects_allocated, 1);
        assert_eq!(snap.bytes_allocated, 24);
        assert_eq!(snap.threads_spawned, 1);
    }

    #[test]
    fn snapshot_json_roundtrip() {
        let mut reg = MetricsRegistry::default();
        reg.record_check(CheckKind::Assignment, CheckOutcome::Charged, 42);
        reg.record_check(CheckKind::Reference, CheckOutcome::Elided, 0);
        reg.record_alloc(24, 7);
        reg.record_regions_created(3);
        reg.record_gc(50_000);
        reg.record_rt_lock_wait(123);
        let mut snap = reg.snapshot(CheckMode::Dynamic, 999);
        snap.checker = Some(CheckerMetrics {
            classes_checked: 5,
            methods_checked: 17,
            cache_hits: 4,
            cache_misses: 13,
            threads_used: 2,
        });
        let text = snap.render();
        let back = MetricsSnapshot::parse(&text).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.render(), text, "rendering is stable");
    }

    #[test]
    fn snapshot_rejects_wrong_schema() {
        assert!(MetricsSnapshot::parse("{\"schema\":\"other/v9\"}").is_err());
        assert!(MetricsSnapshot::parse("not json").is_err());
    }

    #[test]
    fn merge_adds_counters_and_maxes_maxima() {
        let mut a = MetricsRegistry::default();
        a.record_check(CheckKind::Assignment, CheckOutcome::Charged, 42);
        a.record_rt_lock_wait(100);
        let mut b = MetricsRegistry::default();
        b.record_check(CheckKind::Assignment, CheckOutcome::Charged, 42);
        b.record_rt_lock_wait(700);
        let mut merged = a.snapshot(CheckMode::Dynamic, 10);
        merged.merge(&b.snapshot(CheckMode::Dynamic, 20));
        assert_eq!(merged.total_cycles, 30);
        assert_eq!(merged.check(CheckKind::Assignment).performed, 2);
        assert_eq!(merged.check(CheckKind::Assignment).cycles, 84);
        assert_eq!(merged.rt_max_lock_wait, 700);
        assert_eq!(merged.rt_lock_wait_cycles, 800);
    }

    #[test]
    fn report_lists_every_kind_and_the_overhead_estimate() {
        let mut reg = MetricsRegistry::default();
        reg.record_check(CheckKind::Assignment, CheckOutcome::Charged, 40);
        reg.record_check(CheckKind::Reference, CheckOutcome::Charged, 10);
        let report = reg.snapshot(CheckMode::Dynamic, 100).render_report();
        for kind in CheckKind::ALL {
            assert!(report.contains(kind.name()), "missing {}", kind.name());
        }
        assert!(report.contains("2 performed, 0 elided, 50 cycles"));
        assert!(report.contains("est. overhead : 2.00x"), "{report}");
    }

    #[test]
    fn kind_names_roundtrip() {
        for k in CheckKind::ALL {
            assert_eq!(CheckKind::parse(k.name()), Some(k));
        }
        assert_eq!(CheckKind::parse("bogus"), None);
    }
}
