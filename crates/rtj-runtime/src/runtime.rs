//! The runtime facade: the simulated RTSJ platform.
//!
//! A [`Runtime`] owns the region table, the object store, the virtual
//! clock, thread records, the garbage-collector state, and the metrics
//! registry. The interpreter (`rtj-interp`) drives it through a narrow
//! API: allocation, field/portal loads and stores (where the RTSJ
//! dynamic checks live), region creation/entry/exit, thread spawning,
//! and the two-phase subregion enter/exit protocol whose bookkeeping
//! lock models the RTSJ priority-inversion window.
//!
//! Every observable transition is recorded in the per-check-kind
//! [`MetricsRegistry`] and, while a trace is captured, kept as the
//! JSONL line of a typed [`TraceEvent`]. Dynamic-check
//! *sites* are recorded in every mode — charged in `Dynamic`, run free
//! in `Audit`, counted as *elided* in `Static` — which is what lets the
//! Figure-12 pipeline state how many checks the type system removed.

use crate::checks::CheckMode;
use crate::clock::{Clock, CostModel};
use crate::error::RtError;
use crate::events::TraceEvent;
use crate::metrics::{CheckKind, CheckOutcome, MetricsRegistry, MetricsSnapshot};
use crate::objects::{object_size, ObjectRecord, ObjectStore, Span};
use crate::region::{RegionClass, RegionRecord, RegionSpec, RegionState, RegionTable};
use crate::value::{
    AllocPolicy, ObjId, RegionId, Reservation, RuntimeOwner, ThreadClass, ThreadId, Value,
};
use rtj_lang::Symbol;
use std::collections::BTreeSet;

/// Per-thread bookkeeping.
#[derive(Debug, Clone)]
pub struct ThreadRecord {
    /// The thread's id.
    pub id: ThreadId,
    /// Regular or real-time.
    pub class: ThreadClass,
    /// Regions this thread is currently inside (innermost last).
    pub region_stack: Vec<RegionId>,
    /// Whether the thread is still running.
    pub alive: bool,
}

/// Garbage-collector state (stop-the-world, pauses regular threads only).
#[derive(Debug, Clone, Default)]
pub struct GcState {
    /// Bytes of heap allocation since the last collection.
    pub debt: u64,
    /// A collection is requested and will start at the next safepoint.
    pub pending: bool,
    /// While `now < collecting_until`, regular threads are paused.
    pub collecting_until: Option<u64>,
}

/// The simulated RTSJ platform.
#[derive(Debug)]
pub struct Runtime {
    cost: CostModel,
    mode: CheckMode,
    clock: Clock,
    regions: RegionTable,
    objects: ObjectStore,
    threads: Vec<ThreadRecord>,
    gc: GcState,
    gc_enabled: bool,
    metrics: MetricsRegistry,
    /// The structured-event trace as JSONL lines, while one is captured.
    events: Option<Vec<String>>,
    trace: Vec<String>,
    heap: RegionId,
    immortal: RegionId,
    /// Tenant tag for multi-session serving (0 = standalone run).
    session: u64,
}

// Shared-state audit: every session in the multi-tenant server owns one
// `Runtime` and may migrate between executor threads, so the runtime must
// own all of its state outright — no `Rc`, `RefCell`, thread-locals, or
// references into shared mutable structures. (The only cross-session
// state in the whole system is the read-only string interner in
// `rtj-lang`, which is internally synchronized.) This compile-time
// assertion is the enforcement point: adding a non-`Send` field breaks
// the build here rather than in a downstream crate.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Runtime>();
};

impl Runtime {
    /// Creates a runtime with the built-in `heap` and `immortal` regions
    /// and a main regular thread whose current region is the heap.
    pub fn new(mode: CheckMode, cost: CostModel) -> Self {
        let mut regions = RegionTable::default();
        let (heap, _) = regions.create(RegionSpec::plain_vt(), RegionClass::Heap, BTreeSet::new());
        let (immortal, _) = regions.create(
            RegionSpec {
                policy: AllocPolicy::Lt {
                    capacity: u64::MAX / 2,
                },
                ..RegionSpec::plain_vt()
            },
            RegionClass::Immortal,
            BTreeSet::new(),
        );
        let main = ThreadRecord {
            id: ThreadId(0),
            class: ThreadClass::Regular,
            region_stack: vec![heap],
            alive: true,
        };
        Runtime {
            cost,
            mode,
            clock: Clock::new(),
            regions,
            objects: ObjectStore::default(),
            threads: vec![main],
            gc: GcState::default(),
            gc_enabled: false,
            metrics: MetricsRegistry::default(),
            events: None,
            trace: Vec::new(),
            heap,
            immortal,
            session: 0,
        }
    }

    /// Tags this runtime with a session (tenant) identifier. Purely a
    /// label: it never enters the virtual clock, the metrics, or the
    /// trace, so snapshots stay byte-identical across serving topologies.
    pub fn set_session(&mut self, session: u64) {
        self.session = session;
    }

    /// The session (tenant) identifier (0 = standalone run).
    pub fn session(&self) -> u64 {
        self.session
    }

    /// Convenience constructor with the default cost model.
    pub fn with_mode(mode: CheckMode) -> Self {
        Runtime::new(mode, CostModel::default())
    }

    /// The heap region.
    pub fn heap(&self) -> RegionId {
        self.heap
    }

    /// The immortal region.
    pub fn immortal(&self) -> RegionId {
        self.immortal
    }

    /// The main thread.
    pub fn main_thread(&self) -> ThreadId {
        ThreadId(0)
    }

    /// The active check mode.
    pub fn mode(&self) -> CheckMode {
        self.mode
    }

    /// The cost model in use.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// Current virtual time in cycles.
    pub fn now(&self) -> u64 {
        self.clock.now()
    }

    /// Advances the virtual clock (interpreter step costs, `io`,
    /// `workload`).
    pub fn charge(&mut self, cycles: u64) {
        self.clock.advance(cycles);
    }

    /// Exports the full per-check-kind metrics, stamped with the run's
    /// mode and current virtual time (`rtj-metrics/v1`).
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.metrics.snapshot(self.mode, self.clock.now())
    }

    /// Starts capturing the structured-event trace: subsequent runtime
    /// transitions record [`TraceEvent`]s, and threads already alive get
    /// a synthetic `ThreadStart` so every thread in the trace has one.
    pub fn capture_events(&mut self) {
        let now = self.clock.now();
        let lines = self
            .threads
            .iter()
            .filter(|r| r.alive)
            .map(|r| {
                TraceEvent::ThreadStart {
                    at: now,
                    thread: r.id,
                    class: r.class,
                }
                .to_jsonl()
            })
            .collect();
        self.events = Some(lines);
    }

    /// Stops the capture and returns the trace as JSONL lines, or `None`
    /// when no trace was captured. Emission costs nothing once stopped.
    pub fn take_events(&mut self) -> Option<Vec<String>> {
        self.events.take()
    }

    /// Records an event if (and only if) a trace is being captured: the
    /// closure runs — and the event is constructed — only on the traced
    /// path, so untraced runs pay one `Option` discriminant test.
    fn emit(&mut self, build: impl FnOnce(u64) -> TraceEvent) {
        if let Some(lines) = self.events.as_mut() {
            lines.push(build(self.clock.now()).to_jsonl());
        }
    }

    /// Records a dynamic-check site: resolves the mode to an outcome
    /// (`Dynamic` → charged at `cost`, `Audit` → audited free, `Static`
    /// → elided), advances the clock, updates the registry, and emits a
    /// `Check` event. `ok` is `false` when the performed check failed
    /// (callers pass `true` in `Static` mode — an elided check cannot
    /// fail).
    fn note_check(&mut self, t: ThreadId, kind: CheckKind, cost: u64, ok: bool) {
        let (outcome, charged) = match self.mode {
            CheckMode::Dynamic => (CheckOutcome::Charged, cost),
            CheckMode::Audit => (CheckOutcome::Audited, 0),
            CheckMode::Static => (CheckOutcome::Elided, 0),
        };
        if charged > 0 {
            self.clock.advance(charged);
        }
        self.metrics.record_check(kind, outcome, charged);
        if !ok {
            self.metrics.record_check_failure(kind);
        }
        self.emit(|at| TraceEvent::Check {
            at,
            thread: t,
            kind,
            outcome,
            cycles: charged,
            ok,
        });
    }

    /// Trace output produced by `print`.
    pub fn trace(&self) -> &[String] {
        &self.trace
    }

    /// Appends a line to the trace.
    pub fn print(&mut self, line: String) {
        self.clock.advance(self.cost.step);
        self.trace.push(line);
    }

    /// Enables the simulated garbage collector (off by default: the
    /// paper's Figure 12 runs never trigger a collection).
    pub fn enable_gc(&mut self, enabled: bool) {
        self.gc_enabled = enabled;
    }

    // ------------------------------------------------------------- threads

    /// Record for a thread.
    pub fn thread(&self, t: ThreadId) -> &ThreadRecord {
        &self.threads[t.0 as usize]
    }

    /// Number of threads ever created.
    pub fn thread_count(&self) -> usize {
        self.threads.len()
    }

    /// Spawns a thread. The child inherits the parent's *shared* regions
    /// (their reference counts are incremented), mirroring the paper's
    /// region-stack semantics.
    pub fn spawn_thread(&mut self, parent: ThreadId, class: ThreadClass) -> ThreadId {
        let inherited: Vec<RegionId> = self.threads[parent.0 as usize]
            .region_stack
            .iter()
            .copied()
            .filter(|r| {
                matches!(
                    self.regions.get(*r).class,
                    RegionClass::Heap
                        | RegionClass::Immortal
                        | RegionClass::Shared
                        | RegionClass::SubInstance { .. }
                )
            })
            .collect();
        for r in &inherited {
            if !matches!(
                self.regions.get(*r).class,
                RegionClass::Heap | RegionClass::Immortal
            ) {
                self.regions.get_mut(*r).thread_count += 1;
            }
        }
        let id = ThreadId(self.threads.len() as u32);
        self.threads.push(ThreadRecord {
            id,
            class,
            region_stack: inherited,
            alive: true,
        });
        self.metrics.record_thread_spawned();
        self.emit(|at| TraceEvent::ThreadStart {
            at,
            thread: id,
            class,
        });
        id
    }

    /// Terminates a thread: its region-stack counts are released
    /// (innermost first), flushing or deleting regions as they empty.
    pub fn finish_thread(&mut self, t: ThreadId) -> Result<(), RtError> {
        let stack: Vec<RegionId> = self.threads[t.0 as usize].region_stack.clone();
        for r in stack.into_iter().rev() {
            if !matches!(
                self.regions.get(r).class,
                RegionClass::Heap | RegionClass::Immortal
            ) {
                self.emit(|at| TraceEvent::RegionExit {
                    at,
                    thread: t,
                    region: r,
                });
                self.release_region(r)?;
            }
        }
        let rec = &mut self.threads[t.0 as usize];
        rec.region_stack.clear();
        rec.alive = false;
        self.emit(|at| TraceEvent::ThreadStop { at, thread: t });
        Ok(())
    }

    /// The innermost region on a thread's stack (its allocation context).
    pub fn current_region(&self, t: ThreadId) -> RegionId {
        *self.threads[t.0 as usize]
            .region_stack
            .last()
            .unwrap_or(&self.heap)
    }

    // ------------------------------------------------------------- regions

    /// Looks up a region record.
    pub fn region(&self, r: RegionId) -> &RegionRecord {
        self.regions.get(r)
    }

    /// Creates a region (plus instances of all its declared subregions),
    /// pushes it on the creating thread's stack, and charges the creation
    /// cost (bookkeeping per region + zeroing of all transitive LT
    /// capacity).
    ///
    /// # Errors
    ///
    /// Real-time threads cannot create regions (creation allocates memory
    /// and synchronizes with the collector); detected when checks run.
    pub fn create_region(
        &mut self,
        t: ThreadId,
        spec: RegionSpec,
        shared: bool,
    ) -> Result<RegionId, RtError> {
        if self.threads[t.0 as usize].class == ThreadClass::RealTime {
            // A heap-allocation check site: region creation allocates.
            let ok = !self.mode.checks_run();
            self.note_check(t, CheckKind::HeapAlloc, 0, ok);
            if !ok {
                return Err(RtError::HeapAllocFromRealTime { thread: t });
            }
        }
        let outlived_by = self.regions.alive_ids().clone();
        let lt_bytes = spec.transitive_lt_bytes();
        let class = if shared {
            RegionClass::Shared
        } else {
            RegionClass::Local { owner: t }
        };
        let (id, n) = self.regions.create(spec, class, outlived_by);
        self.metrics.record_regions_created(n as u64);
        self.clock
            .advance(self.cost.region_create * n as u64 + self.cost.zeroing(lt_bytes));
        self.regions.get_mut(id).thread_count = 1;
        self.threads[t.0 as usize].region_stack.push(id);
        self.emit(|at| TraceEvent::RegionCreate {
            at,
            thread: t,
            region: id,
            count: n as u64,
        });
        self.emit(|at| TraceEvent::RegionEnter {
            at,
            thread: t,
            region: id,
            fresh: false,
        });
        Ok(id)
    }

    /// Exits a region previously created with [`Runtime::create_region`]
    /// (end of the lexical region block).
    pub fn exit_created_region(&mut self, t: ThreadId, r: RegionId) -> Result<(), RtError> {
        let stack = &mut self.threads[t.0 as usize].region_stack;
        match stack.pop() {
            Some(top) if top == r => {}
            other => {
                return Err(RtError::Protocol(format!(
                    "exit_created_region: expected region#{} on top of the stack, found {:?}",
                    r.0, other
                )))
            }
        }
        self.clock.advance(self.cost.region_enter_exit);
        self.emit(|at| TraceEvent::RegionExit {
            at,
            thread: t,
            region: r,
        });
        self.release_region(r)
    }

    /// Decrements a region's thread count and deletes/flushes it if it
    /// emptied.
    fn release_region(&mut self, r: RegionId) -> Result<(), RtError> {
        let rec = self.regions.get_mut(r);
        if rec.thread_count == 0 {
            return Err(RtError::Protocol(format!(
                "release of region#{} with zero count",
                r.0
            )));
        }
        rec.thread_count -= 1;
        let empty = rec.thread_count == 0;
        let deletes = matches!(rec.class, RegionClass::Local { .. } | RegionClass::Shared);
        let flushes = matches!(rec.class, RegionClass::SubInstance { .. });
        if deletes && empty {
            // A local region — or a top-level shared region — is deleted
            // when the last thread exits it.
            self.regions.delete(r);
            self.metrics.record_region_deleted();
            self.emit(|at| TraceEvent::RegionDelete { at, region: r });
        } else if flushes && empty && self.regions.can_flush(r) {
            // Subregions are *flushed* (not deleted) when empty, and only
            // if their portals are null and their own subregions are
            // flushed.
            self.regions.flush(r);
            self.metrics.record_region_flushed();
            self.emit(|at| TraceEvent::RegionFlush { at, region: r });
        }
        Ok(())
    }

    // -------------------------------------------- subregion enter/exit (2φ)

    /// Tries to take the bookkeeping lock of `region` (used around
    /// subregion entry/exit). Returns `false` if another thread holds it —
    /// the caller must retry later (this is the RTSJ priority-inversion
    /// window: a regular thread paused by the GC while holding the lock
    /// blocks a real-time thread trying to enter).
    pub fn try_lock_region(&mut self, t: ThreadId, region: RegionId) -> bool {
        let rec = self.regions.get_mut(region);
        match rec.lock {
            None => {
                rec.lock = Some(t);
                true
            }
            Some(holder) => holder == t,
        }
    }

    /// Releases the bookkeeping lock.
    pub fn unlock_region(&mut self, t: ThreadId, region: RegionId) -> Result<(), RtError> {
        let rec = self.regions.get_mut(region);
        if rec.lock != Some(t) {
            return Err(RtError::Protocol(format!(
                "thread#{} released a lock it does not hold on region#{}",
                t.0, region.0
            )));
        }
        rec.lock = None;
        Ok(())
    }

    /// Records cycles a real-time thread spent waiting for a region lock.
    pub fn note_rt_lock_wait(&mut self, cycles: u64) {
        self.metrics.record_rt_lock_wait(cycles);
        self.emit(|at| TraceEvent::RtLockWait { at, cycles });
    }

    /// The region whose bookkeeping lock must be held to enter subregion
    /// `member` of `parent`: the member's current *instance* (so disjoint
    /// subregions never contend — the basis of the type system's
    /// priority-inversion fix), or the parent itself when a `fresh`
    /// instance will replace the member.
    pub fn subregion_lock_target(
        &self,
        parent: RegionId,
        member: &str,
        fresh: bool,
    ) -> Result<RegionId, RtError> {
        if fresh {
            return Ok(parent);
        }
        self.regions
            .get(parent)
            .subs
            .get(member)
            .copied()
            .ok_or_else(|| RtError::Protocol(format!("no subregion member `{member}`")))
    }

    /// Enters subregion `member` of `parent`. The caller must hold the
    /// lock returned by [`Runtime::subregion_lock_target`]. With `fresh`,
    /// a brand-new instance replaces the current one. Returns the entered
    /// instance.
    ///
    /// # Errors
    ///
    /// Reservation violations (an RT thread entering a `NoRT` subregion or
    /// vice versa) when checks run; unknown members are protocol errors.
    pub fn enter_subregion_locked(
        &mut self,
        t: ThreadId,
        parent: RegionId,
        member: &str,
        fresh: bool,
    ) -> Result<RegionId, RtError> {
        let lock_target = self.subregion_lock_target(parent, member, fresh)?;
        if self.regions.get(lock_target).lock != Some(t) {
            return Err(RtError::Protocol(format!(
                "enter_subregion without holding the lock on region#{}",
                lock_target.0
            )));
        }
        let cur = *self
            .regions
            .get(parent)
            .subs
            .get(member)
            .ok_or_else(|| RtError::Protocol(format!("no subregion member `{member}`")))?;
        let target = if fresh {
            // Replace the member with a brand-new instance; the old one
            // lives on until its own threads exit.
            let spec = self.regions.get(cur).spec.clone();
            let mut outlives = self.regions.get(parent).outlived_by.clone();
            outlives.insert(parent);
            let gen = self.regions.get(cur).generation + 1;
            if self.threads[t.0 as usize].class == ThreadClass::RealTime {
                // Creating a fresh instance allocates memory: a
                // heap-allocation check site.
                let ok = !self.mode.checks_run();
                self.note_check(t, CheckKind::HeapAlloc, 0, ok);
                if !ok {
                    return Err(RtError::HeapAllocFromRealTime { thread: t });
                }
            }
            let lt = spec.transitive_lt_bytes();
            let (id, n) = self.regions.create(
                spec,
                RegionClass::SubInstance {
                    parent,
                    member: member.to_string(),
                },
                outlives,
            );
            self.metrics.record_regions_created(n as u64);
            self.clock
                .advance(self.cost.region_create * n as u64 + self.cost.zeroing(lt));
            self.regions.get_mut(id).generation = gen;
            self.regions
                .get_mut(parent)
                .subs
                .insert(member.to_string(), id);
            self.emit(|at| TraceEvent::RegionCreate {
                at,
                thread: t,
                region: id,
                count: n as u64,
            });
            id
        } else {
            cur
        };
        let tclass = self.threads[t.0 as usize].class;
        let rec = self.regions.get(target);
        let reservation = rec.spec.reservation;
        let state = rec.state;
        if reservation != Reservation::Any {
            // A reservation check site (only reserved subregions check).
            let bad = match reservation {
                Reservation::Any => false,
                Reservation::RtOnly => tclass == ThreadClass::Regular,
                Reservation::NoRtOnly => tclass == ThreadClass::RealTime,
            };
            let checked_bad = self.mode.checks_run() && bad;
            self.note_check(t, CheckKind::Reservation, 0, !checked_bad);
            if checked_bad {
                return Err(RtError::ReservationViolation {
                    thread: t,
                    region: target,
                });
            }
        }
        match state {
            RegionState::Alive => {}
            RegionState::Flushed => self.regions.revive(target),
            RegionState::Deleted => return Err(RtError::RegionNotAlive { region: target }),
        }
        self.regions.get_mut(target).thread_count += 1;
        self.threads[t.0 as usize].region_stack.push(target);
        self.clock.advance(self.cost.region_enter_exit);
        self.emit(|at| TraceEvent::RegionEnter {
            at,
            thread: t,
            region: target,
            fresh,
        });
        Ok(target)
    }

    /// Exits a subregion (the caller must hold the *instance's own* lock:
    /// the flushability test and the flush must be atomic). Flushes the
    /// instance if it emptied and is flushable.
    pub fn exit_subregion_locked(&mut self, t: ThreadId, r: RegionId) -> Result<(), RtError> {
        if !matches!(self.regions.get(r).class, RegionClass::SubInstance { .. }) {
            return Err(RtError::Protocol(format!(
                "region#{} is not a subregion instance",
                r.0
            )));
        }
        if self.regions.get(r).lock != Some(t) {
            return Err(RtError::Protocol(format!(
                "exit_subregion without holding the lock on region#{}",
                r.0
            )));
        }
        let stack = &mut self.threads[t.0 as usize].region_stack;
        match stack.pop() {
            Some(top) if top == r => {}
            other => {
                return Err(RtError::Protocol(format!(
                    "exit_subregion: expected region#{} on top of the stack, found {:?}",
                    r.0, other
                )))
            }
        }
        self.clock.advance(self.cost.region_enter_exit);
        self.emit(|at| TraceEvent::RegionExit {
            at,
            thread: t,
            region: r,
        });
        self.release_region(r)
    }

    // ---------------------------------------------------------- allocation

    /// Resolves a runtime owner to the region it denotes.
    pub fn owner_region(&self, o: RuntimeOwner) -> RegionId {
        match o {
            RuntimeOwner::Region(r) => r,
            RuntimeOwner::Object(obj) => self.objects.get(obj).region,
        }
    }

    /// Allocates an object owned by `first_owner` (and therefore in that
    /// owner's region), charging the policy-dependent cost. Its fields
    /// start null in the region's arena; `owners` is copied.
    ///
    /// # Errors
    ///
    /// LT capacity overflow (always checked — the paper's LT regions throw
    /// when undersized); heap/VT allocation from a real-time thread (when
    /// checks run); allocation into a dead region.
    pub fn alloc(
        &mut self,
        t: ThreadId,
        first_owner: RuntimeOwner,
        class_name: impl Into<Symbol>,
        owners: &[RuntimeOwner],
        n_fields: usize,
    ) -> Result<ObjId, RtError> {
        let class_name = class_name.into();
        let region = self.owner_region(first_owner);
        let rec = self.regions.get(region);
        if !rec.is_alive() {
            return Err(RtError::RegionNotAlive { region });
        }
        let policy = rec.spec.policy;
        let used = rec.used;
        let committed = rec.committed;
        let size = object_size(n_fields);
        let tclass = self.threads[t.0 as usize].class;
        let is_heap = region == self.heap;
        let mut cycles = self.cost.alloc_base + self.cost.zeroing(size);
        match policy {
            AllocPolicy::Lt { capacity } => {
                // The LT capacity check is *not* an elidable RTSJ check:
                // the paper's LT regions throw when undersized in every
                // mode, so it is not recorded as a check site.
                if used + size > capacity {
                    return Err(RtError::LtCapacityExceeded {
                        region,
                        capacity,
                        requested: size,
                    });
                }
            }
            AllocPolicy::Vt => {
                if is_heap {
                    if tclass == ThreadClass::RealTime {
                        let ok = !self.mode.checks_run();
                        self.note_check(t, CheckKind::HeapAlloc, 0, ok);
                        if !ok {
                            return Err(RtError::HeapAllocFromRealTime { thread: t });
                        }
                    }
                    cycles += self.cost.heap_alloc;
                    self.gc.debt += size;
                    if self.gc_enabled && self.gc.debt >= self.cost.gc_threshold_bytes {
                        self.gc.pending = true;
                        self.gc.debt = 0;
                    }
                } else if used + size > committed {
                    // Need a fresh chunk: variable-time work.
                    if tclass == ThreadClass::RealTime {
                        let ok = !self.mode.checks_run();
                        self.note_check(t, CheckKind::HeapAlloc, 0, ok);
                        if !ok {
                            return Err(RtError::HeapAllocFromRealTime { thread: t });
                        }
                    }
                    let needed = used + size - committed;
                    let chunks = needed.div_ceil(self.cost.vt_chunk_bytes);
                    cycles += self.cost.vt_chunk * chunks;
                    self.regions.get_mut(region).committed += chunks * self.cost.vt_chunk_bytes;
                }
            }
        }
        let rec = self.regions.get_mut(region);
        rec.used += size;
        rec.peak_used = rec.peak_used.max(rec.used);
        let field_span = Span {
            start: rec.arena.len() as u32,
            len: n_fields as u32,
        };
        rec.arena.resize(field_span.range().end, Value::Null);
        let id = self
            .objects
            .alloc(class_name, region, rec.epoch, owners, field_span);
        self.clock.advance(cycles);
        self.metrics.record_alloc(size, cycles);
        self.emit(|at| TraceEvent::Alloc {
            at,
            thread: t,
            region,
            object: id,
            class: class_name.to_string(),
            bytes: size,
            cycles,
        });
        Ok(id)
    }

    /// Initializes a field slot as part of object construction: no checks,
    /// no cost (the zeroing cost was charged by [`Runtime::alloc`]). Used
    /// by the interpreter to set primitive fields to `0`/`false`.
    pub fn init_field_raw(&mut self, obj: ObjId, idx: usize, v: Value) {
        *self.field_mut(obj, idx) = v;
    }

    /// A live object's field slot, for writing.
    fn field_mut(&mut self, obj: ObjId, idx: usize) -> &mut Value {
        let rec = self.objects.get(obj);
        &mut self.regions.get_mut(rec.region).arena[rec.slot(idx)]
    }

    /// Whether an object is alive: its region has been neither flushed nor
    /// deleted since the object was allocated.
    #[inline]
    pub fn is_alive(&self, obj: ObjId) -> bool {
        self.live(self.objects.get(obj))
    }

    /// Whether the object `rec` heads is alive: its region's epoch is
    /// still the one it was allocated at.
    #[inline]
    fn live(&self, rec: &ObjectRecord) -> bool {
        self.regions.get(rec.region).epoch == rec.epoch
    }

    /// The field slots of an object, in class layout order. Empty for
    /// dead objects.
    pub fn object_fields(&self, obj: ObjId) -> &[Value] {
        let rec = self.objects.get(obj);
        if !self.live(rec) {
            return &[];
        }
        &self.regions.get(rec.region).arena[rec.field_span.range()]
    }

    /// The region an object lives in.
    pub fn region_of(&self, obj: ObjId) -> RegionId {
        self.objects.get(obj).region
    }

    /// Read-only access to an object record.
    #[inline]
    pub fn object(&self, obj: ObjId) -> &ObjectRecord {
        self.objects.get(obj)
    }

    /// Read-only access to the object store.
    pub fn objects(&self) -> &ObjectStore {
        &self.objects
    }

    /// Number of region records ever created (including dead ones).
    pub(crate) fn regions_len(&self) -> usize {
        self.regions.len()
    }

    /// Per-region peak usage, labelled for sizing advice: one entry per
    /// region record as `(label, policy, peak bytes, capacity bytes)`.
    pub fn region_peaks(&self) -> Vec<(String, AllocPolicy, u64, u64)> {
        (0..self.regions.len() as u32)
            .map(RegionId)
            .map(|r| {
                let rec = self.regions.get(r);
                let label = match &rec.class {
                    RegionClass::Heap => "heap".to_string(),
                    RegionClass::Immortal => "immortal".to_string(),
                    RegionClass::Local { .. } => format!("local r{}", r.0),
                    RegionClass::Shared => format!(
                        "{} r{}",
                        rec.spec.kind_name.as_deref().unwrap_or("shared"),
                        r.0
                    ),
                    RegionClass::SubInstance { member, .. } => format!(
                        "{}.{member} r{}",
                        rec.spec.kind_name.as_deref().unwrap_or("sub"),
                        r.0
                    ),
                };
                let capacity = match rec.spec.policy {
                    AllocPolicy::Lt { capacity } => capacity,
                    AllocPolicy::Vt => rec.committed,
                };
                (label, rec.spec.policy, rec.peak_used, capacity)
            })
            .collect()
    }

    // ------------------------------------------------------ field accesses

    fn value_is_reflike(v: &Value) -> bool {
        matches!(v, Value::Ref(_) | Value::Null)
    }

    /// Checks a reference load by thread `t` that produced `v` from an
    /// object or portal in `holder_region`.
    ///
    /// As in the RTSJ, reference *loads* are only checked for
    /// `NoHeapRealtimeThread`s (the read barrier keeps them away from heap
    /// references); regular threads pay no per-load cost. The site is
    /// recorded in every mode — charged, audited, or elided — so elision
    /// counts line up one-to-one with the checks a `Dynamic` run performs.
    fn check_load(
        &mut self,
        t: ThreadId,
        holder_region: RegionId,
        v: &Value,
    ) -> Result<(), RtError> {
        if !Self::value_is_reflike(v) || self.threads[t.0 as usize].class != ThreadClass::RealTime {
            return Ok(());
        }
        // A reference-check site. Evaluate the predicate only when the
        // check runs; an elided check cannot fail.
        let err: Option<RtError> = if self.mode.checks_run() {
            if holder_region == self.heap {
                Some(if let Value::Ref(o) = v {
                    RtError::HeapRefFromRealTime {
                        thread: t,
                        object: *o,
                    }
                } else {
                    RtError::HeapAllocFromRealTime { thread: t }
                })
            } else if let Value::Ref(o) = v {
                if self.objects.get(*o).region == self.heap {
                    Some(RtError::HeapRefFromRealTime {
                        thread: t,
                        object: *o,
                    })
                } else {
                    None
                }
            } else {
                None
            }
        } else {
            None
        };
        self.note_check(t, CheckKind::Reference, self.cost.load_check, err.is_none());
        match err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Checks a reference store of `new` over `old` into `holder_region`.
    ///
    /// The counted site is a store of an actual reference (storing `null`
    /// is always legal and free). One uncounted failure path remains: a
    /// real-time thread overwriting a heap reference with `null` fails
    /// when checks run but is not a check site — mirroring the RTSJ,
    /// whose write barrier only prices reference stores.
    fn check_store(
        &mut self,
        t: ThreadId,
        holder_region: RegionId,
        old: &Value,
        new: &Value,
    ) -> Result<(), RtError> {
        if !(Self::value_is_reflike(new) || Self::value_is_reflike(old)) {
            return Ok(());
        }
        let counted = matches!(new, Value::Ref(_));
        let err: Option<RtError> = if self.mode.checks_run() {
            // The RTSJ assignment check: the stored reference's region
            // must outlive the holder's region.
            let mut found = None;
            if let Value::Ref(o) = new {
                let vr = self.objects.get(*o).region;
                if !self.regions.outlives(vr, holder_region) {
                    found = Some(RtError::IllegalAssignment {
                        holder_region,
                        value_region: vr,
                    });
                }
            }
            // Real-time threads must not create or destroy heap
            // references.
            if found.is_none() && self.threads[t.0 as usize].class == ThreadClass::RealTime {
                for v in [old, new] {
                    if let Value::Ref(o) = v {
                        if self.objects.get(*o).region == self.heap {
                            found = Some(RtError::HeapRefFromRealTime {
                                thread: t,
                                object: *o,
                            });
                            break;
                        }
                    }
                }
            }
            found
        } else {
            None
        };
        if counted {
            self.note_check(
                t,
                CheckKind::Assignment,
                self.cost.store_check,
                err.is_none(),
            );
        }
        match err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Loads a field.
    ///
    /// # Errors
    ///
    /// Dangling access to a dead object (well-typed programs never do
    /// this); RTSJ reference-check failures when checks run.
    #[inline]
    pub fn load_field(&mut self, t: ThreadId, obj: ObjId, idx: usize) -> Result<Value, RtError> {
        self.clock.advance(self.cost.field_access);
        let rec = self.objects.get(obj);
        if !self.live(rec) {
            return Err(RtError::DanglingReference { object: obj });
        }
        let region = rec.region;
        let v = self.regions.get(region).arena[rec.slot(idx)].clone();
        self.check_load(t, region, &v)?;
        Ok(v)
    }

    /// Stores a field.
    ///
    /// # Errors
    ///
    /// Dangling access; illegal assignment (value's region does not
    /// outlive the holder's); RT heap-reference violations — when checks
    /// run.
    #[inline]
    pub fn store_field(
        &mut self,
        t: ThreadId,
        obj: ObjId,
        idx: usize,
        v: Value,
    ) -> Result<(), RtError> {
        self.clock.advance(self.cost.field_access);
        let rec = self.objects.get(obj);
        if !self.live(rec) {
            return Err(RtError::DanglingReference { object: obj });
        }
        let region = rec.region;
        let old = &self.regions.get(region).arena[rec.slot(idx)];
        // The check reads the old value only when a reference is involved.
        if Self::value_is_reflike(&v) || Self::value_is_reflike(old) {
            let old = old.clone();
            self.check_store(t, region, &old, &v)?;
        }
        *self.field_mut(obj, idx) = v;
        Ok(())
    }

    /// Loads a portal field of a region.
    pub fn load_portal(&mut self, t: ThreadId, r: RegionId, name: &str) -> Result<Value, RtError> {
        self.clock.advance(self.cost.field_access);
        let rec = self.regions.get(r);
        if !rec.is_alive() {
            return Err(RtError::RegionNotAlive { region: r });
        }
        let v = rec
            .portals
            .get(name)
            .cloned()
            .ok_or_else(|| RtError::Protocol(format!("no portal `{name}`")))?;
        self.check_load(t, r, &v)?;
        self.emit(|at| TraceEvent::PortalRead {
            at,
            thread: t,
            region: r,
            name: name.to_string(),
        });
        Ok(v)
    }

    /// Stores a portal field of a region. The portal rule is the field
    /// rule: the value must be allocated in `r` or a region outliving `r`.
    pub fn store_portal(
        &mut self,
        t: ThreadId,
        r: RegionId,
        name: &str,
        v: Value,
    ) -> Result<(), RtError> {
        self.clock.advance(self.cost.field_access);
        let rec = self.regions.get(r);
        if !rec.is_alive() {
            return Err(RtError::RegionNotAlive { region: r });
        }
        let old = rec
            .portals
            .get(name)
            .ok_or_else(|| RtError::Protocol(format!("no portal `{name}`")))?;
        // The check reads the old value only when a reference is involved.
        if Self::value_is_reflike(&v) || Self::value_is_reflike(old) {
            let old = old.clone();
            self.check_store(t, r, &old, &v)?;
        }
        let slot = self.regions.get_mut(r).portals.get_mut(name);
        *slot.expect("the portal was found above") = v;
        self.emit(|at| TraceEvent::PortalWrite {
            at,
            thread: t,
            region: r,
            name: name.to_string(),
        });
        Ok(())
    }

    // ------------------------------------------------------------------ GC

    /// Polls the collector at a safepoint: starts a pending collection.
    pub fn poll_gc(&mut self) {
        if self.gc.pending && self.gc.collecting_until.is_none() {
            self.gc.pending = false;
            self.gc.collecting_until = Some(self.clock.now() + self.cost.gc_pause);
            let pause = self.cost.gc_pause;
            self.metrics.record_gc(pause);
            self.emit(|at| TraceEvent::Gc {
                at,
                pause_cycles: pause,
            });
        }
        if let Some(until) = self.gc.collecting_until {
            if self.clock.now() >= until {
                self.gc.collecting_until = None;
            }
        }
    }

    /// Whether the collector has nothing to do at a safepoint: no
    /// collection is pending or running.
    pub fn gc_idle(&self) -> bool {
        !self.gc.pending && self.gc.collecting_until.is_none()
    }

    /// If a collection is in progress, the virtual time regular threads
    /// are paused until.
    pub fn gc_blocking_until(&self) -> Option<u64> {
        self.gc
            .collecting_until
            .filter(|until| self.clock.now() < *until)
    }

    /// Forces a collection to start now (used by the priority-inversion
    /// experiment).
    pub fn force_gc(&mut self) {
        self.gc.pending = true;
        self.poll_gc();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rt() -> Runtime {
        Runtime::with_mode(CheckMode::Dynamic)
    }

    fn spec_buffer() -> RegionSpec {
        RegionSpec {
            kind_name: Some("BufferRegion".into()),
            policy: AllocPolicy::Vt,
            reservation: Reservation::Any,
            portals: vec![],
            subregions: vec![(
                "b".into(),
                RegionSpec {
                    kind_name: Some("BufferSubRegion".into()),
                    policy: AllocPolicy::Lt { capacity: 4096 },
                    reservation: Reservation::Any,
                    portals: vec!["f".into()],
                    subregions: vec![],
                },
            )],
        }
    }

    #[test]
    fn alloc_in_local_region_and_delete_on_exit() {
        let mut r = rt();
        let t = r.main_thread();
        let region = r.create_region(t, RegionSpec::plain_vt(), false).unwrap();
        let obj = r
            .alloc(t, RuntimeOwner::Region(region), "C", &[], 2)
            .unwrap();
        assert!(r.is_alive(obj));
        assert_eq!(r.current_region(t), region);
        r.exit_created_region(t, region).unwrap();
        assert!(!r.is_alive(obj), "objects die with their region");
        assert!(
            r.object_fields(obj).is_empty(),
            "a dead object shows no fields"
        );
        assert_eq!(r.current_region(t), r.heap());
    }

    #[test]
    fn illegal_assignment_detected() {
        let mut r = rt();
        let t = r.main_thread();
        let outer = r.create_region(t, RegionSpec::plain_vt(), false).unwrap();
        let outer_obj = r
            .alloc(t, RuntimeOwner::Region(outer), "Outer", &[], 1)
            .unwrap();
        let inner = r.create_region(t, RegionSpec::plain_vt(), false).unwrap();
        let inner_obj = r
            .alloc(t, RuntimeOwner::Region(inner), "Inner", &[], 1)
            .unwrap();
        // Inner object into outer object's field: illegal (inner dies first).
        let e = r
            .store_field(t, outer_obj, 0, Value::Ref(inner_obj))
            .unwrap_err();
        assert!(matches!(e, RtError::IllegalAssignment { .. }));
        // The other direction is fine.
        r.store_field(t, inner_obj, 0, Value::Ref(outer_obj))
            .unwrap_or_else(|e| panic!("legal store failed: {e}"));
    }

    #[test]
    fn static_mode_skips_checks() {
        let mut r = Runtime::with_mode(CheckMode::Static);
        let t = r.main_thread();
        let outer = r.create_region(t, RegionSpec::plain_vt(), false).unwrap();
        let outer_obj = r
            .alloc(t, RuntimeOwner::Region(outer), "O", &[], 1)
            .unwrap();
        let inner = r.create_region(t, RegionSpec::plain_vt(), false).unwrap();
        let inner_obj = r
            .alloc(t, RuntimeOwner::Region(inner), "I", &[], 0)
            .unwrap();
        // No check fires in static mode (the type system would have
        // rejected this program).
        r.store_field(t, outer_obj, 0, Value::Ref(inner_obj))
            .unwrap();
        assert_eq!(
            r.metrics_snapshot().check(CheckKind::Assignment).performed,
            0
        );
        // But dangling access still fails hard.
        r.exit_created_region(t, inner).unwrap();
        let e = r.load_field(t, inner_obj, 0).unwrap_err();
        assert!(matches!(e, RtError::DanglingReference { .. }));
    }

    /// A short legal workout touching several check sites.
    fn workout(r: &mut Runtime) {
        let t = r.main_thread();
        let region = r.create_region(t, RegionSpec::plain_vt(), false).unwrap();
        let a = r
            .alloc(t, RuntimeOwner::Region(region), "A", &[], 1)
            .unwrap();
        let b = r
            .alloc(t, RuntimeOwner::Region(region), "B", &[], 0)
            .unwrap();
        r.store_field(t, a, 0, Value::Ref(b)).unwrap();
        let rt_thread = r.spawn_thread(t, ThreadClass::RealTime);
        // RT loads from a non-heap region: reference-check sites.
        r.load_field(rt_thread, a, 0).unwrap();
        r.load_field(rt_thread, a, 0).unwrap();
        r.finish_thread(rt_thread).unwrap();
        r.exit_created_region(t, region).unwrap();
    }

    #[test]
    fn static_elisions_mirror_dynamic_checks() {
        let mut dynamic = Runtime::with_mode(CheckMode::Dynamic);
        workout(&mut dynamic);
        let mut fully_static = Runtime::with_mode(CheckMode::Static);
        workout(&mut fully_static);
        let d = dynamic.metrics_snapshot();
        let s = fully_static.metrics_snapshot();
        assert!(d.checks_performed() > 0);
        assert_eq!(d.checks_elided(), 0);
        assert_eq!(s.checks_performed(), 0);
        for kind in CheckKind::ALL {
            assert_eq!(
                s.check(kind).elided,
                d.check(kind).performed,
                "elision parity for {}",
                kind.name()
            );
            assert_eq!(d.check(kind).failed, 0);
            assert_eq!(s.check(kind).failed, 0);
        }
        assert_eq!(s.check_cycles(), 0, "elided checks cost nothing");
        assert!(
            s.total_cycles < d.total_cycles,
            "static runs are cheaper: {} vs {}",
            s.total_cycles,
            d.total_cycles
        );
    }

    #[test]
    fn failed_checks_are_counted() {
        let mut r = rt();
        let t = r.main_thread();
        let outer = r.create_region(t, RegionSpec::plain_vt(), false).unwrap();
        let outer_obj = r
            .alloc(t, RuntimeOwner::Region(outer), "O", &[], 1)
            .unwrap();
        let inner = r.create_region(t, RegionSpec::plain_vt(), false).unwrap();
        let inner_obj = r
            .alloc(t, RuntimeOwner::Region(inner), "I", &[], 0)
            .unwrap();
        r.store_field(t, outer_obj, 0, Value::Ref(inner_obj))
            .unwrap_err();
        let snap = r.metrics_snapshot();
        assert_eq!(snap.check(CheckKind::Assignment).performed, 1);
        assert_eq!(snap.check(CheckKind::Assignment).failed, 1);
    }

    #[test]
    fn event_capture_records_the_run() {
        use crate::json::Json;

        let mut r = rt();
        r.capture_events();
        workout(&mut r);
        let lines = r.take_events().expect("capture started");
        assert_eq!(r.take_events(), None, "taking the trace stops the capture");
        let mut tags = std::collections::BTreeSet::new();
        let mut last_at = 0;
        for line in &lines {
            let v = Json::parse(line).unwrap_or_else(|e| panic!("invalid JSONL `{line}`: {e}"));
            let at = v.get("at").and_then(Json::as_u64).expect("at field");
            assert!(at >= last_at, "virtual timestamps are non-decreasing");
            last_at = at;
            tags.insert(v.get("ev").and_then(Json::as_str).unwrap().to_string());
        }
        for expected in [
            "thread_start",
            "thread_stop",
            "region_create",
            "region_enter",
            "region_exit",
            "region_delete",
            "alloc",
            "check",
        ] {
            assert!(tags.contains(expected), "missing `{expected}` in {tags:?}");
        }
        // Untraced runs emit nothing and behave identically.
        let mut plain = rt();
        workout(&mut plain);
        assert_eq!(plain.now(), r.now(), "tracing does not perturb the clock");
        assert_eq!(plain.metrics_snapshot(), r.metrics_snapshot());
    }

    #[test]
    fn check_costs_charged_only_in_dynamic_mode() {
        for (mode, expect_cost) in [(CheckMode::Dynamic, true), (CheckMode::Audit, false)] {
            let mut r = Runtime::with_mode(mode);
            let t = r.main_thread();
            let a = r
                .alloc(t, RuntimeOwner::Region(r.heap()), "A", &[], 1)
                .unwrap();
            let b = r
                .alloc(t, RuntimeOwner::Region(r.heap()), "B", &[], 0)
                .unwrap();
            let before = r.now();
            r.store_field(t, a, 0, Value::Ref(b)).unwrap();
            let cost = r.now() - before;
            assert_eq!(
                r.metrics_snapshot().check(CheckKind::Assignment).performed,
                1
            );
            let field = r.cost_model().field_access;
            if expect_cost {
                assert_eq!(cost, field + r.cost_model().store_check);
            } else {
                assert_eq!(cost, field);
            }
        }
    }

    #[test]
    fn lt_region_overflow() {
        let mut r = rt();
        let t = r.main_thread();
        let region = r
            .create_region(
                t,
                RegionSpec {
                    policy: AllocPolicy::Lt { capacity: 64 },
                    ..RegionSpec::plain_vt()
                },
                false,
            )
            .unwrap();
        // 16 header + 8 = 24 bytes each; two fit (48), the third does not.
        r.alloc(t, RuntimeOwner::Region(region), "C", &[], 1)
            .unwrap();
        r.alloc(t, RuntimeOwner::Region(region), "C", &[], 1)
            .unwrap();
        let e = r
            .alloc(t, RuntimeOwner::Region(region), "C", &[], 1)
            .unwrap_err();
        assert!(matches!(e, RtError::LtCapacityExceeded { .. }));
    }

    #[test]
    fn lt_alloc_cost_linear_in_size() {
        let mut r = rt();
        let t = r.main_thread();
        let region = r
            .create_region(
                t,
                RegionSpec {
                    policy: AllocPolicy::Lt { capacity: 1 << 20 },
                    ..RegionSpec::plain_vt()
                },
                false,
            )
            .unwrap();
        let m = r.cost_model().clone();
        let before = r.now();
        r.alloc(t, RuntimeOwner::Region(region), "C", &[], 0)
            .unwrap();
        let c0 = r.now() - before;
        let before = r.now();
        r.alloc(t, RuntimeOwner::Region(region), "C", &[], 8)
            .unwrap();
        let c8 = r.now() - before;
        assert_eq!(c0, m.alloc_base + m.zeroing(object_size(0)));
        assert_eq!(c8, m.alloc_base + m.zeroing(object_size(8)));
        assert!(c8 > c0, "zeroing scales with size");
    }

    #[test]
    fn rt_thread_restrictions() {
        let mut r = rt();
        let main = r.main_thread();
        let shared = r.create_region(main, spec_buffer(), true).unwrap();
        let rt_thread = r.spawn_thread(main, ThreadClass::RealTime);
        // RT thread cannot allocate on the heap.
        let e = r
            .alloc(rt_thread, RuntimeOwner::Region(r.heap()), "C", &[], 0)
            .unwrap_err();
        assert!(matches!(e, RtError::HeapAllocFromRealTime { .. }));
        // RT thread cannot create regions.
        let e = r
            .create_region(rt_thread, RegionSpec::plain_vt(), false)
            .unwrap_err();
        assert!(matches!(e, RtError::HeapAllocFromRealTime { .. }));
        // RT thread cannot read heap references.
        let heap_obj = r
            .alloc(main, RuntimeOwner::Region(r.heap()), "H", &[], 1)
            .unwrap();
        let shared_obj = r
            .alloc(main, RuntimeOwner::Region(shared), "S", &[], 1)
            .unwrap();
        r.store_field(main, shared_obj, 0, Value::Ref(heap_obj))
            .unwrap();
        let e = r.load_field(rt_thread, shared_obj, 0).unwrap_err();
        assert!(matches!(e, RtError::HeapRefFromRealTime { .. }));
    }

    #[test]
    fn shared_region_refcounting_and_subregion_flush() {
        let mut r = rt();
        let main = r.main_thread();
        let shared = r.create_region(main, spec_buffer(), true).unwrap();
        let child = r.spawn_thread(main, ThreadClass::Regular);
        assert_eq!(r.region(shared).thread_count, 2);

        // Child enters the subregion, allocates, stores a portal, exits:
        // not flushed (portal non-null).
        let lock = r.subregion_lock_target(shared, "b", false).unwrap();
        assert!(r.try_lock_region(child, lock));
        let sub = r.enter_subregion_locked(child, shared, "b", false).unwrap();
        r.unlock_region(child, lock).unwrap();
        assert_eq!(lock, sub, "the lock lives on the instance itself");
        let frame = r
            .alloc(child, RuntimeOwner::Region(sub), "Frame", &[], 0)
            .unwrap();
        r.store_portal(child, sub, "f", Value::Ref(frame)).unwrap();
        assert!(r.try_lock_region(child, sub));
        r.exit_subregion_locked(child, sub).unwrap();
        r.unlock_region(child, sub).unwrap();
        assert!(r.is_alive(frame), "portal keeps the subregion alive");

        // Main enters, nulls the portal, exits: now it flushes.
        assert!(r.try_lock_region(main, sub));
        let sub2 = r.enter_subregion_locked(main, shared, "b", false).unwrap();
        r.unlock_region(main, sub).unwrap();
        assert_eq!(sub2, sub, "same instance re-entered");
        r.store_portal(main, sub, "f", Value::Null).unwrap();
        assert!(r.try_lock_region(main, sub));
        r.exit_subregion_locked(main, sub).unwrap();
        r.unlock_region(main, sub).unwrap();
        assert!(!r.is_alive(frame), "flushed after portal cleared");
        assert_eq!(r.metrics_snapshot().regions_flushed, 1);

        // LT memory retained: re-entry and allocation needs no new commit.
        assert_eq!(r.region(sub).committed, 4096);

        // Threads exit the shared region; it is deleted at count zero.
        r.finish_thread(child).unwrap();
        assert_eq!(r.region(shared).thread_count, 1);
        r.exit_created_region(main, shared).unwrap();
        assert_eq!(r.region(shared).state, RegionState::Deleted);
    }

    #[test]
    fn objects_of_a_flushed_subregion_stay_dead_after_reentry() {
        let mut r = rt();
        let main = r.main_thread();
        let shared = r.create_region(main, spec_buffer(), true).unwrap();
        let enter = |r: &mut Runtime| {
            let lock = r.subregion_lock_target(shared, "b", false).unwrap();
            assert!(r.try_lock_region(main, lock));
            let sub = r.enter_subregion_locked(main, shared, "b", false).unwrap();
            r.unlock_region(main, lock).unwrap();
            sub
        };
        let exit = |r: &mut Runtime, sub| {
            assert!(r.try_lock_region(main, sub));
            r.exit_subregion_locked(main, sub).unwrap();
            r.unlock_region(main, sub).unwrap();
        };
        let sub = enter(&mut r);
        let old = r
            .alloc(main, RuntimeOwner::Region(sub), "Frame", &[], 1)
            .unwrap();
        r.store_field(main, old, 0, Value::Int(1)).unwrap();
        exit(&mut r, sub);
        assert!(!r.is_alive(old), "the flush killed it");
        // Re-entry reuses the arena from its start: the new object takes
        // the old one's slot, and the old one stays dead.
        assert_eq!(enter(&mut r), sub);
        let new = r
            .alloc(main, RuntimeOwner::Region(sub), "Frame", &[], 1)
            .unwrap();
        assert_eq!(r.object(new).field_span, r.object(old).field_span);
        assert!(r.is_alive(new) && !r.is_alive(old));
        assert_eq!(r.object_fields(new), &[Value::Null], "fields start null");
        let e = r.load_field(main, old, 0).unwrap_err();
        assert!(matches!(e, RtError::DanglingReference { .. }));
        let e = r.store_field(main, old, 0, Value::Int(2)).unwrap_err();
        assert!(matches!(e, RtError::DanglingReference { .. }));
        assert_eq!(r.object_fields(old), &[] as &[Value]);
    }

    #[test]
    fn fresh_subregion_instances() {
        let mut r = rt();
        let main = r.main_thread();
        let shared = r.create_region(main, spec_buffer(), true).unwrap();
        let s1 = r.subregion_lock_target(shared, "b", false).unwrap();
        assert!(r.try_lock_region(main, s1));
        let entered = r.enter_subregion_locked(main, shared, "b", false).unwrap();
        assert_eq!(entered, s1);
        r.exit_subregion_locked(main, s1).unwrap();
        r.unlock_region(main, s1).unwrap();
        // A fresh instance is created under the *parent's* lock.
        assert!(r.try_lock_region(main, shared));
        let s2 = r.enter_subregion_locked(main, shared, "b", true).unwrap();
        r.unlock_region(main, shared).unwrap();
        assert_ne!(s1, s2);
        assert_eq!(r.region(s2).generation, 1);
        assert_eq!(r.subregion_lock_target(shared, "b", false).unwrap(), s2);
    }

    #[test]
    fn reservation_enforced() {
        let mut r = rt();
        let main = r.main_thread();
        let spec = RegionSpec {
            subregions: vec![(
                "q".into(),
                RegionSpec {
                    policy: AllocPolicy::Lt { capacity: 1024 },
                    reservation: Reservation::RtOnly,
                    ..RegionSpec::plain_vt()
                },
            )],
            ..spec_buffer()
        };
        let shared = r.create_region(main, spec, true).unwrap();
        let lock = r.subregion_lock_target(shared, "q", false).unwrap();
        assert!(r.try_lock_region(main, lock));
        let e = r
            .enter_subregion_locked(main, shared, "q", false)
            .unwrap_err();
        assert!(matches!(e, RtError::ReservationViolation { .. }));
    }

    #[test]
    fn gc_pauses_regular_threads_only() {
        let mut r = rt();
        r.enable_gc(true);
        let main = r.main_thread();
        // Allocate past the GC threshold.
        let threshold = r.cost_model().gc_threshold_bytes;
        let per = object_size(8);
        let n = threshold / per + 1;
        for _ in 0..n {
            r.alloc(main, RuntimeOwner::Region(r.heap()), "X", &[], 8)
                .unwrap();
        }
        r.poll_gc();
        assert_eq!(r.metrics_snapshot().gc_collections, 1);
        assert!(r.gc_blocking_until().is_some());
        let until = r.gc_blocking_until().unwrap();
        r.charge(until - r.now());
        r.poll_gc();
        assert!(r.gc_blocking_until().is_none());
    }

    #[test]
    fn region_lock_protocol() {
        let mut r = rt();
        let main = r.main_thread();
        let other = r.spawn_thread(main, ThreadClass::RealTime);
        let shared = r.create_region(main, spec_buffer(), true).unwrap();
        assert!(r.try_lock_region(main, shared));
        assert!(r.try_lock_region(main, shared), "re-entrant for holder");
        assert!(!r.try_lock_region(other, shared), "blocked");
        r.unlock_region(main, shared).unwrap();
        assert!(r.try_lock_region(other, shared));
        assert!(r.unlock_region(main, shared).is_err());
        r.note_rt_lock_wait(500);
        r.note_rt_lock_wait(200);
        assert_eq!(r.metrics_snapshot().rt_lock_wait_cycles, 700);
        assert_eq!(r.metrics_snapshot().rt_max_lock_wait, 500);
    }

    #[test]
    fn vt_chunk_costs() {
        let mut r = rt();
        let t = r.main_thread();
        let region = r.create_region(t, RegionSpec::plain_vt(), false).unwrap();
        let m = r.cost_model().clone();
        let before = r.now();
        r.alloc(t, RuntimeOwner::Region(region), "C", &[], 0)
            .unwrap();
        let first = r.now() - before;
        let before = r.now();
        r.alloc(t, RuntimeOwner::Region(region), "C", &[], 0)
            .unwrap();
        let second = r.now() - before;
        assert_eq!(first, second + m.vt_chunk, "first alloc grabs a chunk");
    }

    #[test]
    fn owner_region_resolution() {
        let mut r = rt();
        let t = r.main_thread();
        let region = r.create_region(t, RegionSpec::plain_vt(), false).unwrap();
        let owner_obj = r
            .alloc(t, RuntimeOwner::Region(region), "Owner", &[], 0)
            .unwrap();
        // An object owned by another object is allocated in the owner's
        // region (property O2).
        let owned = r
            .alloc(t, RuntimeOwner::Object(owner_obj), "Owned", &[], 0)
            .unwrap();
        assert_eq!(r.region_of(owned), region);
    }
}
