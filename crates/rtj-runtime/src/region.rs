//! Region records and the region table.
//!
//! Regions come in four classes: the garbage-collected **heap**, the
//! **immortal** region, lexically scoped thread-local **local** regions,
//! and **shared** regions (with reference counts and subregion instances).
//! Subregion *instances* are created eagerly when their parent is created,
//! so LT memory can be preallocated transitively, as the paper requires.

use crate::value::{AllocPolicy, RegionId, Reservation, ThreadId, Value};
use std::collections::{BTreeMap, BTreeSet};

/// A static description of a region to create: its kind, policy,
/// reservation, portal fields, and subregion members (recursively).
/// The interpreter derives this from the `regionKind` declarations.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RegionSpec {
    /// Region-kind name (`None` for plain `SharedRegion` / local regions).
    pub kind_name: Option<String>,
    /// Allocation policy.
    pub policy: AllocPolicy,
    /// Which thread class may enter (subregions only).
    pub reservation: Reservation,
    /// Portal field names (initialized to `null`).
    pub portals: Vec<String>,
    /// Subregion members: `(member name, spec)`.
    pub subregions: Vec<(String, RegionSpec)>,
}

impl RegionSpec {
    /// A plain VT region with no kind, portals, or subregions.
    pub fn plain_vt() -> Self {
        RegionSpec::default()
    }

    /// Total preallocated (LT) bytes of this region and all transitive
    /// subregions — the memory reserved at creation time, pinned at
    /// `u64::MAX`.
    pub fn transitive_lt_bytes(&self) -> u64 {
        let own = match self.policy {
            AllocPolicy::Lt { capacity } => capacity,
            AllocPolicy::Vt => 0,
        };
        (self.subregions.iter())
            .map(|(_, s)| s.transitive_lt_bytes())
            .fold(own, u64::saturating_add)
    }
}

/// What kind of region a record is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegionClass {
    /// The garbage-collected heap.
    Heap,
    /// The immortal region.
    Immortal,
    /// A lexically scoped, thread-local region.
    Local {
        /// The thread that created it.
        owner: ThreadId,
    },
    /// A top-level shared region (reference counted).
    Shared,
    /// An instance of a declared subregion member.
    SubInstance {
        /// The parent region.
        parent: RegionId,
        /// The member name in the parent's kind.
        member: String,
    },
}

/// Lifecycle state of a region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegionState {
    /// Objects may be allocated and accessed.
    Alive,
    /// Objects dead; LT memory retained; the region can be re-entered
    /// (subregion instances only).
    Flushed,
    /// Gone for good.
    Deleted,
}

/// One region.
#[derive(Debug, Clone)]
pub struct RegionRecord {
    /// This region's id.
    pub id: RegionId,
    /// The spec it was created from.
    pub spec: RegionSpec,
    /// Heap / immortal / local / shared / subregion instance.
    pub class: RegionClass,
    /// Lifecycle state.
    pub state: RegionState,
    /// Bytes currently allocated to objects.
    pub used: u64,
    /// High-water mark of `used` over the region's whole life (including
    /// across flushes) — the basis for LT sizing advice.
    pub peak_used: u64,
    /// Bytes of memory committed (LT capacity, or VT chunks acquired).
    pub committed: u64,
    /// Number of threads currently in this region (shared regions).
    pub thread_count: u32,
    /// Portal fields.
    pub portals: BTreeMap<String, Value>,
    /// Current instance of each subregion member.
    pub subs: BTreeMap<String, RegionId>,
    /// Regions guaranteed to outlive this one (`heap`/`immortal` implicit).
    pub outlived_by: BTreeSet<RegionId>,
    /// Bumped by every flush and every delete of this region. An object
    /// allocated here is alive while this still equals the epoch it was
    /// allocated at, so a flush or delete kills all of them in O(1).
    pub epoch: u64,
    /// Bumped every time a `new` subregion instance replaces this member.
    pub generation: u32,
    /// Entry/exit bookkeeping lock (priority-inversion modelling).
    pub lock: Option<ThreadId>,
    /// Slot arena of the objects allocated here, whatever the policy:
    /// each object's fields are a span of it, so allocation appends. A
    /// flush clears it in O(1) and keeps its host capacity; a delete
    /// releases it. Only the virtual `committed` accounting tells LT
    /// from VT.
    pub arena: Vec<Value>,
}

impl RegionRecord {
    /// Whether objects can currently be allocated/accessed here.
    pub fn is_alive(&self) -> bool {
        self.state == RegionState::Alive
    }
}

/// The table of all regions.
#[derive(Debug, Clone, Default)]
pub struct RegionTable {
    records: Vec<RegionRecord>,
    /// The ids of the regions currently alive, kept as their states
    /// change: what a new region records as outliving it.
    alive: BTreeSet<RegionId>,
    /// Reusable work stack for the flush/delete cascades, so region exit
    /// does not allocate a fresh `Vec` of subregion ids per call.
    scratch: Vec<RegionId>,
}

impl RegionTable {
    /// Creates a region (and, recursively, instances of all its declared
    /// subregions). Returns the new region's id and the total number of
    /// regions created (for cost accounting).
    pub fn create(
        &mut self,
        spec: RegionSpec,
        class: RegionClass,
        outlived_by: BTreeSet<RegionId>,
    ) -> (RegionId, u32) {
        let id = RegionId(self.records.len() as u32);
        let committed = match spec.policy {
            AllocPolicy::Lt { capacity } => capacity,
            AllocPolicy::Vt => 0,
        };
        let portals = spec
            .portals
            .iter()
            .map(|n| (n.clone(), Value::Null))
            .collect();
        self.records.push(RegionRecord {
            id,
            spec: spec.clone(),
            class,
            state: RegionState::Alive,
            used: 0,
            peak_used: 0,
            committed,
            thread_count: 0,
            portals,
            subs: BTreeMap::new(),
            outlived_by,
            epoch: 0,
            generation: 0,
            lock: None,
            arena: Vec::new(),
        });
        self.alive.insert(id);
        let mut created = 1;
        for (member, sub_spec) in &spec.subregions {
            let mut sub_outlives = self.records[id.0 as usize].outlived_by.clone();
            sub_outlives.insert(id);
            let (sub_id, n) = self.create(
                sub_spec.clone(),
                RegionClass::SubInstance {
                    parent: id,
                    member: member.clone(),
                },
                sub_outlives,
            );
            created += n;
            self.records[id.0 as usize]
                .subs
                .insert(member.clone(), sub_id);
        }
        (id, created)
    }

    /// Immutable access.
    pub fn get(&self, id: RegionId) -> &RegionRecord {
        &self.records[id.0 as usize]
    }

    /// Mutable access.
    pub fn get_mut(&mut self, id: RegionId) -> &mut RegionRecord {
        &mut self.records[id.0 as usize]
    }

    /// All region ids currently alive.
    pub fn alive_ids(&self) -> &BTreeSet<RegionId> {
        &self.alive
    }

    /// Number of records ever created.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether no regions exist (never true once heap/immortal are made).
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Whether `a` outlives `b` at runtime: identical, everlasting, or
    /// recorded in `b`'s outlived-by set.
    pub fn outlives(&self, a: RegionId, b: RegionId) -> bool {
        if a == b {
            return true;
        }
        let ra = self.get(a);
        if matches!(ra.class, RegionClass::Heap | RegionClass::Immortal) {
            return true;
        }
        self.get(b).outlived_by.contains(&a)
    }

    /// Whether a (sub)region can be flushed right now: no threads inside,
    /// all portals null, and every subregion instance flushable or already
    /// flushed. (Paper, "Flushing Subregions".)
    pub fn can_flush(&self, id: RegionId) -> bool {
        let r = self.get(id);
        if r.thread_count > 0 {
            return false;
        }
        if r.portals.values().any(|v| *v != Value::Null) {
            return false;
        }
        r.subs
            .values()
            .all(|s| self.get(*s).state == RegionState::Flushed || self.can_flush(*s))
    }

    /// Flushes a region: recursively flushes subregion instances, then
    /// kills this region's objects by bumping its epoch. Every policy keeps
    /// its arena's host capacity; only LT keeps its virtual `committed`
    /// memory, VT releases it. Reuses an internal work stack for the
    /// subregion cascade, so it does not allocate.
    pub fn flush(&mut self, id: RegionId) {
        let mut stack = std::mem::take(&mut self.scratch);
        debug_assert!(stack.is_empty());
        stack.push(id);
        while let Some(rid) = stack.pop() {
            if rid != id && self.get(rid).state != RegionState::Alive {
                continue;
            }
            let r = self.get_mut(rid);
            r.used = 0;
            if matches!(r.spec.policy, AllocPolicy::Vt) {
                r.committed = 0;
            }
            r.state = RegionState::Flushed;
            r.epoch += 1;
            r.arena.clear(); // O(1) reset; host capacity retained
            stack.extend(r.subs.values().copied());
            self.alive.remove(&rid);
        }
        self.scratch = stack;
    }

    /// Deletes a region and all its subregion instances: bumps each one's
    /// epoch and releases its memory, virtual and host, for good.
    pub fn delete(&mut self, id: RegionId) {
        let mut stack = std::mem::take(&mut self.scratch);
        debug_assert!(stack.is_empty());
        stack.push(id);
        while let Some(rid) = stack.pop() {
            if rid != id && self.get(rid).state == RegionState::Deleted {
                continue;
            }
            let r = self.get_mut(rid);
            r.used = 0;
            r.committed = 0;
            r.portals.values_mut().for_each(|v| *v = Value::Null);
            r.state = RegionState::Deleted;
            r.epoch += 1;
            r.arena = Vec::new();
            stack.extend(r.subs.values().copied());
            self.alive.remove(&rid);
        }
        self.scratch = stack;
    }

    /// Revives a flushed subregion instance for re-entry (its LT memory was
    /// retained, so this is free).
    pub fn revive(&mut self, id: RegionId) {
        let r = self.get_mut(id);
        debug_assert_eq!(r.state, RegionState::Flushed);
        r.state = RegionState::Alive;
        self.alive.insert(id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec_with_sub() -> RegionSpec {
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
                    reservation: Reservation::NoRtOnly,
                    portals: vec!["f".into()],
                    subregions: vec![],
                },
            )],
        }
    }

    #[test]
    fn create_builds_sub_instances() {
        let mut t = RegionTable::default();
        let (id, n) = t.create(spec_with_sub(), RegionClass::Shared, BTreeSet::new());
        assert_eq!(n, 2);
        let sub = *t.get(id).subs.get("b").unwrap();
        assert_eq!(
            t.get(sub).class,
            RegionClass::SubInstance {
                parent: id,
                member: "b".into()
            }
        );
        assert_eq!(t.get(sub).committed, 4096, "LT memory preallocated");
        assert!(t.get(sub).outlived_by.contains(&id));
        assert!(t.outlives(id, sub));
        assert!(!t.outlives(sub, id));
    }

    #[test]
    fn transitive_lt_bytes() {
        let spec = spec_with_sub();
        assert_eq!(spec.transitive_lt_bytes(), 4096);
    }

    #[test]
    fn flush_respects_portals_and_counts() {
        let mut t = RegionTable::default();
        let (id, _) = t.create(spec_with_sub(), RegionClass::Shared, BTreeSet::new());
        let sub = *t.get(id).subs.get("b").unwrap();
        assert!(t.can_flush(sub));
        t.get_mut(sub).thread_count = 1;
        assert!(!t.can_flush(sub), "occupied");
        t.get_mut(sub).thread_count = 0;
        t.get_mut(sub).portals.insert("f".into(), Value::Int(1));
        assert!(!t.can_flush(sub), "non-null portal");
        t.get_mut(sub).portals.insert("f".into(), Value::Null);
        assert!(t.can_flush(sub));
        // Parent cannot flush if the sub is unflushable.
        t.get_mut(sub).portals.insert("f".into(), Value::Int(1));
        assert!(!t.can_flush(id));
    }

    #[test]
    fn flush_retains_lt_memory_and_bumps_the_epoch() {
        let mut t = RegionTable::default();
        let (id, _) = t.create(spec_with_sub(), RegionClass::Shared, BTreeSet::new());
        let sub = *t.get(id).subs.get("b").unwrap();
        t.get_mut(sub).used = 64;
        t.flush(sub);
        let r = t.get(sub);
        assert_eq!(r.state, RegionState::Flushed);
        assert_eq!(r.epoch, 1, "the flush killed the objects");
        assert_eq!(r.used, 0);
        assert_eq!(r.committed, 4096, "LT memory retained across flush");
        t.revive(sub);
        assert!(t.get(sub).is_alive());
        assert_eq!(t.get(sub).epoch, 1, "revival does not bump the epoch");
        t.flush(sub);
        assert_eq!(t.get(sub).epoch, 2);
        assert_eq!(t.get(id).epoch, 0, "a flush does not reach the parent");
    }

    #[test]
    fn flush_resets_arena_in_place_and_delete_releases_it() {
        let mut t = RegionTable::default();
        let (id, _) = t.create(spec_with_sub(), RegionClass::Shared, BTreeSet::new());
        let sub = *t.get(id).subs.get("b").unwrap();
        for r in [id, sub] {
            t.get_mut(r).arena.extend([Value::Int(1), Value::Int(2)]);
        }
        let (cap, sub_cap) = (t.get(id).arena.capacity(), t.get(sub).arena.capacity());
        t.get_mut(id).committed = 2048;
        // A VT region flushed like a subregion keeps its host capacity
        // too, and releases only its virtual memory.
        t.flush(id);
        for (r, cap) in [(id, cap), (sub, sub_cap)] {
            assert!(t.get(r).arena.is_empty(), "arena reset on flush");
            assert_eq!(t.get(r).arena.capacity(), cap, "host capacity retained");
        }
        assert_eq!(t.get(id).committed, 0, "VT memory released on flush");
        assert_eq!(t.get(sub).committed, 4096, "LT memory retained on flush");
        t.revive(id);
        t.get_mut(id).arena.push(Value::Int(3));
        t.delete(id);
        for r in [id, sub] {
            assert_eq!(t.get(r).arena.capacity(), 0, "memory released on delete");
        }
    }

    #[test]
    fn delete_cascades_to_subs() {
        let mut t = RegionTable::default();
        let (id, _) = t.create(spec_with_sub(), RegionClass::Shared, BTreeSet::new());
        let sub = *t.get(id).subs.get("b").unwrap();
        t.flush(sub);
        t.delete(id);
        assert_eq!(t.get(id).state, RegionState::Deleted);
        assert_eq!(t.get(sub).state, RegionState::Deleted);
        assert_eq!(t.get(id).epoch, 1);
        assert_eq!(t.get(sub).epoch, 2, "the cascade bumps a flushed sub too");
        assert_eq!(t.get(sub).committed, 0, "memory released on delete");
    }

    #[test]
    fn alive_ids_follow_every_state_change() {
        let mut t = RegionTable::default();
        let (heap, _) = t.create(RegionSpec::plain_vt(), RegionClass::Heap, BTreeSet::new());
        let (id, n) = t.create(spec_with_sub(), RegionClass::Shared, t.alive_ids().clone());
        let sub = *t.get(id).subs.get("b").unwrap();
        assert_eq!(n, 2);
        let ids = |v: &[RegionId]| v.iter().copied().collect::<BTreeSet<_>>();
        assert_eq!(*t.alive_ids(), ids(&[heap, id, sub]), "create");
        t.flush(sub);
        assert_eq!(*t.alive_ids(), ids(&[heap, id]), "flush");
        t.revive(sub);
        assert_eq!(*t.alive_ids(), ids(&[heap, id, sub]), "revive");
        t.delete(id);
        assert_eq!(*t.alive_ids(), ids(&[heap]), "delete");
        for r in [heap, id, sub] {
            assert_eq!(t.alive_ids().contains(&r), t.get(r).is_alive());
        }
    }

    #[test]
    fn heap_outlives_everything() {
        let mut t = RegionTable::default();
        let (heap, _) = t.create(RegionSpec::plain_vt(), RegionClass::Heap, BTreeSet::new());
        let (r, _) = t.create(
            RegionSpec::plain_vt(),
            RegionClass::Local { owner: ThreadId(0) },
            [heap].into_iter().collect(),
        );
        assert!(t.outlives(heap, r));
        assert!(!t.outlives(r, heap));
    }
}
