//! The object store.
//!
//! An object is a fixed header whose storage and lifetime come from its
//! region. Its fields are a span of the region's slot arena, and its
//! runtime owners are a span of one owner slab that the whole run
//! shares, so allocating an object appends to three vectors (the arena,
//! the slab and the table of headers) and nothing else. It records its
//! region's epoch when it is allocated and is alive while the two are
//! equal: flushing or deleting a region bumps the epoch, which kills all
//! of the region's objects at once. Any later access to a dead object
//! is a [dangling-reference error](crate::error::RtError::DanglingReference)
//! — which well-typed programs never trigger (paper, Theorem 3).

use crate::value::{ObjId, RegionId, RuntimeOwner};
use rtj_lang::Symbol;
use std::ops::Range;

/// Object header bytes (class pointer + owner table, as on the authors'
/// platform).
pub const OBJECT_HEADER_BYTES: u64 = 16;

/// Bytes per field slot.
pub const FIELD_BYTES: u64 = 8;

/// Size in bytes of an object with `n_fields` fields.
pub fn object_size(n_fields: usize) -> u64 {
    OBJECT_HEADER_BYTES + FIELD_BYTES * n_fields as u64
}

/// A run of slots in a shared vector: `start..start + len`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Span {
    pub(crate) start: u32,
    pub(crate) len: u32,
}

impl Span {
    pub(crate) fn range(self) -> Range<usize> {
        self.start as usize..self.start as usize + self.len as usize
    }
}

/// One allocated object: a fixed header.
#[derive(Debug, Clone, Copy)]
pub struct ObjectRecord {
    /// Name of the class it was allocated as (interned).
    pub class_name: Symbol,
    /// The region it is allocated in.
    pub region: RegionId,
    /// The region's epoch at allocation; the object is alive while the
    /// region's epoch is still this one.
    pub(crate) epoch: u64,
    /// Its field slots, in class layout order, in the region's arena.
    pub(crate) field_span: Span,
    /// Its runtime owners (one per owner parameter of the class), in the
    /// store's owner slab.
    pub(crate) owner_span: Span,
}

impl ObjectRecord {
    /// The arena index of field `idx`.
    #[inline]
    pub(crate) fn slot(&self, idx: usize) -> usize {
        debug_assert!(idx < self.field_span.len as usize, "no field {idx}");
        self.field_span.start as usize + idx
    }
}

/// The store of all objects ever allocated.
#[derive(Debug, Clone, Default)]
pub struct ObjectStore {
    records: Vec<ObjectRecord>,
    /// Every object's owners, appended at allocation.
    owners: Vec<RuntimeOwner>,
}

impl ObjectStore {
    /// Allocates a new object record whose fields are `field_span` of
    /// `region`'s arena, allocated at the region's `epoch`; `owners` is
    /// copied into the owner slab. (Memory accounting is the region
    /// table's job.)
    pub(crate) fn alloc(
        &mut self,
        class_name: Symbol,
        region: RegionId,
        epoch: u64,
        owners: &[RuntimeOwner],
        field_span: Span,
    ) -> ObjId {
        let id = ObjId(self.records.len() as u32);
        let start = self.owners.len() as u32;
        self.owners.extend_from_slice(owners);
        self.records.push(ObjectRecord {
            class_name,
            region,
            epoch,
            field_span,
            owner_span: Span {
                start,
                len: owners.len() as u32,
            },
        });
        id
    }

    /// The header of an object, dead or alive.
    #[inline]
    pub fn get(&self, id: ObjId) -> &ObjectRecord {
        &self.records[id.0 as usize]
    }

    /// The runtime owners of an object, dead or alive.
    pub fn owners(&self, id: ObjId) -> &[RuntimeOwner] {
        &self.owners[self.get(id).owner_span.range()]
    }

    /// Total number of objects ever allocated.
    pub fn total_allocated(&self) -> usize {
        self.records.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn owners_are_spans_of_one_slab() {
        let mut s = ObjectStore::default();
        let r = RegionId(2);
        let fields = Span { start: 0, len: 3 };
        let a = s.alloc("A".into(), r, 0, &[RuntimeOwner::Region(r)], fields);
        let b = s.alloc("B".into(), r, 1, &[], Span { start: 3, len: 0 });
        let c = s.alloc(
            "C".into(),
            r,
            1,
            &[RuntimeOwner::Object(a), RuntimeOwner::Region(r)],
            Span { start: 3, len: 1 },
        );
        assert_eq!(s.owners(a), &[RuntimeOwner::Region(r)]);
        assert!(s.owners(b).is_empty());
        assert_eq!(
            s.owners(c),
            &[RuntimeOwner::Object(a), RuntimeOwner::Region(r)]
        );
        assert_eq!(s.get(a).field_span.range(), 0..3);
        assert_eq!((s.get(a).epoch, s.get(c).epoch), (0, 1));
        assert_eq!(s.get(c).region, r);
        assert_eq!(s.total_allocated(), 3);
    }

    #[test]
    fn object_size_formula() {
        assert_eq!(object_size(0), 16);
        assert_eq!(object_size(4), 48);
    }
}
