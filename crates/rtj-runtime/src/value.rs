//! Runtime values and identifiers.

use rtj_lang::Symbol;
use std::fmt;

/// Identifies an allocated object in the object store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjId(pub u32);

/// Identifies a memory region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RegionId(pub u32);

/// Identifies a thread known to the runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ThreadId(pub u32);

/// A runtime value: 24 bytes, and `Copy`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Value {
    /// The null reference (also the initial value of reference fields).
    #[default]
    Null,
    /// An integer.
    Int(i64),
    /// A boolean.
    Bool(bool),
    /// A reference to an object.
    Ref(ObjId),
    /// A region handle.
    Handle(RegionId),
    /// A string (only produced by string literals, only consumed by
    /// `print`): the literal's interned text.
    Str(Symbol),
}

impl Value {
    /// Whether this value is an object reference (not null).
    pub fn as_ref_id(&self) -> Option<ObjId> {
        match self {
            Value::Ref(o) => Some(*o),
            _ => None,
        }
    }

    /// The integer inside, if any.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean inside, if any.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "null"),
            Value::Int(n) => write!(f, "{n}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Ref(o) => write!(f, "obj#{}", o.0),
            Value::Handle(r) => write!(f, "region#{}", r.0),
            Value::Str(s) => write!(f, "{s}"),
        }
    }
}

/// The runtime counterpart of a static owner: the region an object is
/// allocated in is determined by the first of these.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RuntimeOwner {
    /// Owned directly by a region.
    Region(RegionId),
    /// Owned by another object (and therefore allocated in that object's
    /// region).
    Object(ObjId),
}

/// Which scheduling class a thread belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ThreadClass {
    /// An ordinary thread: may use the heap, is paused by the garbage
    /// collector.
    Regular,
    /// A real-time (`NoHeapRealtimeThread`-like) thread: never paused by
    /// the collector, must never touch heap references.
    RealTime,
}

/// Region allocation policy (runtime counterpart of the paper's
/// `LT(size)` / `VT`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AllocPolicy {
    /// Linear-time: `capacity` bytes preallocated at region creation;
    /// object allocation slides a pointer and zeroes the object.
    Lt {
        /// Preallocated capacity in bytes.
        capacity: u64,
    },
    /// Variable-time: memory is acquired on demand in chunks.
    #[default]
    Vt,
}

/// Reservation tag for subregions (Section 2.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Reservation {
    /// Usable by any thread (top-level regions).
    #[default]
    Any,
    /// Only real-time threads may enter.
    RtOnly,
    /// Only regular threads may enter.
    NoRtOnly,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_accessors() {
        assert_eq!(Value::Int(7).as_int(), Some(7));
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
        assert_eq!(Value::Ref(ObjId(3)).as_ref_id(), Some(ObjId(3)));
        assert_eq!(Value::Null.as_ref_id(), None);
        assert_eq!(Value::Null.as_int(), None);
    }

    /// A string value is its literal's symbol, so a value stays as small
    /// as an `i64` beside a tag and copies without allocating.
    #[test]
    fn a_value_is_24_bytes() {
        assert_eq!(std::mem::size_of::<Value>(), 24);
        let s = Value::Str(Symbol::intern("hi"));
        let t = s;
        assert_eq!((s.to_string(), t), ("hi".to_string(), s));
    }

    #[test]
    fn value_display() {
        assert_eq!(Value::Null.to_string(), "null");
        assert_eq!(Value::Int(-4).to_string(), "-4");
        assert_eq!(Value::Ref(ObjId(1)).to_string(), "obj#1");
        assert_eq!(Value::Handle(RegionId(2)).to_string(), "region#2");
    }

    #[test]
    fn default_is_null() {
        assert_eq!(Value::default(), Value::Null);
    }
}
