//! Global string interner.
//!
//! Checking large programs compares and hashes the same identifiers —
//! owner names, class names, region-kind names — millions of times. A
//! [`Symbol`] is a pointer-sized handle to a process-wide interned
//! string: equality and hashing are single pointer operations, and the
//! underlying `&'static str` is embedded in the handle, so reading it
//! back (display, content ordering) costs nothing.
//!
//! Who interns: the [lexer](crate::lexer) interns every identifier and
//! every string literal (its decoded contents), so tokens carry symbols
//! and the parser never calls [`Symbol::intern`]. A lex calls it once
//! per distinct name, through a map of its own from source text to
//! symbol. The checker and the engines' class layout intern the few
//! names they refer to themselves, such as `Object`.
//!
//! Design notes:
//!
//! * The intern table is **global and thread-safe** (`RwLock` around the
//!   map), so symbols can be created concurrently from the parallel
//!   checking driver. The lock is only touched by [`Symbol::intern`];
//!   every other operation works on the `&'static str` already in hand.
//! * Interned strings are leaked (`Box::leak`). The set of distinct
//!   identifiers and string literals in a compilation session is bounded
//!   by the source text, so this is an arena, not a leak in practice.
//! * Equality and hashing use the **data pointer**: the table guarantees
//!   one allocation per distinct string, so pointer equality is string
//!   equality.
//! * `Ord`/`PartialOrd` compare the **string contents**, not addresses.
//!   Allocation addresses depend on first-touch order, which varies
//!   between serial and parallel runs; content ordering keeps every
//!   `BTreeSet<Owner>` iteration (and therefore diagnostic order)
//!   deterministic and identical across drivers.

use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::{OnceLock, RwLock};

/// An interned string: cheap to copy, compare, and hash.
#[derive(Clone, Copy)]
pub struct Symbol(&'static str);

fn table() -> &'static RwLock<HashMap<&'static str, &'static str>> {
    static TABLE: OnceLock<RwLock<HashMap<&'static str, &'static str>>> = OnceLock::new();
    TABLE.get_or_init(|| RwLock::new(HashMap::new()))
}

impl Symbol {
    /// Intern `s`, returning its symbol. Idempotent and thread-safe.
    pub fn intern(s: &str) -> Symbol {
        let t = table();
        if let Some(&interned) = t.read().unwrap().get(s) {
            return Symbol(interned);
        }
        let mut w = t.write().unwrap();
        if let Some(&interned) = w.get(s) {
            return Symbol(interned);
        }
        let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
        w.insert(leaked, leaked);
        Symbol(leaked)
    }

    /// The interned string contents. Free: no table access.
    pub fn as_str(self) -> &'static str {
        self.0
    }

    /// Whether the interned string is empty.
    pub fn is_empty(self) -> bool {
        self.0.is_empty()
    }
}

/// Sizes of the global intern table: `(symbols, bytes)`.
///
/// `symbols` is the number of distinct interned strings alive in the
/// process (identifiers and string literals) and `bytes` the total length
/// of their contents. Reported in
/// the checker's `rtj-checker-metrics/v1` snapshot as a proxy for
/// frontend arena footprint. The table is process-global, so the numbers
/// are cumulative across every program interned so far.
pub fn intern_table_stats() -> (usize, usize) {
    let t = table().read().unwrap();
    let bytes = t.keys().map(|s| s.len()).sum();
    (t.len(), bytes)
}

// One allocation per distinct string, so pointer equality is string
// equality — and a pointer hash stands in for a content hash.
impl PartialEq for Symbol {
    fn eq(&self, other: &Self) -> bool {
        std::ptr::eq(self.0.as_ptr(), other.0.as_ptr())
    }
}

impl Eq for Symbol {}

impl Hash for Symbol {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (self.0.as_ptr() as usize).hash(state);
    }
}

// Content ordering, not address ordering: see module docs.
impl Ord for Symbol {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        if self == other {
            std::cmp::Ordering::Equal
        } else {
            self.0.cmp(other.0)
        }
    }
}

impl PartialOrd for Symbol {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.0)
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.0)
    }
}

impl From<&str> for Symbol {
    fn from(s: &str) -> Symbol {
        Symbol::intern(s)
    }
}

impl From<&String> for Symbol {
    fn from(s: &String) -> Symbol {
        Symbol::intern(s)
    }
}

impl From<&Symbol> for Symbol {
    fn from(s: &Symbol) -> Symbol {
        *s
    }
}

impl From<String> for Symbol {
    fn from(s: String) -> Symbol {
        Symbol::intern(&s)
    }
}

impl From<Symbol> for String {
    fn from(s: Symbol) -> String {
        s.0.to_owned()
    }
}

impl PartialEq<str> for Symbol {
    fn eq(&self, other: &str) -> bool {
        self.0 == other
    }
}

impl PartialEq<&str> for Symbol {
    fn eq(&self, other: &&str) -> bool {
        self.0 == *other
    }
}

impl PartialEq<String> for Symbol {
    fn eq(&self, other: &String) -> bool {
        self.0 == other.as_str()
    }
}

impl PartialEq<Symbol> for str {
    fn eq(&self, other: &Symbol) -> bool {
        self == other.0
    }
}

impl PartialEq<Symbol> for &str {
    fn eq(&self, other: &Symbol) -> bool {
        *self == other.0
    }
}

impl PartialEq<Symbol> for String {
    fn eq(&self, other: &Symbol) -> bool {
        self.as_str() == other.0
    }
}

// NOTE: deliberately no `Borrow<str>` impl. `Symbol` hashes by pointer
// while `str` hashes by content, so a `Borrow`-based `HashMap` lookup
// would be silently wrong. Callers intern the query string instead.
impl AsRef<str> for Symbol {
    fn as_ref(&self) -> &str {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let a = Symbol::intern("hello");
        let b = Symbol::intern("hello");
        assert_eq!(a, b);
        assert_eq!(a.as_str(), "hello");
        assert!(std::ptr::eq(a.as_str().as_ptr(), b.as_str().as_ptr()));
    }

    #[test]
    fn distinct_strings_distinct_symbols() {
        assert_ne!(Symbol::intern("a"), Symbol::intern("b"));
    }

    #[test]
    fn ordering_follows_string_content() {
        // Intern in reverse lexicographic order so allocation order and
        // content order disagree; Ord must follow content.
        let z = Symbol::intern("zzz-order-test");
        let a = Symbol::intern("aaa-order-test");
        assert!(a < z);
        let mut v = vec![z, a];
        v.sort();
        assert_eq!(v, vec![a, z]);
    }

    #[test]
    fn mixed_comparisons() {
        let s = Symbol::intern("region0");
        assert!(s == "region0");
        assert!(s == "region0");
        assert!("region0" == s);
        assert!(s != "region1");
    }

    #[test]
    fn hashmap_round_trip() {
        use std::collections::HashMap;
        let mut m: HashMap<Symbol, usize> = HashMap::new();
        m.insert(Symbol::intern("k1"), 1);
        m.insert(Symbol::intern("k2"), 2);
        assert_eq!(m.get(&Symbol::intern("k1")), Some(&1));
        assert_eq!(m.get(&Symbol::intern("k2")), Some(&2));
        assert_eq!(m.get(&Symbol::intern("k3")), None);
    }

    #[test]
    fn concurrent_interning_agrees() {
        let names: Vec<String> = (0..64).map(|i| format!("conc{i}")).collect();
        let ids: Vec<Vec<Symbol>> = std::thread::scope(|scope| {
            (0..4)
                .map(|_| scope.spawn(|| names.iter().map(|n| Symbol::intern(n)).collect()))
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        for other in &ids[1..] {
            assert_eq!(&ids[0], other);
        }
    }
}
