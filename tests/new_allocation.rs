//! A `new` allocates nothing on the host, amortised: an object's fields
//! are a span of its region's arena and its owners a span of the run's
//! owner slab, both vectors that grow by doubling. A counting global
//! allocator checks it, so this file holds one test and runs as a test
//! binary of its own, where no other test allocates beside it.

use rtjava::interp::{build, prepare, run_prepared, RunConfig};
use rtjava::runtime::CheckMode;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// The system allocator, counting allocations and reallocations while
/// `COUNTING` is set.
struct Counting;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

fn count() {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Objects the program allocates, all in one local (VT) region.
const OBJECTS: u64 = 10_000;

#[test]
fn ten_thousand_objects_take_under_a_thousand_host_allocations() {
    let src = format!(
        "class Cell<Owner o> {{ int v; }}
        {{
            (RHandle<r> h) {{
                let i = 0;
                while (i < {OBJECTS}) {{
                    let c = new Cell<r>;
                    c.v = i;
                    i = i + 1;
                }}
            }}
        }}"
    );
    let prepared = prepare(&build(&src).expect("program builds"));
    COUNTING.store(true, Ordering::Relaxed);
    let out = run_prepared(&prepared, RunConfig::new(CheckMode::Static));
    COUNTING.store(false, Ordering::Relaxed);
    assert!(out.error.is_none(), "{:?}", out.error);
    assert_eq!(out.metrics.objects_allocated, OBJECTS);
    let allocations = ALLOCATIONS.load(Ordering::Relaxed);
    assert!(
        allocations < 1_000,
        "{allocations} host allocations for {OBJECTS} objects"
    );
}
