//! Source to verdict allocates little: parsing and checking the
//! 3,072-class generated program (`scaled_classes(512)`) from scratch
//! makes at most 102,000 host allocations, reallocations included. The
//! check made 110,717 while the class table copied each class's header
//! into its entry; sharing the parsed headers brought it to 97,407, so
//! the bound fails the copy and leaves about 5% to spare. A counting
//! global allocator checks it, so this file holds one test and runs as a
//! test binary of its own, where no other test allocates beside it.

use rtjava::corpus::scaled_classes;
use rtjava::lang::parse_program;
use rtjava::types::{check_program_in, CheckOptions};
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

/// Copies of the six-class family in the checked program.
const COPIES: usize = 512;
/// Below the 110,717 allocations a check made when the table copied
/// every header, about 5% above the 97,407 it makes sharing them.
const BOUND: u64 = 102_000;

/// Parses and checks `src` on one thread; returns the allocations made
/// by the parse and by the check.
fn source_to_verdict(src: &str) -> (u64, u64) {
    let opts = CheckOptions {
        jobs: 1,
        profile: false,
    };
    ALLOCATIONS.store(0, Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    let program = parse_program(src);
    let parsed = ALLOCATIONS.load(Ordering::Relaxed);
    let checked = program.map(|p| check_program_in(p, &opts));
    COUNTING.store(false, Ordering::Relaxed);
    let total = ALLOCATIONS.load(Ordering::Relaxed);
    let checked = checked.expect("the generated program parses");
    let checked = checked.expect("the generated program checks");
    assert_eq!(checked.stats.methods_checked, COPIES * 8);
    drop(checked);
    (parsed, total - parsed)
}

#[test]
fn a_from_scratch_check_stays_under_its_allocation_bound() {
    let src = scaled_classes(COPIES);
    // The first pass interns every name; the second is the steady state
    // every later check of the program sees.
    source_to_verdict(&src);
    let (parse, check) = source_to_verdict(&src);
    let total = parse + check;
    eprintln!("parse {parse} + check {check} = {total} allocations (bound {BOUND})");
    assert!(
        total <= BOUND,
        "parse {parse} + check {check} = {total} host allocations, over the bound of {BOUND}"
    );
}
