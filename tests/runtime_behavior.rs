//! Tests of the runtime claims. Through the language: GC interference
//! (or the lack of it), dynamic dispatch, fresh subregion instances, LT
//! reuse. On the runtime API directly, the paper's two Section 2.3
//! claims:
//!
//! * [`priority_inversion`]: when a regular thread and a real-time
//!   thread share a subregion (as the RTSJ allows), a garbage collection
//!   striking while the regular thread holds the subregion's bookkeeping
//!   lock blocks the real-time thread for up to a full GC pause. With the
//!   type system's RT/NoRT separation the two threads use disjoint
//!   subregions and the real-time thread never waits.
//! * [`alloc_sweep`]: LT allocation is linear in object size, flushing an
//!   LT region retains its memory (re-entry allocates without growing),
//!   VT allocation pays variable chunk costs.
//!
//! `cargo test --test runtime_behavior -- --nocapture` prints the tables
//! EXPERIMENTS.md shows for both claims.

use rtjava::interp::{run_source, RunConfig};
use rtjava::runtime::{
    AllocPolicy, CheckMode, CostModel, RegionSpec, Reservation, RtError, Runtime, RuntimeOwner,
    ThreadClass,
};

fn cfg_gc(mode: CheckMode) -> RunConfig {
    let mut cfg = RunConfig::new(mode);
    cfg.gc_enabled = true;
    cfg
}

#[test]
fn heap_allocation_triggers_collections_region_allocation_does_not() {
    // Heap-allocating loop: the collector runs and charges pauses.
    let heap_src = r#"
        class Blob<Owner o> { int a; int b; int c; int d; int e; int f; int g; int hh; }
        {
            let i = 0;
            while (i < 40000) {
                let b = new Blob<heap>;
                b.a = i;
                i = i + 1;
            }
            print(i);
        }
    "#;
    let out = run_source(heap_src, cfg_gc(CheckMode::Static)).unwrap();
    assert!(out.error.is_none(), "{:?}", out.error);
    assert!(
        out.metrics.gc_collections > 0,
        "heap churn must trigger the collector: {:?}",
        out.metrics
    );
    assert!(out.metrics.gc_pause_cycles > 0);

    // The same loop into a region: the collector never runs. This is the
    // paper's core runtime motivation.
    let region_src = r#"
        class Blob<Owner o> { int a; int b; int c; int d; int e; int f; int g; int hh; }
        {
            (RHandle<r> h) {
                let i = 0;
                while (i < 40000) {
                    let b = new Blob<r>;
                    b.a = i;
                    i = i + 1;
                }
                print(i);
            }
        }
    "#;
    let out = run_source(region_src, cfg_gc(CheckMode::Static)).unwrap();
    assert!(out.error.is_none());
    assert_eq!(out.metrics.gc_collections, 0, "regions avoid the collector");
    assert_eq!(out.trace, vec!["40000"]);
}

#[test]
fn rt_thread_completes_through_gc_storms() {
    // A regular thread hammers the heap (driving collections) while a
    // real-time thread does periodic region work. The RT thread's lock
    // waits stay zero and everything completes.
    let src = r#"
        regionKind SensorRegion extends SharedRegion {
            subregion ScratchRegion : LT(4096) RT scratch;
            Reading<this> latest;
        }
        regionKind ScratchRegion extends SharedRegion { }
        class Reading<Owner o> { int seq; }
        class Blob<Owner o> { int a; int b; int c; int d; }
        class Churner<Owner o> {
            void run(int n) accesses heap {
                let i = 0;
                while (i < n) {
                    let b = new Blob<heap>;
                    b.a = i;
                    i = i + 1;
                }
            }
        }
        class Sensor<SensorRegion r> {
            void run(RHandle<r> h, int periods) accesses r, RT {
                let p = 0;
                while (p < periods) {
                    (RHandle<ScratchRegion s> hs = h.scratch) {
                        let rd = new Reading<r>;
                        rd.seq = p + 1;
                        h.latest = rd;
                    }
                    p = p + 1;
                }
            }
        }
        {
            (RHandle<SensorRegion : LT(65536) r> h) {
                fork (new Churner<heap>).run(30000);
                RT fork (new Sensor<r>).run(h, 8);
                let done = false;
                while (!done) {
                    let rd = h.latest;
                    if (rd != null && rd.seq == 8) { done = true; }
                    yield();
                }
                print("rt finished");
            }
        }
    "#;
    let out = run_source(src, cfg_gc(CheckMode::Static)).unwrap();
    assert!(out.error.is_none(), "{:?}", out.error);
    assert_eq!(out.trace, vec!["rt finished"]);
    assert!(out.metrics.gc_collections > 0, "the collector did run");
    assert_eq!(
        out.metrics.rt_max_lock_wait, 0,
        "the RT thread never waited on a region lock"
    );
}

#[test]
fn dynamic_dispatch_uses_the_allocated_class() {
    let src = r#"
        class Shape<Owner o> {
            int area() { return 0; }
        }
        class Square<Owner o> extends Shape<o> {
            int side;
            int area() { return this.side * this.side; }
        }
        {
            (RHandle<r> h) {
                let sq = new Square<r>;
                sq.side = 5;
                let Shape<r> s = sq;
                print(s.area());
            }
        }
    "#;
    let out = run_source(src, RunConfig::new(CheckMode::Dynamic)).unwrap();
    assert!(out.error.is_none(), "{:?}", out.error);
    assert_eq!(out.trace, vec!["25"], "dispatch on the dynamic class");
}

#[test]
fn fresh_subregion_instances_are_independent() {
    let src = r#"
        regionKind K extends SharedRegion {
            subregion S : LT(4096) NoRT s;
        }
        regionKind S extends SharedRegion {
            Cell<this> keep;
        }
        class Cell<Owner o> { int v; }
        {
            (RHandle<K : VT r> h) {
                (RHandle<S s1> h1 = h.s) {
                    let c = new Cell<s1>;
                    c.v = 1;
                    h1.keep = c;   // pin the old instance via its portal
                }
                (RHandle<S s2> h2 = new h.s) {
                    // A fresh instance: its portal starts null.
                    if (h2.keep == null) { print("fresh"); }
                    let d = new Cell<s2>;
                    d.v = 2;
                    print(d.v);
                }
            }
        }
    "#;
    let out = run_source(src, RunConfig::new(CheckMode::Dynamic)).unwrap();
    assert!(out.error.is_none(), "{:?}", out.error);
    assert_eq!(out.trace, vec!["fresh", "2"]);
}

#[test]
fn lt_subregion_reuse_never_grows_memory() {
    // Re-entering a flushed LT subregion commits no new memory; the
    // whole loop runs in one 4 KiB arena.
    let src = r#"
        regionKind K extends SharedRegion {
            subregion S : LT(4096) NoRT s;
        }
        regionKind S extends SharedRegion { }
        class Chunk<Owner o> { int a; int b; int c; }
        {
            (RHandle<K : VT r> h) {
                let round = 0;
                while (round < 50) {
                    (RHandle<S sc> hs = h.s) {
                        let i = 0;
                        let Chunk<sc> last = null;
                        while (i < 80) {
                            let c = new Chunk<sc>;
                            c.a = i;
                            last = c;
                            i = i + 1;
                        }
                    }
                    round = round + 1;
                }
                print(round);
            }
        }
    "#;
    let out = run_source(src, RunConfig::new(CheckMode::Dynamic)).unwrap();
    assert!(out.error.is_none(), "{:?}", out.error);
    assert_eq!(out.trace, vec!["50"]);
    // 50 rounds * 80 chunks were allocated…
    assert_eq!(out.metrics.objects_allocated, 4000);
    // …but flushed every round.
    assert!(out.metrics.regions_flushed >= 50);
}

#[test]
fn lt_overflow_is_a_runtime_error_even_when_well_typed() {
    // LT sizing is the programmer's responsibility; the paper's system
    // throws when the bound is too small. (Static sizing is cited as
    // separate work [31, 32].)
    let src = r#"
        regionKind K extends SharedRegion {
            subregion S : LT(64) NoRT s;
        }
        regionKind S extends SharedRegion { }
        class Chunk<Owner o> { int a; int b; int c; }
        {
            (RHandle<K : VT r> h) {
                (RHandle<S sc> hs = h.s) {
                    let i = 0;
                    while (i < 10) {
                        let c = new Chunk<sc>;
                        i = i + 1;
                    }
                }
            }
        }
    "#;
    let out = run_source(src, RunConfig::new(CheckMode::Static)).unwrap();
    let err = out.error.expect("LT overflow must surface");
    assert!(err.to_string().contains("capacity exceeded"), "{err}");
}

#[test]
fn inversion_blocks_rt_only_when_sharing() {
    let gc_pause = CostModel::default().gc_pause;
    let shared = priority_inversion(true, 4);
    assert!(shared.collections >= 4);
    assert!(
        shared.max_rt_wait >= gc_pause / 2,
        "sharing a subregion exposes the RT thread to GC-length \
         waits: {shared:?}"
    );
    let separated = priority_inversion(false, 4);
    assert_eq!(
        separated.max_rt_wait, 0,
        "with disjoint subregions the RT thread never waits: {separated:?}"
    );
    assert!(separated.collections >= 4, "the GC still ran");
}

#[test]
fn lt_allocation_linear_and_cheaper_than_heap() {
    let rows = alloc_sweep(&[0, 4, 16, 64], 64);
    for w in rows.windows(2) {
        assert!(
            w[1].lt_cycles > w[0].lt_cycles,
            "LT cost grows with size (zeroing)"
        );
    }
    for r in &rows {
        assert!(
            r.heap_cycles > r.lt_cycles,
            "heap allocation is costlier than LT at {} fields",
            r.fields
        );
    }
    // LT cost is linear: cost(64) - cost(16) ≈ 3 * (cost(16) - cost(4))…
    let d1 = rows[2].lt_cycles - rows[1].lt_cycles; // 16 - 4 fields
    let d2 = rows[3].lt_cycles - rows[2].lt_cycles; // 64 - 16 fields
    assert!(
        d2 >= d1 * 3 && d2 <= d1 * 6,
        "zeroing cost should scale with the added bytes: d1={d1} d2={d2}"
    );
}

#[test]
fn lt_flush_keeps_memory_committed() {
    let (before, after) = lt_flush_retains_memory();
    assert_eq!(before, 4096);
    assert_eq!(after, 4096, "flush must not release LT memory");
}

/// Prints the Section 2.3 tables and pins them: the cost model is
/// deterministic, so every row is exact, and each row must appear
/// verbatim in EXPERIMENTS.md, which therefore cannot drift from it.
#[test]
fn section_2_3_tables_match_experiments_md() {
    let alloc: Vec<String> = alloc_sweep(&[0, 4, 16, 64], 128)
        .iter()
        .map(|r| {
            format!(
                "| {} | {} | {} | {} |",
                r.fields, r.lt_cycles, r.vt_cycles, r.heap_cycles
            )
        })
        .collect();
    let inversion: Vec<String> = [
        ("RTSJ shared subregion", true),
        ("typed RT/NoRT split", false),
    ]
    .iter()
    .map(|&(name, shared)| {
        let r = priority_inversion(shared, 8);
        format!(
            "| {name} | {} | {} | {} |",
            r.max_rt_wait, r.total_rt_wait, r.collections
        )
    })
    .collect();
    let (before, after) = lt_flush_retains_memory();
    println!("allocation cost (virtual cycles per object, 128 per size)");
    println!("{}", alloc.join("\n"));
    println!("LT flush: committed before = {before}, after = {after}");
    println!("priority inversion (8 rounds; max RT wait, total RT wait, collections)");
    println!("{}", inversion.join("\n"));

    assert_eq!(
        alloc,
        [
            "| 0 | 26 | 27 | 66 |",
            "| 4 | 30 | 32 | 70 |",
            "| 16 | 42 | 48 | 82 |",
            "| 64 | 90 | 111 | 130 |",
        ]
    );
    assert_eq!(
        inversion,
        [
            "| RTSJ shared subregion | 200016 | 1600128 | 8 |",
            "| typed RT/NoRT split | 0 | 0 | 8 |",
        ]
    );
    let experiments = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("EXPERIMENTS.md"),
    )
    .expect("EXPERIMENTS.md");
    for row in alloc.iter().chain(&inversion) {
        assert!(
            experiments.contains(row.as_str()),
            "EXPERIMENTS.md lacks the row `{row}`"
        );
    }
}

/// Outcome of one priority-inversion scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
struct LatencyReport {
    /// Worst single wait of the real-time thread for a region lock
    /// (cycles).
    max_rt_wait: u64,
    /// Total real-time lock-wait cycles.
    total_rt_wait: u64,
    /// Garbage collections that ran.
    collections: u64,
}

/// Runs the priority-inversion scenario.
///
/// With `shared = true` (RTSJ-style), the regular and real-time threads
/// enter the *same* subregion; with `shared = false` (the type system's
/// discipline), each thread class has its own subregion.
///
/// Each round: the regular thread enters and begins exiting the
/// subregion; while it holds the bookkeeping lock a collection starts,
/// pausing it; the real-time thread then tries to enter.
///
/// # Panics
///
/// Panics on runtime protocol errors (the scenario is fixed, so these
/// indicate bugs).
fn priority_inversion(shared: bool, rounds: u32) -> LatencyReport {
    run_inversion(shared, rounds).expect("scenario is protocol-correct")
}

fn run_inversion(shared: bool, rounds: u32) -> Result<LatencyReport, RtError> {
    // Static mode: the RTSJ has no RT/NoRT reservations, so the shared
    // scenario must be allowed to proceed (it is exactly what the type
    // system forbids).
    let mut rt = Runtime::new(CheckMode::Static, CostModel::default());
    rt.enable_gc(true);
    let regular = rt.main_thread();
    let sub_spec = |_name: &str| RegionSpec {
        kind_name: Some("Scratch".into()),
        policy: AllocPolicy::Lt { capacity: 1 << 16 },
        reservation: Reservation::Any,
        portals: Vec::new(),
        subregions: Vec::new(),
    };
    let spec = RegionSpec {
        kind_name: Some("Comm".into()),
        policy: AllocPolicy::Vt,
        reservation: Reservation::Any,
        portals: Vec::new(),
        subregions: vec![
            ("a".to_string(), sub_spec("a")),
            ("b".to_string(), sub_spec("b")),
        ],
    };
    let parent = rt.create_region(regular, spec, true)?;
    let rt_thread = rt.spawn_thread(regular, ThreadClass::RealTime);
    let rt_member = if shared { "a" } else { "b" };
    let spin = rt.cost_model().region_enter_exit;

    for _ in 0..rounds {
        // Regular thread: enter subregion "a", allocate, begin exit.
        let lock_a = rt.subregion_lock_target(parent, "a", false)?;
        assert!(rt.try_lock_region(regular, lock_a));
        let sub_a = rt.enter_subregion_locked(regular, parent, "a", false)?;
        rt.unlock_region(regular, lock_a)?;
        rt.alloc(regular, RuntimeOwner::Region(sub_a), "Buf", &[], 4)?;
        // Begin exit: the bookkeeping lock is held…
        assert!(rt.try_lock_region(regular, sub_a));
        // …and a collection strikes right now, pausing the regular thread
        // mid-critical-section.
        rt.force_gc();

        // Real-time thread wants to enter its subregion.
        let lock_rt = rt.subregion_lock_target(parent, rt_member, false)?;
        let wait_start = rt.now();
        let mut waited = false;
        while !rt.try_lock_region(rt_thread, lock_rt) {
            waited = true;
            rt.charge(spin); // the RT thread spins; time passes
            let gc_over = rt.gc_blocking_until().is_none_or(|until| rt.now() >= until);
            if gc_over {
                // The regular thread resumes and completes its exit,
                // releasing the lock.
                rt.exit_subregion_locked(regular, sub_a)?;
                rt.unlock_region(regular, sub_a)?;
            }
        }
        if waited {
            let waited_cycles = rt.now() - wait_start;
            rt.note_rt_lock_wait(waited_cycles);
        }
        let sub_rt = rt.enter_subregion_locked(rt_thread, parent, rt_member, false)?;
        rt.unlock_region(rt_thread, lock_rt)?;
        // The real-time thread does its period's work.
        rt.alloc(rt_thread, RuntimeOwner::Region(sub_rt), "Sample", &[], 2)?;
        assert!(rt.try_lock_region(rt_thread, sub_rt));
        rt.exit_subregion_locked(rt_thread, sub_rt)?;
        rt.unlock_region(rt_thread, sub_rt)?;

        // If the regular thread never got displaced (disjoint subregions),
        // let the collection finish and complete its exit now.
        if rt.region(sub_a).lock.is_some() {
            if let Some(until) = rt.gc_blocking_until() {
                let now = rt.now();
                rt.charge(until - now);
            }
            rt.exit_subregion_locked(regular, sub_a)?;
            rt.unlock_region(regular, sub_a)?;
        }
        rt.poll_gc();
        // Drain any remaining pause so rounds are independent.
        if let Some(until) = rt.gc_blocking_until() {
            let now = rt.now();
            rt.charge(until - now);
            rt.poll_gc();
        }
    }
    let metrics = rt.metrics_snapshot();
    Ok(LatencyReport {
        max_rt_wait: metrics.rt_max_lock_wait,
        total_rt_wait: metrics.rt_lock_wait_cycles,
        collections: metrics.gc_collections,
    })
}

/// One row of the allocation-policy sweep.
#[derive(Debug, Clone)]
struct AllocRow {
    /// Object payload size in fields.
    fields: usize,
    /// Cycles per LT allocation.
    lt_cycles: u64,
    /// Cycles per VT allocation (amortized over many).
    vt_cycles: u64,
    /// Cycles per heap allocation.
    heap_cycles: u64,
}

/// Measures allocation cost (virtual cycles) per policy across object
/// sizes.
fn alloc_sweep(sizes: &[usize], per_size: u32) -> Vec<AllocRow> {
    sizes
        .iter()
        .map(|&fields| {
            let mut rt = Runtime::new(CheckMode::Static, CostModel::default());
            let t = rt.main_thread();
            let lt = rt
                .create_region(
                    t,
                    RegionSpec {
                        policy: AllocPolicy::Lt { capacity: 1 << 24 },
                        ..RegionSpec::plain_vt()
                    },
                    false,
                )
                .unwrap();
            let vt = rt.create_region(t, RegionSpec::plain_vt(), false).unwrap();
            let heap = rt.heap();
            let mut measure = |owner: RuntimeOwner| {
                let before = rt.now();
                for _ in 0..per_size {
                    rt.alloc(t, owner, "Obj", &[], fields).unwrap();
                }
                (rt.now() - before) / per_size as u64
            };
            let lt_cycles = measure(RuntimeOwner::Region(lt));
            let vt_cycles = measure(RuntimeOwner::Region(vt));
            let heap_cycles = measure(RuntimeOwner::Region(heap));
            AllocRow {
                fields,
                lt_cycles,
                vt_cycles,
                heap_cycles,
            }
        })
        .collect()
}

/// Demonstrates that flushing an LT region retains its memory: after a
/// flush, re-filling the region commits no new memory. Returns
/// `(committed_before, committed_after)`.
fn lt_flush_retains_memory() -> (u64, u64) {
    let mut rt = Runtime::new(CheckMode::Static, CostModel::default());
    let t = rt.main_thread();
    let spec = RegionSpec {
        kind_name: Some("Comm".into()),
        policy: AllocPolicy::Vt,
        reservation: Reservation::Any,
        portals: Vec::new(),
        subregions: vec![(
            "s".to_string(),
            RegionSpec {
                policy: AllocPolicy::Lt { capacity: 4096 },
                ..RegionSpec::plain_vt()
            },
        )],
    };
    let parent = rt.create_region(t, spec, true).unwrap();
    let lock = rt.subregion_lock_target(parent, "s", false).unwrap();
    let mut fill = || {
        assert!(rt.try_lock_region(t, lock));
        let s = rt.enter_subregion_locked(t, parent, "s", false).unwrap();
        rt.unlock_region(t, lock).unwrap();
        for _ in 0..32 {
            rt.alloc(t, RuntimeOwner::Region(s), "Obj", &[], 4).unwrap();
        }
        let committed = rt.region(s).committed;
        assert!(rt.try_lock_region(t, s));
        rt.exit_subregion_locked(t, s).unwrap();
        rt.unlock_region(t, s).unwrap();
        committed
    };
    let before = fill();
    let after = fill();
    (before, after)
}
