//! A real-time thread sharing work with a regular thread — safely.
//!
//! The `RT fork`ed sensor thread runs with hard real-time constraints: the
//! type system proves it never touches the heap, never allocates in a
//! VT region, and never shares a subregion with regular threads (so a
//! garbage collection can never stall it — the paper's priority-inversion
//! fix). It repeatedly enters a preallocated **LT** subregion, allocates
//! its working set there in linear time, and exits (flushing the region
//! without freeing its memory, so the next period needs no allocation).
//!
//! ```sh
//! cargo run --example realtime_pipeline
//! ```

use rtjava::interp::{build, run_source, RunConfig};
use rtjava::runtime::CheckMode;

fn main() {
    let src = r#"
        regionKind SensorRegion extends SharedRegion {
            subregion ScratchRegion : LT(8192) RT scratch;
            Reading<this> latest;
        }
        regionKind ScratchRegion extends SharedRegion { }
        class Reading<Owner o> { int value; int seq; }
        class Sample<Owner o> { int raw; Sample<o> next; }

        class Sensor<SensorRegion r> {
            // The effects clause has no `heap`: this method is provably
            // GC-independent. `RT` lets it enter the RT-only subregion.
            void run(RHandle<r> h, int periods) accesses r, RT {
                let p = 0;
                while (p < periods) {
                    (RHandle<ScratchRegion s> hs = h.scratch) {
                        // Linear-time allocation from preallocated memory.
                        let Sample<s> window = null;
                        let i = 0;
                        while (i < 16) {
                            let smp = new Sample<s>;
                            smp.raw = p * 16 + i;
                            smp.next = window;
                            window = smp;
                            i = i + 1;
                        }
                        // Reduce the window to one reading.
                        let sum = 0;
                        let w = window;
                        while (w != null) {
                            sum = sum + w.raw;
                            w = w.next;
                        }
                        let rd = new Reading<r>;
                        rd.value = sum / 16;
                        rd.seq = p + 1;
                        h.latest = rd;
                    } // scratch flushed here: O(1), memory retained
                    p = p + 1;
                }
            }
        }

        {
            (RHandle<SensorRegion : LT(65536) r> h) {
                RT fork (new Sensor<r>).run(h, 4);
                // The regular thread (which may be interrupted by the
                // collector) just watches the portal.
                let last = 0;
                while (last < 4) {
                    let rd = h.latest;
                    if (rd != null && rd.seq > last) {
                        print(rd.value);
                        last = rd.seq;
                    }
                    yield();
                }
            }
        }
    "#;

    let out = run_source(src, RunConfig::new(CheckMode::Static)).unwrap();
    assert!(out.error.is_none(), "{:?}", out.error);
    // The real-time thread has strict scheduling priority, so the regular
    // watcher typically observes only the final reading.
    println!("readings seen   : {}", out.trace.join(", "));
    assert!(!out.trace.is_empty());
    println!(
        "rt lock waits   : {} cycles (type system keeps it at zero)",
        out.metrics.rt_max_lock_wait
    );
    assert_eq!(out.metrics.rt_max_lock_wait, 0);

    // What the type system rejects: a real-time thread calling into code
    // that needs the heap.
    let bad = r#"
        class Logger<Owner o> {
            void log(int x) accesses heap {
                let Object<heap> entry = new Object<heap>;
            }
        }
        class Task<Owner o> {
            void run(Logger<o> l) accesses o, heap {
                l.log(1);
            }
        }
        {
            (RHandle<SharedRegion : LT(4096) r> h) {
                let l = new Logger<r>;
                RT fork (new Task<r>).run(l);
            }
        }
    "#;
    match build(bad) {
        Err(e) => println!("\nheap-using RT thread rejected:\n{e}"),
        Ok(_) => println!("\nUNEXPECTEDLY ACCEPTED"),
    }
}
