//! The paper's Figure 8: two long-lived threads communicating through a
//! **subregion** of a shared region, with a typed **portal field** as the
//! hand-off point. The subregion is flushed after every iteration, so the
//! threads exchange an unbounded number of frames in bounded memory —
//! without ever touching the garbage-collected heap.
//!
//! ```sh
//! cargo run --example producer_consumer
//! ```

use rtjava::interp::{run_source, RunConfig};
use rtjava::runtime::CheckMode;

fn main() {
    let iters = 5;
    let src = format!(
        r#"
        regionKind BufferRegion extends SharedRegion {{
            subregion BufferSubRegion : LT(4096) NoRT b;
            Token<this> produced;
            Token<this> consumed;
        }}
        regionKind BufferSubRegion extends SharedRegion {{
            Frame<this> f;
        }}
        class Token<Owner o> {{ int n; }}
        class Frame<Owner o> {{ int data; }}

        class Producer<BufferRegion r> {{
            void run(RHandle<r> h, int iters) accesses r, heap {{
                let i = 0;
                while (i < iters) {{
                    let c = h.consumed;
                    while (c == null || c.n != i) {{ yield(); c = h.consumed; }}
                    (RHandle<BufferSubRegion r2> h2 = h.b) {{
                        let frame = new Frame<r2>;
                        frame.data = 1000 + i;   // get_image(frame)
                        h2.f = frame;            // publish through the portal
                    }}
                    let t = new Token<r>;
                    t.n = i + 1;
                    h.produced = t;              // wake up the consumer
                    i = i + 1;
                }}
            }}
        }}

        class Consumer<BufferRegion r> {{
            void run(RHandle<r> h, int iters) accesses r, heap {{
                let i = 0;
                while (i < iters) {{
                    let p = h.produced;
                    while (p == null || p.n != i + 1) {{ yield(); p = h.produced; }}
                    (RHandle<BufferSubRegion r2> h2 = h.b) {{
                        let frame = h2.f;
                        print(frame.data);       // process_image(frame)
                        h2.f = null;             // allow the flush
                    }}
                    let t = new Token<r>;
                    t.n = i + 1;
                    h.consumed = t;              // wake up the producer
                    i = i + 1;
                }}
            }}
        }}

        {{
            (RHandle<BufferRegion : VT r> h) {{
                let kick = new Token<r>;
                kick.n = 0;
                h.consumed = kick;
                fork (new Producer<r>).run(h, {iters});
                fork (new Consumer<r>).run(h, {iters});
            }}
        }}
        "#
    );

    let out = run_source(&src, RunConfig::new(CheckMode::Static)).unwrap();
    assert!(out.error.is_none(), "{:?}", out.error);
    println!("frames received : {}", out.trace.join(", "));
    println!("threads spawned : {}", out.metrics.threads_spawned);
    println!(
        "subregion flushed {} times — one per iteration, so {} frames fit \
         in one 4 KiB LT subregion",
        out.metrics.regions_flushed, iters
    );
    assert!(out.metrics.regions_flushed >= iters as u64);
}
