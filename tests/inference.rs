//! End-to-end tests of Section 2.5: default completion and local type
//! inference keep the annotation burden low without changing behaviour.

use rtjava::interp::{build, run_checked, run_source, Engine, RunConfig};
use rtjava::runtime::CheckMode;

fn run_trace(src: &str) -> Vec<String> {
    let out = run_source(src, RunConfig::new(CheckMode::Dynamic)).unwrap();
    assert!(out.error.is_none(), "{:?}", out.error);
    out.trace
}

#[test]
fn field_defaults_to_owner_of_this() {
    // `Node next;` ≡ `Node<o> next;` — the owner of `this`.
    let src = r#"
        class Node<Owner o> { int v; Node next; }
        {
            (RHandle<r> h) {
                let a = new Node<r>;
                let b = new Node<r>;
                a.v = 7;
                b.next = a;
                print(b.next.v);
            }
        }
    "#;
    assert_eq!(run_trace(src), vec!["7"]);
}

#[test]
fn method_signature_defaults_to_initial_region() {
    // `Pt mk()` ≡ `Pt<initialRegion> mk()`: the callee allocates in the
    // caller's current region.
    let src = r#"
        class Pt<Owner o> { int x; }
        class Factory<Owner o> {
            Pt mk(int v) accesses initialRegion {
                let Pt<initialRegion> p = new Pt<initialRegion>;
                p.x = v;
                return p;
            }
        }
        {
            (RHandle<r> h) {
                let f = new Factory<r>;
                let p = f.mk(5);
                print(p.x);
            }
        }
    "#;
    assert_eq!(run_trace(src), vec!["5"]);
}

#[test]
fn let_types_are_inferred() {
    // No local type annotations anywhere.
    let src = r#"
        class Cell<Owner o> { int v; Cell<o> next; }
        {
            (RHandle<r> h) {
                let head = new Cell<r>;
                head.v = 1;
                let second = new Cell<r>;
                second.v = 2;
                second.next = head;
                let x = second.next;
                print(x.v + second.v);
            }
        }
    "#;
    assert_eq!(run_trace(src), vec!["3"]);
}

#[test]
fn call_site_owner_args_are_inferred() {
    // `c.take(a, b)` infers `q := r2` from the argument types.
    let src = r#"
        class D<Owner a> { int v; }
        class C<Owner o> {
            int take<Owner q>(D<q> x, D<q> y) {
                return x.v + y.v;
            }
        }
        {
            (RHandle<r1> h1) {
                (RHandle<r2> h2) {
                    let c = new C<r1>;
                    let a = new D<r2>;
                    a.v = 10;
                    let b = new D<r2>;
                    b.v = 20;
                    print(c.take(a, b));
                    print(c.take<r2>(a, b));
                }
            }
        }
    "#;
    assert_eq!(run_trace(src), vec!["30", "30"]);
}

#[test]
fn conflicting_inference_requires_explicit_args() {
    let src = r#"
        class D<Owner a> { int v; }
        class C<Owner o> {
            int take<Owner q>(D<q> x, D<q> y) { return 0; }
        }
        {
            (RHandle<r1> h1) {
                (RHandle<r2> h2) {
                    let c = new C<r1>;
                    let a = new D<r1>;
                    let b = new D<r2>;
                    let z = c.take(a, b);
                }
            }
        }
    "#;
    let err = build(src).unwrap_err();
    assert!(err.to_string().contains("cannot infer owner"));
}

#[test]
fn default_effects_cover_usual_method_bodies() {
    // No accesses clause anywhere: the default (class + method owners +
    // initialRegion) suffices for this-owned allocation and field access.
    let src = r#"
        class Stack<Owner o> {
            Node<this> top;
            void push(int v) {
                let n = new Node<this>;
                n.v = v;
                n.below = this.top;
                this.top = n;
            }
            int pop() {
                let n = this.top;
                if (n == null) { return -1; }
                this.top = n.below;
                return n.v;
            }
        }
        class Node<Owner o> { int v; Node<o> below; }
        {
            (RHandle<r> h) {
                let s = new Stack<r>;
                s.push(1);
                s.push(2);
                print(s.pop());
                print(s.pop());
                print(s.pop());
            }
        }
    "#;
    assert_eq!(run_trace(src), vec!["2", "1", "-1"]);
}

#[test]
fn new_without_owners_allocates_in_current_region() {
    let src = r#"
        class Cell<Owner o> { int v; }
        {
            (RHandle<r> h) {
                let c = new Cell;
                c.v = 9;
                print(c.v);
            }
        }
    "#;
    assert_eq!(run_trace(src), vec!["9"]);
}

#[test]
fn engines_run_the_elaborated_method_bodies() {
    // Every owner the engines need is elided inside method bodies: the
    // `new D`s of a called method, the call-site owner argument of
    // `this.take(a, b)`, and the `new D` of a forked body (which the
    // tree-walker reaches through its own path). Each engine must run
    // the bodies as elaboration completed them.
    let src = r#"
        class D<Owner a> { int v; D<a> next; }
        class C<Owner o> {
            int take<Owner q>(D<q> x, D<q> y) { return x.v + y.v; }
            int sum() {
                let a = new D;
                a.v = 40;
                let b = new D;
                b.v = 2;
                a.next = b;
                return this.take(a, b);
            }
        }
        class W<Owner o> {
            void run() {
                let d = new D;
                d.v = 7;
                print(d.v);
            }
        }
        {
            fork (new W<heap>).run();
            (RHandle<r> h) {
                let c = new C<r>;
                print(c.sum());
            }
        }
    "#;
    let checked = build(src).unwrap();
    for mode in [CheckMode::Dynamic, CheckMode::Static, CheckMode::Audit] {
        let run = |engine| {
            let out = run_checked(
                &checked,
                RunConfig {
                    engine,
                    ..RunConfig::new(mode)
                },
            );
            assert!(out.error.is_none(), "{engine:?} {mode:?}: {:?}", out.error);
            assert_eq!(out.trace, vec!["7", "42"], "{engine:?} {mode:?}");
            out.cycles
        };
        assert_eq!(run(Engine::Vm), run(Engine::Tree), "{mode:?}: cycles");
    }
}
