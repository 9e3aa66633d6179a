//! Property tests for the deduction engine: the derived `≽` (outlives)
//! and `≽ₒ` (owns) relations satisfy the algebraic laws the soundness
//! proofs rely on (Figure 1 and Figure 2 of the paper), for arbitrary
//! consistent fact bases.

use proptest::prelude::*;
use rtj_types::env::{Effects, Env};
use rtj_types::{Kind, Owner};

const N_REGIONS: usize = 5;
const N_OBJECTS: usize = 4;

fn region(i: usize) -> Owner {
    Owner::Region(format!("r{i}").into())
}

fn formal(i: usize) -> Owner {
    Owner::Formal(format!("f{i}").into())
}

/// A random but *consistent* environment:
///
/// * regions `r0..r4` with LIFO outlives facts `ri ≽ rj` only for `i < j`
///   (acyclic by construction, as region creation order guarantees);
/// * object formals `f0..f3` with owns facts forming a forest whose roots
///   attach to regions (property O1).
#[derive(Debug, Clone)]
struct Facts {
    region_edges: Vec<(usize, usize)>,
    /// For each object, its owner: `Ok(region index)` or `Err(object
    /// index)` with the invariant `owner object index < object index`.
    object_owner: Vec<Result<usize, usize>>,
}

fn facts_strategy() -> impl Strategy<Value = Facts> {
    let edges = prop::collection::vec(
        (0..N_REGIONS, 0..N_REGIONS).prop_filter_map("i<j", |(a, b)| {
            if a < b {
                Some((a, b))
            } else if b < a {
                Some((b, a))
            } else {
                None
            }
        }),
        0..8,
    );
    let owners = (0..N_OBJECTS)
        .map(|i| {
            if i == 0 {
                (0..N_REGIONS).prop_map(Ok).boxed()
            } else {
                prop_oneof![(0..N_REGIONS).prop_map(Ok), (0..i).prop_map(Err),].boxed()
            }
        })
        .collect::<Vec<_>>();
    (edges, owners).prop_map(|(region_edges, object_owner)| Facts {
        region_edges,
        object_owner,
    })
}

fn build_env(f: &Facts) -> Env {
    let mut env = Env::base();
    for i in 0..N_REGIONS {
        env.declare_owner(region(i), Kind::LocalRegion);
    }
    for i in 0..N_OBJECTS {
        env.declare_owner(formal(i), Kind::ObjOwner);
    }
    for &(a, b) in &f.region_edges {
        env.add_outlives(region(a), region(b));
    }
    for (i, owner) in f.object_owner.iter().enumerate() {
        match owner {
            Ok(r) => env.add_owns(region(*r), formal(i)),
            Err(o) => env.add_owns(formal(*o), formal(i)),
        }
    }
    env
}

fn all_owners() -> Vec<Owner> {
    let mut v: Vec<Owner> = (0..N_REGIONS).map(region).collect();
    v.extend((0..N_OBJECTS).map(formal));
    v.push(Owner::Heap);
    v.push(Owner::Immortal);
    v
}

/// `≽` is a preorder containing `≽ₒ`, and `heap`/`immortal` are top
/// among regions (R1, R2).
fn outlives_laws_hold(f: &Facts) {
    let env = build_env(f);
    let owners = all_owners();
    // Reflexivity.
    for o in &owners {
        assert!(env.outlives(o, o));
        assert!(env.owns(o, o));
    }
    // Transitivity (both relations).
    for a in &owners {
        for b in &owners {
            for c in &owners {
                if env.outlives(a, b) && env.outlives(b, c) {
                    assert!(env.outlives(a, c), "{a} {b} {c}");
                }
                if env.owns(a, b) && env.owns(b, c) {
                    assert!(env.owns(a, c), "{a} {b} {c}");
                }
            }
        }
    }
    // R2: owns implies outlives.
    for a in &owners {
        for b in &owners {
            if env.owns(a, b) {
                assert!(env.outlives(a, b), "{a} owns {b}");
            }
        }
    }
    // R1: heap and immortal outlive every region.
    for i in 0..N_REGIONS {
        assert!(env.outlives(&Owner::Heap, &region(i)));
        assert!(env.outlives(&Owner::Immortal, &region(i)));
        assert!(!env.outlives(&region(i), &Owner::Heap));
    }
}

/// O1: the ownership relation forms a forest — no two distinct owners
/// both (transitively, properly) own each other.
fn ownership_is_acyclic_holds(f: &Facts) {
    let env = build_env(f);
    let owners = all_owners();
    for a in &owners {
        for b in &owners {
            if a != b {
                assert!(
                    !(env.owns(a, b) && env.owns(b, a)),
                    "cycle between {a} and {b}"
                );
            }
        }
    }
}

/// Effects subsumption is monotone: growing the allowed set never
/// un-covers an effect, and every owner covers itself.
fn effects_monotone_holds(f: &Facts, extra: usize) {
    let env = build_env(f);
    let owners = all_owners();
    for a in &owners {
        let just_a: Effects = [*a].into_iter().collect();
        assert!(env.effect_covered(&just_a, a), "{a} covers itself");
        let mut bigger = just_a.clone();
        bigger.insert(region(extra));
        for o in &owners {
            if env.effect_covered(&just_a, o) {
                assert!(env.effect_covered(&bigger, o));
            }
        }
    }
}

/// Handle availability propagates both ways along ownership: an owner
/// and its owned object live in the same region.
fn handle_availability_follows_ownership_holds(f: &Facts) {
    let mut env = build_env(f);
    // Give r0 a handle.
    env.add_handle(region(0));
    for (i, owner) in f.object_owner.iter().enumerate() {
        // Objects rooted (transitively) in r0 have an available handle.
        let mut root = *owner;
        loop {
            match root {
                Ok(r) => {
                    if r == 0 {
                        assert!(env.handle_available(&formal(i)), "f{i} rooted in r0");
                    }
                    break;
                }
                Err(o) => root = f.object_owner[o],
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn outlives_laws(f in facts_strategy()) {
        outlives_laws_hold(&f);
    }

    #[test]
    fn ownership_is_acyclic(f in facts_strategy()) {
        ownership_is_acyclic_holds(&f);
    }

    #[test]
    fn effects_monotone(f in facts_strategy(), extra in 0..N_REGIONS) {
        effects_monotone_holds(&f, extra);
    }

    #[test]
    fn handle_availability_follows_ownership(f in facts_strategy()) {
        handle_availability_follows_ownership_holds(&f);
    }
}

/// A fact base an earlier run of the properties shrank a failure to:
/// no region edges, and every object owned by `r0`.
#[test]
fn the_four_laws_hold_with_every_object_owned_by_one_region() {
    let f = Facts {
        region_edges: vec![],
        object_owner: vec![Ok(0); N_OBJECTS],
    };
    outlives_laws_hold(&f);
    ownership_is_acyclic_holds(&f);
    for extra in 0..N_REGIONS {
        effects_monotone_holds(&f, extra);
    }
    handle_availability_follows_ownership_holds(&f);
}
