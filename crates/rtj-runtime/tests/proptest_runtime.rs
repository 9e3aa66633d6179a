//! Property tests over random runtime operation sequences.
//!
//! A single-threaded driver performs random region/allocation/store
//! operations against a `Dynamic`-mode runtime. The RTSJ assignment
//! checks may reject individual stores (that is their job); the invariant
//! is that **as long as every store went through the checks, no live
//! object ever references a dead object** — the runtime counterpart of
//! the paper's memory-safety property R3.

use proptest::prelude::*;
use rtj_runtime::{
    CheckKind, CheckMode, CostModel, ObjId, RegionId, RegionSpec, RtError, Runtime, RuntimeOwner,
    Value,
};
use std::collections::BTreeSet;

#[derive(Debug, Clone)]
enum Op {
    /// Create a nested local region.
    Push,
    /// Exit the innermost created region (if any).
    Pop,
    /// Allocate an object in a region chosen by index.
    Alloc { region_choice: usize, fields: usize },
    /// Store object `src` into field 0 of object `dst` (by index).
    Store { dst: usize, src: usize },
    /// Clear field 0 of an object.
    Clear { dst: usize },
    /// Read field 0 of a live object.
    Load { obj: usize },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        2 => Just(Op::Push),
        2 => Just(Op::Pop),
        4 => (any::<prop::sample::Index>(), 0usize..4).prop_map(|(i, fields)| Op::Alloc {
            region_choice: i.index(64),
            fields: fields + 1,
        }),
        4 => (any::<prop::sample::Index>(), any::<prop::sample::Index>()).prop_map(|(d, s)| {
            Op::Store {
                dst: d.index(64),
                src: s.index(64),
            }
        }),
        1 => any::<prop::sample::Index>().prop_map(|d| Op::Clear { dst: d.index(64) }),
        2 => any::<prop::sample::Index>().prop_map(|o| Op::Load { obj: o.index(64) }),
    ]
}

struct Driver {
    rt: Runtime,
    /// Stack of created local regions.
    regions: Vec<RegionId>,
    /// Every object ever allocated.
    objects: Vec<ObjId>,
    stores_accepted: u32,
    stores_rejected: u32,
}

impl Driver {
    fn new() -> Driver {
        Driver {
            rt: Runtime::new(CheckMode::Dynamic, CostModel::default()),
            regions: Vec::new(),
            objects: Vec::new(),
            stores_accepted: 0,
            stores_rejected: 0,
        }
    }

    fn regions_in_scope(&self) -> Vec<RegionId> {
        let mut v = vec![self.rt.heap(), self.rt.immortal()];
        v.extend(&self.regions);
        v
    }

    fn apply(&mut self, op: &Op) {
        let t = self.rt.main_thread();
        match op {
            Op::Push => {
                if self.regions.len() < 6 {
                    let r = self
                        .rt
                        .create_region(t, RegionSpec::plain_vt(), false)
                        .expect("create");
                    // Every region alive when it was made outlives it.
                    let scope: BTreeSet<RegionId> = self.regions_in_scope().into_iter().collect();
                    assert_eq!(self.rt.region(r).outlived_by, scope);
                    self.regions.push(r);
                }
            }
            Op::Pop => {
                if let Some(r) = self.regions.pop() {
                    self.rt.exit_created_region(t, r).expect("exit");
                }
            }
            Op::Alloc {
                region_choice,
                fields,
            } => {
                let scope = self.regions_in_scope();
                let r = scope[region_choice % scope.len()];
                let obj = self
                    .rt
                    .alloc(t, RuntimeOwner::Region(r), "Obj", &[], *fields)
                    .expect("alloc");
                self.objects.push(obj);
            }
            Op::Store { dst, src } => {
                if self.objects.is_empty() {
                    return;
                }
                let d = self.objects[dst % self.objects.len()];
                let s = self.objects[src % self.objects.len()];
                if !self.rt.is_alive(d) || !self.rt.is_alive(s) {
                    return; // the program cannot even name dead objects
                }
                match self.rt.store_field(t, d, 0, Value::Ref(s)) {
                    Ok(()) => self.stores_accepted += 1,
                    Err(RtError::IllegalAssignment { .. }) => self.stores_rejected += 1,
                    Err(e) => panic!("unexpected store error: {e}"),
                }
            }
            Op::Clear { dst } => {
                if self.objects.is_empty() {
                    return;
                }
                let d = self.objects[dst % self.objects.len()];
                if self.rt.is_alive(d) {
                    self.rt
                        .store_field(t, d, 0, Value::Null)
                        .expect("null store");
                }
            }
            Op::Load { obj } => {
                if self.objects.is_empty() {
                    return;
                }
                let o = self.objects[obj % self.objects.len()];
                if self.rt.is_alive(o) {
                    self.rt.load_field(t, o, 0).expect("load from live object");
                }
            }
        }
    }

    /// R3 at runtime: live objects only reference live objects.
    fn check_no_dangling(&self) {
        for &o in &self.objects {
            if !self.rt.is_alive(o) {
                continue;
            }
            for v in self.rt.object_fields(o) {
                if let Value::Ref(target) = v {
                    assert!(
                        self.rt.is_alive(*target),
                        "live obj#{} references dead obj#{}",
                        o.0,
                        target.0
                    );
                }
            }
        }
    }

    /// Structural sanity: region bookkeeping matches object liveness.
    fn check_region_accounting(&self) {
        for &o in &self.objects {
            if self.rt.is_alive(o) {
                assert!(
                    self.rt.region(self.rt.region_of(o)).is_alive(),
                    "live object in dead region"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn checked_stores_never_leave_dangling_references(
        ops in prop::collection::vec(op_strategy(), 1..120)
    ) {
        let mut d = Driver::new();
        for op in &ops {
            d.apply(op);
            d.check_no_dangling();
            d.check_region_accounting();
        }
        // Drain remaining regions; the invariant must survive teardown.
        while let Some(r) = d.regions.pop() {
            d.rt.exit_created_region(d.rt.main_thread(), r).unwrap();
            d.check_no_dangling();
        }
    }

    /// The same sequences in Audit mode count the same checks as Dynamic
    /// mode but never advance the clock for them.
    #[test]
    fn audit_mode_counts_but_never_charges(
        ops in prop::collection::vec(op_strategy(), 1..60)
    ) {
        let mut dynamic = Driver::new();
        let mut audit = Driver::new();
        audit.rt = Runtime::new(CheckMode::Audit, CostModel::default());
        for op in &ops {
            dynamic.apply(op);
            audit.apply(op);
        }
        prop_assert_eq!(
            dynamic.rt.metrics_snapshot().check(CheckKind::Assignment).performed,
            audit.rt.metrics_snapshot().check(CheckKind::Assignment).performed
        );
        prop_assert_eq!(audit.rt.metrics_snapshot().check_cycles(), 0);
        prop_assert_eq!(dynamic.stores_accepted, audit.stores_accepted);
        prop_assert_eq!(dynamic.stores_rejected, audit.stores_rejected);
    }
}

/// Deterministic regression: the classic dangle shape is rejected and the
/// reverse direction accepted.
#[test]
fn classic_dangle_shape() {
    let mut d = Driver::new();
    d.apply(&Op::Push);
    d.apply(&Op::Alloc {
        region_choice: 2,
        fields: 1,
    }); // outer region object
    d.apply(&Op::Push);
    d.apply(&Op::Alloc {
        region_choice: 3,
        fields: 1,
    }); // inner region object
    d.apply(&Op::Store { dst: 0, src: 1 }); // outer.f = inner → rejected
    d.apply(&Op::Store { dst: 1, src: 0 }); // inner.f = outer → accepted
    assert_eq!(d.stores_rejected, 1);
    assert_eq!(d.stores_accepted, 1);
    d.apply(&Op::Pop);
    d.check_no_dangling();
    d.apply(&Op::Pop);
    d.check_no_dangling();
}
