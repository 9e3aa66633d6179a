//! Ownership/outlives visualization (the paper's Figure 6).
//!
//! Renders the runtime's ownership relation as Graphviz DOT: regions as
//! boxes, objects as ellipses, **solid** edges from owner to owned
//! (`x ≽ₒ y`), **dashed** edges from a region to each region it outlives
//! — the same drawing conventions as the paper's Figure 6.

use crate::region::{RegionClass, RegionState};
use crate::runtime::Runtime;
use crate::value::{ObjId, RuntimeOwner};
use std::fmt::Write as _;

impl Runtime {
    /// Emits the current ownership and outlives relations as DOT.
    ///
    /// Dead objects and deleted regions are drawn greyed-out, so a
    /// post-run snapshot still shows the full story of the execution.
    pub fn ownership_dot(&self) -> String {
        let mut out = String::from(
            "digraph ownership {\n\
             \trankdir=TB;\n\
             \tnode [fontname=\"Helvetica\"];\n\
             \t// regions: boxes; objects: ellipses;\n\
             \t// solid edge: owner -> owned; dashed edge: outlives.\n",
        );
        // Regions.
        let mut region_ids = Vec::new();
        for i in 0.. {
            if i as usize >= self.region_table_len() {
                break;
            }
            region_ids.push(crate::value::RegionId(i));
        }
        for &r in &region_ids {
            let rec = self.region(r);
            let label = match &rec.class {
                RegionClass::Heap => "heap".to_string(),
                RegionClass::Immortal => "immortal".to_string(),
                RegionClass::Local { .. } => format!("local r{}", r.0),
                RegionClass::Shared => format!(
                    "{} r{}",
                    rec.spec.kind_name.as_deref().unwrap_or("shared"),
                    r.0
                ),
                RegionClass::SubInstance { member, .. } => {
                    format!("sub {member} r{} (gen {})", r.0, rec.generation)
                }
            };
            let style = match rec.state {
                RegionState::Alive => "solid",
                RegionState::Flushed => "dotted",
                RegionState::Deleted => "dotted\", color=\"gray",
            };
            let _ = writeln!(
                out,
                "\tr{} [shape=box, style=\"{style}\", label=\"{label}\"];",
                r.0
            );
        }
        // Outlives edges (transitively reduced to the recorded facts).
        for &r in &region_ids {
            let rec = self.region(r);
            for &longer in &rec.outlived_by {
                let _ = writeln!(
                    out,
                    "\tr{} -> r{} [style=dashed, constraint=false];",
                    longer.0, r.0
                );
            }
        }
        // Objects and ownership edges.
        for idx in 0..self.objects().total_allocated() as u32 {
            let id = ObjId(idx);
            let obj = self.object(id);
            let style = if self.is_alive(id) { "solid" } else { "dotted" };
            let _ = writeln!(
                out,
                "\to{idx} [shape=ellipse, style=\"{style}\", label=\"{}#{idx}\"];",
                obj.class_name
            );
            match self.objects().owners(id).first() {
                Some(RuntimeOwner::Region(r)) => {
                    let _ = writeln!(out, "\tr{} -> o{idx};", r.0);
                }
                Some(RuntimeOwner::Object(o)) => {
                    let _ = writeln!(out, "\to{} -> o{idx};", o.0);
                }
                None => {
                    let _ = writeln!(out, "\tr{} -> o{idx};", obj.region.0);
                }
            }
        }
        out.push_str("}\n");
        out
    }

    /// Number of region records (including dead ones), for snapshotting.
    pub fn region_table_len(&self) -> usize {
        self.regions_len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checks::CheckMode;
    use crate::region::RegionSpec;

    #[test]
    fn dot_contains_regions_objects_and_edges() {
        let mut rt = Runtime::with_mode(CheckMode::Dynamic);
        let t = rt.main_thread();
        let r = rt.create_region(t, RegionSpec::plain_vt(), false).unwrap();
        let owner_obj = rt
            .alloc(
                t,
                RuntimeOwner::Region(r),
                "Stack",
                &[RuntimeOwner::Region(r)],
                1,
            )
            .unwrap();
        let owned = rt
            .alloc(
                t,
                RuntimeOwner::Object(owner_obj),
                "Node",
                &[RuntimeOwner::Object(owner_obj)],
                1,
            )
            .unwrap();
        let dot = rt.ownership_dot();
        assert!(dot.contains("digraph ownership"));
        assert!(dot.contains("heap"));
        assert!(dot.contains("immortal"));
        assert!(dot.contains(&format!("Stack#{}", owner_obj.0)));
        // Region owns the stack; the stack owns the node.
        assert!(dot.contains(&format!("r{} -> o{};", r.0, owner_obj.0)));
        assert!(dot.contains(&format!("o{} -> o{};", owner_obj.0, owned.0)));
        // heap outlives the local region (dashed).
        assert!(dot.contains(&format!("r0 -> r{} [style=dashed", r.0)));
    }

    #[test]
    fn dead_objects_are_dotted() {
        let mut rt = Runtime::with_mode(CheckMode::Dynamic);
        let t = rt.main_thread();
        let r = rt.create_region(t, RegionSpec::plain_vt(), false).unwrap();
        let o = rt.alloc(t, RuntimeOwner::Region(r), "C", &[], 0).unwrap();
        rt.exit_created_region(t, r).unwrap();
        let dot = rt.ownership_dot();
        let line = dot
            .lines()
            .find(|l| l.contains(&format!("o{} [", o.0)))
            .unwrap();
        assert!(line.contains("dotted"), "{line}");
    }
}
