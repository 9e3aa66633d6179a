//! Seeded single-class edit batches against
//! [`scaled_classes`](crate::scaled_classes), the
//! edit replay of the benchmark's `check` workload (`perfbench/`) and,
//! printed by `rtjc bench edits:N`, of the CI differential smoke (`rtjc
//! check --edits`).
//!
//! Each batch replaces one whole class declaration of one replica with a
//! batch-unique variant:
//!
//! * `body` — pads `Stack{r}::size` with a self-cancelling local, so only
//!   the class's *text* changes, not its signature fingerprint (the fast
//!   path: nothing else re-checks);
//! * `signature` — adds a method to `Item{r}`, changing its *signature*
//!   fingerprint (the dirty closure pulls in `Node{r}` and `Stack{r}`);
//! * `body_error` — makes `Base{r}::bump` reference an undeclared
//!   variable, so the batch must produce a diagnostic (and a later batch
//!   on the same replica heals it) — exercising cached-diagnostic reuse.
//!
//! Generation is a pure function of `(copies, batches, seed)` via an MMIX
//! LCG, like the request mixes in `rtj-server`.

use crate::programs::scaled_family;
use rtj_lang::json::{Json, JsonError};
use rtj_lang::parser::parse_program;

/// Schema identifier for serialized edit scripts.
pub const EDITS_SCHEMA: &str = "rtj-edits/v1";

/// One single-class edit batch: replace the declaration of `class` with
/// `source`.
#[derive(Debug, Clone, PartialEq)]
pub struct EditBatch {
    /// Batch index (application order).
    pub id: usize,
    /// `"body"`, `"signature"`, or `"body_error"`.
    pub kind: String,
    /// The class whose declaration is replaced.
    pub class: String,
    /// The full replacement declaration text.
    pub source: String,
}

/// A generated edit script: the workload it applies to plus the batches
/// in application order.
#[derive(Debug, Clone, PartialEq)]
pub struct EditScript {
    /// Workload label, e.g. `"scaled:64"` (apply to
    /// [`scaled_classes`](crate::scaled_classes)).
    pub workload: String,
    /// Replica count of the workload.
    pub copies: usize,
    /// Generator seed.
    pub seed: u64,
    /// The batches, in application order.
    pub batches: Vec<EditBatch>,
}

const MMIX_MUL: u64 = 6364136223846793005;
const MMIX_INC: u64 = 1442695040888963407;

fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_mul(MMIX_MUL).wrapping_add(MMIX_INC);
    *state >> 16
}

/// Generates `batches` seeded single-class edit batches against
/// `scaled_classes(copies)`.
///
/// Roughly five in eight batches are body-only, two are
/// signature-changing, one introduces (or, by replacing the whole
/// declaration, heals) a type error.
///
/// # Panics
///
/// Panics if [`scaled_classes`](crate::scaled_classes) stops parsing or
/// its class bodies lose the needles the edits splice against — both are
/// corpus invariants covered by tests.
pub fn edit_batches(copies: usize, batches: usize, seed: u64) -> EditScript {
    // A class's text is the same in its replica alone as in the whole
    // program, so only the edited replica is parsed, with an empty main
    // block.
    generate(copies, batches, seed, |replica, name| {
        let source = format!("{}{{ }}", scaled_family(replica));
        let program = parse_program(&source).expect("a scaled_classes replica parses");
        let decl = program
            .classes
            .iter()
            .find(|c| c.name.name.as_str() == name)
            .unwrap_or_else(|| panic!("scaled_classes has no class {name}"));
        source[decl.span.start as usize..decl.span.end as usize].to_string()
    })
}

/// [`edit_batches`] over `class_text(replica, name)`, which returns the
/// declaration of class `name` of replica `replica`.
fn generate(
    copies: usize,
    batches: usize,
    seed: u64,
    mut class_text: impl FnMut(usize, &str) -> String,
) -> EditScript {
    let copies = copies.max(1);
    let mut state = seed ^ 0x9e37_79b9_7f4a_7c15;
    let mut out = Vec::with_capacity(batches);
    for id in 0..batches {
        let replica = (next(&mut state) as usize) % copies;
        let v = next(&mut state) % 1000;
        let (kind, class, source) = match next(&mut state) % 8 {
            0..=4 => {
                let class = format!("Stack{replica}");
                let needle = "let c = 0;";
                let text = class_text(replica, &class);
                assert!(text.contains(needle), "{class} lost its size() preamble");
                let patched = text.replacen(
                    needle,
                    &format!("let c = 0;\n        let pad{id} = {v};\n        c = c + pad{id} - pad{id};"),
                    1,
                );
                ("body", class, patched)
            }
            5..=6 => {
                let class = format!("Item{replica}");
                let text = class_text(replica, &class);
                let close = text.rfind('}').expect("class body closes");
                let mut patched = text[..close].to_string();
                patched.push_str(&format!("int probe{id}(int x) {{ return x + {v}; }} }}"));
                ("signature", class, patched)
            }
            _ => {
                let class = format!("Base{replica}");
                let needle = "this.tag = this.tag + x;";
                let text = class_text(replica, &class);
                assert!(text.contains(needle), "{class} lost its bump() body");
                let patched = text.replacen(needle, &format!("this.tag = oops{id} + x;"), 1);
                ("body_error", class, patched)
            }
        };
        out.push(EditBatch {
            id,
            kind: kind.to_string(),
            class,
            source,
        });
    }
    EditScript {
        workload: format!("scaled:{copies}"),
        copies,
        seed,
        batches: out,
    }
}

/// Serializes an edit script as a versioned `rtj-edits/v1` document.
pub fn edits_json(script: &EditScript) -> Json {
    Json::obj(vec![
        ("schema", Json::Str(EDITS_SCHEMA.to_string())),
        ("workload", Json::Str(script.workload.clone())),
        ("copies", Json::Int(script.copies as i64)),
        ("seed", Json::Int(script.seed as i64)),
        (
            "batches",
            Json::Arr(
                script
                    .batches
                    .iter()
                    .map(|b| {
                        Json::obj(vec![
                            ("id", Json::Int(b.id as i64)),
                            ("kind", Json::Str(b.kind.clone())),
                            ("class", Json::Str(b.class.clone())),
                            ("source", Json::Str(b.source.clone())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Parses an `rtj-edits/v1` document back into an [`EditScript`].
///
/// # Errors
///
/// Rejects documents with a missing/unknown schema or missing fields.
pub fn parse_edits(doc: &Json) -> Result<EditScript, JsonError> {
    doc.expect_schema(EDITS_SCHEMA)?;
    let mut batches = Vec::new();
    for b in doc.arr_field("batches")? {
        batches.push(EditBatch {
            id: b.u64_field("id")? as usize,
            kind: b.str_field("kind")?.to_string(),
            class: b.str_field("class")?.to_string(),
            source: b.str_field("source")?.to_string(),
        });
    }
    Ok(EditScript {
        workload: doc.str_field("workload")?.to_string(),
        copies: doc.u64_field("copies")? as usize,
        seed: doc.u64_field("seed")?,
        batches,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::programs::scaled_classes;
    use rtj_types::{CheckOptions, ClassEdit, IncrementalChecker};

    #[test]
    fn generation_is_deterministic_and_covers_all_kinds() {
        let a = edit_batches(4, 32, 7);
        let b = edit_batches(4, 32, 7);
        assert_eq!(a, b);
        for kind in ["body", "signature", "body_error"] {
            assert!(
                a.batches.iter().any(|e| e.kind == kind),
                "32 batches should include a {kind} edit"
            );
        }
        assert_ne!(a, edit_batches(4, 32, 8), "seed must matter");
    }

    #[test]
    fn scripts_match_the_whole_program_extraction() {
        // The oracle parses all of `scaled_classes(copies)` once and
        // slices each edited class out of it.
        for copies in [12, 512] {
            let whole = scaled_classes(copies);
            let program = parse_program(&whole).unwrap();
            let oracle = |_replica: usize, name: &str| {
                let decl = program
                    .classes
                    .iter()
                    .find(|c| c.name.name.as_str() == name)
                    .unwrap();
                whole[decl.span.start as usize..decl.span.end as usize].to_string()
            };
            for seed in [1, 3, 9] {
                for batches in [12, 32, 64] {
                    assert_eq!(
                        edit_batches(copies, batches, seed),
                        generate(copies, batches, seed, oracle),
                        "edits:{copies} --batches {batches} --seed {seed}"
                    );
                }
            }
        }
    }

    #[test]
    fn edits_round_trip_through_json() {
        let script = edit_batches(2, 6, 1);
        let back = parse_edits(&edits_json(&script)).unwrap();
        assert_eq!(script, back);
    }

    #[test]
    fn batches_apply_cleanly_to_the_engine() {
        let script = edit_batches(2, 12, 3);
        let mut eng = IncrementalChecker::new(CheckOptions::default());
        eng.check_source(&scaled_classes(2)).unwrap();
        for b in &script.batches {
            let out = eng
                .recheck(&[ClassEdit {
                    class: b.class.clone(),
                    source: b.source.clone(),
                }])
                .unwrap_or_else(|e| panic!("batch {}: {e}", b.id));
            match b.kind.as_str() {
                "body" => assert!(
                    !out.full_rebuild,
                    "batch {} (body) must take the fast path",
                    b.id
                ),
                "signature" => assert!(
                    out.dirty.len() >= 3,
                    "batch {} (signature) must invalidate dependents",
                    b.id
                ),
                _ => assert!(
                    !out.ok(),
                    "batch {} (body_error) must produce a diagnostic",
                    b.id
                ),
            }
        }
    }
}
