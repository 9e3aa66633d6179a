//! Differential test: the incremental re-check engine must be observably
//! identical to a from-scratch check of the same (edited) source — same
//! accept/reject decision, byte-identical span-sorted diagnostics, the
//! same judgment counters, and the same structural profile — at every
//! worker count, across cumulative edit batches, error introduction and
//! healing, edits that shift cached diagnostics, and edits that must fall
//! back from the fragment path to a whole-source parse.

use rtjava::corpus::{edit_batches, scaled_classes};
use rtjava::lang::parse_program;
use rtjava::types::{
    check_program_in, CheckOptions, CheckerSnapshot, ClassEdit, IncrementalChecker, RecheckError,
    RecheckOutcome, TypeError,
};
use std::sync::{Mutex, MutexGuard};

/// Structural snapshots record the process-global interner's size, so a
/// test that interns new names while another sits between its engine and
/// scratch captures would make them differ. Each test holds this lock for
/// its whole run.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Profiled options: the snapshots then compare the phase-span tree too.
fn opts(jobs: usize) -> CheckOptions {
    CheckOptions {
        jobs,
        profile: true,
    }
}

/// Options with profiling off, the setting the benchmark and `rtjc check
/// --watch`/`--edits` run with. Without phases the snapshots still compare
/// `methods_checked` and every judgment family's counters.
fn unprofiled(jobs: usize) -> CheckOptions {
    CheckOptions {
        jobs,
        profile: false,
    }
}

/// From-scratch check of `src`: `Ok` yields the structural snapshot,
/// `Err` the span-sorted diagnostics.
fn scratch(src: &str, opts: &CheckOptions) -> Result<CheckerSnapshot, Vec<TypeError>> {
    let program = parse_program(src).expect("edited source parses");
    check_program_in(program, opts)
        .map(|c| CheckerSnapshot::capture(&c.stats, c.profile.as_ref()).structure())
}

/// Asserts the engine's last outcome is observably identical to checking
/// `engine.source()` from scratch with profiling on.
fn assert_matches_scratch(
    label: &str,
    engine: &IncrementalChecker,
    out: &RecheckOutcome,
    jobs: usize,
) {
    assert_matches_scratch_with(label, engine, out, &opts(jobs));
}

/// Asserts the engine's last outcome is observably identical to checking
/// `engine.source()` from scratch with `opts`, the engine's options.
fn assert_matches_scratch_with(
    label: &str,
    engine: &IncrementalChecker,
    out: &RecheckOutcome,
    opts: &CheckOptions,
) {
    match scratch(engine.source(), opts) {
        Ok(snap) => {
            assert!(
                out.ok(),
                "{label}: engine reports errors where scratch accepts: {:?}",
                out.errors
            );
            // Capture after both runs so the process-global interner
            // statistics agree between the two snapshots.
            let engine_snap =
                CheckerSnapshot::capture(&out.stats, out.profile.as_ref()).structure();
            assert_eq!(engine_snap, snap, "{label}: structural snapshots diverge");
        }
        Err(errors) => {
            assert_eq!(
                out.errors, errors,
                "{label}: diagnostics diverge from scratch"
            );
        }
    }
}

fn as_edit(b: &rtjava::corpus::EditBatch) -> ClassEdit {
    ClassEdit {
        class: b.class.clone(),
        source: b.source.clone(),
    }
}

/// The full text of one class declaration in `src`.
fn decl_text(src: &str, name: &str) -> String {
    let program = parse_program(src).expect("source parses");
    let decl = program
        .classes
        .iter()
        .find(|c| c.name.name.as_str() == name)
        .unwrap_or_else(|| panic!("no class {name}"));
    src[decl.span.start as usize..decl.span.end as usize].to_string()
}

#[test]
fn cumulative_edit_batches_match_from_scratch() {
    let _serial = serial();
    for opts in [opts(1), opts(4), unprofiled(1), unprofiled(4)] {
        let mut engine = IncrementalChecker::new(opts.clone());
        let initial = engine.check_source(&scaled_classes(8)).expect("parses");
        assert_matches_scratch_with("initial", &engine, &initial, &opts);

        let script = edit_batches(8, 16, 5);
        for b in &script.batches {
            let out = engine
                .recheck(&[as_edit(b)])
                .unwrap_or_else(|e| panic!("batch {}: {e}", b.id));
            // Every generated edit keeps its class's name and formal count
            // and reaches no region kind, so each takes the fragment path
            // and patches the kept table.
            assert!(
                !out.whole_parse && !out.full_rebuild,
                "batch {} ({}) took the wrong route",
                b.id,
                b.kind
            );
            assert_matches_scratch_with(
                &format!("{opts:?} batch {} ({})", b.id, b.kind),
                &engine,
                &out,
                &opts,
            );
        }
    }
}

#[test]
fn signature_edit_dirties_exactly_the_dependent_closure() {
    let _serial = serial();
    let script = edit_batches(4, 48, 11);
    let sig = script
        .batches
        .iter()
        .find(|b| b.kind == "signature")
        .expect("48 batches include a signature edit");
    let replica = sig.class.strip_prefix("Item").unwrap();

    let mut engine = IncrementalChecker::new(opts(1));
    engine.check_source(&scaled_classes(4)).expect("parses");
    let out = engine.recheck(&[as_edit(sig)]).expect("applies");
    assert!(out.ok(), "{:?}", out.errors);
    assert!(
        !out.full_rebuild,
        "a signature change patches the kept table"
    );
    assert!(
        !out.whole_parse,
        "a signature change parses only its closure"
    );
    let mut dirty: Vec<&str> = out.dirty.iter().map(|s| s.as_str()).collect();
    dirty.sort_unstable();
    let expected = [
        format!("Item{replica}"),
        format!("Node{replica}"),
        format!("Stack{replica}"),
    ];
    assert_eq!(
        dirty, expected,
        "the dirty closure must be the edited class plus its dependents"
    );
}

#[test]
fn body_edit_rechecks_only_the_edited_class() {
    let _serial = serial();
    let script = edit_batches(4, 48, 11);
    let body = script
        .batches
        .iter()
        .find(|b| b.kind == "body")
        .expect("48 batches include a body edit");

    let mut engine = IncrementalChecker::new(opts(1));
    engine.check_source(&scaled_classes(4)).expect("parses");
    let out = engine.recheck(&[as_edit(body)]).expect("applies");
    assert!(out.ok(), "{:?}", out.errors);
    assert!(!out.full_rebuild, "a body edit must keep the table");
    let dirty: Vec<&str> = out.dirty.iter().map(|s| s.as_str()).collect();
    assert_eq!(dirty, [body.class.as_str()]);
    assert_eq!(out.reused, out.classes - 1);
}

#[test]
fn error_edit_and_heal_match_from_scratch() {
    let _serial = serial();
    let pristine = scaled_classes(4);
    let script = edit_batches(4, 48, 11);
    let bad = script
        .batches
        .iter()
        .find(|b| b.kind == "body_error")
        .expect("48 batches include an error edit");

    for opts in [opts(2), unprofiled(2)] {
        let mut engine = IncrementalChecker::new(opts.clone());
        engine.check_source(&pristine).expect("parses");

        let out = engine.recheck(&[as_edit(bad)]).expect("applies");
        assert!(!out.ok(), "the error edit must produce a diagnostic");
        assert_matches_scratch_with(&format!("{opts:?} error introduced"), &engine, &out, &opts);

        // Healing: restore the pristine declaration text.
        let heal = ClassEdit {
            class: bad.class.clone(),
            source: decl_text(&pristine, &bad.class),
        };
        let out = engine.recheck(&[heal]).expect("applies");
        assert!(
            out.ok(),
            "healing must clear the diagnostic: {:?}",
            out.errors
        );
        assert_matches_scratch_with(&format!("{opts:?} error healed"), &engine, &out, &opts);
    }
}

#[test]
fn body_edit_shifts_cached_diagnostics_of_later_classes() {
    let _serial = serial();
    let pristine = scaled_classes(4);
    for opts in [opts(1), unprofiled(1)] {
        let mut engine = IncrementalChecker::new(opts.clone());
        engine.check_source(&pristine).expect("parses");

        // Introduce an error in a late replica, then edit an early class
        // body so every later declaration moves: the cached diagnostic
        // must be re-anchored to its new position, not re-derived.
        let broken = decl_text(&pristine, "Base3").replacen(
            "this.tag = this.tag + x;",
            "this.tag = missing + x;",
            1,
        );
        let out = engine
            .recheck(&[ClassEdit {
                class: "Base3".to_string(),
                source: broken,
            }])
            .expect("applies");
        assert!(!out.ok());
        assert_matches_scratch_with(&format!("{opts:?} error planted"), &engine, &out, &opts);

        let padded = decl_text(&pristine, "Stack0").replacen(
            "let c = 0;",
            "let c = 0;\n        let padding = 424242;\n        c = c + padding - padding;",
            1,
        );
        let out = engine
            .recheck(&[ClassEdit {
                class: "Stack0".to_string(),
                source: padded,
            }])
            .expect("applies");
        assert!(!out.ok(), "the planted error must survive the body edit");
        let dirty: Vec<&str> = out.dirty.iter().map(|s| s.as_str()).collect();
        assert_eq!(dirty, ["Stack0"], "only the padded class re-checks");
        assert_matches_scratch_with(&format!("{opts:?} error shifted"), &engine, &out, &opts);
    }
}

#[test]
fn errors_in_three_replicas_stay_put_around_body_edits() {
    let _serial = serial();
    let pristine = scaled_classes(8);
    let edit = |class: &str, needle: &str, with: &str| {
        let text = decl_text(&pristine, class);
        assert!(text.contains(needle), "{class} lost `{needle}`");
        ClassEdit {
            class: class.to_string(),
            source: text.replacen(needle, with, 1),
        }
    };
    let pad = |class: &str, n: usize| {
        edit(
            class,
            "let c = 0;",
            &format!("let c = 0;\n        let pad{n} = {n};\n        c = c + pad{n} - pad{n};"),
        )
    };
    // `Base1` and `Base6` read an undeclared variable. `Mid4` overrides
    // `bump` at the wrong arity, an inheritance error that also breaks
    // the calls to `bump` in `Mid4` and `Leaf4`.
    let steps = [
        ("Base1 broken", edit("Base1", "this.tag + x", "lost1 + x")),
        (
            "Mid4 broken",
            edit(
                "Mid4",
                "int poke()",
                "int bump() { return 0; }\n    int poke()",
            ),
        ),
        ("Base6 broken", edit("Base6", "this.tag + x", "lost6 + x")),
        ("body edit before them", pad("Stack0", 1)),
        ("body edit between Base1 and Mid4", pad("Stack2", 2)),
        ("body edit between Mid4 and Base6", pad("Stack5", 3)),
        ("body edit after them", pad("Stack7", 4)),
        (
            "Mid4 healed",
            ClassEdit {
                class: "Mid4".to_string(),
                source: decl_text(&pristine, "Mid4"),
            },
        ),
        ("body edit before the rest", pad("Stack0", 5)),
        ("body edit between the rest", pad("Stack4", 6)),
        ("body edit after the rest", pad("Stack7", 7)),
    ];
    for jobs in [1, 4] {
        let opts = unprofiled(jobs);
        let mut engine = IncrementalChecker::new(opts.clone());
        engine.check_source(&pristine).expect("parses");
        for (label, e) in &steps {
            let label = format!("jobs={jobs} {label}");
            let out = engine
                .recheck(std::slice::from_ref(e))
                .unwrap_or_else(|err| panic!("{label}: {err}"));
            assert!(
                !out.whole_parse && !out.full_rebuild,
                "{label}: took the whole-source path"
            );
            assert!(!out.ok(), "{label}: a planted error remains");
            assert_matches_scratch_with(&label, &engine, &out, &opts);
        }
    }
}

#[test]
fn long_replays_match_from_scratch_after_every_batch() {
    let _serial = serial();
    let pristine = scaled_classes(8);
    let opts = unprofiled(1);
    for seed in [2, 13, 37] {
        let mut engine = IncrementalChecker::new(opts.clone());
        engine.check_source(&pristine).expect("parses");
        let mut broken: Vec<String> = Vec::new();
        let mut clean = 0;
        for b in &edit_batches(8, 64, seed).batches {
            let label = format!("seed {seed} batch {} ({})", b.id, b.kind);
            let out = engine
                .recheck(&[as_edit(b)])
                .unwrap_or_else(|e| panic!("{label}: {e}"));
            assert_matches_scratch_with(&label, &engine, &out, &opts);
            clean += usize::from(out.ok());
            if b.kind == "body_error" && !broken.contains(&b.class) {
                broken.push(b.class.clone());
            }
            // The script never heals what it breaks. Every fourth batch
            // restores the broken classes, so the batches after it run
            // clean and compare the counters an erroring pass left.
            if b.id % 4 == 3 && !broken.is_empty() {
                let heal: Vec<ClassEdit> = broken
                    .drain(..)
                    .map(|class| ClassEdit {
                        source: decl_text(&pristine, &class),
                        class,
                    })
                    .collect();
                let out = engine
                    .recheck(&heal)
                    .unwrap_or_else(|e| panic!("{label} heal: {e}"));
                assert!(out.ok(), "{label} heal: {:?}", out.errors);
                assert_matches_scratch_with(&format!("{label} heal"), &engine, &out, &opts);
                clean += 1;
            }
        }
        assert!(
            clean >= 40,
            "seed {seed}: only {clean} clean passes compared their counters"
        );
    }
}

/// Applies one edit, asserts it took the whole-source path, and compares
/// the outcome with a from-scratch check of the edited source at
/// `--jobs 1`, profiled.
fn assert_falls_back(label: &str, engine: &mut IncrementalChecker, edit: ClassEdit) {
    assert_falls_back_with(label, engine, edit, &opts(1));
}

/// [`assert_falls_back`] for an engine built with `opts`.
fn assert_falls_back_with(
    label: &str,
    engine: &mut IncrementalChecker,
    edit: ClassEdit,
    opts: &CheckOptions,
) {
    let label = format!("{opts:?} {label}");
    let out = engine
        .recheck(&[edit])
        .unwrap_or_else(|e| panic!("{label}: {e}"));
    assert!(out.whole_parse, "{label}: must parse the whole source");
    assert_matches_scratch_with(&label, engine, &out, opts);
}

#[test]
fn every_generated_body_edit_takes_the_fragment_path() {
    let _serial = serial();
    let mut engine = IncrementalChecker::new(opts(1));
    engine.check_source(&scaled_classes(4)).expect("parses");
    let script = edit_batches(4, 48, 29);
    let mut signatures = 0;
    for b in &script.batches {
        let out = engine.recheck(&[as_edit(b)]).expect("applies");
        assert!(
            !out.whole_parse,
            "batch {} ({}) parsed everything",
            b.id, b.kind
        );
        assert!(
            !out.full_rebuild,
            "batch {} ({}) rebuilt the table",
            b.id, b.kind
        );
        signatures += usize::from(b.kind == "signature");
    }
    assert!(
        signatures >= 6,
        "{signatures} of 48 batches were signature edits"
    );
}

#[test]
fn edits_outside_the_fragment_rule_fall_back_and_match_from_scratch() {
    let _serial = serial();
    let pristine = scaled_classes(4);
    let stack = decl_text(&pristine, "Stack1");
    let edit = |class: &str, source: String| ClassEdit {
        class: class.to_string(),
        source,
    };
    for opts in [opts(1), unprofiled(1)] {
        let mut engine = IncrementalChecker::new(opts.clone());
        engine.check_source(&pristine).expect("parses");

        // A trailing comment would swallow whatever follows it on the line.
        assert_falls_back_with(
            "trailing comment",
            &mut engine,
            edit("Stack1", format!("{stack} // note")),
            &opts,
        );
        // Two declarations in one edit add a class.
        assert_falls_back_with(
            "two declarations",
            &mut engine,
            edit(
                "Stack1",
                format!("{stack}\nclass Extra<Owner o> {{ int z; }}"),
            ),
            &opts,
        );
        // A rename leaves `main`'s reference to the old name dangling.
        assert_falls_back_with(
            "rename",
            &mut engine,
            edit(
                "Stack0",
                decl_text(&pristine, "Stack0").replacen("Stack0", "Stack0x", 1),
            ),
            &opts,
        );
        assert_falls_back_with(
            "rename back",
            &mut engine,
            edit("Stack0x", decl_text(&pristine, "Stack0")),
            &opts,
        );
    }
}

#[test]
fn unbalanced_brace_reports_the_whole_source_parse_error() {
    let _serial = serial();
    let pristine = scaled_classes(4);
    let mut engine = IncrementalChecker::new(opts(1));
    engine.check_source(&pristine).expect("parses");

    let stack = decl_text(&pristine, "Stack2");
    let broken = stack.replacen("let c = 0;", "let c = 0; {", 1);
    let lo = pristine.find(&stack).unwrap();
    let spliced = format!(
        "{}{}{}",
        &pristine[..lo],
        broken,
        &pristine[lo + stack.len()..]
    );
    let expected = parse_program(&spliced).expect_err("the brace is unbalanced");
    match engine.recheck(&[ClassEdit {
        class: "Stack2".to_string(),
        source: broken,
    }]) {
        Err(RecheckError::Parse(e)) => assert_eq!(e, expected),
        other => panic!("expected a parse error, got {other:?}"),
    }
    assert_eq!(
        engine.source(),
        pristine,
        "a parse error leaves the engine as it was"
    );

    // The next good batch still takes the fragment path and agrees.
    let body = stack.replacen("let c = 0;", "let c = 0; let d = c;", 1);
    let out = engine
        .recheck(&[ClassEdit {
            class: "Stack2".to_string(),
            source: body,
        }])
        .expect("applies");
    assert!(!out.whole_parse);
    assert_matches_scratch("after parse error", &engine, &out, 1);
}

#[test]
fn formal_count_edit_redefaults_dependents() {
    let _serial = serial();
    // `Holder`'s field names `Item` bare, so its elaborated owners follow
    // `Item`'s formal count; `User` reads through that field.
    let src = "class Item<Owner o> { int v; }\n\
               class Holder<Owner o> { Item f; int get() { return this.f.v; } }\n\
               class User<Owner o> { Holder<o> h; int read() { return this.h.f.v; } }\n\
               { let h = new Holder<heap>; print(h.get()); }\n";
    let mut engine = IncrementalChecker::new(opts(1));
    assert!(engine.check_source(src).expect("parses").ok());
    let item = |formals: &str| ClassEdit {
        class: "Item".to_string(),
        source: format!("class Item<{formals}> {{ int v; }}"),
    };
    let holder = |field: &str, ret: &str| ClassEdit {
        class: "Holder".to_string(),
        source: format!("class Holder<Owner o> {{ {field} f; int get() {{ return {ret}; }} }}"),
    };
    assert_falls_back("two formals", &mut engine, item("Owner o, Owner p"));
    // `Holder` was last fingerprinted while `Item` had one formal. Spelled
    // out at that count, its signature hashes as it did then, but `User`
    // now reads a field of the wrong arity.
    let out = engine
        .recheck(&[holder("Item<o>", "this.f.v")])
        .expect("applies");
    assert_eq!(out.errors.len(), 3, "{:?}", out.errors);
    assert_matches_scratch("dependent spelled at the old count", &engine, &out, 1);
    let out = engine
        .recheck(&[holder("Item", "this.f.v + 1")])
        .expect("applies");
    assert_matches_scratch("dependent body edit", &engine, &out, 1);
    assert_falls_back("one formal", &mut engine, item("Owner o"));
    let out = engine
        .recheck(&[holder("Item", "this.f.v")])
        .expect("applies");
    assert_matches_scratch("dependent restored", &engine, &out, 1);
}

#[test]
fn body_edit_after_a_table_error_matches_from_scratch() {
    let _serial = serial();
    let pristine = scaled_classes(2);
    let mut engine = IncrementalChecker::new(opts(1));
    engine.check_source(&pristine).expect("parses");

    let base = decl_text(&pristine, "Base0").replacen(
        "class Base0<Owner o>",
        "class Base0<Owner o> extends Nope<o>",
        1,
    );
    let out = engine
        .recheck(&[ClassEdit {
            class: "Base0".to_string(),
            source: base,
        }])
        .expect("applies");
    assert_eq!(out.errors.len(), 3, "{:?}", out.errors);
    assert_matches_scratch("table error", &engine, &out, 1);

    // The table error left the caches behind the text: this body edit
    // must not trust them, nor take the fragment path.
    let stack = decl_text(&pristine, "Stack1").replacen("let c = 0;", "let c = 0; let d = c;", 1);
    let out = engine
        .recheck(&[ClassEdit {
            class: "Stack1".to_string(),
            source: stack,
        }])
        .expect("applies");
    assert!(out.whole_parse);
    assert_matches_scratch("body edit after table error", &engine, &out, 1);
}

/// Checks `src`, applies `edits` as one batch at `--jobs` 1 and 4, and
/// compares each outcome with a from-scratch check of the edited text.
/// Returns the `--jobs 1` outcome.
fn edit_at_both_job_counts(label: &str, src: &str, edits: &[ClassEdit]) -> RecheckOutcome {
    let mut first = None;
    for jobs in [1, 4] {
        let mut engine = IncrementalChecker::new(opts(jobs));
        assert!(engine.check_source(src).expect("parses").ok(), "{label}");
        let out = engine
            .recheck(edits)
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        assert_matches_scratch(&format!("{label} (jobs={jobs})"), &engine, &out, jobs);
        first.get_or_insert(out);
    }
    first.expect("two job counts ran")
}

fn sorted_dirty(out: &RecheckOutcome) -> Vec<&str> {
    let mut dirty: Vec<&str> = out.dirty.iter().map(|s| s.as_str()).collect();
    dirty.sort_unstable();
    dirty
}

/// Asserts a signature edit took the fragment path, re-checked exactly
/// `dirty`, and reported errors.
fn assert_fragment_errors(label: &str, out: &RecheckOutcome, dirty: &[&str]) {
    assert!(
        !out.whole_parse && !out.full_rebuild,
        "{label}: took the whole-source path"
    );
    assert_eq!(sorted_dirty(out), dirty, "{label}: dirty closure");
    assert!(!out.ok(), "{label}: the dependents must report errors");
}

#[test]
fn removing_a_called_method_reports_errors_in_the_dependents() {
    let _serial = serial();
    let src = scaled_classes(2);
    // `Mid1::poke` and `Leaf1::probe` call `bump`.
    let edit = ClassEdit {
        class: "Base1".to_string(),
        source: "class Base1<Owner o> {\n    int tag;\n}".to_string(),
    };
    let out = edit_at_both_job_counts("bump removed", &src, &[edit]);
    assert_fragment_errors("bump removed", &out, &["Base1", "Leaf1", "Mid1"]);
}

#[test]
fn changing_a_parameter_type_rechecks_the_callers() {
    let _serial = serial();
    let src = scaled_classes(2);
    // `Stack1::push` passes an `Item1` to `init`, and `init` stores `v`
    // into an `Item1` field.
    let node = decl_text(&src, "Node1").replacen("void init(Item1<vo> v,", "void init(int v,", 1);
    let edit = ClassEdit {
        class: "Node1".to_string(),
        source: node,
    };
    let out = edit_at_both_job_counts("int parameter", &src, &[edit]);
    assert_fragment_errors("int parameter", &out, &["Node1", "Stack1"]);
}

#[test]
fn changing_a_formal_kind_keeps_the_count_and_the_fragment_path() {
    let _serial = serial();
    let src = scaled_classes(2);
    // `Node1` and `Stack1` instantiate `Item1` at `vo`, an owner that is
    // not known to be a region.
    let edit = ClassEdit {
        class: "Item1".to_string(),
        source: "class Item1<Region o> { int v; }".to_string(),
    };
    let out = edit_at_both_job_counts("region formal", &src, &[edit]);
    assert_fragment_errors("region formal", &out, &["Item1", "Node1", "Stack1"]);
}

#[test]
fn changing_extends_rechecks_the_subclass() {
    let _serial = serial();
    let src = scaled_classes(2);
    // `Leaf1::probe` calls `link` and `poke`, which `Mid1` declares and
    // `Base1` does not.
    let leaf = decl_text(&src, "Leaf1").replacen("extends Mid1<o>", "extends Base1<o>", 1);
    let edit = ClassEdit {
        class: "Leaf1".to_string(),
        source: leaf,
    };
    let out = edit_at_both_job_counts("new superclass", &src, &[edit]);
    assert_fragment_errors("new superclass", &out, &["Leaf1"]);
}

#[test]
fn a_field_a_subclass_declares_is_a_table_error_that_falls_back_and_resyncs() {
    let _serial = serial();
    let pristine = scaled_classes(2);
    let base = decl_text(&pristine, "Base1");
    // `Mid1` declares `peer`; declaring it in `Base1` too breaks
    // `MembersOnce` on the patched table. Dropping `bump` as well makes
    // a table left patched after the fallback visible to `Leaf1`.
    let clash = ClassEdit {
        class: "Base1".to_string(),
        source: "class Base1<Owner o> {\n    int tag;\n    int peer;\n}".to_string(),
    };
    let out = edit_at_both_job_counts(
        "inherited field clash",
        &pristine,
        std::slice::from_ref(&clash),
    );
    assert!(
        out.whole_parse && out.full_rebuild,
        "a table error falls back"
    );
    assert!(
        out.errors
            .iter()
            .any(|e| e.message.contains("already declared in a superclass")),
        "{:?}",
        out.errors
    );

    for jobs in [1, 4] {
        let mut engine = IncrementalChecker::new(opts(jobs));
        engine.check_source(&pristine).expect("parses");
        engine
            .recheck(std::slice::from_ref(&clash))
            .expect("applies");
        // The table error left the caches behind the text: the heal
        // parses the whole source and commits, ending the resync.
        let heal = ClassEdit {
            class: "Base1".to_string(),
            source: base.clone(),
        };
        let out = engine.recheck(&[heal]).expect("applies");
        assert!(out.whole_parse, "jobs={jobs}: the resync parses everything");
        assert_matches_scratch(&format!("healed (jobs={jobs})"), &engine, &out, jobs);
        let leaf = ClassEdit {
            class: "Leaf1".to_string(),
            source: decl_text(&pristine, "Leaf1").replacen("this.link(this);", "", 1),
        };
        let out = engine.recheck(&[leaf]).expect("applies");
        assert!(
            !out.whole_parse,
            "jobs={jobs}: a body edit after the resync"
        );
        assert_matches_scratch(
            &format!("Leaf1 calls bump (jobs={jobs})"),
            &engine,
            &out,
            jobs,
        );
        let probe = ClassEdit {
            class: "Base1".to_string(),
            source: base.replacen("int tag;", "int tag;\n    int more;", 1),
        };
        let out = engine.recheck(&[probe]).expect("applies");
        assert!(
            !out.whole_parse && !out.full_rebuild,
            "jobs={jobs}: after the resync a signature edit takes the fragment path"
        );
        assert_eq!(sorted_dirty(&out), ["Base1", "Leaf1", "Mid1"]);
        assert_matches_scratch(&format!("resynced (jobs={jobs})"), &engine, &out, jobs);
    }
}

#[test]
fn a_signature_edit_that_reaches_a_region_kind_falls_back() {
    let _serial = serial();
    let src = scaled_classes(2).replacen(
        "\nclass Item0",
        "\nregionKind Pool extends SharedRegion { Item0 head; }\nclass Item0",
        1,
    );
    let grown = |class: &str| ClassEdit {
        class: class.to_string(),
        source: decl_text(&src, class).replacen(
            "int v;",
            "int v; int probe(int x) { return x; }",
            1,
        ),
    };
    let out = edit_at_both_job_counts("Pool names Item0", &src, &[grown("Item0")]);
    assert!(
        out.whole_parse && out.full_rebuild,
        "a closure that reaches a region kind parses the whole source"
    );
    let out = edit_at_both_job_counts("no region kind names Item1", &src, &[grown("Item1")]);
    assert!(!out.whole_parse && !out.full_rebuild);
    assert_eq!(sorted_dirty(&out), ["Item1", "Node1", "Stack1"]);
}

#[test]
fn a_batch_mixing_a_body_and_a_signature_edit_takes_the_fragment_path() {
    let _serial = serial();
    let src = scaled_classes(2);
    let body = ClassEdit {
        class: "Stack0".to_string(),
        source: decl_text(&src, "Stack0").replacen("let c = 0;", "let c = 0; let d = c;", 1),
    };
    let signature = ClassEdit {
        class: "Item1".to_string(),
        source: "class Item1<Owner o> { int v; int w; }".to_string(),
    };
    let out = edit_at_both_job_counts("body and signature", &src, &[body, signature]);
    assert!(out.ok(), "{:?}", out.errors);
    assert!(!out.whole_parse && !out.full_rebuild);
    assert_eq!(sorted_dirty(&out), ["Item1", "Node1", "Stack0", "Stack1"]);
}

/// The text of `src` with class `class`'s declaration replaced.
fn spliced(src: &str, class: &str, decl: &str) -> String {
    let old = decl_text(src, class);
    let at = src.find(&old).expect("declaration text occurs");
    format!("{}{decl}{}", &src[..at], &src[at + old.len()..])
}

#[test]
fn check_source_rechecks_a_changed_class_through_the_fragment_path() {
    let _serial = serial();
    for jobs in [1, 4] {
        let mut engine = IncrementalChecker::new(opts(jobs));
        let mut text = scaled_classes(4);
        engine.check_source(&text).expect("parses");
        for b in &edit_batches(4, 24, 7).batches {
            text = spliced(&text, &b.class, &b.source);
            let out = engine.check_source(&text).expect("parses");
            let label = format!("jobs={jobs} batch {} ({})", b.id, b.kind);
            assert!(
                !out.whole_parse && !out.full_rebuild,
                "{label}: took the whole-source path"
            );
            assert_eq!(engine.source(), text, "{label}");
            assert_matches_scratch(&label, &engine, &out, jobs);
        }
        // An unchanged text re-checks only `main`.
        let out = engine.check_source(&text).expect("parses");
        assert!(!out.whole_parse && out.dirty.is_empty());
        assert_matches_scratch("unchanged text", &engine, &out, jobs);
    }
}

#[test]
fn check_source_parses_the_whole_text_outside_one_class() {
    let _serial = serial();
    let pristine = scaled_classes(4);
    let mut engine = IncrementalChecker::new(opts(1));
    engine.check_source(&pristine).expect("parses");

    // A change in `main`, or one spanning two declarations, is not
    // inside one class.
    let text = pristine.replacen("it.v = 1;", "it.v = 2;", 1);
    let out = engine.check_source(&text).expect("parses");
    assert!(out.whole_parse, "an edit in main parses everything");
    assert_matches_scratch("main edited", &engine, &out, 1);
    let text = text
        .replacen(
            "class Item1<Owner o> { int v; }",
            "class Item1<Owner o> { int v; int w; }",
            1,
        )
        .replacen(
            "int tag;\n    int bump",
            "int tag; int tog;\n    int bump",
            2,
        );
    let out = engine.check_source(&text).expect("parses");
    assert!(out.whole_parse, "an edit across classes parses everything");
    assert_matches_scratch("two classes edited", &engine, &out, 1);

    // A parse error inside one class is the whole text's parse error,
    // and leaves the engine as it was.
    let broken = spliced(
        &text,
        "Stack2",
        &decl_text(&text, "Stack2").replacen("let c = 0;", "let c = 0; {", 1),
    );
    let err = engine.check_source(&broken).expect_err("unbalanced brace");
    assert_eq!(err, parse_program(&broken).expect_err("unbalanced brace"));
    assert_eq!(engine.source(), text);

    // Trivia at the edge of a class falls back inside `recheck`.
    let commented = spliced(
        &text,
        "Base2",
        &format!("{} // note", decl_text(&text, "Base2")),
    );
    let out = engine.check_source(&commented).expect("parses");
    assert!(out.whole_parse, "a trailing comment parses everything");
    assert_matches_scratch("trailing comment", &engine, &out, 1);
}

#[test]
fn a_reference_a_body_edit_adds_joins_later_closures() {
    let _serial = serial();
    let pristine = scaled_classes(2);
    for jobs in [1, 4] {
        let mut engine = IncrementalChecker::new(opts(jobs));
        engine.check_source(&pristine).expect("parses");
        // `Base1` starts reading an `Item1` field in a body edit...
        let base = decl_text(&pristine, "Base1").replacen(
            "this.tag = this.tag + x;",
            "let it = new Item1<o>; this.tag = this.tag + x + it.v;",
            1,
        );
        let out = engine
            .recheck(&[ClassEdit {
                class: "Base1".to_string(),
                source: base,
            }])
            .expect("applies");
        assert!(out.ok(), "{:?}", out.errors);
        assert_eq!(sorted_dirty(&out), ["Base1"]);
        // ...so when `Item1` loses that field, `Base1` re-checks with it,
        // and so do the subclasses that mention `Base1`.
        let out = engine
            .recheck(&[ClassEdit {
                class: "Item1".to_string(),
                source: "class Item1<Owner o> { int w; }".to_string(),
            }])
            .expect("applies");
        assert!(!out.whole_parse && !out.full_rebuild);
        assert_eq!(
            sorted_dirty(&out),
            ["Base1", "Item1", "Leaf1", "Mid1", "Node1", "Stack1"]
        );
        assert!(!out.ok(), "`Base1` reads the missing field");
        assert_matches_scratch(&format!("jobs={jobs}"), &engine, &out, jobs);
    }
}
