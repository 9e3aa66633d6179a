//! Every corpus benchmark typechecks and runs identically in all three
//! check modes, never fails a check in audit mode (Theorems 3 and 4), and
//! is never faster with checks than without. The Figure 11 and Figure 12
//! documents match their checked-in goldens byte for byte.

use rtjava::corpus::{all, fig11, fig11_json, fig12, fig12_json, Scale};
use rtjava::interp::{build, run_checked, RunConfig};
use rtjava::runtime::CheckMode;

#[test]
fn corpus_smoke_all_modes_agree() {
    for bench in all(Scale::Smoke) {
        let checked = build(&bench.source).unwrap_or_else(|e| panic!("{}: {e}", bench.name));
        let dynamic = run_checked(&checked, RunConfig::new(CheckMode::Dynamic));
        let static_ = run_checked(&checked, RunConfig::new(CheckMode::Static));
        let audit = run_checked(&checked, RunConfig::new(CheckMode::Audit));
        for (mode, out) in [
            ("dynamic", &dynamic),
            ("static", &static_),
            ("audit", &audit),
        ] {
            assert!(
                out.error.is_none(),
                "{} ({mode}): {:?}",
                bench.name,
                out.error
            );
            assert!(!out.trace.is_empty(), "{} printed nothing", bench.name);
        }
        assert_eq!(dynamic.trace, static_.trace, "{}", bench.name);
        assert_eq!(dynamic.trace, audit.trace, "{}", bench.name);
        // Audit performs the same checks as dynamic, for free.
        assert_eq!(
            audit.stats.store_checks, dynamic.stats.store_checks,
            "{}",
            bench.name
        );
        assert_eq!(audit.stats.check_cycles, 0, "{}", bench.name);
        assert!(
            dynamic.cycles >= static_.cycles,
            "{}: dynamic {} < static {}",
            bench.name,
            dynamic.cycles,
            static_.cycles
        );
    }
}

#[test]
fn corpus_never_uses_the_gc_heap_for_primary_data() {
    // "In our implementations, the primary data structures are allocated
    // in regions (i.e., not in the garbage collected heap)." — except the
    // phone server's immortal database, which is also not GC'd.
    for bench in all(Scale::Smoke) {
        let checked = build(&bench.source).unwrap();
        let out = run_checked(&checked, RunConfig::new(CheckMode::Dynamic));
        assert_eq!(
            out.stats.gc_collections, 0,
            "{}: the GC should never run",
            bench.name
        );
    }
}

#[test]
fn annotations_are_a_small_fraction() {
    // Figure 11's qualitative claim: little programming overhead.
    for row in fig11() {
        let frac = row.annotated as f64 / row.loc as f64;
        assert!(
            frac < 0.40,
            "{}: {} of {} lines annotated ({frac:.2})",
            row.name,
            row.annotated,
            row.loc
        );
    }
}

#[test]
fn micro_benchmarks_have_the_largest_overheads() {
    let rows = fig12(Scale::Smoke);
    let overhead = |n: &str| rows.iter().find(|r| r.name == n).unwrap().overhead;
    let micro_min = overhead("Array").min(overhead("Tree"));
    for other in ["Water", "Barnes", "ImageRec", "http", "game", "phone"] {
        assert!(
            micro_min > overhead(other),
            "micro {} ≤ {} {}",
            micro_min,
            other,
            overhead(other)
        );
    }
}

/// Asserts `actual` equals the golden file `tests/golden/{name}`,
/// showing where the two first differ.
fn assert_golden(name: &str, actual: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{name}: {e}"));
    if golden != actual {
        let at = golden
            .bytes()
            .zip(actual.bytes())
            .take_while(|(a, b)| a == b)
            .count();
        let near = |s: &str| {
            String::from_utf8_lossy(&s.as_bytes()[at..(at + 60).min(s.len())]).into_owned()
        };
        panic!(
            "{name} differs at byte {at}: golden `{}`, got `{}`",
            near(&golden),
            near(actual)
        );
    }
}

/// `rtjc fig11 --format json` and `rtjc fig12 --smoke --format json`
/// are deterministic; regenerate the goldens with those commands when a
/// change to the figures is intended.
#[test]
fn figure_documents_match_their_goldens() {
    assert_golden("fig11.json", &format!("{}\n", fig11_json(&fig11())));
    assert_golden(
        "fig12_smoke.json",
        &format!("{}\n", fig12_json(&fig12(Scale::Smoke))),
    );
}
