//! Experiment harnesses regenerating the paper's evaluation tables.
//!
//! * [`fig11`] — programming overhead: per-program lines of code and
//!   annotated lines (paper Figure 11);
//! * [`fig12`] — dynamic checking overhead: execution time with the RTSJ
//!   dynamic checks vs with them statically elided, and the ratio (paper
//!   Figure 12).
//!
//! Paper-reported values are included in each row so reports can show
//! paper-vs-measured side by side.

use crate::metrics::annotation_report;
use crate::programs::{all, BenchProgram, Category, Scale};
use rtj_interp::{build, run_checked, RunConfig, RunOutcome};
use rtj_runtime::{CheckMode, Json, MetricsSnapshot};

/// Schema identifier for [`fig11_json`] documents.
pub const FIG11_SCHEMA: &str = "rtj-fig11/v1";

/// Schema identifier for [`fig12_json`] documents.
pub const FIG12_SCHEMA: &str = "rtj-fig12/v1";

/// One row of Figure 11.
#[derive(Debug, Clone)]
pub struct Fig11Row {
    /// Program name.
    pub name: &'static str,
    /// Our lines of code.
    pub loc: usize,
    /// Our annotated ("changed") lines.
    pub annotated: usize,
    /// The paper's lines of code (for reference).
    pub paper_loc: Option<u32>,
    /// The paper's changed lines (for reference).
    pub paper_changed: Option<u32>,
}

/// Paper Figure 11 values: (program, lines of code, lines changed).
pub const PAPER_FIG11: [(&str, u32, u32); 8] = [
    ("Array", 56, 4),
    ("Tree", 83, 8),
    ("Water", 1850, 31),
    ("Barnes", 1850, 16),
    ("ImageRec", 567, 8),
    ("http", 603, 20),
    ("game", 97, 10),
    ("phone", 244, 24),
];

/// Paper Figure 12 overhead ratios (execution time with dynamic checks /
/// without).
pub const PAPER_FIG12: [(&str, f64); 11] = [
    ("Array", 7.23),
    ("Tree", 4.83),
    ("Water", 1.24),
    ("Barnes", 1.13),
    ("ImageRec", 1.21),
    ("load", 1.25),
    ("cross", 1.0),
    ("threshold", 1.0),
    ("hysteresis", 1.0),
    ("thinning", 1.1),
    ("save", 1.18),
];

/// The paper's ratio for a program, if reported.
pub fn paper_ratio(name: &str) -> Option<f64> {
    PAPER_FIG12
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, r)| *r)
}

/// Computes Figure 11 (annotation overhead) over the eight Figure 11
/// programs.
pub fn fig11() -> Vec<Fig11Row> {
    all(Scale::Paper)
        .into_iter()
        .filter(|b| !matches!(b.category, Category::ImageStage))
        .map(|b| {
            let rep = annotation_report(&b.source);
            let paper = PAPER_FIG11.iter().find(|(n, _, _)| *n == b.name);
            Fig11Row {
                name: b.name,
                loc: rep.loc,
                annotated: rep.annotated,
                paper_loc: paper.map(|(_, l, _)| *l),
                paper_changed: paper.map(|(_, _, c)| *c),
            }
        })
        .collect()
}

/// One row of Figure 12.
#[derive(Debug, Clone)]
pub struct Fig12Row {
    /// Program name.
    pub name: &'static str,
    /// Reporting category.
    pub category: Category,
    /// Virtual cycles with the type system (checks elided).
    pub static_cycles: u64,
    /// Virtual cycles in RTSJ mode (dynamic checks).
    pub dynamic_cycles: u64,
    /// `dynamic_cycles / static_cycles` — the paper's "Overhead" column.
    pub overhead: f64,
    /// Wall-clock overhead ratio for the same pair of runs.
    pub wall_overhead: f64,
    /// Checks performed in the dynamic run (all kinds, from the metrics
    /// registry).
    pub checks: u64,
    /// Checks elided in the static run. The deterministic scheduler
    /// guarantees `elided == checks` — asserted by [`fig12_row`].
    pub elided: u64,
    /// Virtual cycles the dynamic run spent in checks.
    pub check_cycles: u64,
    /// The paper's reported overhead, when available.
    pub paper_overhead: Option<f64>,
    /// Full metrics snapshot of the dynamic run.
    pub dynamic_metrics: MetricsSnapshot,
    /// Full metrics snapshot of the static run.
    pub static_metrics: MetricsSnapshot,
}

/// Runs one benchmark in both modes and returns its Figure 12 row. The
/// row does not depend on the execution engine: both engines produce
/// identical virtual-cycle accounting and metrics snapshots (see
/// `tests/vm_differential.rs`).
///
/// # Panics
///
/// Panics if the benchmark fails to build or run — corpus programs are
/// supposed to be well-typed and terminate.
pub fn fig12_row(bench: &BenchProgram) -> Fig12Row {
    let checked =
        build(&bench.source).unwrap_or_else(|e| panic!("{}: failed to build: {e}", bench.name));
    let run = |mode: CheckMode| -> RunOutcome {
        let out = run_checked(&checked, RunConfig::new(mode));
        assert!(
            out.error.is_none(),
            "{} ({mode:?}): runtime error: {:?}",
            bench.name,
            out.error
        );
        out
    };
    let dynamic = run(CheckMode::Dynamic);
    let static_ = run(CheckMode::Static);
    assert_eq!(
        dynamic.trace, static_.trace,
        "{}: check mode changed program output",
        bench.name
    );
    let overhead = dynamic.cycles as f64 / static_.cycles.max(1) as f64;
    let wall_overhead = dynamic.wall.as_secs_f64() / static_.wall.as_secs_f64().max(1e-9);
    let checks = dynamic.metrics.checks_performed();
    let elided = static_.metrics.checks_elided();
    assert_eq!(
        checks, elided,
        "{}: the static run must elide exactly the checks the dynamic run \
         performs (deterministic schedule)",
        bench.name
    );
    Fig12Row {
        name: bench.name,
        category: bench.category,
        static_cycles: static_.cycles,
        dynamic_cycles: dynamic.cycles,
        overhead,
        wall_overhead,
        checks,
        elided,
        check_cycles: dynamic.metrics.check_cycles(),
        paper_overhead: paper_ratio(bench.name),
        dynamic_metrics: dynamic.metrics,
        static_metrics: static_.metrics,
    }
}

/// Computes Figure 12 (dynamic checking overhead) for every benchmark.
pub fn fig12(scale: Scale) -> Vec<Fig12Row> {
    all(scale).iter().map(fig12_row).collect()
}

/// Ablation: how the Figure 12 overhead of a benchmark scales with the
/// cost of one RTSJ assignment check. Returns `(store_check_cycles,
/// overhead)` pairs; the zero-cost point isolates the *bookkeeping-free*
/// ratio, and the spread shows how strongly each benchmark's overhead is
/// driven by check cost (micro-benchmarks: strongly; servers: not at all).
pub fn check_cost_ablation(bench: &BenchProgram, costs: &[u64]) -> Vec<(u64, f64)> {
    let checked =
        build(&bench.source).unwrap_or_else(|e| panic!("{}: failed to build: {e}", bench.name));
    costs
        .iter()
        .map(|&store_check| {
            let mut cfg = RunConfig::new(CheckMode::Dynamic);
            cfg.cost.store_check = store_check;
            let dynamic = run_checked(&checked, cfg);
            assert!(
                dynamic.error.is_none(),
                "{}: {:?}",
                bench.name,
                dynamic.error
            );
            let mut cfg = RunConfig::new(CheckMode::Static);
            cfg.cost.store_check = store_check;
            let static_ = run_checked(&checked, cfg);
            assert!(static_.error.is_none());
            (
                store_check,
                dynamic.cycles as f64 / static_.cycles.max(1) as f64,
            )
        })
        .collect()
}

/// Peak live memory of a streaming producer/consumer workload under the
/// two memory-management disciplines the paper compares: per-iteration
/// subregion flushing versus accumulating garbage on the collected heap.
/// Returns `(region_peak_bytes, heap_peak_bytes)` — the paper's
/// related-work point that "region-based memory management may enable
/// programmers to obtain a smaller space overhead".
pub fn memory_footprint(iterations: u32) -> (u64, u64) {
    let regioned = format!(
        r#"
        regionKind Buf extends SharedRegion {{
            subregion Frame : LT(8192) NoRT f;
        }}
        regionKind Frame extends SharedRegion {{ }}
        class Px<Owner o> {{ int v; Px<o> next; }}
        {{
            (RHandle<Buf : VT r> h) {{
                let it = 0;
                while (it < {iterations}) {{
                    (RHandle<Frame fr> hf = h.f) {{
                        let i = 0;
                        let Px<fr> chain = null;
                        while (i < 64) {{
                            let p = new Px<fr>;
                            p.v = it * 64 + i;
                            p.next = chain;
                            chain = p;
                            i = i + 1;
                        }}
                    }}
                    it = it + 1;
                }}
                print(it);
            }}
        }}
        "#
    );
    let heaped = format!(
        r#"
        class Px<Owner o> {{ int v; Px<o> next; }}
        {{
            let it = 0;
            while (it < {iterations}) {{
                let i = 0;
                let Px<heap> chain = null;
                while (i < 64) {{
                    let p = new Px<heap>;
                    p.v = it * 64 + i;
                    p.next = chain;
                    chain = p;
                    i = i + 1;
                }}
                it = it + 1;
            }}
            print(it);
        }}
        "#
    );
    let run = |src: &str| {
        let checked = build(src).expect("footprint program builds");
        let out = run_checked(&checked, RunConfig::new(CheckMode::Static));
        assert!(out.error.is_none(), "{:?}", out.error);
        out
    };
    let region_out = run(&regioned);
    let heap_out = run(&heaped);
    // Peak bytes held live at any moment during each run. The region run
    // flushes every frame; the heap run accumulates until a collection
    // would reclaim it (the GC is off here, as in Figure 12 runs, so this
    // is the high-water mark a collector would have to provision for).
    let region_peak = region_out
        .region_peaks
        .iter()
        .filter(|(label, _, _, _)| label.contains(".f ") || label.contains("local"))
        .map(|(_, _, peak, _)| *peak)
        .max()
        .unwrap_or(0);
    let heap_peak = heap_out
        .region_peaks
        .iter()
        .find(|(label, _, _, _)| label == "heap")
        .map(|(_, _, peak, _)| *peak)
        .unwrap_or(0);
    (region_peak, heap_peak)
}

/// Renders Figure 11 as an aligned text table.
pub fn render_fig11(rows: &[Fig11Row]) -> String {
    let mut out = String::from(
        "Figure 11: Programming Overhead (ours vs paper)\n\
         program     LoC   annotated   paper-LoC   paper-changed\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:<10} {:>5} {:>10} {:>11} {:>15}\n",
            r.name,
            r.loc,
            r.annotated,
            r.paper_loc.map_or("-".into(), |v| v.to_string()),
            r.paper_changed.map_or("-".into(), |v| v.to_string()),
        ));
    }
    out
}

/// Renders Figure 12 as an aligned text table.
pub fn render_fig12(rows: &[Fig12Row]) -> String {
    let mut out = String::from(
        "Figure 12: Dynamic Checking Overhead (virtual cycles)\n\
         program     static-cyc   dynamic-cyc   overhead   paper   checks   elided\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:<10} {:>11} {:>13} {:>10.2} {:>7} {:>8} {:>8}\n",
            r.name,
            r.static_cycles,
            r.dynamic_cycles,
            r.overhead,
            r.paper_overhead.map_or("-".into(), |v| format!("{v:.2}")),
            r.checks,
            r.elided,
        ));
    }
    out
}

/// Serializes Figure 11 rows as an `rtj-fig11/v1` JSON document.
pub fn fig11_json(rows: &[Fig11Row]) -> String {
    Json::obj(vec![
        ("schema", Json::Str(FIG11_SCHEMA.into())),
        (
            "rows",
            Json::Arr(
                rows.iter()
                    .map(|r| {
                        Json::obj(vec![
                            ("name", Json::Str(r.name.into())),
                            ("loc", Json::from(r.loc)),
                            ("annotated", Json::from(r.annotated)),
                            ("paper_loc", r.paper_loc.map_or(Json::Null, Json::from)),
                            (
                                "paper_changed",
                                r.paper_changed.map_or(Json::Null, Json::from),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
    .render()
}

/// Serializes Figure 12 rows as an `rtj-fig12/v1` JSON document.
///
/// Each row embeds the full `rtj-metrics/v1` snapshots of its dynamic
/// and static runs, so `rtjc report` can reconstruct the per-check-kind
/// elision table without re-running anything. Wall-clock ratios are
/// deliberately excluded: the document is byte-deterministic.
pub fn fig12_json(rows: &[Fig12Row]) -> String {
    Json::obj(vec![
        ("schema", Json::Str(FIG12_SCHEMA.into())),
        (
            "rows",
            Json::Arr(
                rows.iter()
                    .map(|r| {
                        Json::obj(vec![
                            ("name", Json::Str(r.name.into())),
                            ("category", Json::Str(r.category.name().into())),
                            ("static_cycles", Json::from(r.static_cycles)),
                            ("dynamic_cycles", Json::from(r.dynamic_cycles)),
                            ("overhead", Json::Float(r.overhead)),
                            ("checks", Json::from(r.checks)),
                            ("elided", Json::from(r.elided)),
                            ("check_cycles", Json::from(r.check_cycles)),
                            (
                                "paper_overhead",
                                r.paper_overhead.map_or(Json::Null, Json::Float),
                            ),
                            ("dynamic_metrics", r.dynamic_metrics.to_json()),
                            ("static_metrics", r.static_metrics.to_json()),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig11_covers_the_eight_programs() {
        let rows = fig11();
        assert_eq!(rows.len(), 8);
        for r in &rows {
            assert!(r.loc > 0);
            assert!(r.annotated > 0, "{} has no annotations?", r.name);
            assert!(
                r.annotated * 2 < r.loc,
                "{}: annotations should be a small fraction of the code \
                 ({}/{})",
                r.name,
                r.annotated,
                r.loc
            );
        }
    }

    #[test]
    fn fig12_smoke_runs_and_orders_correctly() {
        let rows = fig12(Scale::Smoke);
        assert_eq!(rows.len(), 14);
        for r in &rows {
            assert!(
                r.overhead >= 1.0,
                "{}: dynamic should not be faster than static ({:.3})",
                r.name,
                r.overhead
            );
        }
        let get = |n: &str| rows.iter().find(|r| r.name == n).unwrap().overhead;
        // Shape: micro-benchmarks dominate scientific codes dominate
        // servers (even at smoke scale).
        assert!(
            get("Array") > get("Water"),
            "Array {} vs Water {}",
            get("Array"),
            get("Water")
        );
        assert!(
            get("Tree") > get("Barnes"),
            "Tree {} vs Barnes {}",
            get("Tree"),
            get("Barnes")
        );
        assert!(get("http") < 1.1, "http {}", get("http"));
        assert!(get("game") < 1.1);
        assert!(get("phone") < 1.1);

        // Elision accounting: every performed check in the dynamic run is
        // elided in the static run, and checks cost real cycles.
        for r in &rows {
            assert_eq!(r.checks, r.elided, "{}", r.name);
            assert_eq!(r.static_metrics.checks_performed(), 0, "{}", r.name);
            assert!(
                r.dynamic_cycles - r.check_cycles <= r.static_cycles,
                "{}: cycles besides checks should not exceed static total",
                r.name
            );
        }

        // The JSON document round-trips through the generic parser and
        // carries the embedded metrics snapshots.
        let doc = fig12_json(&rows);
        let v = Json::parse(&doc).unwrap();
        assert_eq!(v.get("schema").and_then(Json::as_str), Some(FIG12_SCHEMA));
        let json_rows = v.get("rows").and_then(Json::as_arr).unwrap();
        assert_eq!(json_rows.len(), rows.len());
        let dm = json_rows[0].get("dynamic_metrics").unwrap();
        let snap = MetricsSnapshot::from_json(dm).unwrap();
        assert_eq!(snap, rows[0].dynamic_metrics);
    }

    #[test]
    fn check_cost_ablation_is_monotone_for_micro_flat_for_servers() {
        let benches = all(Scale::Smoke);
        let array = benches.iter().find(|b| b.name == "Array").unwrap();
        let http = benches.iter().find(|b| b.name == "http").unwrap();
        let costs = [0u64, 20, 40, 80];
        let array_curve = check_cost_ablation(array, &costs);
        // Strictly increasing in check cost.
        for w in array_curve.windows(2) {
            assert!(w[1].1 > w[0].1, "{array_curve:?}");
        }
        // At zero check cost the overhead collapses to ~1.
        assert!(array_curve[0].1 < 1.05, "{array_curve:?}");
        // Servers barely move across the whole sweep.
        let http_curve = check_cost_ablation(http, &costs);
        let spread = http_curve.last().unwrap().1 - http_curve[0].1;
        assert!(spread < 0.15, "{http_curve:?}");
    }

    #[test]
    fn regions_bound_memory_where_the_heap_grows() {
        let (region_peak, heap_peak) = memory_footprint(32);
        // The flushed subregion holds at most one frame (64 pixels).
        assert!(region_peak > 0);
        assert!(
            heap_peak >= region_peak * 16,
            "heap accumulates across iterations: region {region_peak} vs heap {heap_peak}"
        );
    }

    #[test]
    fn rendering_is_nonempty() {
        let rows = fig11();
        let s = render_fig11(&rows);
        assert!(s.contains("Array"));
    }
}
