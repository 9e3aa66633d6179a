//! `rtjc` — the command-line front end.
//!
//! ```text
//! rtjc check <file.rtj>        type-check a program
//! rtjc check --stats <file>    …and print checker-pipeline statistics
//! rtjc check --stats --format json <file>  …as an rtj-checker-metrics/v1 doc
//! rtjc check --jobs N <file>   …with N worker threads (1 = serial, 0 = auto)
//! rtjc check --explain <file>  …rendering each error's derivation trace
//! rtjc check --profile[=FILE] [--trace-format chrome|jsonl] <file>
//!                              …self-profiling the checker pipeline
//! rtjc check --watch [--watch-max N] <file>
//!                              re-check the file whenever it changes,
//!                              reusing fingerprint-clean results
//! rtjc check --edits FILE [--final-out F] <file>
//!                              apply an rtj-edits/v1 script batch by
//!                              batch through the incremental engine
//! rtjc run <file.rtj>          check then run (static mode, bytecode VM)
//! rtjc run --dynamic <file>    run with the RTSJ dynamic checks
//! rtjc run --audit <file>      run the checks at zero virtual cost
//! rtjc run --engine tree <f>   run on the tree-walking engine instead
//! rtjc run --trace FILE <f>    write the structured event trace (JSONL)
//! rtjc run --metrics[=FILE] <f>  export the rtj-metrics/v1 snapshot
//! rtjc fmt <file.rtj>          parse and pretty-print
//! rtjc graph <file.rtj>        run and emit the ownership graph (DOT)
//! rtjc lower <file.rtj>        translate to RTSJ Java (Section 2.6)
//! rtjc fig11 [--format json]   regenerate paper Figure 11
//! rtjc fig12 [--smoke] [--format json]  regenerate Figure 12
//! rtjc report <snapshot.json>...  render metrics/checker/fig12/load snapshots
//! rtjc bench <name>            print a corpus program's source
//! rtjc bench scaled:N          print the N-replica multi-class corpus
//! rtjc bench edits:N [--batches B] [--seed S]
//!                              print a seeded rtj-edits/v1 edit script
//!                              over scaled:N (for `check --edits`)
//! rtjc serve --rounds R        multi-tenant batch serving (saturation)
//! rtjc load --rate HZ --duration-ms MS  open-loop Poisson load
//!                              (both emit rtj-load/v1; see SERVER.md)
//! ```
//!
//! `run --trace`/`run --metrics`, `check --profile`, and `report` are
//! the observability surface: traces are JSONL (one event per line),
//! runtime metrics snapshots are `rtj-metrics/v1` documents, checker
//! snapshots are `rtj-checker-metrics/v1` documents, and `report`
//! renders any mix of those plus `rtj-fig12/v1` documents (from `fig12
//! --format json`), `rtj-load/v1` serving reports (from `serve`/`load`)
//! and the flight recorder's `rtj-server-trace/v1` and `rtj-timeline/v1`
//! documents — given both a checker and a runtime snapshot it appends
//! the combined static-cost vs. checks-elided view. `FILE` may be `-`
//! for stdout. Every command rejects a flag it does not take with a
//! one-line `unknown flag` error.
//!
//! Performance is measured by the benchmark in `perfbench/`, not here.

use rtj_interp::{build, run_checked, Engine, RunConfig, TraceCapture};
use rtj_runtime::{CheckMode, CheckerMetrics, Json, MetricsSnapshot};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str);
    match cmd {
        Some("check") => check_cmd(&args[1..]),
        Some("run") => run_cmd(&args[1..]),
        Some("fmt") => with_file(&args, |src| match rtj_lang::parse_program(src) {
            Ok(p) => {
                print!("{}", rtj_lang::pretty_program(&p));
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("{}", rtj_lang::diag::render(src, e.span, &e.message));
                ExitCode::FAILURE
            }
        }),
        Some("graph") => with_file(&args, |src| match build(src) {
            Ok(checked) => {
                let mut cfg = RunConfig::new(CheckMode::Static);
                cfg.capture_graph = true;
                let out = run_checked(&checked, cfg);
                if let Some(dot) = out.graph {
                    print!("{dot}");
                }
                match out.error {
                    None => ExitCode::SUCCESS,
                    Some(e) => {
                        eprintln!("runtime error: {e}");
                        ExitCode::FAILURE
                    }
                }
            }
            Err(e) => {
                report_build_error(src, &e);
                ExitCode::FAILURE
            }
        }),
        Some("advise") => with_file(&args, |src| match build(src) {
            Ok(checked) => {
                let out = run_checked(&checked, RunConfig::new(CheckMode::Static));
                if let Some(e) = out.error {
                    eprintln!("runtime error: {e}");
                    return ExitCode::FAILURE;
                }
                println!("LT sizing advice (peak usage observed on this run)");
                println!(
                    "{:<24} {:>10} {:>10}   suggestion",
                    "region", "peak", "capacity"
                );
                let mut any = false;
                for (label, policy, peak, capacity) in &out.region_peaks {
                    // Only user LT regions: immortal is LT-like but unbounded.
                    if !matches!(policy, rtj_runtime::AllocPolicy::Lt { .. }) || label == "immortal"
                    {
                        continue;
                    }
                    any = true;
                    let suggested = ((*peak as f64 * 1.25) as u64 + 63)
                        .next_power_of_two()
                        .max(64);
                    let usage = *peak as f64 / (*capacity).max(1) as f64;
                    let note = if usage > 0.9 {
                        format!("raise to LT({suggested}) — within 10% of the bound")
                    } else if (*capacity as f64) > suggested.max(1) as f64 * 4.0 {
                        format!("LT({suggested}) would do — over-provisioned")
                    } else {
                        "ok".to_string()
                    };
                    println!("{label:<24} {peak:>10} {capacity:>10}   {note}");
                }
                if !any {
                    println!("(no LT regions in this program)");
                }
                ExitCode::SUCCESS
            }
            Err(e) => {
                report_build_error(src, &e);
                ExitCode::FAILURE
            }
        }),
        Some("lower") => with_file(&args, |src| match build(src) {
            Ok(checked) => {
                print!("{}", rtj_types::lower::lower_to_rtsj(&checked));
                ExitCode::SUCCESS
            }
            Err(e) => {
                report_build_error(src, &e);
                ExitCode::FAILURE
            }
        }),
        Some("fig11") => fig11_cmd(&args[1..]),
        Some("fig12") => fig12_cmd(&args[1..]),
        Some("report") => report_cmd(&args[1..]),
        Some("bench") => bench_cmd(&args[1..]),
        Some("serve") => serve_cmd(&args[1..]),
        Some("load") => load_cmd(&args[1..]),
        _ => {
            eprintln!(
                "usage: rtjc <check|run|fmt|graph|lower|advise|fig11|fig12|report|bench|serve|load> [args]\n\
                 \n\
                 check [--stats] [--format json] [--jobs N] [--explain]\n\
                 \x20     [--profile[=FILE]] [--trace-format chrome|jsonl]\n\
                 \x20     [--watch [--watch-max N]] [--edits FILE [--final-out F]]\n\
                 \x20     <file>\n\
                 \x20                   type-check a program; --stats --format json\n\
                 \x20                   emits the rtj-checker-metrics/v1 document,\n\
                 \x20                   --explain renders derivation traces,\n\
                 \x20                   --profile exports the self-profiling snapshot;\n\
                 \x20                   --watch re-checks incrementally on change,\n\
                 \x20                   --edits replays an rtj-edits/v1 script\n\
                 run [--static|--dynamic|--audit] [--engine tree|vm]\n\
                 \x20   [--trace FILE] [--metrics[=FILE]] <file>\n\
                 \x20                   check then interpret (bytecode VM by\n\
                 \x20                   default; --engine tree for the walker);\n\
                 \x20                   --trace writes the JSONL event trace,\n\
                 \x20                   --metrics the rtj-metrics/v1 snapshot\n\
                 \x20                   (FILE `-` = stdout)\n\
                 fmt <file>          parse and pretty-print\n\
                 graph <file>        run and emit the ownership graph (DOT, Fig. 6)\n\
                 lower <file>        translate to RTSJ Java (paper Section 2.6)\n\
                 advise <file>       run once and suggest LT region sizes\n\
                 fig11 [--format json]           regenerate paper Figure 11\n\
                 fig12 [--smoke] [--format json] regenerate paper Figure 12\n\
                 report <snapshot.json>...  render the report(s) from any mix of\n\
                 \x20                   rtj-metrics/v1, rtj-checker-metrics/v1,\n\
                 \x20                   rtj-fig12/v1, rtj-load/v1,\n\
                 \x20                   rtj-server-trace/v1, and rtj-timeline/v1\n\
                 \x20                   documents\n\
                 bench <name|scaled[:N]|edits[:N]> [--batches B] [--seed S]\n\
                 \x20                   print a benchmark input: a corpus program,\n\
                 \x20                   the N-replica multi-class corpus, or a\n\
                 \x20                   seeded rtj-edits/v1 script over it\n\
                 serve [--rounds R] [--workers N] [--programs a,b] [--variants K]\n\
                 \x20     [--modes static,dynamic,audit] [--engine vm|tree|both]\n\
                 \x20     [--queue-capacity Q] [--deadline-us D] [--stall-us S]\n\
                 \x20     [--telemetry[=FILE]] [--trace-format chrome|jsonl]\n\
                 \x20     [--tick-us N] [--format json] [--out FILE]\n\
                 \x20     [--sessions FILE]\n\
                 \x20                   run R complete request-mix rounds on the\n\
                 \x20                   multi-tenant server, unpaced (saturation);\n\
                 \x20                   --sessions dumps per-session deterministic\n\
                 \x20                   keys for byte-identity diffs; --telemetry\n\
                 \x20                   runs the flight recorder (=FILE writes the\n\
                 \x20                   rtj-server-trace/v1 trace and the sibling\n\
                 \x20                   *.timeline.json rtj-timeline/v1 document)\n\
                 load [--rate HZ] [--duration-ms MS] [--seed S] + serve's flags\n\
                 \x20                   open-loop Poisson load at a target arrival\n\
                 \x20                   rate; both emit rtj-load/v1 (see SERVER.md)"
            );
            ExitCode::FAILURE
        }
    }
}

/// `rtjc check [--stats] [--format text|json] [--jobs N] [--explain]
/// [--profile[=FILE]] [--trace-format chrome|jsonl] <file>`: type-check,
/// optionally reporting pipeline statistics (`--format json` turns the
/// stats into a versioned `rtj-checker-metrics/v1` document on stdout),
/// rendering the derivation trace behind each type error (`--explain`),
/// and exporting the checker's self-profiling snapshot (`--profile`,
/// with `--trace-format` switching the export to Chrome trace events or
/// their JSONL form). `--jobs 1` forces the serial driver, `--jobs 0`
/// one thread per core. `FILE` may be `-` for stdout.
fn check_cmd(args: &[String]) -> ExitCode {
    const USAGE: &str = "usage: rtjc check [--stats] [--format text|json] [--jobs N] \
                         [--explain] [--profile[=FILE]] [--trace-format chrome|jsonl] \
                         [--watch [--watch-max N]] [--edits FILE [--final-out F]] <file>";
    let mut stats = false;
    let mut json = false;
    let mut jobs = 0usize;
    let mut explain = false;
    let mut profile_out: Option<String> = None;
    let mut trace_format: Option<String> = None;
    let mut watch = false;
    let mut watch_max: Option<u64> = None;
    let mut edits_path: Option<String> = None;
    let mut final_out: Option<String> = None;
    let mut file = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--stats" {
            stats = true;
        } else if a == "--explain" {
            explain = true;
        } else if a == "--watch" {
            watch = true;
        } else if let Some(n) = a.strip_prefix("--watch-max=") {
            match n.parse() {
                Ok(n) => watch_max = Some(n),
                Err(_) => {
                    eprintln!("--watch-max expects a number, got `{n}`");
                    return ExitCode::FAILURE;
                }
            }
        } else if a == "--watch-max" {
            match it.next().map(|n| n.parse()) {
                Some(Ok(n)) => watch_max = Some(n),
                _ => {
                    eprintln!("--watch-max expects a number");
                    return ExitCode::FAILURE;
                }
            }
        } else if let Some(p) = a.strip_prefix("--edits=") {
            edits_path = Some(p.to_string());
        } else if a == "--edits" {
            match it.next() {
                Some(p) => edits_path = Some(p.clone()),
                None => {
                    eprintln!("--edits expects an rtj-edits/v1 file argument");
                    return ExitCode::FAILURE;
                }
            }
        } else if let Some(p) = a.strip_prefix("--final-out=") {
            final_out = Some(p.to_string());
        } else if a == "--final-out" {
            match it.next() {
                Some(p) => final_out = Some(p.clone()),
                None => {
                    eprintln!("--final-out expects a file argument (`-` for stdout)");
                    return ExitCode::FAILURE;
                }
            }
        } else if let Some(p) = a.strip_prefix("--profile=") {
            profile_out = Some(p.to_string());
        } else if a == "--profile" {
            profile_out = Some("-".to_string());
        } else if let Some(f) = a.strip_prefix("--trace-format=") {
            trace_format = Some(f.to_string());
        } else if a == "--trace-format" {
            match it.next() {
                Some(f) => trace_format = Some(f.clone()),
                None => {
                    eprintln!("--trace-format expects `chrome` or `jsonl`");
                    return ExitCode::FAILURE;
                }
            }
        } else if let Some(v) = a.strip_prefix("--format=") {
            json = v == "json";
            if !json && v != "text" {
                eprintln!("--format expects `text` or `json`, got `{v}`");
                return ExitCode::FAILURE;
            }
        } else if a == "--format" {
            match it.next().map(String::as_str) {
                Some("json") => json = true,
                Some("text") => json = false,
                _ => {
                    eprintln!("--format expects `text` or `json`");
                    return ExitCode::FAILURE;
                }
            }
        } else if let Some(n) = a.strip_prefix("--jobs=") {
            match n.parse() {
                Ok(n) => jobs = n,
                Err(_) => {
                    eprintln!("--jobs expects a number, got `{n}`");
                    return ExitCode::FAILURE;
                }
            }
        } else if a == "--jobs" {
            match it.next().map(|n| n.parse()) {
                Some(Ok(n)) => jobs = n,
                _ => {
                    eprintln!("--jobs expects a number");
                    return ExitCode::FAILURE;
                }
            }
        } else if a.starts_with("--") {
            eprintln!("{}", unexpected_arg(a, USAGE));
            return ExitCode::FAILURE;
        } else {
            file = Some(a.clone());
        }
    }
    if let Some(f) = &trace_format {
        if profile_out.is_none() {
            eprintln!("--trace-format requires --profile");
            return ExitCode::FAILURE;
        }
        if f != "chrome" && f != "jsonl" {
            eprintln!("--trace-format expects `chrome` or `jsonl`, got `{f}`");
            return ExitCode::FAILURE;
        }
    }
    let Some(path) = file else {
        eprintln!("missing file argument");
        return ExitCode::FAILURE;
    };
    if watch && edits_path.is_some() {
        eprintln!("--watch and --edits are mutually exclusive");
        return ExitCode::FAILURE;
    }
    // The incremental flows print one summary line per pass and nothing
    // else, so a reporting flag would be silently ignored.
    let incremental = if watch {
        Some("--watch")
    } else {
        edits_path.as_ref().map(|_| "--edits")
    };
    if let Some(mode) = incremental {
        let reporting = [
            (stats, "--stats"),
            (explain, "--explain"),
            (profile_out.is_some(), "--profile"),
        ];
        if let Some((_, flag)) = reporting.iter().find(|(set, _)| *set) {
            eprintln!("{mode} and {flag} are mutually exclusive");
            return ExitCode::FAILURE;
        }
    }
    if watch_max.is_some() && !watch {
        eprintln!("--watch-max requires --watch");
        return ExitCode::FAILURE;
    }
    if final_out.is_some() && edits_path.is_none() {
        eprintln!("--final-out requires --edits");
        return ExitCode::FAILURE;
    }
    let opts = rtj_types::CheckOptions {
        jobs,
        profile: profile_out.is_some(),
    };
    if watch {
        return check_watch(&path, watch_max, opts);
    }
    if let Some(edits) = &edits_path {
        return check_edits(&path, edits, final_out.as_deref(), opts);
    }
    let src = match std::fs::read_to_string(&path) {
        Ok(src) => src,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let parse_start = std::time::Instant::now();
    let program = match rtj_lang::parse_program(&src) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{}", rtj_lang::diag::render(&src, e.span, &e.message));
            return ExitCode::FAILURE;
        }
    };
    let parse_wall = parse_start.elapsed();
    match rtj_types::check_program_in(program, &opts) {
        Ok(checked) => {
            // The lex/parse span runs before `check_program_in` (the
            // profile epoch), so it is prepended at offset zero.
            let profile = checked.profile.clone().map(|mut p| {
                p.prepend(rtj_types::PhaseSpan::leaf(
                    "parse",
                    std::time::Duration::ZERO,
                    parse_wall,
                ));
                p
            });
            let snap = rtj_types::CheckerSnapshot::capture(&checked.stats, profile.as_ref());
            if stats && json {
                println!("{}", snap.render());
            } else {
                println!("ok");
                if stats {
                    print_stats(&checked.stats);
                }
            }
            if let Some(dest) = &profile_out {
                let text = match trace_format.as_deref() {
                    Some("chrome") => format!("{}\n", snap.to_chrome_trace().render()),
                    Some("jsonl") => snap.to_trace_jsonl(),
                    _ => format!("{}\n", snap.render()),
                };
                if let Err(e) = write_output(dest, &text) {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            }
            ExitCode::SUCCESS
        }
        Err(errs) => {
            for t in &errs {
                if explain {
                    eprintln!(
                        "{}",
                        rtj_lang::diag::render_with_notes(&src, t.span, &t.message, &t.notes)
                    );
                } else {
                    eprintln!("{}", rtj_lang::diag::render(&src, t.span, &t.message));
                }
            }
            ExitCode::FAILURE
        }
    }
}

/// One line summarizing an incremental pass, for the watch/edits flows:
/// what it re-checked, whether it rebuilt the table, and whether it
/// parsed the whole source. `wall` is the whole engine call, source to
/// verdict; the checking time beside it excludes lexing and parsing.
fn recheck_summary(out: &rtj_types::RecheckOutcome, wall: std::time::Duration) -> String {
    format!(
        "{} of {} classes re-checked ({} reused, {}, {}) in {:.3} ms ({:.3} ms checking), {} error{}",
        out.dirty.len(),
        out.classes,
        out.reused,
        if out.full_rebuild {
            "full rebuild"
        } else {
            "table reused"
        },
        if out.whole_parse {
            "whole parse"
        } else {
            "fragment parse"
        },
        wall.as_secs_f64() * 1e3,
        out.check_ns as f64 / 1e6,
        out.errors.len(),
        if out.errors.len() == 1 { "" } else { "s" }
    )
}

/// `rtjc check --watch [--watch-max N] <file>`: poll the file's mtime and
/// re-check on every change through the fingerprint-keyed incremental
/// engine, which re-parses only the changed class when an edit stays
/// inside one. Summaries go to stdout, diagnostics to stderr.
/// `--watch-max` exits cleanly after N checks (the initial check counts)
/// — the CI smoke's hook; without it the loop runs until interrupted. A
/// file that cannot be read at the start fails like a plain `check`.
fn check_watch(path: &str, watch_max: Option<u64>, opts: rtj_types::CheckOptions) -> ExitCode {
    let mut engine = rtj_types::IncrementalChecker::new(opts);
    let mut last_mtime = None;
    let mut checks = 0u64;
    loop {
        let mtime = std::fs::metadata(path).and_then(|m| m.modified()).ok();
        if checks == 0 || (mtime.is_some() && mtime != last_mtime) {
            last_mtime = mtime;
            match std::fs::read_to_string(path) {
                Ok(src) => {
                    let t0 = std::time::Instant::now();
                    match engine.check_source(&src) {
                        Ok(out) => {
                            println!("[watch] {path}: {}", recheck_summary(&out, t0.elapsed()));
                            for t in &out.errors {
                                eprintln!("{}", rtj_lang::diag::render(&src, t.span, &t.message));
                            }
                        }
                        Err(e) => {
                            println!("[watch] {path}: parse error (cache kept)");
                            eprintln!("{}", rtj_lang::diag::render(&src, e.span, &e.message));
                        }
                    }
                    checks += 1;
                    if let Some(max) = watch_max {
                        if checks >= max {
                            return ExitCode::SUCCESS;
                        }
                    }
                }
                Err(e) if checks == 0 => {
                    eprintln!("cannot read {path}: {e}");
                    return ExitCode::FAILURE;
                }
                Err(e) => eprintln!("cannot read {path}: {e}"),
            }
        }
        std::thread::sleep(std::time::Duration::from_millis(150));
    }
}

/// `rtjc check --edits FILE [--final-out F] <file>`: apply an
/// `rtj-edits/v1` script batch by batch through the incremental engine.
/// Per-batch summaries go to stdout; the *final* source's diagnostics go
/// to stderr (rendered exactly as a plain `rtjc check` of that source
/// would — the CI smoke diffs the two); `--final-out` writes the final
/// edited source so that from-scratch check can be run. Exits non-zero
/// iff the final source has errors.
fn check_edits(
    path: &str,
    edits_path: &str,
    final_out: Option<&str>,
    opts: rtj_types::CheckOptions,
) -> ExitCode {
    let run = || -> Result<ExitCode, String> {
        let src = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let text = std::fs::read_to_string(edits_path)
            .map_err(|e| format!("cannot read {edits_path}: {e}"))?;
        let doc = Json::parse(&text).map_err(|e| format!("{edits_path}: {e}"))?;
        let script = rtj_corpus::parse_edits(&doc).map_err(|e| format!("{edits_path}: {e}"))?;
        let mut engine = rtj_types::IncrementalChecker::new(opts);
        let t0 = std::time::Instant::now();
        let mut last = match engine.check_source(&src) {
            Ok(out) => out,
            Err(e) => {
                eprintln!("{}", rtj_lang::diag::render(&src, e.span, &e.message));
                return Ok(ExitCode::FAILURE);
            }
        };
        println!("initial: {}", recheck_summary(&last, t0.elapsed()));
        for b in &script.batches {
            let t0 = std::time::Instant::now();
            let out = engine
                .recheck(&[rtj_types::ClassEdit {
                    class: b.class.clone(),
                    source: b.source.clone(),
                }])
                .map_err(|e| format!("batch {}: {e}", b.id))?;
            println!(
                "batch {:>3} {:<10} {:<10} {}",
                b.id,
                b.kind,
                b.class,
                recheck_summary(&out, t0.elapsed())
            );
            last = out;
        }
        if let Some(dest) = final_out {
            write_output(dest, engine.source())?;
        }
        for t in &last.errors {
            eprintln!(
                "{}",
                rtj_lang::diag::render(engine.source(), t.span, &t.message)
            );
        }
        Ok(if last.errors.is_empty() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        })
    };
    run().unwrap_or_else(|e| {
        eprintln!("{e}");
        ExitCode::FAILURE
    })
}

/// `rtjc run [--static|--dynamic|--audit] [--engine tree|vm] [--trace FILE]
/// [--metrics[=FILE]] <file>`:
/// check then interpret, optionally exporting the structured event trace
/// (JSONL, one event per line) and the `rtj-metrics/v1` snapshot (with
/// the static checker's counters attached). `FILE` may be `-` for stdout.
/// `--engine` selects the execution engine (bytecode VM by default; both
/// produce identical cycles, metrics, and traces).
fn run_cmd(args: &[String]) -> ExitCode {
    let mut mode = CheckMode::Static;
    let mut engine = Engine::default();
    let mut trace_out: Option<String> = None;
    // `None` = no export; `Some("-")` = stdout (also from bare `--metrics`).
    let mut metrics_out: Option<String> = None;
    let mut file = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--dynamic" {
            mode = CheckMode::Dynamic;
        } else if a == "--static" {
            mode = CheckMode::Static;
        } else if a == "--audit" {
            mode = CheckMode::Audit;
        } else if let Some(v) = a.strip_prefix("--engine=") {
            match engine_from_str(v) {
                Some(e) => engine = e,
                None => {
                    eprintln!("--engine expects `tree` or `vm`, got `{v}`");
                    return ExitCode::FAILURE;
                }
            }
        } else if a == "--engine" {
            match it.next().map(String::as_str).and_then(engine_from_str) {
                Some(e) => engine = e,
                None => {
                    eprintln!("--engine expects `tree` or `vm`");
                    return ExitCode::FAILURE;
                }
            }
        } else if let Some(p) = a.strip_prefix("--trace=") {
            trace_out = Some(p.to_string());
        } else if a == "--trace" {
            match it.next() {
                Some(p) => trace_out = Some(p.clone()),
                None => {
                    eprintln!("--trace expects a file argument (`-` for stdout)");
                    return ExitCode::FAILURE;
                }
            }
        } else if let Some(p) = a.strip_prefix("--metrics=") {
            metrics_out = Some(p.to_string());
        } else if a == "--metrics" {
            metrics_out = Some("-".to_string());
        } else if a.starts_with("--") {
            eprintln!(
                "{}",
                unexpected_arg(
                    a,
                    "usage: rtjc run [--static|--dynamic|--audit] [--engine tree|vm] \
                     [--trace FILE] [--metrics[=FILE]] <file>"
                )
            );
            return ExitCode::FAILURE;
        } else {
            file = Some(a.clone());
        }
    }
    let Some(path) = file else {
        eprintln!("missing file argument");
        return ExitCode::FAILURE;
    };
    let src = match std::fs::read_to_string(&path) {
        Ok(src) => src,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let checked = match build(&src) {
        Ok(c) => c,
        Err(e) => {
            report_build_error(&src, &e);
            return ExitCode::FAILURE;
        }
    };
    let mut cfg = RunConfig::new(mode);
    cfg.engine = engine;
    if trace_out.is_some() {
        cfg.events = TraceCapture::Full;
    }
    let out = run_checked(&checked, cfg);
    for line in &out.trace {
        println!("{line}");
    }
    if let Some(dest) = &trace_out {
        let lines = out.events.as_deref().unwrap_or_default();
        let mut text = lines.join("\n");
        if !text.is_empty() {
            text.push('\n');
        }
        if let Err(e) = write_output(dest, &text) {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    }
    if let Some(dest) = &metrics_out {
        let mut snap = out.metrics.clone();
        snap.checker = Some(checker_metrics(&checked.stats));
        if let Err(e) = write_output(dest, &format!("{}\n", snap.render())) {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    }
    eprintln!(
        "[{} cycles, {} objects, {} checks performed, {} elided, {:?} wall]",
        out.cycles,
        out.metrics.objects_allocated,
        out.metrics.checks_performed(),
        out.metrics.checks_elided(),
        out.wall
    );
    match out.error {
        None => ExitCode::SUCCESS,
        Some(e) => {
            eprintln!("runtime error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `rtjc fig11 [--format json]`: regenerate paper Figure 11, as a text
/// table or as its `rtj-fig11/v1` document.
fn fig11_cmd(args: &[String]) -> ExitCode {
    let run = || -> Result<ExitCode, String> {
        let (json, rest) = take_format(args)?;
        if let Some(a) = rest.first() {
            return Err(unexpected_arg(a, "usage: rtjc fig11 [--format json]"));
        }
        let rows = rtj_corpus::fig11();
        if json {
            println!("{}", rtj_corpus::fig11_json(&rows));
        } else {
            print!("{}", rtj_corpus::render_fig11(&rows));
        }
        Ok(ExitCode::SUCCESS)
    };
    run().unwrap_or_else(|e| {
        eprintln!("{e}");
        ExitCode::FAILURE
    })
}

/// `rtjc fig12 [--smoke] [--format json]`: regenerate paper Figure 12 at
/// Paper scale (Smoke scale with `--smoke`), as a text table or as its
/// `rtj-fig12/v1` document.
fn fig12_cmd(args: &[String]) -> ExitCode {
    let run = || -> Result<ExitCode, String> {
        let (json, rest) = take_format(args)?;
        let mut scale = rtj_corpus::Scale::Paper;
        for a in &rest {
            if a != "--smoke" {
                return Err(unexpected_arg(
                    a,
                    "usage: rtjc fig12 [--smoke] [--format json]",
                ));
            }
            scale = rtj_corpus::Scale::Smoke;
        }
        let rows = rtj_corpus::fig12(scale);
        if json {
            println!("{}", rtj_corpus::fig12_json(&rows));
        } else {
            print!("{}", rtj_corpus::render_fig12(&rows));
        }
        Ok(ExitCode::SUCCESS)
    };
    run().unwrap_or_else(|e| {
        eprintln!("{e}");
        ExitCode::FAILURE
    })
}

/// `rtjc bench <name|scaled[:N]|edits[:N]> [--batches B] [--seed S]`:
/// print a benchmark input. A corpus name prints that program's source,
/// `scaled[:N]` the N-replica multi-class corpus
/// (`rtj_corpus::scaled_classes`), and `edits[:N]` the seeded
/// `rtj-edits/v1` script of `--batches` single-class edits over that
/// corpus, which `rtjc check --edits` replays. `N` defaults to 8 for
/// both, so `bench scaled` and `bench edits` pair up.
fn bench_cmd(args: &[String]) -> ExitCode {
    const USAGE: &str = "usage: rtjc bench <name|scaled[:N]|edits[:N]> [--batches B] [--seed S]";
    let run = || -> Result<String, String> {
        let mut batches = None;
        let mut seed = None;
        let mut name = None;
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let (flag, inline) = match a.split_once('=') {
                Some((f, v)) => (f, Some(v)),
                None => (a.as_str(), None),
            };
            let target = match flag {
                "--batches" => &mut batches,
                "--seed" => &mut seed,
                _ if a.starts_with("--") || name.is_some() => return Err(unexpected_arg(a, USAGE)),
                _ => {
                    name = Some(a.as_str());
                    continue;
                }
            };
            let value = inline
                .or_else(|| it.next().map(String::as_str))
                .ok_or_else(|| format!("{flag} expects a number"))?;
            *target = Some(
                value
                    .parse::<u64>()
                    .map_err(|_| format!("{flag} expects a number, got `{value}`"))?,
            );
        }
        let name = name.ok_or(USAGE)?;
        if let Some(n) = replica_count(name, "edits")? {
            let script =
                rtj_corpus::edit_batches(n, batches.unwrap_or(24) as usize, seed.unwrap_or(1));
            return Ok(format!("{}\n", rtj_corpus::edits_json(&script).render()));
        }
        if batches.is_some() || seed.is_some() {
            return Err(format!(
                "--batches and --seed apply to `edits:N` only; {USAGE}"
            ));
        }
        if let Some(n) = replica_count(name, "scaled")? {
            return Ok(rtj_corpus::scaled_classes(n));
        }
        let benches = rtj_corpus::all(rtj_corpus::Scale::Paper);
        match benches.iter().find(|b| b.name == name) {
            Some(b) => Ok(b.source.clone()),
            None => Err(format!(
                "unknown benchmark `{name}`; available: {}, scaled[:N], edits[:N]",
                benches
                    .iter()
                    .map(|b| b.name)
                    .collect::<Vec<_>>()
                    .join(", ")
            )),
        }
    };
    match run() {
        Ok(text) => {
            print!("{text}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

/// The replica count of a `prefix[:N]` benchmark name (8 when `N` is
/// omitted), or `None` when `name` is not of that form.
fn replica_count(name: &str, prefix: &str) -> Result<Option<usize>, String> {
    match name.strip_prefix(prefix) {
        Some("" | ":") => Ok(Some(8)),
        Some(rest) => match rest.strip_prefix(':') {
            Some(n) => n
                .parse()
                .map(Some)
                .map_err(|_| format!("`{prefix}:` expects a replica count, got `{n}`")),
            None => Ok(None),
        },
        None => Ok(None),
    }
}

/// Every versioned document schema `rtjc report` can render, in the
/// order they are listed in error messages and the usage text.
const SUPPORTED_SCHEMAS: [&str; 6] = [
    rtj_runtime::METRICS_SCHEMA,
    rtj_types::CHECKER_METRICS_SCHEMA,
    rtj_corpus::FIG12_SCHEMA,
    rtj_server::LOAD_SCHEMA,
    rtj_server::SERVER_TRACE_SCHEMA,
    rtj_server::TIMELINE_SCHEMA,
];

/// `rtjc report <snapshot.json>...`: render the report(s) from any mix
/// of observability documents — `rtj-metrics/v1` (from `rtjc run
/// --metrics`), `rtj-checker-metrics/v1` (from `rtjc check --profile` or
/// `check --stats --format json`), `rtj-fig12/v1` (from `rtjc fig12
/// --format json`), `rtj-load/v1` (from `rtjc serve`/`load`), and the
/// flight recorder's `rtj-server-trace/v1` and `rtj-timeline/v1`. Given
/// both a checker and a runtime document, a combined static-cost vs.
/// dynamic-checks-elided section follows the per-document reports.
fn report_cmd(args: &[String]) -> ExitCode {
    const USAGE: &str = "usage: rtjc report <snapshot.json>...";
    if let Some(flag) = args.iter().find(|a| a.starts_with("--")) {
        eprintln!("{}", unexpected_arg(flag, USAGE));
        return ExitCode::FAILURE;
    }
    if args.is_empty() {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    }
    let mut checker: Option<rtj_types::CheckerSnapshot> = None;
    let mut runtime: Option<MetricsSnapshot> = None;
    let mut out = String::new();
    for (i, path) in args.iter().enumerate() {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let doc = match Json::parse(&text) {
            Ok(d) => d,
            Err(e) => {
                eprintln!("{path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        if i > 0 {
            out.push('\n');
        }
        match doc.get("schema").and_then(Json::as_str) {
            Some(rtj_runtime::METRICS_SCHEMA) => match MetricsSnapshot::from_json(&doc) {
                Ok(snap) => {
                    out += &snap.render_report();
                    match &mut runtime {
                        Some(agg) => agg.merge(&snap),
                        None => runtime = Some(snap),
                    }
                }
                Err(e) => {
                    eprintln!("{path}: {e}");
                    return ExitCode::FAILURE;
                }
            },
            Some(rtj_types::CHECKER_METRICS_SCHEMA) => {
                match rtj_types::CheckerSnapshot::from_json(&doc) {
                    Ok(snap) => {
                        out += &snap.render_report();
                        checker = Some(snap);
                    }
                    Err(e) => {
                        eprintln!("{path}: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            Some(rtj_corpus::FIG12_SCHEMA) => match render_fig12_document(&doc) {
                Ok(report) => out += &report,
                Err(e) => {
                    eprintln!("{path}: {e}");
                    return ExitCode::FAILURE;
                }
            },
            Some(rtj_server::LOAD_SCHEMA) => match rtj_server::LoadReport::from_json(&doc) {
                Ok(report) => {
                    out += &report.render_report();
                    // Feed the per-mode merged snapshots into the runtime
                    // aggregate so a load doc composes with a checker doc
                    // in the combined static/dynamic view.
                    for (_, snap) in &report.mode_metrics {
                        match &mut runtime {
                            Some(agg) => agg.merge(snap),
                            None => runtime = Some(snap.clone()),
                        }
                    }
                }
                Err(e) => {
                    eprintln!("{path}: {e}");
                    return ExitCode::FAILURE;
                }
            },
            Some(rtj_server::SERVER_TRACE_SCHEMA) => {
                match rtj_server::ServerTrace::from_json(&doc) {
                    Ok(trace) => out += &trace.render_report(),
                    Err(e) => {
                        eprintln!("{path}: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            Some(rtj_server::TIMELINE_SCHEMA) => match rtj_server::Timeline::from_json(&doc) {
                Ok(timeline) => out += &timeline.render_report(),
                Err(e) => {
                    eprintln!("{path}: {e}");
                    return ExitCode::FAILURE;
                }
            },
            other => {
                let supported = SUPPORTED_SCHEMAS.join("`, `");
                match other {
                    Some(name) => eprintln!(
                        "{path}: unknown schema `{name}`; supported schemas: `{supported}`"
                    ),
                    None => eprintln!(
                        "{path}: missing string `schema` field; supported schemas: `{supported}`"
                    ),
                }
                return ExitCode::FAILURE;
            }
        }
    }
    if let (Some(ck), Some(rt)) = (&checker, &runtime) {
        out.push('\n');
        out += &render_combined(ck, rt);
    }
    print!("{out}");
    ExitCode::SUCCESS
}

/// The unified observability view: what the static checker spent (cache
/// traffic, wall time) against what that spending bought at run time
/// (dynamic checks elided and the virtual cycles they would have cost).
fn render_combined(ck: &rtj_types::CheckerSnapshot, rt: &MetricsSnapshot) -> String {
    use std::fmt::Write as _;
    let mut out = String::from("combined static/dynamic view\n");
    let queries: u64 = ck.judgments.iter().map(|(_, j)| j.hits + j.misses).sum();
    let evals: u64 = ck.judgments.iter().map(|(_, j)| j.evals).sum();
    let _ = writeln!(
        out,
        "  static cost     : {queries} judgment queries ({evals} deduced), {:?} wall",
        ck.elapsed
    );
    let performed = rt.checks_performed();
    let elided = rt.checks_elided();
    let _ = writeln!(
        out,
        "  dynamic effect  : {elided} checks elided, {performed} performed ({} mode)",
        rt.mode.name()
    );
    let total = performed + elided;
    if total > 0 {
        let _ = writeln!(
            out,
            "  elision rate    : {:.1}% of candidate checks discharged statically",
            elided as f64 / total as f64 * 100.0
        );
    }
    if elided > 0 {
        let _ = writeln!(
            out,
            "  leverage        : {:.2} checks elided per judgment query",
            elided as f64 / queries.max(1) as f64
        );
    }
    out
}

/// Renders an `rtj-fig12/v1` document: the Figure-12 table reconstructed
/// from the stored rows, followed by the per-check-kind elision report
/// aggregated over every row's embedded dynamic-run snapshot.
fn render_fig12_document(doc: &Json) -> Result<String, String> {
    let rows = doc
        .get("rows")
        .and_then(Json::as_arr)
        .ok_or("missing `rows` array")?;
    let mut out = String::from(
        "Figure 12: Dynamic Checking Overhead (from rtj-fig12/v1 snapshot)\n\
         program     static-cyc   dynamic-cyc   overhead   paper   checks   elided\n",
    );
    let mut aggregate: Option<MetricsSnapshot> = None;
    for (i, row) in rows.iter().enumerate() {
        let field = |key: &str| {
            row.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("row {i}: missing `{key}`"))
        };
        let name = row
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("row {i}: missing `name`"))?;
        let overhead = row
            .get("overhead")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("row {i}: missing `overhead`"))?;
        let paper = match row.get("paper_overhead").and_then(Json::as_f64) {
            Some(p) => format!("{p:.2}"),
            None => "—".to_string(),
        };
        out += &format!(
            "{:<10} {:>11} {:>13} {:>10.2} {:>7} {:>8} {:>8}\n",
            name,
            field("static_cycles")?,
            field("dynamic_cycles")?,
            overhead,
            paper,
            field("checks")?,
            field("elided")?,
        );
        let dm = row
            .get("dynamic_metrics")
            .ok_or_else(|| format!("row {i}: missing `dynamic_metrics`"))?;
        let snap = MetricsSnapshot::from_json(dm)
            .map_err(|e| format!("row {i}: bad dynamic_metrics: {e}"))?;
        match &mut aggregate {
            Some(agg) => agg.merge(&snap),
            None => aggregate = Some(snap),
        }
    }
    if let Some(agg) = aggregate {
        out += "\nAggregate dynamic-run metrics (all rows)\n";
        out += &agg.render_report();
    }
    Ok(out)
}

/// Telemetry flags shared by `rtjc serve`/`load`:
/// `--telemetry[=FILE]` turns the flight recorder on (and optionally
/// writes the trace document to FILE plus the timeline to the sibling
/// `*.timeline.json`), `--trace-format chrome|jsonl` selects the trace
/// export (default: the versioned `rtj-server-trace/v1` document), and
/// `--tick-us N` sets the sampler period.
#[derive(Clone, Default)]
struct TelemetryCli {
    enabled: bool,
    file: Option<String>,
    format: Option<String>,
    tick_us: Option<u64>,
}

impl TelemetryCli {
    /// The [`rtj_server::TelemetryConfig`] to put in the serve config —
    /// `None` when `--telemetry` was not given.
    fn config(&self) -> Option<rtj_server::TelemetryConfig> {
        if !self.enabled {
            return None;
        }
        let mut cfg = rtj_server::TelemetryConfig::default();
        if let Some(us) = self.tick_us {
            cfg.tick = std::time::Duration::from_micros(us);
        }
        Some(cfg)
    }
}

/// Writes the flight-recorder documents requested by `--telemetry=FILE`:
/// the scheduling trace to FILE (versioned `rtj-server-trace/v1` by
/// default, Chrome `trace_event` JSON with `--trace-format chrome`,
/// JSONL with `jsonl`) and the `rtj-timeline/v1` document to the
/// sibling `*.timeline.json` (skipped when FILE is `-`).
fn write_telemetry(cli: &TelemetryCli, telemetry: &rtj_server::Telemetry) -> Result<(), String> {
    let Some(path) = &cli.file else {
        return Ok(());
    };
    let text = match cli.format.as_deref() {
        Some("chrome") => telemetry.trace.to_chrome_trace().render() + "\n",
        Some("jsonl") => telemetry.trace.to_trace_jsonl(),
        _ => telemetry.trace.render() + "\n",
    };
    write_output(path, &text)?;
    if path != "-" {
        let sibling = match path.strip_suffix(".json") {
            Some(stem) => format!("{stem}.timeline.json"),
            None => format!("{path}.timeline.json"),
        };
        write_output(&sibling, &(telemetry.timeline.render() + "\n"))?;
    }
    Ok(())
}

/// Flags shared by `rtjc serve` and `rtjc load`: everything that shapes
/// the request mix and the executor, plus the [`TelemetryCli`] flight
/// recorder flags. Returns the parsed [`rtj_server::ServeConfig`]
/// (telemetry already applied), the telemetry flags, and the leftover
/// command-specific flags.
type ServeFlags = (rtj_server::ServeConfig, TelemetryCli, Vec<String>);

/// Parses the shared serve/load flags (see [`ServeFlags`]).
fn parse_serve_flags(args: &[String]) -> Result<ServeFlags, String> {
    use rtj_server::ServeConfig;
    let mut cfg = ServeConfig::default();
    let mut telemetry = TelemetryCli::default();
    let mut rest = Vec::new();
    let mut it = args.iter();
    let next_value = |it: &mut std::slice::Iter<String>, flag: &str| -> Result<String, String> {
        it.next()
            .cloned()
            .ok_or_else(|| format!("{flag} expects a value"))
    };
    while let Some(a) = it.next() {
        let (flag, value) = match a.split_once('=') {
            Some((f, v)) if f.starts_with("--") => (f.to_string(), Some(v.to_string())),
            _ => (a.clone(), None),
        };
        let value_of = |it: &mut std::slice::Iter<String>| match &value {
            Some(v) => Ok(v.clone()),
            None => next_value(it, &flag),
        };
        match flag.as_str() {
            "--workers" => {
                cfg.workers = value_of(&mut it)?
                    .parse()
                    .map_err(|_| "--workers expects a number".to_string())?;
            }
            "--queue-capacity" => {
                cfg.queue_capacity = value_of(&mut it)?
                    .parse()
                    .map_err(|_| "--queue-capacity expects a number".to_string())?;
            }
            "--variants" => {
                cfg.variants = value_of(&mut it)?
                    .parse()
                    .map_err(|_| "--variants expects a number".to_string())?;
                if cfg.variants == 0 {
                    return Err("--variants must be positive".into());
                }
            }
            "--programs" => {
                cfg.programs = value_of(&mut it)?.split(',').map(str::to_string).collect();
            }
            "--modes" => {
                cfg.modes = value_of(&mut it)?
                    .split(',')
                    .map(|m| CheckMode::parse(m).ok_or_else(|| format!("unknown mode `{m}`")))
                    .collect::<Result<_, _>>()?;
            }
            "--engine" => {
                let v = value_of(&mut it)?;
                cfg.engines = if v == "both" {
                    vec![Engine::Vm, Engine::Tree]
                } else {
                    vec![engine_from_str(&v).ok_or_else(|| {
                        format!("unknown engine `{v}`; expected `tree`, `vm`, or `both`")
                    })?]
                };
            }
            "--deadline-us" => {
                let us: u64 = value_of(&mut it)?
                    .parse()
                    .map_err(|_| "--deadline-us expects a number".to_string())?;
                cfg.deadline = Some(std::time::Duration::from_micros(us));
            }
            "--stall-us" => {
                cfg.stall_us = value_of(&mut it)?
                    .parse()
                    .map_err(|_| "--stall-us expects a number".to_string())?;
            }
            "--telemetry" => {
                // Bare `--telemetry` enables the recorder; `=FILE` also
                // writes the trace + timeline documents.
                telemetry.enabled = true;
                telemetry.file = value.clone();
            }
            "--trace-format" => {
                let v = value_of(&mut it)?;
                if v != "chrome" && v != "jsonl" {
                    return Err(format!(
                        "unknown trace format `{v}`; expected `chrome` or `jsonl`"
                    ));
                }
                telemetry.format = Some(v);
            }
            "--tick-us" => {
                let us: u64 = value_of(&mut it)?
                    .parse()
                    .map_err(|_| "--tick-us expects a number".to_string())?;
                if us == 0 {
                    return Err("--tick-us must be positive".into());
                }
                telemetry.tick_us = Some(us);
            }
            _ => {
                rest.push(a.clone());
                if let (None, Some(v)) = (&value, it.clone().next()) {
                    // Preserve space-separated values for the caller.
                    if flag.starts_with("--") && !v.starts_with("--") {
                        rest.push(it.next().unwrap().clone());
                    }
                }
            }
        }
    }
    if !telemetry.enabled && (telemetry.format.is_some() || telemetry.tick_us.is_some()) {
        return Err("--trace-format/--tick-us require --telemetry".into());
    }
    cfg.telemetry = telemetry.config();
    Ok((cfg, telemetry, rest))
}

/// Emits an [`rtj_server::LoadReport`]: human report to stdout (text) or
/// the `rtj-load/v1` JSON document (`--format json`), with `--out FILE`
/// additionally writing the JSON document to a file.
fn emit_load_report(
    report: &rtj_server::LoadReport,
    json: bool,
    out_path: Option<&str>,
) -> ExitCode {
    if let Some(path) = out_path {
        if let Err(e) = write_output(path, &(report.render() + "\n")) {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    }
    if json {
        if out_path != Some("-") {
            println!("{}", report.render());
        }
    } else {
        print!("{}", report.render_report());
    }
    ExitCode::SUCCESS
}

/// Parsed serve/load tail flags: `--format json`?, `--out FILE`,
/// `--sessions FILE`, and the values of the caller-named flags, in the
/// order they were named (see [`flag_number`]).
type TailFlags = (bool, Option<String>, Option<String>, Vec<Option<String>>);

/// Command-specific tail flags of serve/load: `--format`, `--out`,
/// `--sessions`, and any value flags the caller names (e.g.
/// `--rounds`, `--rate`). Returns (json, out, sessions, named values) or
/// the [`unexpected_arg`] error for the first leftover.
fn parse_tail_flags(rest: &[String], named: &[&str], usage: &str) -> Result<TailFlags, String> {
    let (json, rest) = take_format(rest)?;
    let mut out = None;
    let mut sessions = None;
    let mut values: Vec<Option<String>> = vec![None; named.len()];
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        let (flag, inline) = match a.split_once('=') {
            Some((f, v)) if f.starts_with("--") => (f.to_string(), Some(v.to_string())),
            _ => (a.clone(), None),
        };
        let value_of = |it: &mut std::slice::Iter<String>| -> Result<String, String> {
            match &inline {
                Some(v) => Ok(v.clone()),
                None => it
                    .next()
                    .cloned()
                    .ok_or_else(|| format!("{flag} expects a value")),
            }
        };
        match flag.as_str() {
            "--out" => out = Some(value_of(&mut it)?),
            "--sessions" => sessions = Some(value_of(&mut it)?),
            f => {
                let idx = named
                    .iter()
                    .position(|n| *n == f)
                    .ok_or_else(|| unexpected_arg(f, usage))?;
                values[idx] = Some(value_of(&mut it)?);
            }
        }
    }
    Ok((json, out, sessions, values))
}

/// What [`flag_number`] reports an integer flag expects.
const INTEGER: &str = "a non-negative integer";

/// Parses the value a numeric tail flag was given, or returns `default`
/// if the flag is absent. `expects` names the accepted values in the
/// one-line error.
fn flag_number<T: std::str::FromStr>(
    flag: &str,
    value: &Option<String>,
    default: T,
    expects: &str,
) -> Result<T, String> {
    match value {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("{flag} expects {expects}, got `{v}`")),
    }
}

/// Writes one line per **executed** session — its deterministic key — so
/// two runs at different worker counts can be compared byte-for-byte
/// (`diff`), the determinism witness the CI worker-sweep smoke uses.
fn write_sessions_file(path: &str, results: &[rtj_server::SessionResult]) -> Result<(), String> {
    let mut text = String::new();
    for r in results.iter().filter(|r| r.shed.is_none()) {
        text.push_str(&r.deterministic_key());
        text.push('\n');
    }
    std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))
}

/// `rtjc serve`: run complete request-mix rounds on the multi-tenant
/// server, unpaced — the saturation benchmark. Emits `rtj-load/v1`.
fn serve_cmd(args: &[String]) -> ExitCode {
    let run = || -> Result<ExitCode, String> {
        let (cfg, telemetry, rest) = parse_serve_flags(args)?;
        let (json, out, sessions, values) = parse_tail_flags(
            &rest,
            &["--rounds"],
            "usage: rtjc serve [--rounds R] [serving flags] [--format json] [--out FILE] \
             [--sessions FILE]",
        )?;
        let rounds = flag_number("--rounds", &values[0], 8, INTEGER)?;
        let start = std::time::Instant::now();
        let outcome = rtj_server::run_batch(&cfg, rounds).map_err(|e| e.to_string())?;
        let elapsed_ms = start.elapsed().as_millis().max(1) as u64;
        if let Some(path) = &sessions {
            write_sessions_file(path, &outcome.results)?;
        }
        if let Some(t) = &outcome.telemetry {
            write_telemetry(&telemetry, t)?;
        }
        let workload = format!("{} x{}", cfg.programs.join(","), cfg.variants);
        let report = rtj_server::LoadReport::from_serve(&outcome, workload, 0.0, elapsed_ms);
        Ok(emit_load_report(&report, json, out.as_deref()))
    };
    run().unwrap_or_else(|e| {
        eprintln!("{e}");
        ExitCode::FAILURE
    })
}

/// `rtjc load`: open-loop Poisson arrivals at `--rate` sessions/s for
/// `--duration-ms`, latency anchored to scheduled arrivals. Emits
/// `rtj-load/v1`.
fn load_cmd(args: &[String]) -> ExitCode {
    let run = || -> Result<ExitCode, String> {
        let (cfg, telemetry, rest) = parse_serve_flags(args)?;
        let (json, out, sessions, values) = parse_tail_flags(
            &rest,
            &["--rate", "--duration-ms", "--seed"],
            "usage: rtjc load [--rate HZ] [--duration-ms MS] [--seed S] [serving flags] \
             [--format json] [--out FILE] [--sessions FILE]",
        )?;
        let plan = rtj_server::LoadPlan {
            rate_hz: flag_number("--rate", &values[0], 2000.0, "a number")?,
            duration: std::time::Duration::from_millis(flag_number(
                "--duration-ms",
                &values[1],
                1000,
                INTEGER,
            )?),
            seed: flag_number("--seed", &values[2], 1, INTEGER)?,
        };
        let outcome = rtj_server::run_load(&cfg, &plan).map_err(|e| e.to_string())?;
        if let Some(path) = &sessions {
            write_sessions_file(path, &outcome.serve.results)?;
        }
        if let Some(t) = &outcome.serve.telemetry {
            write_telemetry(&telemetry, t)?;
        }
        let workload = format!("{} x{}", cfg.programs.join(","), cfg.variants);
        let report = rtj_server::LoadReport::from_load(&outcome, workload);
        Ok(emit_load_report(&report, json, out.as_deref()))
    };
    run().unwrap_or_else(|e| {
        eprintln!("{e}");
        ExitCode::FAILURE
    })
}

/// Maps an `--engine` value to an [`Engine`].
fn engine_from_str(v: &str) -> Option<Engine> {
    match v {
        "tree" => Some(Engine::Tree),
        "vm" => Some(Engine::Vm),
        _ => None,
    }
}

/// Splits `--format text|json` (both the `--format json` and the
/// `--format=json` form) off `args`: whether JSON was asked for, and the
/// remaining arguments.
fn take_format(args: &[String]) -> Result<(bool, Vec<String>), String> {
    let mut json = false;
    let mut rest = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let value = if let Some(v) = a.strip_prefix("--format=") {
            v
        } else if a == "--format" {
            it.next().ok_or("--format expects `text` or `json`")?
        } else {
            rest.push(a.clone());
            continue;
        };
        json = match value {
            "json" => true,
            "text" => false,
            other => {
                return Err(format!(
                    "unknown format `{other}`; expected `text` or `json`"
                ))
            }
        };
    }
    Ok((json, rest))
}

/// The one-line error for an argument a command does not take.
fn unexpected_arg(arg: &str, usage: &str) -> String {
    if arg.starts_with("--") {
        format!("unknown flag `{arg}`; {usage}")
    } else {
        format!("unexpected argument `{arg}`; {usage}")
    }
}

/// Writes `text` to `path`, with `-` meaning stdout.
fn write_output(path: &str, text: &str) -> Result<(), String> {
    if path == "-" {
        print!("{text}");
        Ok(())
    } else {
        std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))
    }
}

/// The checker counters a CLI-composed snapshot carries (wall time is
/// deliberately dropped — snapshots stay deterministic).
fn checker_metrics(s: &rtj_types::CheckStats) -> CheckerMetrics {
    CheckerMetrics {
        classes_checked: s.classes_checked as u64,
        methods_checked: s.methods_checked as u64,
        cache_hits: s.cache_hits(),
        cache_misses: s.cache_misses(),
        threads_used: s.threads_used as u64,
    }
}

fn print_stats(s: &rtj_types::CheckStats) {
    eprintln!("classes checked : {}", s.classes_checked);
    eprintln!("methods checked : {}", s.methods_checked);
    eprintln!(
        "judgment cache  : {} hits / {} misses ({:.1}% hit rate)",
        s.cache_hits(),
        s.cache_misses(),
        s.hit_rate() * 100.0
    );
    eprintln!(
        "  {:<10} {:>10} {:>10} {:>10} {:>9}",
        "family", "hits", "misses", "queries", "hit rate"
    );
    for (family, c) in s.judgments.families() {
        let queries = c.hits + c.misses;
        let rate = if queries > 0 {
            c.hits as f64 / queries as f64 * 100.0
        } else {
            0.0
        };
        eprintln!(
            "  {family:<10} {:>10} {:>10} {:>10} {:>8.1}%",
            c.hits, c.misses, queries, rate
        );
    }
    eprintln!("threads used    : {}", s.threads_used);
    eprintln!("wall time       : {:?}", s.elapsed);
}

/// Runs a one-file command (`rtjc <cmd> <file>`, with `args[0]` the
/// command name) on the file's source; the command takes no flags.
fn with_file(args: &[String], f: impl FnOnce(&str) -> ExitCode) -> ExitCode {
    if let Some(flag) = args[1..].iter().find(|a| a.starts_with("--")) {
        eprintln!(
            "{}",
            unexpected_arg(flag, &format!("usage: rtjc {} <file>", args[0]))
        );
        return ExitCode::FAILURE;
    }
    let Some(path) = args.get(1) else {
        eprintln!("missing file argument");
        return ExitCode::FAILURE;
    };
    match std::fs::read_to_string(path) {
        Ok(src) => f(&src),
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            ExitCode::FAILURE
        }
    }
}

fn report_build_error(src: &str, e: &rtj_interp::BuildError) {
    match e {
        rtj_interp::BuildError::Parse(p) => {
            eprintln!("{}", rtj_lang::diag::render(src, p.span, &p.message));
        }
        rtj_interp::BuildError::Type(errs) => {
            for t in errs {
                eprintln!("{}", rtj_lang::diag::render(src, t.span, &t.message));
            }
        }
    }
}
