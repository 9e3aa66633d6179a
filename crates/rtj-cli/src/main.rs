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
//! for stdout.
//!
//! Every command parses its arguments with `Cli::parse` against one
//! table of its flags and a count of its positional arguments, so a flag
//! it does not take, a missing value or a stray argument is a one-line
//! error. Commands return that error to `main`, which prints it and
//! exits 1; a command that prints multi-line diagnostics (parse or type
//! errors) prints them itself and exits 1 too.
//!
//! Performance is measured by the benchmark in `perfbench/`, not here.

use std::io::Write as _;
use std::ops::RangeInclusive;
use std::process::ExitCode;
use std::str::FromStr;
use std::time::{Duration, Instant};

use rtj_interp::{build, run_checked, RunConfig, RunError, TraceCapture};
use rtj_runtime::{CheckMode, CheckerMetrics, Json, MetricsSnapshot};
use rtj_types::Checked;
use Takes::{Nothing, Optional, Value};

const USAGE: &str =
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
     run [--static|--dynamic|--audit] [--trace FILE] [--metrics[=FILE]]\n\
     \x20   <file>\n\
     \x20                   check then run on the bytecode VM;\n\
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
     \x20     [--modes static,dynamic,audit]\n\
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
     \x20                   rate; both emit rtj-load/v1 (see SERVER.md)";

/// A command: its arguments in; its exit code, or the one-line error
/// `main` prints, out.
type Command = fn(&[String]) -> Result<ExitCode, String>;

/// Every command, by name.
const COMMANDS: [(&str, Command); 12] = [
    ("check", check_cmd),
    ("run", run_cmd),
    ("fmt", fmt_cmd),
    ("graph", graph_cmd),
    ("lower", lower_cmd),
    ("advise", advise_cmd),
    ("fig11", fig11_cmd),
    ("fig12", fig12_cmd),
    ("report", report_cmd),
    ("bench", bench_cmd),
    ("serve", serve_cmd),
    ("load", load_cmd),
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = COMMANDS
        .iter()
        .find(|(name, _)| args.first().map(String::as_str) == Some(*name));
    let result = match command {
        Some((_, command)) => command(&args[1..]),
        None => Err(USAGE.to_string()),
    };
    result.unwrap_or_else(|e| {
        // `eprintln!` would panic if stderr is already closed.
        let _ = writeln!(std::io::stderr(), "{e}");
        ExitCode::FAILURE
    })
}

/// How a flag in a command's table takes its value.
#[derive(Clone, Copy)]
enum Takes {
    /// Not at all: `--flag`.
    Nothing,
    /// Always: `--flag VALUE` or `--flag=VALUE`.
    Value,
    /// Optionally, and then only as `--flag=VALUE`.
    Optional,
}

/// A command's flag table: each flag it takes and how it takes a value.
type Flags = [(&'static str, Takes)];

/// A command line parsed against its command's flag table.
struct Cli<'a> {
    /// The flags given, in order, each with the value it took, if any.
    flags: Vec<(&'static str, Option<&'a str>)>,
    /// The positional arguments, in order.
    positionals: Vec<&'a str>,
}

impl<'a> Cli<'a> {
    /// Parses `args` against `table`, requiring a positional count in
    /// `positionals`. An argument that starts with `-` (other than `-`
    /// itself) is a flag. Every error is one line ending in `usage`.
    fn parse(
        args: &'a [String],
        table: &Flags,
        positionals: RangeInclusive<usize>,
        usage: &str,
    ) -> Result<Cli<'a>, String> {
        let mut cli = Cli {
            flags: Vec::new(),
            positionals: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            if !arg.starts_with('-') || arg == "-" {
                cli.positionals.push(arg);
                continue;
            }
            let (name, inline) = match arg.split_once('=') {
                Some((name, value)) => (name, Some(value)),
                None => (arg.as_str(), None),
            };
            let Some(&(name, takes)) = table.iter().find(|(flag, _)| *flag == name) else {
                return Err(format!("unknown flag `{name}`; {usage}"));
            };
            let value = match (takes, inline) {
                (Nothing, Some(_)) => return Err(format!("{name} takes no value; {usage}")),
                (Value, None) => match it.next() {
                    Some(value) => Some(value.as_str()),
                    None => return Err(format!("{name} expects a value; {usage}")),
                },
                (_, inline) => inline,
            };
            cli.flags.push((name, value));
        }
        if let Some(extra) = cli.positionals.get(*positionals.end()) {
            return Err(format!("unexpected argument `{extra}`; {usage}"));
        }
        if cli.positionals.len() < *positionals.start() {
            return Err(format!("missing argument; {usage}"));
        }
        Ok(cli)
    }

    /// Whether `name` was given.
    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(flag, _)| *flag == name)
    }

    /// The value the last `name` took, if it was given with one.
    fn value(&self, name: &str) -> Option<&'a str> {
        self.flags
            .iter()
            .rev()
            .find(|(flag, _)| *flag == name)
            .and_then(|(_, value)| *value)
    }

    /// The last given of `names`.
    fn last_of(&self, names: &[&str]) -> Option<&'static str> {
        self.flags
            .iter()
            .rev()
            .find(|(flag, _)| names.contains(flag))
            .map(|(flag, _)| *flag)
    }

    /// Where an optional-value output flag sends its document: its value,
    /// or `-` (stdout) when given bare; `None` when not given.
    fn output(&self, name: &str) -> Option<&'a str> {
        self.has(name).then(|| self.value(name).unwrap_or("-"))
    }

    /// `name`'s value parsed as a `T`, `None` when not given; `expects`
    /// names the values it takes in the error.
    fn parsed<T: FromStr>(&self, name: &str, expects: &str) -> Result<Option<T>, String> {
        self.value(name)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("{name} expects {expects}, got `{v}`"))
            })
            .transpose()
    }

    /// `name`'s value as a non-negative integer.
    fn count<T: FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.parsed(name, "a non-negative integer")
    }

    /// `name`'s value, which must be one of `choices`.
    fn choice(&self, name: &str, choices: &[&'static str]) -> Result<Option<&'static str>, String> {
        let Some(v) = self.value(name) else {
            return Ok(None);
        };
        match choices.iter().find(|c| **c == v) {
            Some(c) => Ok(Some(c)),
            None => Err(format!(
                "unknown {} `{v}`; expected `{}`",
                name.trim_start_matches('-').replace('-', " "),
                choices.join("` or `")
            )),
        }
    }

    /// Fails when one of `flags` was given without `needed`.
    fn requires(&self, flags: &[&str], needed: &str) -> Result<(), String> {
        if self.has(needed) || !flags.iter().any(|f| self.has(f)) {
            return Ok(());
        }
        let verb = if flags.len() == 1 {
            "requires"
        } else {
            "require"
        };
        Err(format!("{} {verb} {needed}", flags.join("/")))
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
fn check_cmd(args: &[String]) -> Result<ExitCode, String> {
    let cli = Cli::parse(
        args,
        &[
            ("--stats", Nothing),
            ("--format", Value),
            ("--jobs", Value),
            ("--explain", Nothing),
            ("--profile", Optional),
            ("--trace-format", Value),
            ("--watch", Nothing),
            ("--watch-max", Value),
            ("--edits", Value),
            ("--final-out", Value),
        ],
        1..=1,
        "usage: rtjc check [--stats] [--format text|json] [--jobs N] \
         [--explain] [--profile[=FILE]] [--trace-format chrome|jsonl] \
         [--watch [--watch-max N]] [--edits FILE [--final-out F]] <file>",
    )?;
    cli.requires(&["--format"], "--stats")?;
    cli.requires(&["--trace-format"], "--profile")?;
    cli.requires(&["--watch-max"], "--watch")?;
    cli.requires(&["--final-out"], "--edits")?;
    // The incremental flows print one summary line per pass and nothing
    // else, so a reporting flag would be silently ignored.
    for mode in ["--watch", "--edits"] {
        let clash = ["--edits", "--stats", "--explain", "--profile"]
            .into_iter()
            .find(|flag| *flag != mode && cli.has(flag));
        if let (true, Some(flag)) = (cli.has(mode), clash) {
            return Err(format!("{mode} and {flag} are mutually exclusive"));
        }
    }
    let path = cli.positionals[0];
    let stats = cli.has("--stats");
    let json = cli.choice("--format", &["text", "json"])? == Some("json");
    let profile_out = cli.output("--profile");
    let trace_format = cli.choice("--trace-format", &["chrome", "jsonl"])?;
    let watch_max = cli.count("--watch-max")?;
    let opts = rtj_types::CheckOptions {
        jobs: cli.count("--jobs")?.unwrap_or(0),
        profile: profile_out.is_some(),
    };
    if cli.has("--watch") {
        return check_watch(path, watch_max, opts);
    }
    if let Some(edits) = cli.value("--edits") {
        return check_edits(path, edits, cli.value("--final-out"), opts);
    }
    let src = read(path)?;
    let parse_start = Instant::now();
    let program = match rtj_lang::parse_program(&src) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{}", rtj_lang::diag::render(&src, e.span, &e.message));
            return Ok(ExitCode::FAILURE);
        }
    };
    let parse_wall = parse_start.elapsed();
    let checked = match rtj_types::check_program_in(program, &opts) {
        Ok(checked) => checked,
        Err(errs) => {
            for t in &errs {
                if cli.has("--explain") {
                    eprintln!(
                        "{}",
                        rtj_lang::diag::render_with_notes(&src, t.span, &t.message, &t.notes)
                    );
                } else {
                    eprintln!("{}", rtj_lang::diag::render(&src, t.span, &t.message));
                }
            }
            return Ok(ExitCode::FAILURE);
        }
    };
    // The lex/parse span runs before `check_program_in` (the profile
    // epoch), so it is prepended at offset zero.
    let profile = checked.profile.clone().map(|mut p| {
        p.prepend(rtj_types::PhaseSpan::leaf(
            "parse",
            Duration::ZERO,
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
    if let Some(dest) = profile_out {
        let text = match trace_format {
            Some("chrome") => format!("{}\n", snap.to_chrome_trace().render()),
            Some("jsonl") => snap.to_trace_jsonl(),
            _ => format!("{}\n", snap.render()),
        };
        write_output(dest, &text)?;
    }
    Ok(ExitCode::SUCCESS)
}

/// One line summarizing an incremental pass, for the watch/edits flows:
/// what it re-checked, whether it rebuilt the table, and whether it
/// parsed the whole source. `wall` is the whole engine call, source to
/// verdict; the checking time beside it excludes lexing and parsing.
fn recheck_summary(out: &rtj_types::RecheckOutcome, wall: Duration) -> String {
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
fn check_watch(
    path: &str,
    watch_max: Option<u64>,
    opts: rtj_types::CheckOptions,
) -> Result<ExitCode, String> {
    let mut engine = rtj_types::IncrementalChecker::new(opts);
    let mut last_mtime = None;
    let mut checks = 0u64;
    loop {
        let mtime = std::fs::metadata(path).and_then(|m| m.modified()).ok();
        if checks == 0 || (mtime.is_some() && mtime != last_mtime) {
            last_mtime = mtime;
            match read(path) {
                Ok(src) => {
                    let t0 = Instant::now();
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
                    if watch_max.is_some_and(|max| checks >= max) {
                        return Ok(ExitCode::SUCCESS);
                    }
                }
                Err(e) if checks == 0 => return Err(e),
                Err(e) => eprintln!("{e}"),
            }
        }
        std::thread::sleep(Duration::from_millis(150));
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
) -> Result<ExitCode, String> {
    let src = read(path)?;
    let doc = Json::parse(&read(edits_path)?).map_err(|e| format!("{edits_path}: {e}"))?;
    let script = rtj_corpus::parse_edits(&doc).map_err(|e| format!("{edits_path}: {e}"))?;
    let mut engine = rtj_types::IncrementalChecker::new(opts);
    let t0 = Instant::now();
    let mut last = match engine.check_source(&src) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("{}", rtj_lang::diag::render(&src, e.span, &e.message));
            return Ok(ExitCode::FAILURE);
        }
    };
    println!("initial: {}", recheck_summary(&last, t0.elapsed()));
    for b in &script.batches {
        let t0 = Instant::now();
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
}

/// `rtjc run [--static|--dynamic|--audit] [--trace FILE]
/// [--metrics[=FILE]] <file>`: check then run on the bytecode VM,
/// optionally exporting the structured event trace (JSONL, one event per
/// line) and the `rtj-metrics/v1` snapshot (with the static checker's
/// counters attached). `FILE` may be `-` for stdout.
fn run_cmd(args: &[String]) -> Result<ExitCode, String> {
    let cli = Cli::parse(
        args,
        &[
            ("--static", Nothing),
            ("--dynamic", Nothing),
            ("--audit", Nothing),
            ("--trace", Value),
            ("--metrics", Optional),
        ],
        1..=1,
        "usage: rtjc run [--static|--dynamic|--audit] [--trace FILE] [--metrics[=FILE]] <file>",
    )?;
    let mode = cli
        .last_of(&["--static", "--dynamic", "--audit"])
        .and_then(|flag| CheckMode::parse(&flag[2..]))
        .unwrap_or(CheckMode::Static);
    let trace_out = cli.value("--trace");
    let src = read(cli.positionals[0])?;
    let Some(checked) = build_or_report(&src) else {
        return Ok(ExitCode::FAILURE);
    };
    let mut cfg = RunConfig::new(mode);
    if trace_out.is_some() {
        cfg.events = TraceCapture::Full;
    }
    let out = run_checked(&checked, cfg);
    for line in &out.trace {
        println!("{line}");
    }
    if let Some(dest) = trace_out {
        let lines = out.events.as_deref().unwrap_or_default();
        let mut text = lines.join("\n");
        if !text.is_empty() {
            text.push('\n');
        }
        write_output(dest, &text)?;
    }
    if let Some(dest) = cli.output("--metrics") {
        let mut snap = out.metrics.clone();
        snap.checker = Some(checker_metrics(&checked.stats));
        write_output(dest, &format!("{}\n", snap.render()))?;
    }
    eprintln!(
        "[{} cycles, {} objects, {} checks performed, {} elided, {:?} wall]",
        out.cycles,
        out.metrics.objects_allocated,
        out.metrics.checks_performed(),
        out.metrics.checks_elided(),
        out.wall
    );
    finished(out.error)
}

/// `rtjc fmt <file>`: parse and pretty-print.
fn fmt_cmd(args: &[String]) -> Result<ExitCode, String> {
    let src = file_source(args, "usage: rtjc fmt <file>")?;
    match rtj_lang::parse_program(&src) {
        Ok(p) => {
            print!("{}", rtj_lang::pretty_program(&p));
            Ok(ExitCode::SUCCESS)
        }
        Err(e) => {
            eprintln!("{}", rtj_lang::diag::render(&src, e.span, &e.message));
            Ok(ExitCode::FAILURE)
        }
    }
}

/// `rtjc graph <file>`: run in static mode and print the ownership graph
/// (DOT, the paper's Figure 6).
fn graph_cmd(args: &[String]) -> Result<ExitCode, String> {
    let src = file_source(args, "usage: rtjc graph <file>")?;
    let Some(checked) = build_or_report(&src) else {
        return Ok(ExitCode::FAILURE);
    };
    let mut cfg = RunConfig::new(CheckMode::Static);
    cfg.capture_graph = true;
    let out = run_checked(&checked, cfg);
    if let Some(dot) = out.graph {
        print!("{dot}");
    }
    finished(out.error)
}

/// `rtjc lower <file>`: translate to RTSJ Java (paper Section 2.6).
fn lower_cmd(args: &[String]) -> Result<ExitCode, String> {
    let src = file_source(args, "usage: rtjc lower <file>")?;
    let Some(checked) = build_or_report(&src) else {
        return Ok(ExitCode::FAILURE);
    };
    print!("{}", rtj_types::lower::lower_to_rtsj(&checked));
    Ok(ExitCode::SUCCESS)
}

/// `rtjc advise <file>`: run once in static mode and suggest a size for
/// each LT region from its observed peak.
fn advise_cmd(args: &[String]) -> Result<ExitCode, String> {
    let src = file_source(args, "usage: rtjc advise <file>")?;
    let Some(checked) = build_or_report(&src) else {
        return Ok(ExitCode::FAILURE);
    };
    let out = run_checked(&checked, RunConfig::new(CheckMode::Static));
    if out.error.is_some() {
        return finished(out.error);
    }
    println!("LT sizing advice (peak usage observed on this run)");
    println!(
        "{:<24} {:>10} {:>10}   suggestion",
        "region", "peak", "capacity"
    );
    let mut any = false;
    for (label, policy, peak, capacity) in &out.region_peaks {
        // Only user LT regions: immortal is LT-like but unbounded.
        if !matches!(policy, rtj_runtime::AllocPolicy::Lt { .. }) || label == "immortal" {
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
    Ok(ExitCode::SUCCESS)
}

/// `rtjc fig11 [--format json]`: regenerate paper Figure 11, as a text
/// table or as its `rtj-fig11/v1` document.
fn fig11_cmd(args: &[String]) -> Result<ExitCode, String> {
    let cli = Cli::parse(
        args,
        &[("--format", Value)],
        0..=0,
        "usage: rtjc fig11 [--format json]",
    )?;
    let json = cli.choice("--format", &["text", "json"])? == Some("json");
    let rows = rtj_corpus::fig11();
    if json {
        println!("{}", rtj_corpus::fig11_json(&rows));
    } else {
        print!("{}", rtj_corpus::render_fig11(&rows));
    }
    Ok(ExitCode::SUCCESS)
}

/// `rtjc fig12 [--smoke] [--format json]`: regenerate paper Figure 12 at
/// Paper scale (Smoke scale with `--smoke`), as a text table or as its
/// `rtj-fig12/v1` document.
fn fig12_cmd(args: &[String]) -> Result<ExitCode, String> {
    let cli = Cli::parse(
        args,
        &[("--smoke", Nothing), ("--format", Value)],
        0..=0,
        "usage: rtjc fig12 [--smoke] [--format json]",
    )?;
    let json = cli.choice("--format", &["text", "json"])? == Some("json");
    let scale = if cli.has("--smoke") {
        rtj_corpus::Scale::Smoke
    } else {
        rtj_corpus::Scale::Paper
    };
    let rows = rtj_corpus::fig12(scale);
    if json {
        println!("{}", rtj_corpus::fig12_json(&rows));
    } else {
        print!("{}", rtj_corpus::render_fig12(&rows));
    }
    Ok(ExitCode::SUCCESS)
}

/// `rtjc bench <name|scaled[:N]|edits[:N]> [--batches B] [--seed S]`:
/// print a benchmark input. A corpus name prints that program's source,
/// `scaled[:N]` the N-replica multi-class corpus
/// (`rtj_corpus::scaled_classes`), and `edits[:N]` the seeded
/// `rtj-edits/v1` script of `--batches` single-class edits over that
/// corpus, which `rtjc check --edits` replays. `N` defaults to 8 for
/// both, so `bench scaled` and `bench edits` pair up.
fn bench_cmd(args: &[String]) -> Result<ExitCode, String> {
    const USAGE: &str = "usage: rtjc bench <name|scaled[:N]|edits[:N]> [--batches B] [--seed S]";
    let cli = Cli::parse(
        args,
        &[("--batches", Value), ("--seed", Value)],
        1..=1,
        USAGE,
    )?;
    let name = cli.positionals[0];
    let batches = cli.count("--batches")?;
    let seed = cli.count("--seed")?;
    let text = if let Some(n) = replica_count(name, "edits")? {
        let script = rtj_corpus::edit_batches(n, batches.unwrap_or(24), seed.unwrap_or(1));
        format!("{}\n", rtj_corpus::edits_json(&script).render())
    } else if batches.is_some() || seed.is_some() {
        return Err(format!(
            "--batches and --seed apply to `edits:N` only; {USAGE}"
        ));
    } else if let Some(n) = replica_count(name, "scaled")? {
        rtj_corpus::scaled_classes(n)
    } else {
        let benches = rtj_corpus::all(rtj_corpus::Scale::Paper);
        match benches.iter().find(|b| b.name == name) {
            Some(b) => b.source.clone(),
            None => {
                let names: Vec<&str> = benches.iter().map(|b| b.name).collect();
                return Err(format!(
                    "unknown benchmark `{name}`; available: {}, scaled[:N], edits[:N]",
                    names.join(", ")
                ));
            }
        }
    };
    print!("{text}");
    Ok(ExitCode::SUCCESS)
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

/// The snapshots `rtjc report` has read so far, for the combined view.
#[derive(Default)]
struct Snapshots {
    checker: Option<rtj_types::CheckerSnapshot>,
    runtime: Option<MetricsSnapshot>,
}

impl Snapshots {
    /// Merges `snap` into the runtime aggregate.
    fn add_runtime(&mut self, snap: &MetricsSnapshot) {
        match &mut self.runtime {
            Some(agg) => agg.merge(snap),
            None => self.runtime = Some(snap.clone()),
        }
    }
}

/// Renders one document of a schema, noting the snapshots it carries.
type Render = fn(&Json, &mut Snapshots) -> Result<String, Box<dyn std::error::Error>>;

/// Every versioned document schema `rtjc report` renders, in the order
/// its errors list them.
const SCHEMAS: [(&str, Render); 6] = [
    (rtj_runtime::METRICS_SCHEMA, |doc, seen| {
        let snap = MetricsSnapshot::from_json(doc)?;
        seen.add_runtime(&snap);
        Ok(snap.render_report())
    }),
    (rtj_types::CHECKER_METRICS_SCHEMA, |doc, seen| {
        let snap = rtj_types::CheckerSnapshot::from_json(doc)?;
        let text = snap.render_report();
        seen.checker = Some(snap);
        Ok(text)
    }),
    (rtj_corpus::FIG12_SCHEMA, |doc, _| {
        Ok(render_fig12_document(doc)?)
    }),
    (rtj_server::LOAD_SCHEMA, |doc, seen| {
        let report = rtj_server::LoadReport::from_json(doc)?;
        // The per-mode merged snapshots join the runtime aggregate, so a
        // load document composes with a checker document in the
        // combined static/dynamic view.
        for (_, snap) in &report.mode_metrics {
            seen.add_runtime(snap);
        }
        Ok(report.render_report())
    }),
    (rtj_server::SERVER_TRACE_SCHEMA, |doc, _| {
        Ok(rtj_server::ServerTrace::from_json(doc)?.render_report())
    }),
    (rtj_server::TIMELINE_SCHEMA, |doc, _| {
        Ok(rtj_server::Timeline::from_json(doc)?.render_report())
    }),
];

/// `rtjc report <snapshot.json>...`: render the report(s) from any mix
/// of observability documents — `rtj-metrics/v1` (from `rtjc run
/// --metrics`), `rtj-checker-metrics/v1` (from `rtjc check --profile` or
/// `check --stats --format json`), `rtj-fig12/v1` (from `rtjc fig12
/// --format json`), `rtj-load/v1` (from `rtjc serve`/`load`), and the
/// flight recorder's `rtj-server-trace/v1` and `rtj-timeline/v1`. Given
/// both a checker and a runtime document, a combined static-cost vs.
/// dynamic-checks-elided section follows the per-document reports.
fn report_cmd(args: &[String]) -> Result<ExitCode, String> {
    let cli = Cli::parse(
        args,
        &[],
        1..=usize::MAX,
        "usage: rtjc report <snapshot.json>...",
    )?;
    let mut seen = Snapshots::default();
    let mut out = String::new();
    for (i, path) in cli.positionals.iter().enumerate() {
        let doc = Json::parse(&read(path)?).map_err(|e| format!("{path}: {e}"))?;
        let schema = doc.get("schema").and_then(Json::as_str);
        let Some((_, render)) = SCHEMAS.iter().find(|(tag, _)| Some(*tag) == schema) else {
            let supported: Vec<&str> = SCHEMAS.iter().map(|(tag, _)| *tag).collect();
            let supported = supported.join("`, `");
            return Err(match schema {
                Some(name) => {
                    format!("{path}: unknown schema `{name}`; supported schemas: `{supported}`")
                }
                None => format!(
                    "{path}: missing string `schema` field; supported schemas: `{supported}`"
                ),
            });
        };
        if i > 0 {
            out.push('\n');
        }
        out += &render(&doc, &mut seen).map_err(|e| format!("{path}: {e}"))?;
    }
    if let (Some(ck), Some(rt)) = (&seen.checker, &seen.runtime) {
        out.push('\n');
        out += &render_combined(ck, rt);
    }
    print!("{out}");
    Ok(ExitCode::SUCCESS)
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

/// The flags `serve` and `load` share: the request mix and executor, the
/// flight recorder (`--telemetry[=FILE]` turns it on and writes its
/// documents to FILE, `--trace-format` picks the trace export,
/// `--tick-us` the sampler period), and where the report and the
/// session keys go.
const SERVING_FLAGS: &Flags = &[
    ("--workers", Value),
    ("--queue-capacity", Value),
    ("--programs", Value),
    ("--variants", Value),
    ("--modes", Value),
    ("--deadline-us", Value),
    ("--stall-us", Value),
    ("--telemetry", Optional),
    ("--trace-format", Value),
    ("--tick-us", Value),
    ("--format", Value),
    ("--out", Value),
    ("--sessions", Value),
];

/// What `serve` and `load` run: the server and the report its outcome
/// gives, built from the parsed flags, the configuration and the
/// workload's description.
type Drive = fn(
    &Cli,
    &rtj_server::ServeConfig,
    String,
) -> Result<(rtj_server::ServeOutcome, rtj_server::LoadReport), String>;

/// `rtjc serve`: run complete request-mix rounds on the multi-tenant
/// server, unpaced — the saturation benchmark. Emits `rtj-load/v1`.
fn serve_cmd(args: &[String]) -> Result<ExitCode, String> {
    serving_cmd(
        args,
        &[("--rounds", Value)],
        "usage: rtjc serve [--rounds R] [serving flags] [--format json] [--out FILE] \
         [--sessions FILE]",
        |cli, cfg, workload| {
            let rounds = cli.count("--rounds")?.unwrap_or(8);
            let start = Instant::now();
            let outcome = rtj_server::run_batch(cfg, rounds).map_err(|e| e.to_string())?;
            let elapsed_ms = start.elapsed().as_millis().max(1) as u64;
            let report = rtj_server::LoadReport::from_serve(&outcome, workload, 0.0, elapsed_ms);
            Ok((outcome, report))
        },
    )
}

/// `rtjc load`: open-loop Poisson arrivals at `--rate` sessions/s for
/// `--duration-ms`, latency anchored to scheduled arrivals. Emits
/// `rtj-load/v1`.
fn load_cmd(args: &[String]) -> Result<ExitCode, String> {
    serving_cmd(
        args,
        &[
            ("--rate", Value),
            ("--duration-ms", Value),
            ("--seed", Value),
        ],
        "usage: rtjc load [--rate HZ] [--duration-ms MS] [--seed S] [serving flags] \
         [--format json] [--out FILE] [--sessions FILE]",
        |cli, cfg, workload| {
            let plan = rtj_server::LoadPlan {
                rate_hz: cli.parsed("--rate", "a number")?.unwrap_or(2000.0),
                duration: Duration::from_millis(cli.count("--duration-ms")?.unwrap_or(1000)),
                seed: cli.count("--seed")?.unwrap_or(1),
            };
            let outcome = rtj_server::run_load(cfg, &plan).map_err(|e| e.to_string())?;
            let report = rtj_server::LoadReport::from_load(&outcome, workload);
            Ok((outcome.serve, report))
        },
    )
}

/// Runs `serve` or `load`: parses the serving flags plus the command's
/// own, has `drive` run the server, then writes the session keys
/// (`--sessions`), the flight-recorder documents (`--telemetry=FILE`)
/// and the report: human-readable on stdout, or the `rtj-load/v1`
/// document with `--format json`, and that document to `--out FILE`.
fn serving_cmd(
    args: &[String],
    own: &Flags,
    usage: &str,
    drive: Drive,
) -> Result<ExitCode, String> {
    use rtj_server::{ServeConfig, TelemetryConfig};
    let cli = Cli::parse(args, &[SERVING_FLAGS, own].concat(), 0..=0, usage)?;
    cli.requires(&["--trace-format", "--tick-us"], "--telemetry")?;
    let json = cli.choice("--format", &["text", "json"])? == Some("json");
    let trace_format = cli.choice("--trace-format", &["chrome", "jsonl"])?;
    let variants = cli.count("--variants")?;
    if variants == Some(0) {
        return Err("--variants must be positive".into());
    }
    let tick_us = cli.count("--tick-us")?;
    if tick_us == Some(0) {
        return Err("--tick-us must be positive".into());
    }
    let modes = cli.value("--modes").map(|list| {
        list.split(',')
            .map(|m| CheckMode::parse(m).ok_or_else(|| format!("unknown mode `{m}`")))
            .collect::<Result<Vec<_>, _>>()
    });
    let defaults = ServeConfig::default();
    let cfg = ServeConfig {
        workers: cli.count("--workers")?.unwrap_or(defaults.workers),
        queue_capacity: cli
            .count("--queue-capacity")?
            .unwrap_or(defaults.queue_capacity),
        programs: cli.value("--programs").map_or(defaults.programs, |list| {
            list.split(',').map(str::to_string).collect()
        }),
        variants: variants.unwrap_or(defaults.variants),
        modes: modes.transpose()?.unwrap_or(defaults.modes),
        deadline: cli.count("--deadline-us")?.map(Duration::from_micros),
        stall_us: cli.count("--stall-us")?.unwrap_or(defaults.stall_us),
        telemetry: cli.has("--telemetry").then(|| TelemetryConfig {
            tick: tick_us.map_or(TelemetryConfig::default().tick, Duration::from_micros),
        }),
        ..defaults
    };
    let workload = format!("{} x{}", cfg.programs.join(","), cfg.variants);
    let (outcome, report) = drive(&cli, &cfg, workload)?;
    if let Some(path) = cli.value("--sessions") {
        write_sessions_file(path, &outcome.results)?;
    }
    if let (Some(path), Some(telemetry)) = (cli.value("--telemetry"), &outcome.telemetry) {
        write_telemetry(path, trace_format, telemetry)?;
    }
    let out = cli.value("--out");
    if let Some(path) = out {
        write_output(path, &(report.render() + "\n"))?;
    }
    if !json {
        print!("{}", report.render_report());
    } else if out != Some("-") {
        println!("{}", report.render());
    }
    Ok(ExitCode::SUCCESS)
}

/// Writes the flight-recorder documents `--telemetry=FILE` asks for: the
/// scheduling trace to FILE (versioned `rtj-server-trace/v1` by default,
/// Chrome `trace_event` JSON with `--trace-format chrome`, JSONL with
/// `jsonl`) and the `rtj-timeline/v1` document to the sibling
/// `*.timeline.json` (skipped when FILE is `-`).
fn write_telemetry(
    path: &str,
    format: Option<&str>,
    telemetry: &rtj_server::Telemetry,
) -> Result<(), String> {
    let text = match format {
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

/// Reads `path`, failing with the line every command prints.
fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

/// The source of the one file a command without flags takes.
fn file_source(args: &[String], usage: &str) -> Result<String, String> {
    read(Cli::parse(args, &[], 1..=1, usage)?.positionals[0])
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

/// The exit of a command whose run ended with `error`.
fn finished(error: Option<RunError>) -> Result<ExitCode, String> {
    match error {
        None => Ok(ExitCode::SUCCESS),
        Some(e) => Err(format!("runtime error: {e}")),
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

/// Parses and type-checks `src`, printing its diagnostics when it fails.
fn build_or_report(src: &str) -> Option<Checked> {
    match build(src) {
        Ok(checked) => Some(checked),
        Err(rtj_interp::BuildError::Parse(p)) => {
            eprintln!("{}", rtj_lang::diag::render(src, p.span, &p.message));
            None
        }
        Err(rtj_interp::BuildError::Type(errs)) => {
            for t in &errs {
                eprintln!("{}", rtj_lang::diag::render(src, t.span, &t.message));
            }
            None
        }
    }
}
