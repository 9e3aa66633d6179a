//! Bad command-line input gets a one-line error and a non-zero exit,
//! never a panic, a hang or a silently ignored flag. Drives the real
//! `rtjc` binary.

use std::fs::{self, File};
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitStatus, Output, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// A fresh directory per call, holding a small well-typed program.
fn scratch_dir() -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "rtjc-bad-input-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    fs::create_dir_all(&dir).expect("mkdir");
    fs::write(
        dir.join("cell.rtj"),
        "class Cell<Owner o> { int v; }\n\
         { (RHandle<r> h) { let c = new Cell<r>; c.v = 42; print(c.v); } }\n",
    )
    .expect("write program");
    dir
}

/// Runs `rtjc args` in `dir`, failing the test if it has not exited
/// within 20 s (an out-of-range load rate used to spin forever).
fn rtjc(args: &[&str], dir: &Path) -> Output {
    output_of(Command::new(env!("CARGO_BIN_EXE_rtjc")).args(args), dir)
}

/// Runs `cmd` in `dir` with a 20 s deadline. Output goes through files,
/// so a chatty child never blocks on a full pipe.
fn output_of(cmd: &mut Command, dir: &Path) -> Output {
    let args: Vec<_> = cmd
        .get_args()
        .map(|a| a.to_string_lossy().into_owned())
        .collect();
    let (out_path, err_path) = (dir.join("stdout"), dir.join("stderr"));
    let mut child = cmd
        .current_dir(dir)
        .stdout(File::create(&out_path).expect("stdout file"))
        .stderr(File::create(&err_path).expect("stderr file"))
        .spawn()
        .expect("rtjc runs");
    let deadline = Instant::now() + Duration::from_secs(20);
    let status = loop {
        if let Some(status) = child.try_wait().expect("wait") {
            break status;
        }
        if Instant::now() > deadline {
            child.kill().ok();
            child.wait().ok();
            panic!("{args:?} did not exit within 20 s");
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    Output {
        status,
        stdout: fs::read(out_path).expect("stdout"),
        stderr: fs::read(err_path).expect("stderr"),
    }
}

/// Asserts `rtjc args` exits 1 with one line on stderr containing
/// `expected`.
fn fails_with(args: &[&str], expected: &str) {
    let dir = scratch_dir();
    let out = rtjc(args, &dir);
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "rtjc {args:?}: {err}");
    assert_eq!(err.trim_end().lines().count(), 1, "rtjc {args:?}: {err}");
    assert!(err.contains(expected), "rtjc {args:?}: {err}");
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn fig12_rejects_unknown_flags() {
    fails_with(&["fig12", "--smoek"], "unknown flag `--smoek`");
    fails_with(
        &["fig12", "--smoke", "--engine", "vm"],
        "unknown flag `--engine`",
    );
}

#[test]
fn fig11_rejects_unknown_flags() {
    fails_with(&["fig11", "--bogus"], "unknown flag `--bogus`");
    fails_with(&["fig11", "--engine", "tree"], "unknown flag `--engine`");
}

#[test]
fn report_rejects_unknown_flags() {
    fails_with(&["report", "--bogus", "x.json"], "unknown flag `--bogus`");
}

#[test]
fn fmt_rejects_unknown_flags() {
    fails_with(&["fmt", "--bogus", "cell.rtj"], "unknown flag `--bogus`");
}

#[test]
fn graph_rejects_unknown_flags() {
    fails_with(&["graph", "--bogus", "cell.rtj"], "unknown flag `--bogus`");
}

#[test]
fn lower_rejects_unknown_flags() {
    fails_with(&["lower", "--bogus", "cell.rtj"], "unknown flag `--bogus`");
}

#[test]
fn advise_rejects_unknown_flags() {
    fails_with(&["advise", "--bogus", "cell.rtj"], "unknown flag `--bogus`");
}

fn load_at(rate: &str) {
    fails_with(
        &[
            "load",
            "--rate",
            rate,
            "--duration-ms",
            "100",
            "--workers",
            "1",
            "--variants",
            "1",
        ],
        "rate must be positive",
    );
}

#[test]
fn load_rejects_a_nan_rate() {
    load_at("NaN");
}

#[test]
fn load_rejects_a_rate_whose_gap_overflows() {
    load_at("1e-300");
}

#[test]
fn load_rejects_an_infinite_rate() {
    load_at("inf");
}

#[test]
fn load_rejects_a_rate_above_one_per_nanosecond() {
    load_at("1e12");
}

#[test]
fn serve_rejects_rounds_that_are_not_a_count() {
    for rounds in ["-1", "NaN", "2.7", "1e30"] {
        fails_with(
            &["serve", "--rounds", rounds],
            &format!("--rounds expects a non-negative integer, got `{rounds}`"),
        );
    }
}

#[test]
fn serve_rejects_rounds_whose_session_count_overflows() {
    fails_with(
        &[
            "serve",
            "--rounds",
            "18446744073709551615",
            "--workers",
            "1",
        ],
        "overflow the session count",
    );
}

#[test]
fn serve_rejects_zero_variants() {
    fails_with(&["serve", "--variants", "0"], "--variants must be positive");
}

#[test]
fn load_rejects_a_duration_or_seed_that_is_not_a_count() {
    fails_with(
        &["load", "--duration-ms", "-5"],
        "--duration-ms expects a non-negative integer, got `-5`",
    );
    fails_with(
        &["load", "--seed", "1.5"],
        "--seed expects a non-negative integer, got `1.5`",
    );
}

#[test]
fn serve_and_load_report_a_stray_positional_as_an_argument() {
    fails_with(
        &["serve", "--telemetry", "out.json"],
        "unexpected argument `out.json`",
    );
    fails_with(&["load", "extra"], "unexpected argument `extra`");
    fails_with(&["serve", "--bogus"], "unknown flag `--bogus`");
}

/// Each command takes a fixed number of positional arguments, so an
/// extra one is an error instead of being dropped or taking the first
/// one's place, and `-x` is a flag like `--x`.
#[test]
fn extra_arguments_are_rejected() {
    fails_with(
        &["check", "missing.rtj", "cell.rtj"],
        "unexpected argument `cell.rtj`",
    );
    fails_with(
        &["fmt", "cell.rtj", "missing.rtj"],
        "unexpected argument `missing.rtj`",
    );
    fails_with(
        &["graph", "cell.rtj", "missing.rtj"],
        "unexpected argument `missing.rtj`",
    );
    fails_with(&["check", "-x", "cell.rtj"], "unknown flag `-x`");
}

/// `--metrics` takes a file only as `--metrics=FILE`, so the argument
/// after a bare `--metrics` is the program, and one more is an error.
#[test]
fn run_metrics_takes_its_file_only_after_an_equals_sign() {
    fails_with(
        &["run", "--metrics", "out.json", "cell.rtj"],
        "unexpected argument `cell.rtj`",
    );
}

/// `--format` shapes only the `--stats` output, like `--trace-format`
/// shapes only `--profile`'s.
#[test]
fn check_format_requires_stats() {
    fails_with(
        &["check", "--format", "json", "cell.rtj"],
        "--format requires --stats",
    );
}

/// Programs and the server run on the bytecode VM; the tree-walker is
/// the tests' oracle, and no command selects it.
#[test]
fn run_serve_and_load_reject_engine() {
    fails_with(
        &["run", "--engine", "tree", "cell.rtj"],
        "unknown flag `--engine`",
    );
    fails_with(&["serve", "--engine", "vm"], "unknown flag `--engine`");
    fails_with(&["load", "--engine", "vm"], "unknown flag `--engine`");
}

/// `bench edits:N` prints the `rtj-edits/v1` script over `bench
/// scaled:N` that `check --edits` replays.
#[test]
fn bench_edits_replays_over_bench_scaled() {
    let dir = scratch_dir();
    let scaled = rtjc(&["bench", "scaled:4"], &dir);
    assert!(scaled.status.success());
    fs::write(dir.join("scaled.rtj"), &scaled.stdout).expect("write corpus");
    let edits = rtjc(&["bench", "edits:4", "--batches", "6", "--seed", "3"], &dir);
    assert!(edits.status.success());
    assert!(edits.stdout.starts_with(b"{\"schema\":\"rtj-edits/v1\""));
    fs::write(dir.join("edits.json"), &edits.stdout).expect("write script");
    let replay = rtjc(&["check", "scaled.rtj", "--edits", "edits.json"], &dir);
    let summary = String::from_utf8_lossy(&replay.stdout);
    assert!(summary.starts_with("initial: "), "{summary}");
    assert_eq!(
        summary.lines().filter(|l| l.starts_with("batch")).count(),
        6
    );
    fs::remove_dir_all(&dir).ok();
}

/// `check --watch` on a file it cannot read fails at once, with the
/// line a plain `check` prints, instead of polling forever.
#[test]
fn watch_on_a_missing_file_fails_like_check() {
    let dir = scratch_dir();
    let plain = rtjc(&["check", "missing.rtj"], &dir);
    let watch = rtjc(
        &["check", "--watch", "--watch-max", "1", "missing.rtj"],
        &dir,
    );
    assert_eq!(plain.status.code(), Some(1));
    assert_eq!(watch.status.code(), Some(1));
    let err = String::from_utf8_lossy(&watch.stderr);
    assert!(err.starts_with("cannot read missing.rtj: "), "{err}");
    assert_eq!(watch.stderr, plain.stderr);
    assert!(watch.stdout.is_empty());
    fs::remove_dir_all(&dir).ok();
}

/// The incremental flows print per-pass summaries only, so the flags
/// that report on one check are rejected rather than ignored.
#[test]
fn watch_and_edits_reject_the_reporting_flags() {
    for mode in [&["--watch"][..], &["--edits", "edits.json"][..]] {
        for flag in ["--stats", "--explain", "--profile", "--profile=p.json"] {
            let mut args = vec!["check"];
            args.extend_from_slice(mode);
            args.extend([flag, "cell.rtj"]);
            let name = flag.split('=').next().unwrap();
            fails_with(
                &args,
                &format!("{} and {name} are mutually exclusive", mode[0]),
            );
        }
    }
}

/// `check --watch` re-checks a file edited in place. The edit renames a
/// method two other classes call, a signature edit inside one class, so
/// it re-parses only the closure; afterwards stderr holds exactly what a
/// from-scratch `check` of the final text prints.
#[test]
fn watch_rechecks_a_file_edited_in_place() {
    let dir = scratch_dir();
    let scaled = rtjc(&["bench", "scaled:2"], &dir);
    let initial = String::from_utf8(scaled.stdout).expect("utf-8 corpus");
    let file = dir.join("watched.rtj");
    fs::write(&file, &initial).expect("write program");
    let (out_path, err_path) = (dir.join("watch.out"), dir.join("watch.err"));
    let mut child = Command::new(env!("CARGO_BIN_EXE_rtjc"))
        .args(["check", "--watch", "--watch-max", "2", "watched.rtj"])
        .current_dir(&dir)
        .stdout(File::create(&out_path).expect("stdout file"))
        .stderr(File::create(&err_path).expect("stderr file"))
        .spawn()
        .expect("rtjc runs");
    let deadline = Instant::now() + Duration::from_secs(20);
    let mut wait_for = |what: &str, done: &mut dyn FnMut(&mut std::process::Child) -> bool| {
        while !done(&mut child) {
            if Instant::now() > deadline {
                child.kill().ok();
                child.wait().ok();
                panic!("--watch never {what}");
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    };
    wait_for("checked the initial text", &mut |_| {
        fs::read_to_string(&out_path).is_ok_and(|s| s.ends_with('\n'))
    });

    let needle = "class Base1<Owner o> {\n    int tag;\n    int bump(";
    assert!(initial.contains(needle), "Base1 lost its bump()");
    let edited = initial.replacen(
        needle,
        "class Base1<Owner o> {\n    int tag;\n    int bumped(",
        1,
    );
    fs::write(&file, &edited).expect("edit in place");
    // A distinct mtime even where the file system's clock is coarse.
    File::options()
        .write(true)
        .open(&file)
        .and_then(|f| f.set_modified(std::time::SystemTime::now() + Duration::from_secs(2)))
        .expect("touch");
    let mut status = None;
    wait_for("exited after the edit", &mut |c| {
        status = c.try_wait().expect("wait");
        status.is_some()
    });
    assert!(status.unwrap().success());

    let summary = fs::read_to_string(&out_path).expect("stdout");
    let lines: Vec<&str> = summary.lines().collect();
    assert_eq!(lines.len(), 2, "{summary}");
    assert!(
        lines[0].contains("(0 reused, full rebuild, whole parse)"),
        "{summary}"
    );
    assert!(
        lines[1].contains("3 of 12 classes re-checked (9 reused, table reused, fragment parse)"),
        "{summary}"
    );
    let scratch = rtjc(&["check", "watched.rtj"], &dir);
    assert_eq!(
        scratch.status.code(),
        Some(1),
        "the rename breaks Mid1 and Leaf1"
    );
    let watched = fs::read(&err_path).expect("stderr");
    assert_eq!(
        String::from_utf8_lossy(&watched),
        String::from_utf8_lossy(&scratch.stderr)
    );
    fs::remove_dir_all(&dir).ok();
}

/// Source text is UTF-8: a string literal keeps its multi-byte
/// characters, and a stray one is reported whole.
#[test]
fn non_ascii_source_reads_as_utf8() {
    let dir = scratch_dir();
    fs::write(dir.join("hello.rtj"), "{ print(\"héllo ✓\"); }\n").expect("write program");
    let out = rtjc(&["run", "hello.rtj"], &dir);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.starts_with("héllo ✓\n"), "{stdout}");

    fs::write(dir.join("stray.rtj"), "{ let x = 1; é }\n").expect("write program");
    let out = rtjc(&["check", "stray.rtj"], &dir);
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(
        err.starts_with("error: unrecognized character `é`\n"),
        "{err}"
    );
    assert!(
        err.contains("\n     |              ^\n"),
        "one caret under `é`: {err}"
    );
    fs::remove_dir_all(&dir).ok();
}

/// A well-typed program whose LT region is sized too small for what it
/// allocates (`tests/runtime_behavior.rs` runs it too).
const LT_OVERFLOW: &str = "regionKind K extends SharedRegion { subregion S : LT(64) NoRT s; }\n\
     regionKind S extends SharedRegion { }\n\
     class Chunk<Owner o> { int a; int b; int c; }\n\
     {\n\
         (RHandle<K : VT r> h) {\n\
             (RHandle<S sc> hs = h.s) {\n\
                 let i = 0;\n\
                 while (i < 10) { let c = new Chunk<sc>; i = i + 1; }\n\
             }\n\
         }\n\
     }\n";

/// Every command that runs a program names a runtime error once.
#[test]
fn a_runtime_error_is_reported_with_one_prefix() {
    let dir = scratch_dir();
    fs::write(dir.join("lt.rtj"), LT_OVERFLOW).expect("write program");
    for cmd in ["run", "graph", "advise"] {
        let out = rtjc(&[cmd, "lt.rtj"], &dir);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "rtjc {cmd}: {err}");
        assert!(err.contains("capacity exceeded"), "rtjc {cmd}: {err}");
        assert_eq!(
            err.matches("runtime error:").count(),
            1,
            "rtjc {cmd}: {err}"
        );
    }
    fs::remove_dir_all(&dir).ok();
}

/// `--sessions -` writes the session keys to stdout, as every other FILE
/// output does with `-`, not to a file named `-`.
#[test]
fn sessions_dash_is_stdout() {
    for command in [
        "serve --rounds 1 --variants 1 --workers 1 --sessions -",
        "load --rate 500 --duration-ms 100 --workers 1 --sessions -",
    ] {
        let dir = scratch_dir();
        let args: Vec<&str> = command.split(' ').collect();
        let out = rtjc(&args, &dir);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "rtjc {args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(
            stdout
                .lines()
                .next()
                .is_some_and(|l| l.starts_with("session=0 ")),
            "rtjc {args:?}: {stdout}"
        );
        assert!(!dir.join("-").exists(), "rtjc {args:?} wrote a file `-`");
        fs::remove_dir_all(&dir).ok();
    }
}

/// A program that forks more threads than the address space has room
/// for halts with a one-line runtime error instead of a panic. Under a
/// 1 GB `ulimit -v`, the 16 MiB stacks of 200 forked threads cannot all
/// be mapped.
#[cfg(target_os = "linux")]
#[test]
fn a_fork_that_cannot_start_a_thread_halts_the_run() {
    let dir = scratch_dir();
    fs::write(
        dir.join("forks.rtj"),
        "regionKind Mailbox extends SharedRegion { Note<this> note; }\n\
         class Note<Owner o> { int v; }\n\
         class Waiter<Mailbox r> {\n\
             void run(RHandle<r> h) accesses r {\n\
                 let n = h.note;\n\
                 while (n == null) { yield(); n = h.note; }\n\
             }\n\
         }\n\
         {\n\
             (RHandle<Mailbox : VT r> h) {\n\
                 let i = 0;\n\
                 while (i < 200) { fork (new Waiter<r>).run(h); i = i + 1; }\n\
                 h.note = new Note<r>;\n\
             }\n\
         }\n",
    )
    .expect("write program");
    let script = format!(
        "ulimit -v 1000000; exec '{}' run forks.rtj",
        env!("CARGO_BIN_EXE_rtjc")
    );
    let out = output_of(Command::new("sh").args(["-c", &script]), &dir);
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(!err.contains("panicked"), "{err}");
    assert!(
        err.lines()
            .any(|l| l.starts_with("runtime error:") && l.contains("cannot start program thread")),
        "{err}"
    );
    fs::remove_dir_all(&dir).ok();
}

/// A server whose worker threads cannot all start fails with one line
/// instead of a panic. Under a 300 MB `ulimit -v`, the stacks of 200
/// workers cannot all be mapped.
#[cfg(target_os = "linux")]
#[test]
fn a_worker_that_cannot_start_fails_the_serve() {
    let dir = scratch_dir();
    let script = format!(
        "ulimit -v 300000; exec '{}' serve --rounds 1 --variants 1 --workers 200",
        env!("CARGO_BIN_EXE_rtjc")
    );
    let out = output_of(Command::new("sh").args(["-c", &script]), &dir);
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(!err.contains("panicked"), "{err}");
    assert_eq!(err.trim_end().lines().count(), 1, "{err}");
    assert!(err.starts_with("cannot start worker thread "), "{err}");
    fs::remove_dir_all(&dir).ok();
}

/// Input nested far past the parsers' limits is one error and exit 1,
/// not a stack overflow: a source with 3000 nested parentheses and a
/// JSON document with 100,000 nested arrays.
#[test]
fn deeply_nested_input_is_an_error_not_a_stack_overflow() {
    let dir = scratch_dir();
    let parens = format!("{{ let x = {}1{}; }}\n", "(".repeat(3000), ")".repeat(3000));
    fs::write(dir.join("parens.rtj"), parens).expect("write program");
    let out = rtjc(&["check", "parens.rtj"], &dir);
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(!err.contains("overflowed"), "{err}");
    assert!(
        err.starts_with("error: nesting deeper than 256 levels\n  --> line 1, column 267\n"),
        "{err}"
    );

    fs::write(dir.join("deep.json"), "[".repeat(100_000)).expect("write document");
    let out = rtjc(&["report", "deep.json"], &dir);
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(!err.contains("overflowed"), "{err}");
    assert_eq!(
        err,
        "deep.json: JSON error at byte 128: nesting deeper than 128 levels\n"
    );
    fs::remove_dir_all(&dir).ok();
}

/// Runs `rtjc args` in `dir` with stdout on a pipe, reads one line of it,
/// closes the pipe and waits (20 s at most) for the exit. Returns the
/// line, the exit status and stderr.
fn read_one_line_then_close(args: &[&str], dir: &Path) -> (String, ExitStatus, String) {
    let err_path = dir.join("stderr");
    let mut child = Command::new(env!("CARGO_BIN_EXE_rtjc"))
        .args(args)
        .current_dir(dir)
        .stdout(Stdio::piped())
        .stderr(File::create(&err_path).expect("stderr file"))
        .spawn()
        .expect("rtjc runs");
    let mut line = String::new();
    let mut reader = BufReader::new(child.stdout.take().expect("piped stdout"));
    reader.read_line(&mut line).expect("read a line");
    drop(reader);
    let deadline = Instant::now() + Duration::from_secs(20);
    let status = loop {
        if let Some(status) = child.try_wait().expect("wait") {
            break status;
        }
        if Instant::now() > deadline {
            child.kill().ok();
            child.wait().ok();
            panic!("{args:?} did not exit within 20 s of its reader going away");
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    (line, status, fs::read_to_string(err_path).expect("stderr"))
}

/// A reader that closes stdout early ends the command quietly with
/// status 0, however much output is left: here more than the 64 KiB a
/// pipe buffers, so the command is still writing when the pipe closes.
#[test]
fn a_closed_stdout_ends_the_command_quietly() {
    let dir = scratch_dir();
    let load = rtjc(
        &[
            "load",
            "--rate",
            "2000",
            "--duration-ms",
            "200",
            "--workers",
            "1",
            "--variants",
            "1",
            "--telemetry=t.json",
            "--tick-us",
            "100",
        ],
        &dir,
    );
    assert!(load.status.success(), "{load:?}");
    let report = rtjc(&["report", "t.timeline.json"], &dir);
    assert!(report.status.success(), "{report:?}");
    assert!(report.stdout.len() > 64 << 10, "the rendering fits a pipe");
    for (args, first) in [
        (&["bench", "scaled:512"][..], "// "),
        (&["report", "t.timeline.json"][..], "telemetry timeline"),
    ] {
        let (line, status, err) = read_one_line_then_close(args, &dir);
        assert!(line.starts_with(first), "rtjc {args:?}: {line}");
        assert_eq!(status.code(), Some(0), "rtjc {args:?}: {err}");
        assert!(!err.contains("panicked"), "rtjc {args:?}: {err}");
    }
    fs::remove_dir_all(&dir).ok();
}
