//! Bad command-line input gets a one-line error and a non-zero exit,
//! never a panic, a hang or a silently ignored flag. Drives the real
//! `rtjc` binary.

use std::fs::{self, File};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};
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
