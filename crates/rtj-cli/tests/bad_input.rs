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
/// within 20 s (an out-of-range load rate used to spin forever). Output
/// goes through files, so a chatty child never blocks on a full pipe.
fn rtjc(args: &[&str], dir: &Path) -> Output {
    let (out_path, err_path) = (dir.join("stdout"), dir.join("stderr"));
    let mut child = Command::new(env!("CARGO_BIN_EXE_rtjc"))
        .args(args)
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
            panic!("rtjc {args:?} did not exit within 20 s");
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
