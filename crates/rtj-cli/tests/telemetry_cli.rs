//! End-to-end CLI coverage for the flight-recorder flags and the
//! `rtjc report` schema dispatch, driving the real `rtjc` binary.

use std::path::Path;
use std::process::{Command, Output};

fn rtjc(args: &[&str], dir: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_rtjc"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("rtjc runs")
}

fn tempdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("rtjc-telemetry-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

#[test]
fn load_with_telemetry_emits_both_documents_and_report_renders_them() {
    let dir = tempdir("load");
    let out = rtjc(
        &[
            "load",
            "--workers",
            "2",
            "--rate",
            "2000",
            "--duration-ms",
            "100",
            "--seed",
            "5",
            "--telemetry=trace.json",
            "--tick-us",
            "2000",
            "--format",
            "json",
            "--out",
            "load.json",
        ],
        &dir,
    );
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let trace = std::fs::read_to_string(dir.join("trace.json")).expect("trace written");
    assert!(trace.starts_with("{\"schema\":\"rtj-server-trace/v1\""));
    let timeline = std::fs::read_to_string(dir.join("trace.timeline.json")).expect("timeline");
    assert!(timeline.starts_with("{\"schema\":\"rtj-timeline/v1\""));
    let load = std::fs::read_to_string(dir.join("load.json")).expect("load doc");
    assert!(load.contains("\"attribution\":["));
    assert!(load.contains("\"panicked\":"));

    let report = rtjc(
        &["report", "trace.json", "trace.timeline.json", "load.json"],
        &dir,
    );
    assert!(report.status.success());
    let text = String::from_utf8_lossy(&report.stdout);
    assert!(text.contains("server trace (rtj-server-trace/v1)"));
    assert!(text.contains("busy %"));
    assert!(text.contains("telemetry timeline (rtj-timeline/v1)"));
    assert!(text.contains("queue depth/worker"));
    assert!(text.contains("stage attribution (flight recorder)"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn chrome_and_jsonl_trace_formats() {
    let dir = tempdir("formats");
    let out = rtjc(
        &[
            "serve",
            "--workers",
            "1",
            "--rounds",
            "1",
            "--variants",
            "1",
            "--telemetry=chrome.json",
            "--trace-format",
            "chrome",
        ],
        &dir,
    );
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let chrome = std::fs::read_to_string(dir.join("chrome.json")).expect("chrome trace");
    assert!(chrome.starts_with('['), "trace_event array form");
    assert!(chrome.contains("\"ph\":\"X\""));
    assert!(chrome.contains("\"thread_name\""));

    let out = rtjc(
        &[
            "serve",
            "--workers",
            "1",
            "--rounds",
            "1",
            "--variants",
            "1",
            "--telemetry=trace.jsonl",
            "--trace-format=jsonl",
        ],
        &dir,
    );
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let jsonl = std::fs::read_to_string(dir.join("trace.jsonl")).expect("jsonl trace");
    assert!(jsonl.lines().count() > 1);
    assert!(jsonl
        .lines()
        .all(|l| l.starts_with('{') && l.ends_with('}')));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn telemetry_flag_validation() {
    let dir = tempdir("validation");
    let out = rtjc(&["serve", "--rounds", "1", "--tick-us", "500"], &dir);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("require --telemetry"));

    let out = rtjc(
        &[
            "serve",
            "--rounds",
            "1",
            "--telemetry",
            "--trace-format",
            "xml",
        ],
        &dir,
    );
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown trace format `xml`"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn report_rejects_unknown_and_missing_schema_with_one_line_error() {
    let dir = tempdir("report");
    std::fs::write(dir.join("bogus.json"), "{\"schema\":\"rtj-bogus/v7\"}").unwrap();
    let out = rtjc(&["report", "bogus.json"], &dir);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    let line = err.lines().next().expect("one-line error");
    assert!(line.contains("unknown schema `rtj-bogus/v7`"), "{line}");
    for schema in [
        "rtj-metrics/v1",
        "rtj-checker-metrics/v1",
        "rtj-fig12/v1",
        "rtj-load/v1",
        "rtj-server-trace/v1",
        "rtj-timeline/v1",
    ] {
        assert!(line.contains(schema), "missing {schema} in: {line}");
    }
    assert_eq!(err.trim().lines().count(), 1, "error must be one line");

    std::fs::write(dir.join("noschema.json"), "{\"x\":1}").unwrap();
    let out = rtjc(&["report", "noschema.json"], &dir);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err
        .lines()
        .next()
        .unwrap()
        .contains("missing string `schema` field"));
    std::fs::remove_dir_all(&dir).ok();
}
