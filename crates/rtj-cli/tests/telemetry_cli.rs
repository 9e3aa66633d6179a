//! End-to-end CLI coverage for the flight-recorder flags and the
//! `rtjc report` schema dispatch, driving the real `rtjc` binary.

use std::path::Path;
use std::process::{Command, Output};

use rtj_runtime::Json;

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

    // A serial check's profile is one lane: parsing, then each checking
    // phase after the previous one ends.
    let scaled = rtjc(&["bench", "scaled:12"], &dir);
    std::fs::write(dir.join("scaled.rtj"), scaled.stdout).expect("write corpus");
    let out = rtjc(
        &[
            "check",
            "--jobs",
            "1",
            "--profile=profile.jsonl",
            "--trace-format",
            "jsonl",
            "scaled.rtj",
        ],
        &dir,
    );
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let profile = std::fs::read_to_string(dir.join("profile.jsonl")).expect("profile trace");
    let mut phases = Vec::new();
    for line in profile.lines() {
        let e = Json::parse(line).expect("a JSON event");
        let name = e.get("name").and_then(Json::as_str).expect("a name");
        if !name.starts_with("class ") {
            let [ts, dur, tid] = ["ts", "dur", "tid"].map(|k| e.get(k).and_then(Json::as_u64));
            phases.push((name.to_string(), ts.unwrap(), dur.unwrap(), tid.unwrap()));
        }
    }
    let names: Vec<&str> = phases.iter().map(|p| p.0.as_str()).collect();
    assert_eq!(names, ["parse", "lower", "table", "wf", "classes", "main"]);
    for (name, _, _, tid) in &phases {
        assert_eq!(*tid, 0, "{name} is on lane {tid}: {profile}");
    }
    for pair in phases.windows(2) {
        let ((_, ts, dur, _), (name, next, _, _)) = (&pair[0], &pair[1]);
        assert!(
            *next >= ts + dur,
            "{name} starts before the previous phase ends: {profile}"
        );
    }
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

/// `doc` with `edit` applied to the value at `path`: object keys, and
/// array indices written as numbers.
fn edited(doc: &str, path: &[&str], edit: impl FnOnce(&mut Json)) -> String {
    let mut root = Json::parse(doc).expect("a valid document");
    let mut node = &mut root;
    for key in path {
        node = match node {
            Json::Obj(pairs) => &mut pairs.iter_mut().find(|(k, _)| k == key).expect(key).1,
            Json::Arr(items) => &mut items[key.parse::<usize>().expect("an index")],
            _ => panic!("no `{key}` in {path:?}"),
        };
    }
    edit(node);
    root.render()
}

/// `doc` with the field at `path` removed.
fn without(doc: &str, path: &[&str]) -> String {
    let (last, parents) = path.split_last().expect("a non-empty path");
    edited(doc, parents, |node| {
        let Json::Obj(pairs) = node else {
            panic!("{path:?} is not inside an object")
        };
        let before = pairs.len();
        pairs.retain(|(k, _)| k != last);
        assert_eq!(pairs.len(), before - 1, "no `{last}` in {path:?}");
    })
}

/// Writes `load.json`, `trace.json` and `trace.timeline.json` of a short
/// one-worker load run into `dir`.
fn write_load_documents(dir: &Path) {
    let out = rtjc(
        &[
            "load",
            "--workers",
            "1",
            "--rate",
            "2000",
            "--duration-ms",
            "50",
            "--variants",
            "1",
            "--seed",
            "5",
            "--telemetry=trace.json",
            "--out",
            "load.json",
        ],
        dir,
    );
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn a_missing_field_is_named_without_a_byte_offset() {
    let dir = tempdir("missing-field");
    let ok = |out: Output| {
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        out
    };
    let bench = ok(rtjc(&["bench", "Array"], &dir));
    std::fs::write(dir.join("array.rtj"), bench.stdout).unwrap();
    ok(rtjc(
        &["run", "--dynamic", "--metrics=metrics.json", "array.rtj"],
        &dir,
    ));
    let stats = ok(rtjc(
        &["check", "--stats", "--format", "json", "array.rtj"],
        &dir,
    ));
    std::fs::write(dir.join("checker.json"), stats.stdout).unwrap();
    write_load_documents(&dir);
    let scaled = ok(rtjc(&["bench", "scaled:2"], &dir));
    std::fs::write(dir.join("scaled.rtj"), scaled.stdout).unwrap();
    let edits = ok(rtjc(&["bench", "edits:2", "--batches", "2"], &dir));
    std::fs::write(dir.join("edits.json"), edits.stdout).unwrap();
    let fig12 = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/fig12_smoke.json");
    std::fs::copy(fig12, dir.join("fig12.json")).unwrap();

    let cases: [(&str, &[&str], &[&str]); 8] = [
        ("metrics.json", &["alloc"], &["report"]),
        ("checker.json", &["methods_checked"], &["report"]),
        (
            "fig12.json",
            &["rows", "0", "dynamic_metrics", "alloc"],
            &["report"],
        ),
        ("load.json", &["workers"], &["report"]),
        (
            "load.json",
            &["groups", "0", "latency", "p50_us"],
            &["report"],
        ),
        ("trace.json", &["workers"], &["report"]),
        ("trace.timeline.json", &["tick_us"], &["report"]),
        (
            "edits.json",
            &["copies"],
            &["check", "scaled.rtj", "--edits"],
        ),
    ];
    for (file, path, command) in cases {
        let doc = std::fs::read_to_string(dir.join(file)).unwrap();
        let broken = format!("broken-{file}");
        std::fs::write(dir.join(&broken), without(&doc, path)).unwrap();
        let args: Vec<&str> = command.iter().copied().chain([broken.as_str()]).collect();
        let out = rtjc(&args, &dir);
        let err = String::from_utf8_lossy(&out.stderr);
        let field = path.last().unwrap();
        assert_eq!(out.status.code(), Some(1), "{file} without {field}: {err}");
        assert_eq!(err.lines().count(), 1, "one line: {err}");
        assert!(err.contains(&broken), "names the file: {err}");
        assert!(err.contains(field), "names `{field}`: {err}");
        assert!(!err.contains("at byte"), "no byte offset: {err}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A field older documents may lack can be absent, but a value that is
/// there must have its type, and a pair or a triple exactly its
/// elements: one malformed value at each such site fails the report
/// with one line naming the file and the field.
#[test]
fn a_malformed_value_is_named_without_a_byte_offset() {
    let dir = tempdir("malformed-value");
    write_load_documents(&dir);
    let (text, minus_one) = (Some(Json::Str("x".into())), Some(Json::Int(-1)));
    // `None` appends an element to the array at the path.
    let cases: [(&str, &[&str], Option<Json>); 13] = [
        ("load.json", &["groups", "0", "failed"], text.clone()),
        ("load.json", &["groups", "0", "shed"], minus_one.clone()),
        (
            "load.json",
            &["groups", "0", "cycles"],
            Some(Json::Float(1.5)),
        ),
        (
            "load.json",
            &["groups", "0", "latency", "hist_log2_us", "0"],
            None,
        ),
        (
            "load.json",
            &["sessions", "shed", "admission"],
            text.clone(),
        ),
        (
            "load.json",
            &["sessions", "shed", "queue"],
            minus_one.clone(),
        ),
        ("load.json", &["sessions", "shed"], Some(Json::Int(5))),
        ("load.json", &["sessions", "panicked"], minus_one),
        ("load.json", &["ledger", "matched_sessions"], text.clone()),
        ("load.json", &["attribution", "0", "stolen"], text),
        ("load.json", &["attribution"], Some(Json::Obj(Vec::new()))),
        ("trace.json", &["lanes", "0", "events", "0"], None),
        (
            "trace.timeline.json",
            &["samples", "0", "workers", "0"],
            None,
        ),
    ];
    for (file, path, value) in cases {
        let doc = std::fs::read_to_string(dir.join(file)).unwrap();
        let broken = format!("broken-{file}");
        let doc = edited(&doc, path, |node| match (value, node) {
            (Some(value), node) => *node = value,
            (None, Json::Arr(items)) => items.push(Json::Int(1)),
            (None, _) => panic!("{path:?} is not an array"),
        });
        std::fs::write(dir.join(&broken), doc).unwrap();
        let out = rtjc(&["report", broken.as_str()], &dir);
        let err = String::from_utf8_lossy(&out.stderr);
        let field = path.iter().rev().find(|k| k.parse::<usize>().is_err());
        let field = format!("`{}`", field.unwrap());
        assert_eq!(out.status.code(), Some(1), "{file} {path:?}: {err}");
        assert_eq!(err.lines().count(), 1, "one line: {err}");
        assert!(err.contains(&broken), "names the file: {err}");
        assert!(err.contains(&field), "names {field}: {err}");
        assert!(!err.contains("at byte"), "no byte offset: {err}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The rendering of a fixed Figure-12 document: its table, and the
/// aggregate report over every row's embedded snapshot.
#[test]
fn report_of_the_fig12_golden_is_pinned() {
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden");
    let out = rtjc(&["report", "fig12_smoke.json"], &golden);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let expected = std::fs::read_to_string(golden.join("fig12_smoke_report.txt")).unwrap();
    assert_eq!(String::from_utf8_lossy(&out.stdout), expected);
}
