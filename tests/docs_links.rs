//! Docs link-check: every file a documentation page points at must
//! exist, and the serving docs must stay cross-referenced. Guards the
//! README/EXPERIMENTS/OBSERVABILITY/SERVER set against drift as crates
//! and schemas are added.

use std::fs;
use std::path::PathBuf;

/// The documentation pages under check (user-facing docs; ISSUE.md and
/// the paper notes are driver artifacts, not docs).
const DOCS: &[&str] = &[
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    "OBSERVABILITY.md",
    "SERVER.md",
    "ROADMAP.md",
];

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn read_doc(name: &str) -> String {
    let path = repo_root().join(name);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Extracts `[text](target)` markdown-link targets.
fn markdown_link_targets(text: &str) -> Vec<String> {
    let bytes = text.as_bytes();
    let mut targets = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b']' && i + 1 < bytes.len() && bytes[i + 1] == b'(' {
            if let Some(end) = text[i + 2..].find(')') {
                targets.push(text[i + 2..i + 2 + end].to_string());
                i += 2 + end;
                continue;
            }
        }
        i += 1;
    }
    targets
}

/// Repo-relative paths referenced in backticks or prose: tokens that
/// contain a `/` or end in a checked extension and start with a known
/// top-level entry. Keeps the scan conservative — shell snippets full
/// of generated files (`load.json`, `stack.rtj`) are not flagged.
fn path_like_references(text: &str) -> Vec<String> {
    let mut refs = Vec::new();
    for raw in text.split(|c: char| c.is_whitespace() || "`()[],;\"'".contains(c)) {
        let token = raw.trim_end_matches(|c: char| ".:*".contains(c));
        let checked_prefix = token.starts_with("crates/")
            || token.starts_with("tests/")
            || token.starts_with("BENCH_")
            || (token.ends_with(".md")
                && !token.contains('/')
                && token.chars().next().is_some_and(|c| c.is_ascii_uppercase()));
        if checked_prefix && !token.contains("${") && !token.contains('<') {
            refs.push(token.to_string());
        }
    }
    refs
}

fn exists_in_repo(target: &str) -> bool {
    repo_root().join(target).exists()
}

#[test]
fn markdown_links_resolve() {
    let mut broken = Vec::new();
    for doc in DOCS {
        for target in markdown_link_targets(&read_doc(doc)) {
            // External links and intra-page anchors are out of scope.
            if target.starts_with("http") || target.starts_with('#') || target.is_empty() {
                continue;
            }
            let file = target.split('#').next().unwrap();
            if !exists_in_repo(file) {
                broken.push(format!("{doc}: [{target}]"));
            }
        }
    }
    assert!(
        broken.is_empty(),
        "broken markdown links:\n{}",
        broken.join("\n")
    );
}

#[test]
fn referenced_repo_paths_exist() {
    let mut missing = Vec::new();
    for doc in DOCS {
        for target in path_like_references(&read_doc(doc)) {
            if !exists_in_repo(&target) {
                missing.push(format!("{doc}: `{target}`"));
            }
        }
    }
    assert!(
        missing.is_empty(),
        "docs reference repo paths that do not exist:\n{}",
        missing.join("\n")
    );
}

/// The serving docs triangle: SERVER.md is the schema/architecture
/// reference, OBSERVABILITY.md owns the metrics pipeline it builds on,
/// EXPERIMENTS.md carries the regen commands — each must point at the
/// others so a reader can navigate from any corner.
#[test]
fn serving_docs_cross_reference_each_other() {
    let server = read_doc("SERVER.md");
    assert!(
        server.contains("OBSERVABILITY.md"),
        "SERVER.md must cite OBSERVABILITY.md"
    );
    assert!(
        server.contains("EXPERIMENTS.md"),
        "SERVER.md must cite EXPERIMENTS.md"
    );
    assert!(
        server.contains("rtj-load/v1"),
        "SERVER.md must document rtj-load/v1"
    );
    assert!(
        server.contains("Diagnosing tail latency"),
        "SERVER.md must keep the flight-recorder walkthrough"
    );

    let obs = read_doc("OBSERVABILITY.md");
    assert!(
        obs.contains("SERVER.md"),
        "OBSERVABILITY.md must cite SERVER.md"
    );
    assert!(
        obs.contains("rtj-load/v1"),
        "OBSERVABILITY.md must list rtj-load/v1"
    );
    assert!(
        obs.contains("rtj-server-trace/v1"),
        "OBSERVABILITY.md must document the flight-recorder trace schema"
    );
    assert!(
        obs.contains("rtj-timeline/v1"),
        "OBSERVABILITY.md must document the telemetry time-series schema"
    );

    let exp = read_doc("EXPERIMENTS.md");
    assert!(
        exp.contains("SERVER.md"),
        "EXPERIMENTS.md must cite SERVER.md"
    );
    assert!(
        exp.contains("perfbench"),
        "EXPERIMENTS.md must cite the perfbench benchmark"
    );
    assert!(
        exp.contains("--telemetry") && exp.contains("trace.overhead.batch_sessions_per_s"),
        "EXPERIMENTS.md must state the flight-recorder regen commands and \
         the metric that measures its overhead"
    );

    let readme = read_doc("README.md");
    assert!(
        readme.contains("SERVER.md"),
        "README.md must point at SERVER.md"
    );
    assert!(
        readme.contains("rtjc") || readme.contains("rtj-cli"),
        "README quickstart gone?"
    );
}
