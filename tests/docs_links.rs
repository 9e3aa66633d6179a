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

/// `rtj-<crate>::a::b` and `rtj_<crate>::a::b` mentions in `text`, with
/// `{x, y}` groups expanded: `(crate directory, path after the crate)`.
fn crate_path_mentions(text: &str) -> Vec<(String, Vec<String>)> {
    let ident_end = |from: usize| {
        text[from..]
            .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
            .map_or(text.len(), |n| from + n)
    };
    let mut mentions = Vec::new();
    let mut at = 0;
    while let Some(found) = text[at..].find("rtj") {
        let start = at + found;
        at = start + 3;
        let prev = text[..start].chars().next_back();
        if prev.is_some_and(|c| c.is_ascii_alphanumeric() || c == '_')
            || !(text[at..].starts_with('-') || text[at..].starts_with('_'))
        {
            continue;
        }
        let name_end = ident_end(at + 1);
        if name_end == at + 1 || !text[name_end..].starts_with("::") {
            continue;
        }
        let krate = format!("rtj-{}", &text[at + 1..name_end]);
        let mut paths = vec![Vec::new()];
        let mut cur = name_end;
        while text[cur..].starts_with("::") {
            cur += 2;
            if text[cur..].starts_with('{') {
                let Some(close) = text[cur..].find('}') else {
                    break;
                };
                let group: Vec<Vec<String>> = text[cur + 1..cur + close]
                    .split(',')
                    .map(|item| item.trim().split("::").map(String::from).collect())
                    .collect();
                paths = paths
                    .iter()
                    .flat_map(|p| group.iter().map(move |g| [p.clone(), g.clone()].concat()))
                    .collect();
                cur += close + 1;
            } else {
                let end = ident_end(cur);
                if end == cur {
                    break;
                }
                for p in &mut paths {
                    p.push(text[cur..end].to_string());
                }
                cur = end;
            }
        }
        mentions.extend(paths.into_iter().map(|p| (krate.clone(), p)));
        at = cur;
    }
    mentions
}

/// The names a module's source declares public: `pub mod`/`pub fn`
/// names, and the leaf names of its `pub use` trees.
fn public_names(source: &str) -> Vec<String> {
    let mut names = Vec::new();
    for decl in ["pub mod ", "pub fn "] {
        for (i, _) in source.match_indices(decl) {
            let rest = &source[i + decl.len()..];
            let end = rest
                .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
                .unwrap_or(rest.len());
            names.push(rest[..end].to_string());
        }
    }
    for (i, _) in source.match_indices("pub use ") {
        let tree = &source[i + 8..];
        let tree = &tree[..tree.find(';').unwrap_or(tree.len())];
        for item in tree.split(['{', '}', ',']) {
            let item = item.trim();
            let leaf = match item.split_once(" as ") {
                Some((_, alias)) => alias.trim(),
                None => item.rsplit("::").next().unwrap_or(item),
            };
            names.push(leaf.to_string());
        }
    }
    names
}

/// Resolves `path` in `crates/<krate>/src`. Each lowercase segment must
/// name a module file (`a.rs`, `a/mod.rs`, or `b.rs` under `a/`), or a
/// `pub mod`, `pub use` re-export or `pub fn` of the module before it.
/// Capitalised segments (types) are not checked; lowercase segments
/// after one must be a `pub fn` of the module.
fn resolve_crate_path(krate: &str, path: &[String]) -> Result<(), String> {
    let src = repo_root().join("crates").join(krate).join("src");
    if !src.is_dir() {
        return Err(format!("no crate `{krate}`"));
    }
    let mut dir = src.clone();
    let mut file = src.join("lib.rs");
    let mut in_type = false;
    for seg in path {
        if seg.starts_with(|c: char| c.is_ascii_uppercase()) {
            in_type = true;
            continue;
        }
        let module = [dir.join(format!("{seg}.rs")), dir.join(seg).join("mod.rs")]
            .into_iter()
            .find(|f| f.is_file());
        match module {
            Some(found) if !in_type => {
                dir = dir.join(seg);
                file = found;
            }
            _ => {
                let source = fs::read_to_string(&file).unwrap_or_default();
                if !public_names(&source).contains(seg) {
                    let shown = file.strip_prefix(repo_root()).unwrap_or(&file);
                    return Err(format!("`{seg}` is not declared in {}", shown.display()));
                }
                // A re-export, function or inline module: nothing below it
                // is a file of this crate.
                return Ok(());
            }
        }
    }
    Ok(())
}

#[test]
fn crate_module_paths_resolve() {
    let mut broken = Vec::new();
    for doc in DOCS {
        for (krate, path) in crate_path_mentions(&read_doc(doc)) {
            if let Err(e) = resolve_crate_path(&krate, &path) {
                broken.push(format!("{doc}: `{krate}::{}`: {e}", path.join("::")));
            }
        }
    }
    assert!(
        broken.is_empty(),
        "docs name modules or items that do not exist:\n{}",
        broken.join("\n")
    );
}
