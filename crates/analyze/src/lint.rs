//! `tag-lint`: a hand-rolled source-level linter for repo invariants.
//!
//! No parser dependency: the linter runs on [`crate::scanner`]'s
//! blanked view of each source file (comments and string/char literals
//! spaced out; `#[cfg(test)]` modules excluded via brace tracking) so
//! rules match real code only. Two rules:
//!
//! 1. **`unwrap-ratchet`** — `.unwrap()` / `.expect(` on the serve,
//!    sqlengine and semantic-plan hot paths (the files in [`HOT_PATHS`]) are counted per
//!    file and compared against the committed ratchet baseline
//!    (`crates/analyze/lint-ratchet.txt`). A count above baseline
//!    fails; `--update` rewrites the baseline downward.
//! 2. **`lock-poison`** — no `.lock().unwrap()` / `.lock().expect(` in
//!    the serve crate or on sqlengine hot paths: a panicked writer
//!    must not cascade into every later reader. `parking_lot` locks
//!    (no poisoning) and `unwrap_or_else(|e| e.into_inner())` recovery
//!    both pass.

use crate::scanner::{blank_ranges, find_all, line_of, scan_source, test_ranges};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

/// Hot-path files covered by the unwrap ratchet (rule 1) and the lock
/// rule (rule 2): the semantic-plan runtime that runs every hand-written,
/// RAG, rerank and Text2SQL + LM request, the serve request path, and
/// the sqlengine executor with the optimizer that plans every statement
/// it runs.
pub const HOT_PATHS: &[&str] = &[
    "crates/core/src/semplan.rs",
    "crates/serve/src/cache.rs",
    "crates/serve/src/metrics.rs",
    "crates/serve/src/protocol.rs",
    "crates/serve/src/server.rs",
    "crates/serve/src/trace.rs",
    "crates/sqlengine/src/chunk.rs",
    "crates/sqlengine/src/chunk_exec.rs",
    "crates/sqlengine/src/engine.rs",
    "crates/sqlengine/src/exec.rs",
    "crates/sqlengine/src/optimizer.rs",
    "crates/sqlengine/src/semplan.rs",
    "crates/sqlengine/src/vector.rs",
];

/// Linter configuration.
#[derive(Debug, Clone)]
pub struct LintConfig {
    /// Workspace root (the directory containing `crates/`).
    pub root: PathBuf,
    /// Ratchet baseline path, relative to `root`.
    pub ratchet_path: PathBuf,
}

impl LintConfig {
    /// Config rooted at `root` with the committed ratchet path.
    pub fn new(root: impl Into<PathBuf>) -> Self {
        LintConfig {
            root: root.into(),
            ratchet_path: PathBuf::from("crates/analyze/lint-ratchet.txt"),
        }
    }
}

/// One lint violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintFinding {
    /// Rule name (`unwrap-ratchet`, `lock-poison`).
    pub rule: &'static str,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line (0 for whole-file findings).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

/// Result of a lint run.
#[derive(Debug, Clone, Default)]
pub struct LintOutcome {
    /// Violations, deterministically ordered (file, line, rule).
    pub findings: Vec<LintFinding>,
    /// Current `.unwrap()`/`.expect(` counts per hot-path file.
    pub unwrap_counts: BTreeMap<String, usize>,
}

impl LintOutcome {
    /// True when no rule fired.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Serialize the current counts in ratchet-file format.
    pub fn ratchet_text(&self) -> String {
        let mut out = String::from(
            "# tag-lint unwrap ratchet: non-test .unwrap()/.expect( counts on hot-path\n\
             # files. Counts may only go down; regenerate with `tag-lint --update`.\n",
        );
        for (file, count) in &self.unwrap_counts {
            let _ = writeln!(out, "{file} {count}");
        }
        out
    }
}

/// Count rule-1 hits: `.unwrap()` and `.expect(` in non-test code.
fn count_unwraps(code: &str) -> usize {
    find_all(code, ".unwrap()").len() + find_all(code, ".expect(").len()
}

/// Rule 2: `.lock()` immediately followed (modulo whitespace) by
/// `.unwrap()` or `.expect(`.
fn find_poison_panics(code: &str) -> Vec<usize> {
    let mut out = Vec::new();
    for pos in find_all(code, ".lock()") {
        let rest = &code[pos + ".lock()".len()..];
        let trimmed = rest.trim_start();
        if trimmed.starts_with(".unwrap()") || trimmed.starts_with(".expect(") {
            out.push(pos);
        }
    }
    out
}

fn load_ratchet(path: &Path) -> Result<BTreeMap<String, usize>, String> {
    let text =
        fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let mut out = BTreeMap::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let (Some(file), Some(count)) = (parts.next(), parts.next()) else {
            return Err(format!("malformed ratchet line: {line:?}"));
        };
        let count: usize = count
            .parse()
            .map_err(|e| format!("malformed ratchet count in {line:?}: {e}"))?;
        out.insert(file.to_owned(), count);
    }
    Ok(out)
}

/// Every `.rs` file under `crates/*/src`, workspace-relative, sorted.
/// Shared with `tag-audit`, which filters the same walk by crate.
pub fn workspace_sources(root: &Path) -> Result<Vec<String>, String> {
    let mut out = Vec::new();
    let crates = root.join("crates");
    let entries =
        fs::read_dir(&crates).map_err(|e| format!("cannot list {}: {e}", crates.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| e.to_string())?;
        let src = entry.path().join("src");
        if src.is_dir() {
            collect_rs(&src, root, &mut out)?;
        }
    }
    out.sort();
    Ok(out)
}

fn collect_rs(dir: &Path, root: &Path, out: &mut Vec<String>) -> Result<(), String> {
    let entries = fs::read_dir(dir).map_err(|e| format!("cannot list {}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path.is_dir() {
            collect_rs(&path, root, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path
                .strip_prefix(root)
                .map_err(|e| e.to_string())?
                .to_string_lossy()
                .into_owned();
            out.push(rel);
        }
    }
    Ok(())
}

/// Run every rule over the workspace. With `update_ratchet`, the
/// baseline file is rewritten to the current counts (after verifying
/// they don't regress an even lower committed baseline is the caller's
/// code-review job — the tool only ever writes what it measured).
pub fn run_lint(config: &LintConfig, update_ratchet: bool) -> Result<LintOutcome, String> {
    let mut outcome = LintOutcome::default();
    let serve_prefix = "crates/serve/src/";

    for rel in workspace_sources(&config.root)? {
        let path = config.root.join(&rel);
        let src = fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let scanned = scan_source(&src);
        let ranges = test_ranges(&scanned.code);
        let code = blank_ranges(&scanned.code, &ranges);
        let is_hot = HOT_PATHS.contains(&rel.as_str());

        if is_hot {
            outcome
                .unwrap_counts
                .insert(rel.clone(), count_unwraps(&code));
        }

        // Rule 2 covers the whole serve crate (bins included) plus the
        // sqlengine hot paths.
        if rel.starts_with(serve_prefix) || is_hot {
            for pos in find_poison_panics(&code) {
                outcome.findings.push(LintFinding {
                    rule: "lock-poison",
                    file: rel.clone(),
                    line: line_of(&code, pos),
                    message: "lock unwrap/expect panics on poison; recover with \
                              unwrap_or_else(|e| e.into_inner()) or use parking_lot"
                        .to_owned(),
                });
            }
        }
    }

    // Rule 1: compare against (or rewrite) the ratchet baseline.
    let ratchet_file = config.root.join(&config.ratchet_path);
    if update_ratchet {
        fs::write(&ratchet_file, outcome.ratchet_text())
            .map_err(|e| format!("cannot write {}: {e}", ratchet_file.display()))?;
    } else {
        let baseline = load_ratchet(&ratchet_file)?;
        for (file, &count) in &outcome.unwrap_counts {
            match baseline.get(file) {
                Some(&limit) if count > limit => outcome.findings.push(LintFinding {
                    rule: "unwrap-ratchet",
                    file: file.clone(),
                    line: 0,
                    message: format!(
                        "{count} non-test .unwrap()/.expect( calls exceed the ratchet \
                         baseline of {limit}; propagate errors instead"
                    ),
                }),
                Some(_) => {}
                None => outcome.findings.push(LintFinding {
                    rule: "unwrap-ratchet",
                    file: file.clone(),
                    line: 0,
                    message: "hot-path file missing from the ratchet baseline; run \
                              tag-lint --update"
                        .to_owned(),
                }),
            }
        }
    }

    outcome
        .findings
        .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_and_comments_are_blanked() {
        let src = r#"
// a .unwrap() in a comment
let x = "a .unwrap() in a string";
let y = maybe.unwrap();
"#;
        let scanned = scan_source(src);
        assert_eq!(count_unwraps(&scanned.code), 1);
    }

    #[test]
    fn raw_strings_and_char_literals_are_blanked() {
        let src = r##"
let r = r#".unwrap()"#;
let c = '"';
let after = maybe.unwrap();
"##;
        let scanned = scan_source(src);
        assert_eq!(count_unwraps(&scanned.code), 1);
    }

    #[test]
    fn lifetimes_do_not_confuse_the_scanner() {
        let src = "fn f<'a>(x: &'a str) -> &'a str { x }\nlet y = z.unwrap();";
        let scanned = scan_source(src);
        assert_eq!(count_unwraps(&scanned.code), 1);
    }

    #[test]
    fn test_modules_are_excluded() {
        let src = "
fn hot() { a.unwrap(); }
#[cfg(test)]
mod tests {
    fn t() { b.unwrap(); c.unwrap(); }
}
";
        let scanned = scan_source(src);
        let code = blank_ranges(&scanned.code, &test_ranges(&scanned.code));
        assert_eq!(count_unwraps(&code), 1);
    }

    #[test]
    fn lock_poison_detects_split_lines() {
        let src = "let g = m.lock()\n    .unwrap();\nlet ok = m.lock().unwrap_or_else(|e| e.into_inner());";
        let scanned = scan_source(src);
        let hits = find_poison_panics(&scanned.code);
        assert_eq!(hits.len(), 1);
        assert_eq!(line_of(&scanned.code, hits[0]), 1);
    }

    #[test]
    fn ratchet_roundtrip() {
        let mut outcome = LintOutcome::default();
        outcome.unwrap_counts.insert("a.rs".into(), 3);
        let dir = std::env::temp_dir().join("tag-lint-test");
        fs::create_dir_all(&dir).expect("tempdir");
        let path = dir.join("ratchet.txt");
        fs::write(&path, outcome.ratchet_text()).expect("write");
        let loaded = load_ratchet(&path).expect("load");
        assert_eq!(loaded.get("a.rs"), Some(&3));
    }
}
