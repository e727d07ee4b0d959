//! `tag-audit`: a multi-pass concurrency & determinism analyzer.
//!
//! Three passes over the concurrent crates (`serve`, `sqlengine`,
//! `metrics`, `trace`) and the determinism paths outside them
//! ([`determinism::DET_PATHS`]), all on [`crate::scanner`]'s blanked
//! view of each source file:
//!
//! 1. **lock-order** ([`lockorder`]) — every `.lock()` acquisition
//!    site is mapped to a declared lock class
//!    (`crates/analyze/lock-order.txt`), guard extents are
//!    approximated from statement/block structure, and the observed
//!    held-while-acquiring edges are checked against the declared
//!    partial order: an unmapped site, an undeclared edge, or any
//!    cycle in the combined graph fails.
//! 2. **determinism** ([`determinism`]) — result-producing executor
//!    files must not iterate `HashMap`/`HashSet` (insert/lookup is
//!    fine; iteration order feeds output rows) nor consult ambient
//!    nondeterminism (time, thread identity, randomness, unordered
//!    channel draining). Counts are ratcheted per file in
//!    `crates/analyze/det-ratchet.txt`: existing sites are
//!    grandfathered, counts only go down.
//! 3. **liveness** ([`liveness`]) — serve pool hygiene: condvar
//!    waits sit in a predicate loop, blocking channel sends never
//!    happen while holding a `no-send-held` lock (hub, caches), and
//!    shutdown paths release their senders before joining workers.
//!
//! The passes are textual approximations — receiver identifiers stand
//! in for lock objects and guard extents for dynamic hold windows — so
//! the declared hierarchy also carries edges the scanner cannot see
//! (e.g. scrape-time collector closures locking cache shards). See
//! DESIGN.md §15 for the contract.

pub mod canary;
pub mod determinism;
pub mod hierarchy;
pub mod liveness;
pub mod lockorder;

use crate::scanner::{blank_ranges, fn_spans, scan_source, test_ranges, FnSpan};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

/// Crate source prefixes in audit scope.
pub const AUDIT_CRATES: &[&str] = &[
    "crates/metrics/src/",
    "crates/serve/src/",
    "crates/sqlengine/src/",
    "crates/trace/src/",
];

/// Audit configuration.
#[derive(Debug, Clone)]
pub struct AuditConfig {
    /// Workspace root (the directory containing `crates/`).
    pub root: PathBuf,
    /// Declared lock hierarchy, relative to `root`.
    pub hierarchy_path: PathBuf,
    /// Determinism ratchet baseline, relative to `root`.
    pub ratchet_path: PathBuf,
}

impl AuditConfig {
    /// Config rooted at `root` with the committed data-file paths.
    pub fn new(root: impl Into<PathBuf>) -> Self {
        AuditConfig {
            root: root.into(),
            hierarchy_path: PathBuf::from("crates/analyze/lock-order.txt"),
            ratchet_path: PathBuf::from("crates/analyze/det-ratchet.txt"),
        }
    }
}

/// One audit violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditFinding {
    /// Rule id (`lock-undeclared`, `lock-edge-undeclared`,
    /// `lock-cycle`, `det-hash-iter`, `det-ambient`,
    /// `condvar-wait-loop`, `send-under-lock`, `join-before-close`).
    pub rule: &'static str,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line (0 for whole-file findings).
    pub line: usize,
    /// Enclosing function name, when resolvable.
    pub function: String,
    /// What went wrong.
    pub message: String,
}

/// Result of an audit run. Every aggregate is keyed and ordered
/// deterministically (BTree containers, findings sorted), so the JSON
/// rendering is byte-stable regardless of input file order.
#[derive(Debug, Clone, Default)]
pub struct AuditOutcome {
    /// Violations, ordered by (file, line, rule).
    pub findings: Vec<AuditFinding>,
    /// Acquisition-site counts per declared lock class.
    pub lock_classes: BTreeMap<String, usize>,
    /// Observed held-while-acquiring edges; the value records whether
    /// the edge is covered by the declared order.
    pub lock_edges: BTreeMap<(String, String), bool>,
    /// Hash-container iteration counts per determinism-path file.
    pub hash_iter_counts: BTreeMap<String, usize>,
    /// Ambient-nondeterminism counts per determinism-path file.
    pub ambient_counts: BTreeMap<String, usize>,
    /// Condvar wait sites checked by the liveness pass.
    pub condvar_waits: usize,
    /// Blocking send sites checked against held locks.
    pub sends_checked: usize,
    /// Functions checked for sender-release-before-join.
    pub joins_checked: usize,
    /// Files in audit scope that were scanned.
    pub files_scanned: usize,
}

impl AuditOutcome {
    /// True when no pass fired.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Serialize the current determinism counts in ratchet-file format.
    pub fn ratchet_text(&self) -> String {
        let mut out = String::from(
            "# tag-audit determinism ratchet: per-file counts of HashMap/HashSet\n\
             # iteration (hash-iter:) and ambient nondeterminism (ambient:) in\n\
             # result-producing executor files. Counts may only go down; regenerate\n\
             # with `tag-audit --update`. A file absent from this list has limit 0.\n",
        );
        for (file, count) in &self.hash_iter_counts {
            let _ = writeln!(out, "hash-iter:{file} {count}");
        }
        for (file, count) in &self.ambient_counts {
            let _ = writeln!(out, "ambient:{file} {count}");
        }
        out
    }

    /// Render the audit report as deterministic, pretty-printed JSON.
    /// Summary sections carry counts only (no line numbers), so the
    /// committed golden stays byte-stable across unrelated edits as
    /// long as the workspace audits clean.
    pub fn to_json(&self) -> String {
        let mut o = String::from("{\n");
        let _ = writeln!(o, "  \"version\": 1,");
        let _ = writeln!(o, "  \"files_scanned\": {},", self.files_scanned);
        o.push_str("  \"lock_classes\": [");
        join_objects(&mut o, self.lock_classes.iter(), |o, (class, sites)| {
            let _ = write!(o, "{{\"class\": \"{}\", \"sites\": {sites}}}", esc(class));
        });
        o.push_str("],\n  \"lock_edges\": [");
        join_objects(
            &mut o,
            self.lock_edges.iter(),
            |o, ((from, to), declared)| {
                let _ = write!(
                    o,
                    "{{\"from\": \"{}\", \"to\": \"{}\", \"declared\": {declared}}}",
                    esc(from),
                    esc(to)
                );
            },
        );
        o.push_str("],\n  \"hash_iter\": [");
        join_objects(&mut o, self.hash_iter_counts.iter(), |o, (file, count)| {
            let _ = write!(o, "{{\"file\": \"{}\", \"count\": {count}}}", esc(file));
        });
        o.push_str("],\n  \"ambient\": [");
        join_objects(&mut o, self.ambient_counts.iter(), |o, (file, count)| {
            let _ = write!(o, "{{\"file\": \"{}\", \"count\": {count}}}", esc(file));
        });
        o.push_str("],\n");
        let _ = writeln!(
            o,
            "  \"liveness\": {{\"condvar_waits\": {}, \"sends_checked\": {}, \
             \"joins_checked\": {}}},",
            self.condvar_waits, self.sends_checked, self.joins_checked
        );
        o.push_str("  \"findings\": [");
        join_objects(&mut o, self.findings.iter(), |o, f| {
            let _ = write!(
                o,
                "{{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \
                 \"function\": \"{}\", \"message\": \"{}\"}}",
                f.rule,
                esc(&f.file),
                f.line,
                esc(&f.function),
                esc(&f.message)
            );
        });
        o.push_str("]\n}\n");
        o
    }
}

/// Write a comma-joined, indented array body of rendered objects.
fn join_objects<T>(
    out: &mut String,
    items: impl Iterator<Item = T>,
    mut render: impl FnMut(&mut String, T),
) {
    let mut any = false;
    for item in items {
        out.push_str(if any { ",\n    " } else { "\n    " });
        render(out, item);
        any = true;
    }
    if any {
        out.push_str("\n  ");
    }
}

/// Escape a string for JSON output.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// One audited source file: blanked code (tests excluded) plus its
/// function spans.
pub(crate) struct FileScan {
    pub(crate) rel: String,
    pub(crate) code: String,
    pub(crate) fns: Vec<FnSpan>,
}

impl FileScan {
    /// The innermost enclosing function name at `pos`, or `""`.
    pub(crate) fn fn_at(&self, pos: usize) -> String {
        crate::scanner::enclosing_fn(&self.fns, pos)
            .map(|f| f.name.clone())
            .unwrap_or_default()
    }
}

/// Load a ratchet baseline (`key count` lines, `#` comments).
pub(crate) fn load_ratchet(path: &Path) -> Result<BTreeMap<String, usize>, String> {
    let text =
        fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let mut out = BTreeMap::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let (Some(key), Some(count)) = (parts.next(), parts.next()) else {
            return Err(format!("malformed ratchet line: {line:?}"));
        };
        let count: usize = count
            .parse()
            .map_err(|e| format!("malformed ratchet count in {line:?}: {e}"))?;
        out.insert(key.to_owned(), count);
    }
    Ok(out)
}

/// Run all three audit passes over the workspace. With `update`, the
/// determinism ratchet baseline is rewritten to the current counts.
pub fn run_audit(config: &AuditConfig, update: bool) -> Result<AuditOutcome, String> {
    let files = crate::lint::workspace_sources(&config.root)?;
    run_audit_files(config, update, files)
}

/// [`run_audit`] over an explicit file list (workspace-relative paths).
/// The list is sorted and deduplicated internally, so the outcome —
/// including the JSON rendering — is independent of input order.
pub fn run_audit_files(
    config: &AuditConfig,
    update: bool,
    mut files: Vec<String>,
) -> Result<AuditOutcome, String> {
    files.sort();
    files.dedup();
    let hierarchy = hierarchy::Hierarchy::load(&config.root.join(&config.hierarchy_path))?;
    let mut outcome = AuditOutcome::default();

    let mut scans = Vec::new();
    for rel in files {
        let in_scope = AUDIT_CRATES.iter().any(|p| rel.starts_with(p))
            || determinism::DET_PATHS.contains(&rel.as_str());
        if !in_scope {
            continue;
        }
        let path = config.root.join(&rel);
        let src = fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let scanned = scan_source(&src);
        let code = blank_ranges(&scanned.code, &test_ranges(&scanned.code));
        let fns = fn_spans(&code);
        scans.push(FileScan { rel, code, fns });
    }
    outcome.files_scanned = scans.len();

    let acquisitions = lockorder::run(&scans, &hierarchy, &mut outcome);
    liveness::run(&scans, &hierarchy, &acquisitions, &mut outcome);
    determinism::run(&scans, &mut outcome);

    // Determinism ratchet: compare against (or rewrite) the baseline.
    let ratchet_file = config.root.join(&config.ratchet_path);
    if update {
        fs::write(&ratchet_file, outcome.ratchet_text())
            .map_err(|e| format!("cannot write {}: {e}", ratchet_file.display()))?;
    } else {
        let baseline = load_ratchet(&ratchet_file)?;
        for (file, &count) in &outcome.hash_iter_counts {
            let limit = baseline
                .get(&format!("hash-iter:{file}"))
                .copied()
                .unwrap_or(0);
            if count > limit {
                outcome.findings.push(AuditFinding {
                    rule: "det-hash-iter",
                    file: file.clone(),
                    line: 0,
                    function: String::new(),
                    message: format!(
                        "{count} HashMap/HashSet iteration sites exceed the ratchet \
                         baseline of {limit}; iteration order must not feed output \
                         rows or merged partials — key by a first-seen order vec or \
                         sort before emitting"
                    ),
                });
            }
        }
        for (file, &count) in &outcome.ambient_counts {
            let limit = baseline
                .get(&format!("ambient:{file}"))
                .copied()
                .unwrap_or(0);
            if count > limit {
                outcome.findings.push(AuditFinding {
                    rule: "det-ambient",
                    file: file.clone(),
                    line: 0,
                    function: String::new(),
                    message: format!(
                        "{count} ambient-nondeterminism sites (time, thread identity, \
                         randomness, unordered channel drains) exceed the ratchet \
                         baseline of {limit} in a result-producing path"
                    ),
                });
            }
        }
    }

    outcome
        .findings
        .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(outcome)
}
