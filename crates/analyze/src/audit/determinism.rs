//! Determinism pass: result-producing executor paths must be
//! byte-deterministic.
//!
//! The byte-identical-answers contract (DESIGN.md §15)
//! only holds if nothing order-dependent leaks into output rows or
//! merged partials. Two source-level signals are counted per file in
//! [`DET_PATHS`] and ratcheted in `det-ratchet.txt`:
//!
//! - **hash iteration** (`det-hash-iter`): any iteration over a
//!   binding whose declared or initialized type is `HashMap`/`HashSet`
//!   (`for … in map`, `.iter()`, `.keys()`, `.values()`, `.drain(`,
//!   …). Lookup (`get`/`contains_key`/`entry`/`insert`/`remove`) is
//!   fine — the executor's first-seen `order` vecs exist precisely so
//!   group output never depends on hash order.
//! - **ambient nondeterminism** (`det-ambient`): wall-clock reads,
//!   thread identity, randomness, core-count probes, and unordered
//!   channel drains (`.try_iter()`) in executor code.

use super::{AuditOutcome, FileScan};
use crate::scanner::{find_all, find_word};
use std::collections::BTreeSet;

/// Result-producing files covered by the determinism ratchet: the
/// columnar executor stack, the shared aggregate/sort semantics in
/// `exec.rs`, the semantic-plan runtime,
/// whose kernels number values with hash maps that must only be looked
/// up (prompt order never comes from hash iteration), and the SemPlan
/// verifier and cost bound, whose `EXPLAIN VERIFY` text is byte-stable
/// by contract.
pub const DET_PATHS: &[&str] = &[
    "crates/core/src/semplan.rs",
    "crates/sqlengine/src/chunk.rs",
    "crates/sqlengine/src/chunk_exec.rs",
    "crates/sqlengine/src/exec.rs",
    "crates/sqlengine/src/morsel.rs",
    "crates/sqlengine/src/semcost.rs",
    "crates/sqlengine/src/semverify.rs",
    "crates/sqlengine/src/vector.rs",
];

/// Ambient-nondeterminism patterns counted in executor code.
const AMBIENT_PATTERNS: &[&str] = &[
    "Instant::now",
    "SystemTime::now",
    "thread::current",
    "ThreadId",
    "thread_rng",
    "rand::",
    "random(",
    "available_parallelism",
    ".try_iter(",
];

/// Hash-iteration method suffixes on a tracked binding.
const ITER_SUFFIXES: &[&str] = &[
    ".iter()",
    ".iter_mut()",
    ".into_iter()",
    ".keys()",
    ".values()",
    ".values_mut()",
    ".into_keys()",
    ".into_values()",
    ".drain(",
];

/// Count both signals for every determinism-path file in the scan set.
pub(crate) fn run(scans: &[FileScan], outcome: &mut AuditOutcome) {
    for scan in scans {
        if !DET_PATHS.contains(&scan.rel.as_str()) {
            continue;
        }
        outcome
            .hash_iter_counts
            .insert(scan.rel.clone(), hash_iteration_sites(&scan.code).len());
        outcome
            .ambient_counts
            .insert(scan.rel.clone(), ambient_sites(&scan.code));
    }
}

/// Count ambient-nondeterminism pattern hits. Patterns that begin with
/// an identifier character only match at a word boundary — `rand::`
/// must not fire inside `Operand::Col`.
pub(crate) fn ambient_sites(code: &str) -> usize {
    let bytes = code.as_bytes();
    AMBIENT_PATTERNS
        .iter()
        .map(|p| {
            let needs_boundary = p
                .as_bytes()
                .first()
                .is_some_and(|b| b.is_ascii_alphanumeric() || *b == b'_');
            find_all(code, p)
                .into_iter()
                .filter(|&pos| {
                    !needs_boundary
                        || pos == 0
                        || !(bytes[pos - 1].is_ascii_alphanumeric() || bytes[pos - 1] == b'_')
                })
                .count()
        })
        .sum()
}

/// Bindings (lets, fields, params) whose annotated or initialized type
/// is `HashMap`/`HashSet`.
pub(crate) fn hash_bindings(code: &str) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for word in ["HashMap", "HashSet"] {
        for pos in find_word(code, word) {
            if let Some(name) = binding_before(code, pos) {
                out.insert(name);
            }
        }
    }
    out
}

/// The binding a type occurrence at `pos` annotates or initializes:
/// `let [mut] name: Word` / `let name = Word::new()` / `name: Word` —
/// scanning back only to the nearest statement/field boundary, so
/// generic parameters and return types never capture a name.
fn binding_before(code: &str, pos: usize) -> Option<String> {
    let start = code[..pos]
        .rfind([';', '{', '}', '(', ','])
        .map(|i| i + 1)
        .unwrap_or(0);
    let mut seg = code[start..pos].trim();
    // Strip reference sigils and an `=` initializer head off the end:
    // `let seen = HashSet::new()` has segment `let seen = `.
    loop {
        let t = seg.trim_end();
        seg = if let Some(s) = t.strip_suffix("&mut") {
            s
        } else if let Some(s) = t.strip_suffix(['&', '=']) {
            s
        } else {
            break;
        };
    }
    let seg = seg.trim_end();
    if let Some(after_let) = seg.strip_prefix("let ").or_else(|| {
        seg.strip_prefix("pub ")
            .and_then(|s| s.trim_start().strip_prefix("let "))
    }) {
        let mut tokens = after_let.split_whitespace();
        let mut first = tokens.next()?;
        if first == "mut" {
            first = tokens.next()?;
        }
        let name = first.trim_end_matches(':');
        return valid_ident(name).then(|| name.to_owned());
    }
    if let Some(anno) = seg.strip_suffix(':') {
        let name = anno.split_whitespace().last()?;
        return valid_ident(name).then(|| name.to_owned());
    }
    None
}

fn valid_ident(s: &str) -> bool {
    !s.is_empty()
        && s.chars().all(|c| c.is_alphanumeric() || c == '_')
        && !s.starts_with(|c: char| c.is_ascii_digit())
}

/// Byte offsets of iteration sites over hash-typed bindings.
pub(crate) fn hash_iteration_sites(code: &str) -> Vec<usize> {
    let mut out = Vec::new();
    for name in hash_bindings(code) {
        for pos in find_word(code, &name) {
            let after = &code[pos + name.len()..];
            if ITER_SUFFIXES.iter().any(|s| after.starts_with(s)) {
                out.push(pos);
                continue;
            }
            if is_for_loop_head(code, pos) {
                out.push(pos);
            }
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// Is the name occurrence at `pos` the iterated expression of a `for`
/// loop (`for pat in [&[mut]] [path.]name`)?
fn is_for_loop_head(code: &str, pos: usize) -> bool {
    let mut head = code[..pos].trim_end();
    // Strip a leading receiver path: `self.` / `state.groups` style.
    while let Some(h) = head.strip_suffix('.') {
        let cut = h
            .rfind(|c: char| !(c.is_alphanumeric() || c == '_'))
            .map(|i| i + 1)
            .unwrap_or(0);
        head = h[..cut].trim_end();
    }
    loop {
        let t = head.trim_end();
        head = if let Some(h) = t.strip_suffix("&mut") {
            h
        } else if let Some(h) = t.strip_suffix('&') {
            h
        } else {
            break;
        };
    }
    let head = head.trim_end();
    head.ends_with(" in") || head.ends_with(")in") || head == "in"
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scanner::scan_source;

    fn sites(src: &str) -> usize {
        hash_iteration_sites(&scan_source(src).code).len()
    }

    #[test]
    fn bindings_from_lets_fields_and_params() {
        let src = "struct S { parts: HashMap<String, usize> }\n\
                   fn f(index: &HashMap<K, V>) {\n\
                       let mut groups: HashMap<K, V> = HashMap::new();\n\
                       let seen = HashSet::new();\n\
                       let n: usize = 0;\n\
                   }";
        let b = hash_bindings(&scan_source(src).code);
        let names: Vec<&str> = b.iter().map(String::as_str).collect();
        assert_eq!(names, vec!["groups", "index", "parts", "seen"]);
    }

    #[test]
    fn lookups_are_clean_iteration_is_counted() {
        let src = "fn f() {\n\
                   let mut groups: HashMap<K, V> = HashMap::new();\n\
                   groups.insert(k, v);\n\
                   let x = groups.get(&k);\n\
                   let y = groups.remove(&k);\n\
                   if groups.contains_key(&k) {}\n\
                   }";
        assert_eq!(sites(src), 0);
        let bad = "fn f(&self) {\n\
                   let mut groups: HashMap<K, V> = HashMap::new();\n\
                   for (k, v) in groups { out.push((k, v)); }\n\
                   for k in &self.groups { touch(k); }\n\
                   let keys: Vec<_> = groups.keys().collect();\n\
                   let total: u64 = groups.values().sum();\n\
                   groups.drain(..);\n\
                   }";
        // `groups` in the struct-field position `self.groups` counts
        // via the same binding name.
        assert_eq!(sites(bad), 5);
    }

    #[test]
    fn ambient_patterns_are_counted() {
        let src = "fn f() { let t = Instant::now(); let id = thread::current().id(); }";
        assert_eq!(ambient_sites(&scan_source(src).code), 2);
    }

    #[test]
    fn ambient_patterns_respect_word_boundaries() {
        let src = "fn f(op: Operand::Col) { operand::form(op); let r = rand::random(); }";
        // `Operand::` / `operand::` must not count as `rand::`; the real
        // `rand::` plus its `random(` call both do.
        assert_eq!(ambient_sites(&scan_source(src).code), 2);
    }

    #[test]
    fn generic_params_do_not_capture_bindings() {
        let src = "fn f() -> HashMap<K, V> { g::<HashMap<K, V>>() }";
        assert!(hash_bindings(&scan_source(src).code).is_empty());
    }
}
