//! Liveness pass for the serve pool.
//!
//! Three rules, scoped to `crates/serve/src/`:
//!
//! - **`condvar-wait-loop`** — a `.wait(`/`.wait_until(`/
//!   `.wait_timeout(` on a field declared `: Condvar` in the same file
//!   must sit inside a `loop`/`while` scope of its enclosing function:
//!   condvar wakeups are spurious and racy, so the predicate must be
//!   re-checked. `.wait_while(`/`.wait_timeout_while(` carry their
//!   predicate and are exempt.
//! - **`send-under-lock`** — a blocking `.send(` must not execute
//!   inside the held extent of a lock class carrying the
//!   `no-send-held` attribute (hub, caches, trace stores): a full
//!   bounded channel would park the sender while every other user of
//!   that lock blocks behind it. `.try_send(` is always allowed.
//! - **`join-before-close`** — a function that `.join()`s worker
//!   handles and mentions a channel sender (`tx`-style idents or
//!   `*sender*`) must release the sender (`= None`, `drop(…)`,
//!   `take(…)`) before the first join, or the workers' `recv()` loops
//!   never see the hangup and the join deadlocks.

use super::hierarchy::{Hierarchy, NO_SEND_HELD};
use super::lockorder::Acquisition;
use super::{AuditFinding, AuditOutcome, FileScan};
use crate::scanner::{enclosing_fn, find_all, find_word, line_of, receiver_ident, scope_openers};

/// Crate prefixes the liveness pass covers.
const LIVE_PREFIXES: &[&str] = &["crates/serve/src/"];

/// Wait methods that need an enclosing predicate loop.
const WAIT_METHODS: &[&str] = &[".wait(", ".wait_until(", ".wait_timeout("];

/// Run the liveness rules.
pub(crate) fn run(
    scans: &[FileScan],
    hierarchy: &Hierarchy,
    acquisitions: &[Acquisition],
    outcome: &mut AuditOutcome,
) {
    for (file_idx, scan) in scans.iter().enumerate() {
        if !LIVE_PREFIXES.iter().any(|p| scan.rel.starts_with(p)) {
            continue;
        }
        check_condvar_waits(scan, outcome);
        check_sends(file_idx, scan, hierarchy, acquisitions, outcome);
        check_joins(scan, outcome);
    }
}

/// Field names annotated `: Condvar` (with or without a module path
/// prefix) in this file.
fn condvar_fields(code: &str) -> Vec<String> {
    let mut out = Vec::new();
    for pos in find_word(code, "Condvar") {
        // Walk back over a possible module path (`parking_lot::`,
        // `std::sync::`) to the annotation colon, then take the field
        // name before it. `Condvar::new()` value positions have no
        // trailing annotation colon and are skipped.
        let mut head = code[..pos].trim_end();
        while head.ends_with("::") {
            head = head[..head.len() - 2].trim_end();
            let cut = head
                .rfind(|c: char| !(c.is_alphanumeric() || c == '_'))
                .map(|i| i + 1)
                .unwrap_or(0);
            head = head[..cut].trim_end();
        }
        let Some(anno) = head.strip_suffix(':') else {
            continue;
        };
        let anno = anno.trim_end();
        let cut = anno
            .rfind(|c: char| !(c.is_alphanumeric() || c == '_'))
            .map(|i| i + 1)
            .unwrap_or(0);
        let name = &anno[cut..];
        if !name.is_empty() && !name.starts_with(|c: char| c.is_ascii_digit()) {
            out.push(name.to_owned());
        }
    }
    out.sort();
    out.dedup();
    out
}

fn check_condvar_waits(scan: &FileScan, outcome: &mut AuditOutcome) {
    let code = &scan.code;
    let fields = condvar_fields(code);
    if fields.is_empty() {
        return;
    }
    for method in WAIT_METHODS {
        for pos in find_all(code, method) {
            let Some(recv) = receiver_ident(code, pos) else {
                continue;
            };
            if !fields.contains(&recv) {
                continue;
            }
            outcome.condvar_waits += 1;
            let Some(f) = enclosing_fn(&scan.fns, pos) else {
                continue;
            };
            let scopes = scope_openers(code, f.body_start, pos);
            if !scopes.iter().any(|k| k == "loop" || k == "while") {
                outcome.findings.push(AuditFinding {
                    rule: "condvar-wait-loop",
                    file: scan.rel.clone(),
                    line: line_of(code, pos),
                    function: f.name.clone(),
                    message: format!(
                        "condvar `{recv}` waited on outside a predicate loop; wrap the \
                         wait in `loop`/`while` re-checking the condition (wakeups are \
                         spurious), or use wait_while"
                    ),
                });
            }
        }
    }
}

fn check_sends(
    file_idx: usize,
    scan: &FileScan,
    hierarchy: &Hierarchy,
    acquisitions: &[Acquisition],
    outcome: &mut AuditOutcome,
) {
    let code = &scan.code;
    for pos in find_all(code, ".send(") {
        outcome.sends_checked += 1;
        for acq in acquisitions {
            if acq.file_idx != file_idx || pos <= acq.pos || pos >= acq.span_end {
                continue;
            }
            let Some(class) = &acq.class else { continue };
            if hierarchy.has_attr(class, NO_SEND_HELD) {
                outcome.findings.push(AuditFinding {
                    rule: "send-under-lock",
                    file: scan.rel.clone(),
                    line: line_of(code, pos),
                    function: scan.fn_at(pos),
                    message: format!(
                        "blocking send while holding {class} ({NO_SEND_HELD}); a full \
                         channel would park this thread with the lock held — release \
                         the guard first or use try_send"
                    ),
                });
            }
        }
    }
}

/// True when `ident` names a channel sender by convention.
fn is_sender_ident(ident: &str) -> bool {
    ident == "tx"
        || ident.ends_with("_tx")
        || ident.starts_with("tx_")
        || ident.to_ascii_lowercase().contains("sender")
}

fn check_joins(scan: &FileScan, outcome: &mut AuditOutcome) {
    let code = &scan.code;
    let joins = find_all(code, ".join()");
    if joins.is_empty() {
        return;
    }
    // Outermost functions containing a join; nested helpers are part
    // of their parent's shutdown story.
    let mut checked: Vec<(usize, usize)> = Vec::new();
    for &join in &joins {
        let Some(f) = enclosing_fn(&scan.fns, join) else {
            continue;
        };
        let outer = scan
            .fns
            .iter()
            .filter(|o| o.body_start <= join && join < o.body_end)
            .max_by_key(|o| o.body_end - o.body_start)
            .unwrap_or(f);
        if checked.contains(&(outer.body_start, outer.body_end)) {
            continue;
        }
        checked.push((outer.body_start, outer.body_end));
        outcome.joins_checked += 1;
        let body = &code[outer.body_start..outer.body_end];
        let sender_mentions: Vec<usize> = senders_in(body);
        if sender_mentions.is_empty() {
            continue;
        }
        let first_join = joins
            .iter()
            .filter(|&&j| j >= outer.body_start && j < outer.body_end)
            .min()
            .copied()
            .expect("outer contains a join")
            - outer.body_start;
        if !releases_sender_before(body, first_join) {
            outcome.findings.push(AuditFinding {
                rule: "join-before-close",
                file: scan.rel.clone(),
                line: line_of(code, outer.body_start + first_join),
                function: outer.name.clone(),
                message: "worker handles joined while a channel sender is still alive; \
                          drop or take the sender first so receivers observe hangup \
                          and the join can complete"
                    .to_owned(),
            });
        }
    }
}

/// Offsets of sender-conventional identifiers in `body`.
fn senders_in(body: &str) -> Vec<usize> {
    let bytes = body.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        if b.is_ascii_alphabetic() || b == b'_' {
            let start = i;
            while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                i += 1;
            }
            if is_sender_ident(&body[start..i]) {
                out.push(start);
            }
        } else {
            i += 1;
        }
    }
    out
}

/// Does `body[..join]` release a sender (`= None` assignment, `drop(`,
/// or `take(` mentioning a sender ident nearby)?
fn releases_sender_before(body: &str, join: usize) -> bool {
    let head = &body[..join];
    for pos in find_all(head, "= None") {
        let context = &head[pos.saturating_sub(80)..pos];
        if senders_in(context).is_empty() {
            continue;
        }
        return true;
    }
    for pat in ["drop(", "take("] {
        for pos in find_all(head, pat) {
            let end = (pos + 80).min(head.len());
            if !senders_in(&head[pos..end]).is_empty() {
                return true;
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scanner::{fn_spans, scan_source};

    fn scan(rel: &str, src: &str) -> FileScan {
        let s = scan_source(src);
        let fns = fn_spans(&s.code);
        FileScan {
            rel: rel.to_owned(),
            code: s.code,
            fns,
        }
    }

    fn run_one(src: &str, hier: &str) -> AuditOutcome {
        let scans = vec![scan("crates/serve/src/pool.rs", src)];
        let h = Hierarchy::parse(hier).expect("hierarchy");
        let mut out = AuditOutcome::default();
        let acqs = super::super::lockorder::run(&scans, &h, &mut out);
        run(&scans, &h, &acqs, &mut out);
        out
    }

    #[test]
    fn condvar_fields_are_detected() {
        let code = "struct S { ready: Condvar, arrived: parking_lot::Condvar, n: usize }";
        assert_eq!(condvar_fields(code), vec!["arrived", "ready"]);
    }

    #[test]
    fn wait_outside_loop_is_flagged() {
        let src = "struct S { ready: Condvar }\n\
                   fn bad(&self) { let mut g = self.m.lock(); if !*g { self.ready.wait(&mut g); } }\n\
                   fn good(&self) { let mut g = self.m.lock(); loop { if *g { return; } self.ready.wait(&mut g); } }\n\
                   fn exempt(&self) { let mut g = self.m.lock(); self.ready.wait_while(&mut g, |d| !*d); }";
        let out = run_one(src, "class m = crates/serve/src/pool.rs:m\n");
        let waits: Vec<_> = out
            .findings
            .iter()
            .filter(|f| f.rule == "condvar-wait-loop")
            .collect();
        assert_eq!(waits.len(), 1, "{:?}", out.findings);
        assert_eq!(waits[0].function, "bad");
        assert_eq!(out.condvar_waits, 2);
    }

    #[test]
    fn blocking_send_under_no_send_held_lock_is_flagged() {
        let src = "fn f(&self) { let g = self.entries.lock(); self.tx.send(job); }\n\
                   fn ok(&self) { let g = self.entries.lock(); let _ = self.tx.try_send(job); }\n\
                   fn also_ok(&self) { self.tx.send(job); }";
        let out = run_one(
            src,
            "class cache = crates/serve/src/pool.rs:entries\n\
             attr cache no-send-held\n\
             ignore crates/serve/src/pool.rs:tx\n",
        );
        let sends: Vec<_> = out
            .findings
            .iter()
            .filter(|f| f.rule == "send-under-lock")
            .collect();
        assert_eq!(sends.len(), 1, "{:?}", out.findings);
        assert_eq!(sends[0].function, "f");
    }

    #[test]
    fn join_without_sender_release_is_flagged() {
        let bad = "fn shutdown(&self) { for w in self.workers_tx_users() { let _ = w.join(); } let tx = &self.tx; }";
        let out = run_one(bad, "");
        assert!(out.findings.iter().any(|f| f.rule == "join-before-close"));

        let good =
            "fn shutdown(&self) { *self.tx.lock() = None; for w in ws { let _ = w.join(); } }";
        let out = run_one(good, "ignore crates/serve/src/pool.rs:tx\n");
        assert!(
            !out.findings.iter().any(|f| f.rule == "join-before-close"),
            "{:?}",
            out.findings
        );

        let no_channels = "fn wait_all(&self) { for w in ws { let _ = w.join(); } }";
        let out = run_one(no_channels, "");
        assert!(out.is_clean(), "{:?}", out.findings);
    }
}
