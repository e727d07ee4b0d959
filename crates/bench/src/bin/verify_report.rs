//! `verify-report` — sweep the SemPlan verifier over every TAG-Bench
//! plan under every optimizer-rule combination.
//!
//! For each of the 80 benchmark queries and each of the 8
//! [`SemOptOptions`] combinations, the compiled naive plan is planned
//! (optimized, then lowered against the domain catalog: the plan that
//! executes) and checked three ways: the planned tree must be
//! well-formed against the domain catalog
//! ([`tag_sql::verify_plan`]), the rewrite must preserve the naive
//! plan's work and satisfy each enabled rule's and the lowering's
//! postcondition ([`tag_sql::verify_rewrite`]), and the static
//! LM-call bound must not regress. The RAG and rerank baseline plans go
//! through the same sweep.
//!
//! The sweep then *mutates* one planned plan three ways — fusing a cut
//! without marking the filter distinct, dropping a predicate, and
//! dropping from a scan's projection a column the plan reads above it —
//! and requires the verifier to reject each. A sweep that can no longer
//! catch a broken rewrite fails even if every real plan passes.
//!
//! ```text
//! verify-report [--scale tiny|small|standard] [--seed N] [--json PATH]
//! ```
//!
//! `--json PATH` additionally writes a machine-readable summary (the CI
//! artifact). Exit code 0 when every check passes, 1 otherwise.

use std::collections::BTreeMap;
use tag_bench::Harness;
use tag_core::{compile_nlq, compile_rag, compile_rerank, nlq_reads};
use tag_datagen::Scale;
use tag_lm::sim::SimConfig;
use tag_sql::{
    plan_cost, plan_sem, verify_plan, verify_rewrite, Catalog, SemNode, SemOptOptions, SemReads,
};

fn usage() -> ! {
    eprintln!("usage: verify-report [--scale tiny|small|standard] [--seed N] [--json PATH]");
    std::process::exit(2);
}

fn parse_scale(name: &str) -> Scale {
    match name {
        "standard" => Scale::default(),
        "small" => Scale {
            schools: 120,
            players: 150,
            posts: 60,
            customers: 120,
            drivers: 10,
        },
        "tiny" => Scale {
            schools: 40,
            players: 40,
            posts: 20,
            customers: 40,
            drivers: 6,
        },
        _ => usage(),
    }
}

/// All 8 rewrite-rule combinations.
fn all_opts() -> Vec<SemOptOptions> {
    let mut out = Vec::new();
    for pushdown in [false, true] {
        for distinct_rewrite in [false, true] {
            for precut in [false, true] {
                out.push(SemOptOptions {
                    pushdown,
                    distinct_rewrite,
                    precut,
                });
            }
        }
    }
    out
}

#[derive(Default)]
struct Tally {
    plans: usize,
    failures: usize,
}

/// Verify one naive plan under one rule set; returns rendered
/// diagnostics when anything fails.
fn check(
    naive: &SemNode,
    reads: &SemReads,
    opts: &SemOptOptions,
    catalog: &Catalog,
) -> Option<String> {
    let planned = plan_sem(naive.clone(), reads, opts, catalog);
    let plan = verify_plan(&planned, Some(catalog));
    let rewrite = verify_rewrite(naive, &planned, opts, Some(catalog));
    if plan.is_ok() && rewrite.is_ok() {
        return None;
    }
    Some(format!("{}{}", plan.render(), rewrite.render()))
}

/// Apply `mutate` to the first node, pre-order, that accepts it.
fn mutate_first(node: &mut SemNode, mutate: &mut impl FnMut(&mut SemNode) -> bool) -> bool {
    if mutate(node) {
        return true;
    }
    match node {
        SemNode::Predicate { input, .. }
        | SemNode::SemFilter { input, .. }
        | SemNode::Cut { input, .. }
        | SemNode::SemTopK { input, .. }
        | SemNode::SemAgg { input, .. }
        | SemNode::SemMap { input, .. }
        | SemNode::Rerank { input, .. }
        | SemNode::Generate { input, .. } => mutate_first(input, mutate),
        SemNode::SemJoin { left, right, .. } => {
            mutate_first(left, mutate) || mutate_first(right, mutate)
        }
        SemNode::Scan { .. } | SemNode::Input { .. } | SemNode::Retrieve { .. } => false,
    }
}

/// Fuse-without-distinct mutation: find a fused early-stop filter and
/// clear its distinct flag (the exact bug `fuse_precut` would have if
/// it forgot the dedup obligation). Returns false when the plan has no
/// fused filter to corrupt.
fn break_fused_distinct(plan: &mut SemNode) -> bool {
    mutate_first(plan, &mut |node| match node {
        SemNode::SemFilter {
            distinct,
            early_stop: Some(_),
            ..
        } => {
            *distinct = false;
            true
        }
        _ => false,
    })
}

/// Drop-a-predicate mutation: splice the first predicate out of the
/// tree, or out of the scan it was folded into (a pushdown or a
/// lowering that loses the filter it was supposed to move).
fn break_drop_predicate(plan: &mut SemNode) -> bool {
    mutate_first(plan, &mut |node| match node {
        SemNode::Predicate { input, .. } => {
            *node = (**input).clone();
            true
        }
        SemNode::Scan { filters, .. } => filters.pop().is_some(),
        _ => false,
    })
}

/// Drop-a-needed-column mutation: narrow a projected scan below what the
/// plan's root reads of it (a lowering that forgets a reader).
fn break_drop_projected(plan: &mut SemNode) -> bool {
    let SemReads::Columns(reads) = plan.reads() else {
        return false;
    };
    let read = |c: &String| reads.iter().flatten().any(|r| r.eq_ignore_ascii_case(c));
    mutate_first(plan, &mut |node| match node {
        SemNode::Scan {
            columns: Some(cols),
            ..
        } => {
            let before = cols.len();
            cols.retain(|c| !read(c));
            cols.len() < before
        }
        _ => false,
    })
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn main() {
    let mut seed = 42u64;
    let mut scale = parse_scale("small");
    let mut json_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut val = || args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--scale" => scale = parse_scale(&val()),
            "--seed" => seed = val().parse().unwrap_or_else(|_| usage()),
            "--json" => json_path = Some(val()),
            _ => usage(),
        }
    }

    eprintln!("verify-report: generating domains (seed {seed})...");
    let harness = Harness::new(seed, scale, SimConfig::default());
    let combos = all_opts();
    eprintln!(
        "verify-report: sweeping {} queries x {} rule combos...",
        harness.queries().len(),
        combos.len()
    );

    let mut by_tag: BTreeMap<String, Tally> = BTreeMap::new();
    let mut by_family: BTreeMap<&'static str, Tally> = BTreeMap::new();
    let mut failures: Vec<String> = Vec::new();
    for q in harness.queries() {
        let catalog = harness.env(q.domain).db.catalog();
        let question = q.question();
        let list = q.qtype != tag_bench::QueryType::Aggregation;
        let plans: [(&'static str, SemNode, SemReads); 3] = [
            ("handwritten", compile_nlq(&q.query), nlq_reads(&q.query)),
            ("rag", compile_rag(&question, 10, list), SemReads::All),
            (
                "rerank",
                compile_rerank(&question, 30, 10, list),
                SemReads::All,
            ),
        ];
        for opts in &combos {
            for (family, naive, reads) in &plans {
                let tag = by_tag.entry(opts.cache_tag()).or_default();
                let fam = by_family.entry(family).or_default();
                tag.plans += 1;
                fam.plans += 1;
                if let Some(diag) = check(naive, reads, opts, catalog) {
                    tag.failures += 1;
                    fam.failures += 1;
                    failures.push(format!(
                        "query {} ({family}, rules={}):\n{diag}",
                        q.id,
                        opts.cache_tag()
                    ));
                }
            }
        }
    }

    // Mutation checks: the sweep must still be able to reject a broken
    // rewrite. Each takes the first benchmark plan the mutation applies
    // to, as planned under the default rules.
    let opts = SemOptOptions::default();
    let mut caught = |name: &str, mutate: fn(&mut SemNode) -> bool| -> bool {
        let (q, naive, mutant) = harness
            .queries()
            .iter()
            .find_map(|q| {
                let naive = compile_nlq(&q.query);
                let catalog = harness.env(q.domain).db.catalog();
                let mut plan = plan_sem(naive.clone(), &nlq_reads(&q.query), &opts, catalog);
                mutate(&mut plan).then_some((q, naive, plan))
            })
            .unwrap_or_else(|| panic!("no benchmark plan to apply {name} to"));
        let catalog = Some(harness.env(q.domain).db.catalog());
        let rejected = !verify_plan(&mutant, catalog).is_ok()
            || !verify_rewrite(&naive, &mutant, &opts, catalog).is_ok();
        if !rejected {
            failures.push(format!(
                "MUTATION ESCAPED: {name} on query {} was not rejected",
                q.id
            ));
        }
        rejected
    };
    let caught_fused = caught("fused-not-distinct", break_fused_distinct);
    let caught_drop = caught("dropped predicate", break_drop_predicate);
    let caught_projection = caught("dropped projected column", break_drop_projected);

    // Aggregate restatement of the rewrite check's cost clause on one
    // sample plan, so a broken cost model fails loudly here too.
    let sample_q = &harness.queries()[0];
    let sample = compile_nlq(&sample_q.query);
    let sample_catalog = harness.env(sample_q.domain).db.catalog();
    let naive_cost = plan_cost(&sample, Some(sample_catalog));
    let planned = plan_sem(
        sample.clone(),
        &nlq_reads(&sample_q.query),
        &opts,
        sample_catalog,
    );
    let opt_cost = plan_cost(&planned, Some(sample_catalog));
    if opt_cost.lm_calls > naive_cost.lm_calls {
        failures.push(format!(
            "cost bound regressed on sample plan: {} > {}",
            opt_cost.lm_calls, naive_cost.lm_calls
        ));
    }

    println!("== verifier sweep: per rule combo ==");
    println!("{:<10} {:>7} {:>9}", "rules", "plans", "failures");
    for (tag, t) in &by_tag {
        println!("{:<10} {:>7} {:>9}", tag, t.plans, t.failures);
    }
    println!();
    println!("== verifier sweep: per plan family ==");
    println!("{:<12} {:>7} {:>9}", "family", "plans", "failures");
    for (fam, t) in &by_family {
        println!("{:<12} {:>7} {:>9}", fam, t.plans, t.failures);
    }
    println!();
    let verdict = |caught: bool| if caught { "caught" } else { "ESCAPED" };
    println!(
        "mutation checks: fused-not-distinct {}, dropped-predicate {}, dropped-projected-column {}",
        verdict(caught_fused),
        verdict(caught_drop),
        verdict(caught_projection),
    );

    if let Some(path) = json_path {
        let mut json = String::from("{\n  \"combos\": {\n");
        let rows: Vec<String> = by_tag
            .iter()
            .map(|(tag, t)| {
                format!(
                    "    \"{}\": {{\"plans\": {}, \"failures\": {}}}",
                    json_escape(tag),
                    t.plans,
                    t.failures
                )
            })
            .collect();
        json.push_str(&rows.join(",\n"));
        json.push_str("\n  },\n");
        json.push_str(&format!(
            "  \"mutation_caught\": {{\"fused_not_distinct\": {caught_fused}, \"dropped_predicate\": {caught_drop}, \"dropped_projected_column\": {caught_projection}}},\n"
        ));
        let fails: Vec<String> = failures
            .iter()
            .map(|f| format!("    \"{}\"", json_escape(f)))
            .collect();
        json.push_str("  \"failures\": [");
        if fails.is_empty() {
            json.push_str("]\n}\n");
        } else {
            json.push('\n');
            json.push_str(&fails.join(",\n"));
            json.push_str("\n  ]\n}\n");
        }
        if let Err(e) = std::fs::write(&path, json) {
            eprintln!("verify-report: cannot write {path}: {e}");
            std::process::exit(2);
        }
        eprintln!("verify-report: wrote {path}");
    }

    if failures.is_empty() {
        eprintln!("verify-report: all plans verified under every rule combo");
        return;
    }
    for f in &failures {
        eprintln!("FAIL: {f}");
    }
    eprintln!("verify-report: {} failure(s)", failures.len());
    std::process::exit(1);
}
