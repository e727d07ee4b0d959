//! `paper-report` — rerun every experiment of the paper, rewrite each
//! generated block of EXPERIMENTS.md, and gate the paper's shape claims.
//!
//! Takes no arguments: one run at seed 42 and `Scale::default()` computes
//! Table 1, Table 2, Figure 2, the five ablations and the SemPlan
//! rules-off/on accounting. Every claim is printed with the numbers it
//! was judged on; the exit code is 1 if any claim fails and 2 if
//! EXPERIMENTS.md's block markers are broken. CI runs it and then
//! `git diff --exit-code EXPERIMENTS.md`, so the committed document is
//! always exactly what the code measures.

use std::process::ExitCode;
use tag_bench::report::{splice, Report};

const DOC: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../EXPERIMENTS.md");

fn main() -> ExitCode {
    if std::env::args().len() > 1 {
        eprintln!("usage: paper-report (no arguments)");
        return ExitCode::from(2);
    }
    let report = Report::compute();
    let spliced = std::fs::read_to_string(DOC)
        .map_err(|e| e.to_string())
        .and_then(|doc| splice(&doc, &report.blocks()))
        .and_then(|doc| std::fs::write(DOC, doc).map_err(|e| e.to_string()));
    if let Err(e) = spliced {
        eprintln!("paper-report: EXPERIMENTS.md: {e}");
        return ExitCode::from(2);
    }
    let claims = report.claims();
    for claim in &claims {
        println!("{claim}");
    }
    let failed = claims.iter().filter(|c| !c.holds).count();
    if failed > 0 {
        eprintln!(
            "paper-report: {failed} of {} shape claims fail",
            claims.len()
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
