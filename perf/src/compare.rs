//! `tag-perf compare A.json B.json`: parent against change.
//!
//! Each file holds the run records `--out` appended (one JSON object a
//! line). Runs of a workload are paired in file order. Per workload ×
//! end-to-end metric the verdict follows the repo's rule for a small
//! sandbox:
//!
//! - `improved`: B wins at least 9/10 of at least ten pairs (ties count
//!   for neither side) and the medians differ by more than the distance
//!   between A's own quartiles;
//! - `regressed`: B's median is worse than A's by more than the metric's
//!   bound;
//! - `unresolved`: the run-to-run spread (IQR ÷ median, either side) is
//!   wider than the bound, unless every B run beats every A run;
//! - `unchanged` otherwise.
//!
//! Metrics that repeat exactly for a seed (counts, simulated time) are
//! compared for equality, never as a speed-up.

use crate::json;
use crate::metrics::{Better, END_TO_END, PER_LAYER};
use crate::stats::{median, quartiles};
use std::collections::BTreeMap;

struct Record {
    workload: String,
    seed: u64,
    trace: bool,
    metrics: BTreeMap<String, f64>,
}

fn load(path: &str) -> Result<Vec<Record>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let mut out = Vec::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let j = json::parse(line).map_err(|e| format!("{path}:{}: {e}", i + 1))?;
        let field = |k: &str| {
            j.get(k)
                .ok_or_else(|| format!("{path}:{}: no {k:?}", i + 1))
        };
        let metrics = field("metrics")?
            .fields()
            .iter()
            .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
            .collect();
        out.push(Record {
            workload: field("workload")?.as_str().unwrap_or_default().to_owned(),
            seed: field("seed")?.as_f64().unwrap_or_default() as u64,
            trace: field("trace")?.as_f64() == Some(1.0),
            metrics,
        });
    }
    Ok(out)
}

#[derive(Debug, PartialEq, Clone, Copy)]
pub enum Verdict {
    Improved,
    Regressed,
    Unresolved,
    Unchanged,
}

/// The verdict on paired runs `a` (parent) and `b` (change) of one metric.
pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let beats = |x: f64, y: f64| match better {
        Better::Higher => x > y,
        Better::Lower => x < y,
    };
    let pairs = a.len().min(b.len());
    let wins = a.iter().zip(b).filter(|(x, y)| beats(**y, **x)).count();
    let (ma, mb) = (median(a), median(b));
    let iqr = |v: &[f64]| {
        if v.len() < 2 {
            0.0
        } else {
            quartiles(v).1 - quartiles(v).0
        }
    };
    if pairs >= 10 && wins * 10 >= pairs * 9 && beats(mb, ma) && (mb - ma).abs() > iqr(a) {
        return Verdict::Improved;
    }
    if beats(ma, mb) && (mb - ma).abs() > bound * ma.abs() {
        return Verdict::Regressed;
    }
    let spread = (iqr(a) / ma.abs()).max(iqr(b) / mb.abs());
    let clean_sweep = b.iter().all(|y| a.iter().all(|x| beats(*y, *x)));
    if spread > bound && !clean_sweep {
        return Verdict::Unresolved;
    }
    Verdict::Unchanged
}

pub fn main(args: &[String]) -> Result<(), String> {
    let [a_path, b_path] = args else {
        return Err("usage: tag-perf compare A.json B.json".to_owned());
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    println!("A (parent) = {a_path}   B (change) = {b_path}");
    for workload in crate::WORKLOADS {
        let of = |rs: &[Record], name: &str| -> Vec<f64> {
            rs.iter()
                .filter(|r| r.workload == workload && !r.trace)
                .filter_map(|r| r.metrics.get(name).copied())
                .collect()
        };
        for m in END_TO_END {
            let (va, vb) = (of(&a, m.name), of(&b, m.name));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let q = |v: &[f64]| {
                if v.len() < 2 {
                    (v[0], v[0])
                } else {
                    quartiles(v)
                }
            };
            let (ma, mb) = (median(&va), median(&vb));
            println!(
                "{workload} {} [{} is better, bound {}%]: A median {ma} {unit} (q1 {} q3 {}, n={}) | B median {mb} {unit} (q1 {} q3 {}, n={}) | B/A = {:.4} (base: A median {ma} {unit}) | {:?}",
                m.name,
                m.better.as_str(),
                m.bound * 100.0,
                q(&va).0,
                q(&va).1,
                va.len(),
                q(&vb).0,
                q(&vb).1,
                vb.len(),
                mb / ma,
                verdict(&va, &vb, m.better, m.bound),
                unit = m.unit,
            );
        }
        // Exact metrics, run for run on the same seed.
        for ra in a.iter().filter(|r| r.workload == workload && r.trace) {
            let Some(rb) = b
                .iter()
                .find(|r| r.workload == workload && r.trace && r.seed == ra.seed)
            else {
                continue;
            };
            for m in PER_LAYER.iter().filter(|m| m.exact) {
                if let (Some(x), Some(y)) = (ra.metrics.get(m.name), rb.metrics.get(m.name)) {
                    let word = if x == y { "equal" } else { "DIFFERS" };
                    println!(
                        "{workload} seed {} {} (exact): A {x} {unit} | B {y} {unit} | {word}",
                        ra.seed,
                        m.name,
                        unit = m.unit
                    );
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noisy(base: f64, n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| base * (1.0 + 0.01 * ((i * 7 % 5) as f64 - 2.0)))
            .collect()
    }

    #[test]
    fn same_code_twice_is_unchanged() {
        let a = noisy(100.0, 10);
        let mut b = a.clone();
        b.rotate_left(3);
        assert_eq!(verdict(&a, &b, Better::Higher, 0.10), Verdict::Unchanged);
        assert_eq!(verdict(&a, &b, Better::Lower, 0.10), Verdict::Unchanged);
    }

    #[test]
    fn a_clear_gain_needs_ten_pairs() {
        let a = noisy(100.0, 10);
        let b = noisy(120.0, 10);
        assert_eq!(verdict(&a, &b, Better::Higher, 0.10), Verdict::Improved);
        assert_eq!(
            verdict(&a[..5], &b[..5], Better::Higher, 0.10),
            Verdict::Unchanged
        );
        assert_eq!(verdict(&a, &b, Better::Lower, 0.10), Verdict::Regressed);
    }

    #[test]
    fn worse_within_the_bound_is_not_a_regression_and_wide_spread_is_unresolved() {
        let a = noisy(100.0, 10);
        let b = noisy(95.0, 10);
        assert_eq!(verdict(&a, &b, Better::Higher, 0.10), Verdict::Unchanged);
        assert_eq!(verdict(&a, &b, Better::Higher, 0.02), Verdict::Regressed);
        let wild: Vec<f64> = (0..10).map(|i| 100.0 + 20.0 * (i % 3) as f64).collect();
        assert_eq!(
            verdict(&wild, &wild, Better::Higher, 0.10),
            Verdict::Unresolved
        );
    }
}
