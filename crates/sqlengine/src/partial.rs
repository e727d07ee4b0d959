//! Decomposable aggregate state for morsel-at-a-time execution.
//!
//! [`PartialAgg`] is the executor's per-morsel partial aggregate: one
//! accumulator per (group, aggregate call) that can be computed over an
//! arbitrary *slice* of a table's rows and later combined with partials
//! from other slices (see `chunk_exec`'s aggregate).
//!
//! # Determinism contract
//!
//! Every input value carries the global sequence number (`seq`) of the
//! row it came from: its position in the unsplit input. Combining
//! partials is defined so that `finish` produces the byte-identical
//! result of folding the whole input serially in seq order:
//!
//! - `Count` is a plain sum (order-free).
//! - `MinMax` keeps `(seq, value)` of the winner and merges with a
//!   *strict* comparison in seq order, so an equal-comparing but
//!   byte-different later value (`5.0` vs `5`, `-0.0` vs `0.0`) never
//!   replaces an earlier one — exactly the serial fold.
//! - `Ordered` (SUM / TOTAL / AVG / GROUP_CONCAT) keeps its non-null
//!   inputs tagged with seq and replays them through the serial
//!   [`AggState`] at finish, so float addition order, integer overflow
//!   promotion, and concatenation order can never diverge. AVG is
//!   thereby structurally a (sum, count) pair — never an average of
//!   averages (see `AggState::Avg`).
//! - `Distinct` keeps per-slice first occurrences with their seqs; the
//!   merge re-deduplicates in global seq order, keeping the earliest.

use crate::error::{SqlError, SqlResult};
use crate::exec::AggState;
use crate::plan::{AggCall, AggFunc};
use crate::value::Value;
use std::collections::HashSet;

/// A decomposable per-(group, call) aggregate accumulator.
#[derive(Debug, Clone)]
pub enum PartialAgg {
    /// COUNT: non-null input count (order-free exact merge).
    Count(i64),
    /// MIN / MAX: the winning `(seq, value)` under the serial fold.
    MinMax {
        /// Earliest winner so far, if any non-null input was seen.
        best: Option<(u64, Value)>,
        /// MIN when true, MAX when false.
        want_min: bool,
    },
    /// SUM / TOTAL / AVG / GROUP_CONCAT: non-null inputs in seq order,
    /// replayed through the serial accumulator at finish.
    Ordered {
        /// `(seq, value)` pairs, ascending by seq.
        vals: Vec<(u64, Value)>,
    },
    /// Any DISTINCT aggregate: slice-local first occurrences in seq
    /// order plus the dedup set.
    Distinct {
        /// `(seq, value)` first occurrences, ascending by seq.
        vals: Vec<(u64, Value)>,
        /// Values already present in `vals`.
        seen: HashSet<Value>,
    },
}

/// Is a strictly better than b under MIN (`want_min`) or MAX? Strict
/// comparison: ties never replace (see [`AggState::update`]).
fn strictly_better(a: &Value, b: &Value, want_min: bool) -> bool {
    if want_min {
        a < b
    } else {
        a > b
    }
}

impl PartialAgg {
    /// Fresh accumulator for one aggregate call.
    pub fn new(agg: &AggCall) -> PartialAgg {
        if agg.distinct {
            return PartialAgg::Distinct {
                vals: Vec::new(),
                seen: HashSet::new(),
            };
        }
        match agg.func {
            AggFunc::Count => PartialAgg::Count(0),
            AggFunc::Min => PartialAgg::MinMax {
                best: None,
                want_min: true,
            },
            AggFunc::Max => PartialAgg::MinMax {
                best: None,
                want_min: false,
            },
            AggFunc::Sum | AggFunc::Total | AggFunc::Avg | AggFunc::GroupConcat => {
                PartialAgg::Ordered { vals: Vec::new() }
            }
        }
    }

    /// Fold in one input value from global row `seq`. Callers must feed
    /// each slice in ascending seq order (a slice preserves the row
    /// order of the whole input, so natural iteration qualifies).
    pub fn update(&mut self, seq: u64, v: Value) {
        // SQL aggregates skip NULL inputs (COUNT(*) passes a marker).
        if v.is_null() {
            return;
        }
        match self {
            PartialAgg::Count(n) => *n += 1,
            PartialAgg::MinMax { best, want_min } => {
                let replace = match best {
                    None => true,
                    Some((_, b)) => strictly_better(&v, b, *want_min),
                };
                if replace {
                    *best = Some((seq, v));
                }
            }
            PartialAgg::Ordered { vals } => vals.push((seq, v)),
            PartialAgg::Distinct { vals, seen } => {
                if seen.insert(v.clone()) {
                    vals.push((seq, v));
                }
            }
        }
    }

    /// Combine another slice's accumulator into this one. The two
    /// slices must be disjoint in seq; variants must match.
    pub fn merge(&mut self, other: PartialAgg) -> SqlResult<()> {
        match (self, other) {
            (PartialAgg::Count(a), PartialAgg::Count(b)) => *a += b,
            (PartialAgg::MinMax { best, want_min }, PartialAgg::MinMax { best: theirs, .. }) => {
                if let Some((sb, vb)) = theirs {
                    *best = match best.take() {
                        None => Some((sb, vb)),
                        // The serial fold visits values in seq order and
                        // replaces only on a strictly better value, so
                        // the later winner survives only by beating the
                        // earlier one outright.
                        Some((sa, va)) => {
                            let earlier_first = sa < sb;
                            let (first, second) = if earlier_first {
                                ((sa, va), (sb, vb))
                            } else {
                                ((sb, vb), (sa, va))
                            };
                            if strictly_better(&second.1, &first.1, *want_min) {
                                Some(second)
                            } else {
                                Some(first)
                            }
                        }
                    };
                }
            }
            (PartialAgg::Ordered { vals }, PartialAgg::Ordered { vals: theirs }) => {
                *vals = merge_by_seq(std::mem::take(vals), theirs);
            }
            (PartialAgg::Distinct { vals, seen }, PartialAgg::Distinct { vals: theirs, .. }) => {
                // Re-deduplicate in global seq order: the earliest
                // occurrence of each value wins, exactly as if the
                // whole input had been scanned serially.
                let merged = merge_by_seq(std::mem::take(vals), theirs);
                seen.clear();
                for (seq, v) in merged {
                    if seen.insert(v.clone()) {
                        vals.push((seq, v));
                    }
                }
            }
            _ => {
                return Err(SqlError::Eval(
                    "mismatched aggregate partial variants in merge".into(),
                ))
            }
        }
        Ok(())
    }

    /// Produce the final value, byte-identical to the serial fold.
    pub fn finish(self, agg: &AggCall) -> SqlResult<Value> {
        match self {
            PartialAgg::Count(n) => Ok(Value::Int(n)),
            PartialAgg::MinMax { best, .. } => Ok(best.map(|(_, v)| v).unwrap_or(Value::Null)),
            PartialAgg::Ordered { vals } | PartialAgg::Distinct { vals, .. } => {
                debug_assert!(vals.windows(2).all(|w| w[0].0 < w[1].0));
                let mut s = AggState::new(agg.func);
                for (_, v) in &vals {
                    s.update(v)?;
                }
                Ok(s.finish(&agg.separator))
            }
        }
    }
}

/// Merge two seq-ascending vectors into one (seqs are globally unique).
fn merge_by_seq(a: Vec<(u64, Value)>, b: Vec<(u64, Value)>) -> Vec<(u64, Value)> {
    if a.is_empty() {
        return b;
    }
    if b.is_empty() {
        return a;
    }
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut ia, mut ib) = (a.into_iter().peekable(), b.into_iter().peekable());
    loop {
        match (ia.peek(), ib.peek()) {
            (Some(x), Some(y)) => {
                if x.0 <= y.0 {
                    out.push(ia.next().expect("peeked"));
                } else {
                    out.push(ib.next().expect("peeked"));
                }
            }
            (Some(_), None) => {
                out.extend(ia);
                break;
            }
            (None, Some(_)) => {
                out.extend(ib);
                break;
            }
            (None, None) => break,
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn call(func: AggFunc, distinct: bool) -> AggCall {
        AggCall {
            func,
            arg: Some(crate::expr::BoundExpr::ColumnRef(0)),
            distinct,
            separator: ",".into(),
            name: "a".into(),
        }
    }

    /// Serial reference: fold (seq, value) pairs in seq order through
    /// the row-at-a-time accumulator.
    fn serial(func: AggFunc, distinct: bool, inputs: &[(u64, Value)]) -> Value {
        let mut sorted = inputs.to_vec();
        sorted.sort_by_key(|(s, _)| *s);
        let mut state = AggState::new(func);
        let mut seen = HashSet::new();
        for (_, v) in sorted {
            if v.is_null() || (distinct && !seen.insert(v.clone())) {
                continue;
            }
            state.update(&v).unwrap();
        }
        state.finish(",")
    }

    /// Split inputs round-robin across `n` slices, fold each into a
    /// partial, merge pairwise, finish.
    fn scattered(func: AggFunc, distinct: bool, inputs: &[(u64, Value)], n: usize) -> Value {
        let agg = call(func, distinct);
        let mut parts: Vec<PartialAgg> = (0..n).map(|_| PartialAgg::new(&agg)).collect();
        let mut sorted = inputs.to_vec();
        sorted.sort_by_key(|(s, _)| *s);
        for (i, (seq, v)) in sorted.into_iter().enumerate() {
            parts[i % n].update(seq, v);
        }
        let mut acc = parts.remove(0);
        for p in parts {
            acc.merge(p).unwrap();
        }
        acc.finish(&agg).unwrap()
    }

    fn vals(vs: &[Value]) -> Vec<(u64, Value)> {
        vs.iter()
            .cloned()
            .enumerate()
            .map(|(i, v)| (i as u64, v))
            .collect()
    }

    #[test]
    fn scattered_matches_serial_across_functions() {
        let inputs = vals(&[
            Value::Int(3),
            Value::Null,
            Value::Float(2.5),
            Value::Int(-7),
            Value::text("2"),
            Value::Int(3),
            Value::Float(3.0),
        ]);
        for func in [
            AggFunc::Count,
            AggFunc::Sum,
            AggFunc::Total,
            AggFunc::Avg,
            AggFunc::Min,
            AggFunc::Max,
            AggFunc::GroupConcat,
        ] {
            for distinct in [false, true] {
                for n in [1, 2, 3, 5] {
                    assert_eq!(
                        scattered(func, distinct, &inputs, n),
                        serial(func, distinct, &inputs),
                        "func={func:?} distinct={distinct} slices={n}"
                    );
                }
            }
        }
    }

    #[test]
    fn minmax_tie_keeps_earliest_representation() {
        // Int(5) and Float(5.0) compare equal; the serial fold keeps
        // whichever came first. A naive cross-slice merge that uses <=
        // or ignores seqs would return the wrong representation.
        let inputs = vec![(0u64, Value::Int(5)), (1u64, Value::Float(5.0))];
        for n in [1, 2] {
            assert_eq!(scattered(AggFunc::Min, false, &inputs, n), Value::Int(5));
            assert_eq!(scattered(AggFunc::Max, false, &inputs, n), Value::Int(5));
        }
        let flipped = vec![(0u64, Value::Float(5.0)), (1u64, Value::Int(5))];
        for n in [1, 2] {
            assert_eq!(
                scattered(AggFunc::Min, false, &flipped, n),
                Value::Float(5.0)
            );
        }
    }

    #[test]
    fn avg_merges_as_sum_count_not_averaged_averages() {
        // Skewed slice sizes: slice 0 holds one value (10), slice 1
        // holds three (2, 2, 2). True mean = 16/4 = 4.0; averaging the
        // per-slice averages would give (10 + 2) / 2 = 6.0.
        let agg = call(AggFunc::Avg, false);
        let mut a = PartialAgg::new(&agg);
        a.update(0, Value::Int(10));
        let mut b = PartialAgg::new(&agg);
        for seq in 1..4 {
            b.update(seq, Value::Int(2));
        }
        let naive_average_of_averages = (10.0 + 2.0) / 2.0;
        a.merge(b).unwrap();
        let merged = a.finish(&agg).unwrap();
        assert_eq!(merged, Value::Float(4.0));
        assert_ne!(merged, Value::Float(naive_average_of_averages));
    }
}
