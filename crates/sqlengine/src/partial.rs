//! Decomposable aggregate state for scatter-gather execution.
//!
//! [`PartialAgg`] is the public promotion of the executor's
//! per-morsel partial aggregate: one accumulator per (group, aggregate
//! call) that can be computed over an arbitrary *slice* of a table's
//! rows and later combined with partials from other slices — other
//! morsels on one machine, or other shards across a scatter boundary.
//!
//! # Determinism contract
//!
//! Every input value carries the global sequence number (`seq`) of the
//! row it came from: its position in the unsharded, unsplit input.
//! Combining partials is defined so that `finish` produces the byte-
//! identical result of folding the whole input serially in seq order:
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
//!
//! [`GroupPartials`] packages a whole `GROUP BY` result (keys + states,
//! each key tagged with its first-seen seq) and [`merge_partials`] is
//! the coordinator-side operator that combines per-shard results into
//! the serial first-seen group order. Both have a compact wire encoding
//! ([`GroupPartials::encode`] / [`GroupPartials::decode`]) so partial
//! aggregates can cross shard boundaries as bytes.

use crate::error::{SqlError, SqlResult};
use crate::exec::AggState;
use crate::plan::{AggCall, AggFunc};
use crate::schema::Row;
use crate::value::Value;
use std::collections::{HashMap, HashSet};

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
    /// order of the unsharded table, so natural iteration qualifies).
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
                    "mismatched aggregate partial variants in scatter merge".into(),
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

/// One slice's complete `GROUP BY` result: group keys tagged with their
/// first-seen seq, plus one [`PartialAgg`] per (group, call).
#[derive(Debug, Clone, Default)]
pub struct GroupPartials {
    /// `(first_seen_seq, key values)` in slice-local first-seen order.
    pub keys: Vec<(u64, Vec<Value>)>,
    /// Parallel to `keys`: one accumulator per aggregate call.
    pub states: Vec<Vec<PartialAgg>>,
}

/// Incremental builder for one slice's [`GroupPartials`].
pub struct GroupPartialsBuilder<'a> {
    aggs: &'a [AggCall],
    index: HashMap<Vec<Value>, usize>,
    out: GroupPartials,
}

impl<'a> GroupPartialsBuilder<'a> {
    /// Start building against the plan's aggregate calls.
    pub fn new(aggs: &'a [AggCall]) -> Self {
        GroupPartialsBuilder {
            aggs,
            index: HashMap::new(),
            out: GroupPartials::default(),
        }
    }

    /// Fold one row: its global seq, evaluated group key, and one
    /// evaluated argument per aggregate call (`Value::Int(1)` for
    /// `COUNT(*)`). Rows must arrive in ascending seq order.
    pub fn add(&mut self, seq: u64, key: Vec<Value>, args: Vec<Value>) {
        let gi = match self.index.get(&key) {
            Some(&gi) => gi,
            None => {
                let gi = self.out.keys.len();
                self.index.insert(key.clone(), gi);
                self.out.keys.push((seq, key));
                self.out
                    .states
                    .push(self.aggs.iter().map(PartialAgg::new).collect());
                gi
            }
        };
        for (state, v) in self.out.states[gi].iter_mut().zip(args) {
            state.update(seq, v);
        }
    }

    /// The finished slice result.
    pub fn build(self) -> GroupPartials {
        self.out
    }
}

/// Coordinator-side merge of per-shard [`GroupPartials`] into one,
/// ordered by global first-seen seq — the serial first-seen group
/// order. Keys unify through [`Value`] equality (so `5` and `5.0`
/// landing on different shards still form one group, with the
/// earlier-seq representative key), exactly like the serial hash map.
pub fn merge_partials(parts: impl IntoIterator<Item = GroupPartials>) -> SqlResult<GroupPartials> {
    let mut index: HashMap<Vec<Value>, usize> = HashMap::new();
    let mut merged = GroupPartials::default();
    for part in parts {
        for ((seq, key), states) in part.keys.into_iter().zip(part.states) {
            match index.get(&key) {
                Some(&gi) => {
                    let (first, rep) = &mut merged.keys[gi];
                    if seq < *first {
                        *first = seq;
                        *rep = key;
                    }
                    for (mine, theirs) in merged.states[gi].iter_mut().zip(states) {
                        mine.merge(theirs)?;
                    }
                }
                None => {
                    index.insert(key.clone(), merged.keys.len());
                    merged.keys.push((seq, key));
                    merged.states.push(states);
                }
            }
        }
    }
    let mut order: Vec<usize> = (0..merged.keys.len()).collect();
    order.sort_by_key(|&i| merged.keys[i].0);
    let mut keys = Vec::with_capacity(order.len());
    let mut states = Vec::with_capacity(order.len());
    let mut old_states: Vec<Option<Vec<PartialAgg>>> =
        merged.states.into_iter().map(Some).collect();
    for i in order {
        keys.push(std::mem::take(&mut merged.keys[i]));
        states.push(old_states[i].take().expect("each slot moved once"));
    }
    Ok(GroupPartials { keys, states })
}

/// Finish a merged [`GroupPartials`] into output rows (group key values
/// then aggregate results), including the serial rule that a global
/// aggregation (no GROUP BY) over an empty input yields one row of
/// empty finishes.
pub fn finish_partials(
    merged: GroupPartials,
    group_len: usize,
    aggs: &[AggCall],
) -> SqlResult<Vec<Row>> {
    if group_len == 0 && merged.keys.is_empty() {
        let row: Row = aggs
            .iter()
            .map(|a| AggState::new(a.func).finish(&a.separator))
            .collect();
        return Ok(vec![row]);
    }
    let mut out = Vec::with_capacity(merged.keys.len());
    for ((_, key), states) in merged.keys.into_iter().zip(merged.states) {
        let mut row: Row = key;
        for (state, agg) in states.into_iter().zip(aggs) {
            row.push(state.finish(agg)?);
        }
        out.push(row);
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// Wire encoding: partial aggregates as bytes across shard boundaries.
// Little-endian throughout; floats travel as IEEE bit patterns so the
// round trip is exact.

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => out.push(0),
        Value::Int(i) => {
            out.push(1);
            put_u64(out, *i as u64);
        }
        Value::Float(f) => {
            out.push(2);
            put_u64(out, f.to_bits());
        }
        Value::Text(s) => {
            out.push(3);
            put_u64(out, s.len() as u64);
            out.extend_from_slice(s.as_bytes());
        }
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> SqlResult<&'a [u8]> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len());
        let end = end.ok_or_else(|| SqlError::Eval("truncated partial-aggregate frame".into()))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u64(&mut self) -> SqlResult<u64> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    fn value(&mut self) -> SqlResult<Value> {
        match self.take(1)?[0] {
            0 => Ok(Value::Null),
            1 => Ok(Value::Int(self.u64()? as i64)),
            2 => Ok(Value::Float(f64::from_bits(self.u64()?))),
            3 => {
                let len = self.u64()? as usize;
                let bytes = self.take(len)?;
                String::from_utf8(bytes.to_vec())
                    .map(Value::Text)
                    .map_err(|_| SqlError::Eval("invalid UTF-8 in partial-aggregate frame".into()))
            }
            t => Err(SqlError::Eval(format!(
                "unknown value tag {t} in partial-aggregate frame"
            ))),
        }
    }

    fn seq_vals(&mut self) -> SqlResult<Vec<(u64, Value)>> {
        let n = self.u64()? as usize;
        let mut vals = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            let seq = self.u64()?;
            vals.push((seq, self.value()?));
        }
        Ok(vals)
    }
}

fn put_seq_vals(out: &mut Vec<u8>, vals: &[(u64, Value)]) {
    put_u64(out, vals.len() as u64);
    for (seq, v) in vals {
        put_u64(out, *seq);
        put_value(out, v);
    }
}

impl PartialAgg {
    /// Append this accumulator's wire frame to `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        match self {
            PartialAgg::Count(n) => {
                out.push(0);
                put_u64(out, *n as u64);
            }
            PartialAgg::MinMax { best, want_min } => {
                out.push(1);
                out.push(u8::from(*want_min));
                match best {
                    None => out.push(0),
                    Some((seq, v)) => {
                        out.push(1);
                        put_u64(out, *seq);
                        put_value(out, v);
                    }
                }
            }
            PartialAgg::Ordered { vals } => {
                out.push(2);
                put_seq_vals(out, vals);
            }
            PartialAgg::Distinct { vals, .. } => {
                out.push(3);
                put_seq_vals(out, vals);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> SqlResult<PartialAgg> {
        match r.take(1)?[0] {
            0 => Ok(PartialAgg::Count(r.u64()? as i64)),
            1 => {
                let want_min = r.take(1)?[0] != 0;
                let best = match r.take(1)?[0] {
                    0 => None,
                    _ => {
                        let seq = r.u64()?;
                        Some((seq, r.value()?))
                    }
                };
                Ok(PartialAgg::MinMax { best, want_min })
            }
            2 => Ok(PartialAgg::Ordered {
                vals: r.seq_vals()?,
            }),
            3 => {
                let vals = r.seq_vals()?;
                let seen = vals.iter().map(|(_, v)| v.clone()).collect();
                Ok(PartialAgg::Distinct { vals, seen })
            }
            t => Err(SqlError::Eval(format!(
                "unknown partial-aggregate tag {t} in frame"
            ))),
        }
    }
}

impl GroupPartials {
    /// Serialize for transport across a shard boundary.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_u64(&mut out, self.keys.len() as u64);
        for ((seq, key), states) in self.keys.iter().zip(&self.states) {
            put_u64(&mut out, *seq);
            put_u64(&mut out, key.len() as u64);
            for v in key {
                put_value(&mut out, v);
            }
            put_u64(&mut out, states.len() as u64);
            for s in states {
                s.encode(&mut out);
            }
        }
        out
    }

    /// Inverse of [`GroupPartials::encode`].
    pub fn decode(buf: &[u8]) -> SqlResult<GroupPartials> {
        let mut r = Reader { buf, pos: 0 };
        let n = r.u64()? as usize;
        let mut gp = GroupPartials::default();
        for _ in 0..n {
            let seq = r.u64()?;
            let klen = r.u64()? as usize;
            let mut key = Vec::with_capacity(klen.min(1 << 16));
            for _ in 0..klen {
                key.push(r.value()?);
            }
            let slen = r.u64()? as usize;
            let mut states = Vec::with_capacity(slen.min(1 << 16));
            for _ in 0..slen {
                states.push(PartialAgg::decode(&mut r)?);
            }
            gp.keys.push((seq, key));
            gp.states.push(states);
        }
        if r.pos != buf.len() {
            return Err(SqlError::Eval(
                "trailing bytes after partial-aggregate frame".into(),
            ));
        }
        Ok(gp)
    }
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
                        "func={func:?} distinct={distinct} shards={n}"
                    );
                }
            }
        }
    }

    #[test]
    fn minmax_tie_keeps_earliest_representation() {
        // Int(5) and Float(5.0) compare equal; the serial fold keeps
        // whichever came first. A naive cross-shard merge that uses <=
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
        // Skewed shard sizes: shard 0 holds one value (10), shard 1
        // holds three (2, 2, 2). True mean = 16/4 = 4.0; averaging the
        // per-shard averages would give (10 + 2) / 2 = 6.0.
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

    #[test]
    fn group_partials_merge_orders_by_first_seen() {
        let aggs = [call(AggFunc::Count, false)];
        // Shard 0 sees seqs {1, 3}; shard 1 sees {0, 2}.
        let mut b0 = GroupPartialsBuilder::new(&aggs);
        b0.add(1, vec![Value::text("x")], vec![Value::Int(1)]);
        b0.add(3, vec![Value::text("y")], vec![Value::Int(1)]);
        let mut b1 = GroupPartialsBuilder::new(&aggs);
        b1.add(0, vec![Value::text("y")], vec![Value::Int(1)]);
        b1.add(2, vec![Value::text("x")], vec![Value::Int(1)]);
        let merged = merge_partials([b0.build(), b1.build()]).unwrap();
        let rows = finish_partials(merged, 1, &aggs).unwrap();
        // Global first-seen order: y (seq 0) then x (seq 1).
        assert_eq!(
            rows,
            vec![
                vec![Value::text("y"), Value::Int(2)],
                vec![Value::text("x"), Value::Int(2)],
            ]
        );
    }

    #[test]
    fn empty_global_aggregate_yields_one_row() {
        let aggs = [call(AggFunc::Sum, false), call(AggFunc::Count, false)];
        let merged = merge_partials([] as [GroupPartials; 0]).unwrap();
        let rows = finish_partials(merged, 0, &aggs).unwrap();
        assert_eq!(rows, vec![vec![Value::Null, Value::Int(0)]]);
    }

    #[test]
    fn wire_round_trip_is_exact() {
        let aggs = [
            call(AggFunc::Avg, false),
            call(AggFunc::Min, false),
            call(AggFunc::Count, true),
            call(AggFunc::GroupConcat, false),
        ];
        let mut b = GroupPartialsBuilder::new(&aggs);
        b.add(
            4,
            vec![Value::text("k'1"), Value::Null],
            vec![
                Value::Float(-0.0),
                Value::Int(5),
                Value::text("dup"),
                Value::text("part,1"),
            ],
        );
        b.add(
            9,
            vec![Value::text("k'1"), Value::Null],
            vec![
                Value::Float(f64::NAN),
                Value::Float(5.0),
                Value::text("dup"),
                Value::Null,
            ],
        );
        let gp = b.build();
        let decoded = GroupPartials::decode(&gp.encode()).unwrap();
        assert_eq!(format!("{gp:?}"), {
            // HashSet iteration order may differ; compare via finish.
            let rows_a = finish_partials(gp.clone(), 2, &aggs).unwrap();
            let rows_b = finish_partials(decoded.clone(), 2, &aggs).unwrap();
            assert_eq!(format!("{rows_a:?}"), format!("{rows_b:?}"));
            format!("{gp:?}")
        });
        assert_eq!(decoded.keys, gp.keys);
    }

    #[test]
    fn decode_rejects_truncated_and_trailing() {
        let aggs = [call(AggFunc::Count, false)];
        let mut b = GroupPartialsBuilder::new(&aggs);
        b.add(0, vec![Value::Int(1)], vec![Value::Int(1)]);
        let bytes = b.build().encode();
        assert!(GroupPartials::decode(&bytes[..bytes.len() - 1]).is_err());
        let mut extended = bytes.clone();
        extended.push(0);
        assert!(GroupPartials::decode(&extended).is_err());
        assert!(GroupPartials::decode(&bytes).is_ok());
    }
}
