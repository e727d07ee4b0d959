//! Columnar chunks: the unit of data flow in the executor
//! ([`crate::chunk_exec`]).
//!
//! A [`Chunk`] holds one typed vector per column ([`ColumnData`]) with
//! an explicit validity mask, replacing `Vec<Row>` between operators.
//! Column typing is *strict and lossless*: a column is `Int` only when
//! every non-null cell is `Value::Int`, so converting rows → chunk →
//! rows reproduces the original values byte-for-byte (`Int(7)` never
//! becomes `Float(7.0)` on a round trip, even though the two compare
//! equal). Columns that mix variants fall back to [`ColumnData::Mixed`]
//! and keep exact `Value`s.
//!
//! A [`Batch`] is a morsel-sized view over a shared chunk: either a
//! contiguous row range (zero-copy table scans) or an explicit row-id
//! selection (filter survivors). Operators exchange batches; rows are
//! only materialized at the executor boundary.
//!
//! Columns are shared too: a chunk holds each column behind an `Arc`,
//! so [`Chunk::project`] builds a narrower chunk without copying a
//! cell, and [`Chunk::append_rows`] copies a column only when a view still
//! holds it (copy-on-write).

use crate::schema::Row;
use crate::value::Value;
use std::sync::Arc;

/// One column of a chunk: a typed vector plus a validity mask.
///
/// For the typed variants, `values[i]` is meaningful only when
/// `validity[i]` is true; invalid slots hold an arbitrary placeholder.
/// `Mixed` stores exact [`Value`]s (including `Value::Null`) for
/// columns that do not fit a single type.
#[derive(Debug, Clone)]
pub enum ColumnData {
    /// All non-null cells are `Value::Int`.
    Int {
        /// Cell payloads (placeholder where invalid).
        values: Vec<i64>,
        /// Per-row non-null flag.
        validity: Vec<bool>,
    },
    /// All non-null cells are `Value::Float`.
    Float {
        /// Cell payloads (placeholder where invalid).
        values: Vec<f64>,
        /// Per-row non-null flag.
        validity: Vec<bool>,
    },
    /// All non-null cells are `Value::Text`.
    Text {
        /// Cell payloads (placeholder where invalid).
        values: Vec<String>,
        /// Per-row non-null flag.
        validity: Vec<bool>,
    },
    /// Mixed-type column holding exact values (nulls inline).
    Mixed(Vec<Value>),
}

impl ColumnData {
    /// Number of rows in the column.
    pub fn len(&self) -> usize {
        match self {
            ColumnData::Int { values, .. } => values.len(),
            ColumnData::Float { values, .. } => values.len(),
            ColumnData::Text { values, .. } => values.len(),
            ColumnData::Mixed(v) => v.len(),
        }
    }

    /// True when the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Is row `i` SQL NULL?
    pub fn is_null(&self, i: usize) -> bool {
        match self {
            ColumnData::Int { validity, .. }
            | ColumnData::Float { validity, .. }
            | ColumnData::Text { validity, .. } => !validity[i],
            ColumnData::Mixed(v) => v[i].is_null(),
        }
    }

    /// The exact value at row `i` (cloned).
    pub fn value_at(&self, i: usize) -> Value {
        match self {
            ColumnData::Int { values, validity } => {
                if validity[i] {
                    Value::Int(values[i])
                } else {
                    Value::Null
                }
            }
            ColumnData::Float { values, validity } => {
                if validity[i] {
                    Value::Float(values[i])
                } else {
                    Value::Null
                }
            }
            ColumnData::Text { values, validity } => {
                if validity[i] {
                    Value::Text(values[i].clone())
                } else {
                    Value::Null
                }
            }
            ColumnData::Mixed(v) => v[i].clone(),
        }
    }

    /// `value_at(i).to_string()` without cloning the cell first.
    pub fn text_at(&self, i: usize) -> String {
        let mut out = String::new();
        self.push_text_at(i, &mut out);
        out
    }

    /// Append [`ColumnData::text_at`]`(i)` to `out`, allocating nothing
    /// beyond `out`'s growth.
    pub fn push_text_at(&self, i: usize, out: &mut String) {
        use std::fmt::Write as _;
        // Writing into a `String` cannot fail.
        let _ = match self {
            ColumnData::Int { values, validity } if validity[i] => write!(out, "{}", values[i]),
            ColumnData::Float { values, validity } if validity[i] => write!(out, "{}", values[i]),
            ColumnData::Text { values, validity } if validity[i] => out.write_str(&values[i]),
            ColumnData::Mixed(v) => write!(out, "{}", v[i]),
            _ => write!(out, "{}", Value::Null),
        };
    }

    /// `value_at(a).total_cmp(&value_at(b))` without cloning either cell:
    /// NULL first, then the column's own order (`f64::total_cmp` for
    /// floats).
    pub fn total_cmp_at(&self, a: usize, b: usize) -> std::cmp::Ordering {
        fn typed(
            validity: &[bool],
            a: usize,
            b: usize,
            cmp: impl FnOnce() -> std::cmp::Ordering,
        ) -> std::cmp::Ordering {
            match (validity[a], validity[b]) {
                (true, true) => cmp(),
                (va, vb) => va.cmp(&vb),
            }
        }
        match self {
            ColumnData::Int { values, validity } => {
                typed(validity, a, b, || values[a].cmp(&values[b]))
            }
            ColumnData::Float { values, validity } => {
                typed(validity, a, b, || values[a].total_cmp(&values[b]))
            }
            ColumnData::Text { values, validity } => {
                typed(validity, a, b, || values[a].cmp(&values[b]))
            }
            ColumnData::Mixed(v) => v[a].total_cmp(&v[b]),
        }
    }

    /// Build a column from exact values, inferring the strictest type
    /// that loses nothing (see module docs).
    pub fn from_values(vals: Vec<Value>) -> ColumnData {
        #[derive(PartialEq, Clone, Copy)]
        enum Kind {
            Unknown,
            Int,
            Float,
            Text,
            Mixed,
        }
        let mut kind = Kind::Unknown;
        for v in &vals {
            let k = match v {
                Value::Null => continue,
                Value::Int(_) => Kind::Int,
                Value::Float(_) => Kind::Float,
                Value::Text(_) => Kind::Text,
            };
            kind = match kind {
                Kind::Unknown => k,
                cur if cur == k => cur,
                _ => Kind::Mixed,
            };
            if kind == Kind::Mixed {
                break;
            }
        }
        let n = vals.len();
        match kind {
            Kind::Mixed => ColumnData::Mixed(vals),
            // All-null columns are stored as Int with an all-false mask.
            Kind::Unknown | Kind::Int => {
                let mut values = Vec::with_capacity(n);
                let mut validity = Vec::with_capacity(n);
                for v in vals {
                    match v {
                        Value::Int(i) => {
                            values.push(i);
                            validity.push(true);
                        }
                        _ => {
                            values.push(0);
                            validity.push(false);
                        }
                    }
                }
                ColumnData::Int { values, validity }
            }
            Kind::Float => {
                let mut values = Vec::with_capacity(n);
                let mut validity = Vec::with_capacity(n);
                for v in vals {
                    match v {
                        Value::Float(f) => {
                            values.push(f);
                            validity.push(true);
                        }
                        _ => {
                            values.push(0.0);
                            validity.push(false);
                        }
                    }
                }
                ColumnData::Float { values, validity }
            }
            Kind::Text => {
                let mut values = Vec::with_capacity(n);
                let mut validity = Vec::with_capacity(n);
                for v in vals {
                    match v {
                        Value::Text(s) => {
                            values.push(s);
                            validity.push(true);
                        }
                        _ => {
                            values.push(String::new());
                            validity.push(false);
                        }
                    }
                }
                ColumnData::Text { values, validity }
            }
        }
    }

    /// Append one cell, keeping the typing [`ColumnData::from_values`]
    /// would infer for the longer column: a cell of the column's own
    /// variant (or NULL) extends the typed vector; any other cell
    /// re-infers, so an all-NULL column takes the cell's type and a typed
    /// column turns `Mixed`.
    pub fn push(&mut self, v: Value) {
        match (&mut *self, v) {
            (ColumnData::Int { values, validity }, Value::Int(i)) => {
                values.push(i);
                validity.push(true);
            }
            (ColumnData::Float { values, validity }, Value::Float(f)) => {
                values.push(f);
                validity.push(true);
            }
            (ColumnData::Text { values, validity }, Value::Text(s)) => {
                values.push(s);
                validity.push(true);
            }
            (ColumnData::Int { values, validity }, Value::Null) => {
                values.push(0);
                validity.push(false);
            }
            (ColumnData::Float { values, validity }, Value::Null) => {
                values.push(0.0);
                validity.push(false);
            }
            (ColumnData::Text { values, validity }, Value::Null) => {
                values.push(String::new());
                validity.push(false);
            }
            (ColumnData::Mixed(vals), v) => vals.push(v),
            (typed, v) => {
                let mut vals: Vec<Value> = (0..typed.len()).map(|i| typed.value_at(i)).collect();
                vals.push(v);
                *typed = ColumnData::from_values(vals);
            }
        }
    }

    /// A broadcast column: `n` copies of one value.
    pub fn broadcast(v: &Value, n: usize) -> ColumnData {
        match v {
            Value::Int(i) => ColumnData::Int {
                values: vec![*i; n],
                validity: vec![true; n],
            },
            Value::Float(f) => ColumnData::Float {
                values: vec![*f; n],
                validity: vec![true; n],
            },
            Value::Text(s) => ColumnData::Text {
                values: vec![s.clone(); n],
                validity: vec![true; n],
            },
            Value::Null => ColumnData::Int {
                values: vec![0; n],
                validity: vec![false; n],
            },
        }
    }

    /// Gather the listed rows into a new owned column (type preserved).
    pub fn gather(&self, ids: &[u32]) -> ColumnData {
        match self {
            ColumnData::Int { values, validity } => ColumnData::Int {
                values: ids.iter().map(|&i| values[i as usize]).collect(),
                validity: ids.iter().map(|&i| validity[i as usize]).collect(),
            },
            ColumnData::Float { values, validity } => ColumnData::Float {
                values: ids.iter().map(|&i| values[i as usize]).collect(),
                validity: ids.iter().map(|&i| validity[i as usize]).collect(),
            },
            ColumnData::Text { values, validity } => ColumnData::Text {
                values: ids.iter().map(|&i| values[i as usize].clone()).collect(),
                validity: ids.iter().map(|&i| validity[i as usize]).collect(),
            },
            ColumnData::Mixed(v) => {
                ColumnData::Mixed(ids.iter().map(|&i| v[i as usize].clone()).collect())
            }
        }
    }

    /// Gather with optional row ids: `None` produces SQL NULL (used for
    /// the right side of unmatched LEFT-join rows).
    pub fn gather_opt(&self, ids: &[Option<u32>]) -> ColumnData {
        match self {
            ColumnData::Int { values, validity } => ColumnData::Int {
                values: ids
                    .iter()
                    .map(|i| i.map(|i| values[i as usize]).unwrap_or(0))
                    .collect(),
                validity: ids
                    .iter()
                    .map(|i| i.map(|i| validity[i as usize]).unwrap_or(false))
                    .collect(),
            },
            ColumnData::Float { values, validity } => ColumnData::Float {
                values: ids
                    .iter()
                    .map(|i| i.map(|i| values[i as usize]).unwrap_or(0.0))
                    .collect(),
                validity: ids
                    .iter()
                    .map(|i| i.map(|i| validity[i as usize]).unwrap_or(false))
                    .collect(),
            },
            ColumnData::Text { values, validity } => ColumnData::Text {
                values: ids
                    .iter()
                    .map(|i| {
                        i.map(|i| values[i as usize].clone())
                            .unwrap_or_else(String::new)
                    })
                    .collect(),
                validity: ids
                    .iter()
                    .map(|i| i.map(|i| validity[i as usize]).unwrap_or(false))
                    .collect(),
            },
            ColumnData::Mixed(v) => ColumnData::Mixed(
                ids.iter()
                    .map(|i| i.map(|i| v[i as usize].clone()).unwrap_or(Value::Null))
                    .collect(),
            ),
        }
    }

    /// Concatenate columns (splices typed vectors when every part shares
    /// a variant; re-infers the strictest type otherwise).
    pub fn concat(mut parts: Vec<ColumnData>) -> ColumnData {
        if parts.len() <= 1 {
            return parts.pop().unwrap_or(ColumnData::Int {
                values: Vec::new(),
                validity: Vec::new(),
            });
        }
        let splice =
            |parts: &Vec<ColumnData>, probe: fn(&ColumnData) -> bool| parts.iter().all(probe);
        if splice(&parts, |p| matches!(p, ColumnData::Int { .. })) {
            let (mut values, mut validity) = (Vec::new(), Vec::new());
            for p in parts {
                if let ColumnData::Int {
                    values: v,
                    validity: m,
                } = p
                {
                    values.extend(v);
                    validity.extend(m);
                }
            }
            return ColumnData::Int { values, validity };
        }
        if splice(&parts, |p| matches!(p, ColumnData::Float { .. })) {
            let (mut values, mut validity) = (Vec::new(), Vec::new());
            for p in parts {
                if let ColumnData::Float {
                    values: v,
                    validity: m,
                } = p
                {
                    values.extend(v);
                    validity.extend(m);
                }
            }
            return ColumnData::Float { values, validity };
        }
        if splice(&parts, |p| matches!(p, ColumnData::Text { .. })) {
            let (mut values, mut validity) = (Vec::new(), Vec::new());
            for p in parts {
                if let ColumnData::Text {
                    values: v,
                    validity: m,
                } = p
                {
                    values.extend(v);
                    validity.extend(m);
                }
            }
            return ColumnData::Text { values, validity };
        }
        // Mixed variants across parts (e.g. an all-null column next to a
        // Float column): re-infer so typing stays strict and lossless.
        let total: usize = parts.iter().map(ColumnData::len).sum();
        let mut vals = Vec::with_capacity(total);
        for p in &parts {
            for i in 0..p.len() {
                vals.push(p.value_at(i));
            }
        }
        ColumnData::from_values(vals)
    }

    /// Copy a contiguous row range into a new owned column.
    pub fn slice(&self, start: usize, end: usize) -> ColumnData {
        match self {
            ColumnData::Int { values, validity } => ColumnData::Int {
                values: values[start..end].to_vec(),
                validity: validity[start..end].to_vec(),
            },
            ColumnData::Float { values, validity } => ColumnData::Float {
                values: values[start..end].to_vec(),
                validity: validity[start..end].to_vec(),
            },
            ColumnData::Text { values, validity } => ColumnData::Text {
                values: values[start..end].to_vec(),
                validity: validity[start..end].to_vec(),
            },
            ColumnData::Mixed(v) => ColumnData::Mixed(v[start..end].to_vec()),
        }
    }
}

/// A set of equal-length columns: the columnar mirror of `Vec<Row>`.
/// The length is stored, so a chunk of zero columns still has rows.
#[derive(Debug, Clone)]
pub struct Chunk {
    columns: Vec<Arc<ColumnData>>,
    len: usize,
}

impl Chunk {
    /// Build from columns (all must have equal length).
    pub fn new(columns: Vec<ColumnData>) -> Chunk {
        let len = columns.first().map(ColumnData::len).unwrap_or(0);
        Chunk::with_len(columns, len)
    }

    /// Build from columns of `len` rows each; with no columns, a chunk
    /// of `len` empty rows.
    pub fn with_len(columns: Vec<ColumnData>, len: usize) -> Chunk {
        debug_assert!(columns.iter().all(|c| c.len() == len));
        Chunk {
            columns: columns.into_iter().map(Arc::new).collect(),
            len,
        }
    }

    /// An empty chunk of the given width (zero rows).
    pub fn empty(width: usize) -> Chunk {
        Chunk::with_len(
            (0..width)
                .map(|_| ColumnData::Int {
                    values: Vec::new(),
                    validity: Vec::new(),
                })
                .collect(),
            0,
        )
    }

    /// The listed columns, in the listed order, as a chunk of the same
    /// rows. Shares the columns: nothing is copied.
    pub fn project(&self, cols: &[usize]) -> Chunk {
        Chunk {
            columns: cols.iter().map(|&c| Arc::clone(&self.columns[c])).collect(),
            len: self.len,
        }
    }

    /// Transpose rows into a chunk (lossless; see module docs). Takes
    /// the cells by value: pass owned rows to move them in, or
    /// `rows.iter().map(|r| r.iter().cloned())` to copy borrowed ones.
    pub fn from_rows<R>(width: usize, rows: impl IntoIterator<Item = R>) -> Chunk
    where
        R: IntoIterator<Item = Value>,
    {
        let rows = rows.into_iter();
        let mut cols: Vec<Vec<Value>> = (0..width)
            .map(|_| Vec::with_capacity(rows.size_hint().0))
            .collect();
        let mut len = 0;
        for row in rows {
            len += 1;
            let mut cells = row.into_iter();
            for slot in &mut cols {
                slot.push(cells.next().unwrap_or(Value::Null));
            }
        }
        Chunk {
            columns: cols
                .into_iter()
                .map(|c| Arc::new(ColumnData::from_values(c)))
                .collect(),
            len,
        }
    }

    /// Append `rows`, copying each cell (see [`ColumnData::push`]);
    /// afterwards the chunk equals [`Chunk::from_rows`] over the old rows
    /// plus these. The copies are made a column at a time, so each
    /// column's text is laid out in row order in fresh memory. A column
    /// that a [`Chunk::project`] view still holds is copied first, so the
    /// view keeps reading the old rows.
    pub fn append_rows(&mut self, rows: &[Row]) {
        for (c, column) in self.columns.iter_mut().enumerate() {
            let column = Arc::make_mut(column);
            for row in rows {
                column.push(row.get(c).cloned().unwrap_or(Value::Null));
            }
        }
        self.len += rows.len();
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the chunk has no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of columns.
    pub fn width(&self) -> usize {
        self.columns.len()
    }

    /// The columns, each shared with every view that holds it.
    pub fn columns(&self) -> &[Arc<ColumnData>] {
        &self.columns
    }

    /// One column by position.
    pub fn column(&self, i: usize) -> &ColumnData {
        &self.columns[i]
    }

    /// The exact value at (row, column), cloned.
    pub fn value_at(&self, row: usize, col: usize) -> Value {
        self.columns[col].value_at(row)
    }

    /// Materialize one row (cloned values).
    pub fn row(&self, i: usize) -> Row {
        self.columns.iter().map(|c| c.value_at(i)).collect()
    }
}

/// Which rows of a shared chunk a [`Batch`] covers.
#[derive(Debug, Clone)]
pub enum Rows {
    /// A contiguous range `[start, end)`.
    Range(usize, usize),
    /// An explicit row-id list, in output order: a filter's survivors
    /// ascend, an index path's follow the index.
    Ids(Vec<u32>),
}

/// A morsel-sized view over a shared [`Chunk`].
///
/// Table scans produce `Range` batches over the table's image (zero
/// copy), index paths and filters `Ids` selections of it; operators that
/// build fresh data produce an owned chunk viewed in full.
#[derive(Debug, Clone)]
pub struct Batch {
    /// Backing storage, shared between batches of the same source.
    pub data: Arc<Chunk>,
    /// The rows of `data` this batch covers, in output order.
    pub rows: Rows,
}

impl Batch {
    /// A batch covering all rows of an owned chunk.
    pub fn owned(chunk: Chunk) -> Batch {
        let len = chunk.len();
        Batch {
            data: Arc::new(chunk),
            rows: Rows::Range(0, len),
        }
    }

    /// A contiguous view over a shared chunk.
    pub fn range(data: Arc<Chunk>, start: usize, end: usize) -> Batch {
        debug_assert!(start <= end && end <= data.len());
        Batch {
            data,
            rows: Rows::Range(start, end),
        }
    }

    /// A selected view over a shared chunk.
    pub fn select(data: Arc<Chunk>, ids: Vec<u32>) -> Batch {
        Batch {
            data,
            rows: Rows::Ids(ids),
        }
    }

    /// Transpose rows into an owned single-batch view (see
    /// [`Chunk::from_rows`]).
    pub fn from_rows<R>(width: usize, rows: impl IntoIterator<Item = R>) -> Batch
    where
        R: IntoIterator<Item = Value>,
    {
        Batch::owned(Chunk::from_rows(width, rows))
    }

    /// Number of rows in the view.
    pub fn len(&self) -> usize {
        match &self.rows {
            Rows::Range(s, e) => e - s,
            Rows::Ids(ids) => ids.len(),
        }
    }

    /// True when the view covers no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of columns.
    pub fn width(&self) -> usize {
        self.data.width()
    }

    /// Map a view-local row index to its index in the backing chunk.
    pub fn global_id(&self, local: usize) -> usize {
        match &self.rows {
            Rows::Range(s, _) => s + local,
            Rows::Ids(ids) => ids[local] as usize,
        }
    }

    /// The exact value at (view-local row, column), cloned.
    pub fn value_at(&self, local: usize, col: usize) -> Value {
        self.data.value_at(self.global_id(local), col)
    }

    /// Is the cell at (view-local row, column) SQL NULL?
    pub fn is_null(&self, local: usize, col: usize) -> bool {
        self.data.column(col).is_null(self.global_id(local))
    }

    /// Materialize one column of the view as an owned column.
    pub fn gather_column(&self, col: usize) -> ColumnData {
        let c = self.data.column(col);
        match &self.rows {
            Rows::Range(s, e) => c.slice(*s, *e),
            Rows::Ids(ids) => c.gather(ids),
        }
    }

    /// Narrow the view to the given view-local row indices.
    pub fn narrow(&self, locals: &[u32]) -> Batch {
        let ids = locals
            .iter()
            .map(|&l| self.global_id(l as usize) as u32)
            .collect();
        Batch {
            data: Arc::clone(&self.data),
            rows: Rows::Ids(ids),
        }
    }

    /// A sub-view over `[start, end)` of this view's rows.
    pub fn slice_local(&self, start: usize, end: usize) -> Batch {
        match &self.rows {
            Rows::Range(s, _) => Batch::range(Arc::clone(&self.data), s + start, s + end),
            Rows::Ids(ids) => Batch::select(Arc::clone(&self.data), ids[start..end].to_vec()),
        }
    }

    /// Materialize the view as rows (cloned values, output order).
    pub fn to_rows(&self) -> Vec<Row> {
        let mut out = Vec::with_capacity(self.len());
        match &self.rows {
            Rows::Range(s, e) => {
                for i in *s..*e {
                    out.push(self.data.row(i));
                }
            }
            Rows::Ids(ids) => {
                for &i in ids {
                    out.push(self.data.row(i as usize));
                }
            }
        }
        out
    }

    /// Compact the view into an owned chunk (copies survivors only).
    pub fn compact(&self) -> Chunk {
        Chunk::with_len(
            (0..self.width()).map(|c| self.gather_column(c)).collect(),
            self.len(),
        )
    }
}

/// Flatten batches into rows (boundary with the row-at-a-time world).
pub fn batches_to_rows(batches: &[Batch]) -> Vec<Row> {
    let total: usize = batches.iter().map(Batch::len).sum();
    let mut out = Vec::with_capacity(total);
    for b in batches {
        out.extend(b.to_rows());
    }
    out
}

/// Total row count across batches.
pub fn batches_len(batches: &[Batch]) -> usize {
    batches.iter().map(Batch::len).sum()
}

/// Concatenate batches into a single shared chunk. When the batches are
/// contiguous full-coverage ranges over one shared chunk (the zero-copy
/// table-scan shape), the backing chunk is reused without copying.
pub fn concat_batches_chunk(batches: &[Batch], width: usize) -> Arc<Chunk> {
    if let Some(first) = batches.first() {
        let mut covered = 0;
        let mut contiguous = true;
        for b in batches {
            match &b.rows {
                Rows::Range(s, e) if Arc::ptr_eq(&b.data, &first.data) && *s == covered => {
                    covered = *e;
                }
                _ => {
                    contiguous = false;
                    break;
                }
            }
        }
        if contiguous && covered == first.data.len() {
            return Arc::clone(&first.data);
        }
    }
    let cols: Vec<ColumnData> = (0..width)
        .map(|c| ColumnData::concat(batches.iter().map(|b| b.gather_column(c)).collect()))
        .collect();
    Arc::new(Chunk::with_len(cols, batches_len(batches)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows() -> Vec<Row> {
        vec![
            vec![Value::Int(1), Value::text("a"), Value::Float(0.5)],
            vec![Value::Null, Value::text("b"), Value::Null],
            vec![Value::Int(3), Value::Null, Value::Float(2.5)],
        ]
    }

    #[test]
    fn round_trip_is_lossless() {
        let r = rows();
        let chunk = Chunk::from_rows(3, r.clone());
        assert!(matches!(chunk.column(0), ColumnData::Int { .. }));
        assert!(matches!(chunk.column(1), ColumnData::Text { .. }));
        assert!(matches!(chunk.column(2), ColumnData::Float { .. }));
        let back = Batch::owned(chunk).to_rows();
        assert_eq!(format!("{r:?}"), format!("{back:?}"));
    }

    #[test]
    fn mixed_columns_keep_exact_variants() {
        // Int and Float compare equal under total_cmp but must round-trip
        // to their original variants.
        let r = vec![
            vec![Value::Int(7)],
            vec![Value::Float(7.0)],
            vec![Value::text("7")],
        ];
        let chunk = Chunk::from_rows(1, r.clone());
        assert!(matches!(chunk.column(0), ColumnData::Mixed(_)));
        let back = Batch::owned(chunk).to_rows();
        assert_eq!(format!("{r:?}"), format!("{back:?}"));
    }

    #[test]
    fn all_null_column_round_trips() {
        let r = vec![vec![Value::Null], vec![Value::Null]];
        let chunk = Chunk::from_rows(1, r.clone());
        let back = Batch::owned(chunk).to_rows();
        assert_eq!(format!("{r:?}"), format!("{back:?}"));
    }

    #[test]
    fn narrow_and_gather() {
        let chunk = Arc::new(Chunk::from_rows(3, rows()));
        let b = Batch::range(Arc::clone(&chunk), 0, 3);
        let sel = b.narrow(&[2, 0]);
        assert_eq!(sel.len(), 2);
        assert_eq!(sel.value_at(0, 0), Value::Int(3));
        assert_eq!(sel.value_at(1, 0), Value::Int(1));
        let col = sel.gather_column(2);
        assert_eq!(col.value_at(0), Value::Float(2.5));
        assert!(!col.is_null(1));
        let compacted = sel.compact();
        assert_eq!(compacted.len(), 2);
        assert_eq!(compacted.value_at(1, 1), Value::text("a"));
    }

    #[test]
    fn gather_opt_pads_nulls() {
        let chunk = Chunk::from_rows(3, rows());
        let col = chunk.column(0).gather_opt(&[Some(2), None, Some(0)]);
        assert_eq!(col.value_at(0), Value::Int(3));
        assert!(col.is_null(1));
        assert_eq!(col.value_at(2), Value::Int(1));
    }

    #[test]
    fn concat_splices_and_reinfers() {
        let a = ColumnData::from_values(vec![Value::Int(1), Value::Null]);
        let b = ColumnData::from_values(vec![Value::Int(2)]);
        let spliced = ColumnData::concat(vec![a, b]);
        assert!(matches!(spliced, ColumnData::Int { .. }));
        assert_eq!(spliced.len(), 3);
        assert_eq!(spliced.value_at(2), Value::Int(2));
        // all-null (Int repr) next to Float must re-infer as Float
        let nulls = ColumnData::from_values(vec![Value::Null]);
        let floats = ColumnData::from_values(vec![Value::Float(1.5)]);
        let merged = ColumnData::concat(vec![nulls, floats]);
        assert!(matches!(merged, ColumnData::Float { .. }));
        assert!(merged.is_null(0));
        assert_eq!(merged.value_at(1), Value::Float(1.5));
    }

    #[test]
    fn append_rows_equals_from_rows_variant_for_variant() {
        // Column 0: an Int column receiving a Float turns Mixed.
        // Column 1: an all-NULL column takes the type of its first value.
        // Column 2: Text stays Text through NULLs (a NULL-only part
        // included), then turns Mixed.
        let rows: Vec<Row> = vec![
            vec![Value::Int(1), Value::Null, Value::text("a")],
            vec![Value::Null, Value::Null, Value::Null],
            vec![Value::Null, Value::Null, Value::Null],
            vec![Value::Float(2.5), Value::Float(0.5), Value::text("b")],
            vec![Value::Int(3), Value::Null, Value::text("c")],
            vec![Value::text("x"), Value::Int(4), Value::Int(5)],
            vec![Value::Null, Value::Float(1.0), Value::Null],
        ];
        for part in 1..=3 {
            let mut grown = Chunk::from_rows(3, Vec::<Row>::new());
            let mut n = 0;
            for rows_part in rows.chunks(part) {
                grown.append_rows(rows_part);
                n += rows_part.len();
                let rebuilt = Chunk::from_rows(3, rows[..n].to_vec());
                assert_eq!(
                    format!("{grown:?}"),
                    format!("{rebuilt:?}"),
                    "after {n} rows appended {part} at a time"
                );
            }
            assert!(matches!(grown.column(0), ColumnData::Mixed(_)));
            assert!(matches!(grown.column(1), ColumnData::Mixed(_)));
            assert!(matches!(grown.column(2), ColumnData::Mixed(_)));
        }
    }

    #[test]
    fn concat_batches_reuses_contiguous_scan_shape() {
        let chunk = Arc::new(Chunk::from_rows(3, rows()));
        let parts = vec![
            Batch::range(Arc::clone(&chunk), 0, 2),
            Batch::range(Arc::clone(&chunk), 2, 3),
        ];
        let merged = concat_batches_chunk(&parts, 3);
        assert!(Arc::ptr_eq(&merged, &chunk));
        // non-contiguous selections copy
        let sel = vec![Batch::select(Arc::clone(&chunk), vec![2, 0])];
        let copied = concat_batches_chunk(&sel, 3);
        assert_eq!(copied.len(), 2);
        assert_eq!(copied.value_at(0, 0), Value::Int(3));
    }

    #[test]
    fn slice_local_on_range_and_ids() {
        let chunk = Arc::new(Chunk::from_rows(3, rows()));
        let r = Batch::range(Arc::clone(&chunk), 0, 3).slice_local(1, 3);
        assert_eq!(r.len(), 2);
        assert_eq!(r.value_at(1, 0), Value::Int(3));
        let s = Batch::select(Arc::clone(&chunk), vec![2, 1, 0]).slice_local(0, 2);
        assert_eq!(s.len(), 2);
        assert_eq!(s.value_at(0, 0), Value::Int(3));
    }

    #[test]
    fn project_shares_columns_and_keeps_the_length() {
        let chunk = Chunk::from_rows(3, rows());
        let view = chunk.project(&[2, 0]);
        assert_eq!((view.width(), view.len()), (2, 3));
        assert!(Arc::ptr_eq(&view.columns()[0], &chunk.columns()[2]));
        assert_eq!(view.row(2), vec![Value::Float(2.5), Value::Int(3)]);
        // No columns, same rows.
        let none = Arc::new(chunk.project(&[]));
        assert_eq!((none.width(), none.len()), (0, 3));
        let empty_rows = vec![Row::new(); 3];
        assert_eq!(Batch::range(Arc::clone(&none), 0, 3).to_rows(), empty_rows);
        let copied = concat_batches_chunk(&[Batch::select(none, vec![2, 0, 1])], 0);
        assert_eq!(copied.len(), 3);
    }

    #[test]
    fn append_rows_copies_only_the_columns_a_view_holds() {
        let mut chunk = Chunk::from_rows(3, rows());
        let before: Vec<_> = chunk.columns().iter().map(Arc::as_ptr).collect();
        let view = chunk.project(&[1]);
        chunk.append_rows(&[vec![Value::Int(4), Value::text("d"), Value::Float(1.0)]]);
        let after: Vec<_> = chunk.columns().iter().map(Arc::as_ptr).collect();
        assert_eq!((after[0], after[2]), (before[0], before[2]));
        assert_ne!(after[1], before[1]);
        assert_eq!((view.len(), chunk.len()), (3, 4));
        assert_eq!(chunk.value_at(3, 1), Value::text("d"));
    }

    #[test]
    fn text_at_is_the_cells_text() {
        let values = vec![
            Value::Int(-7),
            Value::Null,
            Value::Float(-0.0),
            Value::Float(f64::NAN),
            Value::Float(1e21),
            Value::text("x y"),
        ];
        for column in values.iter().map(|v| vec![v.clone(), Value::Null]) {
            let data = ColumnData::from_values(column.clone());
            for (i, v) in column.iter().enumerate() {
                assert_eq!(data.text_at(i), v.to_string());
                let mut out = String::from("> ");
                data.push_text_at(i, &mut out);
                assert_eq!(out, format!("> {v}"));
            }
        }
        let mixed = ColumnData::from_values(values.clone());
        for (i, v) in values.iter().enumerate() {
            assert_eq!(mixed.text_at(i), v.to_string());
        }
    }

    #[test]
    fn total_cmp_at_is_value_total_cmp() {
        let columns = [
            vec![Value::Int(2), Value::Null, Value::Int(-1), Value::Int(2)],
            vec![
                Value::Float(f64::NAN),
                Value::Float(-0.0),
                Value::Null,
                Value::Float(0.0),
                Value::Float(-1.5),
            ],
            vec![
                Value::text("b"),
                Value::Null,
                Value::text("a"),
                Value::text(""),
            ],
            vec![
                Value::Int(7),
                Value::Float(7.0),
                Value::text("7"),
                Value::Null,
                Value::Float(f64::NAN),
            ],
        ];
        for values in columns {
            let column = ColumnData::from_values(values.clone());
            for a in 0..values.len() {
                for b in 0..values.len() {
                    assert_eq!(
                        column.total_cmp_at(a, b),
                        values[a].total_cmp(&values[b]),
                        "{:?} vs {:?}",
                        values[a],
                        values[b]
                    );
                }
            }
        }
    }

    #[test]
    fn broadcast_matches_literal() {
        let c = ColumnData::broadcast(&Value::text("x"), 2);
        assert_eq!(c.value_at(0), Value::text("x"));
        let n = ColumnData::broadcast(&Value::Null, 2);
        assert!(n.is_null(1));
    }
}
