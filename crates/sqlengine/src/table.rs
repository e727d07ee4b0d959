//! Heap tables with optional secondary indexes.

use crate::chunk::Chunk;
use crate::error::{SqlError, SqlResult};
use crate::index::{BTreeIndex, HashIndex};
use crate::schema::{Row, Schema};
use crate::value::Value;
use std::sync::{Arc, OnceLock};

/// Which physical structure backs an index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexKind {
    /// Ordered B+-tree; supports equality and range probes.
    BTree,
    /// Hash map; equality probes only.
    Hash,
}

/// An index attached to a table.
#[derive(Debug, Clone)]
pub struct TableIndex {
    /// Index name (unique per table).
    pub name: String,
    /// The indexed column's position.
    pub column: usize,
    /// Reject duplicate keys on insert?
    pub unique: bool,
    storage: IndexStorage,
}

#[derive(Debug, Clone)]
enum IndexStorage {
    BTree(BTreeIndex),
    Hash(HashIndex),
}

impl TableIndex {
    /// The storage kind.
    pub fn kind(&self) -> IndexKind {
        match self.storage {
            IndexStorage::BTree(_) => IndexKind::BTree,
            IndexStorage::Hash(_) => IndexKind::Hash,
        }
    }

    /// Row ids holding exactly `key`.
    pub fn probe(&self, key: &Value) -> Vec<usize> {
        match &self.storage {
            IndexStorage::BTree(b) => b.get(key),
            IndexStorage::Hash(h) => h.get(key).to_vec(),
        }
    }

    /// Ordered range probe; `None` for hash indexes.
    pub fn probe_range(
        &self,
        low: std::ops::Bound<&Value>,
        high: std::ops::Bound<&Value>,
    ) -> Option<Vec<usize>> {
        match &self.storage {
            IndexStorage::BTree(b) => Some(b.range(low, high)),
            IndexStorage::Hash(_) => None,
        }
    }
}

/// An in-memory table: a schema plus a row heap.
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    schema: Schema,
    rows: Vec<Row>,
    indexes: Vec<TableIndex>,
    /// Lazily built columnar image of `rows` for the executor's scans.
    /// An insert appends to it when nothing else holds it; every other
    /// mutation drops it. Cloning the table clones the Arc, which stays
    /// valid because the rows are cloned identically.
    columnar: OnceLock<Arc<Chunk>>,
}

impl Table {
    /// Create an empty table.
    pub fn new(name: impl Into<String>, schema: Schema) -> Table {
        Table {
            name: name.into(),
            schema,
            rows: Vec::new(),
            indexes: Vec::new(),
            columnar: OnceLock::new(),
        }
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// All rows, in insertion order.
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// A single row by id.
    pub fn row(&self, id: usize) -> &Row {
        &self.rows[id]
    }

    /// The columnar image of this table, built on first use and shared
    /// (zero-copy) with every scan; see the field for what mutations do
    /// to it.
    pub fn columnar(&self) -> Arc<Chunk> {
        Arc::clone(self.columnar.get_or_init(|| {
            Arc::new(Chunk::from_rows(
                self.schema.len(),
                self.rows.iter().map(|r| r.iter().cloned()),
            ))
        }))
    }

    /// Validate, coerce, and append a row; maintains indexes.
    pub fn insert(&mut self, row: Row) -> SqlResult<()> {
        let row = self.schema.check_row(&row)?;
        let id = self.rows.len();
        for idx in &self.indexes {
            let key = &row[idx.column];
            if idx.unique && !idx.probe(key).is_empty() {
                return Err(SqlError::Catalog(format!(
                    "UNIQUE constraint failed: index {} on {}",
                    idx.name, self.name
                )));
            }
        }
        for idx in &mut self.indexes {
            let key = row[idx.column].clone();
            match &mut idx.storage {
                IndexStorage::BTree(b) => b.insert(key, id),
                IndexStorage::Hash(h) => h.insert(key, id),
            }
        }
        // Extend the image in place when it is built and this table is
        // its only holder (a cloned table shares it); rebuilding it costs
        // a pass over every row, appending costs one row.
        match self.columnar.get_mut().and_then(Arc::get_mut) {
            Some(image) => image.push_row(row.iter().cloned()),
            None => self.columnar = OnceLock::new(),
        }
        self.rows.push(row);
        Ok(())
    }

    /// Bulk insert; stops at the first failing row.
    pub fn insert_all(&mut self, rows: impl IntoIterator<Item = Row>) -> SqlResult<usize> {
        let mut n = 0;
        for row in rows {
            self.insert(row)?;
            n += 1;
        }
        Ok(n)
    }

    /// Delete rows matching the predicate; returns the number removed.
    /// Row ids are compacted, so all indexes are rebuilt afterwards.
    pub fn delete_where(
        &mut self,
        mut pred: impl FnMut(&Row) -> SqlResult<bool>,
    ) -> SqlResult<usize> {
        let mut kept = Vec::with_capacity(self.rows.len());
        let mut removed = 0;
        for row in self.rows.drain(..) {
            if pred(&row)? {
                removed += 1;
            } else {
                kept.push(row);
            }
        }
        self.rows = kept;
        self.columnar = OnceLock::new();
        self.rebuild_indexes();
        Ok(removed)
    }

    /// Update rows in place via the supplied function; returns the number
    /// changed. Indexes are rebuilt afterwards.
    pub fn update_where(
        &mut self,
        mut pred: impl FnMut(&Row) -> SqlResult<bool>,
        mut apply: impl FnMut(&Row) -> SqlResult<Row>,
    ) -> SqlResult<usize> {
        let mut changed = 0;
        for i in 0..self.rows.len() {
            if pred(&self.rows[i])? {
                let new_row = apply(&self.rows[i])?;
                self.rows[i] = self.schema.check_row(&new_row)?;
                changed += 1;
            }
        }
        if changed > 0 {
            self.columnar = OnceLock::new();
            self.rebuild_indexes();
        }
        Ok(changed)
    }

    /// Create an index over `column`. Fails on duplicate names, unknown
    /// columns, or a unique index over data that already has duplicates.
    pub fn create_index(
        &mut self,
        name: impl Into<String>,
        column_name: &str,
        kind: IndexKind,
        unique: bool,
    ) -> SqlResult<()> {
        let name = name.into();
        if self.indexes.iter().any(|i| i.name == name) {
            return Err(SqlError::Catalog(format!("index {name} already exists")));
        }
        let column = self.schema.index_of(column_name).ok_or_else(|| {
            SqlError::Binding(format!("no column {column_name:?} in table {}", self.name))
        })?;
        let mut idx = TableIndex {
            name,
            column,
            unique,
            storage: match kind {
                IndexKind::BTree => IndexStorage::BTree(BTreeIndex::new()),
                IndexKind::Hash => IndexStorage::Hash(HashIndex::new()),
            },
        };
        for (id, row) in self.rows.iter().enumerate() {
            let key = row[column].clone();
            if unique && !idx.probe(&key).is_empty() {
                return Err(SqlError::Catalog(format!(
                    "cannot create unique index {}: duplicate value {}",
                    idx.name,
                    key.to_sql_literal()
                )));
            }
            match &mut idx.storage {
                IndexStorage::BTree(b) => b.insert(key, id),
                IndexStorage::Hash(h) => h.insert(key, id),
            }
        }
        self.indexes.push(idx);
        Ok(())
    }

    /// The indexes attached to this table.
    pub fn indexes(&self) -> &[TableIndex] {
        &self.indexes
    }

    /// Find an index over the given column position, preferring B-trees
    /// (they answer both equality and range probes).
    pub fn index_on(&self, column: usize) -> Option<&TableIndex> {
        self.indexes
            .iter()
            .filter(|i| i.column == column)
            .max_by_key(|i| matches!(i.kind(), IndexKind::BTree) as u8)
    }

    fn rebuild_indexes(&mut self) {
        for idx in &mut self.indexes {
            match &mut idx.storage {
                IndexStorage::BTree(b) => *b = BTreeIndex::new(),
                IndexStorage::Hash(h) => *h = HashIndex::new(),
            }
            for (id, row) in self.rows.iter().enumerate() {
                let key = row[idx.column].clone();
                match &mut idx.storage {
                    IndexStorage::BTree(b) => b.insert(key, id),
                    IndexStorage::Hash(h) => h.insert(key, id),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, DataType};

    fn table() -> Table {
        let schema = Schema::new(vec![
            Column::new("id", DataType::Integer).primary_key(),
            Column::new("city", DataType::Text),
            Column::new("score", DataType::Real),
        ])
        .unwrap();
        Table::new("t", schema)
    }

    #[test]
    fn insert_validates_and_coerces() {
        let mut t = table();
        t.insert(vec![Value::text("1"), Value::text("SF"), Value::Int(10)])
            .unwrap();
        assert_eq!(
            t.row(0),
            &vec![Value::Int(1), Value::text("SF"), Value::Float(10.0)]
        );
        assert!(t
            .insert(vec![Value::Null, Value::Null, Value::Null])
            .is_err());
    }

    #[test]
    fn index_maintained_on_insert() {
        let mut t = table();
        t.create_index("idx_city", "city", IndexKind::Hash, false)
            .unwrap();
        for i in 0..10 {
            t.insert(vec![
                Value::Int(i),
                Value::text(if i % 2 == 0 { "SF" } else { "LA" }),
                Value::Float(i as f64),
            ])
            .unwrap();
        }
        let idx = t.index_on(1).unwrap();
        assert_eq!(idx.probe(&Value::text("SF")).len(), 5);
        assert_eq!(idx.probe(&Value::text("NYC")).len(), 0);
    }

    #[test]
    fn unique_index_rejects_duplicates() {
        let mut t = table();
        t.create_index("pk", "id", IndexKind::BTree, true).unwrap();
        t.insert(vec![Value::Int(1), Value::text("a"), Value::Null])
            .unwrap();
        let err = t
            .insert(vec![Value::Int(1), Value::text("b"), Value::Null])
            .unwrap_err();
        assert!(err.message().contains("UNIQUE"));
    }

    #[test]
    fn unique_index_creation_rejects_existing_duplicates() {
        let mut t = table();
        t.insert(vec![Value::Int(1), Value::text("a"), Value::Null])
            .unwrap();
        t.insert(vec![Value::Int(2), Value::text("a"), Value::Null])
            .unwrap();
        assert!(t
            .create_index("u_city", "city", IndexKind::Hash, true)
            .is_err());
    }

    #[test]
    fn delete_rebuilds_indexes() {
        let mut t = table();
        t.create_index("idx_id", "id", IndexKind::BTree, false)
            .unwrap();
        for i in 0..10 {
            t.insert(vec![Value::Int(i), Value::text("x"), Value::Null])
                .unwrap();
        }
        let removed = t.delete_where(|r| Ok(r[0] < Value::Int(5))).unwrap();
        assert_eq!(removed, 5);
        assert_eq!(t.len(), 5);
        // Probe for a surviving key: row ids must be valid after compaction.
        let idx = t.index_on(0).unwrap();
        let rows = idx.probe(&Value::Int(7));
        assert_eq!(rows.len(), 1);
        assert_eq!(t.row(rows[0])[0], Value::Int(7));
    }

    #[test]
    fn update_applies_schema_checks() {
        let mut t = table();
        t.insert(vec![Value::Int(1), Value::text("a"), Value::Float(1.0)])
            .unwrap();
        let n = t
            .update_where(
                |_| Ok(true),
                |r| {
                    let mut r = r.clone();
                    r[2] = Value::Int(9); // coerced to Real by schema
                    Ok(r)
                },
            )
            .unwrap();
        assert_eq!(n, 1);
        assert_eq!(t.row(0)[2], Value::Float(9.0));
    }

    /// The image an insert extends is the image a rebuild would produce.
    fn assert_image_is_heap(t: &Table) {
        let rebuilt =
            Chunk::from_rows(t.schema().len(), t.rows().iter().map(|r| r.iter().cloned()));
        assert_eq!(format!("{:?}", t.columnar()), format!("{rebuilt:?}"));
    }

    #[test]
    fn insert_extends_a_built_image() {
        let mut t = table();
        // `score` starts all-NULL (stored as an Int column) and must
        // turn Float with its first value.
        t.insert(vec![Value::Int(1), Value::text("SF"), Value::Null])
            .unwrap();
        let built = Arc::as_ptr(&t.columnar());
        for i in 2..6 {
            let score = if i % 2 == 0 {
                Value::Float(i as f64)
            } else {
                Value::Null
            };
            t.insert(vec![Value::Int(i), Value::Null, score]).unwrap();
            assert_image_is_heap(&t);
        }
        assert_eq!(
            Arc::as_ptr(&t.columnar()),
            built,
            "appended in place, not rebuilt"
        );
        assert!(matches!(
            t.columnar().column(2),
            crate::chunk::ColumnData::Float { .. }
        ));

        // An image someone else holds is left to them and dropped here.
        let held = t.columnar();
        t.insert(vec![Value::Int(9), Value::text("LA"), Value::Null])
            .unwrap();
        assert_eq!(held.len(), 5);
        assert_image_is_heap(&t);
        drop(held);

        // Deletes and updates still drop it.
        t.delete_where(|r| Ok(r[0] == Value::Int(2))).unwrap();
        assert_image_is_heap(&t);
        t.update_where(|_| Ok(true), |r| Ok(r.clone())).unwrap();
        assert_image_is_heap(&t);
    }

    #[test]
    fn index_on_prefers_btree() {
        let mut t = table();
        t.create_index("h", "id", IndexKind::Hash, false).unwrap();
        t.create_index("b", "id", IndexKind::BTree, false).unwrap();
        assert_eq!(t.index_on(0).unwrap().kind(), IndexKind::BTree);
    }
}
