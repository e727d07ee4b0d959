//! Tables: rows stored as one columnar image, with optional secondary
//! indexes over it.

use crate::chunk::Chunk;
use crate::error::{SqlError, SqlResult};
use crate::index::{BTreeIndex, HashIndex};
use crate::schema::{Row, Schema};
use crate::value::Value;
use std::sync::Arc;

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

/// An in-memory table: a schema, its rows as one columnar image, and
/// optional indexes.
///
/// The image is the storage of record: scans share it (zero copy),
/// inserts append to it, and [`Table::rows`] / [`Table::row`] gather rows
/// out of it. Cloning a table shares the image; the first insert into
/// either clone copies what it appends to (copy-on-write), so neither
/// sees the other's rows.
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    schema: Schema,
    image: Arc<Chunk>,
    indexes: Vec<TableIndex>,
}

impl Table {
    /// Create an empty table.
    pub fn new(name: impl Into<String>, schema: Schema) -> Table {
        Table {
            name: name.into(),
            image: Arc::new(Chunk::empty(schema.len())),
            schema,
            indexes: Vec::new(),
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
        self.image.len()
    }

    /// True when the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.image.is_empty()
    }

    /// All rows, in insertion order, gathered out of the image.
    pub fn rows(&self) -> Vec<Row> {
        (0..self.len()).map(|id| self.image.row(id)).collect()
    }

    /// A single row by id, gathered out of the image.
    pub fn row(&self, id: usize) -> Row {
        self.image.row(id)
    }

    /// The table's columnar image, shared (zero-copy) with every scan.
    /// A holder keeps the rows it saw: a later insert copies the columns
    /// it shares before appending ([`Chunk::append_rows`]).
    pub fn columnar(&self) -> Arc<Chunk> {
        Arc::clone(&self.image)
    }

    /// Validate, coerce, and append a row; maintains indexes.
    pub fn insert(&mut self, row: Row) -> SqlResult<()> {
        self.insert_all([row]).map(drop)
    }

    /// Validate, coerce and append rows, maintaining indexes; stops at
    /// the first failing row, after appending the rows before it.
    ///
    /// The rows join the image in one step, each cell copied once, a
    /// column at a time ([`Chunk::append_rows`]). So a bulk load lays
    /// each column's text out in row order, in fresh memory, instead of
    /// keeping it wherever the caller allocated it between its own
    /// temporaries. Over `generate_bulk`'s 20,000 schools on a 2-core
    /// box, scans that read text (a GROUP BY key, a join's gathered text,
    /// `SELECT *`) ran 10–25% slower on an image made of the caller's
    /// strings.
    pub fn insert_all(&mut self, rows: impl IntoIterator<Item = Row>) -> SqlResult<usize> {
        let mut checked = Vec::new();
        let mut failure = None;
        for row in rows {
            match self.check_and_index(row, self.len() + checked.len()) {
                Ok(row) => checked.push(row),
                Err(e) => {
                    failure = Some(e);
                    break;
                }
            }
        }
        if !checked.is_empty() {
            Arc::make_mut(&mut self.image).append_rows(&checked);
        }
        failure.map_or(Ok(checked.len()), Err)
    }

    /// Validate and coerce `row`, and enter it into every index as row
    /// `id`; a UNIQUE violation leaves every index as it was.
    fn check_and_index(&mut self, row: Row, id: usize) -> SqlResult<Row> {
        let row = self.schema.check_row(row)?;
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
        Ok(row)
    }

    /// Delete rows matching the predicate; returns the number removed.
    /// Row ids are compacted: the image and every index are rebuilt.
    pub fn delete_where(
        &mut self,
        mut pred: impl FnMut(&Row) -> SqlResult<bool>,
    ) -> SqlResult<usize> {
        let mut kept = Vec::with_capacity(self.len());
        for row in self.rows() {
            if !pred(&row)? {
                kept.push(row);
            }
        }
        let removed = self.len() - kept.len();
        self.image = Arc::new(Chunk::from_rows(self.schema.len(), kept));
        self.rebuild_indexes();
        Ok(removed)
    }

    /// Update rows in place via the supplied function; returns the number
    /// changed. The image and the indexes are rebuilt afterwards.
    pub fn update_where(
        &mut self,
        mut pred: impl FnMut(&Row) -> SqlResult<bool>,
        mut apply: impl FnMut(&Row) -> SqlResult<Row>,
    ) -> SqlResult<usize> {
        let mut rows = self.rows();
        let mut changed = 0;
        for row in &mut rows {
            if pred(row)? {
                let new_row = apply(row)?;
                *row = self.schema.check_row(new_row)?;
                changed += 1;
            }
        }
        if changed > 0 {
            self.image = Arc::new(Chunk::from_rows(self.schema.len(), rows));
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
        let keys = self.image.column(column);
        for id in 0..self.len() {
            let key = keys.value_at(id);
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
            let keys = self.image.column(idx.column);
            for id in 0..self.image.len() {
                let key = keys.value_at(id);
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
            vec![Value::Int(1), Value::text("SF"), Value::Float(10.0)]
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

    /// The image is typed as `Chunk::from_rows` of its own rows would
    /// type it, variant for variant.
    fn assert_image_is_typed_like_its_rows(t: &Table) {
        let rebuilt = Chunk::from_rows(t.schema().len(), t.rows());
        assert_eq!(format!("{:?}", t.columnar()), format!("{rebuilt:?}"));
    }

    #[test]
    fn inserts_append_to_the_image_in_place() {
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
            assert_image_is_typed_like_its_rows(&t);
        }
        assert_eq!(Arc::as_ptr(&t.columnar()), built, "appended in place");
        assert!(matches!(
            t.columnar().column(2),
            crate::chunk::ColumnData::Float { .. }
        ));

        // A holder keeps the rows it saw; the table copies what it
        // appends to.
        let held = t.columnar();
        t.insert(vec![Value::Int(9), Value::text("LA"), Value::Null])
            .unwrap();
        assert_eq!((held.len(), t.len()), (5, 6));
        assert_eq!(t.row(5)[1], Value::text("LA"));
        assert_image_is_typed_like_its_rows(&t);
        drop(held);

        // Deletes and updates rebuild it, and the indexes with it.
        t.create_index("by_id", "id", IndexKind::BTree, true)
            .unwrap();
        t.delete_where(|r| Ok(r[0] == Value::Int(2))).unwrap();
        assert_image_is_typed_like_its_rows(&t);
        t.update_where(|_| Ok(true), |r| Ok(r.clone())).unwrap();
        assert_image_is_typed_like_its_rows(&t);
        let id = t.index_on(0).unwrap().probe(&Value::Int(9));
        assert_eq!(t.row(id[0])[1], Value::text("LA"));
        assert_eq!(t.len(), 5);
    }

    #[test]
    fn index_on_prefers_btree() {
        let mut t = table();
        t.create_index("h", "id", IndexKind::Hash, false).unwrap();
        t.create_index("b", "id", IndexKind::BTree, false).unwrap();
        assert_eq!(t.index_on(0).unwrap().kind(), IndexKind::BTree);
    }
}
