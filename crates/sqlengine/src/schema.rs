//! Column types, schemas, and rows.

use crate::error::{SqlError, SqlResult};
use crate::value::Value;
use std::fmt;

/// Declared column type. Storage is dynamically typed (SQLite-style);
/// declared types act as affinities used by `CAST` and the CSV loader.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataType {
    /// 64-bit signed integer affinity.
    Integer,
    /// 64-bit float affinity.
    Real,
    /// UTF-8 text affinity.
    Text,
}

impl DataType {
    /// Parse a declared type name (case-insensitive, SQLite-ish aliases).
    pub fn parse(name: &str) -> SqlResult<DataType> {
        match name.to_ascii_uppercase().as_str() {
            "INT" | "INTEGER" | "BIGINT" | "SMALLINT" | "TINYINT" | "BOOLEAN" | "BOOL" => {
                Ok(DataType::Integer)
            }
            "REAL" | "FLOAT" | "DOUBLE" | "NUMERIC" | "DECIMAL" => Ok(DataType::Real),
            "TEXT" | "VARCHAR" | "CHAR" | "STRING" | "CLOB" | "DATE" | "DATETIME" => {
                Ok(DataType::Text)
            }
            other => Err(SqlError::Parse(format!("unknown type name {other:?}"))),
        }
    }

    /// Apply this affinity to a value (used by CAST and column coercion).
    /// A value that already has the affinity's type is returned as it is,
    /// so coercing a row moves its text instead of copying it.
    pub fn coerce(&self, v: Value) -> Value {
        match (self, v) {
            (_, Value::Null) => Value::Null,
            (DataType::Integer, Value::Float(f)) => Value::Int(f as i64),
            (DataType::Integer, Value::Text(s)) => s
                .trim()
                .parse::<i64>()
                .map(Value::Int)
                .or_else(|_| s.trim().parse::<f64>().map(|f| Value::Int(f as i64)))
                .unwrap_or(Value::Int(0)),
            (DataType::Real, Value::Int(i)) => Value::Float(i as f64),
            (DataType::Real, Value::Text(s)) => {
                Value::Float(s.trim().parse::<f64>().unwrap_or(0.0))
            }
            (DataType::Text, v @ Value::Text(_)) => v,
            (DataType::Text, v) => Value::Text(v.to_string()),
            (DataType::Integer, v @ Value::Int(_)) | (DataType::Real, v @ Value::Float(_)) => v,
        }
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataType::Integer => write!(f, "INTEGER"),
            DataType::Real => write!(f, "REAL"),
            DataType::Text => write!(f, "TEXT"),
        }
    }
}

/// A column definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    /// Column name as declared.
    pub name: String,
    /// Declared affinity.
    pub dtype: DataType,
    /// Whether NULLs are rejected on insert.
    pub not_null: bool,
    /// Whether this column is the (single-column) primary key.
    pub primary_key: bool,
}

impl Column {
    /// A plain nullable column.
    pub fn new(name: impl Into<String>, dtype: DataType) -> Self {
        Column {
            name: name.into(),
            dtype,
            not_null: false,
            primary_key: false,
        }
    }

    /// Builder: mark NOT NULL.
    pub fn not_null(mut self) -> Self {
        self.not_null = true;
        self
    }

    /// Builder: mark PRIMARY KEY (implies NOT NULL).
    pub fn primary_key(mut self) -> Self {
        self.primary_key = true;
        self.not_null = true;
        self
    }
}

/// An ordered list of columns.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schema {
    columns: Vec<Column>,
}

impl Schema {
    /// Build a schema from columns, rejecting duplicate names
    /// (case-insensitive, as in SQLite).
    pub fn new(columns: Vec<Column>) -> SqlResult<Schema> {
        for (i, c) in columns.iter().enumerate() {
            for other in &columns[i + 1..] {
                if c.name.eq_ignore_ascii_case(&other.name) {
                    return Err(SqlError::Catalog(format!(
                        "duplicate column name {:?}",
                        c.name
                    )));
                }
            }
        }
        Ok(Schema { columns })
    }

    /// The columns in declaration order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// True when the schema has no columns.
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// Index of a column by case-insensitive name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.columns
            .iter()
            .position(|c| c.name.eq_ignore_ascii_case(name))
    }

    /// Column at index.
    pub fn column(&self, idx: usize) -> &Column {
        &self.columns[idx]
    }

    /// Column names in order.
    pub fn names(&self) -> Vec<String> {
        self.columns.iter().map(|c| c.name.clone()).collect()
    }

    /// Validate and coerce a row against the schema: arity must match,
    /// NOT NULL enforced, declared affinities applied.
    pub fn check_row(&self, row: Vec<Value>) -> SqlResult<Vec<Value>> {
        if row.len() != self.columns.len() {
            return Err(SqlError::Catalog(format!(
                "row has {} values but table has {} columns",
                row.len(),
                self.columns.len()
            )));
        }
        let mut out = Vec::with_capacity(row.len());
        for (col, v) in self.columns.iter().zip(row) {
            if v.is_null() && col.not_null {
                return Err(SqlError::Catalog(format!(
                    "NOT NULL constraint failed: {}",
                    col.name
                )));
            }
            out.push(if v.is_null() {
                Value::Null
            } else {
                col.dtype.coerce(v)
            });
        }
        Ok(out)
    }
}

/// A row is a vector of values, one per schema column.
pub type Row = Vec<Value>;

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::new(vec![
            Column::new("id", DataType::Integer).primary_key(),
            Column::new("name", DataType::Text).not_null(),
            Column::new("score", DataType::Real),
        ])
        .unwrap()
    }

    #[test]
    fn duplicate_columns_rejected_case_insensitively() {
        let err = Schema::new(vec![
            Column::new("Name", DataType::Text),
            Column::new("name", DataType::Integer),
        ])
        .unwrap_err();
        assert_eq!(err.category(), "catalog");
    }

    #[test]
    fn index_of_is_case_insensitive() {
        let s = schema();
        assert_eq!(s.index_of("NAME"), Some(1));
        assert_eq!(s.index_of("missing"), None);
    }

    #[test]
    fn check_row_coerces_affinities() {
        let s = schema();
        let row = s
            .check_row(vec![Value::text("7"), Value::text("x"), Value::Int(3)])
            .unwrap();
        assert_eq!(
            row,
            vec![Value::Int(7), Value::text("x"), Value::Float(3.0)]
        );
    }

    #[test]
    fn check_row_enforces_not_null_and_arity() {
        let s = schema();
        assert!(s
            .check_row(vec![Value::Int(1), Value::Null, Value::Null])
            .is_err());
        assert!(s.check_row(vec![Value::Int(1)]).is_err());
        // score is nullable
        assert!(s
            .check_row(vec![Value::Int(1), Value::text("a"), Value::Null])
            .is_ok());
    }

    #[test]
    fn type_parsing_aliases() {
        assert_eq!(DataType::parse("varchar").unwrap(), DataType::Text);
        assert_eq!(DataType::parse("BIGINT").unwrap(), DataType::Integer);
        assert_eq!(DataType::parse("double").unwrap(), DataType::Real);
        assert!(DataType::parse("blobby").is_err());
    }

    #[test]
    fn cast_semantics() {
        assert_eq!(DataType::Integer.coerce(Value::Float(3.9)), Value::Int(3));
        assert_eq!(DataType::Text.coerce(Value::Int(12)), Value::text("12"));
        assert_eq!(DataType::Real.coerce(Value::text("bad")), Value::Float(0.0));
        assert_eq!(DataType::Integer.coerce(Value::Null), Value::Null);
    }
}
