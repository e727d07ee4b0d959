//! A small DataFrame: the host structure for semantic operators.
//!
//! Mirrors the pandas surface the LOTUS pipelines in the paper's
//! Appendix C are written against: column selection, filtering, sorting
//! and head — plus conversion from the SQL engine's result sets. The
//! semantic-plan runtime's exact kernels do not run here: its frames are
//! selections over the engine's columns (`tag_sql::SemFrame`), and it
//! builds a `DataFrame` only for the operators below.

use tag_sql::{ResultSet, SqlError, SqlResult, Value};

/// An ordered, named-column, row-major data frame.
#[derive(Debug, Clone, PartialEq)]
pub struct DataFrame {
    columns: Vec<String>,
    rows: Vec<Vec<Value>>,
}

impl DataFrame {
    /// Build from columns and rows; every row must match the width.
    pub fn new(columns: Vec<String>, rows: Vec<Vec<Value>>) -> SqlResult<DataFrame> {
        for (i, r) in rows.iter().enumerate() {
            if r.len() != columns.len() {
                return Err(SqlError::Catalog(format!(
                    "row {i} has {} values for {} columns",
                    r.len(),
                    columns.len()
                )));
            }
        }
        Ok(DataFrame { columns, rows })
    }

    /// An empty frame with the given columns.
    pub fn empty(columns: Vec<String>) -> DataFrame {
        DataFrame {
            columns,
            rows: Vec::new(),
        }
    }

    /// Build from a SQL result set.
    pub fn from_result(rs: ResultSet) -> DataFrame {
        DataFrame {
            columns: rs.columns,
            rows: rs.rows,
        }
    }

    /// Column names.
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// Rows.
    pub fn rows(&self) -> &[Vec<Value>] {
        &self.rows
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Index of a column (case-insensitive).
    pub fn column_index(&self, name: &str) -> SqlResult<usize> {
        self.columns
            .iter()
            .position(|c| c.eq_ignore_ascii_case(name))
            .ok_or_else(|| SqlError::Binding(format!("no such column: {name}")))
    }

    /// The values of one column.
    pub fn column(&self, name: &str) -> SqlResult<Vec<Value>> {
        let i = self.column_index(name)?;
        Ok(self.rows.iter().map(|r| r[i].clone()).collect())
    }

    /// Keep rows where `pred(row)` is true.
    pub fn filter(&self, mut pred: impl FnMut(&[Value]) -> bool) -> DataFrame {
        DataFrame {
            columns: self.columns.clone(),
            rows: self.rows.iter().filter(|r| pred(r)).cloned().collect(),
        }
    }

    /// Keep rows whose `column` value satisfies `pred`.
    pub fn filter_col(
        &self,
        column: &str,
        mut pred: impl FnMut(&Value) -> bool,
    ) -> SqlResult<DataFrame> {
        let i = self.column_index(column)?;
        Ok(self.filter(|r| pred(&r[i])))
    }

    /// Stable sort by one column.
    pub fn sort_by(&self, column: &str, descending: bool) -> SqlResult<DataFrame> {
        let i = self.column_index(column)?;
        let mut rows = self.rows.clone();
        rows.sort_by(|a, b| {
            let ord = a[i].total_cmp(&b[i]);
            if descending {
                ord.reverse()
            } else {
                ord
            }
        });
        Ok(DataFrame {
            columns: self.columns.clone(),
            rows,
        })
    }

    /// First `n` rows.
    pub fn head(&self, n: usize) -> DataFrame {
        DataFrame {
            columns: self.columns.clone(),
            rows: self.rows.iter().take(n).cloned().collect(),
        }
    }

    /// Project to a subset of columns.
    pub fn select(&self, columns: &[&str]) -> SqlResult<DataFrame> {
        let idxs: Vec<usize> = columns
            .iter()
            .map(|c| self.column_index(c))
            .collect::<SqlResult<_>>()?;
        Ok(DataFrame {
            columns: columns.iter().map(|c| (*c).to_owned()).collect(),
            rows: self
                .rows
                .iter()
                .map(|r| idxs.iter().map(|&i| r[i].clone()).collect())
                .collect(),
        })
    }

    /// Render each row as the `(column, value)` string pairs used for LM
    /// context ("data points").
    pub fn to_data_points(&self) -> Vec<Vec<(String, String)>> {
        self.rows
            .iter()
            .map(|r| {
                self.columns
                    .iter()
                    .zip(r)
                    .map(|(c, v)| (c.clone(), v.to_string()))
                    .collect()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn df() -> DataFrame {
        DataFrame::new(
            vec!["id".into(), "city".into(), "score".into()],
            vec![
                vec![Value::Int(1), Value::text("PA"), Value::Float(3.0)],
                vec![Value::Int(2), Value::text("SF"), Value::Float(1.0)],
                vec![Value::Int(3), Value::text("PA"), Value::Float(2.0)],
            ],
        )
        .unwrap()
    }

    #[test]
    fn construction_validates_width() {
        assert!(DataFrame::new(vec!["a".into()], vec![vec![]]).is_err());
    }

    #[test]
    fn filter_sort_head() {
        let d = df();
        let pa = d.filter_col("city", |v| v == &Value::text("PA")).unwrap();
        assert_eq!(pa.len(), 2);
        let sorted = d.sort_by("score", true).unwrap();
        assert_eq!(sorted.rows()[0][0], Value::Int(1));
        assert_eq!(sorted.head(1).len(), 1);
    }

    #[test]
    fn select_projects_in_the_listed_order() {
        let sel = df().select(&["score", "city"]).unwrap();
        assert_eq!(sel.columns(), &["score".to_string(), "city".to_string()]);
        assert_eq!(sel.rows()[1], vec![Value::Float(1.0), Value::text("SF")]);
    }

    #[test]
    fn data_points() {
        let pts = df().head(1).to_data_points();
        assert_eq!(pts[0][1], ("city".to_string(), "PA".to_string()));
    }

    #[test]
    fn missing_column_errors() {
        assert!(df().column("nope").is_err());
        assert!(df().sort_by("nope", false).is_err());
    }

    #[test]
    fn from_result_keeps_columns_and_rows() {
        let d = df();
        let rs = ResultSet::new(d.columns().to_vec(), d.rows().to_vec());
        assert_eq!(DataFrame::from_result(rs), d);
    }
}
