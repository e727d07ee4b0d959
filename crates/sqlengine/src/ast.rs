//! Abstract syntax tree for the supported SQL dialect.

use crate::schema::DataType;
use crate::value::Value;
use std::fmt;

/// A parsed SQL statement.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // variant fields are self-describing
pub enum Statement {
    /// `SELECT ...`
    Select(SelectStmt),
    /// `SELECT ... UNION [ALL] SELECT ... [...]` (top-level only).
    CompoundSelect {
        first: SelectStmt,
        /// Each arm: (is UNION ALL, the select).
        rest: Vec<(bool, SelectStmt)>,
    },
    /// `CREATE TABLE name (col type [constraints], ...)`
    CreateTable(CreateTableStmt),
    /// `INSERT INTO name [(cols)] VALUES (...), ...`
    Insert(InsertStmt),
    /// `DROP TABLE [IF EXISTS] name`
    DropTable { name: String, if_exists: bool },
    /// `DELETE FROM name [WHERE expr]`
    Delete {
        table: String,
        predicate: Option<Expr>,
    },
    /// `UPDATE name SET col = expr, ... [WHERE expr]`
    Update {
        table: String,
        assignments: Vec<(String, Expr)>,
        predicate: Option<Expr>,
    },
    /// `CREATE INDEX name ON table (col)`
    CreateIndex {
        name: String,
        table: String,
        column: String,
        unique: bool,
    },
}

/// A full SELECT statement.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectStmt {
    /// `SELECT DISTINCT`?
    pub distinct: bool,
    /// Select list items.
    pub items: Vec<SelectItem>,
    /// FROM clause; `None` for table-less selects like `SELECT 1`.
    pub from: Option<TableRef>,
    /// Joins applied after `from`, in order.
    pub joins: Vec<Join>,
    /// WHERE predicate.
    pub predicate: Option<Expr>,
    /// GROUP BY expressions.
    pub group_by: Vec<Expr>,
    /// HAVING predicate.
    pub having: Option<Expr>,
    /// ORDER BY keys.
    pub order_by: Vec<OrderKey>,
    /// LIMIT count.
    pub limit: Option<u64>,
    /// OFFSET count.
    pub offset: Option<u64>,
}

/// One item of the select list.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // variant fields are self-describing
pub enum SelectItem {
    /// `*`
    Wildcard,
    /// `alias.*`
    QualifiedWildcard(String),
    /// `expr [AS alias]`
    Expr { expr: Expr, alias: Option<String> },
}

/// A base table reference or a parenthesised subquery in FROM.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // variant fields are self-describing
pub enum TableRef {
    /// `name [AS alias]`
    Table { name: String, alias: Option<String> },
    /// `(SELECT ...) [AS] alias`; without an alias its columns resolve
    /// unqualified only, as in SQLite.
    Subquery {
        query: Box<SelectStmt>,
        alias: Option<String>,
    },
}

impl TableRef {
    /// The name this relation is visible as in scopes (`None` for an
    /// unaliased derived table).
    pub fn visible_name(&self) -> Option<&str> {
        match self {
            TableRef::Table { name, alias } => Some(alias.as_deref().unwrap_or(name)),
            TableRef::Subquery { alias, .. } => alias.as_deref(),
        }
    }
}

/// Join type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)] // variant fields are self-describing
pub enum JoinKind {
    Inner,
    Left,
    Cross,
}

impl fmt::Display for JoinKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JoinKind::Inner => write!(f, "INNER"),
            JoinKind::Left => write!(f, "LEFT"),
            JoinKind::Cross => write!(f, "CROSS"),
        }
    }
}

/// One JOIN clause.
#[derive(Debug, Clone, PartialEq)]
pub struct Join {
    /// Join type.
    pub kind: JoinKind,
    /// The joined relation.
    pub table: TableRef,
    /// ON condition; absent for CROSS joins.
    pub on: Option<Expr>,
}

/// ORDER BY key.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderKey {
    /// The key expression.
    pub expr: Expr,
    /// Sort descending?
    pub descending: bool,
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)] // variant fields are self-describing
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    Concat,
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
    And,
    Or,
    Like,
    NotLike,
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Rem => "%",
            BinOp::Concat => "||",
            BinOp::Eq => "=",
            BinOp::NotEq => "!=",
            BinOp::Lt => "<",
            BinOp::LtEq => "<=",
            BinOp::Gt => ">",
            BinOp::GtEq => ">=",
            BinOp::And => "AND",
            BinOp::Or => "OR",
            BinOp::Like => "LIKE",
            BinOp::NotLike => "NOT LIKE",
        };
        write!(f, "{s}")
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)] // variant fields are self-describing
pub enum UnOp {
    Neg,
    Not,
}

/// An expression.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // variant fields are self-describing
pub enum Expr {
    /// Literal value.
    Literal(Value),
    /// Possibly-qualified column reference: `[table.]column`.
    Column {
        qualifier: Option<String>,
        name: String,
    },
    /// Binary operation.
    Binary {
        op: BinOp,
        lhs: Box<Expr>,
        rhs: Box<Expr>,
    },
    /// Unary operation.
    Unary { op: UnOp, operand: Box<Expr> },
    /// `expr IS NULL` / `expr IS NOT NULL`.
    IsNull { expr: Box<Expr>, negated: bool },
    /// `expr [NOT] BETWEEN low AND high`.
    Between {
        expr: Box<Expr>,
        low: Box<Expr>,
        high: Box<Expr>,
        negated: bool,
    },
    /// `expr [NOT] IN (list)`.
    InList {
        expr: Box<Expr>,
        list: Vec<Expr>,
        negated: bool,
    },
    /// `expr [NOT] IN (SELECT ...)`.
    InSubquery {
        expr: Box<Expr>,
        query: Box<SelectStmt>,
        negated: bool,
    },
    /// Scalar subquery `(SELECT ...)`.
    ScalarSubquery(Box<SelectStmt>),
    /// `EXISTS (SELECT ...)`.
    Exists {
        query: Box<SelectStmt>,
        negated: bool,
    },
    /// Function call, including aggregate functions and LM UDFs.
    Function {
        name: String,
        args: Vec<Expr>,
        distinct: bool,
    },
    /// `COUNT(*)` — kept distinct from `Function` since it has no argument.
    CountStar,
    /// `CASE [operand] WHEN .. THEN .. [ELSE ..] END`.
    Case {
        operand: Option<Box<Expr>>,
        branches: Vec<(Expr, Expr)>,
        else_branch: Option<Box<Expr>>,
    },
    /// `CAST(expr AS type)`.
    Cast { expr: Box<Expr>, dtype: DataType },
}

impl Expr {
    /// Convenience constructor for a bare column.
    pub fn col(name: impl Into<String>) -> Expr {
        Expr::Column {
            qualifier: None,
            name: name.into(),
        }
    }

    /// Convenience constructor for a qualified column.
    pub fn qcol(qualifier: impl Into<String>, name: impl Into<String>) -> Expr {
        Expr::Column {
            qualifier: Some(qualifier.into()),
            name: name.into(),
        }
    }

    /// Convenience constructor for a literal.
    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Literal(v.into())
    }

    /// Convenience constructor for a binary expression.
    pub fn binary(op: BinOp, lhs: Expr, rhs: Expr) -> Expr {
        Expr::Binary {
            op,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
        }
    }

    /// A short display name used for unaliased select-list columns.
    pub fn display_name(&self) -> String {
        match self {
            Expr::Column { name, .. } => name.clone(),
            Expr::Literal(v) => v.to_sql_literal(),
            Expr::Function { name, .. } => {
                format!("{}(...)", name.to_ascii_lowercase())
            }
            Expr::CountStar => "count(*)".into(),
            Expr::Cast { expr, .. } => expr.display_name(),
            _ => "expr".into(),
        }
    }

    /// Does this expression (transitively) contain an aggregate call?
    /// A subquery's own aggregates do not count.
    pub fn contains_aggregate(&self) -> bool {
        match self {
            Expr::CountStar => true,
            Expr::Function { name, .. } if is_aggregate_name(name) => true,
            _ => self.operands().into_iter().any(Expr::contains_aggregate),
        }
    }

    /// The expression's direct sub-expressions in source order. A
    /// subquery's own expressions are not among them.
    pub fn operands(&self) -> Vec<&Expr> {
        match self {
            Expr::Binary { lhs, rhs, .. } => vec![lhs, rhs],
            Expr::Unary { operand: e, .. }
            | Expr::IsNull { expr: e, .. }
            | Expr::InSubquery { expr: e, .. }
            | Expr::Cast { expr: e, .. } => vec![e],
            Expr::Between {
                expr, low, high, ..
            } => vec![expr, low, high],
            Expr::InList { expr, list, .. } => std::iter::once(&**expr).chain(list).collect(),
            Expr::Function { args, .. } => args.iter().collect(),
            Expr::Case {
                operand,
                branches,
                else_branch,
            } => operand
                .as_deref()
                .into_iter()
                .chain(branches.iter().flat_map(|(w, t)| [w, t]))
                .chain(else_branch.as_deref())
                .collect(),
            Expr::Literal(_)
            | Expr::Column { .. }
            | Expr::CountStar
            | Expr::ScalarSubquery(_)
            | Expr::Exists { .. } => Vec::new(),
        }
    }
}

/// Is `name` one of the built-in aggregate functions?
pub fn is_aggregate_name(name: &str) -> bool {
    matches!(
        name.to_ascii_uppercase().as_str(),
        "COUNT" | "SUM" | "AVG" | "MIN" | "MAX" | "GROUP_CONCAT" | "TOTAL"
    )
}

/// CREATE TABLE statement.
#[derive(Debug, Clone, PartialEq)]
pub struct CreateTableStmt {
    /// New table name.
    pub name: String,
    /// `IF NOT EXISTS` given?
    pub if_not_exists: bool,
    /// Column definitions.
    pub columns: Vec<ColumnDef>,
}

/// One column definition in CREATE TABLE.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnDef {
    /// Column name.
    pub name: String,
    /// Declared affinity.
    pub dtype: DataType,
    /// NOT NULL constraint?
    pub not_null: bool,
    /// PRIMARY KEY constraint?
    pub primary_key: bool,
}

/// INSERT statement.
#[derive(Debug, Clone, PartialEq)]
pub struct InsertStmt {
    /// Target table.
    pub table: String,
    /// Optional explicit column list.
    pub columns: Option<Vec<String>>,
    /// Rows of value expressions.
    pub rows: Vec<Vec<Expr>>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregate_detection_descends() {
        let e = Expr::binary(
            BinOp::Add,
            Expr::lit(1),
            Expr::Function {
                name: "SUM".into(),
                args: vec![Expr::col("x")],
                distinct: false,
            },
        );
        assert!(e.contains_aggregate());
        assert!(!Expr::col("x").contains_aggregate());
        assert!(Expr::CountStar.contains_aggregate());
    }

    #[test]
    fn aggregate_names() {
        assert!(is_aggregate_name("count"));
        assert!(is_aggregate_name("AVG"));
        assert!(!is_aggregate_name("lower"));
    }

    #[test]
    fn display_names() {
        assert_eq!(Expr::col("x").display_name(), "x");
        assert_eq!(Expr::CountStar.display_name(), "count(*)");
        assert_eq!(Expr::lit(3).display_name(), "3");
    }

    #[test]
    fn table_ref_visible_name() {
        let t = TableRef::Table {
            name: "schools".into(),
            alias: Some("s".into()),
        };
        assert_eq!(t.visible_name(), Some("s"));
        let t2 = TableRef::Table {
            name: "schools".into(),
            alias: None,
        };
        assert_eq!(t2.visible_name(), Some("schools"));
    }
}
