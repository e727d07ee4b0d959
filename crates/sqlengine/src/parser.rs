//! Recursive-descent SQL parser.
//!
//! Grammar coverage: SELECT (DISTINCT, joins, WHERE, GROUP BY, HAVING,
//! ORDER BY, LIMIT/OFFSET, subqueries in FROM/IN/EXISTS/scalar position),
//! CREATE TABLE, CREATE `[UNIQUE]` INDEX, INSERT, UPDATE, DELETE, DROP TABLE.

use crate::ast::*;
use crate::error::{SqlError, SqlResult};
use crate::lexer::{tokenize, Sym, Token};
use crate::schema::DataType;
use crate::value::Value;

/// Parse a single SQL statement (a trailing semicolon is allowed).
pub fn parse_statement(sql: &str) -> SqlResult<Statement> {
    let mut p = Parser::new(sql)?;
    let stmt = p.statement()?;
    p.eat_sym(Sym::Semicolon);
    p.expect_eof()?;
    Ok(stmt)
}

/// Parse a sequence of semicolon-separated statements.
pub fn parse_statements(sql: &str) -> SqlResult<Vec<Statement>> {
    let mut p = Parser::new(sql)?;
    let mut out = Vec::new();
    loop {
        while p.eat_sym(Sym::Semicolon) {}
        if p.at_eof() {
            break;
        }
        out.push(p.statement()?);
    }
    Ok(out)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn new(sql: &str) -> SqlResult<Parser> {
        Ok(Parser {
            tokens: tokenize(sql)?,
            pos: 0,
        })
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn at_eof(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    fn expect_eof(&self) -> SqlResult<()> {
        match self.peek() {
            None => Ok(()),
            Some(t) => Err(SqlError::Parse(format!("unexpected trailing token `{t}`"))),
        }
    }

    /// Is the current token the given (unquoted) keyword?
    fn at_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Token::Ident(s, false)) if s.eq_ignore_ascii_case(kw))
    }

    /// Consume a keyword if present.
    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.at_kw(kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> SqlResult<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(SqlError::Parse(format!(
                "expected keyword {kw}, found {}",
                self.describe_current()
            )))
        }
    }

    fn eat_sym(&mut self, sym: Sym) -> bool {
        if matches!(self.peek(), Some(Token::Sym(s)) if *s == sym) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_sym(&mut self, sym: Sym) -> SqlResult<()> {
        if self.eat_sym(sym) {
            Ok(())
        } else {
            Err(SqlError::Parse(format!(
                "expected `{sym}`, found {}",
                self.describe_current()
            )))
        }
    }

    fn describe_current(&self) -> String {
        match self.peek() {
            Some(t) => format!("`{t}`"),
            None => "end of input".into(),
        }
    }

    /// Consume any identifier (quoted or not). Keywords are allowed so
    /// BIRD-style columns like `Year` work.
    fn ident(&mut self) -> SqlResult<String> {
        match self.next() {
            Some(Token::Ident(s, _)) => Ok(s),
            other => Err(SqlError::Parse(format!(
                "expected identifier, found {}",
                other
                    .map(|t| format!("`{t}`"))
                    .unwrap_or("end of input".into())
            ))),
        }
    }

    // ---- statements --------------------------------------------------

    fn statement(&mut self) -> SqlResult<Statement> {
        if self.at_kw("SELECT") {
            let first = self.select()?;
            if !self.at_kw("UNION") {
                return Ok(Statement::Select(first));
            }
            let mut rest = Vec::new();
            while self.eat_kw("UNION") {
                let all = self.eat_kw("ALL");
                rest.push((all, self.select()?));
            }
            return Ok(Statement::CompoundSelect { first, rest });
        }
        if self.eat_kw("CREATE") {
            let unique = self.eat_kw("UNIQUE");
            if self.eat_kw("TABLE") {
                if unique {
                    return Err(SqlError::Parse("UNIQUE TABLE is not valid".into()));
                }
                return self.create_table();
            }
            if self.eat_kw("INDEX") {
                return self.create_index(unique);
            }
            return Err(SqlError::Parse(
                "expected TABLE or INDEX after CREATE".into(),
            ));
        }
        if self.eat_kw("INSERT") {
            return self.insert();
        }
        if self.eat_kw("DROP") {
            self.expect_kw("TABLE")?;
            let if_exists = if self.eat_kw("IF") {
                self.expect_kw("EXISTS")?;
                true
            } else {
                false
            };
            let name = self.ident()?;
            return Ok(Statement::DropTable { name, if_exists });
        }
        if self.eat_kw("DELETE") {
            self.expect_kw("FROM")?;
            let table = self.ident()?;
            let predicate = if self.eat_kw("WHERE") {
                Some(self.expr()?)
            } else {
                None
            };
            return Ok(Statement::Delete { table, predicate });
        }
        if self.eat_kw("UPDATE") {
            let table = self.ident()?;
            self.expect_kw("SET")?;
            let mut assignments = Vec::new();
            loop {
                let col = self.ident()?;
                self.expect_sym(Sym::Eq)?;
                assignments.push((col, self.expr()?));
                if !self.eat_sym(Sym::Comma) {
                    break;
                }
            }
            let predicate = if self.eat_kw("WHERE") {
                Some(self.expr()?)
            } else {
                None
            };
            return Ok(Statement::Update {
                table,
                assignments,
                predicate,
            });
        }
        Err(SqlError::Parse(format!(
            "expected a statement, found {}",
            self.describe_current()
        )))
    }

    fn create_table(&mut self) -> SqlResult<Statement> {
        let if_not_exists = if self.eat_kw("IF") {
            self.expect_kw("NOT")?;
            self.expect_kw("EXISTS")?;
            true
        } else {
            false
        };
        let name = self.ident()?;
        self.expect_sym(Sym::LParen)?;
        let mut columns = Vec::new();
        loop {
            let col_name = self.ident()?;
            let dtype = DataType::parse(&self.ident()?)?;
            let mut not_null = false;
            let mut primary_key = false;
            loop {
                if self.eat_kw("NOT") {
                    self.expect_kw("NULL")?;
                    not_null = true;
                } else if self.eat_kw("NULL") {
                    // explicit nullable marker, no-op
                } else if self.eat_kw("PRIMARY") {
                    self.expect_kw("KEY")?;
                    primary_key = true;
                    not_null = true;
                } else {
                    break;
                }
            }
            columns.push(ColumnDef {
                name: col_name,
                dtype,
                not_null,
                primary_key,
            });
            if !self.eat_sym(Sym::Comma) {
                break;
            }
        }
        self.expect_sym(Sym::RParen)?;
        Ok(Statement::CreateTable(CreateTableStmt {
            name,
            if_not_exists,
            columns,
        }))
    }

    fn create_index(&mut self, unique: bool) -> SqlResult<Statement> {
        let name = self.ident()?;
        self.expect_kw("ON")?;
        let table = self.ident()?;
        self.expect_sym(Sym::LParen)?;
        let column = self.ident()?;
        self.expect_sym(Sym::RParen)?;
        Ok(Statement::CreateIndex {
            name,
            table,
            column,
            unique,
        })
    }

    fn insert(&mut self) -> SqlResult<Statement> {
        self.expect_kw("INTO")?;
        let table = self.ident()?;
        let columns = if self.eat_sym(Sym::LParen) {
            let mut cols = Vec::new();
            loop {
                cols.push(self.ident()?);
                if !self.eat_sym(Sym::Comma) {
                    break;
                }
            }
            self.expect_sym(Sym::RParen)?;
            Some(cols)
        } else {
            None
        };
        self.expect_kw("VALUES")?;
        let mut rows = Vec::new();
        loop {
            self.expect_sym(Sym::LParen)?;
            let mut row = Vec::new();
            loop {
                row.push(self.expr()?);
                if !self.eat_sym(Sym::Comma) {
                    break;
                }
            }
            self.expect_sym(Sym::RParen)?;
            rows.push(row);
            if !self.eat_sym(Sym::Comma) {
                break;
            }
        }
        Ok(Statement::Insert(InsertStmt {
            table,
            columns,
            rows,
        }))
    }

    // ---- SELECT ------------------------------------------------------

    fn select(&mut self) -> SqlResult<SelectStmt> {
        self.expect_kw("SELECT")?;
        let distinct = if self.eat_kw("DISTINCT") {
            true
        } else {
            self.eat_kw("ALL");
            false
        };
        let mut items = Vec::new();
        loop {
            items.push(self.select_item()?);
            if !self.eat_sym(Sym::Comma) {
                break;
            }
        }
        let (from, joins) = if self.eat_kw("FROM") {
            let base = self.table_ref()?;
            let mut joins = Vec::new();
            loop {
                let kind = if self.eat_kw("INNER") {
                    self.expect_kw("JOIN")?;
                    JoinKind::Inner
                } else if self.eat_kw("LEFT") {
                    self.eat_kw("OUTER");
                    self.expect_kw("JOIN")?;
                    JoinKind::Left
                } else if self.eat_kw("CROSS") {
                    self.expect_kw("JOIN")?;
                    JoinKind::Cross
                } else if self.eat_kw("JOIN") {
                    JoinKind::Inner
                } else if self.eat_sym(Sym::Comma) {
                    JoinKind::Cross
                } else {
                    break;
                };
                let table = self.table_ref()?;
                let on = if kind != JoinKind::Cross {
                    self.expect_kw("ON")?;
                    Some(self.expr()?)
                } else if self.eat_kw("ON") {
                    Some(self.expr()?)
                } else {
                    None
                };
                joins.push(Join { kind, table, on });
            }
            (Some(base), joins)
        } else {
            (None, Vec::new())
        };
        let predicate = if self.eat_kw("WHERE") {
            Some(self.expr()?)
        } else {
            None
        };
        let group_by = if self.eat_kw("GROUP") {
            self.expect_kw("BY")?;
            let mut keys = Vec::new();
            loop {
                keys.push(self.expr()?);
                if !self.eat_sym(Sym::Comma) {
                    break;
                }
            }
            keys
        } else {
            Vec::new()
        };
        let having = if self.eat_kw("HAVING") {
            Some(self.expr()?)
        } else {
            None
        };
        let order_by = if self.eat_kw("ORDER") {
            self.expect_kw("BY")?;
            let mut keys = Vec::new();
            loop {
                let expr = self.expr()?;
                let descending = if self.eat_kw("DESC") {
                    true
                } else {
                    self.eat_kw("ASC");
                    false
                };
                keys.push(OrderKey { expr, descending });
                if !self.eat_sym(Sym::Comma) {
                    break;
                }
            }
            keys
        } else {
            Vec::new()
        };
        let (mut limit, mut offset) = (None, None);
        if self.eat_kw("LIMIT") {
            limit = Some(self.unsigned_int("LIMIT")?);
            if self.eat_kw("OFFSET") {
                offset = Some(self.unsigned_int("OFFSET")?);
            } else if self.eat_sym(Sym::Comma) {
                // SQLite's `LIMIT offset, count`
                offset = limit;
                limit = Some(self.unsigned_int("LIMIT")?);
            }
        }
        Ok(SelectStmt {
            distinct,
            items,
            from,
            joins,
            predicate,
            group_by,
            having,
            order_by,
            limit,
            offset,
        })
    }

    fn unsigned_int(&mut self, ctx: &str) -> SqlResult<u64> {
        match self.next() {
            Some(Token::Int(i)) if i >= 0 => Ok(i as u64),
            other => Err(SqlError::Parse(format!(
                "{ctx} expects a non-negative integer, found {}",
                other
                    .map(|t| format!("`{t}`"))
                    .unwrap_or("end of input".into())
            ))),
        }
    }

    fn select_item(&mut self) -> SqlResult<SelectItem> {
        if self.eat_sym(Sym::Star) {
            return Ok(SelectItem::Wildcard);
        }
        // `alias.*`
        if let (Some(Token::Ident(q, _)), Some(Token::Sym(Sym::Dot)), Some(Token::Sym(Sym::Star))) = (
            self.tokens.get(self.pos),
            self.tokens.get(self.pos + 1),
            self.tokens.get(self.pos + 2),
        ) {
            let q = q.clone();
            self.pos += 3;
            return Ok(SelectItem::QualifiedWildcard(q));
        }
        let expr = self.expr()?;
        let alias = if self.eat_kw("AS") {
            Some(self.ident()?)
        } else if let Some(Token::Ident(s, quoted)) = self.peek() {
            // Implicit alias: bare identifier that is not a clause keyword.
            if *quoted || !is_clause_keyword(s) {
                let s = s.clone();
                self.pos += 1;
                Some(s)
            } else {
                None
            }
        } else {
            None
        };
        Ok(SelectItem::Expr { expr, alias })
    }

    fn table_ref(&mut self) -> SqlResult<TableRef> {
        if self.eat_sym(Sym::LParen) {
            let query = self.select()?;
            self.expect_sym(Sym::RParen)?;
            return Ok(TableRef::Subquery {
                query: Box::new(query),
                alias: self.table_alias()?,
            });
        }
        let name = self.ident()?;
        let alias = self.table_alias()?;
        Ok(TableRef::Table { name, alias })
    }

    /// A relation's optional alias: `AS ident`, or a bare identifier
    /// that is not a clause keyword.
    fn table_alias(&mut self) -> SqlResult<Option<String>> {
        if self.eat_kw("AS") {
            return Ok(Some(self.ident()?));
        }
        match self.peek() {
            Some(Token::Ident(s, quoted)) if *quoted || !is_clause_keyword(s) => {
                let s = s.clone();
                self.pos += 1;
                Ok(Some(s))
            }
            _ => Ok(None),
        }
    }

    // ---- expressions (precedence climbing) ----------------------------

    /// Entry point for expressions: OR level.
    pub(crate) fn expr(&mut self) -> SqlResult<Expr> {
        let mut lhs = self.and_expr()?;
        while self.eat_kw("OR") {
            let rhs = self.and_expr()?;
            lhs = Expr::binary(BinOp::Or, lhs, rhs);
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> SqlResult<Expr> {
        let mut lhs = self.not_expr()?;
        while self.eat_kw("AND") {
            let rhs = self.not_expr()?;
            lhs = Expr::binary(BinOp::And, lhs, rhs);
        }
        Ok(lhs)
    }

    fn not_expr(&mut self) -> SqlResult<Expr> {
        if self.eat_kw("NOT") {
            let operand = self.not_expr()?;
            return Ok(Expr::Unary {
                op: UnOp::Not,
                operand: Box::new(operand),
            });
        }
        self.comparison()
    }

    fn comparison(&mut self) -> SqlResult<Expr> {
        let lhs = self.additive()?;
        // Postfix predicates: IS NULL, BETWEEN, IN, LIKE.
        if self.eat_kw("IS") {
            let negated = self.eat_kw("NOT");
            self.expect_kw("NULL")?;
            return Ok(Expr::IsNull {
                expr: Box::new(lhs),
                negated,
            });
        }
        let negated = {
            // Lookahead for `NOT BETWEEN/IN/LIKE`.
            if self.at_kw("NOT") {
                let save = self.pos;
                self.pos += 1;
                if self.at_kw("BETWEEN") || self.at_kw("IN") || self.at_kw("LIKE") {
                    true
                } else {
                    self.pos = save;
                    false
                }
            } else {
                false
            }
        };
        if self.eat_kw("BETWEEN") {
            let low = self.additive()?;
            self.expect_kw("AND")?;
            let high = self.additive()?;
            return Ok(Expr::Between {
                expr: Box::new(lhs),
                low: Box::new(low),
                high: Box::new(high),
                negated,
            });
        }
        if self.eat_kw("IN") {
            self.expect_sym(Sym::LParen)?;
            if self.at_kw("SELECT") {
                let query = self.select()?;
                self.expect_sym(Sym::RParen)?;
                return Ok(Expr::InSubquery {
                    expr: Box::new(lhs),
                    query: Box::new(query),
                    negated,
                });
            }
            let mut list = Vec::new();
            loop {
                list.push(self.expr()?);
                if !self.eat_sym(Sym::Comma) {
                    break;
                }
            }
            self.expect_sym(Sym::RParen)?;
            return Ok(Expr::InList {
                expr: Box::new(lhs),
                list,
                negated,
            });
        }
        if self.eat_kw("LIKE") {
            let rhs = self.additive()?;
            return Ok(Expr::binary(
                if negated { BinOp::NotLike } else { BinOp::Like },
                lhs,
                rhs,
            ));
        }
        if negated {
            return Err(SqlError::Parse(
                "expected BETWEEN, IN, or LIKE after NOT".into(),
            ));
        }
        let op = match self.peek() {
            Some(Token::Sym(Sym::Eq)) => Some(BinOp::Eq),
            Some(Token::Sym(Sym::NotEq)) => Some(BinOp::NotEq),
            Some(Token::Sym(Sym::Lt)) => Some(BinOp::Lt),
            Some(Token::Sym(Sym::LtEq)) => Some(BinOp::LtEq),
            Some(Token::Sym(Sym::Gt)) => Some(BinOp::Gt),
            Some(Token::Sym(Sym::GtEq)) => Some(BinOp::GtEq),
            _ => None,
        };
        if let Some(op) = op {
            self.pos += 1;
            let rhs = self.additive()?;
            return Ok(Expr::binary(op, lhs, rhs));
        }
        Ok(lhs)
    }

    fn additive(&mut self) -> SqlResult<Expr> {
        let mut lhs = self.multiplicative()?;
        loop {
            let op = match self.peek() {
                Some(Token::Sym(Sym::Plus)) => BinOp::Add,
                Some(Token::Sym(Sym::Minus)) => BinOp::Sub,
                Some(Token::Sym(Sym::Concat)) => BinOp::Concat,
                _ => break,
            };
            self.pos += 1;
            let rhs = self.multiplicative()?;
            lhs = Expr::binary(op, lhs, rhs);
        }
        Ok(lhs)
    }

    fn multiplicative(&mut self) -> SqlResult<Expr> {
        let mut lhs = self.unary()?;
        loop {
            let op = match self.peek() {
                Some(Token::Sym(Sym::Star)) => BinOp::Mul,
                Some(Token::Sym(Sym::Slash)) => BinOp::Div,
                Some(Token::Sym(Sym::Percent)) => BinOp::Rem,
                _ => break,
            };
            self.pos += 1;
            let rhs = self.unary()?;
            lhs = Expr::binary(op, lhs, rhs);
        }
        Ok(lhs)
    }

    fn unary(&mut self) -> SqlResult<Expr> {
        if self.eat_sym(Sym::Minus) {
            let operand = self.unary()?;
            return Ok(Expr::Unary {
                op: UnOp::Neg,
                operand: Box::new(operand),
            });
        }
        if self.eat_sym(Sym::Plus) {
            return self.unary();
        }
        self.primary()
    }

    fn primary(&mut self) -> SqlResult<Expr> {
        match self.peek().cloned() {
            Some(Token::Int(i)) => {
                self.pos += 1;
                Ok(Expr::Literal(Value::Int(i)))
            }
            Some(Token::Float(f)) => {
                self.pos += 1;
                Ok(Expr::Literal(Value::Float(f)))
            }
            Some(Token::Str(s)) => {
                self.pos += 1;
                Ok(Expr::Literal(Value::Text(s)))
            }
            Some(Token::Sym(Sym::LParen)) => {
                self.pos += 1;
                if self.at_kw("SELECT") {
                    let q = self.select()?;
                    self.expect_sym(Sym::RParen)?;
                    return Ok(Expr::ScalarSubquery(Box::new(q)));
                }
                let e = self.expr()?;
                self.expect_sym(Sym::RParen)?;
                Ok(e)
            }
            Some(Token::Ident(name, quoted)) => {
                if !quoted {
                    let upper = name.to_ascii_uppercase();
                    match upper.as_str() {
                        "NULL" => {
                            self.pos += 1;
                            return Ok(Expr::Literal(Value::Null));
                        }
                        "TRUE" => {
                            self.pos += 1;
                            return Ok(Expr::Literal(Value::Int(1)));
                        }
                        "FALSE" => {
                            self.pos += 1;
                            return Ok(Expr::Literal(Value::Int(0)));
                        }
                        "CASE" => {
                            self.pos += 1;
                            return self.case_expr();
                        }
                        "CAST" => {
                            self.pos += 1;
                            self.expect_sym(Sym::LParen)?;
                            let e = self.expr()?;
                            self.expect_kw("AS")?;
                            let dtype = DataType::parse(&self.ident()?)?;
                            self.expect_sym(Sym::RParen)?;
                            return Ok(Expr::Cast {
                                expr: Box::new(e),
                                dtype,
                            });
                        }
                        "EXISTS" => {
                            self.pos += 1;
                            self.expect_sym(Sym::LParen)?;
                            let q = self.select()?;
                            self.expect_sym(Sym::RParen)?;
                            return Ok(Expr::Exists {
                                query: Box::new(q),
                                negated: false,
                            });
                        }
                        _ => {}
                    }
                    if is_clause_keyword(&name) {
                        return Err(SqlError::Parse(format!(
                            "expected expression, found keyword `{name}` \
                             (quote it to use it as a column name)"
                        )));
                    }
                }
                self.pos += 1;
                // Function call?
                if self.eat_sym(Sym::LParen) {
                    if self.eat_sym(Sym::Star) {
                        self.expect_sym(Sym::RParen)?;
                        if name.eq_ignore_ascii_case("count") {
                            return Ok(Expr::CountStar);
                        }
                        return Err(SqlError::Parse(format!(
                            "`*` is only valid inside COUNT(*), not {name}(*)"
                        )));
                    }
                    let distinct = self.eat_kw("DISTINCT");
                    let mut args = Vec::new();
                    if !matches!(self.peek(), Some(Token::Sym(Sym::RParen))) {
                        loop {
                            args.push(self.expr()?);
                            if !self.eat_sym(Sym::Comma) {
                                break;
                            }
                        }
                    }
                    self.expect_sym(Sym::RParen)?;
                    return Ok(Expr::Function {
                        name,
                        args,
                        distinct,
                    });
                }
                // Qualified column?
                if self.eat_sym(Sym::Dot) {
                    let col = self.ident()?;
                    return Ok(Expr::Column {
                        qualifier: Some(name),
                        name: col,
                    });
                }
                Ok(Expr::Column {
                    qualifier: None,
                    name,
                })
            }
            other => Err(SqlError::Parse(format!(
                "expected expression, found {}",
                other
                    .map(|t| format!("`{t}`"))
                    .unwrap_or("end of input".into())
            ))),
        }
    }

    fn case_expr(&mut self) -> SqlResult<Expr> {
        let operand = if self.at_kw("WHEN") {
            None
        } else {
            Some(Box::new(self.expr()?))
        };
        let mut branches = Vec::new();
        while self.eat_kw("WHEN") {
            let when = self.expr()?;
            self.expect_kw("THEN")?;
            let then = self.expr()?;
            branches.push((when, then));
        }
        if branches.is_empty() {
            return Err(SqlError::Parse("CASE requires at least one WHEN".into()));
        }
        let else_branch = if self.eat_kw("ELSE") {
            Some(Box::new(self.expr()?))
        } else {
            None
        };
        self.expect_kw("END")?;
        Ok(Expr::Case {
            operand,
            branches,
            else_branch,
        })
    }
}

/// Keywords that terminate an implicit alias position.
fn is_clause_keyword(s: &str) -> bool {
    const KWS: &[&str] = &[
        "FROM", "WHERE", "GROUP", "HAVING", "ORDER", "LIMIT", "OFFSET", "JOIN", "INNER", "LEFT",
        "RIGHT", "CROSS", "OUTER", "ON", "AND", "OR", "NOT", "AS", "UNION", "SET", "VALUES",
        "SELECT", "ASC", "DESC", "WHEN", "THEN", "ELSE", "END", "BETWEEN", "IN", "LIKE", "IS",
    ];
    KWS.iter().any(|k| s.eq_ignore_ascii_case(k))
}

/// Parse a standalone expression (used by tests and the UPDATE path).
pub fn parse_expr(sql: &str) -> SqlResult<Expr> {
    let mut p = Parser::new(sql)?;
    let e = p.expr()?;
    p.expect_eof()?;
    Ok(e)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sel(sql: &str) -> SelectStmt {
        match parse_statement(sql).unwrap() {
            Statement::Select(s) => s,
            other => panic!("expected select, got {other:?}"),
        }
    }

    #[test]
    fn simple_select() {
        let s = sel("SELECT a, b AS bee FROM t WHERE a > 1 ORDER BY b DESC LIMIT 5 OFFSET 2");
        assert_eq!(s.items.len(), 2);
        assert!(matches!(
            &s.items[1],
            SelectItem::Expr { alias: Some(a), .. } if a == "bee"
        ));
        assert_eq!(s.limit, Some(5));
        assert_eq!(s.offset, Some(2));
        assert!(s.order_by[0].descending);
    }

    #[test]
    fn sqlite_limit_comma_form() {
        let s = sel("SELECT * FROM t LIMIT 3, 7");
        assert_eq!(s.offset, Some(3));
        assert_eq!(s.limit, Some(7));
    }

    #[test]
    fn joins() {
        let s = sel("SELECT p.name, c.text FROM posts p \
             INNER JOIN comments AS c ON p.Id = c.PostId \
             LEFT JOIN users u ON c.UserId = u.Id");
        assert_eq!(s.joins.len(), 2);
        assert_eq!(s.joins[0].kind, JoinKind::Inner);
        assert_eq!(s.joins[1].kind, JoinKind::Left);
        assert!(s.joins[1].on.is_some());
    }

    #[test]
    fn comma_join_is_cross() {
        let s = sel("SELECT * FROM a, b WHERE a.x = b.y");
        assert_eq!(s.joins.len(), 1);
        assert_eq!(s.joins[0].kind, JoinKind::Cross);
    }

    #[test]
    fn group_by_having() {
        let s = sel("SELECT city, COUNT(*) FROM schools GROUP BY city HAVING COUNT(*) > 3");
        assert_eq!(s.group_by.len(), 1);
        assert!(s.having.is_some());
    }

    #[test]
    fn expression_precedence() {
        let e = parse_expr("1 + 2 * 3 = 7 AND NOT x OR y").unwrap();
        // ((1 + (2*3)) = 7 AND (NOT x)) OR y
        match e {
            Expr::Binary {
                op: BinOp::Or, lhs, ..
            } => match *lhs {
                Expr::Binary {
                    op: BinOp::And,
                    lhs,
                    ..
                } => match *lhs {
                    Expr::Binary { op: BinOp::Eq, .. } => {}
                    other => panic!("expected Eq, got {other:?}"),
                },
                other => panic!("expected And, got {other:?}"),
            },
            other => panic!("expected Or, got {other:?}"),
        }
    }

    #[test]
    fn between_in_like() {
        assert!(matches!(
            parse_expr("x BETWEEN 1 AND 10").unwrap(),
            Expr::Between { negated: false, .. }
        ));
        assert!(matches!(
            parse_expr("x NOT IN (1, 2, 3)").unwrap(),
            Expr::InList { negated: true, .. }
        ));
        assert!(matches!(
            parse_expr("name LIKE 'T%'").unwrap(),
            Expr::Binary {
                op: BinOp::Like,
                ..
            }
        ));
        assert!(matches!(
            parse_expr("name NOT LIKE 'T%'").unwrap(),
            Expr::Binary {
                op: BinOp::NotLike,
                ..
            }
        ));
        assert!(matches!(
            parse_expr("x IS NOT NULL").unwrap(),
            Expr::IsNull { negated: true, .. }
        ));
    }

    #[test]
    fn subqueries() {
        assert!(matches!(
            parse_expr("x IN (SELECT id FROM t)").unwrap(),
            Expr::InSubquery { .. }
        ));
        assert!(matches!(
            parse_expr("(SELECT MAX(x) FROM t)").unwrap(),
            Expr::ScalarSubquery(_)
        ));
        assert!(matches!(
            parse_expr("EXISTS (SELECT 1 FROM t)").unwrap(),
            Expr::Exists { .. }
        ));
        let s = sel("SELECT * FROM (SELECT a FROM t) AS sub WHERE a > 0");
        assert!(matches!(s.from, Some(TableRef::Subquery { .. })));
    }

    #[test]
    fn case_and_cast() {
        assert!(matches!(
            parse_expr("CASE WHEN x > 0 THEN 'pos' ELSE 'neg' END").unwrap(),
            Expr::Case { operand: None, .. }
        ));
        assert!(matches!(
            parse_expr("CASE x WHEN 1 THEN 'a' END").unwrap(),
            Expr::Case {
                operand: Some(_),
                ..
            }
        ));
        assert!(matches!(
            parse_expr("CAST(x AS INTEGER)").unwrap(),
            Expr::Cast {
                dtype: DataType::Integer,
                ..
            }
        ));
    }

    #[test]
    fn create_table() {
        let stmt = parse_statement(
            "CREATE TABLE IF NOT EXISTS schools (\
             CDSCode TEXT NOT NULL PRIMARY KEY, City TEXT NULL, Longitude REAL)",
        )
        .unwrap();
        match stmt {
            Statement::CreateTable(c) => {
                assert!(c.if_not_exists);
                assert_eq!(c.columns.len(), 3);
                assert!(c.columns[0].primary_key);
                assert!(c.columns[0].not_null);
                assert_eq!(c.columns[2].dtype, DataType::Real);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn insert_multi_row() {
        let stmt = parse_statement("INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')").unwrap();
        match stmt {
            Statement::Insert(i) => {
                assert_eq!(i.columns.as_ref().unwrap().len(), 2);
                assert_eq!(i.rows.len(), 2);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn update_delete_drop() {
        assert!(matches!(
            parse_statement("UPDATE t SET a = 1, b = b + 1 WHERE id = 3").unwrap(),
            Statement::Update { .. }
        ));
        assert!(matches!(
            parse_statement("DELETE FROM t WHERE a < 0").unwrap(),
            Statement::Delete { .. }
        ));
        assert!(matches!(
            parse_statement("DROP TABLE IF EXISTS t").unwrap(),
            Statement::DropTable {
                if_exists: true,
                ..
            }
        ));
        assert!(matches!(
            parse_statement("CREATE UNIQUE INDEX idx ON t (a)").unwrap(),
            Statement::CreateIndex { unique: true, .. }
        ));
    }

    #[test]
    fn count_star_and_functions() {
        assert!(matches!(parse_expr("COUNT(*)").unwrap(), Expr::CountStar));
        assert!(matches!(
            parse_expr("COUNT(DISTINCT city)").unwrap(),
            Expr::Function { distinct: true, .. }
        ));
        assert!(matches!(
            parse_expr("coalesce(a, b, 0)").unwrap(),
            Expr::Function { ref name, ref args, .. } if name == "coalesce" && args.len() == 3
        ));
        assert!(parse_expr("SUM(*)").is_err());
    }

    #[test]
    fn quoted_identifier_column() {
        let e = parse_expr("\"Academic Year\"").unwrap();
        assert_eq!(e, Expr::col("Academic Year"));
        // Quoted identifiers are never treated as keywords.
        let e = parse_expr("\"SELECT\"").unwrap();
        assert_eq!(e, Expr::col("SELECT"));
    }

    #[test]
    fn union_parses_at_statement_level() {
        match parse_statement("SELECT a FROM t UNION ALL SELECT a FROM u UNION SELECT a FROM v")
            .unwrap()
        {
            Statement::CompoundSelect { rest, .. } => {
                assert_eq!(rest.len(), 2);
                assert!(rest[0].0, "first arm is UNION ALL");
                assert!(!rest[1].0, "second arm is plain UNION");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn multi_statement_parsing() {
        let stmts = parse_statements("SELECT 1; SELECT 2;;").unwrap();
        assert_eq!(stmts.len(), 2);
    }

    #[test]
    fn errors_are_informative() {
        let err = parse_statement("SELECT FROM t").unwrap_err();
        assert_eq!(err.category(), "parse");
        let err = parse_statement("SELECT 1 WHERE").unwrap_err();
        assert_eq!(err.category(), "parse");
        let err = parse_statement("FOO BAR").unwrap_err();
        assert!(err.message().contains("expected a statement"));
    }

    #[test]
    fn table_less_select() {
        let s = sel("SELECT 1 + 2, 'x'");
        assert!(s.from.is_none());
        assert_eq!(s.items.len(), 2);
    }
}
