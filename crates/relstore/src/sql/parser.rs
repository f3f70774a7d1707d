//! Recursive-descent SQL parser.

use crate::error::{Error, Result};
use crate::sql::ast::*;
use crate::sql::lexer::{tokenize, Spanned, Token};
use crate::value::Value;

/// Parse one query: the only statement the dialect has.
pub fn parse_statement(sql: &str) -> Result<Query> {
    let tokens = tokenize(sql)?;
    let mut p = Parser { tokens, pos: 0 };
    let query = p.query()?;
    p.expect_eof()?;
    Ok(query)
}

struct Parser {
    tokens: Vec<Spanned>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> &Token {
        &self.tokens[self.pos].token
    }

    fn offset(&self) -> usize {
        self.tokens[self.pos].offset
    }

    fn advance(&mut self) -> Token {
        let t = self.tokens[self.pos].token.clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn err<T>(&self, msg: impl Into<String>) -> Result<T> {
        Err(Error::Parse { message: msg.into(), offset: self.offset() })
    }

    fn eat_if(&mut self, t: &Token) -> bool {
        if self.peek() == t {
            self.advance();
            true
        } else {
            false
        }
    }

    /// Consume a keyword (lowercased identifier) if present.
    fn eat_kw(&mut self, kw: &str) -> bool {
        if let Token::Ident(w) = self.peek() {
            if w == kw {
                self.advance();
                return true;
            }
        }
        false
    }

    fn expect_kw(&mut self, kw: &str) -> Result<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            self.err(format!("expected keyword {}", kw.to_uppercase()))
        }
    }

    fn expect(&mut self, t: &Token) -> Result<()> {
        if self.eat_if(t) {
            Ok(())
        } else {
            self.err(format!("expected {t:?}, found {:?}", self.peek()))
        }
    }

    fn expect_eof(&mut self) -> Result<()> {
        if matches!(self.peek(), Token::Eof) {
            Ok(())
        } else {
            self.err(format!("unexpected trailing input: {:?}", self.peek()))
        }
    }

    /// Identifier, normalized to lowercase.
    fn ident(&mut self) -> Result<String> {
        match self.advance() {
            Token::Ident(w) => {
                if RESERVED.contains(&w.as_str()) {
                    self.err(format!("reserved word {w:?} used as identifier"))
                } else {
                    Ok(w)
                }
            }
            other => self.err(format!("expected identifier, found {other:?}")),
        }
    }

    fn query(&mut self) -> Result<Query> {
        let mut ctes = Vec::new();
        if self.eat_kw("with") {
            loop {
                let name = self.ident()?;
                self.expect_kw("as")?;
                self.expect(&Token::LParen)?;
                let q = self.query()?;
                self.expect(&Token::RParen)?;
                ctes.push((name, q));
                if !self.eat_if(&Token::Comma) {
                    break;
                }
            }
        }
        let body = self.query_body()?;
        let mut order_by = Vec::new();
        if self.eat_kw("order") {
            self.expect_kw("by")?;
            loop {
                let expr = self.expr()?;
                let asc = !self.eat_kw("desc");
                order_by.push(OrderItem { expr, asc });
                if !self.eat_if(&Token::Comma) {
                    break;
                }
            }
        }
        let mut limit = None;
        let mut offset = None;
        loop {
            if self.eat_kw("limit") {
                match self.advance() {
                    Token::Int(n) if n >= 0 => limit = Some(n as u64),
                    _ => return self.err("expected non-negative integer after LIMIT"),
                }
            } else if self.eat_kw("offset") {
                match self.advance() {
                    Token::Int(n) if n >= 0 => offset = Some(n as u64),
                    _ => return self.err("expected non-negative integer after OFFSET"),
                }
            } else {
                break;
            }
        }
        Ok(Query { ctes, body, order_by, limit, offset })
    }

    fn query_body(&mut self) -> Result<QueryBody> {
        let mut left = QueryBody::Select(Box::new(self.select()?));
        while self.eat_kw("union") {
            self.expect_kw("all")?;
            let right = QueryBody::Select(Box::new(self.select()?));
            left = QueryBody::UnionAll { left: Box::new(left), right: Box::new(right) };
        }
        Ok(left)
    }

    fn select(&mut self) -> Result<Select> {
        self.expect_kw("select")?;
        let distinct = self.eat_kw("distinct");
        let mut projection = Vec::new();
        loop {
            if self.eat_if(&Token::Star) {
                projection.push(SelectItem::Wildcard);
            } else {
                let expr = self.expr()?;
                let alias = self.alias()?;
                projection.push(SelectItem::Expr { expr, alias });
            }
            if !self.eat_if(&Token::Comma) {
                break;
            }
        }
        let mut from = Vec::new();
        if self.eat_kw("from") {
            loop {
                from.push(self.table_factor()?);
                if !self.eat_if(&Token::Comma) {
                    break;
                }
            }
        }
        let where_clause = if self.eat_kw("where") { Some(self.expr()?) } else { None };
        let mut group_by = Vec::new();
        if self.eat_kw("group") {
            self.expect_kw("by")?;
            loop {
                group_by.push(self.expr()?);
                if !self.eat_if(&Token::Comma) {
                    break;
                }
            }
        }
        let having = if self.eat_kw("having") { Some(self.expr()?) } else { None };
        Ok(Select { distinct, projection, from, where_clause, group_by, having })
    }

    /// `AS name`, if present.
    fn alias(&mut self) -> Result<Option<String>> {
        if self.eat_kw("as") {
            Ok(Some(self.ident()?))
        } else {
            Ok(None)
        }
    }

    fn relation(&mut self) -> Result<(Relation, Option<String>)> {
        if self.eat_kw("unnest") {
            self.expect(&Token::LParen)?;
            let mut tuples = Vec::new();
            loop {
                if self.eat_if(&Token::LParen) {
                    let mut tuple = Vec::new();
                    loop {
                        tuple.push(self.expr()?);
                        if !self.eat_if(&Token::Comma) {
                            break;
                        }
                    }
                    self.expect(&Token::RParen)?;
                    tuples.push(tuple);
                } else {
                    tuples.push(vec![self.expr()?]);
                }
                if !self.eat_if(&Token::Comma) {
                    break;
                }
            }
            self.expect(&Token::RParen)?;
            self.expect_kw("as")?;
            let alias = self.ident()?;
            self.expect(&Token::LParen)?;
            let mut columns = Vec::new();
            loop {
                columns.push(self.ident()?);
                if !self.eat_if(&Token::Comma) {
                    break;
                }
            }
            self.expect(&Token::RParen)?;
            let arity = tuples[0].len();
            if tuples.iter().any(|t| t.len() != arity) || columns.len() != arity {
                return self.err("UNNEST tuples and column list must have the same arity");
            }
            Ok((Relation::Unnest { tuples, columns }, Some(alias)))
        } else {
            let name = self.ident()?;
            let alias = self.alias()?;
            Ok((Relation::Named(name), alias))
        }
    }

    fn table_factor(&mut self) -> Result<TableFactor> {
        let (relation, alias) = self.relation()?;
        let mut joins = Vec::new();
        while self.eat_kw("left") {
            self.expect_kw("outer")?;
            self.expect_kw("join")?;
            let (relation, alias) = self.relation()?;
            self.expect_kw("on")?;
            let on = self.expr()?;
            joins.push(Join { relation, alias, on });
        }
        Ok(TableFactor { relation, alias, joins })
    }

    // ---- expressions, precedence climbing ----

    fn expr(&mut self) -> Result<Expr> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<Expr> {
        let mut left = self.and_expr()?;
        while self.eat_kw("or") {
            let right = self.and_expr()?;
            left = Expr::binary(BinaryOp::Or, left, right);
        }
        Ok(left)
    }

    fn and_expr(&mut self) -> Result<Expr> {
        let mut left = self.not_expr()?;
        while self.eat_kw("and") {
            let right = self.not_expr()?;
            left = Expr::binary(BinaryOp::And, left, right);
        }
        Ok(left)
    }

    fn not_expr(&mut self) -> Result<Expr> {
        if self.eat_kw("not") {
            Ok(Expr::Not(Box::new(self.not_expr()?)))
        } else {
            self.comparison()
        }
    }

    fn comparison(&mut self) -> Result<Expr> {
        let left = self.additive()?;
        // IS [NOT] NULL / comparison operators
        if self.eat_kw("is") {
            let negated = self.eat_kw("not");
            self.expect_kw("null")?;
            return Ok(Expr::IsNull { expr: Box::new(left), negated });
        }
        let op = match self.peek() {
            Token::Eq => BinaryOp::Eq,
            Token::NotEq => BinaryOp::NotEq,
            Token::Lt => BinaryOp::Lt,
            Token::LtEq => BinaryOp::LtEq,
            Token::Gt => BinaryOp::Gt,
            Token::GtEq => BinaryOp::GtEq,
            _ => return Ok(left),
        };
        self.advance();
        let right = self.additive()?;
        Ok(Expr::binary(op, left, right))
    }

    fn additive(&mut self) -> Result<Expr> {
        let mut left = self.multiplicative()?;
        loop {
            let op = match self.peek() {
                Token::Plus => BinaryOp::Add,
                Token::Minus => BinaryOp::Sub,
                _ => break,
            };
            self.advance();
            let right = self.multiplicative()?;
            left = Expr::binary(op, left, right);
        }
        Ok(left)
    }

    fn multiplicative(&mut self) -> Result<Expr> {
        let mut left = self.primary()?;
        loop {
            let op = match self.peek() {
                Token::Star => BinaryOp::Mul,
                Token::Slash => BinaryOp::Div,
                _ => break,
            };
            self.advance();
            let right = self.primary()?;
            left = Expr::binary(op, left, right);
        }
        Ok(left)
    }

    fn primary(&mut self) -> Result<Expr> {
        match self.peek().clone() {
            Token::Int(n) => {
                self.advance();
                Ok(Expr::Literal(Value::Int(n)))
            }
            Token::Double(d) => {
                self.advance();
                Ok(Expr::Literal(Value::Double(d)))
            }
            Token::Str(s) => {
                self.advance();
                Ok(Expr::Literal(Value::str(s)))
            }
            Token::LParen => {
                self.advance();
                let e = self.expr()?;
                self.expect(&Token::RParen)?;
                Ok(e)
            }
            Token::Ident(word) => match word.as_str() {
                "null" => {
                    self.advance();
                    Ok(Expr::Literal(Value::Null))
                }
                "true" => {
                    self.advance();
                    Ok(Expr::Literal(Value::Bool(true)))
                }
                "false" => {
                    self.advance();
                    Ok(Expr::Literal(Value::Bool(false)))
                }
                "case" => self.case_expr(),
                _ => self.ident_expr(),
            },
            other => self.err(format!("unexpected token {other:?} in expression")),
        }
    }

    fn case_expr(&mut self) -> Result<Expr> {
        self.expect_kw("case")?;
        let mut branches = Vec::new();
        while self.eat_kw("when") {
            let cond = self.expr()?;
            self.expect_kw("then")?;
            let val = self.expr()?;
            branches.push((cond, val));
        }
        if branches.is_empty() {
            return self.err("CASE requires at least one WHEN branch");
        }
        self.expect_kw("else")?;
        let else_expr = Box::new(self.expr()?);
        self.expect_kw("end")?;
        Ok(Expr::Case { branches, else_expr })
    }

    fn ident_expr(&mut self) -> Result<Expr> {
        let first = self.ident()?;
        if self.eat_if(&Token::LParen) {
            // function call
            if self.eat_if(&Token::Star) {
                self.expect(&Token::RParen)?;
                return Ok(Expr::Func { name: first, args: vec![], star: true, distinct: false });
            }
            let distinct = self.eat_kw("distinct");
            let mut args = Vec::new();
            if !self.eat_if(&Token::RParen) {
                loop {
                    args.push(self.expr()?);
                    if !self.eat_if(&Token::Comma) {
                        break;
                    }
                }
                self.expect(&Token::RParen)?;
            } else if distinct {
                return self.err("DISTINCT requires an argument");
            }
            return Ok(Expr::Func { name: first, args, star: false, distinct });
        }
        if self.eat_if(&Token::Dot) {
            let name = self.ident()?;
            return Ok(Expr::Column { qualifier: Some(first), name });
        }
        Ok(Expr::Column { qualifier: None, name: first })
    }
}

/// Words that cannot be used as identifiers.
const RESERVED: &[&str] = &[
    "select", "from", "where", "group", "by", "having", "order", "limit", "offset", "union",
    "all", "distinct", "and", "or", "not", "is", "null", "case", "when", "then", "else",
    "end", "as", "join", "left", "outer", "on", "with", "unnest", "true", "false", "desc",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_select_with_joins_and_cte() {
        let q = parse_statement(
            "WITH q1 AS (SELECT entry FROM rph WHERE entry = 'x'),
                  q2 AS (SELECT t.entry AS y FROM dph AS T LEFT OUTER JOIN ds AS S ON t.val0 = s.l_id)
             SELECT q1.entry, q2.y FROM q1, q2 WHERE q1.entry = q2.y ORDER BY y DESC LIMIT 10 OFFSET 2",
        )
        .unwrap();
        assert_eq!(q.ctes.len(), 2);
        assert_eq!(q.limit, Some(10));
        assert_eq!(q.offset, Some(2));
        assert_eq!(q.order_by.len(), 1);
        assert!(!q.order_by[0].asc);
    }

    #[test]
    fn parses_union_all_left_associative() {
        let q = parse_statement(
            "SELECT a FROM t UNION ALL SELECT b FROM u UNION ALL SELECT c FROM v",
        )
        .unwrap();
        match q.body {
            QueryBody::UnionAll { left, .. } => {
                assert!(matches!(*left, QueryBody::UnionAll { .. }));
            }
            _ => panic!(),
        }
    }

    #[test]
    fn parses_case_and_coalesce() {
        let q = parse_statement(
            "SELECT CASE WHEN t.p = 'x' THEN t.v ELSE NULL END AS a,
                    COALESCE(s.elm, t.v) AS b
             FROM t LEFT OUTER JOIN s ON t.v = s.l_id",
        )
        .unwrap();
        match q.body {
            QueryBody::Select(sel) => {
                assert_eq!(sel.projection.len(), 2);
                assert!(matches!(
                    &sel.projection[1],
                    SelectItem::Expr { expr: Expr::Func { name, .. }, .. } if name == "coalesce"
                ));
            }
            _ => panic!(),
        }
    }

    #[test]
    fn parses_unnest() {
        let q = parse_statement(
            "SELECT l.p, l.v FROM t, UNNEST ((t.pred0, t.val0), (t.pred1, t.val1)) AS L(p, v) WHERE l.v IS NOT NULL",
        )
        .unwrap();
        match q.body {
            QueryBody::Select(sel) => {
                assert_eq!(sel.from.len(), 2);
                match &sel.from[1].relation {
                    Relation::Unnest { tuples, columns } => {
                        assert_eq!(tuples.len(), 2);
                        assert_eq!(columns, &vec!["p".to_string(), "v".to_string()]);
                    }
                    _ => panic!(),
                }
            }
            _ => panic!(),
        }
    }

    #[test]
    fn parses_not_over_a_comparison() {
        let q = parse_statement("SELECT a FROM t WHERE b < 'z' AND NOT c = 1").unwrap();
        match q.body {
            QueryBody::Select(sel) => {
                let conjs = sel.where_clause.as_ref().unwrap().conjuncts();
                assert!(matches!(conjs[0], Expr::Binary { op: BinaryOp::Lt, .. }));
                assert!(matches!(conjs[1], Expr::Not(_)));
            }
            _ => panic!(),
        }
    }

    #[test]
    fn parses_group_by_having_aggregates() {
        let q = parse_statement(
            "SELECT a, COUNT(*) AS n, SUM(b) FROM t GROUP BY a HAVING COUNT(*) > 2",
        )
        .unwrap();
        match q.body {
            QueryBody::Select(sel) => {
                assert_eq!(sel.group_by.len(), 1);
                assert!(sel.having.is_some());
            }
            _ => panic!(),
        }
    }

    /// The dialect is what the store emits; these forms are not in it.
    #[test]
    fn rejects_what_the_store_never_emits() {
        for sql in [
            "CREATE TABLE t (a INT)",
            "INSERT INTO t VALUES (1)",
            "SELECT a FROM t;",
            "SELECT a FROM t UNION SELECT a FROM u",
            "(SELECT a FROM t) UNION ALL SELECT a FROM u",
            "SELECT t.* FROM t",
            "SELECT a FROM (SELECT a FROM t) AS s",
            "SELECT a FROM t JOIN u ON t.a = u.a",
            "SELECT a FROM t LEFT JOIN u ON t.a = u.a",
            "SELECT a FROM t WHERE a IN (1, 2)",
            "SELECT a FROM t WHERE a LIKE 'x%'",
            "SELECT CAST(a AS DOUBLE) FROM t",
            "SELECT 'a' || 'b'",
            "SELECT -a FROM t",
            "SELECT CASE WHEN a = 1 THEN 2 END FROM t",
            "SELECT a b FROM t",
            "SELECT a FROM t u",
            "SELECT \"a\" FROM t",
            "SELECT a FROM t WHERE a != 1",
            "SELECT a FROM t ORDER BY a ASC",
        ] {
            assert!(parse_statement(sql).is_err(), "{sql}");
        }
    }

    #[test]
    fn rejects_reserved_word_as_identifier() {
        assert!(parse_statement("SELECT select FROM t").is_err());
    }

    #[test]
    fn reports_offset_on_error() {
        let err = parse_statement("SELECT a FROM").unwrap_err();
        match err {
            Error::Parse { offset, .. } => assert!(offset >= 13),
            _ => panic!(),
        }
    }
}
