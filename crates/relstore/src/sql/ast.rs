//! SQL abstract syntax tree of the dialect the store emits — the contract
//! in DESIGN.md §2, pinned by the root test `tests/sql_dialect.rs`: one
//! query per statement (CTEs, a `UNION ALL` of SELECT blocks, ORDER BY,
//! LIMIT, OFFSET), comma joins and `LEFT OUTER JOIN`, lateral `UNNEST`,
//! searched `CASE … ELSE … END`, `IS [NOT] NULL`, arithmetic,
//! aggregates and function calls. Tables are made through
//! [`Database::create_table`](crate::Database::create_table), not SQL.

use crate::value::Value;

/// A full query: optional CTEs, a union-of-selects body, and trailing
/// ORDER BY / LIMIT / OFFSET.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    pub ctes: Vec<(String, Query)>,
    pub body: QueryBody,
    pub order_by: Vec<OrderItem>,
    pub limit: Option<u64>,
    pub offset: Option<u64>,
}

#[derive(Debug, Clone, PartialEq)]
pub enum QueryBody {
    Select(Box<Select>),
    /// `left UNION ALL right`: every row of both sides, left first.
    UnionAll { left: Box<QueryBody>, right: Box<QueryBody> },
}

#[derive(Debug, Clone, PartialEq)]
pub struct OrderItem {
    pub expr: Expr,
    pub asc: bool,
}

/// A single SELECT block.
#[derive(Debug, Clone, PartialEq)]
pub struct Select {
    pub distinct: bool,
    pub projection: Vec<SelectItem>,
    /// Comma-separated FROM factors, each with its chain of explicit joins.
    pub from: Vec<TableFactor>,
    pub where_clause: Option<Expr>,
    pub group_by: Vec<Expr>,
    pub having: Option<Expr>,
}

#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`
    Wildcard,
    /// `expr [AS alias]`
    Expr { expr: Expr, alias: Option<String> },
}

#[derive(Debug, Clone, PartialEq)]
pub struct TableFactor {
    pub relation: Relation,
    pub alias: Option<String>,
    pub joins: Vec<Join>,
}

#[derive(Debug, Clone, PartialEq)]
pub enum Relation {
    /// Base table or CTE reference.
    Named(String),
    /// Lateral value-unnest standing in for DB2's `TABLE(...)` construct
    /// (paper Fig. 13): `UNNEST ((a, b), (c, d)) AS L(p, v)` emits, for each
    /// input row, one output row per tuple whose first element is non-NULL.
    Unnest { tuples: Vec<Vec<Expr>>, columns: Vec<String> },
}

/// `LEFT OUTER JOIN relation [AS alias] ON on`, the one explicit join;
/// inner joins are comma-separated FROM factors with WHERE equalities.
#[derive(Debug, Clone, PartialEq)]
pub struct Join {
    pub relation: Relation,
    pub alias: Option<String>,
    pub on: Expr,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinaryOp {
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
    And,
    Or,
    Add,
    Sub,
    Mul,
    Div,
}

#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// `name` or `qualifier.name`.
    Column { qualifier: Option<String>, name: String },
    Literal(Value),
    Binary { op: BinaryOp, left: Box<Expr>, right: Box<Expr> },
    Not(Box<Expr>),
    IsNull { expr: Box<Expr>, negated: bool },
    /// Searched `CASE WHEN cond THEN v ... ELSE v END`.
    Case { branches: Vec<(Expr, Expr)>, else_expr: Box<Expr> },
    /// Scalar or aggregate function call; aggregates are recognized at
    /// planning time. `COUNT(*)` is represented with `star = true`;
    /// `distinct` marks `AGG(DISTINCT expr)` and only makes sense on
    /// aggregates.
    Func { name: String, args: Vec<Expr>, star: bool, distinct: bool },
}

impl Expr {
    pub fn col(name: &str) -> Expr {
        Expr::Column { qualifier: None, name: name.to_string() }
    }

    pub fn binary(op: BinaryOp, left: Expr, right: Expr) -> Expr {
        Expr::Binary { op, left: Box::new(left), right: Box::new(right) }
    }

    /// Split a conjunction into its AND-ed factors.
    pub fn conjuncts(&self) -> Vec<&Expr> {
        let mut out = Vec::new();
        fn walk<'a>(e: &'a Expr, out: &mut Vec<&'a Expr>) {
            if let Expr::Binary { op: BinaryOp::And, left, right } = e {
                walk(left, out);
                walk(right, out);
            } else {
                out.push(e);
            }
        }
        walk(self, &mut out);
        out
    }

    /// The direct subexpressions, in written order.
    pub fn children(&self) -> impl Iterator<Item = &Expr> {
        // Written order is `first`, the CASE branches, `last`, the arguments;
        // each variant fills what it has.
        let (first, branches, last, args): (Option<&Expr>, &[(Expr, Expr)], _, &[Expr]) =
            match self {
                Expr::Column { .. } | Expr::Literal(_) => (None, &[], None, &[]),
                Expr::Binary { left, right, .. } => (Some(left), &[], Some(&**right), &[]),
                Expr::Not(expr) | Expr::IsNull { expr, .. } => (Some(expr), &[], None, &[]),
                Expr::Case { branches, else_expr } => (None, branches, Some(else_expr), &[]),
                Expr::Func { args, .. } => (None, &[], None, args),
            };
        first.into_iter().chain(branches.iter().flat_map(|(c, v)| [c, v])).chain(last).chain(args)
    }

    /// A copy with `f` applied to every direct subexpression.
    pub fn map_children(&self, mut f: impl FnMut(&Expr) -> Expr) -> Expr {
        let mut boxed = |e: &Expr| Box::new(f(e));
        match self {
            Expr::Column { .. } | Expr::Literal(_) => self.clone(),
            Expr::Binary { op, left, right } => {
                Expr::Binary { op: *op, left: boxed(left), right: boxed(right) }
            }
            Expr::Not(expr) => Expr::Not(boxed(expr)),
            Expr::IsNull { expr, negated } => Expr::IsNull { expr: boxed(expr), negated: *negated },
            Expr::Case { branches, else_expr } => Expr::Case {
                branches: branches.iter().map(|(c, v)| (f(c), f(v))).collect(),
                else_expr: Box::new(f(else_expr)),
            },
            Expr::Func { name, args, star, distinct } => Expr::Func {
                name: name.clone(),
                args: args.iter().map(f).collect(),
                star: *star,
                distinct: *distinct,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sql::parser::parse_statement;

    #[test]
    fn children_come_in_written_order_and_map_children_rebuilds() {
        let q = parse_statement(
            "SELECT CASE WHEN a = 1 THEN NOT b IS NULL ELSE c END AS x, COALESCE(d, e < f) AS y",
        )
        .unwrap();
        let QueryBody::Select(sel) = q.body else { panic!("expected a SELECT") };
        fn columns<'e>(e: &'e Expr, out: &mut Vec<&'e str>) {
            match e {
                Expr::Column { name, .. } => out.push(name),
                _ => e.children().for_each(|c| columns(c, out)),
            }
        }
        let mut names = Vec::new();
        for item in &sel.projection {
            let SelectItem::Expr { expr, .. } = item else { panic!("expected an expression") };
            columns(expr, &mut names);
            assert_eq!(&expr.map_children(Expr::clone), expr);
        }
        assert_eq!(names, ["a", "b", "c", "d", "e", "f"]);
    }
}
