//! The compile pass: a parsed query becomes a [`Prepared`] plan tree in
//! which every decision the executor makes before touching a row is already
//! taken — column positions, the output columns of every CTE,
//! index-probe and index-nested-loop choices, join keys, pushed and
//! residual predicates, compiled expressions. [`Prepared::run`] hands the
//! tree to the operators in `exec`, which resolve no names.
//!
//! Planning is deliberately minimal, per the paper's architecture: join
//! *order* is decided upstream by the SPARQL optimizer and the SQL is
//! treated as a procedural plan. This pass contributes only what any
//! relational engine obviously would. FROM items fold left to right and
//! every item may reference the columns of all items before it
//! (lateral-friendly scoping, which `UNNEST` requires). A base table is
//! read only in the columns some reference of the SELECT could name
//! (projection pushdown). A conjunct that references only the new item is
//! pushed into its scan; an equality on an indexed column with a literal
//! probes the index, and one with a left-side expression turns the step
//! into an index nested-loop join; other equalities between the two sides
//! become hash-join keys. A WHERE conjunct that a step already enforced is
//! not evaluated again after the joins. None of these choices looks at row
//! data, so a plan is valid on every snapshot whose referenced tables have
//! the shape it was compiled against.
//!
//! Identifiers in the AST are lowercase (the lexer folds them), so nothing
//! here folds case again.

use std::sync::Arc;

use crate::database::Database;
use crate::error::{plan_err, Error, Result};
use crate::exec::{self, CExpr, OutCol, Profile, Rel};
use crate::sql::ast::{
    BinaryOp, Expr, Join, OrderItem, Query, QueryBody, Relation, Select, SelectItem, TableFactor,
};
use crate::table::Table;
use crate::value::Value;

/// A compiled query: the plan tree plus what it was compiled against. It
/// holds no row data, so one `Prepared` runs on any snapshot of the
/// database it was made from ([`Database::prepare`]). Its calls are bound
/// to the scalar functions registered when it was prepared.
pub struct Prepared {
    pub(crate) root: QueryPlan,
    /// The result's columns.
    pub(crate) cols: Vec<OutCol>,
    /// The base tables the plan reads, by slot: name and
    /// [`Table::shape_id`] at compile time.
    tables: Vec<(String, u64)>,
    /// How many scans read each CTE slot; the last one takes the rows
    /// instead of a copy.
    pub(crate) cte_readers: Vec<u32>,
}

impl std::fmt::Debug for Prepared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Prepared")
            .field("cols", &self.cols)
            .field("tables", &self.tables)
            .field("ctes", &self.cte_readers.len())
            .finish_non_exhaustive()
    }
}

impl Prepared {
    /// Execute against `db` — the database the statement was prepared on,
    /// or any snapshot of it. Fails with [`Error::Stale`], before reading a
    /// row, if a referenced table has changed shape (columns or indexes)
    /// since the statement was prepared; prepare it again then.
    pub fn run(&self, db: &Database) -> Result<Rel> {
        Ok(self.run_profiled(db)?.0)
    }

    /// [`Prepared::run`], also returning what each plan node did.
    pub fn run_profiled(&self, db: &Database) -> Result<(Rel, Profile)> {
        exec::execute(self, db, self.bind(db)?)
    }

    /// `db`'s copies of the referenced tables, by slot, once each is
    /// checked to have the shape the plan was compiled against.
    fn bind<'a>(&self, db: &'a Database) -> Result<Vec<&'a Table>> {
        self.tables
            .iter()
            .map(|(name, shape)| match db.lookup_table(name) {
                Some(t) if t.shape_id() == *shape => Ok(t),
                _ => Err(Error::Stale(format!(
                    "table {name:?} changed shape after the statement was prepared"
                ))),
            })
            .collect()
    }
}

// ---------------------------------------------------------------------------
// The plan tree
// ---------------------------------------------------------------------------

pub(crate) struct QueryPlan {
    /// (slot, body) in definition order.
    pub ctes: Vec<(usize, QueryPlan)>,
    pub body: BodyPlan,
    /// Sort keys with their direction; empty without ORDER BY.
    pub order_by: Vec<(CExpr, bool)>,
    pub limit: Option<u64>,
    pub offset: Option<u64>,
}

pub(crate) enum BodyPlan {
    Select(Box<SelectPlan>),
    UnionAll { left: Box<BodyPlan>, right: Box<BodyPlan> },
}

pub(crate) struct SelectPlan {
    /// `None` for a SELECT without FROM: one row of no columns.
    pub from: Option<FromPlan>,
    /// The WHERE residue, applied after the joins: the conjuncts no FROM
    /// step enforced, AND-folded in written order; `None` when every
    /// conjunct was pushed into an inner step's scan or streamed at a join.
    pub filter: Option<CExpr>,
    pub output: Output,
    pub distinct: bool,
}

pub(crate) struct FromPlan {
    pub first: Source,
    pub joins: Vec<JoinPlan>,
}

/// A relation materialized with its pushed predicates.
pub(crate) enum Source {
    Table {
        table: usize,
        /// The table positions read, ascending: the row's columns.
        cols: Vec<usize>,
        /// An index probe `(column, key)` replacing the full scan.
        probe: Option<(usize, Value)>,
        /// Pushed conjuncts, cheapest first; the probe's own included.
        conds: Vec<CExpr>,
    },
    Cte {
        slot: usize,
        conds: Vec<CExpr>,
    },
}

pub(crate) enum JoinPlan {
    /// Lateral `UNNEST`: one compiled expression list per tuple.
    Unnest(Vec<Vec<CExpr>>),
    IndexJoin(Box<IndexJoin>),
    HashJoin(Box<HashJoin>),
}

/// Probe `table`'s index on `key_col` once per left row with `left_key`.
pub(crate) struct IndexJoin {
    pub table: usize,
    /// The table positions read, ascending: the right side's columns.
    pub cols: Vec<usize>,
    pub key_col: usize,
    pub left_key: CExpr,
    /// Pushed single-table conjuncts, evaluated on each probed row.
    pub push: Vec<CExpr>,
    /// The whole ON condition, evaluated on each combined row.
    pub residual: Vec<CExpr>,
    pub stream: Vec<CExpr>,
    pub outer: bool,
}

pub(crate) struct HashJoin {
    pub right: Source,
    pub lkeys: Vec<CExpr>,
    pub rkeys: Vec<CExpr>,
    /// ON conjuncts that are not join keys, over the combined row.
    pub residual: Vec<CExpr>,
    /// WHERE conjuncts that first become evaluable at this step, applied
    /// to each emitted row (see [`stream_filters`]).
    pub stream: Vec<CExpr>,
    pub right_width: usize,
    pub outer: bool,
}

pub(crate) enum Output {
    Project(Vec<CExpr>),
    Aggregate(Box<AggPlan>),
}

/// Hash aggregation: group keys and aggregate arguments over the input,
/// then HAVING and the projection over the intermediate row of group keys
/// followed by aggregate values.
pub(crate) struct AggPlan {
    pub group: Vec<CExpr>,
    /// No GROUP BY: an empty input still yields one row.
    pub global: bool,
    pub calls: Vec<AggCall>,
    pub having: Option<CExpr>,
    pub project: Vec<CExpr>,
}

pub(crate) struct AggCall {
    pub func: AggFunc,
    /// `None` for `COUNT(*)`.
    pub arg: Option<CExpr>,
    pub distinct: bool,
}

#[derive(Clone, Copy)]
pub(crate) enum AggFunc {
    Count,
    Sum,
    Avg,
    Min,
    Max,
}

// ---------------------------------------------------------------------------
// Name resolution
// ---------------------------------------------------------------------------

/// The columns visible to an expression.
#[derive(Clone, Copy)]
struct Scope<'c> {
    cols: &'c [OutCol],
}

enum Lookup {
    Missing,
    Found(usize),
    Ambiguous,
}

impl<'c> Scope<'c> {
    fn new(cols: &'c [OutCol]) -> Self {
        Scope { cols }
    }

    fn lookup(&self, qualifier: Option<&str>, name: &str) -> Lookup {
        let mut found = Lookup::Missing;
        for (i, c) in self.cols.iter().enumerate() {
            if &*c.name == name && qualifier.is_none_or(|q| c.qualifier.as_deref() == Some(q)) {
                if let Lookup::Found(_) = found {
                    return Lookup::Ambiguous;
                }
                found = Lookup::Found(i);
            }
        }
        found
    }

    /// Resolve `qualifier.name`; unqualified names must be unambiguous.
    fn resolve(&self, qualifier: Option<&str>, name: &str) -> Result<usize> {
        match self.lookup(qualifier, name) {
            Lookup::Found(i) => Ok(i),
            Lookup::Ambiguous => plan_err(format!("ambiguous column reference {name:?}")),
            Lookup::Missing => plan_err(format!(
                "unknown column {}{name}",
                qualifier.map(|q| format!("{q}.")).unwrap_or_default()
            )),
        }
    }

    /// True when the expression only references columns resolvable here.
    fn covers(&self, expr: &Expr) -> bool {
        all_columns(expr, &mut |q, n| matches!(self.lookup(q, n), Lookup::Found(_)))
    }
}

/// Whether `pred` holds for every column reference in `expr`.
fn all_columns<'e>(
    expr: &'e Expr,
    pred: &mut impl FnMut(Option<&'e str>, &'e str) -> bool,
) -> bool {
    match expr {
        Expr::Column { qualifier, name } => pred(qualifier.as_deref(), name),
        _ => expr.children().all(|e| all_columns(e, pred)),
    }
}

/// An expression referencing no column at all.
fn is_trivial(e: &Expr) -> bool {
    all_columns(e, &mut |_, _| false)
}

/// Compile an AST expression against a scope. Aggregate calls are rejected
/// here; the aggregation pass rewrites them into column references first.
fn compile(expr: &Expr, scope: &Scope<'_>, db: &Database) -> Result<CExpr> {
    let boxed = |e: &Expr| compile(e, scope, db).map(Box::new);
    Ok(match expr {
        Expr::Column { qualifier, name } => CExpr::Col(scope.resolve(qualifier.as_deref(), name)?),
        Expr::Literal(v) => CExpr::Lit(v.clone()),
        Expr::Binary { op, left, right } => {
            CExpr::Binary { op: *op, left: boxed(left)?, right: boxed(right)? }
        }
        Expr::Not(expr) => CExpr::Not(boxed(expr)?),
        Expr::IsNull { expr, negated } => CExpr::IsNull { expr: boxed(expr)?, negated: *negated },
        Expr::Case { branches, else_expr } => CExpr::Case {
            branches: branches
                .iter()
                .map(|(c, v)| Ok((compile(c, scope, db)?, compile(v, scope, db)?)))
                .collect::<Result<_>>()?,
            else_expr: boxed(else_expr)?,
        },
        Expr::Func { name, args, star, distinct } => {
            if *star || *distinct || is_aggregate(name) {
                return plan_err(format!("aggregate {name:?} not allowed in this context"));
            }
            let func = db
                .function(name)
                .ok_or_else(|| Error::Plan(format!("unknown function {name:?}")))?;
            CExpr::Call { func: func.clone(), args: compile_all(args, scope, db)? }
        }
    })
}

fn compile_all<'e>(
    exprs: impl IntoIterator<Item = &'e Expr>,
    scope: &Scope<'_>,
    db: &Database,
) -> Result<Vec<CExpr>> {
    exprs.into_iter().map(|e| compile(e, scope, db)).collect()
}

fn is_aggregate(name: &str) -> bool {
    matches!(name, "count" | "sum" | "min" | "max" | "avg")
}

/// An aggregate call: `COUNT(*)` or a call of an aggregate function.
fn is_aggregate_call(e: &Expr) -> bool {
    matches!(e, Expr::Func { name, star, .. } if *star || is_aggregate(name))
}

/// A function call or CASE anywhere in `e`.
fn is_expensive(e: &Expr) -> bool {
    matches!(e, Expr::Func { .. } | Expr::Case { .. }) || e.children().any(is_expensive)
}

/// Compiled pushed conjuncts, cheapest first: cheap comparisons
/// short-circuit before expensive ones. The executor stops at the first
/// rejecting conjunct, so on a selective scan this keeps e.g. a per-row
/// dictionary materialization behind an integer equality that filters most
/// rows out. Stable, so equal-cost conjuncts keep their written order.
fn compile_conds(push: &[&Expr], scope: &Scope<'_>, db: &Database) -> Result<Vec<CExpr>> {
    let mut push = push.to_vec();
    push.sort_by_key(|c| is_expensive(c));
    compile_all(push, scope, db)
}

// ---------------------------------------------------------------------------
// The compiler
// ---------------------------------------------------------------------------

/// Compile a parsed query against `db`'s schema.
pub(crate) fn prepare(q: &Query, db: &Database) -> Result<Prepared> {
    let mut c = Compiler { db, tables: Vec::new(), cte_readers: Vec::new(), ctes: Vec::new() };
    let (root, cols) = c.query(q)?;
    Ok(Prepared { root, cols, tables: c.tables, cte_readers: c.cte_readers })
}

struct Compiler<'q, 'db> {
    db: &'db Database,
    tables: Vec<(String, u64)>,
    cte_readers: Vec<u32>,
    /// The CTEs in scope, innermost last: (name, slot, output columns).
    ctes: Vec<(&'q str, usize, Vec<OutCol>)>,
}

/// One linearized FROM step: a comma-separated factor (an inner join), or
/// a `LEFT OUTER JOIN` with its ON condition.
struct Step<'q> {
    relation: &'q Relation,
    alias: Option<&'q str>,
    /// The ON condition of a left outer join; `None` for an inner step.
    on: Option<&'q Expr>,
}

fn linearize_from(from: &[TableFactor]) -> Vec<Step<'_>> {
    let mut steps = Vec::new();
    for factor in from {
        steps.push(Step { relation: &factor.relation, alias: factor.alias.as_deref(), on: None });
        for Join { relation, alias, on } in &factor.joins {
            steps.push(Step { relation, alias: alias.as_deref(), on: Some(on) });
        }
    }
    steps
}

/// A column reference: optional qualifier, name.
type ColRef<'q> = (Option<&'q str>, &'q str);

/// What every FROM step of one SELECT consults and updates.
struct SelectCtx<'q> {
    /// The WHERE conjuncts, in written order.
    where_: Vec<&'q Expr>,
    /// Per WHERE conjunct: enforced by a FROM step, so left out of the
    /// residue (see [`SelectPlan::filter`]).
    enforced: Vec<bool>,
    /// Every column reference the SELECT makes; `None` when a wildcard
    /// projects every column.
    refs: Option<Vec<ColRef<'q>>>,
}

impl<'q> SelectCtx<'q> {
    fn new(sel: &'q Select) -> Self {
        let where_: Vec<&Expr> =
            sel.where_clause.as_ref().map(|w| w.conjuncts()).unwrap_or_default();
        SelectCtx { enforced: vec![false; where_.len()], where_, refs: column_refs(sel) }
    }

    /// Whether a base-table column under `qualifier` must be read: some
    /// reference could resolve to it. Every reference that resolves (or is
    /// ambiguous) over the full table therefore does the same over the kept
    /// columns.
    fn reads(&self, qualifier: &str, name: &str) -> bool {
        self.refs.as_ref().is_none_or(|refs| {
            refs.iter().any(|&(q, n)| n == name && q.is_none_or(|q| q == qualifier))
        })
    }
}

/// Every column reference in `sel` that the FROM items' columns may
/// resolve: the projection, WHERE, every ON, the `UNNEST` tuples, GROUP BY
/// and HAVING. `None` when the projection has a wildcard.
fn column_refs(sel: &Select) -> Option<Vec<ColRef<'_>>> {
    let mut exprs: Vec<&Expr> = Vec::new();
    for item in &sel.projection {
        match item {
            SelectItem::Expr { expr, .. } => exprs.push(expr),
            SelectItem::Wildcard => return None,
        }
    }
    exprs.extend(sel.where_clause.iter().chain(&sel.group_by).chain(&sel.having));
    for step in linearize_from(&sel.from) {
        exprs.extend(step.on);
        if let Relation::Unnest { tuples, .. } = step.relation {
            exprs.extend(tuples.iter().flatten());
        }
    }
    let mut refs = Vec::new();
    for e in exprs {
        all_columns(e, &mut |q, n| {
            refs.push((q, n));
            true
        });
    }
    Some(refs)
}

/// What a named FROM item resolved to, with the columns a pushed predicate
/// may reference.
enum Target<'q, 'db> {
    /// `cols` are the kept columns, whose table positions are `keep`.
    Table {
        slot: usize,
        name: &'q str,
        table: &'db Table,
        cols: Vec<OutCol>,
        keep: Vec<usize>,
    },
    Cte {
        slot: usize,
        cols: Vec<OutCol>,
    },
}

impl Target<'_, '_> {
    fn cols(&self) -> &[OutCol] {
        match self {
            Target::Table { cols, .. } | Target::Cte { cols, .. } => cols,
        }
    }
}

/// `cols` under a new qualifier.
fn requalify(cols: &[OutCol], qualifier: &Arc<str>) -> Vec<OutCol> {
    let qualifier = Some(qualifier.clone());
    cols.iter().map(|c| OutCol { qualifier: qualifier.clone(), name: c.name.clone() }).collect()
}

/// ON conjuncts that reference only the new factor are pushed into its
/// scan; for inner steps, single-factor WHERE conjuncts are pushed too, and
/// marked enforced.
fn pushed<'q>(
    scope: &Scope<'_>,
    on: &[&'q Expr],
    inner: bool,
    sc: &mut SelectCtx<'q>,
) -> Vec<&'q Expr> {
    let mut push: Vec<&Expr> = on.iter().copied().filter(|c| scope.covers(c)).collect();
    if inner {
        for (c, enforced) in sc.where_.iter().zip(&mut sc.enforced) {
            if scope.covers(c) && !is_trivial(c) {
                push.push(c);
                *enforced = true;
            }
        }
    }
    push
}

/// WHERE conjuncts that become fully evaluable at this join step (they
/// reference right-side columns) are applied to each *emitted* row — after
/// the match/null-extension decision, so outer-join semantics are
/// preserved. Later steps only append columns, so a streamed conjunct holds
/// on every row built from one that passed it: it is enforced, and left out
/// of the residue. One already pushed into this step's scan is not streamed
/// again: every right row passed it. Streaming is what keeps e.g.
/// `rs.elm = prior.v` from materializing the whole multi-value expansion.
/// `combined` is the left columns then the right ones.
fn stream_filters(
    combined: &[OutCol],
    left_width: usize,
    sc: &mut SelectCtx<'_>,
    db: &Database,
) -> Result<Vec<CExpr>> {
    let (scope, left) = (Scope::new(combined), Scope::new(&combined[..left_width]));
    let mut streamed = Vec::new();
    for (c, enforced) in sc.where_.iter().zip(&mut sc.enforced) {
        if !*enforced && !is_trivial(c) && scope.covers(c) && !left.covers(c) {
            streamed.push(*c);
            *enforced = true;
        }
    }
    compile_all(streamed, &scope, db)
}

fn concat(left: &[OutCol], right: &[OutCol]) -> Vec<OutCol> {
    let mut cols = Vec::with_capacity(left.len() + right.len());
    cols.extend_from_slice(left);
    cols.extend_from_slice(right);
    cols
}

impl<'q, 'db> Compiler<'q, 'db> {
    fn query(&mut self, q: &'q Query) -> Result<(QueryPlan, Vec<OutCol>)> {
        // CTEs are visible to later CTEs and to the body; inner scopes shadow.
        let outer = self.ctes.len();
        let mut ctes = Vec::with_capacity(q.ctes.len());
        for (name, cte) in &q.ctes {
            let (plan, cols) = self.query(cte)?;
            let slot = self.cte_readers.len();
            self.cte_readers.push(0);
            self.ctes.push((name, slot, cols));
            ctes.push((slot, plan));
        }
        let body = self.body(&q.body);
        self.ctes.truncate(outer);
        let (body, cols) = body?;
        let order_by = order_keys(&q.order_by, &cols, self.db)?;
        Ok((QueryPlan { ctes, body, order_by, limit: q.limit, offset: q.offset }, cols))
    }

    fn body(&mut self, body: &'q QueryBody) -> Result<(BodyPlan, Vec<OutCol>)> {
        match body {
            QueryBody::Select(sel) => {
                let (plan, cols) = self.select(sel)?;
                Ok((BodyPlan::Select(Box::new(plan)), cols))
            }
            QueryBody::UnionAll { left, right } => {
                let (left, cols) = self.body(left)?;
                let (right, right_cols) = self.body(right)?;
                if cols.len() != right_cols.len() {
                    return plan_err(format!(
                        "UNION arity mismatch: {} vs {}",
                        cols.len(),
                        right_cols.len()
                    ));
                }
                Ok((BodyPlan::UnionAll { left: Box::new(left), right: Box::new(right) }, cols))
            }
        }
    }

    fn select(&mut self, sel: &'q Select) -> Result<(SelectPlan, Vec<OutCol>)> {
        let mut sc = SelectCtx::new(sel);
        let mut from: Option<FromPlan> = None;
        let mut cols = Vec::new();
        for step in linearize_from(&sel.from) {
            let out = match &mut from {
                None => {
                    let (first, out) = self.first_item(&step, &mut sc)?;
                    from = Some(FromPlan { first, joins: Vec::new() });
                    out
                }
                Some(f) => {
                    let (join, out) = self.join_step(&cols, &step, &mut sc)?;
                    f.joins.push(join);
                    out
                }
            };
            cols = out;
        }
        // Every conjunct still resolves over the whole FROM scope, so a name
        // a later item made ambiguous fails as before; only the ones no step
        // enforced are kept.
        let scope = Scope::new(&cols);
        let mut filter: Option<CExpr> = None;
        for (c, enforced) in sc.where_.iter().zip(&sc.enforced) {
            let c = compile(c, &scope, self.db)?;
            if !enforced {
                filter = Some(match filter {
                    None => c,
                    Some(f) => CExpr::Binary { op: BinaryOp::And, left: f.into(), right: c.into() },
                });
            }
        }
        let (output, out) = if select_has_aggregates(sel) || !sel.group_by.is_empty() {
            let (agg, out) = aggregate(sel, &cols, self.db)?;
            (Output::Aggregate(Box::new(agg)), out)
        } else {
            let (exprs, out) = project(&sel.projection, &cols, self.db)?;
            (Output::Project(exprs), out)
        };
        Ok((SelectPlan { from, filter, output, distinct: sel.distinct }, out))
    }

    /// Resolve a named FROM item: CTEs in scope shadow base tables, which
    /// keep only the columns `sc` reads.
    fn target(
        &mut self,
        relation: &'q Relation,
        alias: Option<&'q str>,
        sc: &SelectCtx<'q>,
    ) -> Result<Target<'q, 'db>> {
        let name = match relation {
            Relation::Named(name) => name.as_str(),
            Relation::Unnest { .. } => unreachable!("UNNEST steps are compiled by join_step"),
        };
        let qualifier: Arc<str> = alias.unwrap_or(name).into();
        if let Some((_, slot, cols)) = self.ctes.iter().rev().find(|(n, ..)| *n == name) {
            return Ok(Target::Cte { slot: *slot, cols: requalify(cols, &qualifier) });
        }
        let db = self.db;
        let table =
            db.lookup_table(name).ok_or_else(|| Error::Plan(format!("unknown table {name:?}")))?;
        let slot = match self.tables.iter().position(|(n, _)| n == name) {
            Some(slot) => slot,
            None => {
                self.tables.push((name.to_string(), table.shape_id()));
                self.tables.len() - 1
            }
        };
        let (mut cols, mut keep) = (Vec::new(), Vec::new());
        for (i, c) in table.schema.columns.iter().enumerate() {
            if sc.reads(&qualifier, &c.name) {
                cols.push(OutCol { qualifier: Some(qualifier.clone()), name: c.name.clone() });
                keep.push(i);
            }
        }
        Ok(Target::Table { slot, name, table, cols, keep })
    }

    /// Materialize a FROM item applying pushed predicates; for base tables
    /// an equality with a literal on an indexed column turns the scan into
    /// a probe. Returns the source and the columns it produces.
    fn source(&mut self, target: Target<'q, 'db>, push: &[&Expr]) -> Result<(Source, Vec<OutCol>)> {
        let db = self.db;
        match target {
            Target::Table { slot, table, cols, keep, .. } => {
                let scope = Scope::new(&cols);
                let conds = compile_conds(push, &scope, db)?;
                let probe = push.iter().find_map(|c| {
                    let Expr::Binary { op: BinaryOp::Eq, left, right } = c else { return None };
                    let (qualifier, name, key) = match (&**left, &**right) {
                        (Expr::Column { qualifier, name }, Expr::Literal(v))
                        | (Expr::Literal(v), Expr::Column { qualifier, name }) => {
                            (qualifier, name, v)
                        }
                        _ => return None,
                    };
                    if !matches!(scope.lookup(qualifier.as_deref(), name), Lookup::Found(_)) {
                        return None;
                    }
                    let ci = table.schema.position(name)?;
                    table.index_at(ci).map(|_| (ci, key.clone()))
                });
                Ok((Source::Table { table: slot, cols: keep, probe, conds }, cols))
            }
            Target::Cte { slot, cols } => {
                let conds = compile_conds(push, &Scope::new(&cols), db)?;
                self.cte_readers[slot] += 1;
                Ok((Source::Cte { slot, conds }, cols))
            }
        }
    }

    fn first_item(
        &mut self,
        step: &Step<'q>,
        sc: &mut SelectCtx<'q>,
    ) -> Result<(Source, Vec<OutCol>)> {
        if let Relation::Unnest { .. } = step.relation {
            return plan_err("UNNEST cannot be the first FROM item");
        }
        // The first step is a FROM factor: an inner step with no ON.
        let target = self.target(step.relation, step.alias, sc)?;
        let push = pushed(&Scope::new(target.cols()), &[], true, sc);
        self.source(target, &push)
    }

    /// Join the next FROM item onto `left`, the columns so far.
    fn join_step(
        &mut self,
        left: &[OutCol],
        step: &Step<'q>,
        sc: &mut SelectCtx<'q>,
    ) -> Result<(JoinPlan, Vec<OutCol>)> {
        let db = self.db;
        let left_scope = Scope::new(left);
        if let Relation::Unnest { tuples, columns } = step.relation {
            let tuples =
                tuples.iter().map(|t| compile_all(t, &left_scope, db)).collect::<Result<_>>()?;
            let qualifier: Option<Arc<str>> = step.alias.map(Into::into);
            let mut cols = left.to_vec();
            cols.extend(
                columns
                    .iter()
                    .map(|c| OutCol { qualifier: qualifier.clone(), name: c.as_str().into() }),
            );
            return Ok((JoinPlan::Unnest(tuples), cols));
        }

        let target = self.target(step.relation, step.alias, sc)?;
        let on: Vec<&Expr> = step.on.map(|e| e.conjuncts()).unwrap_or_default();
        let inner = step.on.is_none();
        let push = pushed(&Scope::new(target.cols()), &on, inner, sc);
        // Inner steps may take join conditions from WHERE as well as ON.
        let conds: Vec<&Expr> =
            on.iter().chain(if inner { &sc.where_[..] } else { &[] }).copied().collect();

        // Index nested-loop join: when the new factor is a base table and
        // some equi-condition probes an indexed column with a left-side
        // expression, loop over the (usually small) left relation and probe
        // the index instead of materializing and hashing the whole table.
        // This is what a relational engine does for
        // `prior ⋈ DPH ON dph.entry = prior.v`.
        if let Target::Table { slot, name, table, cols, keep } = &target {
            if let Some((key_col, left_key)) =
                index_probe(&conds, step.alias, name, table, &left_scope, db)?
            {
                let combined = concat(left, cols);
                let stream = stream_filters(&combined, left.len(), sc, db)?;
                let push = compile_conds(&push, &Scope::new(cols), db)?;
                // The whole ON condition re-checked per combined row (cheap, safe).
                let residual = compile_all(on.iter().copied(), &Scope::new(&combined), db)?;
                let join = IndexJoin {
                    table: *slot,
                    cols: keep.clone(),
                    key_col,
                    left_key,
                    push,
                    residual,
                    stream,
                    outer: !inner,
                };
                return Ok((JoinPlan::IndexJoin(Box::new(join)), combined));
            }
        }

        let (right, right_cols) = self.source(target, &push)?;
        let combined = concat(left, &right_cols);
        let stream = stream_filters(&combined, left.len(), sc, db)?;

        // Equi-join keys `left_expr = right_expr` among ON conjuncts and
        // (for inner joins) WHERE conjuncts; ON conjuncts that are not keys
        // stay residual.
        let right_scope = Scope::new(&right_cols);
        let (mut lkeys, mut rkeys) = (Vec::new(), Vec::new());
        let mut used_as_key = vec![false; on.len()];
        for (i, c) in conds.iter().enumerate() {
            let Expr::Binary { op: BinaryOp::Eq, left: a, right: b } = c else { continue };
            let (la, ra) = (left_scope.covers(a), right_scope.covers(a));
            let (lb, rb) = (left_scope.covers(b), right_scope.covers(b));
            let (l, r) = if la && rb && !ra {
                (a, b)
            } else if lb && ra && !rb {
                (b, a)
            } else {
                continue;
            };
            lkeys.push(compile(l, &left_scope, db)?);
            rkeys.push(compile(r, &right_scope, db)?);
            if i < on.len() {
                used_as_key[i] = true;
            }
        }
        let residual_on = on.iter().zip(&used_as_key).filter(|(_, &used)| !used).map(|(c, _)| *c);
        let residual = compile_all(residual_on, &Scope::new(&combined), db)?;
        let join = HashJoin {
            right,
            lkeys,
            rkeys,
            residual,
            stream,
            right_width: right_cols.len(),
            outer: !inner,
        };
        Ok((JoinPlan::HashJoin(Box::new(join)), combined))
    }
}

/// The first equality among `conds` that equates an indexed column of
/// `table` (unqualified, or qualified by its alias or name) with a
/// non-constant expression over the left columns: the probed column and
/// the compiled left-side key.
fn index_probe(
    conds: &[&Expr],
    alias: Option<&str>,
    name: &str,
    table: &Table,
    left: &Scope<'_>,
    db: &Database,
) -> Result<Option<(usize, CExpr)>> {
    for c in conds {
        let Expr::Binary { op: BinaryOp::Eq, left: a, right: b } = c else { continue };
        for (col_side, other) in [(a, b), (b, a)] {
            let Expr::Column { qualifier, name: column } = &**col_side else { continue };
            if !qualifier.as_deref().is_none_or(|q| alias == Some(q) || q == name) {
                continue;
            }
            let Some(ci) = table.schema.position(column) else { continue };
            if table.index_at(ci).is_some() && left.covers(other) && !is_trivial(other) {
                return Ok(Some((ci, compile(other, left, db)?)));
            }
        }
    }
    Ok(None)
}

/// ORDER BY keys: a positional integer, an output column, or an expression
/// over output columns.
fn order_keys(
    order_by: &[OrderItem],
    cols: &[OutCol],
    db: &Database,
) -> Result<Vec<(CExpr, bool)>> {
    let scope = Scope::new(cols);
    order_by
        .iter()
        .map(|item| {
            // An integer key is no column position in this dialect: it
            // would sort by a constant, so it is refused.
            if let Expr::Literal(Value::Int(n)) = &item.expr {
                return plan_err(format!(
                    "ORDER BY {n}: order by an output column, not a position"
                ));
            }
            // Projected columns lose their table qualifiers, but SQL permits
            // `ORDER BY t.col`; retry with qualifiers stripped when the
            // qualified reference no longer resolves.
            let e = &item.expr;
            let key =
                compile(e, &scope, db).or_else(|_| compile(&strip_qualifiers(e), &scope, db))?;
            Ok((key, item.asc))
        })
        .collect()
}

fn strip_qualifiers(e: &Expr) -> Expr {
    match e {
        Expr::Column { name, .. } => Expr::Column { qualifier: None, name: name.clone() },
        _ => e.map_children(strip_qualifiers),
    }
}

/// The projection's expressions and output columns.
fn project(
    items: &[SelectItem],
    input: &[OutCol],
    db: &Database,
) -> Result<(Vec<CExpr>, Vec<OutCol>)> {
    let scope = Scope::new(input);
    let mut cols: Vec<OutCol> = Vec::new();
    let mut exprs: Vec<CExpr> = Vec::new();
    for item in items {
        match item {
            SelectItem::Wildcard => {
                for (i, c) in input.iter().enumerate() {
                    cols.push(OutCol { qualifier: None, name: c.name.clone() });
                    exprs.push(CExpr::Col(i));
                }
            }
            SelectItem::Expr { expr, alias } => {
                let name: Arc<str> = match (alias, expr) {
                    (Some(alias), _) => alias.as_str().into(),
                    (None, Expr::Column { name, .. }) => name.as_str().into(),
                    _ => format!("col{}", cols.len() + 1).into(),
                };
                cols.push(OutCol { qualifier: None, name });
                exprs.push(compile(expr, &scope, db)?);
            }
        }
    }
    Ok((exprs, cols))
}

// ---------------------------------------------------------------------------
// Aggregation
// ---------------------------------------------------------------------------

fn select_has_aggregates(sel: &Select) -> bool {
    // An aggregate may hide inside a scalar call: COALESCE(SUM(x), 0).
    fn expr_has(e: &Expr) -> bool {
        is_aggregate_call(e) || e.children().any(expr_has)
    }
    sel.projection.iter().any(|i| match i {
        SelectItem::Expr { expr, .. } => expr_has(expr),
        SelectItem::Wildcard => false,
    }) || sel.having.as_ref().is_some_and(expr_has)
}

/// Hash aggregation. Supports projections/HAVING built from GROUP BY
/// expressions and aggregate calls.
fn aggregate(sel: &Select, input: &[OutCol], db: &Database) -> Result<(AggPlan, Vec<OutCol>)> {
    let in_scope = Scope::new(input);

    // The distinct aggregate calls appearing anywhere, in first-seen order.
    let mut calls: Vec<&Expr> = Vec::new();
    for item in &sel.projection {
        if let SelectItem::Expr { expr, .. } = item {
            find_aggregates(expr, &mut calls);
        }
    }
    if let Some(h) = &sel.having {
        find_aggregates(h, &mut calls);
    }

    let group = compile_all(&sel.group_by, &in_scope, db)?;
    let agg_calls = calls
        .iter()
        .map(|call| {
            let Expr::Func { name, args, star, distinct } = call else {
                unreachable!("find_aggregates collects calls only")
            };
            let func = match name.as_str() {
                "count" => AggFunc::Count,
                "sum" => AggFunc::Sum,
                "avg" => AggFunc::Avg,
                "min" => AggFunc::Min,
                "max" => AggFunc::Max,
                _ => return plan_err(format!("unknown aggregate {name:?}")),
            };
            let arg = if *star {
                None
            } else {
                let arg =
                    args.first().ok_or_else(|| Error::Plan(format!("{name} needs an argument")))?;
                Some(compile(arg, &in_scope, db)?)
            };
            Ok(AggCall { func, arg, distinct: *distinct })
        })
        .collect::<Result<_>>()?;

    // The intermediate row: group-by expressions, then aggregate values.
    let mut mid: Vec<OutCol> = sel
        .group_by
        .iter()
        .enumerate()
        .map(|(i, e)| OutCol {
            qualifier: None,
            name: match e {
                Expr::Column { name, .. } => name.as_str().into(),
                _ => format!("_g{i}").into(),
            },
        })
        .collect();
    mid.extend(
        (0..calls.len()).map(|i| OutCol { qualifier: None, name: format!("_agg{i}").into() }),
    );

    // Projection and HAVING are rewritten over the intermediate row.
    let rewrite = |e: &Expr| rewrite_agg(e, &sel.group_by, &calls);
    let having = match &sel.having {
        Some(h) => Some(compile(&rewrite(h), &Scope::new(&mid), db)?),
        None => None,
    };
    let items: Vec<SelectItem> = sel
        .projection
        .iter()
        .map(|item| match item {
            SelectItem::Expr { expr, alias } => {
                let name = alias.clone().or_else(|| match expr {
                    Expr::Column { name, .. } | Expr::Func { name, .. } => Some(name.clone()),
                    _ => None,
                });
                Ok(SelectItem::Expr { expr: rewrite(expr), alias: name })
            }
            _ => plan_err("wildcard projection is not supported with GROUP BY"),
        })
        .collect::<Result<_>>()?;
    let (project, cols) = project(&items, &mid, db)?;
    let plan =
        AggPlan { group, global: sel.group_by.is_empty(), calls: agg_calls, having, project };
    Ok((plan, cols))
}

/// Add the aggregate calls in `e` to `out`, skipping ones already there.
fn find_aggregates<'e>(e: &'e Expr, out: &mut Vec<&'e Expr>) {
    if is_aggregate_call(e) {
        if !out.contains(&e) {
            out.push(e);
        }
    } else {
        e.children().for_each(|c| find_aggregates(c, out));
    }
}

/// Replace group-by expressions and aggregate calls with references into the
/// intermediate aggregation row.
fn rewrite_agg(e: &Expr, group_by: &[Expr], agg_calls: &[&Expr]) -> Expr {
    if let Some(i) = agg_calls.iter().position(|a| *a == e) {
        return Expr::col(&format!("_agg{i}"));
    }
    if let Some(i) = group_by.iter().position(|g| g == e) {
        return match &group_by[i] {
            Expr::Column { name, .. } => Expr::col(name),
            _ => Expr::col(&format!("_g{i}")),
        };
    }
    e.map_children(|x| rewrite_agg(x, group_by, agg_calls))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::TableSchema;
    use crate::value::SqlType;

    /// A DPH-shaped table at U = 11: `entry`, `spill`, then `pred{i}`,
    /// `val{i}` pairs, 24 columns, indexed on `entry`; and a DS-shaped
    /// table indexed on `l_id`.
    fn db() -> Database {
        let mut db = Database::new();
        let ints = |name: &str, cols: &[String]| {
            TableSchema::new(name, cols.iter().map(|c| (c.clone(), SqlType::Int)).collect())
        };
        let mut dph = vec!["entry".to_string(), "spill".to_string()];
        dph.extend((0..11).flat_map(|i| [format!("pred{i}"), format!("val{i}")]));
        db.create_table(ints("dph", &dph)).unwrap();
        db.create_index("dph", "entry").unwrap();
        db.create_table(ints("ds", &["l_id".into(), "elm".into(), "extra".into()])).unwrap();
        db.create_index("ds", "l_id").unwrap();
        db.create_table(ints("src", &["c_x".into(), "c_y".into()])).unwrap();
        db
    }

    fn select(p: &Prepared) -> &SelectPlan {
        match &p.root.body {
            BodyPlan::Select(sel) => sel,
            BodyPlan::UnionAll { .. } => panic!("expected a SELECT body"),
        }
    }

    fn first_cols(sel: &SelectPlan) -> &[usize] {
        match &sel.from.as_ref().expect("a FROM").first {
            Source::Table { cols, .. } => cols,
            _ => panic!("expected a base-table first item"),
        }
    }

    fn index_join(sel: &SelectPlan, step: usize) -> &IndexJoin {
        match &sel.from.as_ref().expect("a FROM").joins[step] {
            JoinPlan::IndexJoin(j) => j,
            _ => panic!("expected an index nested-loop join at step {step}"),
        }
    }

    #[test]
    fn triangle_cte_reads_three_dph_columns_and_has_no_residue() {
        // The shape of the LQ9 triangle's `q5`.
        let p = db()
            .prepare(
                "WITH q4 AS (SELECT c_x, c_y FROM src)
                 SELECT P.c_x AS c_x, P.c_y AS c_y, COALESCE(S0.elm, T.val9) AS c_z
                 FROM q4 AS P, dph AS T LEFT OUTER JOIN ds AS S0 ON T.val9 = S0.l_id
                 WHERE T.entry = P.c_y AND (T.pred9 = 67)",
            )
            .unwrap();
        let sel = select(&p);
        let dph = index_join(sel, 0);
        assert_eq!(dph.cols, [0, 20, 21], "entry, pred9, val9 in table order");
        // `T.pred9 = 67` is pushed, so only the join equality is streamed.
        assert_eq!((dph.push.len(), dph.stream.len()), (1, 1));
        let ds = index_join(sel, 1);
        assert_eq!(ds.cols, [0, 1], "l_id and elm; extra is never read");
        assert!(ds.outer);
        assert!(sel.filter.is_none(), "every conjunct was pushed or streamed");
    }

    #[test]
    fn a_scan_keeps_only_referenced_columns_in_table_order() {
        let p = db().prepare("SELECT T.val3, T.entry FROM dph AS T WHERE T.pred3 = 5").unwrap();
        let sel = select(&p);
        assert_eq!(first_cols(sel), [0, 8, 9]);
        assert!(sel.filter.is_none());
    }

    #[test]
    fn a_wildcard_keeps_every_column() {
        let db = db();
        let p = db.prepare("SELECT * FROM dph").unwrap();
        assert_eq!(first_cols(select(&p)), (0..24).collect::<Vec<_>>());
        let p = db.prepare("SELECT * FROM dph AS T, src AS S WHERE T.entry = S.c_x").unwrap();
        let sel = select(&p);
        assert_eq!(first_cols(sel), (0..24).collect::<Vec<_>>());
        let JoinPlan::HashJoin(src) = &sel.from.as_ref().unwrap().joins[0] else {
            panic!("expected a hash join onto the unindexed src");
        };
        assert!(matches!(&src.right, Source::Table { cols, .. } if cols[..] == [0, 1]));
    }

    #[test]
    fn an_unqualified_name_in_two_factors_is_still_ambiguous() {
        let err = db().prepare("SELECT val0 FROM dph AS A, dph AS B WHERE A.entry = B.entry");
        assert!(matches!(err, Err(Error::Plan(m)) if m.contains("ambiguous")));
    }

    #[test]
    fn a_qualified_name_prunes_the_same_name_in_another_factor() {
        let p =
            db().prepare("SELECT A.val0 FROM dph AS A, dph AS B WHERE A.entry = B.entry").unwrap();
        let sel = select(&p);
        assert_eq!(first_cols(sel), [0, 3]);
        assert_eq!(index_join(sel, 0).cols, [0], "B.val0 is never named");
        assert!(sel.filter.is_none());
    }

    #[test]
    fn an_unenforced_conjunct_stays_in_the_residue() {
        // A column-free conjunct is never pushed, so it is the residue.
        let p = db().prepare("SELECT entry FROM dph WHERE 1 = 0 AND pred0 = 2").unwrap();
        let sel = select(&p);
        assert_eq!(first_cols(sel), [0, 2]);
        assert!(matches!(&sel.filter, Some(CExpr::Binary { op: BinaryOp::Eq, .. })));
    }
}
