//! Query execution: the operators a [`Prepared`](crate::Prepared) plan
//! tree runs — scans and index probes, index nested-loop and hash joins,
//! `UNNEST`, filters, projection, aggregation, deduplication, sorting — and
//! the compiled expressions they evaluate. Every name was resolved by the
//! compile pass (`plan`); nothing here looks one up.
//!
//! Hot operators run morsel-parallel on scoped threads, one
//! `std::thread::scope` per parallel region (see
//! [`parallel_morsels_with`], the one driver), and concatenate their
//! outputs in morsel order. Hash-join builds and `DISTINCT` run
//! sequentially in row order. So a result, row order included, is the same
//! at every thread count.
//!
//! Every run is profiled: each operator appends one [`NodeStat`] for its
//! plan node, on the orchestrating thread, when it returns (see
//! [`Profile`]). There is no untimed path.

use std::collections::hash_map::Entry;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::database::{Database, ScalarFn};
use crate::error::{exec_err, Error, Result};
use crate::hash::{FxBuildHasher, FxHashMap, FxHashSet};
use crate::plan::{
    AggFunc, AggPlan, BodyPlan, HashJoin, IndexJoin, JoinPlan, Output, Prepared, QueryPlan,
    SelectPlan, Source,
};
use crate::sql::ast::BinaryOp;
use crate::table::Table;
use crate::value::Value;

/// An output column: optional table qualifier plus name (both lowercase),
/// shared so that copying a column list copies no string bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutCol {
    pub qualifier: Option<Arc<str>>,
    pub name: Arc<str>,
}

/// A materialized relation: the result of executing a query.
#[derive(Debug, Clone, PartialEq)]
pub struct Rel {
    pub cols: Vec<OutCol>,
    pub rows: Vec<Vec<Value>>,
}

impl Rel {
    pub fn column_names(&self) -> Vec<&str> {
        self.cols.iter().map(|c| &*c.name).collect()
    }
}

/// The rows of an intermediate relation; its columns are known to the plan.
type Rows = Vec<Vec<Value>>;

/// The four-phase view of a run, summed from its [`Profile`] by node kind
/// (see [`Profile::phases`]): what `Database::query_traced` reports.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseTimings {
    pub scan_secs: f64,
    pub build_secs: f64,
    pub probe_secs: f64,
    pub agg_secs: f64,
}

/// What a plan node does; see [`NodeStat`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// A base table read in full or through an index probe.
    TableScan,
    /// A stored CTE's rows (a copy for all but the last reader), filtered.
    CteRead,
    IndexJoin,
    /// A hash join's key table over its right side, freeing it included.
    HashBuild,
    /// A hash join's probe and materialization, freeing both inputs included.
    HashProbe,
    Unnest,
    /// The WHERE residue, applied after the joins.
    Filter,
    /// Hash aggregation and HAVING.
    Aggregate,
    Project,
    Distinct,
    Sort,
    UnionAll,
    /// A CTE's rows stored in `slot` for its `readers` scans.
    Cte { slot: usize, readers: u32 },
}

/// What one plan node did on one run: the rows it took in, the base-table
/// rows it passed to `gather_into`, the rows it produced, and its own time
/// (freeing what it consumed included). Each count is a length the
/// operator holds on the orchestrating thread, the same at every width.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeStat {
    pub kind: NodeKind,
    pub rows_in: usize,
    pub gathered: usize,
    pub rows_out: usize,
    pub ns: u64,
}

/// One [`NodeStat`] per plan node, appended as each node returns. The
/// executor visits a plan's nodes in the same order on every run, so a
/// record's position is its node id.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Profile {
    pub nodes: Vec<NodeStat>,
}

impl Profile {
    /// Seconds spent in the nodes whose kind `pred` accepts.
    pub fn secs(&self, pred: impl Fn(NodeKind) -> bool) -> f64 {
        self.nodes.iter().filter(|n| pred(n.kind)).map(|n| n.ns).sum::<u64>() as f64 / 1e9
    }

    /// Scan is table scans and CTE reads, build the hash builds, probe
    /// the index joins and hash probes, agg the aggregates.
    pub fn phases(&self) -> PhaseTimings {
        use NodeKind::*;
        PhaseTimings {
            scan_secs: self.secs(|k| matches!(k, TableScan | CteRead)),
            build_secs: self.secs(|k| k == HashBuild),
            probe_secs: self.secs(|k| matches!(k, IndexJoin | HashProbe)),
            agg_secs: self.secs(|k| k == Aggregate),
        }
    }
}

/// A CTE's materialized rows and the scans still to read them.
struct CteSlot {
    rows: Rows,
    readers: u32,
}

/// Everything one execution of a plan shares across its operators: the
/// snapshot's tables by plan slot, the CTE results by plan slot, the row
/// budget that stands in for a query timeout, the parallel width resolved
/// once for the query, and the node records. The budget is atomic so
/// morsel workers can charge it concurrently through a shared `&ExecCtx`.
struct ExecCtx<'a> {
    tables: Vec<&'a Table>,
    ctes: Mutex<Vec<CteSlot>>,
    budget: AtomicU64,
    /// Wall-clock deadline (the paper's 10-minute query timeout), checked at
    /// the same sites as the row budget. `None` costs only a branch.
    deadline: Option<Instant>,
    /// Threads a parallel region may use, the caller included; 1 runs
    /// every region inline.
    threads: usize,
    /// The [`Profile`]'s records, appended on the orchestrating thread only.
    nodes: Mutex<Vec<NodeStat>>,
}

impl ExecCtx<'_> {
    /// Append the record of a node that returned `t` after it started. An
    /// operator frees what it consumed before it records.
    fn record(&self, kind: NodeKind, rows_in: usize, gathered: usize, rows_out: usize, t: Duration) {
        let stat = NodeStat { kind, rows_in, gathered, rows_out, ns: t.as_nanos() as u64 };
        self.nodes.lock().expect("no operator panics holding the records").push(stat);
    }

    /// Keep a CTE's rows for its readers (none: drop them now); returns
    /// how many readers it has.
    fn store_cte(&self, slot: usize, rows: Rows) -> u32 {
        let mut ctes = self.ctes.lock().expect("no operator panics holding the CTE slots");
        if ctes[slot].readers > 0 {
            ctes[slot].rows = rows;
        }
        ctes[slot].readers
    }

    /// A CTE's rows for one of its readers: a copy, except that the last
    /// reader takes the rows themselves.
    fn read_cte(&self, slot: usize) -> Rows {
        let mut ctes = self.ctes.lock().expect("no operator panics holding the CTE slots");
        let cte = &mut ctes[slot];
        cte.readers -= 1;
        if cte.readers == 0 {
            std::mem::take(&mut cte.rows)
        } else {
            cte.rows.clone()
        }
    }

    fn charge(&self, n: usize) -> Result<()> {
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Err(Error::Timeout);
            }
        }
        let n = n as u64;
        // Deduct atomically; concurrent workers race on the same counter, so
        // the sum of successful charges never exceeds the initial budget.
        self.budget
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |left| left.checked_sub(n))
            .map(|_| ())
            .map_err(|_| Error::LimitExceeded)
    }
}

/// Run a prepared plan on `db`, whose copies of the plan's tables are
/// `tables` (bound and shape-checked by the caller).
pub(crate) fn execute(p: &Prepared, db: &Database, tables: Vec<&Table>) -> Result<(Rel, Profile)> {
    let ctes = p.cte_readers.iter().map(|&readers| CteSlot { rows: Vec::new(), readers });
    let ctx = ExecCtx {
        tables,
        ctes: Mutex::new(ctes.collect()),
        budget: AtomicU64::new(db.row_budget().unwrap_or(u64::MAX)),
        deadline: db.deadline().map(|d| Instant::now() + d),
        threads: db.threads(),
        nodes: Mutex::new(Vec::new()),
    };
    let rows = exec_query(&p.root, &ctx)?;
    let nodes = ctx.nodes.into_inner().expect("no operator panics holding the records");
    Ok((Rel { cols: p.cols.clone(), rows }, Profile { nodes }))
}

// ---------------------------------------------------------------------------
// Morsel-driven parallelism
// ---------------------------------------------------------------------------

/// Rows per morsel. Large enough that per-morsel overhead (one atomic
/// fetch_add, one Vec) is negligible; small enough that a typical scan
/// splits into many work units for load balancing.
pub const MORSEL_ROWS: usize = 4096;

/// Run `work` over fixed-size morsels of `0..n` and concatenate the outputs
/// **in morsel order**, so the result is identical to a sequential
/// left-to-right pass regardless of thread count.
fn parallel_morsels<R, F>(ctx: &ExecCtx<'_>, n: usize, work: F) -> Result<Vec<R>>
where
    R: Send,
    F: Fn(std::ops::Range<usize>) -> Result<Vec<R>> + Sync,
{
    parallel_morsels_with(ctx, n, |range, _: &mut ()| work(range))
}

/// [`parallel_morsels`] with one `S::default()` per participating thread,
/// kept across every morsel that thread runs — how a scan worker keeps one
/// row buffer for its whole region instead of one per morsel. This is the
/// one parallel driver.
///
/// `threads − 1` scoped workers plus the calling thread pull morsel indices
/// from a shared atomic counter (morsel-driven scheduling: fast threads take
/// more morsels). No more threads run than there are morsels, and a width
/// of one runs inline, spawning nothing. On error the unclaimed morsels are
/// abandoned and the first error in morsel order is returned — every morsel
/// before it was claimed earlier and ran to completion, so which error wins
/// never depends on scheduling. A panic in any thread re-raises here once
/// every thread has joined (the `std::thread::scope` contract), so no
/// borrow outlives the call.
fn parallel_morsels_with<R, S, F>(ctx: &ExecCtx<'_>, n: usize, work: F) -> Result<Vec<R>>
where
    R: Send,
    S: Default,
    F: Fn(std::ops::Range<usize>, &mut S) -> Result<Vec<R>> + Sync,
{
    let morsels = n.div_ceil(MORSEL_ROWS);
    let morsel = |m: usize, local: &mut S| {
        work(m * MORSEL_ROWS..((m + 1) * MORSEL_ROWS).min(n), local)
    };
    let width = ctx.threads.min(morsels);
    let mut outs: Vec<Vec<R>> = if width <= 1 {
        let mut local = S::default();
        (0..morsels).map(|m| morsel(m, &mut local)).collect::<Result<_>>()?
    } else {
        let next = AtomicUsize::new(0);
        let failed = AtomicBool::new(false);
        let run = || {
            let mut local = S::default();
            let mut done = Vec::new();
            while !failed.load(Ordering::Relaxed) {
                let m = next.fetch_add(1, Ordering::Relaxed);
                if m >= morsels {
                    break;
                }
                let res = morsel(m, &mut local);
                if res.is_err() {
                    failed.store(true, Ordering::Relaxed);
                }
                done.push((m, res));
            }
            done
        };
        let mut slots: Vec<Option<Result<Vec<R>>>> = (0..morsels).map(|_| None).collect();
        std::thread::scope(|s| {
            let workers: Vec<_> = (1..width).map(|_| s.spawn(run)).collect();
            let mine = run();
            for done in workers.into_iter().map(|w| w.join()).chain([Ok(mine)]) {
                let done = done.unwrap_or_else(|panic| std::panic::resume_unwind(panic));
                for (m, res) in done {
                    slots[m] = Some(res);
                }
            }
        });
        // Unclaimed morsels (`None`) all come after the first error.
        slots.into_iter().flatten().collect::<Result<_>>()?
    };
    if outs.len() == 1 {
        return Ok(outs.pop().expect("one morsel"));
    }
    let mut out = Vec::with_capacity(outs.iter().map(Vec::len).sum());
    for part in outs {
        out.extend(part);
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Compiled expressions
// ---------------------------------------------------------------------------

/// An expression with every column resolved to a position in the row it is
/// evaluated on and every function bound.
#[derive(Clone)]
pub enum CExpr {
    Col(usize),
    Lit(Value),
    Binary { op: BinaryOp, left: Box<CExpr>, right: Box<CExpr> },
    Not(Box<CExpr>),
    IsNull { expr: Box<CExpr>, negated: bool },
    Case { branches: Vec<(CExpr, CExpr)>, else_expr: Box<CExpr> },
    Call { func: ScalarFn, args: Vec<CExpr> },
}

/// Row abstraction for expression evaluation. Implemented for plain slices
/// and for [`SplitRow`], a zero-copy view of a left row logically
/// concatenated with a right row — how the hash join evaluates residual and
/// stream predicates on candidate matches *before* materializing them.
pub trait RowAccess {
    fn col(&self, i: usize) -> &Value;
}

impl RowAccess for [Value] {
    #[inline]
    fn col(&self, i: usize) -> &Value {
        &self[i]
    }
}

impl RowAccess for Vec<Value> {
    #[inline]
    fn col(&self, i: usize) -> &Value {
        &self[i]
    }
}

/// A left row and a right row viewed as one combined row, without copying.
#[derive(Clone, Copy)]
pub struct SplitRow<'a> {
    pub left: &'a [Value],
    pub right: &'a [Value],
}

impl RowAccess for SplitRow<'_> {
    #[inline]
    fn col(&self, i: usize) -> &Value {
        if i < self.left.len() {
            &self.left[i]
        } else {
            &self.right[i - self.left.len()]
        }
    }
}

impl CExpr {
    pub fn eval<R: RowAccess + ?Sized>(&self, row: &R) -> Result<Value> {
        Ok(match self {
            // These clones never copy string bytes: `Value::Str` holds an
            // `Arc<str>`, so Col/Lit cost a refcount bump (or an 8-byte copy
            // for Int/Double/Bool).
            CExpr::Col(i) => row.col(*i).clone(),
            CExpr::Lit(v) => v.clone(),
            CExpr::Binary { op, left, right } => {
                eval_binary(*op, left.eval(row)?, right.eval(row)?)?
            }
            CExpr::Not(expr) => match to_bool3(&expr.eval(row)?)? {
                Some(b) => Value::Bool(!b),
                None => Value::Null,
            },
            CExpr::IsNull { expr, negated } => {
                let v = expr.eval(row)?;
                Value::Bool(v.is_null() != *negated)
            }
            CExpr::Case { branches, else_expr } => {
                for (cond, val) in branches {
                    if to_bool3(&cond.eval(row)?)? == Some(true) {
                        return val.eval(row);
                    }
                }
                else_expr.eval(row)?
            }
            CExpr::Call { func, args } => {
                if let [arg] = args.as_slice() {
                    // Single-argument calls (the common shape for the RDF_*
                    // dictionary functions) skip the per-call argument Vec.
                    let v = arg.eval(row)?;
                    func(std::slice::from_ref(&v))?
                } else {
                    let mut vals = Vec::with_capacity(args.len());
                    for a in args {
                        vals.push(a.eval(row)?);
                    }
                    func(&vals)?
                }
            }
        })
    }

    /// Evaluate as a WHERE/ON condition: NULL and FALSE both reject.
    pub fn eval_truthy<R: RowAccess + ?Sized>(&self, row: &R) -> Result<bool> {
        // Equality against a column — the hot shape for pushed scan filters
        // and join residuals — compares in place instead of cloning both
        // operands into owned `Value`s. `sql_eq == Some(true)` is exactly
        // what the generic path reduces to (NULL compares reject).
        if let CExpr::Binary { op: BinaryOp::Eq, left, right } = self {
            let pair = match (&**left, &**right) {
                (CExpr::Col(i), CExpr::Lit(v)) | (CExpr::Lit(v), CExpr::Col(i)) => {
                    Some((row.col(*i), v))
                }
                (CExpr::Col(a), CExpr::Col(b)) => Some((row.col(*a), row.col(*b))),
                _ => None,
            };
            if let Some((l, r)) = pair {
                return Ok(l.sql_eq(r) == Some(true));
            }
        }
        Ok(to_bool3(&self.eval(row)?)? == Some(true))
    }
}

fn to_bool3(v: &Value) -> Result<Option<bool>> {
    match v {
        Value::Null => Ok(None),
        Value::Bool(b) => Ok(Some(*b)),
        other => exec_err(format!("expected BOOLEAN, found {}", other.type_name())),
    }
}

fn eval_binary(op: BinaryOp, l: Value, r: Value) -> Result<Value> {
    use BinaryOp::*;
    Ok(match op {
        And => {
            let (a, b) = (to_bool3(&l)?, to_bool3(&r)?);
            match (a, b) {
                (Some(false), _) | (_, Some(false)) => Value::Bool(false),
                (Some(true), Some(true)) => Value::Bool(true),
                _ => Value::Null,
            }
        }
        Or => {
            let (a, b) = (to_bool3(&l)?, to_bool3(&r)?);
            match (a, b) {
                (Some(true), _) | (_, Some(true)) => Value::Bool(true),
                (Some(false), Some(false)) => Value::Bool(false),
                _ => Value::Null,
            }
        }
        Eq => l.sql_eq(&r).map(Value::Bool).unwrap_or(Value::Null),
        NotEq => l.sql_eq(&r).map(|b| Value::Bool(!b)).unwrap_or(Value::Null),
        Lt => cmp_to_bool(&l, &r, |o| o == std::cmp::Ordering::Less),
        LtEq => cmp_to_bool(&l, &r, |o| o != std::cmp::Ordering::Greater),
        Gt => cmp_to_bool(&l, &r, |o| o == std::cmp::Ordering::Greater),
        GtEq => cmp_to_bool(&l, &r, |o| o != std::cmp::Ordering::Less),
        Add | Sub | Mul | Div => arith(op, &l, &r),
    })
}

fn cmp_to_bool(l: &Value, r: &Value, pred: impl Fn(std::cmp::Ordering) -> bool) -> Value {
    match l.sql_cmp(r) {
        Some(o) => Value::Bool(pred(o)),
        None => Value::Null,
    }
}

/// Arithmetic: NULL-propagating, numeric-only. A non-numeric operand yields
/// NULL (lenient, so FILTERs over heterogeneous RDF literals do not abort).
fn arith(op: BinaryOp, l: &Value, r: &Value) -> Value {
    if l.is_null() || r.is_null() {
        return Value::Null;
    }
    if let (Value::Int(a), Value::Int(b)) = (l, r) {
        return match op {
            BinaryOp::Add => a.checked_add(*b).map(Value::Int).unwrap_or(Value::Null),
            BinaryOp::Sub => a.checked_sub(*b).map(Value::Int).unwrap_or(Value::Null),
            BinaryOp::Mul => a.checked_mul(*b).map(Value::Int).unwrap_or(Value::Null),
            BinaryOp::Div => {
                if *b == 0 {
                    Value::Null
                } else {
                    Value::Int(a / b)
                }
            }
            _ => unreachable!(),
        };
    }
    match (l.as_f64(), r.as_f64()) {
        (Some(a), Some(b)) => match op {
            BinaryOp::Add => Value::Double(a + b),
            BinaryOp::Sub => Value::Double(a - b),
            BinaryOp::Mul => Value::Double(a * b),
            BinaryOp::Div => {
                if b == 0.0 {
                    Value::Null
                } else {
                    Value::Double(a / b)
                }
            }
            _ => unreachable!(),
        },
        _ => Value::Null,
    }
}

// ---------------------------------------------------------------------------
// Query execution
// ---------------------------------------------------------------------------

fn exec_query(q: &QueryPlan, ctx: &ExecCtx<'_>) -> Result<Rows> {
    for (slot, cte) in &q.ctes {
        let rows = exec_query(cte, ctx)?;
        let (t0, n) = (Instant::now(), rows.len());
        let readers = ctx.store_cte(*slot, rows);
        ctx.record(NodeKind::Cte { slot: *slot, readers }, n, 0, n, t0.elapsed());
    }
    let mut rows = exec_body(&q.body, ctx)?;
    if !q.order_by.is_empty() {
        let t0 = Instant::now();
        sort_rows(&mut rows, &q.order_by, ctx)?;
        ctx.record(NodeKind::Sort, rows.len(), 0, rows.len(), t0.elapsed());
    }
    apply_limit(&mut rows, q.limit, q.offset);
    Ok(rows)
}

fn exec_body(body: &BodyPlan, ctx: &ExecCtx<'_>) -> Result<Rows> {
    match body {
        BodyPlan::Select(sel) => exec_select(sel, ctx),
        BodyPlan::UnionAll { left, right } => {
            let mut l = exec_body(left, ctx)?;
            let r = exec_body(right, ctx)?;
            let (t0, n) = (Instant::now(), l.len() + r.len());
            ctx.charge(r.len())?;
            l.extend(r);
            ctx.record(NodeKind::UnionAll, n, 0, n, t0.elapsed());
            Ok(l)
        }
    }
}

/// Keep the rows whose `keep` entry is true, in order.
fn retain_mask(rows: &mut Rows, keep: &[bool]) {
    let mut i = 0;
    rows.retain(|_| {
        let k = keep[i];
        i += 1;
        k
    });
}

/// Remove duplicate rows, keeping first occurrences in order: one pass in
/// row order over a set of borrowed rows, then an in-place `retain`, so no
/// row is cloned.
fn dedupe(rows: &mut Rows) {
    let mut seen: FxHashSet<&[Value]> =
        FxHashSet::with_capacity_and_hasher(rows.len(), FxBuildHasher::default());
    let keep: Vec<bool> = rows.iter().map(|r| seen.insert(r.as_slice())).collect();
    retain_mask(rows, &keep);
}

fn sort_rows(rows: &mut Rows, keys: &[(CExpr, bool)], ctx: &ExecCtx<'_>) -> Result<()> {
    // Decorate-sort-undecorate; key extraction (the expression-evaluation
    // part) runs morsel-parallel, the comparison sort stays sequential and
    // stable so equal keys preserve input order at every thread count.
    let all = &*rows;
    let extracted: Vec<Vec<Value>> = parallel_morsels(ctx, all.len(), |range| {
        range
            .map(|i| keys.iter().map(|(k, _)| k.eval(&all[i])).collect::<Result<Vec<_>>>())
            .collect()
    })?;
    let mut decorated: Vec<(Vec<Value>, Vec<Value>)> =
        extracted.into_iter().zip(rows.drain(..)).collect();
    decorated.sort_by(|(ka, _), (kb, _)| {
        for (i, (_, asc)) in keys.iter().enumerate() {
            let o = ka[i].total_cmp(&kb[i]);
            if o != std::cmp::Ordering::Equal {
                return if *asc { o } else { o.reverse() };
            }
        }
        std::cmp::Ordering::Equal
    });
    *rows = decorated.into_iter().map(|(_, r)| r).collect();
    Ok(())
}

fn apply_limit(rows: &mut Rows, limit: Option<u64>, offset: Option<u64>) {
    if let Some(off) = offset {
        let off = (off as usize).min(rows.len());
        rows.drain(..off);
    }
    if let Some(lim) = limit {
        rows.truncate(lim as usize);
    }
}

fn exec_select(sel: &SelectPlan, ctx: &ExecCtx<'_>) -> Result<Rows> {
    // FROM: fold steps left to right.
    let mut rows = match &sel.from {
        Some(from) => {
            let mut rows = scan(&from.first, ctx)?;
            for join in &from.joins {
                rows = match join {
                    JoinPlan::Unnest(tuples) => unnest(rows, tuples, ctx)?,
                    JoinPlan::IndexJoin(j) => index_nested_loop(rows, j, ctx)?,
                    JoinPlan::HashJoin(j) => {
                        let right = scan(&j.right, ctx)?;
                        hash_join(rows, right, j, ctx)?
                    }
                };
            }
            rows
        }
        // SELECT without FROM: a single empty row.
        None => vec![Vec::new()],
    };

    // WHERE: the residue of conjuncts no FROM step enforced (see
    // `SelectPlan::filter`). It is evaluated morsel-parallel into a
    // keep-mask; the in-order retain keeps the survivors in their order.
    if let Some(cond) = &sel.filter {
        let (t0, rows_in) = (Instant::now(), rows.len());
        let all = &rows;
        let keep: Vec<bool> = parallel_morsels(ctx, all.len(), |range| {
            range.map(|i| cond.eval_truthy(&all[i])).collect()
        })?;
        retain_mask(&mut rows, &keep);
        ctx.record(NodeKind::Filter, rows_in, 0, rows.len(), t0.elapsed());
    }

    rows = match &sel.output {
        Output::Aggregate(agg) => aggregate(agg, rows, ctx)?,
        Output::Project(exprs) => project(exprs, rows, ctx)?,
    };
    if sel.distinct {
        let (t0, rows_in) = (Instant::now(), rows.len());
        dedupe(&mut rows);
        ctx.record(NodeKind::Distinct, rows_in, 0, rows.len(), t0.elapsed());
    }
    Ok(rows)
}

/// Materialize a relation applying its pushed predicates; a base table
/// with a probe reads only the rows its index names, and of each row only
/// the cells the plan kept.
fn scan(source: &Source, ctx: &ExecCtx<'_>) -> Result<Rows> {
    let t0 = Instant::now();
    let (table, cols, probe, conds) = match source {
        Source::Table { table, cols, probe, conds } => (ctx.tables[*table], cols, probe, conds),
        Source::Cte { slot, conds } => {
            let cte = ctx.read_cte(*slot);
            let rows_in = cte.len();
            let rows = filter_rows(cte, conds, ctx)?;
            ctx.record(NodeKind::CteRead, rows_in, 0, rows.len(), t0.elapsed());
            return Ok(rows);
        }
    };
    let (rows, gathered) = match probe {
        Some((ci, key)) => {
            // Index probes touch few rows; stay sequential.
            let index = table.index_at(*ci).expect("the shape check keeps the probed index");
            let rids = index.lookup(key);
            let (mut rows, mut buf) = (Vec::new(), Vec::new());
            for &rid in rids {
                table.row(rid).gather_into(cols, &mut buf);
                if eval_all(conds, &buf)? {
                    rows.push(std::mem::take(&mut buf));
                }
            }
            ctx.charge(rows.len())?;
            (rows, rids.len())
        }
        None => {
            // Morsel-parallel full scan: each thread gathers and filters
            // its morsel, charging the budget as it goes, so
            // LimitExceeded fires from inside worker threads. Each thread
            // keeps one row buffer for its whole region, so rejected rows
            // (the common case on a filtered scan) never pay a heap
            // allocation. A morsel is a run of whole row chunks, each
            // walked as one contiguous slice.
            let rows = parallel_morsels_with(ctx, table.row_count(), |range, buf: &mut Vec<Value>| {
                let mut out = Vec::new();
                for rows in table.row_slices(range) {
                    for r in rows {
                        r.gather_into(cols, buf);
                        if eval_all(conds, buf)? {
                            out.push(std::mem::take(buf));
                        }
                    }
                }
                ctx.charge(out.len())?;
                Ok(out)
            })?;
            (rows, table.row_count())
        }
    };
    ctx.record(NodeKind::TableScan, gathered, gathered, rows.len(), t0.elapsed());
    Ok(rows)
}

/// Probe the table's index once per left row, applying the pushed
/// single-table predicates to each probed row and the full join condition
/// to each combined row. Handles both inner and left-outer joins.
///
/// Late-materializing, like [`hash_join`]: each probed row's kept cells are
/// gathered into one scratch row, the predicates run on a [`SplitRow`] view
/// of the pair, and a combined row is allocated only for a survivor. It
/// stays sequential: measured on 2 cores, a morsel-parallel version was no
/// faster, so splitting it waits for a host that can show a gain.
fn index_nested_loop(left: Rows, j: &IndexJoin, ctx: &ExecCtx<'_>) -> Result<Rows> {
    let table = ctx.tables[j.table];
    let index = table.index_at(j.key_col).expect("the shape check keeps the probed index");
    let t0 = Instant::now();
    let nulls = vec![Value::Null; j.cols.len()];
    let mut buf = Vec::with_capacity(j.cols.len());
    let (mut rows, mut gathered) = (Vec::new(), 0);
    let emit = |rows: &mut Rows, pair: SplitRow<'_>| -> Result<()> {
        if eval_all(&j.stream, &pair)? {
            let mut combined = Vec::with_capacity(pair.left.len() + pair.right.len());
            combined.extend_from_slice(pair.left);
            combined.extend_from_slice(pair.right);
            rows.push(combined);
        }
        Ok(())
    };
    for l in &left {
        let key = j.left_key.eval(l)?;
        let rids: &[u32] = if key.is_null() { &[] } else { index.lookup(&key) };
        ctx.charge(rids.len().max(1))?;
        gathered += rids.len();
        let mut matched = false;
        for &rid in rids {
            table.row(rid).gather_into(&j.cols, &mut buf);
            if !eval_all(&j.push, &buf)? {
                continue;
            }
            let pair = SplitRow { left: l, right: &buf };
            if !eval_all(&j.residual, &pair)? {
                continue;
            }
            matched = true;
            emit(&mut rows, pair)?;
        }
        if !matched && j.outer {
            emit(&mut rows, SplitRow { left: l, right: &nulls })?;
        }
    }
    let rows_in = left.len();
    drop(left);
    ctx.record(NodeKind::IndexJoin, rows_in, gathered, rows.len(), t0.elapsed());
    Ok(rows)
}

fn eval_all<R: RowAccess + ?Sized>(conds: &[CExpr], row: &R) -> Result<bool> {
    for c in conds {
        if !c.eval_truthy(row)? {
            return Ok(false);
        }
    }
    Ok(true)
}

fn filter_rows(mut rows: Rows, conds: &[CExpr], ctx: &ExecCtx<'_>) -> Result<Rows> {
    let all = &rows;
    let keep: Vec<bool> = parallel_morsels(ctx, all.len(), |range| {
        let mut out = Vec::with_capacity(range.len());
        let mut kept = 0usize;
        for i in range {
            let k = eval_all(conds, &all[i])?;
            kept += k as usize;
            out.push(k);
        }
        ctx.charge(kept)?;
        Ok(out)
    })?;
    retain_mask(&mut rows, &keep);
    Ok(rows)
}

fn unnest(cur: Rows, tuples: &[Vec<CExpr>], ctx: &ExecCtx<'_>) -> Result<Rows> {
    let t0 = Instant::now();
    let mut rows = Vec::new();
    for row in &cur {
        for tuple in tuples {
            let mut vals = Vec::with_capacity(tuple.len());
            for e in tuple {
                vals.push(e.eval(row)?);
            }
            if vals[0].is_null() {
                continue;
            }
            let mut new_row = row.clone();
            new_row.extend(vals);
            rows.push(new_row);
        }
    }
    ctx.charge(rows.len())?;
    let rows_in = cur.len();
    drop(cur);
    ctx.record(NodeKind::Unnest, rows_in, 0, rows.len(), t0.elapsed());
    Ok(rows)
}

/// Sentinel right-row id marking a left-outer null extension in the
/// late-materialization pair list.
const NULL_EXTENDED: usize = usize::MAX;

/// Ends a build chain: `next[rid] == CHAIN_END` means `rid` is the last
/// build row with its key.
const CHAIN_END: u32 = u32::MAX;

/// Build a `key → row ids` multimap over `rows` in one pass in row order:
/// the map holds each key's first and last row, and `next[rid]` the next
/// row with the same key. Appending in row order keeps every chain
/// ascending in row id. Rows whose key evaluates to `None` (a NULL in the
/// key) join no chain, matching SQL equality semantics.
fn build_chains<K: std::hash::Hash + Eq>(
    rows: &[Vec<Value>],
    next: &mut [u32],
    eval_key: impl Fn(&[Value]) -> Result<Option<K>>,
) -> Result<FxHashMap<K, (u32, u32)>> {
    let mut heads = FxHashMap::with_capacity_and_hasher(rows.len(), FxBuildHasher::default());
    for (rid, row) in rows.iter().enumerate() {
        let Some(key) = eval_key(row)? else { continue };
        let rid = rid as u32;
        match heads.entry(key) {
            Entry::Occupied(mut e) => {
                let (_, last) = e.get_mut();
                next[*last as usize] = rid;
                *last = rid;
            }
            Entry::Vacant(e) => {
                e.insert((rid, rid));
            }
        }
    }
    Ok(heads)
}

/// Evaluate a composite join key on `row` into `key`; false when a part
/// is NULL, which matches nothing.
fn eval_key(keys: &[CExpr], row: &[Value], key: &mut Vec<Value>) -> Result<bool> {
    key.clear();
    for k in keys {
        let v = k.eval(row)?;
        if v.is_null() {
            return Ok(false);
        }
        key.push(v);
    }
    Ok(true)
}

/// Hash join with late materialization. The hash table over the right side
/// is built once, sequentially, in row order; left rows are probed
/// morsel-parallel. Residual ON and stream predicates are evaluated on a
/// zero-copy [`SplitRow`] view of each candidate pair, and surviving matches
/// are carried as `(left_row, right_row)` index pairs. Combined rows are
/// materialized (also morsel-parallel) only for pairs that passed every
/// predicate — candidate rows rejected by a predicate are never copied at
/// all.
fn hash_join(left: Rows, right: Rows, j: &HashJoin, ctx: &ExecCtx<'_>) -> Result<Rows> {
    let null_row: Vec<Value> = vec![Value::Null; j.right_width];

    // Build phase: chain right rows by key (see `build_chains`). Empty
    // `lkeys` means no equi-condition was found — every right row is a
    // candidate, one chain through them all (a cross product guarded by an
    // upfront budget charge). Single-column keys — the common case, and
    // after dictionary encoding a bare i64 — are stored as `Value` directly
    // so neither build nor probe heap-allocates a composite key per row.
    enum KeyTable {
        Cross,
        Single(FxHashMap<Value, (u32, u32)>),
        Multi(FxHashMap<Vec<Value>, (u32, u32)>),
    }
    let cross = j.lkeys.is_empty();
    let t0 = Instant::now();
    let mut next = vec![CHAIN_END; right.len()];
    let table = if cross {
        ctx.charge(left.len().saturating_mul(right.len().max(1)))?;
        for rid in 1..right.len() {
            next[rid - 1] = rid as u32;
        }
        KeyTable::Cross
    } else if let [rk] = j.rkeys.as_slice() {
        KeyTable::Single(build_chains(&right, &mut next, |r| {
            let v = rk.eval(r)?;
            Ok(if v.is_null() { None } else { Some(v) })
        })?)
    } else {
        KeyTable::Multi(build_chains(&right, &mut next, |r| {
            let mut key = Vec::with_capacity(j.rkeys.len());
            Ok(eval_key(&j.rkeys, r, &mut key)?.then_some(key))
        })?)
    };
    let chains = match &table {
        KeyTable::Cross => usize::from(!right.is_empty()),
        KeyTable::Single(heads) => heads.len(),
        KeyTable::Multi(heads) => heads.len(),
    };
    let mut build = t0.elapsed();

    // Probe phase: morsel-parallel over left rows; output is `(l, r)` index
    // pairs in left-row order, each row's matches in ascending right-row
    // order, so the final row order matches a sequential left-to-right
    // probe exactly.
    let t0 = Instant::now();
    let (left_rows, right_rows) = (&left, &right);
    let (table_ref, next_ref, null_ref) = (&table, &next, &null_row);
    let pairs: Vec<(usize, usize)> = parallel_morsels(ctx, left_rows.len(), |range| {
        let mut out = Vec::new();
        let mut key = Vec::with_capacity(j.lkeys.len());
        for li in range {
            let l = &left_rows[li];
            let mut rid = match table_ref {
                KeyTable::Cross if right_rows.is_empty() => CHAIN_END,
                KeyTable::Cross => 0,
                KeyTable::Single(heads) => {
                    let v = j.lkeys[0].eval(l)?;
                    if v.is_null() {
                        CHAIN_END
                    } else {
                        heads.get(&v).map_or(CHAIN_END, |&(first, _)| first)
                    }
                }
                KeyTable::Multi(heads) => match eval_key(&j.lkeys, l, &mut key)? {
                    true => heads.get(&key).map_or(CHAIN_END, |&(first, _)| first),
                    false => CHAIN_END,
                },
            };
            let (mut matches, mut matched) = (0usize, false);
            while rid != CHAIN_END {
                let ri = rid as usize;
                rid = next_ref[ri];
                matches += 1;
                let pair = SplitRow { left: l, right: &right_rows[ri] };
                if !eval_all(&j.residual, &pair)? {
                    continue;
                }
                matched = true;
                if eval_all(&j.stream, &pair)? {
                    out.push((li, ri));
                }
            }
            if !matched && j.outer {
                let pair = SplitRow { left: l, right: null_ref };
                if eval_all(&j.stream, &pair)? {
                    out.push((li, NULL_EXTENDED));
                }
            }
            if !cross {
                ctx.charge(matches.max(1))?;
            }
        }
        Ok(out)
    })?;
    let mut probe = t0.elapsed();

    // Freeing the key table is build work.
    let t0 = Instant::now();
    drop((table, next));
    build += t0.elapsed();
    ctx.record(NodeKind::HashBuild, right.len(), 0, chains, build);

    // Materialization: copy out only the surviving pairs.
    let t0 = Instant::now();
    let pairs_ref = &pairs;
    let rows: Rows = parallel_morsels(ctx, pairs.len(), |range| {
        let mut out = Vec::with_capacity(range.len());
        for &(li, ri) in &pairs_ref[range] {
            let mut combined = Vec::with_capacity(left_rows[li].len() + j.right_width);
            combined.extend(left_rows[li].iter().cloned());
            let r = if ri == NULL_EXTENDED { null_ref } else { &right_rows[ri] };
            combined.extend(r.iter().cloned());
            out.push(combined);
        }
        Ok(out)
    })?;
    let rows_in = left.len();
    drop((left, right));
    probe += t0.elapsed();
    ctx.record(NodeKind::HashProbe, rows_in, 0, rows.len(), probe);
    Ok(rows)
}

fn project(exprs: &[CExpr], in_rows: Rows, ctx: &ExecCtx<'_>) -> Result<Rows> {
    // Morsel-parallel expression projection; morsel-order concatenation
    // keeps output rows aligned with input order.
    let t0 = Instant::now();
    let rows = parallel_morsels(ctx, in_rows.len(), |range| {
        let mut out = Vec::with_capacity(range.len());
        for row in &in_rows[range] {
            let mut vals = Vec::with_capacity(exprs.len());
            for e in exprs {
                vals.push(e.eval(row)?);
            }
            out.push(vals);
        }
        Ok(out)
    })?;
    let rows_in = in_rows.len();
    drop(in_rows);
    ctx.record(NodeKind::Project, rows_in, 0, rows.len(), t0.elapsed());
    Ok(rows)
}

// ---------------------------------------------------------------------------
// Aggregation
// ---------------------------------------------------------------------------

#[derive(Clone)]
struct AggState {
    count: u64,
    sum: f64,
    sum_is_int: bool,
    sum_int: i64,
    min: Option<Value>,
    max: Option<Value>,
    /// `AGG(DISTINCT x)`: values in first-occurrence order. Accumulation
    /// is deferred to [`AggState::plain`] so merging morsel partials can
    /// dedup globally; first-occurrence order is a pure function of the
    /// input, keeping results byte-identical at every thread count.
    distinct: Option<(FxHashSet<Value>, Vec<Value>)>,
}

impl AggState {
    fn new(distinct: bool) -> Self {
        AggState {
            count: 0,
            sum: 0.0,
            sum_is_int: true,
            sum_int: 0,
            min: None,
            max: None,
            distinct: distinct.then(|| (FxHashSet::default(), Vec::new())),
        }
    }

    /// Resolve a deferred DISTINCT accumulation into a plain state.
    fn plain(&self) -> AggState {
        match &self.distinct {
            None => self.clone(),
            Some((_, order)) => {
                let mut s = AggState::new(false);
                for v in order {
                    s.update(v);
                }
                s
            }
        }
    }

    fn update(&mut self, v: &Value) {
        if v.is_null() {
            return;
        }
        if let Some((seen, order)) = &mut self.distinct {
            if seen.insert(v.clone()) {
                order.push(v.clone());
            }
            return;
        }
        self.count += 1;
        match v {
            Value::Int(i) => {
                self.sum += *i as f64;
                self.sum_int = self.sum_int.wrapping_add(*i);
            }
            Value::Double(d) => {
                self.sum += d;
                self.sum_is_int = false;
            }
            _ => self.sum_is_int = false,
        }
        if self.min.as_ref().map(|m| replaces(v, m, true)).unwrap_or(true) {
            self.min = Some(v.clone());
        }
        if self.max.as_ref().map(|m| replaces(v, m, false)).unwrap_or(true) {
            self.max = Some(v.clone());
        }
    }

    /// Fold `other` (a later morsel's partial) into `self`. On min/max
    /// ties the earlier occurrence is kept unless the type tie-break in
    /// [`replaces`] applies, matching what a sequential pass would retain.
    fn merge(&mut self, other: &AggState) {
        if let Some((seen, order)) = &mut self.distinct {
            if let Some((_, oorder)) = &other.distinct {
                for v in oorder {
                    if seen.insert(v.clone()) {
                        order.push(v.clone());
                    }
                }
            }
            return;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.sum_is_int &= other.sum_is_int;
        self.sum_int = self.sum_int.wrapping_add(other.sum_int);
        if let Some(m) = &other.min {
            if self.min.as_ref().map(|c| replaces(m, c, true)).unwrap_or(true) {
                self.min = Some(m.clone());
            }
        }
        if let Some(m) = &other.max {
            if self.max.as_ref().map(|c| replaces(m, c, false)).unwrap_or(true) {
                self.max = Some(m.clone());
            }
        }
    }

    /// The aggregate's value.
    fn finish(&self, func: AggFunc) -> Value {
        let s = self.plain();
        match func {
            AggFunc::Count => Value::Int(s.count as i64),
            AggFunc::Sum if s.count == 0 => Value::Null,
            AggFunc::Sum if s.sum_is_int => Value::Int(s.sum_int),
            AggFunc::Sum => Value::Double(s.sum),
            AggFunc::Avg if s.count == 0 => Value::Null,
            AggFunc::Avg => Value::Double(s.sum / s.count as f64),
            AggFunc::Min => s.min.unwrap_or(Value::Null),
            AggFunc::Max => s.max.unwrap_or(Value::Null),
        }
    }
}

/// Should candidate `v` replace the current MIN (`want_less`) or MAX
/// representative `m`? On a `total_cmp` tie — only possible for an Int
/// and a Double of equal value, e.g. `1` vs `1.0` — prefer the Int so
/// the retained representative is a function of the value multiset, not
/// of the order rows reach the aggregate.
fn replaces(v: &Value, m: &Value, want_less: bool) -> bool {
    use std::cmp::Ordering;
    match v.total_cmp(m) {
        Ordering::Equal => matches!(v, Value::Int(_)) && matches!(m, Value::Double(_)),
        Ordering::Less => want_less,
        Ordering::Greater => !want_less,
    }
}

/// Hash aggregation, then HAVING and the projection over the intermediate
/// rows (group keys followed by aggregate values).
fn aggregate(agg: &AggPlan, input: Rows, ctx: &ExecCtx<'_>) -> Result<Rows> {
    // Accumulation runs as per-MORSEL partial aggregates (morsel-parallel),
    // merged below in morsel order. Because morsel boundaries are fixed by
    // MORSEL_ROWS alone, both the float summation order and the
    // first-occurrence group order are pure functions of the input — results
    // are byte-identical at every thread count.
    let t0 = Instant::now();
    type Partial = Vec<(Vec<Value>, Vec<AggState>)>;
    let fresh_states = || agg.calls.iter().map(|c| AggState::new(c.distinct)).collect::<Vec<_>>();
    let partials: Vec<Partial> = parallel_morsels(ctx, input.len(), |range| {
        let mut idx: FxHashMap<Vec<Value>, usize> = FxHashMap::default();
        let mut local: Partial = Vec::new();
        for row in &input[range] {
            let key: Vec<Value> = agg.group.iter().map(|e| e.eval(row)).collect::<Result<_>>()?;
            // Entry API so the common already-seen-group path moves the key
            // in without cloning it; only a fresh group pays a clone.
            let slot = match idx.entry(key) {
                std::collections::hash_map::Entry::Occupied(e) => *e.get(),
                std::collections::hash_map::Entry::Vacant(e) => {
                    local.push((e.key().clone(), fresh_states()));
                    *e.insert(local.len() - 1)
                }
            };
            let states = &mut local[slot].1;
            for (state, call) in states.iter_mut().zip(&agg.calls) {
                match &call.arg {
                    None => state.count += 1, // COUNT(*)
                    Some(e) => state.update(&e.eval(row)?),
                }
            }
        }
        Ok(vec![local])
    })?;
    let rows_in = input.len();
    drop(input);

    // Merge partials in morsel order; group order is first occurrence.
    let mut groups: FxHashMap<Vec<Value>, usize> = FxHashMap::default();
    let mut merged: Vec<(Vec<Value>, Vec<AggState>)> = Vec::new();
    for partial in partials {
        for (key, states) in partial {
            match groups.entry(key) {
                std::collections::hash_map::Entry::Occupied(e) => {
                    let dst = &mut merged[*e.get()].1;
                    for (d, s) in dst.iter_mut().zip(&states) {
                        d.merge(s);
                    }
                }
                std::collections::hash_map::Entry::Vacant(e) => {
                    let key = e.key().clone();
                    e.insert(merged.len());
                    merged.push((key, states));
                }
            }
        }
    }
    // Global aggregate over an empty input still yields one row.
    if agg.global && merged.is_empty() {
        merged.push((Vec::new(), fresh_states()));
    }

    let mut rows: Rows = Vec::with_capacity(merged.len());
    for (mut row, states) in merged {
        row.extend(states.iter().zip(&agg.calls).map(|(s, call)| s.finish(call.func)));
        rows.push(row);
    }
    ctx.charge(rows.len())?;

    if let Some(cond) = &agg.having {
        let keep = rows.iter().map(|r| cond.eval_truthy(r)).collect::<Result<Vec<_>>>()?;
        retain_mask(&mut rows, &keep);
    }
    ctx.record(NodeKind::Aggregate, rows_in, 0, rows.len(), t0.elapsed());
    project(&agg.project, rows, ctx)
}
