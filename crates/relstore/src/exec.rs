//! Query planning and execution.
//!
//! The engine deliberately keeps relational planning minimal, per the paper's
//! architecture: join *order* is decided upstream by the SPARQL optimizer and
//! the SQL is treated as a procedural plan. The executor contributes only
//! what any relational engine obviously would: index lookups for constant
//! equality on indexed columns, hash joins for equi-joins, and streaming
//! filters. FROM items are processed left to right and every item may
//! reference columns of all items before it (lateral-friendly scoping, which
//! `UNNEST` requires).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::database::{Database, ScalarFn};
use crate::error::{exec_err, plan_err, Error, Result};
use crate::hash::{fx_hash_one, FxHashMap, FxHashSet};
use crate::pool::WorkerPool;
use crate::sql::ast::{
    BinaryOp, Expr, Join, JoinKind, OrderItem, Query, QueryBody, Relation, Select, SelectItem,
    TableFactor, UnaryOp,
};
use crate::value::{SqlType, Value};

/// An output column: optional table qualifier plus name (both lowercase).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutCol {
    pub qualifier: Option<String>,
    pub name: String,
}

/// A materialized relation: the result of executing a query.
#[derive(Debug, Clone, PartialEq)]
pub struct Rel {
    pub cols: Vec<OutCol>,
    pub rows: Vec<Vec<Value>>,
}

impl Rel {
    pub fn empty() -> Rel {
        Rel { cols: Vec::new(), rows: Vec::new() }
    }

    /// Index of the column named `name` (unqualified match).
    pub fn col_index(&self, name: &str) -> Option<usize> {
        let lower = name.to_ascii_lowercase();
        self.cols.iter().position(|c| c.name == lower)
    }

    pub fn column_names(&self) -> Vec<&str> {
        self.cols.iter().map(|c| c.name.as_str()).collect()
    }
}

/// Wall-clock time attributed to each heavy executor phase, for
/// `Database::query_traced`. Phases are measured on the orchestrating thread
/// around whole parallel regions, so a phase's time is elapsed time, not a
/// sum over workers; nested scopes (CTEs, subqueries) accumulate into the
/// same counters. Time outside these four phases (sorting, projection,
/// UNNEST, plumbing) is the remainder against total query time.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseTimings {
    pub scan_secs: f64,
    pub build_secs: f64,
    pub probe_secs: f64,
    pub agg_secs: f64,
}

#[derive(Clone, Copy)]
enum Phase {
    Scan,
    Build,
    Probe,
    Agg,
}

#[derive(Default)]
struct PhaseStats {
    scan_ns: AtomicU64,
    build_ns: AtomicU64,
    probe_ns: AtomicU64,
    agg_ns: AtomicU64,
}

impl PhaseStats {
    fn add(&self, phase: Phase, elapsed: std::time::Duration) {
        let counter = match phase {
            Phase::Scan => &self.scan_ns,
            Phase::Build => &self.build_ns,
            Phase::Probe => &self.probe_ns,
            Phase::Agg => &self.agg_ns,
        };
        counter.fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
    }

    fn timings(&self) -> PhaseTimings {
        let secs = |c: &AtomicU64| c.load(Ordering::Relaxed) as f64 / 1e9;
        PhaseTimings {
            scan_secs: secs(&self.scan_ns),
            build_secs: secs(&self.build_ns),
            probe_secs: secs(&self.probe_ns),
            agg_secs: secs(&self.agg_ns),
        }
    }
}

/// Resources shared by every operator and CTE scope of one query: the
/// worker pool (spawned once, reused by every parallel region), a freelist
/// of row scratch buffers handed to scan workers so decompression scratch
/// survives across operators, and the optional phase-timing counters.
struct QueryShared {
    pool: WorkerPool,
    scratch: Mutex<Vec<Vec<Value>>>,
    phases: Option<PhaseStats>,
}

/// Execution context: database handle, visible CTEs, the row budget that
/// stands in for a query timeout, and the per-query [`QueryShared`]
/// resources. The budget is atomic so morsel workers can charge it
/// concurrently through a shared `&ExecCtx`.
pub struct ExecCtx<'a> {
    pub db: &'a Database,
    ctes: HashMap<String, Arc<Rel>>,
    budget: AtomicU64,
    /// Wall-clock deadline (the paper's 10-minute query timeout), checked at
    /// the same sites as the row budget. `None` costs only a branch.
    deadline: Option<std::time::Instant>,
    shared: Arc<QueryShared>,
}

impl<'a> ExecCtx<'a> {
    pub fn new(db: &'a Database) -> Self {
        Self::with_tracing(db, false)
    }

    /// `traced = true` turns on per-phase timing counters, readable through
    /// [`ExecCtx::phase_timings`] after execution.
    pub fn with_tracing(db: &'a Database, traced: bool) -> Self {
        ExecCtx {
            db,
            ctes: HashMap::new(),
            budget: AtomicU64::new(db.row_budget().unwrap_or(u64::MAX)),
            deadline: db.deadline().map(|d| std::time::Instant::now() + d),
            shared: Arc::new(QueryShared {
                pool: WorkerPool::new(db.threads()),
                scratch: Mutex::new(Vec::new()),
                phases: traced.then(PhaseStats::default),
            }),
        }
    }

    fn pool(&self) -> &WorkerPool {
        &self.shared.pool
    }

    fn threads(&self) -> usize {
        self.shared.pool.threads()
    }

    /// Phase timings accumulated so far; `None` unless built with tracing.
    pub fn phase_timings(&self) -> Option<PhaseTimings> {
        self.shared.phases.as_ref().map(PhaseStats::timings)
    }

    #[inline]
    fn phase_start(&self) -> Option<Instant> {
        self.shared.phases.as_ref().map(|_| Instant::now())
    }

    #[inline]
    fn phase_add(&self, phase: Phase, start: Option<Instant>) {
        if let (Some(stats), Some(t0)) = (&self.shared.phases, start) {
            stats.add(phase, t0.elapsed());
        }
    }

    /// Take a reusable row buffer from the query-wide freelist (or allocate
    /// the first time). Paired with [`ExecCtx::scratch_put`] so scan workers
    /// of successive operators reuse the same decompression scratch.
    fn scratch_take(&self) -> Vec<Value> {
        self.shared.scratch.lock().unwrap().pop().unwrap_or_default()
    }

    fn scratch_put(&self, mut buf: Vec<Value>) {
        buf.clear();
        self.shared.scratch.lock().unwrap().push(buf);
    }

    fn charge(&self, n: usize) -> Result<()> {
        if let Some(deadline) = self.deadline {
            if std::time::Instant::now() >= deadline {
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

// ---------------------------------------------------------------------------
// Morsel-driven parallelism
// ---------------------------------------------------------------------------

/// Rows per morsel. Large enough that per-morsel overhead (one atomic
/// fetch_add, one Vec) is negligible; small enough that a typical scan
/// splits into many work units for load balancing.
pub const MORSEL_ROWS: usize = 4096;

/// Run `work` over fixed-size morsels of `0..n` on the query's worker pool
/// and concatenate the outputs **in morsel order**, so the result is
/// identical to a sequential left-to-right pass regardless of thread count.
fn parallel_morsels<R, F>(ctx: &ExecCtx<'_>, n: usize, work: F) -> Result<Vec<R>>
where
    R: Send,
    F: Fn(std::ops::Range<usize>) -> Result<Vec<R>> + Sync,
{
    parallel_morsels_scratch(ctx.pool(), n, &|| (), &|_| (), |range, _| work(range))
}

/// [`parallel_morsels`] with per-worker scratch state: each participating
/// thread gets one `mk_scratch()` value that lives across all the morsels it
/// processes and is handed to `fini_scratch` when the region ends — how scan
/// workers keep one decompression buffer per thread instead of one per
/// morsel, and return it to the query-wide freelist afterwards.
///
/// Workers pull morsel indices from a shared atomic counter (classic
/// morsel-driven scheduling: fast workers take more morsels). On error the
/// remaining morsels are abandoned and the first error in morsel order is
/// returned.
fn parallel_morsels_scratch<R, S, F>(
    pool: &WorkerPool,
    n: usize,
    mk_scratch: &(dyn Fn() -> S + Sync),
    fini_scratch: &(dyn Fn(S) + Sync),
    work: F,
) -> Result<Vec<R>>
where
    R: Send,
    F: Fn(std::ops::Range<usize>, &mut S) -> Result<Vec<R>> + Sync,
{
    let morsels = n.div_ceil(MORSEL_ROWS);
    if pool.threads().min(morsels) <= 1 {
        let mut scratch = mk_scratch();
        let mut out = Vec::new();
        let mut first_err = None;
        for m in 0..morsels {
            match work(m * MORSEL_ROWS..((m + 1) * MORSEL_ROWS).min(n), &mut scratch) {
                Ok(mut v) => out.append(&mut v),
                Err(e) => {
                    first_err = Some(e);
                    break;
                }
            }
        }
        fini_scratch(scratch);
        return match first_err {
            Some(e) => Err(e),
            None => Ok(out),
        };
    }

    let next = AtomicUsize::new(0);
    let failed = std::sync::atomic::AtomicBool::new(false);
    let slots: Mutex<Vec<Option<Result<Vec<R>>>>> =
        Mutex::new((0..morsels).map(|_| None).collect());
    pool.broadcast(&|_worker| {
        let mut scratch = mk_scratch();
        loop {
            if failed.load(Ordering::Relaxed) {
                break;
            }
            let m = next.fetch_add(1, Ordering::Relaxed);
            if m >= morsels {
                break;
            }
            let res = work(m * MORSEL_ROWS..((m + 1) * MORSEL_ROWS).min(n), &mut scratch);
            if res.is_err() {
                failed.store(true, Ordering::Relaxed);
            }
            slots.lock().unwrap()[m] = Some(res);
        }
        fini_scratch(scratch);
    });

    let slots = slots.into_inner().unwrap();
    // Surface the first error in morsel order for determinism.
    for slot in &slots {
        if let Some(Err(e)) = slot {
            return Err(e.clone());
        }
    }
    let mut out = Vec::new();
    for slot in slots {
        if let Some(Ok(mut v)) = slot {
            out.append(&mut v);
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Compiled expressions
// ---------------------------------------------------------------------------

#[derive(Clone)]
pub enum CExpr {
    Col(usize),
    Lit(Value),
    Binary { op: BinaryOp, left: Box<CExpr>, right: Box<CExpr> },
    Unary { op: UnaryOp, expr: Box<CExpr> },
    IsNull { expr: Box<CExpr>, negated: bool },
    InList { expr: Box<CExpr>, list: Vec<CExpr>, negated: bool },
    Like { expr: Box<CExpr>, pattern: Box<CExpr>, negated: bool },
    Case { branches: Vec<(CExpr, CExpr)>, else_expr: Option<Box<CExpr>> },
    Cast { expr: Box<CExpr>, ty: SqlType },
    Call {
        /// Retained for plan debugging output.
        #[allow(dead_code)]
        name: String,
        func: ScalarFn,
        args: Vec<CExpr>,
    },
}

/// Name-resolution scope: the columns visible to an expression.
#[derive(Debug, Clone, Default)]
pub struct Scope {
    pub cols: Vec<OutCol>,
}

impl Scope {
    pub fn from_cols(cols: &[OutCol]) -> Scope {
        Scope { cols: cols.to_vec() }
    }

    /// Resolve `qualifier.name`; unqualified names must be unambiguous.
    pub fn resolve(&self, qualifier: Option<&str>, name: &str) -> Result<usize> {
        let name = name.to_ascii_lowercase();
        let qualifier = qualifier.map(str::to_ascii_lowercase);
        let mut found = None;
        for (i, c) in self.cols.iter().enumerate() {
            let matches = match &qualifier {
                Some(q) => c.qualifier.as_deref() == Some(q.as_str()) && c.name == name,
                None => c.name == name,
            };
            if matches {
                if found.is_some() {
                    return plan_err(format!("ambiguous column reference {name:?}"));
                }
                found = Some(i);
            }
        }
        found.ok_or_else(|| {
            Error::Plan(format!(
                "unknown column {}{name}",
                qualifier.map(|q| format!("{q}.")).unwrap_or_default()
            ))
        })
    }

    /// True when the expression only references columns resolvable here.
    pub fn covers(&self, expr: &Expr) -> bool {
        collect_columns(expr).iter().all(|(q, n)| self.resolve(q.as_deref(), n).is_ok())
    }
}

fn collect_columns(expr: &Expr) -> Vec<(Option<String>, String)> {
    let mut out = Vec::new();
    fn walk(e: &Expr, out: &mut Vec<(Option<String>, String)>) {
        match e {
            Expr::Column { qualifier, name } => out.push((qualifier.clone(), name.clone())),
            Expr::Literal(_) => {}
            Expr::Binary { left, right, .. } => {
                walk(left, out);
                walk(right, out);
            }
            Expr::Unary { expr, .. } => walk(expr, out),
            Expr::IsNull { expr, .. } => walk(expr, out),
            Expr::InList { expr, list, .. } => {
                walk(expr, out);
                list.iter().for_each(|e| walk(e, out));
            }
            Expr::Like { expr, pattern, .. } => {
                walk(expr, out);
                walk(pattern, out);
            }
            Expr::Case { branches, else_expr } => {
                for (c, v) in branches {
                    walk(c, out);
                    walk(v, out);
                }
                if let Some(e) = else_expr {
                    walk(e, out);
                }
            }
            Expr::Cast { expr, .. } => walk(expr, out),
            Expr::Func { args, .. } => args.iter().for_each(|e| walk(e, out)),
        }
    }
    walk(expr, &mut out);
    out
}

/// Compile an AST expression against a scope. Aggregate calls are rejected
/// here; the aggregation pass rewrites them into column references first.
pub fn compile(expr: &Expr, scope: &Scope, db: &Database) -> Result<CExpr> {
    Ok(match expr {
        Expr::Column { qualifier, name } => {
            CExpr::Col(scope.resolve(qualifier.as_deref(), name)?)
        }
        Expr::Literal(v) => CExpr::Lit(v.clone()),
        Expr::Binary { op, left, right } => CExpr::Binary {
            op: *op,
            left: Box::new(compile(left, scope, db)?),
            right: Box::new(compile(right, scope, db)?),
        },
        Expr::Unary { op, expr } => {
            CExpr::Unary { op: *op, expr: Box::new(compile(expr, scope, db)?) }
        }
        Expr::IsNull { expr, negated } => {
            CExpr::IsNull { expr: Box::new(compile(expr, scope, db)?), negated: *negated }
        }
        Expr::InList { expr, list, negated } => CExpr::InList {
            expr: Box::new(compile(expr, scope, db)?),
            list: list.iter().map(|e| compile(e, scope, db)).collect::<Result<_>>()?,
            negated: *negated,
        },
        Expr::Like { expr, pattern, negated } => CExpr::Like {
            expr: Box::new(compile(expr, scope, db)?),
            pattern: Box::new(compile(pattern, scope, db)?),
            negated: *negated,
        },
        Expr::Case { branches, else_expr } => CExpr::Case {
            branches: branches
                .iter()
                .map(|(c, v)| Ok((compile(c, scope, db)?, compile(v, scope, db)?)))
                .collect::<Result<_>>()?,
            else_expr: match else_expr {
                Some(e) => Some(Box::new(compile(e, scope, db)?)),
                None => None,
            },
        },
        Expr::Cast { expr, ty } => {
            CExpr::Cast { expr: Box::new(compile(expr, scope, db)?), ty: *ty }
        }
        Expr::Func { name, args, star, distinct } => {
            if *star || *distinct || is_aggregate(name) {
                return plan_err(format!("aggregate {name:?} not allowed in this context"));
            }
            let func = db
                .scalar_function(name)
                .ok_or_else(|| Error::Plan(format!("unknown function {name:?}")))?;
            CExpr::Call {
                name: name.clone(),
                func,
                args: args.iter().map(|e| compile(e, scope, db)).collect::<Result<_>>()?,
            }
        }
    })
}

pub fn is_aggregate(name: &str) -> bool {
    matches!(name, "count" | "sum" | "min" | "max" | "avg")
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
            CExpr::Unary { op, expr } => {
                let v = expr.eval(row)?;
                match op {
                    UnaryOp::Not => match to_bool3(&v)? {
                        Some(b) => Value::Bool(!b),
                        None => Value::Null,
                    },
                    UnaryOp::Neg => match v {
                        Value::Null => Value::Null,
                        Value::Int(i) => Value::Int(-i),
                        Value::Double(d) => Value::Double(-d),
                        other => return exec_err(format!("cannot negate {}", other.type_name())),
                    },
                }
            }
            CExpr::IsNull { expr, negated } => {
                let v = expr.eval(row)?;
                Value::Bool(v.is_null() != *negated)
            }
            CExpr::InList { expr, list, negated } => {
                let v = expr.eval(row)?;
                if v.is_null() {
                    return Ok(Value::Null);
                }
                let mut saw_null = false;
                let mut found = false;
                for item in list {
                    let iv = item.eval(row)?;
                    match v.sql_eq(&iv) {
                        Some(true) => {
                            found = true;
                            break;
                        }
                        Some(false) => {}
                        None => saw_null = true,
                    }
                }
                if found {
                    Value::Bool(!*negated)
                } else if saw_null {
                    Value::Null
                } else {
                    Value::Bool(*negated)
                }
            }
            CExpr::Like { expr, pattern, negated } => {
                let v = expr.eval(row)?;
                let p = pattern.eval(row)?;
                match (v.as_str(), p.as_str()) {
                    (Some(s), Some(pat)) => Value::Bool(like_match(s, pat) != *negated),
                    _ => Value::Null,
                }
            }
            CExpr::Case { branches, else_expr } => {
                for (cond, val) in branches {
                    if to_bool3(&cond.eval(row)?)? == Some(true) {
                        return val.eval(row);
                    }
                }
                match else_expr {
                    Some(e) => e.eval(row)?,
                    None => Value::Null,
                }
            }
            CExpr::Cast { expr, ty } => cast_value(expr.eval(row)?, *ty),
            CExpr::Call { func, args, .. } => {
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
        Concat => match (&l, &r) {
            (Value::Null, _) | (_, Value::Null) => Value::Null,
            (a, b) => Value::str(format!("{a}{b}")),
        },
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

fn cast_value(v: Value, ty: SqlType) -> Value {
    if v.is_null() {
        return Value::Null;
    }
    match ty {
        SqlType::Int => match &v {
            Value::Int(_) => v,
            Value::Double(d) => Value::Int(*d as i64),
            Value::Str(s) => s.trim().parse::<i64>().map(Value::Int).unwrap_or(Value::Null),
            Value::Bool(b) => Value::Int(*b as i64),
            Value::Null => unreachable!(),
        },
        SqlType::Double => match &v {
            Value::Double(_) => v,
            Value::Int(i) => Value::Double(*i as f64),
            Value::Str(s) => s.trim().parse::<f64>().map(Value::Double).unwrap_or(Value::Null),
            Value::Bool(b) => Value::Double(*b as i64 as f64),
            Value::Null => unreachable!(),
        },
        // A Text→Text cast is the identity: reuse the existing `Arc<str>`
        // instead of reallocating through `to_string`.
        SqlType::Text => match v {
            Value::Str(_) => v,
            other => Value::str(other.to_string()),
        },
        SqlType::Bool => match &v {
            Value::Bool(_) => v,
            Value::Int(i) => Value::Bool(*i != 0),
            Value::Str(s) => match s.to_ascii_lowercase().as_str() {
                "true" | "t" | "1" => Value::Bool(true),
                "false" | "f" | "0" => Value::Bool(false),
                _ => Value::Null,
            },
            _ => Value::Null,
        },
    }
}

/// SQL LIKE with `%` and `_` wildcards.
///
/// Iterative two-pointer algorithm: on a mismatch after a `%`, restart just
/// past the character the last `%` previously absorbed. Each pointer only
/// moves forward, so the worst case is O(|s|·|p|) — the naive recursion is
/// exponential on patterns like `%a%a%a%…` against a non-matching string.
/// Operates directly on the UTF-8 byte iterators; no per-call `Vec<char>`.
pub fn like_match(s: &str, pattern: &str) -> bool {
    let text: &[u8] = s.as_bytes();
    let pat: &[u8] = pattern.as_bytes();
    // Byte cursors. `_` must consume one *character*, so when it matches we
    // skip the whole UTF-8 sequence (continuation bytes start with 0b10).
    let (mut ti, mut pi) = (0usize, 0usize);
    // Restart state for the most recent `%`: pattern position after it, and
    // the text position it would next try absorbing one more char from.
    let (mut star_p, mut star_t): (Option<usize>, usize) = (None, 0);

    fn char_len(b: &[u8], i: usize) -> usize {
        let mut n = 1;
        while i + n < b.len() && b[i + n] & 0xC0 == 0x80 {
            n += 1;
        }
        n
    }

    while ti < text.len() {
        if pi < pat.len() {
            match pat[pi] {
                b'%' => {
                    star_p = Some(pi + 1);
                    star_t = ti;
                    pi += 1;
                    continue;
                }
                b'_' => {
                    ti += char_len(text, ti);
                    pi += 1;
                    continue;
                }
                c if c == text[ti] => {
                    ti += 1;
                    pi += 1;
                    continue;
                }
                _ => {}
            }
        }
        match star_p {
            Some(sp) => {
                // Let the last `%` absorb one more character and retry.
                star_t += char_len(text, star_t);
                ti = star_t;
                pi = sp;
            }
            None => return false,
        }
    }
    // Text exhausted: any trailing pattern must be all `%`.
    pat[pi..].iter().all(|&c| c == b'%')
}

// ---------------------------------------------------------------------------
// Query execution
// ---------------------------------------------------------------------------

pub fn exec_query(q: &Query, ctx: &ExecCtx<'_>) -> Result<Rel> {
    // CTEs are visible to later CTEs and to the body; inner scopes shadow.
    let mut local = ExecCtx {
        db: ctx.db,
        ctes: ctx.ctes.clone(),
        budget: AtomicU64::new(ctx.budget.load(Ordering::Relaxed)),
        deadline: ctx.deadline,
        // CTE scopes share the query's pool, scratch and timing counters.
        shared: ctx.shared.clone(),
    };
    for (name, cte_query) in &q.ctes {
        let rel = exec_query(cte_query, &local)?;
        local.ctes.insert(name.to_ascii_lowercase(), Arc::new(rel));
    }
    let mut rel = exec_body(&q.body, &local)?;
    ctx.budget.store(local.budget.load(Ordering::Relaxed), Ordering::Relaxed);

    if !q.order_by.is_empty() {
        sort_rel(&mut rel, &q.order_by, ctx)?;
    }
    apply_limit(&mut rel, q.limit, q.offset);
    Ok(rel)
}

fn exec_body(body: &QueryBody, ctx: &ExecCtx<'_>) -> Result<Rel> {
    match body {
        QueryBody::Select(sel) => exec_select(sel, ctx),
        QueryBody::Union { left, right, all } => {
            let mut l = exec_body(left, ctx)?;
            let r = exec_body(right, ctx)?;
            if l.cols.len() != r.cols.len() {
                return plan_err(format!(
                    "UNION arity mismatch: {} vs {}",
                    l.cols.len(),
                    r.cols.len()
                ));
            }
            ctx.charge(r.rows.len())?;
            l.rows.extend(r.rows);
            if !*all {
                dedupe(&mut l, ctx);
            }
            Ok(l)
        }
    }
}

/// Remove duplicate rows, keeping first occurrences, without cloning any
/// row: rows are pre-hashed (in parallel morsels), bucketed by hash, and
/// compared against earlier bucket members only; survivors are kept by an
/// in-place `retain`.
///
/// Large inputs resolve duplicates in parallel by hash partition: equal rows
/// hash equal, so no duplicate pair ever straddles partitions, and each
/// partition's row-id list stays ascending, so "first occurrence wins" is
/// preserved exactly. The keep-mask is a pure function of the rows — the
/// same at every thread count.
fn dedupe(rel: &mut Rel, ctx: &ExecCtx<'_>) {
    use std::hash::{Hash, Hasher};
    let n = rel.rows.len();
    if n <= 1 {
        return;
    }
    let rows = &rel.rows;
    let hashes: Vec<u64> = parallel_morsels(ctx, n, |range| {
        Ok(range
            .map(|i| {
                let mut h = crate::hash::FxHasher::default();
                rows[i].hash(&mut h);
                h.finish()
            })
            .collect())
    })
    .expect("hashing is infallible");

    let mut keep = vec![true; n];
    if n >= PARALLEL_BUILD_MIN && ctx.threads() > 1 {
        // Scatter row ids into hash partitions (a cheap sequential integer
        // pass), then workers claim whole partitions and resolve duplicates
        // within each independently.
        let mut parts: Vec<Vec<u32>> = vec![Vec::new(); BUILD_PARTITIONS];
        for (i, h) in hashes.iter().enumerate() {
            parts[(h >> PARTITION_SHIFT) as usize].push(i as u32);
        }
        let next = AtomicUsize::new(0);
        let dead: Mutex<Vec<u32>> = Mutex::new(Vec::new());
        let (parts_ref, hashes_ref) = (&parts, &hashes);
        ctx.pool().broadcast(&|_worker| {
            let mut local_dead: Vec<u32> = Vec::new();
            loop {
                let p = next.fetch_add(1, Ordering::Relaxed);
                if p >= BUILD_PARTITIONS {
                    break;
                }
                let mut buckets: FxHashMap<u64, Vec<u32>> = FxHashMap::default();
                for &i in &parts_ref[p] {
                    let bucket = buckets.entry(hashes_ref[i as usize]).or_default();
                    if bucket.iter().any(|&j| rows[j as usize] == rows[i as usize]) {
                        local_dead.push(i);
                    } else {
                        bucket.push(i);
                    }
                }
            }
            dead.lock().unwrap().append(&mut local_dead);
        });
        for i in dead.into_inner().unwrap() {
            keep[i as usize] = false;
        }
    } else {
        let mut buckets: FxHashMap<u64, Vec<usize>> =
            FxHashMap::with_capacity_and_hasher(n, crate::hash::FxBuildHasher::default());
        for i in 0..n {
            let bucket = buckets.entry(hashes[i]).or_default();
            if bucket.iter().any(|&j| rows[j] == rows[i]) {
                keep[i] = false;
            } else {
                bucket.push(i);
            }
        }
    }
    let mut i = 0;
    rel.rows.retain(|_| {
        let k = keep[i];
        i += 1;
        k
    });
}

fn sort_rel(rel: &mut Rel, order_by: &[OrderItem], ctx: &ExecCtx<'_>) -> Result<()> {
    // Resolve each item: positional integer, output column, or expression
    // over output columns.
    let scope = Scope::from_cols(&rel.cols);
    let db = ctx.db;
    let mut keys: Vec<(CExpr, bool)> = Vec::new();
    for item in order_by {
        let cexpr = match &item.expr {
            Expr::Literal(Value::Int(n)) => {
                let i = *n as usize;
                if i == 0 || i > rel.cols.len() {
                    return plan_err(format!("ORDER BY position {i} out of range"));
                }
                CExpr::Col(i - 1)
            }
            // Projected columns lose their table qualifiers, but SQL permits
            // `ORDER BY t.col`; retry with qualifiers stripped when the
            // qualified reference no longer resolves.
            e => compile(e, &scope, db).or_else(|_| compile(&strip_qualifiers(e), &scope, db))?,
        };
        keys.push((cexpr, item.asc));
    }
    // Decorate-sort-undecorate; key extraction (the expression-evaluation
    // part) runs morsel-parallel, the comparison sort stays sequential and
    // stable so equal keys preserve input order at every thread count.
    let rows = &rel.rows;
    let keys_ref = &keys;
    let extracted: Vec<Vec<Value>> = parallel_morsels(ctx, rows.len(), |range| {
        range
            .map(|i| keys_ref.iter().map(|(k, _)| k.eval(&rows[i])).collect::<Result<Vec<_>>>())
            .collect()
    })?;
    let mut decorated: Vec<(Vec<Value>, Vec<Value>)> =
        extracted.into_iter().zip(rel.rows.drain(..)).collect();
    decorated.sort_by(|(ka, _), (kb, _)| {
        for (i, (_, asc)) in keys.iter().enumerate() {
            let o = ka[i].total_cmp(&kb[i]);
            if o != std::cmp::Ordering::Equal {
                return if *asc { o } else { o.reverse() };
            }
        }
        std::cmp::Ordering::Equal
    });
    rel.rows = decorated.into_iter().map(|(_, r)| r).collect();
    Ok(())
}

fn strip_qualifiers(e: &Expr) -> Expr {
    match e {
        Expr::Column { name, .. } => Expr::Column { qualifier: None, name: name.clone() },
        Expr::Literal(_) => e.clone(),
        Expr::Binary { op, left, right } => Expr::Binary {
            op: *op,
            left: Box::new(strip_qualifiers(left)),
            right: Box::new(strip_qualifiers(right)),
        },
        Expr::Unary { op, expr } => {
            Expr::Unary { op: *op, expr: Box::new(strip_qualifiers(expr)) }
        }
        Expr::IsNull { expr, negated } => {
            Expr::IsNull { expr: Box::new(strip_qualifiers(expr)), negated: *negated }
        }
        Expr::InList { expr, list, negated } => Expr::InList {
            expr: Box::new(strip_qualifiers(expr)),
            list: list.iter().map(strip_qualifiers).collect(),
            negated: *negated,
        },
        Expr::Like { expr, pattern, negated } => Expr::Like {
            expr: Box::new(strip_qualifiers(expr)),
            pattern: Box::new(strip_qualifiers(pattern)),
            negated: *negated,
        },
        Expr::Case { branches, else_expr } => Expr::Case {
            branches: branches
                .iter()
                .map(|(c, v)| (strip_qualifiers(c), strip_qualifiers(v)))
                .collect(),
            else_expr: else_expr.as_ref().map(|x| Box::new(strip_qualifiers(x))),
        },
        Expr::Cast { expr, ty } => {
            Expr::Cast { expr: Box::new(strip_qualifiers(expr)), ty: *ty }
        }
        Expr::Func { name, args, star, distinct } => Expr::Func {
            name: name.clone(),
            args: args.iter().map(strip_qualifiers).collect(),
            star: *star,
            distinct: *distinct,
        },
    }
}

fn apply_limit(rel: &mut Rel, limit: Option<u64>, offset: Option<u64>) {
    if let Some(off) = offset {
        let off = (off as usize).min(rel.rows.len());
        rel.rows.drain(..off);
    }
    if let Some(lim) = limit {
        rel.rows.truncate(lim as usize);
    }
}

/// One linearized FROM step.
struct Step<'a> {
    relation: &'a Relation,
    alias: Option<&'a str>,
    kind: JoinKind,
    on: Option<&'a Expr>,
}

fn linearize_from(from: &[TableFactor]) -> Vec<Step<'_>> {
    let mut steps = Vec::new();
    for factor in from {
        steps.push(Step {
            relation: &factor.relation,
            alias: factor.alias.as_deref(),
            kind: JoinKind::Inner,
            on: None,
        });
        for Join { kind, relation, alias, on } in &factor.joins {
            steps.push(Step { relation, alias: alias.as_deref(), kind: *kind, on: Some(on) });
        }
    }
    steps
}

fn exec_select(sel: &Select, ctx: &ExecCtx<'_>) -> Result<Rel> {
    let where_conjuncts: Vec<&Expr> =
        sel.where_clause.as_ref().map(|w| w.conjuncts()).unwrap_or_default();

    // FROM: fold steps left to right.
    let mut cur: Option<Rel> = None;
    for step in linearize_from(&sel.from) {
        cur = Some(apply_step(cur, &step, &where_conjuncts, ctx)?);
    }
    let mut rel = match cur {
        Some(r) => r,
        // SELECT without FROM: a single empty row.
        None => Rel { cols: Vec::new(), rows: vec![Vec::new()] },
    };

    // WHERE (full residual re-check; pushdowns were best-effort hints).
    // The predicate is evaluated morsel-parallel into a keep-mask; the
    // in-order retain keeps the surviving rows in their original order.
    if let Some(w) = &sel.where_clause {
        let scope = Scope::from_cols(&rel.cols);
        let cond = compile(w, &scope, ctx.db)?;
        let rows = &rel.rows;
        let keep: Vec<bool> = parallel_morsels(ctx, rows.len(), |range| {
            range.map(|i| cond.eval_truthy(&rows[i])).collect()
        })?;
        let mut i = 0;
        rel.rows.retain(|_| {
            let k = keep[i];
            i += 1;
            k
        });
    }

    // GROUP BY / aggregates.
    let has_aggs = select_has_aggregates(sel);
    if has_aggs || !sel.group_by.is_empty() {
        rel = aggregate(sel, rel, ctx)?;
        // After aggregation the projection/having were already applied.
        if sel.distinct {
            dedupe(&mut rel, ctx);
        }
        return Ok(rel);
    }

    // Projection.
    rel = project(&sel.projection, rel, ctx)?;
    if sel.distinct {
        dedupe(&mut rel, ctx);
    }
    Ok(rel)
}

fn apply_step(
    cur: Option<Rel>,
    step: &Step<'_>,
    where_conjuncts: &[&Expr],
    ctx: &ExecCtx<'_>,
) -> Result<Rel> {
    // UNNEST is lateral over the current relation.
    if let Relation::Unnest { tuples, columns } = step.relation {
        let cur = cur.ok_or_else(|| Error::Plan("UNNEST cannot be the first FROM item".into()))?;
        return unnest(cur, tuples, columns, step.alias, ctx);
    }

    // ON conjuncts that reference only the new factor can be pushed into its
    // scan; for inner steps, single-factor WHERE conjuncts can be pushed too.
    let alias = step.alias.map(str::to_ascii_lowercase);
    let on_conjuncts: Vec<&Expr> = step.on.map(|e| e.conjuncts()).unwrap_or_default();

    let right_cols = relation_cols(step.relation, alias.as_deref(), ctx)?;
    let right_scope = Scope::from_cols(&right_cols);

    let mut push: Vec<&Expr> = Vec::new();
    for c in &on_conjuncts {
        if right_scope.covers(c) {
            push.push(c);
        }
    }
    if step.kind == JoinKind::Inner {
        for c in where_conjuncts {
            if right_scope.covers(c) && !expr_is_trivial(c) {
                push.push(c);
            }
        }
    }
    let Some(left) = cur else {
        // First factor: scan (index-assisted when a pushed predicate allows).
        return scan_relation(step.relation, alias.as_deref(), right_cols, &push, ctx);
    };

    // Index nested-loop join: when the new factor is a base table and some
    // equi-condition probes an indexed column with a left-side expression,
    // loop over the (usually small) left relation and probe the index
    // instead of materializing and hashing the whole table. This is what a
    // relational engine does for `prior ⋈ DPH ON dph.entry = prior.v`.
    if let Relation::Named(name) = step.relation {
        let lower = name.to_ascii_lowercase();
        if !ctx.ctes.contains_key(&lower) {
            let left_scope = Scope::from_cols(&left.cols);
            let conds: Vec<&Expr> = step
                .on
                .map(|e| e.conjuncts())
                .unwrap_or_default()
                .into_iter()
                .chain(if step.kind == JoinKind::Inner {
                    where_conjuncts.to_vec()
                } else {
                    Vec::new()
                })
                .collect();
            let mut probe: Option<(usize, CExpr)> = None;
            for c in &conds {
                if let Expr::Binary { op: BinaryOp::Eq, left: a, right: b } = c {
                    for (col_side, other) in [(a, b), (b, a)] {
                        if let Expr::Column { qualifier, name: cname } = col_side.as_ref() {
                            let table = ctx.db.table(&lower).expect("checked in relation_cols");
                            let qual_ok = match qualifier {
                                Some(q) => {
                                    let q = q.to_ascii_lowercase();
                                    alias.as_deref() == Some(q.as_str()) || q == lower
                                }
                                None => true,
                            };
                            if qual_ok
                                && table.index_on(cname).is_some()
                                && left_scope.covers(other)
                                && !expr_is_trivial(other)
                            {
                                let ci = table.schema.column_index(cname).unwrap();
                                probe = Some((ci, compile(other, &left_scope, ctx.db)?));
                            }
                        }
                        if probe.is_some() {
                            break;
                        }
                    }
                }
                if probe.is_some() {
                    break;
                }
            }
            if let Some((ci, left_key)) = probe {
                return index_nested_loop(
                    left, &lower, right_cols, ci, left_key, &push, step, where_conjuncts, ctx,
                );
            }
        }
    }

    let right = scan_relation(step.relation, alias.as_deref(), right_cols, &push, ctx)?;

    // Find equi-join keys `left_expr = right_expr` among ON conjuncts and
    // (for inner joins) WHERE conjuncts.
    let left_scope = Scope::from_cols(&left.cols);
    let stream_filters = stream_filters(&left, &right.cols, where_conjuncts, ctx)?;
    let mut lkeys: Vec<CExpr> = Vec::new();
    let mut rkeys: Vec<CExpr> = Vec::new();
    let mut residual_on: Vec<&Expr> = Vec::new();
    let key_sources: Vec<&Expr> = if step.kind == JoinKind::Inner {
        on_conjuncts.iter().copied().chain(where_conjuncts.iter().copied()).collect()
    } else {
        on_conjuncts.clone()
    };
    let mut used_as_key = vec![false; on_conjuncts.len()];
    for (i, c) in key_sources.iter().enumerate() {
        if let Expr::Binary { op: BinaryOp::Eq, left: a, right: b } = c {
            let (la, ra) = (left_scope.covers(a), right_scope.covers(a));
            let (lb, rb) = (left_scope.covers(b), right_scope.covers(b));
            if la && rb && !ra {
                lkeys.push(compile(a, &left_scope, ctx.db)?);
                rkeys.push(compile(b, &right_scope, ctx.db)?);
                if i < on_conjuncts.len() {
                    used_as_key[i] = true;
                }
                continue;
            }
            if lb && ra && !rb {
                lkeys.push(compile(b, &left_scope, ctx.db)?);
                rkeys.push(compile(a, &right_scope, ctx.db)?);
                if i < on_conjuncts.len() {
                    used_as_key[i] = true;
                }
                continue;
            }
        }
    }
    for (i, c) in on_conjuncts.iter().enumerate() {
        if !used_as_key[i] {
            residual_on.push(c);
        }
    }

    join(left, right, lkeys, rkeys, residual_on, step.kind, &stream_filters, ctx)
}

/// WHERE conjuncts that become fully evaluable at this join step (they
/// reference right-side columns) are applied to each *emitted* row — after
/// the match/null-extension decision, so outer-join semantics are
/// preserved; the final WHERE re-checks them, making this purely an early
/// filter. This is what keeps e.g. `rs.elm = prior.v` from materializing
/// the whole multi-value expansion.
fn stream_filters(
    left: &Rel,
    right_cols: &[OutCol],
    where_conjuncts: &[&Expr],
    ctx: &ExecCtx<'_>,
) -> Result<Vec<CExpr>> {
    let left_scope = Scope::from_cols(&left.cols);
    let mut cols = left.cols.clone();
    cols.extend(right_cols.iter().cloned());
    let combined = Scope::from_cols(&cols);
    let mut out = Vec::new();
    for c in where_conjuncts {
        if !expr_is_trivial(c) && combined.covers(c) && !left_scope.covers(c) {
            out.push(compile(c, &combined, ctx.db)?);
        }
    }
    Ok(out)
}

fn expr_is_trivial(e: &Expr) -> bool {
    collect_columns(e).is_empty()
}

/// Output columns a relation will produce, *without* materializing base
/// tables (subqueries are not pre-resolved; their pushdown happens after
/// execution inside [`scan_relation`]).
fn relation_cols(relation: &Relation, alias: Option<&str>, ctx: &ExecCtx<'_>) -> Result<Vec<OutCol>> {
    match relation {
        Relation::Named(name) => {
            let lower = name.to_ascii_lowercase();
            let qual = alias.map(str::to_ascii_lowercase).unwrap_or_else(|| lower.clone());
            if let Some(cte) = ctx.ctes.get(&lower) {
                return Ok(cte
                    .cols
                    .iter()
                    .map(|c| OutCol { qualifier: Some(qual.clone()), name: c.name.clone() })
                    .collect());
            }
            let table = ctx
                .db
                .table(&lower)
                .ok_or_else(|| Error::Plan(format!("unknown table {name:?}")))?;
            Ok(table
                .schema
                .columns
                .iter()
                .map(|c| OutCol { qualifier: Some(qual.clone()), name: c.name.clone() })
                .collect())
        }
        Relation::Subquery(q) => {
            // Column names of a subquery are those of its SELECT list; we
            // cannot know them cheaply without planning, so be conservative:
            // no pushdown (empty scope) — correctness is preserved by the
            // final WHERE re-check.
            let _ = q;
            Ok(Vec::new())
        }
        Relation::Unnest { .. } => unreachable!("handled in apply_step"),
    }
}

/// Materialize a relation applying pushdown predicates; for base tables an
/// equality predicate on an indexed column turns the scan into a probe.
fn scan_relation(
    relation: &Relation,
    alias: Option<&str>,
    cols: Vec<OutCol>,
    push: &[&Expr],
    ctx: &ExecCtx<'_>,
) -> Result<Rel> {
    match relation {
        Relation::Named(name) => {
            let lower = name.to_ascii_lowercase();
            if let Some(cte) = ctx.ctes.get(&lower) {
                let rel = Rel { cols, rows: cte.rows.clone() };
                return filter_rows(rel, push, ctx);
            }
            let table = ctx.db.table(&lower).expect("checked in relation_cols");
            let scope = Scope::from_cols(&cols);
            let mut conds: Vec<CExpr> =
                push.iter().map(|e| compile(e, &scope, ctx.db)).collect::<Result<_>>()?;
            order_by_cost(&mut conds);

            // Index probe: find `col = literal` (either orientation) among the
            // pushed conjuncts where `col` has an index.
            let mut probe: Option<(usize, Value)> = None;
            for c in push {
                if let Expr::Binary { op: BinaryOp::Eq, left, right } = c {
                    let pair = match (left.as_ref(), right.as_ref()) {
                        (Expr::Column { qualifier, name }, Expr::Literal(v))
                        | (Expr::Literal(v), Expr::Column { qualifier, name }) => {
                            Some((qualifier, name, v))
                        }
                        _ => None,
                    };
                    if let Some((q, n, v)) = pair {
                        if scope.resolve(q.as_deref(), n).is_ok()
                            && table.index_on(n).is_some()
                        {
                            let ci = table.schema.column_index(n).unwrap();
                            probe = Some((ci, v.clone()));
                            break;
                        }
                    }
                }
            }

            let width = table.width();
            let scan_t0 = ctx.phase_start();
            let rows = match probe {
                Some((ci, key)) => {
                    // Index probes touch few rows; stay sequential.
                    let index = table
                        .index_on(&table.schema.columns[ci].name)
                        .expect("index checked above");
                    let mut rows = Vec::new();
                    for &rid in index.lookup(&key) {
                        let vals = table.row_values(rid);
                        if eval_all(&conds, &vals)? {
                            rows.push(vals);
                        }
                    }
                    ctx.charge(rows.len())?;
                    rows
                }
                None => {
                    // Morsel-parallel full scan: each worker decompresses and
                    // filters its morsel, charging the budget as it goes, so
                    // LimitExceeded fires from inside worker threads. Each
                    // worker checks one scratch buffer out of the query-wide
                    // freelist for its whole run — rejected rows (the common
                    // case on a filtered scan) never pay a heap allocation,
                    // and the buffers carry over to later scans in the query.
                    // A morsel is a run of whole row chunks, each walked as
                    // one contiguous slice.
                    let conds = &conds;
                    parallel_morsels_scratch(
                        ctx.pool(),
                        table.row_count(),
                        &|| ctx.scratch_take(),
                        &|buf| ctx.scratch_put(buf),
                        |range, buf| {
                            let mut out = Vec::new();
                            for rows in table.row_slices(range) {
                                for r in rows {
                                    r.decompress_into(width, buf);
                                    if eval_all(conds, buf)? {
                                        out.push(std::mem::take(buf));
                                    }
                                }
                            }
                            ctx.charge(out.len())?;
                            Ok(out)
                        },
                    )?
                }
            };
            ctx.phase_add(Phase::Scan, scan_t0);
            Ok(Rel { cols, rows })
        }
        Relation::Subquery(q) => {
            let mut rel = exec_query(q, ctx)?;
            let qual = alias.map(str::to_ascii_lowercase);
            for c in &mut rel.cols {
                c.qualifier = qual.clone();
            }
            // push was computed against an empty scope, so it is empty here.
            Ok(rel)
        }
        Relation::Unnest { .. } => unreachable!("handled in apply_step"),
    }
}

/// Probe `table`'s index on column `ci` once per left row, applying the
/// pushed single-table predicates to each probed row and the full join
/// condition to each combined row. Handles both inner and left-outer joins.
#[allow(clippy::too_many_arguments)]
fn index_nested_loop(
    left: Rel,
    table_name: &str,
    right_cols: Vec<OutCol>,
    key_col: usize,
    left_key: CExpr,
    push: &[&Expr],
    step: &Step<'_>,
    where_conjuncts: &[&Expr],
    ctx: &ExecCtx<'_>,
) -> Result<Rel> {
    let stream = stream_filters(&left, &right_cols, where_conjuncts, ctx)?;
    let table = ctx.db.table(table_name).expect("caller checked");
    let index = table
        .index_on(&table.schema.columns[key_col].name)
        .expect("caller checked index presence");
    let right_scope = Scope::from_cols(&right_cols);
    let mut push_conds: Vec<CExpr> =
        push.iter().map(|e| compile(e, &right_scope, ctx.db)).collect::<Result<_>>()?;
    order_by_cost(&mut push_conds);

    let mut cols = left.cols.clone();
    cols.extend(right_cols.iter().cloned());
    let combined_scope = Scope::from_cols(&cols);
    // The whole ON condition re-checked per combined row (cheap, safe).
    let residual: Vec<CExpr> = step
        .on
        .map(|e| e.conjuncts())
        .unwrap_or_default()
        .iter()
        .map(|e| compile(e, &combined_scope, ctx.db))
        .collect::<Result<_>>()?;

    let width = table.width();
    let probe_t0 = ctx.phase_start();
    let mut rows = Vec::new();
    for l in &left.rows {
        let key = left_key.eval(l)?;
        let rids: &[u32] = if key.is_null() { &[] } else { index.lookup(&key) };
        ctx.charge(rids.len().max(1))?;
        let mut matched = false;
        for &rid in rids {
            let vals = table.row(rid).decompress(width);
            if !eval_all(&push_conds, &vals)? {
                continue;
            }
            let mut combined = l.clone();
            combined.extend(vals);
            if !eval_all(&residual, &combined)? {
                continue;
            }
            matched = true;
            if eval_all(&stream, &combined)? {
                rows.push(combined);
            }
        }
        if !matched && step.kind == JoinKind::LeftOuter {
            let mut combined = l.clone();
            combined.extend(std::iter::repeat_with(|| Value::Null).take(width));
            if eval_all(&stream, &combined)? {
                rows.push(combined);
            }
        }
    }
    ctx.phase_add(Phase::Probe, probe_t0);
    Ok(Rel { cols, rows })
}

fn eval_all<R: RowAccess + ?Sized>(conds: &[CExpr], row: &R) -> Result<bool> {
    for c in conds {
        if !c.eval_truthy(row)? {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Order conjuncts so cheap comparisons short-circuit before expensive ones
/// (function calls, LIKE, CASE). `eval_all` stops at the first rejecting
/// conjunct, so on a selective scan this keeps e.g. a per-row dictionary
/// materialization behind an integer equality that filters most rows out.
/// Stable, so equal-cost conjuncts keep their written order.
fn order_by_cost(conds: &mut [CExpr]) {
    fn is_expensive(e: &CExpr) -> bool {
        match e {
            CExpr::Call { .. } | CExpr::Like { .. } | CExpr::Case { .. } => true,
            CExpr::Col(_) | CExpr::Lit(_) => false,
            CExpr::Binary { left, right, .. } => is_expensive(left) || is_expensive(right),
            CExpr::Unary { expr, .. }
            | CExpr::IsNull { expr, .. }
            | CExpr::Cast { expr, .. } => is_expensive(expr),
            CExpr::InList { expr, list, .. } => {
                is_expensive(expr) || list.iter().any(is_expensive)
            }
        }
    }
    conds.sort_by_key(is_expensive);
}

fn filter_rows(mut rel: Rel, push: &[&Expr], ctx: &ExecCtx<'_>) -> Result<Rel> {
    let scope = Scope::from_cols(&rel.cols);
    let mut conds: Vec<CExpr> =
        push.iter().map(|e| compile(e, &scope, ctx.db)).collect::<Result<_>>()?;
    order_by_cost(&mut conds);
    let scan_t0 = ctx.phase_start();
    let rows = &rel.rows;
    let conds_ref = &conds;
    let keep: Vec<bool> = parallel_morsels(ctx, rows.len(), |range| {
        let mut out = Vec::with_capacity(range.len());
        let mut kept = 0usize;
        for i in range {
            let k = eval_all(conds_ref, &rows[i])?;
            kept += k as usize;
            out.push(k);
        }
        ctx.charge(kept)?;
        Ok(out)
    })?;
    let mut i = 0;
    rel.rows.retain(|_| {
        let k = keep[i];
        i += 1;
        k
    });
    ctx.phase_add(Phase::Scan, scan_t0);
    Ok(rel)
}

fn unnest(
    cur: Rel,
    tuples: &[Vec<Expr>],
    columns: &[String],
    alias: Option<&str>,
    ctx: &ExecCtx<'_>,
) -> Result<Rel> {
    let scope = Scope::from_cols(&cur.cols);
    let compiled: Vec<Vec<CExpr>> = tuples
        .iter()
        .map(|t| t.iter().map(|e| compile(e, &scope, ctx.db)).collect::<Result<Vec<_>>>())
        .collect::<Result<_>>()?;
    let qual = alias.map(str::to_ascii_lowercase);
    let mut cols = cur.cols.clone();
    for c in columns {
        cols.push(OutCol { qualifier: qual.clone(), name: c.to_ascii_lowercase() });
    }
    let mut rows = Vec::new();
    for row in &cur.rows {
        for tuple in &compiled {
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
    Ok(Rel { cols, rows })
}

/// Sentinel right-row id marking a left-outer null extension in the
/// late-materialization pair list.
const NULL_EXTENDED: usize = usize::MAX;

// ---------------------------------------------------------------------------
// Partitioned parallel hash-table build
// ---------------------------------------------------------------------------

/// Number of radix partitions for the parallel hash-join build and the
/// partitioned dedupe pass. A fixed power of two, deliberately independent
/// of the pool width: partition contents — and therefore every
/// order-sensitive merge — are identical at every thread count. 32 keeps
/// partitions plentiful enough to load-balance 8 workers while per-morsel
/// scatter buckets stay cache-resident.
const BUILD_PARTITIONS: usize = 32;

/// Partition id = the TOP bits of the key's [`fx_hash_one`] hash. The hash
/// map derives its bucket index from the LOW bits, so the two levels stay
/// independent — a partition's keys still spread over its whole map.
const PARTITION_SHIFT: u32 = u64::BITS - BUILD_PARTITIONS.trailing_zeros();

/// Inputs below this size build a single map on the calling thread: they fit
/// in one morsel, so there is no work to share and the scatter pass would be
/// pure overhead. The cutoff depends only on input size, never thread count.
const PARALLEL_BUILD_MIN: usize = MORSEL_ROWS;

/// A `key → row-ids` multimap split into hash-disjoint partitions so many
/// workers can build it without sharing a map. `parts.len()` is either 1
/// (small-input sequential build) or [`BUILD_PARTITIONS`]; `lookup`
/// recomputes the key's partition from its hash.
/// One partition's `key → ascending row-ids` multimap.
type KeyMap<K> = FxHashMap<K, Vec<u32>>;

struct PartitionedTable<K> {
    parts: Vec<KeyMap<K>>,
}

impl<K: std::hash::Hash + Eq> PartitionedTable<K> {
    #[inline]
    fn lookup(&self, key: &K) -> &[u32] {
        let part = if self.parts.len() == 1 {
            0
        } else {
            (fx_hash_one(key) >> PARTITION_SHIFT) as usize
        };
        self.parts[part].get(key).map(Vec::as_slice).unwrap_or(&[])
    }
}

/// Build a `key → row-ids` multimap over `rows`. Rows whose key evaluates to
/// `None` (NULL join keys) are skipped, matching SQL equality semantics.
///
/// Large inputs build in two parallel phases: phase 1 evaluates keys
/// morsel-parallel, scattering `(key, row-id)` pairs into per-morsel
/// partition buckets; phase 2 hands each worker whole partitions to build
/// into maps independently — no shared-map contention, no serial build.
/// Phase 1 buckets come back in morsel order and phase 2 inserts each
/// partition's entries in that order, so every per-key row-id list is
/// ascending — exactly what a sequential one-pass build produces — and probe
/// output stays byte-identical at every thread count.
fn partitioned_build<K>(
    ctx: &ExecCtx<'_>,
    rows: &[Vec<Value>],
    eval_key: &(dyn Fn(&[Value]) -> Result<Option<K>> + Sync),
) -> Result<PartitionedTable<K>>
where
    K: std::hash::Hash + Eq + Clone + Send + Sync,
{
    if rows.len() < PARALLEL_BUILD_MIN || ctx.threads() <= 1 {
        let mut map: FxHashMap<K, Vec<u32>> = FxHashMap::with_capacity_and_hasher(
            rows.len(),
            crate::hash::FxBuildHasher::default(),
        );
        for (i, r) in rows.iter().enumerate() {
            if let Some(k) = eval_key(r)? {
                map.entry(k).or_default().push(i as u32);
            }
        }
        return Ok(PartitionedTable { parts: vec![map] });
    }

    // Phase 1: morsel-parallel key evaluation + scatter. One bucket set per
    // morsel; `parallel_morsels` returns them in morsel order.
    let scattered: Vec<Vec<Vec<(K, u32)>>> = parallel_morsels(ctx, rows.len(), |range| {
        let mut buckets: Vec<Vec<(K, u32)>> =
            (0..BUILD_PARTITIONS).map(|_| Vec::new()).collect();
        for i in range {
            if let Some(k) = eval_key(&rows[i])? {
                let part = (fx_hash_one(&k) >> PARTITION_SHIFT) as usize;
                buckets[part].push((k, i as u32));
            }
        }
        Ok(vec![buckets])
    })?;

    // Phase 2: workers claim whole partitions off a shared counter; no two
    // ever touch the same map.
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<KeyMap<K>>>> =
        Mutex::new((0..BUILD_PARTITIONS).map(|_| None).collect());
    let scattered_ref = &scattered;
    ctx.pool().broadcast(&|_worker| loop {
        let part = next.fetch_add(1, Ordering::Relaxed);
        if part >= BUILD_PARTITIONS {
            break;
        }
        let len: usize = scattered_ref.iter().map(|m| m[part].len()).sum();
        let mut map: FxHashMap<K, Vec<u32>> =
            FxHashMap::with_capacity_and_hasher(len, crate::hash::FxBuildHasher::default());
        for morsel in scattered_ref {
            for (k, rid) in &morsel[part] {
                map.entry(k.clone()).or_default().push(*rid);
            }
        }
        slots.lock().unwrap()[part] = Some(map);
    });
    let parts = slots
        .into_inner()
        .unwrap()
        .into_iter()
        .map(|m| m.expect("every partition claimed and built"))
        .collect();
    Ok(PartitionedTable { parts })
}

/// Hash join with late materialization. The hash table over the right side
/// is built once; left rows are probed morsel-parallel. Residual ON and
/// stream predicates are evaluated on a zero-copy [`SplitRow`] view of each
/// candidate pair, and surviving matches are carried as
/// `(left_row, right_row)` index pairs. Combined rows are materialized (also
/// morsel-parallel) only for pairs that passed every predicate — candidate
/// rows rejected by a predicate are never copied at all.
#[allow(clippy::too_many_arguments)]
fn join(
    left: Rel,
    right: Rel,
    lkeys: Vec<CExpr>,
    rkeys: Vec<CExpr>,
    residual_on: Vec<&Expr>,
    kind: JoinKind,
    stream: &[CExpr],
    ctx: &ExecCtx<'_>,
) -> Result<Rel> {
    let mut cols = left.cols.clone();
    cols.extend(right.cols.iter().cloned());
    let combined_scope = Scope::from_cols(&cols);
    let residual: Vec<CExpr> = residual_on
        .iter()
        .map(|e| compile(e, &combined_scope, ctx.db))
        .collect::<Result<_>>()?;
    let right_width = right.cols.len();
    let null_row: Vec<Value> = vec![Value::Null; right_width];

    // Build phase: hash right rows on their key into a partitioned table
    // (parallel radix build above the size cutoff — see `partitioned_build`).
    // Empty `lkeys` means no equi-condition was found — every right row is a
    // candidate (cross product guarded by an upfront budget charge).
    // Single-column keys — the common case, and after dictionary encoding a
    // bare i64 — are stored as `Value` directly so neither build nor probe
    // heap-allocates a composite key per row.
    enum KeyTable {
        Single(PartitionedTable<Value>),
        Multi(PartitionedTable<Vec<Value>>),
    }
    let cross = lkeys.is_empty();
    let build_t0 = ctx.phase_start();
    let table = if cross {
        ctx.charge(left.rows.len().saturating_mul(right.rows.len().max(1)))?;
        KeyTable::Single(PartitionedTable { parts: vec![FxHashMap::default()] })
    } else if rkeys.len() == 1 {
        let rk = &rkeys[0];
        KeyTable::Single(partitioned_build(ctx, &right.rows, &|r| {
            let v = rk.eval(r)?;
            Ok(if v.is_null() { None } else { Some(v) })
        })?)
    } else {
        let rkeys_ref = &rkeys;
        KeyTable::Multi(partitioned_build(ctx, &right.rows, &|r| {
            let mut key = Vec::with_capacity(rkeys_ref.len());
            for k in rkeys_ref {
                let v = k.eval(r)?;
                if v.is_null() {
                    return Ok(None);
                }
                key.push(v);
            }
            Ok(Some(key))
        })?)
    };
    ctx.phase_add(Phase::Build, build_t0);

    // Probe phase: morsel-parallel over left rows; output is `(l, r)` index
    // pairs in left-row order, so the final row order matches a sequential
    // left-to-right probe exactly.
    let probe_t0 = ctx.phase_start();
    let all_right: Vec<u32> =
        if cross { (0..right.rows.len() as u32).collect() } else { Vec::new() };
    let (left_rows, right_rows) = (&left.rows, &right.rows);
    let (table_ref, lkeys_ref, residual_ref) = (&table, &lkeys, &residual);
    let (null_ref, all_right_ref) = (&null_row, &all_right);
    let pairs: Vec<(usize, usize)> = parallel_morsels(ctx, left_rows.len(), |range| {
        let mut out = Vec::new();
        let mut key = Vec::with_capacity(lkeys_ref.len());
        for li in range {
            let l = &left_rows[li];
            let matches: &[u32] = if cross {
                all_right_ref
            } else {
                match table_ref {
                    KeyTable::Single(t) => {
                        let v = lkeys_ref[0].eval(l)?;
                        if v.is_null() {
                            &[]
                        } else {
                            t.lookup(&v)
                        }
                    }
                    KeyTable::Multi(t) => {
                        key.clear();
                        let mut null_key = false;
                        for k in lkeys_ref {
                            let v = k.eval(l)?;
                            if v.is_null() {
                                null_key = true;
                                break;
                            }
                            key.push(v);
                        }
                        if null_key {
                            &[]
                        } else {
                            t.lookup(&key)
                        }
                    }
                }
            };
            let mut matched = false;
            for &ri in matches {
                let ri = ri as usize;
                let pair = SplitRow { left: l, right: &right_rows[ri] };
                if !eval_all(residual_ref, &pair)? {
                    continue;
                }
                matched = true;
                if eval_all(stream, &pair)? {
                    out.push((li, ri));
                }
            }
            if !matched && kind == JoinKind::LeftOuter {
                let pair = SplitRow { left: l, right: null_ref };
                if eval_all(stream, &pair)? {
                    out.push((li, NULL_EXTENDED));
                }
            }
            if !cross {
                ctx.charge(matches.len().max(1))?;
            }
        }
        Ok(out)
    })?;

    // Materialization phase: copy out only the surviving pairs.
    let pairs_ref = &pairs;
    let rows: Vec<Vec<Value>> = parallel_morsels(ctx, pairs.len(), |range| {
        let mut out = Vec::with_capacity(range.len());
        for &(li, ri) in &pairs_ref[range] {
            let mut combined =
                Vec::with_capacity(left_rows[li].len() + right_width);
            combined.extend(left_rows[li].iter().cloned());
            let r = if ri == NULL_EXTENDED { null_ref } else { &right_rows[ri] };
            combined.extend(r.iter().cloned());
            out.push(combined);
        }
        Ok(out)
    })?;
    ctx.phase_add(Phase::Probe, probe_t0);
    Ok(Rel { cols, rows })
}

fn project(items: &[SelectItem], rel: Rel, ctx: &ExecCtx<'_>) -> Result<Rel> {
    let scope = Scope::from_cols(&rel.cols);
    let mut out_cols: Vec<OutCol> = Vec::new();
    let mut exprs: Vec<CExpr> = Vec::new();
    for item in items {
        match item {
            SelectItem::Wildcard => {
                for (i, c) in rel.cols.iter().enumerate() {
                    out_cols.push(OutCol { qualifier: None, name: c.name.clone() });
                    exprs.push(CExpr::Col(i));
                }
            }
            SelectItem::QualifiedWildcard(q) => {
                let qq = q.to_ascii_lowercase();
                let mut any = false;
                for (i, c) in rel.cols.iter().enumerate() {
                    if c.qualifier.as_deref() == Some(qq.as_str()) {
                        out_cols.push(OutCol { qualifier: None, name: c.name.clone() });
                        exprs.push(CExpr::Col(i));
                        any = true;
                    }
                }
                if !any {
                    return plan_err(format!("unknown qualifier {q:?} in wildcard"));
                }
            }
            SelectItem::Expr { expr, alias } => {
                let name = alias.clone().unwrap_or_else(|| match expr {
                    Expr::Column { name, .. } => name.clone(),
                    _ => format!("col{}", out_cols.len() + 1),
                });
                out_cols.push(OutCol { qualifier: None, name: name.to_ascii_lowercase() });
                exprs.push(compile(expr, &scope, ctx.db)?);
            }
        }
    }
    // Morsel-parallel expression projection; morsel-order concatenation
    // keeps output rows aligned with input order.
    let in_rows = &rel.rows;
    let exprs_ref = &exprs;
    let rows: Vec<Vec<Value>> = parallel_morsels(ctx, in_rows.len(), |range| {
        let mut out = Vec::with_capacity(range.len());
        for i in range {
            let row = &in_rows[i];
            let mut vals = Vec::with_capacity(exprs_ref.len());
            for e in exprs_ref {
                vals.push(e.eval(row)?);
            }
            out.push(vals);
        }
        Ok(out)
    })?;
    Ok(Rel { cols: out_cols, rows })
}

// ---------------------------------------------------------------------------
// Aggregation
// ---------------------------------------------------------------------------

fn select_has_aggregates(sel: &Select) -> bool {
    fn expr_has(e: &Expr) -> bool {
        match e {
            // An aggregate may hide inside a scalar call: COALESCE(SUM(x), 0).
            Expr::Func { name, star, args, .. } => {
                *star || is_aggregate(name) || args.iter().any(expr_has)
            }
            Expr::Column { .. } | Expr::Literal(_) => false,
            Expr::Binary { left, right, .. } => expr_has(left) || expr_has(right),
            Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } | Expr::Cast { expr, .. } => {
                expr_has(expr)
            }
            Expr::InList { expr, list, .. } => expr_has(expr) || list.iter().any(expr_has),
            Expr::Like { expr, pattern, .. } => expr_has(expr) || expr_has(pattern),
            Expr::Case { branches, else_expr } => {
                branches.iter().any(|(c, v)| expr_has(c) || expr_has(v))
                    || else_expr.as_deref().is_some_and(expr_has)
            }
        }
    }
    sel.projection.iter().any(|i| match i {
        SelectItem::Expr { expr, .. } => expr_has(expr),
        _ => false,
    }) || sel.having.as_ref().is_some_and(expr_has)
}

/// Hash aggregation. Supports projections/HAVING built from GROUP BY
/// expressions and aggregate calls.
fn aggregate(sel: &Select, input: Rel, ctx: &ExecCtx<'_>) -> Result<Rel> {
    let in_scope = Scope::from_cols(&input.cols);

    // Collect the distinct aggregate calls appearing anywhere.
    let mut agg_calls: Vec<Expr> = Vec::new();
    let mut collect = |e: &Expr| {
        for a in find_aggregates(e) {
            if !agg_calls.contains(&a) {
                agg_calls.push(a);
            }
        }
    };
    for item in &sel.projection {
        if let SelectItem::Expr { expr, .. } = item {
            collect(expr);
        }
    }
    if let Some(h) = &sel.having {
        collect(h);
    }

    let group_exprs: Vec<CExpr> =
        sel.group_by.iter().map(|e| compile(e, &in_scope, ctx.db)).collect::<Result<_>>()?;
    // Aggregate argument expressions (None for COUNT(*)).
    let agg_args: Vec<Option<CExpr>> = agg_calls
        .iter()
        .map(|a| match a {
            Expr::Func { star: true, .. } => Ok(None),
            Expr::Func { args, .. } => Ok(Some(compile(&args[0], &in_scope, ctx.db)?)),
            _ => unreachable!(),
        })
        .collect::<Result<_>>()?;

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
    }

    /// Should candidate `v` replace the current MIN (`want_less`) or MAX
    /// representative `m`? On a `total_cmp` tie — only possible for an Int
    /// and a Double of equal value, e.g. `1` vs `1.0` — prefer the Int so
    /// the retained representative is a function of the value multiset, not
    /// of the order rows reach the aggregate.
    fn replaces(v: &Value, m: &Value, want_less: bool) -> bool {
        use std::cmp::Ordering;
        match v.total_cmp(m) {
            Ordering::Equal => {
                matches!(v, Value::Int(_)) && matches!(m, Value::Double(_))
            }
            Ordering::Less => want_less,
            Ordering::Greater => !want_less,
        }
    }

    // Accumulation runs as per-MORSEL partial aggregates (morsel-parallel),
    // merged below in morsel order. Because morsel boundaries are fixed by
    // MORSEL_ROWS alone, both the float summation order and the
    // first-occurrence group order are pure functions of the input — results
    // are byte-identical at every thread count.
    let agg_t0 = ctx.phase_start();
    type Partial = Vec<(Vec<Value>, Vec<AggState>)>;
    let (group_ref, arg_ref) = (&group_exprs, &agg_args);
    let in_rows = &input.rows;
    let agg_distinct: Vec<bool> = agg_calls
        .iter()
        .map(|a| matches!(a, Expr::Func { distinct: true, .. }))
        .collect();
    let dist_ref = &agg_distinct;
    let fresh_states =
        move || dist_ref.iter().map(|d| AggState::new(*d)).collect::<Vec<_>>();
    let partials: Vec<Partial> = parallel_morsels(ctx, in_rows.len(), |range| {
        let mut idx: FxHashMap<Vec<Value>, usize> = FxHashMap::default();
        let mut local: Partial = Vec::new();
        for row in &in_rows[range] {
            let key: Vec<Value> =
                group_ref.iter().map(|e| e.eval(row)).collect::<Result<_>>()?;
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
            for (i, arg) in arg_ref.iter().enumerate() {
                match arg {
                    None => states[i].count += 1, // COUNT(*)
                    Some(e) => {
                        let v = e.eval(row)?;
                        states[i].update(&v);
                    }
                }
            }
        }
        Ok(vec![local])
    })?;

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
    if sel.group_by.is_empty() && merged.is_empty() {
        merged.push((Vec::new(), fresh_states()));
    }

    // Build the intermediate scope: group-by exprs then aggregate values.
    let mut mid_cols: Vec<OutCol> = Vec::new();
    for (i, e) in sel.group_by.iter().enumerate() {
        let name = match e {
            Expr::Column { name, .. } => name.clone(),
            _ => format!("_g{i}"),
        };
        mid_cols.push(OutCol { qualifier: None, name: name.to_ascii_lowercase() });
    }
    for i in 0..agg_calls.len() {
        mid_cols.push(OutCol { qualifier: None, name: format!("_agg{i}") });
    }

    let mut mid_rows: Vec<Vec<Value>> = Vec::with_capacity(merged.len());
    for (key, states) in merged {
        let mut row = key;
        for (i, call) in agg_calls.iter().enumerate() {
            let s = states[i].plain();
            let Expr::Func { name, .. } = call else { unreachable!() };
            let v = match name.as_str() {
                "count" => Value::Int(s.count as i64),
                "sum" => {
                    if s.count == 0 {
                        Value::Null
                    } else if s.sum_is_int {
                        Value::Int(s.sum_int)
                    } else {
                        Value::Double(s.sum)
                    }
                }
                "avg" => {
                    if s.count == 0 {
                        Value::Null
                    } else {
                        Value::Double(s.sum / s.count as f64)
                    }
                }
                "min" => s.min.clone().unwrap_or(Value::Null),
                "max" => s.max.clone().unwrap_or(Value::Null),
                _ => unreachable!(),
            };
            row.push(v);
        }
        mid_rows.push(row);
    }
    ctx.charge(mid_rows.len())?;

    // Rewrite projection/having over the intermediate scope.
    let rewrite = |e: &Expr| -> Expr {
        rewrite_agg(e, &sel.group_by, &agg_calls)
    };
    let mid = Rel { cols: mid_cols, rows: mid_rows };
    let mid_scope = Scope::from_cols(&mid.cols);

    let mut rel = mid;
    if let Some(h) = &sel.having {
        let cond = compile(&rewrite(h), &mid_scope, ctx.db)?;
        let mut kept = Vec::new();
        for row in rel.rows {
            if cond.eval_truthy(&row)? {
                kept.push(row);
            }
        }
        rel.rows = kept;
    }

    let items: Vec<SelectItem> = sel
        .projection
        .iter()
        .map(|item| match item {
            SelectItem::Expr { expr, alias } => {
                let name = alias.clone().or_else(|| match expr {
                    Expr::Column { name, .. } => Some(name.clone()),
                    Expr::Func { name, .. } => Some(name.clone()),
                    _ => None,
                });
                Ok(SelectItem::Expr { expr: rewrite(expr), alias: name })
            }
            _ => plan_err("wildcard projection is not supported with GROUP BY"),
        })
        .collect::<Result<_>>()?;
    ctx.phase_add(Phase::Agg, agg_t0);
    project(&items, rel, ctx)
}

fn find_aggregates(e: &Expr) -> Vec<Expr> {
    let mut out = Vec::new();
    fn walk(e: &Expr, out: &mut Vec<Expr>) {
        match e {
            Expr::Func { name, star, .. } if *star || is_aggregate(name) => out.push(e.clone()),
            Expr::Func { args, .. } => args.iter().for_each(|a| walk(a, out)),
            Expr::Binary { left, right, .. } => {
                walk(left, out);
                walk(right, out);
            }
            Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } | Expr::Cast { expr, .. } => {
                walk(expr, out)
            }
            Expr::InList { expr, list, .. } => {
                walk(expr, out);
                list.iter().for_each(|a| walk(a, out));
            }
            Expr::Like { expr, pattern, .. } => {
                walk(expr, out);
                walk(pattern, out);
            }
            Expr::Case { branches, else_expr } => {
                for (c, v) in branches {
                    walk(c, out);
                    walk(v, out);
                }
                if let Some(x) = else_expr {
                    walk(x, out);
                }
            }
            Expr::Column { .. } | Expr::Literal(_) => {}
        }
    }
    walk(e, &mut out);
    out
}

/// Replace group-by expressions and aggregate calls with references into the
/// intermediate aggregation scope.
fn rewrite_agg(e: &Expr, group_by: &[Expr], agg_calls: &[Expr]) -> Expr {
    if let Some(i) = agg_calls.iter().position(|a| a == e) {
        return Expr::col(&format!("_agg{i}"));
    }
    if let Some(i) = group_by.iter().position(|g| g == e) {
        return match &group_by[i] {
            Expr::Column { name, .. } => Expr::col(name),
            _ => Expr::col(&format!("_g{i}")),
        };
    }
    match e {
        Expr::Binary { op, left, right } => Expr::Binary {
            op: *op,
            left: Box::new(rewrite_agg(left, group_by, agg_calls)),
            right: Box::new(rewrite_agg(right, group_by, agg_calls)),
        },
        Expr::Unary { op, expr } => {
            Expr::Unary { op: *op, expr: Box::new(rewrite_agg(expr, group_by, agg_calls)) }
        }
        Expr::IsNull { expr, negated } => Expr::IsNull {
            expr: Box::new(rewrite_agg(expr, group_by, agg_calls)),
            negated: *negated,
        },
        Expr::InList { expr, list, negated } => Expr::InList {
            expr: Box::new(rewrite_agg(expr, group_by, agg_calls)),
            list: list.iter().map(|x| rewrite_agg(x, group_by, agg_calls)).collect(),
            negated: *negated,
        },
        Expr::Like { expr, pattern, negated } => Expr::Like {
            expr: Box::new(rewrite_agg(expr, group_by, agg_calls)),
            pattern: Box::new(rewrite_agg(pattern, group_by, agg_calls)),
            negated: *negated,
        },
        Expr::Case { branches, else_expr } => Expr::Case {
            branches: branches
                .iter()
                .map(|(c, v)| {
                    (rewrite_agg(c, group_by, agg_calls), rewrite_agg(v, group_by, agg_calls))
                })
                .collect(),
            else_expr: else_expr
                .as_ref()
                .map(|x| Box::new(rewrite_agg(x, group_by, agg_calls))),
        },
        Expr::Cast { expr, ty } => {
            Expr::Cast { expr: Box::new(rewrite_agg(expr, group_by, agg_calls)), ty: *ty }
        }
        Expr::Func { name, args, star, distinct } => Expr::Func {
            name: name.clone(),
            args: args.iter().map(|x| rewrite_agg(x, group_by, agg_calls)).collect(),
            star: *star,
            distinct: *distinct,
        },
        _ => e.clone(),
    }
}
