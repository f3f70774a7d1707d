//! SPARQL→SQL translation (paper §3.2.2).
//!
//! The execution tree is linearized into a chain of CTEs, exactly like the
//! paper's Fig. 13: every CTE threads all previously bound variables
//! through, star accesses become single `DPH`/`RPH` probes (the layout
//! backends implement [`StarGen`]), UNIONs become `UNION ALL` of per-branch
//! chains, OPTIONALs become `LEFT OUTER JOIN`s, and FILTERs attach to the
//! earliest CTE where their variables are bound.

pub mod entity;
pub mod filters;
pub mod functions;

use std::cell::Cell;
use std::collections::{BTreeMap, HashSet};

use rdf::Term;
use sparql::{Expression, Query, QueryForm, SelectItem, ValuesBlock};

use crate::dict::Dict;
use crate::error::{Result, StoreError};
use crate::optimizer::ExecNode;

/// The term dictionary as translation sees it. A lookup that misses is
/// recorded: a plan that folded an unknown constant (to `NULL`, or to a
/// string no stored id equals) holds only until the dictionary grows, while
/// a plan naming known terms only holds for as long as the layout does —
/// the plan cache keeps the two apart.
pub struct PlanDict<'a> {
    dict: &'a Dict,
    missed: Cell<bool>,
}

impl<'a> PlanDict<'a> {
    pub fn new(dict: &'a Dict) -> Self {
        PlanDict { dict, missed: Cell::new(false) }
    }

    pub fn lookup(&self, term: &str) -> Option<i64> {
        let id = self.dict.lookup(term);
        if id.is_none() {
            self.missed.set(true);
        }
        id
    }

    /// SQL literal for a constant term (canonical encoding) in a stored
    /// column: its dictionary ID, or `NULL` when the term was never loaded
    /// (`x = NULL` is never true, so the comparison correctly matches
    /// nothing, and the miss makes the plan stale once the dictionary
    /// grows).
    pub fn const_sql(&self, term: &str) -> String {
        match self.lookup(term) {
            Some(id) => id.to_string(),
            None => "NULL".to_string(),
        }
    }

    /// Whether any lookup so far missed.
    pub fn missed(&self) -> bool {
        self.missed.get()
    }
}

/// Generation state: accumulated CTEs plus the variable → column map of the
/// chain head.
pub struct GenState {
    counter: usize,
    pub ctes: Vec<(String, String)>,
    /// Variables bound in the current chain head, mapped to column names.
    pub bound: BTreeMap<String, String>,
    /// Name of the current chain-head CTE.
    pub last: Option<String>,
    /// Bound variables whose column may still be SQL NULL (SPARQL-unbound):
    /// bound in only some UNION branches, or introduced by an OPTIONAL.
    /// Joins against them must be null-compatible (an unbound variable is
    /// compatible with any value) — see [`GenState::join_bound`].
    pub maybe_null: HashSet<String>,
    /// Variables whose column is in the *value domain* (aggregate or BIND
    /// arithmetic output — actual numbers, not dictionary IDs / canonical
    /// encodings). Drives filter lowering and result decoding.
    pub plain: HashSet<String>,
    colnames: BTreeMap<String, String>,
    used_cols: HashSet<String>,
}

impl Default for GenState {
    fn default() -> Self {
        Self::new()
    }
}

impl GenState {
    pub fn new() -> GenState {
        GenState {
            counter: 0,
            ctes: Vec::new(),
            bound: BTreeMap::new(),
            last: None,
            maybe_null: HashSet::new(),
            plain: HashSet::new(),
            colnames: BTreeMap::new(),
            used_cols: HashSet::new(),
        }
    }

    /// A fresh CTE name (`q1`, `q2`, ...).
    pub fn fresh(&mut self) -> String {
        self.counter += 1;
        format!("q{}", self.counter)
    }

    /// Stable, query-unique column name for a variable.
    pub fn col(&mut self, var: &str) -> String {
        if let Some(c) = self.colnames.get(var) {
            return c.clone();
        }
        let sanitized: String = var
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c.to_ascii_lowercase() } else { '_' })
            .collect();
        let mut name = format!("c_{sanitized}");
        let mut i = 0;
        while self.used_cols.contains(&name) {
            i += 1;
            name = format!("c_{sanitized}_{i}");
        }
        self.used_cols.insert(name.clone());
        self.colnames.insert(var.to_string(), name.clone());
        name
    }

    pub fn push_cte(&mut self, name: String, body: String) {
        self.ctes.push((name.clone(), body));
        self.last = Some(name);
    }

    /// `P.col AS col` projections for all currently bound variables.
    pub fn prior_projection(&self, prior_alias: &str) -> Vec<String> {
        self.bound.values().map(|c| format!("{prior_alias}.{c} AS {c}")).collect()
    }

    /// Join condition tying `expr` — a non-NULL access expression in the new
    /// CTE — to bound variable `v`'s prior column (aliased `P`). A definite
    /// column gives plain equality. A maybe-NULL column gives a
    /// null-compatible join (SPARQL: an unbound variable joins anything) and
    /// re-anchors the variable's projection in `select` to `COALESCE`, so it
    /// is definitely bound from this CTE on.
    pub fn join_bound(&mut self, v: &str, expr: &str, select: &mut [String]) -> String {
        let col = self.bound[v].clone();
        if self.maybe_null.remove(v) {
            let plain = format!("P.{col} AS {col}");
            for s in select.iter_mut() {
                if *s == plain {
                    *s = format!("COALESCE(P.{col}, {expr}) AS {col}");
                }
            }
            format!("(P.{col} IS NULL OR {expr} = P.{col})")
        } else {
            format!("{expr} = P.{col}")
        }
    }
}

/// A layout backend: generates the CTE(s) for one star access.
pub trait StarGen {
    fn gen_star(&self, star: &crate::optimizer::StarNode, state: &mut GenState) -> Result<()>;
}

/// Generate the CTE chain for an execution (sub)tree.
pub fn gen_pattern(backend: &dyn StarGen, node: &ExecNode, state: &mut GenState) -> Result<()> {
    match node {
        ExecNode::Star(star) => backend.gen_star(star, state),
        ExecNode::Seq { children, filters } => {
            let mut pending: Vec<&Expression> = filters.iter().collect();
            for child in children {
                gen_pattern(backend, child, state)?;
                // Late filter application: as soon as all variables bind
                // *definitely*. A maybe-NULL variable may still be re-bound
                // by a later null-compatible join, so filtering on it now
                // would evaluate against the wrong (unbound) value.
                let mut still_pending = Vec::new();
                for f in pending {
                    let ready = f.variables().iter().all(|v| {
                        state.bound.contains_key(*v) && !state.maybe_null.contains(*v)
                    });
                    if ready {
                        apply_filter(f, state)?;
                    } else {
                        still_pending.push(f);
                    }
                }
                pending = still_pending;
            }
            // Whatever remains references unbound variables (→ NULL).
            for f in pending {
                apply_filter(f, state)?;
            }
            Ok(())
        }
        ExecNode::Union(branches) => gen_union(backend, branches, state),
        ExecNode::Optional(inner) => gen_optional(backend, inner, state),
    }
}

pub(crate) fn apply_filter(f: &Expression, state: &mut GenState) -> Result<()> {
    let Some(last) = state.last.clone() else {
        return Ok(()); // filter over an empty pattern: nothing to constrain
    };
    let cond = filters::filter_to_sql(f, &state.bound, &state.plain)?;
    let name = state.fresh();
    let body = format!("SELECT * FROM {last} WHERE {cond}");
    state.push_cte(name, body);
    Ok(())
}

fn gen_union(backend: &dyn StarGen, branches: &[ExecNode], state: &mut GenState) -> Result<()> {
    let entry_last = state.last.clone();
    let entry_bound = state.bound.clone();
    let entry_maybe = state.maybe_null.clone();
    let mut branch_results: Vec<(String, BTreeMap<String, String>, HashSet<String>)> = Vec::new();
    for branch in branches {
        state.last = entry_last.clone();
        state.bound = entry_bound.clone();
        state.maybe_null = entry_maybe.clone();
        gen_pattern(backend, branch, state)?;
        let last = state
            .last
            .clone()
            .ok_or_else(|| StoreError::Unsupported("empty UNION branch".into()))?;
        branch_results.push((last, state.bound.clone(), state.maybe_null.clone()));
    }
    // Harmonized projection: the union of all branch variables.
    let mut all_vars: Vec<String> = Vec::new();
    for (_, bound, _) in &branch_results {
        for v in bound.keys() {
            if !all_vars.contains(v) {
                all_vars.push(v.clone());
            }
        }
    }
    let mut selects = Vec::new();
    for (last, bound, _) in &branch_results {
        let mut cols: Vec<String> = all_vars
            .iter()
            .map(|v| {
                let out = state.col(v);
                match bound.get(v) {
                    Some(c) => format!("{c} AS {out}"),
                    None => format!("NULL AS {out}"),
                }
            })
            .collect();
        if cols.is_empty() {
            // All-constant branches bind nothing; keep the row multiset.
            cols.push("1 AS one".to_string());
        }
        selects.push(format!("SELECT {} FROM {last}", cols.join(", ")));
    }
    let name = state.fresh();
    let body = selects.join(" UNION ALL ");
    state.bound = all_vars.iter().map(|v| (v.clone(), state.colnames[v].clone())).collect();
    // A variable missing from (or already maybe-NULL in) any branch may be
    // NULL in the union's output: later joins must stay null-compatible.
    state.maybe_null = entry_maybe;
    for v in &all_vars {
        if branch_results.iter().any(|(_, b, m)| !b.contains_key(v) || m.contains(v)) {
            state.maybe_null.insert(v.clone());
        }
    }
    state.push_cte(name, body);
    Ok(())
}

fn gen_optional(backend: &dyn StarGen, inner: &ExecNode, state: &mut GenState) -> Result<()> {
    let entry_last = state.last.clone();
    let entry_bound = state.bound.clone();
    let entry_maybe = state.maybe_null.clone();
    // The optional side is evaluated uncorrelated (see DESIGN.md): its head
    // access degrades to a scan when its entity is unbound.
    state.last = None;
    state.bound = BTreeMap::new();
    state.maybe_null = HashSet::new();
    gen_pattern(backend, inner, state)?;
    let opt_last = state.last.clone();
    let opt_bound = state.bound.clone();
    let opt_maybe = std::mem::replace(&mut state.maybe_null, entry_maybe);
    state.last = entry_last.clone();
    state.bound = entry_bound.clone();

    let Some(opt_last) = opt_last else {
        return Ok(()); // empty OPTIONAL: no-op
    };
    let Some(main) = entry_last else {
        // OPTIONAL at the start of a group: left-join the optional side
        // against the unit relation (one empty row, via FROM-less SELECT),
        // so a non-matching OPTIONAL still yields one all-unbound solution
        // per the W3C semantics instead of eliminating the group.
        let unit = state.fresh();
        state.push_cte(unit.clone(), "SELECT 1 AS opt_unit".to_string());
        let mut projection: Vec<String> =
            opt_bound.values().map(|c| format!("O.{c} AS {c}")).collect();
        if projection.is_empty() {
            projection.push("P.opt_unit AS opt_unit".to_string());
        }
        let name = state.fresh();
        let body = format!(
            "SELECT {} FROM {unit} AS P LEFT OUTER JOIN {opt_last} AS O ON TRUE",
            projection.join(", ")
        );
        for v in opt_bound.keys() {
            state.maybe_null.insert(v.clone());
        }
        state.bound = opt_bound;
        state.push_cte(name, body);
        return Ok(());
    };

    let shared: Vec<&String> = opt_bound.keys().filter(|v| entry_bound.contains_key(*v)).collect();
    let on = if shared.is_empty() {
        "TRUE".to_string()
    } else {
        shared
            .iter()
            .map(|v| {
                let pc = &entry_bound[*v];
                let oc = &opt_bound[*v];
                // A maybe-NULL side means the variable can be SPARQL-unbound
                // there, which is compatible with anything (W3C LeftJoin).
                let mut alts = Vec::new();
                if state.maybe_null.contains(*v) {
                    alts.push(format!("P.{pc} IS NULL"));
                }
                if opt_maybe.contains(*v) {
                    alts.push(format!("O.{oc} IS NULL"));
                }
                alts.push(format!("P.{pc} = O.{oc}"));
                if alts.len() == 1 {
                    alts.pop().unwrap()
                } else {
                    format!("({})", alts.join(" OR "))
                }
            })
            .collect::<Vec<_>>()
            .join(" AND ")
    };
    let mut projection = state.prior_projection("P");
    // Re-anchor maybe-NULL shared variables: when the prior column is
    // unbound and the optional matched, the optional supplies the value.
    for v in &shared {
        if state.maybe_null.contains(*v) {
            let pc = &entry_bound[*v];
            let oc = &opt_bound[*v];
            let plain = format!("P.{pc} AS {pc}");
            for s in projection.iter_mut() {
                if *s == plain {
                    *s = format!("COALESCE(P.{pc}, O.{oc}) AS {pc}");
                }
            }
        }
    }
    let mut new_bound = entry_bound.clone();
    for (v, c) in &opt_bound {
        if !entry_bound.contains_key(v) {
            projection.push(format!("O.{c} AS {c}"));
            new_bound.insert(v.clone(), c.clone());
            // A non-matching OPTIONAL leaves the variable NULL.
            state.maybe_null.insert(v.clone());
        }
    }
    let name = state.fresh();
    let body = format!(
        "SELECT {} FROM {main} AS P LEFT OUTER JOIN {opt_last} AS O ON {on}",
        projection.join(", ")
    );
    state.bound = new_bound;
    state.push_cte(name, body);
    Ok(())
}

/// Assemble the final SQL text for a query whose pattern chain has been
/// generated into `state`.
pub fn finish(query: &Query, state: &mut GenState) -> Result<String> {
    let mut sql = String::new();
    if !state.ctes.is_empty() {
        sql.push_str("WITH ");
        let parts: Vec<String> =
            state.ctes.iter().map(|(n, b)| format!("{n} AS ({b})")).collect();
        sql.push_str(&parts.join(",\n     "));
        sql.push('\n');
    }

    let distinct = query.is_distinct();
    match (&query.form, &state.last) {
        (QueryForm::Ask, Some(last)) => {
            sql.push_str(&format!("SELECT 1 AS ok FROM {last} LIMIT 1"));
            return Ok(sql);
        }
        (QueryForm::Ask, None) => {
            sql.push_str("SELECT 1 AS ok");
            return Ok(sql);
        }
        _ => {}
    }

    let projected = query.projected_variables();
    let mut items: Vec<String> = Vec::new();
    let mut projected_cols: HashSet<String> = HashSet::new();
    for v in &projected {
        match state.bound.get(v) {
            Some(c) => {
                items.push(format!("{c} AS {c}"));
                projected_cols.insert(c.clone());
            }
            None => {
                let c = state.col(v);
                items.push(format!("NULL AS {c}"));
                projected_cols.insert(c);
            }
        }
    }
    if items.is_empty() {
        items.push("1 AS ok".to_string());
    }

    // ORDER BY variables must appear in the projection for the engine's
    // sorter; add hidden ones unless DISTINCT forbids it.
    let mut order_items: Vec<String> = Vec::new();
    for cond in &query.order_by {
        let vars = cond.expr.variables();
        let all_available = vars.iter().all(|v| state.bound.contains_key(*v));
        if !all_available {
            continue;
        }
        let mut ok = true;
        for v in &vars {
            let c = state.bound[*v].clone();
            if !projected_cols.contains(&c) {
                if distinct {
                    ok = false; // cannot widen a DISTINCT projection
                    break;
                }
                items.push(format!("{c} AS {c}"));
                projected_cols.insert(c);
            }
        }
        if !ok {
            continue;
        }
        let dir = if cond.ascending { "" } else { " DESC" };
        match &cond.expr {
            // A value-domain column sorts directly by the engine's total
            // order; RDF_NUM would misread its integers as dictionary IDs.
            Expression::Var(v) if state.plain.contains(v) => {
                let c = &state.bound[v];
                order_items.push(format!("{c}{dir}"));
            }
            Expression::Var(v) => {
                let c = &state.bound[v];
                // Numeric-aware ordering, then lexical tiebreak.
                order_items.push(format!("RDF_NUM({c}){dir}"));
                order_items.push(format!("RDF_STR({c}){dir}"));
            }
            e => {
                let translated = filters::filter_order_key(e, &state.bound, &state.plain)?;
                order_items.push(format!("{translated}{dir}"));
            }
        }
    }

    sql.push_str("SELECT ");
    if distinct {
        sql.push_str("DISTINCT ");
    }
    sql.push_str(&items.join(", "));
    if let Some(last) = &state.last {
        sql.push_str(&format!(" FROM {last}"));
    }
    if !order_items.is_empty() {
        sql.push_str(&format!(" ORDER BY {}", order_items.join(", ")));
    }
    if let Some(l) = query.limit {
        sql.push_str(&format!(" LIMIT {l}"));
    }
    if let Some(o) = query.offset {
        sql.push_str(&format!(" OFFSET {o}"));
    }
    Ok(sql)
}

fn unsupported(msg: impl Into<String>) -> StoreError {
    StoreError::Unsupported(msg.into())
}

/// Lower `BIND(expr AS ?var)` as one extension CTE. `visible` is the set of
/// variables bound by *syntactically preceding* siblings: the W3C scopes a
/// BIND expression to the group elements before it, while this pipeline
/// evaluates the whole basic pattern first, so references to later-bound
/// variables must still read as unbound here.
pub fn gen_bind(
    expr: &Expression,
    var: &str,
    visible: &HashSet<String>,
    state: &mut GenState,
) -> Result<()> {
    if state.bound.contains_key(var) {
        return Err(unsupported(format!(
            "BIND target ?{var} is already bound elsewhere in the group"
        )));
    }
    let vis_bound: BTreeMap<String, String> = state
        .bound
        .iter()
        .filter(|(v, _)| visible.contains(*v))
        .map(|(v, c)| (v.clone(), c.clone()))
        .collect();
    let col = state.col(var);
    // A bare-variable copy keeps the source's domain; everything else is a
    // computed value-domain column.
    let (val, is_plain, maybe) = match expr {
        Expression::Var(src) if vis_bound.contains_key(src) => (
            vis_bound[src].clone(),
            state.plain.contains(src),
            state.maybe_null.contains(src),
        ),
        Expression::Var(_) => ("NULL".to_string(), false, true),
        Expression::Term(_) => (filters::value_sql(expr, &vis_bound, &state.plain)?, true, false),
        _ => (filters::value_sql(expr, &vis_bound, &state.plain)?, true, true),
    };
    let body = match &state.last {
        Some(last) => format!("SELECT *, {val} AS {col} FROM {last}"),
        // No chain yet: the unit solution μ0 extended with the binding.
        None => format!("SELECT {val} AS {col}"),
    };
    let name = state.fresh();
    state.bound.insert(var.to_string(), col);
    if is_plain {
        state.plain.insert(var.to_string());
    }
    if maybe {
        state.maybe_null.insert(var.to_string());
    }
    state.push_cte(name, body);
    Ok(())
}

/// Lower an inline `VALUES` block: a data CTE (one SELECT per row, UNION
/// ALL) joined against the current chain with sameTerm compatibility —
/// `UNDEF` cells and unbound chain columns are compatible with anything.
/// `enc` renders one constant term as a SQL literal in the layout's column
/// domain (dictionary ID or canonical string).
pub fn gen_values(
    vb: &ValuesBlock,
    enc: &dyn Fn(&Term) -> String,
    state: &mut GenState,
) -> Result<()> {
    if vb.vars.is_empty() {
        return Err(unsupported("VALUES with no variables"));
    }
    let entry_last = state.last.clone();
    let cols: Vec<String> = vb.vars.iter().map(|v| state.col(v)).collect();
    // Which VALUES variables have at least one UNDEF cell?
    let undef: HashSet<&str> = vb
        .vars
        .iter()
        .enumerate()
        .filter(|(i, _)| vb.rows.iter().any(|r| r.get(*i).is_none_or(Option::is_none)))
        .map(|(_, v)| v.as_str())
        .collect();
    let vbody = if vb.rows.is_empty() {
        let items: Vec<String> = cols.iter().map(|c| format!("NULL AS {c}")).collect();
        format!("SELECT {} WHERE FALSE", items.join(", "))
    } else {
        let selects: Vec<String> = vb
            .rows
            .iter()
            .map(|row| {
                let items: Vec<String> = row
                    .iter()
                    .zip(&cols)
                    .map(|(cell, c)| match cell {
                        Some(t) => format!("{} AS {c}", enc(t)),
                        None => format!("NULL AS {c}"),
                    })
                    .collect();
                format!("SELECT {}", items.join(", "))
            })
            .collect();
        selects.join(" UNION ALL ")
    };
    let vname = state.fresh();
    state.push_cte(vname.clone(), vbody);

    let Some(main) = entry_last else {
        // VALUES opens the chain: its data CTE is the chain head.
        for (v, c) in vb.vars.iter().zip(&cols) {
            state.bound.insert(v.clone(), c.clone());
            if undef.contains(v.as_str()) {
                state.maybe_null.insert(v.clone());
            }
        }
        return Ok(());
    };

    let mut projection = state.prior_projection("P");
    let mut conds: Vec<String> = Vec::new();
    for (v, c) in vb.vars.iter().zip(&cols) {
        match state.bound.get(v).cloned() {
            Some(pc) => {
                if state.plain.contains(v) {
                    return Err(unsupported(format!(
                        "VALUES variable ?{v} is already bound to a computed value"
                    )));
                }
                let mut alts = vec![format!("V.{c} IS NULL")];
                if state.maybe_null.contains(v) {
                    alts.push(format!("P.{pc} IS NULL"));
                    // Re-anchor: an unbound chain column takes the VALUES
                    // term; afterwards it is NULL only if both sides were.
                    let plain_proj = format!("P.{pc} AS {pc}");
                    for s in projection.iter_mut() {
                        if *s == plain_proj {
                            *s = format!("COALESCE(P.{pc}, V.{c}) AS {pc}");
                        }
                    }
                    if !undef.contains(v.as_str()) {
                        state.maybe_null.remove(v);
                    }
                }
                alts.push(format!("RDF_SAMETERM(P.{pc}, V.{c})"));
                conds.push(format!("({})", alts.join(" OR ")));
            }
            None => {
                projection.push(format!("V.{c} AS {c}"));
                state.bound.insert(v.clone(), c.clone());
                if undef.contains(v.as_str()) {
                    state.maybe_null.insert(v.clone());
                }
            }
        }
    }
    if projection.is_empty() {
        projection.push("1 AS one".to_string());
    }
    let name = state.fresh();
    let mut body = format!("SELECT {} FROM {main} AS P, {vname} AS V", projection.join(", "));
    if !conds.is_empty() {
        body.push_str(&format!(" WHERE {}", conds.join(" AND ")));
    }
    state.push_cte(name, body);
    Ok(())
}

/// Lower a nested `{ SELECT ... }`: generate the subquery's chain in an
/// isolated scope (via `gen_inner`, which runs the full per-level pipeline
/// including the subquery's own aggregation), restrict it to its projected
/// variables, then join it with the enclosing chain on the shared ones.
pub fn gen_subquery_join(
    sub: &Query,
    state: &mut GenState,
    gen_inner: &mut dyn FnMut(&Query, &mut GenState) -> Result<()>,
) -> Result<()> {
    if sub.limit.is_some() || sub.offset.is_some() || !sub.order_by.is_empty() {
        return Err(unsupported(
            "subquery solution modifiers (ORDER BY / LIMIT / OFFSET) are not supported",
        ));
    }
    if matches!(sub.form, QueryForm::Ask) {
        return Err(unsupported("ASK cannot appear as a subquery"));
    }
    let entry_last = state.last.clone();
    let entry_bound = std::mem::take(&mut state.bound);
    let entry_maybe = std::mem::take(&mut state.maybe_null);
    let entry_plain = std::mem::take(&mut state.plain);
    state.last = None;
    gen_inner(sub, state)?;

    // Restriction CTE: only the projected variables escape the subquery.
    let projected = sub.projected_variables();
    let sub_last = state.last.clone();
    let mut proj_items = Vec::new();
    let mut sub_cols: Vec<(String, String)> = Vec::new();
    let mut sub_maybe: HashSet<String> = HashSet::new();
    let mut sub_plain: HashSet<String> = HashSet::new();
    for v in &projected {
        let c = state.col(v);
        match state.bound.get(v) {
            Some(cc) => {
                proj_items.push(format!("{cc} AS {c}"));
                if state.maybe_null.contains(v) {
                    sub_maybe.insert(v.clone());
                }
                if state.plain.contains(v) {
                    sub_plain.insert(v.clone());
                }
            }
            None => {
                proj_items.push(format!("NULL AS {c}"));
                sub_maybe.insert(v.clone());
            }
        }
        sub_cols.push((v.clone(), c));
    }
    let distinct = if sub.is_distinct() { "DISTINCT " } else { "" };
    let rbody = match &sub_last {
        Some(l) => format!("SELECT {distinct}{} FROM {l}", proj_items.join(", ")),
        // Subquery over the empty pattern: one all-unbound solution.
        None => format!("SELECT {}", proj_items.join(", ")),
    };
    let rname = state.fresh();
    state.push_cte(rname.clone(), rbody);

    state.bound = entry_bound;
    state.maybe_null = entry_maybe;
    state.plain = entry_plain;
    state.last = entry_last.clone();

    let Some(main) = entry_last else {
        // The subquery opens the chain.
        state.last = Some(rname);
        for (v, c) in sub_cols {
            if sub_maybe.contains(&v) {
                state.maybe_null.insert(v.clone());
            }
            if sub_plain.contains(&v) {
                state.plain.insert(v.clone());
            }
            state.bound.insert(v, c);
        }
        return Ok(());
    };

    let mut projection = state.prior_projection("P");
    let mut conds: Vec<String> = Vec::new();
    for (v, c) in sub_cols {
        match state.bound.get(&v).cloned() {
            Some(pc) => {
                if state.plain.contains(&v) || sub_plain.contains(&v) {
                    return Err(unsupported(format!(
                        "subquery shares computed variable ?{v} with the outer pattern"
                    )));
                }
                let mut alts = Vec::new();
                if state.maybe_null.contains(&v) {
                    alts.push(format!("P.{pc} IS NULL"));
                    let plain_proj = format!("P.{pc} AS {pc}");
                    for s in projection.iter_mut() {
                        if *s == plain_proj {
                            *s = format!("COALESCE(P.{pc}, S.{c}) AS {pc}");
                        }
                    }
                    if !sub_maybe.contains(&v) {
                        state.maybe_null.remove(&v);
                    }
                }
                if sub_maybe.contains(&v) {
                    alts.push(format!("S.{c} IS NULL"));
                }
                alts.push(format!("P.{pc} = S.{c}"));
                conds.push(if alts.len() == 1 {
                    alts.pop().unwrap()
                } else {
                    format!("({})", alts.join(" OR "))
                });
            }
            None => {
                projection.push(format!("S.{c} AS {c}"));
                if sub_maybe.contains(&v) {
                    state.maybe_null.insert(v.clone());
                }
                if sub_plain.contains(&v) {
                    state.plain.insert(v.clone());
                }
                state.bound.insert(v, c);
            }
        }
    }
    if projection.is_empty() {
        projection.push("1 AS one".to_string());
    }
    let name = state.fresh();
    let mut body = format!("SELECT {} FROM {main} AS P, {rname} AS S", projection.join(", "));
    if !conds.is_empty() {
        body.push_str(&format!(" WHERE {}", conds.join(" AND ")));
    }
    state.push_cte(name, body);
    Ok(())
}

/// Lower computed `(expr AS ?v)` projection items of a *non-aggregating*
/// SELECT: each becomes a BIND-style extension CTE, in projection order.
pub fn gen_select_exprs(items: &[SelectItem], state: &mut GenState) -> Result<()> {
    for item in items {
        let Some(expr) = &item.expr else { continue };
        let visible: HashSet<String> = state.bound.keys().cloned().collect();
        gen_bind(expr, &item.var, &visible, state)?;
    }
    Ok(())
}

/// Lower the aggregation layer (GROUP BY / aggregates / HAVING) as one CTE
/// over the pattern chain. Afterwards the chain's bound variables are
/// exactly the grouping keys plus the projected items — everything else is
/// out of scope, per the SPARQL grouped-query semantics.
pub fn gen_aggregate(query: &Query, state: &mut GenState) -> Result<()> {
    let item_list: Vec<(Option<&Expression>, String)> = match query.select_items() {
        Some(items) => items.iter().map(|i| (i.expr.as_ref(), i.var.clone())).collect(),
        None => query.projected_variables().into_iter().map(|v| (None, v)).collect(),
    };
    let mut sel: Vec<String> = Vec::new();
    let mut gcols: Vec<String> = Vec::new();
    let mut new_bound: BTreeMap<String, String> = BTreeMap::new();
    let mut new_maybe: HashSet<String> = HashSet::new();
    let mut new_plain: HashSet<String> = HashSet::new();
    for g in &query.group_by {
        let c = state.col(g);
        match state.bound.get(g) {
            Some(cc) => {
                sel.push(format!("{cc} AS {cc}"));
                gcols.push(cc.clone());
                if state.maybe_null.contains(g) {
                    new_maybe.insert(g.clone());
                }
                if state.plain.contains(g) {
                    new_plain.insert(g.clone());
                }
            }
            None => {
                // Grouping by an unbound variable: a single NULL key. It
                // still needs a GROUP BY entry — with every key constant the
                // clause would otherwise vanish and turn the query into a
                // global aggregate, which yields a phantom unit row when the
                // input is empty (GROUP BY must yield zero groups there).
                sel.push(format!("NULL AS {c}"));
                gcols.push("NULL".to_string());
                new_maybe.insert(g.clone());
            }
        }
        new_bound.insert(g.clone(), c);
    }
    for (expr, var) in &item_list {
        match expr {
            None => {
                // Plain projected variable: the parser guarantees it is a
                // grouping key, so its column is already in the list.
                if !query.group_by.iter().any(|g| g == var) {
                    return Err(unsupported(format!(
                        "projected variable ?{var} is not grouped"
                    )));
                }
            }
            Some(Expression::Var(src)) => {
                // `(?src AS ?var)` — a renamed grouping key; keeps the
                // source's domain.
                let c = state.col(var);
                match state.bound.get(src) {
                    Some(sc) => {
                        sel.push(format!("{sc} AS {c}"));
                        if state.maybe_null.contains(src) {
                            new_maybe.insert(var.clone());
                        }
                        if state.plain.contains(src) {
                            new_plain.insert(var.clone());
                        }
                    }
                    None => {
                        sel.push(format!("NULL AS {c}"));
                        new_maybe.insert(var.clone());
                    }
                }
                new_bound.insert(var.clone(), c);
            }
            Some(e) => {
                let c = state.col(var);
                let sql = filters::select_expr_sql(e, &state.bound, &state.plain)?;
                sel.push(format!("{sql} AS {c}"));
                new_bound.insert(var.clone(), c);
                new_plain.insert(var.clone());
                // MIN/MAX over an all-unbound group (and arithmetic over
                // aggregate outputs) can be NULL.
                new_maybe.insert(var.clone());
            }
        }
    }
    let mut having_parts = Vec::new();
    for h in &query.having {
        having_parts.push(filters::having_sql(h, &state.bound, &state.plain)?);
    }
    let mut body = match &state.last {
        Some(last) => format!("SELECT {} FROM {last}", sel.join(", ")),
        // Aggregation over the unit solution μ0 (e.g. `SELECT (COUNT(*) AS
        // ?n) WHERE {}` → one row, count 1).
        None => format!("SELECT {}", sel.join(", ")),
    };
    if !gcols.is_empty() {
        body.push_str(&format!(" GROUP BY {}", gcols.join(", ")));
    }
    if !having_parts.is_empty() {
        body.push_str(&format!(" HAVING {}", having_parts.join(" AND ")));
    }
    let name = state.fresh();
    state.bound = new_bound;
    state.maybe_null = new_maybe;
    state.plain = new_plain;
    state.push_cte(name, body);
    Ok(())
}
