//! A deliberately simple, independent reference SPARQL evaluator over an
//! in-memory triple list. It shares no code with the relational pipeline —
//! no SQL, no layouts, no optimizer — so agreement between the two is strong
//! evidence of correctness. Used by integration and property tests, and by
//! nothing else (it is O(|data| · |pattern|) per triple pattern).
//!
//! The evaluator mirrors the engine's *documented* semantics, including its
//! deliberate deviations from the W3C recommendation (see DESIGN.md): each
//! SELECT level evaluates its core pattern first (triples / UNION /
//! OPTIONAL plus filters not mentioning extension variables), then BIND /
//! VALUES / subqueries in syntactic order, then the deferred filters, then
//! the aggregation or computed-projection layer. Aggregate, BIND and
//! select-expression outputs live in the *value domain* (actual numbers, or
//! canonical term strings for non-numerics) with the same numeric rules as
//! the relational engine: integer-preserving SUM, non-truncating AVG,
//! `Sum(∅) = Avg(∅) = 0`, MIN/MAX preferring the Int representative on an
//! Int-vs-Double tie, and `1`/`1.0` unified by grouping and DISTINCT.

use std::collections::{BTreeMap, HashMap, HashSet};

use rdf::{decode_term, Term, Triple};
use sparql::{
    AggFunc, ArithOp, CompareOp, Expression, GroupPattern, Pattern, Query, QueryForm,
    TermPattern, ValuesBlock,
};

use crate::results::Solutions;

type Binding = BTreeMap<String, Term>;

/// The graph the triple list denotes — a set, so exact duplicates count
/// once, in first-appearance order — grouped by predicate as a pure lookup
/// accelerator: constant-predicate patterns scan only their predicate's
/// triples.
struct Indexed<'a> {
    all: Vec<&'a Triple>,
    by_pred: std::collections::HashMap<&'a Term, Vec<&'a Triple>>,
}

impl<'a> Indexed<'a> {
    fn new(triples: &'a [Triple]) -> Indexed<'a> {
        let mut seen = HashSet::with_capacity(triples.len());
        let all: Vec<&Triple> = triples.iter().filter(|t| seen.insert(*t)).collect();
        let mut by_pred: std::collections::HashMap<&Term, Vec<&Triple>> =
            std::collections::HashMap::new();
        for &t in &all {
            by_pred.entry(&t.predicate).or_default().push(t);
        }
        Indexed { all, by_pred }
    }

    fn candidates(&self, tp: &sparql::TriplePattern) -> Vec<&'a Triple> {
        match &tp.predicate {
            TermPattern::Term(p) => self.by_pred.get(p).cloned().unwrap_or_default(),
            TermPattern::Var(_) => self.all.clone(),
        }
    }
}

/// Evaluate a parsed query over the graph the triples denote (an RDF graph
/// is a set: a repeated triple is one triple).
pub fn evaluate(triples: &[Triple], query: &Query) -> Solutions {
    let data = Indexed::new(triples);
    let (bindings, plain) = eval_level(&data, query);
    match &query.form {
        QueryForm::Ask => Solutions::from_ask(!bindings.is_empty()),
        QueryForm::Select { .. } => {
            let vars = query.projected_variables();
            let mut rows: Vec<Vec<Option<Term>>> = bindings
                .iter()
                .map(|b| vars.iter().map(|v| b.get(v).cloned()).collect())
                .collect();
            if query.is_distinct() {
                let mut seen = std::collections::HashSet::new();
                rows.retain(|r| {
                    let key: Vec<Option<NKey>> = vars
                        .iter()
                        .zip(r.iter())
                        .map(|(v, t)| t.as_ref().map(|t| distinct_key(t, plain.contains(v))))
                        .collect();
                    seen.insert(key)
                });
            }
            if !query.order_by.is_empty() {
                let conds = query.order_by.clone();
                let col_of = |b: &Vec<Option<Term>>, e: &Expression| -> (Option<f64>, String) {
                    // Build a temp binding view for expression evaluation.
                    let binding: Binding = vars
                        .iter()
                        .zip(b.iter())
                        .filter_map(|(v, t)| t.clone().map(|t| (v.clone(), t)))
                        .collect();
                    match eval_expr(e, &binding) {
                        // Lexical form, not encode(): the engine sorts by
                        // RDF_NUM then RDF_STR, and RDF_STR strips the
                        // angle brackets / quotes — `<ns/a>` must order
                        // before `<ns/ab>` even though '>' > 'b'.
                        Some(Val::Term(t)) => (t.numeric_value(), t.lexical().to_string()),
                        Some(Val::Num(n)) => (Some(n), String::new()),
                        Some(Val::Str(s)) => (None, s),
                        Some(Val::Bool(x)) => (None, x.to_string()),
                        None => (None, String::new()),
                    }
                };
                let plain_val = |r: &Vec<Option<Term>>, v: &str| -> Option<NVal> {
                    vars.iter()
                        .position(|x| x == v)
                        .and_then(|i| r[i].as_ref())
                        .map(val_of_term)
                };
                rows.sort_by(|a, b| {
                    for c in &conds {
                        let o = match &c.expr {
                            // A value-domain column sorts by the engine's
                            // total order: NULLs, then numerics (Int and
                            // Double interleaved), then strings. DESC flips
                            // the whole order, putting NULLs last.
                            Expression::Var(v) if plain.contains(v) => {
                                nval_total_cmp_opt(&plain_val(a, v), &plain_val(b, v))
                            }
                            e => {
                                let (na, sa) = col_of(a, e);
                                let (nb, sb) = col_of(b, e);
                                match (na, nb) {
                                    (Some(x), Some(y)) => x.total_cmp(&y),
                                    _ => sa.cmp(&sb),
                                }
                            }
                        };
                        let o = if c.ascending { o } else { o.reverse() };
                        if o != std::cmp::Ordering::Equal {
                            return o;
                        }
                    }
                    std::cmp::Ordering::Equal
                });
            }
            if let Some(off) = query.offset {
                let off = (off as usize).min(rows.len());
                rows.drain(..off);
            }
            if let Some(lim) = query.limit {
                rows.truncate(lim as usize);
            }
            Solutions { vars, rows, boolean: None }
        }
    }
}

fn is_extension(p: &Pattern) -> bool {
    matches!(p, Pattern::Bind { .. } | Pattern::Values(_) | Pattern::SubSelect(_))
}

/// Evaluate one SELECT level (the outer query or a subquery body) in the
/// engine's documented order; returns the solution bindings plus the set of
/// value-domain variables.
fn eval_level(data: &Indexed<'_>, query: &Query) -> (Vec<Binding>, HashSet<String>) {
    let mut plain: HashSet<String> = HashSet::new();

    // 1. Core pattern: non-extension children, in syntactic order.
    let mut bindings = vec![Binding::new()];
    let mut core_triples = 0usize;
    for child in &query.pattern.children {
        if !is_extension(child) {
            core_triples += child.triples().len();
            bindings = eval_pattern(data, child, bindings);
        }
    }

    // 2. Filters not mentioning extension variables attach to the core; the
    //    rest (and all filters when the core is empty) are deferred until
    //    after the extensions — same partition as the translator.
    let ext_vars: HashSet<String> = query
        .pattern
        .children
        .iter()
        .flat_map(|c| match c {
            Pattern::Bind { var, .. } => vec![var.clone()],
            Pattern::Values(vb) => vb.vars.clone(),
            Pattern::SubSelect(q) => q.projected_variables(),
            _ => Vec::new(),
        })
        .collect();
    let mut deferred: Vec<&Expression> = Vec::new();
    for f in &query.pattern.filters {
        let mentions_ext = f.variables().iter().any(|v| ext_vars.contains(*v));
        if mentions_ext || core_triples == 0 {
            deferred.push(f);
        } else {
            bindings.retain(|b| truthy(eval_expr(f, b)));
        }
    }

    // 3. Extensions in syntactic order. A BIND expression only sees
    //    variables bound by syntactically preceding group elements.
    let mut seen: HashSet<String> = HashSet::new();
    for child in &query.pattern.children {
        match child {
            Pattern::Bind { expr, var } => {
                apply_bind(expr, var, Some(&seen), &mut bindings, &mut plain);
                seen.insert(var.clone());
            }
            Pattern::Values(vb) => {
                bindings = join_values(&bindings, vb);
                seen.extend(vb.vars.iter().cloned());
            }
            Pattern::SubSelect(sub) => {
                let (sub_rows, sub_plain) = eval_subquery(data, sub);
                bindings = join_rows(&bindings, &sub_rows);
                plain.extend(sub_plain);
                seen.extend(sub.projected_variables());
            }
            other => seen.extend(other.variables()),
        }
    }

    // 4. Deferred filters, value-domain aware.
    bindings.retain(|b| deferred.iter().all(|f| eval_filter(f, b, &plain) == Some(true)));

    // 5. Aggregation or computed projection.
    if query.is_aggregate() {
        aggregate_level(query, bindings, &plain)
    } else {
        if let Some(items) = query.select_items() {
            for item in items {
                if let Some(expr) = &item.expr {
                    apply_bind(expr, &item.var, None, &mut bindings, &mut plain);
                }
            }
        }
        (bindings, plain)
    }
}

/// Extend every binding with `expr AS var`. `visible` restricts which
/// variables the expression may read (BIND scoping); `None` means all. A
/// bare-variable copy keeps the source's domain; any other expression
/// produces a value-domain binding (or leaves the variable unbound on a
/// type error, mirroring SQL NULL).
fn apply_bind(
    expr: &Expression,
    var: &str,
    visible: Option<&HashSet<String>>,
    bindings: &mut [Binding],
    plain: &mut HashSet<String>,
) {
    match expr {
        Expression::Var(src) => {
            if visible.is_none_or(|s| s.contains(src)) {
                for b in bindings.iter_mut() {
                    if let Some(t) = b.get(src).cloned() {
                        b.insert(var.to_string(), t);
                    }
                }
                if plain.contains(src) {
                    plain.insert(var.to_string());
                }
            }
        }
        _ => {
            for b in bindings.iter_mut() {
                let view: Binding = match visible {
                    None => b.clone(),
                    Some(s) => {
                        b.iter().filter(|(k, _)| s.contains(*k)).map(|(k, v)| (k.clone(), v.clone())).collect()
                    }
                };
                if let Some(v) = eval_val(expr, &view) {
                    b.insert(var.to_string(), nval_to_term(&v));
                }
            }
            plain.insert(var.to_string());
        }
    }
}

/// Inline VALUES join: strict sameTerm compatibility, with `UNDEF` cells
/// and unbound binding variables compatible with anything (the defined side
/// wins in the merged binding).
fn join_values(bindings: &[Binding], vb: &ValuesBlock) -> Vec<Binding> {
    let mut out = Vec::new();
    for b in bindings {
        'rows: for row in &vb.rows {
            let mut ext = b.clone();
            for (var, cell) in vb.vars.iter().zip(row) {
                match (b.get(var), cell) {
                    (Some(t), Some(c)) => {
                        if t != c {
                            continue 'rows;
                        }
                    }
                    (None, Some(c)) => {
                        ext.insert(var.clone(), c.clone());
                    }
                    (_, None) => {}
                }
            }
            out.push(ext);
        }
    }
    out
}

/// Evaluate a subquery body and restrict it to its projection (applying
/// the subquery's DISTINCT); only projected variables escape.
fn eval_subquery(data: &Indexed<'_>, sub: &Query) -> (Vec<Binding>, HashSet<String>) {
    let (sub_bindings, sub_plain) = eval_level(data, sub);
    let projected = sub.projected_variables();
    let proj_set: HashSet<&str> = projected.iter().map(String::as_str).collect();
    let plain: HashSet<String> =
        sub_plain.into_iter().filter(|v| proj_set.contains(v.as_str())).collect();
    let mut rows: Vec<Binding> = sub_bindings
        .into_iter()
        .map(|b| {
            projected
                .iter()
                .filter_map(|v| b.get(v).map(|t| (v.clone(), t.clone())))
                .collect()
        })
        .collect();
    if sub.is_distinct() {
        let mut seen = HashSet::new();
        rows.retain(|b| {
            let key: Vec<Option<NKey>> = projected
                .iter()
                .map(|v| b.get(v).map(|t| distinct_key(t, plain.contains(v))))
                .collect();
            seen.insert(key)
        });
    }
    (rows, plain)
}

/// Join the outer bindings with a subquery's restricted rows: shared
/// variables must agree (term identity), unbound sides are compatible and
/// take the other side's value.
fn join_rows(bindings: &[Binding], rows: &[Binding]) -> Vec<Binding> {
    let mut out = Vec::new();
    for b in bindings {
        'rows: for r in rows {
            let mut ext = b.clone();
            for (v, t) in r {
                match b.get(v) {
                    Some(bt) => {
                        if bt != t {
                            continue 'rows;
                        }
                    }
                    None => {
                        ext.insert(v.clone(), t.clone());
                    }
                }
            }
            out.push(ext);
        }
    }
    out
}

/// The aggregation layer: group the solutions, compute the projected items
/// per group, filter by HAVING. Mirrors the relational engine: grouping
/// unifies `1`/`1.0` for value-domain keys but keeps distinct terms
/// distinct; a global aggregate over the empty input still yields one row.
fn aggregate_level(
    query: &Query,
    bindings: Vec<Binding>,
    plain: &HashSet<String>,
) -> (Vec<Binding>, HashSet<String>) {
    let item_list: Vec<(Option<&Expression>, String)> = match query.select_items() {
        Some(items) => items.iter().map(|i| (i.expr.as_ref(), i.var.clone())).collect(),
        None => query.projected_variables().into_iter().map(|v| (None, v)).collect(),
    };
    let mut order: Vec<Vec<Option<NKey>>> = Vec::new();
    let mut groups: HashMap<Vec<Option<NKey>>, Vec<Binding>> = HashMap::new();
    for b in bindings {
        let key: Vec<Option<NKey>> = query
            .group_by
            .iter()
            .map(|g| b.get(g).map(|t| distinct_key(t, plain.contains(g))))
            .collect();
        if !groups.contains_key(&key) {
            order.push(key.clone());
        }
        groups.entry(key).or_default().push(b);
    }
    if query.group_by.is_empty() && order.is_empty() {
        order.push(Vec::new());
        groups.insert(Vec::new(), Vec::new());
    }

    let mut new_plain: HashSet<String> = HashSet::new();
    for g in &query.group_by {
        if plain.contains(g) {
            new_plain.insert(g.clone());
        }
    }
    let mut out = Vec::new();
    'groups: for key in &order {
        let rows = &groups[key];
        let rep = rows.first();
        let mut nb = Binding::new();
        for g in &query.group_by {
            if let Some(t) = rep.and_then(|r| r.get(g)) {
                nb.insert(g.clone(), t.clone());
            }
        }
        for h in &query.having {
            if eval_having(h, rows, &nb, plain) != Some(true) {
                continue 'groups;
            }
        }
        for (expr, var) in &item_list {
            match expr {
                // A plain projected variable is a grouping key — already in
                // the binding.
                None => {}
                Some(Expression::Var(src)) => {
                    if let Some(t) = rep.and_then(|r| r.get(src)) {
                        nb.insert(var.clone(), t.clone());
                    }
                    if plain.contains(src) {
                        new_plain.insert(var.clone());
                    }
                }
                Some(e) => {
                    if let Some(v) = eval_group_expr(e, rows, &nb) {
                        nb.insert(var.clone(), nval_to_term(&v));
                    }
                    new_plain.insert(var.clone());
                }
            }
        }
        out.push(nb);
    }
    (out, new_plain)
}

fn eval_pattern(data: &Indexed<'_>, pattern: &Pattern, input: Vec<Binding>) -> Vec<Binding> {
    match pattern {
        Pattern::Triple(tp) => {
            let cands = data.candidates(tp);
            let mut out = Vec::new();
            for b in &input {
                for t in &cands {
                    if let Some(ext) = match_triple(tp, t, b) {
                        out.push(ext);
                    }
                }
            }
            out
        }
        Pattern::Group(g) => eval_group(data, g, input),
        Pattern::Union(alts) => {
            let mut out = Vec::new();
            for alt in alts {
                out.extend(eval_pattern(data, alt, input.clone()));
            }
            out
        }
        Pattern::Optional(inner) => {
            let mut out = Vec::new();
            for b in input {
                let matched = eval_pattern(data, inner, vec![b.clone()]);
                if matched.is_empty() {
                    out.push(b);
                } else {
                    out.extend(matched);
                }
            }
            out
        }
        // Nested extension operators are rejected by the translator; these
        // arms keep the naive evaluator total for standalone use.
        Pattern::Bind { expr, var } => {
            let mut bindings = input;
            let mut plain = HashSet::new();
            apply_bind(expr, var, None, &mut bindings, &mut plain);
            bindings
        }
        Pattern::Values(vb) => join_values(&input, vb),
        Pattern::SubSelect(sub) => {
            let (rows, _plain) = eval_subquery(data, sub);
            join_rows(&input, &rows)
        }
    }
}

fn eval_group(data: &Indexed<'_>, g: &GroupPattern, input: Vec<Binding>) -> Vec<Binding> {
    // SPARQL group semantics: join the children in syntactic order, then
    // apply FILTERs over the group's solutions.
    let mut bindings = input;
    for child in &g.children {
        bindings = eval_pattern(data, child, bindings);
        if bindings.is_empty() {
            break;
        }
    }
    bindings
        .into_iter()
        .filter(|b| g.filters.iter().all(|f| truthy(eval_expr(f, b))))
        .collect()
}

fn match_term(tp: &TermPattern, t: &Term, b: &Binding) -> Option<Option<(String, Term)>> {
    match tp {
        TermPattern::Term(c) => (c == t).then_some(None),
        TermPattern::Var(v) => match b.get(v) {
            Some(bound) => (bound == t).then_some(None),
            None => Some(Some((v.clone(), t.clone()))),
        },
    }
}

fn match_triple(tp: &sparql::TriplePattern, t: &Triple, b: &Binding) -> Option<Binding> {
    let mut ext = b.clone();
    for (pat, term) in
        [(&tp.subject, &t.subject), (&tp.predicate, &t.predicate), (&tp.object, &t.object)]
    {
        if let Some((v, val)) = match_term(pat, term, &ext)? {
            // A variable may repeat within the pattern.
            if let Some(prev) = ext.get(&v) {
                if prev != &val {
                    return None;
                }
            } else {
                ext.insert(v, val);
            }
        }
    }
    Some(ext)
}

// ---------------------------------------------------------------------------
// The value domain (independent mirror of the engine's RDF_VAL + SQL Value
// semantics)
// ---------------------------------------------------------------------------

/// A value-domain datum: an actual number, or the canonical term encoding
/// for non-numerics. Absence (`None` in `Option<NVal>`) mirrors SQL NULL.
#[derive(Clone, Debug)]
enum NVal {
    I(i64),
    D(f64),
    S(String),
}

/// Identity key mirroring the engine's Value equality/hash: Int and Double
/// unify through their f64 value (`1` groups with `1.0`), strings by text.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
enum NKey {
    Num(u64),
    Str(String),
}

fn nval_key(v: &NVal) -> NKey {
    match v {
        NVal::I(i) => NKey::Num((*i as f64).to_bits()),
        NVal::D(d) => NKey::Num(d.to_bits()),
        NVal::S(s) => NKey::Str(s.clone()),
    }
}

/// Grouping/DISTINCT key for a bound term: value-domain variables unify by
/// value, term-domain variables by term identity.
fn distinct_key(t: &Term, is_plain: bool) -> NKey {
    if is_plain {
        nval_key(&val_of_term(t))
    } else {
        NKey::Str(t.encode())
    }
}

const XSD: &str = "http://www.w3.org/2001/XMLSchema#";

/// Term → value domain (mirror of the engine's `RDF_VAL`): integer-family
/// literals that fit an `i64` become integers, other numeric-typed literals
/// become doubles, everything else keeps its canonical encoding.
fn val_of_term(t: &Term) -> NVal {
    if let Term::Literal { lexical, lang: None, datatype: Some(dt) } = t {
        if let Some(suffix) = dt.strip_prefix(XSD) {
            match suffix {
                "integer" | "int" | "long" => {
                    if let Ok(i) = lexical.trim().parse::<i64>() {
                        return NVal::I(i);
                    }
                }
                "double" | "decimal" | "float" => {
                    if let Some(x) = t.numeric_value() {
                        return NVal::D(x);
                    }
                }
                _ => {}
            }
        }
    }
    NVal::S(t.encode())
}

/// Value → term (mirror of the engine's result decoding).
fn nval_to_term(v: &NVal) -> Term {
    match v {
        NVal::I(i) => Term::int_lit(*i),
        NVal::D(d) => Term::double_lit(*d),
        NVal::S(s) => decode_term(s).unwrap_or_else(|| Term::lit(s.clone())),
    }
}

fn nval_f64(v: &NVal) -> Option<f64> {
    match v {
        NVal::I(i) => Some(*i as f64),
        NVal::D(d) => Some(*d),
        NVal::S(_) => None,
    }
}

/// Value-domain scalar evaluation, mirroring the translator's `value_sql`
/// lowering under the engine's arithmetic: integer ops are checked (NULL on
/// overflow), a non-numeric operand yields NULL, division always takes the
/// float path and yields NULL on a zero divisor.
fn eval_val(e: &Expression, b: &Binding) -> Option<NVal> {
    match e {
        Expression::Var(v) => b.get(v).map(val_of_term),
        Expression::Term(t) => Some(val_of_term(t)),
        Expression::Arith { op, left, right } => {
            nval_arith(op, eval_val(left, b), eval_val(right, b))
        }
        Expression::Neg(x) => nval_neg(eval_val(x, b)),
        _ => None,
    }
}

fn nval_arith(op: &ArithOp, l: Option<NVal>, r: Option<NVal>) -> Option<NVal> {
    let (l, r) = (l?, r?);
    match op {
        ArithOp::Add | ArithOp::Sub | ArithOp::Mul => {
            if let (NVal::I(a), NVal::I(b)) = (&l, &r) {
                return match op {
                    ArithOp::Add => a.checked_add(*b),
                    ArithOp::Sub => a.checked_sub(*b),
                    ArithOp::Mul => a.checked_mul(*b),
                    ArithOp::Div => unreachable!(),
                }
                .map(NVal::I);
            }
            let (a, b) = (nval_f64(&l)?, nval_f64(&r)?);
            Some(NVal::D(match op {
                ArithOp::Add => a + b,
                ArithOp::Sub => a - b,
                ArithOp::Mul => a * b,
                ArithOp::Div => unreachable!(),
            }))
        }
        // The engine lowers `l / r` as `((1.0 * l) / r)` — always the float
        // path, never integer division.
        ArithOp::Div => {
            let a = nval_f64(&l)?;
            let b = nval_f64(&r)?;
            if b == 0.0 {
                None
            } else {
                Some(NVal::D(a / b))
            }
        }
    }
}

// The engine lowers unary minus as `(0 - x)`.
fn nval_neg(x: Option<NVal>) -> Option<NVal> {
    match x? {
        NVal::I(i) => 0i64.checked_sub(i).map(NVal::I),
        NVal::D(d) => Some(NVal::D(0.0 - d)),
        NVal::S(_) => None,
    }
}

/// SQL `=` mirror with three-valued logic: numerics by value across
/// Int/Double, strings by text, string-vs-number simply unequal.
fn nval_sql_eq(l: Option<NVal>, r: Option<NVal>) -> Option<bool> {
    let (l, r) = (l?, r?);
    match (&l, &r) {
        (NVal::S(a), NVal::S(b)) => Some(a == b),
        (a, b) => match (nval_f64(a), nval_f64(b)) {
            (Some(x), Some(y)) => Some(x == y),
            _ => Some(false),
        },
    }
}

/// SQL ordering mirror: `None` when a side is NULL or the types are
/// incomparable (string vs number).
fn nval_sql_cmp(l: Option<NVal>, r: Option<NVal>) -> Option<std::cmp::Ordering> {
    let (l, r) = (l?, r?);
    match (&l, &r) {
        (NVal::S(a), NVal::S(b)) => Some(a.cmp(b)),
        (a, b) => match (nval_f64(a), nval_f64(b)) {
            (Some(x), Some(y)) => x.partial_cmp(&y),
            _ => None,
        },
    }
}

fn nval_compare(op: &CompareOp, l: Option<NVal>, r: Option<NVal>) -> Option<bool> {
    match op {
        CompareOp::Eq => nval_sql_eq(l, r),
        CompareOp::NotEq => nval_sql_eq(l, r).map(|b| !b),
        _ => nval_sql_cmp(l, r).map(|o| match op {
            CompareOp::Lt => o.is_lt(),
            CompareOp::LtEq => o.is_le(),
            CompareOp::Gt => o.is_gt(),
            CompareOp::GtEq => o.is_ge(),
            CompareOp::Eq | CompareOp::NotEq => unreachable!(),
        }),
    }
}

/// Total order mirror of the engine's `Value::total_cmp` over value-domain
/// data: NULLs first, numerics (Int/Double interleaved), then strings.
fn nval_total_cmp_opt(a: &Option<NVal>, b: &Option<NVal>) -> std::cmp::Ordering {
    use std::cmp::Ordering;
    fn rank(v: &Option<NVal>) -> u8 {
        match v {
            None => 0,
            Some(NVal::I(_)) | Some(NVal::D(_)) => 2,
            Some(NVal::S(_)) => 3,
        }
    }
    match rank(a).cmp(&rank(b)) {
        Ordering::Equal => match (a, b) {
            (Some(NVal::S(x)), Some(NVal::S(y))) => x.cmp(y),
            (Some(x), Some(y)) => nval_f64(x).unwrap().total_cmp(&nval_f64(y).unwrap()),
            _ => Ordering::Equal,
        },
        o => o,
    }
}

/// Should candidate `v` replace the current MIN/MAX representative `m`? On
/// a total-order tie (an Int and a Double of equal value) prefer the Int —
/// same rule as the engine, making the representative order-independent.
fn nval_replaces(v: &NVal, m: &NVal, want_less: bool) -> bool {
    use std::cmp::Ordering;
    match nval_total_cmp_opt(&Some(v.clone()), &Some(m.clone())) {
        Ordering::Equal => matches!(v, NVal::I(_)) && matches!(m, NVal::D(_)),
        Ordering::Less => want_less,
        Ordering::Greater => !want_less,
    }
}

/// One aggregate call over a group's rows, mirroring the engine's
/// accumulator: COUNT skips unbound/error rows, SUM stays integer until a
/// double or non-numeric appears (wrapping i64, like the engine), AVG never
/// truncates, `Sum(∅) = Avg(∅) = 0`, MIN/MAX of an empty (or all-unbound)
/// group are unbound. DISTINCT dedups by value identity in first-occurrence
/// order before accumulation.
fn compute_agg(
    func: AggFunc,
    distinct: bool,
    arg: Option<&Expression>,
    rows: &[Binding],
) -> Option<NVal> {
    let Some(arg) = arg else {
        return Some(NVal::I(rows.len() as i64)); // COUNT(*)
    };
    let mut vals: Vec<NVal> = rows.iter().filter_map(|b| eval_val(arg, b)).collect();
    if distinct {
        let mut seen: HashSet<NKey> = HashSet::new();
        vals.retain(|v| seen.insert(nval_key(v)));
    }
    match func {
        AggFunc::Count => Some(NVal::I(vals.len() as i64)),
        AggFunc::Sum | AggFunc::Avg => {
            if vals.is_empty() {
                return Some(NVal::I(0)); // COALESCE(SUM/AVG(…), 0)
            }
            let mut sum_f = 0.0f64;
            let mut sum_i = 0i64;
            let mut is_int = true;
            for v in &vals {
                match v {
                    NVal::I(i) => {
                        sum_f += *i as f64;
                        sum_i = sum_i.wrapping_add(*i);
                    }
                    NVal::D(d) => {
                        sum_f += d;
                        is_int = false;
                    }
                    NVal::S(_) => is_int = false,
                }
            }
            match func {
                AggFunc::Sum => {
                    Some(if is_int { NVal::I(sum_i) } else { NVal::D(sum_f) })
                }
                _ => Some(NVal::D(sum_f / vals.len() as f64)),
            }
        }
        AggFunc::Min | AggFunc::Max => {
            let want_less = matches!(func, AggFunc::Min);
            let mut m: Option<NVal> = None;
            for v in &vals {
                if m.as_ref().map(|c| nval_replaces(v, c, want_less)).unwrap_or(true) {
                    m = Some(v.clone());
                }
            }
            m
        }
    }
}

/// A select/HAVING expression over one group: aggregate calls evaluate over
/// the group's rows, everything else over the group-key binding.
fn eval_group_expr(e: &Expression, rows: &[Binding], gb: &Binding) -> Option<NVal> {
    match e {
        Expression::Aggregate { func, distinct, arg } => {
            compute_agg(*func, *distinct, arg.as_deref(), rows)
        }
        Expression::Arith { op, left, right } => nval_arith(
            op,
            eval_group_expr(left, rows, gb),
            eval_group_expr(right, rows, gb),
        ),
        Expression::Neg(x) => nval_neg(eval_group_expr(x, rows, gb)),
        other => eval_val(other, gb),
    }
}

/// HAVING over one group: boolean combinations of value-domain comparisons,
/// three-valued like the engine's SQL lowering.
fn eval_having(
    e: &Expression,
    rows: &[Binding],
    gb: &Binding,
    _plain: &HashSet<String>,
) -> Option<bool> {
    match e {
        Expression::Or(x, y) => {
            match (eval_having(x, rows, gb, _plain), eval_having(y, rows, gb, _plain)) {
                (Some(true), _) | (_, Some(true)) => Some(true),
                (Some(false), Some(false)) => Some(false),
                _ => None,
            }
        }
        Expression::And(x, y) => {
            match (eval_having(x, rows, gb, _plain), eval_having(y, rows, gb, _plain)) {
                (Some(false), _) | (_, Some(false)) => Some(false),
                (Some(true), Some(true)) => Some(true),
                _ => None,
            }
        }
        Expression::Not(x) => eval_having(x, rows, gb, _plain).map(|v| !v),
        Expression::Bound(v) => Some(gb.contains_key(v)),
        Expression::Compare { op, left, right } => {
            nval_compare(op, eval_group_expr(left, rows, gb), eval_group_expr(right, rows, gb))
        }
        _ => None,
    }
}

/// A deferred FILTER (one that mentions extension variables), mirroring the
/// translator: a comparison touching a value-domain variable moves wholly
/// into the value domain; everything else keeps term-domain semantics.
fn eval_filter(e: &Expression, b: &Binding, plain: &HashSet<String>) -> Option<bool> {
    match e {
        Expression::Or(x, y) => match (eval_filter(x, b, plain), eval_filter(y, b, plain)) {
            (Some(true), _) | (_, Some(true)) => Some(true),
            (Some(false), Some(false)) => Some(false),
            _ => None,
        },
        Expression::And(x, y) => match (eval_filter(x, b, plain), eval_filter(y, b, plain)) {
            (Some(false), _) | (_, Some(false)) => Some(false),
            (Some(true), Some(true)) => Some(true),
            _ => None,
        },
        Expression::Not(x) => eval_filter(x, b, plain).map(|v| !v),
        Expression::Compare { op, left, right }
            if references_plain(left, plain) || references_plain(right, plain) =>
        {
            nval_compare(op, eval_val(left, b), eval_val(right, b))
        }
        other => match eval_expr(other, b) {
            Some(Val::Bool(x)) => Some(x),
            Some(_) => Some(false),
            None => None,
        },
    }
}

fn references_plain(e: &Expression, plain: &HashSet<String>) -> bool {
    e.variables().iter().any(|v| plain.contains(*v))
}

// ---------------------------------------------------------------------------
// FILTER expression evaluation (SPARQL value semantics, independent impl)
// ---------------------------------------------------------------------------

enum Val {
    Term(Term),
    Num(f64),
    Str(String),
    Bool(bool),
}

fn truthy(v: Option<Val>) -> bool {
    matches!(v, Some(Val::Bool(true)))
}

fn as_num(v: &Val) -> Option<f64> {
    match v {
        Val::Num(n) => Some(*n),
        Val::Term(t) => t.numeric_value(),
        Val::Str(s) => s.trim().parse().ok(),
        Val::Bool(_) => None,
    }
}

fn as_str(v: &Val) -> String {
    match v {
        Val::Str(s) => s.clone(),
        Val::Term(t) => t.lexical().to_string(),
        Val::Num(n) => n.to_string(),
        Val::Bool(b) => b.to_string(),
    }
}

fn eval_expr(e: &Expression, b: &Binding) -> Option<Val> {
    Some(match e {
        Expression::Var(v) => Val::Term(b.get(v)?.clone()),
        Expression::Term(t) => Val::Term(t.clone()),
        Expression::Or(x, y) => {
            let (a, c) = (eval_expr(x, b), eval_expr(y, b));
            match (a.map(|v| truthy(Some(v))), c.map(|v| truthy(Some(v)))) {
                (Some(true), _) | (_, Some(true)) => Val::Bool(true),
                (Some(false), Some(false)) => Val::Bool(false),
                _ => return None,
            }
        }
        Expression::And(x, y) => {
            let (a, c) = (eval_expr(x, b), eval_expr(y, b));
            match (a.map(|v| truthy(Some(v))), c.map(|v| truthy(Some(v)))) {
                (Some(false), _) | (_, Some(false)) => Val::Bool(false),
                (Some(true), Some(true)) => Val::Bool(true),
                _ => return None,
            }
        }
        // An evaluation error in the operand propagates through `!` (W3C
        // EBV semantics): `!REGEX(STR(?unbound), ..)` is an error, not true,
        // so the FILTER rejects — matching the SQL translation.
        Expression::Not(x) => Val::Bool(!truthy(Some(eval_expr(x, b)?))),
        Expression::Bound(v) => Val::Bool(b.contains_key(v)),
        Expression::Compare { op, left, right } => {
            let l = eval_expr(left, b)?;
            let r = eval_expr(right, b)?;
            let ord = if numeric_shaped(left, b) || numeric_shaped(right, b) {
                // Numeric comparison; a non-numeric operand is a type error
                // (the filter then rejects), matching the SQL translation.
                as_num(&l)?.partial_cmp(&as_num(&r)?)?
            } else {
                match (&l, &r) {
                    // Term equality first for Eq/NotEq on two terms.
                    (Val::Term(a), Val::Term(c))
                        if matches!(op, CompareOp::Eq | CompareOp::NotEq) =>
                    {
                        match (a.numeric_value(), c.numeric_value()) {
                            (Some(x), Some(y)) if a.is_literal() && c.is_literal() => {
                                x.partial_cmp(&y)?
                            }
                            _ => a.encode().cmp(&c.encode()),
                        }
                    }
                    _ => match (as_num(&l), as_num(&r)) {
                        (Some(x), Some(y)) => x.partial_cmp(&y)?,
                        _ => as_str(&l).cmp(&as_str(&r)),
                    },
                }
            };
            Val::Bool(match op {
                CompareOp::Eq => ord.is_eq(),
                CompareOp::NotEq => !ord.is_eq(),
                CompareOp::Lt => ord.is_lt(),
                CompareOp::LtEq => ord.is_le(),
                CompareOp::Gt => ord.is_gt(),
                CompareOp::GtEq => ord.is_ge(),
            })
        }
        Expression::Arith { op, left, right } => {
            let l = as_num(&eval_expr(left, b)?)?;
            let r = as_num(&eval_expr(right, b)?)?;
            Val::Num(match op {
                ArithOp::Add => l + r,
                ArithOp::Sub => l - r,
                ArithOp::Mul => l * r,
                ArithOp::Div => {
                    if r == 0.0 {
                        return None;
                    }
                    l / r
                }
            })
        }
        Expression::Neg(x) => Val::Num(-as_num(&eval_expr(x, b)?)?),
        Expression::Regex { expr, pattern, case_insensitive } => {
            let text = as_str(&eval_expr(expr, b)?);
            Val::Bool(regex_like(&text, pattern, *case_insensitive))
        }
        Expression::Str(x) => Val::Str(as_str(&eval_expr(x, b)?)),
        Expression::Lang(x) => match eval_expr(x, b)? {
            Val::Term(Term::Literal { lang: Some(l), .. }) => Val::Str(l.to_string()),
            Val::Term(Term::Literal { .. }) => Val::Str(String::new()),
            _ => return None,
        },
        Expression::Datatype(x) => match eval_expr(x, b)? {
            Val::Term(Term::Literal { datatype: Some(dt), .. }) => Val::Str(dt.to_string()),
            Val::Term(Term::Literal { lang: Some(_), .. }) => {
                Val::Str("http://www.w3.org/1999/02/22-rdf-syntax-ns#langString".into())
            }
            Val::Term(Term::Literal { .. }) => {
                Val::Str("http://www.w3.org/2001/XMLSchema#string".into())
            }
            _ => return None,
        },
        Expression::IsIri(x) => Val::Bool(matches!(eval_expr(x, b)?, Val::Term(Term::Iri(_)))),
        Expression::IsLiteral(x) => {
            Val::Bool(matches!(eval_expr(x, b)?, Val::Term(Term::Literal { .. })))
        }
        Expression::IsBlank(x) => {
            Val::Bool(matches!(eval_expr(x, b)?, Val::Term(Term::Blank(_))))
        }
        // Aggregates never appear in FILTERs (the translator rejects them);
        // in any other context they are evaluated by `eval_group_expr`.
        Expression::Aggregate { .. } => return None,
    })
}

/// Matches the translator's numeric-comparison trigger (DESIGN.md).
fn numeric_shaped(e: &Expression, _b: &Binding) -> bool {
    match e {
        Expression::Arith { .. } | Expression::Neg(_) => true,
        Expression::Term(t) => t.is_literal() && t.numeric_value().is_some(),
        _ => false,
    }
}

/// Same mini-regex semantics as `translate::functions::rdf_regex`.
fn regex_like(text: &str, pattern: &str, ci: bool) -> bool {
    let (mut pat, mut start, mut end) = (pattern, false, false);
    if let Some(p) = pat.strip_prefix('^') {
        pat = p;
        start = true;
    }
    if let Some(p) = pat.strip_suffix('$') {
        pat = p;
        end = true;
    }
    let (t, p) =
        if ci { (text.to_lowercase(), pat.to_lowercase()) } else { (text.into(), pat.into()) };
    let (t, p): (String, String) = (t, p);
    match (start, end) {
        (true, true) => t == p,
        (true, false) => t.starts_with(&p),
        (false, true) => t.ends_with(&p),
        (false, false) => t.contains(&p),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparql::parse_sparql;

    fn data() -> Vec<Triple> {
        vec![
            Triple::new(Term::iri("a"), Term::iri("p"), Term::iri("b")),
            Triple::new(Term::iri("a"), Term::iri("q"), Term::lit("5")),
            Triple::new(Term::iri("b"), Term::iri("p"), Term::iri("c")),
        ]
    }

    fn int_data() -> Vec<Triple> {
        vec![
            Triple::new(Term::iri("a"), Term::iri("v"), Term::int_lit(1)),
            Triple::new(Term::iri("a"), Term::iri("v"), Term::int_lit(2)),
            Triple::new(Term::iri("b"), Term::iri("v"), Term::int_lit(5)),
        ]
    }

    #[test]
    fn basic_join() {
        let q = parse_sparql("SELECT ?x ?z WHERE { ?x <p> ?y . ?y <p> ?z }").unwrap();
        let s = evaluate(&data(), &q);
        assert_eq!(s.len(), 1);
        assert_eq!(s.get(0, "x"), Some(&Term::iri("a")));
        assert_eq!(s.get(0, "z"), Some(&Term::iri("c")));
    }

    #[test]
    fn optional_preserves_unmatched() {
        let q = parse_sparql("SELECT ?x ?v WHERE { ?x <p> ?y . OPTIONAL { ?x <q> ?v } }").unwrap();
        let s = evaluate(&data(), &q);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn filters_and_union() {
        let q = parse_sparql(
            "SELECT ?x WHERE { { ?x <q> ?v . FILTER(?v > 4) } UNION { ?x <p> <c> } }",
        )
        .unwrap();
        let s = evaluate(&data(), &q);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn repeated_variable_in_pattern() {
        let mut d = data();
        d.push(Triple::new(Term::iri("x"), Term::iri("p"), Term::iri("x")));
        let q = parse_sparql("SELECT ?s WHERE { ?s <p> ?s }").unwrap();
        let s = evaluate(&d, &q);
        assert_eq!(s.len(), 1);
        assert_eq!(s.get(0, "s"), Some(&Term::iri("x")));
    }

    #[test]
    fn grouped_count_and_having() {
        let q = parse_sparql(
            "SELECT ?s (COUNT(?o) AS ?n) WHERE { ?s <v> ?o } GROUP BY ?s HAVING(COUNT(?o) > 1)",
        )
        .unwrap();
        let s = evaluate(&int_data(), &q);
        assert_eq!(s.len(), 1);
        assert_eq!(s.get(0, "s"), Some(&Term::iri("a")));
        assert_eq!(s.get(0, "n"), Some(&Term::int_lit(2)));
    }

    #[test]
    fn sum_stays_integer_and_avg_does_not_truncate() {
        let q = parse_sparql(
            "SELECT (SUM(?o) AS ?sum) (AVG(?o) AS ?avg) WHERE { ?s <v> ?o }",
        )
        .unwrap();
        let s = evaluate(&int_data(), &q);
        assert_eq!(s.get(0, "sum"), Some(&Term::int_lit(8)));
        assert_eq!(s.get(0, "avg"), Some(&Term::double_lit(8.0 / 3.0)));
    }

    #[test]
    fn global_aggregate_over_empty_input_yields_one_row() {
        let q = parse_sparql(
            "SELECT (COUNT(?o) AS ?n) (SUM(?o) AS ?sum) WHERE { ?s <nope> ?o }",
        )
        .unwrap();
        let s = evaluate(&int_data(), &q);
        assert_eq!(s.len(), 1);
        assert_eq!(s.get(0, "n"), Some(&Term::int_lit(0)));
        assert_eq!(s.get(0, "sum"), Some(&Term::int_lit(0)));
    }

    #[test]
    fn bind_and_values_extend_solutions() {
        let q = parse_sparql(
            "SELECT ?s ?d WHERE { ?s <v> ?o . BIND(?o + 10 AS ?d) FILTER(?d > 11) }",
        )
        .unwrap();
        let s = evaluate(&int_data(), &q);
        assert_eq!(s.len(), 2);

        let q = parse_sparql("SELECT ?s WHERE { ?s <v> ?o . VALUES ?s { <a> } }").unwrap();
        let s = evaluate(&int_data(), &q);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn subquery_restricts_to_projection() {
        let q = parse_sparql(
            "SELECT ?s ?m WHERE { ?s <v> ?o . { SELECT (MAX(?x) AS ?m) WHERE { ?y <v> ?x } } }",
        )
        .unwrap();
        let s = evaluate(&int_data(), &q);
        assert_eq!(s.len(), 3);
        assert_eq!(s.get(0, "m"), Some(&Term::int_lit(5)));
    }

    #[test]
    fn min_prefers_int_representative_on_tie() {
        let d = vec![
            Triple::new(Term::iri("a"), Term::iri("v"), Term::double_lit(1.0)),
            Triple::new(Term::iri("a"), Term::iri("v"), Term::int_lit(1)),
        ];
        let q = parse_sparql("SELECT (MIN(?o) AS ?m) WHERE { ?s <v> ?o }").unwrap();
        let s = evaluate(&d, &q);
        assert_eq!(s.get(0, "m"), Some(&Term::int_lit(1)));
    }

    #[test]
    fn order_by_iri_sorts_by_lexical_form_not_encoding() {
        // `<ns/a>` must precede `<ns/ab>`: on the encoded form the closing
        // '>' (0x3E) compares above 'b' only by accident of ASCII — the
        // engine's RDF_STR sort key strips the brackets, so the naive
        // mirror must too.
        let d = vec![
            Triple::new(Term::iri("ns/ab"), Term::iri("p"), Term::int_lit(1)),
            Triple::new(Term::iri("ns/a"), Term::iri("p"), Term::int_lit(2)),
        ];
        let q = parse_sparql("SELECT ?s WHERE { ?s <p> ?o } ORDER BY ?s").unwrap();
        let s = evaluate(&d, &q);
        assert_eq!(s.get(0, "s"), Some(&Term::iri("ns/a")));
        assert_eq!(s.get(1, "s"), Some(&Term::iri("ns/ab")));
    }
}
