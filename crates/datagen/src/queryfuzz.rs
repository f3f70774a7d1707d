//! Seeded grammar-based SPARQL fuzzing cases for the differential oracle.
//!
//! `gen_case(seed)` deterministically produces a small dataset plus one
//! query drawn from the grammar the workspace's `sparql` parser actually
//! accepts: connected BGPs (pivot-variable chaining, so no accidental cross
//! products), constant and variable predicates, repeated variables,
//! OPTIONAL blocks, UNION branches with shared variables, group-scoped
//! FILTERs over the full builtin surface (comparisons, arithmetic with
//! division by constants and unary minus, BOUND, REGEX, STR/LANG/DATATYPE,
//! isIRI/isLITERAL, &&/||/!), DISTINCT, ORDER BY and
//! LIMIT/OFFSET windows — plus the analytic surface: BIND, inline VALUES
//! (with UNDEF), subqueries (plain, DISTINCT and aggregating), aggregate
//! projections (COUNT/SUM/AVG/MIN/MAX, COUNT(*), DISTINCT-in-aggregate),
//! GROUP BY and HAVING, and deferred value-domain FILTERs over extension
//! variables. The generator stays inside the translator's supported
//! envelope on purpose: the oracle treats an `Unsupported` error as a
//! divergence, so anything it emits must translate. Two deliberate
//! restrictions keep results bit-deterministic across thread widths: the
//! vocabulary has no xsd:double literals (integer sums are exact in f64
//! regardless of morsel merge order) and subqueries carry no solution
//! modifiers (the translator rejects them anyway).
//!
//! The vocabulary is a small closed world — 9 subjects, 6 predicates,
//! string/lang/integer literals — plus a few deliberately out-of-vocabulary
//! terms, so generated queries land on non-empty and empty results alike.
//! Everything is a pure function of the seed: the same `u64` yields the
//! same (dataset, query) pair on every run, which is what lets
//! `scripts/verify.sh --fuzz` pin its corpus in CI.
//!
//! `gen_update_case(seed)` does the same for SPARQL 1.1 Update requests:
//! a deduplicated dataset plus 1–3 `;`-chained operations (INSERT DATA,
//! DELETE DATA, DELETE WHERE, DELETE/INSERT ... WHERE) over the same closed
//! vocabulary, for differential checking against a naive set-semantic
//! reference in `db2rdf::oracle`.

use rdf::{Term, Triple};

use crate::rng::SplitMix64;

/// One generated differential-oracle case.
#[derive(Debug, Clone)]
pub struct FuzzCase {
    pub seed: u64,
    pub triples: Vec<Triple>,
    pub query: String,
}

/// One generated update-oracle case: a starting dataset plus a SPARQL 1.1
/// Update request (possibly several `;`-chained operations) to run over it.
#[derive(Debug, Clone)]
pub struct UpdateFuzzCase {
    pub seed: u64,
    pub triples: Vec<Triple>,
    pub update: String,
}

const SUBJECTS: u64 = 9;
const PREDICATES: u64 = 6;
const STR_VALS: u64 = 5;
const INT_VALS: i64 = 16;

/// Deterministically generate dataset + query for `seed`.
pub fn gen_case(seed: u64) -> FuzzCase {
    let mut rng = SplitMix64::seed_from_u64(seed ^ 0xF022_AB1E_0DD5_EED5);
    let triples = gen_dataset(&mut rng);
    let query = gen_query(&mut rng);
    FuzzCase { seed, triples, query }
}

/// Deterministically generate dataset + update request for `seed`.
///
/// The dataset is deduplicated (RDF stores are set-semantic, and the update
/// oracle counts effects), and the update draws from the grammar
/// `sparql::parse_update` accepts: INSERT DATA / DELETE DATA with ground
/// vocabulary triples, DELETE WHERE shorthand over a single pattern, and
/// DELETE/INSERT ... WHERE with templates mixing WHERE-bound variables and
/// constants — including deliberately type-broken templates (a literal in
/// subject position via an object-bound variable) that exercise the
/// skip-invalid-instantiation rule.
pub fn gen_update_case(seed: u64) -> UpdateFuzzCase {
    let mut rng = SplitMix64::seed_from_u64(seed ^ 0x0DD5_EED5_F0F0_CAFE);
    let mut triples = gen_dataset(&mut rng);
    triples.sort();
    triples.dedup();
    let update = gen_update(&mut rng);
    UpdateFuzzCase { seed, triples, update }
}

/// 1–3 update operations joined with `;`, each drawn over the closed
/// vocabulary so deletes hit existing triples often enough to matter.
pub fn gen_update(rng: &mut SplitMix64) -> String {
    let n = rng.gen_range(1..4usize);
    (0..n).map(|_| gen_update_op(rng)).collect::<Vec<_>>().join(" ; ")
}

fn gen_update_op(rng: &mut SplitMix64) -> String {
    match rng.gen_range(0..6u32) {
        0 | 1 => format!("INSERT DATA {{ {}}}", gen_ground_block(rng)),
        2 => format!("DELETE DATA {{ {}}}", gen_ground_block(rng)),
        3 => {
            // DELETE WHERE shorthand: the pattern doubles as the template.
            let subject = if rng.gen_ratio(1, 3) { gen_subject_const(rng) } else { "?s".into() };
            let predicate = if rng.gen_ratio(1, 4) {
                "?p".to_string()
            } else {
                format!("<http://p/{}>", rng.gen_range(0..PREDICATES))
            };
            let object = if rng.gen_ratio(1, 2) { "?o".into() } else { gen_object_const(rng) };
            format!("DELETE WHERE {{ {subject} {predicate} {object} }}")
        }
        _ => gen_delete_insert(rng),
    }
}

/// 1–4 ground triples for an INSERT DATA / DELETE DATA block. Drawn from the
/// same vocabulary as `gen_dataset` (plus the out-of-vocabulary terms), so
/// inserts frequently duplicate existing triples and deletes frequently hit.
fn gen_ground_block(rng: &mut SplitMix64) -> String {
    let n = rng.gen_range(1..5usize);
    let mut out = String::new();
    for _ in 0..n {
        let s = gen_subject_const(rng);
        let p = if rng.gen_ratio(1, 10) {
            "<http://p/99>".to_string()
        } else {
            format!("<http://p/{}>", rng.gen_range(0..PREDICATES))
        };
        let o = gen_object_const(rng);
        out.push_str(&format!("{s} {p} {o} . "));
    }
    out
}

/// DELETE/INSERT ... WHERE with a connected 1–2 pattern WHERE clause
/// (occasionally plus a FILTER) and templates that mix the WHERE-bound
/// variables with constants.
fn gen_delete_insert(rng: &mut SplitMix64) -> String {
    let mut vars: Vec<String> = Vec::new();
    let mut counter = 0usize;
    let mut body = gen_bgp(rng, &mut vars, &mut counter, 2);
    if rng.gen_ratio(1, 4) {
        let expr = gen_filter(rng, &vars, &[]);
        body.push_str(&format!("FILTER ({expr}) "));
    }
    let delete = if rng.gen_ratio(1, 6) { String::new() } else { gen_template(rng, &vars) };
    let insert = if !delete.is_empty() && rng.gen_ratio(1, 4) {
        String::new()
    } else {
        gen_template(rng, &vars)
    };
    let mut op = String::new();
    if !delete.is_empty() {
        op.push_str(&format!("DELETE {{ {delete}}} "));
    }
    if !insert.is_empty() {
        op.push_str(&format!("INSERT {{ {insert}}} "));
    }
    op.push_str(&format!("WHERE {{ {body}}}"));
    op
}

/// A 1–2 triple template over `vars` and constants. Variables can land in
/// any position — including literal-valued variables in subject position —
/// which the applier must skip rather than mis-insert.
fn gen_template(rng: &mut SplitMix64, vars: &[String]) -> String {
    let pick = |rng: &mut SplitMix64| format!("?{}", vars[rng.gen_range(0..vars.len())]);
    let n = rng.gen_range(1..3usize);
    let mut out = String::new();
    for _ in 0..n {
        let s = if !vars.is_empty() && rng.gen_ratio(2, 3) {
            pick(rng)
        } else {
            gen_subject_const(rng)
        };
        let p = if !vars.is_empty() && rng.gen_ratio(1, 6) {
            pick(rng)
        } else if rng.gen_ratio(1, 10) {
            "<http://p/99>".to_string()
        } else {
            format!("<http://p/{}>", rng.gen_range(0..PREDICATES))
        };
        let o = if !vars.is_empty() && rng.gen_ratio(1, 2) {
            pick(rng)
        } else {
            gen_object_const(rng)
        };
        out.push_str(&format!("{s} {p} {o} . "));
    }
    out
}

/// 1–40 triples over the closed vocabulary. Objects mix IRIs (for chained
/// joins), typed integers (for numeric filters), plain literals and
/// language-tagged literals (for STR/LANG/REGEX filters).
pub fn gen_dataset(rng: &mut SplitMix64) -> Vec<Triple> {
    let n = rng.gen_range(1..41usize);
    (0..n)
        .map(|_| {
            let s = Term::iri(format!("http://s/{}", rng.gen_range(0..SUBJECTS)));
            let p = Term::iri(format!("http://p/{}", rng.gen_range(0..PREDICATES)));
            let o = match rng.gen_range(0..10u32) {
                0..=2 => Term::iri(format!("http://s/{}", rng.gen_range(0..SUBJECTS))),
                3..=5 => Term::typed_lit(
                    rng.gen_range(0..INT_VALS).to_string(),
                    "http://www.w3.org/2001/XMLSchema#integer",
                ),
                6..=7 => Term::lit(format!("val{}", rng.gen_range(0..STR_VALS))),
                8 => Term::lang_lit(format!("val{}", rng.gen_range(0..STR_VALS)), "en"),
                _ => Term::lang_lit(format!("val{}", rng.gen_range(0..STR_VALS)), "fr"),
            };
            Triple::new(s, p, o)
        })
        .collect()
}

/// Generate one query over the same vocabulary `gen_dataset` draws from.
pub fn gen_query(rng: &mut SplitMix64) -> String {
    let mut vars: Vec<String> = Vec::new(); // bound by required patterns
    let mut opt_vars: Vec<String> = Vec::new(); // bound only inside OPTIONAL
    let mut counter = 0usize;

    let mut body = if rng.gen_ratio(1, 40) {
        String::new() // the empty-group edge the protocol once mishandled
    } else if rng.gen_ratio(1, 4) {
        // UNION: two branches that share the starting pivot ?v0, so the
        // branches join on a common variable when projected together.
        let left = gen_bgp(rng, &mut vars, &mut counter, 2);
        counter = 1; // reset so the right branch also starts from ?v0
        let right = gen_bgp(rng, &mut vars, &mut counter, 2);
        vars.sort();
        vars.dedup();
        format!("{{ {left}}} UNION {{ {right}}} ")
    } else {
        gen_bgp(rng, &mut vars, &mut counter, 4)
    };

    if !vars.is_empty() && rng.gen_ratio(1, 3) {
        body.push_str(&gen_optional(rng, &vars, &mut opt_vars, &mut counter));
    }
    if !(vars.is_empty() && opt_vars.is_empty()) && rng.gen_ratio(2, 5) {
        let expr = gen_filter(rng, &vars, &opt_vars);
        body.push_str(&format!("FILTER ({expr}) "));
    }

    // Top-level extensions (the only placement the translator accepts).
    // `plain_vars` tracks value-domain variables (BIND targets, aggregating
    // subquery aliases) — they must never be shared join variables with a
    // VALUES block or another subquery, and filters over them compare
    // numerically.
    let mut plain_vars: Vec<String> = Vec::new();
    if rng.gen_ratio(1, 5) {
        body.push_str(&gen_values_block(rng, &vars, &opt_vars, &mut counter));
    }
    if rng.gen_ratio(1, 6) {
        body.push_str(&gen_subquery(rng, &vars, &mut plain_vars, &mut counter));
    }
    if rng.gen_ratio(1, 4) {
        body.push_str(&gen_bind(rng, &vars, &opt_vars, &mut plain_vars, &mut counter));
    }
    // A deferred FILTER over a value-domain variable: always numeric.
    if !plain_vars.is_empty() && rng.gen_ratio(1, 2) {
        let v = &plain_vars[rng.gen_range(0..plain_vars.len())];
        let op = ["<", "<=", ">", ">=", "=", "!="][rng.gen_range(0..6usize)];
        body.push_str(&format!("FILTER (?{v} {op} {}) ", rng.gen_range(0..2 * INT_VALS)));
    }

    let mut all_vars: Vec<String> =
        vars.iter().chain(opt_vars.iter()).chain(plain_vars.iter()).cloned().collect();
    all_vars.sort();
    all_vars.dedup();

    // Aggregate projection replaces the plain SELECT (and its modifiers:
    // GROUP BY brings its own projection/ordering rules).
    if !all_vars.is_empty() && rng.gen_ratio(1, 4) {
        return gen_aggregate_query(rng, &body, &all_vars, &mut counter);
    }

    let mut query = if rng.gen_ratio(1, 5) {
        format!("ASK {{ {body}}}")
    } else {
        let distinct = if rng.gen_ratio(1, 3) { "DISTINCT " } else { "" };
        let projection = if all_vars.is_empty() || rng.gen_ratio(1, 2) {
            "*".to_string()
        } else if rng.gen_ratio(1, 5) {
            // Computed select expression beside a bare variable.
            let v = &all_vars[rng.gen_range(0..all_vars.len())];
            let w = &all_vars[rng.gen_range(0..all_vars.len())];
            let op = if rng.gen_ratio(1, 2) { "+" } else { "*" };
            let e = format!("e{counter}");
            format!("?{v} ((?{w} {op} {}) AS ?{e})", rng.gen_range(1..4i64))
        } else {
            let keep = rng.gen_range(1..all_vars.len() + 1usize);
            all_vars.iter().take(keep).map(|v| format!("?{v}")).collect::<Vec<_>>().join(" ")
        };
        format!("SELECT {distinct}{projection} WHERE {{ {body}}}")
    };

    if query.starts_with("SELECT") && !all_vars.is_empty() && rng.gen_ratio(1, 5) {
        let key = &all_vars[rng.gen_range(0..all_vars.len())];
        let dir = ["?", "ASC(?", "DESC(?"][rng.gen_range(0..3usize)];
        let close = if dir == "?" { "" } else { ")" };
        query.push_str(&format!(" ORDER BY {dir}{key}{close}"));
    }
    if rng.gen_ratio(1, 4) {
        query.push_str(&format!(" LIMIT {}", rng.gen_range(1..21u32)));
        if rng.gen_ratio(1, 2) {
            query.push_str(&format!(" OFFSET {}", rng.gen_range(0..11u32)));
        }
    }
    query
}

/// A connected BGP of 1..=`max_patterns` triple patterns: each pattern
/// either chains off the current pivot variable (object becomes the new
/// pivot) or stars on it (constant object). Registers every variable it
/// binds into `vars`.
fn gen_bgp(
    rng: &mut SplitMix64,
    vars: &mut Vec<String>,
    counter: &mut usize,
    max_patterns: usize,
) -> String {
    let n = rng.gen_range(1..max_patterns + 1);
    let mut out = String::new();
    let pivot_name = format!("v{}", *counter);
    *counter += 1;
    push_unique(vars, &pivot_name);
    let mut pivot = pivot_name;
    for t in 0..n {
        // Subject: the pivot, or (first pattern only) sometimes a constant.
        let subject = if t == 0 && rng.gen_ratio(1, 6) {
            gen_subject_const(rng)
        } else {
            format!("?{pivot}")
        };
        // Predicate: mostly constant, occasionally a variable (drives the
        // entity layout's RPH/RS union paths) or out-of-vocabulary.
        let predicate = if rng.gen_ratio(1, 10) {
            let v = format!("p{}", *counter);
            *counter += 1;
            push_unique(vars, &v);
            format!("?{v}")
        } else if rng.gen_ratio(1, 12) {
            "<http://p/99>".to_string()
        } else {
            format!("<http://p/{}>", rng.gen_range(0..PREDICATES))
        };
        // Object: fresh variable (new pivot), repeated variable, or constant.
        let object = if rng.gen_ratio(1, 2) {
            let v = format!("v{}", *counter);
            *counter += 1;
            push_unique(vars, &v);
            pivot = v.clone();
            format!("?{v}")
        } else if !vars.is_empty() && rng.gen_ratio(1, 6) {
            format!("?{}", vars[rng.gen_range(0..vars.len())])
        } else {
            gen_object_const(rng)
        };
        out.push_str(&format!("{subject} {predicate} {object} . "));
    }
    out
}

/// An inline VALUES block: one or two variables (existing term-domain
/// variables join, fresh ones extend), 1–3 rows from the vocabulary with
/// occasional UNDEF cells and out-of-vocabulary terms (which the entity
/// layout must treat as matching nothing, not as a missing dictionary id).
fn gen_values_block(
    rng: &mut SplitMix64,
    vars: &[String],
    opt_vars: &[String],
    counter: &mut usize,
) -> String {
    let pick_var = |rng: &mut SplitMix64, counter: &mut usize| -> String {
        let pool: Vec<&String> = vars.iter().chain(opt_vars.iter()).collect();
        if !pool.is_empty() && rng.gen_ratio(2, 3) {
            pool[rng.gen_range(0..pool.len())].clone()
        } else {
            let u = format!("u{}", *counter);
            *counter += 1;
            u
        }
    };
    let cell = |rng: &mut SplitMix64| -> String {
        if rng.gen_ratio(1, 4) {
            "UNDEF".to_string()
        } else {
            gen_object_const(rng)
        }
    };
    let rows = rng.gen_range(1..4usize);
    if rng.gen_ratio(1, 3) {
        let a = pick_var(rng, counter);
        let mut b = pick_var(rng, counter);
        if b == a {
            b = format!("u{}", *counter);
            *counter += 1;
        }
        let data: Vec<String> =
            (0..rows).map(|_| format!("({} {})", cell(rng), cell(rng))).collect();
        format!("VALUES (?{a} ?{b}) {{ {} }} ", data.join(" "))
    } else {
        let v = pick_var(rng, counter);
        let data: Vec<String> = (0..rows).map(|_| cell(rng)).collect();
        format!("VALUES ?{v} {{ {} }} ", data.join(" "))
    }
}

/// A BIND over the already-bound variables (or a constant when none are
/// visible): always numeric-valued, so downstream filters compare cleanly
/// in the value domain. Occasionally a bare variable copy, which keeps the
/// source's domain.
fn gen_bind(
    rng: &mut SplitMix64,
    vars: &[String],
    opt_vars: &[String],
    plain_vars: &mut Vec<String>,
    counter: &mut usize,
) -> String {
    let b = format!("b{}", *counter);
    *counter += 1;
    let pool: Vec<&String> = vars.iter().chain(opt_vars.iter()).collect();
    // A bare copy of a term variable is NOT value-domain, so it stays out
    // of `plain_vars`; every computed shape is value-domain.
    let expr = if pool.is_empty() || rng.gen_ratio(1, 6) {
        plain_vars.push(b.clone());
        format!("{}", rng.gen_range(0..INT_VALS))
    } else if rng.gen_ratio(1, 6) {
        format!("?{}", pool[rng.gen_range(0..pool.len())])
    } else {
        plain_vars.push(b.clone());
        let v = pool[rng.gen_range(0..pool.len())];
        let op = if rng.gen_ratio(1, 2) { "+" } else { "*" };
        format!("?{v} {op} {}", rng.gen_range(1..4i64))
    };
    format!("BIND({expr} AS ?{b}) ")
}

/// A top-level subquery sharing the outer pivot `?v0` when it exists:
/// plain or DISTINCT projection, or a grouped aggregate whose alias joins
/// the outer query as a fresh value-domain variable. Subqueries carry no
/// solution modifiers (the translator rejects them).
fn gen_subquery(
    rng: &mut SplitMix64,
    vars: &[String],
    plain_vars: &mut Vec<String>,
    counter: &mut usize,
) -> String {
    let pivot = if vars.iter().any(|v| v == "v0") {
        "v0".to_string()
    } else {
        let v = format!("u{}", *counter);
        *counter += 1;
        v
    };
    let q = format!("q{}", *counter);
    *counter += 1;
    let p = format!("<http://p/{}>", rng.gen_range(0..PREDICATES));
    match rng.gen_range(0..4u32) {
        0 => format!("{{ SELECT ?{pivot} WHERE {{ ?{pivot} {p} ?{q} }} }} "),
        1 => format!("{{ SELECT DISTINCT ?{pivot} WHERE {{ ?{pivot} {p} ?{q} }} }} "),
        2 => {
            let a = format!("a{}", *counter);
            *counter += 1;
            plain_vars.push(a.clone());
            let agg = ["COUNT", "SUM", "MAX", "MIN"][rng.gen_range(0..4usize)];
            format!(
                "{{ SELECT ?{pivot} ({agg}(?{q}) AS ?{a}) WHERE {{ ?{pivot} {p} ?{q} }} \
                 GROUP BY ?{pivot} }} "
            )
        }
        _ => {
            // Global aggregate: one row, no shared variable with the outer
            // query — a pure scalar extension.
            let a = format!("a{}", *counter);
            *counter += 1;
            plain_vars.push(a.clone());
            let inner = format!("in{}", *counter);
            *counter += 1;
            format!("{{ SELECT (COUNT(?{inner}) AS ?{a}) WHERE {{ ?{inner} {p} ?{q} }} }} ")
        }
    }
}

/// One aggregate call over the bound variables.
fn gen_aggregate_call(rng: &mut SplitMix64, all_vars: &[String]) -> String {
    let v = &all_vars[rng.gen_range(0..all_vars.len())];
    match rng.gen_range(0..12u32) {
        0 => "COUNT(*)".to_string(),
        1 => format!("COUNT(?{v})"),
        2 => format!("COUNT(DISTINCT ?{v})"),
        3 => format!("SUM(?{v})"),
        4 => format!("SUM(DISTINCT ?{v})"),
        5 => format!("AVG(?{v})"),
        6 => format!("MIN(?{v})"),
        7 => format!("MAX(?{v})"),
        _ => format!("SUM(?{v} + {})", rng.gen_range(1..4i64)),
    }
}

/// An aggregate query over `body`: 0–2 grouping keys (0 keys = a global
/// aggregate, which yields exactly one row even over empty input), 1–2
/// aggregate items, optional HAVING over an aggregate call, ORDER BY only
/// over projected items (the parser enforces nothing else is visible).
fn gen_aggregate_query(
    rng: &mut SplitMix64,
    body: &str,
    all_vars: &[String],
    counter: &mut usize,
) -> String {
    let nkeys = rng.gen_range(0..3usize).min(all_vars.len());
    let mut keys: Vec<String> = Vec::new();
    while keys.len() < nkeys {
        let v = all_vars[rng.gen_range(0..all_vars.len())].clone();
        if !keys.contains(&v) {
            keys.push(v);
        }
    }
    let mut items: Vec<String> = keys.iter().map(|k| format!("?{k}")).collect();
    let mut projected: Vec<String> = keys.clone();
    for _ in 0..rng.gen_range(1..3usize) {
        let alias = format!("a{}", *counter);
        *counter += 1;
        items.push(format!("({} AS ?{alias})", gen_aggregate_call(rng, all_vars)));
        projected.push(alias);
    }
    let mut query = format!("SELECT {} WHERE {{ {body}}}", items.join(" "));
    if !keys.is_empty() {
        let ks: Vec<String> = keys.iter().map(|k| format!("?{k}")).collect();
        query.push_str(&format!(" GROUP BY {}", ks.join(" ")));
    }
    if rng.gen_ratio(1, 3) {
        let op = ["<", "<=", ">", ">=", "=", "!="][rng.gen_range(0..6usize)];
        query.push_str(&format!(
            " HAVING({} {op} {})",
            gen_aggregate_call(rng, all_vars),
            rng.gen_range(0..INT_VALS)
        ));
    }
    if rng.gen_ratio(1, 4) {
        let key = &projected[rng.gen_range(0..projected.len())];
        let dir = ["?", "ASC(?", "DESC(?"][rng.gen_range(0..3usize)];
        let close = if dir == "?" { "" } else { ")" };
        query.push_str(&format!(" ORDER BY {dir}{key}{close}"));
    }
    if rng.gen_ratio(1, 5) {
        query.push_str(&format!(" LIMIT {}", rng.gen_range(1..11u32)));
    }
    query
}

fn gen_optional(
    rng: &mut SplitMix64,
    vars: &[String],
    opt_vars: &mut Vec<String>,
    counter: &mut usize,
) -> String {
    let anchor = &vars[rng.gen_range(0..vars.len())];
    let w = format!("w{}", *counter);
    *counter += 1;
    push_unique(opt_vars, &w);
    let p = format!("<http://p/{}>", rng.gen_range(0..PREDICATES));
    if rng.gen_ratio(1, 3) {
        // Two-pattern OPTIONAL chained through the optional variable.
        let w2 = format!("w{}", *counter);
        *counter += 1;
        push_unique(opt_vars, &w2);
        let p2 = format!("<http://p/{}>", rng.gen_range(0..PREDICATES));
        format!("OPTIONAL {{ ?{anchor} {p} ?{w} . ?{w} {p2} ?{w2} }} ")
    } else {
        format!("OPTIONAL {{ ?{anchor} {p} ?{w} }} ")
    }
}

fn gen_subject_const(rng: &mut SplitMix64) -> String {
    if rng.gen_ratio(1, 8) {
        "<http://s/99>".to_string() // out of vocabulary: empty scan
    } else {
        format!("<http://s/{}>", rng.gen_range(0..SUBJECTS))
    }
}

fn gen_object_const(rng: &mut SplitMix64) -> String {
    match rng.gen_range(0..8u32) {
        0..=2 => format!("<http://s/{}>", rng.gen_range(0..SUBJECTS)),
        3..=4 => format!("{}", rng.gen_range(0..INT_VALS)),
        5 => format!("\"val{}\"", rng.gen_range(0..STR_VALS)),
        6 => format!("\"val{}\"@en", rng.gen_range(0..STR_VALS)),
        _ => "\"nope\"".to_string(), // out of vocabulary
    }
}

/// A FILTER constraint over the bound variables: one or two leaf predicates
/// combined with &&, || or !.
fn gen_filter(rng: &mut SplitMix64, vars: &[String], opt_vars: &[String]) -> String {
    let leaf = gen_filter_leaf(rng, vars, opt_vars);
    if rng.gen_ratio(1, 3) {
        let other = gen_filter_leaf(rng, vars, opt_vars);
        let op = if rng.gen_ratio(1, 2) { "&&" } else { "||" };
        format!("({leaf}) {op} ({other})")
    } else if rng.gen_ratio(1, 6) {
        format!("!({leaf})")
    } else {
        leaf
    }
}

fn gen_filter_leaf(rng: &mut SplitMix64, vars: &[String], opt_vars: &[String]) -> String {
    let pick = |rng: &mut SplitMix64, pool: &[String], fallback: &[String]| -> String {
        let pool = if pool.is_empty() { fallback } else { pool };
        pool[rng.gen_range(0..pool.len())].clone()
    };
    let v = pick(rng, vars, opt_vars);
    match rng.gen_range(0..14u32) {
        0 => {
            // Numeric comparison (numeric-shaped on the constant side).
            let op = ["<", "<=", ">", ">=", "=", "!="][rng.gen_range(0..6usize)];
            format!("?{v} {op} {}", rng.gen_range(0..INT_VALS))
        }
        1 => {
            // Arithmetic keeps the comparison numeric-shaped.
            let op = if rng.gen_ratio(1, 2) { "+" } else { "*" };
            format!("(?{v} {op} {}) > {}", rng.gen_range(1..4i64), rng.gen_range(0..INT_VALS))
        }
        2 => {
            // Division by a constant in 1..4, of the variable or of two
            // constants: SPARQL divides integers exactly, never as `5 / 2 = 2`.
            let d = rng.gen_range(1..4i64);
            let k = rng.gen_range(0..INT_VALS);
            if rng.gen_ratio(1, 2) {
                format!("(?{v} / {d}) > {k}")
            } else {
                format!("?{v} > {k} / {d}")
            }
        }
        3 => {
            let op = ["<", "<=", ">", ">="][rng.gen_range(0..4usize)];
            format!("-?{v} {op} -{}", rng.gen_range(0..INT_VALS))
        }
        4 => format!("DATATYPE(?{v}) = <http://www.w3.org/2001/XMLSchema#integer>"),
        5 => {
            let eq = if rng.gen_ratio(2, 3) { "=" } else { "!=" };
            format!("?{v} {eq} \"val{}\"", rng.gen_range(0..STR_VALS))
        }
        6 => {
            let eq = if rng.gen_ratio(2, 3) { "=" } else { "!=" };
            format!("?{v} {eq} <http://s/{}>", rng.gen_range(0..SUBJECTS))
        }
        7 => {
            let w = pick(rng, vars, opt_vars);
            let eq = if rng.gen_ratio(1, 2) { "=" } else { "!=" };
            format!("?{v} {eq} ?{w}")
        }
        8 => {
            // BOUND prefers an OPTIONAL variable, where it can be false.
            let w = pick(rng, opt_vars, vars);
            if rng.gen_ratio(1, 3) {
                format!("!BOUND(?{w})")
            } else {
                format!("BOUND(?{w})")
            }
        }
        9 => {
            let f = if rng.gen_ratio(1, 2) { "isIRI" } else { "isLITERAL" };
            format!("{f}(?{v})")
        }
        10 => {
            let pat = ["val", "^val", "2$", "^http", "al"][rng.gen_range(0..5usize)];
            let flags = if rng.gen_ratio(1, 3) { ", \"i\"" } else { "" };
            format!("REGEX(STR(?{v}), \"{pat}\"{flags})")
        }
        11 => {
            // A plain string against a numeric-shaped constant: compared
            // numerically, so the string must read as the number it spells.
            format!("STR(?{v}) = \"{}\"", rng.gen_range(0..INT_VALS))
        }
        12 => {
            // A term test over arithmetic: the sum is a number, never the
            // term a dictionary id of the same value names.
            let f = if rng.gen_ratio(1, 2) { "isIRI" } else { "isLITERAL" };
            format!("{f}(?{v} + 1)")
        }
        _ => {
            let lang = if rng.gen_ratio(1, 2) { "en" } else { "fr" };
            format!("LANG(?{v}) = \"{lang}\"")
        }
    }
}

fn push_unique(vars: &mut Vec<String>, v: &str) {
    if !vars.iter().any(|x| x == v) {
        vars.push(v.to_string());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cases_are_deterministic_per_seed() {
        for seed in [0u64, 1, 42, 0xDEAD_BEEF] {
            let a = gen_case(seed);
            let b = gen_case(seed);
            assert_eq!(a.triples, b.triples);
            assert_eq!(a.query, b.query);
        }
        assert_ne!(gen_case(1).query, gen_case(2).query);
    }

    #[test]
    fn update_cases_are_deterministic_and_deduplicated() {
        for seed in [0u64, 1, 42, 0xDEAD_BEEF] {
            let a = gen_update_case(seed);
            let b = gen_update_case(seed);
            assert_eq!(a.triples, b.triples);
            assert_eq!(a.update, b.update);
            let mut dedup = a.triples.clone();
            dedup.sort();
            dedup.dedup();
            assert_eq!(a.triples, dedup, "dataset must be set-semantic");
        }
        assert_ne!(gen_update_case(1).update, gen_update_case(2).update);
    }

    #[test]
    fn update_cases_cover_every_operation_kind() {
        let mut insert_data = 0;
        let mut delete_data = 0;
        let mut delete_where = 0;
        let mut delete_insert = 0;
        for seed in 0..200u64 {
            let u = gen_update_case(seed).update;
            if u.contains("INSERT DATA") {
                insert_data += 1;
            }
            if u.contains("DELETE DATA") {
                delete_data += 1;
            }
            if u.contains("DELETE WHERE") {
                delete_where += 1;
            }
            if u.contains("WHERE") && (u.contains("INSERT {") || u.contains("DELETE {")) {
                delete_insert += 1;
            }
        }
        assert!(insert_data > 0 && delete_data > 0 && delete_where > 0 && delete_insert > 0);
    }

    #[test]
    fn generated_datasets_are_nonempty_and_in_vocabulary() {
        for seed in 0..50u64 {
            let case = gen_case(seed);
            assert!(!case.triples.is_empty());
            for t in &case.triples {
                assert!(t.subject.encode().starts_with("<http://s/"));
                assert!(t.predicate.encode().starts_with("<http://p/"));
            }
        }
    }
}
