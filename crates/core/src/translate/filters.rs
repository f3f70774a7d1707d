//! FILTER / value expression → SQL translation.
//!
//! Variables resolve to columns of the current CTE; terms become canonical
//! string literals; comparisons go through the `RDF_*` dialect functions so
//! SPARQL value semantics hold (numeric when both sides are numeric
//! literals). Unbound variables translate to `NULL`, which makes `BOUND`
//! and three-valued FILTER semantics fall out of SQL's own NULL handling.
//!
//! Two column domains coexist (see `DecodeMode` in `results`): *term*
//! columns hold dictionary IDs or canonical encodings, while *value*
//! columns — aggregate and BIND outputs, tracked by the `plain` set — hold
//! actual numbers/strings. Translation is fallible: anything the engine
//! cannot evaluate faithfully (full regexes, term builtins over value
//! columns) is rejected loudly instead of producing silently wrong rows.

use std::collections::{BTreeMap, HashSet};

use rdf::Term;
use relstore::quote_str;
use sparql::{AggFunc, ArithOp, CompareOp, Expression};

use crate::error::{Result, StoreError};

fn unsupported(msg: impl Into<String>) -> StoreError {
    StoreError::Unsupported(msg.into())
}

/// Translate a FILTER to a SQL boolean expression over the columns in
/// `bound` (SPARQL var → column name); `plain` marks value-domain columns.
pub fn filter_to_sql(
    expr: &Expression,
    bound: &BTreeMap<String, String>,
    plain: &HashSet<String>,
) -> Result<String> {
    bool_sql(expr, bound, plain)
}

/// Translate an ORDER BY key expression to a SQL scalar (numeric view).
pub fn filter_order_key(
    e: &Expression,
    bound: &BTreeMap<String, String>,
    plain: &HashSet<String>,
) -> Result<String> {
    num_sql(e, bound, plain)
}

/// Value-domain scalar for BIND and SELECT expressions: arithmetic stays
/// integer-preserving, term variables pass through `RDF_VAL`. Aggregate
/// calls are rejected (use [`select_expr_sql`] inside an aggregation).
pub fn value_sql(
    e: &Expression,
    bound: &BTreeMap<String, String>,
    plain: &HashSet<String>,
) -> Result<String> {
    val_sql(e, bound, plain, false)
}

/// Value-domain scalar for an aggregating SELECT item: like [`value_sql`]
/// but aggregate calls are allowed.
pub fn select_expr_sql(
    e: &Expression,
    bound: &BTreeMap<String, String>,
    plain: &HashSet<String>,
) -> Result<String> {
    val_sql(e, bound, plain, true)
}

/// HAVING condition, lowered inside the aggregation CTE: comparisons over
/// the value domain (group keys via `RDF_VAL`, aggregate calls inline),
/// combined with AND/OR/NOT.
pub fn having_sql(
    e: &Expression,
    bound: &BTreeMap<String, String>,
    plain: &HashSet<String>,
) -> Result<String> {
    match e {
        Expression::Or(a, b) => Ok(format!(
            "({} OR {})",
            having_sql(a, bound, plain)?,
            having_sql(b, bound, plain)?
        )),
        Expression::And(a, b) => Ok(format!(
            "({} AND {})",
            having_sql(a, bound, plain)?,
            having_sql(b, bound, plain)?
        )),
        Expression::Not(a) => Ok(format!("(NOT {})", having_sql(a, bound, plain)?)),
        Expression::Bound(v) => Ok(match bound.get(v) {
            Some(col) => format!("({col} IS NOT NULL)"),
            None => "FALSE".to_string(),
        }),
        Expression::Compare { op, left, right } => {
            let l = val_sql(left, bound, plain, true)?;
            let r = val_sql(right, bound, plain, true)?;
            Ok(format!("({l} {} {r})", sql_cmp_op(op)))
        }
        other => Err(unsupported(format!(
            "HAVING supports comparisons and boolean combinations only, got {other:?}"
        ))),
    }
}

fn sql_cmp_op(op: &CompareOp) -> &'static str {
    match op {
        CompareOp::Eq => "=",
        CompareOp::NotEq => "<>",
        CompareOp::Lt => "<",
        CompareOp::LtEq => "<=",
        CompareOp::Gt => ">",
        CompareOp::GtEq => ">=",
    }
}

/// Does the expression reference any value-domain variable?
fn contains_plain(e: &Expression, plain: &HashSet<String>) -> bool {
    e.variables().iter().any(|v| plain.contains(*v))
}

fn var_col(v: &str, bound: &BTreeMap<String, String>) -> String {
    bound.get(v).cloned().unwrap_or_else(|| "NULL".to_string())
}

/// SQL literal for a constant term in *value* position — the translation-
/// time mirror of the `RDF_VAL` function: integer-family literals become
/// integer literals, other numeric-typed literals become float literals,
/// everything else stays a canonical term string.
fn term_value_sql(t: &Term) -> String {
    if let Term::Literal { lexical, lang: None, datatype: Some(dt) } = t {
        if let Some(suffix) = dt.strip_prefix("http://www.w3.org/2001/XMLSchema#") {
            match suffix {
                "integer" | "int" | "long" => {
                    if let Ok(i) = lexical.trim().parse::<i64>() {
                        return num_lit(i.to_string());
                    }
                }
                "double" | "decimal" | "float" => {
                    if let Some(x) = t.numeric_value() {
                        // `{:?}` keeps the decimal point (`1000.0`, not
                        // `1000`) so the literal lexes as a Double.
                        return num_lit(format!("{x:?}"));
                    }
                }
                _ => {}
            }
        }
    }
    quote_str(&t.encode())
}

/// A number's SQL text. SQL has no negative literal, and the dialect no
/// unary minus, so a negative number is written `(0 - x)`.
fn num_lit(text: String) -> String {
    match text.strip_prefix('-') {
        Some(abs) => neg_sql(abs),
        None => text,
    }
}

/// SPARQL arithmetic over two lowered operands, the same in the value and
/// the numeric domain. SPARQL division over integers is not integer
/// division, so `/` forces the float path (`1.0 * Int` is a Double).
fn arith_sql(op: &ArithOp, l: &str, r: &str) -> String {
    match op {
        ArithOp::Add => format!("({l} + {r})"),
        ArithOp::Sub => format!("({l} - {r})"),
        ArithOp::Mul => format!("({l} * {r})"),
        ArithOp::Div => format!("((1.0 * {l}) / {r})"),
    }
}

/// SPARQL unary minus as `0 - x`: arithmetic maps a non-numeric operand to
/// NULL (SPARQL: type error → unbound), as negation must too.
fn neg_sql(x: &str) -> String {
    format!("(0 - {x})")
}

/// Value-domain scalar (see module docs). `allow_agg` permits aggregate
/// calls — true only inside the aggregation CTE's projection and HAVING.
fn val_sql(
    e: &Expression,
    bound: &BTreeMap<String, String>,
    plain: &HashSet<String>,
    allow_agg: bool,
) -> Result<String> {
    match e {
        Expression::Var(v) if plain.contains(v) => Ok(var_col(v, bound)),
        Expression::Var(v) => Ok(match bound.get(v) {
            Some(col) => format!("RDF_VAL({col})"),
            None => "NULL".to_string(),
        }),
        Expression::Term(t) => Ok(term_value_sql(t)),
        Expression::Arith { op, left, right } => Ok(arith_sql(
            op,
            &val_sql(left, bound, plain, allow_agg)?,
            &val_sql(right, bound, plain, allow_agg)?,
        )),
        Expression::Neg(inner) => Ok(neg_sql(&val_sql(inner, bound, plain, allow_agg)?)),
        Expression::Aggregate { func, distinct, arg } => {
            if !allow_agg {
                return Err(unsupported(
                    "aggregate call outside an aggregating SELECT or HAVING",
                ));
            }
            aggregate_sql(*func, *distinct, arg.as_deref(), bound, plain)
        }
        other => Err(unsupported(format!(
            "expression not supported in value position: {other:?}"
        ))),
    }
}

/// One aggregate call. Per the W3C definitions `Sum(∅) = 0` and
/// `Avg(∅) = 0`, so both wrap in `COALESCE`; `MIN`/`MAX` over an empty (or
/// all-unbound) group stay NULL → unbound. A plain `COUNT(?v)` counts the
/// column itself: `RDF_VAL` is NULL only on a NULL input, so it would change
/// no count and cost a dictionary resolve per row. The other calls, and
/// `COUNT(DISTINCT …)`, need value-domain identity and keep it.
fn aggregate_sql(
    func: AggFunc,
    distinct: bool,
    arg: Option<&Expression>,
    bound: &BTreeMap<String, String>,
    plain: &HashSet<String>,
) -> Result<String> {
    let Some(arg) = arg else {
        // Parser guarantees `*` only on COUNT.
        return Ok("COUNT(*)".to_string());
    };
    let v = match (func, distinct, arg) {
        (AggFunc::Count, false, Expression::Var(v)) => var_col(v, bound),
        _ => val_sql(arg, bound, plain, false)?,
    };
    let d = if distinct { "DISTINCT " } else { "" };
    Ok(match func {
        AggFunc::Count => format!("COUNT({d}{v})"),
        AggFunc::Sum => format!("COALESCE(SUM({d}{v}), 0)"),
        AggFunc::Avg => format!("COALESCE(AVG({d}{v}), 0)"),
        AggFunc::Min => format!("MIN({d}{v})"),
        AggFunc::Max => format!("MAX({d}{v})"),
    })
}

/// A term-valued operand: canonical string column or literal. Value-domain
/// variables cannot appear here — their column holds a number, not a term.
fn term_sql(
    e: &Expression,
    bound: &BTreeMap<String, String>,
    plain: &HashSet<String>,
) -> Result<String> {
    match e {
        Expression::Var(v) if plain.contains(v) => Err(unsupported(format!(
            "computed variable ?{v} cannot be used as an RDF term in this filter"
        ))),
        Expression::Var(v) => Ok(var_col(v, bound)),
        Expression::Term(t) => Ok(quote_str(&t.encode())),
        // String-producing builtins yield plain strings; RDF_* comparison
        // functions accept those too (they fall back to plain-string
        // semantics).
        Expression::Str(inner) => Ok(format!("RDF_STR({})", term_sql(inner, bound, plain)?)),
        Expression::Lang(inner) => Ok(format!("RDF_LANG({})", term_sql(inner, bound, plain)?)),
        Expression::Datatype(inner) => {
            Ok(format!("RDF_DATATYPE({})", term_sql(inner, bound, plain)?))
        }
        // A number in term position is a number, never a dictionary id: an
        // integer would resolve as the term interned under it, so it is
        // handed over as a double, which no RDF_* function resolves.
        Expression::Arith { .. } | Expression::Neg(_) => {
            Ok(format!("(1.0 * {})", num_sql(e, bound, plain)?))
        }
        // A boolean is no term either: the SQL boolean passes as is.
        other => bool_sql(other, bound, plain),
    }
}

/// A numeric-valued operand.
fn num_sql(
    e: &Expression,
    bound: &BTreeMap<String, String>,
    plain: &HashSet<String>,
) -> Result<String> {
    match e {
        // A value-domain column already holds a number (or a string, which
        // numeric contexts map to NULL); RDF_NUM would mistake its integers
        // for dictionary IDs.
        Expression::Var(v) if plain.contains(v) => Ok(var_col(v, bound)),
        Expression::Var(v) => Ok(format!("RDF_NUM({})", var_col(v, bound))),
        Expression::Term(t) => Ok(match t.numeric_value() {
            // An integral value an SQL integer holds keeps its integer
            // literal; any other finite one is written with `{x:?}`, which
            // keeps a decimal point or an exponent (`1e20`), so it lexes as
            // a double. INF and NaN have no SQL literal: RDF_NUM decodes
            // the term itself.
            Some(x) if x.fract() == 0.0 && x.abs() < i64::MAX as f64 => num_lit(format!("{x}")),
            Some(x) if x.is_finite() => num_lit(format!("{x:?}")),
            Some(_) => format!("RDF_NUM({})", quote_str(&t.encode())),
            None => "NULL".to_string(),
        }),
        Expression::Arith { op, left, right } => Ok(arith_sql(
            op,
            &num_sql(left, bound, plain)?,
            &num_sql(right, bound, plain)?,
        )),
        Expression::Neg(inner) => Ok(neg_sql(&num_sql(inner, bound, plain)?)),
        other => Ok(format!("RDF_NUM({})", term_sql(other, bound, plain)?)),
    }
}

fn is_numeric_shaped(e: &Expression) -> bool {
    match e {
        Expression::Arith { .. } | Expression::Neg(_) => true,
        Expression::Term(t) => t.is_literal() && t.numeric_value().is_some(),
        _ => false,
    }
}

fn is_plain_string_shaped(e: &Expression) -> bool {
    matches!(e, Expression::Str(_) | Expression::Lang(_) | Expression::Datatype(_))
}

fn bool_sql(
    e: &Expression,
    bound: &BTreeMap<String, String>,
    plain: &HashSet<String>,
) -> Result<String> {
    match e {
        Expression::Or(a, b) => Ok(format!(
            "({} OR {})",
            bool_sql(a, bound, plain)?,
            bool_sql(b, bound, plain)?
        )),
        Expression::And(a, b) => Ok(format!(
            "({} AND {})",
            bool_sql(a, bound, plain)?,
            bool_sql(b, bound, plain)?
        )),
        Expression::Not(a) => Ok(format!("(NOT {})", bool_sql(a, bound, plain)?)),
        Expression::Bound(v) => Ok(match bound.get(v) {
            Some(col) => format!("({col} IS NOT NULL)"),
            None => "FALSE".to_string(),
        }),
        Expression::Compare { op, left, right } => {
            // A value-domain operand forces the whole comparison into the
            // value domain (matching HAVING semantics).
            if contains_plain(left, plain) || contains_plain(right, plain) {
                let l = val_sql(left, bound, plain, false)?;
                let r = val_sql(right, bound, plain, false)?;
                return Ok(format!("({l} {} {r})", sql_cmp_op(op)));
            }
            let numeric = is_numeric_shaped(left) || is_numeric_shaped(right);
            if numeric {
                return Ok(format!(
                    "({} {} {})",
                    num_sql(left, bound, plain)?,
                    sql_cmp_op(op),
                    num_sql(right, bound, plain)?
                ));
            }
            if is_plain_string_shaped(left) || is_plain_string_shaped(right) {
                // Compare as plain strings: STR(?x) = "foo".
                let l = plain_sql(left, bound, plain)?;
                let r = plain_sql(right, bound, plain)?;
                return Ok(format!("({l} {} {r})", sql_cmp_op(op)));
            }
            let f = match op {
                CompareOp::Eq => "RDF_EQ",
                CompareOp::NotEq => "RDF_NE",
                CompareOp::Lt => "RDF_LT",
                CompareOp::LtEq => "RDF_LE",
                CompareOp::Gt => "RDF_GT",
                CompareOp::GtEq => "RDF_GE",
            };
            Ok(format!(
                "{f}({}, {})",
                term_sql(left, bound, plain)?,
                term_sql(right, bound, plain)?
            ))
        }
        Expression::Regex { expr, pattern, case_insensitive } => {
            // The engine implements only `^`/`$` anchors around a literal
            // needle; any other metacharacter would silently degrade to a
            // substring match, so refuse it here (satellite: fail loudly).
            if let Err(c) = super::functions::validate_regex_pattern(pattern) {
                return Err(unsupported(format!(
                    "REGEX pattern {pattern:?} uses unsupported metacharacter {c:?}; \
                     only ^/$ anchors around a literal needle are implemented"
                )));
            }
            Ok(format!(
                "RDF_REGEX({}, {}, {})",
                term_sql(expr, bound, plain)?,
                quote_str(pattern),
                i32::from(*case_insensitive)
            ))
        }
        Expression::IsIri(inner) => Ok(format!("RDF_ISIRI({})", term_sql(inner, bound, plain)?)),
        Expression::IsLiteral(inner) => {
            Ok(format!("RDF_ISLITERAL({})", term_sql(inner, bound, plain)?))
        }
        Expression::IsBlank(inner) => {
            Ok(format!("RDF_ISBLANK({})", term_sql(inner, bound, plain)?))
        }
        // A bare variable/term in boolean position: SPARQL effective boolean
        // value — approximate: non-null check.
        Expression::Var(v) => Ok(match bound.get(v) {
            Some(col) => format!("({col} IS NOT NULL)"),
            None => "FALSE".to_string(),
        }),
        Expression::Term(_) => Ok("TRUE".to_string()),
        Expression::Arith { .. } | Expression::Neg(_) => {
            Ok(format!("({} IS NOT NULL)", num_sql(e, bound, plain)?))
        }
        Expression::Str(_) | Expression::Lang(_) | Expression::Datatype(_) => {
            Ok(format!("({} IS NOT NULL)", term_sql(e, bound, plain)?))
        }
        Expression::Aggregate { .. } => {
            Err(unsupported("aggregate call is not allowed in FILTER"))
        }
    }
}

/// Plain-string-valued operand (for STR()/LANG() comparisons).
fn plain_sql(
    e: &Expression,
    bound: &BTreeMap<String, String>,
    plain: &HashSet<String>,
) -> Result<String> {
    match e {
        Expression::Term(t) => Ok(quote_str(t.lexical())),
        Expression::Var(v) if plain.contains(v) => Err(unsupported(format!(
            "computed variable ?{v} cannot be used in a string builtin"
        ))),
        Expression::Var(v) => Ok(format!("RDF_STR({})", var_col(v, bound))),
        other => term_sql(other, bound, plain),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparql::parse_sparql;

    fn filter_of(q: &str) -> Expression {
        parse_sparql(q).unwrap().pattern.filters[0].clone()
    }

    fn bound() -> BTreeMap<String, String> {
        let mut m = BTreeMap::new();
        m.insert("a".to_string(), "c_a".to_string());
        m.insert("n".to_string(), "c_n".to_string());
        m
    }

    fn no_plain() -> HashSet<String> {
        HashSet::new()
    }

    #[test]
    fn plain_count_of_a_term_variable_counts_the_column() {
        let n = Expression::Var("n".to_string());
        let sql = |func, distinct| aggregate_sql(func, distinct, Some(&n), &bound(), &no_plain());
        assert_eq!(sql(AggFunc::Count, false).unwrap(), "COUNT(c_n)");
        assert_eq!(sql(AggFunc::Count, true).unwrap(), "COUNT(DISTINCT RDF_VAL(c_n))");
        assert_eq!(sql(AggFunc::Sum, false).unwrap(), "COALESCE(SUM(RDF_VAL(c_n)), 0)");
        assert_eq!(sql(AggFunc::Max, false).unwrap(), "MAX(RDF_VAL(c_n))");
        let unbound = Expression::Var("u".to_string());
        let count = aggregate_sql(AggFunc::Count, false, Some(&unbound), &bound(), &no_plain());
        assert_eq!(count.unwrap(), "COUNT(NULL)");
    }

    #[test]
    fn numeric_comparison_uses_rdf_num() {
        let f = filter_of("SELECT * WHERE { ?a <http://p> ?n . FILTER(?n > 30) }");
        let sql = filter_to_sql(&f, &bound(), &no_plain()).unwrap();
        assert_eq!(sql, "(RDF_NUM(c_n) > 30)");
    }

    #[test]
    fn term_equality_uses_rdf_eq() {
        let f = filter_of("SELECT * WHERE { ?a <http://p> ?n . FILTER(?n = <http://x>) }");
        let sql = filter_to_sql(&f, &bound(), &no_plain()).unwrap();
        assert_eq!(sql, "RDF_EQ(c_n, '<http://x>')");
    }

    #[test]
    fn bound_and_logic() {
        let f = filter_of(
            "SELECT * WHERE { ?a <http://p> ?n . FILTER(bound(?n) && !bound(?z)) }",
        );
        let sql = filter_to_sql(&f, &bound(), &no_plain()).unwrap();
        assert_eq!(sql, "((c_n IS NOT NULL) AND (NOT FALSE))");
    }

    #[test]
    fn unbound_var_is_null() {
        let f = filter_of("SELECT * WHERE { ?a <http://p> ?n . FILTER(?zzz = 'x') }");
        let sql = filter_to_sql(&f, &bound(), &no_plain()).unwrap();
        assert!(sql.contains("NULL"));
    }

    #[test]
    fn regex_translation() {
        let f = filter_of("SELECT * WHERE { ?a <http://p> ?n . FILTER regex(?n, 'abc', 'i') }");
        let sql = filter_to_sql(&f, &bound(), &no_plain()).unwrap();
        assert_eq!(sql, "RDF_REGEX(c_n, 'abc', 1)");
    }

    #[test]
    fn unsupported_regex_is_rejected_not_mistranslated() {
        for pat in ["a.*b", "(x|y)", "[abc]", "a+", "a?b"] {
            let f = filter_of(&format!(
                "SELECT * WHERE {{ ?a <http://p> ?n . FILTER regex(?n, '{pat}') }}"
            ));
            let err = filter_to_sql(&f, &bound(), &no_plain()).unwrap_err();
            assert!(
                matches!(err, StoreError::Unsupported(_)),
                "pattern {pat} must be rejected, got {err:?}"
            );
        }
    }

    #[test]
    fn term_position_never_gets_an_sql_integer() {
        let sql = |q: &str| filter_to_sql(&filter_of(q), &bound(), &no_plain());
        let q = "SELECT * WHERE { ?a <http://p> ?n . FILTER(isIRI(1 + 1)) }";
        assert_eq!(sql(q).unwrap(), "RDF_ISIRI((1.0 * (1 + 1)))");
        let q = "SELECT * WHERE { ?a <http://p> ?n . FILTER(REGEX(?a = ?n, 'true')) }";
        assert_eq!(sql(q).unwrap(), "RDF_REGEX(RDF_EQ(c_a, c_n), 'true', 0)");
    }

    #[test]
    fn str_comparison_is_plain() {
        let f = filter_of("SELECT * WHERE { ?a <http://p> ?n . FILTER(str(?n) = 'x y') }");
        let sql = filter_to_sql(&f, &bound(), &no_plain()).unwrap();
        assert_eq!(sql, "(RDF_STR(c_n) = 'x y')");
    }

    #[test]
    fn arithmetic_in_comparison() {
        let f = filter_of("SELECT * WHERE { ?a <http://p> ?n . FILTER(?n * 2 >= ?a + 1) }");
        let sql = filter_to_sql(&f, &bound(), &no_plain()).unwrap();
        assert_eq!(sql, "((RDF_NUM(c_n) * 2) >= (RDF_NUM(c_a) + 1))");
    }

    #[test]
    fn division_and_negation_lower_alike_in_both_domains() {
        // `5 / 2` is 2.5 in SPARQL: integer operands must not divide as
        // integers in a numeric comparison any more than in a BIND.
        let f = filter_of("SELECT * WHERE { ?a <http://p> ?n . FILTER(?n > 5 / 2) }");
        let sql = filter_to_sql(&f, &bound(), &no_plain()).unwrap();
        assert_eq!(sql, "(RDF_NUM(c_n) > ((1.0 * 5) / 2))");
        let f = filter_of("SELECT * WHERE { ?a <http://p> ?n . FILTER(-?n < 2) }");
        let sql = filter_to_sql(&f, &bound(), &no_plain()).unwrap();
        assert_eq!(sql, "((0 - RDF_NUM(c_n)) < 2)");
        let f = filter_of(
            "SELECT * WHERE { ?a <http://p> ?n . \
             FILTER(?n > \"-3\"^^<http://www.w3.org/2001/XMLSchema#integer>) }",
        );
        let sql = filter_to_sql(&f, &bound(), &no_plain()).unwrap();
        assert_eq!(sql, "(RDF_NUM(c_n) > (0 - 3))");
        let n = Expression::Var("n".to_string());
        let half = Expression::Arith {
            op: ArithOp::Div,
            left: Box::new(n.clone()),
            right: Box::new(Expression::Neg(Box::new(n))),
        };
        let sql = value_sql(&half, &bound(), &no_plain()).unwrap();
        assert_eq!(sql, "((1.0 * RDF_VAL(c_n)) / (0 - RDF_VAL(c_n)))");
    }

    #[test]
    fn plain_variable_comparison_moves_to_value_domain() {
        let f = filter_of("SELECT * WHERE { ?a <http://p> ?n . FILTER(?n > 3) }");
        let plain: HashSet<String> = ["n".to_string()].into();
        let sql = filter_to_sql(&f, &bound(), &plain).unwrap();
        assert_eq!(sql, "(c_n > 3)");
        // Term builtins over a value-domain column are refused.
        let f = filter_of("SELECT * WHERE { ?a <http://p> ?n . FILTER(isIRI(?n)) }");
        assert!(filter_to_sql(&f, &bound(), &plain).is_err());
    }

    #[test]
    fn value_sql_shapes() {
        let b = bound();
        let p = no_plain();
        let e = filter_of("SELECT * WHERE { ?a <http://p> ?n . FILTER(?n + 1) }");
        let Expression::Compare { .. } = &e else {
            // FILTER(?n + 1) parses as a bare arith expression.
            let sql = value_sql(&e, &b, &p).unwrap();
            assert_eq!(sql, "(RDF_VAL(c_n) + 1)");
            return;
        };
        unreachable!();
    }

    #[test]
    fn division_forces_float_path() {
        let f = filter_of("SELECT * WHERE { ?a <http://p> ?n . FILTER(?n / 2) }");
        let sql = value_sql(&f, &bound(), &no_plain()).unwrap();
        assert_eq!(sql, "((1.0 * RDF_VAL(c_n)) / 2)");
    }
}
