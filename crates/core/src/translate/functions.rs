//! RDF-aware scalar SQL functions registered on the relational back-end.
//!
//! Every layout's tables hold dictionary IDs (`BIGINT`), while FILTER
//! constants are canonical term strings (`<iri>`, `"lit"@en`,
//! `"5"^^<…integer>`); FILTER evaluation needs SPARQL value semantics on
//! top of both. These functions are the dialect bridge: the translator
//! emits calls like `RDF_GT(T.val3, '"30"^^<…integer>')` and the engine
//! evaluates them here, resolving integer arguments through the shared
//! dictionary. An integer argument is always an ID: the translator never
//! hands a number to a term position as an SQL integer (it passes a
//! double), so an ID the dictionary cannot resolve is no term and no
//! number. A string argument is a canonical term, or else a plain string
//! (the output of `RDF_STR`, `RDF_LANG`, `RDF_DATATYPE`).

use rdf::{decode_term, Term};
use relstore::{Database, Value};

use crate::dict::{Dict, SharedDict};

fn term_of(dict: &Dict, v: &Value) -> Option<Term> {
    match v {
        Value::Str(s) => decode_term(s),
        Value::Int(i) => dict.resolve(*i).as_deref().and_then(decode_term),
        _ => None,
    }
}

fn numeric(dict: &Dict, v: &Value) -> Option<f64> {
    match v {
        Value::Int(_) => term_of(dict, v).and_then(|t| t.numeric_value()),
        Value::Double(d) => Some(*d),
        // A canonical term, or a plain string (an `RDF_STR` output), which
        // is numeric when it spells a number.
        Value::Str(s) => match term_of(dict, v) {
            Some(t) => t.numeric_value(),
            None => s.trim().parse().ok(),
        },
        _ => None,
    }
}

fn lexical(dict: &Dict, v: &Value) -> Option<String> {
    match v {
        Value::Str(_) => term_of(dict, v).map(|t| t.lexical().to_string()).or_else(|| {
            // Already a plain string (e.g. output of RDF_STR).
            v.as_str().map(str::to_string)
        }),
        Value::Int(i) => dict.resolve(*i).and_then(|enc| lexical_of_encoded(&enc)),
        Value::Double(d) => Some(d.to_string()),
        Value::Bool(b) => Some(b.to_string()),
        Value::Null => None,
    }
}

/// Lexical form of a canonical encoding without building a [`Term`]. This
/// is the `RDF_STR` hot path for dictionary IDs (e.g. a `REGEX` filter over
/// an encoded column runs it once per candidate row); only encodings with
/// escapes fall back to full term parsing.
fn lexical_of_encoded(enc: &str) -> Option<String> {
    let b = enc.as_bytes();
    if b.len() >= 2 && b[0] == b'<' && b[b.len() - 1] == b'>' {
        return Some(enc[1..enc.len() - 1].to_string());
    }
    if b.len() >= 2 && b[0] == b'"' {
        // `"lex"`, `"lex"@lang` or `"lex"^^<dt>`: the closing quote is the
        // last one (lang tags and datatype IRIs cannot contain quotes).
        if let Some(q) = enc[1..].rfind('"') {
            let content = &enc[1..1 + q];
            if !content.contains('\\') {
                return Some(content.to_string());
            }
        }
    }
    decode_term(enc).map(|t| t.lexical().to_string())
}

/// SPARQL value comparison: numeric when both sides are numeric literals,
/// lexical-form string comparison otherwise.
fn sparql_cmp(dict: &Dict, a: &Value, b: &Value) -> Option<std::cmp::Ordering> {
    if a.is_null() || b.is_null() {
        return None;
    }
    if let (Some(x), Some(y)) = (numeric(dict, a), numeric(dict, b)) {
        return x.partial_cmp(&y);
    }
    let (la, lb) = (lexical(dict, a)?, lexical(dict, b)?);
    Some(la.cmp(&lb))
}

fn sparql_eq(dict: &Dict, a: &Value, b: &Value) -> Option<bool> {
    if a.is_null() || b.is_null() {
        return None;
    }
    // Equal dictionary IDs are the same term — no string materialization.
    if let (Value::Int(x), Value::Int(y)) = (a, b) {
        if x == y {
            return Some(true);
        }
    }
    // Numeric literals compare by value ("42"^^int = "42.0"^^double).
    if let (Some(ta), Some(tb)) = (term_of(dict, a), term_of(dict, b)) {
        if ta == tb {
            return Some(true);
        }
        if let (Some(x), Some(y)) = (ta.numeric_value(), tb.numeric_value()) {
            if ta.is_literal() && tb.is_literal() {
                return Some(x == y);
            }
        }
        return Some(false);
    }
    // Fall back to plain string comparison (RDF_STR outputs etc.).
    match (a.as_str(), b.as_str()) {
        (Some(x), Some(y)) => Some(x == y),
        _ => a.sql_eq(b),
    }
}

const XSD: &str = "http://www.w3.org/2001/XMLSchema#";

/// Map a term into the SPARQL *value domain* used by aggregation, BIND
/// arithmetic and HAVING: `xsd:integer` literals whose lexical form fits an
/// `i64` become `Int`, other numeric-typed literals (`double`, `decimal`,
/// `float`) become `Double`, and everything else — IRIs, blanks, plain and
/// lang-tagged literals, non-numeric typed literals — stays the canonical
/// term encoding as `Str` so term identity survives grouping.
fn val_of_term(t: &Term) -> Value {
    if let Term::Literal { lexical, lang: None, datatype: Some(dt) } = t {
        if let Some(suffix) = dt.strip_prefix(XSD) {
            match suffix {
                "integer" | "int" | "long" => {
                    if let Ok(i) = lexical.trim().parse::<i64>() {
                        return Value::Int(i);
                    }
                }
                "double" | "decimal" | "float" => {
                    if let Some(x) = t.numeric_value() {
                        return Value::Double(x);
                    }
                }
                _ => {}
            }
        }
    }
    Value::str(t.encode())
}

/// `RDF_VAL(x)`: term → value domain. Dictionary IDs and canonical strings
/// are decoded first; an ID that resolves to no term is NULL, while a
/// string that is no term (a plain string) passes through unchanged, and
/// Double/Bool are already plain values.
fn rdf_val(dict: &Dict, v: &Value) -> Value {
    match term_of(dict, v) {
        Some(t) => val_of_term(&t),
        None if matches!(v, Value::Int(_)) => Value::Null,
        None => v.clone(),
    }
}

/// `RDF_SAMETERM(a, b)`: strict RDF term identity — no numeric value
/// unification, so `"42"^^xsd:integer` ≠ `"42.0"^^xsd:double`. Used for
/// VALUES compatibility joins, where SPARQL joins on sameTerm.
fn rdf_sameterm(dict: &Dict, a: &Value, b: &Value) -> Option<bool> {
    if a.is_null() || b.is_null() {
        return None;
    }
    if let (Value::Int(x), Value::Int(y)) = (a, b) {
        return Some(x == y);
    }
    match (term_of(dict, a), term_of(dict, b)) {
        (Some(ta), Some(tb)) => Some(ta == tb),
        _ => a.sql_eq(b),
    }
}

/// Satellite check for FILTER REGEX: the engine only implements `^`/`$`
/// anchors around a literal needle (see [`regex_match`]). Any other regex
/// metacharacter in the needle would silently match as a plain substring,
/// so the translator must refuse the pattern instead of producing wrong
/// rows. Returns the offending character on rejection.
pub fn validate_regex_pattern(pattern: &str) -> Result<(), char> {
    let mut pat = pattern;
    if let Some(p) = pat.strip_prefix('^') {
        pat = p;
    }
    if let Some(p) = pat.strip_suffix('$') {
        pat = p;
    }
    match pat.chars().find(|c| ".^$*+?()[]{}|\\".contains(*c)) {
        Some(c) => Err(c),
        None => Ok(()),
    }
}

/// Tiny REGEX support: `^`/`$` anchors around a literal needle, with a
/// case-insensitive flag. Full regular expressions are out of scope (the
/// offline crate set has no regex engine); all benchmark patterns are
/// substring-shaped. Documented in DESIGN.md.
fn regex_match(text: &str, pattern: &str, ci: bool) -> bool {
    let (mut pat, mut anchored_start, mut anchored_end) = (pattern, false, false);
    if let Some(p) = pat.strip_prefix('^') {
        pat = p;
        anchored_start = true;
    }
    if let Some(p) = pat.strip_suffix('$') {
        pat = p;
        anchored_end = true;
    }
    let (t, p) = if ci { (text.to_lowercase(), pat.to_lowercase()) } else { (text.to_string(), pat.to_string()) };
    match (anchored_start, anchored_end) {
        (true, true) => t == p,
        (true, false) => t.starts_with(&p),
        (false, true) => t.ends_with(&p),
        (false, false) => t.contains(&p),
    }
}

/// Register all `RDF_*` functions on a database. Each closure holds a clone
/// of the shared dictionary and takes a read lock per call; the dictionary
/// is append-only, so concurrent query workers never see an ID remap.
pub fn register_rdf_functions(db: &mut Database, dict: &SharedDict) {
    let d = dict.clone();
    db.register_function("rdf_num", move |args| {
        Ok(match numeric(&d.read(), &args[0]) {
            Some(x) => Value::Double(x),
            None => Value::Null,
        })
    });
    let d = dict.clone();
    db.register_function("rdf_str", move |args| {
        Ok(match lexical(&d.read(), &args[0]) {
            Some(s) => Value::str(s),
            None => Value::Null,
        })
    });
    let d = dict.clone();
    db.register_function("rdf_lang", move |args| {
        Ok(match term_of(&d.read(), &args[0]) {
            Some(Term::Literal { lang: Some(l), .. }) => Value::str(l.to_string()),
            Some(Term::Literal { .. }) => Value::str(""),
            _ => Value::Null,
        })
    });
    let d = dict.clone();
    db.register_function("rdf_datatype", move |args| {
        Ok(match term_of(&d.read(), &args[0]) {
            Some(Term::Literal { datatype: Some(dt), .. }) => Value::str(dt.to_string()),
            Some(Term::Literal { lang: Some(_), .. }) => {
                Value::str("http://www.w3.org/1999/02/22-rdf-syntax-ns#langString")
            }
            Some(Term::Literal { .. }) => Value::str("http://www.w3.org/2001/XMLSchema#string"),
            _ => Value::Null,
        })
    });
    let d = dict.clone();
    db.register_function("rdf_isiri", move |args| {
        Ok(match &args[0] {
            Value::Null => Value::Null,
            v => Value::Bool(matches!(term_of(&d.read(), v), Some(Term::Iri(_)))),
        })
    });
    let d = dict.clone();
    db.register_function("rdf_isliteral", move |args| {
        Ok(match &args[0] {
            Value::Null => Value::Null,
            v => Value::Bool(matches!(term_of(&d.read(), v), Some(Term::Literal { .. }))),
        })
    });
    let d = dict.clone();
    db.register_function("rdf_isblank", move |args| {
        Ok(match &args[0] {
            Value::Null => Value::Null,
            v => Value::Bool(matches!(term_of(&d.read(), v), Some(Term::Blank(_)))),
        })
    });
    let d = dict.clone();
    db.register_function("rdf_eq", move |args| {
        Ok(sparql_eq(&d.read(), &args[0], &args[1]).map(Value::Bool).unwrap_or(Value::Null))
    });
    let d = dict.clone();
    db.register_function("rdf_ne", move |args| {
        Ok(sparql_eq(&d.read(), &args[0], &args[1])
            .map(|b| Value::Bool(!b))
            .unwrap_or(Value::Null))
    });
    for (name, pred) in [
        ("rdf_lt", std::cmp::Ordering::is_lt as fn(std::cmp::Ordering) -> bool),
        ("rdf_le", std::cmp::Ordering::is_le),
        ("rdf_gt", std::cmp::Ordering::is_gt),
        ("rdf_ge", std::cmp::Ordering::is_ge),
    ] {
        let d = dict.clone();
        db.register_function(name, move |args| {
            Ok(sparql_cmp(&d.read(), &args[0], &args[1])
                .map(|o| Value::Bool(pred(o)))
                .unwrap_or(Value::Null))
        });
    }
    let d = dict.clone();
    db.register_function("rdf_val", move |args| Ok(rdf_val(&d.read(), &args[0])));
    let d = dict.clone();
    db.register_function("rdf_sameterm", move |args| {
        Ok(rdf_sameterm(&d.read(), &args[0], &args[1]).map(Value::Bool).unwrap_or(Value::Null))
    });
    let d = dict.clone();
    db.register_function("rdf_regex", move |args| {
        let ci = matches!(args.get(2), Some(Value::Int(1)));
        Ok(match (lexical(&d.read(), &args[0]), args[1].as_str()) {
            (Some(text), Some(pat)) => Value::Bool(regex_match(&text, pat, ci)),
            _ => Value::Null,
        })
    });
    // Sort key: numeric literals order before/among each other numerically;
    // the translator emits ORDER BY RDF_NUM(c), RDF_STR(c).
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db() -> Database {
        let mut db = Database::new();
        register_rdf_functions(&mut db, &SharedDict::new());
        db
    }

    #[test]
    fn rdf_num_parses_typed_and_plain() {
        let db = db();
        let r = db
            .query("SELECT RDF_NUM('\"42\"^^<http://www.w3.org/2001/XMLSchema#integer>') AS a, RDF_NUM('\"3.5\"') AS b, RDF_NUM('<http://x>') AS c")
            .unwrap();
        assert_eq!(r.rows[0][0], Value::Double(42.0));
        assert_eq!(r.rows[0][1], Value::Double(3.5));
        assert_eq!(r.rows[0][2], Value::Null);
    }

    #[test]
    fn rdf_cmp_numeric_beats_lexical() {
        let db = db();
        // Lexically "9" > "10", numerically 9 < 10.
        let r = db
            .query("SELECT RDF_LT('\"9\"^^<http://www.w3.org/2001/XMLSchema#integer>', '\"10\"^^<http://www.w3.org/2001/XMLSchema#integer>') AS x")
            .unwrap();
        assert_eq!(r.rows[0][0], Value::Bool(true));
    }

    #[test]
    fn rdf_eq_across_numeric_types() {
        let db = db();
        let r = db
            .query("SELECT RDF_EQ('\"42\"^^<http://www.w3.org/2001/XMLSchema#integer>', '\"42.0\"^^<http://www.w3.org/2001/XMLSchema#double>') AS x, RDF_EQ('<a>', '<b>') AS y")
            .unwrap();
        assert_eq!(r.rows[0][0], Value::Bool(true));
        assert_eq!(r.rows[0][1], Value::Bool(false));
    }

    #[test]
    fn rdf_str_and_lang() {
        let db = db();
        let r = db
            .query("SELECT RDF_STR('\"bonjour\"@fr') AS s, RDF_LANG('\"bonjour\"@fr') AS l, RDF_LANG('\"x\"') AS e")
            .unwrap();
        assert_eq!(r.rows[0][0], Value::str("bonjour"));
        assert_eq!(r.rows[0][1], Value::str("fr"));
        assert_eq!(r.rows[0][2], Value::str(""));
    }

    #[test]
    fn type_checks() {
        let db = db();
        let r = db
            .query("SELECT RDF_ISIRI('<a>') AS a, RDF_ISLITERAL('\"x\"') AS b, RDF_ISBLANK('_:b') AS c, RDF_ISIRI('\"x\"') AS d")
            .unwrap();
        assert_eq!(
            r.rows[0],
            vec![Value::Bool(true), Value::Bool(true), Value::Bool(true), Value::Bool(false)]
        );
    }

    #[test]
    fn regex_substring_and_anchors() {
        assert!(regex_match("Journal of Testing", "Journal", false));
        assert!(regex_match("Journal of Testing", "^Journal", false));
        assert!(!regex_match("The Journal", "^Journal", false));
        assert!(regex_match("The Journal", "Journal$", false));
        assert!(regex_match("ABC", "abc", true));
        assert!(!regex_match("ABC", "abc", false));
        assert!(regex_match("exact", "^exact$", false));
    }

    #[test]
    fn rdf_regex_via_sql() {
        let db = db();
        let r = db.query("SELECT RDF_REGEX('\"Hello World\"', 'world', 1) AS x").unwrap();
        assert_eq!(r.rows[0][0], Value::Bool(true));
    }

    #[test]
    fn null_propagation() {
        let db = db();
        let r = db
            .query("SELECT RDF_EQ(NULL, '<a>') AS a, RDF_LT(NULL, NULL) AS b, RDF_ISIRI(NULL) AS c")
            .unwrap();
        assert_eq!(r.rows[0], vec![Value::Null, Value::Null, Value::Null]);
    }

    #[test]
    fn integer_ids_resolve_through_dictionary() {
        let mut db = Database::new();
        let dict = SharedDict::new();
        let (iri, lit, num) = {
            let mut d = dict.write();
            (
                d.intern("<http://example.org/x>"),
                d.intern("\"bonjour\"@fr"),
                d.intern("\"9\"^^<http://www.w3.org/2001/XMLSchema#integer>"),
            )
        };
        register_rdf_functions(&mut db, &dict);
        let r = db
            .query(&format!(
                "SELECT RDF_ISIRI({iri}) AS a, RDF_LANG({lit}) AS b, RDF_NUM({num}) AS c, \
                 RDF_EQ({iri}, '<http://example.org/x>') AS d, \
                 RDF_LT({num}, '\"10\"^^<http://www.w3.org/2001/XMLSchema#integer>') AS e"
            ))
            .unwrap();
        assert_eq!(
            r.rows[0],
            vec![
                Value::Bool(true),
                Value::str("fr"),
                Value::Double(9.0),
                Value::Bool(true),
                Value::Bool(true),
            ]
        );
    }

    #[test]
    fn rdf_val_maps_terms_into_value_domain() {
        let db = db();
        let r = db
            .query(
                "SELECT RDF_VAL('\"42\"^^<http://www.w3.org/2001/XMLSchema#integer>') AS a, \
                 RDF_VAL('\"2.5\"^^<http://www.w3.org/2001/XMLSchema#double>') AS b, \
                 RDF_VAL('<http://x>') AS c, RDF_VAL('\"plain\"') AS d, \
                 RDF_VAL(NULL) AS e, RDF_VAL(7) AS f, RDF_VAL('plain') AS g",
            )
            .unwrap();
        assert_eq!(r.rows[0][0], Value::Int(42));
        assert_eq!(r.rows[0][1], Value::Double(2.5));
        assert_eq!(r.rows[0][2], Value::str("<http://x>"));
        assert_eq!(r.rows[0][3], Value::str("\"plain\""));
        assert_eq!(r.rows[0][4], Value::Null);
        // An ID the (empty) dictionary cannot resolve is no value; a plain
        // string is one already.
        assert_eq!(r.rows[0][5], Value::Null);
        assert_eq!(r.rows[0][6], Value::str("plain"));
    }

    #[test]
    fn rdf_sameterm_is_strict() {
        let db = db();
        let r = db
            .query(
                "SELECT RDF_SAMETERM('<a>', '<a>') AS x, \
                 RDF_SAMETERM('\"42\"^^<http://www.w3.org/2001/XMLSchema#integer>', \
                              '\"42.0\"^^<http://www.w3.org/2001/XMLSchema#double>') AS y, \
                 RDF_SAMETERM(NULL, '<a>') AS z",
            )
            .unwrap();
        assert_eq!(r.rows[0][0], Value::Bool(true));
        assert_eq!(r.rows[0][1], Value::Bool(false)); // RDF_EQ would say true
        assert_eq!(r.rows[0][2], Value::Null);
    }

    #[test]
    fn regex_validation_rejects_unsupported_metacharacters() {
        assert!(validate_regex_pattern("Journal").is_ok());
        assert!(validate_regex_pattern("^Journal$").is_ok());
        assert!(validate_regex_pattern("a b-c_d").is_ok());
        assert_eq!(validate_regex_pattern("a.*b"), Err('.'));
        assert_eq!(validate_regex_pattern("(x|y)"), Err('('));
        assert_eq!(validate_regex_pattern("a+"), Err('+'));
        assert_eq!(validate_regex_pattern("^a^b$"), Err('^'));
        assert_eq!(validate_regex_pattern("a\\d"), Err('\\'));
    }
}
