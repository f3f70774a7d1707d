//! SPARQL solution sets decoded from relational results.
//!
//! This is the single late-materialization point of the pipeline: the
//! relational layer computes entirely over dictionary IDs, and strings are
//! produced only here, when rows become `Solutions`.

use rdf::{decode_term, Term};
use relstore::{Rel, Value};

use crate::dict::Dict;

/// How a projected column's values map back to RDF terms.
///
/// Most columns live in the *term domain*: dictionary IDs, on every layout,
/// resolved through the dictionary (or, for a VALUES constant the
/// dictionary lacks, its canonical term string). Columns computed by
/// aggregates or BIND arithmetic live in the *value
/// domain* (`RDF_VAL` output): an `Int` there is an actual integer, not a
/// dictionary ID, and must never be resolved — a `COUNT` of 17 decoding as
/// whatever term interned at ID 17 would be silently wrong.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeMode {
    Term,
    Plain,
}

/// A set of SPARQL solutions (bag semantics, ordered when the query orders).
#[derive(Debug, Clone, PartialEq)]
pub struct Solutions {
    /// Projected variable names, in SELECT order.
    pub vars: Vec<String>,
    /// One row per solution; `None` = unbound.
    pub rows: Vec<Vec<Option<Term>>>,
    /// `Some(b)` for ASK queries.
    pub boolean: Option<bool>,
}

impl Solutions {
    /// Decode a relation's first `vars.len()` columns, each by its
    /// [`DecodeMode`] (positional, one per variable): term-domain integers
    /// are dictionary IDs, resolved through `dict`.
    pub fn from_select_modes(
        vars: Vec<String>,
        modes: &[DecodeMode],
        rel: &Rel,
        dict: &Dict,
    ) -> Solutions {
        let rows = rel
            .rows
            .iter()
            .map(|r| r.iter().zip(modes).map(|(v, &mode)| decode_value(v, dict, mode)).collect())
            .collect();
        Solutions { vars, rows, boolean: None }
    }

    pub fn from_ask(nonempty: bool) -> Solutions {
        Solutions { vars: Vec::new(), rows: Vec::new(), boolean: Some(nonempty) }
    }

    /// The unit solution set: exactly one row with every projected
    /// variable unbound — the result of a SELECT over a pattern with zero
    /// triple patterns (SPARQL's μ0, the join identity).
    pub fn unit(vars: Vec<String>) -> Solutions {
        let row = vec![None; vars.len()];
        Solutions { vars, rows: vec![row], boolean: None }
    }

    pub fn len(&self) -> usize {
        self.rows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The binding of `var` in row `i`.
    pub fn get(&self, i: usize, var: &str) -> Option<&Term> {
        let col = self.vars.iter().position(|v| v == var)?;
        self.rows.get(i)?.get(col)?.as_ref()
    }

    /// Render as a simple text table (for examples and debugging).
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        if let Some(b) = self.boolean {
            out.push_str(if b { "ASK → true\n" } else { "ASK → false\n" });
            return out;
        }
        out.push_str(&self.vars.join("\t"));
        out.push('\n');
        for row in &self.rows {
            let cells: Vec<String> = row
                .iter()
                .map(|t| t.as_ref().map(|t| t.encode()).unwrap_or_else(|| "∅".into()))
                .collect();
            out.push_str(&cells.join("\t"));
            out.push('\n');
        }
        out
    }
}

// -- W3C result serialization (SPARQL 1.1 Query Results JSON / TSV) ---------

/// Append `s` to `out` as a JSON string body (no surrounding quotes),
/// escaping per RFC 8259: quote, backslash, and all control characters.
fn json_escape_into(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

/// One RDF term as a SPARQL 1.1 Results JSON object, e.g.
/// `{"type":"uri","value":"http://a"}`.
fn term_to_json(term: &Term, out: &mut String) {
    match term {
        Term::Iri(v) => {
            out.push_str("{\"type\":\"uri\",\"value\":\"");
            json_escape_into(v, out);
            out.push_str("\"}");
        }
        Term::Blank(v) => {
            out.push_str("{\"type\":\"bnode\",\"value\":\"");
            json_escape_into(v, out);
            out.push_str("\"}");
        }
        Term::Literal { lexical, lang, datatype } => {
            out.push_str("{\"type\":\"literal\",\"value\":\"");
            json_escape_into(lexical, out);
            out.push('"');
            if let Some(l) = lang {
                out.push_str(",\"xml:lang\":\"");
                json_escape_into(l, out);
                out.push('"');
            } else if let Some(dt) = datatype {
                out.push_str(",\"datatype\":\"");
                json_escape_into(dt, out);
                out.push('"');
            }
            out.push('}');
        }
    }
}

impl Solutions {
    /// Serialize per the W3C *SPARQL 1.1 Query Results JSON Format*:
    /// `{"head":{"vars":[...]},"results":{"bindings":[...]}}` for SELECT,
    /// `{"head":{},"boolean":b}` for ASK. Unbound variables are omitted
    /// from their binding objects, as the spec requires.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(64 + self.rows.len() * 64);
        if let Some(b) = self.boolean {
            out.push_str("{\"head\":{},\"boolean\":");
            out.push_str(if b { "true" } else { "false" });
            out.push('}');
            return out;
        }
        out.push_str("{\"head\":{\"vars\":[");
        for (i, v) in self.vars.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            json_escape_into(v, &mut out);
            out.push('"');
        }
        out.push_str("]},\"results\":{\"bindings\":[");
        for (ri, row) in self.rows.iter().enumerate() {
            if ri > 0 {
                out.push(',');
            }
            out.push('{');
            let mut first = true;
            for (var, cell) in self.vars.iter().zip(row.iter()) {
                let Some(term) = cell else { continue };
                if !first {
                    out.push(',');
                }
                first = false;
                out.push('"');
                json_escape_into(var, &mut out);
                out.push_str("\":");
                term_to_json(term, &mut out);
            }
            out.push('}');
        }
        out.push_str("]}}");
        out
    }

    /// Serialize per the W3C *SPARQL 1.1 Query Results TSV Format*: a
    /// header line of `?`-prefixed variables, then one line per solution
    /// with terms in SPARQL (N-Triples) syntax — IRIs in angle brackets,
    /// literals quoted with `\t`/`\n`/`\r`/`\"`/`\\` escaped (so a cell
    /// never contains a raw tab or newline), blank nodes as `_:label` —
    /// and unbound variables as empty fields.
    ///
    /// The W3C CSV/TSV result format is defined for SELECT only — it has
    /// no boolean form — so ASK solutions serialize to an empty document
    /// here; the protocol layer refuses `ASK` + TSV with 406 (or steers
    /// negotiation to JSON) before ever reaching this method.
    pub fn to_tsv(&self) -> String {
        let mut out = String::with_capacity(32 + self.rows.len() * 48);
        if self.boolean.is_some() {
            return out;
        }
        for (i, v) in self.vars.iter().enumerate() {
            if i > 0 {
                out.push('\t');
            }
            out.push('?');
            out.push_str(v);
        }
        out.push('\n');
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                if i > 0 {
                    out.push('\t');
                }
                if let Some(term) = cell {
                    term.encode_into(&mut out);
                }
            }
            out.push('\n');
        }
        out
    }
}

fn decode_value(v: &Value, dict: &Dict, mode: DecodeMode) -> Option<Term> {
    match v {
        Value::Null => None,
        Value::Str(s) => decode_term(s).or_else(|| Some(Term::lit(s.to_string()))),
        Value::Int(i) => match mode {
            // Value-domain integers (aggregate/BIND outputs) are actual
            // numbers, never dictionary IDs.
            DecodeMode::Plain => Some(Term::int_lit(*i)),
            DecodeMode::Term => match dict.resolve(*i) {
                Some(enc) => decode_term(&enc).or_else(move || Some(Term::lit(enc))),
                None => Some(Term::int_lit(*i)),
            },
        },
        Value::Double(d) => Some(Term::double_lit(*d)),
        Value::Bool(b) => Some(Term::lit(b.to_string())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relstore::OutCol;

    #[test]
    fn decodes_terms_and_nulls() {
        let rel = Rel {
            cols: vec![
                OutCol { qualifier: None, name: "c_x".into() },
                OutCol { qualifier: None, name: "c_y".into() },
            ],
            rows: vec![vec![Value::str("<http://a>"), Value::Null]],
        };
        let s = Solutions::from_select_modes(
            vec!["x".into(), "y".into()],
            &[DecodeMode::Term; 2],
            &rel,
            &Dict::new(),
        );
        assert_eq!(s.len(), 1);
        assert_eq!(s.get(0, "x"), Some(&Term::iri("http://a")));
        assert_eq!(s.get(0, "y"), None);
    }

    #[test]
    fn extra_hidden_columns_ignored() {
        let rel = Rel {
            cols: vec![
                OutCol { qualifier: None, name: "c_x".into() },
                OutCol { qualifier: None, name: "hidden".into() },
            ],
            rows: vec![vec![Value::str("\"v\""), Value::str("junk")]],
        };
        let s =
            Solutions::from_select_modes(vec!["x".into()], &[DecodeMode::Term], &rel, &Dict::new());
        assert_eq!(s.rows[0].len(), 1);
        assert_eq!(s.get(0, "x"), Some(&Term::lit("v")));
    }

    #[test]
    fn integer_ids_materialize_through_dictionary() {
        let mut dict = Dict::new();
        let id = dict.intern("<http://a>");
        let rel = Rel {
            cols: vec![
                OutCol { qualifier: None, name: "c_x".into() },
                OutCol { qualifier: None, name: "c_y".into() },
            ],
            rows: vec![vec![Value::Int(id), Value::Int(999)]],
        };
        let s = Solutions::from_select_modes(
            vec!["x".into(), "y".into()],
            &[DecodeMode::Term; 2],
            &rel,
            &dict,
        );
        assert_eq!(s.get(0, "x"), Some(&Term::iri("http://a")));
        // Unresolvable integers fall back to plain integer literals.
        assert_eq!(s.get(0, "y"), Some(&Term::int_lit(999)));
    }

    #[test]
    fn plain_mode_never_resolves_through_dictionary() {
        let mut dict = Dict::new();
        let id = dict.intern("<http://a>");
        let rel = Rel {
            cols: vec![
                OutCol { qualifier: None, name: "c_x".into() },
                OutCol { qualifier: None, name: "c_n".into() },
            ],
            rows: vec![vec![Value::Int(id), Value::Int(id)]],
        };
        let s = Solutions::from_select_modes(
            vec!["x".into(), "n".into()],
            &[DecodeMode::Term, DecodeMode::Plain],
            &rel,
            &dict,
        );
        assert_eq!(s.get(0, "x"), Some(&Term::iri("http://a")));
        // Same Int, but a COUNT-style column stays a plain integer.
        assert_eq!(s.get(0, "n"), Some(&Term::int_lit(id)));
    }

    #[test]
    fn ask_solutions() {
        let s = Solutions::from_ask(true);
        assert_eq!(s.boolean, Some(true));
        assert!(s.is_empty());
        assert!(s.to_table().contains("true"));
    }
}
