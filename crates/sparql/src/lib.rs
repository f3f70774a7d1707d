//! SPARQL 1.0 front end for the DB2RDF reproduction.
//!
//! Parses the SPARQL subset used by the paper's workloads into the pattern
//! tree of §3.1 (AND/OR/OPTIONAL nodes with triple-pattern leaves, group-
//! scoped FILTERs). Triple patterns are tagged with stable ids (`t1`, `t2`,
//! ...) in parse order, matching the paper's notation.
//!
//! ```
//! use sparql::parse_sparql;
//!
//! let q = parse_sparql("SELECT ?x WHERE { ?x <http://home> 'Palo Alto' }").unwrap();
//! assert_eq!(q.projected_variables(), vec!["x"]);
//! ```

pub mod ast;
mod error;
pub mod fmt;
mod lexer;
mod parser;

pub use ast::{
    AggFunc, ArithOp, CompareOp, Expression, GroupPattern, OrderCondition, Pattern, Query,
    QueryForm, SelectItem, SelectVars, TermPattern, TriplePattern, Update, UpdateOp, ValuesBlock,
};
pub use error::SparqlError;
pub use fmt::{to_sparql, to_sparql_update};
pub use parser::{parse_sparql, parse_update};
