//! The SQL dialect `relstore` parses is the SQL this store emits, and no
//! more. Every query of the five benchmark workloads (on tiny instances),
//! every `tests/corpus/*.case` query and a fixed batch of fuzzer cases is
//! translated on all three layouts, parsed back, and every syntax shape of
//! the AST — each enum variant, literal kind and optional clause — is
//! counted. A shape no input reaches fails the test, unless it is in
//! [`KEPT`] with its reason: delete an unreached production together with
//! its variant, its compile and eval arms and its tests, or keep it here.
//!
//! The walk matches every enum exhaustively, with no `_` arm, so adding a
//! variant does not compile until it is counted here too; `hit` refuses a
//! shape missing from [`SHAPES`], so a counted shape is also checked.

use std::collections::BTreeMap;
use std::path::PathBuf;

use datagen::{dbpedia, lubm, micro, prbench, queryfuzz, sp2b, BenchQuery};
use db2rdf::{oracle, RdfStore, StoreConfig};
use rdf::Triple;
use relstore::sql::ast::*;
use relstore::sql::parser::parse_statement;
use relstore::Value;

/// Shapes no emitted SQL reaches that stay in the dialect, each with why.
const KEPT: &[(&str, &str)] = &[];

/// Every shape the walk counts.
const SHAPES: &[&str] = &[
    "Query::with",
    "Query::order_by",
    "Query::limit",
    "Query::offset",
    "OrderItem::asc",
    "OrderItem::desc",
    "QueryBody::Select",
    "QueryBody::UnionAll",
    "Select::distinct",
    "Select::from",
    "Select::no_from",
    "Select::comma_join",
    "Select::where",
    "Select::group_by",
    "Select::having",
    "SelectItem::Wildcard",
    "SelectItem::Expr",
    "SelectItem::alias",
    "Join",
    "Relation::Named",
    "Relation::Unnest",
    "Relation::alias",
    "Expr::Column",
    "Expr::Column::qualified",
    "Expr::Literal",
    "Value::Null",
    "Value::Bool",
    "Value::Int",
    "Value::Double",
    "Value::Str",
    "Expr::Binary",
    "BinaryOp::Eq",
    "BinaryOp::NotEq",
    "BinaryOp::Lt",
    "BinaryOp::LtEq",
    "BinaryOp::Gt",
    "BinaryOp::GtEq",
    "BinaryOp::And",
    "BinaryOp::Or",
    "BinaryOp::Add",
    "BinaryOp::Sub",
    "BinaryOp::Mul",
    "BinaryOp::Div",
    "Expr::Not",
    "Expr::IsNull",
    "Expr::IsNotNull",
    "Expr::Case",
    "Expr::Func",
    "Expr::Func::star",
    "Expr::Func::distinct",
    "Expr::Func::coalesce",
];

#[derive(Default)]
struct Counts(BTreeMap<&'static str, usize>);

impl Counts {
    fn hit(&mut self, shape: &'static str) {
        assert!(SHAPES.contains(&shape), "shape {shape:?} is counted but not listed in SHAPES");
        *self.0.entry(shape).or_default() += 1;
    }

    fn hit_if(&mut self, cond: bool, shape: &'static str) {
        if cond {
            self.hit(shape);
        }
    }

    fn query(&mut self, q: &Query) {
        self.hit_if(!q.ctes.is_empty(), "Query::with");
        for (_, cte) in &q.ctes {
            self.query(cte);
        }
        self.body(&q.body);
        self.hit_if(!q.order_by.is_empty(), "Query::order_by");
        for item in &q.order_by {
            self.hit(if item.asc { "OrderItem::asc" } else { "OrderItem::desc" });
            self.expr(&item.expr);
        }
        self.hit_if(q.limit.is_some(), "Query::limit");
        self.hit_if(q.offset.is_some(), "Query::offset");
    }

    fn body(&mut self, b: &QueryBody) {
        match b {
            QueryBody::Select(sel) => {
                self.hit("QueryBody::Select");
                self.select(sel);
            }
            QueryBody::UnionAll { left, right } => {
                self.hit("QueryBody::UnionAll");
                self.body(left);
                self.body(right);
            }
        }
    }

    fn select(&mut self, s: &Select) {
        self.hit_if(s.distinct, "Select::distinct");
        for item in &s.projection {
            match item {
                SelectItem::Wildcard => self.hit("SelectItem::Wildcard"),
                SelectItem::Expr { expr, alias } => {
                    self.hit("SelectItem::Expr");
                    self.hit_if(alias.is_some(), "SelectItem::alias");
                    self.expr(expr);
                }
            }
        }
        self.hit(if s.from.is_empty() { "Select::no_from" } else { "Select::from" });
        self.hit_if(s.from.len() > 1, "Select::comma_join");
        for factor in &s.from {
            self.relation(&factor.relation, &factor.alias);
            for join in &factor.joins {
                self.hit("Join");
                self.relation(&join.relation, &join.alias);
                self.expr(&join.on);
            }
        }
        if let Some(w) = &s.where_clause {
            self.hit("Select::where");
            self.expr(w);
        }
        self.hit_if(!s.group_by.is_empty(), "Select::group_by");
        s.group_by.iter().for_each(|e| self.expr(e));
        if let Some(h) = &s.having {
            self.hit("Select::having");
            self.expr(h);
        }
    }

    fn relation(&mut self, r: &Relation, alias: &Option<String>) {
        self.hit_if(alias.is_some(), "Relation::alias");
        match r {
            Relation::Named(_) => self.hit("Relation::Named"),
            Relation::Unnest { tuples, .. } => {
                self.hit("Relation::Unnest");
                tuples.iter().flatten().for_each(|e| self.expr(e));
            }
        }
    }

    fn expr(&mut self, e: &Expr) {
        match e {
            Expr::Column { qualifier, .. } => {
                self.hit("Expr::Column");
                self.hit_if(qualifier.is_some(), "Expr::Column::qualified");
            }
            Expr::Literal(v) => {
                self.hit("Expr::Literal");
                self.hit(match v {
                    Value::Null => "Value::Null",
                    Value::Bool(_) => "Value::Bool",
                    Value::Int(_) => "Value::Int",
                    Value::Double(_) => "Value::Double",
                    Value::Str(_) => "Value::Str",
                });
            }
            Expr::Binary { op, left, right } => {
                self.hit("Expr::Binary");
                self.hit(match op {
                    BinaryOp::Eq => "BinaryOp::Eq",
                    BinaryOp::NotEq => "BinaryOp::NotEq",
                    BinaryOp::Lt => "BinaryOp::Lt",
                    BinaryOp::LtEq => "BinaryOp::LtEq",
                    BinaryOp::Gt => "BinaryOp::Gt",
                    BinaryOp::GtEq => "BinaryOp::GtEq",
                    BinaryOp::And => "BinaryOp::And",
                    BinaryOp::Or => "BinaryOp::Or",
                    BinaryOp::Add => "BinaryOp::Add",
                    BinaryOp::Sub => "BinaryOp::Sub",
                    BinaryOp::Mul => "BinaryOp::Mul",
                    BinaryOp::Div => "BinaryOp::Div",
                });
                self.expr(left);
                self.expr(right);
            }
            Expr::Not(expr) => {
                self.hit("Expr::Not");
                self.expr(expr);
            }
            Expr::IsNull { expr, negated } => {
                self.hit(if *negated { "Expr::IsNotNull" } else { "Expr::IsNull" });
                self.expr(expr);
            }
            Expr::Case { branches, else_expr } => {
                self.hit("Expr::Case");
                for (c, v) in branches {
                    self.expr(c);
                    self.expr(v);
                }
                self.expr(else_expr);
            }
            Expr::Func { name, args, star, distinct } => {
                self.hit("Expr::Func");
                self.hit_if(*star, "Expr::Func::star");
                self.hit_if(*distinct, "Expr::Func::distinct");
                // The one built-in; the rest are aggregates and the store's
                // own `RDF_*` functions.
                self.hit_if(name == "coalesce", "Expr::Func::coalesce");
                args.iter().for_each(|e| self.expr(e));
            }
        }
    }
}

/// Translate `queries` on every layout over `triples` and count the parsed
/// SQL. A query whose answer needs no SQL (no triple patterns) is skipped;
/// any other translate or parse failure fails the test.
fn count_workload(counts: &mut Counts, triples: &[Triple], queries: &[String]) -> usize {
    let mut texts = 0;
    for layout in oracle::LAYOUTS {
        let mut store = RdfStore::new(StoreConfig::with_layout(layout));
        store.load(triples).unwrap_or_else(|e| panic!("load on {layout:?}: {e}"));
        for q in queries {
            let sql = match store.translate(q) {
                Ok(sql) => sql,
                Err(e) if e.to_string().contains("no SQL is generated") => continue,
                Err(e) => panic!("translate on {layout:?} failed: {e}\n{q}"),
            };
            let query = parse_statement(&sql)
                .unwrap_or_else(|e| panic!("emitted SQL does not parse: {e}\n{sql}"));
            counts.query(&query);
            texts += 1;
        }
    }
    texts
}

fn sparql(queries: Vec<BenchQuery>) -> Vec<String> {
    queries.into_iter().map(|q| q.sparql).collect()
}

/// Fuzzer seeds translated on every layout.
const FUZZ_SEEDS: std::ops::Range<u64> = 0..300;

#[test]
fn every_parsed_shape_is_emitted_or_kept_with_a_reason() {
    let mut counts = Counts::default();
    let mut texts = 0;

    let mut micro_queries = micro::queries();
    micro_queries.push(micro::fig14_query());
    let workloads: [(Vec<Triple>, Vec<BenchQuery>); 5] = [
        (micro::generate(60, 11), micro_queries),
        (lubm::generate(1, 11), lubm::queries()),
        (sp2b::generate(60, 11), sp2b::queries()),
        (dbpedia::generate(120, 40, 11), dbpedia::queries()),
        (prbench::generate(60, 11), prbench::queries()),
    ];
    for (triples, queries) in workloads {
        texts += count_workload(&mut counts, &triples, &sparql(queries));
    }

    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let mut cases: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "case"))
        .collect();
    cases.sort();
    for path in &cases {
        let (triples, query) = oracle::read_case(path).unwrap();
        texts += count_workload(&mut counts, &triples, &[query]);
    }

    for seed in FUZZ_SEEDS {
        let case = queryfuzz::gen_case(seed);
        texts += count_workload(&mut counts, &case.triples, &[case.query]);
    }

    let count = |s: &str| counts.0.get(s).copied().unwrap_or(0);
    let report: Vec<String> = SHAPES.iter().map(|s| format!("{s:32} {}", count(s))).collect();
    println!("{texts} SQL texts\n{}", report.join("\n"));

    let kept = |s: &str| KEPT.iter().any(|(k, _)| *k == s);
    let unreached: Vec<&str> =
        SHAPES.iter().copied().filter(|s| !counts.0.contains_key(s) && !kept(s)).collect();
    assert!(
        unreached.is_empty(),
        "no emitted SQL reaches {unreached:?}: delete each production, or keep it in KEPT \
         with a reason"
    );
    let stale: Vec<&str> =
        KEPT.iter().map(|(k, _)| *k).filter(|k| counts.0.contains_key(k)).collect();
    assert!(stale.is_empty(), "{stale:?} are emitted now; drop them from KEPT");
}
