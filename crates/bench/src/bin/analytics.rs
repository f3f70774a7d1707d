//! Analytic-workload benchmark: SPARQL 1.1 aggregates, BIND/VALUES and
//! subqueries over the SP²Bench-shaped dataset (DESIGN.md §4.13).
//!
//! Eight AQ queries exercise the analytic surface the translator lowers
//! onto the CTE machinery: GROUP BY + COUNT/SUM/AVG/MIN/MAX, HAVING,
//! COUNT(DISTINCT), BIND with a deferred value-domain FILTER, inline
//! VALUES, and an aggregating subquery re-aggregated by the outer query.
//!
//! Before any timing, every query's answer on every layout is checked
//! against the naive reference evaluator — row-for-row when the query has
//! an ORDER BY, as an order-insensitive multiset otherwise. A benchmark
//! that reports fast wrong answers is worse than no benchmark; the run
//! aborts on the first disagreement.
//!
//! Writes `BENCH_analytics.json`. Knobs: `ANALYTICS_SMOKE=1` (CI profile:
//! small dataset, single timed run, JSON printed instead of written),
//! `ANALYTICS_DOCS` (document count).

use bench::{emit_report, scale_from_env, Grid, System};
use datagen::BenchQuery;
use db2rdf::{naive, oracle};
use sparql::parse_sparql;

const NS: &str = "http://sp2b.bench/";
const RDF_TYPE: &str = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type";

fn queries() -> Vec<BenchQuery> {
    vec![
        BenchQuery::new(
            "AQ1",
            format!(
                "SELECT ?y (COUNT(?d) AS ?n) WHERE {{ ?d <{NS}issued> ?y }} \
                 GROUP BY ?y ORDER BY ?y"
            ),
        ),
        // The acceptance shape: GROUP BY + COUNT + HAVING + ORDER BY.
        BenchQuery::new(
            "AQ2",
            format!(
                "SELECT ?a (COUNT(?d) AS ?n) WHERE {{ ?d <{NS}creator> ?a }} \
                 GROUP BY ?a HAVING(COUNT(?d) > 10) ORDER BY ?a"
            ),
        ),
        BenchQuery::new(
            "AQ3",
            format!(
                "SELECT (AVG(?v) AS ?avg) (MIN(?v) AS ?mn) (MAX(?v) AS ?mx) \
                 (SUM(?v) AS ?total) WHERE {{ ?d <{NS}volume> ?v }}"
            ),
        ),
        BenchQuery::new(
            "AQ4",
            format!(
                "SELECT ?t (COUNT(DISTINCT ?a) AS ?n) WHERE {{ \
                 ?d <{RDF_TYPE}> ?t . ?d <{NS}creator> ?a }} \
                 GROUP BY ?t ORDER BY ?t"
            ),
        ),
        BenchQuery::new(
            "AQ5",
            format!(
                "SELECT (COUNT(*) AS ?n) (SUM(?age) AS ?total) WHERE {{ \
                 ?d <{NS}issued> ?y . BIND(2026 - ?y AS ?age) FILTER(?age > 50) }}"
            ),
        ),
        BenchQuery::new(
            "AQ6",
            format!(
                "SELECT ?y (COUNT(?d) AS ?n) WHERE {{ \
                 VALUES ?y {{ 1955 1965 1975 }} ?d <{NS}issued> ?y }} \
                 GROUP BY ?y ORDER BY ?y"
            ),
        ),
        BenchQuery::new(
            "AQ7",
            format!(
                "SELECT (MAX(?n) AS ?busiest) WHERE {{ \
                 {{ SELECT ?a (COUNT(?d) AS ?n) WHERE {{ ?d <{NS}creator> ?a }} \
                 GROUP BY ?a }} }}"
            ),
        ),
        BenchQuery::new(
            "AQ8",
            format!(
                "SELECT ?d (COUNT(?c) AS ?n) WHERE {{ ?d <{NS}cites> ?c }} \
                 GROUP BY ?d HAVING(COUNT(?c) >= 3)"
            ),
        ),
    ]
}

/// Assert one store agrees with the naive reference on one query. Ordered
/// queries compare rows in order (all AQ ORDER BY keys are unique group
/// keys, so the order is total); unordered ones compare sorted multisets.
fn assert_agreement(
    system: &System,
    store: &db2rdf::RdfStore,
    q: &BenchQuery,
    triples: &[rdf::Triple],
) -> usize {
    let parsed = parse_sparql(&q.sparql).unwrap_or_else(|e| panic!("{}: parse: {e}", q.name));
    let reference = naive::evaluate(triples, &parsed);
    let got = store
        .query(&q.sparql)
        .unwrap_or_else(|e| panic!("{} on {}: {e}", q.name, system.name()));
    let ordered = !parsed.order_by.is_empty();
    let (want_rows, got_rows) = if ordered {
        (encode_rows(&reference), encode_rows(&got))
    } else {
        (oracle::canon(&reference), oracle::canon(&got))
    };
    assert_eq!(
        got_rows,
        want_rows,
        "{} on {} diverges from the naive reference ({} vs {} rows, ordered={ordered})",
        q.name,
        system.name(),
        got_rows.len(),
        want_rows.len()
    );
    reference.len()
}

fn encode_rows(sols: &db2rdf::Solutions) -> Vec<Vec<String>> {
    sols.rows
        .iter()
        .map(|row| {
            row.iter().map(|t| t.as_ref().map(|t| t.encode()).unwrap_or_default()).collect()
        })
        .collect()
}

fn main() {
    let smoke = std::env::var("ANALYTICS_SMOKE").map(|v| v == "1").unwrap_or(false);
    let docs = scale_from_env("ANALYTICS_DOCS", if smoke { 400 } else { 10_000 });
    let triples = datagen::sp2b::generate(docs, 42);
    println!("== Analytic workload (SPARQL 1.1 aggregates / BIND / VALUES / subqueries) ==");
    println!(
        "{docs} documents, {} triples{}\n",
        triples.len(),
        if smoke { "; SMOKE mode" } else { "" }
    );

    let stores = [System::Db2Rdf, System::TripleStore, System::Vertical].map(|s| {
        let t0 = std::time::Instant::now();
        let store = s.build(&triples, None);
        eprintln!("loaded {} in {:?}", s.name(), t0.elapsed());
        (s, store)
    });

    // Correctness gate first: every layout × every query vs the reference.
    let queries = queries();
    let mut reference_rows = Vec::with_capacity(queries.len());
    for q in &queries {
        let mut rows = 0;
        for (sys, store) in &stores {
            rows = assert_agreement(sys, store, q, &triples);
        }
        reference_rows.push(rows);
    }
    println!("verified: all {} queries agree with the naive reference on all 3 layouts\n", queries.len());

    let grid = Grid::time(&stores, &queries);
    grid.print(None);

    let query_json: Vec<String> = queries
        .iter()
        .enumerate()
        .map(|(qi, q)| {
            let times: Vec<String> = grid
                .systems
                .iter()
                .map(|&sys| {
                    let ms = grid
                        .outcome(sys, &q.name)
                        .time_secs()
                        .map_or("null".to_string(), |s| format!("{:.3}", s * 1e3));
                    format!("\"{}\": {ms}", sys.name())
                })
                .collect();
            format!(
                "{{\"name\": \"{}\", \"results\": {}, \"ms\": {{{}}}}}",
                q.name,
                reference_rows[qi],
                times.join(", ")
            )
        })
        .collect();
    let json = format!(
        "{{\"smoke\": {smoke}, \"documents\": {docs}, \"triples\": {}, \
         \"verified_against_naive\": true, \"runs\": {}, \"queries\": [{}]}}\n",
        triples.len(),
        bench::RUNS,
        query_json.join(", ")
    );
    emit_report("BENCH_analytics.json", &json, smoke);
}
