//! Property test: for random small graphs and random (well-designed)
//! queries, the entity-oriented, triple-store and vertical layouts — each
//! with its own SPARQL→SQL translation over the relational engine — all
//! produce exactly the multiset of solutions computed by the independent
//! naive in-memory evaluator.
//!
//! Written as deterministic seeded-loop property tests (a fixed-seed
//! SplitMix64 drives the generators) so the suite needs no external
//! dependency and every run exercises exactly the same cases.

use datagen::rng::SplitMix64;
use db2rdf::{naive, Layout, RdfStore, StoreConfig};
use rdf::{Term, Triple};
use sparql::parse_sparql;

const PREDICATES: usize = 6;
const SUBJECTS: usize = 9;

fn arb_triple(rng: &mut SplitMix64) -> Triple {
    let s = rng.gen_range(0..SUBJECTS);
    let p = rng.gen_range(0..PREDICATES);
    let o = match rng.gen_range(0..3u32) {
        0 => Term::iri(format!("e:s{}", rng.gen_range(0..SUBJECTS))),
        1 => Term::int_lit(rng.gen_range(0..5i64)),
        _ => Term::lit(format!("lit{}", rng.gen_range(0..4u8))),
    };
    Triple::new(Term::iri(format!("e:s{s}")), Term::iri(format!("e:p{p}")), o)
}

fn arb_graph(rng: &mut SplitMix64) -> Vec<Triple> {
    let n = rng.gen_range(1..40usize);
    let mut ts: Vec<Triple> = (0..n).map(|_| arb_triple(rng)).collect();
    ts.sort();
    ts.dedup();
    ts
}

/// A random query from a pool of well-designed shapes over the same
/// vocabulary: stars, chains, unions, optionals, filters, var predicates.
fn arb_query(rng: &mut SplitMix64) -> String {
    let pred = |i: usize| format!("<e:p{i}>");
    let p1 = rng.gen_range(0..PREDICATES);
    let p2 = rng.gen_range(0..PREDICATES);
    let p3 = rng.gen_range(0..PREDICATES);
    let s = rng.gen_range(0..SUBJECTS);
    match rng.gen_range(0..8u8) {
        0 => format!("SELECT ?x ?y WHERE {{ ?x {} ?y }}", pred(p1)),
        1 => format!(
            "SELECT ?x ?a ?b WHERE {{ ?x {} ?a . ?x {} ?b }}",
            pred(p1),
            pred(p2)
        ),
        2 => format!(
            "SELECT ?x ?y ?z WHERE {{ ?x {} ?y . ?y {} ?z }}",
            pred(p1),
            pred(p2)
        ),
        3 => format!(
            "SELECT ?x ?y WHERE {{ {{ ?x {} ?y }} UNION {{ ?x {} ?y }} }}",
            pred(p1),
            pred(p2)
        ),
        4 => format!(
            "SELECT ?x ?a ?b WHERE {{ ?x {} ?a . OPTIONAL {{ ?x {} ?b }} }}",
            pred(p1),
            pred(p2)
        ),
        5 => format!("SELECT ?x ?v WHERE {{ ?x {} ?v . FILTER(?v > 1) }}", pred(p1)),
        6 => format!("SELECT ?p ?o WHERE {{ <e:s{s}> ?p ?o }}"),
        _ => format!(
            "SELECT ?x ?a ?c WHERE {{ ?x {} ?a . ?x {} <e:s{s}> . \
             OPTIONAL {{ ?x {} ?c }} }}",
            pred(p1),
            pred(p2),
            pred(p3)
        ),
    }
}

fn canon(s: &db2rdf::Solutions) -> Vec<Vec<String>> {
    let mut rows: Vec<Vec<String>> = s
        .rows
        .iter()
        .map(|r| r.iter().map(|t| t.as_ref().map(|t| t.encode()).unwrap_or_default()).collect())
        .collect();
    rows.sort();
    rows
}

#[test]
fn all_layouts_match_reference() {
    let mut rng = SplitMix64::seed_from_u64(0xDB2);
    for case in 0..64 {
        let graph = arb_graph(&mut rng);
        let query_text = arb_query(&mut rng);
        let query = parse_sparql(&query_text).unwrap();
        let expected = naive::evaluate(&graph, &query);
        let expected_rows = canon(&expected);
        for layout in [Layout::Entity, Layout::TripleStore, Layout::Vertical] {
            let mut store = RdfStore::new(StoreConfig::with_layout(layout));
            store.load(&graph).unwrap();
            let got = store.query(&query_text).unwrap_or_else(|e| {
                panic!("case {case}: {layout:?} failed on {query_text}: {e}")
            });
            assert_eq!(
                canon(&got),
                expected_rows,
                "case {case}: layout {layout:?} disagrees with reference on {query_text} \
                 over {} triples",
                graph.len()
            );
        }
    }
}

#[test]
fn entity_layout_with_tiny_columns_still_correct() {
    let mut rng = SplitMix64::seed_from_u64(0x7146);
    for case in 0..48 {
        let graph = arb_graph(&mut rng);
        // Force spills: only 2 columns, 1 hash function.
        let mut cfg = StoreConfig::with_layout(Layout::Entity);
        cfg.entity.max_cols = 2;
        cfg.entity.hash_fns = 1;
        cfg.entity.coloring = db2rdf::ColoringMode::HashOnly;
        let mut store = RdfStore::new(cfg);
        store.load(&graph).unwrap();
        let query_text = "SELECT ?x ?a ?b WHERE { ?x <e:p0> ?a . ?x <e:p1> ?b }";
        let query = parse_sparql(query_text).unwrap();
        let expected = naive::evaluate(&graph, &query);
        let got = store.query(query_text).unwrap();
        assert_eq!(canon(&got), canon(&expected), "case {case}");
    }
}

/// A graph is a set: `load()` of an input with an exact duplicate stores
/// and reports the same triples on every layout, and agrees with a store
/// built one `insert()` at a time.
#[test]
fn duplicated_input_loads_as_a_set_on_every_layout() {
    let iri = |s: &str| Term::iri(s);
    let input = vec![
        Triple::new(iri("a"), iri("p"), iri("b")),
        Triple::new(iri("a"), iri("p"), iri("b")),
        Triple::new(iri("a"), iri("p"), iri("c")),
    ];
    let query_text = "SELECT ?o WHERE { <a> <p> ?o }";
    let mut answers = Vec::new();
    for layout in [Layout::Entity, Layout::TripleStore, Layout::Vertical] {
        let mut loaded = RdfStore::new(StoreConfig::with_layout(layout));
        loaded.load(&input).unwrap();
        assert_eq!(loaded.load_report().triples, 2, "{layout:?}: report counts duplicates");

        let mut inserted = RdfStore::new(StoreConfig::with_layout(layout));
        for t in &input {
            inserted.insert(t).unwrap();
        }
        assert_eq!(inserted.load_report().triples, 2, "{layout:?}: insert is not set-semantic");

        let got = canon(&loaded.query(query_text).unwrap());
        assert_eq!(got.len(), 2, "{layout:?}: load() kept the duplicate");
        assert_eq!(got, canon(&inserted.query(query_text).unwrap()), "{layout:?}: load != inserts");
        answers.push(got);
    }
    assert!(answers.windows(2).all(|w| w[0] == w[1]), "layouts disagree: {answers:?}");
}
