//! Property test for the executor's determinism contract: every query —
//! randomized over the fixture vocabulary plus handcrafted heavy shapes —
//! produces byte-identical `Solutions` and the same per-node row counts at
//! threads ∈ {1, 2, 4, 8} on all three layouts, and a row-budget abort
//! mid-query is equally deterministic (the budget trips iff total charged
//! rows exceed it, which is a sum and therefore independent of morsel
//! interleaving).

use db2rdf::{Layout, RdfStore, StoreConfig};
use rdf::{Term, Triple};
use relstore::NodeKind;

const SUBJECTS: usize = 5000; // > MORSEL_ROWS (4096) rows per table, even entity-layout

fn triple(s: &str, p: &str, o: &str) -> Triple {
    Triple::new(Term::iri(s), Term::iri(p), Term::iri(o))
}

/// ~15k triples: a `knows` ring with stride 7 (so 2-hop joins fan out), a
/// 13-way `member` partition, and one literal per subject. Big enough that
/// scans, hash-join builds and probes, and dedupe all span multiple morsels
/// in every layout.
fn dataset() -> Vec<Triple> {
    let mut out = Vec::with_capacity(3 * SUBJECTS);
    for i in 0..SUBJECTS {
        out.push(triple(
            &format!("http://s/{i}"),
            "http://p/knows",
            &format!("http://s/{}", (i * 7 + 1) % SUBJECTS),
        ));
        out.push(triple(&format!("http://s/{i}"), "http://p/member", &format!("http://d/{}", i % 13)));
        out.push(Triple::new(
            Term::iri(format!("http://s/{i}")),
            Term::iri("http://p/name"),
            Term::lit(format!("name {}", i % 100)),
        ));
    }
    out
}

fn loaded_store(layout: Layout) -> RdfStore {
    let mut store = RdfStore::new(StoreConfig::with_layout(layout));
    store.load(&dataset()).unwrap();
    store
}

/// Queries chosen to drive every parallel code path: multi-morsel scans,
/// hash joins whose build side spans more than one morsel (> 4096 build
/// rows), DISTINCT dedupe, OPTIONAL null-extension, UNION dedupe, and
/// ORDER BY + LIMIT.
const HEAVY: &[&str] = &[
    // 2-hop join: both factors are the full 5000-row knows table, so the
    // build side spans more than one morsel.
    "SELECT ?a ?c WHERE { ?a <http://p/knows> ?b . ?b <http://p/knows> ?c } LIMIT 400",
    // 3-hop with ORDER BY: join output order feeds a stable sort.
    "SELECT ?a ?d WHERE { ?a <http://p/knows> ?b . ?b <http://p/knows> ?c . \
     ?c <http://p/knows> ?d } ORDER BY ?a LIMIT 200",
    // DISTINCT over a many-duplicate projection (100 distinct names).
    "SELECT DISTINCT ?n WHERE { ?s <http://p/name> ?n }",
    // DISTINCT without ORDER BY: first-occurrence order must be invariant.
    "SELECT DISTINCT ?g WHERE { ?s <http://p/member> ?g }",
    // OPTIONAL: every subject matches, but the join is still a left-outer
    // plan over two multi-morsel scans.
    "SELECT ?s ?n WHERE { ?s <http://p/member> <http://d/3> \
     OPTIONAL { ?s <http://p/name> ?n } } ORDER BY ?s",
    // UNION with dedupe across branches.
    "SELECT ?s WHERE { { ?s <http://p/member> <http://d/1> } UNION \
     { ?s <http://p/member> <http://d/2> } }",
    // Join + FILTER residual.
    "SELECT ?a ?b WHERE { ?a <http://p/knows> ?b . ?b <http://p/member> <http://d/5> \
     FILTER (?a != ?b) } ORDER BY ?b LIMIT 300",
    // ASK through the full pipeline.
    "ASK { ?a <http://p/knows> ?b . ?b <http://p/knows> ?a }",
];

/// SplitMix64 — the workspace's offline stand-in for a property-testing
/// crate's generator.
struct Rng(u64);
impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Random 1–3-pattern SELECT/ASK over the fixture vocabulary. Every
/// pattern shares a variable with the one before it (chain through the
/// object, or star on the same subject after a constant object), so joins
/// stay connected: with 5000 subjects an accidental cross product would
/// materialize 25M rows, which tests machine endurance rather than
/// determinism. The predicates are all functional per subject, so every
/// connected shape is bounded by the 5000-row scans it starts from.
fn random_query(rng: &mut Rng) -> String {
    let preds = ["http://p/knows", "http://p/member", "http://p/name"];
    let n = 1 + rng.below(3);
    let mut patterns = Vec::new();
    // Pivot variable the next pattern must reuse as its subject.
    let mut pivot = "?v0".to_string();
    for t in 0..n {
        let p = preds[rng.below(preds.len() as u64) as usize];
        // A constant object keeps the pivot (star shape); a variable object
        // becomes the new pivot (chain shape).
        let obj_const = t + 1 < n && rng.below(4) == 0;
        let subj = if t == 0 && !obj_const && rng.below(6) == 0 {
            format!("<http://s/{}>", rng.below(SUBJECTS as u64 + 10))
        } else {
            pivot.clone()
        };
        let obj = if obj_const {
            match p {
                "http://p/member" => format!("<http://d/{}>", rng.below(15)),
                _ => format!("<http://s/{}>", rng.below(SUBJECTS as u64 + 10)),
            }
        } else {
            let v = format!("?o{t}");
            pivot = v.clone();
            v
        };
        patterns.push(format!("{subj} <{p}> {obj}"));
    }
    let body = patterns.join(" . ");
    match rng.below(4) {
        0 => format!("ASK {{ {body} }}"),
        1 => format!("SELECT DISTINCT * WHERE {{ {body} }} LIMIT 500"),
        2 => format!("SELECT * WHERE {{ {body} }} LIMIT {}", 1 + rng.below(400)),
        _ => format!("SELECT * WHERE {{ {body} }} LIMIT 1000"),
    }
}

/// Each node's `(kind, rows_in, gathered, rows_out)` on one run of the SQL
/// the store serves for `q`.
fn node_counts(store: &RdfStore, q: &str) -> Vec<(NodeKind, usize, usize, usize)> {
    let sql = store.translate(q).unwrap_or_else(|e| panic!("translate {q}: {e}"));
    let db = store.database();
    let (_, profile) = db.prepare(&sql).unwrap().run_profiled(db).unwrap();
    profile.nodes.iter().map(|n| (n.kind, n.rows_in, n.gathered, n.rows_out)).collect()
}

/// Every query's solutions, and each plan node's counts on its SQL, are
/// the same at every width; so is the number of nodes, since node order
/// depends only on the plan.
#[test]
fn solutions_are_byte_identical_at_every_thread_count() {
    for layout in [Layout::Entity, Layout::TripleStore, Layout::Vertical] {
        // One store per layout, re-queried at each width: DPH column
        // assignment is deterministic within a store, so only the executor's
        // thread count varies between passes.
        let mut store = loaded_store(layout);
        let mut rng = Rng(0xDE7E_2212 ^ layout as u64);
        let mut corpus: Vec<String> = HEAVY.iter().map(|q| q.to_string()).collect();
        corpus.extend((0..40).map(|_| random_query(&mut rng)));

        store.set_threads(Some(1));
        let baseline: Vec<_> = corpus
            .iter()
            .map(|q| store.query(q).unwrap_or_else(|e| panic!("{layout:?} baseline {q}: {e}")))
            .collect();
        let baseline_nodes: Vec<_> = corpus.iter().map(|q| node_counts(&store, q)).collect();

        for threads in [2usize, 4, 8] {
            store.set_threads(Some(threads));
            for ((q, expected), nodes) in corpus.iter().zip(&baseline).zip(&baseline_nodes) {
                let got = store
                    .query(q)
                    .unwrap_or_else(|e| panic!("{layout:?} threads={threads} {q}: {e}"));
                assert_eq!(&got, expected, "{layout:?} threads={threads}: rows drifted for {q}");
                assert_eq!(
                    got.to_json(),
                    expected.to_json(),
                    "{layout:?} threads={threads}: serialized bytes drifted for {q}"
                );
                let got = node_counts(&store, q);
                assert_eq!(got.len(), nodes.len(), "{layout:?} threads={threads}: nodes of {q}");
                assert_eq!(&got, nodes, "{layout:?} threads={threads}: node counts of {q}");
            }
        }
    }
}

/// A row-budget abort mid-query must be just as deterministic as success:
/// whether the budget trips depends only on the total rows charged (a sum,
/// invariant under morsel interleaving), so every thread count agrees on
/// Ok-vs-Err — and on the value when Ok.
#[test]
fn row_budget_abort_is_thread_count_invariant() {
    for layout in [Layout::Entity, Layout::TripleStore, Layout::Vertical] {
        let mut store = loaded_store(layout);
        // Tight enough that the 2-hop join and full scans trip mid-query,
        // loose enough that small selective queries still succeed.
        store.set_row_budget(Some(6000));
        let queries = [
            "SELECT ?a ?c WHERE { ?a <http://p/knows> ?b . ?b <http://p/knows> ?c }",
            "SELECT DISTINCT ?n WHERE { ?s <http://p/name> ?n }",
            "SELECT ?o WHERE { <http://s/17> <http://p/knows> ?o }",
            "ASK { ?s <http://p/member> <http://d/99> }",
        ];

        store.set_threads(Some(1));
        let baseline: Vec<_> = queries.iter().map(|q| store.query(q)).collect();
        assert!(
            baseline.iter().any(|r| r.is_err()),
            "{layout:?}: fixture sanity — some query must trip the budget"
        );
        assert!(
            baseline.iter().any(|r| r.is_ok()),
            "{layout:?}: fixture sanity — some query must fit the budget"
        );

        for threads in [2usize, 4, 8] {
            store.set_threads(Some(threads));
            for (q, expected) in queries.iter().zip(&baseline) {
                let got = store.query(q);
                match (&got, expected) {
                    (Ok(g), Ok(e)) => {
                        assert_eq!(g, e, "{layout:?} threads={threads}: {q}")
                    }
                    (Err(g), Err(e)) => {
                        assert_eq!(g.is_timeout(), e.is_timeout(), "{layout:?} threads={threads}: {q}");
                        assert!(g.is_timeout(), "{layout:?} threads={threads}: wrong error for {q}: {g}");
                    }
                    _ => panic!(
                        "{layout:?} threads={threads}: Ok/Err flipped for {q}: \
                         got {got:?} vs baseline {expected:?}"
                    ),
                }
            }
        }
    }
}
