//! The epoch-invalidated plan cache, end to end: hit/miss/invalidation
//! counters through the public store API, correctness across mutations
//! (a cached plan must never replay against a store whose dictionary or
//! statistics have moved), cold-vs-warm SQL equivalence as a property
//! test over generated queries, a writer racing cached readers through
//! `SharedStore`, and the zero-triple-pattern trivial plans.

use db2rdf::{Layout, RdfStore, SharedStore, StoreConfig};
use rdf::{Term, Triple};

fn triple(s: &str, p: &str, o: &str) -> Triple {
    Triple::new(Term::iri(s), Term::iri(p), Term::iri(o))
}

/// A small fixed dataset: 10 subjects × 3 predicates.
fn dataset() -> Vec<Triple> {
    let mut out = Vec::new();
    for i in 0..10 {
        out.push(triple(&format!("http://s/{i}"), "http://p/knows", &format!("http://s/{}", (i + 1) % 10)));
        out.push(triple(&format!("http://s/{i}"), "http://p/member", &format!("http://d/{}", i % 3)));
        out.push(Triple::new(
            Term::iri(format!("http://s/{i}")),
            Term::iri("http://p/name"),
            Term::lit(format!("name {i}")),
        ));
    }
    out
}

fn loaded_store(cfg: StoreConfig) -> RdfStore {
    let mut store = RdfStore::new(cfg);
    store.load(&dataset()).unwrap();
    store
}

const Q_KNOWS: &str = "SELECT ?s ?o WHERE { ?s <http://p/knows> ?o }";

#[test]
fn warm_queries_hit_the_cache() {
    let store = loaded_store(StoreConfig::default());
    assert_eq!(store.query(Q_KNOWS).unwrap().len(), 10);
    assert_eq!(store.query(Q_KNOWS).unwrap().len(), 10);
    assert_eq!(store.query(&format!("  {Q_KNOWS}\n")).unwrap().len(), 10, "normalized key");
    let s = store.plan_cache_stats().expect("cache enabled by default");
    assert_eq!(s.hits, 2, "{s:?}");
    assert_eq!(s.misses, 1, "{s:?}");
    assert_eq!(s.entries, 1, "{s:?}");
    assert_eq!(s.invalidations, 0, "{s:?}");
}

/// Scoped invalidation: the epoch — and with it every cached plan — moves
/// only when a mutation could change every plan. Loads and inserts that
/// move a layout bump it; duplicate inserts and deletes (dict is
/// append-only, layouts never shrink, generated SQL is data-independent)
/// must not.
#[test]
fn epoch_moves_only_when_plans_could_change() {
    let mut store = RdfStore::new(StoreConfig::default());
    let e0 = store.epoch();
    store.load(&dataset()).unwrap();
    let e1 = store.epoch();
    assert!(e1 > e0, "load always invalidates");

    // A second `knows` value for s/0 flips the predicate to multi-valued —
    // a layout move, which changes generated SQL for every plan.
    store.insert(&triple("http://s/0", "http://p/knows", "http://fresh/x")).unwrap();
    let e2 = store.epoch();
    assert!(e2 > e1, "a multi-valued flip invalidates");

    // Duplicate insert: nothing changes anywhere.
    assert!(!store.insert(&triple("http://s/0", "http://p/knows", "http://fresh/x")).unwrap());
    assert_eq!(store.epoch(), e2, "no-op insert must not invalidate");

    // Deletes never invalidate: no dictionary entry or layout column is
    // ever reclaimed, so every cached plan replays correctly.
    assert!(store.delete(&triple("http://s/0", "http://p/knows", "http://fresh/x")).unwrap());
    assert_eq!(store.epoch(), e2, "delete must not invalidate");
    assert!(!store.delete(&triple("http://no/such", "http://p/knows", "http://no/where")).unwrap());
    assert_eq!(store.epoch(), e2, "no-op delete must not invalidate");

    let s = store.plan_cache_stats().unwrap();
    assert_eq!(s.invalidations_avoided, 3, "{s:?}");
}

/// The acceptance-criterion scenario: an insert between two identical
/// queries must invalidate the cached plan. The query's constant is
/// unknown at first planning (it translates to NULL), so a stale replay
/// could never find the row the insert creates — only a fresh plan that
/// resolves the newly minted dictionary ID can.
#[test]
fn insert_between_identical_queries_invalidates() {
    let mut store = loaded_store(StoreConfig::default());
    let q = "SELECT ?s WHERE { ?s <http://p/knows> <http://fresh/target> }";
    assert_eq!(store.query(q).unwrap().len(), 0);
    assert_eq!(store.query(q).unwrap().len(), 0, "second run is a cache hit");
    let before = store.plan_cache_stats().unwrap();
    assert_eq!(before.hits, 1, "{before:?}");

    store.insert(&triple("http://s/3", "http://p/knows", "http://fresh/target")).unwrap();
    let sols = store.query(q).unwrap();
    assert_eq!(sols.len(), 1, "stale plan would still see NULL for the constant");
    assert_eq!(sols.get(0, "s"), Some(&Term::iri("http://s/3")));

    let after = store.plan_cache_stats().unwrap();
    assert_eq!(after.invalidations, before.invalidations + 1, "{after:?}");
    // And the refreshed plan is itself cached again.
    assert_eq!(store.query(q).unwrap().len(), 1);
    assert_eq!(store.plan_cache_stats().unwrap().hits, before.hits + 1);
}

/// The scoped-invalidation satellite's acceptance scenario: a mutation that
/// provably cannot change any plan — a delete, or a duplicate insert —
/// leaves the warm cache intact, and the surviving plan still answers
/// correctly because the generated SQL is data-independent.
#[test]
fn warm_hits_survive_deletes_and_noop_inserts() {
    let mut store = loaded_store(StoreConfig::default());
    let q = "SELECT ?o WHERE { <http://s/0> <http://p/knows> ?o }";
    assert_eq!(store.query(q).unwrap().len(), 1); // miss: plan + cache
    assert_eq!(store.query(q).unwrap().len(), 1); // warm hit
    let before = store.plan_cache_stats().unwrap();
    assert_eq!((before.hits, before.invalidations), (1, 0), "{before:?}");

    // A duplicate insert and a real delete: neither may flush the cache.
    assert!(!store.insert(&triple("http://s/0", "http://p/knows", "http://s/1")).unwrap());
    assert!(store.delete(&triple("http://s/0", "http://p/knows", "http://s/1")).unwrap());

    // The surviving plan replays against the mutated data — correctly.
    assert_eq!(store.query(q).unwrap().len(), 0, "delete is visible through the cached plan");

    let after = store.plan_cache_stats().unwrap();
    assert_eq!(after.hits, before.hits + 1, "warm hit survived the mutations: {after:?}");
    assert_eq!(after.invalidations, 0, "{after:?}");
    assert_eq!(after.invalidations_avoided, 2, "{after:?}");
    assert_eq!(after.entries, before.entries, "{after:?}");
}

/// Writes stop flushing the cache: an `INSERT DATA` that interns new terms
/// into settled layouts leaves a warm plan naming only known constants a
/// hit, with the invalidation count unchanged. Only the warm plan that
/// folded the newly interned term as unknown misses — and, re-planned,
/// returns the new row.
#[test]
fn new_terms_invalidate_only_plans_that_named_them_unknown() {
    let shared = SharedStore::new(loaded_store(StoreConfig::default()));
    let known = "SELECT ?o WHERE { <http://s/0> <http://p/knows> ?o }";
    let unknown = "SELECT ?s WHERE { ?s <http://p/knows> <http://new/b> }";
    for q in [known, unknown, known, unknown] {
        shared.query(q).unwrap();
    }
    let epoch = shared.epoch();
    let before = shared.plan_cache_stats().unwrap();
    assert_eq!((before.hits, before.invalidations), (2, 0), "{before:?}");

    // A new subject and a new object: fresh DPH and RPH rows, no layout
    // moves, two new dictionary entries.
    shared.update("INSERT DATA { <http://new/a> <http://p/knows> <http://new/b> }").unwrap();
    assert_eq!(shared.epoch(), epoch, "a layout-neutral insert must not move the epoch");

    assert_eq!(shared.query(known).unwrap().len(), 1);
    let after_known = shared.plan_cache_stats().unwrap();
    assert_eq!(after_known.hits, before.hits + 1, "{after_known:?}");
    assert_eq!(after_known.invalidations, before.invalidations, "{after_known:?}");

    let sols = shared.query(unknown).unwrap();
    assert_eq!(sols.len(), 1, "a stale plan would still fold <http://new/b> to NULL");
    assert_eq!(sols.get(0, "s"), Some(&Term::iri("http://new/a")));
    let after_unknown = shared.plan_cache_stats().unwrap();
    assert_eq!(after_unknown.invalidations, before.invalidations + 1, "{after_unknown:?}");
    assert_eq!(after_unknown.hits, after_known.hits, "{after_unknown:?}");
}

/// A warm plan carries its SQL compiled once, against the snapshot it was
/// planned on, and runs it on whichever snapshot serves the request: the
/// rows an `INSERT DATA` adds are in its next answer, served as a cache
/// hit. After `widen_dph_for_experiment` changes DPH's shape, the same
/// texts still answer exactly as before.
#[test]
fn warm_plans_answer_from_the_current_snapshot() {
    let shared = SharedStore::new(loaded_store(StoreConfig::default()));
    let star = "SELECT ?p ?o WHERE { <http://s/4> ?p ?o }";
    for q in [Q_KNOWS, star, Q_KNOWS, star] {
        shared.query(q).unwrap();
    }
    let before = shared.plan_cache_stats().unwrap();

    // Two new subjects with new objects: no layout moves, so the warm plans
    // survive the request and meet the rows it added.
    shared
        .update(
            "INSERT DATA { <http://new/a> <http://p/knows> <http://new/b> . \
             <http://new/c> <http://p/knows> <http://new/d> }",
        )
        .unwrap();
    let knows = shared.query(Q_KNOWS).unwrap();
    assert_eq!(knows.len(), 12, "the warm plan missed the inserted rows");
    assert!(knows.rows.iter().any(|r| r[0] == Some(Term::iri("http://new/c"))));
    let after = shared.plan_cache_stats().unwrap();
    assert_eq!(after.hits, before.hits + 1, "{after:?}");
    assert_eq!(after.invalidations, before.invalidations, "{after:?}");

    let star_rows = shared.query(star).unwrap().rows;
    let knows_rows = shared.query(Q_KNOWS).unwrap().rows;
    shared.write().widen_dph_for_experiment(3);
    for (q, rows) in [(star, star_rows), (Q_KNOWS, knows_rows)] {
        assert_eq!(shared.query(q).unwrap().rows, rows, "after widening: {q}");
        assert_eq!(shared.query(q).unwrap().rows, rows, "warm after widening: {q}");
    }
}

#[test]
fn disabling_and_resizing_the_cache() {
    let mut store = loaded_store(StoreConfig { plan_cache_entries: 0, ..Default::default() });
    assert!(store.plan_cache_stats().is_none());
    assert_eq!(store.query(Q_KNOWS).unwrap().len(), 10, "uncached queries still work");

    store.set_plan_cache(2); // below the shard threshold: exact LRU
    for q in [
        "SELECT ?s WHERE { ?s <http://p/knows> ?o }",
        "SELECT ?s WHERE { ?s <http://p/member> ?o }",
        "SELECT ?s WHERE { ?s <http://p/name> ?o }",
    ] {
        store.query(q).unwrap();
    }
    let s = store.plan_cache_stats().unwrap();
    assert_eq!(s.entries, 2, "{s:?}");
    assert_eq!(s.evictions, 1, "{s:?}");
    assert_eq!(s.capacity, 2, "{s:?}");
}

// -- property test: cached and cold plans emit byte-identical SQL ----------

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

/// Generate a random SELECT/ASK over the fixture vocabulary: 1–3 triple
/// patterns mixing variables with known and unknown constants, optional
/// DISTINCT/LIMIT — plus the analytic forms (aggregate projections with
/// GROUP BY/HAVING, BIND, inline VALUES, subqueries), so the cold-vs-warm
/// byte-identity property covers the whole translatable surface.
fn random_query(rng: &mut Rng) -> String {
    let preds = ["http://p/knows", "http://p/member", "http://p/name"];
    let n = 1 + rng.below(3);
    let mut patterns = Vec::new();
    for t in 0..n {
        let p = preds[rng.below(preds.len() as u64) as usize];
        let subj = match rng.below(3) {
            0 => format!("?v{}", rng.below(n)),
            1 => format!("<http://s/{}>", rng.below(12)), // 10/11 may be unknown
            _ => format!("?v{t}"),
        };
        let obj = match rng.below(3) {
            0 => format!("?w{}", rng.below(n)),
            1 => format!("<http://s/{}>", rng.below(12)),
            _ => format!("?w{t}"),
        };
        patterns.push(format!("{subj} <{p}> {obj}"));
    }
    let body = patterns.join(" . ");
    match rng.below(9) {
        0 => format!("ASK {{ {body} }}"),
        1 => format!("SELECT DISTINCT * WHERE {{ {body} }}"),
        2 => format!("SELECT * WHERE {{ {body} }} LIMIT {}", 1 + rng.below(20)),
        3 => format!("SELECT ?v0 (COUNT(?w0) AS ?n) WHERE {{ {body} }} GROUP BY ?v0"),
        4 => format!(
            "SELECT (SUM(?w0) AS ?t) WHERE {{ {body} }} HAVING(COUNT(*) > {})",
            rng.below(4)
        ),
        5 => format!("SELECT * WHERE {{ {body} BIND(?w0 + {} AS ?b) }}", 1 + rng.below(5)),
        6 => format!(
            "SELECT * WHERE {{ {body} VALUES ?v0 {{ <http://s/{}> <http://s/{}> }} }}",
            rng.below(12),
            rng.below(12)
        ),
        7 => format!(
            "SELECT * WHERE {{ {body} {{ SELECT ?v0 WHERE {{ ?v0 <http://p/knows> ?sq }} }} }}"
        ),
        _ => format!("SELECT * WHERE {{ {body} }}"),
    }
}

#[test]
fn cached_and_cold_plans_emit_byte_identical_sql() {
    for layout in [Layout::Entity, Layout::TripleStore, Layout::Vertical] {
        // One store, three passes over the same corpus: column assignment
        // inside a store is deterministic, but two separately loaded
        // stores may hash predicates to different DPH columns — so cold
        // and warm plans must come from the same instance.
        let mut store = loaded_store(StoreConfig {
            plan_cache_entries: 0,
            ..StoreConfig::with_layout(layout)
        });
        let mut rng = Rng(0xD82_5DF ^ layout as u64);
        let corpus: Vec<String> = (0..60).map(|_| random_query(&mut rng)).collect();
        let cold: Vec<String> = corpus
            .iter()
            .map(|q| store.translate(q).unwrap_or_else(|e| panic!("{q}: {e}")))
            .collect();
        store.set_plan_cache(corpus.len());
        for (q, cold_sql) in corpus.iter().zip(&cold) {
            let miss = store.translate(q).expect("warm miss");
            let hit = store.translate(q).expect("warm hit");
            assert_eq!(cold_sql, &miss, "cold vs first warm differ for {q}");
            assert_eq!(miss, hit, "cache hit returned different SQL for {q}");
        }
        let s = store.plan_cache_stats().unwrap();
        assert!(s.hits >= 60, "{s:?}");
    }
}

/// Queries that differ only in an analytic clause — HAVING present or not,
/// different VALUES rows, a different BIND expression — must occupy
/// distinct cache entries and keep returning their own results when warm.
/// (The cache is keyed on normalized query text; this pins that the
/// normalization never collapses distinct analytic forms.)
#[test]
fn analytic_clauses_key_the_cache_distinctly() {
    let store = loaded_store(StoreConfig::default());
    // membership: d/0 has 4 subjects, d/1 and d/2 have 3 each.
    let variants: [(&str, usize); 6] = [
        ("SELECT ?d (COUNT(?s) AS ?n) WHERE { ?s <http://p/member> ?d } GROUP BY ?d", 3),
        (
            "SELECT ?d (COUNT(?s) AS ?n) WHERE { ?s <http://p/member> ?d } GROUP BY ?d \
             HAVING(COUNT(?s) > 3)",
            1,
        ),
        ("SELECT ?s WHERE { ?s <http://p/member> ?d . VALUES ?d { <http://d/0> } }", 4),
        (
            "SELECT ?s WHERE { ?s <http://p/member> ?d . VALUES ?d { <http://d/0> <http://d/1> } }",
            7,
        ),
        ("SELECT ?s ?b WHERE { ?s <http://p/member> ?d . BIND(1 AS ?b) }", 10),
        ("SELECT ?s ?b WHERE { ?s <http://p/member> ?d . BIND(2 AS ?b) }", 10),
    ];
    for (q, rows) in &variants {
        assert_eq!(store.query(q).unwrap().len(), *rows, "cold: {q}");
    }
    for (q, rows) in &variants {
        assert_eq!(store.query(q).unwrap().len(), *rows, "warm: {q}");
    }
    let s = store.plan_cache_stats().unwrap();
    assert_eq!(s.entries, variants.len(), "one entry per distinct form: {s:?}");
    assert_eq!(s.hits, variants.len() as u64, "{s:?}");
    assert_eq!(s.misses, variants.len() as u64, "{s:?}");

    // And the warm BIND plans still produce their own constants.
    let b1 = store.query(variants[4].0).unwrap();
    let b2 = store.query(variants[5].0).unwrap();
    assert_eq!(b1.get(0, "b"), Some(&Term::int_lit(1)));
    assert_eq!(b2.get(0, "b"), Some(&Term::int_lit(2)));
}

// -- concurrency: a writer races cached readers through SharedStore --------

/// Readers repeatedly evaluate queries whose constants the writer mints
/// *during* the race. Invariants: a query may lag (0 rows before the
/// insert commits) but a returned row must bind exactly the subject the
/// writer inserted (a stale plan could only produce 0 rows — or garbage if
/// an ID were ever remapped); after the writer joins, every query must see
/// its row, proving no stale plan outlived the epoch bumps.
#[test]
fn shared_store_writer_races_cached_readers() {
    const TARGETS: usize = 16;
    let shared = SharedStore::new(loaded_store(StoreConfig::default()));
    let query_for = |i: usize| {
        format!("SELECT ?s WHERE {{ ?s <http://p/knows> <http://race/{i}> }}")
    };

    // Prime the cache with every query while its constant is unknown.
    for i in 0..TARGETS {
        assert_eq!(shared.query(&query_for(i)).unwrap().len(), 0);
    }

    std::thread::scope(|scope| {
        let writer = shared.clone();
        scope.spawn(move || {
            for i in 0..TARGETS {
                writer
                    .write()
                    .insert(&triple(
                        &format!("http://writer/{i}"),
                        "http://p/knows",
                        &format!("http://race/{i}"),
                    ))
                    .unwrap();
            }
        });
        for r in 0..4 {
            let reader = shared.clone();
            scope.spawn(move || {
                for k in 0..60 {
                    let i = (r + k) % TARGETS;
                    let sols = reader.query(&query_for(i)).unwrap();
                    assert!(sols.len() <= 1, "query {i} returned {} rows", sols.len());
                    if sols.len() == 1 {
                        assert_eq!(
                            sols.get(0, "s"),
                            Some(&Term::iri(format!("http://writer/{i}"))),
                            "row for query {i} bound a foreign subject"
                        );
                    }
                }
            });
        }
    });

    // Quiescent: every plan cached under a pre-insert epoch must have been
    // invalidated, so every query now resolves its freshly minted ID.
    for i in 0..TARGETS {
        let sols = shared.query(&query_for(i)).unwrap();
        assert_eq!(sols.len(), 1, "query {i} still served by a stale plan");
        assert_eq!(sols.get(0, "s"), Some(&Term::iri(format!("http://writer/{i}"))));
    }
    let stats = shared.plan_cache_stats().unwrap();
    assert!(stats.invalidations >= TARGETS as u64, "{stats:?}");
}

// -- zero-triple-pattern queries -------------------------------------------

#[test]
fn empty_group_patterns_have_fixed_answers() {
    let store = loaded_store(StoreConfig::default());

    let ask = store.query("ASK {}").unwrap();
    assert_eq!(ask.boolean, Some(true));

    let all = store.query("SELECT * WHERE {}").unwrap();
    assert_eq!(all.len(), 1, "the unit solution μ0");
    assert!(all.vars.is_empty());

    let named = store.query("SELECT ?x WHERE { }").unwrap();
    assert_eq!(named.len(), 1);
    assert_eq!(named.vars, vec!["x".to_string()]);
    assert_eq!(named.get(0, "x"), None, "projected variable is unbound");

    // Solution modifiers still apply to the unit row.
    assert_eq!(store.query("SELECT * WHERE {} LIMIT 0").unwrap().len(), 0);
    assert_eq!(store.query("SELECT * WHERE {} OFFSET 1").unwrap().len(), 0);
    assert_eq!(store.query("SELECT * WHERE {} LIMIT 5").unwrap().len(), 1);

    // There is no SQL to show for a fixed answer; translate says so
    // instead of pretending the query is invalid.
    let err = store.translate("ASK {}").unwrap_err();
    assert!(err.to_string().contains("fixed by the algebra"), "{err}");
    let explain = store.explain("ASK {}").unwrap();
    assert!(explain.exec_tree.contains("Trivial"), "{}", explain.exec_tree);
}
