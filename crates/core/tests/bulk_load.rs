//! The streaming parallel bulk loader (`store::bulk`), which builds every
//! layout: differential equivalence against the triple-store layout and
//! the naive evaluator, byte-identical determinism across thread counts,
//! reopen durability, and the crash protocol under fault injection on all
//! three layouts.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use db2rdf::{naive, BulkLoadOptions, Layout, RdfStore, Solutions, StoreConfig};
use rdf::{write_ntriples, Quad, Term, Triple};

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "db2rdf-bulk-{}-{}-{name}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::SeqCst)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A deterministic dataset with the paper's shape hazards: multi-valued
/// predicates, shared objects, literal and IRI values, skewed predicate
/// frequencies. No duplicate triples, so counts compare directly against
/// the input length.
fn dataset(entities: usize) -> Vec<Triple> {
    let mut out = Vec::new();
    let mut seen = std::collections::HashSet::new();
    let mut state = 0x9e3779b97f4a7c15u64;
    let mut rng = move || {
        state = state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    };
    let industries = ["Software", "Internet", "Hardware", "Retail"];
    for e in 0..entities {
        let s = format!("http://x.test/e{e}");
        let mut push = |p: &str, o: Term, out: &mut Vec<Triple>| {
            let t = Triple::new(Term::iri(s.as_str()), Term::iri(format!("http://x.test/{p}")), o);
            if seen.insert(format!("{t:?}")) {
                out.push(t);
            }
        };
        push("born", Term::lit(format!("{}", 1850 + rng() % 150)), &mut out);
        // Multi-valued with shared objects: 1–3 industries per entity.
        for k in 0..(1 + rng() as usize % 3) {
            let i = (rng() as usize + k) % industries.len();
            push("industry", Term::lit(industries[i]), &mut out);
        }
        if rng() % 3 == 0 {
            let target = rng() as usize % entities;
            push("knows", Term::iri(format!("http://x.test/e{target}")), &mut out);
        }
        if rng() % 7 == 0 {
            push("home", Term::lit("Palo Alto"), &mut out);
        }
    }
    out
}

fn to_ntriples(triples: &[Triple]) -> String {
    let quads: Vec<Quad> = triples.iter().map(|t| Quad { triple: t.clone(), graph: None }).collect();
    write_ntriples(&quads)
}

const QUERIES: &[&str] = &[
    "SELECT ?s WHERE { ?s <http://x.test/home> 'Palo Alto' }",
    "SELECT ?s ?o WHERE { ?s <http://x.test/industry> ?o }",
    "SELECT ?a ?b WHERE { ?a <http://x.test/knows> ?b . ?b <http://x.test/industry> 'Software' }",
    "ASK { ?s <http://x.test/born> '1900' }",
];

fn answers(store: &RdfStore, q: &str) -> Vec<String> {
    canon(&store.query(q).unwrap())
}

fn canon(sols: &Solutions) -> Vec<String> {
    let mut rows: Vec<String> = Vec::new();
    for i in 0..sols.len() {
        let mut cells: Vec<String> = Vec::new();
        for var in ["s", "o", "a", "b"] {
            if let Some(term) = sols.get(i, var) {
                cells.push(format!("{var}={term:?}"));
            }
        }
        rows.push(cells.join(" "));
    }
    rows.sort();
    rows
}

/// A `Layout::TripleStore` store (same loader, own translation) and the
/// naive in-memory evaluator answer the same queries over the same data
/// as the entity layout. The loader is shared, so its statistics are
/// checked against counts taken from the data itself.
#[test]
fn bulk_matches_triple_store_and_naive() {
    let data = dataset(200);
    let mut reference = RdfStore::new(StoreConfig::with_layout(Layout::TripleStore));
    reference.load(&data).unwrap();

    let mut bulk = RdfStore::entity();
    let nt = to_ntriples(&data);
    let stats = bulk
        .bulk_load_ntriples(nt.as_bytes(), &BulkLoadOptions::default())
        .unwrap();
    assert_eq!(stats.triples, data.len() as u64);
    assert_eq!(stats.raw_triples, data.len() as u64);

    for q in QUERIES {
        let got = answers(&bulk, q);
        assert_eq!(got, answers(&reference, q), "diverged from the triple store: {q}");
        let expected = naive::evaluate(&data, &sparql::parse_sparql(q).unwrap());
        if expected.boolean.is_some() {
            assert_eq!(bulk.query(q).unwrap().boolean, expected.boolean, "ASK diverged: {q}");
        } else {
            assert_eq!(got, canon(&expected), "diverged from naive: {q}");
        }
    }
    // Statistics hold the aggregate counters the optimizer keys on, as
    // counted from the data, on both layouts.
    let distinct = |f: fn(&Triple) -> &Term| {
        data.iter().map(f).collect::<std::collections::HashSet<_>>().len() as u64
    };
    let industry = Term::iri("http://x.test/industry");
    let industry_count = data.iter().filter(|t| t.predicate == industry).count() as f64;
    let predicates = distinct(|t| &t.predicate) as usize;
    for store in [&bulk, &reference] {
        let stats = store.statistics();
        assert_eq!(stats.total_triples, data.len() as u64);
        assert_eq!(stats.distinct_subjects, distinct(|t| &t.subject));
        assert_eq!(stats.distinct_objects, distinct(|t| &t.object));
        assert_eq!(stats.predicate_count("<http://x.test/industry>"), industry_count);
        assert_eq!(store.load_report().triples, data.len() as u64);
        assert_eq!(store.load_report().predicates, predicates);
    }
}

#[test]
fn bulk_load_triples_matches_ntriples_path() {
    let data = dataset(120);
    let mut via_text = RdfStore::entity();
    via_text
        .bulk_load_ntriples(to_ntriples(&data).as_bytes(), &BulkLoadOptions::default())
        .unwrap();
    let mut via_iter = RdfStore::entity();
    via_iter.bulk_load_triples(data.clone(), &BulkLoadOptions::default()).unwrap();
    for q in QUERIES {
        assert_eq!(answers(&via_iter, q), answers(&via_text, q), "query diverged: {q}");
    }
}

/// The determinism contract: the same bytes produce a byte-identical store —
/// same dictionary, same rows in every table, same stats — at any worker
/// width, on every layout. Small chunks force many morsels per round so
/// interleaving would show if merge order ever depended on scheduling.
#[test]
fn bulk_load_is_byte_identical_across_thread_counts() {
    for layout in [Layout::Entity, Layout::TripleStore, Layout::Vertical] {
        identical_across_thread_counts(StoreConfig::with_layout(layout));
    }
}

fn identical_across_thread_counts(cfg: StoreConfig) {
    let layout = cfg.layout;
    let nt = to_ntriples(&dataset(150));
    let fingerprint = |threads: usize| -> Vec<String> {
        let mut store = RdfStore::new(cfg.clone());
        let opts = BulkLoadOptions {
            chunk_bytes: 512,
            segment_triples: 64,
            threads: Some(threads),
            ..BulkLoadOptions::default()
        };
        store.bulk_load_ntriples(nt.as_bytes(), &opts).unwrap();
        let mut fp: Vec<String> = Vec::new();
        let dict = store.dictionary().read();
        for (id, term) in dict.entries_from(0) {
            fp.push(format!("dict {id} {term}"));
        }
        drop(dict);
        let mut tables = store.database().table_names();
        tables.sort_unstable();
        for table in tables {
            let t = store.database().table(table).unwrap();
            for r in 0..t.row_count() as u32 {
                fp.push(format!("{table} {:?}", t.row_values(r)));
            }
        }
        fp.push(format!("report {:?}", store.load_report()));
        fp
    };
    let one = fingerprint(1);
    assert_eq!(fingerprint(2), one, "{layout:?}: threads=2 diverged from threads=1");
    assert_eq!(fingerprint(4), one, "{layout:?}: threads=4 diverged from threads=1");
}

#[test]
fn bulk_load_survives_reopen() {
    let dir = fresh_dir("reopen");
    let data = dataset(100);
    let expected;
    let expected_report;
    {
        let mut store = RdfStore::open(&dir, StoreConfig::default()).unwrap();
        let opts = BulkLoadOptions { segment_triples: 32, ..BulkLoadOptions::default() };
        let stats = store.bulk_load_ntriples(to_ntriples(&data).as_bytes(), &opts).unwrap();
        assert!(stats.segments >= 2, "expected multiple segments, got {}", stats.segments);
        assert!(stats.checkpoints >= 1, "final checkpoint must run");
        expected = answers(&store, QUERIES[1]);
        expected_report = store.load_report().clone();
        drop(store); // no close(): reopen exercises snapshot + WAL replay
    }
    let store = RdfStore::open(&dir, StoreConfig::default()).unwrap();
    assert_eq!(answers(&store, QUERIES[1]), expected);
    assert_eq!(store.load_report().triples, expected_report.triples);
    assert_eq!(store.load_report().dph_rows, expected_report.dph_rows);
    // Incremental writes still work on the restored store.
    let mut store = store;
    assert!(store
        .insert(&Triple::new(
            Term::iri("http://x.test/e0"),
            Term::iri("http://x.test/home"),
            Term::lit("Armonk"),
        ))
        .unwrap());
}

/// Crash protocol under fault injection, on every layout: fail the Nth
/// durable write mid-load for every N until loads stop failing. Whatever
/// prefix the WAL keeps, reopening must land in exactly one of three
/// states — empty (marker never committed), an explicit "bulk load
/// interrupted" refusal, or the complete dataset. Partial data must never
/// be served.
#[test]
fn interrupted_bulk_load_refuses_or_recovers_cleanly() {
    for layout in [Layout::Entity, Layout::TripleStore, Layout::Vertical] {
        fault_sweep(StoreConfig::with_layout(layout));
    }
}

fn fault_sweep(cfg: StoreConfig) {
    let layout = cfg.layout;
    let data = dataset(60);
    let nt = to_ntriples(&data);
    let opts = BulkLoadOptions { segment_triples: 24, ..BulkLoadOptions::default() };
    let full = {
        let mut store = RdfStore::new(cfg.clone());
        store.bulk_load_ntriples(nt.as_bytes(), &opts).unwrap();
        answers(&store, QUERIES[1])
    };

    let mut refused = 0;
    let mut empty = 0;
    let mut complete = 0;
    let mut n = 0;
    loop {
        let dir = fresh_dir(&format!("fault-{layout:?}-{n}"));
        let faults = relstore::ScriptedFaults::new().fail_write(n).into_handle();
        let mut store = RdfStore::open_with_faults(&dir, cfg.clone(), faults).unwrap();
        let load = store.bulk_load_ntriples(nt.as_bytes(), &opts);
        let failed = load.is_err();
        drop(store);

        match RdfStore::open(&dir, cfg.clone()) {
            Err(e) => {
                let msg = e.to_string();
                assert!(
                    msg.contains("bulk load interrupted"),
                    "{layout:?} write-fault {n}: unexpected reopen error: {msg}"
                );
                refused += 1;
            }
            Ok(store) => {
                if store.query(QUERIES[1]).is_ok() {
                    assert_eq!(
                        answers(&store, QUERIES[1]),
                        full,
                        "{layout:?} write-fault {n}: reopened with partial data"
                    );
                    complete += 1;
                } else {
                    empty += 1;
                }
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
        if !failed {
            // The fault index is past every write the load performs.
            break;
        }
        n += 1;
        assert!(n < 10_000, "fault sweep did not converge");
    }
    assert!(refused > 0, "{layout:?}: no fault point exercised the in-progress refusal");
    assert!(empty > 0, "{layout:?}: no fault point recovered to the empty store");
    assert!(complete >= 1, "{layout:?}: the past-the-end fault point must load fully");
}

#[test]
fn bulk_load_rejects_double_load() {
    let mut store = RdfStore::entity();
    store.load(&dataset(5)).unwrap();
    let err = store
        .bulk_load_ntriples(&b"<a> <b> <c> .\n"[..], &BulkLoadOptions::default())
        .unwrap_err();
    assert!(err.to_string().contains("empty store"), "got: {err}");
}

#[test]
fn bulk_load_reports_parse_error_with_absolute_line() {
    let mut nt = to_ntriples(&dataset(40));
    let line = nt.lines().count() + 1;
    nt.push_str("this is not a triple\n");
    let mut store = RdfStore::entity();
    let opts = BulkLoadOptions { chunk_bytes: 256, ..BulkLoadOptions::default() };
    let err = store.bulk_load_ntriples(nt.as_bytes(), &opts).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains(&format!("line {line}")), "expected line {line} in: {msg}");
}

#[test]
fn bulk_load_dedups_exact_duplicates() {
    let nt = "<a> <p> <b> .\n<a> <p> <b> .\n<a> <p> <c> .\n";
    let mut store = RdfStore::entity();
    let stats = store.bulk_load_ntriples(nt.as_bytes(), &BulkLoadOptions::default()).unwrap();
    assert_eq!(stats.raw_triples, 3);
    assert_eq!(stats.triples, 2);
    let sols = store.query("SELECT ?o WHERE { <a> <p> ?o }").unwrap();
    assert_eq!(sols.len(), 2);
}
