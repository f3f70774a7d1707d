//! The ways into the graph agree. A triple can arrive through
//! `RdfStore::insert`, through a SPARQL `INSERT DATA` request, or in a
//! `POST /insert` body; all three are requests over one skeleton
//! (`RdfStore::request`), so the same triples must leave the same graph,
//! the same load report and — after a crash and reopen — the same
//! `sys_meta` and `sys_dict` rows behind them, on every layout.

use std::path::{Path, PathBuf};

use db2rdf::{Layout, RdfStore, SharedStore, StoreConfig};
use rdf::{Term, Triple};
use relstore::Value;
use server::{client, Server, ServerConfig};

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("db2rdf-ways-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn t(s: &str, p: &str, o: Term) -> Triple {
    Triple::new(Term::iri(format!("http://ex/{s}")), Term::iri(format!("http://ex/{p}")), o)
}

fn iri(n: &str) -> Term {
    Term::iri(format!("http://ex/{n}"))
}

fn base() -> Vec<Triple> {
    vec![
        t("alice", "knows", iri("bob")),
        t("alice", "name", Term::lit("Alice")),
        t("bob", "knows", iri("carol")),
        t("bob", "name", Term::lit("Bob")),
    ]
}

/// New subjects, a predicate the load never saw, a predicate that turns
/// multi-valued (alice gets a second and third `knows`), and one triple the
/// store already holds.
fn delta() -> Vec<Triple> {
    vec![
        t("dave", "knows", iri("alice")),
        t("dave", "name", Term::lit("Dave")),
        t("alice", "knows", iri("carol")),
        t("bob", "knows", iri("carol")), // duplicate of a loaded triple
        t("erin", "worksAt", iri("acme")),
        t("alice", "knows", iri("dave")),
        t("erin", "name", Term::lang_lit("Erin", "en")),
    ]
}

fn ntriples(triples: &[Triple]) -> String {
    triples.iter().map(|t| format!("{t}\n")).collect()
}

/// Everything the comparison looks at.
#[derive(Debug, PartialEq)]
struct Observed {
    answers: Vec<String>,
    report: String,
    sys_meta: Vec<Vec<Value>>,
    sys_dict: Vec<Vec<Value>>,
}

fn table_rows(store: &RdfStore, name: &str) -> Vec<Vec<Value>> {
    let table = store.database().table(name);
    table.map(|t| (0..t.row_count() as u32).map(|r| t.row_values(r)).collect()).unwrap_or_default()
}

/// Graph and report as the live store serves them.
fn graph_and_report(live: &RdfStore) -> (Vec<String>, String) {
    let sols = live.query("SELECT * { ?s ?p ?o }").unwrap();
    let mut answers: Vec<String> = sols.rows.iter().map(|r| format!("{r:?}")).collect();
    answers.sort();
    (answers, format!("{:?}", live.load_report()))
}

/// The metadata rows a reopen finds in the directory the (already dropped,
/// never checkpointed) store left behind.
fn observe((answers, report): (Vec<String>, String), dir: &Path, cfg: &StoreConfig) -> Observed {
    let reopened = RdfStore::open(dir, cfg.clone()).unwrap();
    assert_eq!(graph_and_report(&reopened), (answers.clone(), report.clone()), "after reopen");
    let observed = Observed {
        answers,
        report,
        sys_meta: table_rows(&reopened, "sys_meta"),
        sys_dict: table_rows(&reopened, "sys_dict"),
    };
    let _ = std::fs::remove_dir_all(dir);
    observed
}

fn loaded(dir: &Path, cfg: &StoreConfig) -> RdfStore {
    let mut store = RdfStore::open(dir, cfg.clone()).unwrap();
    store.load(&base()).unwrap();
    store
}

#[test]
fn insert_calls_insert_data_and_post_insert_leave_the_same_store() {
    for layout in [Layout::Entity, Layout::TripleStore, Layout::Vertical] {
        let cfg = StoreConfig::with_layout(layout);

        // N stand-alone inserts: N frames, N fsyncs.
        let dir = fresh_dir(&format!("{layout:?}-calls"));
        let mut store = loaded(&dir, &cfg);
        let added = delta().iter().filter(|t| store.insert(t).unwrap()).count();
        assert_eq!(added, delta().len() - 1, "{layout:?}: the duplicate is not new");
        let live = graph_and_report(&store);
        drop(store);
        let by_calls = observe(live, &dir, &cfg);

        // One INSERT DATA request: one frame.
        let dir = fresh_dir(&format!("{layout:?}-update"));
        let shared = SharedStore::new(loaded(&dir, &cfg));
        let text = format!("INSERT DATA {{ {} }}", ntriples(&delta()));
        assert_eq!(shared.update(&text).unwrap().inserted as usize, added, "{layout:?}");
        let live = graph_and_report(&shared.snapshot());
        drop(shared);
        let by_update = observe(live, &dir, &cfg);

        // One POST /insert body.
        let dir = fresh_dir(&format!("{layout:?}-post"));
        let shared = SharedStore::new(loaded(&dir, &cfg));
        let server = Server::start(shared.clone(), "127.0.0.1:0", ServerConfig::default()).unwrap();
        let r = client::request(
            server.local_addr(),
            "POST",
            "/insert",
            &[("Content-Type", "application/n-triples")],
            ntriples(&delta()).as_bytes(),
        )
        .unwrap();
        assert_eq!(r.status, 200, "{layout:?}: {}", r.text());
        assert_eq!(
            r.text().trim(),
            format!("{{\"received\":{},\"inserted\":{added}}}", delta().len()),
            "{layout:?}"
        );
        server.shutdown();
        let live = graph_and_report(&shared.snapshot());
        drop(shared);
        let by_post = observe(live, &dir, &cfg);

        assert_eq!(by_calls.answers.len(), base().len() + added, "{layout:?}");
        assert_eq!(by_calls, by_update, "{layout:?}: insert() calls vs INSERT DATA");
        assert_eq!(by_calls, by_post, "{layout:?}: insert() calls vs POST /insert");
    }
}
