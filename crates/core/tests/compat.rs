//! On-disk backward compatibility. The 3-column `sys_dict` page format is
//! the one format: a store directory written by the commit before the
//! in-memory front-coding was removed (checked in under `tests/data/`, see
//! its README) must reopen and keep working, and the pre-PR 8 two-column
//! `sys_dict` must be refused explicitly.

use std::path::{Path, PathBuf};

use db2rdf::{RdfStore, StoreConfig};
use rdf::{Term, Triple};

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("db2rdf-compat-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn person(i: usize) -> Term {
    Term::iri(format!("http://fixture.test/person{i}"))
}

fn names_of_person0(store: &RdfStore) -> Vec<String> {
    let sols = store
        .query("SELECT ?n WHERE { <http://fixture.test/person0> <http://fixture.test/name> ?n }")
        .unwrap();
    let mut names: Vec<String> =
        (0..sols.len()).map(|i| sols.get(i, "n").unwrap().lexical().to_string()).collect();
    names.sort();
    names
}

/// `(first_id, n)` of every `sys_dict` page row.
fn dict_pages(store: &RdfStore) -> Vec<(i64, i64)> {
    let t = store.database().table("sys_dict").unwrap();
    assert_eq!(t.width(), 3);
    (0..t.row_count() as u32)
        .map(|r| match (&t.row_values(r)[0], &t.row_values(r)[1]) {
            (relstore::Value::Int(first), relstore::Value::Int(n)) => (*first, *n),
            other => panic!("malformed sys_dict row {other:?}"),
        })
        .collect()
}

#[test]
fn store_written_by_the_parent_commit_reopens_and_serves() {
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/data/parent_store");
    let dir = fresh_dir("parent-store");
    for entry in std::fs::read_dir(&fixture).unwrap() {
        let path = entry.unwrap().path();
        std::fs::copy(&path, dir.join(path.file_name().unwrap())).unwrap();
    }

    // Reopen: snapshot + replay of a WAL frame the parent wrote.
    let mut store = RdfStore::open(&dir, StoreConfig::default()).unwrap();
    assert_eq!(store.load_report().triples, 111);
    assert_eq!(store.dict_stats().entries, 71);
    assert_eq!(dict_pages(&store), [(1, 64), (65, 7)]);
    assert_eq!(names_of_person0(&store), ["Person é 0", "Zero"]);
    let knows = store
        .query("SELECT ?a ?b WHERE { ?a <http://fixture.test/knows> ?b }")
        .unwrap();
    assert_eq!(knows.len(), 44);

    // An insert with two new terms rewrites the partial tail page in place.
    let extra = Triple::new(person(0), Term::iri("http://fixture.test/nick"), Term::lit("Nil"));
    assert!(store.insert(&extra).unwrap());
    assert!(!store.insert(&extra).unwrap());
    assert_eq!(dict_pages(&store), [(1, 64), (65, 9)]);
    drop(store); // crash: the insert lives in the WAL only

    let store = RdfStore::open(&dir, StoreConfig::default()).unwrap();
    assert_eq!(store.load_report().triples, 112);
    assert_eq!(dict_pages(&store), [(1, 64), (65, 9)]);
    assert_eq!(names_of_person0(&store), ["Person é 0", "Zero"]);
    let nick = store
        .query("SELECT ?n WHERE { <http://fixture.test/person0> <http://fixture.test/nick> ?n }")
        .unwrap();
    assert_eq!(nick.len(), 1);
    store.close().unwrap();
    RdfStore::open(&dir, StoreConfig::default()).unwrap();
}

/// The pre-PR 8 `(id, term)` dictionary table is no longer readable. A
/// directory that still has one must fail to open with a corruption error
/// that names `sys_dict` — never a panic, never a silently empty dictionary.
#[test]
fn two_column_sys_dict_is_refused_explicitly() {
    let dir = fresh_dir("legacy-dict");
    {
        use relstore::{Database, SqlType, TableSchema, Value};
        let text = |name: &str| (name.to_string(), SqlType::Text);
        let mut db = Database::open(&dir).unwrap();
        db.create_table(TableSchema::new("sys_meta", vec![text("k"), text("v")])).unwrap();
        db.insert_rows("sys_meta", [vec![Value::str("layout"), Value::str("entity")]]).unwrap();
        db.create_table(TableSchema::new(
            "sys_dict",
            vec![("id".to_string(), SqlType::Int), text("term")],
        ))
        .unwrap();
        db.insert_rows("sys_dict", [vec![Value::Int(1), Value::str("<http://a>")]]).unwrap();
        db.close().unwrap();
    }
    match RdfStore::open(&dir, StoreConfig::default()) {
        Ok(_) => panic!("a 2-column sys_dict must not open"),
        Err(db2rdf::StoreError::Sql(relstore::Error::Corrupt(msg))) => {
            assert!(msg.contains("sys_dict"), "error does not name sys_dict: {msg}")
        }
        Err(other) => panic!("not a corruption error: {other}"),
    }
}
