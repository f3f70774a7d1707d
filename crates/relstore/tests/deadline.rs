//! Wall-clock query deadline (`Database::set_deadline`), checked at the same
//! execution sites as the row budget and surfaced as `Error::Timeout` —
//! distinct from the budget's `Error::LimitExceeded`.

use std::time::Duration;

use relstore::SqlType::{Int, Text};
use relstore::{table_schema, Database, Error, Value};

fn populated() -> Database {
    let mut db = Database::new();
    db.create_table(table_schema("t", &[("k", Int), ("v", Text)])).unwrap();
    let rows: Vec<Vec<Value>> =
        (0..20_000).map(|i| vec![Value::Int(i), Value::str(format!("v{i}"))]).collect();
    db.insert_rows("t", rows).unwrap();
    db
}

#[test]
fn zero_deadline_times_out() {
    let mut db = populated();
    db.set_deadline(Some(Duration::ZERO));
    let err = db
        .query("SELECT a.k FROM t AS a, t AS b WHERE a.k = b.k AND a.k < 100")
        .unwrap_err();
    assert_eq!(err, Error::Timeout);
}

#[test]
fn generous_deadline_does_not_fire() {
    let mut db = populated();
    db.set_deadline(Some(Duration::from_secs(3600)));
    let rel = db.query("SELECT count(*) FROM t").unwrap();
    assert_eq!(rel.rows, vec![vec![Value::Int(20_000)]]);
}

#[test]
fn deadline_clears() {
    let mut db = populated();
    db.set_deadline(Some(Duration::ZERO));
    assert_eq!(db.query("SELECT count(*) FROM t"), Err(Error::Timeout));
    db.set_deadline(None);
    assert!(db.query("SELECT count(*) FROM t").is_ok());
}

#[test]
fn timeout_is_distinct_from_row_budget() {
    let mut db = populated();
    db.set_row_budget(Some(10));
    let err = db.query("SELECT k FROM t").unwrap_err();
    assert_eq!(err, Error::LimitExceeded);
    db.set_row_budget(None);
    db.set_deadline(Some(Duration::ZERO));
    let err = db.query("SELECT k FROM t").unwrap_err();
    assert_eq!(err, Error::Timeout);
}
