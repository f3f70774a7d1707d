//! Executor semantics that must hold at every thread count: outer-join
//! residual ON predicates, UNION ALL and DISTINCT over it, ORDER BY
//! determinism, and row-budget exhaustion raised from worker threads.

use relstore::SqlType::{Int, Text};
use relstore::{table_schema, Database, Error, Rel, Value};

/// Build a database with two related tables big enough that scans, joins and
/// sorts all split into multiple morsels (MORSEL_ROWS = 4096).
fn big_db(threads: Option<usize>) -> Database {
    let mut db = Database::new();
    db.set_threads(threads);
    db.create_table(table_schema("fact", &[("k", Int), ("v", Int), ("tag", Text)])).unwrap();
    db.create_table(table_schema("dim", &[("k", Int), ("w", Int)])).unwrap();
    let n = 6 * relstore::MORSEL_ROWS + 123;
    db.insert_rows(
        "fact",
        (0..n as i64).map(|i| {
            vec![
                Value::Int(i % 97),
                Value::Int(i),
                Value::str(if i % 3 == 0 { "fizz" } else { "plain" }),
            ]
        }),
    )
    .unwrap();
    db.insert_rows("dim", (0..97i64).map(|k| vec![Value::Int(k), Value::Int(k * 1000)]))
        .unwrap();
    db
}

fn rows_of(rel: &Rel) -> &[Vec<Value>] {
    &rel.rows
}

#[test]
fn results_identical_at_every_thread_count() {
    let queries = [
        // Multi-morsel scan + filter + projection + sort. (No modulo in the
        // dialect: `v - v/7*7 = 0` is `v % 7 = 0` with truncating division.)
        "SELECT v, v * 2 AS d FROM fact WHERE v - v / 7 * 7 = 0 ORDER BY v DESC",
        // Hash join with stream predicate and sort.
        "SELECT f.v, d.w FROM fact AS f, dim AS d \
         WHERE f.k = d.k AND d.w > 50000 ORDER BY f.v LIMIT 500",
        // Aggregation over a parallel scan.
        "SELECT k, COUNT(*) AS n, SUM(v) AS s FROM fact GROUP BY k ORDER BY k",
    ];
    let reference = big_db(Some(1));
    for q in queries {
        let expected = reference.query(q).unwrap();
        for threads in [2, 3, 4, 8] {
            let db = big_db(Some(threads));
            let got = db.query(q).unwrap();
            assert_eq!(
                rows_of(&got),
                rows_of(&expected),
                "threads={threads} changed the result (including order) of {q}"
            );
        }
    }
}

#[test]
fn left_outer_join_with_residual_on_predicate() {
    for threads in [1, 4] {
        let db = big_db(Some(threads));
        // `d.w > 90000` is not an equi-key: it stays a residual ON conjunct.
        // Left rows whose match fails the residual must still appear,
        // null-extended — this is what distinguishes ON from WHERE.
        let rel = db
            .query(
                "SELECT f.v, d.w FROM fact AS f LEFT OUTER JOIN dim AS d \
                 ON f.k = d.k AND d.w > 90000 \
                 WHERE f.v < 200 ORDER BY f.v",
            )
            .unwrap();
        assert_eq!(rel.rows.len(), 200, "threads={threads}: every left row survives");
        for row in &rel.rows {
            let Value::Int(v) = row[0] else { panic!("non-int v") };
            let k = v % 97;
            if k * 1000 > 90_000 {
                assert_eq!(row[1], Value::Int(k * 1000), "threads={threads} v={v}");
            } else {
                assert_eq!(row[1], Value::Null, "threads={threads} v={v}");
            }
        }
    }
}

#[test]
fn union_all_keeps_duplicates_distinct_over_it_removes_them() {
    for threads in [1, 4] {
        let db = big_db(Some(threads));
        let all = db
            .query(
                "SELECT tag FROM fact WHERE v < 300 \
                 UNION ALL SELECT tag FROM fact WHERE v < 300",
            )
            .unwrap();
        assert_eq!(all.rows.len(), 600, "threads={threads}");
        let distinct = db
            .query(
                "WITH u AS (SELECT tag FROM fact WHERE v < 300 \
                 UNION ALL SELECT tag FROM fact WHERE v < 300) \
                 SELECT DISTINCT tag FROM u ORDER BY tag",
            )
            .unwrap();
        assert_eq!(
            distinct.rows,
            vec![vec![Value::str("fizz")], vec![Value::str("plain")]],
            "threads={threads}"
        );
        // Dedupe keeps first occurrences: order follows the left branch.
        let first_wins = db
            .query(
                "WITH u AS (SELECT tag FROM fact WHERE v < 10 \
                 UNION ALL SELECT tag FROM fact WHERE v < 10) SELECT DISTINCT tag FROM u",
            )
            .unwrap();
        assert_eq!(
            first_wins.rows,
            vec![vec![Value::str("fizz")], vec![Value::str("plain")]],
            "threads={threads}"
        );
    }
}

#[test]
fn order_by_is_stable_for_equal_keys_under_parallelism() {
    for threads in [1, 2, 4, 8] {
        let db = big_db(Some(threads));
        // All rows with the same k share the sort key; stability demands
        // they stay in insertion (v) order at every thread count.
        let rel = db.query("SELECT k, v FROM fact WHERE k = 13 ORDER BY k").unwrap();
        let vs: Vec<i64> = rel
            .rows
            .iter()
            .map(|r| match r[1] {
                Value::Int(v) => v,
                _ => panic!(),
            })
            .collect();
        let mut sorted = vs.clone();
        sorted.sort_unstable();
        assert_eq!(vs, sorted, "threads={threads}: equal-key rows reordered");
    }
}

#[test]
fn float_aggregates_identical_at_every_thread_count() {
    // f64 summation is association-sensitive, so AVG/SUM over doubles would
    // drift across thread counts if partials were merged in completion order.
    // They are merged in morsel order instead: the summation tree depends
    // only on MORSEL_ROWS, so these must be bit-identical, not just close.
    let q = "SELECT k, AVG(v * 0.1) AS a, SUM(v * 0.001) AS s \
             FROM fact GROUP BY k ORDER BY k";
    let expected = big_db(Some(1)).query(q).unwrap();
    for threads in [2, 4, 8] {
        let got = big_db(Some(threads)).query(q).unwrap();
        assert_eq!(got.rows, expected.rows, "threads={threads}: float aggs drifted");
    }
}

#[test]
fn distinct_first_occurrence_order_is_thread_count_invariant() {
    // No ORDER BY: DISTINCT output order is the first-occurrence order of
    // the (multi-morsel) scan, which dedupe must preserve.
    let q = "SELECT DISTINCT k, tag FROM fact";
    let expected = big_db(Some(1)).query(q).unwrap();
    // gcd(97, 3) = 1, so every k sees both tags: 97 * 2 distinct pairs.
    assert_eq!(expected.rows.len(), 194, "fixture sanity");
    for threads in [2, 4, 8] {
        let got = big_db(Some(threads)).query(q).unwrap();
        assert_eq!(got.rows, expected.rows, "threads={threads}: dedupe order changed");
    }
}

#[test]
fn multi_column_join_keys_identical_at_every_thread_count() {
    // Composite (k, tag) keys take the Vec<Value> build path; the unfiltered
    // right side (~24k rows) spans several morsels, probed in parallel.
    let q = "SELECT f.v AS fv, g.v AS gv FROM fact AS f, fact AS g \
             WHERE f.k = g.k AND f.tag = g.tag AND f.v < 50 \
             ORDER BY fv, gv LIMIT 500";
    let expected = big_db(Some(1)).query(q).unwrap();
    assert_eq!(expected.rows.len(), 500, "fixture sanity");
    for threads in [2, 4, 8] {
        let got = big_db(Some(threads)).query(q).unwrap();
        assert_eq!(got.rows, expected.rows, "threads={threads}: composite-key join drifted");
    }
}

#[test]
fn row_budget_exhaustion_raised_from_worker_threads() {
    for threads in [1, 4, 8] {
        let mut db = big_db(Some(threads));
        // The full scan produces ~24k rows; a 1000-row budget must trip in
        // whichever worker thread crosses it and surface as LimitExceeded.
        db.set_row_budget(Some(1000));
        let err = db.query("SELECT v FROM fact").unwrap_err();
        assert_eq!(err, Error::LimitExceeded, "threads={threads}");
        // A query under budget still succeeds afterwards (budget is
        // per-query, not depleted globally).
        let ok = db.query("SELECT v FROM fact WHERE v < 100").unwrap();
        assert_eq!(ok.rows.len(), 100, "threads={threads}");
    }
}

#[test]
fn env_thread_override_is_picked_up() {
    // `threads(None)` defers to RELSTORE_THREADS; results must be identical
    // either way. Run last-ditch sanity rather than forking a process: set,
    // query, restore.
    let prev = std::env::var("RELSTORE_THREADS").ok();
    std::env::set_var("RELSTORE_THREADS", "3");
    let db = big_db(None);
    let got = db.query("SELECT v FROM fact WHERE v - v / 11 * 11 = 0 ORDER BY v").unwrap();
    match prev {
        Some(p) => std::env::set_var("RELSTORE_THREADS", p),
        None => std::env::remove_var("RELSTORE_THREADS"),
    }
    let reference = big_db(Some(1));
    let expected = reference.query("SELECT v FROM fact WHERE v - v / 11 * 11 = 0 ORDER BY v").unwrap();
    assert_eq!(got.rows, expected.rows);
}

#[test]
fn worker_panic_reaches_the_caller_and_the_database_stays_usable() {
    for threads in [1, 2, 4] {
        let mut db = big_db(Some(threads));
        // `fact` spans 7 morsels, so at widths > 1 the panicking row (in the
        // last morsel) may be filtered on any thread, the caller included.
        db.register_function("explode", |args| match args[0] {
            Value::Int(v) if v == 6 * relstore::MORSEL_ROWS as i64 + 100 => {
                panic!("scalar function panicked")
            }
            _ => Ok(Value::Bool(true)),
        });
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            db.query("SELECT v FROM fact WHERE explode(v)")
        }));
        assert!(res.is_err(), "threads={threads}: the panic must reach the caller");
        let ok = db.query("SELECT v FROM fact WHERE v < 100 ORDER BY v").unwrap();
        let want: Vec<Vec<Value>> = (0..100).map(|v| vec![Value::Int(v)]).collect();
        assert_eq!(ok.rows, want, "threads={threads}");
    }
}

/// `lhs` (six probe rows) and `rhs`, whose rows span three morsels and
/// carry duplicate join keys in all three. `rhs.id` is the build row id:
/// key `k = 1` sits at rows 5, 4100 and 8200, `k = 2` at 7, 4101 and 8201,
/// rows 9 and 4200 have a NULL `k`, row 8201 a NULL `g`, and every other
/// row a `k` no probe row has.
fn match_order_db(threads: usize) -> Database {
    let mut db = Database::new();
    db.set_threads(Some(threads));
    db.create_table(table_schema("lhs", &[("k", Int), ("g", Int), ("tag", Text)])).unwrap();
    db.create_table(table_schema("rhs", &[("k", Int), ("g", Int), ("id", Int)])).unwrap();
    let int = |v: Option<i64>| v.map_or(Value::Null, Value::Int);
    let probe = [
        (Some(2), Some(0), "a"),
        (None, Some(0), "b"),
        (Some(1), Some(0), "c"),
        (Some(3), Some(0), "d"),
        (Some(2), None, "e"),
        (Some(1), Some(1), "f"),
    ];
    db.insert_rows("lhs", probe.map(|(k, g, tag)| vec![int(k), int(g), Value::str(tag)]))
        .unwrap();
    let n = 2 * relstore::MORSEL_ROWS as i64 + 10;
    db.insert_rows(
        "rhs",
        (0..n).map(|id| {
            let (k, g) = match id {
                5 | 8200 => (Some(1), Some(0)),
                4100 => (Some(1), Some(1)),
                7 | 4101 => (Some(2), Some(0)),
                8201 => (Some(2), None),
                9 | 4200 => (None, Some(0)),
                _ => (Some(1_000_000 + id), Some(0)),
            };
            vec![int(k), int(g), Value::Int(id)]
        }),
    )
    .unwrap();
    db
}

fn tag_id_rows(pairs: &[(&str, i64)]) -> Vec<Vec<Value>> {
    pairs.iter().map(|&(tag, id)| vec![Value::str(tag), Value::Int(id)]).collect()
}

#[test]
fn hash_join_matches_come_left_major_in_ascending_build_row_and_null_keys_never_match() {
    let single = tag_id_rows(&[
        ("a", 7),
        ("a", 4101),
        ("a", 8201),
        ("c", 5),
        ("c", 4100),
        ("c", 8200),
        ("e", 7),
        ("e", 4101),
        ("e", 8201),
        ("f", 5),
        ("f", 4100),
        ("f", 8200),
    ]);
    let composite = tag_id_rows(&[("a", 7), ("a", 4101), ("c", 5), ("c", 8200), ("f", 4100)]);
    for threads in [1, 2, 4] {
        let db = match_order_db(threads);
        let got = db.query("SELECT l.tag, r.id FROM lhs AS l, rhs AS r WHERE l.k = r.k").unwrap();
        assert_eq!(got.rows, single, "threads={threads}: single-column key");
        let got = db
            .query("SELECT l.tag, r.id FROM lhs AS l, rhs AS r WHERE l.k = r.k AND l.g = r.g")
            .unwrap();
        assert_eq!(got.rows, composite, "threads={threads}: composite key");
    }
}

#[test]
fn distinct_keeps_first_occurrences_across_morsels() {
    let ints = |vals: &[Option<i64>]| -> Vec<Vec<Value>> {
        vals.iter().map(|v| vec![v.map_or(Value::Null, Value::Int)]).collect()
    };
    for threads in [1, 2, 4] {
        let db = match_order_db(threads);
        // First occurrences at rows 0, 4100 and 8201: one per morsel.
        let got = db.query("SELECT DISTINCT g FROM rhs").unwrap();
        assert_eq!(got.rows, ints(&[Some(0), Some(1), None]), "threads={threads}");
        let got = db.query("SELECT DISTINCT k FROM lhs").unwrap();
        assert_eq!(got.rows, ints(&[Some(2), None, Some(1), Some(3)]), "threads={threads}");
    }
}
