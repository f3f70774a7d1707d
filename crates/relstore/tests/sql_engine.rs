//! End-to-end SQL engine tests exercising every construct the DB2RDF
//! SPARQL→SQL translation emits (paper Figs. 12 & 13), plus general engine
//! semantics.

use relstore::{Database, Error, ExecOutcome, Rel, Value};

fn db_with_people() -> Database {
    let mut db = Database::new();
    db.execute("CREATE TABLE person (name TEXT, age INT, city TEXT)").unwrap();
    db.execute(
        "INSERT INTO person VALUES
         ('ada', 36, 'london'), ('alan', 41, 'london'),
         ('grace', 85, 'ny'), ('edsger', 72, NULL)",
    )
    .unwrap();
    db
}

fn rows(rel: &Rel) -> Vec<Vec<String>> {
    rel.rows.iter().map(|r| r.iter().map(|v| v.to_string()).collect()).collect()
}

#[test]
fn select_where_projection() {
    let db = db_with_people();
    let rel = db.query("SELECT name, age FROM person WHERE city = 'london' ORDER BY age").unwrap();
    assert_eq!(rows(&rel), vec![vec!["ada", "36"], vec!["alan", "41"]]);
    assert_eq!(rel.column_names(), vec!["name", "age"]);
}

#[test]
fn where_null_is_not_true() {
    let db = db_with_people();
    // edsger has NULL city: excluded by both predicates (3-valued logic).
    let rel = db.query("SELECT name FROM person WHERE city = 'x' OR city <> 'x'").unwrap();
    assert_eq!(rel.rows.len(), 3);
}

#[test]
fn is_null_and_is_not_null() {
    let db = db_with_people();
    let rel = db.query("SELECT name FROM person WHERE city IS NULL").unwrap();
    assert_eq!(rows(&rel), vec![vec!["edsger"]]);
    let rel = db.query("SELECT COUNT(*) AS n FROM person WHERE city IS NOT NULL").unwrap();
    assert_eq!(rel.rows[0][0], Value::Int(3));
}

#[test]
fn inner_join_via_where_equality() {
    let mut db = db_with_people();
    db.execute("CREATE TABLE capital (city TEXT, country TEXT)").unwrap();
    db.execute("INSERT INTO capital VALUES ('london', 'uk'), ('paris', 'fr')").unwrap();
    let rel = db
        .query(
            "SELECT p.name, c.country FROM person AS p, capital AS c
             WHERE p.city = c.city ORDER BY p.name",
        )
        .unwrap();
    assert_eq!(rows(&rel), vec![vec!["ada", "uk"], vec!["alan", "uk"]]);
}

#[test]
fn explicit_join_on() {
    let mut db = db_with_people();
    db.execute("CREATE TABLE capital (city TEXT, country TEXT)").unwrap();
    db.execute("INSERT INTO capital VALUES ('london', 'uk'), ('ny', 'us')").unwrap();
    let rel = db
        .query(
            "SELECT p.name, c.country FROM person p JOIN capital c ON p.city = c.city
             ORDER BY 1",
        )
        .unwrap();
    assert_eq!(rel.rows.len(), 3);
}

#[test]
fn left_outer_join_pads_nulls() {
    let mut db = db_with_people();
    db.execute("CREATE TABLE capital (city TEXT, country TEXT)").unwrap();
    db.execute("INSERT INTO capital VALUES ('london', 'uk')").unwrap();
    let rel = db
        .query(
            "SELECT p.name, c.country FROM person p
             LEFT OUTER JOIN capital c ON p.city = c.city ORDER BY p.name",
        )
        .unwrap();
    assert_eq!(
        rows(&rel),
        vec![
            vec!["ada", "uk"],
            vec!["alan", "uk"],
            vec!["edsger", "NULL"],
            vec!["grace", "NULL"],
        ]
    );
}

#[test]
fn left_join_with_residual_on_condition() {
    let mut db = Database::new();
    db.execute("CREATE TABLE l (k INT)").unwrap();
    db.execute("CREATE TABLE r (k INT, v INT)").unwrap();
    db.execute("INSERT INTO l VALUES (1), (2)").unwrap();
    db.execute("INSERT INTO r VALUES (1, 10), (1, 99), (2, 99)").unwrap();
    // Residual v < 50 filters matches; row 2 keeps the left side.
    let rel = db
        .query("SELECT l.k, r.v FROM l LEFT JOIN r ON l.k = r.k AND r.v < 50 ORDER BY l.k")
        .unwrap();
    assert_eq!(rows(&rel), vec![vec!["1", "10"], vec!["2", "NULL"]]);
}

#[test]
fn union_all_and_union_distinct() {
    let db = db_with_people();
    let rel = db
        .query("SELECT city FROM person WHERE name = 'ada' UNION ALL SELECT city FROM person WHERE name = 'alan'")
        .unwrap();
    assert_eq!(rel.rows.len(), 2);
    let rel = db
        .query("SELECT city FROM person WHERE name = 'ada' UNION SELECT city FROM person WHERE name = 'alan'")
        .unwrap();
    assert_eq!(rel.rows.len(), 1);
}

#[test]
fn union_arity_mismatch_is_error() {
    let db = db_with_people();
    assert!(matches!(
        db.query("SELECT name FROM person UNION SELECT name, age FROM person"),
        Err(Error::Plan(_))
    ));
}

#[test]
fn ctes_thread_through() {
    let db = db_with_people();
    let rel = db
        .query(
            "WITH locals AS (SELECT name, age FROM person WHERE city = 'london'),
                  old AS (SELECT name FROM locals WHERE age > 40)
             SELECT o.name FROM old AS o",
        )
        .unwrap();
    assert_eq!(rows(&rel), vec![vec!["alan"]]);
}

#[test]
fn case_and_coalesce() {
    let db = db_with_people();
    let rel = db
        .query(
            "SELECT name,
                    CASE WHEN age >= 70 THEN 'old' ELSE 'young' END AS band,
                    COALESCE(city, 'unknown') AS c
             FROM person ORDER BY name",
        )
        .unwrap();
    assert_eq!(
        rows(&rel),
        vec![
            vec!["ada", "young", "london"],
            vec!["alan", "young", "london"],
            vec!["edsger", "old", "unknown"],
            vec!["grace", "old", "ny"],
        ]
    );
}

#[test]
fn unnest_flips_columns_to_rows() {
    // The paper's Fig. 13 uses DB2's TABLE(T.valm, T.val0) to turn the CASE
    // projections of an OR-merged star into one row per present predicate.
    let mut db = Database::new();
    db.execute("CREATE TABLE t (a TEXT, b TEXT)").unwrap();
    db.execute("INSERT INTO t VALUES ('x', NULL), (NULL, 'y'), ('p', 'q')").unwrap();
    let rel = db
        .query("SELECT l.v FROM t, UNNEST (t.a, t.b) AS L(v) ORDER BY l.v")
        .unwrap();
    assert_eq!(rows(&rel), vec![vec!["p"], vec!["q"], vec!["x"], vec!["y"]]);
}

#[test]
fn unnest_tuples_keep_pairs_together() {
    let mut db = Database::new();
    db.execute("CREATE TABLE t (p0 TEXT, v0 TEXT, p1 TEXT, v1 TEXT)").unwrap();
    db.execute("INSERT INTO t VALUES ('born', '1912', 'died', '1954')").unwrap();
    db.execute("INSERT INTO t VALUES (NULL, NULL, 'died', '1990')").unwrap();
    let rel = db
        .query(
            "SELECT l.p, l.v FROM t, UNNEST ((t.p0, t.v0), (t.p1, t.v1)) AS L(p, v)
             ORDER BY l.v",
        )
        .unwrap();
    assert_eq!(
        rows(&rel),
        vec![vec!["born", "1912"], vec!["died", "1954"], vec!["died", "1990"]]
    );
}

#[test]
fn distinct_order_limit_offset() {
    let db = db_with_people();
    let rel = db.query("SELECT DISTINCT city FROM person WHERE city IS NOT NULL ORDER BY city DESC LIMIT 1 OFFSET 1").unwrap();
    assert_eq!(rows(&rel), vec![vec!["london"]]);
}

#[test]
fn aggregates_group_by_having() {
    let db = db_with_people();
    let rel = db
        .query(
            "SELECT city, COUNT(*) AS n, AVG(age) AS a, MIN(age) AS lo, MAX(age) AS hi
             FROM person WHERE city IS NOT NULL GROUP BY city HAVING COUNT(*) > 1",
        )
        .unwrap();
    assert_eq!(rows(&rel), vec![vec!["london", "2", "38.5", "36", "41"]]);
}

#[test]
fn distinct_aggregates() {
    let mut db = Database::new();
    db.execute("CREATE TABLE t (k INTEGER, v INTEGER)").unwrap();
    for (k, v) in [(1, 10), (1, 10), (1, 20), (2, 5), (2, 5), (2, 5)] {
        db.execute(&format!("INSERT INTO t VALUES ({k}, {v})")).unwrap();
    }
    let rel = db
        .query(
            "SELECT k, COUNT(DISTINCT v) AS n, SUM(DISTINCT v) AS s, COUNT(v) AS all_n
             FROM t GROUP BY k ORDER BY k",
        )
        .unwrap();
    assert_eq!(rows(&rel), vec![vec!["1", "2", "30", "3"], vec!["2", "1", "5", "3"]]);
    // DISTINCT over an empty global group still yields one row.
    let rel = db.query("SELECT COUNT(DISTINCT v) AS n FROM t WHERE v > 1000").unwrap();
    assert_eq!(rel.rows[0], vec![Value::Int(0)]);
}

#[test]
fn min_max_tie_prefers_int_over_double() {
    // An Int and a Double of equal value compare Equal under total_cmp; the
    // retained MIN/MAX representative must not depend on row order, so the
    // Int wins regardless of which arrives first.
    let mut db = Database::new();
    db.execute("CREATE TABLE m (v DOUBLE)").unwrap();
    db.execute("INSERT INTO m VALUES (1.0), (1), (2), (2.0)").unwrap();
    let rel = db.query("SELECT MIN(v) AS lo, MAX(v) AS hi FROM m").unwrap();
    assert_eq!(rel.rows[0], vec![Value::Int(1), Value::Int(2)]);
}

#[test]
fn global_aggregate_on_empty_input() {
    let db = db_with_people();
    let rel = db.query("SELECT COUNT(*) AS n, SUM(age) AS s FROM person WHERE age > 1000").unwrap();
    assert_eq!(rel.rows[0], vec![Value::Int(0), Value::Null]);
}

#[test]
fn in_list_and_like() {
    let db = db_with_people();
    let rel = db
        .query("SELECT name FROM person WHERE city IN ('ny', 'paris') OR name LIKE 'a%a'")
        .unwrap();
    assert_eq!(rel.rows.len(), 2); // grace (ny), ada (a%a)
}

#[test]
fn cast_and_arithmetic() {
    let db = db_with_people();
    let rel = db
        .query("SELECT name, CAST(age AS DOUBLE) / 2 AS half FROM person WHERE name = 'ada'")
        .unwrap();
    assert_eq!(rel.rows[0][1], Value::Double(18.0));
    let rel = db.query("SELECT 7 / 2 AS a, 7.0 / 2 AS b, 1 + 2 * 3 AS c").unwrap();
    assert_eq!(rel.rows[0], vec![Value::Int(3), Value::Double(3.5), Value::Int(7)]);
}

#[test]
fn subquery_in_from() {
    let db = db_with_people();
    let rel = db
        .query(
            "SELECT s.name FROM (SELECT name, age FROM person WHERE age > 40) AS s
             WHERE s.age < 50",
        )
        .unwrap();
    assert_eq!(rows(&rel), vec![vec!["alan"]]);
}

#[test]
fn scalar_functions() {
    let db = Database::new();
    let rel = db
        .query(
            "SELECT LOWER('AbC') AS a, UPPER('x') AS b, LENGTH('héllo') AS c,
                    SUBSTR('hello', 2, 3) AS d, REPLACE('aXa', 'X', 'y') AS e,
                    'a' || 'b' || 1 AS f",
        )
        .unwrap();
    assert_eq!(
        rel.rows[0],
        vec![
            Value::str("abc"),
            Value::str("X"),
            Value::Int(5),
            Value::str("ell"),
            Value::str("aya"),
            Value::str("ab1"),
        ]
    );
}

#[test]
fn registered_custom_function() {
    let mut db = Database::new();
    db.register_function("twice", |args| {
        Ok(match args[0].as_f64() {
            Some(x) => Value::Double(2.0 * x),
            None => Value::Null,
        })
    });
    let rel = db.query("SELECT TWICE(21) AS x").unwrap();
    assert_eq!(rel.rows[0][0], Value::Double(42.0));
}

#[test]
fn unknown_table_and_column_errors() {
    let db = db_with_people();
    assert!(matches!(db.query("SELECT x FROM nope"), Err(Error::Plan(_))));
    assert!(matches!(db.query("SELECT nope FROM person"), Err(Error::Plan(_))));
}

#[test]
fn ambiguous_column_is_error() {
    let mut db = db_with_people();
    db.execute("CREATE TABLE other (name TEXT)").unwrap();
    db.execute("INSERT INTO other VALUES ('z')").unwrap();
    assert!(matches!(
        db.query("SELECT name FROM person, other"),
        Err(Error::Plan(_))
    ));
}

#[test]
fn row_budget_stops_cross_products() {
    let mut db = Database::new();
    db.execute("CREATE TABLE t (a INT)").unwrap();
    let vals: Vec<String> = (0..1000).map(|i| format!("({i})")).collect();
    db.execute(&format!("INSERT INTO t VALUES {}", vals.join(","))).unwrap();
    db.set_row_budget(Some(10_000));
    let err = db.query("SELECT x.a FROM t AS x, t AS y").unwrap_err();
    assert_eq!(err, Error::LimitExceeded);
    db.set_row_budget(None);
    assert!(db.query("SELECT COUNT(*) AS n FROM t AS x, t AS y").is_ok());
}

#[test]
fn index_probe_matches_full_scan() {
    let mut db = Database::new();
    db.execute("CREATE TABLE t (k TEXT, v INT)").unwrap();
    for chunk in (0..500).collect::<Vec<_>>().chunks(100) {
        let vals: Vec<String> =
            chunk.iter().map(|i| format!("('k{}', {i})", i % 37)).collect();
        db.execute(&format!("INSERT INTO t VALUES {}", vals.join(","))).unwrap();
    }
    let unindexed = db.query("SELECT v FROM t WHERE k = 'k5' ORDER BY v").unwrap();
    db.execute("CREATE INDEX ON t(k)").unwrap();
    let indexed = db.query("SELECT v FROM t WHERE k = 'k5' ORDER BY v").unwrap();
    assert_eq!(unindexed, indexed);
    assert!(!indexed.rows.is_empty());
}

#[test]
fn insert_with_column_list_fills_nulls() {
    let mut db = Database::new();
    db.execute("CREATE TABLE t (a INT, b TEXT, c INT)").unwrap();
    let out = db.execute("INSERT INTO t (c, a) VALUES (3, 1)").unwrap();
    assert_eq!(out, ExecOutcome::Inserted(1));
    let rel = db.query("SELECT a, b, c FROM t").unwrap();
    assert_eq!(rel.rows[0], vec![Value::Int(1), Value::Null, Value::Int(3)]);
}

#[test]
fn order_by_nulls_first_and_desc() {
    let db = db_with_people();
    let rel = db.query("SELECT city FROM person ORDER BY city").unwrap();
    assert_eq!(rel.rows[0][0], Value::Null);
    let rel = db.query("SELECT city FROM person ORDER BY city DESC").unwrap();
    assert_eq!(rel.rows[3][0], Value::Null);
}

#[test]
fn wildcard_and_qualified_wildcard() {
    let mut db = Database::new();
    db.execute("CREATE TABLE a (x INT)").unwrap();
    db.execute("CREATE TABLE b (y INT)").unwrap();
    db.execute("INSERT INTO a VALUES (1)").unwrap();
    db.execute("INSERT INTO b VALUES (2)").unwrap();
    let rel = db.query("SELECT * FROM a, b").unwrap();
    assert_eq!(rel.rows[0], vec![Value::Int(1), Value::Int(2)]);
    let rel = db.query("SELECT b.* FROM a, b").unwrap();
    assert_eq!(rel.rows[0], vec![Value::Int(2)]);
}

#[test]
fn nested_union_in_cte() {
    let db = db_with_people();
    let rel = db
        .query(
            "WITH u AS (SELECT name FROM person WHERE age < 40
                        UNION ALL SELECT name FROM person WHERE age > 80)
             SELECT COUNT(*) AS n FROM u",
        )
        .unwrap();
    assert_eq!(rel.rows[0][0], Value::Int(2));
}

#[test]
fn cross_type_equality_is_false_not_error() {
    let db = db_with_people();
    let rel = db.query("SELECT name FROM person WHERE name = 36").unwrap();
    assert!(rel.rows.is_empty());
}

#[test]
fn select_without_from() {
    let db = Database::new();
    let rel = db.query("SELECT 1 + 1 AS x, 'a' AS y").unwrap();
    assert_eq!(rel.rows, vec![vec![Value::Int(2), Value::str("a")]]);
}

/// `db_with_people` plus `capital(city, country)` with London and New York.
fn db_with_capitals(threads: usize) -> Database {
    let mut db = db_with_people();
    db.set_threads(Some(threads));
    db.execute("CREATE TABLE capital (city TEXT, country TEXT)").unwrap();
    db.execute("INSERT INTO capital VALUES ('london', 'uk'), ('ny', 'us')").unwrap();
    db
}

// The WHERE residue: conjuncts no FROM step enforces are applied after the
// joins. Each case below keeps at least one conjunct there.

#[test]
fn residue_column_free_conjunct() {
    for threads in [1, 4] {
        let db = db_with_capitals(threads);
        let rel = db
            .query("SELECT p.name FROM person p, capital c WHERE p.city = c.city AND 1 = 0")
            .unwrap();
        assert!(rel.rows.is_empty(), "threads {threads}");
        let rel = db.query("SELECT name FROM person WHERE 1 = 1 AND city = 'ny'").unwrap();
        assert_eq!(rows(&rel), vec![vec!["grace"]], "threads {threads}");
    }
}

#[test]
fn residue_conjunct_first_covered_at_unnest() {
    for threads in [1, 4] {
        let mut db = Database::new();
        db.set_threads(Some(threads));
        db.execute("CREATE TABLE t (k INT, a TEXT, b TEXT)").unwrap();
        db.execute("INSERT INTO t VALUES (1, 'x', NULL), (2, NULL, 'y'), (3, 'p', 'q')").unwrap();
        let rel = db
            .query(
                "SELECT t.k, l.v FROM t, UNNEST (t.a, t.b) AS L(v)
                 WHERE t.k > 1 AND l.v <> 'q' ORDER BY l.v",
            )
            .unwrap();
        assert_eq!(rows(&rel), vec![vec!["3", "p"], vec!["2", "y"]], "threads {threads}");
    }
}

#[test]
fn residue_conjunct_over_a_first_item_subquery() {
    for threads in [1, 4] {
        let db = db_with_capitals(threads);
        let rel = db
            .query(
                "SELECT s.name, c.country FROM (SELECT name, city, age FROM person) AS s
                 JOIN capital c ON s.city = c.city WHERE s.age > 40 ORDER BY s.name",
            )
            .unwrap();
        assert_eq!(rows(&rel), vec![vec!["alan", "uk"], vec!["grace", "us"]], "threads {threads}");
    }
}

#[test]
fn residue_left_join_anti_join() {
    for threads in [1, 4] {
        let mut db = db_with_capitals(threads);
        db.execute("INSERT INTO person VALUES ('marie', 66, 'paris')").unwrap();
        let anti = "SELECT p.name FROM person p LEFT JOIN capital c ON p.city = c.city
                    WHERE c.country IS NULL ORDER BY p.name";
        // Hash join, then index nested-loop join, on the same data.
        let hashed = db.query(anti).unwrap();
        db.execute("CREATE INDEX ON capital(city)").unwrap();
        let probed = db.query(anti).unwrap();
        assert_eq!(rows(&hashed), vec![vec!["edsger"], vec!["marie"]], "threads {threads}");
        assert_eq!(hashed, probed, "threads {threads}");
    }
}

#[test]
fn residue_type_error_still_raises() {
    for threads in [1, 4] {
        let db = db_with_capitals(threads);
        // `p.city = 'ny'` is pushed into the scan; `NOT l.v` is first covered
        // at the UNNEST step, so it is the residue, and grace's age is no
        // boolean.
        let q = |city: &str| {
            db.query(&format!(
                "SELECT p.name FROM person p, UNNEST (p.age) AS L(v)
                 WHERE p.city = '{city}' AND NOT l.v"
            ))
        };
        assert!(matches!(q("ny"), Err(Error::Exec(_))), "threads {threads}");
        // No row reaches the residue: nothing to raise on.
        assert!(q("paris").unwrap().rows.is_empty(), "threads {threads}");
    }
}
