//! End-to-end SQL engine tests exercising every construct the DB2RDF
//! SPARQL→SQL translation emits (paper Figs. 12 & 13), plus general engine
//! semantics. The dialect has no DDL or INSERT, so tables are made through
//! the API.

use relstore::SqlType::{Double, Int, Text};
use relstore::{table_schema, Database, Error, Rel, SqlType, Value};

/// Create `name` with `cols`, holding `rows`.
fn table(db: &mut Database, name: &str, cols: &[(&str, SqlType)], rows: Vec<Vec<Value>>) {
    db.create_table(table_schema(name, cols)).unwrap();
    db.insert_rows(name, rows).unwrap();
}

fn s(v: &str) -> Value {
    Value::str(v)
}

fn i(v: i64) -> Value {
    Value::Int(v)
}

const NULL: Value = Value::Null;

fn db_with_people() -> Database {
    let mut db = Database::new();
    let people = vec![
        vec![s("ada"), i(36), s("london")],
        vec![s("alan"), i(41), s("london")],
        vec![s("grace"), i(85), s("ny")],
        vec![s("edsger"), i(72), NULL],
    ];
    table(&mut db, "person", &[("name", Text), ("age", Int), ("city", Text)], people);
    db
}

/// `capital(city, country)` holding `rows` of (city, country).
fn capitals(db: &mut Database, rows: &[(&str, &str)]) {
    let data = rows.iter().map(|(c, k)| vec![s(c), s(k)]).collect();
    table(db, "capital", &[("city", Text), ("country", Text)], data);
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
    capitals(&mut db, &[("london", "uk"), ("paris", "fr")]);
    let rel = db
        .query(
            "SELECT p.name, c.country FROM person AS p, capital AS c
             WHERE p.city = c.city ORDER BY p.name",
        )
        .unwrap();
    assert_eq!(rows(&rel), vec![vec!["ada", "uk"], vec!["alan", "uk"]]);
}

#[test]
fn left_outer_join_pads_nulls() {
    let mut db = db_with_people();
    capitals(&mut db, &[("london", "uk")]);
    let rel = db
        .query(
            "SELECT p.name, c.country FROM person AS p
             LEFT OUTER JOIN capital AS c ON p.city = c.city ORDER BY p.name",
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
    table(&mut db, "l", &[("k", Int)], vec![vec![i(1)], vec![i(2)]]);
    let r = vec![vec![i(1), i(10)], vec![i(1), i(99)], vec![i(2), i(99)]];
    table(&mut db, "r", &[("k", Int), ("v", Int)], r);
    // Residual v < 50 filters matches; row 2 keeps the left side.
    let rel = db
        .query("SELECT l.k, r.v FROM l LEFT OUTER JOIN r ON l.k = r.k AND r.v < 50 ORDER BY l.k")
        .unwrap();
    assert_eq!(rows(&rel), vec![vec!["1", "10"], vec!["2", "NULL"]]);
}

#[test]
fn union_all_and_distinct_over_it() {
    let db = db_with_people();
    let rel = db
        .query("SELECT city FROM person WHERE name = 'ada' UNION ALL SELECT city FROM person WHERE name = 'alan'")
        .unwrap();
    assert_eq!(rel.rows.len(), 2);
    let rel = db
        .query(
            "WITH u AS (SELECT city FROM person WHERE name = 'ada'
                        UNION ALL SELECT city FROM person WHERE name = 'alan')
             SELECT DISTINCT city FROM u",
        )
        .unwrap();
    assert_eq!(rel.rows.len(), 1);
}

#[test]
fn union_arity_mismatch_is_error() {
    let db = db_with_people();
    assert!(matches!(
        db.query("SELECT name FROM person UNION ALL SELECT name, age FROM person"),
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
    let data = vec![vec![s("x"), NULL], vec![NULL, s("y")], vec![s("p"), s("q")]];
    table(&mut db, "t", &[("a", Text), ("b", Text)], data);
    let rel = db
        .query("SELECT l.v FROM t, UNNEST (t.a, t.b) AS L(v) ORDER BY l.v")
        .unwrap();
    assert_eq!(rows(&rel), vec![vec!["p"], vec!["q"], vec!["x"], vec!["y"]]);
}

#[test]
fn unnest_tuples_keep_pairs_together() {
    let mut db = Database::new();
    let data = vec![
        vec![s("born"), s("1912"), s("died"), s("1954")],
        vec![NULL, NULL, s("died"), s("1990")],
    ];
    table(&mut db, "t", &[("p0", Text), ("v0", Text), ("p1", Text), ("v1", Text)], data);
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
    let data = [(1, 10), (1, 10), (1, 20), (2, 5), (2, 5), (2, 5)];
    table(&mut db, "t", &[("k", Int), ("v", Int)], data.map(|(k, v)| vec![i(k), i(v)]).into());
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
    let data = [Value::Double(1.0), i(1), i(2), Value::Double(2.0)];
    table(&mut db, "m", &[("v", Double)], data.map(|v| vec![v]).into());
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
fn arithmetic() {
    let db = db_with_people();
    let rel = db
        .query("SELECT name, (1.0 * age) / 2 AS half FROM person WHERE name = 'ada'")
        .unwrap();
    assert_eq!(rel.rows[0][1], Value::Double(18.0));
    let rel = db.query("SELECT 7 / 2 AS a, 7.0 / 2 AS b, 1 + 2 * 3 AS c").unwrap();
    assert_eq!(rel.rows[0], vec![Value::Int(3), Value::Double(3.5), Value::Int(7)]);
}

#[test]
fn cte_in_place_of_a_subquery() {
    let db = db_with_people();
    let rel = db
        .query(
            "WITH s AS (SELECT name, age FROM person WHERE age > 40)
             SELECT s.name FROM s WHERE s.age < 50",
        )
        .unwrap();
    assert_eq!(rows(&rel), vec![vec!["alan"]]);
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

/// An integer ORDER BY key is no column position: it is refused, never
/// a silent sort by a constant.
#[test]
fn order_by_an_integer_is_a_plan_error() {
    let db = db_with_people();
    for sql in ["SELECT name, age FROM person ORDER BY 2", "SELECT name FROM person ORDER BY age, 1"]
    {
        assert!(matches!(db.query(sql), Err(Error::Plan(_))), "{sql}");
    }
}

#[test]
fn ambiguous_column_is_error() {
    let mut db = db_with_people();
    table(&mut db, "other", &[("name", Text)], vec![vec![s("z")]]);
    assert!(matches!(
        db.query("SELECT name FROM person, other"),
        Err(Error::Plan(_))
    ));
}

#[test]
fn row_budget_stops_cross_products() {
    let mut db = Database::new();
    table(&mut db, "t", &[("a", Int)], (0..1000).map(|v| vec![i(v)]).collect());
    db.set_row_budget(Some(10_000));
    let err = db.query("SELECT x.a FROM t AS x, t AS y").unwrap_err();
    assert_eq!(err, Error::LimitExceeded);
    db.set_row_budget(None);
    assert!(db.query("SELECT COUNT(*) AS n FROM t AS x, t AS y").is_ok());
}

#[test]
fn index_probe_matches_full_scan() {
    let mut db = Database::new();
    let data = (0..500).map(|v| vec![s(&format!("k{}", v % 37)), i(v)]).collect();
    table(&mut db, "t", &[("k", Text), ("v", Int)], data);
    let unindexed = db.query("SELECT v FROM t WHERE k = 'k5' ORDER BY v").unwrap();
    db.create_index("t", "k").unwrap();
    let indexed = db.query("SELECT v FROM t WHERE k = 'k5' ORDER BY v").unwrap();
    assert_eq!(unindexed, indexed);
    assert!(!indexed.rows.is_empty());
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
fn wildcard_projects_every_factor() {
    let mut db = Database::new();
    table(&mut db, "a", &[("x", Int)], vec![vec![i(1)]]);
    table(&mut db, "b", &[("y", Int)], vec![vec![i(2)]]);
    let rel = db.query("SELECT * FROM a, b").unwrap();
    assert_eq!(rel.rows[0], vec![Value::Int(1), Value::Int(2)]);
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
    capitals(&mut db, &[("london", "uk"), ("ny", "us")]);
    db
}

// The WHERE residue: conjuncts no FROM step enforces are applied after the
// joins. Each case below keeps at least one conjunct there.

#[test]
fn residue_column_free_conjunct() {
    for threads in [1, 4] {
        let db = db_with_capitals(threads);
        let rel = db
            .query("SELECT p.name FROM person AS p, capital AS c WHERE p.city = c.city AND 1 = 0")
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
        let data = vec![
            vec![i(1), s("x"), NULL],
            vec![i(2), NULL, s("y")],
            vec![i(3), s("p"), s("q")],
        ];
        table(&mut db, "t", &[("k", Int), ("a", Text), ("b", Text)], data);
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
fn residue_left_join_anti_join() {
    for threads in [1, 4] {
        let mut db = db_with_capitals(threads);
        db.insert_rows("person", [vec![s("marie"), i(66), s("paris")]]).unwrap();
        let anti = "SELECT p.name FROM person AS p LEFT OUTER JOIN capital AS c ON p.city = c.city
                    WHERE c.country IS NULL ORDER BY p.name";
        // Hash join, then index nested-loop join, on the same data.
        let hashed = db.query(anti).unwrap();
        db.create_index("capital", "city").unwrap();
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
                "SELECT p.name FROM person AS p, UNNEST (p.age) AS L(v)
                 WHERE p.city = '{city}' AND NOT l.v"
            ))
        };
        assert!(matches!(q("ny"), Err(Error::Exec(_))), "threads {threads}");
        // No row reaches the residue: nothing to raise on.
        assert!(q("paris").unwrap().rows.is_empty(), "threads {threads}");
    }
}
