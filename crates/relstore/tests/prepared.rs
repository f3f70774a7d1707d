//! Prepared statements: one compiled plan runs on every snapshot of the
//! database it was prepared on and answers exactly as a fresh
//! `Database::query` there, with the exact per-node counts the snapshot
//! implies, and refuses — rather than misreads — a snapshot whose tables
//! changed shape.

use relstore::NodeKind::{self, *};
use relstore::SqlType::{Int, Text};
use relstore::{
    table_schema, Database, Error, NodeStat, PhaseTimings, Prepared, Rel, SqlType, Value,
};

/// The statements every snapshot runs: index probe, index nested-loop join
/// (inner and left outer), hash join, a CTE read twice, UNION ALL under
/// DISTINCT, aggregation with HAVING, UNNEST over a CTE, DISTINCT and a
/// wildcard.
const QUERIES: [&str; 10] = [
    "SELECT v, tag FROM fact WHERE k = 13 ORDER BY v",
    "SELECT d.w, f.v FROM dim AS d, fact AS f WHERE f.k = d.k AND d.w < 5000",
    "SELECT f.v, d.w FROM fact AS f LEFT OUTER JOIN dim AS d ON f.k = d.k AND d.w > 90000 \
     WHERE f.v < 300 ORDER BY f.v",
    "SELECT f.v, t.code FROM fact AS f, tagmap AS t WHERE f.tag = t.tag AND f.v < 500",
    PAIRS,
    "WITH c AS (SELECT k FROM fact WHERE v < 100), \
     u AS (SELECT k FROM c UNION ALL SELECT k FROM dim WHERE w > 95000) \
     SELECT DISTINCT k FROM u ORDER BY k",
    "SELECT k, COUNT(*) AS n, SUM(v) AS s FROM fact GROUP BY k HAVING COUNT(*) > 40 ORDER BY k",
    "WITH s AS (SELECT k, w FROM dim WHERE k < 10) \
     SELECT s.k, u.x FROM s, UNNEST ((s.k, 1), (s.w, 2)) AS u(x, y) ORDER BY s.k, u.x",
    "SELECT DISTINCT tag, k FROM fact",
    "SELECT * FROM dim WHERE k = 5",
];

/// Pairs of `fact` rows under v < 2000 sharing a key: the CTE is read
/// twice, so the first scan gets a copy and the second the rows.
const PAIRS: &str = "WITH c AS (SELECT k, v FROM fact WHERE v < 2000) \
     SELECT a.v AS av, b.v AS bv FROM c AS a, c AS b WHERE a.k = b.k AND a.v < b.v ORDER BY av, bv";

/// `fact` (indexed on k), `dim` (indexed on k) and `tagmap` (no index),
/// with `fact` below one morsel; `rows` mirrors `fact` as (k, v).
fn fixture() -> (Database, Vec<(i64, i64)>) {
    let mut db = Database::new();
    db.create_table(table_schema("fact", &[("k", Int), ("v", Int), ("tag", Text)])).unwrap();
    db.create_table(table_schema("dim", &[("k", Int), ("w", Int)])).unwrap();
    db.create_table(table_schema("tagmap", &[("tag", Text), ("code", Int)])).unwrap();
    db.create_index("fact", "k").unwrap();
    db.create_index("dim", "k").unwrap();
    let mut rows = Vec::new();
    insert_facts(&mut db, &mut rows, 0..3000);
    db.insert_rows("dim", (0..97i64).map(|k| vec![Value::Int(k), Value::Int(k * 1000)])).unwrap();
    db.insert_rows("tagmap", [vec![Value::str("fizz"), Value::Int(3)]]).unwrap();
    (db, rows)
}

fn insert_facts(db: &mut Database, rows: &mut Vec<(i64, i64)>, ids: std::ops::Range<i64>) {
    let tag = |i: i64| Value::str(if i % 3 == 0 { "fizz" } else { "plain" });
    db.insert_rows("fact", ids.clone().map(|i| vec![Value::Int(i % 97), Value::Int(i), tag(i)]))
        .unwrap();
    rows.extend(ids.map(|i| (i % 97, i)));
}

/// [`PAIRS`]' answer computed from the mirror, independently of the engine.
fn expected_pairs(rows: &[(i64, i64)]) -> Vec<Vec<Value>> {
    let c: Vec<(i64, i64)> = rows.iter().copied().filter(|&(_, v)| v < 2000).collect();
    let mut out: Vec<(i64, i64)> = c
        .iter()
        .flat_map(|a| c.iter().filter(move |b| a.0 == b.0 && a.1 < b.1).map(move |b| (a.1, b.1)))
        .collect();
    out.sort_unstable();
    out.into_iter().map(|(a, b)| vec![Value::Int(a), Value::Int(b)]).collect()
}

/// The profile of one run of `p` on `db`, checked to sum into its phases.
fn profile(p: &Prepared, db: &Database) -> Vec<NodeStat> {
    let (_, profile) = p.run_profiled(db).unwrap();
    let secs = |kinds: &[NodeKind]| {
        let ns: u64 = profile.nodes.iter().filter(|n| kinds.contains(&n.kind)).map(|n| n.ns).sum();
        ns as f64 / 1e9
    };
    let phases = PhaseTimings {
        scan_secs: secs(&[TableScan, CteRead]),
        build_secs: secs(&[HashBuild]),
        probe_secs: secs(&[IndexJoin, HashProbe]),
        agg_secs: secs(&[Aggregate]),
    };
    assert_eq!(profile.phases(), phases);
    profile.nodes
}

/// The one record of `kind` in `nodes`.
fn only(nodes: &[NodeStat], kind: NodeKind) -> NodeStat {
    let mut of_kind = nodes.iter().filter(|n| n.kind == kind);
    let node = *of_kind.next().unwrap_or_else(|| panic!("no {kind:?} in {nodes:?}"));
    assert!(of_kind.next().is_none(), "two {kind:?} in {nodes:?}");
    node
}

/// The counts [`QUERIES`]' profiles must report on `db`, whose `fact`
/// rows `mirror` holds: scans gather every row or exactly the index hits,
/// an index join looks up once per left row, a hash join builds once and
/// probes once, and the CTE read twice is stored once for two readers.
fn check_counts(db: &Database, mirror: &[(i64, i64)], prepared: &[Prepared], at: &str) {
    let count = |keep: &dyn Fn(i64, i64) -> bool| {
        mirror.iter().filter(|&&(k, v)| keep(k, v)).count()
    };
    let hits = |table: &str, k: i64| {
        let index = db.table(table).unwrap().index_on("k").unwrap();
        index.lookup(&Value::Int(k)).len()
    };
    let nodes: Vec<_> = prepared.iter().map(|p| profile(p, db)).collect();

    let probe = only(&nodes[0], TableScan);
    let want = (hits("fact", 13), count(&|k, _| k == 13));
    assert_eq!((probe.gathered, probe.rows_out), want, "{at}");
    assert_eq!(only(&nodes[9], TableScan).gathered, hits("dim", 5), "{at}");

    // dim has 97 rows, 5 of them under w = 5000 (k < 5).
    assert_eq!(nodes[1][0].kind, TableScan, "{at}");
    assert_eq!(nodes[1][0].gathered, db.table("dim").unwrap().row_count(), "{at}");
    let inner = only(&nodes[1], IndexJoin);
    assert_eq!((inner.rows_in, inner.gathered), (5, count(&|k, _| k < 5)), "{at}");
    let outer = only(&nodes[2], IndexJoin);
    let lookups = mirror.iter().filter(|&&(_, v)| v < 300);
    let dim_hits = lookups.clone().map(|&(k, _)| hits("dim", k)).sum();
    assert_eq!((outer.rows_in, outer.gathered), (lookups.count(), dim_hits), "{at}");

    assert_eq!(nodes[3][0].kind, TableScan, "{at}");
    assert_eq!(nodes[3][0].gathered, mirror.len(), "{at}");
    let tagmap = db.table("tagmap").unwrap().row_count();
    assert_eq!(only(&nodes[3], HashBuild).rows_in, tagmap, "{at}");
    assert_eq!(only(&nodes[3], HashProbe).rows_in, count(&|_, v| v < 500), "{at}");

    let stored = count(&|_, v| v < 2000);
    let ctes: Vec<_> = nodes[4].iter().filter(|n| matches!(n.kind, Cte { .. })).collect();
    assert!(matches!(ctes[..], [n] if n.kind == Cte { slot: 0, readers: 2 }), "{at}: {ctes:?}");
    assert_eq!(ctes[0].rows_out, stored, "{at}");
    let reads: Vec<_> = nodes[4].iter().filter(|n| n.kind == CteRead).map(|n| n.rows_in).collect();
    assert_eq!(reads, [stored, stored], "{at}");
}

#[test]
fn one_prepared_statement_serves_every_snapshot() {
    let (mut db, mut rows) = fixture();
    let prepared: Vec<_> = QUERIES.iter().map(|q| db.prepare(q).unwrap()).collect();

    // Each step leaves a snapshot behind: the initial state, growth past a
    // morsel, updates (one moves a row to another key), deletes (each
    // swaps the last row into the hole), and rows added to the other tables.
    let mut snapshots = vec![(db.snapshot_clone(), rows.clone())];
    insert_facts(&mut db, &mut rows, 3000..3000 + relstore::MORSEL_ROWS as i64);
    snapshots.push((db.snapshot_clone(), rows.clone()));
    for (rid, k, v) in [(5u32, 13, 1), (700, 13, 1999), (2500, 50, 7)] {
        db.update_cell("fact", rid, 0, Value::Int(k)).unwrap();
        db.update_cell("fact", rid, 1, Value::Int(v)).unwrap();
        rows[rid as usize] = (k, v);
    }
    snapshots.push((db.snapshot_clone(), rows.clone()));
    for rid in [0u32, 13, 1000] {
        db.delete_row("fact", rid).unwrap();
        rows.swap_remove(rid as usize);
    }
    snapshots.push((db.snapshot_clone(), rows.clone()));
    db.insert_rows("dim", [vec![Value::Int(13), Value::Int(95_500)]]).unwrap();
    db.insert_rows("tagmap", [vec![Value::str("plain"), Value::Int(1)]]).unwrap();
    snapshots.push((db.snapshot_clone(), rows.clone()));

    for (i, (snapshot, mirror)) in snapshots.iter_mut().enumerate() {
        let pairs = expected_pairs(mirror);
        assert!(pairs.len() > 10_000, "fixture sanity: {} pairs", pairs.len());
        for threads in [1, 2, 4] {
            snapshot.set_threads(Some(threads));
            for (q, p) in QUERIES.iter().zip(&prepared) {
                let fresh = snapshot.query(q).unwrap();
                for run in 0..2 {
                    let got: Rel = p.run(snapshot).unwrap();
                    assert_eq!(got, fresh, "snapshot {i}, threads {threads}, run {run}: {q}");
                }
            }
            assert_eq!(
                prepared[4].run(snapshot).unwrap().rows,
                pairs,
                "snapshot {i}, threads {threads}"
            );
            check_counts(snapshot, mirror, &prepared, &format!("snapshot {i}, threads {threads}"));
        }
    }
}

/// A table that changed shape after `prepare` is refused with
/// `Error::Stale` before a row is read — never served from the old column
/// positions or access paths — while a fresh prepare sees the new shape.
#[test]
fn a_changed_shape_is_refused_not_misread() {
    let (db, _) = fixture();
    let wildcard = db.prepare("SELECT * FROM dim WHERE k = 5").unwrap();
    let scan = db.prepare("SELECT code FROM tagmap WHERE tag = 'fizz'").unwrap();

    let mut widened = db.snapshot_clone();
    widened.table_mut("dim").unwrap().widen(vec![("extra".into(), SqlType::Int)]);
    assert!(matches!(wildcard.run(&widened), Err(Error::Stale(_))));
    assert_eq!(widened.query("SELECT * FROM dim WHERE k = 5").unwrap().cols.len(), 3);

    // Rebuilding the probed index, and indexing a scanned column, each
    // change the access path a fresh compile would choose.
    let mut reindexed = db.snapshot_clone();
    reindexed.create_index("dim", "k").unwrap();
    assert!(matches!(wildcard.run(&reindexed), Err(Error::Stale(_))));
    let mut indexed = db.snapshot_clone();
    indexed.create_index("tagmap", "tag").unwrap();
    assert!(matches!(scan.run(&indexed), Err(Error::Stale(_))));

    // The database it was prepared on still runs it.
    assert_eq!(wildcard.run(&db).unwrap(), db.query("SELECT * FROM dim WHERE k = 5").unwrap());
    assert_eq!(scan.run(&db).unwrap().rows, vec![vec![Value::Int(3)]]);
}
