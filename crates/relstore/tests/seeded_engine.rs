//! Property tests for the relational engine: null-compressed row storage is
//! lossless; index probes agree with full scans; hash joins agree with
//! nested-loop reference joins.
//!
//! Written as deterministic seeded-loop property tests (a fixed-seed
//! SplitMix64 drives the generators) so the suite needs no external
//! dependency and every run exercises exactly the same cases.

use relstore::SqlType::Int;
use relstore::{table_schema, CompressedRow, Database, Value};

/// Minimal SplitMix64 — local copy so the test crate stays dependency-free.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound as u64) as usize
    }

    fn int(&mut self, lo: i64, hi: i64) -> i64 {
        lo + self.below((hi - lo) as usize) as i64
    }

    fn string_from(&mut self, charset: &[char], max: usize) -> String {
        let len = self.below(max + 1);
        (0..len).map(|_| charset[self.below(charset.len())]).collect()
    }
}

fn arb_value(rng: &mut Rng) -> Value {
    match rng.below(11) {
        0..=2 => Value::Null,
        3 | 4 => Value::Int(rng.next() as i64),
        5 | 6 => Value::Double((rng.below(2_000_000) as f64 - 1_000_000.0) / 1000.0),
        7 => Value::Bool(rng.below(2) == 0),
        _ => Value::str(rng.string_from(&['a', 'b', 'c', 'x', 'y', 'z'], 8)),
    }
}

#[test]
fn compressed_row_roundtrip() {
    let mut rng = Rng(0xC0FFEE);
    for case in 0..300 {
        let vals: Vec<Value> = (0..rng.below(200)).map(|_| arb_value(&mut rng)).collect();
        let row = CompressedRow::from_values(&vals);
        assert_eq!(row.decompress(vals.len()), vals, "case {case}");
        for (i, v) in vals.iter().enumerate() {
            assert_eq!(&row.get(i), v, "case {case} col {i}");
        }
        assert_eq!(row.non_null_count(), vals.iter().filter(|v| !v.is_null()).count());
    }
}

#[test]
fn index_probe_equals_scan() {
    let mut rng = Rng(0xDB);
    for _ in 0..200 {
        let keys: Vec<i64> = (0..1 + rng.below(60)).map(|_| rng.int(0, 20)).collect();
        let probe = rng.int(0, 20);
        let mut db = Database::new();
        db.create_table(table_schema("t", &[("k", Int), ("pos", Int)])).unwrap();
        let rows: Vec<Vec<Value>> = keys
            .iter()
            .enumerate()
            .map(|(i, &k)| vec![Value::Int(k), Value::Int(i as i64)])
            .collect();
        db.insert_rows("t", rows).unwrap();
        let scan = db
            .query(&format!("SELECT pos FROM t WHERE k = {probe} ORDER BY pos"))
            .unwrap();
        db.create_index("t", "k").unwrap();
        let probed = db
            .query(&format!("SELECT pos FROM t WHERE k = {probe} ORDER BY pos"))
            .unwrap();
        assert_eq!(scan.rows, probed.rows);
    }
}

#[test]
fn joins_match_reference() {
    let mut rng = Rng(0x7010);
    for _ in 0..120 {
        let left: Vec<(i64, i64)> =
            (0..rng.below(25)).map(|_| (rng.int(0, 8), rng.int(0, 100))).collect();
        let right: Vec<(i64, i64)> =
            (0..rng.below(25)).map(|_| (rng.int(0, 8), rng.int(0, 100))).collect();

        let mut db = Database::new();
        db.create_table(table_schema("l", &[("k", Int), ("v", Int)])).unwrap();
        db.create_table(table_schema("r", &[("k", Int), ("w", Int)])).unwrap();
        db.insert_rows("l", left.iter().map(|&(k, v)| vec![Value::Int(k), Value::Int(v)]))
            .unwrap();
        db.insert_rows("r", right.iter().map(|&(k, w)| vec![Value::Int(k), Value::Int(w)]))
            .unwrap();

        // Reference inner join.
        let mut expected: Vec<(i64, i64, i64)> = Vec::new();
        for &(lk, lv) in &left {
            for &(rk, rw) in &right {
                if lk == rk {
                    expected.push((lk, lv, rw));
                }
            }
        }
        expected.sort_unstable();

        let fetch = |db: &Database| -> Vec<(i64, i64, i64)> {
            db.query("SELECT l.k, l.v, r.w FROM l, r WHERE l.k = r.k ORDER BY k, v, w")
                .unwrap()
                .rows
                .iter()
                .map(|r| match (&r[0], &r[1], &r[2]) {
                    (Value::Int(a), Value::Int(b), Value::Int(c)) => (*a, *b, *c),
                    other => panic!("unexpected row {other:?}"),
                })
                .collect()
        };
        assert_eq!(fetch(&db), expected);

        // Index nested-loop path must agree too.
        db.create_index("r", "k").unwrap();
        assert_eq!(fetch(&db), expected);
    }
}

#[test]
fn left_join_preserves_all_left_rows() {
    let mut rng = Rng(0x0517E6);
    for _ in 0..200 {
        let left: Vec<i64> = (0..rng.below(20)).map(|_| rng.int(0, 8)).collect();
        let right: Vec<i64> = (0..rng.below(20)).map(|_| rng.int(0, 8)).collect();
        let mut db = Database::new();
        db.create_table(table_schema("l", &[("k", Int)])).unwrap();
        db.create_table(table_schema("r", &[("k", Int)])).unwrap();
        db.insert_rows("l", left.iter().map(|&k| vec![Value::Int(k)])).unwrap();
        db.insert_rows("r", right.iter().map(|&k| vec![Value::Int(k)])).unwrap();
        let got = db
            .query("SELECT l.k, r.k AS rk FROM l LEFT OUTER JOIN r ON l.k = r.k")
            .unwrap();
        // Row count: every left row appears max(1, matches) times.
        let expected: usize = left
            .iter()
            .map(|lk| right.iter().filter(|rk| *rk == lk).count().max(1))
            .sum();
        assert_eq!(got.rows.len(), expected);
        // No left row lost.
        for &lk in &left {
            assert!(got.rows.iter().any(|r| r[0] == Value::Int(lk)));
        }
    }
}
