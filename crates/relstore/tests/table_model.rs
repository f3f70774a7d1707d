//! Model-based property test for the chunked, copy-on-write table: seeded
//! random insert / update / delete sequences that grow a table across
//! several row chunks, shrink it to empty and grow it again — including
//! `swap_remove` of the last row of a full chunk and of a one-row tail
//! chunk — checked after every op against a `Vec<Vec<Value>>` model with a
//! naive index. Reader snapshots taken between ops must never change, no
//! matter what the writer does afterwards.
//!
//! A deterministic seeded loop (SplitMix64), like the other property tests
//! in this crate, so every run exercises exactly the same cases.

use std::collections::HashMap;

use relstore::{table_schema, Database, SqlType, Value, CHUNK_ROWS};

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
}

/// Column `k`: a small key domain (long per-key row lists), sometimes NULL.
fn key(rng: &mut Rng) -> Value {
    match rng.below(10) {
        0 => Value::Null,
        _ => Value::Int(rng.below(40) as i64),
    }
}

/// Column `v`: a wide domain (mostly unique keys), sometimes NULL.
fn val(rng: &mut Rng) -> Value {
    match rng.below(8) {
        0 => Value::Null,
        _ => Value::Int(rng.below(100_000) as i64),
    }
}

fn row(rng: &mut Rng) -> Vec<Value> {
    vec![key(rng), val(rng), Value::str(format!("s{}", rng.below(1000)))]
}

/// `db`'s table `t` holds exactly `model`: same rows at the same ids, and
/// every index lookup returns exactly the ids the naive index does.
fn assert_matches(db: &Database, model: &[Vec<Value>], what: &str) {
    let t = db.table("t").unwrap();
    assert_eq!(t.row_count(), model.len(), "{what}: row count");
    for (rid, want) in model.iter().enumerate() {
        assert_eq!(&t.row_values(rid as u32), want, "{what}: row {rid}");
    }
    for (ci, col) in [(0, "k"), (1, "v")] {
        let mut naive: HashMap<&Value, Vec<u32>> = HashMap::new();
        for (rid, r) in model.iter().enumerate() {
            if !r[ci].is_null() {
                naive.entry(&r[ci]).or_default().push(rid as u32);
            }
        }
        let index = t.index_on(col).unwrap();
        assert_eq!(index.distinct_keys(), naive.len(), "{what}: distinct keys on {col}");
        for (k, want) in &naive {
            let mut got = index.lookup(k).to_vec();
            got.sort_unstable();
            assert_eq!(&got, want, "{what}: lookup {col} = {k:?}");
        }
        assert!(index.lookup(&Value::Int(-7)).is_empty(), "{what}: absent key on {col}");
    }
}

/// An in-memory database with the empty table `t(k, v, s)`, indexed on `k`
/// and `v`.
fn indexed_db() -> Database {
    let mut db = Database::new();
    let cols = [("k", SqlType::Int), ("v", SqlType::Int), ("s", SqlType::Text)];
    db.create_table(table_schema("t", &cols)).unwrap();
    db.create_index("t", "k").unwrap();
    db.create_index("t", "v").unwrap();
    db
}

fn run(seed: u64) {
    let mut rng = Rng(seed);
    let mut db = indexed_db();
    let mut model: Vec<Vec<Value>> = Vec::new();
    let mut snapshots: Vec<(Database, Vec<Vec<Value>>)> = Vec::new();

    // Grow past three chunks, drain to empty, grow again, drain again.
    let phases = [(3 * CHUNK_ROWS + 40, true), (0, false), (2 * CHUNK_ROWS + 7, true), (0, false)];
    let mut step = 0usize;
    for (target, growing) in phases {
        while (growing && model.len() < target) || (!growing && model.len() > target) {
            step += 1;
            let n = model.len();
            // Ops: 0 insert, 1 update, 2 delete. Mostly move toward the
            // phase's target; sometimes edit in place or move away.
            let (toward, away) = if growing { (0, 2) } else { (2, 0) };
            let op = match rng.below(10) {
                0..=5 => toward,
                6 | 7 => 1,
                _ => away,
            };
            match op {
                0 => {
                    // While growing, a batch that often straddles a chunk
                    // boundary; while draining, one row.
                    let len = if growing { 1 + rng.below(CHUNK_ROWS / 4) } else { 1 };
                    let rows: Vec<Vec<Value>> = (0..len).map(|_| row(&mut rng)).collect();
                    model.extend(rows.iter().cloned());
                    db.insert_rows("t", rows).unwrap();
                }
                1 if n > 0 => {
                    let (rid, col) = (rng.below(n), rng.below(3));
                    let v = match col {
                        0 => key(&mut rng),
                        1 => val(&mut rng),
                        _ => Value::str(format!("u{step}")),
                    };
                    model[rid][col] = v.clone();
                    db.update_cell("t", rid as u32, col, v).unwrap();
                }
                2 if n > 0 => {
                    // A few deletes, biased toward the chunk-boundary cases:
                    // the last row of a full chunk, a row of an earlier chunk
                    // while the tail chunk holds one row, and random rows.
                    for _ in 0..(1 + rng.below(6)).min(model.len()) {
                        let n = model.len();
                        let rid = match rng.below(4) {
                            0 => n - 1,
                            1 if n > CHUNK_ROWS => rng.below(CHUNK_ROWS),
                            _ => rng.below(n),
                        };
                        model.swap_remove(rid);
                        db.delete_row("t", rid as u32).unwrap();
                    }
                }
                _ => continue,
            }
            assert_matches(&db, &model, &format!("seed {seed} step {step}"));
            if rng.below(25) == 0 {
                snapshots.push((db.snapshot_clone(), model.clone()));
            }
            if rng.below(50) == 0 {
                for (i, (snap, frozen)) in snapshots.iter().enumerate() {
                    assert_matches(snap, frozen, &format!("seed {seed} step {step} snapshot {i}"));
                }
            }
        }
        // A growing phase may overshoot by part of a batch; a drain is exact.
        assert!(if growing { model.len() >= target } else { model.is_empty() });
    }
    for (i, (snap, frozen)) in snapshots.iter().enumerate() {
        assert_matches(snap, frozen, &format!("seed {seed} final snapshot {i}"));
    }
    assert!(snapshots.len() > 5, "seed {seed}: too few snapshots to mean anything");
}

#[test]
fn random_ops_across_chunk_boundaries_match_the_model_and_spare_snapshots() {
    for seed in 1..=4 {
        run(seed);
    }
}

/// The exact boundary cases, spelled out: deleting the last row of a full
/// chunk, deleting from an earlier chunk when the tail chunk holds one row
/// (the tail chunk disappears), and emptying the table.
#[test]
fn swap_remove_at_chunk_edges() {
    let mut db = indexed_db();
    let mut model: Vec<Vec<Value>> = (0..2 * CHUNK_ROWS + 1)
        .map(|i| vec![Value::Int(i as i64 % 5), Value::Int(i as i64), Value::str("x")])
        .collect();
    db.insert_rows("t", model.clone()).unwrap();
    let held = db.snapshot_clone();
    let frozen = model.clone();

    // Tail chunk has one row: deleting a row of chunk 0 moves it there and
    // drops the tail chunk.
    model.swap_remove(3);
    db.delete_row("t", 3).unwrap();
    assert_matches(&db, &model, "one-row tail moved into chunk 0");
    // Now exactly two full chunks: delete the last row of the full tail.
    let last = model.len() - 1;
    model.swap_remove(last);
    db.delete_row("t", last as u32).unwrap();
    assert_matches(&db, &model, "last row of a full chunk");
    while !model.is_empty() {
        model.swap_remove(0);
        db.delete_row("t", 0).unwrap();
    }
    assert_matches(&db, &model, "emptied");
    db.insert_rows("t", [vec![Value::Int(1), Value::Int(1), Value::str("again")]]).unwrap();
    model.push(vec![Value::Int(1), Value::Int(1), Value::str("again")]);
    assert_matches(&db, &model, "refilled");
    assert_matches(&held, &frozen, "held snapshot");
}
