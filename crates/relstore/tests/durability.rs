//! Crash-recovery property tests under fault injection.
//!
//! The central invariant (DESIGN.md §4.6): for a WAL truncated at **any**
//! byte offset, and for every injected short-write / bit-flip / fsync-error
//! case, `Database::open` either succeeds or degrades to read-only, and the
//! recovered state equals the state after some *prefix* of committed
//! transactions — never a torn half-transaction, never a panic.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use relstore::{
    table_schema, Database, Error, FaultHandle, IoFault, ScriptedFaults, SqlType, Value,
    WriteOutcome,
};

// ---------------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------------

/// Seeded SplitMix64 (same generator the workspace's datagen crate uses),
/// inlined so this test stays dependency-free.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "relstore-durability-{}-{}-{name}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::SeqCst)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Canonical dump of the whole database: sorted table names, each table's
/// dense rows in insertion order. Two databases with equal dumps are
/// observably identical to every query.
fn dump(db: &Database) -> Vec<(String, Vec<Vec<Value>>)> {
    db.table_names()
        .into_iter()
        .map(|name| {
            let t = db.table(name).unwrap();
            let rows = (0..t.row_count()).map(|r| t.row_values(r as u32)).collect();
            (name.to_string(), rows)
        })
        .collect()
}

type State = Vec<(String, Vec<Vec<Value>>)>;

/// Build a database at `dir` applying `n_txns` committed transactions, and
/// return the state dump after each commit (index 0 = empty database).
/// Transactions mix DDL, batched inserts and cell updates so every WAL op
/// kind appears in the log.
fn build_history(dir: &Path, n_txns: usize) -> Vec<State> {
    let mut db = Database::open(dir).unwrap();
    let mut states = vec![dump(&db)];
    db.begin_batch();
    db.create_table(table_schema("t", &[("k", SqlType::Int), ("v", SqlType::Text)]))
        .unwrap();
    db.create_index("t", "k").unwrap();
    db.commit_batch().unwrap();
    states.push(dump(&db));
    for i in 0..n_txns.saturating_sub(1) {
        db.begin_batch();
        db.insert_rows(
            "t",
            (0..3).map(|j| vec![Value::Int((i * 3 + j) as i64), Value::str(format!("v{i}.{j}"))]),
        )
        .unwrap();
        if i > 0 {
            // Touch an existing row too, so UpdateCell frames interleave.
            db.update_cell("t", (i - 1) as u32, 1, Value::str(format!("upd{i}"))).unwrap();
        }
        db.commit_batch().unwrap();
        states.push(dump(&db));
    }
    drop(db); // crash: no close(), no checkpoint — the WAL carries everything
    states
}

fn assert_is_prefix_state(got: &State, states: &[State], context: &str) {
    assert!(
        states.iter().any(|s| s == got),
        "{context}: recovered state matches no committed prefix"
    );
}

// ---------------------------------------------------------------------------
// Happy path
// ---------------------------------------------------------------------------

#[test]
fn reopen_recovers_everything_without_checkpoint() {
    let dir = fresh_dir("reopen");
    let states = build_history(&dir, 6);
    let db = Database::open(&dir).unwrap();
    assert!(!db.is_read_only());
    assert_eq!(&dump(&db), states.last().unwrap());
}

#[test]
fn checkpoint_rotates_generations_and_prunes() {
    let dir = fresh_dir("checkpoint");
    let mut db = Database::open(&dir).unwrap();
    db.create_table(table_schema("t", &[("k", SqlType::Int)])).unwrap();
    db.insert_rows("t", [vec![Value::Int(1)]]).unwrap();
    db.checkpoint().unwrap();
    db.insert_rows("t", [vec![Value::Int(2)]]).unwrap();
    db.checkpoint().unwrap();
    db.insert_rows("t", [vec![Value::Int(3)]]).unwrap();
    let expect = dump(&db);
    drop(db);

    // Generations 1 and 2 survive (one fallback), generation 0 is pruned.
    assert!(dir.join("snapshot.2").exists());
    assert!(dir.join("wal.2").exists());
    assert!(!dir.join("wal.0").exists());

    let db = Database::open(&dir).unwrap();
    assert_eq!(dump(&db), expect);
}

#[test]
fn close_checkpoints_and_reopen_is_instant_replay_free() {
    let dir = fresh_dir("close");
    let mut db = Database::open(&dir).unwrap();
    db.create_table(table_schema("t", &[("k", SqlType::Int)])).unwrap();
    db.insert_rows("t", [vec![Value::Int(7)]]).unwrap();
    let expect = dump(&db);
    db.close().unwrap();
    let db = Database::open(&dir).unwrap();
    assert_eq!(dump(&db), expect);
}

// ---------------------------------------------------------------------------
// Torn tails: truncation at every byte offset
// ---------------------------------------------------------------------------

#[test]
fn truncation_at_every_byte_recovers_a_committed_prefix() {
    let dir = fresh_dir("trunc-src");
    let states = build_history(&dir, 5);
    let wal = std::fs::read(dir.join("wal.0")).unwrap();

    let work = fresh_dir("trunc-work");
    let wal_path = work.join("wal.0");
    // Sweep every truncation length, including 0 and the full file. This
    // covers every frame boundary and every mid-frame offset.
    for cut in 0..=wal.len() {
        std::fs::write(&wal_path, &wal[..cut]).unwrap();
        let db = Database::open(&work).unwrap_or_else(|e| {
            panic!("open failed at truncation {cut}: {e}")
        });
        assert_is_prefix_state(&dump(&db), &states, &format!("truncation at {cut}"));
        drop(db);
    }
    // Full file must recover the final state.
    std::fs::write(&wal_path, &wal).unwrap();
    let db = Database::open(&work).unwrap();
    assert_eq!(&dump(&db), states.last().unwrap());
}

#[test]
fn truncated_tail_is_discarded_then_log_grows_cleanly() {
    // After recovery truncates a torn tail, new commits must append at the
    // truncation point and recover correctly — the log never wedges.
    let dir = fresh_dir("regrow");
    let states = build_history(&dir, 4);
    let wal_path = dir.join("wal.0");
    let wal = std::fs::read(&wal_path).unwrap();
    std::fs::write(&wal_path, &wal[..wal.len() - 3]).unwrap(); // tear last frame

    let mut db = Database::open(&dir).unwrap();
    assert_is_prefix_state(&dump(&db), &states, "after tear");
    db.insert_rows("t", [vec![Value::Int(999), Value::str("post-tear")]]).unwrap();
    let expect = dump(&db);
    drop(db);
    let db = Database::open(&dir).unwrap();
    assert_eq!(dump(&db), expect);
}

// ---------------------------------------------------------------------------
// Bit flips
// ---------------------------------------------------------------------------

#[test]
fn bit_flip_at_every_wal_byte_recovers_a_committed_prefix() {
    let dir = fresh_dir("flip-src");
    let states = build_history(&dir, 4);
    let wal = std::fs::read(dir.join("wal.0")).unwrap();

    let work = fresh_dir("flip-work");
    let wal_path = work.join("wal.0");
    let mut rng = Rng(0xdb2_2013);
    for byte in 0..wal.len() {
        let mut dirty = wal.clone();
        dirty[byte] ^= 1 << rng.below(8); // seeded bit choice per byte
        std::fs::write(&wal_path, &dirty).unwrap();
        match Database::open(&work) {
            Ok(db) => assert_is_prefix_state(&dump(&db), &states, &format!("flip at {byte}")),
            Err(e) => panic!("open must not fail on a flipped WAL byte ({byte}): {e}"),
        }
    }
}

#[test]
fn corrupt_newest_snapshot_falls_back_one_generation() {
    let dir = fresh_dir("snapfall");
    let mut db = Database::open(&dir).unwrap();
    db.create_table(table_schema("t", &[("k", SqlType::Int)])).unwrap();
    db.insert_rows("t", [vec![Value::Int(1)]]).unwrap();
    db.checkpoint().unwrap(); // snapshot.1
    db.insert_rows("t", [vec![Value::Int(2)]]).unwrap();
    let state_before_ckpt2 = dump(&db);
    db.checkpoint().unwrap(); // snapshot.2
    db.insert_rows("t", [vec![Value::Int(3)]]).unwrap();
    drop(db);

    // Damage snapshot.2: recovery must fall back to snapshot.1 + wal.1,
    // whose end state equals the state at the second checkpoint.
    let snap2 = dir.join("snapshot.2");
    let mut bytes = std::fs::read(&snap2).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&snap2, &bytes).unwrap();

    let db = Database::open(&dir).unwrap();
    assert_eq!(dump(&db), state_before_ckpt2);
}

#[test]
fn all_snapshots_corrupt_is_an_error_not_a_panic() {
    let dir = fresh_dir("snapdead");
    let mut db = Database::open(&dir).unwrap();
    db.create_table(table_schema("t", &[("k", SqlType::Int)])).unwrap();
    db.checkpoint().unwrap();
    db.checkpoint().unwrap();
    drop(db);
    for entry in std::fs::read_dir(&dir).unwrap() {
        let p = entry.unwrap().path();
        if p.file_name().unwrap().to_str().unwrap().starts_with("snapshot.") {
            std::fs::write(&p, b"RSNAPv1\0 utterly broken").unwrap();
        }
    }
    match Database::open(&dir) {
        Err(Error::Corrupt(_)) => {}
        Err(other) => panic!("expected Corrupt error, got {other}"),
        Ok(_) => panic!("expected Corrupt error, got a database"),
    }
}

// ---------------------------------------------------------------------------
// Injected write faults: short writes, outright failures, fsync errors
// ---------------------------------------------------------------------------

/// Fails the `nth` write (1-based) across the database's whole lifetime,
/// optionally letting a prefix of the bytes through (a torn write).
struct FailNthWrite {
    countdown: AtomicUsize,
    keep: Option<usize>,
}

impl FailNthWrite {
    fn nth(n: usize, keep: Option<usize>) -> FaultHandle {
        Arc::new(FailNthWrite { countdown: AtomicUsize::new(n), keep })
    }
}

impl IoFault for FailNthWrite {
    fn on_write(&self, _offset: u64, _len: usize) -> WriteOutcome {
        // Saturating decrement: fire exactly once when the counter hits 1.
        let mut cur = self.countdown.load(Ordering::SeqCst);
        loop {
            if cur == 0 {
                return WriteOutcome::Full;
            }
            match self.countdown.compare_exchange(cur, cur - 1, Ordering::SeqCst, Ordering::SeqCst)
            {
                Ok(_) => break,
                Err(now) => cur = now,
            }
        }
        if cur == 1 {
            match self.keep {
                Some(k) => WriteOutcome::Short(k),
                None => WriteOutcome::Fail,
            }
        } else {
            WriteOutcome::Full
        }
    }
}

/// Fails every fsync after the first `ok` calls.
struct FailSyncAfter {
    countdown: AtomicUsize,
}

impl IoFault for FailSyncAfter {
    fn on_sync(&self) -> std::io::Result<()> {
        let mut cur = self.countdown.load(Ordering::SeqCst);
        loop {
            if cur == 0 {
                return Err(std::io::Error::other("injected fsync failure"));
            }
            match self.countdown.compare_exchange(cur, cur - 1, Ordering::SeqCst, Ordering::SeqCst)
            {
                Ok(_) => return Ok(()),
                Err(now) => cur = now,
            }
        }
    }
}

/// One mutation in a fault-driven schedule.
type Step = Box<dyn Fn(&mut Database) -> relstore::Result<()>>;

/// Drive a fixed transaction schedule against a faulty database; return the
/// dumps after each *successful* commit and whether a failure was observed.
fn drive_with_faults(dir: &Path, faults: FaultHandle) -> (Vec<State>, bool) {
    let mut db = match Database::open_with_faults(dir, faults) {
        Ok(db) => db,
        Err(_) => return (Vec::new(), true),
    };
    let mut committed = vec![dump(&db)];
    let mut failed = false;
    let schedule: Vec<Step> = vec![
        Box::new(|db| {
            db.create_table(table_schema("t", &[("k", SqlType::Int), ("v", SqlType::Text)]))
        }),
        Box::new(|db| db.insert_rows("t", [vec![Value::Int(1), Value::str("a")]]).map(|_| ())),
        Box::new(|db| db.insert_rows("t", [vec![Value::Int(2), Value::str("b")]]).map(|_| ())),
        Box::new(|db| db.update_cell("t", 0, 1, Value::str("a2"))),
        Box::new(|db| db.insert_rows("t", [vec![Value::Int(3), Value::str("c")]]).map(|_| ())),
    ];
    for step in schedule {
        match step(&mut db) {
            Ok(()) => committed.push(dump(&db)),
            Err(_) => {
                failed = true;
                // After a WAL write failure the database must be read-only
                // and refuse further mutations with Error::ReadOnly.
                assert!(db.is_read_only(), "write failure must degrade to read-only");
                assert_eq!(
                    db.insert_rows("t", [vec![Value::Int(9), Value::str("z")]]),
                    Err(Error::ReadOnly)
                );
                break;
            }
        }
    }
    (committed, failed)
}

#[test]
fn short_writes_at_every_position_leave_a_committed_prefix_on_disk() {
    // For each n, fail the nth write short (keeping 0, 1 or 5 bytes), then
    // reopen cleanly and check the recovered state is a committed prefix.
    for keep in [0usize, 1, 5] {
        let mut saw_failure = false;
        for n in 1..20 {
            let dir = fresh_dir(&format!("short-{keep}-{n}"));
            let (committed, failed) =
                drive_with_faults(&dir, FailNthWrite::nth(n, Some(keep)));
            saw_failure |= failed;
            let db = Database::open(&dir)
                .unwrap_or_else(|e| panic!("reopen after short write {n}/{keep}: {e}"));
            let got = dump(&db);
            if committed.is_empty() {
                // The very first write (the WAL magic) failed: empty store.
                assert!(got.is_empty());
            } else {
                assert_is_prefix_state(&got, &committed, &format!("short write {n} keep {keep}"));
            }
        }
        assert!(saw_failure, "fault schedule never fired for keep={keep}");
    }
}

#[test]
fn failed_writes_at_every_position_leave_a_committed_prefix_on_disk() {
    let mut saw_failure = false;
    for n in 1..20 {
        let dir = fresh_dir(&format!("fail-{n}"));
        let (committed, failed) = drive_with_faults(&dir, FailNthWrite::nth(n, None));
        saw_failure |= failed;
        let db = Database::open(&dir).unwrap();
        let got = dump(&db);
        if !committed.is_empty() {
            assert_is_prefix_state(&got, &committed, &format!("failed write {n}"));
        }
    }
    assert!(saw_failure);
}

#[test]
fn fsync_failure_degrades_to_read_only_with_committed_prefix() {
    let mut saw_failure = false;
    for ok_syncs in 0..10 {
        let dir = fresh_dir(&format!("fsync-{ok_syncs}"));
        let faults: FaultHandle =
            Arc::new(FailSyncAfter { countdown: AtomicUsize::new(ok_syncs) });
        let (committed, failed) = drive_with_faults(&dir, faults);
        saw_failure |= failed;
        let db = Database::open(&dir).unwrap();
        let got = dump(&db);
        if !committed.is_empty() {
            assert_is_prefix_state(&got, &committed, &format!("fsync after {ok_syncs}"));
        }
    }
    assert!(saw_failure);
}

/// A checkpoint that fails partway — in the snapshot write or in the new
/// WAL's header — must leave neither half of the new generation behind as a
/// recovery base: everything acked before it, and after it on the old WAL,
/// survives a reopen.
#[test]
fn failed_checkpoint_never_strands_acked_commits() {
    let mut failed_checkpoints = 0;
    for n in 0..10 {
        for (kind, faults) in [
            ("fail", ScriptedFaults::new().fail_write(n)),
            ("short", ScriptedFaults::new().short_write(n, 8)),
        ] {
            let dir = fresh_dir(&format!("ckpt-{kind}-{n}"));
            let Ok(mut db) = Database::open_with_faults(&dir, faults.into_handle()) else {
                continue; // the WAL magic itself failed: nothing was acked
            };
            let mut acked = dump(&db);
            let insert = |db: &mut Database, k: i64| {
                db.insert_rows("t", [vec![Value::Int(k), Value::str("v")]]).map(|_| ())
            };
            let steps: Vec<(bool, Step)> = vec![
                (false, Box::new(|db| db.create_table(table_schema("t", &[("k", SqlType::Int), ("v", SqlType::Text)])))),
                (false, Box::new(move |db| insert(db, 1))),
                (true, Box::new(|db| db.checkpoint())),
                (false, Box::new(move |db| insert(db, 2))),
                (false, Box::new(move |db| insert(db, 3))),
            ];
            for (is_checkpoint, step) in steps {
                match step(&mut db) {
                    Ok(()) => acked = dump(&db),
                    Err(_) if is_checkpoint => failed_checkpoints += 1,
                    Err(_) => {}
                }
            }
            drop(db);
            let got = dump(&Database::open(&dir).unwrap());
            assert_eq!(got, acked, "{kind}_write({n}): acked commits lost after reopen");
        }
    }
    assert!(failed_checkpoints >= 2, "no fault landed inside a checkpoint");
}

#[test]
fn reads_still_work_in_read_only_mode() {
    let dir = fresh_dir("ro-reads");
    {
        let mut db = Database::open(&dir).unwrap();
        db.create_table(table_schema("t", &[("k", SqlType::Int)])).unwrap();
        db.insert_rows("t", [vec![Value::Int(1)], vec![Value::Int(2)]]).unwrap();
        drop(db);
    }
    // Fail the first write of the new session (the torn-tail truncate is a
    // set_len, so the first *write* is the next commit's frame).
    let mut db = Database::open_with_faults(&dir, FailNthWrite::nth(1, None)).unwrap();
    assert!(db.insert_rows("t", [vec![Value::Int(3)]]).is_err());
    assert!(db.is_read_only());
    let rel = db.query("SELECT k FROM t ORDER BY k").unwrap();
    assert_eq!(rel.rows, vec![vec![Value::Int(1)], vec![Value::Int(2)]]);
    // Checkpoint and close must refuse politely, not corrupt state.
    assert_eq!(db.checkpoint(), Err(Error::ReadOnly));
    db.close().unwrap();
}

// ---------------------------------------------------------------------------
// Batches
// ---------------------------------------------------------------------------

#[test]
fn uncommitted_batch_is_invisible_after_crash() {
    let dir = fresh_dir("batch-crash");
    let mut db = Database::open(&dir).unwrap();
    db.create_table(table_schema("t", &[("k", SqlType::Int)])).unwrap();
    db.insert_rows("t", [vec![Value::Int(1)]]).unwrap();
    let committed = dump(&db);
    db.begin_batch();
    db.insert_rows("t", [vec![Value::Int(2)]]).unwrap();
    db.insert_rows("t", [vec![Value::Int(3)]]).unwrap();
    drop(db); // crash before commit_batch: the frame was never written

    let db = Database::open(&dir).unwrap();
    assert_eq!(dump(&db), committed);
}

// ---------------------------------------------------------------------------
// Injected read faults: short reads and outright failures during recovery
// ---------------------------------------------------------------------------

#[test]
fn short_wal_read_at_every_byte_recovers_the_readable_prefix() {
    // A WAL whose tail sits on a bad sector reads short; recovery must treat
    // the readable prefix exactly like a torn tail: a committed prefix state,
    // and a writable database that resumes appending at the readable end.
    let dir = fresh_dir("short-read-src");
    let states = build_history(&dir, 5);
    let wal_len = std::fs::metadata(dir.join("wal.0")).unwrap().len() as usize;
    let wal = std::fs::read(dir.join("wal.0")).unwrap();

    for cut in 0..=wal_len {
        let work = fresh_dir(&format!("short-read-{cut}"));
        std::fs::write(work.join("wal.0"), &wal).unwrap();
        let faults = relstore::ScriptedFaults::new().short_read(0, cut).into_handle();
        let db = Database::open_with_faults(&work, faults)
            .unwrap_or_else(|e| panic!("open failed at short read {cut}: {e}"));
        assert!(!db.is_read_only(), "short read {cut}: must stay writable");
        assert_is_prefix_state(&dump(&db), &states, &format!("short read at {cut}"));
    }
}

#[test]
fn failed_wal_read_is_an_explicit_error_never_silent() {
    let dir = fresh_dir("fail-read");
    build_history(&dir, 4);
    let faults = relstore::ScriptedFaults::new().fail_read(0).into_handle();
    match Database::open_with_faults(&dir, faults) {
        Err(Error::Io(_)) => {}
        Err(other) => panic!("expected Io error, got {other}"),
        Ok(_) => panic!("an unreadable WAL must not open silently"),
    }
}

#[test]
fn unreadable_newest_snapshot_falls_back_one_generation() {
    // Same fallback contract as a *corrupt* newest snapshot: a failed or
    // short read of snapshot.N recovers from snapshot.(N-1) + wal.(N-1).
    let dir = fresh_dir("snap-read");
    let mut db = Database::open(&dir).unwrap();
    db.create_table(table_schema("t", &[("k", SqlType::Int)])).unwrap();
    db.insert_rows("t", [vec![Value::Int(1)]]).unwrap();
    db.checkpoint().unwrap(); // snapshot.1
    db.insert_rows("t", [vec![Value::Int(2)]]).unwrap();
    let state_at_ckpt2 = dump(&db);
    db.checkpoint().unwrap(); // snapshot.2
    db.insert_rows("t", [vec![Value::Int(3)]]).unwrap();
    drop(db);

    // Outright read failure of snapshot.2 (the first recovery read).
    let faults = relstore::ScriptedFaults::new().fail_read(0).into_handle();
    let db = Database::open_with_faults(&dir, faults).unwrap();
    assert_eq!(dump(&db), state_at_ckpt2, "fail_read fallback");
    drop(db);

    // Short read of snapshot.2: the truncated payload fails the CRC.
    let faults = relstore::ScriptedFaults::new().short_read(0, 10).into_handle();
    let db = Database::open_with_faults(&dir, faults).unwrap();
    assert_eq!(dump(&db), state_at_ckpt2, "short_read fallback");
}

#[test]
fn database_recovered_from_short_read_grows_cleanly() {
    let dir = fresh_dir("short-read-regrow");
    let states = build_history(&dir, 4);
    let wal_len = std::fs::metadata(dir.join("wal.0")).unwrap().len() as usize;

    let faults = relstore::ScriptedFaults::new().short_read(0, wal_len - 3).into_handle();
    let mut db = Database::open_with_faults(&dir, faults).unwrap();
    assert_is_prefix_state(&dump(&db), &states, "after short read");
    db.insert_rows("t", [vec![Value::Int(777), Value::str("post-short-read")]]).unwrap();
    let expect = dump(&db);
    drop(db);
    let db = Database::open(&dir).unwrap();
    assert_eq!(dump(&db), expect);
}

// ---------------------------------------------------------------------------
// Batches (continued)
// ---------------------------------------------------------------------------

#[test]
fn nested_batches_commit_one_frame_at_outermost_level() {
    let dir = fresh_dir("batch-nest");
    let mut db = Database::open(&dir).unwrap();
    db.begin_batch();
    db.create_table(table_schema("t", &[("k", SqlType::Int)])).unwrap();
    db.begin_batch(); // nested (as the store does around the loader)
    db.insert_rows("t", [vec![Value::Int(1)]]).unwrap();
    db.commit_batch().unwrap(); // inner: buffered, not yet durable
    db.insert_rows("t", [vec![Value::Int(2)]]).unwrap();
    let full = dump(&db);
    db.commit_batch().unwrap(); // outer: one durable frame
    drop(db);
    let db = Database::open(&dir).unwrap();
    assert_eq!(dump(&db), full);
}
