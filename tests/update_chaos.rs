//! Chaos coverage for SPARQL updates on a shared store (DESIGN.md §4.12).
//!
//! Every `SharedStore::update` request is one WAL batch frame, made durable
//! by its own fsync. These tests drive that path through crashes and
//! injected faults and hold it to the durability contract:
//!
//! - **truncation sweep** — run a workload of update requests on a durable
//!   store, recording `(wal_len, expected state)` after every ack; then cut
//!   the WAL at every frame boundary and at byte offsets in between, reopen,
//!   and assert recovery lands on *exactly* the longest acked prefix — acked
//!   updates survive, unacked (torn) frames vanish whole, never partially;
//! - **write/sync fault sweeps** — replay the workload with an injected
//!   write, short-write or sync failure at every index: the faulted request
//!   must fail explicitly, degrade the store to read-only (subsequent
//!   updates refused with `ReadOnly`), keep serving reads at the last acked
//!   snapshot, and a clean reopen must recover the acked state (a
//!   fsync-refused frame that still fully replays is also acceptable — the
//!   request applies whole or not at all, never split);
//! - **concurrent storm** — many writers committing at once, then a crash:
//!   every acked request must be present after recovery;
//! - **concurrent sync fault** — many writers meet one failed fsync: only
//!   the faulted request fails on I/O, nothing is acked after the store
//!   degrades, and a reopen holds every acked request and no refused one.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use std::sync::atomic::AtomicBool;
use std::sync::Mutex;

use db2rdf::{oracle, RdfStore, SharedStore, StoreConfig, StoreError};
use rdf::Triple;
use relstore::ScriptedFaults;

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "db2rdf-uchaos-{}-{}-{name}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::SeqCst)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A deterministic workload where every request changes state at its
/// position, so each one lands exactly one WAL frame.
fn requests() -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    for i in 0..4u32 {
        out.push(format!(
            "INSERT DATA {{ <http://s/{i}> <http://p/0> <http://s/{}> . \
             <http://s/{i}> <http://p/1> {i} }}",
            i + 1
        ));
    }
    out.push(
        "DELETE { ?s <http://p/0> ?o } INSERT { ?o <http://p/2> ?s } \
         WHERE { ?s <http://p/0> ?o FILTER (?s = <http://s/1>) }"
            .into(),
    );
    out.push("DELETE DATA { <http://s/2> <http://p/1> 2 }".into());
    out.push("INSERT DATA { <http://s/9> <http://p/3> \"valX\" }".into());
    out.push("DELETE WHERE { <http://s/3> ?p ?o }".into());
    out.push("INSERT { ?s <http://p/4> 7 } WHERE { ?s <http://p/1> ?v }".into());
    out.push("DELETE DATA { <http://s/9> <http://p/3> \"valX\" }".into());
    out
}

fn apply_reference(state: &mut Vec<Triple>, request: &str) {
    let parsed = sparql::parse_update(request).expect("workload request parses");
    oracle::naive_apply_update(state, &parsed);
}

fn canon_triples(triples: &[Triple]) -> Vec<Vec<String>> {
    let mut rows: Vec<Vec<String>> = triples
        .iter()
        .map(|t| vec![t.subject.encode(), t.predicate.encode(), t.object.encode()])
        .collect();
    rows.sort();
    rows
}

/// Full contents of a store; a store that never loaded counts as empty.
fn dump(store: &RdfStore) -> Vec<Vec<String>> {
    match store.query("SELECT ?s ?p ?o WHERE { ?s ?p ?o }") {
        Ok(sols) => oracle::canon(&sols),
        Err(StoreError::Unsupported(m)) if m.contains("empty") => Vec::new(),
        Err(e) => panic!("full scan failed: {e}"),
    }
}

fn wal_file(dir: &Path) -> PathBuf {
    let mut wals: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("store dir")
        .flatten()
        .map(|e| e.path())
        .filter(|p| {
            p.file_name().and_then(|n| n.to_str()).is_some_and(|n| n.starts_with("wal."))
        })
        .collect();
    wals.sort();
    wals.pop().expect("durable store has a WAL")
}

#[test]
fn acked_update_groups_recover_exactly_at_every_wal_cut() {
    let dir = fresh_dir("trunc");
    let mut boundaries: Vec<(u64, Vec<Vec<String>>)> = Vec::new();
    let mut state: Vec<Triple> = Vec::new();
    {
        let shared =
            SharedStore::new(RdfStore::open(&dir, StoreConfig::default()).unwrap());
        boundaries.push((shared.write().wal_len().unwrap(), canon_triples(&state)));
        for request in requests() {
            shared.update(&request).unwrap_or_else(|e| panic!("{request}: {e}"));
            apply_reference(&mut state, &request);
            boundaries.push((shared.write().wal_len().unwrap(), canon_triples(&state)));
        }
        // Crash: drop without checkpoint; the WAL is the only truth.
    }
    let wal = wal_file(&dir);
    let bytes = std::fs::read(&wal).unwrap();
    let total = bytes.len() as u64;
    assert_eq!(boundaries.last().unwrap().0, total, "every request hit the WAL");
    assert!(
        boundaries.windows(2).all(|w| w[0].0 < w[1].0),
        "each request appends a nonempty frame"
    );

    // Cut at every group boundary plus evenly spaced mid-frame offsets.
    let mut cuts: Vec<u64> = boundaries.iter().map(|(len, _)| *len).collect();
    let step = (total / 128).max(1);
    cuts.extend((0..=total).step_by(step as usize));
    cuts.sort_unstable();
    cuts.dedup();

    let work = fresh_dir("trunc-work");
    for &cut in &cuts {
        let _ = std::fs::remove_dir_all(&work);
        std::fs::create_dir_all(&work).unwrap();
        std::fs::write(work.join(wal.file_name().unwrap()), &bytes[..cut as usize]).unwrap();
        let expected = boundaries
            .iter()
            .rev()
            .find(|(len, _)| *len <= cut)
            .map(|(_, s)| s.clone())
            .unwrap_or_default();
        let recovered = RdfStore::open(&work, StoreConfig::default())
            .unwrap_or_else(|e| panic!("cut {cut}/{total}: reopen failed: {e}"));
        let got = dump(&recovered);
        assert_eq!(
            got, expected,
            "cut {cut}/{total}: recovery must land on the longest acked prefix — \
             whole requests, never fragments"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&work);
}

#[test]
fn faulted_group_commits_degrade_explicitly_and_recover_atomically() {
    let reqs = requests();
    let mut fault_hit = 0usize;
    for plan in 0..18usize {
        let index = plan / 3;
        let (name, faults) = match plan % 3 {
            0 => (format!("fail_write({index})"), ScriptedFaults::new().fail_write(index)),
            1 => (
                format!("short_write({index},3)"),
                ScriptedFaults::new().short_write(index, 3),
            ),
            _ => (format!("fail_sync({index})"), ScriptedFaults::new().fail_sync(index)),
        };
        let dir = fresh_dir("fault");
        let store =
            match RdfStore::open_with_faults(&dir, StoreConfig::default(), faults.into_handle())
            {
                Ok(s) => s,
                Err(_) => {
                    // A fault while writing the WAL header refuses the open
                    // explicitly — a valid outcome, nothing to recover.
                    let _ = std::fs::remove_dir_all(&dir);
                    continue;
                }
            };
        let shared = SharedStore::new(store);

        let mut acked: Vec<Triple> = Vec::new();
        // States a clean reopen may land on: the acked prefix, or (sync
        // faults only: the frame was fully appended, just not fsynced, and
        // may still replay) acked + the whole faulted request.
        let mut acceptable: Vec<Vec<Vec<String>>> = vec![canon_triples(&acked)];
        let mut faulted = false;
        for request in &reqs {
            match shared.update(request) {
                Ok(_) => {
                    assert!(!faulted, "[{name}] update acked after the store degraded");
                    apply_reference(&mut acked, request);
                    acceptable = vec![canon_triples(&acked)];
                }
                Err(e) if !faulted => {
                    faulted = true;
                    fault_hit += 1;
                    assert!(
                        shared.is_read_only(),
                        "[{name}] first failure ({e}) must degrade the store, not limp along"
                    );
                    let mut with_request = acked.clone();
                    apply_reference(&mut with_request, request);
                    acceptable.push(canon_triples(&with_request));
                }
                Err(e) => {
                    assert!(
                        e.is_read_only(),
                        "[{name}] post-degrade update failed with {e}, not ReadOnly"
                    );
                }
            }
        }
        // Reads keep flowing from the last published snapshot, which the
        // group abort rolled back to the acked state.
        assert_eq!(
            dump(&shared.snapshot()),
            canon_triples(&acked),
            "[{name}] degraded snapshot must serve exactly the acked state"
        );
        drop(shared);

        let recovered = RdfStore::open(&dir, StoreConfig::default())
            .unwrap_or_else(|e| panic!("[{name}] clean reopen failed: {e}"));
        let got = dump(&recovered);
        assert!(
            acceptable.contains(&got),
            "[{name}] recovered {} triples — neither the acked state ({}) nor \
             acked + whole faulted request",
            got.len(),
            acked.len()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
    assert!(fault_hit >= 3, "fault plans never fired mid-workload ({fault_hit})");
}

#[test]
fn concurrent_update_storm_survives_crash() {
    const WRITERS: usize = 4;
    const PER_WRITER: usize = 12;
    let dir = fresh_dir("storm");
    {
        let shared =
            SharedStore::new(RdfStore::open(&dir, StoreConfig::default()).unwrap());
        shared
            .update("INSERT DATA { <http://seed/0> <http://p/0> <http://seed/0> }")
            .unwrap();
        std::thread::scope(|scope| {
            for w in 0..WRITERS {
                let shared = shared.clone();
                scope.spawn(move || {
                    for i in 0..PER_WRITER {
                        shared
                            .update(&format!(
                                "INSERT DATA {{ <http://t/{w}-{i}> <http://p/{w}> {i} }}"
                            ))
                            .unwrap_or_else(|e| panic!("writer {w} update {i}: {e}"));
                    }
                });
            }
        });
        let stats = shared.update_stats();
        assert_eq!(stats.applied, (WRITERS * PER_WRITER + 1) as u64);
        assert_eq!(stats.failed, 0);
        assert!(stats.groups <= stats.applied);
        assert_eq!(stats.batch_sizes.iter().sum::<u64>(), stats.groups);
        // Crash without checkpoint.
    }
    let recovered = RdfStore::open(&dir, StoreConfig::default()).unwrap();
    let got = dump(&recovered);
    assert_eq!(got.len(), WRITERS * PER_WRITER + 1);
    for w in 0..WRITERS {
        for i in 0..PER_WRITER {
            let s = format!("<http://t/{w}-{i}>");
            assert!(
                got.iter().any(|row| row[0] == s),
                "acked update <{w}-{i}> missing after recovery"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_writers_meet_a_sync_fault_and_keep_every_ack() {
    const WRITERS: usize = 4;
    const PER_WRITER: usize = 12;
    let request = |w: usize, i: usize| {
        format!(
            "INSERT DATA {{ <http://t/{w}-{i}> <http://p/{w}> {i} . \
             <http://t/{w}-{i}> <http://q/0> <http://t/{w}> }}"
        )
    };
    let seed = "INSERT DATA { <http://seed/0> <http://p/0> <http://seed/0> }";
    for fail_at in [8usize, 20, 40] {
        let name = format!("fail_sync({fail_at})");
        let dir = fresh_dir("conc-sync-fault");
        let faults = ScriptedFaults::new().fail_sync(fail_at).into_handle();
        let store = RdfStore::open_with_faults(&dir, StoreConfig::default(), faults).unwrap();
        let shared = SharedStore::new(store);
        shared.update(seed).unwrap();

        // Set once a writer has seen a failure: the store degraded before
        // that failure returned, so a request started after it must fail.
        let failure_seen = AtomicBool::new(false);
        let acked: Mutex<Vec<(usize, usize)>> = Mutex::new(Vec::new());
        let faulted: Mutex<Vec<(usize, usize)>> = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for w in 0..WRITERS {
                let (shared, failure_seen, acked, faulted) =
                    (&shared, &failure_seen, &acked, &faulted);
                let (request, name) = (&request, &name);
                scope.spawn(move || {
                    for i in 0..PER_WRITER {
                        let after_failure = failure_seen.load(Ordering::SeqCst);
                        match shared.update(&request(w, i)) {
                            Ok(_) => {
                                assert!(!after_failure, "[{name}] <{w}-{i}> acked after degrade");
                                acked.lock().unwrap().push((w, i));
                            }
                            Err(e) => {
                                failure_seen.store(true, Ordering::SeqCst);
                                if !e.is_read_only() {
                                    faulted.lock().unwrap().push((w, i));
                                }
                            }
                        }
                    }
                });
            }
        });
        let acked = acked.into_inner().unwrap();
        let faulted = faulted.into_inner().unwrap();
        assert_eq!(faulted.len(), 1, "[{name}] exactly the faulted request fails on I/O");
        assert!(shared.is_read_only(), "[{name}] the fault must degrade the store");

        let mut state: Vec<Triple> = Vec::new();
        apply_reference(&mut state, seed);
        for &(w, i) in &acked {
            apply_reference(&mut state, &request(w, i));
        }
        assert_eq!(
            dump(&shared.snapshot()),
            canon_triples(&state),
            "[{name}] degraded snapshot must serve exactly the acked state"
        );
        drop(shared);

        // A reopen lands on the acked state, or (the frame was written
        // whole, only its fsync failed) on it plus the whole faulted
        // request; a request refused as read-only never lands.
        let mut acceptable = vec![canon_triples(&state)];
        let (w, i) = faulted[0];
        apply_reference(&mut state, &request(w, i));
        acceptable.push(canon_triples(&state));
        let recovered = RdfStore::open(&dir, StoreConfig::default())
            .unwrap_or_else(|e| panic!("[{name}] clean reopen failed: {e}"));
        let got = dump(&recovered);
        assert!(
            acceptable.contains(&got),
            "[{name}] recovered {} triples — neither the {} acked requests nor them plus \
             the faulted one",
            got.len(),
            acked.len()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
