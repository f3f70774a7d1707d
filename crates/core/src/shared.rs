//! A thread-safe handle over [`RdfStore`] with snapshot-isolated reads and
//! serialized writes.
//!
//! ## Snapshot-per-reader
//!
//! No query ever runs under a lock. [`SharedStore::snapshot`] hands out an
//! `Arc<RdfStore>` of the last *published* state from a `Mutex<Arc<RdfStore>>`
//! that a reader holds for one `Arc` clone and a writer for one pointer swap;
//! the writer mutex — held while a request applies and fsyncs — is never
//! touched on the read path. A long analytic query therefore runs to
//! completion against its own frozen snapshot no matter how many updates
//! commit underneath it. A plain mutex is enough because a request takes one
//! snapshot: an uncontended load is tens of nanoseconds, and two threads
//! doing nothing but loads pay under 0.5 µs each — 0.3 % of the cheapest
//! request the server answers (measurements in DESIGN.md §4.12).
//!
//! Snapshots are cheap: the relational tables are copy-on-write
//! (`Arc`-per-table), the term dictionary is shared behind its own `RwLock`
//! (append-only, so grown entries never invalidate a frozen snapshot's rows),
//! and the plan cache is shared (entries are epoch-tagged, so snapshot
//! readers reuse — and warm — the same cache).
//!
//! ## Writes
//!
//! Writers serialize behind the writer mutex, and [`SharedStore::update`] is
//! the one way in for graph changes: `/update` requests and `/insert` chunks
//! alike. An update request is parsed outside the lock, then applied under
//! it by [`crate::update::apply_update`] — one [`RdfStore`] request: one WAL
//! frame, one fsync, its own copy-on-write rollback — and published as the
//! new snapshot when the lock is released. Every request commits alone, so
//! a request that fails, logically (unsupported WHERE shape, budget
//! exhaustion) or on I/O, fails alone: the requests acknowledged before it
//! are already durable. An I/O failure also degrades the store to
//! read-only, and every later request is refused.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use crate::error::{Result, StoreError};
use crate::loader::LoadReport;
use crate::plancache::PlanCacheStats;
use crate::results::Solutions;
use crate::store::RdfStore;
use crate::update::{apply_update, UpdateOutcome};

/// Counter snapshot of the update subsystem, for `/stats` and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UpdateStats {
    /// Commits performed (one fsync each). Every request commits alone, so
    /// this is `applied`; the field stays because the e2e benchmark reads
    /// it.
    pub groups: u64,
    /// Update requests acknowledged (durable).
    pub applied: u64,
    /// Update requests that failed.
    pub failed: u64,
    /// Requests per commit, as a one-bucket histogram: every commit holds
    /// one request, so the bucket is `applied`. The field stays because the
    /// e2e benchmark checks that it sums to `groups`.
    pub batch_sizes: [u64; 1],
}

struct SharedInner {
    /// The writable master store. Mutations hold this mutex; nothing on the
    /// read path ever touches it.
    writer: Mutex<RdfStore>,
    /// The last published snapshot; what every reader sees. Held only for
    /// an `Arc` clone or swap, never while a query or a commit runs.
    snap: Mutex<Arc<RdfStore>>,
    /// Mirrors `is_read_only()` of the last published state, readable
    /// without loading a snapshot (the server's admission check).
    degraded: AtomicBool,
    updates_applied: AtomicU64,
    updates_failed: AtomicU64,
}

impl SharedInner {
    /// Publish the writer's current state as the new reader snapshot. Must
    /// be called while holding the writer mutex, so snapshots are published
    /// in commit order.
    fn publish(&self, store: &RdfStore) {
        self.degraded.store(store.is_read_only(), Ordering::SeqCst);
        let new = Arc::new(store.snapshot_clone());
        let old = {
            let mut snap = self.snap.lock().unwrap_or_else(|p| p.into_inner());
            std::mem::replace(&mut *snap, new)
        };
        // The guard is gone: if this was the last reference, freeing the
        // superseded snapshot's tables does not hold up any reader.
        drop(old);
    }
}

/// A cloneable, `Send + Sync` handle to a shared [`RdfStore`]: snapshot
/// reads, serialized updates.
///
/// Lock poisoning is deliberately ignored (`into_inner` on the guard): a
/// panicking request cannot leave the store logically inconsistent —
/// readers hold immutable snapshots, and mutations publish only after the
/// relational batch machinery commits — so refusing all service after one
/// panic would turn a single bad request into an outage.
#[derive(Clone)]
pub struct SharedStore {
    inner: Arc<SharedInner>,
}

/// Exclusive access to the master store, published as the new reader
/// snapshot when dropped. For what is not an update request: the initial
/// bulk load, checkpointing, reconfiguration. A mutation made through it
/// (`RdfStore::insert`) is a request of its own — one frame, one fsync,
/// outside the update counters; graph changes should go through
/// [`SharedStore::update`].
pub struct WriteGuard<'a> {
    guard: MutexGuard<'a, RdfStore>,
    inner: &'a SharedInner,
}

impl std::ops::Deref for WriteGuard<'_> {
    type Target = RdfStore;
    fn deref(&self) -> &RdfStore {
        &self.guard
    }
}

impl std::ops::DerefMut for WriteGuard<'_> {
    fn deref_mut(&mut self) -> &mut RdfStore {
        &mut self.guard
    }
}

impl Drop for WriteGuard<'_> {
    fn drop(&mut self) {
        // Publish before the mutex is released (guard drops after this
        // body), so no later writer can race the snapshot swap.
        self.inner.publish(&self.guard);
    }
}

fn read_only_error() -> StoreError {
    StoreError::Sql(relstore::Error::ReadOnly)
}

impl SharedStore {
    pub fn new(store: RdfStore) -> SharedStore {
        let snapshot = Arc::new(store.snapshot_clone());
        let degraded = store.is_read_only();
        SharedStore {
            inner: Arc::new(SharedInner {
                writer: Mutex::new(store),
                snap: Mutex::new(snapshot),
                degraded: AtomicBool::new(degraded),
                updates_applied: AtomicU64::new(0),
                updates_failed: AtomicU64::new(0),
            }),
        }
    }

    /// The last published state. Holding the returned `Arc` pins that exact
    /// state for as long as the caller likes — concurrent writers publish
    /// *new* snapshots and never disturb outstanding ones.
    pub fn snapshot(&self) -> Arc<RdfStore> {
        self.inner.snap.lock().unwrap_or_else(|p| p.into_inner()).clone()
    }

    /// Exclusive (write) access to the master store; the new state is
    /// published to readers when the guard drops.
    pub fn write(&self) -> WriteGuard<'_> {
        let guard = self.inner.writer.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
        WriteGuard { guard, inner: &self.inner }
    }

    /// Execute a SPARQL query against the current snapshot. The query runs
    /// under no lock; it can wait for a writer only for the pointer swap
    /// that publishes a snapshot, never for a commit.
    pub fn query(&self, sparql: &str) -> Result<Solutions> {
        self.snapshot().query(sparql)
    }

    /// Apply a SPARQL 1.1 Update request (parsed outside any lock) as one
    /// commit. Returns once the request is durable (its fsync completed).
    pub fn update(&self, text: &str) -> Result<UpdateOutcome> {
        let update = sparql::parse_update(text)?;
        self.apply_parsed_update(update)
    }

    /// [`SharedStore::update`] for a pre-parsed request.
    pub fn apply_parsed_update(&self, update: sparql::Update) -> Result<UpdateOutcome> {
        if self.inner.degraded.load(Ordering::SeqCst) {
            return Err(read_only_error());
        }
        // The guard publishes the new snapshot when it drops.
        let mut store = self.write();
        let result = if store.is_read_only() {
            Err(read_only_error())
        } else {
            apply_update(&mut store, &update)
        };
        let counter =
            if result.is_ok() { &self.inner.updates_applied } else { &self.inner.updates_failed };
        counter.fetch_add(1, Ordering::Relaxed);
        result
    }

    /// Snapshot of the load report (cloned out so nothing is held).
    pub fn load_report(&self) -> LoadReport {
        self.snapshot().load_report().clone()
    }

    /// Plan-cache counters (`None` when caching is disabled). The cache is
    /// shared between the master store and every snapshot — entries are
    /// epoch-tagged, so snapshot readers warm the same cache that post-
    /// mutation readers hit.
    pub fn plan_cache_stats(&self) -> Option<PlanCacheStats> {
        self.snapshot().plan_cache_stats()
    }

    /// Update-subsystem counters.
    pub fn update_stats(&self) -> UpdateStats {
        let applied = self.inner.updates_applied.load(Ordering::Relaxed);
        UpdateStats {
            groups: applied,
            applied,
            failed: self.inner.updates_failed.load(Ordering::Relaxed),
            batch_sizes: [applied],
        }
    }

    /// True when a durable store has degraded to read-only after an I/O
    /// failure (see `RdfStore::is_read_only`). The server surfaces this in
    /// `/healthz` and `/stats` and answers mutations with 503 + Retry-After.
    pub fn is_read_only(&self) -> bool {
        self.inner.degraded.load(Ordering::SeqCst)
    }

    /// The published snapshot's mutation epoch (see `RdfStore::epoch`).
    pub fn epoch(&self) -> u64 {
        self.snapshot().epoch()
    }

    /// The executor's effective parallel width (see `RdfStore::threads`).
    pub fn threads(&self) -> usize {
        self.snapshot().threads()
    }

    /// Term-dictionary size accounting (see `RdfStore::dict_stats`).
    pub fn dict_stats(&self) -> crate::dict::DictMemStats {
        self.snapshot().dict_stats()
    }
}

// The server hands one `SharedStore` to every worker thread; this fails to
// compile if any store component regresses to a non-thread-safe type.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<SharedStore>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{RdfStore, StoreConfig};
    use rdf::{Term, Triple};

    fn triple(i: usize) -> Triple {
        Triple::new(
            Term::iri(format!("http://s/{i}")),
            Term::iri("http://p"),
            Term::iri(format!("http://o/{i}")),
        )
    }

    fn loaded_shared(n: usize) -> SharedStore {
        let mut store = RdfStore::new(StoreConfig::default());
        store.load(&(0..n).map(triple).collect::<Vec<_>>()).unwrap();
        SharedStore::new(store)
    }

    #[test]
    fn concurrent_readers_with_writer() {
        let shared = loaded_shared(16);
        std::thread::scope(|s| {
            let writer = shared.clone();
            s.spawn(move || {
                for i in 100..120 {
                    writer.write().insert(&triple(i)).unwrap();
                }
            });
            for _ in 0..4 {
                let reader = shared.clone();
                s.spawn(move || {
                    for _ in 0..25 {
                        let sols = reader
                            .query("SELECT ?s ?o WHERE { ?s <http://p> ?o }")
                            .unwrap();
                        assert!(sols.len() >= 16 && sols.len() <= 36, "len {}", sols.len());
                    }
                });
            }
        });
        assert_eq!(
            shared.query("SELECT ?s WHERE { ?s <http://p> ?o }").unwrap().len(),
            36
        );
    }

    /// A reader holding a snapshot is never blocked — and never sees a torn
    /// state — while 100+ updates commit underneath it.
    #[test]
    fn held_snapshot_survives_update_storm() {
        const WRITERS: usize = 4;
        const PER_WRITER: usize = 30; // 120 updates total
        let shared = loaded_shared(16);
        let held = shared.snapshot();

        std::thread::scope(|s| {
            for w in 0..WRITERS {
                let writer = shared.clone();
                s.spawn(move || {
                    for i in 0..PER_WRITER {
                        let id = 1000 + w * PER_WRITER + i;
                        let out = writer
                            .update(&format!(
                                "INSERT DATA {{ <http://s/{id}> <http://p> <http://o/{id}> }}"
                            ))
                            .unwrap();
                        assert_eq!(out, UpdateOutcome { inserted: 1, deleted: 0 });
                    }
                });
            }
            // Interleave reads on the held snapshot with the storm: every
            // one must see exactly the pre-storm 16 triples.
            for _ in 0..40 {
                let sols = held.query("SELECT ?s WHERE { ?s <http://p> ?o }").unwrap();
                assert_eq!(sols.len(), 16, "held snapshot must be frozen");
            }
        });

        // The held snapshot is *still* the old state after every update
        // committed; fresh snapshots see all of it.
        assert_eq!(held.query("SELECT ?s WHERE { ?s <http://p> ?o }").unwrap().len(), 16);
        assert_eq!(
            shared.query("SELECT ?s WHERE { ?s <http://p> ?o }").unwrap().len(),
            16 + WRITERS * PER_WRITER
        );

        let stats = shared.update_stats();
        assert_eq!(stats.applied, (WRITERS * PER_WRITER) as u64);
        assert_eq!(stats.failed, 0);
        assert_eq!(stats.groups, stats.applied);
        assert_eq!(stats.batch_sizes.iter().sum::<u64>(), stats.groups);
    }

    /// Run `updates` on one thread each, all at once. The outcomes come
    /// back in `updates` order.
    fn concurrently(shared: &SharedStore, updates: &[String]) -> Vec<Result<UpdateOutcome>> {
        std::thread::scope(|s| {
            let callers: Vec<_> =
                updates.iter().map(|u| s.spawn(|| shared.update(u))).collect();
            callers.into_iter().map(|c| c.join().unwrap()).collect()
        })
    }

    fn insert_data(i: usize) -> String {
        format!("INSERT DATA {{ <http://s/{i}> <http://p> <http://o/{i}> }}")
    }

    #[test]
    fn concurrent_requests_each_get_their_own_outcome() {
        let shared = loaded_shared(4);
        let outcomes = concurrently(
            &shared,
            &[
                insert_data(100),
                "DELETE DATA { <http://s/0> <http://p> <http://o/0> }".into(),
                "INSERT DATA { <http://s/200> <http://p> <http://o/200> . \
                 <http://s/201> <http://p> <http://o/201> }"
                    .into(),
            ],
        );
        let outcomes: Vec<UpdateOutcome> = outcomes.into_iter().map(Result::unwrap).collect();
        assert_eq!(
            outcomes,
            [
                UpdateOutcome { inserted: 1, deleted: 0 },
                UpdateOutcome { inserted: 0, deleted: 1 },
                UpdateOutcome { inserted: 2, deleted: 0 },
            ]
        );
        let stats = shared.update_stats();
        assert_eq!((stats.groups, stats.applied, stats.failed), (3, 3, 0), "one commit each");
        assert_eq!(stats.batch_sizes, [3]);
        assert_eq!(shared.query("SELECT ?s WHERE { ?s <http://p> ?o }").unwrap().len(), 6);
    }

    #[test]
    fn a_failing_request_fails_alone() {
        let shared = loaded_shared(50);
        // Enough rows for an INSERT DATA, too few for a DELETE WHERE that
        // matches all 50 triples.
        shared.write().set_row_budget(Some(20));
        let outcomes = concurrently(
            &shared,
            &[insert_data(100), "DELETE WHERE { ?s <http://p> ?o }".into(), insert_data(101)],
        );
        assert_eq!(outcomes[0], Ok(UpdateOutcome { inserted: 1, deleted: 0 }));
        assert_eq!(outcomes[1], Err(StoreError::Sql(relstore::Error::LimitExceeded)));
        assert_eq!(outcomes[2], Ok(UpdateOutcome { inserted: 1, deleted: 0 }));
        let stats = shared.update_stats();
        assert_eq!((stats.groups, stats.applied, stats.failed), (2, 2, 1));
        shared.write().set_row_budget(None);
        assert_eq!(shared.query("SELECT ?s WHERE { ?s <http://p> ?o }").unwrap().len(), 52);
    }

    #[test]
    fn update_applies_delete_insert_atomically_per_request() {
        let shared = loaded_shared(4);
        let out = shared
            .update(
                "DELETE { ?s <http://p> ?o } INSERT { ?s <http://q> ?o } \
                 WHERE { ?s <http://p> ?o }",
            )
            .unwrap();
        assert_eq!(out, UpdateOutcome { inserted: 4, deleted: 4 });
        assert_eq!(shared.query("SELECT ?s WHERE { ?s <http://p> ?o }").unwrap().len(), 0);
        assert_eq!(shared.query("SELECT ?s WHERE { ?s <http://q> ?o }").unwrap().len(), 4);
        let stats = shared.update_stats();
        assert_eq!((stats.applied, stats.failed), (1, 0));
    }

    #[test]
    fn parse_errors_touch_nothing() {
        let shared = loaded_shared(2);
        let before = shared.epoch();
        assert!(shared.update("INSERT DATA { ?v <http://p> 1 }").is_err());
        assert!(shared.update("nonsense").is_err());
        assert_eq!(shared.epoch(), before);
        assert_eq!(shared.update_stats(), UpdateStats::default());
    }

    #[test]
    fn write_guard_publishes_on_drop() {
        let shared = loaded_shared(1);
        {
            let mut guard = shared.write();
            guard.insert(&triple(7)).unwrap();
            // Not yet published: concurrent snapshots still see the old
            // state (take one through a second handle to prove it).
            let racing = shared.clone();
            assert_eq!(
                racing.snapshot().query("SELECT ?s WHERE { ?s <http://p> ?o }").unwrap().len(),
                1
            );
        }
        assert_eq!(shared.query("SELECT ?s WHERE { ?s <http://p> ?o }").unwrap().len(), 2);
    }

    #[test]
    fn insert_data_reports_only_new_triples() {
        let shared = loaded_shared(3);
        // 0..3 are stored already, 3..6 are new, and 5 comes twice.
        let data: String = (0..6)
            .chain([5])
            .map(|i| format!("<http://s/{i}> <http://p> <http://o/{i}> . "))
            .collect();
        let out = shared.update(&format!("INSERT DATA {{ {data} }}")).unwrap();
        assert_eq!(out, UpdateOutcome { inserted: 3, deleted: 0 });
        assert_eq!(shared.query("SELECT ?s WHERE { ?s <http://p> ?o }").unwrap().len(), 6);
    }

    #[test]
    fn snapshots_are_monotone_under_concurrent_publication() {
        const PUBLISHES: usize = 200;
        let shared = loaded_shared(1);
        let base = shared.epoch();
        std::thread::scope(|s| {
            let writer = shared.clone();
            s.spawn(move || {
                for i in 0..PUBLISHES {
                    // Two values of a fresh predicate on one subject: the
                    // second flips the predicate to multi-valued, a layout
                    // move, so every publication bumps the epoch.
                    let mut w = writer.write();
                    for o in 0..2 {
                        w.insert(&Triple::new(
                            Term::iri(format!("http://s/{}", 100 + i)),
                            Term::iri(format!("http://p/{i}")),
                            Term::iri(format!("http://o/{i}/{o}")),
                        ))
                        .unwrap();
                    }
                }
            });
            for _ in 0..3 {
                let reader = shared.clone();
                s.spawn(move || {
                    let mut last = base;
                    for _ in 0..500 {
                        let epoch = reader.snapshot().epoch();
                        assert!(epoch >= last, "published epochs are monotone");
                        last = epoch;
                    }
                });
            }
        });
        let last = shared.snapshot();
        // Each publication bumped the epoch once: the readers'
        // monotonicity check had 200 steps to trip on.
        assert_eq!(last.epoch(), base + PUBLISHES as u64);
        assert_eq!(
            last.query("SELECT ?s WHERE { ?s ?p ?o }").unwrap().len(),
            1 + 2 * PUBLISHES
        );
    }
}
