//! A thread-safe handle over [`RdfStore`] with snapshot-isolated reads and
//! group-committed writes.
//!
//! ## Snapshot-per-reader
//!
//! No query ever runs under a lock. [`SharedStore::snapshot`] hands out an
//! `Arc<RdfStore>` of the last *published* state from a `Mutex<Arc<RdfStore>>`
//! that a reader holds for one `Arc` clone and a writer for one pointer swap;
//! the writer mutex — held while a group applies and fsyncs — is never
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
//! ## Group commit
//!
//! Writers serialize behind a single mutex, and the queue is the one way in
//! for a shared store: `/update` requests and `/insert` chunks alike (there
//! is no per-triple side door). An update request is parsed outside the
//! lock, queued, and then either (a) discovers a concurrent leader already
//! applied it and returns, or (b) acquires the writer lock, drains the
//! whole queue, applies every queued request — each as its own WAL frame
//! via [`crate::update::apply_update`] — and pays **one** fsync for the
//! group. Under write pressure the fsync amortizes across every
//! request that arrived while the previous group was committing; the
//! batch-size histogram in [`UpdateStats`] makes the coalescing observable.
//!
//! A group is all-or-nothing at the WAL: if any request's frame fails to
//! append, or the group fsync fails, the WAL is already truncated back to
//! the last synced boundary (see `relstore::WalWriter`), so the leader rolls
//! the in-memory state back to the group start, fails every queued request,
//! and marks the store degraded — acknowledged updates stay durable,
//! unacknowledged ones vanish atomically. A request that fails *logically*
//! (unsupported WHERE shape, budget exhaustion) rolls back alone and does
//! not poison its group.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use crate::error::{Result, StoreError};
use crate::loader::LoadReport;
use crate::plancache::PlanCacheStats;
use crate::results::Solutions;
use crate::store::RdfStore;
use crate::update::{apply_update, UpdateOutcome};

/// Group-commit batch-size histogram buckets: 1, 2, 3, 4, 5–8, 9–16, 17+.
pub const BATCH_BUCKETS: usize = 7;

/// Human-readable labels for [`UpdateStats::batch_sizes`], index-aligned.
pub const BATCH_BUCKET_LABELS: [&str; BATCH_BUCKETS] = ["1", "2", "3", "4", "5-8", "9-16", "17+"];

fn batch_bucket(n: usize) -> usize {
    match n {
        0 | 1 => 0,
        2 => 1,
        3 => 2,
        4 => 3,
        5..=8 => 4,
        9..=16 => 5,
        _ => 6,
    }
}

/// Counter snapshot of the update subsystem, for `/stats` and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UpdateStats {
    /// Group commits performed (one fsync each).
    pub groups: u64,
    /// Update requests acknowledged (durable).
    pub applied: u64,
    /// Update requests that failed (logical errors and group aborts).
    pub failed: u64,
    /// Histogram of requests-per-group; see [`BATCH_BUCKET_LABELS`].
    pub batch_sizes: [u64; BATCH_BUCKETS],
}

/// One queued update request. The slot is filled exactly once — by the
/// group leader — and taken exactly once, by the submitting thread.
struct Pending {
    update: sparql::Update,
    slot: Arc<Mutex<Option<Result<UpdateOutcome>>>>,
}

struct SharedInner {
    /// The writable master store. Mutations hold this mutex; nothing on the
    /// read path ever touches it.
    writer: Mutex<RdfStore>,
    /// The last published snapshot; what every reader sees. Held only for
    /// an `Arc` clone or swap, never while a query or a commit runs.
    snap: Mutex<Arc<RdfStore>>,
    /// Update requests waiting for a group leader.
    queue: Mutex<Vec<Pending>>,
    /// Mirrors `is_read_only()` of the last published state, readable
    /// without loading a snapshot (the server's admission check).
    degraded: AtomicBool,
    update_groups: AtomicU64,
    updates_applied: AtomicU64,
    updates_failed: AtomicU64,
    batch_hist: [AtomicU64; BATCH_BUCKETS],
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
/// reads, group-committed updates.
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
/// outside the group-commit counters; graph changes should go through
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
                queue: Mutex::new(Vec::new()),
                degraded: AtomicBool::new(degraded),
                update_groups: AtomicU64::new(0),
                updates_applied: AtomicU64::new(0),
                updates_failed: AtomicU64::new(0),
                batch_hist: Default::default(),
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

    /// Apply a SPARQL 1.1 Update request (parsed outside any lock), group-
    /// committed with whatever concurrent requests are in flight. Returns
    /// once the request is durable (its group's fsync completed).
    pub fn update(&self, text: &str) -> Result<UpdateOutcome> {
        let update = sparql::parse_update(text)?;
        self.apply_parsed_update(update)
    }

    /// [`SharedStore::update`] for a pre-parsed request.
    pub fn apply_parsed_update(&self, update: sparql::Update) -> Result<UpdateOutcome> {
        if self.inner.degraded.load(Ordering::SeqCst) {
            return Err(read_only_error());
        }
        let slot = Arc::new(Mutex::new(None));
        self.inner
            .queue
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .push(Pending { update, slot: slot.clone() });

        let mut store = self.inner.writer.lock().unwrap_or_else(|p| p.into_inner());
        if let Some(result) = slot.lock().unwrap_or_else(|p| p.into_inner()).take() {
            // A concurrent leader drained the queue (including this
            // request) while this thread waited for the writer mutex.
            return result;
        }

        // This thread is the group leader: commit everything queued so far
        // as one group, then hand each submitter its result.
        let group: Vec<Pending> =
            std::mem::take(&mut *self.inner.queue.lock().unwrap_or_else(|p| p.into_inner()));
        debug_assert!(!group.is_empty(), "leader's own request is queued");
        let checkpoint = store.mutation_checkpoint();

        let mut results: Vec<Result<UpdateOutcome>> = Vec::with_capacity(group.len());
        let mut group_aborted = store.is_read_only();
        if !group_aborted {
            for pending in &group {
                results.push(apply_update(&mut store, &pending.update));
                if store.is_read_only() {
                    // An append failure truncated the WAL to the last
                    // synced boundary, wiping earlier requests' frames of
                    // this group too: nothing in the group is salvageable.
                    group_aborted = true;
                    break;
                }
            }
        }
        if !group_aborted && results.iter().any(|r| r.is_ok()) {
            // One fsync for the whole group — the group-commit barrier.
            group_aborted = store.db_sync_wal().is_err();
        }

        if group_aborted {
            store.rollback_mutation(checkpoint);
            self.inner.updates_failed.fetch_add(group.len() as u64, Ordering::Relaxed);
            for pending in &group {
                *pending.slot.lock().unwrap_or_else(|p| p.into_inner()) =
                    Some(Err(read_only_error()));
            }
        } else {
            let applied = results.iter().filter(|r| r.is_ok()).count() as u64;
            self.inner.update_groups.fetch_add(1, Ordering::Relaxed);
            self.inner.updates_applied.fetch_add(applied, Ordering::Relaxed);
            self.inner
                .updates_failed
                .fetch_add(group.len() as u64 - applied, Ordering::Relaxed);
            self.inner.batch_hist[batch_bucket(group.len())].fetch_add(1, Ordering::Relaxed);
            for (pending, result) in group.iter().zip(results) {
                *pending.slot.lock().unwrap_or_else(|p| p.into_inner()) = Some(result);
            }
        }
        // Publish while still holding the writer mutex (store order), then
        // let the mutex release wake the next leader.
        self.inner.publish(&store);
        drop(store);

        let result = slot
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .take()
            .expect("leader fills every slot in its group");
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
        let mut batch_sizes = [0u64; BATCH_BUCKETS];
        for (out, counter) in batch_sizes.iter_mut().zip(&self.inner.batch_hist) {
            *out = counter.load(Ordering::Relaxed);
        }
        UpdateStats {
            groups: self.inner.update_groups.load(Ordering::Relaxed),
            applied: self.inner.updates_applied.load(Ordering::Relaxed),
            failed: self.inner.updates_failed.load(Ordering::Relaxed),
            batch_sizes,
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

    /// The acceptance bar from the issue: a reader holding a snapshot is
    /// never blocked — and never sees a torn state — while 100+ updates
    /// group-commit underneath it.
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
        assert!(stats.groups >= 1 && stats.groups <= stats.applied);
        assert_eq!(stats.batch_sizes.iter().sum::<u64>(), stats.groups);
    }

    /// Run `updates` on one thread each while the writer mutex is held, and
    /// release it only once all of them are queued: whichever caller takes
    /// the mutex first leads one group of all of them. The outcomes come
    /// back in `updates` order.
    fn one_group(shared: &SharedStore, updates: &[String]) -> Vec<Result<UpdateOutcome>> {
        let guard = shared.write();
        std::thread::scope(|s| {
            let callers: Vec<_> =
                updates.iter().map(|u| s.spawn(|| shared.update(u))).collect();
            while shared.inner.queue.lock().unwrap().len() < updates.len() {
                std::thread::yield_now();
            }
            drop(guard);
            callers.into_iter().map(|c| c.join().unwrap()).collect()
        })
    }

    fn insert_data(i: usize) -> String {
        format!("INSERT DATA {{ <http://s/{i}> <http://p> <http://o/{i}> }}")
    }

    #[test]
    fn queued_requests_commit_as_one_group() {
        let shared = loaded_shared(4);
        let outcomes = one_group(
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
        assert_eq!((stats.groups, stats.applied, stats.failed), (1, 3, 0));
        assert_eq!(stats.batch_sizes, [0, 0, 1, 0, 0, 0, 0], "one group of three");
        assert_eq!(shared.query("SELECT ?s WHERE { ?s <http://p> ?o }").unwrap().len(), 6);
    }

    #[test]
    fn a_failing_request_does_not_poison_its_group() {
        let shared = loaded_shared(50);
        // Enough rows for an INSERT DATA, too few for a DELETE WHERE that
        // matches all 50 triples.
        shared.write().set_row_budget(Some(20));
        let outcomes = one_group(
            &shared,
            &[insert_data(100), "DELETE WHERE { ?s <http://p> ?o }".into(), insert_data(101)],
        );
        assert_eq!(outcomes[0], Ok(UpdateOutcome { inserted: 1, deleted: 0 }));
        assert_eq!(outcomes[1], Err(StoreError::Sql(relstore::Error::LimitExceeded)));
        assert_eq!(outcomes[2], Ok(UpdateOutcome { inserted: 1, deleted: 0 }));
        let stats = shared.update_stats();
        assert_eq!((stats.groups, stats.applied, stats.failed), (1, 2, 1));
        assert_eq!(stats.batch_sizes, [0, 0, 1, 0, 0, 0, 0], "one group of three");
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
