//! Sharded, epoch-invalidated LRU cache of full SPARQL planning artifacts.
//!
//! The paper's §3 optimizer (data-flow graph → flow tree → exec tree → SQL)
//! is pure given the query text, the statistics, the predicate layouts, and
//! the term dictionary — so its output can be reused across requests as
//! long as none of those inputs has moved. The serving path (`crates/
//! server`) sees the same query text thousands of times; production SPARQL
//! endpoints all amortize planning the same way.
//!
//! ## Epoch invalidation
//!
//! [`RdfStore`](crate::RdfStore) keeps a **mutation epoch**. A cache entry
//! records the epoch it was planned under; a lookup under any other epoch
//! treats the entry as stale, removes it, and counts an invalidation. The
//! epoch moves only when a mutation changed something every plan can
//! depend on: a bulk `load`, a failed or rolled-back mutation, or an
//! `insert` after which the store's planning fingerprint differs — a
//! predicate layout moved (a spill, a multi-valued flip, a widened column
//! set, a new vertical table). Dictionary growth is not in it: only a plan
//! that translated an *unknown* constant to "provably empty" can change
//! when a term is interned, so such a plan records the dictionary length
//! it was made at ([`CachedPlan::planned_dict_len`]) and a lookup treats it
//! as stale once the dictionary has grown. Generated SQL never depends on
//! row data, so every other mutation — any successful `delete`, an insert
//! into settled layouts, new terms included — leaves the epoch and every
//! plan naming known terms alone and is counted as an avoided
//! invalidation; stale statistics can at worst pick a slower join order.
//! Under [`SharedStore`](crate::SharedStore) the epoch is a plain field of
//! the store value: the writer bumps it on its private master and readers
//! see it only through the immutable snapshot published afterwards, so a
//! reader can never observe a torn epoch/plan pair.
//!
//! ## Concurrency & eviction
//!
//! The cache itself uses interior mutability (planning happens on the
//! `&self` query path): entries live in [`SHARD_COUNT`] shards, each behind
//! its own mutex, keyed by the hash of the normalized query text — readers
//! planning different queries contend only within a shard, and no lookup
//! ever touches the store's writer mutex. Each shard evicts least-recently-
//! used entries past its share of the configured capacity (small caches
//! collapse to one shard so eviction order is exact and testable).

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use relstore::Prepared;
use sparql::Query;

use crate::optimizer::ExecNode;

/// Everything `plan()` produces for one query text: reusing this object
/// skips parsing, optimization, star merging, SQL generation, and SQL
/// parsing and compilation.
#[derive(Debug)]
pub struct CachedPlan {
    /// The parsed query (form, pattern, modifiers).
    pub query: Query,
    /// Optimal-flow summary: (1-based triple id in parse order, access-
    /// method name) — what `explain` reports.
    pub flow: Vec<(usize, &'static str)>,
    /// The merged execution tree (`None` for the trivial zero-pattern
    /// plan); rendered lazily by `explain` so the query path never pays
    /// for the debug formatting.
    pub exec: Option<ExecNode>,
    /// The generated SQL and its compiled form; `None` for the trivial
    /// zero-pattern plan, which has a fixed answer and never touches the
    /// relational engine.
    pub sql: Option<PlanSql>,
    /// Projected variable names, in SELECT order.
    pub projected: Vec<String>,
    /// Per-column decode mode, positional with `projected`: term-domain
    /// columns resolve through the dictionary, value-domain columns
    /// (aggregates, BIND arithmetic) decode as plain numbers.
    pub projected_modes: Vec<crate::results::DecodeMode>,
    /// The dictionary length the plan was made at, if translation folded a
    /// constant the dictionary did not hold (an entity-layout `NULL`, a
    /// VALUES string no id equals): once the dictionary has grown, that
    /// term may have an id, so the plan is stale. `None` when every
    /// constant resolved — dictionary growth cannot change such a plan.
    pub planned_dict_len: Option<usize>,
}

/// A plan's SQL in both forms: the generated text — the inspectable plan
/// that `translate`, `explain` and `figures sql` print — and the `relstore`
/// statement compiled from it, which is what a query executes. The
/// compiled form holds column positions, not rows, so it serves every
/// snapshot whose tables have the shape it was compiled against; running
/// it elsewhere fails before reading a row ([`relstore::Error::Stale`]).
#[derive(Debug)]
pub struct PlanSql {
    pub text: String,
    /// `text` compiled against the store's database when the plan was
    /// made. A compile error is kept and reported when the plan is run, as
    /// executing the text would have reported it.
    pub prepared: Result<Prepared, relstore::Error>,
}

/// Counter snapshot for `/stats` and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlanCacheStats {
    /// Lookups that returned a current-epoch plan.
    pub hits: u64,
    /// Lookups that found nothing usable (includes invalidations).
    pub misses: u64,
    /// Entries dropped by LRU capacity pressure.
    pub evictions: u64,
    /// Entries dropped because their epoch was stale.
    pub invalidations: u64,
    /// Mutations that proved they could not change any plan (no new
    /// dictionary IDs, no layout growth) and therefore left the epoch — and
    /// every cached entry — untouched. The scoped-invalidation win counter.
    pub invalidations_avoided: u64,
    /// Entries currently cached.
    pub entries: usize,
    /// Configured total capacity.
    pub capacity: usize,
}

/// Shards used for caches of at least [`SHARD_THRESHOLD`] entries.
const SHARD_COUNT: usize = 8;

/// Below this capacity the cache uses a single shard: per-shard capacities
/// of one or two entries make LRU order depend on key hashing, which is
/// useless for small caches and untestable.
const SHARD_THRESHOLD: usize = 64;

struct Entry {
    plan: Arc<CachedPlan>,
    /// Store epoch the plan was computed under.
    epoch: u64,
    /// Shard-local recency tick; smallest = least recently used.
    last_used: u64,
}

#[derive(Default)]
struct Shard {
    entries: HashMap<Box<str>, Entry>,
    tick: u64,
}

/// The cache. Capacity is fixed at construction (`RdfStore::set_plan_cache`
/// swaps the whole cache to resize).
pub struct PlanCache {
    shards: Box<[Mutex<Shard>]>,
    capacity: usize,
    per_shard: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    invalidations: AtomicU64,
    invalidations_avoided: AtomicU64,
}

impl std::fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        f.debug_struct("PlanCache").field("capacity", &self.capacity).field("stats", &s).finish()
    }
}

/// Cache-key normalization. Deliberately conservative: only surrounding
/// whitespace is stripped — collapsing interior runs would conflate
/// queries that differ inside string literals (`'a b'` vs `'a  b'`).
pub fn normalize(text: &str) -> &str {
    text.trim()
}

impl PlanCache {
    /// A cache holding at most `capacity` plans (`capacity >= 1`; callers
    /// model "disabled" as the absence of a cache, not a zero capacity).
    pub fn new(capacity: usize) -> PlanCache {
        let capacity = capacity.max(1);
        let n = if capacity >= SHARD_THRESHOLD { SHARD_COUNT } else { 1 };
        PlanCache {
            shards: (0..n).map(|_| Mutex::new(Shard::default())).collect(),
            capacity,
            per_shard: capacity.div_ceil(n),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
            invalidations_avoided: AtomicU64::new(0),
        }
    }

    /// Record that a mutation completed without bumping the store epoch —
    /// every cached plan survived it (see `RdfStore::insert`/`delete`).
    pub fn note_invalidation_avoided(&self) {
        self.invalidations_avoided.fetch_add(1, Ordering::Relaxed);
    }

    fn shard(&self, key: &str) -> &Mutex<Shard> {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % self.shards.len()]
    }

    /// Look up `key` (pre-normalized) under the store's current `epoch`. A
    /// stale entry — another epoch, or a plan that folded an unknown
    /// constant while the dictionary has since grown past the length it
    /// was planned at (`dict_len` is asked only for such a plan) — is
    /// removed and counted as both an invalidation and a miss.
    pub fn get(
        &self,
        key: &str,
        epoch: u64,
        dict_len: impl FnOnce() -> usize,
    ) -> Option<Arc<CachedPlan>> {
        let mut shard = self.shard(key).lock().unwrap_or_else(|e| e.into_inner());
        let shard = &mut *shard; // split field borrows (entries vs. tick)
        match shard.entries.get_mut(key) {
            Some(entry)
                if entry.epoch == epoch
                    && entry.plan.planned_dict_len.is_none_or(|n| n >= dict_len()) =>
            {
                shard.tick += 1;
                entry.last_used = shard.tick;
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(entry.plan.clone())
            }
            Some(_) => {
                shard.entries.remove(key);
                self.invalidations.fetch_add(1, Ordering::Relaxed);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Insert (or replace) the plan for `key`, tagged with the epoch it was
    /// computed under, evicting the shard's least-recently-used entry when
    /// over capacity.
    pub fn insert(&self, key: &str, epoch: u64, plan: Arc<CachedPlan>) {
        let mut shard = self.shard(key).lock().unwrap_or_else(|e| e.into_inner());
        shard.tick += 1;
        let last_used = shard.tick;
        shard.entries.insert(key.into(), Entry { plan, epoch, last_used });
        while shard.entries.len() > self.per_shard {
            let victim = shard
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
                .expect("shard over capacity is non-empty");
            shard.entries.remove(&victim);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    pub fn stats(&self) -> PlanCacheStats {
        PlanCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            invalidations_avoided: self.invalidations_avoided.load(Ordering::Relaxed),
            entries: self
                .shards
                .iter()
                .map(|s| s.lock().unwrap_or_else(|e| e.into_inner()).entries.len())
                .sum(),
            capacity: self.capacity,
        }
    }
}

// The server shares the cache across worker threads through `SharedStore`.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<PlanCache>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use sparql::parse_sparql;

    fn plan_for(text: &str) -> Arc<CachedPlan> {
        plan_at(text, None)
    }

    fn plan_at(text: &str, planned_dict_len: Option<usize>) -> Arc<CachedPlan> {
        let query = parse_sparql(text).unwrap();
        let projected = query.projected_variables();
        let projected_modes = vec![crate::results::DecodeMode::Term; projected.len()];
        Arc::new(CachedPlan {
            query,
            flow: Vec::new(),
            exec: None,
            sql: None,
            projected,
            projected_modes,
            planned_dict_len,
        })
    }

    /// The dictionary length never matters for a plan with no unknown
    /// constant.
    const ANY_LEN: fn() -> usize = || usize::MAX;

    const Q1: &str = "SELECT ?s WHERE { ?s <http://p> ?o }";
    const Q2: &str = "SELECT ?o WHERE { ?s <http://p> ?o }";
    const Q3: &str = "ASK { ?s <http://p> ?o }";

    #[test]
    fn hit_miss_and_epoch_invalidation() {
        let cache = PlanCache::new(16);
        assert!(cache.get(Q1, 0, ANY_LEN).is_none());
        cache.insert(Q1, 0, plan_for(Q1));
        assert!(cache.get(Q1, 0, ANY_LEN).is_some());
        // Epoch moved: the entry is stale, removed, and counted.
        assert!(cache.get(Q1, 1, ANY_LEN).is_none());
        assert!(cache.get(Q1, 1, ANY_LEN).is_none(), "stale entry was removed");
        let s = cache.stats();
        assert_eq!((s.hits, s.invalidations), (1, 1));
        assert_eq!(s.misses, 3);
        assert_eq!(s.entries, 0);
    }

    /// A plan that folded an unknown constant is stale once the dictionary
    /// has grown past its planning length; the length is asked for such a
    /// plan only.
    #[test]
    fn dictionary_growth_invalidates_only_plans_with_unknown_constants() {
        let cache = PlanCache::new(16);
        cache.insert(Q1, 0, plan_at(Q1, Some(10)));
        cache.insert(Q2, 0, plan_for(Q2));
        assert!(cache.get(Q1, 0, || 10).is_some(), "same length: fresh");
        assert!(cache.get(Q2, 0, || panic!("asked for a plan without misses")).is_some());
        assert!(cache.get(Q1, 0, || 11).is_none(), "grown: stale");
        assert!(cache.get(Q2, 0, ANY_LEN).is_some(), "known constants survive growth");
        let s = cache.stats();
        assert_eq!((s.hits, s.invalidations, s.entries), (3, 1, 1));
    }

    #[test]
    fn lru_eviction_order_is_exact_below_shard_threshold() {
        let cache = PlanCache::new(2); // single shard: exact LRU
        cache.insert(Q1, 0, plan_for(Q1));
        cache.insert(Q2, 0, plan_for(Q2));
        assert!(cache.get(Q1, 0, ANY_LEN).is_some()); // Q1 now most recent
        cache.insert(Q3, 0, plan_for(Q3)); // evicts Q2
        assert!(cache.get(Q2, 0, ANY_LEN).is_none(), "LRU entry evicted");
        assert!(cache.get(Q1, 0, ANY_LEN).is_some());
        assert!(cache.get(Q3, 0, ANY_LEN).is_some());
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.stats().entries, 2);
    }

    #[test]
    fn normalization_trims_but_preserves_interior_whitespace() {
        assert_eq!(normalize("  SELECT * WHERE {}\n"), "SELECT * WHERE {}");
        let a = "SELECT ?s WHERE { ?s <p> 'a  b' }";
        assert_eq!(normalize(a), a, "interior runs must survive");
    }

    #[test]
    fn replacing_a_key_keeps_one_entry() {
        let cache = PlanCache::new(4);
        cache.insert(Q1, 0, plan_for(Q1));
        cache.insert(Q1, 1, plan_for(Q1));
        assert_eq!(cache.stats().entries, 1);
        assert!(cache.get(Q1, 1, ANY_LEN).is_some(), "replacement carries the new epoch");
        // A lookup under any *other* epoch treats the entry as stale and
        // removes it — even an older epoch (epochs only move forward in
        // practice, but the guard is equality, not ordering).
        assert!(cache.get(Q1, 0, ANY_LEN).is_none());
        assert_eq!(cache.stats().entries, 0);
    }
}
