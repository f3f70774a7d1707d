//! The public RDF store API: load triples, run SPARQL, inspect plans.
//!
//! There is one way to change the graph: a *request* — one or many triple
//! insertions and deletions — runs through [`RdfStore::request`], which
//! takes the copy-on-write checkpoint, opens the one WAL batch, lets the
//! layout-specific per-triple bodies run, flushes `sys_dict`/`sys_meta`
//! once, compares the plan fingerprint once, commits one frame, and rolls
//! memory back to the checkpoint on any error. [`RdfStore::insert`] and
//! [`RdfStore::delete`] are one-op requests; a SPARQL Update request
//! ([`crate::update`]) is the same skeleton with many ops. Every request
//! commits alone: one frame, one fsync.

use std::collections::HashSet;
use std::sync::Arc;

use rdf::Triple;
use relstore::{quote_str, Database};
use sparql::{parse_sparql, Pattern, Query, QueryForm};

use crate::baseline::{
    delete_triple_store, delete_vertical, insert_triple_store, insert_vertical, TripleGen,
    VerticalGen, VerticalLayout,
};
use crate::dict::{Dict, SharedDict};
use crate::error::{Result, StoreError};
use crate::layout::SideLayout;
use crate::loader::{delete_entity, insert_entity, EntityConfig, LoadReport};
use crate::optimizer::{
    merge_exec_tree, optimize, ExecNode, MergeInfo, OptimizerMode, PTree,
};
use crate::plancache::{self, CachedPlan, PlanCache, PlanCacheStats, PlanSql};
use crate::results::{DecodeMode, Solutions};
use crate::stats::Stats;
use crate::translate::entity::EntityGen;
use crate::translate::functions::register_rdf_functions;
use crate::translate::{
    apply_filter, finish, gen_aggregate, gen_bind, gen_pattern, gen_select_exprs,
    gen_subquery_join, gen_values, GenState, PlanDict,
};

/// Which relational layout backs the store (paper §2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// The paper's entity-oriented DB2RDF schema (DPH/DS/RPH/RS).
    Entity,
    /// Single three-column triples relation.
    TripleStore,
    /// Predicate-oriented vertical partitioning (one table per predicate).
    Vertical,
}

/// Store configuration.
#[derive(Debug, Clone)]
pub struct StoreConfig {
    pub layout: Layout,
    pub entity: EntityConfig,
    pub optimizer: OptimizerMode,
    /// Top-k constants tracked exactly in the statistics.
    pub top_k: usize,
    /// Per-query evaluation budget in rows (None = unbounded); the analogue
    /// of the paper's 10-minute timeout.
    pub row_budget: Option<u64>,
    /// Per-query wall-clock deadline (None = unbounded); checked at the same
    /// execution sites as the row budget and surfaced as a timeout.
    pub deadline: Option<std::time::Duration>,
    /// Parallel width for the relational engine's morsel-parallel
    /// operators. `None` defers to the `RELSTORE_THREADS` environment
    /// variable, then to the machine's available parallelism; `Some(1)`
    /// forces sequential execution.
    pub threads: Option<usize>,
    /// Capacity of the epoch-invalidated query-plan cache (entries);
    /// `0` disables caching and re-plans every query from scratch.
    pub plan_cache_entries: usize,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            layout: Layout::Entity,
            entity: EntityConfig::default(),
            optimizer: OptimizerMode::CostBased,
            top_k: 1000,
            row_budget: None,
            deadline: None,
            threads: None,
            plan_cache_entries: 512,
        }
    }
}

impl StoreConfig {
    pub fn with_layout(layout: Layout) -> StoreConfig {
        StoreConfig { layout, ..Default::default() }
    }
}

/// Everything `explain` exposes about a query's plan.
#[derive(Debug, Clone)]
pub struct Explanation {
    /// Optimal flow: (triple id per the query's parse order, method name).
    pub flow: Vec<(usize, &'static str)>,
    /// Debug rendering of the (merged) execution tree.
    pub exec_tree: String,
    /// The generated SQL.
    pub sql: String,
}

/// An RDF store over an embedded relational database — the system the paper
/// describes, with selectable layout for baseline comparisons.
mod bulk;

pub use bulk::{BulkLoadOptions, BulkLoadStats};

pub struct RdfStore {
    cfg: StoreConfig,
    db: Database,
    /// Term dictionary shared with the registered `RDF_*` scalar functions.
    /// Every layout's tables hold its ids; loads and inserts intern into
    /// it, and it only grows.
    dict: SharedDict,
    meta: Meta,
    /// Mutation epoch: bumped whenever a mutation may have changed the
    /// planning inputs of every plan — a predicate layout moved (spill,
    /// multi-valued flip, widening), or a bulk `load`/schema experiment ran
    /// — so cached plans can never be replayed against a store whose
    /// layout has moved since they were computed. Mutations that change
    /// no layout (deletes, duplicate inserts, inserts into settled
    /// layouts, new terms included) leave the epoch alone: generated SQL is
    /// data-independent, so every cached plan stays correct and the skip is
    /// counted as an avoided invalidation. The one plan a new term can
    /// change — one that folded that term as unknown — goes stale on
    /// dictionary growth instead ([`CachedPlan::planned_dict_len`]). A
    /// plain `u64` is enough: every mutation path takes `&mut self`, and
    /// `SharedStore` serializes mutations behind its writer lock.
    epoch: u64,
    /// Sharded LRU plan cache (interior mutability: the `&self` query path
    /// inserts into it). `None` when disabled via the config; behind `Arc`
    /// so reader snapshots share one cache with the master store.
    plan_cache: Option<Arc<PlanCache>>,
}

/// What the store has built in the relational back-end, carrying the
/// metadata only that layout has. `Empty` until the first load or insert;
/// afterwards always the variant of the configured [`Layout`].
#[allow(clippy::large_enum_variant)] // one value per store, never a collection
#[derive(Debug, Clone, Default)]
enum Schema {
    #[default]
    Empty,
    Entity {
        direct: SideLayout,
        reverse: SideLayout,
    },
    TripleStore,
    Vertical(VerticalLayout),
}

/// Everything the store knows about its dataset besides the rows — what
/// `sys_meta` persists, a reader snapshot copies and a rollback restores,
/// each as one value. Every request checkpoints it, so the statistics —
/// top-k maps of term strings, written only by a load — are shared rather
/// than copied.
#[derive(Debug, Clone, Default)]
struct Meta {
    schema: Schema,
    stats: Arc<Stats>,
    report: LoadReport,
}

/// Copy-on-write backup of everything a mutation can touch, taken before a
/// request and restored if it fails — the request-level all-or-nothing
/// guarantee. Cheap: tables are `Arc` bumps, side metadata (layouts with
/// their next-lid counters, stats, report) is small. The term dictionary is
/// deliberately *not* rolled back (it is append-only and
/// interned-but-unreferenced entries are harmless; a plan that folded such
/// a term as unknown goes stale on the growth); the epoch is bumped on
/// rollback so no plan made against the abandoned layout survives.
struct MutationCheckpoint {
    tables: std::collections::HashMap<String, Arc<relstore::Table>>,
    meta: Meta,
}

/// A request in flight: the only handle through which triples enter or
/// leave the graph, so the per-triple bodies cannot run outside
/// [`RdfStore::request`]'s batch, flush and rollback.
pub(crate) struct Request<'a> {
    store: &'a mut RdfStore,
    /// Whether any op changed the graph — only then is there metadata to
    /// flush.
    changed: bool,
}

/// The metadata table (see the `persist` module): two TEXT columns `k` and
/// `v`, one row per persisted blob — layout name, per-side layouts,
/// statistics, and the load report.
const META_TABLE: &str = "sys_meta";

/// The term-dictionary table: `(first_id BIGINT, n BIGINT, page TEXT)`, one
/// row per page of up to `DICT_PAGE` consecutive entries, covering dense
/// IDs `1..=n` append-only. New entries are written inside the same WAL
/// batch as the data rows that reference them (see `persist_dict`), so
/// after any crash + replay an ID stored in a data table always resolves to
/// the string it was assigned — never to a different one, never to nothing.
const DICT_TABLE: &str = "sys_dict";
/// Dictionary entries per persisted `sys_dict` page row.
const DICT_PAGE: usize = 64;

/// `sys_meta` key for the streaming bulk loader's crash protocol (see
/// `store::bulk`): set to `in-progress` in the load's first committed batch
/// and flipped to `complete` in its last. A reopen that finds any other
/// value refuses the store — the dataset on disk is a committed-but-partial
/// prefix of an interrupted bulk load.
const BULK_MARKER: &str = "bulk_load";

impl RdfStore {
    pub fn new(cfg: StoreConfig) -> RdfStore {
        RdfStore::with_database(Database::new(), cfg)
    }

    /// Open (or create) a durable store rooted at `dir`. Relational state is
    /// recovered by the back-end's snapshot + WAL replay; the store's side
    /// metadata (predicate layouts, statistics, load report) is restored
    /// from the `sys_meta` table, so a bulk-loaded dataset is queryable
    /// immediately after reopen. The configured layout must match the one
    /// the directory was created with.
    pub fn open(dir: impl AsRef<std::path::Path>, cfg: StoreConfig) -> Result<RdfStore> {
        Self::open_with_faults(dir, cfg, relstore::no_faults())
    }

    /// [`RdfStore::open`] with a fault injector over the durable file layer —
    /// the entry point of the crash-point fuzzing harness. Every WAL/snapshot
    /// read and write of this store's lifetime flows through `faults`.
    pub fn open_with_faults(
        dir: impl AsRef<std::path::Path>,
        cfg: StoreConfig,
        faults: relstore::FaultHandle,
    ) -> Result<RdfStore> {
        let db = Database::open_with_faults(dir.as_ref(), faults)?;
        let mut store = RdfStore::with_database(db, cfg);
        store.restore_meta()?;
        Ok(store)
    }

    fn with_database(mut db: Database, cfg: StoreConfig) -> RdfStore {
        let dict = SharedDict::new();
        register_rdf_functions(&mut db, &dict);
        db.set_row_budget(cfg.row_budget);
        db.set_deadline(cfg.deadline);
        db.set_threads(cfg.threads);
        let plan_cache =
            (cfg.plan_cache_entries > 0).then(|| Arc::new(PlanCache::new(cfg.plan_cache_entries)));
        RdfStore {
            cfg,
            db,
            dict,
            meta: Meta::default(),
            epoch: 0,
            plan_cache,
        }
    }

    /// An entity-layout store with default settings.
    pub fn entity() -> RdfStore {
        RdfStore::new(StoreConfig::default())
    }

    /// Checkpoint a durable store: write a snapshot of all tables and rotate
    /// the WAL, bounding reopen time. No-op guidance: call after bulk loads
    /// or large insert batches. Errors on in-memory or read-only stores are
    /// surfaced from the back-end.
    pub fn checkpoint(&mut self) -> Result<()> {
        self.db.checkpoint()?;
        Ok(())
    }

    /// Checkpoint (when durable and writable) and drop the store.
    pub fn close(self) -> Result<()> {
        self.db.close()?;
        Ok(())
    }

    // -- sys_meta persistence ------------------------------------------------

    /// Persist the store's side metadata into `sys_meta` and the term
    /// dictionary's new entries into `sys_dict`. Called inside the request
    /// (or bulk-load) batch so the metadata commits atomically with the
    /// data it describes. No-op for in-memory stores.
    fn persist_meta(&mut self, dict: &Dict) -> Result<()> {
        if !self.db.is_durable() || self.db.is_read_only() {
            return Ok(());
        }
        self.persist_dict(dict)?;
        self.ensure_meta_table()?;
        let Meta { schema, stats, report } = &self.meta;
        let mut blobs: Vec<(&str, String)> = vec![
            ("layout", meta_layout_name(self.cfg.layout).to_string()),
            ("stats", crate::persist::encode_stats(stats)),
            ("report", crate::persist::encode_report(report)),
        ];
        match schema {
            Schema::Entity { direct, reverse } => {
                blobs.push(("direct", crate::persist::encode_side(direct)));
                blobs.push(("reverse", crate::persist::encode_side(reverse)));
            }
            Schema::Vertical(v) => blobs.push(("vertical", crate::persist::encode_vertical(v))),
            Schema::Empty | Schema::TripleStore => {}
        }
        for (key, value) in blobs {
            self.set_meta(key, value)?;
        }
        Ok(())
    }

    /// Persist the dictionary entries not yet on disk to `sys_dict` as pages
    /// (`persist::encode_dict_page`): rows of `(first_id, n, page)` where
    /// row `k` covers IDs `k*DICT_PAGE + 1 ..= min((k+1)*DICT_PAGE, len)` —
    /// only the last row may be partial. A partial tail row is rewritten in place (via
    /// WAL-logged cell updates, so the rewrite commits atomically with the
    /// data batch) and full pages are appended after it. Interned-but-
    /// rolled-back entries from a failed earlier batch are re-covered
    /// automatically because the on-disk watermark never advanced for them.
    fn persist_dict(&mut self, dict: &Dict) -> Result<()> {
        if dict.is_empty() && self.db.table(DICT_TABLE).is_none() {
            return Ok(());
        }
        if self.db.table(DICT_TABLE).is_none() {
            self.db.create_table(relstore::TableSchema::new(
                DICT_TABLE,
                vec![
                    ("first_id".into(), relstore::SqlType::Int),
                    ("n".into(), relstore::SqlType::Int),
                    ("page".into(), relstore::SqlType::Text),
                ],
            ))?;
        }
        let table_rows = self.db.table(DICT_TABLE).map(|t| t.row_count()).unwrap_or(0);
        let persisted = match table_rows {
            0 => 0,
            rows => {
                let t = self.db.table(DICT_TABLE).expect("sys_dict exists");
                let last = t.row_values(rows as u32 - 1);
                match last[1] {
                    relstore::Value::Int(n) => (rows - 1) * DICT_PAGE + n as usize,
                    ref other => {
                        return Err(StoreError::Sql(relstore::Error::Corrupt(format!(
                            "sys_dict row {} has non-integer count {other:?}",
                            rows - 1
                        ))))
                    }
                }
            }
        };
        let len = dict.len();
        if len <= persisted {
            return Ok(());
        }
        let first_dirty_row = persisted / DICT_PAGE;
        let mut terms = dict.entries_from(first_dirty_row * DICT_PAGE).map(|(_, t)| t);
        let mut appended: Vec<Vec<relstore::Value>> = Vec::new();
        for row_idx in first_dirty_row..len.div_ceil(DICT_PAGE) {
            let lo = row_idx * DICT_PAGE;
            let n = (len - lo).min(DICT_PAGE);
            let page_terms: Vec<String> = terms.by_ref().take(n).collect();
            let page = crate::persist::encode_dict_page(&page_terms);
            if row_idx < table_rows {
                self.db.update_cell(DICT_TABLE, row_idx as u32, 1, relstore::Value::Int(n as i64))?;
                self.db.update_cell(DICT_TABLE, row_idx as u32, 2, relstore::Value::str(page))?;
            } else {
                appended.push(vec![
                    relstore::Value::Int(lo as i64 + 1),
                    relstore::Value::Int(n as i64),
                    relstore::Value::str(page),
                ]);
            }
        }
        if !appended.is_empty() {
            self.db.insert_rows(DICT_TABLE, appended)?;
        }
        Ok(())
    }

    fn ensure_meta_table(&mut self) -> Result<()> {
        if self.db.table(META_TABLE).is_none() {
            self.db.create_table(relstore::TableSchema::new(
                META_TABLE,
                vec![("k".into(), relstore::SqlType::Text), ("v".into(), relstore::SqlType::Text)],
            ))?;
        }
        Ok(())
    }

    /// Upsert one `sys_meta` row, skipping the write when unchanged.
    fn set_meta(&mut self, key: &str, value: String) -> Result<()> {
        let existing = self.db.table(META_TABLE).and_then(|t| {
            (0..t.row_count() as u32).find_map(|r| {
                let row = t.row_values(r);
                match (&row[0], &row[1]) {
                    (relstore::Value::Str(k), v) if k.as_ref() == key => {
                        Some((r, v.as_str().map(str::to_string)))
                    }
                    _ => None,
                }
            })
        });
        match existing {
            Some((_, Some(old))) if old == value => Ok(()),
            Some((row, _)) => {
                self.db.update_cell(META_TABLE, row, 1, relstore::Value::str(value))?;
                Ok(())
            }
            None => {
                self.db.insert_rows(
                    META_TABLE,
                    [vec![relstore::Value::str(key.to_string()), relstore::Value::str(value)]],
                )?;
                Ok(())
            }
        }
    }

    /// Read one `sys_meta` value, if the table and key exist.
    fn get_meta(&self, key: &str) -> Option<String> {
        let t = self.db.table(META_TABLE)?;
        (0..t.row_count() as u32).find_map(|r| {
            let row = t.row_values(r);
            match (&row[0], &row[1]) {
                (relstore::Value::Str(k), relstore::Value::Str(v)) if k.as_ref() == key => {
                    Some(v.to_string())
                }
                _ => None,
            }
        })
    }

    /// Restore side metadata after a durable reopen. A directory without
    /// `sys_meta` is a fresh (or never-loaded) store; a present-but-invalid
    /// blob is surfaced as corruption rather than silently ignored.
    fn restore_meta(&mut self) -> Result<()> {
        // Bulk-load crash protocol: an interrupted streaming bulk load left
        // a committed-but-partial dataset. Refuse explicitly rather than
        // serving a prefix of it (the marker precedes the layout record, so
        // this check must come first).
        if let Some(marker) = self.get_meta(BULK_MARKER) {
            if marker != "complete" {
                return Err(StoreError::Sql(relstore::Error::Corrupt(format!(
                    "bulk load interrupted (marker: {marker}); the store holds a \
                     partial dataset — delete the directory and re-run the bulk load"
                ))));
            }
        }
        let Some(layout) = self.get_meta("layout") else {
            return Ok(());
        };
        let expect = meta_layout_name(self.cfg.layout);
        if layout != expect {
            return Err(StoreError::Unsupported(format!(
                "store was created with the {layout} layout but opened as {expect}"
            )));
        }
        let corrupt = |key: &str, e: String| {
            StoreError::Sql(relstore::Error::Corrupt(format!("sys_meta {key:?}: {e}")))
        };
        // Rebuild the in-memory dictionary from sys_dict's pages. Entries
        // were written append-only with dense IDs; a row of any other shape
        // (the pre-PR 8 two-column format included), gaps or duplicates
        // after WAL replay mean corruption.
        if let Some(t) = self.db.table(DICT_TABLE) {
            if t.width() != 3 {
                return Err(corrupt(
                    "sys_dict",
                    format!("expected 3 columns (first_id, n, page), found {}", t.width()),
                ));
            }
            let mut pages: Vec<(i64, i64, String)> = Vec::with_capacity(t.row_count());
            for r in 0..t.row_count() as u32 {
                let row = t.row_values(r);
                match (&row[0], &row[1], &row[2]) {
                    (
                        relstore::Value::Int(first),
                        relstore::Value::Int(n),
                        relstore::Value::Str(page),
                    ) => pages.push((*first, *n, page.to_string())),
                    other => {
                        return Err(corrupt("sys_dict", format!("malformed row {other:?}")));
                    }
                }
            }
            pages.sort_by_key(|p| p.0);
            let mut dict = self.dict.write();
            for (first, n, page) in pages {
                let terms = crate::persist::decode_dict_page(&page, n as usize)
                    .map_err(|e| corrupt("sys_dict", e))?;
                for (k, term) in terms.into_iter().enumerate() {
                    dict.restore(first + k as i64, &term).map_err(|e| corrupt("sys_dict", e))?;
                }
            }
        }
        let side = |key: &str| {
            self.get_meta(key)
                .map(|text| crate::persist::decode_side(&text).map_err(|e| corrupt(key, e)))
                .transpose()
        };
        let stats = match self.get_meta("stats") {
            Some(text) => crate::persist::decode_stats(&text).map_err(|e| corrupt("stats", e))?,
            None => Stats::default(),
        };
        let report = match self.get_meta("report") {
            Some(text) => crate::persist::decode_report(&text).map_err(|e| corrupt("report", e))?,
            None => LoadReport::default(),
        };
        // A layout record is only ever written by a completed load.
        let schema = match self.cfg.layout {
            Layout::Entity => match (side("direct")?, side("reverse")?) {
                (Some(mut direct), Some(mut reverse)) => {
                    direct.next_lid = crate::loader::scan_next_lid(&self.db, "ds");
                    reverse.next_lid = crate::loader::scan_next_lid(&self.db, "rs");
                    Schema::Entity { direct, reverse }
                }
                _ => Schema::Empty,
            },
            Layout::TripleStore => Schema::TripleStore,
            Layout::Vertical => match self.get_meta("vertical") {
                Some(text) => Schema::Vertical(
                    crate::persist::decode_vertical(&text).map_err(|e| corrupt("vertical", e))?,
                ),
                None => Schema::Empty,
            },
        };
        // A baseline store written before every layout stored dictionary
        // ids keeps term strings in its tables, which no plan reads.
        let tables: Vec<&str> = match &schema {
            Schema::TripleStore => vec!["triples"],
            Schema::Vertical(v) => v.tables.values().map(String::as_str).collect(),
            Schema::Empty | Schema::Entity { .. } => Vec::new(),
        };
        for name in tables {
            let text = self.db.table(name).is_some_and(|t| {
                t.schema.columns.iter().any(|c| c.ty == relstore::SqlType::Text)
            });
            if text {
                return Err(StoreError::Unsupported(format!(
                    "store holds the text-column {layout} format (table {name} stores term \
                     strings, not dictionary ids), which this version cannot read; reload \
                     the data into a new directory"
                )));
            }
        }
        self.meta = Meta { schema, stats: Arc::new(stats), report };
        Ok(())
    }

    /// Bulk load a dataset (must be called exactly once, before queries).
    /// Exact duplicate triples are dropped — a graph is a set, as `insert`
    /// already has it — so every layout reports and stores the same
    /// triples.
    ///
    /// Every layout is built by the one bulk pipeline (`store::bulk`,
    /// default [`BulkLoadOptions`]). On a durable store that makes its
    /// crash contract the bulk one: after a crash mid-load, reopening finds
    /// the store empty, or refuses explicitly ("bulk load interrupted"), or
    /// finds the complete dataset — never part of it — and a completed
    /// load ends in a checkpoint.
    pub fn load(&mut self, triples: &[Triple]) -> Result<&LoadReport> {
        self.bulk_load_triples(triples, &BulkLoadOptions::default())?;
        Ok(&self.meta.report)
    }

    /// Bulk load from N-Triples/N-Quads text (named graphs are accepted and
    /// ignored by the layout; see DESIGN.md).
    pub fn load_ntriples(&mut self, text: &str) -> Result<&LoadReport> {
        let quads = rdf::parse_ntriples(text)
            .map_err(|e| StoreError::Unsupported(format!("N-Triples: {e}")))?;
        let triples: Vec<Triple> = quads.into_iter().map(|q| q.triple).collect();
        self.load(&triples)
    }

    /// Incrementally insert one triple: a one-op request. On a durable
    /// store the row changes and the `sys_dict`/`sys_meta` refresh commit
    /// as one fsynced WAL frame; if anything fails — the commit included —
    /// memory is rolled back, so a refused triple is never served. The
    /// rollback is the request's copy-on-write checkpoint, which copies
    /// only the row chunks and index shards the insert touches, so the call
    /// costs what it changes, not what the store holds (plus the fsync on
    /// a durable store). A large initial dataset still loads faster through
    /// `load` or the bulk loader, which sort and pack rows per entity.
    ///
    /// Cached plans are invalidated only when the insert changed a planning
    /// input: it moved a predicate layout (spill, multi-valued flip,
    /// widening), which invalidates every plan, or it grew the dictionary,
    /// which invalidates the plans that folded some constant as unknown. An
    /// insert into settled layouts leaves every other warm plan untouched:
    /// generated SQL is data-independent, so stale statistics can at worst
    /// pick a slower join order, never a wrong answer.
    pub fn insert(&mut self, triple: &Triple) -> Result<bool> {
        self.request(|req| req.insert(triple))
    }

    /// Delete one triple from any layout: a one-op request with the same
    /// frame, fsync and rollback contract as [`RdfStore::insert`]. Returns
    /// true if the triple existed.
    ///
    /// Deletes never invalidate cached plans: the dictionary is append-only,
    /// predicate layouts never shrink, and generated SQL is data-independent
    /// — a stale plan replayed after a delete returns exactly the surviving
    /// rows. Each successful call counts as an avoided invalidation.
    pub fn delete(&mut self, triple: &Triple) -> Result<bool> {
        self.request(|req| req.delete(triple))
    }

    /// The one skeleton every mutation runs through. `ops` adds and removes
    /// triples through the [`Request`] it is handed (and may read the store
    /// in between); everything around that is owned here: the checkpoint,
    /// the WAL batch, one `sys_dict`/`sys_meta` flush, one plan-fingerprint
    /// comparison, the commit of one fsynced frame, and, on *any* error —
    /// logical, write or fsync — the rollback to the checkpoint.
    pub(crate) fn request<T>(
        &mut self,
        ops: impl FnOnce(&mut Request<'_>) -> Result<T>,
    ) -> Result<T> {
        let checkpoint = self.mutation_checkpoint();
        let fingerprint = self.plan_fingerprint();
        self.db.begin_batch();
        let mut req = Request { store: self, changed: false };
        let res = ops(&mut req);
        let changed = req.changed;
        let res = res.and_then(|out| {
            if changed {
                let dict = self.dict.clone();
                self.persist_meta(&dict.read())?;
            }
            self.db.commit_batch()?;
            Ok(out)
        });
        match res {
            Ok(out) => {
                if self.plan_fingerprint() != fingerprint {
                    self.epoch += 1;
                } else if let Some(cache) = &self.plan_cache {
                    cache.note_invalidation_avoided();
                }
                Ok(out)
            }
            Err(e) => {
                self.rollback_mutation(checkpoint);
                Err(e)
            }
        }
    }

    /// The planning inputs a mutation can move for every plan, condensed to
    /// a comparable fingerprint: the schema's shape — per-side column
    /// count, spill set and multi-valued set (each changes generated column
    /// probes), or the vertical layout's table count (a new predicate table
    /// changes variable-predicate unions and un-empties lookups). Row data
    /// is deliberately absent: SQL generation never depends on it. So is
    /// the dictionary: a new ID matters only to a plan that folded that
    /// term as unknown, and such a plan carries its own staleness check
    /// ([`CachedPlan::planned_dict_len`]).
    fn plan_fingerprint(&self) -> (u8, [usize; 3], [usize; 3]) {
        let side = |s: &SideLayout| [s.ncols, s.spill_preds.len(), s.multivalued.len()];
        match &self.meta.schema {
            Schema::Empty => (0, [0; 3], [0; 3]),
            Schema::Entity { direct, reverse } => (1, side(direct), side(reverse)),
            Schema::TripleStore => (2, [0; 3], [0; 3]),
            Schema::Vertical(v) => (3, [v.tables.len(), 0, 0], [0; 3]),
        }
    }

    /// Translate a SPARQL query to SQL without executing it.
    pub fn translate(&self, sparql_text: &str) -> Result<String> {
        let plan = self.plan(sparql_text)?;
        plan.sql.as_ref().map(|sql| sql.text.clone()).ok_or_else(|| {
            StoreError::Unsupported(
                "query's answer is fixed by the algebra alone, so no SQL is generated".into(),
            )
        })
    }

    /// Full plan details for a query.
    pub fn explain(&self, sparql_text: &str) -> Result<Explanation> {
        let plan = self.plan(sparql_text)?;
        Ok(Explanation {
            flow: plan.flow.clone(),
            exec_tree: match &plan.exec {
                Some(exec) => format!("{exec:#?}"),
                None => "Trivial (no triple patterns)".into(),
            },
            sql: plan.sql.as_ref().map_or_else(
                || "-- no SQL: query has no triple patterns".into(),
                |sql| sql.text.clone(),
            ),
        })
    }

    /// Execute a SPARQL query.
    pub fn query(&self, sparql_text: &str) -> Result<Solutions> {
        let plan = self.plan(sparql_text)?;
        self.run_plan(&plan)
    }

    /// Execute an already-parsed query, bypassing the text-keyed plan cache
    /// — the SPARQL Update applier evaluates WHERE clauses through this (the
    /// AST came out of a parsed update request, not off the wire).
    pub(crate) fn query_parsed(&self, query: sparql::Query) -> Result<Solutions> {
        let plan = self.plan_parsed(query)?;
        self.run_plan(&plan)
    }

    /// Run a planned query's compiled SQL against the relational engine
    /// and materialize solutions (the single late-materialization point:
    /// dictionary IDs become terms only here). A warm plan neither parses
    /// its SQL again nor resolves a name.
    fn run_plan(&self, plan: &CachedPlan) -> Result<Solutions> {
        let Some(sql) = &plan.sql else {
            // Zero triple patterns: the answer is fixed by SPARQL algebra —
            // `ASK {}` is true, a SELECT over the empty group pattern
            // yields exactly one all-unbound solution (μ0) — with the
            // query's LIMIT/OFFSET still applied.
            return Ok(trivial_solutions(plan));
        };
        let prepared = sql.prepared.as_ref().map_err(|e| StoreError::Sql(e.clone()))?;
        // Every change to a table's shape moves the epoch, so a cached plan
        // only meets the shapes it was compiled against; `run` checks that
        // anyway and fails rather than read old column positions.
        let rel = prepared.run(&self.db)?;
        match plan.query.form {
            QueryForm::Ask => Ok(Solutions::from_ask(!rel.rows.is_empty())),
            QueryForm::Select { .. } => {
                let dict = self.dict.read();
                Ok(Solutions::from_select_modes(
                    plan.projected.clone(),
                    &plan.projected_modes,
                    &rel,
                    &dict,
                ))
            }
        }
    }

    /// Plan a query, going through the epoch-guarded cache when enabled:
    /// a hit skips parsing, optimization, star merging, and SQL generation
    /// entirely. Entries are keyed on the trimmed query text and tagged
    /// with the mutation epoch they were planned under; a mutation that
    /// moves a layout bumps the epoch, and a plan that folded an unknown
    /// constant is also stale once the dictionary has grown — so a stale
    /// plan can never be replayed against a store whose planning inputs
    /// moved.
    fn plan(&self, sparql_text: &str) -> Result<Arc<CachedPlan>> {
        let key = plancache::normalize(sparql_text);
        if let Some(cache) = &self.plan_cache {
            if let Some(plan) = cache.get(key, self.epoch, || self.dict.read().len()) {
                return Ok(plan);
            }
        }
        let plan = Arc::new(self.plan_uncached(sparql_text)?);
        if let Some(cache) = &self.plan_cache {
            cache.insert(key, self.epoch, plan.clone());
        }
        Ok(plan)
    }

    /// The full §3 pipeline: parse → optimize → merge → generate SQL.
    fn plan_uncached(&self, sparql_text: &str) -> Result<CachedPlan> {
        self.plan_parsed(parse_sparql(sparql_text)?)
    }

    /// The §3 pipeline from an already-parsed query: optimize → merge →
    /// generate SQL.
    fn plan_parsed(&self, query: sparql::Query) -> Result<CachedPlan> {
        if !self.is_loaded() {
            return Err(StoreError::Unsupported("store is empty; load data first".into()));
        }
        let projected = query.projected_variables();
        if query.is_fixed_answer() {
            // Valid SPARQL (`ASK {}`, `SELECT * WHERE {}`): nothing to
            // optimize or translate; `query()` answers it directly.
            let projected_modes = vec![DecodeMode::Term; projected.len()];
            return Ok(CachedPlan {
                query,
                flow: Vec::new(),
                exec: None,
                sql: None,
                projected,
                projected_modes,
                planned_dict_len: None,
            });
        }
        let mut state = GenState::new();
        let dict = self.dict.read();
        let plan_dict = PlanDict::new(&dict);
        let (flow, exec) = self.gen_level(&query, &mut state, &plan_dict)?;
        let planned_dict_len = plan_dict.missed().then(|| dict.len());
        drop(dict);
        let text = finish(&query, &mut state)?;
        let prepared = self.db.prepare(&text);
        let projected_modes = projected
            .iter()
            .map(|v| {
                if state.plain.contains(v) { DecodeMode::Plain } else { DecodeMode::Term }
            })
            .collect();
        Ok(CachedPlan {
            flow,
            exec,
            sql: Some(PlanSql { text, prepared }),
            projected,
            projected_modes,
            query,
            planned_dict_len,
        })
    }

    /// Generate the CTE chain for one SELECT level — the outer query or one
    /// subquery body. Order of lowering (a documented deviation from strict
    /// syntactic evaluation, mirrored exactly by the naive engine): first
    /// the core pattern (triples / UNION / OPTIONAL plus the filters that
    /// don't mention extension variables), then BIND / VALUES / subqueries
    /// in syntactic order, then the deferred filters, then the aggregation
    /// or computed-projection layer. Returns the optimizer's data flow and
    /// merged execution tree for the core pattern (empty when this level
    /// has no triple patterns).
    #[allow(clippy::type_complexity)]
    fn gen_level(
        &self,
        query: &Query,
        state: &mut GenState,
        dict: &PlanDict<'_>,
    ) -> Result<(Vec<(usize, &'static str)>, Option<ExecNode>)> {
        reject_nested_extensions(&query.pattern)?;
        let mut core_children = Vec::new();
        for child in &query.pattern.children {
            match child {
                Pattern::Bind { .. } | Pattern::Values(_) | Pattern::SubSelect(_) => {}
                other => core_children.push(other.clone()),
            }
        }
        let core_triple_count: usize =
            core_children.iter().map(|c| c.triples().len()).sum();
        // Variables introduced by extension operators: filters mentioning
        // them cannot attach to the core chain and are applied afterwards.
        let ext_vars: HashSet<String> = query
            .pattern
            .children
            .iter()
            .flat_map(|c| match c {
                Pattern::Bind { var, .. } => vec![var.clone()],
                Pattern::Values(vb) => vb.vars.clone(),
                Pattern::SubSelect(q) => q.projected_variables(),
                _ => Vec::new(),
            })
            .collect();
        let mut core_filters = Vec::new();
        let mut deferred = Vec::new();
        for f in &query.pattern.filters {
            let mentions_ext =
                f.non_aggregated_variables().iter().any(|v| ext_vars.contains(*v));
            if mentions_ext || core_triple_count == 0 {
                deferred.push(f.clone());
            } else {
                core_filters.push(f.clone());
            }
        }

        let (flow, exec) = if core_triple_count > 0 {
            let core_query = Query {
                form: QueryForm::Ask,
                pattern: sparql::GroupPattern { children: core_children, filters: core_filters },
                group_by: Vec::new(),
                having: Vec::new(),
                order_by: Vec::new(),
                limit: None,
                offset: None,
            };
            let tree = PTree::build(&core_query);
            let (flow, exec) = optimize(&tree, &self.meta.stats, self.cfg.optimizer);
            let exec = match &self.meta.schema {
                Schema::Entity { direct, reverse } => {
                    let info = MergeInfo {
                        spill_direct: &direct.spill_preds,
                        spill_reverse: &reverse.spill_preds,
                        multi_direct: &direct.multivalued,
                        multi_reverse: &reverse.multivalued,
                    };
                    let exec = merge_exec_tree(&tree, exec, &info);
                    let backend = EntityGen { tree: &tree, direct, reverse, dict };
                    gen_pattern(&backend, &exec, state)?;
                    exec
                }
                Schema::TripleStore => {
                    let backend = TripleGen { tree: &tree, dict };
                    gen_pattern(&backend, &exec, state)?;
                    exec
                }
                Schema::Vertical(layout) => {
                    let backend =
                        VerticalGen { tree: &tree, layout, dict, max_union_tables: 500 };
                    gen_pattern(&backend, &exec, state)?;
                    exec
                }
                Schema::Empty => unreachable!("plan_parsed refuses an empty store"),
            };
            let flow = flow.order.iter().map(|n| (n.triple + 1, n.method.name())).collect();
            (flow, Some(exec))
        } else {
            (Vec::new(), None)
        };

        // Extension operators in syntactic order. A BIND expression only
        // sees variables bound by syntactically preceding group elements.
        let mut seen: HashSet<String> = HashSet::new();
        for child in &query.pattern.children {
            match child {
                Pattern::Bind { expr, var } => {
                    gen_bind(expr, var, &seen, state)?;
                    seen.insert(var.clone());
                }
                Pattern::Values(vb) => {
                    // Stored columns hold dictionary IDs; a term missing
                    // from the dictionary can never match a stored one, so
                    // it is encoded as its (non-NULL — NULL means UNDEF)
                    // canonical string, which RDF_SAMETERM rejects against
                    // any ID.
                    let enc = |t: &rdf::Term| -> String {
                        let term = t.encode();
                        match dict.lookup(&term) {
                            Some(id) => id.to_string(),
                            None => quote_str(&term),
                        }
                    };
                    gen_values(vb, &enc, state)?;
                    seen.extend(vb.vars.iter().cloned());
                }
                Pattern::SubSelect(sub) => {
                    gen_subquery_join(sub, state, &mut |q, st| {
                        self.gen_level(q, st, dict).map(|_| ())
                    })?;
                    seen.extend(sub.projected_variables());
                }
                other => seen.extend(other.variables()),
            }
        }
        for f in &deferred {
            apply_filter(f, state)?;
        }
        if query.is_aggregate() {
            gen_aggregate(query, state)?;
        } else if let Some(items) = query.select_items() {
            gen_select_exprs(items, state)?;
        }
        Ok((flow, exec))
    }

    pub fn statistics(&self) -> &Stats {
        &self.meta.stats
    }

    pub fn load_report(&self) -> &LoadReport {
        &self.meta.report
    }

    /// The entity layout's (direct, reverse) side layouts, once loaded.
    #[cfg(test)]
    pub(crate) fn side_layouts(&self) -> Option<(&SideLayout, &SideLayout)> {
        match &self.meta.schema {
            Schema::Entity { direct, reverse } => Some((direct, reverse)),
            _ => None,
        }
    }

    /// Direct access to the relational back-end (read-only).
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// The shared term dictionary, which every layout's tables encode
    /// through.
    pub fn dictionary(&self) -> &SharedDict {
        &self.dict
    }

    /// In-memory size accounting of the term dictionary (entry count, term
    /// bytes, bytes held) — surfaced by the server's `/stats`.
    pub fn dict_stats(&self) -> crate::dict::DictMemStats {
        self.dict.read().mem_stats()
    }

    /// Adjust the per-query evaluation budget (the "timeout").
    pub fn set_row_budget(&mut self, budget: Option<u64>) {
        self.db.set_row_budget(budget);
    }

    /// Adjust the per-query wall-clock deadline (None disables it).
    pub fn set_deadline(&mut self, deadline: Option<std::time::Duration>) {
        self.db.set_deadline(deadline);
    }

    /// True when a durable store has degraded to read-only after a WAL
    /// write failure: queries keep working, mutations are refused.
    pub fn is_read_only(&self) -> bool {
        self.db.is_read_only()
    }

    /// Bytes durably committed in the live WAL, if durable and writable.
    /// The crash-point fuzzer snapshots this after each acknowledged
    /// mutation to learn the exact frame boundaries truncation must respect.
    pub fn wal_len(&self) -> Option<u64> {
        self.db.wal_len()
    }

    /// Adjust the executor's parallel width (see [`StoreConfig::threads`]).
    pub fn set_threads(&mut self, threads: Option<usize>) {
        self.db.set_threads(threads);
    }

    /// The executor's effective parallel width after resolving the configured
    /// override, `RELSTORE_THREADS`, and detected parallelism.
    pub fn threads(&self) -> usize {
        self.db.threads()
    }

    /// The current mutation epoch (bumped when a mutation moves a planning
    /// input, see the field's doc); cached plans from older epochs are
    /// never replayed.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Plan-cache counters, or `None` when the cache is disabled.
    pub fn plan_cache_stats(&self) -> Option<PlanCacheStats> {
        self.plan_cache.as_ref().map(|c| c.stats())
    }

    /// Resize (or disable, with `entries == 0`) the plan cache. The cache
    /// is rebuilt empty and its counters reset.
    pub fn set_plan_cache(&mut self, entries: usize) {
        self.cfg.plan_cache_entries = entries;
        self.plan_cache = (entries > 0).then(|| Arc::new(PlanCache::new(entries)));
    }

    /// Whether a dataset has been loaded (or built up by inserts).
    pub fn is_loaded(&self) -> bool {
        !matches!(self.meta.schema, Schema::Empty)
    }

    /// A snapshot-isolated read-only clone: tables are shared copy-on-write
    /// with the master (`Arc` bumps; the writer's next mutation of a table
    /// copies just the row chunks and index shards it touches), the term
    /// dictionary and plan cache are the *same* shared objects (both are
    /// append-only/epoch-guarded, so old snapshots read them safely), and
    /// the clone carries no durability state — it can serve queries but
    /// never log or sync. The building block of `SharedStore`'s
    /// snapshot-per-reader concurrency; dropping a superseded snapshot
    /// frees only the chunks and shards a later write replaced.
    pub(crate) fn snapshot_clone(&self) -> RdfStore {
        RdfStore {
            cfg: self.cfg.clone(),
            db: self.db.snapshot_clone(),
            dict: self.dict.clone(),
            meta: self.meta.clone(),
            epoch: self.epoch,
            plan_cache: self.plan_cache.clone(),
        }
    }

    // -- request plumbing (crate-internal) ----------------------------------

    /// Take a copy-on-write backup of everything a mutation can touch; see
    /// [`MutationCheckpoint`].
    fn mutation_checkpoint(&self) -> MutationCheckpoint {
        MutationCheckpoint { tables: self.db.save_tables(), meta: self.meta.clone() }
    }

    /// Roll the store back to a [`MutationCheckpoint`], aborting any open
    /// batch (its buffered ops never reach the WAL). The term dictionary
    /// keeps entries interned since the checkpoint — they are append-only
    /// and unreferenced after the table restore — so the epoch is bumped to
    /// keep any plan computed against the transient state from surviving.
    fn rollback_mutation(&mut self, cp: MutationCheckpoint) {
        self.db.abort_batch();
        self.db.restore_tables(cp.tables);
        self.meta = cp.meta;
        self.epoch += 1;
    }

    /// Append `n` all-NULL predicate/value column pairs to DPH and rewrite
    /// its rows — the §2.3 NULL-storage experiment's ALTER TABLE analogue.
    /// The new columns are invisible to the predicate mapping; only storage
    /// and scan width are affected.
    pub fn widen_dph_for_experiment(&mut self, n: usize) {
        self.epoch += 1; // schema change: cached plans must not survive
        if let Some(table) = self.db.table_mut("dph") {
            let base = table.width();
            let cols: Vec<(String, relstore::SqlType)> = (0..n)
                .flat_map(|i| {
                    [
                        (format!("xpred{}", base + i), relstore::SqlType::Text),
                        (format!("xval{}", base + i), relstore::SqlType::Text),
                    ]
                })
                .collect();
            table.widen_rewritten(cols);
        }
    }
}

impl Request<'_> {
    /// The store as the request's earlier ops left it (a `DELETE/INSERT`
    /// evaluates its WHERE clause against this).
    pub(crate) fn store(&self) -> &RdfStore {
        self.store
    }

    /// Add one triple; true if it was new. The first insert into an empty
    /// store builds the layout from that triple via [`RdfStore::load`],
    /// nested in this request's batch.
    pub(crate) fn insert(&mut self, triple: &Triple) -> Result<bool> {
        let RdfStore { db, dict, meta, .. } = &mut *self.store;
        let added = match &mut meta.schema {
            Schema::Empty => {
                self.store.load(std::slice::from_ref(triple))?;
                self.changed = true;
                return Ok(true);
            }
            Schema::Entity { direct, reverse } => {
                insert_entity(db, direct, reverse, triple, &mut meta.report, &mut dict.write())?
            }
            Schema::TripleStore => insert_triple_store(db, &mut dict.write(), triple)?,
            Schema::Vertical(v) => insert_vertical(db, v, &mut dict.write(), triple)?,
        };
        if added {
            meta.report.triples += 1;
            self.changed = true;
        }
        Ok(added)
    }

    /// Remove one triple; true if it existed. Deletion never interns, so a
    /// read guard on the dictionary suffices.
    pub(crate) fn delete(&mut self, triple: &Triple) -> Result<bool> {
        let RdfStore { db, dict, meta, .. } = &mut *self.store;
        let removed = match &meta.schema {
            Schema::Empty => false,
            Schema::Entity { direct, reverse } => {
                delete_entity(db, direct, reverse, triple, &dict.read())?
            }
            Schema::TripleStore => delete_triple_store(db, &dict.read(), triple)?,
            Schema::Vertical(v) => delete_vertical(db, v, &dict.read(), triple)?,
        };
        if removed {
            meta.report.triples = meta.report.triples.saturating_sub(1);
            self.changed = true;
        }
        Ok(removed)
    }
}

/// Extension operators (BIND / VALUES / subqueries) are supported only at
/// the top level of a SELECT's WHERE group. Inside UNION branches,
/// OPTIONALs, or nested groups their binding scope would interact with
/// operators this translator linearizes differently, so they are rejected
/// loudly rather than silently mis-scoped. Subquery bodies are *not*
/// walked here: each body is its own level, checked when it is planned.
fn reject_nested_extensions(group: &sparql::GroupPattern) -> Result<()> {
    fn walk(p: &Pattern, top: bool) -> Result<()> {
        match p {
            Pattern::Triple(_) => Ok(()),
            Pattern::Group(g) => g.children.iter().try_for_each(|c| walk(c, false)),
            Pattern::Union(cs) => cs.iter().try_for_each(|c| walk(c, false)),
            Pattern::Optional(c) => walk(c, false),
            Pattern::Bind { var, .. } if !top => Err(StoreError::Unsupported(format!(
                "BIND (?{var}) is only supported at the top level of a SELECT's WHERE group"
            ))),
            Pattern::Values(_) if !top => Err(StoreError::Unsupported(
                "VALUES is only supported at the top level of a SELECT's WHERE group".into(),
            )),
            Pattern::SubSelect(_) if !top => Err(StoreError::Unsupported(
                "subqueries are only supported at the top level of a SELECT's WHERE group".into(),
            )),
            _ => Ok(()),
        }
    }
    group.children.iter().try_for_each(|c| walk(c, true))
}

/// The fixed answer for a query with zero triple patterns: `ASK {}` is
/// true; a SELECT over the empty group yields one all-unbound solution,
/// to which the query's OFFSET/LIMIT still apply.
fn trivial_solutions(plan: &CachedPlan) -> Solutions {
    match plan.query.form {
        QueryForm::Ask => Solutions::from_ask(true),
        QueryForm::Select { .. } => {
            let mut sols = Solutions::unit(plan.projected.clone());
            if plan.query.offset.unwrap_or(0) >= 1 {
                sols.rows.clear();
            }
            if let Some(limit) = plan.query.limit {
                sols.rows.truncate(limit as usize);
            }
            sols
        }
    }
}

/// The `sys_meta` "layout" record for a configured layout.
fn meta_layout_name(layout: Layout) -> &'static str {
    match layout {
        Layout::Entity => "entity",
        Layout::TripleStore => "triple-store",
        Layout::Vertical => "vertical",
    }
}

/// Convenience: which generator a layout uses (exposed for tests/benches
/// that drive translation directly).
pub fn layout_name(layout: Layout) -> &'static str {
    match layout {
        Layout::Entity => "entity-oriented (DB2RDF)",
        Layout::TripleStore => "triple-store",
        Layout::Vertical => "predicate-oriented (vertical)",
    }
}
