//! The one builder of every layout: a streaming, parallel bulk load.
//! [`RdfStore::load`], `load_ntriples`, the first `insert` into an empty
//! store, `db2rdf-serve --load` and the benchmarks all end in
//! `bulk_load_encoded` below, whichever layout the store has. Steps 1–3
//! and the statistics are the same for all three; only the tables written
//! in step 4 differ: the entity layout's DPH/DS/RPH/RS (§2.1–2.2), the
//! triple-store's one `triples(subj, pred, obj)` relation, or the vertical
//! layout's `(entry, val)` table per predicate — all `BIGINT` dictionary
//! ids. No other code creates these tables, bar the vertical layout's
//! table for a predicate an `insert` brings in.
//!
//! 1. **Chunked read** — the input is consumed as line-aligned chunks
//!    ([`rdf::ChunkReader`]); the document is never resident.
//! 2. **Parallel parse** — each round reads up to `threads` chunks; the
//!    loader thread parses the first and a scoped thread each of the
//!    others, privately, into a local distinct-term list (first-appearance
//!    order) plus term-index triples.
//! 3. **Deterministic parallel intern** — worker results are merged *in
//!    chunk order*, interning each chunk's term list sequentially. Chunk
//!    boundaries depend only on the byte stream, so the dictionary — and
//!    therefore every ID, row, and persisted byte downstream — is identical
//!    at any thread count (the PR 6 determinism contract, property-tested
//!    in `tests/bulk_load.rs`). After this stage triples are three `i64`s;
//!    all strings are gone. (`bulk_load_triples`, which `load()` uses,
//!    interns an in-memory triple iterator sequentially instead of 1–3.)
//! 4. **Sorted append** — encoded triples are sorted by (subject, pred,
//!    object), exact duplicates dropped (a graph is a set, as `insert`
//!    already has it), and counted by [`StatsBuilder`]; a second sort by
//!    (object, pred, subject) feeds its reverse pass. The entity layout
//!    packs each sort entity-run by entity-run into one side's hash-table
//!    rows; the baselines append the first sort as is, the triple-store
//!    every triple, the vertical layout each triple to its predicate's
//!    table. Rows go in bounded **segments**, each its own WAL batch.
//!    When the WAL grows past a threshold the store checkpoints between
//!    segments, so the WAL never holds the full dataset. Within an entity,
//!    predicates are placed in ascending dictionary-ID order; top-k
//!    statistics tie-break by ID.
//!
//! ## Crash protocol
//!
//! The first batch writes a `bulk_load = in-progress` marker into
//! `sys_meta` (and persists the complete dictionary, so every ID any later
//! segment references is durable before or with its referents). The final
//! batch flips the marker to `complete` together with the layouts, stats
//! and report. Reopening a store whose marker is not `complete` — a crash
//! landed between the first and last commit — refuses explicitly with a
//! corruption error rather than serving a partial dataset; a crash before
//! the first commit recovers to an empty store. Within any single batch the
//! relstore WAL framing already guarantees all-or-nothing replay. When the
//! caller already holds a batch open (a request — a SPARQL Update or a
//! stand-alone `insert` — whose first insert lands in an empty store),
//! every step above buffers into that batch, no checkpoint is taken, and
//! the whole load commits or vanishes with the request's frame.

use std::borrow::Borrow;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::io::Read;
use std::time::Instant;

use rdf::Triple;
use relstore::{Database, SqlType, TableSchema, Value};

use crate::baseline::{create_triples_table, create_vp_table, VerticalLayout};
use crate::dict::{Dict, DictMemStats};
use crate::error::{Result, StoreError};
use crate::layout::{InterferenceGraph, PredMapping, SideLayout};
use crate::loader::{self, EntityConfig, LoadReport};
use crate::stats::StatsBuilder;

use super::{Layout, Meta, RdfStore, Schema, BULK_MARKER};

/// Tuning for the streaming bulk loader. The defaults bound memory to a few
/// GB of headroom at any core count (`threads: None` follows the store's
/// executor width); no field changes query results, and per the determinism
/// contract not even `threads` changes a stored byte.
#[derive(Debug, Clone)]
pub struct BulkLoadOptions {
    /// Target bytes per line-aligned read chunk (the parse morsel).
    pub chunk_bytes: usize,
    /// Triples per insert segment — each segment commits as one WAL batch.
    pub segment_triples: usize,
    /// Checkpoint (snapshot + WAL rotation) once the WAL exceeds this many
    /// bytes, bounding both the WAL file and replay time.
    pub checkpoint_wal_bytes: u64,
    /// Parse/intern worker width; `None` uses the store's executor width.
    pub threads: Option<usize>,
}

impl Default for BulkLoadOptions {
    fn default() -> Self {
        BulkLoadOptions {
            chunk_bytes: rdf::DEFAULT_CHUNK_BYTES,
            segment_triples: 256 * 1024,
            checkpoint_wal_bytes: 128 << 20,
            threads: None,
        }
    }
}

/// What the bulk load did, for benchmarks and `/stats`.
#[derive(Debug, Clone, Default)]
pub struct BulkLoadStats {
    /// Triples loaded (after exact-duplicate removal).
    pub triples: u64,
    /// Data lines parsed (before deduplication).
    pub raw_triples: u64,
    pub parse_secs: f64,
    pub sort_secs: f64,
    pub insert_secs: f64,
    /// WAL batches committed for data segments.
    pub segments: u64,
    /// Mid-load checkpoints taken to bound the WAL.
    pub checkpoints: u64,
    pub dict: DictMemStats,
}

impl RdfStore {
    /// Stream-load an N-Triples/N-Quads document through the parallel bulk
    /// pipeline (see the module docs). The store must be empty. Named
    /// graphs are accepted and ignored, like [`RdfStore::load_ntriples`].
    pub fn bulk_load_ntriples(
        &mut self,
        reader: impl Read,
        opts: &BulkLoadOptions,
    ) -> Result<BulkLoadStats> {
        self.bulk_check()?;
        let width = opts.threads.unwrap_or_else(|| self.threads()).max(1);
        let dict_arc = self.dict.clone();
        let mut dict = dict_arc.write();
        let t0 = Instant::now();
        let enc = parse_and_intern(reader, opts.chunk_bytes, width, &mut dict)?;
        let mut bstats = BulkLoadStats {
            raw_triples: enc.len() as u64,
            parse_secs: t0.elapsed().as_secs_f64(),
            ..BulkLoadStats::default()
        };
        self.bulk_load_encoded(enc, &mut dict, opts, &mut bstats)?;
        Ok(bstats)
    }

    /// Bulk-load from a triple iterator (owned or borrowed items, e.g. a
    /// streaming generator or a slice) without materializing a
    /// `Vec<Triple>`. Terms are interned as they arrive; the sorted-append
    /// and checkpointing machinery is shared with
    /// [`RdfStore::bulk_load_ntriples`].
    pub fn bulk_load_triples(
        &mut self,
        triples: impl IntoIterator<Item = impl Borrow<Triple>>,
        opts: &BulkLoadOptions,
    ) -> Result<BulkLoadStats> {
        self.bulk_check()?;
        let dict_arc = self.dict.clone();
        let mut dict = dict_arc.write();
        let t0 = Instant::now();
        let mut enc: Vec<[i64; 3]> = Vec::new();
        let mut buf = String::new();
        for t in triples {
            let t = t.borrow();
            let id_of = |term: &rdf::Term, buf: &mut String, dict: &mut Dict| {
                buf.clear();
                term.encode_into(buf);
                dict.intern(buf)
            };
            let s = id_of(&t.subject, &mut buf, &mut dict);
            let p = id_of(&t.predicate, &mut buf, &mut dict);
            let o = id_of(&t.object, &mut buf, &mut dict);
            enc.push([s, p, o]);
        }
        let mut bstats = BulkLoadStats {
            raw_triples: enc.len() as u64,
            parse_secs: t0.elapsed().as_secs_f64(),
            ..BulkLoadStats::default()
        };
        self.bulk_load_encoded(enc, &mut dict, opts, &mut bstats)?;
        Ok(bstats)
    }

    fn bulk_check(&self) -> Result<()> {
        if self.is_loaded() {
            return Err(StoreError::Unsupported(
                "bulk load requires an empty store; it has already been loaded (use insert())"
                    .into(),
            ));
        }
        Ok(())
    }

    /// The shared tail of both bulk entry points: sort, stats, the
    /// layout's tables, segmented insert, finalize. `enc` holds
    /// dictionary-encoded triples.
    fn bulk_load_encoded(
        &mut self,
        mut enc: Vec<[i64; 3]>,
        dict: &mut Dict,
        opts: &BulkLoadOptions,
        bstats: &mut BulkLoadStats,
    ) -> Result<()> {
        // Bumped even if the load later fails — interned entries may remain
        // in memory, so cached plans must die either way.
        self.epoch += 1;
        let durable = self.db.is_durable() && !self.db.is_read_only();
        // Inside a caller's open batch everything below buffers into the
        // caller's frame; a checkpoint there is impossible and unneeded.
        let checkpoints = durable && !self.db.in_batch();

        let t_sort = Instant::now();
        enc.sort_unstable();
        enc.dedup();
        bstats.triples = enc.len() as u64;

        // Direct pass: statistics, predicate forms, interference graph.
        let mut sb = StatsBuilder::default();
        sb.direct_pass(&enc);
        let pred_forms: HashMap<i64, String> = sb
            .pred
            .keys()
            .map(|&p| {
                let form = dict.resolve(p).expect("encoded predicate resolves");
                (p, form)
            })
            .collect();
        let layout = self.cfg.layout;
        let direct_map = (layout == Layout::Entity)
            .then(|| side_mapping(&enc, &pred_forms, &self.cfg.entity));
        // The vertical layout's tables, one per predicate, named in ID order.
        let vp_tables: BTreeMap<i64, String> = match layout {
            Layout::Vertical => {
                let ids: BTreeSet<i64> = pred_forms.keys().copied().collect();
                ids.into_iter().enumerate().map(|(i, p)| (p, format!("vp{i}"))).collect()
            }
            _ => BTreeMap::new(),
        };
        bstats.sort_secs += t_sort.elapsed().as_secs_f64();

        // Setup batch: the layout's tables and indexes (for the entity
        // layout, the direct side's), the complete dictionary, and the
        // in-progress marker — one atomic commit, so every ID later
        // segments reference is durable no later than its referents, and
        // any crash past this point is detected on reopen.
        let t_insert = Instant::now();
        self.db.begin_batch();
        let res = (|| -> Result<()> {
            match (&direct_map, layout) {
                (Some((_, ncols)), _) => create_side_tables(&mut self.db, "dph", "ds", *ncols)?,
                (None, Layout::TripleStore) => create_triples_table(&mut self.db)?,
                (None, _) => {
                    vp_tables.values().try_for_each(|t| create_vp_table(&mut self.db, t))?
                }
            }
            if durable {
                self.persist_dict(dict)?;
                self.ensure_meta_table()?;
                self.set_meta(BULK_MARKER, "in-progress".into())?;
            }
            Ok(())
        })();
        let committed = self.db.commit_batch();
        res?;
        committed?;

        // The rows the (subject, pred, object) sort gives: the entity
        // layout's direct side, or every baseline row.
        let mut next_lid = -1i64;
        let dside = match direct_map {
            Some((dmap, dncols)) => Some(insert_side_encoded(
                &mut self.db,
                &enc,
                dmap,
                dncols,
                &pred_forms,
                "dph",
                "ds",
                &mut next_lid,
                opts,
                checkpoints,
                bstats,
            )?),
            None => {
                append_rows(&mut self.db, &enc, opts, checkpoints, bstats, |t| {
                    match vp_tables.get(&t[1]) {
                        Some(table) => (table.as_str(), vec![Value::Int(t[0]), Value::Int(t[2])]),
                        None => ("triples", t.map(Value::Int).to_vec()),
                    }
                })?;
                None
            }
        };
        bstats.insert_secs += t_insert.elapsed().as_secs_f64();

        // Reverse pass: re-sort the same buffer by (object, pred, subject).
        let t_sort = Instant::now();
        for t in enc.iter_mut() {
            t.swap(0, 2);
        }
        enc.sort_unstable();
        sb.reverse_pass(&enc);
        let reverse_map =
            dside.is_some().then(|| side_mapping(&enc, &pred_forms, &self.cfg.entity));
        bstats.sort_secs += t_sort.elapsed().as_secs_f64();

        let (schema, tables, report) = match (dside, reverse_map) {
            (Some(dside), Some((rmap, rncols))) => {
                let t_insert = Instant::now();
                let (schema, report) = self.write_reverse_side(
                    &enc,
                    dside,
                    (rmap, rncols),
                    &pred_forms,
                    &mut next_lid,
                    opts,
                    checkpoints,
                    bstats,
                )?;
                bstats.insert_secs += t_insert.elapsed().as_secs_f64();
                (schema, ["dph", "ds", "rph", "rs"].map(String::from).to_vec(), report)
            }
            _ if layout == Layout::TripleStore => {
                (Schema::TripleStore, vec!["triples".to_string()], LoadReport::default())
            }
            _ => {
                let tables = vp_tables.values().cloned().collect();
                let by_form = vp_tables.into_iter().map(|(p, t)| (pred_forms[&p].clone(), t));
                let vertical = VerticalLayout { tables: by_form.collect() };
                (Schema::Vertical(vertical), tables, LoadReport::default())
            }
        };
        drop(enc);

        // Finalize: stats, report, layouts, and the completion marker — one
        // atomic commit, then a checkpoint so reopen needs no WAL replay.
        let stats = sb.finish(self.cfg.top_k, dict, &pred_forms);
        let storage: usize =
            tables.iter().map(|t| self.db.table(t).map(|t| t.storage_bytes()).unwrap_or(0)).sum();
        self.meta = Meta {
            schema,
            stats: std::sync::Arc::new(stats),
            report: LoadReport {
                triples: bstats.triples,
                predicates: pred_forms.len(),
                storage_bytes: storage as u64,
                ..report
            },
        };
        self.db.begin_batch();
        let res = (|| -> Result<()> {
            let dict_ref: &Dict = dict;
            self.persist_meta(dict_ref)?;
            if durable {
                self.set_meta(BULK_MARKER, "complete".into())?;
            }
            Ok(())
        })();
        let committed = self.db.commit_batch();
        if let Err(e) = res.and(committed.map_err(StoreError::from)) {
            // Not committed, so not loaded: queries keep refusing.
            self.meta = Meta::default();
            return Err(e);
        }
        // The dataset is committed: the store is loaded even if the
        // closing checkpoint below fails (its error is still returned).
        bstats.dict = dict.mem_stats();
        if checkpoints {
            self.db.checkpoint()?;
            bstats.checkpoints += 1;
        }
        Ok(())
    }

    /// The entity layout's reverse side from the (object, pred,
    /// subject)-sorted triples, its tables created in their own batch; the
    /// report carries both sides' own counts.
    #[allow(clippy::too_many_arguments)]
    fn write_reverse_side(
        &mut self,
        enc: &[[i64; 3]],
        dside: SideResult,
        (rmap, rncols): (PredMapping, usize),
        pred_forms: &HashMap<i64, String>,
        next_lid: &mut i64,
        opts: &BulkLoadOptions,
        checkpoints: bool,
        bstats: &mut BulkLoadStats,
    ) -> Result<(Schema, LoadReport)> {
        self.db.begin_batch();
        let res = create_side_tables(&mut self.db, "rph", "rs", rncols);
        let committed = self.db.commit_batch();
        res?;
        committed?;

        let rside = insert_side_encoded(
            &mut self.db,
            enc,
            rmap,
            rncols,
            pred_forms,
            "rph",
            "rs",
            next_lid,
            opts,
            checkpoints,
            bstats,
        )?;
        let nulls = |db: &Database, t: &str| db.table(t).map(|t| t.null_fraction()).unwrap_or(0.0);
        let report = LoadReport {
            dph_rows: dside.rows,
            rph_rows: rside.rows,
            dph_spill_rows: dside.spill_rows,
            rph_spill_rows: rside.spill_rows,
            dph_cols: dside.layout.ncols,
            rph_cols: rside.layout.ncols,
            dph_coverage: loader::ratio(dside.covered, dside.total),
            rph_coverage: loader::ratio(rside.covered, rside.total),
            dph_null_fraction: nulls(&self.db, "dph"),
            rph_null_fraction: nulls(&self.db, "rph"),
            ..LoadReport::default()
        };
        Ok((Schema::Entity { direct: dside.layout, reverse: rside.layout }, report))
    }
}

/// Create one side's primary hash table and secondary multi-value table
/// with their lookup indexes — the only place `dph`/`ds`/`rph`/`rs` are
/// created.
fn create_side_tables(
    db: &mut Database,
    primary: &str,
    secondary: &str,
    ncols: usize,
) -> relstore::Result<()> {
    db.create_table(loader::phys_schema(primary, ncols))?;
    db.create_table(TableSchema::new(
        secondary,
        vec![("l_id".into(), SqlType::Int), ("elm".into(), SqlType::Int)],
    ))?;
    db.create_index(primary, "entry")?;
    db.create_index(secondary, "l_id")
}

/// A chunk parsed on a worker: distinct canonical terms in first-appearance
/// order plus triples as indices into that list. This is the unit the
/// sequential merge interns — the indirection is what makes parallel intern
/// deterministic.
struct ParsedChunk {
    terms: Vec<String>,
    triples: Vec<[u32; 3]>,
}

fn parse_chunk(chunk: &rdf::Chunk) -> std::result::Result<ParsedChunk, rdf::NTriplesError> {
    let quads = rdf::parse_ntriples_chunk(&chunk.text, chunk.first_line)?;
    let mut terms: Vec<String> = Vec::new();
    let mut local: HashMap<String, u32> = HashMap::new();
    let mut triples = Vec::with_capacity(quads.len());
    let idx_of = |s: String, terms: &mut Vec<String>, local: &mut HashMap<String, u32>| {
        match local.entry(s) {
            std::collections::hash_map::Entry::Occupied(e) => *e.get(),
            std::collections::hash_map::Entry::Vacant(v) => {
                let i = terms.len() as u32;
                terms.push(v.key().clone());
                v.insert(i);
                i
            }
        }
    };
    for q in quads {
        let t = q.triple;
        let s = idx_of(t.subject.encode(), &mut terms, &mut local);
        let p = idx_of(t.predicate.encode(), &mut terms, &mut local);
        let o = idx_of(t.object.encode(), &mut terms, &mut local);
        triples.push([s, p, o]);
    }
    Ok(ParsedChunk { terms, triples })
}

fn nt_err(e: rdf::NTriplesError) -> StoreError {
    StoreError::Unsupported(format!("N-Triples: {e}"))
}

/// Phase 1–3 of the pipeline: chunked read, parallel parse, ordered merge
/// intern. Returns dictionary-encoded triples in document order.
fn parse_and_intern(
    reader: impl Read,
    chunk_bytes: usize,
    width: usize,
    dict: &mut Dict,
) -> Result<Vec<[i64; 3]>> {
    let mut chunks = rdf::ChunkReader::new(reader, chunk_bytes);
    let mut enc: Vec<[i64; 3]> = Vec::new();
    loop {
        let mut batch: Vec<rdf::Chunk> = Vec::with_capacity(width);
        while batch.len() < width {
            match chunks.next_chunk().map_err(nt_err)? {
                Some(c) => batch.push(c),
                None => break,
            }
        }
        if batch.is_empty() {
            break;
        }
        // The loader thread parses the first chunk and a scoped thread
        // each of the others (a thread for every chunk would keep one more
        // malloc arena: +11 % peak RSS on the e2e `point_warm` workload).
        // Results are taken in chunk order: the first error in document
        // order wins, intern order never depends on scheduling, and a parse
        // panic re-raises here.
        let parsed: Vec<_> = std::thread::scope(|s| {
            let (first, rest) = batch.split_first().expect("a batch is never empty");
            let others: Vec<_> = rest.iter().map(|c| s.spawn(|| parse_chunk(c))).collect();
            let first = parse_chunk(first);
            let others = others
                .into_iter()
                .map(|t| t.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)));
            std::iter::once(first).chain(others).collect()
        });
        for parsed in parsed {
            let parsed = parsed.map_err(nt_err)?;
            let ids: Vec<i64> = parsed.terms.iter().map(|t| dict.intern(t)).collect();
            for [s, p, o] in parsed.triples {
                enc.push([ids[s as usize], ids[p as usize], ids[o as usize]]);
            }
        }
    }
    Ok(enc)
}

/// Build one side's predicate mapping from the (entity, pred, value)-sorted
/// triples, sampling entity runs at the configured stride.
fn side_mapping(
    enc: &[[i64; 3]],
    pred_forms: &HashMap<i64, String>,
    cfg: &EntityConfig,
) -> (PredMapping, usize) {
    let Some(stride) = loader::coloring_stride(cfg.coloring) else {
        return loader::hash_only_mapping(cfg);
    };
    let mut graph = InterferenceGraph::new();
    let mut i = 0;
    let mut run = 0usize;
    let mut counts: Vec<(&str, u64)> = Vec::new();
    while i < enc.len() {
        let e = enc[i][0];
        let mut j = i;
        while j < enc.len() && enc[j][0] == e {
            j += 1;
        }
        // Deterministic sampling: every stride-th entity (run order is
        // sorted entity-ID order here, itself deterministic). Predicates
        // are fed in ascending-ID order — the coloring is sensitive to
        // insertion order, so it must not depend on hash iteration.
        if run.is_multiple_of(stride) {
            counts.clear();
            let mut k = i;
            while k < j {
                let p = enc[k][1];
                let mut m = k;
                while m < j && enc[m][1] == p {
                    m += 1;
                }
                counts.push((pred_forms[&p].as_str(), (m - k) as u64));
                k = m;
            }
            graph.add_entity(counts.iter().copied());
        }
        run += 1;
        i = j;
    }
    loader::mapping_from_graph(&graph, cfg)
}

struct SideResult {
    layout: SideLayout,
    rows: u64,
    spill_rows: u64,
    covered: u64,
    total: u64,
}

/// Phase 4: pack (entity, pred, value)-sorted triples into hash-table rows
/// entity run by entity run and append them in bounded WAL segments.
#[allow(clippy::too_many_arguments)]
fn insert_side_encoded(
    db: &mut Database,
    enc: &[[i64; 3]],
    mapping: PredMapping,
    ncols: usize,
    pred_forms: &HashMap<i64, String>,
    primary: &str,
    secondary: &str,
    next_lid: &mut i64,
    opts: &BulkLoadOptions,
    checkpoints: bool,
    bstats: &mut BulkLoadStats,
) -> Result<SideResult> {
    let first_lid = *next_lid;
    let layout = SideLayout {
        mapping,
        ncols,
        multivalued: HashSet::new(),
        spill_preds: HashSet::new(),
        next_lid: -1,
    };
    let mut result = SideResult { layout, rows: 0, spill_rows: 0, covered: 0, total: 0 };
    // Predicate IDs covered by the coloring, for exact coverage accounting.
    let colored_ids: Option<HashSet<i64>> = match &result.layout.mapping {
        PredMapping::Colored { colors, .. } => Some(
            pred_forms
                .iter()
                .filter(|(_, f)| colors.contains_key(f.as_str()))
                .map(|(&id, _)| id)
                .collect(),
        ),
        PredMapping::Hashed(_) => None,
    };

    // The segment's pending rows: primary first, as each batch writes them.
    let mut parts: [(&str, Vec<Vec<Value>>); 2] = [(primary, Vec::new()), (secondary, Vec::new())];
    let mut seg_triples = 0usize;
    let mut groups: Vec<(i64, usize, usize)> = Vec::new();

    let mut i = 0;
    while i < enc.len() {
        let entity = enc[i][0];
        let mut j = i;
        while j < enc.len() && enc[j][0] == entity {
            j += 1;
        }
        // Predicate groups within the run (already sorted by pred, value).
        groups.clear();
        let mut k = i;
        while k < j {
            let p = enc[k][1];
            let mut m = k;
            while m < j && enc[m][1] == p {
                m += 1;
            }
            groups.push((p, k, m));
            k = m;
        }

        let mut entity_rows: Vec<Vec<Value>> = vec![vec![Value::Null; 2 + 2 * ncols]];
        for &(p, lo, hi) in &groups {
            let nvals = hi - lo;
            result.total += nvals as u64;
            if colored_ids.as_ref().map(|c| c.contains(&p)).unwrap_or(true) {
                result.covered += nvals as u64;
            }
            let cell = if nvals == 1 {
                Value::Int(enc[lo][2])
            } else {
                result.layout.multivalued.insert(pred_forms[&p].clone());
                let lid = *next_lid;
                *next_lid -= 1;
                for t in &enc[lo..hi] {
                    parts[1].1.push(vec![Value::Int(lid), Value::Int(t[2])]);
                }
                Value::Int(lid)
            };
            let candidates = result.layout.candidates(&pred_forms[&p]);
            let mut placed = false;
            'rows: for row in entity_rows.iter_mut() {
                for &c in &candidates {
                    if row[2 + 2 * c].is_null() {
                        row[2 + 2 * c] = Value::Int(p);
                        row[2 + 2 * c + 1] = cell.clone();
                        placed = true;
                        break 'rows;
                    }
                }
            }
            if !placed {
                // Spill: open a new row for this entity.
                let mut row = vec![Value::Null; 2 + 2 * ncols];
                let c = candidates.first().copied().unwrap_or(0);
                row[2 + 2 * c] = Value::Int(p);
                row[2 + 2 * c + 1] = cell;
                entity_rows.push(row);
            }
        }
        let spilled = entity_rows.len() > 1;
        if spilled {
            result.spill_rows += (entity_rows.len() - 1) as u64;
            for &(p, _, _) in &groups {
                result.layout.spill_preds.insert(pred_forms[&p].clone());
            }
        }
        for mut row in entity_rows {
            row[0] = Value::Int(entity);
            row[1] = Value::Int(spilled as i64);
            parts[0].1.push(row);
            result.rows += 1;
        }

        seg_triples += j - i;
        if seg_triples >= opts.segment_triples {
            flush_segment(db, &mut parts, checkpoints, opts, bstats)?;
            seg_triples = 0;
        }
        i = j;
    }
    flush_segment(db, &mut parts, checkpoints, opts, bstats)?;
    // Lids were handed out in decreasing order, so this is what a scan of
    // the secondary table would seed: one below its smallest lid, or -1.
    if *next_lid != first_lid {
        result.layout.next_lid = *next_lid;
    }
    Ok(result)
}

/// The baseline layouts' rows: one per triple, `row` naming its table.
/// Every `segment_triples` triples commit as one segment, with one insert
/// per table (tables in first-appearance order, rows in `enc`'s order).
fn append_rows<'t>(
    db: &mut Database,
    enc: &[[i64; 3]],
    opts: &BulkLoadOptions,
    checkpoints: bool,
    bstats: &mut BulkLoadStats,
    row: impl Fn(&[i64; 3]) -> (&'t str, Vec<Value>),
) -> Result<()> {
    for segment in enc.chunks(opts.segment_triples.max(1)) {
        let mut parts: Vec<(&str, Vec<Vec<Value>>)> = Vec::new();
        let mut part_of: HashMap<&str, usize> = HashMap::new();
        for t in segment {
            let (table, values) = row(t);
            let i = *part_of.entry(table).or_insert_with(|| {
                parts.push((table, Vec::new()));
                parts.len() - 1
            });
            parts[i].1.push(values);
        }
        flush_segment(db, &mut parts, checkpoints, opts, bstats)?;
    }
    Ok(())
}

/// Commit one segment — each table's pending rows, in order — as its own
/// WAL batch, checkpointing afterwards if the WAL has outgrown the
/// configured bound.
fn flush_segment(
    db: &mut Database,
    parts: &mut [(&str, Vec<Vec<Value>>)],
    checkpoints: bool,
    opts: &BulkLoadOptions,
    bstats: &mut BulkLoadStats,
) -> Result<()> {
    if parts.iter().all(|(_, rows)| rows.is_empty()) {
        return Ok(());
    }
    db.begin_batch();
    let res = parts
        .iter_mut()
        .filter(|(_, rows)| !rows.is_empty())
        .try_for_each(|(table, rows)| db.insert_rows(table, std::mem::take(rows)).map(|_| ()));
    let committed = db.commit_batch();
    res?;
    committed?;
    bstats.segments += 1;
    if checkpoints {
        if let Some(wal) = db.wal_len() {
            if wal >= opts.checkpoint_wal_bytes {
                db.checkpoint()?;
                bstats.checkpoints += 1;
            }
        }
    }
    Ok(())
}
