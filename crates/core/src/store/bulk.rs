//! The one builder of the entity layout (DPH/DS/RPH/RS, §2.1–2.2): a
//! streaming, parallel bulk load. [`RdfStore::load`], `load_ntriples`, the
//! first `insert` into an empty store, `db2rdf-serve --load` and the
//! benchmarks all end in `bulk_load_encoded` below; no other code creates
//! the four tables.
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
//! 4. **Sorted append** — encoded triples are sorted by (entity, pred,
//!    value) per side, exact duplicates dropped (a graph is a set, as
//!    `insert` already has it), and packed entity-run by entity-run into
//!    DPH/DS rows, inserted in bounded **segments**, each its own WAL
//!    batch. When the WAL grows past a threshold the store checkpoints
//!    between segments, so the WAL never holds the full dataset. Within an
//!    entity, predicates are placed in ascending dictionary-ID order;
//!    top-k statistics tie-break by ID.
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
use std::collections::{HashMap, HashSet};
use std::io::Read;
use std::time::Instant;

use rdf::Triple;
use relstore::{Database, SqlType, TableSchema, Value};

use crate::dict::{Dict, DictMemStats};
use crate::error::{Result, StoreError};
use crate::layout::{InterferenceGraph, PredMapping, SideLayout};
use crate::loader::{self, EntityConfig, LoadReport};
use crate::stats::{PredStat, Stats};

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
    /// pipeline (see the module docs). Entity layout only; the store must
    /// be empty. Named graphs are accepted and ignored, like
    /// [`RdfStore::load_ntriples`].
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
        if self.cfg.layout != Layout::Entity {
            return Err(StoreError::Unsupported(
                "bulk load supports the entity layout only".into(),
            ));
        }
        if self.is_loaded() {
            return Err(StoreError::Unsupported(
                "bulk load requires an empty store; it has already been loaded".into(),
            ));
        }
        Ok(())
    }

    /// The shared tail of both bulk entry points: sort, stats, layout,
    /// segmented insert, finalize. `enc` holds dictionary-encoded triples.
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
        let (dmap, dncols) = side_mapping(&enc, &pred_forms, &self.cfg.entity);
        bstats.sort_secs += t_sort.elapsed().as_secs_f64();

        // Setup batch: schema + indexes for the direct side, the complete
        // dictionary, and the in-progress marker — one atomic commit, so
        // every ID later segments reference is durable no later than its
        // referents, and any crash past this point is detected on reopen.
        let t_insert = Instant::now();
        self.db.begin_batch();
        let res = (|| -> Result<()> {
            create_side_tables(&mut self.db, "dph", "ds", dncols)?;
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

        let mut next_lid = -1i64;
        let dside = insert_side_encoded(
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
        )?;
        bstats.insert_secs += t_insert.elapsed().as_secs_f64();

        // Reverse side: re-sort the same buffer by (object, pred, subject).
        let t_sort = Instant::now();
        for t in enc.iter_mut() {
            t.swap(0, 2);
        }
        enc.sort_unstable();
        sb.reverse_pass(&enc);
        let (rmap, rncols) = side_mapping(&enc, &pred_forms, &self.cfg.entity);
        bstats.sort_secs += t_sort.elapsed().as_secs_f64();

        let t_insert = Instant::now();
        self.db.begin_batch();
        let res = create_side_tables(&mut self.db, "rph", "rs", rncols);
        let committed = self.db.commit_batch();
        res?;
        committed?;

        let rside = insert_side_encoded(
            &mut self.db,
            &enc,
            rmap,
            rncols,
            &pred_forms,
            "rph",
            "rs",
            &mut next_lid,
            opts,
            checkpoints,
            bstats,
        )?;
        bstats.insert_secs += t_insert.elapsed().as_secs_f64();
        drop(enc);

        // Finalize: stats, report, layouts, and the completion marker — one
        // atomic commit, then a checkpoint so reopen needs no WAL replay.
        let stats = sb.finish(self.cfg.top_k, dict, &pred_forms);
        let storage: usize = ["dph", "ds", "rph", "rs"]
            .iter()
            .map(|t| self.db.table(t).map(|t| t.storage_bytes()).unwrap_or(0))
            .sum();
        let nulls = |db: &Database, t: &str| db.table(t).map(|t| t.null_fraction()).unwrap_or(0.0);
        let report = LoadReport {
            triples: bstats.triples,
            dph_rows: dside.rows,
            rph_rows: rside.rows,
            dph_spill_rows: dside.spill_rows,
            rph_spill_rows: rside.spill_rows,
            dph_cols: dside.layout.ncols,
            rph_cols: rside.layout.ncols,
            predicates: pred_forms.len(),
            dph_coverage: loader::ratio(dside.covered, dside.total),
            rph_coverage: loader::ratio(rside.covered, rside.total),
            dph_null_fraction: nulls(&self.db, "dph"),
            rph_null_fraction: nulls(&self.db, "rph"),
            storage_bytes: storage as u64,
        };
        self.meta = Meta {
            schema: Schema::Entity { direct: dside.layout, reverse: rside.layout },
            stats: std::sync::Arc::new(stats),
            report,
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

    let mut prim_rows: Vec<Vec<Value>> = Vec::new();
    let mut sec_rows: Vec<Vec<Value>> = Vec::new();
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
                    sec_rows.push(vec![Value::Int(lid), Value::Int(t[2])]);
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
            prim_rows.push(row);
            result.rows += 1;
        }

        seg_triples += j - i;
        if seg_triples >= opts.segment_triples {
            flush_segment(db, primary, secondary, &mut prim_rows, &mut sec_rows, checkpoints, opts, bstats)?;
            seg_triples = 0;
        }
        i = j;
    }
    flush_segment(db, primary, secondary, &mut prim_rows, &mut sec_rows, checkpoints, opts, bstats)?;
    // Lids were handed out in decreasing order, so this is what a scan of
    // the secondary table would seed: one below its smallest lid, or -1.
    if *next_lid != first_lid {
        result.layout.next_lid = *next_lid;
    }
    Ok(result)
}

/// Commit one segment as its own WAL batch, checkpointing afterwards if the
/// WAL has outgrown the configured bound.
#[allow(clippy::too_many_arguments)]
fn flush_segment(
    db: &mut Database,
    primary: &str,
    secondary: &str,
    prim_rows: &mut Vec<Vec<Value>>,
    sec_rows: &mut Vec<Vec<Value>>,
    checkpoints: bool,
    opts: &BulkLoadOptions,
    bstats: &mut BulkLoadStats,
) -> Result<()> {
    if prim_rows.is_empty() && sec_rows.is_empty() {
        return Ok(());
    }
    db.begin_batch();
    let res = (|| -> Result<()> {
        if !prim_rows.is_empty() {
            db.insert_rows(primary, std::mem::take(prim_rows))?;
        }
        if !sec_rows.is_empty() {
            db.insert_rows(secondary, std::mem::take(sec_rows))?;
        }
        Ok(())
    })();
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

/// Statistics accumulated from the two sorted passes — no per-term hash
/// maps: distinct counts fall out of run boundaries in the sorted data.
#[derive(Default)]
struct StatsBuilder {
    total: u64,
    distinct_subjects: u64,
    distinct_objects: u64,
    /// (count, id) per distinct subject/object, for top-k selection.
    subj_counts: Vec<(u64, i64)>,
    obj_counts: Vec<(u64, i64)>,
    /// Per-predicate: (count, distinct subjects, distinct objects).
    pred: HashMap<i64, (u64, u64, u64)>,
}

impl StatsBuilder {
    /// Over triples sorted by (subject, pred, object).
    fn direct_pass(&mut self, enc: &[[i64; 3]]) {
        self.total = enc.len() as u64;
        let mut i = 0;
        while i < enc.len() {
            let s = enc[i][0];
            let mut j = i;
            while j < enc.len() && enc[j][0] == s {
                j += 1;
            }
            self.distinct_subjects += 1;
            self.subj_counts.push(((j - i) as u64, s));
            let mut k = i;
            while k < j {
                let p = enc[k][1];
                let mut m = k;
                while m < j && enc[m][1] == p {
                    m += 1;
                }
                let e = self.pred.entry(p).or_default();
                e.0 += (m - k) as u64;
                e.1 += 1;
                k = m;
            }
            i = j;
        }
    }

    /// Over the same triples re-sorted by (object, pred, subject).
    fn reverse_pass(&mut self, enc: &[[i64; 3]]) {
        let mut i = 0;
        while i < enc.len() {
            let o = enc[i][0];
            let mut j = i;
            while j < enc.len() && enc[j][0] == o {
                j += 1;
            }
            self.distinct_objects += 1;
            self.obj_counts.push(((j - i) as u64, o));
            let mut k = i;
            while k < j {
                let p = enc[k][1];
                let mut m = k;
                while m < j && enc[m][1] == p {
                    m += 1;
                }
                if let Some(e) = self.pred.get_mut(&p) {
                    e.2 += 1;
                }
                k = m;
            }
            i = j;
        }
    }

    fn finish(mut self, top_k: usize, dict: &Dict, pred_forms: &HashMap<i64, String>) -> Stats {
        let avg = |n: u64, d: u64| if d == 0 { 0.0 } else { n as f64 / d as f64 };
        let mut stats = Stats {
            total_triples: self.total,
            distinct_subjects: self.distinct_subjects,
            distinct_objects: self.distinct_objects,
            avg_per_subject: avg(self.total, self.distinct_subjects),
            avg_per_object: avg(self.total, self.distinct_objects),
            ..Stats::default()
        };
        for (&p, &(count, ds, dobj)) in &self.pred {
            let form = pred_forms[&p].clone();
            stats.predicate_counts.insert(form.clone(), count);
            stats.predicate_stats.insert(
                form,
                PredStat { count, distinct_subjects: ds, distinct_objects: dobj },
            );
        }
        // Top-k selection: count-descending, ID-ascending — a deterministic
        // tie-break that needs no lexical resolution of every candidate.
        let take_top = |v: &mut Vec<(u64, i64)>| {
            v.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
            v.truncate(top_k);
        };
        take_top(&mut self.subj_counts);
        take_top(&mut self.obj_counts);
        for &(count, id) in &self.subj_counts {
            let form = dict.resolve(id).expect("top subject resolves");
            stats.register_top_subject(id, &form, count);
        }
        for &(count, id) in &self.obj_counts {
            let form = dict.resolve(id).expect("top object resolves");
            stats.register_top_object(id, &form, count);
        }
        stats
    }
}
