//! Incremental insertion into and deletion from a loaded DB2RDF schema
//! (§2.1) — the DPH/DS (direct) and RPH/RS (reverse) relations, spill rows
//! and multi-valued lids — plus the load configuration, the load report and
//! the schema/predicate-mapping helpers the one table builder
//! (`store::bulk`) uses. Nothing here creates a table, and nothing here
//! opens a WAL batch, persists metadata or counts triples: `insert_entity`
//! and `delete_entity` are the per-triple bodies of a mutation request,
//! and everything around them belongs to `RdfStore::request`.

use rdf::Triple;
use relstore::{Database, SqlType, TableSchema, Value};

use crate::dict::Dict;
use crate::layout::{HashComposition, InterferenceGraph, PredMapping, SideLayout};

/// How predicates are assigned to columns at bulk load (§2.2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ColoringMode {
    /// No data sample assumed: composed hashing only.
    HashOnly,
    /// Color the full dataset's interference graph.
    Full,
    /// Color a random sample of entities (the paper's 10% experiment);
    /// the value is the sample fraction in (0, 1].
    Sample(f64),
}

/// Loader configuration for the entity layout.
#[derive(Debug, Clone)]
pub struct EntityConfig {
    /// Maximum predicate/value column pairs per table (the paper's `m`).
    pub max_cols: usize,
    /// Number of composed hash functions.
    pub hash_fns: usize,
    pub coloring: ColoringMode,
}

impl Default for EntityConfig {
    fn default() -> Self {
        EntityConfig { max_cols: 100, hash_fns: 2, coloring: ColoringMode::Full }
    }
}

/// Load-time report: the quantities Table 4 and §2.3 of the paper discuss.
#[derive(Debug, Clone, Default)]
pub struct LoadReport {
    pub triples: u64,
    pub dph_rows: u64,
    pub rph_rows: u64,
    /// Rows beyond the first for some entity (spill tuples).
    pub dph_spill_rows: u64,
    pub rph_spill_rows: u64,
    /// Predicate/value column pairs in each table.
    pub dph_cols: usize,
    pub rph_cols: usize,
    /// Distinct predicates seen on each side.
    pub predicates: usize,
    /// Fraction of triples whose predicate was covered by coloring.
    pub dph_coverage: f64,
    pub rph_coverage: f64,
    /// NULL fraction of the predicate/value cells.
    pub dph_null_fraction: f64,
    pub rph_null_fraction: f64,
    /// Approximate storage footprint of DPH+DS+RPH+RS (value-compressed).
    pub storage_bytes: u64,
}

/// Composed-hashing-only mapping (no data sample assumed).
pub(crate) fn hash_only_mapping(cfg: &EntityConfig) -> (PredMapping, usize) {
    let comp = HashComposition::new(cfg.hash_fns, cfg.max_cols);
    (PredMapping::Hashed(comp), cfg.max_cols)
}

/// Deterministic entity-sampling stride for a coloring mode, or `None` when
/// no interference graph is needed (hash-only).
pub(crate) fn coloring_stride(mode: ColoringMode) -> Option<usize> {
    match mode {
        ColoringMode::HashOnly => None,
        ColoringMode::Full => Some(1),
        ColoringMode::Sample(f) => {
            let frac = f.clamp(0.0, 1.0);
            Some(if frac >= 1.0 { 1 } else { (1.0 / frac).ceil().max(1.0) as usize })
        }
    }
}

/// Color a populated interference graph into a bounded predicate mapping
/// and its column count.
pub(crate) fn mapping_from_graph(
    graph: &InterferenceGraph,
    cfg: &EntityConfig,
) -> (PredMapping, usize) {
    let bounded = graph.color_bounded(cfg.max_cols.max(2));
    let ncols =
        if bounded.uncolored.is_empty() { bounded.colors_used.max(1) } else { cfg.max_cols };
    let tail = HashComposition::new(cfg.hash_fns, ncols);
    (PredMapping::Colored { colors: bounded.assignment, tail }, ncols)
}

/// All term-bearing columns are BIGINT dictionary IDs (positive), with
/// multi-valued value cells holding negative lids into the secondary table.
pub(crate) fn phys_schema(table: &str, ncols: usize) -> TableSchema {
    let mut cols: Vec<(String, SqlType)> =
        vec![("entry".into(), SqlType::Int), ("spill".into(), SqlType::Int)];
    for i in 0..ncols {
        cols.push((format!("pred{i}"), SqlType::Int));
        cols.push((format!("val{i}"), SqlType::Int));
    }
    TableSchema::new(table, cols)
}

pub(crate) fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        1.0
    } else {
        a as f64 / b as f64
    }
}

/// Incrementally insert one triple into a loaded entity-layout database.
/// Predicates unseen at load time fall through to the hash tail of the
/// mapping (the paper's dynamic-schema story). Returns true if the triple
/// was new.
pub fn insert_entity(
    db: &mut Database,
    direct: &mut SideLayout,
    reverse: &mut SideLayout,
    triple: &Triple,
    report: &mut LoadReport,
    dict: &mut Dict,
) -> relstore::Result<bool> {
    let s = triple.subject.encode();
    let p = triple.predicate.encode();
    let o = triple.object.encode();
    let added_d = insert_one_side(db, direct, "dph", "ds", &s, &p, &o, &mut report.dph_spill_rows, &mut report.dph_rows, dict)?;
    if added_d {
        insert_one_side(db, reverse, "rph", "rs", &o, &p, &s, &mut report.rph_spill_rows, &mut report.rph_rows, dict)?;
    }
    Ok(added_d)
}

#[allow(clippy::too_many_arguments)]
fn insert_one_side(
    db: &mut Database,
    layout: &mut SideLayout,
    primary: &str,
    secondary: &str,
    entity: &str,
    pred: &str,
    value: &str,
    spill_rows: &mut u64,
    row_count: &mut u64,
    dict: &mut Dict,
) -> relstore::Result<bool> {
    let candidates = layout.candidates(pred);
    let entity_id = dict.intern(entity);
    let pred_id = dict.intern(pred);
    let value_id = dict.intern(value);
    let entity_v = Value::Int(entity_id);

    // Locate existing rows for the entity.
    let row_ids: Vec<u32> = {
        let table = db
            .table(primary)
            .ok_or_else(|| relstore::Error::Plan(format!("missing table {primary}")))?;
        let idx = table
            .index_on("entry")
            .ok_or_else(|| relstore::Error::Plan("missing entry index".into()))?;
        idx.lookup(&entity_v).to_vec()
    };

    // Does this predicate already exist on some row?
    let mut existing: Option<(u32, usize, Value)> = None;
    if let Some(table) = db.table(primary) {
        'outer: for &rid in &row_ids {
            let row = table.row_values(rid);
            for &c in &candidates {
                let pcol = 2 + 2 * c;
                if row[pcol] == Value::Int(pred_id) {
                    existing = Some((rid, c, row[pcol + 1].clone()));
                    break 'outer;
                }
            }
        }
    }

    // Value cells distinguish their two kinds by sign: positive = term ID
    // (single-valued), negative = lid into the secondary table.
    match existing {
        Some((rid, c, Value::Int(lid))) if lid < 0 => {
            // Already multi-valued: append to the secondary table unless dup.
            let dup = db
                .table(secondary)
                .map(|t| {
                    t.index_on("l_id")
                        .map(|i| {
                            i.lookup(&Value::Int(lid))
                                .iter()
                                .any(|&r| t.row_values(r)[1] == Value::Int(value_id))
                        })
                        .unwrap_or(false)
                })
                .unwrap_or(false);
            if dup {
                return Ok(false);
            }
            let _ = (rid, c);
            db.insert_rows(secondary, [vec![Value::Int(lid), Value::Int(value_id)]])?;
            Ok(true)
        }
        Some((rid, c, Value::Int(existing_id))) => {
            if existing_id == value_id {
                return Ok(false); // duplicate triple
            }
            // Promote to multi-valued: allocate a fresh lid.
            let lid = layout.next_lid;
            layout.next_lid -= 1;
            db.insert_rows(
                secondary,
                [
                    vec![Value::Int(lid), Value::Int(existing_id)],
                    vec![Value::Int(lid), Value::Int(value_id)],
                ],
            )?;
            db.update_cell(primary, rid, 2 + 2 * c + 1, Value::Int(lid))?;
            layout.multivalued.insert(pred.to_string());
            Ok(true)
        }
        Some((_, _, other)) => Err(relstore::Error::Exec(format!(
            "corrupt cell for predicate {pred}: {other:?}"
        ))),
        None => {
            // Find a free candidate column on an existing row.
            let mut slot: Option<(u32, usize)> = None;
            if let Some(table) = db.table(primary) {
                'outer: for &rid in &row_ids {
                    let row = table.row_values(rid);
                    for &c in &candidates {
                        if row[2 + 2 * c].is_null() {
                            slot = Some((rid, c));
                            break 'outer;
                        }
                    }
                }
            }
            match slot {
                Some((rid, c)) => {
                    db.update_cell(primary, rid, 2 + 2 * c, Value::Int(pred_id))?;
                    db.update_cell(primary, rid, 2 + 2 * c + 1, Value::Int(value_id))?;
                    if row_ids.len() > 1 {
                        layout.spill_preds.insert(pred.to_string());
                    }
                    Ok(true)
                }
                None => {
                    // New row; spill if the entity already exists.
                    let spilled = !row_ids.is_empty();
                    let ncols = layout.ncols;
                    let mut row = vec![Value::Null; 2 + 2 * ncols];
                    row[0] = entity_v.clone();
                    row[1] = Value::Int(spilled as i64);
                    let c = candidates.first().copied().unwrap_or(0);
                    row[2 + 2 * c] = Value::Int(pred_id);
                    row[2 + 2 * c + 1] = Value::Int(value_id);
                    db.insert_rows(primary, [row])?;
                    *row_count += 1;
                    if spilled {
                        *spill_rows += 1;
                        // Mark the whole entity's predicates as spill-involved.
                        for &rid in &row_ids {
                            db.update_cell(primary, rid, 1, Value::Int(1))?;
                        }
                        let table = db
                            .table(primary)
                            .ok_or_else(|| relstore::Error::Plan(format!("missing table {primary}")))?;
                        let mut preds = vec![pred.to_string()];
                        for &rid in &row_ids {
                            let row = table.row_values(rid);
                            for c in 0..ncols {
                                if let Value::Int(pid) = &row[2 + 2 * c] {
                                    if let Some(pn) = dict.resolve(*pid) {
                                        preds.push(pn);
                                    }
                                }
                            }
                        }
                        layout.spill_preds.extend(preds);
                    }
                    Ok(true)
                }
            }
        }
    }
}

/// Delete one triple from a loaded entity-layout database (both sides).
/// Returns true if the triple existed. Multi-valued cells shrink their
/// DS/RS value list; a list reduced to one value is demoted back to a
/// direct value (the inverse of the insert-time promotion).
pub fn delete_entity(
    db: &mut Database,
    direct: &SideLayout,
    reverse: &SideLayout,
    triple: &Triple,
    dict: &Dict,
) -> relstore::Result<bool> {
    let s = triple.subject.encode();
    let p = triple.predicate.encode();
    let o = triple.object.encode();
    let removed = delete_one_side(db, direct, "dph", "ds", &s, &p, &o, dict)?;
    if removed {
        delete_one_side(db, reverse, "rph", "rs", &o, &p, &s, dict)?;
    }
    Ok(removed)
}

#[allow(clippy::too_many_arguments)]
fn delete_one_side(
    db: &mut Database,
    layout: &SideLayout,
    primary: &str,
    secondary: &str,
    entity: &str,
    pred: &str,
    value: &str,
    dict: &Dict,
) -> relstore::Result<bool> {
    // A term absent from the dictionary has never been stored: the triple
    // cannot exist, and deletion must not grow the dictionary.
    let (Some(entity_id), Some(pred_id), Some(value_id)) =
        (dict.lookup(entity), dict.lookup(pred), dict.lookup(value))
    else {
        return Ok(false);
    };
    let candidates = layout.candidates(pred);
    let entity_v = Value::Int(entity_id);
    let row_ids: Vec<u32> = {
        let table = db
            .table(primary)
            .ok_or_else(|| relstore::Error::Plan(format!("missing table {primary}")))?;
        let idx = table
            .index_on("entry")
            .ok_or_else(|| relstore::Error::Plan("missing entry index".into()))?;
        idx.lookup(&entity_v).to_vec()
    };
    // Locate the cell holding this predicate.
    let mut cell: Option<(u32, usize, Value)> = None;
    if let Some(table) = db.table(primary) {
        'outer: for &rid in &row_ids {
            let row = table.row_values(rid);
            for &c in &candidates {
                if row[2 + 2 * c] == Value::Int(pred_id) {
                    cell = Some((rid, c, row[2 + 2 * c + 1].clone()));
                    break 'outer;
                }
            }
        }
    }
    let Some((rid, c, stored)) = cell else {
        return Ok(false);
    };
    match stored {
        Value::Int(v) if v > 0 => {
            if v != value_id {
                return Ok(false);
            }
            // Direct single value: clear the predicate/value pair.
            db.update_cell(primary, rid, 2 + 2 * c, Value::Null)?;
            db.update_cell(primary, rid, 2 + 2 * c + 1, Value::Null)?;
            Ok(true)
        }
        Value::Int(lid) if lid < 0 => {
            // Multi-valued: drop the matching element from the secondary
            // list by rebuilding the lid's rows (the secondary table has no
            // tombstones; lists are short).
            let missing_sec =
                || relstore::Error::Plan(format!("missing table {secondary}"));
            let remaining: Vec<i64> = {
                let sec = db.table(secondary).ok_or_else(missing_sec)?;
                let rids = sec
                    .index_on("l_id")
                    .map(|i| i.lookup(&Value::Int(lid)).to_vec())
                    .unwrap_or_default();
                rids.iter()
                    .filter_map(|&r| match sec.row_values(r)[1] {
                        Value::Int(id) => Some(id),
                        _ => None,
                    })
                    .collect()
            };
            if !remaining.contains(&value_id) {
                return Ok(false);
            }
            let kept: Vec<i64> = remaining.into_iter().filter(|&v| v != value_id).collect();
            // Null out the old lid entries in place.
            let rids = {
                let sec = db.table(secondary).ok_or_else(missing_sec)?;
                sec.index_on("l_id")
                    .map(|i| i.lookup(&Value::Int(lid)).to_vec())
                    .unwrap_or_default()
            };
            for &r in &rids {
                db.update_cell(secondary, r, 0, Value::Null)?;
                db.update_cell(secondary, r, 1, Value::Null)?;
            }
            match kept.len() {
                0 => {
                    db.update_cell(primary, rid, 2 + 2 * c, Value::Null)?;
                    db.update_cell(primary, rid, 2 + 2 * c + 1, Value::Null)?;
                }
                1 => {
                    // Demote to a direct value.
                    db.update_cell(primary, rid, 2 + 2 * c + 1, Value::Int(kept[0]))?;
                }
                _ => {
                    db.insert_rows(
                        secondary,
                        kept.into_iter().map(|v| vec![Value::Int(lid), Value::Int(v)]),
                    )?;
                }
            }
            Ok(true)
        }
        other => Err(relstore::Error::Exec(format!(
            "corrupt cell for predicate {pred}: {other:?}"
        ))),
    }
}

/// Next multi-valued list ID for a side, by a scan of its secondary table:
/// lids are negative and decrease, disjoint from the positive term-ID
/// space. Seeds [`SideLayout::next_lid`] when a layout is restored; every
/// promotion after that takes the counter, not a scan.
pub(crate) fn scan_next_lid(db: &Database, secondary: &str) -> i64 {
    db.table(secondary)
        .map(|t| {
            t.iter_rows()
                .filter_map(|r| match r.get(0) {
                    Value::Int(i) if i < 0 => Some(i),
                    _ => None,
                })
                .min()
                .unwrap_or(0)
                - 1
        })
        .unwrap_or(-1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{RdfStore, StoreConfig};
    use rdf::Term;

    fn t(s: &str, p: &str, o: &str) -> Triple {
        Triple::new(Term::iri(s), Term::iri(p), Term::lit(o))
    }

    /// The paper's Fig. 1(a) sample.
    fn dbpedia_sample() -> Vec<Triple> {
        vec![
            t("Flint", "born", "1850"),
            t("Flint", "died", "1934"),
            t("Flint", "founder", "IBM"),
            t("Page", "born", "1973"),
            t("Page", "founder", "Google"),
            t("Page", "board", "Google"),
            t("Page", "home", "Palo Alto"),
            t("Android", "developer", "Google"),
            t("Android", "version", "4.1"),
            t("Android", "kernel", "Linux"),
            t("Android", "preceded", "4.0"),
            t("Android", "graphics", "OpenGL"),
            t("Google", "industry", "Software"),
            t("Google", "industry", "Internet"),
            t("Google", "employees", "54604"),
            t("Google", "HQ", "Mountain View"),
            t("IBM", "industry", "Software"),
            t("IBM", "industry", "Hardware"),
            t("IBM", "industry", "Services"),
            t("IBM", "employees", "433362"),
            t("IBM", "HQ", "Armonk"),
        ]
    }

    /// An entity store loaded through the one load path.
    fn loaded(triples: &[Triple], entity: EntityConfig) -> RdfStore {
        let mut store = RdfStore::new(StoreConfig { entity, ..StoreConfig::default() });
        store.load(triples).unwrap();
        store
    }

    fn sample_store() -> RdfStore {
        loaded(&dbpedia_sample(), EntityConfig::default())
    }

    fn rows(store: &RdfStore, table: &str) -> usize {
        store.database().table(table).unwrap().row_count()
    }

    #[test]
    fn bulk_load_fig1_sample() {
        let store = sample_store();
        let report = store.load_report();
        let (direct, _reverse) = store.side_layouts().unwrap();
        assert_eq!(report.triples, 21);
        // 5 subjects, colored with no spills → 5 DPH rows.
        assert_eq!(report.dph_rows, 5);
        assert_eq!(report.dph_spill_rows, 0);
        // industry is multi-valued on the direct side (Google, IBM).
        assert!(direct.is_multivalued("<industry>"));
        assert!(!direct.is_multivalued("<born>"));
        // DS has 5 rows: lid1 → {Software, Internet}, lid2 → {Software,
        // Hardware, Services}.
        assert_eq!(rows(&store, "ds"), 5);
        // Coloring covers everything on this tiny sample.
        assert!((report.dph_coverage - 1.0).abs() < 1e-12);
        // 13 distinct predicates, at most 5 columns needed (Fig. 4).
        assert_eq!(report.predicates, 13);
        assert!(report.dph_cols <= 6, "needed {} cols", report.dph_cols);
    }

    #[test]
    fn bulk_load_hash_only_spills_when_columns_exhaust() {
        // 1 subject with 8 predicates into 2 columns with 1 hash fn: spills
        // are inevitable.
        let triples: Vec<Triple> =
            (0..8).map(|i| t("s", &format!("p{i}"), &format!("v{i}"))).collect();
        let cfg = EntityConfig { max_cols: 2, hash_fns: 1, coloring: ColoringMode::HashOnly };
        let store = loaded(&triples, cfg);
        assert!(store.load_report().dph_spill_rows > 0);
        assert!(!store.side_layouts().unwrap().0.spill_preds.is_empty());
        // All rows of the spilled entity are flagged.
        let dph = store.database().table("dph").unwrap();
        for r in 0..dph.row_count() {
            assert_eq!(dph.row_values(r as u32)[1], Value::Int(1));
        }
    }

    #[test]
    fn reverse_side_multivalued_objects() {
        // Software ← {Google, IBM}: on the reverse side 'industry' is
        // multi-valued for entry Software.
        let store = sample_store();
        assert!(store.side_layouts().unwrap().1.is_multivalued("<industry>"));
        assert!(rows(&store, "rs") >= 2);
    }

    #[test]
    fn incremental_insert_new_subject_and_duplicate() {
        let mut store = sample_store();
        let nt = t("Bell", "founder", "AT&T");
        assert!(store.insert(&nt).unwrap());
        assert!(!store.insert(&nt).unwrap());
        assert_eq!(store.load_report().triples, 22);
        assert_eq!(rows(&store, "dph"), 6);
    }

    #[test]
    fn incremental_insert_promotes_to_multivalued() {
        let mut store = sample_store();
        assert!(!store.side_layouts().unwrap().0.is_multivalued("<founder>"));
        // Page founds a second company.
        assert!(store.insert(&t("Page", "founder", "Alphabet")).unwrap());
        assert!(store.side_layouts().unwrap().0.is_multivalued("<founder>"));
        // DS gained two rows (Google + Alphabet under a fresh lid).
        assert_eq!(rows(&store, "ds"), 7);
        // Appending a third value extends the same lid.
        assert!(store.insert(&t("Page", "founder", "OtherCo")).unwrap());
        assert_eq!(rows(&store, "ds"), 8);
    }

    #[test]
    fn incremental_insert_unknown_predicate_uses_hash_tail() {
        let mut store = sample_store();
        assert!(store.insert(&t("Page", "brandNewPredicate", "value")).unwrap());
        // Find it back on Page's row(s), by dictionary ID.
        let dict = store.dictionary().read();
        let page = dict.lookup("<Page>").unwrap();
        let pid = dict.lookup("<brandNewPredicate>").unwrap();
        let dph = store.database().table("dph").unwrap();
        let ids = dph.index_on("entry").unwrap().lookup(&Value::Int(page)).to_vec();
        let found = ids.iter().any(|&rid| {
            let row = dph.row_values(rid);
            row.iter().any(|v| v == &Value::Int(pid))
        });
        assert!(found);
    }

    #[test]
    fn lids_stay_negative_and_disjoint_from_term_ids() {
        let mut store = sample_store();
        // Bulk-load lids (industry on Google/IBM) and insert-time lids
        // (promotion) are all negative; every elm is a positive term ID.
        assert!(store.insert(&t("Page", "founder", "Alphabet")).unwrap());
        let dict = store.dictionary().read();
        let ds = store.database().table("ds").unwrap();
        for rid in 0..ds.row_count() {
            let row = ds.row_values(rid as u32);
            match (&row[0], &row[1]) {
                (Value::Int(lid), Value::Int(elm)) => {
                    assert!(*lid < 0, "lid {lid} not negative");
                    assert!(*elm > 0 && dict.resolve(*elm).is_some(), "bad elm {elm}");
                }
                other => panic!("unexpected ds row {other:?}"),
            }
        }
    }

    /// The distinct lids of `secondary`, descending, after checking that
    /// each is referenced by exactly one value cell of `primary`.
    fn unique_lids(store: &RdfStore, primary: &str, secondary: &str) -> Vec<i64> {
        let db = store.database();
        let mut lids: Vec<i64> = db
            .table(secondary)
            .unwrap()
            .iter_rows()
            .filter_map(|r| match r.get(0) {
                Value::Int(lid) => Some(lid),
                _ => None,
            })
            .collect();
        lids.sort_unstable_by(|a, b| b.cmp(a));
        lids.dedup();
        let prim = db.table(primary).unwrap();
        for &lid in &lids {
            assert!(lid < 0, "{secondary}: lid {lid} not negative");
            let refs = (0..prim.row_count() as u32)
                .flat_map(|r| prim.row_values(r))
                .filter(|v| *v == Value::Int(lid))
                .count();
            assert_eq!(refs, 1, "{secondary}: lid {lid} has {refs} owning cells");
        }
        lids
    }

    /// The next-lid counter lives in memory beside each side's layout: it
    /// continues densely after inserts, is rolled back with a failed
    /// request, and is re-seeded from the secondary table on reopen.
    #[test]
    fn next_lid_survives_inserts_rollback_and_reopen() {
        let dir = std::env::temp_dir().join(format!("db2rdf-next-lid-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut triples = dbpedia_sample();
        let mut store = RdfStore::open(&dir, StoreConfig::default()).unwrap();
        store.load(&triples).unwrap();
        // Load: DS holds Google's and IBM's industry lists; RS continues
        // the same sequence with Software's.
        assert_eq!(unique_lids(&store, "dph", "ds"), vec![-1, -2]);
        assert_eq!(unique_lids(&store, "rph", "rs"), vec![-3]);

        // Promotions on both sides take the next lid of their side.
        for tr in [t("Page", "founder", "Alphabet"), t("Bell", "founder", "IBM")] {
            assert!(store.insert(&tr).unwrap());
            triples.push(tr);
        }
        assert_eq!(unique_lids(&store, "rph", "rs"), vec![-3, -4]);
        let direct_before = store.side_layouts().unwrap().0.next_lid;

        // A failed request that promoted rolls the counter back with it.
        let err = store.request(|req| {
            req.insert(&t("Flint", "born", "1851"))?;
            Err::<(), _>(crate::error::StoreError::Unsupported("abort".into()))
        });
        assert!(err.is_err());
        assert_eq!(store.side_layouts().unwrap().0.next_lid, direct_before);
        let tr = t("Flint", "died", "1935");
        assert!(store.insert(&tr).unwrap());
        triples.push(tr);
        assert_eq!(unique_lids(&store, "dph", "ds"), vec![-1, -2, -3, -4]);
        drop(store);

        // Reopen (WAL replay, no checkpoint): the counter is re-seeded.
        let mut store = RdfStore::open(&dir, StoreConfig::default()).unwrap();
        let tr = t("Android", "version", "4.2");
        assert!(store.insert(&tr).unwrap());
        triples.push(tr);
        assert_eq!(unique_lids(&store, "dph", "ds"), vec![-1, -2, -3, -4, -5]);
        let rs = unique_lids(&store, "rph", "rs");
        assert!(rs.windows(2).all(|w| w[1] == w[0] - 1), "rs lids not dense: {rs:?}");

        let queries: Vec<String> = [
            "SELECT ?s ?p ?o WHERE { ?s ?p ?o }",
            "SELECT ?o WHERE { <Flint> <died> ?o }",
            "SELECT ?s WHERE { ?s <founder> \"IBM\" }",
            "SELECT ?v WHERE { <Android> <version> ?v }",
        ]
        .iter()
        .map(|q| q.to_string())
        .collect();
        crate::oracle::check_store_against(&store, &triples, &queries).unwrap();
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn delete_demotes_multivalued_back_to_direct() {
        let mut store = sample_store();
        // Google's industry list {Software, Internet} shrinks to a direct
        // value, then disappears.
        let before = store.dictionary().read().len();
        assert!(store.delete(&t("Google", "industry", "Internet")).unwrap());
        let dict = store.dictionary().read();
        assert_eq!(dict.len(), before, "delete must not grow the dictionary");
        let google = dict.lookup("<Google>").unwrap();
        let industry = dict.lookup("<industry>").unwrap();
        let software = dict.lookup("\"Software\"").unwrap();
        drop(dict);
        let dph = store.database().table("dph").unwrap();
        let rid = dph.index_on("entry").unwrap().lookup(&Value::Int(google))[0];
        let row = dph.row_values(rid);
        let ncols = store.side_layouts().unwrap().0.ncols;
        let c = (0..ncols)
            .find(|c| row[2 + 2 * c] == Value::Int(industry))
            .expect("industry cell");
        assert_eq!(row[2 + 2 * c + 1], Value::Int(software));
        // Deleting a never-present triple is a no-op.
        assert!(!store.delete(&t("Google", "industry", "Farming")).unwrap());
    }

    #[test]
    fn sample_coloring_still_loads_everything() {
        let mut triples = Vec::new();
        for i in 0..200 {
            let s = format!("s{i}");
            triples.push(t(&s, "type", "T"));
            triples.push(t(&s, &format!("attr{}", i % 7), "v"));
        }
        let cfg = EntityConfig {
            max_cols: 50,
            hash_fns: 2,
            coloring: ColoringMode::Sample(0.1),
        };
        let store = loaded(&triples, cfg);
        let report = store.load_report();
        assert_eq!(report.triples, 400);
        assert_eq!(rows(&store, "dph") as u64, report.dph_rows);
        // Unsampled entities still load (possibly via the hash tail).
        assert!(report.dph_rows >= 200);
    }

    #[test]
    fn storage_accounts_nulls_cheaply() {
        let store = sample_store();
        let report = store.load_report();
        assert!(report.storage_bytes > 0);
        assert!(report.dph_null_fraction > 0.0 && report.dph_null_fraction < 1.0);
    }
}
