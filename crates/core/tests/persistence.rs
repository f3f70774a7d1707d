//! Store-level durability: a bulk-loaded DB2RDF dataset — all four tables,
//! spill state, multi-valued lids, statistics, and the load report — must
//! survive a restart, for every layout, with and without checkpoints.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use db2rdf::{Layout, RdfStore, StoreConfig};
use rdf::{Term, Triple};

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "db2rdf-persist-{}-{}-{name}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::SeqCst)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn t(s: &str, p: &str, o: &str) -> Triple {
    Triple::new(Term::iri(s), Term::iri(p), Term::lit(o))
}

/// The paper's Fig. 1(a) sample: multi-valued predicates (industry), shared
/// objects (Google, IBM) and enough predicates to exercise the coloring.
fn sample() -> Vec<Triple> {
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
        t("Google", "industry", "Software"),
        t("Google", "industry", "Internet"),
        t("IBM", "industry", "Software"),
        t("IBM", "industry", "Hardware"),
        t("IBM", "employees", "433362"),
    ]
}

const Q_FOUNDER: &str = "SELECT ?who WHERE { ?who <founder> ?what }";
const Q_INDUSTRY: &str = "SELECT ?co WHERE { ?co <industry> 'Software' }";

fn answers(store: &RdfStore, q: &str) -> Vec<String> {
    let sols = store.query(q).unwrap();
    let mut rows: Vec<String> = Vec::new();
    for i in 0..sols.len() {
        let mut cells: Vec<String> = Vec::new();
        for var in ["who", "what", "co", "x"] {
            if let Some(term) = sols.get(i, var) {
                cells.push(format!("{var}={term:?}"));
            }
        }
        rows.push(cells.join(" "));
    }
    rows.sort();
    rows
}

#[test]
fn entity_layout_survives_crash_without_checkpoint() {
    let dir = fresh_dir("entity-crash");
    let cfg = StoreConfig::default();
    let expected_founder;
    let expected_industry;
    let expected_report;
    {
        let mut store = RdfStore::open(&dir, cfg.clone()).unwrap();
        store.load(&sample()).unwrap();
        expected_founder = answers(&store, Q_FOUNDER);
        expected_industry = answers(&store, Q_INDUSTRY);
        expected_report = store.load_report().clone();
        drop(store); // crash: no close(), recovery replays the WAL
    }
    let store = RdfStore::open(&dir, cfg).unwrap();
    assert_eq!(answers(&store, Q_FOUNDER), expected_founder);
    assert_eq!(answers(&store, Q_INDUSTRY), expected_industry);
    let report = store.load_report();
    assert_eq!(report.triples, expected_report.triples);
    assert_eq!(report.dph_rows, expected_report.dph_rows);
    assert_eq!(report.dph_cols, expected_report.dph_cols);
    // Statistics drive the optimizer; they must round-trip bit-exactly.
    let stats = store.statistics();
    assert_eq!(stats.total_triples, 14);
    assert_eq!(stats.predicate_count("<industry>"), 4.0);
}

#[test]
fn entity_layout_survives_close_and_checkpoint() {
    let dir = fresh_dir("entity-ckpt");
    let cfg = StoreConfig::default();
    let expected;
    {
        let mut store = RdfStore::open(&dir, cfg.clone()).unwrap();
        store.load(&sample()).unwrap();
        store.checkpoint().unwrap();
        expected = answers(&store, Q_INDUSTRY);
        store.close().unwrap();
    }
    let store = RdfStore::open(&dir, cfg).unwrap();
    assert_eq!(answers(&store, Q_INDUSTRY), expected);
}

#[test]
fn incremental_inserts_and_deletes_survive_crash() {
    let dir = fresh_dir("entity-incr");
    let cfg = StoreConfig::default();
    let expected;
    {
        let mut store = RdfStore::open(&dir, cfg.clone()).unwrap();
        store.load(&sample()).unwrap();
        // Promotion to multi-valued goes through update_cell — the WAL op
        // the incremental path exercises beyond plain inserts.
        assert!(store.insert(&t("Page", "founder", "Alphabet")).unwrap());
        assert!(store.insert(&t("Bell", "founder", "AT&T")).unwrap());
        assert!(!store.insert(&t("Bell", "founder", "AT&T")).unwrap());
        assert!(store.delete(&t("Flint", "founder", "IBM")).unwrap());
        expected = answers(&store, Q_FOUNDER);
        drop(store);
    }
    let mut store = RdfStore::open(&dir, cfg).unwrap();
    assert_eq!(answers(&store, Q_FOUNDER), expected);
    assert_eq!(store.load_report().triples, 15); // 14 + 2 - 1
    // The restored layout still knows founder is multi-valued: inserting a
    // third founder for Page must extend the same DS list, not corrupt it.
    assert!(store.insert(&t("Page", "founder", "OtherCo")).unwrap());
    let sols = store.query("SELECT ?x WHERE { <Page> <founder> ?x }").unwrap();
    assert_eq!(sols.len(), 3);
}

/// A stand-alone `insert`/`delete` whose commit fails must not serve what
/// it refused: the store degrades to read-only *and* rolls memory back, so
/// what it answers before the restart is what it answers after.
#[test]
fn failed_commit_on_the_stand_alone_path_rolls_back() {
    let cfg = StoreConfig::default();
    for delete in [false, true] {
        let dir = fresh_dir("failed-commit");
        {
            let mut store = RdfStore::open(&dir, cfg.clone()).unwrap();
            store.load(&sample()).unwrap();
            store.close().unwrap();
        }
        // The first fsync of this store's life is the mutation's commit.
        let faults = relstore::ScriptedFaults::new().fail_sync(0).into_handle();
        let mut store = RdfStore::open_with_faults(&dir, cfg.clone(), faults).unwrap();
        let (victim, query, rows) = if delete {
            (t("Flint", "founder", "IBM"), "SELECT ?x WHERE { <Flint> <founder> ?x }", 1)
        } else {
            (t("Eve", "founder", "Evil"), "SELECT ?x WHERE { <Eve> <founder> ?x }", 0)
        };
        let refused = if delete { store.delete(&victim) } else { store.insert(&victim) };
        assert!(refused.is_err(), "delete={delete}: the sync failure must surface");
        assert!(store.is_read_only(), "delete={delete}: a failed commit degrades the store");
        assert_eq!(store.query(query).unwrap().len(), rows, "delete={delete}: before reopen");
        assert_eq!(store.load_report().triples, sample().len() as u64, "delete={delete}");
        drop(store);
        let store = RdfStore::open(&dir, cfg.clone()).unwrap();
        assert_eq!(store.query(query).unwrap().len(), rows, "delete={delete}: after reopen");
        assert_eq!(store.load_report().triples, sample().len() as u64, "delete={delete}");
    }
}

/// WAL economy: a request flushes its metadata once. The one frame of a
/// 5-triple `INSERT DATA` — new subjects, so the dictionary's tail page and
/// the report both move with every triple — writes each `sys_meta` cell and
/// each `sys_dict` page at most once, not once per triple.
#[test]
fn a_request_writes_each_metadata_row_once() {
    use relstore::WalOp;
    let dir = fresh_dir("wal-economy");
    let mut store = RdfStore::open(&dir, StoreConfig::default()).unwrap();
    store.load(&sample()).unwrap();
    let wal = dir.join(format!("wal.{}", store.database().generation().unwrap()));
    let shared = db2rdf::SharedStore::new(store);
    let data: String =
        (0..5).map(|i| format!("<Founder{i}> <founder> <Startup{i}> . ")).collect();
    let out = shared.update(&format!("INSERT DATA {{ {data} }}")).unwrap();
    assert_eq!(out.inserted, 5);

    let log = relstore::wal::recover(&wal, &relstore::no_faults()).unwrap();
    let frame = log.txns.last().expect("the request's frame");
    let mut cell_writes = std::collections::HashMap::new();
    let mut dict_appends = 0;
    for op in frame {
        match op {
            WalOp::UpdateCell { table, row_id, col, .. } if table.starts_with("sys_") => {
                *cell_writes.entry((table.as_str(), *row_id, *col)).or_insert(0) += 1;
            }
            WalOp::InsertRows { table, .. } if table == "sys_dict" => dict_appends += 1,
            _ => {}
        }
    }
    assert!(cell_writes.keys().any(|(t, ..)| *t == "sys_meta"), "the report row moved");
    assert!(cell_writes.keys().any(|(t, ..)| *t == "sys_dict"), "the tail page grew");
    assert!(cell_writes.values().all(|&n| n == 1), "a cell written twice: {cell_writes:?}");
    assert!(dict_appends <= 1, "sys_dict pages appended in {dict_appends} ops");
}

#[test]
fn triple_store_layout_survives_crash() {
    let dir = fresh_dir("triples-crash");
    let cfg = StoreConfig::with_layout(Layout::TripleStore);
    let expected;
    {
        let mut store = RdfStore::open(&dir, cfg.clone()).unwrap();
        store.load(&sample()).unwrap();
        store.insert(&t("Bell", "founder", "AT&T")).unwrap();
        expected = answers(&store, Q_FOUNDER);
        drop(store);
    }
    let store = RdfStore::open(&dir, cfg).unwrap();
    assert_eq!(answers(&store, Q_FOUNDER), expected);
}

#[test]
fn vertical_layout_survives_crash() {
    let dir = fresh_dir("vertical-crash");
    let cfg = StoreConfig::with_layout(Layout::Vertical);
    let expected;
    {
        let mut store = RdfStore::open(&dir, cfg.clone()).unwrap();
        store.load(&sample()).unwrap();
        expected = answers(&store, Q_INDUSTRY);
        drop(store);
    }
    let mut store = RdfStore::open(&dir, cfg).unwrap();
    assert_eq!(answers(&store, Q_INDUSTRY), expected);
    // The predicate→table map was restored: inserting a known predicate
    // reuses its table instead of trying to re-create it.
    store.insert(&t("NewCo", "industry", "Software")).unwrap();
    let sols = store.query(Q_INDUSTRY).unwrap();
    assert_eq!(sols.len(), 3);
}

#[test]
fn fresh_directory_is_an_empty_store() {
    let dir = fresh_dir("fresh");
    let store = RdfStore::open(&dir, StoreConfig::default()).unwrap();
    assert!(store.query(Q_FOUNDER).is_err(), "unloaded store must refuse queries");
    drop(store);
    // Reopening the still-empty directory works too.
    let mut store = RdfStore::open(&dir, StoreConfig::default()).unwrap();
    store.load(&sample()).unwrap();
    assert_eq!(answers(&store, Q_FOUNDER).len(), 2);
}

#[test]
fn layout_mismatch_is_rejected() {
    let dir = fresh_dir("mismatch");
    {
        let mut store = RdfStore::open(&dir, StoreConfig::default()).unwrap();
        store.load(&sample()).unwrap();
    }
    let err = match RdfStore::open(&dir, StoreConfig::with_layout(Layout::Vertical)) {
        Ok(_) => panic!("layout mismatch must be rejected"),
        Err(e) => e,
    };
    assert!(err.to_string().contains("layout"), "got: {err}");
}

/// A triple-store directory in the format that kept term strings in TEXT
/// columns (before every layout stored dictionary ids), built here through
/// the relational API alone, is refused on open with an error naming that
/// format — never read as ids.
#[test]
fn text_column_triple_store_is_refused_by_name() {
    use relstore::{Database, SqlType, TableSchema, Value};
    let dir = fresh_dir("text-triples");
    {
        let mut db = Database::open(&dir).unwrap();
        let text = |cols: &[&str]| cols.iter().map(|c| (c.to_string(), SqlType::Text)).collect();
        db.create_table(TableSchema::new("triples", text(&["subj", "pred", "obj"]))).unwrap();
        db.insert_rows("triples", [["<Flint>", "<born>", "\"1850\""].map(Value::str).to_vec()])
            .unwrap();
        db.create_index("triples", "subj").unwrap();
        db.create_index("triples", "obj").unwrap();
        db.create_table(TableSchema::new("sys_meta", text(&["k", "v"]))).unwrap();
        db.insert_rows("sys_meta", [["layout", "triple-store"].map(Value::str).to_vec()])
            .unwrap();
        db.close().unwrap();
    }
    let err = match RdfStore::open(&dir, StoreConfig::with_layout(Layout::TripleStore)) {
        Ok(_) => panic!("a text-column triple store must be refused"),
        Err(e) => e.to_string(),
    };
    assert!(err.contains("text-column triple-store format"), "got: {err}");
}

/// Every positive ID in the layout's tables — the entity layout's four, the
/// triple-store's `triples`, the vertical layout's `vp*` — resolves through
/// the restored dictionary to the string it meant before the crash.
fn assert_ids_resolve(
    store: &RdfStore,
    reference: &std::collections::HashMap<i64, String>,
    cut: usize,
) {
    let dict = store.dictionary().read();
    let db = store.database();
    let vp = db.table_names().into_iter().filter(|t| t.starts_with("vp"));
    for table in ["dph", "ds", "rph", "rs", "triples"].into_iter().chain(vp) {
        let Some(tbl) = db.table(table) else { continue };
        for rid in 0..tbl.row_count() as u32 {
            for v in tbl.row_values(rid) {
                if let relstore::Value::Int(id) = v {
                    if id > 0 {
                        let resolved = dict.resolve(id).unwrap_or_else(|| {
                            panic!("cut {cut}: {table} holds unresolvable id {id}")
                        });
                        assert_eq!(
                            Some(resolved.as_str()),
                            reference.get(&id).map(String::as_str),
                            "cut {cut}: id {id} remapped after recovery"
                        );
                    }
                }
            }
        }
    }
}

/// Dictionary/data atomicity: `load()` ends in a checkpoint, so the crash
/// image is the post-load snapshot plus the current WAL generation, which
/// carries the insert. Truncate that WAL at *every* byte offset and reopen.
/// Whatever prefix survives, the store must recover to exactly one
/// committed state (loaded, or loaded+insert), and every positive integer
/// ID stored in the layout's tables must resolve through the restored
/// dictionary to the same string it meant before the crash. This is the
/// recovery invariant of the dictionary encoding: because `sys_dict` rows
/// commit in the same WAL batch as the data that references them, no
/// truncation point can yield an ID that is unresolvable or remapped.
/// (Truncation inside the load's own WAL is swept by the next test.) Every
/// layout encodes through the dictionary, so every layout is swept.
#[test]
fn dictionary_and_data_commit_atomically_under_wal_truncation() {
    for layout in [Layout::Entity, Layout::TripleStore, Layout::Vertical] {
        dictionary_truncation_sweep(StoreConfig::with_layout(layout));
    }
}

fn dictionary_truncation_sweep(cfg: StoreConfig) {
    let layout = cfg.layout;
    let dir = fresh_dir(&format!("dict-torn-{layout:?}"));
    let after_load;
    let after_insert;
    let gen;
    let reference: std::collections::HashMap<i64, String>;
    {
        let mut store = RdfStore::open(&dir, cfg.clone()).unwrap();
        store.load(&sample()).unwrap();
        after_load = answers(&store, Q_FOUNDER);
        // The insert interns a brand-new entity, predicate target and value
        // in its own WAL batch, which also rewrites the dictionary's
        // partial tail page.
        assert!(store.insert(&t("Bell", "founder", "AT&T")).unwrap());
        after_insert = answers(&store, Q_FOUNDER);
        let dict = store.dictionary().read();
        reference = dict.entries_from(0).map(|(id, term)| (id, term.to_string())).collect();
        drop(dict);
        gen = store.database().generation().unwrap();
        drop(store); // crash: no close()
    }
    let snapshot = std::fs::read(dir.join(format!("snapshot.{gen}"))).unwrap();
    let wal = std::fs::read(dir.join(format!("wal.{gen}"))).unwrap();
    assert!(wal.len() > 100, "WAL unexpectedly small: {} bytes", wal.len());

    let scratch = fresh_dir(&format!("dict-torn-scratch-{layout:?}"));
    for cut in 0..=wal.len() {
        let _ = std::fs::remove_dir_all(&scratch);
        std::fs::create_dir_all(&scratch).unwrap();
        std::fs::write(scratch.join(format!("snapshot.{gen}")), &snapshot).unwrap();
        std::fs::write(scratch.join(format!("wal.{gen}")), &wal[..cut]).unwrap();
        let store = RdfStore::open(&scratch, cfg.clone()).unwrap_or_else(|e| {
            panic!("{layout:?}: open failed at cut {cut}/{}: {e}", wal.len())
        });

        // 1. The store is in exactly one committed prefix state.
        let got = answers(&store, Q_FOUNDER);
        assert!(
            got == after_load || got == after_insert,
            "{layout:?} cut {cut}: recovered to an uncommitted state {got:?}"
        );

        // 2. Every positive ID in the layout's tables resolves through the
        //    restored dictionary to its pre-crash string.
        assert_ids_resolve(&store, &reference, cut);
    }
}

/// `load()` builds every layout through the bulk pipeline, so its crash
/// contract is the bulk one. The generation the load wrote its WAL into
/// survives the final checkpoint; cut that WAL at *every* byte offset and
/// reopen from it alone. Each prefix must land in exactly one of three
/// states — empty (the marker never committed), an explicit "bulk load
/// interrupted" refusal, or the complete dataset — and must never serve
/// part of it. Whenever the store opens, its IDs resolve.
#[test]
fn crash_mid_load_is_empty_refused_or_complete() {
    for layout in [Layout::Entity, Layout::TripleStore, Layout::Vertical] {
        load_truncation_sweep(StoreConfig::with_layout(layout));
    }
}

fn load_truncation_sweep(cfg: StoreConfig) {
    let layout = cfg.layout;
    let dir = fresh_dir(&format!("torn-load-{layout:?}"));
    let full;
    let load_gen;
    let reference: std::collections::HashMap<i64, String>;
    {
        let mut store = RdfStore::open(&dir, cfg.clone()).unwrap();
        load_gen = store.database().generation().unwrap();
        store.load(&sample()).unwrap();
        full = answers(&store, Q_FOUNDER);
        reference = store.dictionary().read().entries_from(0).collect();
        drop(store);
    }
    let wal = std::fs::read(dir.join(format!("wal.{load_gen}"))).unwrap();

    let scratch = fresh_dir(&format!("torn-load-scratch-{layout:?}"));
    let (mut empty, mut refused, mut complete) = (0, 0, 0);
    for cut in 0..=wal.len() {
        let _ = std::fs::remove_dir_all(&scratch);
        std::fs::create_dir_all(&scratch).unwrap();
        std::fs::write(scratch.join(format!("wal.{load_gen}")), &wal[..cut]).unwrap();
        match RdfStore::open(&scratch, cfg.clone()) {
            Err(e) => {
                let msg = e.to_string();
                assert!(
                    msg.contains("bulk load interrupted"),
                    "{layout:?} cut {cut}: unexpected reopen error: {msg}"
                );
                refused += 1;
            }
            Ok(store) => {
                assert_ids_resolve(&store, &reference, cut);
                if store.query(Q_FOUNDER).is_ok() {
                    let got = answers(&store, Q_FOUNDER);
                    assert_eq!(got, full, "{layout:?} cut {cut}: partial data");
                    complete += 1;
                } else {
                    empty += 1;
                }
            }
        }
    }
    assert!(empty > 0, "{layout:?}: no cut recovered to the empty store");
    assert!(refused > 0, "{layout:?}: no cut exercised the in-progress refusal");
    assert_eq!(complete, 1, "{layout:?}: only the untruncated WAL holds the completion marker");
}
