//! Adversarial correctness harness: grammar-fuzzed differential oracle plus
//! crash-point recovery fuzzing under fault injection (DESIGN.md §4.10).
//!
//! Phase 1 — differential fuzzing: seeded `datagen::queryfuzz` cases are
//! checked with `db2rdf::oracle::check_case` (naive reference vs all three
//! layouts × plan-cache on/off × 1/4 threads). A divergence is greedily
//! shrunk and written to `tests/corpus/` as a permanent regression case.
//!
//! Phase 1b — update fuzzing: seeded SPARQL 1.1 Update requests
//! (`queryfuzz::gen_update_case`) run through the real applier on all three
//! layouts and are checked against `oracle::naive_apply_update`'s
//! set-semantic reference (`check_update_case`): effect counts and final
//! store contents must both match. Divergences shrink to `.ucase` repros.
//!
//! Phase 2 — crash points, three sweeps per workload seed, the layout
//! rotating triple-store → vertical → entity by seed:
//!   * truncation: run a randomized load/insert/delete workload on a durable
//!     store, recording `(wal_len, shadow state)` after every acked op; then
//!     for many byte offsets, physically truncate the WAL there, reopen, and
//!     assert the recovered state is *exactly* the shadow of the longest
//!     recorded prefix — then re-run the differential oracle on it;
//!   * write faults: replay the workload with an injected write/sync failure
//!     at every write index, asserting acked-ops durability on reopen, an
//!     explicit read-only degrade (never a silent success), and clean
//!     recovery afterwards;
//!   * read faults: reopen a crashed store with injected short/failed reads,
//!     asserting recovery lands on a previously-observed state or fails
//!     explicitly — never a silently wrong answer.
//!
//! Deterministic by construction: every decision flows from `FUZZ_SEED`
//! (default 1). Knobs: `FUZZ_SMOKE=1` (CI profile, ~200 queries + bounded
//! crash sweep, <2 min), `FUZZ_CASES`, `FUZZ_CRASH_SEEDS`, `FUZZ_CORPUS`.
//! Exits nonzero on any divergence.

use std::path::{Path, PathBuf};
use std::time::Instant;

use bench::scale_from_env;
use datagen::queryfuzz;
use datagen::rng::SplitMix64;
use db2rdf::oracle::{self, Divergence};
use db2rdf::{Layout, RdfStore, StoreConfig, StoreError};
use rdf::Triple;
use relstore::ScriptedFaults;

struct Profile {
    cases: u64,
    update_cases: u64,
    seed: u64,
    crash_seeds: u64,
    workload_ops: usize,
    max_cuts: usize,
    max_write_plans: usize,
    max_read_plans: usize,
    corpus: PathBuf,
}

impl Profile {
    fn from_env() -> Profile {
        let smoke = std::env::var("FUZZ_SMOKE").map(|v| v == "1").unwrap_or(false);
        let corpus = std::env::var("FUZZ_CORPUS").map(PathBuf::from).unwrap_or_else(|_| {
            Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/corpus")
        });
        Profile {
            cases: scale_from_env("FUZZ_CASES", if smoke { 200 } else { 2000 }),
            update_cases: scale_from_env("FUZZ_UPDATE_CASES", if smoke { 150 } else { 1500 }),
            seed: scale_from_env("FUZZ_SEED", 1),
            crash_seeds: scale_from_env("FUZZ_CRASH_SEEDS", if smoke { 2 } else { 6 }),
            workload_ops: if smoke { 24 } else { 48 },
            max_cuts: if smoke { 80 } else { 400 },
            max_write_plans: if smoke { 12 } else { 60 },
            max_read_plans: if smoke { 12 } else { 48 },
            corpus,
        }
    }
}

fn main() {
    let profile = Profile::from_env();
    let t0 = Instant::now();
    let mut failures = 0usize;

    failures += differential_phase(&profile);
    failures += update_phase(&profile);
    failures += crash_phase(&profile);

    println!(
        "\nfuzz_differential: {} query cases, {} update cases, {} crash seeds, {} failure(s) \
         in {:.1}s",
        profile.cases,
        profile.update_cases,
        profile.crash_seeds,
        failures,
        t0.elapsed().as_secs_f64()
    );
    if failures > 0 {
        std::process::exit(1);
    }
}

// ---------------------------------------------------------------------------
// Phase 1: grammar-fuzzed differential oracle
// ---------------------------------------------------------------------------

fn differential_phase(profile: &Profile) -> usize {
    println!(
        "phase 1: differential oracle over {} seeded cases (base seed {})",
        profile.cases, profile.seed
    );
    let mut failures = 0;
    for i in 0..profile.cases {
        let seed = profile.seed.wrapping_add(i);
        let case = queryfuzz::gen_case(seed);
        if let Err(div) = oracle::check_case(&case.triples, &case.query) {
            failures += 1;
            report_divergence(profile, seed, &case.triples, &case.query, &div);
        }
        if (i + 1) % 500 == 0 {
            println!("  ... {} cases checked", i + 1);
        }
    }
    println!("  {} cases, {} divergence(s)", profile.cases, failures);
    failures
}

/// Shrink a diverging case and persist it to the regression corpus.
fn report_divergence(
    profile: &Profile,
    seed: u64,
    triples: &[Triple],
    query: &str,
    div: &Divergence,
) {
    println!("  DIVERGENCE seed {seed}: {div}");
    let (min_triples, min_query) = oracle::shrink(triples, query);
    let min_div = oracle::check_case(&min_triples, &min_query)
        .err()
        .map(|d| d.to_string())
        .unwrap_or_else(|| div.to_string());
    println!(
        "    shrunk to {} triple(s), query: {}",
        min_triples.len(),
        min_query
    );
    let note = format!("seed: {seed}\ninvariant: {min_div}");
    match oracle::write_case(
        &profile.corpus,
        &format!("fuzz-seed-{seed}"),
        &min_triples,
        &min_query,
        &note,
    ) {
        Ok(path) => println!("    minimized repro written to {}", path.display()),
        Err(e) => println!("    FAILED to write repro: {e}"),
    }
}

// ---------------------------------------------------------------------------
// Phase 1b: update-request differential oracle
// ---------------------------------------------------------------------------

fn update_phase(profile: &Profile) -> usize {
    println!(
        "\nphase 1b: update oracle over {} seeded cases (base seed {})",
        profile.update_cases, profile.seed
    );
    let mut failures = 0;
    for i in 0..profile.update_cases {
        let seed = profile.seed.wrapping_add(i);
        let case = queryfuzz::gen_update_case(seed);
        if let Err(div) = oracle::check_update_case(&case.triples, &case.update) {
            failures += 1;
            println!("  DIVERGENCE update seed {seed}: {div}");
            let (min_triples, min_update) = oracle::shrink_update(&case.triples, &case.update);
            let min_div = oracle::check_update_case(&min_triples, &min_update)
                .err()
                .map(|d| d.to_string())
                .unwrap_or_else(|| div.to_string());
            println!(
                "    shrunk to {} triple(s), update: {}",
                min_triples.len(),
                min_update
            );
            let note = format!("seed: {seed}\ninvariant: {min_div}");
            match oracle::write_update_case(
                &profile.corpus,
                &format!("fuzz-update-seed-{seed}"),
                &min_triples,
                &min_update,
                &note,
            ) {
                Ok(path) => println!("    minimized repro written to {}", path.display()),
                Err(e) => println!("    FAILED to write repro: {e}"),
            }
        }
        if (i + 1) % 500 == 0 {
            println!("  ... {} update cases checked", i + 1);
        }
    }
    println!("  {} update cases, {} divergence(s)", profile.update_cases, failures);
    failures
}

// ---------------------------------------------------------------------------
// Phase 2: crash-point recovery fuzzing
// ---------------------------------------------------------------------------

/// A durable-store workload op, generated deterministically per seed.
enum Op {
    Load(Vec<Triple>),
    Insert(Triple),
    Delete(usize), // index into the shadow state
}

/// Shadow state: the exact triple set an honest store must contain.
#[derive(Clone, Default)]
struct Shadow(Vec<Triple>);

impl Shadow {
    fn apply(&mut self, op: &Op) {
        match op {
            Op::Load(ts) => {
                for t in ts {
                    if !self.0.contains(t) {
                        self.0.push(t.clone());
                    }
                }
            }
            Op::Insert(t) => {
                if !self.0.contains(t) {
                    self.0.push(t.clone());
                }
            }
            Op::Delete(i) => {
                if !self.0.is_empty() {
                    self.0.remove(i % self.0.len());
                }
            }
        }
    }

    fn canon(&self) -> Vec<Vec<String>> {
        let mut rows: Vec<Vec<String>> = self
            .0
            .iter()
            .map(|t| {
                vec![t.subject.encode(), t.predicate.encode(), t.object.encode()]
            })
            .collect();
        rows.sort();
        rows
    }
}

fn gen_workload(seed: u64, ops: usize) -> Vec<Op> {
    let mut rng = SplitMix64::seed_from_u64(seed ^ 0xC4A5_CADE_0FF0_0D00);
    let mut out = vec![Op::Load(queryfuzz::gen_dataset(&mut rng))];
    let pool = queryfuzz::gen_dataset(&mut rng); // extra triples to insert
    for _ in 1..ops {
        if rng.gen_ratio(1, 4) {
            out.push(Op::Delete(rng.gen_range(0usize..1024)));
        } else {
            let t = pool[rng.gen_range(0usize..pool.len())].clone();
            out.push(Op::Insert(t));
        }
    }
    out
}

/// Apply one op; `Ok(true)` means the store's state actually changed
/// (duplicate inserts and misses are no-ops the WAL never sees).
fn apply_op(store: &mut RdfStore, shadow: &Shadow, op: &Op) -> db2rdf::Result<bool> {
    match op {
        Op::Load(ts) => store.load(ts).map(|_| true),
        Op::Insert(t) => store.insert(t),
        Op::Delete(i) => {
            if shadow.0.is_empty() {
                return Ok(false);
            }
            let victim = shadow.0[i % shadow.0.len()].clone();
            store.delete(&victim)
        }
    }
}

/// Dump a store's full triple set in canonical form. An "empty; load data
/// first" refusal counts as the empty state.
fn dump(store: &RdfStore) -> Result<Vec<Vec<String>>, String> {
    match store.query("SELECT ?s ?p ?o WHERE { ?s ?p ?o }") {
        Ok(sols) => Ok(oracle::canon(&sols)),
        Err(StoreError::Unsupported(m)) if m.contains("empty") => Ok(Vec::new()),
        Err(e) => Err(format!("full scan failed: {e}")),
    }
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join(format!("db2rdf-fuzz-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Every layout loads through the one bulk pipeline and its crash
/// contract, so the crash seeds rotate through all three — the baselines
/// first, so the two seeds of the smoke profile sweep both of them (the
/// entity layout's contract is swept by the tier-1 tests as well).
const LAYOUTS: [Layout; 3] = [Layout::TripleStore, Layout::Vertical, Layout::Entity];

fn crash_phase(profile: &Profile) -> usize {
    println!("\nphase 2: crash-point recovery fuzzing ({} seeds)", profile.crash_seeds);
    let mut failures = 0;
    for i in 0..profile.crash_seeds {
        let seed = profile.seed.wrapping_add(0x5EED_0000).wrapping_add(i);
        let cfg = StoreConfig::with_layout(LAYOUTS[(i % 3) as usize]);
        println!("  crash seed {seed}: {:?} layout", cfg.layout);
        let ops = gen_workload(seed, profile.workload_ops);
        let queries = gen_oracle_queries(seed);
        failures += truncation_sweep(profile, &cfg, seed, &ops, &queries);
        failures += write_fault_sweep(profile, &cfg, seed, &ops, &queries);
        failures += read_fault_sweep(profile, &cfg, seed, &ops, &queries);
    }
    failures
}

fn gen_oracle_queries(seed: u64) -> Vec<String> {
    let mut rng = SplitMix64::seed_from_u64(seed ^ 0x0DD5_0BAC_1E50);
    (0..6).map(|_| queryfuzz::gen_query(&mut rng)).collect()
}

/// An acked-op boundary: the WAL generation it was recorded in, that WAL's
/// length, and the state the store held.
struct Boundary {
    gen: u64,
    wal_len: u64,
    state: Shadow,
}

fn boundary(store: &RdfStore, shadow: &Shadow) -> Result<Boundary, String> {
    Ok(Boundary {
        gen: store.database().generation().ok_or("store not durable")?,
        wal_len: store.wal_len().ok_or("store not durable")?,
        state: shadow.clone(),
    })
}

/// Run the workload, recording a [`Boundary`] after every acked op (the
/// caller removes the directory). The initial `Load` ends in a checkpoint,
/// so everything after it lives in a later WAL generation than the load.
fn record_history(
    dir: &Path,
    cfg: &StoreConfig,
    ops: &[Op],
    checkpoints: usize,
) -> Result<Vec<Boundary>, String> {
    let mut store = RdfStore::open(dir, cfg.clone()).map_err(|e| format!("open: {e}"))?;
    let mut shadow = Shadow::default();
    let mut boundaries = vec![boundary(&store, &shadow)?];
    let ckpt_every = if checkpoints > 0 { ops.len() / (checkpoints + 1) } else { usize::MAX };
    for (i, op) in ops.iter().enumerate() {
        apply_op(&mut store, &shadow, op).map_err(|e| format!("op {i}: {e}"))?;
        shadow.apply(op);
        if checkpoints > 0 && i > 0 && i % ckpt_every == 0 {
            store.checkpoint().map_err(|e| format!("checkpoint at op {i}: {e}"))?;
        }
        boundaries.push(boundary(&store, &shadow)?);
    }
    drop(store); // crash: no close/checkpoint
    Ok(boundaries)
}

/// Every file of a store directory, by name.
fn read_store_files(dir: &Path) -> Vec<(String, Vec<u8>)> {
    std::fs::read_dir(dir)
        .expect("read store dir")
        .flatten()
        .map(|e| {
            let name = e.file_name().to_string_lossy().into_owned();
            (name, std::fs::read(e.path()).expect("read store file"))
        })
        .collect()
}

/// Evenly spaced cut offsets over `total` bytes, plus `extra`.
fn cut_points(total: u64, max_cuts: usize, extra: impl Iterator<Item = u64>) -> Vec<u64> {
    let step = (total.max(1) / max_cuts.max(1) as u64).max(1);
    let mut cuts: Vec<u64> = extra.chain((0..=total).step_by(step as usize)).collect();
    cuts.sort_unstable();
    cuts.dedup();
    cuts
}

/// Sweep WAL truncation points. The live generation — the snapshot the
/// load ended in plus the WAL of every later op — must recover to the exact
/// acked prefix at each cut; the load's own generation, cut anywhere, must
/// reopen empty, refuse explicitly, or hold the complete load.
fn truncation_sweep(
    profile: &Profile,
    cfg: &StoreConfig,
    seed: u64,
    ops: &[Op],
    queries: &[String],
) -> usize {
    let dir = fresh_dir(&format!("trunc-{seed}"));
    let boundaries = match record_history(&dir, cfg, ops, 0) {
        Ok(b) => b,
        Err(e) => {
            println!("  FAIL [truncation seed {seed}]: workload: {e}");
            let _ = std::fs::remove_dir_all(&dir);
            return 1;
        }
    };
    let files = read_store_files(&dir);
    let _ = std::fs::remove_dir_all(&dir);
    let file = |name: &str| -> &[u8] {
        &files.iter().find(|(n, _)| n == name).unwrap_or_else(|| panic!("no {name}")).1
    };
    // No mid-workload checkpoints here, so every boundary after the load
    // is in the last generation, and the first of them is the state its
    // snapshot holds.
    let load_gen = boundaries[0].gen;
    let live_gen = boundaries.last().expect("boundaries").gen;
    let live: Vec<&Boundary> = boundaries.iter().filter(|b| b.gen == live_gen).collect();
    let loaded = &live[0].state;
    let wal_name = format!("wal.{live_gen}");
    let bytes = file(&wal_name);
    let total = bytes.len() as u64;
    let cuts = cut_points(total, profile.max_cuts, live.iter().map(|b| b.wal_len));

    let mut failures = 0;
    let work = fresh_dir(&format!("trunc-work-{seed}"));
    for &cut in &cuts {
        let _ = std::fs::remove_dir_all(&work);
        std::fs::create_dir_all(&work).expect("mkdir");
        for (name, content) in &files {
            let content = if *name == wal_name { &bytes[..cut as usize] } else { &content[..] };
            std::fs::write(work.join(name), content).expect("write store file");
        }
        let expected = live.iter().rev().find(|b| b.wal_len <= cut).map_or(loaded, |b| &b.state);
        match RdfStore::open(&work, cfg.clone()) {
            Err(e) => {
                // Truncation must look like a torn tail, which recovery heals.
                println!("  FAIL [truncation seed {seed} cut {cut}/{total}]: open errored: {e}");
                failures += 1;
            }
            Ok(store) => {
                match dump(&store) {
                    Err(e) => {
                        println!("  FAIL [truncation seed {seed} cut {cut}/{total}]: {e}");
                        failures += 1;
                    }
                    Ok(got) if got != expected.canon() => {
                        println!(
                            "  FAIL [truncation seed {seed} cut {cut}/{total}]: recovered {} \
                             triples, expected exact prefix of {}",
                            got.len(),
                            expected.0.len()
                        );
                        failures += 1;
                    }
                    Ok(_) => {
                        // Exact prefix recovered; at acked boundaries also
                        // re-run the differential oracle on the store.
                        let at_boundary = live.iter().any(|b| b.wal_len == cut);
                        if at_boundary && !expected.0.is_empty() {
                            if let Err(div) =
                                oracle::check_store_against(&store, &expected.0, queries)
                            {
                                println!(
                                    "  FAIL [truncation seed {seed} cut {cut}/{total}]: \
                                     recovered store diverges: {div}"
                                );
                                failures += 1;
                            }
                        }
                    }
                }
            }
        }
    }

    // The load's own WAL, alone (its closing checkpoint never happened).
    let load_wal = format!("wal.{load_gen}");
    let load_bytes = file(&load_wal);
    let load_total = load_bytes.len() as u64;
    let load_cuts = cut_points(load_total, profile.max_cuts, std::iter::empty());
    for &cut in &load_cuts {
        let _ = std::fs::remove_dir_all(&work);
        std::fs::create_dir_all(&work).expect("mkdir");
        std::fs::write(work.join(&load_wal), &load_bytes[..cut as usize]).expect("write WAL");
        let verdict = match RdfStore::open(&work, cfg.clone()) {
            Err(e) if e.to_string().contains("bulk load interrupted") => Ok(()),
            Err(e) => Err(format!("open errored: {e}")),
            Ok(store) => match dump(&store) {
                Err(e) => Err(e),
                Ok(got) if got == loaded.canon() => Ok(()),
                Ok(got) if got.is_empty() && cut < load_total => Ok(()),
                Ok(got) => Err(format!(
                    "recovered {} of the load's {} triples",
                    got.len(),
                    loaded.0.len()
                )),
            },
        };
        if let Err(msg) = verdict {
            println!("  FAIL [truncation seed {seed} load cut {cut}/{load_total}]: {msg}");
            failures += 1;
        }
    }
    let _ = std::fs::remove_dir_all(&work);
    println!(
        "  truncation seed {seed}: {} cuts over {} WAL bytes + {} over the load's {}, \
         {} failure(s)",
        cuts.len(),
        total,
        load_cuts.len(),
        load_total,
        failures
    );
    failures
}

/// Inject a write/sync fault at every write index; assert acked-ops
/// durability, an explicit degrade, and clean recovery.
fn write_fault_sweep(
    profile: &Profile,
    cfg: &StoreConfig,
    seed: u64,
    ops: &[Op],
    queries: &[String],
) -> usize {
    let mut failures = 0;
    let mut plans: Vec<(String, ScriptedFaults)> = Vec::new();
    let mut rng = SplitMix64::seed_from_u64(seed ^ 0xFA17_F0CA_1BAD_CAFE);
    for n in 0..profile.max_write_plans {
        plans.push(match n % 3 {
            0 => (format!("fail_write({n})"), ScriptedFaults::new().fail_write(n)),
            1 => {
                let keep = rng.gen_range(0usize..64);
                (format!("short_write({n},{keep})"), ScriptedFaults::new().short_write(n, keep))
            }
            _ => (format!("fail_sync({n})"), ScriptedFaults::new().fail_sync(n)),
        });
    }

    for (name, faults) in plans {
        let dir = fresh_dir(&format!("wfault-{seed}"));
        let tag = format!("write-fault seed {seed} {name}");
        let fail = |msg: String| {
            println!("  FAIL [{tag}]: {msg}");
        };
        let mut store = match RdfStore::open_with_faults(&dir, cfg.clone(), faults.into_handle()) {
            Ok(s) => s,
            Err(e) => {
                // Opening a fresh durable store writes the WAL header; a
                // fault there must surface explicitly, which this is.
                println!("  write-fault seed {seed} {name}: open refused explicitly ({e})");
                let _ = std::fs::remove_dir_all(&dir);
                continue;
            }
        };
        let mut shadow = Shadow::default();
        // States recovery may legitimately land on: the last acked state, or
        // last-acked + the faulted op (a sync fault can leave a fully
        // written, fsync-refused record that still replays).
        let mut acceptable: Vec<Shadow> = vec![shadow.clone()];
        let mut faulted = false;
        // A fault inside the load may leave its in-progress marker behind:
        // reopening may then refuse explicitly instead of recovering.
        let mut faulted_in_load = false;
        for op in ops {
            match apply_op(&mut store, &shadow, op) {
                Ok(changed) => {
                    if faulted {
                        // No-op mutations (duplicate insert, delete miss)
                        // may succeed on a degraded store — they never
                        // touch the WAL. A state change must not.
                        if changed {
                            fail("state-changing mutation succeeded after degrade".into());
                            failures += 1;
                            break;
                        }
                        continue;
                    }
                    shadow.apply(op);
                    acceptable = vec![shadow.clone()];
                }
                Err(e) => {
                    if !faulted {
                        let mut with_op = shadow.clone();
                        with_op.apply(op);
                        // The one failure a healthy store may report: the
                        // load committed and only its closing checkpoint
                        // failed. The op counts as acked.
                        if matches!(op, Op::Load(_))
                            && !store.is_read_only()
                            && dump(&store).is_ok_and(|got| got == with_op.canon())
                        {
                            shadow = with_op;
                            acceptable = vec![shadow.clone()];
                            continue;
                        }
                        // First failure: must be the injected fault, and the
                        // store must degrade explicitly, not limp along.
                        faulted = true;
                        faulted_in_load = matches!(op, Op::Load(_));
                        acceptable = vec![shadow.clone(), with_op];
                        if !store.is_read_only() {
                            fail(format!(
                                "op failed ({e}) but the store did not degrade to read-only"
                            ));
                            failures += 1;
                            break;
                        }
                    } else if !e.is_read_only() {
                        fail(format!("post-degrade mutation failed with {e}, not ReadOnly"));
                        failures += 1;
                        break;
                    }
                }
            }
        }
        // Reads must still work on the degraded store (no silent wrongness).
        if let Err(e) = dump(&store) {
            fail(format!("degraded store refused reads: {e}"));
            failures += 1;
        }
        drop(store);

        // Clean reopen: acked-ops durability.
        match RdfStore::open(&dir, cfg.clone()) {
            Err(e) if faulted_in_load && e.to_string().contains("bulk load interrupted") => {}
            Err(e) => {
                fail(format!("clean reopen failed: {e}"));
                failures += 1;
            }
            Ok(recovered) => match dump(&recovered) {
                Err(e) => {
                    fail(format!("recovered store: {e}"));
                    failures += 1;
                }
                Ok(got) => {
                    if !acceptable.iter().any(|s| s.canon() == got) {
                        fail(format!(
                            "recovered {} triples; neither the acked state ({}) nor \
                             acked+faulted-op matches",
                            got.len(),
                            acceptable[0].0.len()
                        ));
                        failures += 1;
                    } else {
                        let state = acceptable
                            .iter()
                            .find(|s| s.canon() == got)
                            .unwrap();
                        if !state.0.is_empty() {
                            if let Err(div) =
                                oracle::check_store_against(&recovered, &state.0, queries)
                            {
                                fail(format!("recovered store diverges: {div}"));
                                failures += 1;
                            }
                        }
                    }
                }
            },
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    println!(
        "  write-fault seed {seed}: {} plans, {} failure(s)",
        profile.max_write_plans, failures
    );
    failures
}

/// Reopen a crashed store under injected read faults: recovery must land on
/// a previously observed state or refuse explicitly — never silently wrong.
fn read_fault_sweep(
    profile: &Profile,
    cfg: &StoreConfig,
    seed: u64,
    ops: &[Op],
    queries: &[String],
) -> usize {
    let dir = fresh_dir(&format!("rfault-{seed}"));
    // Two mid-workload checkpoints so read faults also exercise the
    // snapshot fallback path, not just WAL replay.
    let boundaries = match record_history(&dir, cfg, ops, 2) {
        Ok(b) => b,
        Err(e) => {
            println!("  FAIL [read-fault seed {seed}]: workload: {e}");
            let _ = std::fs::remove_dir_all(&dir);
            return 1;
        }
    };
    let states: Vec<Vec<Vec<String>>> =
        boundaries.iter().map(|b| b.state.canon()).collect();
    let pristine = read_store_files(&dir);

    let mut rng = SplitMix64::seed_from_u64(seed ^ 0x05EE_FAD5);
    let mut failures = 0;
    let work = fresh_dir(&format!("rfault-work-{seed}"));
    for n in 0..profile.max_read_plans {
        // Restore the pristine on-disk state (recovery may rewrite files).
        let _ = std::fs::remove_dir_all(&work);
        std::fs::create_dir_all(&work).expect("mkdir");
        for (name, bytes) in &pristine {
            std::fs::write(work.join(name), bytes).expect("copy");
        }
        let read_idx = n / 2;
        let (name, faults) = if n % 2 == 0 {
            (format!("fail_read({read_idx})"), ScriptedFaults::new().fail_read(read_idx))
        } else {
            let keep = rng.gen_range(0usize..2048);
            (
                format!("short_read({read_idx},{keep})"),
                ScriptedFaults::new().short_read(read_idx, keep),
            )
        };
        match RdfStore::open_with_faults(&work, cfg.clone(), faults.into_handle()) {
            Err(_) => {} // explicit refusal is a valid outcome
            Ok(store) => match dump(&store) {
                Err(e) => {
                    println!("  FAIL [read-fault seed {seed} {name}]: {e}");
                    failures += 1;
                }
                Ok(got) => {
                    let Some(pos) = states.iter().position(|s| *s == got) else {
                        println!(
                            "  FAIL [read-fault seed {seed} {name}]: recovered {} triples — \
                             not any state this store ever acked",
                            got.len()
                        );
                        failures += 1;
                        continue;
                    };
                    let state = &boundaries[pos].state;
                    if !state.0.is_empty() {
                        if let Err(div) = oracle::check_store_against(&store, &state.0, queries)
                        {
                            println!(
                                "  FAIL [read-fault seed {seed} {name}]: recovered store \
                                 diverges: {div}"
                            );
                            failures += 1;
                        }
                    }
                }
            },
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&work);
    println!(
        "  read-fault seed {seed}: {} plans, {} failure(s)",
        profile.max_read_plans, failures
    );
    failures
}
