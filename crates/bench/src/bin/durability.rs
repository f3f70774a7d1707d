//! Durability-overhead benchmark: what does the WAL cost?
//!
//! Loads the same LUBM-style dataset into (a) a purely in-memory store and
//! (b) a durable store (WAL + snapshot directory), then measures load time
//! (segmented WAL batches plus the checkpoint `load()` ends in), reopen
//! time, the cost of a further checkpoint, and the on-disk footprint.
//! Prints a table and writes `BENCH_durability.json`.
//!
//! Dependency-free by design: `std::time::Instant` timing, hand-rolled
//! JSON. Run with `cargo run --release -p bench --bin durability`; scale
//! with `DURABILITY_UNIV=<universities>` (default 8, ~5.1k triples each).

use std::time::Instant;

use datagen::lubm;
use db2rdf::{RdfStore, StoreConfig};

fn ms(from: Instant) -> f64 {
    from.elapsed().as_secs_f64() * 1e3
}

fn dir_bytes(dir: &std::path::Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| rd.flatten().filter_map(|e| e.metadata().ok()).map(|m| m.len()).sum())
        .unwrap_or(0)
}

fn main() {
    let univ: usize = std::env::var("DURABILITY_UNIV")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(8);
    let triples = lubm::generate(univ, 1);
    println!("dataset: {} LUBM universities, {} triples", univ, triples.len());

    let dir = std::env::temp_dir().join(format!("relstore-durability-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // In-memory baseline.
    let t0 = Instant::now();
    let mut mem = RdfStore::new(StoreConfig::default());
    mem.load(&triples).expect("in-memory load");
    let mem_load_ms = ms(t0);
    let check = mem.query("SELECT ?s WHERE { ?s ?p ?o } LIMIT 5").expect("query").len();

    // Durable load: segmented WAL batches, then a checkpoint.
    let t0 = Instant::now();
    let mut dur = RdfStore::open(&dir, StoreConfig::default()).expect("open");
    dur.load(&triples).expect("durable load");
    let dur_load_ms = ms(t0);
    let load_bytes = dir_bytes(&dir);

    // Reopen what the load left: its snapshot and an empty WAL.
    drop(dur);
    let t0 = Instant::now();
    let mut dur = RdfStore::open(&dir, StoreConfig::default()).expect("reopen after load");
    let reopen_ms = ms(t0);
    assert_eq!(
        dur.query("SELECT ?s WHERE { ?s ?p ?o } LIMIT 5").expect("query after reopen").len(),
        check
    );

    // Checkpoint again (prunes the load's WAL generation), then reopen.
    let t0 = Instant::now();
    dur.checkpoint().expect("checkpoint");
    let checkpoint_ms = ms(t0);
    let snapshot_bytes = dir_bytes(&dir);
    drop(dur);
    let t0 = Instant::now();
    let dur = RdfStore::open(&dir, StoreConfig::default()).expect("reopen (snapshot)");
    let snapshot_open_ms = ms(t0);
    assert_eq!(
        dur.query("SELECT ?s WHERE { ?s ?p ?o } LIMIT 5").expect("query after snapshot").len(),
        check
    );
    drop(dur);

    let overhead = if mem_load_ms > 0.0 { dur_load_ms / mem_load_ms } else { f64::NAN };
    println!();
    println!("{:<28} {:>12}", "metric", "value");
    println!("{:<28} {:>9.1} ms", "load (in-memory)", mem_load_ms);
    println!("{:<28} {:>9.1} ms", "load (durable)", dur_load_ms);
    println!("{:<28} {:>11.2}x", "durable-load overhead", overhead);
    println!("{:<28} {:>9.1} ms", "reopen after load", reopen_ms);
    println!("{:<28} {:>9.1} ms", "checkpoint", checkpoint_ms);
    println!("{:<28} {:>9.1} ms", "reopen after checkpoint", snapshot_open_ms);
    println!("{:<28} {:>8.1} KiB", "dir size after load", load_bytes as f64 / 1024.0);
    println!("{:<28} {:>8.1} KiB", "dir size after checkpoint", snapshot_bytes as f64 / 1024.0);

    let json = format!(
        "{{\n  \"triples\": {},\n  \"mem_load_ms\": {mem_load_ms:.3},\n  \"durable_load_ms\": {dur_load_ms:.3},\n  \"overhead\": {overhead:.4},\n  \"reopen_after_load_ms\": {reopen_ms:.3},\n  \"checkpoint_ms\": {checkpoint_ms:.3},\n  \"snapshot_open_ms\": {snapshot_open_ms:.3},\n  \"dir_bytes_after_load\": {load_bytes},\n  \"dir_bytes_after_checkpoint\": {snapshot_bytes}\n}}\n",
        triples.len(),
    );
    std::fs::write("BENCH_durability.json", &json).expect("write BENCH_durability.json");
    println!("\nwrote BENCH_durability.json");

    let _ = std::fs::remove_dir_all(&dir);
}
