//! Thread-scaling benchmark for the executor.
//!
//! Loads ≥100k LUBM-style triples into a single `spo(s,p,o)` relation (the
//! triple-store layout, scan- and hash-join-heavy by construction: no
//! indexes, so every FROM item is a full parallel scan and every join is a
//! build-once/probe-parallel hash join), *calibrates* the dataset —
//! doubling the university count until every query takes ≥1s
//! single-threaded, so per-point noise cannot manufacture a scaling story —
//! then times the suite at 1/2/4/8 worker threads, asserting the result
//! rows (including order) are identical at every width, and writes
//! wall-clock plus per-phase (scan/build/probe/agg) timings to
//! `BENCH_exec.json` (the smoke profile prints them instead).
//!
//! Dependency-free by design: `std::time::Instant` timing, hand-rolled
//! JSON. Run with `cargo run --release -p bench --bin exec_scaling`; the
//! starting scale is `EXEC_SCALING_UNIV=<universities>` (default 24, ~5.1k
//! triples each) and calibration stops at `EXEC_SCALING_MAX_UNIV` (default
//! 1536). `EXEC_SCALING_SMOKE=1` switches to a CI smoke profile: a small
//! uncalibrated dataset, one run per point, 1/2/4 threads — a
//! panic-freedom and determinism check, not a measurement. Speedup is
//! relative to the 1-thread run on the same machine. The honesty rules: the
//! JSON records `cores` and `single_thread_min_secs`; the scaling gates
//! (≥2.5x geomean at 4 threads full profile, ≥1.5x minimum in smoke) only
//! arm when the host actually has ≥4 cores — on fewer cores wall-clock
//! speedup >1 is physically impossible and the run reports that instead of
//! pretending.

use std::time::Instant;

use bench::{emit_report, scale_from_env};
use datagen::lubm::{self, NS, RDF_TYPE};
use relstore::SqlType::Text;
use relstore::{quote_str, table_schema, Database, PhaseTimings, Rel, Value};

fn iri(local: &str) -> String {
    rdf::Term::iri(format!("{NS}{local}")).encode()
}

/// One benchmark query over the `spo` relation.
struct BenchQuery {
    name: &'static str,
    sql: String,
}

fn queries() -> Vec<BenchQuery> {
    let c = |local: &str| quote_str(&iri(local));
    let typ = quote_str(&rdf::Term::iri(RDF_TYPE).encode());
    let grad = c("GraduateStudent");
    vec![
        BenchQuery {
            // LUBM Q9-style triangle: student → advisor → course the
            // advisor teaches and the student takes. Three hash joins, the
            // last on a composite (s, o) key.
            name: "triangle",
            sql: format!(
                "SELECT t1.s, t2.o AS prof, t3.o AS course \
                 FROM spo AS t1, spo AS t2, spo AS t3, spo AS t4 \
                 WHERE t1.p = {typ} AND t1.o = {grad} \
                 AND t2.s = t1.s AND t2.p = {} \
                 AND t3.s = t2.o AND t3.p = {} \
                 AND t4.s = t1.s AND t4.p = {} AND t4.o = t3.o",
                c("advisor"),
                c("teacherOf"),
                c("takesCourse")
            ),
        },
        BenchQuery {
            // Star with a LIKE filter: expression-heavy parallel scans.
            name: "star_like",
            sql: format!(
                "SELECT t1.s, t2.o AS name, t3.o AS dept \
                 FROM spo AS t1, spo AS t2, spo AS t3 \
                 WHERE t1.p = {typ} AND t1.o = {grad} \
                 AND t2.s = t1.s AND t2.p = {} AND t2.o LIKE '%Grad 1%' \
                 AND t3.s = t1.s AND t3.p = {}",
                c("name"),
                c("memberOf")
            ),
        },
        BenchQuery {
            // Chain ending in an aggregation over a parallel scan.
            name: "chain_agg",
            sql: format!(
                "SELECT t2.o AS dept, COUNT(*) AS n \
                 FROM spo AS t1, spo AS t2 \
                 WHERE t1.p = {} AND t2.s = t1.s AND t2.p = {} \
                 GROUP BY t2.o ORDER BY 2 DESC, 1",
                c("advisor"),
                c("memberOf")
            ),
        },
    ]
}

/// Median wall-clock seconds over `runs` repetitions, with the per-phase
/// breakdown of the median run. Tracing costs two `Instant` reads per
/// operator region — noise next to the regions themselves — so the traced
/// wall clock *is* the measurement, not an approximation of it.
fn traced_median(db: &Database, sql: &str, runs: usize) -> (f64, PhaseTimings, Rel) {
    let (warm, _) = db.query_traced(sql).expect("query");
    let mut samples: Vec<(f64, PhaseTimings)> = (0..runs)
        .map(|_| {
            let t0 = Instant::now();
            let (_, phases) = db.query_traced(sql).expect("query");
            (t0.elapsed().as_secs_f64(), phases)
        })
        .collect();
    samples.sort_by(|a, b| f64::total_cmp(&a.0, &b.0));
    let (secs, phases) = samples[samples.len() / 2];
    (secs, phases, warm)
}

/// Build a fresh string-table database at the given scale.
fn string_db(universities: usize) -> (Database, usize) {
    let triples = lubm::generate(universities, 42);
    let mut db = Database::new();
    db.create_table(table_schema("spo", &[("s", Text), ("p", Text), ("o", Text)])).unwrap();
    db.insert_rows(
        "spo",
        triples.iter().map(|t| {
            vec![
                Value::str(t.subject.encode()),
                Value::str(t.predicate.encode()),
                Value::str(t.object.encode()),
            ]
        }),
    )
    .unwrap();
    (db, triples.len())
}

fn main() {
    let smoke = std::env::var("EXEC_SCALING_SMOKE").map(|v| v == "1").unwrap_or(false);
    let universities = scale_from_env("EXEC_SCALING_UNIV", if smoke { 2 } else { 24 });
    let runs = if smoke { 1 } else { 3 };
    let thread_counts: &[usize] = if smoke { &[1, 2, 4] } else { &[1, 2, 4, 8] };
    let cores = std::thread::available_parallelism().map(usize::from).unwrap_or(1);
    let suite = queries();

    // Calibrate: double the dataset until every query takes ≥1s on one
    // thread. Sub-second points measure scheduler jitter, not scaling — a
    // flat curve at 30ms and a flat curve at 3s mean different things, and
    // only the second is allowed to count against (or for) the executor.
    let max_univ = scale_from_env("EXEC_SCALING_MAX_UNIV", 1536);
    let mut bench_univ = universities;
    let (mut scale_db, mut bench_triples) = string_db(bench_univ);
    if !smoke {
        assert!(bench_triples >= 100_000, "need ≥100k triples, got {bench_triples}");
    }
    eprintln!(
        "loaded {bench_triples} LUBM triples ({universities} universities); {cores} core(s) \
         available{}",
        if smoke { "; SMOKE mode" } else { "" }
    );
    let mut single_min;
    loop {
        scale_db.set_threads(Some(1));
        single_min = f64::INFINITY;
        for q in &suite {
            let t0 = Instant::now();
            scale_db.query(&q.sql).expect("query");
            single_min = single_min.min(t0.elapsed().as_secs_f64());
        }
        if smoke || single_min >= 1.0 || bench_univ * 2 > max_univ {
            break;
        }
        bench_univ *= 2;
        eprintln!(
            "calibrating: fastest query {single_min:.3}s single-threaded at \
             {bench_univ_prev} universities — doubling to {bench_univ}",
            bench_univ_prev = bench_univ / 2
        );
        (scale_db, bench_triples) = string_db(bench_univ);
    }
    let calibrated = single_min >= 1.0;
    eprintln!(
        "scaling phase: {bench_triples} triples ({bench_univ} universities), fastest query \
         {single_min:.3}s single-threaded{}",
        if calibrated { "" } else { " — BELOW the 1s calibration bar" }
    );

    let mut json_queries = Vec::new();
    let mut speedups_at_4: Vec<f64> = Vec::new();
    println!();
    println!(
        "{:<10} {:>8} {:>10} {:>10} {:>9}  {:>8} {:>8} {:>8} {:>8}",
        "query", "threads", "rows", "secs", "speedup", "scan", "build", "probe", "agg"
    );
    for q in &suite {
        let mut base_secs = 0.0;
        let mut reference: Option<Rel> = None;
        let mut runs_json = Vec::new();
        for &threads in thread_counts {
            scale_db.set_threads(Some(threads));
            let (secs, ph, rel) = traced_median(&scale_db, &q.sql, runs);
            match &reference {
                None => {
                    base_secs = secs;
                    reference = Some(rel);
                }
                Some(r) => assert_eq!(
                    r.rows, rel.rows,
                    "{}: result rows (or their order) changed at {threads} threads",
                    q.name
                ),
            }
            let speedup = base_secs / secs;
            if threads == 4 {
                speedups_at_4.push(speedup);
            }
            let rows = reference.as_ref().unwrap().rows.len();
            println!(
                "{:<10} {threads:>8} {rows:>10} {secs:>10.4} {speedup:>8.2}x  \
                 {:>8.4} {:>8.4} {:>8.4} {:>8.4}",
                q.name, ph.scan_secs, ph.build_secs, ph.probe_secs, ph.agg_secs
            );
            runs_json.push(format!(
                "{{\"threads\": {threads}, \"secs\": {secs:.6}, \"speedup\": {speedup:.3}, \
                 \"phases\": {{\"scan_secs\": {:.6}, \"build_secs\": {:.6}, \
                 \"probe_secs\": {:.6}, \"agg_secs\": {:.6}}}}}",
                ph.scan_secs, ph.build_secs, ph.probe_secs, ph.agg_secs
            ));
        }
        json_queries.push(format!(
            "{{\"name\": \"{}\", \"rows\": {}, \"runs\": [{}]}}",
            q.name,
            reference.unwrap().rows.len(),
            runs_json.join(", ")
        ));
    }

    // No 4-thread point → null, not an invalid `inf`/`nan`.
    let min_at_4 = speedups_at_4.iter().copied().fold(f64::INFINITY, f64::min);
    let geo_at_4 = if speedups_at_4.is_empty() {
        f64::NAN
    } else {
        (speedups_at_4.iter().map(|s| s.ln()).sum::<f64>() / speedups_at_4.len() as f64).exp()
    };
    let opt_json = |v: f64| if v.is_finite() { format!("{v:.3}") } else { "null".to_string() };
    let json = format!(
        "{{\n  \"bench\": \"exec_scaling\",\n  \"triples\": {bench_triples},\n  \
         \"universities\": {bench_univ},\n  \"cores\": {cores},\n  \
         \"runs_per_point\": {runs},\n  \"smoke\": {smoke},\n  \
         \"single_thread_min_secs\": {single_min:.3},\n  \"calibrated\": {calibrated},\n  \
         \"min_speedup_at_4_threads\": {},\n  \"geomean_speedup_at_4_threads\": {},\n  \
         \"queries\": [\n    {}\n  ]\n}}\n",
        opt_json(min_at_4),
        opt_json(geo_at_4),
        json_queries.join(",\n    ")
    );
    emit_report("BENCH_exec.json", &json, smoke);
    if min_at_4.is_finite() {
        eprintln!("speedup at 4 threads: min {min_at_4:.2}x, geomean {geo_at_4:.2}x");
    } else {
        eprintln!("no 4-thread point in this profile");
    }

    // The scaling gates. Armed only when ≥4 physical cores exist: with
    // fewer, a 4-thread wall-clock speedup >1.0 is physically impossible
    // and asserting it would reward machines for lying about core counts.
    if cores >= 4 {
        if smoke {
            assert!(
                min_at_4 >= 1.5,
                "scaling gate: min 4-thread speedup {min_at_4:.2}x < 1.5x on {cores} cores"
            );
        } else {
            assert!(
                geo_at_4 >= 2.5,
                "scaling gate: geomean 4-thread speedup {geo_at_4:.2}x < 2.5x on {cores} cores"
            );
        }
        eprintln!("scaling gate: PASS");
    } else {
        eprintln!(
            "scaling gate: SKIPPED — only {cores} core(s) available, wall-clock speedup \
             cannot exceed 1.0 here; run on a ≥4-core machine to evaluate the claim"
        );
    }
}
