//! `e2e` — the repo's one benchmark (contract: `BENCHMARK.json` at the repo
//! root; design and measured noise: `README.md` beside this package).
//!
//! It drives the real `server::Server` over loopback HTTP against a durable
//! entity-layout LUBM store, on four workloads, and reports read cost,
//! write cost and space together.
//!
//! ```text
//! e2e --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! e2e --smoke            every workload, both modes, tiny sizes, all checks
//! e2e --noise N          2N end-to-end runs per workload; spreads vs bounds
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`
//! — the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. Everything else goes to standard error. The exit code is
//! non-zero when any operation or check failed.

mod endtoend;
mod gen;
mod http;
mod layers;
mod noise;
mod run;
mod stats;
mod trace;

use run::{Plan, Tally, Workload, WORKLOADS};
use stats::Summary;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// What a user of the store sees, as `(name, unit, better, bound)`; the
/// bound is the share of the parent's median by which the metric may worsen.
/// Bounds are at least three times the spread measured on the 2-core
/// reference box in a quiet spell (README.md, noise table) and no tighter
/// than its noisy spells allow.
pub const END_TO_END: [(&str, &str, Better, f64); 9] = [
    ("setup_s", "s", Better::Lower, 0.25),
    ("query_rps", "1/s", Better::Higher, 0.2),
    ("query_p50_ms", "ms", Better::Lower, 0.2),
    ("update_ops_s", "1/s", Better::Higher, 0.25),
    ("update_p50_ms", "ms", Better::Lower, 0.25),
    ("load_triples_s", "1/s", Better::Higher, 0.25),
    ("reopen_s", "s", Better::Lower, 0.25),
    ("disk_bytes_per_triple", "bytes", Better::Lower, 0.01),
    ("peak_rss_mb", "MB", Better::Lower, 0.15),
];

/// Per-layer metrics (layer = module of the program under test), as
/// `(name, unit, better)`. README.md says which end-to-end metric each
/// should move and on which workload.
pub const PER_LAYER: [(&str, &str, Better); 52] = [
    ("server.healthz_rtt_us", "us", Better::Lower),
    ("server.http_overhead_us", "us", Better::Lower),
    ("server.resp_bytes_per_req", "bytes", Better::Lower),
    ("server.query_p95_ms", "ms", Better::Lower),
    ("server.query_p99_ms", "ms", Better::Lower),
    ("server.non_200", "count", Better::Lower),
    ("sparql.parse_query_us", "us", Better::Lower),
    ("sparql.parse_update_us", "us", Better::Lower),
    ("core.plancache.hit_ratio", "ratio", Better::Higher),
    ("core.plancache.hit_us", "us", Better::Lower),
    ("core.plancache.evictions", "count", Better::Lower),
    ("core.plancache.invalidations", "count", Better::Lower),
    ("core.translate.plan_us", "us", Better::Lower),
    ("core.translate.sql_bytes", "bytes", Better::Lower),
    ("relstore.sql.parse_us", "us", Better::Lower),
    ("relstore.exec.query_us", "us", Better::Lower),
    ("relstore.exec.scan_us", "us", Better::Lower),
    ("relstore.exec.build_us", "us", Better::Lower),
    ("relstore.exec.probe_us", "us", Better::Lower),
    ("relstore.exec.agg_us", "us", Better::Lower),
    ("relstore.exec.unattributed_us", "us", Better::Lower),
    ("relstore.exec.rows_out", "count", Better::Lower),
    ("core.results.decode_us", "us", Better::Lower),
    ("core.results.json_us", "us", Better::Lower),
    ("core.results.json_bytes", "bytes", Better::Lower),
    ("core.dict.entries", "count", Better::Lower),
    ("core.dict.raw_bytes", "bytes", Better::Lower),
    ("core.dict.compressed_bytes", "bytes", Better::Lower),
    ("core.dict.lookup_us", "us", Better::Lower),
    ("core.dict.resolve_us", "us", Better::Lower),
    ("rdf.ntriples.parse_s", "s", Better::Lower),
    ("core.bulk.sort_s", "s", Better::Lower),
    ("core.bulk.insert_s", "s", Better::Lower),
    ("core.bulk.other_s", "s", Better::Lower),
    ("core.bulk.segments", "count", Better::Lower),
    ("core.update.insert_data_us", "us", Better::Lower),
    ("core.update.delete_where_us", "us", Better::Lower),
    ("core.update.delete_insert_us", "us", Better::Lower),
    ("core.shared.updates_per_group", "ratio", Better::Higher),
    ("core.shared.update_scale_ratio", "ratio", Better::Lower),
    ("core.shared.read_rps_under_writes", "1/s", Better::Higher),
    ("core.shared.read_max_stall_ms", "ms", Better::Lower),
    ("core.shared.update_p50_ms_under_reads", "ms", Better::Lower),
    ("relstore.wal.bytes_per_update", "bytes", Better::Lower),
    ("relstore.checkpoint_s", "s", Better::Lower),
    ("relstore.snapshot_bytes", "bytes", Better::Lower),
    ("relstore.reopen_after_writes_s", "s", Better::Lower),
    ("datagen.generate_s", "s", Better::Lower),
    ("trace.coverage", "ratio", Better::Higher),
    ("trace.miss_extra_us", "us", Better::Lower),
    ("trace.inproc_query_us", "us", Better::Lower),
    ("trace.http_query_p50_us", "us", Better::Lower),
];

/// The metrics one run measured: a median with its quartiles and sample
/// count where the run took several samples, a single value otherwise.
#[derive(Default)]
pub struct Metrics(Vec<(&'static str, Summary)>);

impl Metrics {
    pub fn put(&mut self, name: &'static str, summary: Summary) {
        assert!(self.get(name).is_none(), "metric {name} reported twice");
        self.0.push((name, summary));
    }

    pub fn put_value(&mut self, name: &'static str, value: f64) {
        self.put(
            name,
            Summary {
                n: 1,
                median: value,
                q1: value,
                q3: value,
            },
        );
    }

    pub fn get(&self, name: &str) -> Option<&Summary> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, s)| s)
    }
}

/// The metric names and units a mode must print, in order.
fn expected(trace: bool) -> Vec<(&'static str, &'static str)> {
    if trace {
        PER_LAYER
            .iter()
            .map(|&(name, unit, _)| (name, unit))
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|&(name, unit, ..)| (name, unit))
            .collect()
    }
}

/// The result line. Panics if the run did not measure exactly the metrics
/// its mode promises — that is a bug in the benchmark.
fn result_json(trace: bool, tally: &Tally, metrics: &Metrics) -> String {
    let expected = expected(trace);
    assert_eq!(metrics.0.len(), expected.len(), "wrong number of metrics");
    let body: Vec<String> = expected
        .iter()
        .map(|(name, unit)| {
            let s = metrics
                .get(name)
                .unwrap_or_else(|| panic!("metric {name} not measured"));
            assert!(s.median.is_finite(), "metric {name} is {}", s.median);
            format!("\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}", s.median)
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        body.join(",")
    )
}

fn report(w: &Workload, trace: bool, tally: &Tally, metrics: &Metrics) {
    eprintln!("{}: {}", w.name, w.why);
    eprintln!(
        "{:<40} {:>14} {:>14} {:>14} {:>5}  unit",
        w.name, "median", "q1", "q3", "n"
    );
    for (name, unit) in expected(trace) {
        if let Some(s) = metrics.get(name) {
            eprintln!(
                "{name:<40} {:>14.4} {:>14.4} {:>14.4} {:>5}  {unit}",
                s.median, s.q1, s.q3, s.n
            );
        }
    }
    eprintln!(
        "operations: {} attempted, {} failed",
        tally.attempted, tally.failed
    );
    for note in &tally.notes {
        eprintln!("  FAILED: {note}");
    }
}

/// Run one workload in one mode; prints the report and the result line.
/// Returns whether every operation and check passed.
fn run_one(
    w: &Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
) -> Result<bool, String> {
    let plan = Plan::new(w, seconds, smoke);
    let started = std::time::Instant::now();
    let (tally, metrics) = if trace {
        layers::run(w, &plan, seed)?
    } else {
        endtoend::run(w, &plan, seed)?
    };
    report(w, trace, &tally, &metrics);
    eprintln!("wall: {:.1} s", started.elapsed().as_secs_f64());
    println!("{}", result_json(trace, &tally, &metrics));
    Ok(tally.failed == 0)
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    noise: Option<usize>,
}

/// `run_seconds` of BENCHMARK.json, the default for `--seconds`.
const RUN_SECONDS: f64 = 12.0;

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: RUN_SECONDS,
        trace: false,
        smoke: false,
        noise: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--smoke" => args.smoke = true,
            "--noise" => {
                args.noise = Some(
                    value("a run count")?
                        .parse()
                        .map_err(|e| format!("--noise: {e}"))?,
                )
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn real_main() -> Result<bool, String> {
    let args = parse_args()?;
    if let Some(n) = args.noise {
        return noise::run(n, args.seed, args.seconds);
    }
    if args.smoke {
        let mut all_ok = true;
        for w in &WORKLOADS {
            for trace in [false, true] {
                all_ok &= run_one(w, args.seed, args.seconds, trace, true)?;
            }
        }
        return Ok(all_ok);
    }
    let name = args
        .workload
        .ok_or("--workload <name> is required (or --smoke, --noise N)")?;
    let w = WORKLOADS.iter().find(|w| w.name == name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}: choose one of {names:?}")
    })?;
    run_one(w, args.seed, args.seconds, args.trace, false)
}

fn main() {
    match real_main() {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("e2e: {e}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// BENCHMARK.json is written by hand; this keeps it and the tables
    /// above naming the same workloads and metrics.
    #[test]
    fn benchmark_json_names_the_same_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let names: Vec<&str> = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.0))
            .chain(PER_LAYER.iter().map(|m| m.0))
            .collect();
        for name in &names {
            assert!(
                text.contains(&format!("\"name\": \"{name}\"")),
                "{name} missing"
            );
        }
        for w in &WORKLOADS {
            assert!(
                w.why.len() <= 200,
                "{}: why is {} characters",
                w.name,
                w.why.len()
            );
            let entry = format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why);
            assert!(text.contains(&entry), "{entry} missing");
        }
        assert_eq!(
            text.matches("\"name\":").count(),
            names.len(),
            "extra names in the file"
        );
        for (name, unit, better, bound) in END_TO_END {
            let better = if better == Better::Lower {
                "lower"
            } else {
                "higher"
            };
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\", \"bound\": {}}}",
                name, unit, bound
            );
            assert!(text.contains(&entry), "{entry} missing");
        }
        assert!(text.contains(&format!("\"run_seconds\": {}", RUN_SECONDS as u64)));
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let mut metrics = Metrics::default();
        for (name, ..) in END_TO_END {
            metrics.put_value(name, 1.5);
        }
        let tally = Tally {
            attempted: 10,
            failed: 1,
            notes: vec![],
        };
        let line = result_json(false, &tally, &metrics);
        assert!(line.starts_with("{\"correct\":false,\"attempted\":10,\"failed\":1,\"metrics\":{"));
        assert!(line.contains("\"setup_s\":{\"value\":1.5,\"unit\":\"s\"}"));
        assert!(!line.contains('\n'));
    }
}
