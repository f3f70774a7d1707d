//! Shared harness for the experiment binaries: store construction per
//! layout/"system", warm-cache timing, and paper-style result tables.
//!
//! Every table and figure of the paper has a binary in `src/bin/`; see
//! DESIGN.md §5 for the experiment index and EXPERIMENTS.md for recorded
//! paper-vs-measured results.

use std::time::{Duration, Instant};

use datagen::BenchQuery;
use db2rdf::{Layout, OptimizerMode, RdfStore, StoreConfig, StoreError};
use rdf::Triple;

/// The "systems" compared in the Fig. 15/16/17/18 analogues. The paper
/// compares against Jena, Virtuoso, Sesame and RDF-3X; those cannot be
/// rebuilt here, so the comparison isolates the two levers the paper argues
/// drive the differences: the relational layout and the SPARQL-level
/// optimizer (see DESIGN.md §2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum System {
    /// Entity-oriented layout + hybrid optimizer (the paper's system).
    Db2Rdf,
    /// Entity-oriented layout, naive textual-order flow.
    Db2RdfNoOpt,
    /// Triple-store layout + hybrid optimizer.
    TripleStore,
    /// Predicate-oriented (vertical) layout + hybrid optimizer.
    Vertical,
}

impl System {
    pub const ALL: [System; 4] =
        [System::Db2Rdf, System::TripleStore, System::Vertical, System::Db2RdfNoOpt];

    pub fn name(&self) -> &'static str {
        match self {
            System::Db2Rdf => "DB2RDF",
            System::Db2RdfNoOpt => "DB2RDF-noopt",
            System::TripleStore => "TripleStore",
            System::Vertical => "Vertical",
        }
    }

    pub fn config(&self, row_budget: Option<u64>) -> StoreConfig {
        let mut cfg = match self {
            System::Db2Rdf | System::Db2RdfNoOpt => StoreConfig::with_layout(Layout::Entity),
            System::TripleStore => StoreConfig::with_layout(Layout::TripleStore),
            System::Vertical => StoreConfig::with_layout(Layout::Vertical),
        };
        if *self == System::Db2RdfNoOpt {
            cfg.optimizer = OptimizerMode::Naive;
        }
        cfg.row_budget = row_budget;
        cfg
    }

    pub fn build(&self, triples: &[Triple], row_budget: Option<u64>) -> RdfStore {
        let mut store = RdfStore::new(self.config(row_budget));
        store.load(triples).expect("bulk load");
        store
    }
}

/// Outcome of one timed query, mirroring the paper's Fig. 15 classes.
#[derive(Debug, Clone)]
pub enum Outcome {
    Complete { time: Duration, results: usize },
    /// Evaluation budget exceeded (the paper's 10-minute timeout analogue).
    Timeout { time: Duration },
    /// Query rejected by the translator (paper: "unsupported").
    Unsupported(String),
    /// Execution error.
    Error(String),
}

impl Outcome {
    pub fn time_secs(&self) -> Option<f64> {
        match self {
            Outcome::Complete { time, .. } | Outcome::Timeout { time } => {
                Some(time.as_secs_f64())
            }
            _ => None,
        }
    }
}

/// Warm-cache timing: one warm-up run, then the median of `runs`
/// measurements (the paper discards the first run and averages seven; the
/// median of three is a sturdier small-sample statistic).
pub fn time_query(store: &RdfStore, sparql: &str, runs: usize) -> Outcome {
    match store.query(sparql) {
        Err(e) if e.is_timeout() => {
            return Outcome::Timeout { time: Duration::from_secs(0) };
        }
        Err(StoreError::Unsupported(m)) => return Outcome::Unsupported(m),
        Err(e) => return Outcome::Error(e.to_string()),
        Ok(_) => {}
    }
    let mut times = Vec::with_capacity(runs);
    let mut results = 0;
    for _ in 0..runs.max(1) {
        let t0 = Instant::now();
        match store.query(sparql) {
            Ok(sols) => {
                results = sols.len().max(usize::from(sols.boolean.is_some()));
                times.push(t0.elapsed());
            }
            Err(e) if e.is_timeout() => return Outcome::Timeout { time: t0.elapsed() },
            Err(e) => return Outcome::Error(e.to_string()),
        }
    }
    times.sort();
    Outcome::Complete { time: times[times.len() / 2], results }
}

/// Per-system summary over a workload (one row of the Fig. 15 table).
#[derive(Debug, Default, Clone)]
pub struct Summary {
    pub complete: usize,
    pub timeout: usize,
    pub error: usize,
    pub unsupported: usize,
    pub total_time: f64,
}

impl Summary {
    pub fn add(&mut self, o: &Outcome) {
        match o {
            Outcome::Complete { time, .. } => {
                self.complete += 1;
                self.total_time += time.as_secs_f64();
            }
            Outcome::Timeout { .. } => {
                self.timeout += 1;
                // Paper: timeouts count as the full timeout budget.
                self.total_time += TIMEOUT_CHARGE_SECS;
            }
            Outcome::Error(_) => self.error += 1,
            Outcome::Unsupported(_) => self.unsupported += 1,
        }
    }

    pub fn mean_secs(&self) -> f64 {
        let n = self.complete + self.timeout;
        if n == 0 {
            0.0
        } else {
            self.total_time / n as f64
        }
    }
}

/// Seconds charged for a timed-out query in mean-time summaries (the paper
/// charges its full 10-minute limit; we scale to our budgets).
pub const TIMEOUT_CHARGE_SECS: f64 = 60.0;

/// Run a whole workload on one system.
pub fn run_workload(
    store: &RdfStore,
    queries: &[BenchQuery],
    runs: usize,
) -> Vec<(String, Outcome)> {
    queries
        .iter()
        .map(|q| (q.name.clone(), time_query(store, &q.sparql, runs)))
        .collect()
}

/// Format a duration like the paper's figures (ms with sub-ms precision).
pub fn fmt_time(o: &Outcome) -> String {
    match o {
        Outcome::Complete { time, .. } => format!("{:.2}ms", time.as_secs_f64() * 1e3),
        Outcome::Timeout { .. } => "TIMEOUT".to_string(),
        Outcome::Unsupported(_) => "unsup".to_string(),
        Outcome::Error(_) => "ERROR".to_string(),
    }
}

/// Environment-variable override helper for experiment scales.
pub fn scale_from_env(var: &str, default: usize) -> usize {
    std::env::var(var).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// Deliver a bench report: a full run refreshes the committed `file`; a
/// smoke profile prints the JSON to stdout and writes nothing, so a bounded
/// CI run can never be committed as a measurement.
pub fn emit_report(file: &str, json: &str, smoke: bool) {
    if smoke {
        print!("{json}");
    } else {
        std::fs::write(file, json).unwrap_or_else(|e| panic!("write {file}: {e}"));
        eprintln!("wrote {file}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn systems_build_and_answer() {
        let triples = datagen::micro::generate(200, 1);
        for sys in System::ALL {
            let store = sys.build(&triples, None);
            let q = &datagen::micro::queries()[0];
            match time_query(&store, &q.sparql, 1) {
                Outcome::Complete { results, .. } => {
                    assert!(results <= 200, "{}", sys.name());
                }
                other => panic!("{}: {other:?}", sys.name()),
            }
        }
    }

    #[test]
    fn budget_produces_timeout_outcome() {
        let triples = datagen::micro::generate(500, 1);
        let store = System::TripleStore.build(&triples, Some(1_000));
        // Q6 is an 8-way self-join: the tiny budget trips immediately.
        let q = &datagen::micro::queries()[5];
        assert!(matches!(time_query(&store, &q.sparql, 1), Outcome::Timeout { .. }));
    }

    #[test]
    fn summary_accumulates() {
        let mut s = Summary::default();
        s.add(&Outcome::Complete { time: Duration::from_millis(10), results: 5 });
        s.add(&Outcome::Timeout { time: Duration::from_secs(1) });
        s.add(&Outcome::Error("x".into()));
        assert_eq!(s.complete, 1);
        assert_eq!(s.timeout, 1);
        assert_eq!(s.error, 1);
        assert!(s.mean_secs() > 0.0);
    }
}
