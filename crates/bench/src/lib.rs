//! Shared harness for the bench binaries: store construction per
//! layout/"system", warm-cache timing, the systems × queries grid behind the
//! paper's figures, and the claim checker that turns each figure's
//! qualitative claim into a PASS/FAIL line.
//!
//! The `figures` binary reproduces every table and figure of the paper's
//! evaluation; see DESIGN.md §5 for the experiment index and EXPERIMENTS.md
//! for recorded paper-vs-measured results.

use std::fmt::Debug;
use std::str::FromStr;
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

/// One timed run: wall time and result count, or the outcome that ended it.
fn run_once(store: &RdfStore, sparql: &str) -> Result<(Duration, usize), Outcome> {
    let t0 = Instant::now();
    match store.query(sparql) {
        Ok(sols) => Ok((t0.elapsed(), sols.len().max(usize::from(sols.boolean.is_some())))),
        Err(e) if e.is_timeout() => Err(Outcome::Timeout { time: t0.elapsed() }),
        Err(StoreError::Unsupported(m)) => Err(Outcome::Unsupported(m)),
        Err(e) => Err(Outcome::Error(e.to_string())),
    }
}

/// Warm-cache timing: one warm-up run, then the median of `runs`
/// measurements (the paper discards the first run and averages seven; the
/// median of three is a sturdier small-sample statistic).
pub fn time_query(store: &RdfStore, sparql: &str, runs: usize) -> Outcome {
    time_interleaved(&[store], sparql, runs).remove(0)
}

/// [`time_query`] on several stores at once, interleaved run by run: each
/// round times every store once, so a burst of load on a shared host lands
/// on all of them alike and the ratios between them hold.
pub fn time_interleaved(stores: &[&RdfStore], sparql: &str, runs: usize) -> Vec<Outcome> {
    let mut state: Vec<_> =
        stores.iter().map(|s| run_once(s, sparql).map(|_| (Vec::new(), 0))).collect();
    for _ in 0..runs.max(1) {
        for (store, st) in stores.iter().zip(state.iter_mut()) {
            let Ok((times, results)) = st else { continue };
            match run_once(store, sparql) {
                Ok((time, n)) => {
                    times.push(time);
                    *results = n;
                }
                Err(o) => *st = Err(o),
            }
        }
    }
    state
        .into_iter()
        .map(|st| match st {
            Ok((mut times, results)) => {
                times.sort();
                Outcome::Complete { time: times[times.len() / 2], results }
            }
            Err(o) => o,
        })
        .collect()
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

/// Format one outcome the way the figure tables show it.
pub fn fmt_time(o: &Outcome) -> String {
    match o {
        Outcome::Complete { time, .. } => format!("{:.3}ms", time.as_secs_f64() * 1e3),
        Outcome::Timeout { .. } => "TIMEOUT".to_string(),
        Outcome::Unsupported(_) => "unsup".to_string(),
        Outcome::Error(_) => "ERROR".to_string(),
    }
}

/// Environment-variable override helper for bench scales and seeds: the
/// value of `var` if it parses as a `T`, `default` otherwise.
pub fn scale_from_env<T: FromStr>(var: &str, default: T) -> T {
    std::env::var(var).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// Rows a figure query may process before it counts as a timeout: the
/// stand-in for the paper's 10-minute limit.
pub const ROW_BUDGET: u64 = 20_000_000;

/// Timed runs per query after the warm-up (see [`time_query`]).
pub const RUNS: usize = 3;

/// Every query's outcome on every system: the one runner behind Figs. 3,
/// 15, 16 and 17–18. `cells[s][q]` is `systems[s]` on `queries[q]`.
#[derive(Debug)]
pub struct Grid {
    pub systems: Vec<System>,
    pub queries: Vec<String>,
    pub cells: Vec<Vec<Outcome>>,
}

impl Grid {
    /// Time every query on each of `stores`, the stores interleaved run by
    /// run ([`time_interleaved`]).
    pub fn time(stores: &[(System, RdfStore)], queries: &[BenchQuery]) -> Grid {
        let refs: Vec<&RdfStore> = stores.iter().map(|(_, s)| s).collect();
        let mut cells = vec![Vec::new(); stores.len()];
        for q in queries {
            for (row, o) in cells.iter_mut().zip(time_interleaved(&refs, &q.sparql, RUNS)) {
                row.push(o);
            }
        }
        Grid {
            systems: stores.iter().map(|(s, _)| *s).collect(),
            queries: queries.iter().map(|q| q.name.clone()).collect(),
            cells,
        }
    }

    /// Every outcome of one system, in query order.
    pub fn row(&self, sys: System) -> &[Outcome] {
        let s = self.systems.iter().position(|&x| x == sys);
        &self.cells[s.unwrap_or_else(|| panic!("{} is not in the grid", sys.name()))]
    }

    pub fn outcome(&self, sys: System, query: &str) -> &Outcome {
        let q = self.queries.iter().position(|x| x == query);
        &self.row(sys)[q.unwrap_or_else(|| panic!("{query} is not in the grid"))]
    }

    pub fn summary(&self, sys: System) -> Summary {
        let mut summary = Summary::default();
        self.row(sys).iter().for_each(|o| summary.add(o));
        summary
    }

    /// Print the named queries (all of them for `None`) as a markdown
    /// table: result count, then one time column per system.
    pub fn print(&self, names: Option<&[&str]>) {
        let systems: Vec<_> = self.systems.iter().map(System::name).collect();
        let rows: Vec<Vec<String>> = self
            .queries
            .iter()
            .filter(|q| names.is_none_or(|n| n.contains(&q.as_str())))
            .map(|q| {
                let results = match self.outcome(self.systems[0], q) {
                    Outcome::Complete { results, .. } => results.to_string(),
                    _ => "-".into(),
                };
                let mut row = vec![q.clone(), results];
                row.extend(self.systems.iter().map(|&s| fmt_time(self.outcome(s, q))));
                row
            })
            .collect();
        print_table(&format!("query | results | {}", systems.join(" | ")), &rows);
    }
}

/// The emit path of every figure: one markdown table, under a header of
/// `|`-separated column names, that EXPERIMENTS.md can take verbatim.
pub fn print_table(header: &str, rows: &[Vec<String>]) {
    println!("| {header} |\n|{}", "---|".repeat(header.split('|').count()));
    for row in rows {
        println!("| {} |", row.join(" | "));
    }
    println!();
}

/// What checking one claim concluded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Pass,
    Fail,
    /// Not checked in this profile; the measured value is still printed.
    Skip,
}

/// A speed claim's minimum ratio in each profile, at most half the lowest
/// ratio measured there. `None` where that half falls below 1.1×: too
/// little room to tell the claim from noise in that profile.
#[derive(Debug, Clone, Copy)]
pub struct Gate {
    pub record: Option<f64>,
    pub smoke: Option<f64>,
}

/// The claims a run has checked. Each is printed as it is checked:
/// `PASS|FAIL|SKIP <claim> — measured <value>, gate <margin>`.
#[derive(Debug, Default)]
pub struct Checks {
    /// The bounded profile: scale-dependent claims are skipped.
    pub smoke: bool,
    pub verdicts: Vec<Verdict>,
}

impl Checks {
    /// Record and print one verdict; `pass: None` skips the claim here.
    pub fn check(&mut self, claim: &str, pass: Option<bool>, got: &str, gate: &str) -> Verdict {
        let (verdict, tag) = match pass {
            Some(true) => (Verdict::Pass, "PASS"),
            Some(false) => (Verdict::Fail, "FAIL"),
            None => (Verdict::Skip, "SKIP"),
        };
        println!("{tag} {claim} — measured {got}, gate {gate}");
        self.verdicts.push(verdict);
        verdict
    }

    /// A structural claim: the measured `got` must equal `want` in both profiles.
    pub fn exact<T: PartialEq + Debug>(&mut self, claim: &str, got: T, want: T) -> Verdict {
        self.check(claim, Some(got == want), &format!("{got:?}"), &format!("= {want:?}"))
    }

    /// A structural claim whose value depends on scale: checked in the
    /// record profile, printed but skipped in the smoke profile.
    pub fn at_record<T: PartialEq + Debug>(&mut self, claim: &str, got: T, want: T) -> Verdict {
        let gate = format!("= {want:?} in the record profile");
        self.check(claim, (!self.smoke).then_some(got == want), &format!("{got:?}"), &gate)
    }

    /// A speed claim: on every query in `queries`, `fast` must beat `slow`
    /// by at least the profile's gate (`slow`'s time over `fast`'s). A
    /// query either system did not complete fails the claim.
    pub fn faster(
        &mut self,
        claim: &str,
        grid: &Grid,
        (fast, slow): (System, System),
        queries: &[&str],
        gate: Gate,
    ) -> Verdict {
        let secs = |sys, q| match grid.outcome(sys, q) {
            Outcome::Complete { time, .. } => Some(time.as_secs_f64()),
            _ => None,
        };
        let ratios: Option<Vec<f64>> =
            queries.iter().map(|&q| Some(secs(slow, q)? / secs(fast, q)?)).collect();
        let gate = if self.smoke { gate.smoke } else { gate.record };
        let Some(ratios) = ratios else {
            let gate = gate.map_or("none".into(), |g| format!("≥ {g}×"));
            return self.check(claim, Some(false), "a query did not complete", &gate);
        };
        let min = ratios.iter().copied().fold(f64::INFINITY, f64::min);
        let max = ratios.iter().copied().fold(0.0, f64::max);
        let measured = if ratios.len() == 1 {
            format!("{min:.1}×")
        } else {
            format!("{min:.1}–{max:.1}×")
        };
        match gate {
            Some(g) => self.check(claim, Some(min >= g), &measured, &format!("≥ {g}×")),
            None => self.check(claim, None, &measured, "none in this profile (half is under 1.1×)"),
        }
    }

    /// Print the tally; the exit code it returns is non-zero once a claim failed.
    pub fn finish(&self) -> i32 {
        let count = |verdict| self.verdicts.iter().filter(|&&v| v == verdict).count();
        let (n, failed, skipped) =
            (self.verdicts.len(), count(Verdict::Fail), count(Verdict::Skip));
        println!("figures: {n} claims, {failed} failed, {skipped} skipped");
        i32::from(failed > 0)
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

    fn ms(n: u64) -> Outcome {
        Outcome::Complete { time: Duration::from_millis(n), results: 1 }
    }

    /// A fabricated DB2RDF × triple-store grid over two queries.
    fn grid(db2rdf: [Outcome; 2], triple_store: [Outcome; 2]) -> Grid {
        Grid {
            systems: vec![System::Db2Rdf, System::TripleStore],
            queries: vec!["Q1".into(), "Q2".into()],
            cells: vec![db2rdf.to_vec(), triple_store.to_vec()],
        }
    }

    /// The two kinds of claim every figure makes: a speed ratio with a
    /// gate and an exact count of completed queries.
    fn check_grid(checks: &mut Checks, g: &Grid) -> (Verdict, Verdict) {
        let pair = (System::Db2Rdf, System::TripleStore);
        let gate = Gate { record: Some(3.0), smoke: None };
        let ratio = checks.faster("entity beats the triple-store", g, pair, &["Q1", "Q2"], gate);
        let s = g.summary(System::Db2Rdf);
        let count = checks.exact(
            "DB2RDF completes every query",
            (s.complete, s.timeout, s.error, s.unsupported),
            (2, 0, 0, 0),
        );
        (ratio, count)
    }

    #[test]
    fn claim_checker_fails_a_broken_ratio_or_count_and_passes_a_good_grid() {
        // Q2 is only 1.5× faster: under the 3× gate.
        let mut checks = Checks::default();
        let slow = grid([ms(10), ms(10)], [ms(100), ms(15)]);
        assert_eq!(check_grid(&mut checks, &slow), (Verdict::Fail, Verdict::Pass));
        assert_ne!(checks.finish(), 0);

        // Q2 times out on DB2RDF: the completion count is off by one.
        let mut checks = Checks::default();
        let timeout = Outcome::Timeout { time: Duration::from_secs(1) };
        let lost = grid([ms(10), timeout], [ms(100), ms(60)]);
        assert_eq!(check_grid(&mut checks, &lost).1, Verdict::Fail);
        assert_ne!(checks.finish(), 0);

        // 10× and 6×: inside every margin.
        let mut checks = Checks::default();
        let good = grid([ms(10), ms(10)], [ms(100), ms(60)]);
        assert_eq!(check_grid(&mut checks, &good), (Verdict::Pass, Verdict::Pass));
        assert_eq!(checks.finish(), 0);
    }

    #[test]
    fn smoke_profile_skips_ungated_and_scale_dependent_claims() {
        let mut checks = Checks { smoke: true, ..Checks::default() };
        let slow = grid([ms(10), ms(10)], [ms(100), ms(15)]);
        assert_eq!(check_grid(&mut checks, &slow).0, Verdict::Skip);
        assert_eq!(checks.at_record("two timeouts", 0, 2), Verdict::Skip);
        assert_eq!(checks.finish(), 0);
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
