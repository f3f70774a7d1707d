//! The paper's evaluation, figure by figure, with every qualitative claim
//! checked: §2.1 (Tables 1–2, Figs. 2–3), §2.3 (Table 4, spills, NULL
//! storage), §3.3 (Figs. 13–14) and §4 (Figs. 15–18), plus two of this
//! repo's own: the SPARQL 1.1 analytic queries on the three layouts, and
//! the executor's thread scaling.
//!
//! Usage: `cargo run -p bench --release --bin figures -- <figure>`, where
//! `<figure>` is `sql`, `micro`, `coloring`, `nulls`, `optimizer`,
//! `summary`, `lubm`, `prbench`, `layouts`, `scaling` or `all` (the
//! default). Each figure prints markdown tables that EXPERIMENTS.md takes
//! verbatim, then one line per claim: `PASS|FAIL|SKIP <claim> — measured
//! <value>, gate <margin>`. Any FAIL makes the process exit non-zero.
//! Nothing is written to disk.
//!
//! Two fixed profiles. The record profile runs the scales EXPERIMENTS.md
//! records; `FIGURES_SMOKE=1` runs a bounded one for CI. Claims whose value
//! depends on scale are checked in the record profile only, and each speed
//! claim's gate is at most half the lowest ratio measured in that profile.

use std::collections::HashMap;
use std::rc::Rc;
use std::time::Instant;

use bench::{fmt_time, print_table, Checks, Gate, Grid, System};
use datagen::BenchQuery;
use db2rdf::{naive, oracle, ColoringMode, LoadReport, RdfStore, Solutions, StoreConfig};
use rdf::{Term, Triple};
use relstore::SqlType::Text;
use relstore::{quote_str, table_schema, Database, Profile, Rel, Value};
use System::{Db2Rdf, Db2RdfNoOpt, TripleStore, Vertical};

/// A dataset of the evaluation: its generator at each profile's scale
/// (`true` is the smoke profile; seed 42) and its queries.
struct Dataset {
    name: &'static str,
    generate: fn(bool) -> Vec<Triple>,
    queries: fn() -> Vec<BenchQuery>,
}

const MICRO: Dataset = Dataset {
    name: "micro",
    generate: |smoke| datagen::micro::generate(if smoke { 3_000 } else { 30_000 }, 42),
    queries: datagen::micro::queries,
};
const LUBM: Dataset = Dataset {
    name: "LUBM",
    generate: |smoke| datagen::lubm::generate(if smoke { 1 } else { 4 }, 42),
    queries: datagen::lubm::queries,
};
const SP2B: Dataset = Dataset {
    name: "SP2Bench",
    generate: |smoke| datagen::sp2b::generate(if smoke { 800 } else { 4_000 }, 42),
    queries: datagen::sp2b::queries,
};
const DBPEDIA: Dataset = Dataset {
    name: "DBpedia",
    generate: |smoke| match smoke {
        true => datagen::dbpedia::generate(1_500, 400, 42),
        false => datagen::dbpedia::generate(5_000, 1_500, 42),
    },
    queries: datagen::dbpedia::queries,
};
const PRBENCH: Dataset = Dataset {
    name: "PRBench",
    generate: |smoke| datagen::prbench::generate(if smoke { 400 } else { 1_500 }, 42),
    queries: datagen::prbench::queries,
};

/// The four workloads of Table 4 and Fig. 15.
const WORKLOADS: [&Dataset; 4] = [&LUBM, &SP2B, &DBPEDIA, &PRBENCH];

/// One run of the binary: the checked claims (which know the profile), and
/// each dataset and grid measured once however many figures read it.
#[derive(Default)]
struct Run {
    checks: Checks,
    triples: HashMap<&'static str, Rc<Vec<Triple>>>,
    grids: HashMap<&'static str, Rc<Grid>>,
}

impl Run {
    fn triples(&mut self, d: &Dataset) -> Rc<Vec<Triple>> {
        let smoke = self.checks.smoke;
        self.triples.entry(d.name).or_insert_with(|| Rc::new((d.generate)(smoke))).clone()
    }

    /// Fig. 3 compares the three layouts; the workloads add the
    /// no-optimizer variant.
    fn grid(&mut self, d: &Dataset) -> Rc<Grid> {
        let triples = self.triples(d);
        let systems = if d.name == MICRO.name { &System::ALL[..3] } else { &System::ALL[..] };
        let measure = || Rc::new(Grid::time(&stores(systems, &triples), &(d.queries)()));
        self.grids.entry(d.name).or_insert_with(measure).clone()
    }
}

/// Each system's store over `triples`, under the figures' row budget.
fn stores(systems: &[System], triples: &[Triple]) -> Vec<(System, RdfStore)> {
    systems.iter().map(|&s| (s, s.build(triples, Some(bench::ROW_BUDGET)))).collect()
}

/// One figure: prints its tables and checks its claims.
type Figure = fn(&mut Run);

/// Every figure, in the order `all` runs them.
const FIGURES: [(&str, Figure); 10] = [
    ("sql", sql),
    ("micro", micro),
    ("coloring", coloring),
    ("nulls", nulls),
    ("optimizer", optimizer),
    ("summary", summary),
    ("lubm", lubm),
    ("prbench", prbench),
    ("layouts", layouts),
    ("scaling", scaling),
];

fn main() {
    let arg = std::env::args().nth(1).unwrap_or_else(|| "all".into());
    let chosen: Vec<_> = FIGURES.iter().filter(|(name, _)| arg == "all" || arg == *name).collect();
    if chosen.is_empty() {
        let names: Vec<_> = FIGURES.iter().map(|(n, _)| *n).collect();
        eprintln!("usage: figures <{}|all>  (FIGURES_SMOKE=1: bounded profile)", names.join("|"));
        std::process::exit(2);
    }
    let smoke = std::env::var("FIGURES_SMOKE").is_ok_and(|v| v == "1");
    let mut run = Run { checks: Checks { smoke, ..Checks::default() }, ..Run::default() };
    println!("<!-- figures {arg}, {} profile -->\n", if smoke { "smoke" } else { "record" });
    for (_, figure) in chosen {
        figure(&mut run);
        println!();
    }
    std::process::exit(run.checks.finish());
}

/// How a SQL text reads base tables, each under the alias `T`: the number
/// of reads, the first table's name without its digits, the number of
/// distinct tables, and how many reads join onto an earlier FROM item.
fn table_reads(sql: &str) -> (usize, &str, usize, usize) {
    let pieces: Vec<&str> = sql.split(" AS T").collect();
    let (mut tables, mut joins) = (Vec::new(), 0);
    for piece in &pieces[..pieces.len() - 1] {
        let mut words = piece.rsplit(' ');
        tables.push(words.next().unwrap_or_default());
        joins += usize::from(words.next() != Some("FROM"));
    }
    let kind = tables.first().map_or("", |t| t.trim_end_matches(|c: char| c.is_ascii_digit()));
    let reads = tables.len();
    tables.dedup();
    (reads, kind, tables.len(), joins)
}

/// Figs. 2, 12 and 13: the generated SQL. Its shape does not depend on
/// scale, so both profiles use the same 500-subject store.
fn sql(run: &mut Run) {
    println!("## Fig. 2 / Figs. 12–13 — generated SQL\n");
    let triples = datagen::micro::generate(500, 42);
    let q1 = &datagen::micro::queries()[0];
    println!("Micro-benchmark Q1:\n\n```sparql\n{}\n```\n", q1.sparql);
    let layouts = [
        (Db2Rdf, "Fig. 2b: entity-layout Q1 is one DPH access, no join", (1, "dph", 1, 0)),
        (TripleStore, "Fig. 2c: triple-store Q1 is three self-joins", (4, "triples", 1, 3)),
        (Vertical, "Fig. 2d: vertical Q1 joins four predicate tables", (4, "vp", 4, 3)),
    ];
    let sqls = layouts.map(|(sys, ..)| sys.build(&triples, None).translate(&q1.sparql));
    for ((sys, ..), sql) in layouts.iter().zip(&sqls) {
        println!("{}:\n\n```sql\n{}\n```\n", sys.name(), sql.as_ref().expect("translate Q1"));
    }
    for ((_, claim, expected), sql) in layouts.into_iter().zip(&sqls) {
        run.checks.exact(claim, table_reads(sql.as_ref().expect("translated")), expected);
    }
    println!();

    // The running example of Fig. 6a, over the data of Fig. 1a.
    let t = |s: &str, p: &str, o: Term| Triple::new(Term::iri(s), Term::iri(p), o);
    let sample = vec![
        t("Flint", "born", Term::lit("1850")),
        t("Flint", "founder", Term::iri("IBM")),
        t("Page", "founder", Term::iri("Google")),
        t("Page", "board", Term::iri("Google")),
        t("Page", "home", Term::lit("Palo Alto")),
        t("Android", "developer", Term::iri("Google")),
        t("Google", "industry", Term::lit("Software")),
        t("Google", "industry", Term::lit("Internet")),
        t("Google", "employees", Term::lit("54604")),
        t("Google", "revenue", Term::lit("37905")),
        t("IBM", "industry", Term::lit("Software")),
        t("IBM", "revenue", Term::lit("106916")),
        t("Watson", "developer", Term::iri("IBM")),
    ];
    let fig6 = "SELECT ?x ?y ?z ?n ?m WHERE {
        ?x <home> 'Palo Alto' .
        { ?x <founder> ?y } UNION { ?x <board> ?y }
        { ?y <industry> 'Software' .
          ?z <developer> ?y .
          ?y <revenue> ?n .
          OPTIONAL { ?y <employees> ?m } }
      }";
    let e = Db2Rdf.build(&sample, None).explain(fig6).expect("explain Fig. 6a");
    println!("Running example (Fig. 6a), optimal flow (Fig. 8): `{:?}`\n", e.flow);
    println!("Generated SQL (compare Fig. 13):\n\n```sql\n{}\n```\n", e.sql);
    let anchor = e.sql.lines().next().unwrap_or_default();
    let features = [
        ("RPH anchor", anchor.contains("FROM rph AS T WHERE T.entry =")),
        ("UNNEST flip", e.sql.contains("UNNEST (")),
        ("LEFT OUTER JOIN ds", e.sql.contains("LEFT OUTER JOIN ds")),
        ("COALESCE", e.sql.contains("COALESCE(")),
    ];
    let found: Vec<_> = features.iter().filter(|f| f.1).map(|f| f.0).collect();
    let all = features.iter().map(|f| f.0).collect();
    run.checks.exact("Fig. 13: the running example's SQL has the paper's CTE cascade", found, all);
}

/// Tables 1–2 and Fig. 3: star queries Q1–Q10 on the three layouts.
fn micro(run: &mut Run) {
    let grid = run.grid(&MICRO);
    println!("## Tables 1–2 + Fig. 3 — micro-benchmark ({} triples)\n", run.triples(&MICRO).len());
    println!("Table 1 predicate-set mix: .01 / .24 / .25 / .25 / .24 / .01 (by construction).\n");
    grid.print(None);
    println!(
        "Paper: 1M triples. Entity flat (~70–140 ms) across Q1–Q6; triple-store degrades \
         with conjunct count (940–1850 ms); predicate-oriented in between (237–614 ms) \
         but wins Q7–Q10 (2–6 ms), where every star predicate is selective.\n",
    );
    let stars = ["Q1", "Q2", "Q3", "Q4", "Q5", "Q6"];
    let c = &mut run.checks;
    c.faster(
        "Fig. 3: entity beats the triple-store on the stars Q1–Q6",
        &grid,
        (Db2Rdf, TripleStore),
        &stars,
        Gate { record: Some(2.0), smoke: Some(1.4) },
    );
    c.faster(
        "Fig. 3: entity beats vertical on the stars Q1–Q6",
        &grid,
        (Db2Rdf, Vertical),
        &stars,
        Gate { record: None, smoke: None },
    );
    c.faster(
        "Fig. 3: vertical beats entity on the selective stars Q7–Q10",
        &grid,
        (Vertical, Db2Rdf),
        &["Q7", "Q8", "Q9", "Q10"],
        Gate { record: Some(1.8), smoke: Some(1.3) },
    );
}

fn load_entity(triples: &[Triple], coloring: ColoringMode, max_cols: usize) -> LoadReport {
    let mut cfg = StoreConfig::default();
    cfg.entity.coloring = coloring;
    cfg.entity.max_cols = max_cols;
    RdfStore::new(cfg).load(triples).expect("bulk load").clone()
}

/// Table 4 and §2.3: coverage, spills (full and 10 %-sample coloring), NULLs.
fn coloring(run: &mut Run) {
    println!("## Table 4 + §2.3 — coloring, spills, NULLs\n");
    let (mut rows, mut packed, mut sparser, mut added) = (vec![], vec![], vec![], vec![]);
    for d in WORKLOADS {
        let triples = run.triples(d);
        // The paper's DBpedia run used 75 columns per table.
        let max_cols = if d.name == DBPEDIA.name { 75 } else { 100 };
        let full = load_entity(&triples, ColoringMode::Full, max_cols);
        let sample = load_entity(&triples, ColoringMode::Sample(0.10), max_cols);
        let (dph_null, rph_null) = (100.0 * full.dph_null_fraction, 100.0 * full.rph_null_fraction);
        let spills = |r: &LoadReport| (r.dph_spill_rows + r.rph_spill_rows) as i64;
        rows.push(vec![
            d.name.to_string(),
            full.triples.to_string(),
            full.predicates.to_string(),
            format!("{} ({:.1} %)", full.dph_cols, 100.0 * full.dph_coverage),
            format!("{} ({:.1} %)", full.rph_cols, 100.0 * full.rph_coverage),
            format!("{} + {}", full.dph_spill_rows, full.rph_spill_rows),
            format!("{} + {}", sample.dph_spill_rows, sample.rph_spill_rows),
            format!("{dph_null:.1} % / {rph_null:.1} %"),
        ]);
        sparser.push((format!("{} {dph_null:.1}/{rph_null:.1} %", d.name), rph_null > dph_null));
        added.push(spills(&sample) - spills(&full));
        // DBpedia's power-law tail is the paper's one dataset that spills.
        if d.name != DBPEDIA.name {
            let r = &rows[rows.len() - 1];
            let got = format!("{} preds → {} DPH, {} RPH cols, {} spills", r[2], r[3], r[4], r[5]);
            let pass = full.dph_cols.max(full.rph_cols) < full.predicates
                && full.dph_coverage.min(full.rph_coverage) == 1.0
                && spills(&full) == 0;
            packed.push((
                format!("Table 4: coloring packs {} into few columns", d.name),
                pass,
                got,
            ));
        }
    }
    print_table(
        "dataset | triples | preds | DPH cols (cover) | RPH cols (cover) | spills DPH + RPH \
         | 10 % sample spills | NULL cells DPH / RPH",
        &rows,
    );
    println!(
        "Paper: Table 4: LUBM 18 preds → 10 DPH / 3 RPH cols at 100 %; SP2Bench 78 → 54/53 \
         at 100 %; PRBench 51 → 35/9 at 100 %; DBpedia 53,976 preds → 75 cols at 94 % \
         / 51 at 99 %. 10 % sampling added no LUBM spills, 139+666 SP2B spills and \
         ~0.9 %/0.3 % extra DBpedia spills. NULL cells: LUBM 64.67 %/94.77 %, \
         DBpedia 93 %/97.6 % (DPH/RPH).\n",
    );
    let c = &mut run.checks;
    for (claim, pass, got) in &packed {
        c.check(claim, Some(*pass), got, "fewer cols than preds, 100 % covered, 0 spills");
    }
    let measured: Vec<_> = sparser.iter().map(|s| s.0.as_str()).collect();
    let pass = sparser.iter().all(|s| s.1);
    let claim = "§2.3: RPH is sparser than DPH on all four datasets";
    c.check(claim, Some(pass), &measured.join(", "), "RPH NULL fraction > DPH on each");
    let claim = "§2.3: 10 % sample coloring adds no LUBM or PRBench spill";
    c.at_record(claim, (added[0], added[3]), (0, 0));
}

/// §2.3 NULL storage: a uniform 5-predicate dataset whose DPH relation is
/// widened with 5 / 45 / 95 all-NULL predicate/value column pairs.
fn nulls(run: &mut Run) {
    let subjects = if run.checks.smoke { 10_000 } else { 60_000 };
    let mut triples = Vec::with_capacity(subjects * 5);
    for i in 0..subjects {
        let s = Term::iri(format!("e:s{i}"));
        for p in 0..5 {
            let o = Term::lit(format!("v{}_{}", p, i % 997));
            triples.push(Triple::new(s.clone(), Term::iri(format!("e:p{p}")), o));
        }
    }
    println!("## §2.3 — NULL storage & query impact ({} triples, 5 predicates)\n", triples.len());
    let fast = "SELECT ?v WHERE { <e:s17> <e:p0> ?v }";
    let long = "SELECT ?s ?a ?b WHERE { ?s <e:p0> ?a . ?s <e:p1> ?b }";
    let (mut rows, mut base, mut growth) = (Vec::new(), 0.0, 0.0);
    for extra in [0, 5, 45, 95] {
        let mut store = RdfStore::new(StoreConfig::default());
        store.load(&triples).expect("bulk load");
        if extra > 0 {
            store.widen_dph_for_experiment(extra);
        }
        let bytes = store.database().table("dph").expect("dph").storage_bytes() as f64;
        if extra == 0 {
            base = bytes;
        }
        growth = 100.0 * (bytes - base) / base;
        rows.push(vec![
            extra.to_string(),
            format!("{bytes}"),
            format!("{growth:+.1} %"),
            fmt_time(&bench::time_query(&store, fast, 5)),
            fmt_time(&bench::time_query(&store, long, 5)),
        ]);
    }
    print_table("extra NULL col pairs | DPH bytes | growth | fast query | long query", &rows);
    println!(
        "Paper: 10.1 MB → 10.4 / 10.65 / 11.4 MB (+3 % / +5 % / +13 %) for 20× the columns; \
         query slowdowns from 10 % to 2× on the fastest queries.\n",
    );
    let claim = "§2.3: value compression keeps 95 extra NULL column pairs cheap";
    run.checks.check(claim, Some(growth < 20.0), &format!("{growth:+.1} % DPH bytes"), "< +20 %");
}

/// Fig. 14 and §3.3: the hybrid optimizer against a sub-optimal flow.
fn optimizer(run: &mut Run) {
    let triples = run.triples(&MICRO);
    println!("## Fig. 14 + §3.3 — optimizer effect (micro, {} triples)\n", triples.len());
    // `O1` on SV1 has frequency .75 and `O2` on SV2 .01: the cost-based
    // flow anchors at the rare `O2`, textual order at the frequent `O1`.
    let q = datagen::micro::fig14_query();
    let pair = stores(&[Db2Rdf, Db2RdfNoOpt], &triples);
    let flows: Vec<_> =
        pair.iter().map(|(_, s)| s.explain(&q.sparql).expect("explain").flow).collect();
    let f14 = Grid::time(&pair, std::slice::from_ref(&q));
    drop(pair);
    println!(
        "`{}`: optimized flow `{:?}`, textual-order flow `{:?}`\n",
        q.sparql, flows[0], flows[1]
    );
    f14.print(None);
    println!("The PQ1 anecdote (PRBench):\n");
    let prbench = run.grid(&PRBENCH);
    prbench.print(Some(&["PQ1", "PQ10"]));
    println!(
        "Paper: Fig. 14: 13 ms vs 65 ms (5×). PQ1: 4 ms optimized vs 22.66 s with a \
         sub-optimal flow.\n"
    );
    let c = &mut run.checks;
    let want = vec![vec![(2, "aco"), (1, "acs")], vec![(1, "aco"), (2, "acs")]];
    let claim = "Fig. 14: optimizer anchors at the rare O2, textual order at the frequent O1";
    c.exact(claim, flows, want);
    c.faster(
        "Fig. 14: the optimized flow beats the sub-optimal one",
        &f14,
        (Db2Rdf, Db2RdfNoOpt),
        &[&q.name],
        Gate { record: Some(9.0), smoke: Some(9.0) },
    );
    c.faster(
        "§3.3: PQ1's optimized flow beats textual order",
        &prbench,
        (Db2Rdf, Db2RdfNoOpt),
        &["PQ1"],
        Gate { record: Some(3.0), smoke: Some(3.0) },
    );
}

/// Fig. 15: four workloads × four systems.
fn summary(run: &mut Run) {
    println!("## Fig. 15 — summary over four workloads\n");
    println!("Row budget {} rows per query: the paper's 10-minute timeout.\n", bench::ROW_BUDGET);
    let (mut rows, mut db2rdf, mut total) = (Vec::new(), bench::Summary::default(), 0);
    for d in WORKLOADS {
        let grid = run.grid(d);
        total += grid.queries.len();
        grid.row(Db2Rdf).iter().for_each(|o| db2rdf.add(o));
        for &sys in &grid.systems {
            let s = grid.summary(sys);
            rows.push(vec![
                format!("{} ({} triples)", d.name, run.triples(d).len()),
                sys.name().to_string(),
                s.complete.to_string(),
                s.timeout.to_string(),
                s.error.to_string(),
                s.unsupported.to_string(),
                format!("{:.3}", s.mean_secs()),
            ]);
        }
    }
    print_table("dataset | system | complete | timeout | error | unsup | mean (s)", &rows);
    println!(
        "Paper: DB2RDF completes 77/78 queries (all but SQ4, which times out everywhere) and \
         posts the best or near-best mean time on every dataset; the baselines lose \
         queries to timeouts and run slower on average.\n",
    );
    let noopt_sp2b = run.grid(&SP2B).summary(Db2RdfNoOpt).timeout;
    let vertical_dbpedia = run.grid(&DBPEDIA).summary(Vertical).unsupported;
    let c = &mut run.checks;
    let counts = (db2rdf.complete, db2rdf.timeout, db2rdf.error, db2rdf.unsupported);
    c.exact(&format!("Fig. 15: DB2RDF completes all {total} queries"), counts, (total, 0, 0, 0));
    c.at_record("Fig. 15: without the optimizer, SP2Bench queries time out", noopt_sp2b, 2);
    let claim = "Fig. 15: vertical cannot answer DBpedia's variable-predicate queries";
    c.at_record(claim, vertical_dbpedia, 7);
}

/// Fig. 16: LUBM per query.
fn lubm(run: &mut Run) {
    let grid = run.grid(&LUBM);
    println!("## Fig. 16 — LUBM per query ({} triples)\n", run.triples(&LUBM).len());
    grid.print(None);
    println!(
        "Paper: DB2RDF wins the long/complex queries (LQ6, LQ8, LQ9, LQ13, LQ14 — e.g. LQ14 \
         4.6 s vs Virtuoso 53 s, Jena 94 s) and is within a few ms on the sub-second \
         lookups (LQ1, LQ3).\n",
    );
    run.checks.faster(
        "Fig. 16: DB2RDF beats the triple-store on the complex LQ2, LQ8, LQ9",
        &grid,
        (Db2Rdf, TripleStore),
        &["LQ2", "LQ8", "LQ9"],
        Gate { record: None, smoke: None },
    );
}

/// Figs. 17 and 18: PRBench's long-running and medium queries.
fn prbench(run: &mut Run) {
    let grid = run.grid(&PRBENCH);
    println!("## Figs. 17–18 — PRBench per query ({} triples)\n", run.triples(&PRBENCH).len());
    let long = ["PQ10", "PQ26", "PQ27", "PQ28"];
    let medium = ["PQ14", "PQ15", "PQ16", "PQ17", "PQ24", "PQ29"];
    println!("Fig. 17 (long-running):\n");
    grid.print(Some(&long));
    println!("Fig. 18 (medium):\n");
    grid.print(Some(&medium));
    println!(
        "Paper: PQ10 — DB2RDF 3 ms vs Jena 27 s / Virtuoso 39 s; PQ26–28 — DB2RDF ~4.8 s vs \
         Jena ≥32 s / Virtuoso ≥11 s; on the medium queries DB2RDF consistently leads \
         (Fig. 18).\n",
    );
    let c = &mut run.checks;
    c.faster(
        "Fig. 17: DB2RDF beats the triple-store on the UNION-of-100 PQ26–28",
        &grid,
        (Db2Rdf, TripleStore),
        &long[1..],
        Gate { record: Some(1.1), smoke: None },
    );
    c.faster(
        "Fig. 17: DB2RDF beats textual-order evaluation on PQ26–28",
        &grid,
        (Db2Rdf, Db2RdfNoOpt),
        &long[1..],
        Gate { record: Some(2.5), smoke: Some(2.0) },
    );
    c.faster(
        "Fig. 18: DB2RDF beats the triple-store on the medium queries",
        &grid,
        (Db2Rdf, TripleStore),
        &medium,
        Gate { record: None, smoke: None },
    );
}

/// The analytic queries AQ1–AQ8 on the three layouts. Every answer is
/// checked against the naive reference before anything is timed: row by
/// row when the query has an ORDER BY, as a multiset otherwise.
fn layouts(run: &mut Run) {
    let triples = run.triples(&SP2B);
    println!(
        "## Analytic workload — SPARQL 1.1 aggregates, BIND, VALUES, subqueries \
         ({} triples)\n",
        triples.len()
    );
    let stores = stores(&System::ALL[..3], &triples);
    let queries = datagen::sp2b::analytic_queries();
    for q in &queries {
        let parsed = sparql::parse_sparql(&q.sparql).expect("parse an AQ query");
        let ordered = !parsed.order_by.is_empty();
        let encode = |r: &Vec<Option<Term>>| {
            r.iter().map(|t| t.as_ref().map_or(String::new(), Term::encode)).collect()
        };
        let rows = |s: &Solutions| match ordered {
            true => s.rows.iter().map(encode).collect(),
            false => oracle::canon(s),
        };
        let want = rows(&naive::evaluate(&triples, &parsed));
        let agree: Vec<_> = stores
            .iter()
            .filter(|(sys, store)| match store.query(&q.sparql) {
                Ok(got) => rows(&got) == want,
                Err(e) => {
                    eprintln!("{} on {}: {e}", q.name, sys.name());
                    false
                }
            })
            .map(|(sys, _)| sys.name())
            .collect();
        let order = if ordered { "row by row" } else { "as a multiset" };
        let claim = format!("{}: every layout matches the naive reference {order}", q.name);
        run.checks.exact(&claim, agree, System::ALL[..3].iter().map(System::name).collect());
    }
    println!();
    Grid::time(&stores, &queries).print(None);
}

/// Universities in the `spo` relation of `scaling` (record, smoke). The
/// record profile's 384 (1.97M triples) is the first doubling from 24 at
/// which every query takes at least 1 s on one thread of a 2-core host.
const SCALING_UNIVERSITIES: (usize, usize) = (384, 2);

/// The executor's thread scaling over one unindexed `spo(s, p, o)` string
/// relation: every FROM item is a full parallel scan and every join a hash
/// join. Each query is timed at every width; its rows, in order, and each
/// plan node's row counts must be the same at each.
fn scaling(run: &mut Run) {
    let smoke = run.checks.smoke;
    let (universities, widths, runs): (_, &[usize], _) = match smoke {
        true => (SCALING_UNIVERSITIES.1, &[1, 2, 4], 1),
        false => (SCALING_UNIVERSITIES.0, &[1, 2, 4, 8], bench::RUNS),
    };
    let mut db = Database::new();
    db.create_table(table_schema("spo", &[("s", Text), ("p", Text), ("o", Text)])).unwrap();
    let triples = datagen::lubm::generate(universities, 42);
    let terms = |t: &Triple| [&t.subject, &t.predicate, &t.object].map(|x| Value::str(x.encode()));
    db.insert_rows("spo", triples.iter().map(|t| terms(t).to_vec())).unwrap();
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    println!(
        "## Executor thread scaling ({} triples of {universities} LUBM universities, \
         {cores} cores)\n",
        triples.len()
    );
    drop(triples);
    let (mut rows, mut speedups, mut same_rows) = (Vec::new(), Vec::new(), Vec::new());
    // The widths at which every query's per-node counts match its first width's.
    let mut same_counts = widths.to_vec();
    for (name, sql) in scaling_queries() {
        let mut base = None;
        let mut same = Vec::new();
        for &threads in widths {
            db.set_threads(Some(threads));
            let (secs, profile, rel) = profiled_median(&db, &sql, runs);
            let counts: Vec<_> =
                profile.nodes.iter().map(|n| (n.kind, n.rows_in, n.gathered, n.rows_out)).collect();
            let (base_secs, first, first_counts) =
                base.get_or_insert_with(|| (secs, rel.clone(), counts.clone()));
            if first.rows == rel.rows {
                same.push(threads);
            }
            if *first_counts != counts {
                same_counts.retain(|&w| w != threads);
            }
            let speedup = *base_secs / secs;
            if threads == 4 {
                speedups.push(speedup);
            }
            let ph = profile.phases();
            let nodes = profile.secs(|_| true);
            let other = nodes - ph.scan_secs - ph.build_secs - ph.probe_secs - ph.agg_secs;
            let phases = [ph.scan_secs, ph.build_secs, ph.probe_secs, ph.agg_secs, other];
            let mut row = vec![name.into(), threads.to_string(), rel.rows.len().to_string()];
            row.extend([format!("{secs:.4}"), format!("{speedup:.2}×")]);
            row.extend(phases.map(|p| format!("{p:.4}")));
            row.push(format!("{:.1} %", 100.0 * nodes / secs));
            rows.push(row);
        }
        same_rows.push((name, same));
    }
    print_table(
        "query | threads | rows | secs | speedup | scan | build | probe | agg | other | nodes/secs",
        &rows,
    );
    for (name, same) in same_rows {
        let claim = format!("scaling: {name}'s rows and their order are identical at every width");
        run.checks.exact(&claim, same, widths.to_vec());
    }
    let claim = "scaling: per-node row counts are identical at every width";
    run.checks.exact(claim, same_counts, widths.to_vec());
    let min = speedups.iter().copied().fold(f64::INFINITY, f64::min);
    let geomean = (speedups.iter().map(|s| s.ln()).sum::<f64>() / speedups.len() as f64).exp();
    let (pass, gate) = match smoke {
        true => (min >= 1.5, "minimum ≥ 1.5×"),
        false => (geomean >= 2.5, "geomean ≥ 2.5×"),
    };
    run.checks.check(
        "scaling: 4 threads speed every shape up",
        (cores >= 4).then_some(pass),
        &format!("geomean {geomean:.2}×, minimum {min:.2}× on {cores} cores"),
        &format!("{gate}, checked on ≥ 4 cores"),
    );
}

/// The three shapes of `scaling`, in the SQL the store's dialect takes.
fn scaling_queries() -> [(&'static str, String); 3] {
    let c = |local: &str| quote_str(&Term::iri(format!("{}{local}", datagen::lubm::NS)).encode());
    let typ = quote_str(&Term::iri(datagen::lubm::RDF_TYPE).encode());
    let grad = c("GraduateStudent");
    [
        // LUBM Q9's triangle: student → advisor → a course the advisor
        // teaches and the student takes. Three hash joins, the last on a
        // composite (s, o) key.
        (
            "triangle",
            format!(
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
        ),
        // A star whose name filter, a string range, the scan evaluates on
        // every row: the names that start with "Grad 1".
        (
            "star_range",
            format!(
                "SELECT t1.s, t2.o AS name, t3.o AS dept \
                 FROM spo AS t1, spo AS t2, spo AS t3 \
                 WHERE t1.p = {typ} AND t1.o = {grad} \
                 AND t2.s = t1.s AND t2.p = {} AND t2.o >= '\"Grad 1' AND t2.o < '\"Grad 2' \
                 AND t3.s = t1.s AND t3.p = {}",
                c("name"),
                c("memberOf")
            ),
        ),
        // A chain ending in an aggregate.
        (
            "chain_agg",
            format!(
                "SELECT t2.o AS dept, COUNT(*) AS n \
                 FROM spo AS t1, spo AS t2 \
                 WHERE t1.p = {} AND t2.s = t1.s AND t2.p = {} \
                 GROUP BY t2.o ORDER BY n DESC, dept",
                c("advisor"),
                c("memberOf")
            ),
        ),
    ]
}

/// Median wall-clock seconds of `runs` runs of `sql`, prepared once, after
/// a warm-up; the median run's [`Profile`]; and the warm-up's rows. Every
/// run is profiled, so the timed run is the one the store serves.
fn profiled_median(db: &Database, sql: &str, runs: usize) -> (f64, Profile, Rel) {
    let prepared = db.prepare(sql).expect("query");
    let (warm, _) = prepared.run_profiled(db).expect("query");
    let mut samples: Vec<(f64, Profile)> = (0..runs)
        .map(|_| {
            let t0 = Instant::now();
            let (_, profile) = prepared.run_profiled(db).expect("query");
            (t0.elapsed().as_secs_f64(), profile)
        })
        .collect();
    samples.sort_by(|a, b| f64::total_cmp(&a.0, &b.0));
    let (secs, profile) = samples.swap_remove(samples.len() / 2);
    (secs, profile, warm)
}
