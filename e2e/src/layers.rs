//! The traced run (`--trace 1`): where a request's time goes, layer by
//! layer (layer = module of the program under test).
//!
//! The program has no spans of its own yet, so every layer is timed from
//! outside, by a span around a public call, and nested work is separated by
//! calling successively larger entry points on the same input:
//!
//! ```text
//! sparql::parse_sparql(text)                      sparql
//! RdfStore::translate(text), cache disabled       sparql + core.translate
//! RdfStore::translate(text), text just planned    core.plancache (a hit)
//! sql::parser::parse_statement(sql)               relstore.sql
//! Database::query(sql)                            relstore.sql + relstore.exec
//! Database::query_traced(sql)                     scan / build / probe / agg inside exec
//! SharedStore::query(text)                        plan + relstore + core.results decode
//! Solutions::to_json()                            core.results
//! GET /sparql over loopback                       all of the above + server
//! ```
//!
//! Differences of medians give the layers that have no entry point of their
//! own. `trace.coverage` is the share of `SharedStore::query`'s wall time
//! that the directly timed layers (plan, SQL parse, the four executor
//! phases) explain; the rest — CTE materialization, sort, dedupe,
//! projection, dictionary decode — is dark until the program traces itself.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use db2rdf::SharedStore;
use relstore::sql::parser::parse_statement;

use crate::gen::{ReadMix, UpdateKind, UpdateStream, CLASSES};
use crate::http::{self, Client};
use crate::run::{self, Plan, Reader, Reads, Tally, Workload, Writer};
use crate::stats::{self, median};
use crate::trace::Tracer;
use crate::Metrics;

const US: f64 = 1e6;

fn median_us(samples: &[f64]) -> f64 {
    median(samples) * US
}

/// Time `count` in-process updates through `SharedStore::update`, by kind,
/// under spans.
fn probe_updates(
    shared: &SharedStore,
    count: usize,
    stream: &mut UpdateStream,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> Vec<(UpdateKind, f64)> {
    (0..count)
        .map(|i| {
            let op = stream.next_op();
            let name = match op.kind {
                UpdateKind::InsertData => "core.update.insert_data",
                UpdateKind::DeleteInsert => "core.update.delete_insert",
                UpdateKind::DeleteWhere => "core.update.delete_where",
            };
            let (outcome, secs) = tracer.span(name, i as u32, None, || shared.update(&op.text));
            match outcome {
                Ok(o) if (o.inserted, o.deleted) == (op.inserted, op.deleted) => tally.ok(),
                Ok(o) => tally.fail(|| format!("in-process {:?} reported {o:?}", op.kind)),
                Err(e) => tally.fail(|| format!("in-process {:?} failed: {e}", op.kind)),
            }
            (op.kind, secs)
        })
        .collect()
}

fn kind_median_us(samples: &[(UpdateKind, f64)], kind: UpdateKind) -> f64 {
    let of_kind: Vec<f64> = samples
        .iter()
        .filter(|(k, _)| *k == kind)
        .map(|(_, s)| *s)
        .collect();
    median_us(&of_kind)
}

/// Median in-process update latency on a fresh store of the reference
/// scale: the denominator of `core.shared.update_scale_ratio`.
fn reference_update_p50_s(
    universities: usize,
    probes: usize,
    seed: u64,
    data: &run::DataDir,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> Result<f64, String> {
    let dir = data.0.join("reference");
    let reference = run::set_up(universities, Reads::JoinScan, seed, &dir, tally)?;
    let mut stream = UpdateStream::new();
    let samples = probe_updates(&reference.shared, probes, &mut stream, tracer, tally);
    run::check_update_balance(&reference.shared, &stream, tally);
    reference.server.shutdown();
    drop(reference.shared);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(median(&samples.iter().map(|(_, s)| *s).collect::<Vec<_>>()))
}

/// Parts of the set-up, from the timings `set_up` and `BulkLoadStats` keep.
fn set_up_metrics(setup: &run::SetUp, m: &mut Metrics) {
    let bulk = &setup.bulk;
    m.put_value("datagen.generate_s", setup.generate_s);
    m.put_value("rdf.ntriples.parse_s", bulk.parse_secs);
    m.put_value("core.bulk.sort_s", bulk.sort_secs);
    m.put_value("core.bulk.insert_s", bulk.insert_secs);
    m.put_value(
        "core.bulk.other_s",
        setup.bulk_load_s - bulk.parse_secs - bulk.sort_secs - bulk.insert_secs,
    );
    m.put_value("core.bulk.segments", bulk.segments as f64);
    m.put_value("relstore.checkpoint_s", setup.checkpoint_s);
    m.put_value("relstore.snapshot_bytes", setup.snapshot_bytes as f64);
    m.put_value("core.dict.entries", bulk.dict.entries as f64);
    m.put_value("core.dict.raw_bytes", bulk.dict.raw_bytes as f64);
    m.put_value(
        "core.dict.compressed_bytes",
        bulk.dict.compressed_bytes as f64,
    );
}

/// `GET /healthz`: the HTTP path with no engine behind it.
fn healthz_rtt_us(addr: SocketAddr, pings: usize, tally: &mut Tally) -> Result<f64, String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let request = http::healthz_request();
    let mut rtt = Vec::with_capacity(pings);
    for _ in 0..pings {
        let started = Instant::now();
        let reply = client
            .roundtrip(&request)
            .map_err(|e| format!("GET /healthz: {e}"))?;
        rtt.push(started.elapsed().as_secs_f64());
        let (status, ok) = (reply.status, reply.body == b"ok\n");
        tally.assert(status == 200 && ok, || {
            format!("GET /healthz answered {status}")
        });
    }
    Ok(median_us(&rtt))
}

/// What the in-process replay timed, per replayed request (seconds).
#[derive(Default)]
struct Replay {
    /// Text index of each request.
    text: Vec<usize>,
    /// `SharedStore::query` as served: a plan-cache miss on `plan_cold`.
    served: Vec<f64>,
    /// The same query again: always a plan-cache hit.
    hit_query: Vec<f64>,
    json: Vec<f64>,
    /// `translate` of the text just planned: the plan-cache hit alone.
    hit: Vec<f64>,
    sql_parse: Vec<f64>,
    db_query: Vec<f64>,
    scan: Vec<f64>,
    build: Vec<f64>,
    probe: Vec<f64>,
    agg: Vec<f64>,
    rows_out: u64,
    json_bytes: u64,
}

/// One pass over every distinct text (at least four per class), continuing
/// the issue order at `next`, each request through every entry point in
/// turn under spans.
fn replay(
    shared: &SharedStore,
    mix: &ReadMix,
    refs: &[run::Reference],
    next: &mut usize,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> Result<Replay, String> {
    let count = mix.distinct_texts().max(4 * CLASSES);
    let snapshot = shared.snapshot();
    let db = snapshot.database();
    let mut r = Replay::default();
    for req in 0..count as u32 {
        let t = mix.text_index(*next);
        *next += 1;
        r.text.push(t);
        let text = mix.text(t);
        let root = tracer.enter("request", req, None);
        let (sols, secs) = tracer.span("core.query", req, Some(root), || shared.query(text));
        r.served.push(secs);
        let sols = sols.map_err(|e| format!("replay query failed: {e}"))?;
        let (body, secs) = tracer.span("core.results.json", req, Some(root), || sols.to_json());
        r.json.push(secs);
        r.json_bytes += body.len() as u64;
        if body.len() == refs[t].body_len && http::body_hash(body.as_bytes()) == refs[t].body_hash {
            tally.ok();
        } else {
            tally.fail(|| format!("replay of query text {t} differs from its reference"));
        }
        // The text was planned a moment ago, so these two always hit.
        let (again, secs) = tracer.span("core.query.hit", req, Some(root), || shared.query(text));
        r.hit_query.push(secs);
        drop(again);
        let (sql, secs) = tracer.span("core.plancache.hit", req, Some(root), || {
            snapshot.translate(text)
        });
        r.hit.push(secs);
        let sql = sql.map_err(|e| format!("translate failed: {e}"))?;
        let (stmt, secs) = tracer.span("relstore.sql.parse", req, Some(root), || {
            parse_statement(&sql)
        });
        r.sql_parse.push(secs);
        drop(stmt);
        let (rel, secs) = tracer.span("relstore.db_query", req, Some(root), || db.query(&sql));
        r.db_query.push(secs);
        r.rows_out += rel
            .map_err(|e| format!("Database::query failed: {e}"))?
            .rows
            .len() as u64;
        let (traced, _) = tracer.span("relstore.db_query_traced", req, Some(root), || {
            db.query_traced(&sql)
        });
        let (_, phases) = traced.map_err(|e| format!("Database::query_traced failed: {e}"))?;
        r.scan.push(phases.scan_secs);
        r.build.push(phases.build_secs);
        r.probe.push(phases.probe_secs);
        r.agg.push(phases.agg_secs);
        tracer.exit(root);
    }
    Ok(r)
}

/// Planning with the cache switched off: per distinct text, the time of
/// `parse_sparql` and of a full `translate`, and the SQL's length. Switching
/// the cache off and back to its default size empties it and resets its
/// counters, so this runs after everything that needs the warmed cache.
fn cold_planning(
    shared: &SharedStore,
    mix: &ReadMix,
    tracer: &mut Tracer,
) -> Result<(Vec<f64>, Vec<f64>, u64), String> {
    shared.write().set_plan_cache(0);
    let cold = shared.snapshot();
    let (mut parse, mut translate, mut sql_bytes) = (vec![], vec![], 0);
    for (t, text) in mix.texts().enumerate() {
        let req = t as u32;
        let (parsed, secs) = tracer.span("sparql.parse_query", req, None, || {
            sparql::parse_sparql(text)
        });
        parsed.map_err(|e| format!("parse failed: {e}"))?;
        parse.push(secs);
        let (sql, secs) = tracer.span("core.translate", req, None, || cold.translate(text));
        sql_bytes += sql.map_err(|e| format!("translate failed: {e}"))?.len() as u64;
        translate.push(secs);
    }
    drop(cold);
    shared
        .write()
        .set_plan_cache(db2rdf::StoreConfig::default().plan_cache_entries);
    Ok((parse, translate, sql_bytes))
}

/// `Dict::resolve` and `Dict::lookup` over up to 2000 evenly spaced entries.
fn dict_metrics(shared: &SharedStore, m: &mut Metrics, tally: &mut Tally) {
    let snapshot = shared.snapshot();
    let dict = snapshot.dictionary().read();
    let n = dict.len().min(2000);
    let step = (dict.len() / n.max(1)).max(1) as i64;
    let started = Instant::now();
    let terms: Vec<String> = (0..n as i64)
        .filter_map(|k| dict.resolve(1 + k * step))
        .collect();
    m.put_value(
        "core.dict.resolve_us",
        started.elapsed().as_secs_f64() * US / n as f64,
    );
    let started = Instant::now();
    let found = terms
        .iter()
        .filter(|t| std::hint::black_box(dict.lookup(t)).is_some())
        .count();
    m.put_value(
        "core.dict.lookup_us",
        started.elapsed().as_secs_f64() * US / n as f64,
    );
    tally.assert(found == n && terms.len() == n, || {
        format!("dictionary round trip lost terms: {found} of {n} found")
    });
}

/// A writer paced at `plan.paced_updates_per_s` (open loop, so its rate does
/// not depend on how fast updates are) beside the closed-loop reader, for
/// `plan.write_seconds`. Returns the reads' latencies, their wall time and
/// the updates' latencies, each update timed from when it was due so that a
/// stall charges the updates queued behind it too.
fn mixed_phase(
    plan: &Plan,
    reader: &mut Reader,
    writer: &mut Writer,
    stream: &mut UpdateStream,
    tally: &mut Tally,
) -> Result<(Vec<f64>, f64, Vec<f64>), String> {
    let mut writer_tally = Tally::default();
    let outcome = std::thread::scope(|scope| {
        let writer_thread = scope.spawn(|| -> Result<Vec<f64>, String> {
            let started = Instant::now();
            let mut latencies = vec![];
            let mut due = 0.0;
            while due < plan.write_seconds || latencies.len() < 5 {
                let now = started.elapsed().as_secs_f64();
                if now < due {
                    std::thread::sleep(Duration::from_secs_f64(due - now));
                }
                let late = (started.elapsed().as_secs_f64() - due).max(0.0);
                latencies.push(late + writer.one(stream, &mut writer_tally)?);
                due += 1.0 / plan.paced_updates_per_s;
            }
            Ok(latencies)
        });
        let started = Instant::now();
        let mut reads = vec![];
        let mut failure = None;
        while failure.is_none() && !writer_thread.is_finished() {
            match reader.one(tally) {
                Ok(latency) => reads.push(latency),
                Err(e) => failure = Some(e),
            }
        }
        let wall = started.elapsed().as_secs_f64();
        let writes = writer_thread
            .join()
            .map_err(|_| "writer thread panicked".to_string())??;
        match failure {
            Some(e) => Err(e),
            None => Ok((reads, wall, writes)),
        }
    });
    tally.attempted += writer_tally.attempted;
    tally.failed += writer_tally.failed;
    tally.notes.extend(writer_tally.notes);
    outcome
}

pub fn run(w: &Workload, plan: &Plan, seed: u64) -> Result<(Tally, Metrics), String> {
    let data = run::DataDir::create(&format!("{}-trace", w.name))?;
    let mut tally = Tally::default();
    let mut m = Metrics::default();
    let mut tracer = Tracer::new();

    let dir = data.0.join("store");
    let setup = run::set_up(plan.universities, w.reads, seed, &dir, &mut tally)?;
    eprintln!(
        "traced: {} triples ({} universities), {} query texts, {} core(s)",
        setup.triples,
        plan.universities,
        setup.mix.distinct_texts(),
        run::cores()
    );
    set_up_metrics(&setup, &mut m);
    let mix = &setup.mix;
    let refs = run::references(&setup, &mut tally)?;
    let requests = run::render_requests(mix);
    let addr = setup.server.local_addr();
    let shared = setup.shared.clone();

    // -- server: the HTTP path, with and without an engine behind it --------
    m.put_value(
        "server.healthz_rtt_us",
        healthz_rtt_us(addr, plan.pings, &mut tally)?,
    );
    let cache_before = shared.plan_cache_stats();
    let mut reader = Reader::connect(addr, mix, &requests, &refs)?;
    let rounds = run::timed_rounds(plan.read_seconds / 2.0, || {
        reader.round(plan.reads_per_round, &mut tally)
    })?;
    let cache_after = shared.plan_cache_stats();
    run::check_plan_cache(w.reads, cache_before, cache_after, &mut tally);
    let http: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.latencies_s.iter().copied())
        .collect();
    // The reader started at the head of the issue order, so latency `i` is
    // text `text_index(i)`. A short phase may not reach every text of a
    // long cycle.
    let mut by_text = vec![Vec::new(); mix.distinct_texts()];
    for (i, &latency) in http.iter().enumerate() {
        by_text[mix.text_index(i)].push(latency);
    }
    let http_by_text: Vec<Option<f64>> = by_text
        .iter()
        .map(|l| (!l.is_empty()).then(|| median(l)))
        .collect();
    for (class, name) in mix.class_names.iter().enumerate() {
        let per = mix.per_class();
        let seen: Vec<f64> = http_by_text[class * per..(class + 1) * per]
            .iter()
            .flatten()
            .copied()
            .collect();
        eprintln!(
            "  class {name}: HTTP p50 {:.1} us over {} text(s)",
            median_us(&seen),
            seen.len()
        );
    }
    m.put_value("trace.http_query_p50_us", median_us(&http));
    m.put_value(
        "server.query_p95_ms",
        stats::tail_percentile(&http, 0.95).0 * 1e3,
    );
    m.put_value(
        "server.query_p99_ms",
        stats::tail_percentile(&http, 0.99).0 * 1e3,
    );
    m.put_value(
        "server.resp_bytes_per_req",
        reader.reply_bytes as f64 / http.len() as f64,
    );
    m.put_value("server.non_200", reader.non_200 as f64);
    let (before, after) = (
        cache_before.unwrap_or_default(),
        cache_after.unwrap_or_default(),
    );
    let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
    m.put_value(
        "core.plancache.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    m.put_value(
        "core.plancache.evictions",
        (after.evictions - before.evictions) as f64,
    );
    let mut next = reader.next;
    drop(reader);

    // -- the engine's layers, in-process ------------------------------------
    let r = replay(&shared, mix, &refs, &mut next, &mut tracer, &mut tally)?;
    let (parse, cold_translate, sql_bytes) = cold_planning(&shared, mix, &mut tracer)?;
    let n = r.text.len();
    let per_request = |f: &dyn Fn(usize) -> f64| -> Vec<f64> { (0..n).map(f).collect() };
    let plan_only: Vec<f64> = parse
        .iter()
        .zip(&cold_translate)
        .map(|(p, t)| (t - p).max(0.0))
        .collect();
    m.put_value("sparql.parse_query_us", median_us(&parse));
    m.put_value("core.translate.plan_us", median_us(&plan_only));
    m.put_value(
        "core.translate.sql_bytes",
        sql_bytes as f64 / parse.len() as f64,
    );
    m.put_value("core.plancache.hit_us", median_us(&r.hit));
    m.put_value("relstore.sql.parse_us", median_us(&r.sql_parse));
    let exec = per_request(&|i| r.db_query[i] - r.sql_parse[i]);
    let phases = per_request(&|i| r.scan[i] + r.build[i] + r.probe[i] + r.agg[i]);
    m.put_value("relstore.exec.query_us", median_us(&exec));
    m.put_value("relstore.exec.scan_us", median_us(&r.scan));
    m.put_value("relstore.exec.build_us", median_us(&r.build));
    m.put_value("relstore.exec.probe_us", median_us(&r.probe));
    m.put_value("relstore.exec.agg_us", median_us(&r.agg));
    m.put_value(
        "relstore.exec.unattributed_us",
        median_us(&per_request(&|i| exec[i] - phases[i])),
    );
    m.put_value("relstore.exec.rows_out", r.rows_out as f64);
    m.put_value(
        "core.results.decode_us",
        median_us(&per_request(&|i| r.hit_query[i] - r.db_query[i] - r.hit[i])),
    );
    m.put_value("core.results.json_us", median_us(&r.json));
    m.put_value("core.results.json_bytes", r.json_bytes as f64 / n as f64);
    m.put_value(
        "trace.miss_extra_us",
        median_us(&per_request(&|i| r.served[i] - r.hit_query[i])),
    );
    let inproc = per_request(&|i| r.served[i] + r.json[i]);
    m.put_value("trace.inproc_query_us", median_us(&inproc));
    // Per text, so that a mix of classes 1 ms and 50 ms apart compares like
    // with like: median over texts of (HTTP median − in-process median).
    let overhead: Vec<f64> = (0..mix.distinct_texts())
        .filter_map(|t| {
            let own: Vec<f64> = (0..n)
                .filter(|&i| r.text[i] == t)
                .map(|i| inproc[i])
                .collect();
            Some(http_by_text[t]? - median(&own))
        })
        .collect();
    m.put_value("server.http_overhead_us", median_us(&overhead));
    // Coverage: what the directly timed layers explain of the query's wall.
    let planned = |i: usize| match w.reads {
        Reads::PlanCold => cold_translate[r.text[i]],
        Reads::PointWarm | Reads::JoinScan => r.hit[i],
    };
    let explained: f64 = (0..n)
        .map(|i| planned(i) + r.sql_parse[i] + phases[i])
        .sum();
    m.put_value("trace.coverage", explained / r.served.iter().sum::<f64>());
    dict_metrics(&shared, &mut m, &mut tally);

    // -- core.update, core.shared, relstore.wal ------------------------------
    let reference_p50_s = reference_update_p50_s(
        plan.reference_universities,
        plan.update_probes,
        seed,
        &data,
        &mut tracer,
        &mut tally,
    )?;
    let mut stream = UpdateStream::new();
    let stats_before = shared.update_stats();
    let wal_bytes = || run::file_sizes(&dir, "wal.").iter().sum::<u64>();
    let wal_before = wal_bytes();
    let samples = probe_updates(
        &shared,
        plan.update_probes,
        &mut stream,
        &mut tracer,
        &mut tally,
    );
    let wal_after = wal_bytes();
    let stats_after = shared.update_stats();
    m.put_value(
        "core.update.insert_data_us",
        kind_median_us(&samples, UpdateKind::InsertData),
    );
    m.put_value(
        "core.update.delete_insert_us",
        kind_median_us(&samples, UpdateKind::DeleteInsert),
    );
    m.put_value(
        "core.update.delete_where_us",
        kind_median_us(&samples, UpdateKind::DeleteWhere),
    );
    m.put_value(
        "relstore.wal.bytes_per_update",
        (wal_after - wal_before) as f64 / plan.update_probes as f64,
    );
    m.put_value(
        "core.shared.updates_per_group",
        (stats_after.applied - stats_before.applied) as f64
            / (stats_after.groups - stats_before.groups).max(1) as f64,
    );
    let own_p50_s = median(&samples.iter().map(|(_, s)| *s).collect::<Vec<_>>());
    m.put_value(
        "core.shared.update_scale_ratio",
        own_p50_s / reference_p50_s,
    );
    let mut parse_update = vec![];
    let mut parse_stream = UpdateStream::new();
    for i in 0..plan.update_probes {
        let op = parse_stream.next_op();
        let (parsed, secs) = tracer.span("sparql.parse_update", i as u32, None, || {
            sparql::parse_update(&op.text)
        });
        parsed.map_err(|e| format!("parse_update failed: {e}"))?;
        parse_update.push(secs);
    }
    m.put_value("sparql.parse_update_us", median_us(&parse_update));

    let mut reader = Reader::connect(addr, mix, &requests, &refs)?;
    reader.next = next;
    let mut writer = Writer::connect(addr)?;
    let (reads, read_wall_s, writes) =
        mixed_phase(plan, &mut reader, &mut writer, &mut stream, &mut tally)?;
    drop((reader, writer));
    m.put_value(
        "core.shared.read_rps_under_writes",
        reads.len() as f64 / read_wall_s,
    );
    m.put_value(
        "core.shared.read_max_stall_ms",
        reads.iter().copied().fold(0.0, f64::max) * 1e3,
    );
    m.put_value(
        "core.shared.update_p50_ms_under_reads",
        median(&writes) * 1e3,
    );
    run::check_update_balance(&shared, &stream, &mut tally);
    m.put_value(
        "core.plancache.invalidations",
        shared.plan_cache_stats().unwrap_or_default().invalidations as f64,
    );

    // -- relstore.wal/snapshot: recovery after the writes --------------------
    drop(shared);
    let reopen_s = run::reopen_and_verify(setup, &dir, &stream, &mut tally)?;
    m.put_value("relstore.reopen_after_writes_s", reopen_s);

    let trace_path = data
        .0
        .parent()
        .unwrap_or(&data.0)
        .join(format!("trace-{}.tsv", w.name));
    tracer
        .write_tsv(&trace_path)
        .map_err(|e| format!("write {}: {e}", trace_path.display()))?;
    eprintln!(
        "{} spans written to {}",
        tracer.spans.len(),
        trace_path.display()
    );
    Ok((tally, m))
}
