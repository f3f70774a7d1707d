//! The untraced run (`--trace 0`): everything a user of the store pays for,
//! measured over HTTP and at the store's public API, nothing else running.

use crate::gen::UpdateStream;
use crate::run::{self, Plan, Reader, Tally, Workload, Writer};
use crate::stats;
use crate::Metrics;

pub fn run(w: &Workload, plan: &Plan, seed: u64) -> Result<(Tally, Metrics), String> {
    let data = run::DataDir::create(w.name)?;
    let mut tally = Tally::default();
    let mut metrics = Metrics::default();
    let cycles = plan.cycles as f64;
    let (mut setup_s, mut load_rate, mut reopen_s, mut disk) = (vec![], vec![], vec![], vec![]);
    let (mut read_rounds, mut write_rounds) = (vec![], vec![]);

    for cycle in 0..plan.cycles {
        // A complete set-up on a fresh directory: the first load in a
        // process is an outlier and a single 0.3–4 s load varies by a fifth,
        // so set-up time, load rate and reopen time are medians too.
        let dir = data.0.join(format!("store{cycle}"));
        let setup = run::set_up(plan.universities, w.reads, seed, &dir, &mut tally)?;
        if cycle == 0 {
            eprintln!(
                "{} triples ({} universities), {} query texts, {} core(s), {} cycles, \
                 fsync per group commit",
                setup.triples,
                plan.universities,
                setup.mix.distinct_texts(),
                run::cores(),
                plan.cycles
            );
        }
        setup_s.push(setup.total_s);
        load_rate.push(setup.triples as f64 / setup.load_s);
        reopen_s.extend(setup.reopen_s);
        disk.push((setup.disk_bytes, setup.triples));

        let refs = run::references(&setup, &mut tally)?;
        let requests = run::render_requests(&setup.mix);
        let addr = setup.server.local_addr();

        // Read phase: one connection, closed loop, after a quarter round
        // that is not timed (a store just opened serves its first requests
        // slower).
        let mut reader = Reader::connect(addr, &setup.mix, &requests, &refs)?;
        reader.round(plan.reads_per_round / 4, &mut tally)?;
        let cache_before = setup.shared.plan_cache_stats();
        read_rounds.extend(run::timed_rounds(plan.read_seconds / cycles, || {
            reader.round(plan.reads_per_round, &mut tally)
        })?);
        run::check_plan_cache(
            w.reads,
            cache_before,
            setup.shared.plan_cache_stats(),
            &mut tally,
        );
        drop(reader);
        if cycle == 0 {
            // Memory to load and serve one store. Later cycles and the write
            // phase are left out: that peak depends on when a superseded
            // snapshot's copy of the tables is freed (145 or 178 MB on
            // point_warm, run to run) and is a per-layer matter.
            metrics.put_value("peak_rss_mb", run::peak_rss_mb());
        }

        // Write phase: one connection, closed loop, nothing reading; again
        // one round to warm up.
        let mut stream = UpdateStream::new();
        let mut writer = Writer::connect(addr)?;
        writer.round(plan.updates_per_round, &mut stream, &mut tally)?;
        write_rounds.extend(run::timed_rounds(plan.write_seconds / cycles, || {
            writer.round(plan.updates_per_round, &mut stream, &mut tally)
        })?);
        run::check_update_balance(&setup.shared, &stream, &mut tally);
        drop(writer);

        run::reopen_and_verify(setup, &dir, &stream, &mut tally)?;
        let _ = std::fs::remove_dir_all(&dir);
    }

    tally.assert(disk.iter().all(|&d| d == disk[0]), || {
        format!("the same input loaded to different (bytes, triples): {disk:?}")
    });
    eprintln!("read rounds, requests/s: {}", stats::rates(&read_rounds));
    eprintln!("write rounds, updates/s: {}", stats::rates(&write_rounds));
    metrics.put("setup_s", stats::summarize(&setup_s));
    metrics.put("query_rps", stats::rate_over_rounds(&read_rounds));
    metrics.put("query_p50_ms", stats::p50_ms_over_rounds(&read_rounds));
    metrics.put("update_ops_s", stats::rate_over_rounds(&write_rounds));
    metrics.put("update_p50_ms", stats::p50_ms_over_rounds(&write_rounds));
    metrics.put("load_triples_s", stats::summarize(&load_rate));
    metrics.put("reopen_s", stats::summarize(&reopen_s));
    metrics.put_value("disk_bytes_per_triple", disk[0].0 as f64 / disk[0].1 as f64);
    Ok((tally, metrics))
}
