//! Set-up, the timed HTTP phases and the checks shared by the end-to-end
//! run (`--trace 0`) and the traced run (`--trace 1`).

use std::path::{Path, PathBuf};
use std::time::Instant;

use db2rdf::{BulkLoadOptions, BulkLoadStats, PlanCacheStats, RdfStore, SharedStore, StoreConfig};
use server::{Server, ServerConfig};

use crate::gen::{self, ReadMix, UpdateStream};
use crate::http::{self, Client};
use crate::stats::Round;

/// Which read mix a workload issues.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reads {
    /// The five selective shapes over few texts: every plan is cached.
    PointWarm,
    /// The same shapes over more texts than the plan cache holds.
    PlanCold,
    /// The five heavy classes.
    JoinScan,
}

/// One workload: its scale, read mix, and how a run's `--seconds` and
/// rounds are laid out. Request counts per round are fixed so two commits
/// do identical work per round; they are sized for rounds of roughly half
/// a second on the 2-core reference box.
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// LUBM universities (~5k triples each).
    pub universities: usize,
    pub reads: Reads,
    pub reads_per_round: usize,
    pub updates_per_round: usize,
    /// Share of `--seconds` spent in the read phase; the rest is writes.
    pub read_share: f64,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "point_warm",
        why: "Selective queries over 250 texts, every plan cached: HTTP, the per-execution SQL \
              re-parse and result serialization dominate a 0.15 ms request (ROADMAP 2a, 2b).",
        universities: 20,
        reads: Reads::PointWarm,
        reads_per_round: 3000,
        updates_per_round: 20,
        read_share: 0.6,
    },
    Workload {
        name: "plan_cold",
        why: "point_warm with 1280 texts cycled past the 512-entry plan cache, so every \
              request re-plans: the gap to point_warm isolates SPARQL parse and translate.",
        universities: 20,
        reads: Reads::PlanCold,
        reads_per_round: 2000,
        updates_per_round: 20,
        read_share: 0.6,
    },
    Workload {
        name: "join_scan",
        why: "Five heavy joins, scans and an aggregate with replies of 100s of KB: the \
              executor and result decoding are over 90 % of a request, HTTP under 1 % (ROADMAP \
              4, 2b).",
        universities: 20,
        reads: Reads::JoinScan,
        reads_per_round: 45,
        updates_per_round: 20,
        read_share: 0.6,
    },
    Workload {
        name: "ingest_write",
        why: "A 4x larger store that is mostly written to: load rate, space, reopen time and \
              the O(store) commit are the headline; a read gain that costs writes or space \
              shows (ROADMAP 3, 5).",
        universities: 80,
        reads: Reads::PointWarm,
        reads_per_round: 2500,
        updates_per_round: 5,
        read_share: 0.25,
    },
];

/// A timed phase runs at least this many rounds in each cycle even when its
/// share of `--seconds` is spent sooner.
pub const MIN_ROUNDS: usize = 2;

/// `RdfStore::open` calls timed per set-up (the last one's store is kept):
/// a reopen is 0.08–0.4 s, too short for one sample per set-up to be steady.
pub const REOPENS: usize = 3;

/// Sizes of one run, derived from the workload and the command line.
pub struct Plan {
    pub universities: usize,
    pub reads_per_round: usize,
    pub updates_per_round: usize,
    pub read_seconds: f64,
    pub write_seconds: f64,
    /// An end-to-end run is this many cycles of (complete set-up, read
    /// phase, write phase, recovery check), each on a fresh store, with
    /// `--seconds` divided among them. Every metric is a median over its
    /// samples from all cycles, so each metric's samples span the whole
    /// run: a slow spell of a few seconds on a shared host then moves a
    /// minority of every metric's samples instead of all of one metric's.
    pub cycles: usize,
    /// Rate of the traced run's paced writer, which writes beside a reader.
    pub paced_updates_per_s: f64,
    /// In-process updates the traced run times per store, in runs of the
    /// stream's five-step cycle.
    pub update_probes: usize,
    /// Scale of the store `core.shared.update_scale_ratio` compares with.
    pub reference_universities: usize,
    /// `GET /healthz` round trips the traced run times.
    pub pings: usize,
}

impl Plan {
    pub fn new(w: &Workload, seconds: f64, smoke: bool) -> Plan {
        if smoke {
            // Every phase and every check, at a size that takes a second or
            // two. U=11 is the smallest scale with 256 constants in every
            // class (66 departments × 4 faculty kinds) for plan_cold.
            Plan {
                universities: if w.reads == Reads::PlanCold { 11 } else { 3 },
                reads_per_round: (w.reads_per_round / 20).max(gen::CLASSES),
                updates_per_round: 5,
                read_seconds: 0.0,
                write_seconds: 0.0,
                cycles: 1,
                paced_updates_per_s: 20.0,
                update_probes: 10,
                reference_universities: 3,
                pings: 100,
            }
        } else {
            Plan {
                universities: w.universities,
                reads_per_round: w.reads_per_round,
                updates_per_round: w.updates_per_round,
                read_seconds: seconds * w.read_share,
                write_seconds: seconds * (1.0 - w.read_share),
                cycles: 3,
                // A twentieth of what the smallest store's writer can do
                // alone and a third of what the largest can, so the paced
                // writer is not saturated beside a reader.
                paced_updates_per_s: 2.0,
                update_probes: 30,
                reference_universities: 20,
                pings: 2000,
            }
        }
    }
}

/// Attempted and failed operations of a run, and why the first few failed.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Tally {
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    pub fn fail(&mut self, note: impl FnOnce() -> String) {
        self.attempted += 1;
        self.failed += 1;
        if self.notes.len() < 10 {
            self.notes.push(note());
        }
    }

    /// A check that is not an operation of its own (a counter balance, a
    /// cache assertion): failing it fails the run.
    pub fn assert(&mut self, holds: bool, note: impl FnOnce() -> String) {
        if !holds {
            self.fail(note);
        }
    }
}

/// Removes the run's data directory when the run ends, however it ends.
pub struct DataDir(pub PathBuf);

impl DataDir {
    /// A fresh directory beside the benchmark's executable — inside the
    /// build directory, so inside the checkout and ignored by git.
    pub fn create(label: &str) -> Result<DataDir, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let base = exe.parent().ok_or("executable has no parent directory")?;
        let dir = base
            .join("e2e-data")
            .join(format!("{label}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(DataDir(dir))
    }
}

impl Drop for DataDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Sizes of the files in `dir` whose names start with `prefix`.
pub fn file_sizes(dir: &Path, prefix: &str) -> Vec<u64> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    entries
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().starts_with(prefix))
        .filter_map(|e| e.metadata().ok())
        .map(|m| m.len())
        .collect()
}

pub fn cores() -> usize {
    std::thread::available_parallelism()
        .map(usize::from)
        .unwrap_or(1)
}

/// Peak resident set of this process (VmHWM), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// What one complete set-up took, and what it built.
pub struct SetUp {
    pub shared: SharedStore,
    pub server: Server,
    pub mix: ReadMix,
    pub triples: u64,
    pub bulk: BulkLoadStats,
    /// Bytes in the store directory after load + checkpoint + close.
    pub disk_bytes: u64,
    /// The snapshot file the reopen reads.
    pub snapshot_bytes: u64,
    /// The whole set-up, counting one of the `REOPENS` opens.
    pub total_s: f64,
    pub generate_s: f64,
    /// `bulk_load_ntriples` alone.
    pub bulk_load_s: f64,
    /// open + bulk load + checkpoint + close.
    pub load_s: f64,
    pub checkpoint_s: f64,
    pub reopen_s: [f64; REOPENS],
}

fn read_mix(reads: Reads, triples: &[rdf::Triple], seed: u64) -> Result<ReadMix, String> {
    match reads {
        Reads::JoinScan => Ok(gen::join_mix()),
        Reads::PointWarm | Reads::PlanCold => {
            let per_class = if reads == Reads::PlanCold {
                gen::COLD_PER_CLASS
            } else {
                gen::WARM_PER_CLASS
            };
            gen::point_mix(&gen::Constants::from_triples(triples), per_class, seed)
        }
    }
}

/// One complete set-up: generate the dataset, load it into a fresh durable
/// store as N-Triples text, checkpoint, close, reopen, start the server and
/// send every distinct query text once. All store and server settings are
/// the defaults except the HTTP worker count, which is the core count.
pub fn set_up(
    universities: usize,
    reads: Reads,
    seed: u64,
    dir: &Path,
    tally: &mut Tally,
) -> Result<SetUp, String> {
    let t_total = Instant::now();
    let triples = datagen::lubm::generate(universities, seed);
    let generate_s = t_total.elapsed().as_secs_f64();
    let mix = read_mix(reads, &triples, seed)?;
    let text = gen::ntriples_text(&triples);
    drop(triples);

    let store_err = |what: &str, e: db2rdf::StoreError| format!("{what}: {e}");
    let t_load = Instant::now();
    let mut store =
        RdfStore::open(dir, StoreConfig::default()).map_err(|e| store_err("open", e))?;
    let t_bulk = Instant::now();
    let bulk = store
        .bulk_load_ntriples(text.as_bytes(), &BulkLoadOptions::default())
        .map_err(|e| store_err("bulk load", e))?;
    let bulk_load_s = t_bulk.elapsed().as_secs_f64();
    let t_checkpoint = Instant::now();
    store.checkpoint().map_err(|e| store_err("checkpoint", e))?;
    let checkpoint_s = t_checkpoint.elapsed().as_secs_f64();
    store.close().map_err(|e| store_err("close", e))?;
    let load_s = t_load.elapsed().as_secs_f64();
    drop(text);
    let disk_bytes = file_sizes(dir, "").iter().sum();
    let snapshot_bytes = file_sizes(dir, "snapshot.").into_iter().max().unwrap_or(0);

    let mut reopen_s = [0.0; REOPENS];
    let mut store = None;
    for sample in &mut reopen_s {
        drop(store.take());
        let t_reopen = Instant::now();
        store =
            Some(RdfStore::open(dir, StoreConfig::default()).map_err(|e| store_err("reopen", e))?);
        *sample = t_reopen.elapsed().as_secs_f64();
    }
    let store = store.expect("REOPENS is at least one");

    let shared = SharedStore::new(store);
    let cfg = ServerConfig {
        workers: cores(),
        ..ServerConfig::default()
    };
    let server = Server::start(shared.clone(), "127.0.0.1:0", cfg)
        .map_err(|e| format!("start server: {e}"))?;

    // Warm-up, in issue order: after it the plan cache is in the state the
    // read phase's cycle keeps it in (everything cached on the warm mixes,
    // the most recent 512 of 1280 on plan_cold).
    let mut client = Client::connect(server.local_addr()).map_err(|e| format!("connect: {e}"))?;
    for i in 0..mix.distinct_texts() {
        let text = mix.text(mix.text_index(i));
        match client.roundtrip(&http::query_request(text)) {
            Ok(reply) if reply.status == 200 => tally.ok(),
            Ok(reply) => {
                let status = reply.status;
                tally.fail(|| format!("warm-up: status {status} for {text}"));
            }
            Err(e) => return Err(format!("warm-up request failed: {e}")),
        }
    }
    let extra_opens: f64 = reopen_s[..REOPENS - 1].iter().sum();
    let total_s = t_total.elapsed().as_secs_f64() - extra_opens;

    Ok(SetUp {
        shared,
        server,
        mix,
        triples: bulk.triples,
        bulk,
        disk_bytes,
        snapshot_bytes,
        total_s,
        generate_s,
        bulk_load_s,
        load_s,
        checkpoint_s,
        reopen_s,
    })
}

/// What a correct reply to one query text looks like.
pub struct Reference {
    pub body_len: usize,
    pub body_hash: u64,
}

/// Reference replies, computed in-process (`RdfStore::query` + `to_json`)
/// against the store the server serves, in issue order so the plan cache
/// stays in the read cycle's steady state. A query that matches nothing
/// would make the workload vacuous, so it fails the run.
pub fn references(setup: &SetUp, tally: &mut Tally) -> Result<Vec<Reference>, String> {
    let mix = &setup.mix;
    let mut refs: Vec<Option<Reference>> = (0..mix.distinct_texts()).map(|_| None).collect();
    for i in 0..refs.len() {
        let t = mix.text_index(i);
        let text = mix.text(t);
        let sols = setup
            .shared
            .query(text)
            .map_err(|e| format!("reference query failed: {e}: {text}"))?;
        let body = sols.to_json();
        tally.assert(!sols.is_empty(), || {
            format!("query matches nothing: {text}")
        });
        refs[t] = Some(Reference {
            body_len: body.len(),
            body_hash: http::body_hash(body.as_bytes()),
        });
    }
    Ok(refs
        .into_iter()
        .map(|r| r.expect("issue order covers every text"))
        .collect())
}

/// The read mix's requests, rendered once: `requests[t]` is text `t`.
pub fn render_requests(mix: &ReadMix) -> Vec<Vec<u8>> {
    mix.texts().map(|t| http::query_request(t)).collect()
}

/// A closed-loop reader on one connection: the next request is sent when
/// the previous reply has been read and checked.
pub struct Reader<'a> {
    pub client: Client,
    pub addr: std::net::SocketAddr,
    pub mix: &'a ReadMix,
    pub requests: &'a [Vec<u8>],
    pub refs: &'a [Reference],
    /// Position in the issue order; continues across rounds and phases.
    pub next: usize,
    pub reply_bytes: u64,
    pub non_200: u64,
}

impl<'a> Reader<'a> {
    pub fn connect(
        addr: std::net::SocketAddr,
        mix: &'a ReadMix,
        requests: &'a [Vec<u8>],
        refs: &'a [Reference],
    ) -> Result<Reader<'a>, String> {
        let client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
        // The warm-up and the references each walked the issue order once,
        // so the cycle resumes at its start.
        Ok(Reader {
            client,
            addr,
            mix,
            requests,
            refs,
            next: 0,
            reply_bytes: 0,
            non_200: 0,
        })
    }

    /// Issue the next request; returns its latency in seconds. A reply with
    /// the wrong status, length or hash, or an I/O error, is a failed
    /// operation — its latency still counts.
    pub fn one(&mut self, tally: &mut Tally) -> Result<f64, String> {
        let t = self.mix.text_index(self.next);
        self.next += 1;
        let started = Instant::now();
        let outcome = self.client.roundtrip(&self.requests[t]);
        let latency = started.elapsed().as_secs_f64();
        match outcome {
            Ok(reply) => {
                self.reply_bytes += reply.body.len() as u64;
                let expect = &self.refs[t];
                if reply.status != 200 {
                    self.non_200 += 1;
                    let status = reply.status;
                    tally.fail(|| format!("query text {t}: status {status}"));
                } else if reply.body.len() != expect.body_len
                    || http::body_hash(reply.body) != expect.body_hash
                {
                    let len = reply.body.len();
                    tally.fail(|| {
                        format!("query text {t}: body of {len} bytes differs from the reference")
                    });
                } else {
                    tally.ok();
                }
            }
            Err(e) => {
                tally.fail(|| format!("query text {t}: {e}"));
                self.client = Client::connect(self.addr)
                    .map_err(|e| format!("reconnect after an I/O error: {e}"))?;
            }
        }
        Ok(latency)
    }

    pub fn round(&mut self, requests: usize, tally: &mut Tally) -> Result<Round, String> {
        round_of(requests, || self.one(tally))
    }
}

/// One round: `operations` calls of `one`, which returns its latency.
fn round_of(
    operations: usize,
    mut one: impl FnMut() -> Result<f64, String>,
) -> Result<Round, String> {
    let started = Instant::now();
    let mut latencies_s = Vec::with_capacity(operations);
    for _ in 0..operations {
        latencies_s.push(one()?);
    }
    Ok(Round {
        wall_s: started.elapsed().as_secs_f64(),
        latencies_s,
    })
}

/// Rounds of identical work until `seconds` have passed, at least
/// `MIN_ROUNDS` of them.
pub fn timed_rounds(
    seconds: f64,
    mut round: impl FnMut() -> Result<Round, String>,
) -> Result<Vec<Round>, String> {
    let started = Instant::now();
    let mut rounds = Vec::new();
    while rounds.len() < MIN_ROUNDS || started.elapsed().as_secs_f64() < seconds {
        rounds.push(round()?);
    }
    Ok(rounds)
}

/// A closed-loop writer on one connection, `POST /update` per request. The
/// server acknowledges an update after its group's fsync (fsync per group
/// commit is the store's default and is left on).
pub struct Writer {
    pub client: Client,
    pub addr: std::net::SocketAddr,
}

impl Writer {
    pub fn connect(addr: std::net::SocketAddr) -> Result<Writer, String> {
        Ok(Writer {
            client: Client::connect(addr).map_err(|e| format!("connect: {e}"))?,
            addr,
        })
    }

    /// Issue the stream's next update; returns its latency. The reply must
    /// be 200 and report exactly the effect the model predicts.
    pub fn one(&mut self, stream: &mut UpdateStream, tally: &mut Tally) -> Result<f64, String> {
        let op = stream.next_op();
        let request = http::update_request(&op.text);
        let started = Instant::now();
        let outcome = self.client.roundtrip(&request);
        let latency = started.elapsed().as_secs_f64();
        let expect = format!(
            "{{\"inserted\":{},\"deleted\":{}}}\n",
            op.inserted, op.deleted
        );
        match outcome {
            Ok(reply) if reply.status == 200 && reply.body == expect.as_bytes() => tally.ok(),
            Ok(reply) => {
                let (status, body) = (
                    reply.status,
                    String::from_utf8_lossy(reply.body).into_owned(),
                );
                tally.fail(|| {
                    format!(
                        "update {:?}: status {status}, body {body:?}, expected {expect:?}",
                        op.kind
                    )
                });
            }
            Err(e) => {
                tally.fail(|| format!("update {:?}: {e}", op.kind));
                self.client = Client::connect(self.addr)
                    .map_err(|e| format!("reconnect after an I/O error: {e}"))?;
            }
        }
        Ok(latency)
    }

    pub fn round(
        &mut self,
        updates: usize,
        stream: &mut UpdateStream,
        tally: &mut Tally,
    ) -> Result<Round, String> {
        round_of(updates, || self.one(stream, tally))
    }
}

/// The plan-cache outcome the workload is built to have: every lookup of
/// the read phase hits on the warm mixes, none does on `plan_cold`.
pub fn check_plan_cache(
    reads: Reads,
    before: Option<PlanCacheStats>,
    after: Option<PlanCacheStats>,
    tally: &mut Tally,
) {
    let (Some(before), Some(after)) = (before, after) else {
        tally.fail(|| "plan cache is disabled, the defaults enable it".into());
        return;
    };
    let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
    match reads {
        Reads::PlanCold => tally.assert(hits == 0 && misses > 0, || {
            format!("plan_cold must never hit the plan cache: {hits} hits, {misses} misses")
        }),
        Reads::PointWarm | Reads::JoinScan => tally.assert(misses == 0 && hits > 0, || {
            format!("a warm mix must never miss the plan cache: {hits} hits, {misses} misses")
        }),
    }
}

/// Every update issued must have been applied, none failed, and the
/// group-commit histogram must account for every group.
pub fn check_update_balance(shared: &SharedStore, stream: &UpdateStream, tally: &mut Tally) {
    let stats = shared.update_stats();
    tally.assert(
        stats.applied == stream.issued() as u64 && stats.failed == 0,
        || {
            format!(
                "update counters out of balance: issued {}, applied {}, failed {}",
                stream.issued(),
                stats.applied,
                stats.failed
            )
        },
    );
    tally.assert(
        stats.batch_sizes.iter().sum::<u64>() == stats.groups,
        || {
            format!(
                "group histogram sums to {}, groups {}",
                stats.batch_sizes.iter().sum::<u64>(),
                stats.groups
            )
        },
    );
}

/// Stop the server, drop the store *without* a checkpoint, reopen it from
/// snapshot + WAL, and check every visitor the update stream ever wrote
/// against the model: one operation per visitor. Returns the reopen time.
pub fn reopen_and_verify(
    setup: SetUp,
    dir: &Path,
    stream: &UpdateStream,
    tally: &mut Tally,
) -> Result<f64, String> {
    let SetUp { shared, server, .. } = setup;
    server.shutdown();
    drop(shared);
    let started = Instant::now();
    let store = RdfStore::open(dir, StoreConfig::default())
        .map_err(|e| format!("reopen after writes: {e}"))?;
    let reopen_s = started.elapsed().as_secs_f64();
    for (query, expect) in stream.expectations() {
        match store.query(&query) {
            Ok(sols) => {
                let mut got: Vec<(String, String)> = sols
                    .rows
                    .iter()
                    .map(|row| {
                        let cell = |i: usize| {
                            row.get(i)
                                .and_then(|c| c.as_ref())
                                .map(|t| t.encode())
                                .unwrap_or_default()
                        };
                        (cell(0), cell(1))
                    })
                    .collect();
                got.sort();
                if got == expect {
                    tally.ok();
                } else {
                    tally.fail(|| {
                        format!(
                            "after reopen, {query} returned {got:?}, the model holds {expect:?}"
                        )
                    });
                }
            }
            Err(e) => tally.fail(|| format!("after reopen, {query} failed: {e}")),
        }
    }
    Ok(reopen_s)
}
