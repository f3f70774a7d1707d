//! Concurrency test (ISSUE satellite): one writer thread mutating the
//! shared store through `insert`/`delete` batches while reader threads
//! hammer `/sparql` over real loopback HTTP. Every response must be either
//! a consistent result — the store's atomic-batch states are the only
//! observable ones — or a clean 503 from admission control; never a torn
//! row, a mixed state, or a dropped connection.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use db2rdf::{RdfStore, SharedStore};
use rdf::{Term, Triple};
use server::client::{self, Client};
use server::{Server, ServerConfig};

fn person(n: usize) -> Term {
    Term::iri(format!("http://ex/p{n}"))
}

const BATCH: usize = 5;

/// The batch the writer inserts then deletes, as one group: `marker knows
/// p0..p4`. Readers count `?x` for the marker subject; consistency means
/// the count is always 0 or 5 — a batch is observed wholly or not at all.
fn batch_triples() -> Vec<Triple> {
    let marker = Term::iri("http://ex/marker");
    let knows = Term::iri("http://ex/knows");
    (0..BATCH).map(|i| Triple::new(marker.clone(), knows.clone(), person(i))).collect()
}

#[test]
fn readers_never_observe_torn_batches() {
    // Base data so the store is loaded and queries have work to do.
    let knows = Term::iri("http://ex/knows");
    let base: Vec<Triple> = (0..50)
        .map(|i| Triple::new(person(100 + i), knows.clone(), person(101 + i)))
        .collect();
    let mut store = RdfStore::entity();
    store.load(&base).unwrap();

    let shared = SharedStore::new(store);
    let cfg = ServerConfig { workers: 6, max_in_flight: 4, ..ServerConfig::default() };
    let server = Server::start(shared.clone(), "127.0.0.1:0", cfg).unwrap();
    let addr = server.local_addr();

    let stop = Arc::new(AtomicBool::new(false));
    let ok_responses = Arc::new(AtomicU64::new(0));
    let shed_responses = Arc::new(AtomicU64::new(0));

    // Writer: insert the whole batch, then delete it, in a loop — each
    // five-triple batch applied under ONE write-lock acquisition, so the
    // only states a reader may observe are "batch fully present" and
    // "batch fully absent". A count of 1..4 would be a torn read.
    let writer_store = shared.clone();
    let writer_stop = stop.clone();
    let writer = std::thread::spawn(move || {
        let batch = batch_triples();
        let mut rounds = 0u32;
        while !writer_stop.load(Ordering::Relaxed) {
            {
                let mut guard = writer_store.write();
                for t in &batch {
                    guard.insert(t).expect("insert");
                }
            }
            {
                let mut guard = writer_store.write();
                for t in &batch {
                    assert!(guard.delete(t).expect("delete"), "batch triple existed");
                }
            }
            rounds += 1;
        }
        rounds
    });

    let readers: Vec<_> = (0..4)
        .map(|_| {
            let stop = stop.clone();
            let ok = ok_responses.clone();
            let shed = shed_responses.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let q = "SELECT ?x WHERE { <http://ex/marker> <http://ex/knows> ?x }";
                while !stop.load(Ordering::Relaxed) {
                    let resp = client.sparql_get(q, None).expect("response, not a torn stream");
                    match resp.status {
                        200 => {
                            let body = resp.text();
                            let count = body.matches("\"type\":\"uri\"").count();
                            assert!(
                                count == 0 || count == BATCH,
                                "torn read: observed {count} of {BATCH} batch rows: {body}"
                            );
                            assert!(body.ends_with("]}}"), "truncated body: {body}");
                            ok.fetch_add(1, Ordering::Relaxed);
                        }
                        503 => {
                            // Clean shed: admission control, body intact.
                            assert!(resp.text().contains("overloaded"), "{}", resp.text());
                            shed.fetch_add(1, Ordering::Relaxed);
                        }
                        other => panic!("unexpected status {other}: {}", resp.text()),
                    }
                }
            })
        })
        .collect();

    std::thread::sleep(std::time::Duration::from_millis(800));
    stop.store(true, Ordering::Relaxed);
    let rounds = writer.join().expect("writer");
    for r in readers {
        r.join().expect("reader");
    }
    let ok = ok_responses.load(Ordering::Relaxed);
    assert!(ok > 0, "no successful reads");
    assert!(rounds > 0, "writer made no progress");
    server.shutdown();

    // After the dust settles the batch is fully deleted: count is 0.
    let sols = shared
        .query("SELECT ?x WHERE { <http://ex/marker> <http://ex/knows> ?x }")
        .unwrap();
    assert_eq!(sols.len(), 0);
}

#[test]
fn overload_sheds_cleanly_under_fire() {
    // Cap 1 with many parallel clients: some requests must shed with 503,
    // and every shed response is well-formed (the stats endpoint agrees).
    let knows = Term::iri("http://ex/knows");
    let base: Vec<Triple> = (0..60)
        .map(|i| Triple::new(person(i), knows.clone(), person(i + 1)))
        .collect();
    let mut store = RdfStore::entity();
    store.load(&base).unwrap();
    let cfg = ServerConfig { workers: 8, max_in_flight: 1, ..ServerConfig::default() };
    let server = Server::start(SharedStore::new(store), "127.0.0.1:0", cfg).unwrap();
    let addr = server.local_addr();
    let q = "SELECT ?a ?c WHERE { ?a <http://ex/knows> ?b . ?b <http://ex/knows> ?c }";

    let shed = Arc::new(AtomicU64::new(0));
    let served = Arc::new(AtomicU64::new(0));

    // Hold the one admission slot deterministically: a `POST /insert` keeps
    // its slot while its body is still arriving, so send the head and the
    // first triple, then wait until /stats shows the slot taken.
    let first = "<http://ex/p0> <http://ex/likes> <http://ex/p1> .\n";
    let rest = "<http://ex/p1> <http://ex/likes> <http://ex/p2> .\n";
    let mut upload = TcpStream::connect(addr).unwrap();
    upload.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let head = format!(
        "POST /insert HTTP/1.1\r\nHost: x\r\nConnection: close\r\nContent-Length: {}\r\n\r\n",
        first.len() + rest.len()
    );
    upload.write_all(format!("{head}{first}").as_bytes()).unwrap();
    upload.flush().unwrap();
    let slot_taken = || {
        let stats = client::request(addr, "GET", "/stats", &[], b"").unwrap().text();
        stats.contains("\"in_flight\":1,")
    };
    let held = Instant::now();
    while !slot_taken() {
        assert!(held.elapsed() < Duration::from_secs(5), "the upload never took the slot");
        std::thread::sleep(Duration::from_millis(5));
    }
    let resp = Client::connect(addr).unwrap().sparql_get(q, None).unwrap();
    assert_eq!(resp.status, 503, "a query ran while the upload held the only slot");
    assert_eq!(resp.header("retry-after"), Some("1"));
    shed.fetch_add(1, Ordering::Relaxed);

    // Finish the upload: it is applied, and its slot comes back.
    upload.write_all(rest.as_bytes()).unwrap();
    let mut reply = String::new();
    upload.read_to_string(&mut reply).unwrap();
    assert!(reply.starts_with("HTTP/1.1 200 "), "{reply}");
    assert!(reply.contains(r#"{"received":2,"inserted":2}"#), "{reply}");

    let handles: Vec<_> = (0..8)
        .map(|_| {
            let shed = shed.clone();
            let served = served.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                for _ in 0..25 {
                    let resp = client.sparql_get(q, None).expect("response");
                    match resp.status {
                        200 => {
                            served.fetch_add(1, Ordering::Relaxed);
                        }
                        503 => {
                            assert_eq!(resp.header("retry-after"), Some("1"));
                            shed.fetch_add(1, Ordering::Relaxed);
                        }
                        other => panic!("unexpected status {other}: {}", resp.text()),
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client");
    }
    assert!(served.load(Ordering::Relaxed) > 0, "nothing served");
    assert!(shed.load(Ordering::Relaxed) > 0, "cap 1 with 8 clients never shed");
    server.shutdown();
}
