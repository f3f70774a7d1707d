//! Server resilience surfaces: the slowloris receive deadline (408), the
//! read-only degrade path end-to-end (healthz/stats/insert over real
//! loopback HTTP against a store degraded by an injected sync failure),
//! and the client's capped-backoff retry loop honoring `Retry-After`.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use db2rdf::{RdfStore, SharedStore, StoreConfig};
use rdf::{Term, Triple};
use relstore::ScriptedFaults;
use server::client::{self, Client, RetryPolicy};
use server::{Server, ServerConfig};

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "db2rdf-server-{}-{}-{name}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::SeqCst)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn demo_triples() -> Vec<Triple> {
    let person = |n: &str| Term::iri(format!("http://ex/{n}"));
    let knows = Term::iri("http://ex/knows");
    vec![
        Triple::new(person("alice"), knows.clone(), person("bob")),
        Triple::new(person("bob"), knows, person("carol")),
    ]
}

fn demo_store() -> SharedStore {
    let mut store = RdfStore::entity();
    store.load(&demo_triples()).unwrap();
    SharedStore::new(store)
}

const Q_KNOWS: &str = "SELECT ?x ?y WHERE { ?x <http://ex/knows> ?y }";

// ---------------------------------------------------------------------------
// Slowloris guard
// ---------------------------------------------------------------------------

#[test]
fn slowloris_trickle_gets_408_and_disconnect() {
    let cfg =
        ServerConfig { recv_deadline: Duration::from_millis(300), ..ServerConfig::default() };
    let server = Server::start(demo_store(), "127.0.0.1:0", cfg).unwrap();

    let sock = TcpStream::connect(server.local_addr()).unwrap();
    sock.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let writer = {
        // Trickle a valid request one byte at a time: steady progress, so
        // only a wall-clock deadline (not a stall counter) can catch it.
        let mut w = sock.try_clone().unwrap();
        std::thread::spawn(move || {
            for b in b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n" {
                if w.write_all(std::slice::from_ref(b)).is_err() {
                    break; // server already hung up on us — expected
                }
                let _ = w.flush();
                std::thread::sleep(Duration::from_millis(40));
            }
        })
    };

    let mut sock = sock;
    let mut buf = Vec::new();
    let _ = sock.read_to_end(&mut buf); // server closes after the 408
    let text = String::from_utf8_lossy(&buf);
    assert!(text.starts_with("HTTP/1.1 408 "), "expected 408, got: {text:?}");
    assert!(text.contains("Connection: close"), "{text:?}");
    writer.join().unwrap();
    server.shutdown();
}

#[test]
fn prompt_requests_unaffected_by_tight_deadline() {
    let cfg =
        ServerConfig { recv_deadline: Duration::from_millis(300), ..ServerConfig::default() };
    let server = Server::start(demo_store(), "127.0.0.1:0", cfg).unwrap();
    let mut c = Client::connect(server.local_addr()).unwrap();
    // The deadline bounds receive time, not service time: requests that
    // arrive in one piece sail through, repeatedly, on one connection.
    for _ in 0..3 {
        let r = c.sparql_get(Q_KNOWS, None).unwrap();
        assert_eq!(r.status, 200);
    }
    server.shutdown();
}

// ---------------------------------------------------------------------------
// POST /insert + read-only degrade surfaced end-to-end
// ---------------------------------------------------------------------------

#[test]
fn insert_endpoint_adds_triples_and_rejects_garbage() {
    let server = Server::start(demo_store(), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr();

    // Two triples, one of which is already stored: received 2, inserted 1.
    let body = b"<http://ex/dave> <http://ex/knows> <http://ex/carol> .\n\
                 <http://ex/alice> <http://ex/knows> <http://ex/bob> .\n";
    let r = client::request(
        addr,
        "POST",
        "/insert",
        &[("Content-Type", "application/n-triples")],
        body,
    )
    .unwrap();
    assert_eq!(r.status, 200, "{}", r.text());
    assert_eq!(r.text().trim(), r#"{"received":2,"inserted":1}"#);

    let mut c = Client::connect(addr).unwrap();
    let r = c.sparql_get(Q_KNOWS, None).unwrap();
    assert!(r.text().contains("http://ex/dave"), "{}", r.text());

    let r = client::request(addr, "POST", "/insert", &[], b"this is not n-triples").unwrap();
    assert_eq!(r.status, 400, "{}", r.text());

    let r = client::request(addr, "GET", "/insert", &[], b"").unwrap();
    assert_eq!(r.status, 405);
    assert_eq!(r.header("allow"), Some("POST"));

    let r = client::request(addr, "GET", "/stats", &[], b"").unwrap();
    assert!(r.text().contains("\"insert\":"), "{}", r.text());
    assert!(r.text().contains("\"degraded\":false"), "{}", r.text());
    server.shutdown();
}

#[test]
fn degraded_store_surfaces_in_healthz_stats_and_insert() {
    let dir = fresh_dir("degrade");
    // Seed a healthy durable store, then reopen it with the first fsync
    // scripted to fail: recovery is read-only so the reopen succeeds, and
    // the first mutation's commit fails, flipping the store read-only.
    {
        let mut store = RdfStore::open(&dir, StoreConfig::default()).unwrap();
        store.load(&demo_triples()).unwrap();
        store.close().unwrap();
    }
    let faults = ScriptedFaults::new().fail_sync(0).into_handle();
    let mut store = RdfStore::open_with_faults(&dir, StoreConfig::default(), faults).unwrap();
    let poison = Triple::new(
        Term::iri("http://ex/eve"),
        Term::iri("http://ex/knows"),
        Term::iri("http://ex/alice"),
    );
    assert!(store.insert(&poison).is_err(), "sync failure must surface");
    assert!(store.is_read_only(), "failed commit must degrade the store");

    let shared = SharedStore::new(store);
    let server = Server::start(shared, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr();

    // Liveness: still alive (200), but the body says which kind of alive.
    let r = client::request(addr, "GET", "/healthz", &[], b"").unwrap();
    assert_eq!(r.status, 200);
    assert_eq!(r.text().trim(), "degraded");

    let r = client::request(addr, "GET", "/stats", &[], b"").unwrap();
    assert!(r.text().contains("\"degraded\":true"), "{}", r.text());

    // Mutations are refused loudly — 503 with a retry hint, not a silent
    // drop and not a 200.
    let body = b"<http://ex/eve> <http://ex/knows> <http://ex/alice> .\n";
    let r = client::request(addr, "POST", "/insert", &[], body).unwrap();
    assert_eq!(r.status, 503, "{}", r.text());
    assert!(r.header("retry-after").is_some());
    assert!(r.text().contains("read-only"), "{}", r.text());

    // Reads keep serving the recovered data.
    let mut c = Client::connect(addr).unwrap();
    let r = c.sparql_get(Q_KNOWS, None).unwrap();
    assert_eq!(r.status, 200);
    assert!(r.text().contains("http://ex/alice"), "{}", r.text());
    // ...and only that: the triple whose commit failed was rolled back, so
    // the refused write is not served either.
    assert!(!r.text().contains("http://ex/eve"), "{}", r.text());

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Client retry
// ---------------------------------------------------------------------------

/// A stub server answering each connection with the next scripted
/// response, for driving the retry loop without a real store.
fn stub_server(responses: Vec<&'static str>) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let handle = std::thread::spawn(move || {
        for resp in responses {
            let (mut s, _) = listener.accept().unwrap();
            let mut buf = [0u8; 1024];
            let _ = s.read(&mut buf); // drain what arrived of the request
            s.write_all(resp.as_bytes()).unwrap();
        }
    });
    (addr, handle)
}

const BUSY_503: &str = "HTTP/1.1 503 Service Unavailable\r\nContent-Length: 5\r\n\
                        Retry-After: 0\r\nConnection: close\r\n\r\nbusy\n";
const OK_200: &str = "HTTP/1.1 200 OK\r\nContent-Length: 3\r\nConnection: close\r\n\r\nok\n";

#[test]
fn retry_recovers_after_503_with_retry_after() {
    let (addr, handle) = stub_server(vec![BUSY_503, BUSY_503, OK_200]);
    let policy = RetryPolicy {
        max_attempts: 4,
        base: Duration::from_millis(1),
        ..RetryPolicy::default()
    };
    let r = client::request_with_retry(addr, "GET", "/x", &[], b"", &policy).unwrap();
    assert_eq!(r.status, 200);
    assert_eq!(r.text().trim(), "ok");
    handle.join().unwrap();
}

#[test]
fn retry_gives_up_after_max_attempts() {
    let (addr, handle) = stub_server(vec![BUSY_503, BUSY_503]);
    let policy = RetryPolicy {
        max_attempts: 2,
        base: Duration::from_millis(1),
        ..RetryPolicy::default()
    };
    let r = client::request_with_retry(addr, "GET", "/x", &[], b"", &policy).unwrap();
    assert_eq!(r.status, 503, "the final 503 is returned, not swallowed");
    handle.join().unwrap();
}
