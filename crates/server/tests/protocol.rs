//! SPARQL Protocol endpoint tests over real loopback HTTP: request
//! parsing, content negotiation, the service-boundary error contract
//! (400/406/413/404/405/503), keep-alive, and graceful shutdown.

use std::time::Duration;

use db2rdf::{RdfStore, SharedStore};
use rdf::{Term, Triple};
use server::client::{self, Client};
use server::http::percent_encode;
use server::{Server, ServerConfig};

fn demo_store() -> SharedStore {
    let person = |n: &str| Term::iri(format!("http://ex/{n}"));
    let knows = Term::iri("http://ex/knows");
    let name = Term::iri("http://ex/name");
    let mut store = RdfStore::entity();
    store
        .load(&[
            Triple::new(person("alice"), knows.clone(), person("bob")),
            Triple::new(person("bob"), knows.clone(), person("carol")),
            Triple::new(person("alice"), knows, person("carol")),
            Triple::new(person("alice"), name.clone(), Term::lit("Alice")),
            Triple::new(person("bob"), name, Term::lang_lit("Bob", "en")),
        ])
        .unwrap();
    SharedStore::new(store)
}

fn boot(cfg: ServerConfig) -> Server {
    Server::start(demo_store(), "127.0.0.1:0", cfg).expect("bind ephemeral port")
}

const Q_KNOWS: &str = "SELECT ?x WHERE { ?x <http://ex/knows> <http://ex/carol> }";

#[test]
fn get_query_returns_w3c_json() {
    let server = boot(ServerConfig::default());
    let mut c = Client::connect(server.local_addr()).unwrap();
    let r = c.sparql_get(Q_KNOWS, None).unwrap();
    assert_eq!(r.status, 200);
    assert_eq!(r.header("content-type"), Some("application/sparql-results+json"));
    let body = r.text();
    assert!(body.starts_with("{\"head\":{\"vars\":[\"x\"]}"), "{body}");
    assert!(body.contains("{\"type\":\"uri\",\"value\":\"http://ex/alice\"}"), "{body}");
    assert!(body.contains("http://ex/bob"), "{body}");
    server.shutdown();
}

#[test]
fn accept_header_switches_to_tsv() {
    let server = boot(ServerConfig::default());
    let mut c = Client::connect(server.local_addr()).unwrap();
    let r = c.sparql_get(Q_KNOWS, Some("text/tab-separated-values")).unwrap();
    assert_eq!(r.status, 200);
    assert_eq!(r.header("content-type"), Some("text/tab-separated-values; charset=utf-8"));
    let body = r.text();
    assert!(body.starts_with("?x\n"), "{body}");
    assert!(body.contains("<http://ex/alice>\n"), "{body}");
    server.shutdown();
}

#[test]
fn post_form_and_raw_query_bodies() {
    let server = boot(ServerConfig::default());
    let mut c = Client::connect(server.local_addr()).unwrap();
    let form = format!("query={}", percent_encode(Q_KNOWS));
    let r = c
        .request(
            "POST",
            "/sparql",
            &[("Content-Type", "application/x-www-form-urlencoded")],
            form.as_bytes(),
        )
        .unwrap();
    assert_eq!(r.status, 200, "{}", r.text());
    assert!(r.text().contains("http://ex/alice"));

    let r = c
        .request(
            "POST",
            "/sparql",
            &[("Content-Type", "application/sparql-query; charset=utf-8")],
            Q_KNOWS.as_bytes(),
        )
        .unwrap();
    assert_eq!(r.status, 200, "{}", r.text());
    assert!(r.text().contains("http://ex/alice"));
    server.shutdown();
}

#[test]
fn ask_queries_serialize_boolean() {
    let server = boot(ServerConfig::default());
    let mut c = Client::connect(server.local_addr()).unwrap();
    let r = c
        .sparql_get("ASK { <http://ex/alice> <http://ex/knows> <http://ex/bob> }", None)
        .unwrap();
    assert_eq!(r.status, 200, "{}", r.text());
    assert_eq!(r.text(), "{\"head\":{},\"boolean\":true}");
    server.shutdown();
}

#[test]
fn malformed_sparql_is_400_with_parser_message() {
    let server = boot(ServerConfig::default());
    let mut c = Client::connect(server.local_addr()).unwrap();
    let r = c.sparql_get("SELECT ?x WHERE { broken", None).unwrap();
    assert_eq!(r.status, 400);
    assert!(r.text().contains("SPARQL parse error"), "{}", r.text());

    // Missing query parameter
    let r = c.request("GET", "/sparql", &[], b"").unwrap();
    assert_eq!(r.status, 400);
    assert!(r.text().contains("missing required parameter"), "{}", r.text());

    server.shutdown();
}

#[test]
fn empty_group_patterns_are_valid_queries() {
    // Zero-triple-pattern queries have fixed answers under SPARQL
    // semantics (μ0); they must not surface as 400s.
    let server = boot(ServerConfig::default());
    let mut c = Client::connect(server.local_addr()).unwrap();

    let r = c.sparql_get("ASK {}", None).unwrap();
    assert_eq!(r.status, 200, "{}", r.text());
    assert_eq!(r.text(), "{\"head\":{},\"boolean\":true}");

    let r = c.sparql_get("SELECT ?x WHERE { }", None).unwrap();
    assert_eq!(r.status, 200, "{}", r.text());
    assert_eq!(
        r.text(),
        "{\"head\":{\"vars\":[\"x\"]},\"results\":{\"bindings\":[{}]}}",
        "one unit solution with ?x unbound"
    );

    let r = c.sparql_get("SELECT * WHERE {} LIMIT 0", None).unwrap();
    assert_eq!(r.status, 200, "{}", r.text());
    assert_eq!(r.text(), "{\"head\":{\"vars\":[]},\"results\":{\"bindings\":[]}}");
    server.shutdown();
}

#[test]
fn unknown_media_types_are_406() {
    let server = boot(ServerConfig::default());
    let mut c = Client::connect(server.local_addr()).unwrap();
    // Unacceptable Accept header
    let r = c.sparql_get(Q_KNOWS, Some("application/xml")).unwrap();
    assert_eq!(r.status, 406);
    assert!(r.text().contains("sparql-results+json"), "{}", r.text());
    // Unknown POST body media type
    let r = c
        .request("POST", "/sparql", &[("Content-Type", "text/turtle")], Q_KNOWS.as_bytes())
        .unwrap();
    assert_eq!(r.status, 406);
    // Unknown explicit format parameter
    let r = c.request("GET", "/sparql?query=x&format=xml", &[], b"").unwrap();
    assert_eq!(r.status, 406);
    // Wildcard Accept falls back to JSON
    let r = c.sparql_get(Q_KNOWS, Some("text/html, */*;q=0.1")).unwrap();
    assert_eq!(r.status, 200);
    assert_eq!(r.header("content-type"), Some("application/sparql-results+json"));
    server.shutdown();
}

/// Write raw request bytes and read the whole response (the server closes
/// the connection on framing errors, so EOF delimits it). The test client
/// always adds Content-Length, which is exactly what these requests must
/// not have — hence the raw socket.
fn raw_roundtrip(addr: std::net::SocketAddr, request: &str) -> String {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    stream.write_all(request.as_bytes()).unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    response
}

#[test]
fn chunked_transfer_encoding_is_501_and_closes() {
    // RFC 7230 §3.3.1: a transfer coding the server does not implement
    // must be answered with 501, not a generic 400 — and the connection
    // must close, since the unread body cannot be re-framed.
    let server = boot(ServerConfig::default());
    let response = raw_roundtrip(
        server.local_addr(),
        "POST /sparql HTTP/1.1\r\nHost: t\r\n\
         Content-Type: application/sparql-query\r\n\
         Transfer-Encoding: chunked\r\n\r\n\
         7\r\nASK { }\r\n0\r\n\r\n",
    );
    assert!(response.starts_with("HTTP/1.1 501 Not Implemented"), "{response}");
    assert!(response.contains("Connection: close"), "{response}");
    assert!(response.contains("Transfer-Encoding is not implemented"), "{response}");
    server.shutdown();
}

#[test]
fn transfer_encoding_with_content_length_is_400() {
    // RFC 7230 §3.3.3: a message carrying both Transfer-Encoding and
    // Content-Length is a request-smuggling vector; reject it outright
    // rather than honoring either framing.
    let server = boot(ServerConfig::default());
    let response = raw_roundtrip(
        server.local_addr(),
        "POST /sparql HTTP/1.1\r\nHost: t\r\n\
         Content-Type: application/sparql-query\r\n\
         Transfer-Encoding: chunked\r\nContent-Length: 7\r\n\r\n\
         ASK { }",
    );
    assert!(response.starts_with("HTTP/1.1 400 Bad Request"), "{response}");
    assert!(
        response.contains("both Transfer-Encoding and Content-Length"),
        "{response}"
    );
    server.shutdown();
}

#[test]
fn ask_with_tsv_negotiates_or_refuses() {
    let server = boot(ServerConfig::default());
    let mut c = Client::connect(server.local_addr()).unwrap();
    let ask = "ASK { <http://ex/alice> <http://ex/knows> <http://ex/bob> }";

    // An exclusive TSV demand cannot carry a boolean: 406 with steering.
    let r = c.sparql_get(ask, Some("text/tab-separated-values")).unwrap();
    assert_eq!(r.status, 406, "{}", r.text());
    assert!(r.text().contains("sparql-results+json"), "{}", r.text());

    // Same demand via the format override parameter.
    let url = format!("/sparql?query={}&format=tsv", percent_encode(ask));
    let r = c.request("GET", &url, &[], b"").unwrap();
    assert_eq!(r.status, 406, "{}", r.text());

    // TSV preferred but JSON acceptable: the ASK is steered to JSON.
    let r = c
        .sparql_get(ask, Some("text/tab-separated-values, application/sparql-results+json;q=0.5"))
        .unwrap();
    assert_eq!(r.status, 200, "{}", r.text());
    assert_eq!(r.header("content-type"), Some("application/sparql-results+json"));
    assert_eq!(r.text(), "{\"head\":{},\"boolean\":true}");

    // TSV with a wildcard fallback steers too.
    let r = c.sparql_get(ask, Some("text/tab-separated-values, */*;q=0.1")).unwrap();
    assert_eq!(r.status, 200, "{}", r.text());
    assert_eq!(r.header("content-type"), Some("application/sparql-results+json"));

    // SELECT under the same exclusive-TSV demand still gets TSV.
    let r = c.sparql_get(Q_KNOWS, Some("text/tab-separated-values")).unwrap();
    assert_eq!(r.status, 200, "{}", r.text());
    assert_eq!(r.header("content-type"), Some("text/tab-separated-values; charset=utf-8"));
    server.shutdown();
}

#[test]
fn oversized_body_is_413() {
    let cfg = ServerConfig { max_body_bytes: 256, ..ServerConfig::default() };
    let server = boot(cfg);
    let mut c = Client::connect(server.local_addr()).unwrap();
    let big = "x".repeat(1024);
    let r = c
        .request(
            "POST",
            "/sparql",
            &[("Content-Type", "application/sparql-query")],
            big.as_bytes(),
        )
        .unwrap();
    assert_eq!(r.status, 413);
    assert!(r.text().contains("256-byte limit"), "{}", r.text());
    server.shutdown();
}

#[test]
fn unknown_paths_and_methods() {
    let server = boot(ServerConfig::default());
    let addr = server.local_addr();
    let r = client::request(addr, "GET", "/nope", &[], b"").unwrap();
    assert_eq!(r.status, 404);
    let r = client::request(addr, "DELETE", "/sparql", &[], b"").unwrap();
    assert_eq!(r.status, 405);
    assert!(r.header("allow").is_some());
    server.shutdown();
}

#[test]
fn healthz_and_stats_reflect_traffic() {
    let server = boot(ServerConfig::default());
    let addr = server.local_addr();
    let r = client::request(addr, "GET", "/healthz", &[], b"").unwrap();
    assert_eq!(r.status, 200);
    assert_eq!(r.text().trim(), "ok");

    let mut c = Client::connect(addr).unwrap();
    for _ in 0..3 {
        assert_eq!(c.sparql_get(Q_KNOWS, None).unwrap().status, 200);
    }
    assert_eq!(c.sparql_get("SELECT nope", None).unwrap().status, 400);

    let r = client::request(addr, "GET", "/stats", &[], b"").unwrap();
    assert_eq!(r.status, 200);
    assert_eq!(r.header("content-type"), Some("application/json"));
    let body = r.text();
    assert!(body.contains("\"triples\":5"), "{body}");
    assert!(body.contains("\"sparql\":{\"requests\":4,\"errors\":1"), "{body}");
    assert!(body.contains("\"p99_us\":"), "{body}");
    // The effective executor parallel width is visible (and never the silent
    // fallback value 0 — an invalid RELSTORE_THREADS clamps with a warning).
    assert!(body.contains("\"exec_threads\":"), "{body}");
    assert!(!body.contains("\"exec_threads\":0"), "{body}");
    server.shutdown();
}

#[test]
fn stats_expose_plan_cache_counters() {
    let cfg = ServerConfig { plan_cache: Some(8), ..ServerConfig::default() };
    let server = boot(cfg);
    let addr = server.local_addr();
    let mut c = Client::connect(addr).unwrap();
    for _ in 0..3 {
        assert_eq!(c.sparql_get(Q_KNOWS, None).unwrap().status, 200);
    }
    let r = client::request(addr, "GET", "/stats", &[], b"").unwrap();
    let body = r.text();
    assert!(body.contains("\"epoch\":"), "{body}");
    assert!(
        body.contains("\"plan_cache\":{\"entries\":1,\"capacity\":8,\"hits\":2,\"misses\":1"),
        "{body}"
    );
    server.shutdown();

    // A zero-entry cache reads as disabled.
    let server = boot(ServerConfig { plan_cache: Some(0), ..ServerConfig::default() });
    let r = client::request(server.local_addr(), "GET", "/stats", &[], b"").unwrap();
    assert!(r.text().contains("\"plan_cache\":null"), "{}", r.text());
    server.shutdown();
}

#[test]
fn zero_capacity_sheds_everything_with_503() {
    let cfg = ServerConfig { max_in_flight: 0, ..ServerConfig::default() };
    let server = boot(cfg);
    let mut c = Client::connect(server.local_addr()).unwrap();
    let r = c.sparql_get(Q_KNOWS, None).unwrap();
    assert_eq!(r.status, 503);
    assert_eq!(r.header("retry-after"), Some("1"));
    assert!(r.text().contains("overloaded"), "{}", r.text());
    // The two mutation endpoints shed through the same gate.
    let addr = server.local_addr();
    let update = b"INSERT DATA { <http://ex/z> <http://ex/knows> <http://ex/carol> }";
    let insert = b"<http://ex/z> <http://ex/knows> <http://ex/carol> .\n";
    for (path, media, body) in [
        ("/update", "application/sparql-update", &update[..]),
        ("/insert", "application/n-triples", &insert[..]),
    ] {
        let r = client::request(addr, "POST", path, &[("Content-Type", media)], body).unwrap();
        assert_eq!(r.status, 503, "{path}: {}", r.text());
        assert_eq!(r.header("retry-after"), Some("1"), "{path}");
        assert!(r.text().contains("overloaded"), "{path}: {}", r.text());
    }
    // Health stays green while queries shed: the probe is not admission-
    // controlled.
    let r = client::request(server.local_addr(), "GET", "/healthz", &[], b"").unwrap();
    assert_eq!(r.status, 200);
    let r = client::request(server.local_addr(), "GET", "/stats", &[], b"").unwrap();
    assert!(r.text().contains("\"shed\":3"), "{}", r.text());
    server.shutdown();
}

#[test]
fn row_budget_trips_surface_as_503() {
    // A budget of 1 row cannot evaluate anything: the admitted query is
    // shed by the budget layer rather than running away.
    let cfg = ServerConfig { row_budget: Some(1), ..ServerConfig::default() };
    let server = boot(cfg);
    let mut c = Client::connect(server.local_addr()).unwrap();
    let r = c
        .sparql_get("SELECT ?a ?b WHERE { ?a <http://ex/knows> ?x . ?y <http://ex/knows> ?b }", None)
        .unwrap();
    assert_eq!(r.status, 503, "{}", r.text());
    assert!(r.text().contains("evaluation limits"), "{}", r.text());
    server.shutdown();
}

#[test]
fn keep_alive_serves_many_requests_per_connection() {
    let server = boot(ServerConfig::default());
    let mut c = Client::connect(server.local_addr()).unwrap();
    for i in 0..20 {
        let r = c.sparql_get(Q_KNOWS, None).unwrap();
        assert_eq!(r.status, 200, "request {i}");
    }
    server.shutdown();
}

#[test]
fn graceful_shutdown_drains_in_flight_requests() {
    let cfg = ServerConfig { workers: 2, deadline: Some(Duration::from_secs(10)), ..Default::default() };
    let server = boot(cfg);
    let addr = server.local_addr();
    // A slow-ish query (cross join) racing shutdown: it must complete with
    // a well-formed response, not a torn or reset connection.
    let handle = std::thread::spawn(move || {
        let mut c = Client::connect(addr).unwrap();
        c.sparql_get(
            "SELECT ?a ?b WHERE { ?a <http://ex/knows> ?x . ?y <http://ex/knows> ?b }",
            None,
        )
        .unwrap()
    });
    std::thread::sleep(Duration::from_millis(30));
    server.shutdown();
    let r = handle.join().expect("client thread");
    assert!(r.status == 200 || r.status == 503, "status {}", r.status);
    if r.status == 200 {
        assert!(r.text().contains("bindings"), "{}", r.text());
    }
}

#[test]
fn requests_after_shutdown_are_refused() {
    let server = boot(ServerConfig::default());
    let addr = server.local_addr();
    server.shutdown();
    assert!(client::request(addr, "GET", "/healthz", &[], b"").is_err());
}

// -- POST /update ----------------------------------------------------------

#[test]
fn post_update_with_sparql_update_body() {
    let server = boot(ServerConfig::default());
    let addr = server.local_addr();
    let r = client::request(
        addr,
        "POST",
        "/update",
        &[("Content-Type", "application/sparql-update")],
        b"INSERT DATA { <http://ex/dave> <http://ex/knows> <http://ex/carol> }",
    )
    .unwrap();
    assert_eq!(r.status, 200, "{}", r.text());
    assert_eq!(r.header("content-type"), Some("application/json"));
    assert_eq!(r.text().trim(), r#"{"inserted":1,"deleted":0}"#);

    // The mutation is immediately visible to queries.
    let mut c = Client::connect(addr).unwrap();
    let q = c.sparql_get(Q_KNOWS, None).unwrap();
    assert!(q.text().contains("http://ex/dave"), "{}", q.text());
    server.shutdown();
}

#[test]
fn post_update_form_encoded_delete_insert() {
    let server = boot(ServerConfig::default());
    let addr = server.local_addr();
    // Rename the predicate of every knows-triple; counts are effect-based.
    let update = "DELETE { ?s <http://ex/knows> ?o } \
                  INSERT { ?s <http://ex/met> ?o } \
                  WHERE { ?s <http://ex/knows> ?o }";
    let body = format!("update={}", percent_encode(update));
    let r = client::request(
        addr,
        "POST",
        "/update",
        &[("Content-Type", "application/x-www-form-urlencoded")],
        body.as_bytes(),
    )
    .unwrap();
    assert_eq!(r.status, 200, "{}", r.text());
    assert_eq!(r.text().trim(), r#"{"inserted":3,"deleted":3}"#);

    let mut c = Client::connect(addr).unwrap();
    let gone = c.sparql_get(Q_KNOWS, None).unwrap();
    assert!(!gone.text().contains("alice"), "{}", gone.text());
    let moved = c
        .sparql_get("SELECT ?x WHERE { ?x <http://ex/met> <http://ex/carol> }", None)
        .unwrap();
    assert!(moved.text().contains("alice"), "{}", moved.text());
    server.shutdown();
}

#[test]
fn update_protocol_errors() {
    let server = boot(ServerConfig::default());
    let addr = server.local_addr();

    // Parse errors are the client's fault: 400 with the parser message.
    let r = client::request(
        addr,
        "POST",
        "/update",
        &[("Content-Type", "application/sparql-update")],
        b"INSERT DATA { ?v <http://ex/p> 1 }",
    )
    .unwrap();
    assert_eq!(r.status, 400, "{}", r.text());
    assert!(r.text().contains("DATA"), "{}", r.text());

    // Missing parameter on a form body.
    let r = client::request(addr, "POST", "/update", &[], b"query=ASK%20%7B%7D").unwrap();
    assert_eq!(r.status, 400, "{}", r.text());
    assert!(r.text().contains("update"), "{}", r.text());

    // Wrong media type.
    let r = client::request(
        addr,
        "POST",
        "/update",
        &[("Content-Type", "text/turtle")],
        b"INSERT DATA { <http://a> <http://b> <http://c> }",
    )
    .unwrap();
    assert_eq!(r.status, 406, "{}", r.text());

    // Non-POST methods.
    let r = client::request(addr, "GET", "/update", &[], b"").unwrap();
    assert_eq!(r.status, 405);
    assert_eq!(r.header("allow"), Some("POST"));
    server.shutdown();
}

#[test]
fn stats_expose_update_and_group_commit_counters() {
    let server = boot(ServerConfig::default());
    let addr = server.local_addr();
    for i in 0..3 {
        let body = format!(
            "INSERT DATA {{ <http://ex/u{i}> <http://ex/knows> <http://ex/carol> }}"
        );
        let r = client::request(
            addr,
            "POST",
            "/update",
            &[("Content-Type", "application/sparql-update")],
            body.as_bytes(),
        )
        .unwrap();
        assert_eq!(r.status, 200, "{}", r.text());
    }
    // An /insert body is an update request too: it moves the same counters.
    let r = client::request(
        addr,
        "POST",
        "/insert",
        &[("Content-Type", "application/n-triples")],
        b"<http://ex/u9> <http://ex/knows> <http://ex/carol> .\n",
    )
    .unwrap();
    assert_eq!(r.status, 200, "{}", r.text());
    let r = client::request(addr, "GET", "/stats", &[], b"").unwrap();
    assert_eq!(r.status, 200);
    let body = r.text();
    assert!(body.contains("\"updates\":{\"groups\":4,\"applied\":4,"), "{body}");
    assert!(body.contains("\"batch_sizes\":{\"1\":"), "{body}");
    assert!(body.contains("\"invalidations_avoided\":"), "{body}");
    assert!(body.contains("\"update\":{"), "{body}");
    server.shutdown();
}
