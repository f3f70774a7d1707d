//! SPARQL 1.1 Protocol server over the shared RDF store.
//!
//! A std-only HTTP/1.1 endpoint (own parser, `std::net::TcpListener`, fixed
//! worker-thread pool) serving:
//!
//! * `GET /sparql?query=…` and `POST /sparql` (form-encoded or
//!   `application/sparql-query` bodies) — concurrent read queries against a
//!   [`SharedStore`] snapshot (readers run against the last published
//!   immutable state and are never blocked by writers), results in W3C
//!   SPARQL 1.1 JSON or TSV by content negotiation (`Accept` header or
//!   `format=json|tsv` parameter);
//! * `POST /update` (form-encoded or `application/sparql-update` bodies) —
//!   SPARQL 1.1 Update requests, group-committed with whatever concurrent
//!   updates are in flight (one fsync per group; see DESIGN.md §4.12). A
//!   store degraded to read-only refuses them with 503 + `Retry-After`;
//! * `POST /insert` — an N-Triples body, parsed as it streams in; every 512
//!   triples go through the same queue as one `INSERT DATA` request;
//! * `GET /healthz` — liveness probe;
//! * `GET /stats` — load report plus per-endpoint counters, update/group-
//!   commit counters, and latency quantiles from the in-repo histogram.
//!
//! Admission control is layered (DESIGN.md §4.8): a global in-flight cap
//! sheds excess requests — queries, updates and inserts alike — with 503 +
//! `Retry-After` *before* they touch the store, and every admitted query
//! runs under the store's existing row-budget and wall-clock-deadline
//! knobs, whose trips also surface as 503 — so one pathological query can
//! burn at most `row_budget`/`deadline`, and at most `max_in_flight` of
//! them can burn it concurrently. Service errors never tear down a worker: store
//! panics are caught at the boundary and become 500s.
//!
//! [`Server::shutdown`] is graceful: the listener stops accepting, workers
//! finish the requests they are executing, idle keep-alive connections are
//! closed at the next read-timeout tick, and the call returns when every
//! worker has exited.

pub mod http;
pub mod metrics;

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use db2rdf::sparql::{Update, UpdateOp};
use db2rdf::{SharedStore, StoreError};

use http::{parse_urlencoded, Conn, ReadError, Request, Response};
use metrics::EndpointStats;

/// Server tuning knobs. The row budget and deadline are applied to the
/// shared store when the server starts (they are per-query limits; each
/// concurrent query gets its own deadline clock at execution start).
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Fixed worker-pool width (each worker owns one connection at a time).
    pub workers: usize,
    /// Global cap on queries being evaluated at once; excess get 503.
    pub max_in_flight: usize,
    /// Request-body cap in bytes; larger uploads get 413.
    pub max_body_bytes: usize,
    /// Per-query row budget applied to the store (None = leave as-is).
    pub row_budget: Option<u64>,
    /// Per-query wall-clock deadline applied to the store (None = as-is).
    pub deadline: Option<Duration>,
    /// Plan-cache capacity applied to the store at startup (None = leave
    /// the store's own configuration; `Some(0)` disables caching).
    pub plan_cache: Option<usize>,
    /// Wall-clock bound on receiving one request, first byte to last (the
    /// slowloris guard): a peer trickling bytes gets 408 and is
    /// disconnected when the deadline expires. Idle keep-alive waits
    /// between requests are not counted.
    pub recv_deadline: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            max_in_flight: 64,
            max_body_bytes: 1 << 20,
            row_budget: None,
            deadline: None,
            plan_cache: None,
            recv_deadline: Duration::from_secs(10),
        }
    }
}

/// Poll interval for idle keep-alive connections (also bounds how long
/// shutdown waits for workers parked on an idle connection).
const IDLE_TICK: Duration = Duration::from_millis(100);

struct Inner {
    store: SharedStore,
    cfg: ServerConfig,
    shutdown: AtomicBool,
    in_flight: AtomicUsize,
    /// Requests shed by the in-flight cap (503s from admission control).
    shed: AtomicU64,
    started: Instant,
    sparql: EndpointStats,
    update: EndpointStats,
    insert: EndpointStats,
    healthz: EndpointStats,
    stats: EndpointStats,
    /// 404s/405s — anything that matched no endpoint.
    other: EndpointStats,
}

/// A running SPARQL Protocol server; dropping it without calling
/// [`Server::shutdown`] aborts the process-exit path ungracefully, so call
/// `shutdown()` when done.
pub struct Server {
    inner: Arc<Inner>,
    addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Bind `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and start
    /// serving on a fixed pool of worker threads.
    pub fn start(
        store: SharedStore,
        addr: &str,
        cfg: ServerConfig,
    ) -> std::io::Result<Server> {
        {
            let mut guard = store.write();
            if cfg.row_budget.is_some() {
                guard.set_row_budget(cfg.row_budget);
            }
            if cfg.deadline.is_some() {
                guard.set_deadline(cfg.deadline);
            }
            if let Some(entries) = cfg.plan_cache {
                guard.set_plan_cache(entries);
            }
        }
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let inner = Arc::new(Inner {
            store,
            cfg: cfg.clone(),
            shutdown: AtomicBool::new(false),
            in_flight: AtomicUsize::new(0),
            shed: AtomicU64::new(0),
            started: Instant::now(),
            sparql: EndpointStats::default(),
            update: EndpointStats::default(),
            insert: EndpointStats::default(),
            healthz: EndpointStats::default(),
            stats: EndpointStats::default(),
            other: EndpointStats::default(),
        });

        let (tx, rx): (Sender<Conn>, Receiver<Conn>) = std::sync::mpsc::channel();
        let rx = Arc::new(Mutex::new(rx));
        let workers = (0..cfg.workers.max(1))
            .map(|i| {
                let inner = inner.clone();
                let rx = rx.clone();
                let tx = tx.clone();
                std::thread::Builder::new()
                    .name(format!("sparql-worker-{i}"))
                    .spawn(move || worker_loop(&inner, &tx, &rx))
                    .expect("spawn worker thread")
            })
            .collect();

        let acceptor = {
            let inner = inner.clone();
            std::thread::Builder::new()
                .name("sparql-accept".into())
                .spawn(move || accept_loop(&inner, &listener, tx))
                .expect("spawn acceptor thread")
        };

        Ok(Server { inner, addr: local, acceptor: Some(acceptor), workers })
    }

    /// The bound address (resolves the ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current number of queries being evaluated.
    pub fn in_flight(&self) -> usize {
        self.inner.in_flight.load(Ordering::Relaxed)
    }

    /// Graceful shutdown: stop accepting, drain in-flight requests, join
    /// every thread. Idempotent-ish: safe to call once (consumes self).
    pub fn shutdown(mut self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        // Unblock the acceptor's blocking accept() with a wake-up dial.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        // Workers finish the request they are serving, close connections
        // at their next turn, and exit within one IDLE_TICK of going idle.
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

fn accept_loop(inner: &Inner, listener: &TcpListener, tx: Sender<Conn>) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if inner.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                let _ = stream.set_read_timeout(Some(IDLE_TICK));
                let _ = stream.set_nodelay(true);
                if tx.send(Conn::new(stream)).is_err() {
                    return;
                }
            }
            Err(_) => {
                if inner.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                // Transient accept failure (e.g. EMFILE): back off briefly.
                std::thread::sleep(IDLE_TICK);
            }
        }
    }
}

/// Workers multiplex connections through the shared ready queue: each turn
/// serves at most one request off a connection, then requeues it. Under
/// more keep-alive connections than workers this degrades to fair
/// round-robin per request instead of convoying whole connections (the
/// p99 at 16 clients is queueing delay, not head-of-line blocking).
fn worker_loop(inner: &Inner, tx: &Sender<Conn>, rx: &Mutex<Receiver<Conn>>) {
    loop {
        // Hold the lock only for the dequeue, never while serving.
        let next = {
            let guard = rx.lock().unwrap_or_else(|p| p.into_inner());
            guard.recv_timeout(IDLE_TICK)
        };
        match next {
            Ok(conn) => {
                if let Some(conn) = serve_turn(inner, conn) {
                    if tx.send(conn).is_err() {
                        return;
                    }
                }
            }
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                if inner.shutdown.load(Ordering::SeqCst) {
                    return;
                }
            }
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => return,
        }
    }
}

/// One scheduling turn on a connection: serve the next request (waiting at
/// most one [`IDLE_TICK`] for it), answer protocol errors, and return the
/// connection if it should stay open. `None` closes it.
fn serve_turn(inner: &Inner, mut conn: Conn) -> Option<Conn> {
    match conn.read_request_head(inner.cfg.max_body_bytes, inner.cfg.recv_deadline) {
        Ok((mut req, mut body)) => {
            let t0 = Instant::now();
            // During shutdown, finish this request but don't linger.
            let mut keep = req.keep_alive() && !inner.shutdown.load(Ordering::SeqCst);
            let (endpoint, resp) = if req.method == "POST" && req.path == "/insert" {
                // Streaming path: the N-Triples body is parsed as it
                // arrives, never buffered whole. If the handler bailed with
                // body bytes unread, drain them (bounded by the size cap
                // and the receive clock) so the connection stays framed.
                let resp = handle_insert(inner, &req, &mut body);
                if body.remaining() > 0 && body.drain().is_err() {
                    keep = false;
                }
                if body.timed_out() {
                    keep = false;
                }
                (Endpoint::Insert, resp)
            } else {
                // Buffered path: every other endpoint sees the whole body.
                let mut buf = Vec::new();
                match body.read_to_end(&mut buf) {
                    Ok(_) => {
                        req.body = buf;
                        route(inner, &req)
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::TimedOut => {
                        let resp = Response::text(
                            408,
                            format!(
                                "request not received within {:?}: connection closed",
                                inner.cfg.recv_deadline
                            ),
                        );
                        let _ = resp.write_to(conn.stream(), false);
                        return None;
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => {
                        let resp =
                            Response::text(400, "malformed request: unexpected EOF in body");
                        let _ = resp.write_to(conn.stream(), false);
                        return None;
                    }
                    Err(_) => return None,
                }
            };
            endpoint_stats(inner, endpoint).record(resp.status, t0.elapsed());
            if resp.write_to(conn.stream(), keep).is_err() || !keep {
                return None;
            }
            Some(conn)
        }
        Err(ReadError::Idle) => {
            if inner.shutdown.load(Ordering::SeqCst) {
                None
            } else {
                Some(conn)
            }
        }
        Err(ReadError::Closed) | Err(ReadError::Io(_)) => None,
        Err(ReadError::HeadTooLarge) => {
            let resp = Response::text(431, "request head too large");
            let _ = resp.write_to(conn.stream(), false);
            None
        }
        Err(ReadError::BodyTooLarge { declared, cap }) => {
            let resp = Response::text(
                413,
                format!("request body of {declared} bytes exceeds the {cap}-byte limit"),
            );
            let _ = resp.write_to(conn.stream(), false);
            None
        }
        Err(ReadError::Timeout) => {
            // Slowloris guard: the request trickled past the receive
            // deadline. Answer 408 and disconnect — the unread remainder
            // cannot be framed for another request.
            let resp = Response::text(
                408,
                format!(
                    "request not received within {:?}: connection closed",
                    inner.cfg.recv_deadline
                ),
            );
            let _ = resp.write_to(conn.stream(), false);
            None
        }
        Err(ReadError::TransferEncodingUnsupported) => {
            // RFC 7230 §3.3.1: an unimplemented transfer coding is 501.
            // The connection must close — the body was never read, so the
            // stream cannot be re-framed for another request.
            let resp = Response::text(
                501,
                "Transfer-Encoding is not implemented: send a Content-Length-framed body",
            );
            let _ = resp.write_to(conn.stream(), false);
            None
        }
        Err(ReadError::Malformed(m)) => {
            let resp = Response::text(400, format!("malformed request: {m}"));
            let _ = resp.write_to(conn.stream(), false);
            None
        }
    }
}

enum Endpoint {
    Sparql,
    Update,
    Insert,
    Healthz,
    Stats,
    Other,
}

fn endpoint_stats(inner: &Inner, e: Endpoint) -> &EndpointStats {
    match e {
        Endpoint::Sparql => &inner.sparql,
        Endpoint::Update => &inner.update,
        Endpoint::Insert => &inner.insert,
        Endpoint::Healthz => &inner.healthz,
        Endpoint::Stats => &inner.stats,
        Endpoint::Other => &inner.other,
    }
}

fn route(inner: &Inner, req: &Request) -> (Endpoint, Response) {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") | ("HEAD", "/healthz") => {
            // Degraded is still alive (reads keep working), so the probe
            // stays 200 — the body tells orchestration *which* alive.
            let body = if inner.store.is_read_only() { "degraded" } else { "ok" };
            (Endpoint::Healthz, Response::text(200, body))
        }
        ("GET", "/stats") => (
            Endpoint::Stats,
            Response::new(200, "application/json", stats_json(inner).into_bytes()),
        ),
        // POST /insert is routed before the body is buffered (see
        // `serve_turn`); only non-POST methods reach this table.
        (_, "/insert") => (
            Endpoint::Insert,
            Response::text(405, "use POST with an N-Triples body on /insert")
                .with_header("Allow", "POST"),
        ),
        ("POST", "/update") => (Endpoint::Update, handle_update(inner, req)),
        (_, "/update") => (
            Endpoint::Update,
            Response::text(405, "use POST with a SPARQL Update body on /update")
                .with_header("Allow", "POST"),
        ),
        (_, "/sparql") => (Endpoint::Sparql, handle_sparql(inner, req)),
        ("GET", _) | ("HEAD", _) | ("POST", _) => {
            (Endpoint::Other, Response::text(404, format!("no such path {:?}", req.path)))
        }
        (m, _) => (
            Endpoint::Other,
            Response::text(405, format!("method {m} not supported"))
                .with_header("Allow", "GET, POST, HEAD"),
        ),
    }
}

/// Result formats the endpoint can produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Format {
    Json,
    Tsv,
}

const JSON_MEDIA: &str = "application/sparql-results+json";
const TSV_MEDIA: &str = "text/tab-separated-values; charset=utf-8";

/// The negotiated result format, plus whether the client would *also*
/// accept JSON — needed because the TSV format has no boolean form, so an
/// ASK result steered to TSV falls back to JSON when the client allows it
/// and is refused with 406 when it demanded TSV exclusively.
#[derive(Debug, Clone, Copy)]
struct Negotiated {
    format: Format,
    json_ok: bool,
}

/// Pick a result format from the `format` parameter or `Accept` header.
/// Unknown explicit requests are a 406 (per the service-boundary error
/// contract; the supported types are listed in the message).
fn negotiate_format(req: &Request) -> Result<Negotiated, Response> {
    if let Some(f) = req.query_param("format") {
        return match f.to_ascii_lowercase().as_str() {
            "json" => Ok(Negotiated { format: Format::Json, json_ok: true }),
            // An explicit format=tsv is a hard demand: no JSON fallback.
            "tsv" => Ok(Negotiated { format: Format::Tsv, json_ok: false }),
            other => Err(Response::text(
                406,
                format!("unknown format {other:?}: use format=json or format=tsv"),
            )),
        };
    }
    let Some(accept) = req.header("accept") else {
        return Ok(Negotiated { format: Format::Json, json_ok: true });
    };
    let mut wildcard = false;
    let mut json = false;
    let mut first: Option<Format> = None;
    for part in accept.split(',') {
        let media = part.split(';').next().unwrap_or("").trim().to_ascii_lowercase();
        match media.as_str() {
            "application/sparql-results+json" | "application/json" => {
                json = true;
                first.get_or_insert(Format::Json);
            }
            "text/tab-separated-values" => {
                first.get_or_insert(Format::Tsv);
            }
            "*/*" | "application/*" | "text/*" => wildcard = true,
            _ => {}
        }
    }
    match first {
        Some(format) => Ok(Negotiated { format, json_ok: json || wildcard }),
        None if wildcard => Ok(Negotiated { format: Format::Json, json_ok: true }),
        None => Err(Response::text(
            406,
            format!(
                "no acceptable result media type in {accept:?}: supported are \
                 application/sparql-results+json and text/tab-separated-values"
            ),
        )),
    }
}

/// Extract the SPARQL query text per the SPARQL 1.1 Protocol: the `query`
/// parameter on GET; form-encoded or `application/sparql-query` bodies on
/// POST.
fn extract_query(req: &Request) -> Result<String, Response> {
    match req.method.as_str() {
        "GET" => match req.query_param("query") {
            Some(q) => Ok(q.to_string()),
            None => Err(Response::text(400, "missing required parameter: query")),
        },
        "POST" => {
            let media = req.media_type().unwrap_or_default();
            match media.as_str() {
                "application/x-www-form-urlencoded" | "" => {
                    let body = std::str::from_utf8(&req.body).map_err(|_| {
                        Response::text(400, "form body is not valid UTF-8")
                    })?;
                    let pairs = parse_urlencoded(body)
                        .map_err(|e| Response::text(400, format!("bad form body: {e}")))?;
                    match pairs.into_iter().find(|(k, _)| k == "query") {
                        Some((_, q)) => Ok(q),
                        None => Err(Response::text(400, "missing required parameter: query")),
                    }
                }
                "application/sparql-query" => match std::str::from_utf8(&req.body) {
                    Ok(q) => Ok(q.to_string()),
                    Err(_) => Err(Response::text(400, "query body is not valid UTF-8")),
                },
                other => Err(Response::text(
                    406,
                    format!(
                        "unsupported request media type {other:?}: use \
                         application/x-www-form-urlencoded or application/sparql-query"
                    ),
                )),
            }
        }
        m => Err(Response::text(405, format!("method {m} not allowed on /sparql"))
            .with_header("Allow", "GET, POST")),
    }
}

/// Extract the SPARQL Update text per the SPARQL 1.1 Protocol: POST only,
/// with a form-encoded `update` parameter or an `application/sparql-update`
/// body.
fn extract_update(req: &Request) -> Result<String, Response> {
    let media = req.media_type().unwrap_or_default();
    match media.as_str() {
        "application/x-www-form-urlencoded" | "" => {
            let body = std::str::from_utf8(&req.body)
                .map_err(|_| Response::text(400, "form body is not valid UTF-8"))?;
            let pairs = parse_urlencoded(body)
                .map_err(|e| Response::text(400, format!("bad form body: {e}")))?;
            match pairs.into_iter().find(|(k, _)| k == "update") {
                Some((_, u)) => Ok(u),
                None => Err(Response::text(400, "missing required parameter: update")),
            }
        }
        "application/sparql-update" => match std::str::from_utf8(&req.body) {
            Ok(u) => Ok(u.to_string()),
            Err(_) => Err(Response::text(400, "update body is not valid UTF-8")),
        },
        other => Err(Response::text(
            406,
            format!(
                "unsupported request media type {other:?}: use \
                 application/x-www-form-urlencoded or application/sparql-update"
            ),
        )),
    }
}

/// RAII admission slot: decrements the in-flight gauge on every exit path.
struct Admission<'a>(&'a AtomicUsize);

impl Drop for Admission<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// The one way a handler touches the store: take an in-flight slot or shed
/// with 503 + `Retry-After` *before* any store work, run `work` behind a
/// panic boundary (the audit in DESIGN.md §4.8 found no reachable panic in
/// the translate/query/update paths, but the server must not bet its
/// workers on that invariant holding forever), release the slot on every
/// exit. `Err` is the response to send instead of `work`'s result.
fn admitted<T>(inner: &Inner, what: &str, work: impl FnOnce() -> T) -> Result<T, Response> {
    let prev = inner.in_flight.fetch_add(1, Ordering::SeqCst);
    let _slot = Admission(&inner.in_flight);
    if prev >= inner.cfg.max_in_flight {
        inner.shed.fetch_add(1, Ordering::Relaxed);
        return Err(Response::text(
            503,
            format!(
                "server overloaded: {} requests in flight (cap {})",
                prev + 1,
                inner.cfg.max_in_flight
            ),
        )
        .with_header("Retry-After", "1"));
    }
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(work))
        .map_err(|_| Response::text(500, format!("internal error: {what} evaluation panicked")))
}

fn handle_sparql(inner: &Inner, req: &Request) -> Response {
    let negotiated = match negotiate_format(req) {
        Ok(n) => n,
        Err(resp) => return resp,
    };
    let sparql = match extract_query(req) {
        Ok(q) => q,
        Err(resp) => return resp,
    };

    match admitted(inner, "query", || inner.store.query(&sparql)) {
        Err(resp) => resp,
        Ok(Err(e)) => store_error_response(&e),
        Ok(Ok(solutions)) => {
            // The W3C TSV format defines no boolean form: an ASK result
            // negotiated to TSV steers to JSON when the client also
            // accepts it, and is refused otherwise.
            let format = match (solutions.boolean.is_some(), negotiated.format) {
                (true, Format::Tsv) if negotiated.json_ok => Format::Json,
                (true, Format::Tsv) => {
                    return Response::text(
                        406,
                        "the SPARQL TSV result format does not define ASK results: \
                         accept application/sparql-results+json for boolean queries",
                    )
                }
                (_, f) => f,
            };
            match format {
                Format::Json => {
                    Response::new(200, JSON_MEDIA, solutions.to_json().into_bytes())
                }
                Format::Tsv => Response::new(200, TSV_MEDIA, solutions.to_tsv().into_bytes()),
            }
        }
    }
}

/// Handle `POST /update`: a SPARQL 1.1 Update request, applied through the
/// store's group-commit queue — the response is sent only after the
/// request's group fsynced, so a 200 means durable. Shares the global
/// in-flight admission cap with `/sparql` (an update occupies a worker just
/// the same); a degraded store refuses before parsing with 503 +
/// `Retry-After`.
fn handle_update(inner: &Inner, req: &Request) -> Response {
    let text = match extract_update(req) {
        Ok(u) => u,
        Err(resp) => return resp,
    };
    if inner.store.is_read_only() {
        return degraded_response();
    }

    match admitted(inner, "update", || inner.store.update(&text)) {
        Err(resp) => resp,
        Ok(Err(e)) => store_error_response(&e),
        Ok(Ok(outcome)) => Response::new(
            200,
            "application/json",
            format!(
                "{{\"inserted\":{},\"deleted\":{}}}\n",
                outcome.inserted, outcome.deleted
            )
            .into_bytes(),
        ),
    }
}

/// Handle `POST /insert`: an N-Triples body, one triple per line. The body
/// is *streamed* — parsed in line-aligned chunks as it arrives off the
/// socket (`rdf::NtStream`), so an upload near the size cap costs
/// chunk-sized memory, not the body; the cap itself was enforced from
/// `Content-Length` before any body byte was read. Every `INSERT_CHUNK`
/// triples go to the store as one `INSERT DATA` request through the same
/// group-commit queue as `/update`: one WAL frame, one group fsync,
/// all-or-nothing per chunk, counted in `/stats`' update counters. The
/// whole upload holds one admission slot and runs behind the panic
/// boundary, like every other store-touching handler. A store that
/// degraded to read-only refuses with 503 + `Retry-After` — checked up
/// front so a doomed upload is rejected before parsing, and again by the
/// queue per chunk in case degradation races the check. Chunks committed
/// before a later line (or chunk) fails stay committed.
fn handle_insert(inner: &Inner, req: &Request, body: &mut http::BodyReader<'_>) -> Response {
    match req.media_type().as_deref() {
        None | Some("application/n-triples" | "text/plain") => {}
        Some(other) => {
            return Response::text(
                406,
                format!("unsupported media type {other:?}: send application/n-triples"),
            )
        }
    }
    if inner.store.is_read_only() {
        return degraded_response();
    }
    admitted(inner, "insert", || stream_insert(inner, body)).unwrap_or_else(|resp| resp)
}

fn stream_insert(inner: &Inner, body: &mut http::BodyReader<'_>) -> Response {
    const INSERT_CHUNK: usize = 512;
    let mut received = 0usize;
    let mut inserted = 0u64;
    let mut chunk: Vec<rdf::Triple> = Vec::with_capacity(INSERT_CHUNK);
    let flush = |chunk: &mut Vec<rdf::Triple>| -> Result<u64, Response> {
        if chunk.is_empty() {
            return Ok(0);
        }
        let ops = vec![UpdateOp::InsertData(std::mem::take(chunk))];
        match inner.store.apply_parsed_update(Update { ops }) {
            Ok(outcome) => Ok(outcome.inserted),
            Err(e) => Err(store_error_response(&e)),
        }
    };
    for quad in rdf::NtStream::new(&mut *body) {
        let quad = match quad {
            Ok(q) => q,
            Err(_) if body.timed_out() => {
                return Response::text(
                    408,
                    format!(
                        "request body not received within {:?}: connection closed",
                        inner.cfg.recv_deadline
                    ),
                );
            }
            Err(e) => return Response::text(400, format!("bad N-Triples body: {e}")),
        };
        received += 1;
        chunk.push(quad.triple);
        if chunk.len() >= INSERT_CHUNK {
            match flush(&mut chunk) {
                Ok(n) => inserted += n,
                Err(resp) => return resp,
            }
        }
    }
    match flush(&mut chunk) {
        Ok(n) => inserted += n,
        Err(resp) => return resp,
    }
    Response::new(
        200,
        "application/json",
        format!("{{\"received\":{received},\"inserted\":{inserted}}}\n").into_bytes(),
    )
}

/// The mutation-refused shape for a read-only (degraded) store.
fn degraded_response() -> Response {
    Response::text(
        503,
        "store is read-only: durability degraded after an I/O failure; \
         mutations are refused until the store is reopened on healthy storage",
    )
    .with_header("Retry-After", "5")
}

/// Map a store error onto the HTTP boundary: client mistakes are 400 with
/// the parser/translator message, resource-limit trips are 503 (the query
/// was shed by admission control's budget/deadline layer), a degraded
/// store's write refusal is 503 + `Retry-After`, the rest 500.
fn store_error_response(e: &StoreError) -> Response {
    match e {
        StoreError::Sparql(_) | StoreError::Unsupported(_) => {
            Response::text(400, e.to_string())
        }
        _ if e.is_timeout() => Response::text(
            503,
            format!("query exceeded the server's evaluation limits: {e}"),
        )
        .with_header("Retry-After", "1"),
        _ if e.is_read_only() => degraded_response(),
        StoreError::Sql(_) => Response::text(500, e.to_string()),
    }
}

/// Best-effort resident-set size of this process in bytes, from Linux's
/// `/proc/self/status` (`VmRSS:` line, reported in kB). Returns `None`
/// anywhere the procfs line is missing or unparsable — `/stats` then
/// reports `"rss_bytes":null` rather than a guess.
fn resident_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

fn stats_json(inner: &Inner) -> String {
    let report = inner.store.load_report();
    let plan_cache = match inner.store.plan_cache_stats() {
        Some(s) => format!(
            "{{\"entries\":{},\"capacity\":{},\"hits\":{},\"misses\":{},\
             \"evictions\":{},\"invalidations\":{},\"invalidations_avoided\":{}}}",
            s.entries,
            s.capacity,
            s.hits,
            s.misses,
            s.evictions,
            s.invalidations,
            s.invalidations_avoided,
        ),
        None => "null".into(),
    };
    let u = inner.store.update_stats();
    let batches: Vec<String> = db2rdf::BATCH_BUCKET_LABELS
        .iter()
        .zip(u.batch_sizes)
        .map(|(label, n)| format!("\"{label}\":{n}"))
        .collect();
    let updates = format!(
        "{{\"groups\":{},\"applied\":{},\"failed\":{},\"batch_sizes\":{{{}}}}}",
        u.groups,
        u.applied,
        u.failed,
        batches.join(","),
    );
    let dict = inner.store.dict_stats();
    let rss = match resident_bytes() {
        Some(b) => b.to_string(),
        None => "null".into(),
    };
    format!(
        "{{\"uptime_secs\":{},\"triples\":{},\"workers\":{},\"exec_threads\":{},\
         \"in_flight\":{},\
         \"max_in_flight\":{},\"shed\":{},\"epoch\":{},\"degraded\":{},\"rss_bytes\":{rss},\
         \"dict\":{{\"entries\":{},\"raw_bytes\":{},\"compressed_bytes\":{}}},\
         \"plan_cache\":{},\"updates\":{},\
         \"endpoints\":{{\"sparql\":{},\"update\":{},\"insert\":{},\"healthz\":{},\
         \"stats\":{},\"other\":{}}}}}\n",
        inner.started.elapsed().as_secs(),
        report.triples,
        inner.cfg.workers,
        inner.store.threads(),
        inner.in_flight.load(Ordering::Relaxed),
        inner.cfg.max_in_flight,
        inner.shed.load(Ordering::Relaxed),
        inner.store.epoch(),
        inner.store.is_read_only(),
        dict.entries,
        dict.raw_bytes,
        dict.compressed_bytes,
        plan_cache,
        updates,
        inner.sparql.to_json(),
        inner.update.to_json(),
        inner.insert.to_json(),
        inner.healthz.to_json(),
        inner.stats.to_json(),
        inner.other.to_json(),
    )
}

// ---------------------------------------------------------------------------
// Minimal HTTP client — used by the integration tests and
// `db2rdf-serve --smoke` (the curl stand-in).
// ---------------------------------------------------------------------------

pub mod client {
    use super::*;
    use std::io::Read;

    /// A parsed HTTP response.
    #[derive(Debug)]
    pub struct HttpResponse {
        pub status: u16,
        pub headers: Vec<(String, String)>,
        pub body: Vec<u8>,
    }

    impl HttpResponse {
        pub fn text(&self) -> String {
            String::from_utf8_lossy(&self.body).into_owned()
        }

        pub fn header(&self, name: &str) -> Option<&str> {
            let name = name.to_ascii_lowercase();
            self.headers.iter().find(|(n, _)| *n == name).map(|(_, v)| v.as_str())
        }
    }

    /// A keep-alive client bound to one server address.
    pub struct Client {
        addr: SocketAddr,
        stream: TcpStream,
    }

    impl Client {
        pub fn connect(addr: SocketAddr) -> std::io::Result<Client> {
            let stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(Duration::from_secs(30)))?;
            Ok(Client { addr, stream })
        }

        /// Issue one request on the persistent connection.
        pub fn request(
            &mut self,
            method: &str,
            path: &str,
            headers: &[(&str, &str)],
            body: &[u8],
        ) -> std::io::Result<HttpResponse> {
            let mut head = format!("{method} {path} HTTP/1.1\r\nHost: {}\r\n", self.addr);
            for (n, v) in headers {
                head.push_str(&format!("{n}: {v}\r\n"));
            }
            head.push_str(&format!("Content-Length: {}\r\n\r\n", body.len()));
            self.stream.write_all(head.as_bytes())?;
            self.stream.write_all(body)?;
            self.stream.flush()?;
            read_response(&mut self.stream)
        }

        /// Convenience: GET `/sparql` with a query and optional Accept.
        pub fn sparql_get(
            &mut self,
            sparql: &str,
            accept: Option<&str>,
        ) -> std::io::Result<HttpResponse> {
            let path = format!("/sparql?query={}", http::percent_encode(sparql));
            let headers: Vec<(&str, &str)> = match accept {
                Some(a) => vec![("Accept", a)],
                None => vec![],
            };
            self.request("GET", &path, &headers, b"")
        }
    }

    /// One-shot request on a fresh connection.
    pub fn request(
        addr: SocketAddr,
        method: &str,
        path: &str,
        headers: &[(&str, &str)],
        body: &[u8],
    ) -> std::io::Result<HttpResponse> {
        Client::connect(addr)?.request(method, path, headers, body)
    }

    /// Retry policy for [`request_with_retry`]: capped exponential backoff
    /// with deterministic jitter. The jitter is a pure function of
    /// `(seed, attempt)`, so a given policy always produces the same
    /// schedule — testable without clocks — while different seeds (e.g.
    /// per client) decorrelate retry storms.
    #[derive(Debug, Clone)]
    pub struct RetryPolicy {
        /// Total attempts, including the first (0 and 1 both mean "no
        /// retries").
        pub max_attempts: u32,
        /// Backoff before the first retry; doubles each retry after that.
        pub base: Duration,
        /// Upper bound on any single delay — also caps an honored
        /// `Retry-After`, so a misbehaving server cannot park the client.
        pub cap: Duration,
        /// Jitter seed.
        pub seed: u64,
    }

    impl Default for RetryPolicy {
        fn default() -> Self {
            RetryPolicy {
                max_attempts: 4,
                base: Duration::from_millis(50),
                cap: Duration::from_secs(2),
                seed: 0,
            }
        }
    }

    /// The delay before retry number `attempt` (1-based: `attempt = 1`
    /// follows the first failure): `base * 2^(attempt-1)` capped at
    /// `policy.cap`, then jittered into the upper half `[d/2, d]` so
    /// synchronized clients spread out without ever waiting longer than
    /// the uncapped schedule promises.
    pub fn retry_delay(policy: &RetryPolicy, attempt: u32) -> Duration {
        let exp = policy.base.saturating_mul(1u32 << attempt.saturating_sub(1).min(20));
        let capped = exp.min(policy.cap);
        // SplitMix64 over (seed, attempt): deterministic jitter.
        let mut z = policy
            .seed
            .wrapping_add((attempt as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let nanos = capped.as_nanos() as u64;
        Duration::from_nanos(nanos / 2 + z % (nanos / 2 + 1))
    }

    /// The full delay schedule a policy will use (one entry per retry).
    pub fn backoff_schedule(policy: &RetryPolicy) -> Vec<Duration> {
        (1..policy.max_attempts.max(1)).map(|a| retry_delay(policy, a)).collect()
    }

    /// [`request`] with retries: a fresh connection per attempt, retrying
    /// transport errors and 503 responses. A numeric `Retry-After` on a
    /// 503 overrides the computed backoff (capped at `policy.cap` — the
    /// server's hint is advice, not a hold). Anything else — including
    /// 4xx/5xx that retrying cannot fix — is returned as-is.
    pub fn request_with_retry(
        addr: SocketAddr,
        method: &str,
        path: &str,
        headers: &[(&str, &str)],
        body: &[u8],
        policy: &RetryPolicy,
    ) -> std::io::Result<HttpResponse> {
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            let result = request(addr, method, path, headers, body);
            let retryable = match &result {
                Ok(resp) => resp.status == 503,
                Err(_) => true,
            };
            if !retryable || attempt >= policy.max_attempts.max(1) {
                return result;
            }
            let mut delay = retry_delay(policy, attempt);
            if let Ok(resp) = &result {
                if let Some(secs) =
                    resp.header("retry-after").and_then(|v| v.trim().parse::<u64>().ok())
                {
                    delay = Duration::from_secs(secs).min(policy.cap);
                }
            }
            std::thread::sleep(delay);
        }
    }

    fn read_response(stream: &mut TcpStream) -> std::io::Result<HttpResponse> {
        let bad = |m: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, m.to_string());
        let mut buf = Vec::with_capacity(1024);
        let mut chunk = [0u8; 4096];
        let head_end = loop {
            if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos;
            }
            let n = stream.read(&mut chunk)?;
            if n == 0 {
                return Err(bad("EOF before response head"));
            }
            buf.extend_from_slice(&chunk[..n]);
        };
        let head = std::str::from_utf8(&buf[..head_end])
            .map_err(|_| bad("response head is not UTF-8"))?;
        let mut lines = head.split("\r\n");
        let status_line = lines.next().unwrap_or("");
        let status: u16 = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("bad status line"))?;
        let mut headers = Vec::new();
        for line in lines {
            if let Some((n, v)) = line.split_once(':') {
                headers.push((n.trim().to_ascii_lowercase(), v.trim().to_string()));
            }
        }
        let len: usize = headers
            .iter()
            .find(|(n, _)| n == "content-length")
            .and_then(|(_, v)| v.parse().ok())
            .ok_or_else(|| bad("missing Content-Length"))?;
        let body_start = head_end + 4;
        let mut body = buf[body_start..].to_vec();
        while body.len() < len {
            let n = stream.read(&mut chunk)?;
            if n == 0 {
                return Err(bad("EOF before full body"));
            }
            body.extend_from_slice(&chunk[..n]);
        }
        body.truncate(len);
        Ok(HttpResponse { status, headers, body })
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn backoff_schedule_is_deterministic() {
            let policy = RetryPolicy { max_attempts: 6, seed: 7, ..Default::default() };
            let a = backoff_schedule(&policy);
            let b = backoff_schedule(&policy);
            assert_eq!(a, b, "same seed must give the same schedule");
            assert_eq!(a.len(), 5, "one delay per retry");
            let other = backoff_schedule(&RetryPolicy { seed: 8, ..policy.clone() });
            assert_ne!(a[..other.len().min(a.len())], other[..], "different seeds decorrelate");
        }

        #[test]
        fn delays_grow_exponentially_within_bounds() {
            let policy = RetryPolicy {
                max_attempts: 16,
                base: Duration::from_millis(100),
                cap: Duration::from_secs(2),
                seed: 42,
            };
            for attempt in 1..=15u32 {
                let d = retry_delay(&policy, attempt);
                let exp = policy
                    .base
                    .saturating_mul(1 << (attempt - 1).min(20))
                    .min(policy.cap);
                assert!(d <= exp, "attempt {attempt}: {d:?} exceeds the uncapped bound {exp:?}");
                assert!(
                    d >= exp / 2,
                    "attempt {attempt}: {d:?} jittered below half of {exp:?}"
                );
                assert!(d <= policy.cap, "attempt {attempt}: {d:?} exceeds the cap");
            }
            // Once the exponential passes the cap, every delay sits in the
            // cap's upper half regardless of how large `attempt` grows.
            assert!(retry_delay(&policy, 30) >= policy.cap / 2);
        }
    }
}
