//! The load generator's HTTP/1.1 client: one keep-alive connection,
//! requests pre-rendered to bytes, responses read into a reused buffer,
//! short waits polled and long ones slept.
//! Kept separate from `server::client` so the generator's own cost does not
//! move when the program under test changes.

use std::io::{Error, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// How long the client busy-polls for a reply before it blocks. A reply to
/// a selective query arrives within this, so the client's own wake-up (tens
/// of microseconds, and the noisiest part of a 0.15 ms loopback round trip)
/// stays out of the measurement; a reply that takes longer is waited for
/// asleep, so the client does not hold a core the executor could use.
const SPIN: Duration = Duration::from_millis(1);

pub struct Client {
    stream: TcpStream,
    /// Response bytes land here directly; it grows to the largest reply
    /// seen and is never shrunk or re-zeroed.
    buf: Vec<u8>,
}

/// Status and body of one response; the body borrows the client's buffer.
pub struct Reply<'a> {
    pub status: u16,
    pub body: &'a [u8],
}

fn bad(msg: &str) -> Error {
    Error::new(ErrorKind::InvalidData, msg.to_string())
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

impl Client {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        // A reply that takes this long is a hung server, not a slow query.
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        stream.set_nonblocking(true)?;
        Ok(Client {
            stream,
            buf: vec![0; 1 << 16],
        })
    }

    fn send(&mut self, mut bytes: &[u8]) -> std::io::Result<()> {
        while !bytes.is_empty() {
            match self.stream.write(bytes) {
                Ok(0) => return Err(bad("connection closed mid-request")),
                Ok(n) => bytes = &bytes[n..],
                Err(e) if e.kind() == ErrorKind::WouldBlock => std::hint::spin_loop(),
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Read more bytes after the first `filled`, growing the buffer when it
    /// is full: polling until `SPIN` after the request was sent, blocking
    /// from then on. Returns the new fill level.
    fn fill(&mut self, filled: usize, sent: Instant) -> std::io::Result<usize> {
        if filled == self.buf.len() {
            self.buf.resize(filled * 2, 0);
        }
        loop {
            match self.stream.read(&mut self.buf[filled..]) {
                Ok(0) => return Err(bad("connection closed mid-response")),
                Ok(n) => return Ok(filled + n),
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    if sent.elapsed() < SPIN {
                        std::hint::spin_loop();
                    } else {
                        self.stream.set_nonblocking(false)?;
                        let read = self.stream.read(&mut self.buf[filled..]);
                        self.stream.set_nonblocking(true)?;
                        return match read? {
                            0 => Err(bad("connection closed mid-response")),
                            n => Ok(filled + n),
                        };
                    }
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Send one pre-rendered request and read its `Content-Length`-framed
    /// reply.
    pub fn roundtrip(&mut self, request: &[u8]) -> std::io::Result<Reply<'_>> {
        self.send(request)?;
        let sent = Instant::now();
        let mut filled = 0;
        let head_end = loop {
            filled = self.fill(filled, sent)?;
            if let Some(pos) = find(&self.buf[..filled], b"\r\n\r\n") {
                break pos;
            }
        };
        let head = std::str::from_utf8(&self.buf[..head_end])
            .map_err(|_| bad("response head is not UTF-8"))?;
        let mut lines = head.split("\r\n");
        let status: u16 = lines
            .next()
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("bad status line"))?;
        let len: usize = lines
            .filter_map(|l| l.split_once(':'))
            .find(|(name, _)| name.trim().eq_ignore_ascii_case("content-length"))
            .and_then(|(_, v)| v.trim().parse().ok())
            .ok_or_else(|| bad("missing Content-Length"))?;
        let body_start = head_end + 4;
        let total = body_start + len;
        if self.buf.len() < total {
            self.buf.resize(total, 0);
        }
        while filled < total {
            filled = self.fill(filled, sent)?;
        }
        Ok(Reply {
            status,
            body: &self.buf[body_start..total],
        })
    }
}

/// Percent-encode a query-string component (everything but unreserved
/// characters).
fn percent_encode(s: &str) -> String {
    let mut out = String::with_capacity(s.len() * 3 / 2);
    for b in s.bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                out.push(b as char)
            }
            _ => out.push_str(&format!("%{b:02X}")),
        }
    }
    out
}

/// `GET /sparql?query=…` — the SPARQL Protocol's query-via-GET form; the
/// reply defaults to SPARQL JSON results.
pub fn query_request(sparql: &str) -> Vec<u8> {
    format!(
        "GET /sparql?query={} HTTP/1.1\r\nHost: e2e\r\n\r\n",
        percent_encode(sparql)
    )
    .into_bytes()
}

/// `POST /update` with an `application/sparql-update` body.
pub fn update_request(update: &str) -> Vec<u8> {
    format!(
        "POST /update HTTP/1.1\r\nHost: e2e\r\nContent-Type: application/sparql-update\r\n\
         Content-Length: {}\r\n\r\n{update}",
        update.len()
    )
    .into_bytes()
}

pub fn healthz_request() -> Vec<u8> {
    b"GET /healthz HTTP/1.1\r\nHost: e2e\r\n\r\n".to_vec()
}

/// FNV-1a folded over 8-byte words (then the tail bytes): a per-response
/// checksum cheap enough that verifying a megabyte body costs the client
/// ~0.1 ms, not the ~1 ms of byte-wise FNV.
pub fn body_hash(body: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut words = body.chunks_exact(8);
    for w in &mut words {
        h = (h ^ u64::from_le_bytes(w.try_into().expect("8-byte chunk"))).wrapping_mul(PRIME);
    }
    for &b in words.remainder() {
        h = (h ^ b as u64).wrapping_mul(PRIME);
    }
    h ^ (h >> 32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percent_encoding_escapes_reserved_bytes() {
        assert_eq!(percent_encode("a b<c>?{}"), "a%20b%3Cc%3E%3F%7B%7D");
        assert_eq!(percent_encode("A-z_0.9~"), "A-z_0.9~");
    }

    #[test]
    fn body_hash_sees_every_byte_and_the_length() {
        let a = body_hash(b"0123456789abcdef_tail");
        assert_ne!(a, body_hash(b"0123456789abcdef_tai"));
        assert_ne!(a, body_hash(b"0123456789abcdeF_tail"));
        assert_ne!(a, body_hash(b"1123456789abcdef_tail"));
        assert_eq!(a, body_hash(b"0123456789abcdef_tail"));
    }
}
