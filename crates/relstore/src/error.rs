use std::fmt;

/// Errors produced by SQL parsing, planning or execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// Lexer/parser error, with a short description and byte offset.
    Parse { message: String, offset: usize },
    /// Name resolution or semantic analysis error.
    Plan(String),
    /// Runtime evaluation error.
    Exec(String),
    /// A prepared statement was run on a database whose referenced tables
    /// have changed shape since it was compiled; prepare it again.
    Stale(String),
    /// The per-query evaluation budget was exceeded (stands in for the
    /// paper's 10-minute query timeout).
    LimitExceeded,
    /// The wall-clock query deadline set via [`crate::Database::set_deadline`]
    /// expired.
    Timeout,
    /// Durability-layer I/O failure (WAL append, snapshot write, fsync).
    Io(String),
    /// On-disk state failed validation (bad magic, CRC mismatch that cannot
    /// be recovered by truncation, unknown record tag).
    Corrupt(String),
    /// The store degraded to read-only mode after its write-ahead log became
    /// unwritable; reads still succeed, mutations are refused.
    ReadOnly,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Parse { message, offset } => {
                write!(f, "SQL parse error at byte {offset}: {message}")
            }
            Error::Plan(m) => write!(f, "SQL planning error: {m}"),
            Error::Exec(m) => write!(f, "SQL execution error: {m}"),
            Error::Stale(m) => write!(f, "stale prepared statement: {m}"),
            Error::LimitExceeded => write!(f, "evaluation budget exceeded"),
            Error::Timeout => write!(f, "query deadline exceeded"),
            Error::Io(m) => write!(f, "durability I/O error: {m}"),
            Error::Corrupt(m) => write!(f, "corrupt on-disk state: {m}"),
            Error::ReadOnly => {
                f.write_str("store is read-only (write-ahead log is unwritable)")
            }
        }
    }
}

impl std::error::Error for Error {}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Io(e.to_string())
    }
}

pub type Result<T> = std::result::Result<T, Error>;

pub(crate) fn plan_err<T>(msg: impl Into<String>) -> Result<T> {
    Err(Error::Plan(msg.into()))
}

pub(crate) fn exec_err<T>(msg: impl Into<String>) -> Result<T> {
    Err(Error::Exec(msg.into()))
}
