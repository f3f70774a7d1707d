//! `relstore` — an embedded, in-memory relational database engine.
//!
//! This crate is the substrate standing in for IBM DB2 in the SIGMOD'13
//! DB2RDF architecture: typed tables with null-suppressing ("value
//! compressed") wide rows, copy-on-write per row chunk and index shard so a
//! commit copies what it touches, equality secondary indexes, and a SQL
//! dialect that is exactly what the paper's SPARQL→SQL translation emits
//! (DESIGN.md §2): queries with CTEs (`WITH`), comma joins and
//! `LEFT OUTER JOIN`, `UNION ALL`, searched `CASE … ELSE … END`,
//! `COALESCE`, `IS [NOT] NULL`, `DISTINCT`, `ORDER BY`, `LIMIT`/`OFFSET`,
//! simple aggregates, and a lateral `UNNEST` table function standing in for
//! DB2's `TABLE(...)` value-flip construct (paper Fig. 13). Tables, indexes
//! and rows are made through the API ([`Database::create_table`],
//! [`Database::create_index`], [`Database::insert_rows`]), not SQL.
//!
//! Planning is deliberately minimal (see `plan` module docs): the SPARQL
//! optimizer upstream decides join order; this engine contributes index
//! probes for constant equality on indexed columns and hash joins for
//! equi-joins — what the paper assumes of "the relational query engine".
//! A query is compiled once into a [`Prepared`] plan — every name resolved,
//! every access path chosen — and executed by operators that resolve none;
//! [`Database::prepare`] keeps the compiled form for reuse on any snapshot,
//! as DB2 keeps the access plan of repeated dynamic SQL.
//!
//! Hot operators (base-table scans, WHERE filtering, projection, hash-join
//! probing, sort-key extraction and aggregation) execute morsel-parallel:
//! each parallel region runs its threads inside one `std::thread::scope`,
//! pulling morsels off a shared counter, and results are concatenated in
//! morsel order; hash-join builds and `DISTINCT` run sequentially in row
//! order. So row order is identical at every thread count. The width comes
//! from [`Database::set_threads`], the `RELSTORE_THREADS` environment
//! variable, or [`std::thread::available_parallelism`], in that order,
//! resolved once per query; a width of 1 runs every region inline and
//! spawns nothing.
//!
//! [`Database::new`] is purely in-memory; [`Database::open`] binds the
//! database to a directory for crash-safe durability — a CRC32-framed
//! write-ahead log of committed mutations plus binary snapshot checkpoints
//! ([`Database::checkpoint`]). Recovery loads the newest valid snapshot and
//! replays the committed WAL prefix, truncating torn tails; an unwritable
//! WAL degrades the store to read-only instead of failing open. The `io`
//! module exposes the fault-injection hooks the crash-recovery tests use.
//!
//! ```
//! use relstore::{table_schema, Database, SqlType, Value};
//!
//! let mut db = Database::new();
//! db.create_table(table_schema("person", &[("name", SqlType::Text), ("age", SqlType::Int)]))
//!     .unwrap();
//! let person = |name: &str, age| vec![Value::str(name), Value::Int(age)];
//! db.insert_rows("person", [person("ada", 36), person("alan", 41)]).unwrap();
//! let rel = db.query("SELECT name FROM person WHERE age > 40").unwrap();
//! assert_eq!(rel.rows, vec![vec![Value::str("alan")]]);
//!
//! let older = db.prepare("SELECT name FROM person WHERE age > 40").unwrap();
//! db.insert_rows("person", [person("grace", 85)]).unwrap();
//! assert_eq!(older.run(&db).unwrap().rows.len(), 2);
//! ```

mod codec;
mod database;
mod error;
mod exec;
pub mod hash;
pub mod io;
mod plan;
mod row;
mod snapshot;
pub mod sql;
mod table;
mod value;
pub mod wal;

pub use database::{resolve_threads, table_schema, Database, ScalarFn};
pub use error::{Error, Result};
pub use exec::{
    NodeKind, NodeStat, OutCol, PhaseTimings, Profile, Rel, RowAccess, SplitRow, MORSEL_ROWS,
};
pub use hash::{fx_hash_one, FxBuildHasher, FxHashMap, FxHasher};
pub use plan::Prepared;
pub use io::{no_faults, FaultHandle, IoFault, NoFaults, ReadOutcome, ScriptedFaults, WriteOutcome};
pub use row::CompressedRow;
pub use snapshot::{load_snapshot, write_snapshot, SnapshotTable};
pub use sql::lexer::quote_str;
pub use table::{ColumnDef, Index, Table, TableSchema, CHUNK_ROWS};
pub use value::{SqlType, Value};
pub use wal::{WalOp, WalWriter};
