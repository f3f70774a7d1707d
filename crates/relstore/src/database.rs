//! The database facade: a named collection of tables plus SQL entry points,
//! with optional crash-safe durability (WAL + snapshot checkpoints).

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use crate::error::{exec_err, plan_err, Error, Result};
use crate::exec::{PhaseTimings, Rel};
use crate::io::{no_faults, FaultHandle};
use crate::plan::{self, Prepared};
use crate::snapshot::{load_snapshot, write_snapshot, SnapshotTable};
use crate::sql::parser::parse_statement;
use crate::table::{Table, TableSchema};
use crate::value::{SqlType, Value};
use crate::wal::{self, WalOp, WalWriter};

/// A registered scalar SQL function.
pub type ScalarFn = Arc<dyn Fn(&[Value]) -> Result<Value> + Send + Sync>;

/// Durability state for a database opened on a directory.
///
/// The directory holds generation-numbered pairs `snapshot.<g>` / `wal.<g>`.
/// The live state is: the newest *valid* snapshot plus the committed prefix
/// of its same-generation WAL. A checkpoint writes `snapshot.<g+1>`
/// atomically, starts the empty `wal.<g+1>`, and prunes generations older
/// than `g` — so one full previous generation always survives as a fallback
/// if the newest snapshot is damaged.
struct Durability {
    dir: PathBuf,
    gen: u64,
    /// `None` after the WAL file could not be opened for append (recovery
    /// still succeeded from the readable prefix) — the read-only degrade.
    wal: Option<WalWriter>,
    faults: FaultHandle,
    /// Buffered encoded ops + op count while a batch is open.
    batch: Option<(Vec<u8>, u32)>,
    /// Batches nest (the store batches around the loader's own batches);
    /// the single WAL frame is written when the outermost batch commits.
    batch_depth: usize,
    read_only: bool,
}

impl Durability {
    /// Run one write against the WAL. Any failure — or a WAL that never
    /// opened for append — degrades the database to read-only.
    fn wal_io(&mut self, io: impl FnOnce(&mut WalWriter) -> std::io::Result<()>) -> Result<()> {
        let res = match &mut self.wal {
            Some(w) => io(w).map_err(|e| Error::Io(e.to_string())),
            None => Err(Error::ReadOnly),
        };
        if res.is_err() {
            self.read_only = true;
        }
        res
    }
}

/// An in-memory relational database with a SQL interface and optional
/// write-ahead-logged persistence.
///
/// This is the substrate standing in for IBM DB2 in the paper's architecture
/// (see DESIGN.md §2): the RDF store above it emits SQL text, which is parsed,
/// compiled and executed here — in one call ([`Database::query`]), or
/// compiled once ([`Database::prepare`]) and run many times, as DB2 keeps the
/// access plan of repeated dynamic SQL. [`Database::new`] is purely in-memory;
/// [`Database::open`] binds the database to a directory so that every
/// committed mutation survives a crash (DESIGN.md §4.6).
pub struct Database {
    /// Tables are held behind `Arc` for copy-on-write snapshots
    /// ([`Database::snapshot_clone`]): a snapshot shares every table, and
    /// the writer's next mutation of a table clones it via `Arc::make_mut`.
    /// That clone is shallow — a table is `Arc`'d row chunks and index
    /// shards (see the `table` module) — so the write then copies only the
    /// chunks and shards it touches, and readers of old snapshots are never
    /// disturbed.
    tables: HashMap<String, Arc<Table>>,
    functions: HashMap<String, ScalarFn>,
    row_budget: Option<u64>,
    deadline: Option<Duration>,
    threads: Option<usize>,
    durability: Option<Durability>,
}

impl Default for Database {
    fn default() -> Self {
        Self::new()
    }
}

impl Database {
    pub fn new() -> Self {
        let mut db = Database {
            tables: HashMap::new(),
            functions: HashMap::new(),
            row_budget: None,
            deadline: None,
            threads: None,
            durability: None,
        };
        // The one built-in function; the store registers its `RDF_*` ones.
        db.register_function("coalesce", |args| {
            Ok(args.iter().find(|a| !a.is_null()).cloned().unwrap_or(Value::Null))
        });
        db
    }

    // -----------------------------------------------------------------------
    // Durability: open / checkpoint / close
    // -----------------------------------------------------------------------

    /// Open (or create) a durable database on `dir`.
    ///
    /// Recovery loads the newest valid snapshot generation and replays the
    /// committed prefix of its WAL, truncating any torn tail (a short frame,
    /// a bad CRC, or an undecodable payload). If the newest snapshot is
    /// damaged, the previous generation is used instead. If the WAL cannot
    /// be reopened for appending, the database still opens but degrades to
    /// read-only mode ([`Database::is_read_only`]).
    pub fn open(dir: impl AsRef<Path>) -> Result<Database> {
        Self::open_with_faults(dir, no_faults())
    }

    /// [`Database::open`] with a fault injector over the file layer — the
    /// entry point of the crash-recovery test harness.
    pub fn open_with_faults(dir: impl AsRef<Path>, faults: FaultHandle) -> Result<Database> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;

        // Newest valid snapshot wins; fall back one generation if damaged.
        let snap_gens = list_generations(&dir, "snapshot")?;
        let mut base: Option<(u64, Vec<SnapshotTable>)> = None;
        for &g in &snap_gens {
            match load_snapshot(&dir.join(format!("snapshot.{g}")), &faults) {
                Ok(tables) => {
                    base = Some((g, tables));
                    break;
                }
                Err(_) => continue, // damaged snapshot: try the previous one
            }
        }
        let (gen, tables) = match base {
            Some(x) => x,
            None if snap_gens.is_empty() => {
                // No checkpoint was ever taken: the base state is empty and
                // the WAL (if any) carries everything.
                let g = list_generations(&dir, "wal")?.first().copied().unwrap_or(0);
                (g, Vec::new())
            }
            None => {
                return Err(Error::Corrupt(
                    "every snapshot generation failed validation".into(),
                ))
            }
        };

        let mut db = Database::new();
        for st in tables {
            db.restore_table(st)?;
        }
        let wal_path = dir.join(format!("wal.{gen}"));
        let recovery = wal::recover(&wal_path, &faults)?;
        for txn in recovery.txns {
            for op in txn {
                db.apply_op(op)
                    .map_err(|e| Error::Corrupt(format!("WAL replay failed: {e}")))?;
            }
        }
        // Reopen the WAL for appending, truncating the torn tail. Failure
        // here (injected fsync error, permissions) degrades to read-only.
        let (wal_writer, read_only) =
            match WalWriter::open(&wal_path, recovery.valid_len, faults.clone()) {
                Ok(w) => (Some(w), false),
                Err(_) => (None, true),
            };
        db.durability = Some(Durability {
            dir,
            gen,
            wal: wal_writer,
            faults,
            batch: None,
            batch_depth: 0,
            read_only,
        });
        Ok(db)
    }

    /// True when the database is bound to a directory (opened via
    /// [`Database::open`]).
    pub fn is_durable(&self) -> bool {
        self.durability.is_some()
    }

    /// True when the durability layer degraded to read-only mode (the WAL
    /// became unwritable). Reads keep working; mutations return
    /// [`Error::ReadOnly`].
    pub fn is_read_only(&self) -> bool {
        self.durability.as_ref().is_some_and(|d| d.read_only)
    }

    /// The directory backing this database, if durable.
    pub fn path(&self) -> Option<&Path> {
        self.durability.as_ref().map(|d| d.dir.as_path())
    }

    /// Bytes durably committed in the live WAL (including the magic), if the
    /// database is durable and writable. The crash-point fuzzer records this
    /// after every acknowledged mutation to know the exact frame boundaries
    /// a truncated log must recover to.
    pub fn wal_len(&self) -> Option<u64> {
        self.durability.as_ref().and_then(|d| d.wal.as_ref()).map(|w| w.len())
    }

    /// Current snapshot/WAL generation number, if durable.
    pub fn generation(&self) -> Option<u64> {
        self.durability.as_ref().map(|d| d.gen)
    }

    /// Write a full binary snapshot of the current state and rotate to a
    /// fresh WAL generation. After a checkpoint, recovery no longer replays
    /// the old log; generations older than the previous one are pruned.
    /// No-op for in-memory databases.
    pub fn checkpoint(&mut self) -> Result<()> {
        let Some(d) = &self.durability else {
            return Ok(());
        };
        if d.read_only {
            return Err(Error::ReadOnly);
        }
        if d.batch_depth > 0 {
            return exec_err("checkpoint inside an open batch");
        }
        let new_gen = d.gen + 1;
        let snap_path = d.dir.join(format!("snapshot.{new_gen}"));
        let wal_path = d.dir.join(format!("wal.{new_gen}"));
        let mut tables: Vec<&Table> = self.tables.values().map(Arc::as_ref).collect();
        tables.sort_by(|a, b| a.schema.name.cmp(&b.schema.name));
        write_snapshot(&tables, &snap_path, &d.faults)?;
        let writer = match WalWriter::open(&wal_path, 0, d.faults.clone()) {
            Ok(w) => w,
            Err(e) => {
                // Neither half of the new generation may become the
                // recovery base while commits keep landing in the old WAL
                // (a stray `wal.<new>` alone is one when no snapshot
                // exists yet): undo both, or degrade. The snapshot goes
                // only once the WAL is gone — the pair is a valid base.
                let _ = std::fs::remove_file(&wal_path);
                if !wal_path.exists() {
                    let _ = std::fs::remove_file(&snap_path);
                }
                if wal_path.exists() || snap_path.exists() {
                    self.durability.as_mut().unwrap().read_only = true;
                }
                return Err(Error::Io(e.to_string()));
            }
        };
        let d = self.durability.as_mut().unwrap();
        d.gen = new_gen;
        d.wal = Some(writer);
        prune_generations(&d.dir, new_gen);
        Ok(())
    }

    /// Checkpoint and release the database. Read-only databases close
    /// without writing.
    pub fn close(mut self) -> Result<()> {
        if self.is_durable() && !self.is_read_only() {
            self.checkpoint()?;
        }
        Ok(())
    }

    /// Start a batched WAL transaction: subsequent mutations buffer their
    /// log records and commit as a single durable frame at
    /// [`Database::commit_batch`]. Batches nest; the frame is written when
    /// the outermost batch commits. No-op on in-memory databases.
    pub fn begin_batch(&mut self) {
        if let Some(d) = &mut self.durability {
            if d.batch_depth == 0 {
                d.batch = Some((Vec::new(), 0));
            }
            d.batch_depth += 1;
        }
    }

    /// Whether a batch is open: mutations are being buffered, and
    /// [`Database::checkpoint`] would refuse.
    pub fn in_batch(&self) -> bool {
        self.durability.as_ref().is_some_and(|d| d.batch_depth > 0)
    }

    /// Commit the current batch level; at the outermost level the buffered
    /// ops are written and fsynced as one WAL frame. A write or fsync
    /// failure degrades the database to read-only and surfaces as an error;
    /// the writer truncates the failed frame away, so it can never be
    /// replayed.
    pub fn commit_batch(&mut self) -> Result<()> {
        let Some(d) = &mut self.durability else {
            return Ok(());
        };
        if d.batch_depth == 0 {
            return Ok(());
        }
        d.batch_depth -= 1;
        if d.batch_depth > 0 {
            return Ok(());
        }
        let (ops, nops) = d.batch.take().unwrap_or_default();
        if nops == 0 {
            return Ok(());
        }
        let payload = wal::frame_payload(nops, &ops);
        d.wal_io(|w| w.commit(&payload))
    }

    /// Copy-on-write backup of the current table set (`Arc` bumps only).
    /// Together with [`Database::restore_tables`] this gives a multi-op
    /// mutation logical all-or-nothing semantics: save before the first op,
    /// restore on failure — unmodified tables were never cloned.
    pub fn save_tables(&self) -> HashMap<String, Arc<Table>> {
        self.tables.clone()
    }

    /// Restore a backup taken by [`Database::save_tables`], discarding every
    /// in-memory mutation since.
    pub fn restore_tables(&mut self, saved: HashMap<String, Arc<Table>>) {
        self.tables = saved;
    }

    /// Abandon the open batch (all nesting levels): the buffered ops are
    /// dropped and never reach the WAL. Pairs with
    /// [`Database::restore_tables`] when a multi-op mutation fails midway —
    /// memory is rolled back, so the log must forget the ops too.
    pub fn abort_batch(&mut self) {
        if let Some(d) = &mut self.durability {
            d.batch = None;
            d.batch_depth = 0;
        }
    }

    /// A cheap immutable clone for snapshot-isolated readers: every table
    /// is shared copy-on-write (an `Arc` bump here; the writer's next
    /// mutation of a table copies its chunk and shard pointers, then only
    /// the row chunks and index shards that mutation touches), scalar
    /// functions are shared, and the clone carries no durability state — it
    /// can serve queries but never log, sync, or checkpoint.
    pub fn snapshot_clone(&self) -> Database {
        Database {
            tables: self.tables.clone(),
            functions: self.functions.clone(),
            row_budget: self.row_budget,
            deadline: self.deadline,
            threads: self.threads,
            durability: None,
        }
    }

    /// Refuse mutations on a read-only (degraded) durable database.
    fn check_writable(&self) -> Result<()> {
        if self.is_read_only() {
            return Err(Error::ReadOnly);
        }
        Ok(())
    }

    /// Append one encoded op to the WAL: buffered if a batch is open,
    /// otherwise committed immediately as a single-op frame.
    fn log_op(&mut self, ops: Vec<u8>) -> Result<()> {
        let Some(d) = &mut self.durability else {
            return Ok(());
        };
        if let Some((buf, n)) = &mut d.batch {
            buf.extend_from_slice(&ops);
            *n += 1;
            return Ok(());
        }
        let payload = wal::frame_payload(1, &ops);
        d.wal_io(|w| w.commit(&payload))
    }

    /// Apply a recovered WAL op to the in-memory state (no re-logging).
    fn apply_op(&mut self, op: WalOp) -> Result<()> {
        match op {
            WalOp::CreateTable(schema) => {
                let name = schema.name.clone();
                if self.tables.contains_key(&name) {
                    return plan_err(format!("table {name:?} already exists"));
                }
                self.tables.insert(name, Arc::new(Table::new(schema)));
                Ok(())
            }
            WalOp::CreateIndex { table, column } => {
                let t = self
                    .tables
                    .get_mut(&table)
                    .ok_or_else(|| Error::Plan(format!("unknown table {table:?}")))?;
                Arc::make_mut(t).create_index(&column)
            }
            WalOp::InsertRows { table, rows } => {
                let t = self
                    .tables
                    .get_mut(&table)
                    .ok_or_else(|| Error::Plan(format!("unknown table {table:?}")))?;
                let t = Arc::make_mut(t);
                for row in rows {
                    t.insert(&row)?;
                }
                Ok(())
            }
            WalOp::UpdateCell { table, row_id, col, value } => {
                let t = self
                    .tables
                    .get_mut(&table)
                    .ok_or_else(|| Error::Plan(format!("unknown table {table:?}")))?;
                Arc::make_mut(t).update_cell(row_id, col as usize, value)
            }
            WalOp::DeleteRow { table, row_id } => {
                let t = self
                    .tables
                    .get_mut(&table)
                    .ok_or_else(|| Error::Plan(format!("unknown table {table:?}")))?;
                Arc::make_mut(t).delete_row(row_id).map(|_| ())
            }
        }
    }

    /// Rebuild one table from a decoded snapshot.
    fn restore_table(&mut self, st: SnapshotTable) -> Result<()> {
        let mut t = Table::new(st.schema);
        for row in &st.rows {
            t.insert(row)?;
        }
        for col in st.indexes {
            t.create_index(&col)?;
        }
        let name = t.schema.name.clone();
        self.tables.insert(name, Arc::new(t));
        Ok(())
    }

    // -----------------------------------------------------------------------
    // Query limits
    // -----------------------------------------------------------------------

    /// Set the per-query evaluation budget in produced/visited rows. `None`
    /// disables the guard. Stands in for the paper's 10-minute query timeout.
    pub fn set_row_budget(&mut self, budget: Option<u64>) {
        self.row_budget = budget;
    }

    pub fn row_budget(&self) -> Option<u64> {
        self.row_budget
    }

    /// Set a wall-clock deadline per query. The executor checks it at the
    /// same sites as the row budget and fails with [`Error::Timeout`] —
    /// the literal analogue of the paper's 10-minute query timeout (the row
    /// budget is the deterministic stand-in). `None` disables it.
    pub fn set_deadline(&mut self, deadline: Option<Duration>) {
        self.deadline = deadline;
    }

    pub fn deadline(&self) -> Option<Duration> {
        self.deadline
    }

    /// Pin the executor's parallel width. `None` (the default) defers to
    /// the `RELSTORE_THREADS` environment variable, then to
    /// [`std::thread::available_parallelism`]. `Some(1)` forces fully
    /// sequential execution; `Some(0)` is clamped to 1 with a warning at
    /// resolution time (see [`resolve_threads`]).
    pub fn set_threads(&mut self, threads: Option<usize>) {
        self.threads = threads;
    }

    /// Effective parallel width for morsel-parallel query operators.
    /// Invalid settings warn (once per process) instead of silently
    /// degrading to sequential execution.
    pub fn threads(&self) -> usize {
        // Runs once per query. The setting and the variable are re-read so a
        // change takes effect; the core count is detected once, because
        // `available_parallelism` re-reads cgroup files (~11 µs a call).
        static AVAILABLE: OnceLock<usize> = OnceLock::new();
        let env = std::env::var("RELSTORE_THREADS").ok();
        let available = *AVAILABLE
            .get_or_init(|| std::thread::available_parallelism().map(usize::from).unwrap_or(1));
        let (threads, warning) = resolve_threads(self.threads, env.as_deref(), available);
        if let Some(w) = warning {
            static WARNED: std::sync::Once = std::sync::Once::new();
            WARNED.call_once(|| eprintln!("relstore: {w}"));
        }
        threads
    }

    /// Register (or replace) a scalar SQL function, e.g. RDF-aware helpers.
    pub fn register_function(
        &mut self,
        name: &str,
        f: impl Fn(&[Value]) -> Result<Value> + Send + Sync + 'static,
    ) {
        self.functions.insert(name.to_ascii_lowercase(), Arc::new(f));
    }

    /// The function registered as `lower`, which is already lowercase.
    pub(crate) fn function(&self, lower: &str) -> Option<&ScalarFn> {
        self.functions.get(lower)
    }

    pub fn table(&self, name: &str) -> Option<&Table> {
        self.lookup_table(&name.to_ascii_lowercase())
    }

    /// The table named `lower`, which is already lowercase.
    pub(crate) fn lookup_table(&self, lower: &str) -> Option<&Table> {
        self.tables.get(lower).map(Arc::as_ref)
    }

    /// Direct mutable access to a table. **Bypasses the WAL**: on a durable
    /// database, mutations made through this handle are not logged and will
    /// not survive a restart (they do enter the next snapshot). Durable
    /// callers should use [`Database::insert_rows`] /
    /// [`Database::update_cell`] instead.
    pub fn table_mut(&mut self, name: &str) -> Option<&mut Table> {
        self.tables.get_mut(&name.to_ascii_lowercase()).map(Arc::make_mut)
    }

    pub fn table_names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.tables.keys().map(String::as_str).collect();
        names.sort_unstable();
        names
    }

    /// Create a table: the dialect has no DDL, so this is the one way.
    pub fn create_table(&mut self, schema: TableSchema) -> Result<()> {
        self.check_writable()?;
        let name = schema.name.clone();
        if self.tables.contains_key(&name) {
            return plan_err(format!("table {name:?} already exists"));
        }
        // Write-ahead: the op reaches the log before memory changes, so a
        // failed autocommit leaves the in-memory state untouched.
        if self.is_durable() {
            let mut ops = Vec::new();
            wal::encode_create_table(&mut ops, &schema);
            self.log_op(ops)?;
        }
        self.tables.insert(name, Arc::new(Table::new(schema)));
        Ok(())
    }

    /// Create (or rebuild) the equality index on `table.column`, the one
    /// kind of index there is.
    pub fn create_index(&mut self, table: &str, column: &str) -> Result<()> {
        self.check_writable()?;
        let key = table.to_ascii_lowercase();
        let col = column.to_ascii_lowercase();
        let t = self
            .tables
            .get(&key)
            .ok_or_else(|| Error::Plan(format!("unknown table {table:?}")))?;
        // Pre-validate so the in-memory apply after logging cannot fail.
        if t.schema.column_index(&col).is_none() {
            return plan_err(format!("no column {column} in table {table}"));
        }
        if self.is_durable() {
            let mut ops = Vec::new();
            wal::encode_create_index(&mut ops, &key, &col);
            self.log_op(ops)?;
        }
        let t = self
            .tables
            .get_mut(&key)
            .ok_or_else(|| Error::Plan(format!("unknown table {table:?}")))?;
        Arc::make_mut(t).create_index(&col)
    }

    /// Programmatic bulk insert, maintaining indexes. On a durable database
    /// the rows are validated up front and logged as one WAL record.
    pub fn insert_rows(
        &mut self,
        table: &str,
        rows: impl IntoIterator<Item = Vec<Value>>,
    ) -> Result<usize> {
        let key = table.to_ascii_lowercase();
        if !self.is_durable() {
            let t = self
                .tables
                .get_mut(&key)
                .ok_or_else(|| Error::Plan(format!("unknown table {table:?}")))?;
            let t = Arc::make_mut(t);
            let mut n = 0;
            for row in rows {
                t.insert(&row)?;
                n += 1;
            }
            return Ok(n);
        }
        self.check_writable()?;
        let rows: Vec<Vec<Value>> = rows.into_iter().collect();
        let width = self
            .tables
            .get(&key)
            .ok_or_else(|| Error::Plan(format!("unknown table {table:?}")))?
            .width();
        // Validate arity up front, then write-ahead: the WAL record lands
        // before memory changes, so neither side can diverge from the other.
        for row in &rows {
            if row.len() != width {
                return plan_err(format!(
                    "table {key}: insert arity {} != column count {width}",
                    row.len()
                ));
            }
        }
        if rows.is_empty() {
            return Ok(0);
        }
        let mut ops = Vec::new();
        wal::encode_insert_rows(&mut ops, &key, width, &rows);
        self.log_op(ops)?;
        let t = self
            .tables
            .get_mut(&key)
            .ok_or_else(|| Error::Plan(format!("unknown table {table:?}")))?;
        let t = Arc::make_mut(t);
        for row in &rows {
            t.insert(row)?;
        }
        Ok(rows.len())
    }

    /// Overwrite one cell of an existing row, maintaining indexes and the
    /// WAL. The durable counterpart of [`Table::update_cell`].
    pub fn update_cell(
        &mut self,
        table: &str,
        row_id: u32,
        col: usize,
        value: Value,
    ) -> Result<()> {
        self.check_writable()?;
        let key = table.to_ascii_lowercase();
        let t = self
            .tables
            .get(&key)
            .ok_or_else(|| Error::Plan(format!("unknown table {table:?}")))?;
        // Pre-validate row and column bounds so the apply after logging
        // cannot fail (write-ahead ordering, see `create_table`).
        if (row_id as usize) >= t.row_count() {
            return plan_err(format!("row {row_id} out of range in table {key}"));
        }
        if col >= t.width() {
            return plan_err(format!("column {col} out of range in table {key}"));
        }
        if self.is_durable() {
            let mut ops = Vec::new();
            wal::encode_update_cell(&mut ops, &key, row_id, col as u32, &value);
            self.log_op(ops)?;
        }
        let t = self
            .tables
            .get_mut(&key)
            .ok_or_else(|| Error::Plan(format!("unknown table {table:?}")))?;
        Arc::make_mut(t).update_cell(row_id, col, value)
    }

    /// Remove one row by id, maintaining indexes and the WAL. Inherits
    /// [`Table::delete_row`]'s `swap_remove` semantics: the last row moves
    /// into the vacated id, so callers must re-probe indexes between
    /// deletes instead of batch-resolving row ids up front.
    pub fn delete_row(&mut self, table: &str, row_id: u32) -> Result<()> {
        self.check_writable()?;
        let key = table.to_ascii_lowercase();
        let t = self
            .tables
            .get(&key)
            .ok_or_else(|| Error::Plan(format!("unknown table {table:?}")))?;
        // Pre-validate bounds so the apply after logging cannot fail
        // (write-ahead ordering, see `create_table`).
        if (row_id as usize) >= t.row_count() {
            return plan_err(format!("row {row_id} out of range in table {key}"));
        }
        if self.is_durable() {
            let mut ops = Vec::new();
            wal::encode_delete_row(&mut ops, &key, row_id);
            self.log_op(ops)?;
        }
        let t = self.tables.get_mut(&key).unwrap();
        Arc::make_mut(t).delete_row(row_id).map(|_| ())
    }

    /// Parse and compile a query into a [`Prepared`] statement that
    /// [`Prepared::run`] executes on this database or any snapshot of it
    /// ([`Database::snapshot_clone`]), without parsing or resolving a name
    /// again.
    pub fn prepare(&self, sql: &str) -> Result<Prepared> {
        plan::prepare(&parse_statement(sql)?, self)
    }

    /// Execute a read-only query: [`Database::prepare`], then
    /// [`Prepared::run`].
    pub fn query(&self, sql: &str) -> Result<Rel> {
        self.prepare(sql)?.run(self)
    }

    /// [`Database::query`] with its run's node times summed into four
    /// phases ([`Profile::phases`](crate::Profile::phases)).
    pub fn query_traced(&self, sql: &str) -> Result<(Rel, PhaseTimings)> {
        let (rel, profile) = self.prepare(sql)?.run_profiled(self)?;
        Ok((rel, profile.phases()))
    }
}

/// Generation numbers for `<prefix>.<gen>` files in `dir`, newest first.
fn list_generations(dir: &Path, prefix: &str) -> Result<Vec<u64>> {
    let mut gens = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(suffix) = name.strip_prefix(prefix).and_then(|s| s.strip_prefix('.')) else {
            continue;
        };
        if let Ok(g) = suffix.parse::<u64>() {
            gens.push(g);
        }
    }
    gens.sort_unstable_by(|a, b| b.cmp(a));
    Ok(gens)
}

/// Best-effort removal of snapshot/WAL generations older than `current - 1`
/// (one full fallback generation is kept).
fn prune_generations(dir: &Path, current: u64) {
    for prefix in ["snapshot", "wal"] {
        if let Ok(gens) = list_generations(dir, prefix) {
            for g in gens {
                if g + 1 < current {
                    let _ = std::fs::remove_file(dir.join(format!("{prefix}.{g}")));
                }
            }
        }
    }
}

/// Convenience constructor for tests and examples.
pub fn table_schema(name: &str, cols: &[(&str, SqlType)]) -> TableSchema {
    TableSchema::new(name, cols.iter().map(|(n, t)| (n.to_string(), *t)).collect())
}

/// Resolve the effective parallel width from (in priority order) the
/// explicit [`Database::set_threads`] setting, the `RELSTORE_THREADS`
/// environment variable, and the machine's available parallelism. Returns
/// the width plus an optional warning for settings that could not be
/// honored. Pure, so the policy is unit-testable without touching process
/// environment.
///
/// Zero and unparseable values used to degrade *silently* — zero fell back
/// to sequential execution and garbage env values were ignored — which made
/// "parallelism is off because of a typo" indistinguishable from
/// "parallelism was never configured". Both now warn: zero clamps to 1
/// (sequential, but said out loud), garbage falls through to the detected
/// core count.
pub fn resolve_threads(
    explicit: Option<usize>,
    env: Option<&str>,
    available: usize,
) -> (usize, Option<String>) {
    let available = available.max(1);
    if let Some(t) = explicit {
        return match t {
            0 => (1, Some("configured thread count 0 clamped to 1 (sequential)".into())),
            t => (t, None),
        };
    }
    match env {
        Some(raw) => match raw.trim().parse::<usize>() {
            Ok(0) => (
                1,
                Some(format!("RELSTORE_THREADS={raw:?} clamped to 1 (sequential)")),
            ),
            Ok(t) => (t, None),
            Err(_) => (
                available,
                Some(format!(
                    "RELSTORE_THREADS={raw:?} is not a valid thread count; \
                     using detected parallelism ({available})"
                )),
            ),
        },
        None => (available, None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One row op after a reader snapshot copies at most two row chunks and
    /// two shards per index of the table it touches — not the table — and
    /// the snapshot still reads back its own rows and lookups.
    #[test]
    fn a_write_after_a_snapshot_copies_only_what_it_touches() {
        let mut db = Database::new();
        db.create_table(table_schema("t", &[("k", SqlType::Int), ("v", SqlType::Int)])).unwrap();
        db.create_index("t", "k").unwrap();
        db.create_index("t", "v").unwrap();
        db.insert_rows("t", (0..5000).map(|i| vec![Value::Int(i % 997), Value::Int(i)])).unwrap();
        let rows = |db: &Database| {
            let t = db.table("t").unwrap();
            (0..t.row_count() as u32).map(|r| t.row_values(r)).collect::<Vec<_>>()
        };
        let probe = |db: &Database| {
            db.table("t").unwrap().index_on("k").unwrap().lookup(&Value::Int(10)).to_vec()
        };
        type Op = fn(&mut Database);
        let ops: [Op; 3] = [
            |db| {
                assert_eq!(db.insert_rows("t", [vec![Value::Int(10), Value::Int(-1)]]).unwrap(), 1)
            },
            |db| db.update_cell("t", 300, 0, Value::Int(10)).unwrap(),
            |db| db.delete_row("t", 10).unwrap(),
        ];
        for op in ops {
            let snap = db.snapshot_clone();
            let (frozen_rows, frozen_probe) = (rows(&snap), probe(&snap));
            op(&mut db);
            let (chunks, shards) = db.table("t").unwrap().unshared_with(snap.table("t").unwrap());
            assert!(chunks <= 2, "{chunks} row chunks copied");
            assert!(shards <= 2, "{shards} shards of one index copied");
            assert_eq!(rows(&snap), frozen_rows, "the snapshot's rows moved");
            assert_eq!(probe(&snap), frozen_probe, "the snapshot's lookup moved");
            assert_ne!(probe(&db), frozen_probe, "the writer sees its own op");
        }
    }

    #[test]
    fn explicit_setting_wins_over_env_and_detection() {
        assert_eq!(resolve_threads(Some(6), Some("2"), 8), (6, None));
        assert_eq!(resolve_threads(Some(1), None, 8), (1, None));
    }

    #[test]
    fn explicit_zero_clamps_to_one_with_warning() {
        let (t, warn) = resolve_threads(Some(0), None, 8);
        assert_eq!(t, 1);
        assert!(warn.is_some());
    }

    #[test]
    fn env_parses_with_whitespace_tolerance() {
        assert_eq!(resolve_threads(None, Some(" 4 "), 8), (4, None));
    }

    #[test]
    fn env_zero_clamps_to_one_with_warning() {
        let (t, warn) = resolve_threads(None, Some("0"), 8);
        assert_eq!(t, 1);
        assert!(warn.unwrap().contains("clamped"));
    }

    #[test]
    fn env_garbage_warns_and_uses_detected_parallelism() {
        for garbage in ["lots", "-3", "2.5", ""] {
            let (t, warn) = resolve_threads(None, Some(garbage), 8);
            assert_eq!(t, 8, "garbage {garbage:?} must not silently serialize");
            assert!(warn.unwrap().contains("RELSTORE_THREADS"));
        }
    }

    #[test]
    fn unset_env_uses_detected_parallelism_silently() {
        assert_eq!(resolve_threads(None, None, 8), (8, None));
        // A pathological detection result of 0 still yields a working width.
        assert_eq!(resolve_threads(None, None, 0), (1, None));
    }
}
