//! Tables, schemas and secondary indexes.
//!
//! ## Copy-on-write granularity
//!
//! A table is shared between the writer and every reader snapshot
//! (`Database` holds it behind an `Arc`), so the writer's first mutation
//! after a publish clones it. What that clone copies is set here: rows live
//! in fixed-size **chunks** of [`CHUNK_ROWS`] and every index in
//! [`INDEX_SHARDS`] hash **shards**, each behind its own `Arc`. Cloning a
//! table copies the two pointer vectors (an `Arc` bump per chunk and
//! shard); a mutation then deep-copies only the chunk and the shards it
//! touches — at most two of each per row op — and a superseded snapshot
//! frees only those. A commit costs what it changes, not what the table
//! holds. Both fan-outs are constants: row ids map to chunks by division,
//! keys to shards by a fixed hash, and neither mapping may move while a
//! snapshot shares the pieces.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::error::{plan_err, Result};
use crate::hash::fx_hash_one;
use crate::row::CompressedRow;
use crate::value::{SqlType, Value};

/// Rows per copy-on-write chunk. A divisor of the executor's morsel size,
/// so a scan morsel is a run of whole chunks.
pub const CHUNK_ROWS: usize = 256;
const _: () = assert!(crate::exec::MORSEL_ROWS.is_multiple_of(CHUNK_ROWS));

/// Hash shards per index (a power of two). More shards make a write's copy
/// smaller but a probe dearer: each shard's map header is a cache line of
/// its own, and at 1024 per index those lines no longer stay cached — the
/// probe-bound LQ9 triangle ran 10 % slower than over one unsharded map at
/// 100k triples, against 2 % at 256.
pub const INDEX_SHARDS: usize = 256;
const _: () = assert!(INDEX_SHARDS.is_power_of_two());

/// A column definition. The name is shared, so a table's copy-on-write
/// clone and a prepared statement's column list copy no string bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnDef {
    pub name: Arc<str>,
    pub ty: SqlType,
}

/// A table schema: ordered columns with unique (lowercase) names.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableSchema {
    pub name: String,
    pub columns: Vec<ColumnDef>,
}

impl TableSchema {
    pub fn new(name: impl Into<String>, columns: Vec<(String, SqlType)>) -> Self {
        TableSchema {
            name: name.into().to_ascii_lowercase(),
            columns: columns
                .into_iter()
                .map(|(name, ty)| ColumnDef { name: name.to_ascii_lowercase().into(), ty })
                .collect(),
        }
    }

    /// Position of the column named `name` (any case).
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.position(&name.to_ascii_lowercase())
    }

    /// Position of the column named `lower`, which is already lowercase —
    /// as every identifier the SQL lexer produces is.
    pub(crate) fn position(&self, lower: &str) -> Option<usize> {
        self.columns.iter().position(|c| &*c.name == lower)
    }
}

/// One shard of an index: key → row ids, in insertion order. Keys are
/// stored data, so the map keeps the std hasher's collision resistance.
type Shard = HashMap<Value, Rids>;

/// The row ids of one key. Most keys (`entry` on DPH/RPH) name one row, so
/// that id sits in the map slot itself: a probe reads no second allocation.
#[derive(Debug, Clone)]
enum Rids {
    One(u32),
    Many(Vec<u32>),
}

impl Rids {
    fn as_slice(&self) -> &[u32] {
        match self {
            Rids::One(r) => std::slice::from_ref(r),
            Rids::Many(v) => v,
        }
    }
}

/// An equality index: [`INDEX_SHARDS`] copy-on-write hash shards, the
/// shard picked by the key's hash.
#[derive(Debug, Clone)]
pub struct Index {
    shards: Vec<Arc<Shard>>,
}

impl Index {
    fn new() -> Self {
        // Every shard starts as the same empty map; the first insert into
        // one copies it (an empty map owns no heap).
        let empty = Arc::new(Shard::default());
        Index { shards: (0..INDEX_SHARDS).map(|_| empty.clone()).collect() }
    }

    /// The shard holding `key`.
    fn shard(key: &Value) -> usize {
        fx_hash_one(key) as usize & (INDEX_SHARDS - 1)
    }

    fn insert(&mut self, key: Value, row_id: u32) {
        if key.is_null() {
            return; // NULL keys are not indexed (SQL equality never matches them).
        }
        let shard = &mut self.shards[Self::shard(&key)];
        match Arc::make_mut(shard).entry(key) {
            Entry::Vacant(slot) => {
                slot.insert(Rids::One(row_id));
            }
            Entry::Occupied(mut slot) => {
                let rids = slot.get_mut();
                match rids {
                    Rids::One(first) => *rids = Rids::Many(vec![*first, row_id]),
                    Rids::Many(v) => v.push(row_id),
                }
            }
        }
    }

    fn remove(&mut self, key: &Value, row_id: u32) {
        if key.is_null() {
            return;
        }
        let shard = &mut self.shards[Self::shard(key)];
        if !shard.contains_key(key) {
            return; // nothing to remove: leave a shared shard shared
        }
        let map = Arc::make_mut(shard);
        let emptied = match map.get_mut(key) {
            Some(Rids::One(r)) => *r == row_id,
            Some(Rids::Many(v)) => {
                v.retain(|&r| r != row_id);
                v.is_empty()
            }
            None => false,
        };
        if emptied {
            map.remove(key);
        }
    }

    /// Row ids matching an equality probe.
    pub fn lookup(&self, key: &Value) -> &[u32] {
        if key.is_null() {
            return &[];
        }
        self.shards[Self::shard(key)].get(key).map_or(&[], Rids::as_slice)
    }

    /// Number of distinct keys.
    pub fn distinct_keys(&self) -> usize {
        self.shards.iter().map(|s| s.len()).sum()
    }
}

/// An in-memory table: schema, compressed rows in copy-on-write chunks, and
/// secondary indexes keyed by column position.
#[derive(Debug, Clone)]
pub struct Table {
    pub schema: TableSchema,
    /// Rows in id order, [`CHUNK_ROWS`] per chunk: row `id` lives at
    /// `chunks[id / CHUNK_ROWS][id % CHUNK_ROWS]`. Every chunk but the last
    /// is full, and none is empty.
    chunks: Vec<Arc<Vec<CompressedRow>>>,
    /// (column position, index), at most one per column.
    indexes: Vec<(usize, Index)>,
    /// See [`Table::shape_id`].
    shape: u64,
}

/// A process-wide unique id for a table shape.
fn fresh_shape_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

impl Table {
    pub fn new(schema: TableSchema) -> Self {
        Table { schema, chunks: Vec::new(), indexes: Vec::new(), shape: fresh_shape_id() }
    }

    /// Identifies what a prepared statement compiled against: the column
    /// list and the set of indexed columns. A fresh id, unique in the
    /// process, is drawn whenever either changes (`widen`, `create_index`),
    /// and a clone keeps its original's — so equal ids mean equal shapes,
    /// whichever snapshot the table came from. Row changes never move it.
    pub(crate) fn shape_id(&self) -> u64 {
        self.shape
    }

    pub fn row_count(&self) -> usize {
        self.chunks.last().map_or(0, |c| (self.chunks.len() - 1) * CHUNK_ROWS + c.len())
    }

    pub fn width(&self) -> usize {
        self.schema.columns.len()
    }

    /// Insert a dense row; maintains all indexes. The row must have exactly
    /// one value per column.
    pub fn insert(&mut self, vals: &[Value]) -> Result<()> {
        if vals.len() != self.width() {
            return plan_err(format!(
                "table {}: insert arity {} != column count {}",
                self.schema.name,
                vals.len(),
                self.width()
            ));
        }
        let row_id = self.row_count() as u32;
        for (ci, index) in &mut self.indexes {
            index.insert(vals[*ci].clone(), row_id);
        }
        let row = CompressedRow::from_values(vals);
        match self.chunks.last_mut() {
            Some(tail) if tail.len() < CHUNK_ROWS => Arc::make_mut(tail).push(row),
            _ => {
                let mut chunk = Vec::with_capacity(CHUNK_ROWS);
                chunk.push(row);
                self.chunks.push(Arc::new(chunk));
            }
        }
        Ok(())
    }

    /// Create (or rebuild) the equality index on `column`.
    pub fn create_index(&mut self, column: &str) -> Result<()> {
        let Some(ci) = self.schema.column_index(column) else {
            return plan_err(format!("no column {column} in table {}", self.schema.name));
        };
        let mut index = Index::new();
        for (row_id, row) in self.iter_rows().enumerate() {
            index.insert(row.get(ci), row_id as u32);
        }
        self.indexes.retain(|(c, _)| *c != ci);
        self.indexes.push((ci, index));
        self.shape = fresh_shape_id();
        Ok(())
    }

    /// The index on the column named `column` (any case), if there is one.
    pub fn index_on(&self, column: &str) -> Option<&Index> {
        self.index_at(self.schema.column_index(column)?)
    }

    /// The index on the column at position `ci`, if there is one.
    pub(crate) fn index_at(&self, ci: usize) -> Option<&Index> {
        self.indexes.iter().find(|(c, _)| *c == ci).map(|(_, index)| index)
    }

    /// The indexed columns, sorted by name — what a snapshot needs to
    /// rebuild the indexes on load.
    pub fn indexed_columns(&self) -> Vec<String> {
        let mut cols: Vec<String> =
            self.indexes.iter().map(|(ci, _)| self.schema.columns[*ci].name.to_string()).collect();
        cols.sort();
        cols
    }

    /// Row `row_id`. Panics when out of range, like slice indexing.
    pub fn row(&self, row_id: u32) -> &CompressedRow {
        let id = row_id as usize;
        &self.chunks[id / CHUNK_ROWS][id % CHUNK_ROWS]
    }

    /// Row `row_id` for writing: copies its chunk first if a snapshot
    /// shares it.
    fn row_mut(&mut self, row_id: u32) -> &mut CompressedRow {
        let id = row_id as usize;
        &mut Arc::make_mut(&mut self.chunks[id / CHUNK_ROWS])[id % CHUNK_ROWS]
    }

    /// The rows with ids in `range` (clamped to the table), in id order, as
    /// one contiguous slice per chunk the range crosses — what a scan
    /// morsel walks.
    pub fn row_slices(&self, range: Range<usize>) -> impl Iterator<Item = &[CompressedRow]> {
        let end = range.end.min(self.row_count());
        let start = range.start.min(end);
        let first = start / CHUNK_ROWS;
        self.chunks[first..end.div_ceil(CHUNK_ROWS)].iter().enumerate().map(move |(k, chunk)| {
            let base = (first + k) * CHUNK_ROWS;
            &chunk[start.max(base) - base..end.min(base + chunk.len()) - base]
        })
    }

    /// Every row, in id order.
    pub fn iter_rows(&self) -> impl Iterator<Item = &CompressedRow> {
        self.chunks.iter().flat_map(|chunk| chunk.iter())
    }

    /// Dense copy of row `row_id`.
    pub fn row_values(&self, row_id: u32) -> Vec<Value> {
        self.row(row_id).decompress(self.width())
    }

    /// Overwrite one cell of an existing row, maintaining indexes. Used by
    /// incremental RDF inserts (e.g. promoting a direct value to a
    /// multi-valued lid).
    pub fn update_cell(&mut self, row_id: u32, col: usize, value: Value) -> Result<()> {
        if row_id as usize >= self.row_count() {
            return plan_err(format!("row {row_id} out of range in table {}", self.schema.name));
        }
        if col >= self.width() {
            return plan_err(format!("column {col} out of range in table {}", self.schema.name));
        }
        let mut vals = self.row_values(row_id);
        let old = std::mem::replace(&mut vals[col], value.clone());
        if let Some((_, index)) = self.indexes.iter_mut().find(|(c, _)| *c == col) {
            index.remove(&old, row_id);
            index.insert(value, row_id);
        }
        *self.row_mut(row_id) = CompressedRow::from_values(&vals);
        Ok(())
    }

    /// Remove row `row_id`, maintaining all indexes. The last row is swapped
    /// into the vacated slot (`Vec::swap_remove`), so the *last* row's id
    /// changes to `row_id` — callers resolving several ids must re-probe an
    /// index after each delete rather than batch-resolve up front. Returns
    /// the removed row's values.
    pub fn delete_row(&mut self, row_id: u32) -> Result<Vec<Value>> {
        let n = self.row_count();
        if row_id as usize >= n {
            return plan_err(format!("row {row_id} out of range in table {}", self.schema.name));
        }
        let removed = self.row_values(row_id);
        let last = (n - 1) as u32;
        for (ci, index) in &mut self.indexes {
            index.remove(&removed[*ci], row_id);
        }
        if row_id != last {
            // The moved row keeps its values but changes id: reindex it.
            let moved = self.row_values(last);
            for (ci, index) in &mut self.indexes {
                index.remove(&moved[*ci], last);
                index.insert(moved[*ci].clone(), row_id);
            }
        }
        let tail = self.chunks.last_mut().expect("a non-empty table has a chunk");
        let moved = Arc::make_mut(tail).pop().expect("no chunk is empty");
        if tail.is_empty() {
            self.chunks.pop();
        }
        if row_id != last {
            *self.row_mut(row_id) = moved;
        }
        Ok(removed)
    }

    /// Add `n` new nullable columns (used by the §2.3 NULL experiment and by
    /// dynamic layouts). Existing compressed rows read as NULL in the new
    /// columns at zero storage cost until rewritten.
    pub fn widen(&mut self, new_columns: Vec<(String, SqlType)>) {
        for (name, ty) in new_columns {
            self.schema.columns.push(ColumnDef { name: name.to_ascii_lowercase().into(), ty });
        }
        self.shape = fresh_shape_id();
    }

    /// Like [`Table::widen`], but rewrites every stored row to the new
    /// width so the presence bitmaps physically cover the new columns —
    /// mirroring what a row-store pays after ALTER TABLE + reorg. This is
    /// what the paper's §2.3 NULL-storage experiment measures.
    pub fn widen_rewritten(&mut self, new_columns: Vec<(String, SqlType)>) {
        self.widen(new_columns);
        let width = self.width();
        for chunk in &mut self.chunks {
            for row in Arc::make_mut(chunk).iter_mut() {
                let vals = row.decompress(width);
                *row = CompressedRow::from_values(&vals);
            }
        }
    }

    /// Approximate storage footprint of the table's rows in bytes,
    /// reflecting null suppression.
    pub fn storage_bytes(&self) -> usize {
        self.iter_rows().map(CompressedRow::storage_bytes).sum()
    }

    /// Fraction of cells that are NULL (statistic reported in §2.3).
    pub fn null_fraction(&self) -> f64 {
        let total = self.row_count() * self.width();
        if total == 0 {
            return 0.0;
        }
        let non_null: usize = self.iter_rows().map(CompressedRow::non_null_count).sum();
        (total - non_null) as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> TableSchema {
        TableSchema::new(
            "t",
            vec![("a".into(), SqlType::Int), ("b".into(), SqlType::Text)],
        )
    }

    #[test]
    fn insert_and_read_back() {
        let mut t = Table::new(schema());
        t.insert(&[Value::Int(1), Value::str("x")]).unwrap();
        t.insert(&[Value::Int(2), Value::Null]).unwrap();
        assert_eq!(t.row_count(), 2);
        assert_eq!(t.row_values(0), vec![Value::Int(1), Value::str("x")]);
        assert_eq!(t.row_values(1), vec![Value::Int(2), Value::Null]);
    }

    #[test]
    fn arity_mismatch_rejected() {
        let mut t = Table::new(schema());
        assert!(t.insert(&[Value::Int(1)]).is_err());
    }

    #[test]
    fn index_lookup_after_and_before_build() {
        let mut t = Table::new(schema());
        t.insert(&[Value::Int(1), Value::str("x")]).unwrap();
        t.create_index("a").unwrap();
        t.insert(&[Value::Int(1), Value::str("y")]).unwrap();
        t.insert(&[Value::Int(2), Value::str("z")]).unwrap();
        let idx = t.index_on("a").unwrap();
        assert_eq!(idx.lookup(&Value::Int(1)), &[0, 1]);
        assert_eq!(idx.lookup(&Value::Int(2)), &[2]);
        assert_eq!(idx.lookup(&Value::Int(9)), &[] as &[u32]);
        assert_eq!(idx.distinct_keys(), 2);
    }

    #[test]
    fn null_keys_not_indexed() {
        let mut t = Table::new(schema());
        t.insert(&[Value::Null, Value::str("x")]).unwrap();
        t.create_index("a").unwrap();
        assert_eq!(t.index_on("a").unwrap().distinct_keys(), 0);
        assert_eq!(t.index_on("a").unwrap().lookup(&Value::Null), &[] as &[u32]);
    }

    #[test]
    fn indexed_columns_are_sorted_by_name() {
        let mut t = Table::new(schema());
        t.insert(&[Value::Int(1), Value::str("x")]).unwrap();
        t.create_index("b").unwrap();
        t.create_index("a").unwrap();
        assert_eq!(t.indexed_columns(), ["a", "b"]);
        assert_eq!(t.index_on("b").unwrap().lookup(&Value::str("x")), &[0]);
    }

    #[test]
    fn widen_reads_null_and_costs_nothing() {
        let mut t = Table::new(schema());
        t.insert(&[Value::Int(1), Value::str("x")]).unwrap();
        let before = t.storage_bytes();
        t.widen(vec![("c".into(), SqlType::Text), ("d".into(), SqlType::Int)]);
        assert_eq!(t.width(), 4);
        assert_eq!(t.row_values(0)[2], Value::Null);
        assert_eq!(t.storage_bytes(), before);
    }

    /// The shape id moves with the column list and the index set only, and
    /// a clone — a snapshot's copy — keeps it.
    #[test]
    fn shape_id_follows_columns_and_indexes_not_rows() {
        let mut t = Table::new(schema());
        let id = t.shape_id();
        t.insert(&[Value::Int(1), Value::str("x")]).unwrap();
        t.update_cell(0, 0, Value::Int(2)).unwrap();
        assert_eq!(t.clone().shape_id(), id);
        assert_eq!(t.shape_id(), id, "row changes keep the shape");
        t.create_index("a").unwrap();
        let indexed = t.shape_id();
        assert_ne!(indexed, id);
        t.widen(vec![("c".into(), SqlType::Int)]);
        assert_ne!(t.shape_id(), indexed);
        assert_ne!(Table::new(schema()).shape_id(), Table::new(schema()).shape_id());
    }

    #[test]
    fn null_fraction() {
        let mut t = Table::new(schema());
        t.insert(&[Value::Int(1), Value::Null]).unwrap();
        t.insert(&[Value::Null, Value::Null]).unwrap();
        assert!((t.null_fraction() - 0.75).abs() < 1e-9);
    }

    #[test]
    fn update_cell_maintains_index() {
        let mut t = Table::new(schema());
        t.insert(&[Value::Int(1), Value::str("x")]).unwrap();
        t.insert(&[Value::Int(2), Value::str("y")]).unwrap();
        t.create_index("a").unwrap();
        t.update_cell(0, 0, Value::Int(9)).unwrap();
        {
            let idx = t.index_on("a").unwrap();
            assert_eq!(idx.lookup(&Value::Int(1)), &[] as &[u32]);
            assert_eq!(idx.lookup(&Value::Int(9)), &[0]);
        }
        assert_eq!(t.row_values(0), vec![Value::Int(9), Value::str("x")]);
        // updating to NULL removes from index
        t.update_cell(0, 0, Value::Null).unwrap();
        let idx = t.index_on("a").unwrap();
        assert_eq!(idx.distinct_keys(), 1);
        assert_eq!(idx.lookup(&Value::Int(9)), &[] as &[u32]);
    }

    #[test]
    fn update_cell_out_of_range_rejected() {
        let mut t = Table::new(schema());
        t.insert(&[Value::Int(1), Value::str("x")]).unwrap();
        assert!(t.update_cell(5, 0, Value::Null).is_err());
        assert!(t.update_cell(0, 9, Value::Null).is_err());
    }

    #[test]
    fn delete_row_swaps_last_and_fixes_indexes() {
        let mut t = Table::new(schema());
        t.insert(&[Value::Int(1), Value::str("x")]).unwrap();
        t.insert(&[Value::Int(2), Value::str("y")]).unwrap();
        t.insert(&[Value::Int(3), Value::str("z")]).unwrap();
        t.create_index("a").unwrap();
        t.create_index("b").unwrap();

        // Delete the middle row: row 2 moves into slot 1.
        let removed = t.delete_row(1).unwrap();
        assert_eq!(removed, vec![Value::Int(2), Value::str("y")]);
        assert_eq!(t.row_count(), 2);
        assert_eq!(t.row_values(1), vec![Value::Int(3), Value::str("z")]);
        let idx = t.index_on("a").unwrap();
        assert_eq!(idx.lookup(&Value::Int(2)), &[] as &[u32]);
        assert_eq!(idx.lookup(&Value::Int(3)), &[1]);
        assert_eq!(t.index_on("b").unwrap().lookup(&Value::str("z")), &[1]);

        // Delete the (new) last row: no swap happens.
        t.delete_row(1).unwrap();
        assert_eq!(t.row_count(), 1);
        assert_eq!(t.index_on("a").unwrap().lookup(&Value::Int(3)), &[] as &[u32]);
        assert_eq!(t.index_on("a").unwrap().lookup(&Value::Int(1)), &[0]);

        assert!(t.delete_row(5).is_err());
    }

    #[test]
    fn unknown_index_column_rejected() {
        let mut t = Table::new(schema());
        assert!(t.create_index("zzz").is_err());
    }

    #[test]
    fn row_slices_cover_a_range_chunk_by_chunk() {
        let mut t = Table::new(schema());
        let n = 3 * CHUNK_ROWS + 17;
        for i in 0..n {
            t.insert(&[Value::Int(i as i64), Value::Null]).unwrap();
        }
        let ids = |range: Range<usize>| -> Vec<Value> {
            t.row_slices(range).flatten().map(|r| r.get(0)).collect()
        };
        let all: Vec<Value> = (0..n).map(|i| Value::Int(i as i64)).collect();
        assert_eq!(ids(0..n), all);
        assert_eq!(ids(0..usize::MAX), all, "clamped to the table");
        assert_eq!(ids(CHUNK_ROWS - 3..CHUNK_ROWS + 2), all[CHUNK_ROWS - 3..CHUNK_ROWS + 2]);
        assert_eq!(t.row_slices(0..2 * CHUNK_ROWS).count(), 2, "one slice per chunk");
        assert!(ids(n..n + 5).is_empty());
        assert!(ids(2 * CHUNK_ROWS..2 * CHUNK_ROWS).is_empty());
        assert_eq!(t.iter_rows().count(), n);
    }

    /// A mutation after a clone — what `Arc::make_mut` does when a reader
    /// snapshot shares the table — copies at most two chunks and two shards
    /// per index; the clone keeps reading its own rows.
    #[test]
    fn a_clone_shares_every_untouched_chunk_and_shard() {
        let mut t = Table::new(schema());
        for i in 0..10 * CHUNK_ROWS as i64 + 5 {
            t.insert(&[Value::Int(i % 700), Value::str(format!("v{i}"))]).unwrap();
        }
        t.create_index("a").unwrap();
        t.create_index("b").unwrap();
        type Op = fn(&mut Table);
        let ops: [Op; 5] = [
            |t| t.insert(&[Value::Int(5), Value::str("new")]).unwrap(),
            |t| t.update_cell(3, 0, Value::Int(9999)).unwrap(),
            |t| t.update_cell(CHUNK_ROWS as u32 + 1, 1, Value::str("changed")).unwrap(),
            |t| drop(t.delete_row(7).unwrap()),
            |t| drop(t.delete_row(t.row_count() as u32 - 1).unwrap()),
        ];
        for op in ops {
            let snapshot = t.clone();
            let frozen: Vec<Vec<Value>> =
                (0..snapshot.row_count() as u32).map(|r| snapshot.row_values(r)).collect();
            op(&mut t);
            let (chunks, shards) = t.unshared_with(&snapshot);
            assert!(chunks <= 2, "{chunks} chunks copied");
            assert!(shards <= 2, "{shards} shards of one index copied");
            let reread: Vec<Vec<Value>> =
                (0..snapshot.row_count() as u32).map(|r| snapshot.row_values(r)).collect();
            assert_eq!(reread, frozen, "the snapshot's rows moved");
            for (rid, row) in frozen.iter().enumerate() {
                let hits = snapshot.index_on("a").unwrap().lookup(&row[0]);
                assert!(hits.contains(&(rid as u32)), "snapshot lost index entry {rid}");
            }
        }
    }

    impl Table {
        /// How much of `self` is not shared with `other`: (row chunks, the
        /// most shards of any one index). Zero for a fresh clone.
        pub(crate) fn unshared_with(&self, other: &Table) -> (usize, usize) {
            fn unshared<T>(a: &[Arc<T>], b: &[Arc<T>]) -> usize {
                let copied = a.iter().zip(b).filter(|(x, y)| !Arc::ptr_eq(x, y)).count();
                copied + a.len().abs_diff(b.len())
            }
            let chunks = unshared(&self.chunks, &other.chunks);
            let shards = self
                .indexes
                .iter()
                .map(|(ci, idx)| match other.index_at(*ci) {
                    Some(theirs) => unshared(&idx.shards, &theirs.shards),
                    None => INDEX_SHARDS,
                })
                .max()
                .unwrap_or(0);
            (chunks, shards)
        }
    }
}
