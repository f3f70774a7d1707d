//! Null-suppressing row storage.
//!
//! The DB2RDF DPH/RPH relations are wide (dozens to hundreds of columns) and
//! extremely sparse: §2.3 of the paper reports 65–98% NULL cells and relies
//! on the relational engine's *value compression* so that NULLs cost almost
//! nothing on disk. [`CompressedRow`] reproduces that: a row stores one
//! presence bit per column plus the non-null values only, so a 100-column row
//! with 5 set cells costs 5 values + 13 bytes of bitmap.

use crate::value::Value;

/// A row stored with null suppression: a presence bitmap plus packed
/// non-null values.
#[derive(Debug, Clone, PartialEq)]
pub struct CompressedRow {
    bitmap: Box<[u64]>,
    values: Box<[Value]>,
}

impl CompressedRow {
    /// Compress a dense slice of values (NULLs are dropped).
    pub fn from_values(vals: &[Value]) -> Self {
        let words = vals.len().div_ceil(64);
        let mut bitmap = vec![0u64; words];
        let mut values = Vec::new();
        for (i, v) in vals.iter().enumerate() {
            if !v.is_null() {
                bitmap[i / 64] |= 1 << (i % 64);
                values.push(v.clone());
            }
        }
        CompressedRow { bitmap: bitmap.into_boxed_slice(), values: values.into_boxed_slice() }
    }

    /// Number of non-null cells.
    pub fn non_null_count(&self) -> usize {
        self.values.len()
    }

    /// Read column `i`, returning `Value::Null` for suppressed cells or
    /// columns beyond the stored bitmap (rows created before a table was
    /// widened read as NULL in the new columns).
    pub fn get(&self, i: usize) -> Value {
        let word = i / 64;
        if word >= self.bitmap.len() || self.bitmap[word] & (1 << (i % 64)) == 0 {
            return Value::Null;
        }
        // Rank: count set bits strictly before position i.
        let mut rank = 0usize;
        for w in 0..word {
            rank += self.bitmap[w].count_ones() as usize;
        }
        let mask = (1u64 << (i % 64)) - 1;
        rank += (self.bitmap[word] & mask).count_ones() as usize;
        self.values[rank].clone()
    }

    /// Read the cells at table positions `cols` into `out`, reusing its
    /// allocation: one bit test and one popcount rank per cell, so a reader
    /// that needs 3 columns of a 24-column row touches 3 values, not 24.
    pub(crate) fn gather_into(&self, cols: &[usize], out: &mut Vec<Value>) {
        out.clear();
        out.extend(cols.iter().map(|&i| self.get(i)));
    }

    /// Decompress into a dense vector of `ncols` values.
    pub fn decompress(&self, ncols: usize) -> Vec<Value> {
        let mut out = Vec::new();
        self.decompress_into(ncols, &mut out);
        out
    }

    /// Like [`CompressedRow::decompress`], but reuses `out`'s allocation —
    /// the scan hot loop decompresses into a scratch buffer and only turns
    /// it into an owned row for rows that survive the pushed filters.
    pub fn decompress_into(&self, ncols: usize, out: &mut Vec<Value>) {
        out.clear();
        // Fully dense prefix (narrow fact tables like a triple relation have
        // no NULLs at all): the first `ncols` values are exactly the row, no
        // bitmap walk needed.
        if self.values.len() >= ncols && self.first_bits_set(ncols) {
            out.extend_from_slice(&self.values[..ncols]);
            return;
        }
        out.resize(ncols, Value::Null);
        let mut next = 0usize;
        for (i, slot) in out.iter_mut().enumerate().take(self.bitmap.len() * 64) {
            if self.bitmap[i / 64] & (1 << (i % 64)) != 0 {
                *slot = self.values[next].clone();
                next += 1;
            }
        }
    }

    /// Are bitmap bits `0..n` all set?
    fn first_bits_set(&self, n: usize) -> bool {
        if self.bitmap.len() < n.div_ceil(64) {
            return false;
        }
        let (full, rem) = (n / 64, n % 64);
        self.bitmap[..full].iter().all(|w| *w == u64::MAX)
            && (rem == 0 || self.bitmap[full] & ((1u64 << rem) - 1) == (1u64 << rem) - 1)
    }

    /// Approximate storage footprint in bytes: bitmap words + one fixed slot
    /// per *non-null* value + string heap bytes. This is the quantity the
    /// §2.3 NULL-storage experiment reports.
    pub fn storage_bytes(&self) -> usize {
        let fixed_slot = std::mem::size_of::<Value>();
        self.bitmap.len() * 8
            + self.values.len() * fixed_slot
            + self.values.iter().map(Value::heap_bytes).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(vals: &[Value]) -> CompressedRow {
        CompressedRow::from_values(vals)
    }

    #[test]
    fn roundtrip_dense() {
        let vals = vec![Value::Int(1), Value::str("x"), Value::Bool(true)];
        assert_eq!(row(&vals).decompress(3), vals);
    }

    #[test]
    fn roundtrip_sparse() {
        let mut vals = vec![Value::Null; 130];
        vals[0] = Value::Int(7);
        vals[63] = Value::str("end of word");
        vals[64] = Value::str("start of word");
        vals[129] = Value::Double(2.5);
        let r = row(&vals);
        assert_eq!(r.non_null_count(), 4);
        assert_eq!(r.decompress(130), vals);
        for (i, v) in vals.iter().enumerate() {
            assert_eq!(&r.get(i), v, "col {i}");
        }
    }

    #[test]
    fn gather_reads_only_the_named_cells() {
        let mut vals = vec![Value::Null; 130];
        vals[3] = Value::Int(3);
        vals[70] = Value::str("seventy");
        vals[129] = Value::Int(129);
        let r = row(&vals);
        let mut out = vec![Value::Int(-1)];
        r.gather_into(&[3, 4, 70, 129, 200], &mut out);
        assert_eq!(
            out,
            [Value::Int(3), Value::Null, vals[70].clone(), Value::Int(129), Value::Null]
        );
        r.gather_into(&[], &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn get_beyond_bitmap_is_null() {
        let r = row(&[Value::Int(1)]);
        assert!(r.get(500).is_null());
    }

    #[test]
    fn all_null_row() {
        let r = row(&vec![Value::Null; 10]);
        assert_eq!(r.non_null_count(), 0);
        assert_eq!(r.decompress(10), vec![Value::Null; 10]);
    }

    #[test]
    fn nulls_cost_only_bitmap_bits() {
        let narrow = row(&[Value::Int(1), Value::Int(2)]);
        let mut wide_vals = vec![Value::Null; 128];
        wide_vals[0] = Value::Int(1);
        wide_vals[1] = Value::Int(2);
        let wide = row(&wide_vals);
        // 126 extra NULL columns cost exactly one extra bitmap word (8 bytes).
        assert_eq!(wide.storage_bytes() - narrow.storage_bytes(), 8);
    }

    #[test]
    fn truncating_decompress_with_offset_values_avoids_dense_fast_path() {
        // Two stored values but NOT in the first two columns: the dense
        // prefix check must reject this even though values.len() >= ncols.
        let r = row(&[Value::Null, Value::Int(1), Value::Int(2)]);
        assert_eq!(r.decompress(2), vec![Value::Null, Value::Int(1)]);
    }

    #[test]
    fn decompress_truncates_to_requested_width() {
        let r = row(&[Value::Int(1), Value::Int(2), Value::Int(3)]);
        assert_eq!(r.decompress(2), vec![Value::Int(1), Value::Int(2)]);
    }
}
