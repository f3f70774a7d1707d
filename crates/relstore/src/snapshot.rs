//! Binary snapshot checkpoints of full table state.
//!
//! ## On-disk format
//!
//! ```text
//! file    := magic payload crc:u32le       (crc = CRC32(payload))
//! magic   := "RSNAPv1\0"                   (8 bytes)
//! payload := ntables:u32 table*
//! table   := schema nindexes:u32 (column:str kind:u8)* nrows:u64 row*
//! kind    := 0                              (1 is read as 0: see codec)
//! row     := value * width                 (dense; NULLs explicit)
//! ```
//!
//! A snapshot is written atomically (`.tmp` + fsync + rename), so recovery
//! sees either the previous snapshot or the complete new one — never a torn
//! file with a valid name. The trailing CRC covers the whole payload; any
//! bit flip fails validation and recovery falls back to the previous
//! generation (see `Database::open`).

use std::path::Path;

use crate::codec::{crc32, put_index_kind, put_schema, put_u32, put_u64, put_value, Reader};
use crate::error::{Error, Result};
use crate::io::{atomic_write, FaultHandle};
use crate::table::{Table, TableSchema};
use crate::value::Value;

pub const SNAPSHOT_MAGIC: &[u8; 8] = b"RSNAPv1\0";

/// One table's decoded snapshot contents.
pub struct SnapshotTable {
    pub schema: TableSchema,
    /// The indexed columns.
    pub indexes: Vec<String>,
    pub rows: Vec<Vec<Value>>,
}

/// Serialize `tables` (sorted by name for determinism) and write the
/// snapshot atomically to `path`.
pub fn write_snapshot(tables: &[&Table], path: &Path, faults: &FaultHandle) -> Result<()> {
    let mut sorted: Vec<&&Table> = tables.iter().collect();
    sorted.sort_by(|a, b| a.schema.name.cmp(&b.schema.name));

    let mut payload = Vec::new();
    put_u32(&mut payload, sorted.len() as u32);
    for t in sorted {
        put_schema(&mut payload, &t.schema);
        let indexes = t.indexed_columns();
        put_u32(&mut payload, indexes.len() as u32);
        for col in &indexes {
            crate::codec::put_str(&mut payload, col);
            put_index_kind(&mut payload);
        }
        put_u64(&mut payload, t.row_count() as u64);
        let mut row = Vec::new();
        for r in t.iter_rows() {
            r.decompress_into(t.width(), &mut row);
            for v in &row {
                put_value(&mut payload, v);
            }
        }
    }

    let mut file = Vec::with_capacity(SNAPSHOT_MAGIC.len() + payload.len() + 4);
    file.extend_from_slice(SNAPSHOT_MAGIC);
    let crc = crc32(&payload);
    file.extend_from_slice(&payload);
    put_u32(&mut file, crc);
    atomic_write(path, &file, faults)?;
    Ok(())
}

/// Load and validate a snapshot. Any structural damage — bad magic, short
/// file, CRC mismatch, undecodable payload — is an [`Error::Corrupt`];
/// loading never panics on arbitrary bytes. The read goes through the fault
/// layer: a short read truncates the payload and therefore fails the CRC,
/// so an unreadable snapshot degrades exactly like a corrupt one.
pub fn load_snapshot(path: &Path, faults: &FaultHandle) -> Result<Vec<SnapshotTable>> {
    let bytes = crate::io::read_file(path, faults)?;
    if bytes.len() < SNAPSHOT_MAGIC.len() + 4 {
        return Err(Error::Corrupt("snapshot shorter than header".into()));
    }
    if &bytes[..SNAPSHOT_MAGIC.len()] != SNAPSHOT_MAGIC {
        return Err(Error::Corrupt("bad snapshot magic".into()));
    }
    let payload = &bytes[SNAPSHOT_MAGIC.len()..bytes.len() - 4];
    let stored_crc = u32::from_le_bytes(bytes[bytes.len() - 4..].try_into().unwrap());
    if crc32(payload) != stored_crc {
        return Err(Error::Corrupt("snapshot CRC mismatch".into()));
    }

    let mut r = Reader::new(payload);
    let ntables = r.take_u32()? as usize;
    let mut out = Vec::with_capacity(ntables.min(1 << 16));
    for _ in 0..ntables {
        let schema = r.take_schema()?;
        let nindexes = r.take_u32()? as usize;
        let mut indexes = Vec::with_capacity(nindexes.min(1 << 10));
        for _ in 0..nindexes {
            indexes.push(r.take_str()?);
            r.take_index_kind()?;
        }
        let nrows = r.take_u64()? as usize;
        let width = schema.columns.len();
        let mut rows = Vec::with_capacity(nrows.min(1 << 24));
        for _ in 0..nrows {
            let mut row = Vec::with_capacity(width);
            for _ in 0..width {
                row.push(r.take_value()?);
            }
            rows.push(row);
        }
        out.push(SnapshotTable { schema, indexes, rows });
    }
    if r.remaining() != 0 {
        return Err(Error::Corrupt(format!(
            "{} trailing bytes in snapshot payload",
            r.remaining()
        )));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::no_faults;
    use crate::value::SqlType;

    fn tmp_snap(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("relstore-snap-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("snapshot.1")
    }

    fn sample_table() -> Table {
        let mut t = Table::new(TableSchema::new(
            "t",
            vec![("a".into(), SqlType::Int), ("b".into(), SqlType::Text)],
        ));
        t.insert(&[Value::Int(1), Value::str("x")]).unwrap();
        t.insert(&[Value::Int(2), Value::Null]).unwrap();
        t.create_index("a").unwrap();
        t
    }

    #[test]
    fn roundtrip() {
        let path = tmp_snap("roundtrip");
        let t = sample_table();
        write_snapshot(&[&t], &path, &no_faults()).unwrap();
        let tables = load_snapshot(&path, &no_faults()).unwrap();
        assert_eq!(tables.len(), 1);
        assert_eq!(tables[0].schema, t.schema);
        assert_eq!(tables[0].indexes, ["a"]);
        assert_eq!(
            tables[0].rows,
            vec![vec![Value::Int(1), Value::str("x")], vec![Value::Int(2), Value::Null]]
        );
    }

    #[test]
    fn any_single_bit_flip_is_detected() {
        let path = tmp_snap("bitflip");
        let t = sample_table();
        write_snapshot(&[&t], &path, &no_faults()).unwrap();
        let clean = std::fs::read(&path).unwrap();
        for byte in 0..clean.len() {
            let mut dirty = clean.clone();
            dirty[byte] ^= 0x10;
            std::fs::write(&path, &dirty).unwrap();
            assert!(
                load_snapshot(&path, &no_faults()).is_err(),
                "bit flip at byte {byte} went undetected"
            );
        }
    }

    #[test]
    fn truncations_are_corrupt_not_panic() {
        let path = tmp_snap("trunc");
        let t = sample_table();
        write_snapshot(&[&t], &path, &no_faults()).unwrap();
        let clean = std::fs::read(&path).unwrap();
        for cut in 0..clean.len() {
            std::fs::write(&path, &clean[..cut]).unwrap();
            assert!(load_snapshot(&path, &no_faults()).is_err(), "truncation at {cut} accepted");
        }
    }
}
