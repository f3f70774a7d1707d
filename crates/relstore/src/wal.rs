//! The write-ahead log: CRC32-framed, length-prefixed transaction records.
//!
//! ## On-disk format
//!
//! ```text
//! file   := magic frame*
//! magic  := "RSWALv1\0"                 (8 bytes)
//! frame  := len:u32le crc:u32le payload (crc = CRC32(payload))
//! payload:= nops:u32le op*              (one frame = one committed txn)
//! op     := 0x01 schema                       -- CREATE TABLE
//!         | 0x02 table:str column:str kind:u8 -- CREATE INDEX (kind 0)
//!         | 0x03 table:str nrows:u32 width:u32 value*  -- INSERT
//!         | 0x04 table:str row:u32 col:u32 value       -- UPDATE one cell
//!         | 0x05 table:str row:u32                     -- DELETE one row
//! ```
//!
//! ## Recovery invariant
//!
//! A frame is *committed* iff its length prefix, CRC and payload decode all
//! validate. Recovery replays committed frames in order and **truncates the
//! log at the first invalid byte** — a short header, a length running past
//! EOF, a CRC mismatch, or an undecodable payload all mark the torn tail a
//! crash mid-append leaves behind. Replaying a prefix of committed frames
//! always yields the state after a prefix of committed transactions, which
//! is exactly the guarantee the fault-injection suite checks. Recovery never
//! panics on arbitrary bytes.

use std::path::Path;

use crate::codec::{
    crc32, put_schema, put_str, put_u32, put_u8, put_value, Reader,
};
use crate::error::{Error, Result};
use crate::io::{FaultFile, FaultHandle};
use crate::table::TableSchema;
use crate::value::Value;

pub const WAL_MAGIC: &[u8; 8] = b"RSWALv1\0";

/// Upper bound on a single frame payload; a length prefix above this is
/// treated as corruption rather than an allocation request.
const MAX_FRAME: u32 = 1 << 28; // 256 MiB

const OP_CREATE_TABLE: u8 = 1;
const OP_CREATE_INDEX: u8 = 2;
const OP_INSERT_ROWS: u8 = 3;
const OP_UPDATE_CELL: u8 = 4;
const OP_DELETE_ROW: u8 = 5;

/// One logical mutation, as recovered from the log.
#[derive(Debug, Clone, PartialEq)]
pub enum WalOp {
    CreateTable(TableSchema),
    CreateIndex { table: String, column: String },
    InsertRows { table: String, rows: Vec<Vec<Value>> },
    UpdateCell { table: String, row_id: u32, col: u32, value: Value },
    /// Remove one row with `swap_remove` semantics (the last row moves into
    /// the vacated id) — replay is deterministic because the applier uses
    /// the same primitive.
    DeleteRow { table: String, row_id: u32 },
}

// ---------------------------------------------------------------------------
// Op encoding (called by the Database mutation paths)
// ---------------------------------------------------------------------------

pub fn encode_create_table(buf: &mut Vec<u8>, schema: &TableSchema) {
    put_u8(buf, OP_CREATE_TABLE);
    put_schema(buf, schema);
}

pub fn encode_create_index(buf: &mut Vec<u8>, table: &str, column: &str) {
    put_u8(buf, OP_CREATE_INDEX);
    put_str(buf, table);
    put_str(buf, column);
    crate::codec::put_index_kind(buf);
}

/// Encode an insert of dense rows (all `width` values per row).
pub fn encode_insert_rows(buf: &mut Vec<u8>, table: &str, width: usize, rows: &[Vec<Value>]) {
    put_u8(buf, OP_INSERT_ROWS);
    put_str(buf, table);
    put_u32(buf, rows.len() as u32);
    put_u32(buf, width as u32);
    for row in rows {
        for v in row {
            put_value(buf, v);
        }
    }
}

pub fn encode_update_cell(buf: &mut Vec<u8>, table: &str, row_id: u32, col: u32, value: &Value) {
    put_u8(buf, OP_UPDATE_CELL);
    put_str(buf, table);
    put_u32(buf, row_id);
    put_u32(buf, col);
    put_value(buf, value);
}

pub fn encode_delete_row(buf: &mut Vec<u8>, table: &str, row_id: u32) {
    put_u8(buf, OP_DELETE_ROW);
    put_str(buf, table);
    put_u32(buf, row_id);
}

fn decode_op(r: &mut Reader<'_>) -> Result<WalOp> {
    Ok(match r.take_u8()? {
        OP_CREATE_TABLE => WalOp::CreateTable(r.take_schema()?),
        OP_CREATE_INDEX => {
            let (table, column) = (r.take_str()?, r.take_str()?);
            r.take_index_kind()?;
            WalOp::CreateIndex { table, column }
        }
        OP_INSERT_ROWS => {
            let table = r.take_str()?;
            let nrows = r.take_u32()? as usize;
            let width = r.take_u32()? as usize;
            if width > (1 << 20) {
                return Err(Error::Corrupt(format!("absurd row width {width}")));
            }
            let mut rows = Vec::with_capacity(nrows.min(1 << 20));
            for _ in 0..nrows {
                let mut row = Vec::with_capacity(width);
                for _ in 0..width {
                    row.push(r.take_value()?);
                }
                rows.push(row);
            }
            WalOp::InsertRows { table, rows }
        }
        OP_UPDATE_CELL => WalOp::UpdateCell {
            table: r.take_str()?,
            row_id: r.take_u32()?,
            col: r.take_u32()?,
            value: r.take_value()?,
        },
        OP_DELETE_ROW => WalOp::DeleteRow { table: r.take_str()?, row_id: r.take_u32()? },
        t => return Err(Error::Corrupt(format!("unknown WAL op tag {t}"))),
    })
}

fn decode_frame(payload: &[u8]) -> Result<Vec<WalOp>> {
    let mut r = Reader::new(payload);
    let nops = r.take_u32()? as usize;
    let mut ops = Vec::with_capacity(nops.min(1 << 20));
    for _ in 0..nops {
        ops.push(decode_op(&mut r)?);
    }
    if r.remaining() != 0 {
        return Err(Error::Corrupt(format!("{} trailing bytes in frame", r.remaining())));
    }
    Ok(ops)
}

// ---------------------------------------------------------------------------
// Recovery (read side)
// ---------------------------------------------------------------------------

/// Result of scanning a WAL file: the committed transactions and the byte
/// length of the valid prefix (where the writer should resume).
pub struct WalRecovery {
    pub txns: Vec<Vec<WalOp>>,
    /// Validated length in bytes, *including* the magic. Zero when the file
    /// is missing or its magic is unreadable (the writer rewrites it).
    pub valid_len: u64,
}

/// Scan `path`, tolerating a torn tail: committed frames up to the first
/// invalid byte are returned, everything after is ignored (and later
/// truncated by [`WalWriter::open`]). Never panics on arbitrary bytes; a
/// missing file reads as an empty log. The read goes through the fault
/// layer, so a short *read* (bad sector under the tail) degrades exactly
/// like a torn write: recovery keeps the readable committed prefix.
pub fn recover(path: &Path, faults: &FaultHandle) -> Result<WalRecovery> {
    let bytes = match crate::io::read_file(path, faults) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Ok(WalRecovery { txns: Vec::new(), valid_len: 0 })
        }
        Err(e) => return Err(e.into()),
    };
    if bytes.len() < WAL_MAGIC.len() || &bytes[..WAL_MAGIC.len()] != WAL_MAGIC {
        // Unreadable header: treat the whole file as a torn tail.
        return Ok(WalRecovery { txns: Vec::new(), valid_len: 0 });
    }
    let mut txns = Vec::new();
    let mut pos = WAL_MAGIC.len();
    loop {
        if bytes.len() - pos < 8 {
            break; // short header = torn tail
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap());
        let crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().unwrap());
        if len > MAX_FRAME || bytes.len() - pos - 8 < len as usize {
            break; // length runs past EOF (or is garbage)
        }
        let payload = &bytes[pos + 8..pos + 8 + len as usize];
        if crc32(payload) != crc {
            break; // torn or flipped payload
        }
        match decode_frame(payload) {
            Ok(ops) => txns.push(ops),
            Err(_) => break, // CRC-valid but undecodable: stop conservatively
        }
        pos += 8 + len as usize;
    }
    Ok(WalRecovery { txns, valid_len: pos as u64 })
}

// ---------------------------------------------------------------------------
// Append (write side)
// ---------------------------------------------------------------------------

/// Appends committed frames to a WAL file through the fault-injection layer.
/// Every frame is fsynced before [`WalWriter::commit`] returns, so the
/// file's logical length is always the last committed frame boundary.
pub struct WalWriter {
    file: FaultFile,
}

impl WalWriter {
    /// Open `path` for appending at `valid_len` (from [`recover`]); torn
    /// bytes past it are truncated. A zero `valid_len` (fresh or headerless
    /// file) rewrites the magic.
    pub fn open(path: &Path, valid_len: u64, faults: FaultHandle) -> std::io::Result<WalWriter> {
        let mut file = FaultFile::open_append(path, valid_len, faults)?;
        if valid_len == 0 {
            file.append(WAL_MAGIC)?;
            file.sync()?;
        }
        Ok(WalWriter { file })
    }

    /// Durably append one transaction: frame header + payload, then fsync.
    /// On a failed write or fsync the file is truncated back to the previous
    /// frame boundary (best effort), so a crash-free restart cannot
    /// resurrect a transaction reported as failed; the caller must degrade
    /// to read-only.
    pub fn commit(&mut self, payload: &[u8]) -> std::io::Result<()> {
        let committed = self.file.offset();
        let mut frame = Vec::with_capacity(8 + payload.len());
        put_u32(&mut frame, payload.len() as u32);
        put_u32(&mut frame, crc32(payload));
        frame.extend_from_slice(payload);
        let res = self.file.append(&frame).and_then(|()| self.file.sync());
        if res.is_err() {
            self.file.truncate_to(committed);
        }
        res
    }

    /// Bytes durably committed so far (including the magic).
    pub fn len(&self) -> u64 {
        self.file.offset()
    }

    pub fn is_empty(&self) -> bool {
        self.len() <= WAL_MAGIC.len() as u64
    }
}

/// Build a one-transaction payload from encoded ops.
pub fn frame_payload(nops: u32, ops: &[u8]) -> Vec<u8> {
    let mut payload = Vec::with_capacity(4 + ops.len());
    put_u32(&mut payload, nops);
    payload.extend_from_slice(ops);
    payload
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::no_faults;
    use crate::value::SqlType;

    fn tmp_wal(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("relstore-wal-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("wal.0")
    }

    fn sample_ops() -> Vec<u8> {
        let mut ops = Vec::new();
        encode_create_table(
            &mut ops,
            &TableSchema::new("t", vec![("a".into(), SqlType::Int)]),
        );
        encode_insert_rows(&mut ops, "t", 1, &[vec![Value::Int(7)]]);
        ops
    }

    /// Every index is written with kind byte 0; stores written when
    /// `USING BTREE` was a tag carry a 1, which reads as the same index.
    #[test]
    fn create_index_writes_kind_zero_and_reads_zero_or_one() {
        let mut ops = Vec::new();
        encode_create_index(&mut ops, "t", "a");
        assert_eq!(ops.last(), Some(&0));
        let index = WalOp::CreateIndex { table: "t".into(), column: "a".into() };
        for kind in [0, 1] {
            *ops.last_mut().unwrap() = kind;
            let decoded = decode_frame(&frame_payload(1, &ops)).unwrap();
            assert_eq!(decoded, std::slice::from_ref(&index));
        }
        *ops.last_mut().unwrap() = 2;
        assert!(matches!(decode_frame(&frame_payload(1, &ops)), Err(Error::Corrupt(_))));
    }

    #[test]
    fn roundtrip_two_txns() {
        let path = tmp_wal("roundtrip");
        let mut w = WalWriter::open(&path, 0, no_faults()).unwrap();
        w.commit(&frame_payload(2, &sample_ops())).unwrap();
        let mut op2 = Vec::new();
        encode_update_cell(&mut op2, "t", 0, 0, &Value::Int(9));
        w.commit(&frame_payload(1, &op2)).unwrap();
        drop(w);

        let rec = recover(&path, &no_faults()).unwrap();
        assert_eq!(rec.txns.len(), 2);
        assert_eq!(rec.txns[0].len(), 2);
        assert_eq!(
            rec.txns[1][0],
            WalOp::UpdateCell { table: "t".into(), row_id: 0, col: 0, value: Value::Int(9) }
        );
        assert_eq!(rec.valid_len, std::fs::metadata(&path).unwrap().len());
    }

    #[test]
    fn torn_tail_truncates_to_committed_prefix() {
        let path = tmp_wal("torn");
        let mut w = WalWriter::open(&path, 0, no_faults()).unwrap();
        w.commit(&frame_payload(2, &sample_ops())).unwrap();
        let committed_len = w.len();
        w.commit(&frame_payload(2, &sample_ops())).unwrap();
        drop(w);

        // Truncate into the middle of the second frame.
        let full = std::fs::read(&path).unwrap();
        for cut in committed_len as usize..full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let rec = recover(&path, &no_faults()).unwrap();
            assert_eq!(rec.txns.len(), 1, "cut at {cut}");
            assert_eq!(rec.valid_len, committed_len, "cut at {cut}");
        }
    }

    #[test]
    fn delete_row_op_roundtrips() {
        let path = tmp_wal("delete-op");
        let mut w = WalWriter::open(&path, 0, no_faults()).unwrap();
        let mut ops = Vec::new();
        encode_delete_row(&mut ops, "t", 3);
        w.commit(&frame_payload(1, &ops)).unwrap();
        drop(w);
        let rec = recover(&path, &no_faults()).unwrap();
        assert_eq!(rec.txns[0][0], WalOp::DeleteRow { table: "t".into(), row_id: 3 });
    }

    #[test]
    fn failed_commit_sync_leaves_the_previous_frame_boundary() {
        use crate::io::ScriptedFaults;
        let path = tmp_wal("commit-sync-fault");
        {
            let mut w = WalWriter::open(&path, 0, no_faults()).unwrap();
            w.commit(&frame_payload(2, &sample_ops())).unwrap();
        }
        let committed = std::fs::metadata(&path).unwrap().len();
        // Reopen with the next fsync scripted to fail: the frame was
        // written whole, but its commit failed, so it must not stay.
        let faults = ScriptedFaults::new().fail_sync(0).into_handle();
        let mut w = WalWriter::open(&path, committed, faults).unwrap();
        assert!(w.commit(&frame_payload(2, &sample_ops())).is_err());
        assert_eq!(w.len(), committed);
        drop(w);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), committed);
        let rec = recover(&path, &no_faults()).unwrap();
        assert_eq!(rec.txns.len(), 1, "the failed commit must not resurrect");
    }

    #[test]
    fn missing_and_headerless_files_read_empty() {
        let path = tmp_wal("missing");
        assert_eq!(recover(&path, &no_faults()).unwrap().txns.len(), 0);
        std::fs::write(&path, b"garbage").unwrap();
        let rec = recover(&path, &no_faults()).unwrap();
        assert_eq!(rec.txns.len(), 0);
        assert_eq!(rec.valid_len, 0);
    }
}
