//! Binary encoding primitives shared by the WAL and snapshot formats.
//!
//! Everything on disk is little-endian and length-prefixed; there is no
//! alignment and no varint cleverness — the durability layer favours a
//! format a hex dump can be read against over saving a few bytes. A
//! CRC32 (IEEE 802.3, the zlib/PNG polynomial) guards every WAL frame and
//! every snapshot payload, so torn or flipped bytes are detected instead
//! of deserialized.

use crate::error::{Error, Result};
use crate::table::TableSchema;
use crate::value::{SqlType, Value};

// ---------------------------------------------------------------------------
// CRC32 (IEEE), table-driven
// ---------------------------------------------------------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xedb8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc32_table();

/// CRC32 (IEEE) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xffff_ffffu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
    }
    c ^ 0xffff_ffff
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

pub fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}

pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub fn put_i64(buf: &mut Vec<u8>, v: i64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

pub fn put_value(buf: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => put_u8(buf, 0),
        Value::Bool(b) => {
            put_u8(buf, 1);
            put_u8(buf, *b as u8);
        }
        Value::Int(i) => {
            put_u8(buf, 2);
            put_i64(buf, *i);
        }
        Value::Double(d) => {
            put_u8(buf, 3);
            put_u64(buf, d.to_bits());
        }
        Value::Str(s) => {
            put_u8(buf, 4);
            put_str(buf, s);
        }
    }
}

fn sql_type_tag(t: SqlType) -> u8 {
    match t {
        SqlType::Bool => 0,
        SqlType::Int => 1,
        SqlType::Double => 2,
        SqlType::Text => 3,
    }
}

pub fn put_schema(buf: &mut Vec<u8>, schema: &TableSchema) {
    put_str(buf, &schema.name);
    put_u32(buf, schema.columns.len() as u32);
    for c in &schema.columns {
        put_str(buf, &c.name);
        put_u8(buf, sql_type_tag(c.ty));
    }
}

/// The index-kind byte after an index's column name. Every index is the
/// same equality index, written as kind 0.
pub fn put_index_kind(buf: &mut Vec<u8>) {
    put_u8(buf, 0);
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// Cursor over an on-disk byte buffer; every `take_*` fails with
/// [`Error::Corrupt`] instead of panicking when the buffer is short.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(Error::Corrupt(format!(
                "short read: wanted {n} bytes, {} left",
                self.remaining()
            )));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    pub fn take_u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    pub fn take_u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub fn take_u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub fn take_i64(&mut self) -> Result<i64> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub fn take_str(&mut self) -> Result<String> {
        let len = self.take_u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| Error::Corrupt("string is not valid UTF-8".into()))
    }

    pub fn take_value(&mut self) -> Result<Value> {
        Ok(match self.take_u8()? {
            0 => Value::Null,
            1 => Value::Bool(self.take_u8()? != 0),
            2 => Value::Int(self.take_i64()?),
            3 => Value::Double(f64::from_bits(self.take_u64()?)),
            4 => Value::str(self.take_str()?),
            t => return Err(Error::Corrupt(format!("unknown value tag {t}"))),
        })
    }

    pub fn take_schema(&mut self) -> Result<TableSchema> {
        let name = self.take_str()?;
        let ncols = self.take_u32()? as usize;
        let mut columns = Vec::with_capacity(ncols.min(1 << 16));
        for _ in 0..ncols {
            let cname = self.take_str()?;
            let ty = match self.take_u8()? {
                0 => SqlType::Bool,
                1 => SqlType::Int,
                2 => SqlType::Double,
                3 => SqlType::Text,
                t => return Err(Error::Corrupt(format!("unknown type tag {t}"))),
            };
            columns.push((cname, ty));
        }
        Ok(TableSchema::new(name, columns))
    }

    /// The index-kind byte: 0, or 1 from stores written when `USING BTREE`
    /// was a tag. Both read as the one equality index.
    pub fn take_index_kind(&mut self) -> Result<()> {
        match self.take_u8()? {
            0 | 1 => Ok(()),
            t => Err(Error::Corrupt(format!("unknown index kind {t}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        // Standard check value for the IEEE polynomial.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn value_roundtrip() {
        let vals = vec![
            Value::Null,
            Value::Bool(true),
            Value::Int(-42),
            Value::Double(2.5),
            Value::str("héllo\nworld"),
        ];
        let mut buf = Vec::new();
        for v in &vals {
            put_value(&mut buf, v);
        }
        let mut r = Reader::new(&buf);
        for v in &vals {
            assert_eq!(&r.take_value().unwrap(), v);
        }
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn schema_roundtrip() {
        let schema = TableSchema::new(
            "t",
            vec![("a".into(), SqlType::Int), ("b".into(), SqlType::Text)],
        );
        let mut buf = Vec::new();
        put_schema(&mut buf, &schema);
        let got = Reader::new(&buf).take_schema().unwrap();
        assert_eq!(got, schema);
    }

    #[test]
    fn short_buffer_is_corrupt_not_panic() {
        let mut buf = Vec::new();
        put_str(&mut buf, "abcdef");
        buf.truncate(6); // length prefix promises more bytes than exist
        assert!(matches!(Reader::new(&buf).take_str(), Err(Error::Corrupt(_))));
    }
}
