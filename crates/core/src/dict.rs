//! Term dictionary: canonical RDF term encodings ↔ dense integer IDs.
//!
//! Every RDF engine surveyed for the ROADMAP dictionary-encodes terms so the
//! relational layer joins, hashes and sorts 8-byte integers instead of string
//! bytes. Here terms are interned at load/insert time to IDs assigned densely
//! from 1 upward in first-appearance order, and the DPH/DS/RPH/RS tables
//! store only those IDs; lexical forms are materialized in
//! `results::decode_value` when rows become `Solutions`.
//!
//! ## Storage
//!
//! Terms live verbatim in one append-only string arena, with one `u64`
//! start offset per entry; resolving an ID is a single slice read. The
//! term → ID index keeps only a 64-bit hash per entry (collisions are
//! verified against the arena), so no second copy of the lexical space
//! exists. Nothing is compressed in memory: front-coding measured larger
//! than the strings on this repo's data (DESIGN.md §4.7 has the numbers).
//!
//! ## ID space
//!
//! * `0` is never assigned — a zero in a term column is corruption.
//! * Term IDs are **positive** (`1..=n`, dense, append-only).
//! * Multi-valued list IDs (lids) in DPH/RPH value cells are **negative**
//!   (`-1, -2, …`, see `loader::next_lid`), so a single-valued term ID can
//!   never accidentally equi-join against `ds.l_id`/`rs.l_id` through the
//!   `LEFT OUTER JOIN … COALESCE` fall-through path, and insert/delete logic
//!   can tell the two cell kinds apart by sign alone.
//!
//! ## Recovery invariant
//!
//! The dictionary persists as the `sys_dict` table, appended inside the same
//! WAL batch as the rows that introduced its entries (`RdfStore::persist_*`).
//! After any crash + replay, every ID stored in a data table has exactly one
//! `sys_dict` entry, and that entry carries the encoding the ID had when the
//! batch committed — an ID can never resolve to the wrong string, because
//! IDs are append-only and entries are immutable once written.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Memory accounting for `/stats` and `BENCH_load.json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DictMemStats {
    /// Interned terms (highest assigned ID).
    pub entries: usize,
    /// Total bytes of all term encodings.
    pub raw_bytes: u64,
    /// Bytes held: arena + 8 per entry (the name predates the plain arena;
    /// the e2e benchmark reads this field).
    pub compressed_bytes: u64,
}

/// 64-bit FNV-1a with a SplitMix64 finalizer: the index key for a term. The
/// finalizer mixes FNV's weak low bits so the map can use the key directly
/// as its hash (see [`IdentityHasher`]).
fn term_hash(term: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in term.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

/// Pass-through hasher for keys that are already well-mixed 64-bit hashes.
#[derive(Default)]
struct IdentityHasher(u64);

impl Hasher for IdentityHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("IdentityHasher is only used with u64 keys")
    }
    fn write_u64(&mut self, n: u64) {
        self.0 = n;
    }
}

type HashIndex = HashMap<u64, i64, BuildHasherDefault<IdentityHasher>>;

/// An append-only intern table: canonical term encoding ↔ dense positive ID.
#[derive(Debug, Default)]
pub struct Dict {
    /// Concatenated term encodings, in insertion order.
    data: String,
    /// `offs[i]` is where entry `i` starts in `data`; its end is the next
    /// entry's start (or `data.len()` for the last entry).
    offs: Vec<u64>,
    /// term-hash → ID for the first entry with that hash; the rare extra
    /// IDs whose terms collide on the hash live in `collisions`.
    index: HashIndex,
    collisions: Vec<(u64, i64)>,
}

impl Dict {
    pub fn new() -> Dict {
        Dict::default()
    }

    /// Number of interned terms (also the highest assigned ID).
    pub fn len(&self) -> usize {
        self.offs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.offs.is_empty()
    }

    /// Memory accounting: entries, term bytes, bytes held.
    pub fn mem_stats(&self) -> DictMemStats {
        DictMemStats {
            entries: self.len(),
            raw_bytes: self.data.len() as u64,
            compressed_bytes: self.data.len() as u64 + (self.len() * 8) as u64,
        }
    }

    /// Intern a canonical encoding, returning its ID (new or existing).
    pub fn intern(&mut self, term: &str) -> i64 {
        let h = term_hash(term);
        if let Some(id) = self.find(h, term) {
            return id;
        }
        let id = self.append(term);
        match self.index.entry(h) {
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert(id);
            }
            std::collections::hash_map::Entry::Occupied(_) => self.collisions.push((h, id)),
        }
        id
    }

    /// Look up the ID of an encoding without interning it.
    pub fn lookup(&self, term: &str) -> Option<i64> {
        self.find(term_hash(term), term)
    }

    fn find(&self, h: u64, term: &str) -> Option<i64> {
        if let Some(&id) = self.index.get(&h) {
            if self.entry_eq(id, term) {
                return Some(id);
            }
            return self
                .collisions
                .iter()
                .filter(|&&(ch, _)| ch == h)
                .map(|&(_, cid)| cid)
                .find(|&cid| self.entry_eq(cid, term));
        }
        None
    }

    fn entry_eq(&self, id: i64, term: &str) -> bool {
        self.term(id as usize - 1) == term
    }

    /// Resolve an ID back to its encoding. Negative and zero IDs (lids,
    /// corruption) resolve to nothing.
    pub fn resolve(&self, id: i64) -> Option<String> {
        let mut out = String::new();
        self.resolve_into(id, &mut out).then_some(out)
    }

    /// Resolve an ID into a caller-provided buffer (cleared first), so hot
    /// loops can reuse one allocation. Returns `false` for unknown IDs.
    pub fn resolve_into(&self, id: i64, out: &mut String) -> bool {
        out.clear();
        if id < 1 || id as usize > self.len() {
            return false;
        }
        out.push_str(self.term(id as usize - 1));
        true
    }

    /// Entry `i` (0-based) as stored in the arena.
    fn term(&self, i: usize) -> &str {
        let lo = self.offs[i] as usize;
        let hi = self.offs.get(i + 1).map(|&o| o as usize).unwrap_or(self.data.len());
        &self.data[lo..hi]
    }

    /// Append a new entry, returning its ID. Does not touch the hash index.
    fn append(&mut self, term: &str) -> i64 {
        self.offs.push(self.data.len() as u64);
        self.data.push_str(term);
        self.len() as i64
    }

    /// Entries with IDs above `watermark`, in ID order — the tail that a
    /// persistence pass has not yet written out.
    pub fn entries_from(&self, watermark: usize) -> impl Iterator<Item = (i64, String)> + '_ {
        (watermark..self.len()).map(move |i| (i as i64 + 1, self.term(i).to_string()))
    }

    /// Restore one entry from storage. Entries must arrive in ID order with
    /// no gaps (`sys_dict` is written append-only, so a sorted scan of it
    /// satisfies this); anything else is corruption.
    pub fn restore(&mut self, id: i64, term: &str) -> std::result::Result<(), String> {
        if id != self.len() as i64 + 1 {
            return Err(format!("sys_dict gap: expected id {}, found {id}", self.len() + 1));
        }
        let h = term_hash(term);
        if self.find(h, term).is_some() {
            return Err(format!("sys_dict duplicate term for id {id}"));
        }
        let got = self.append(term);
        debug_assert_eq!(got, id);
        match self.index.entry(h) {
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert(id);
            }
            std::collections::hash_map::Entry::Occupied(_) => self.collisions.push((h, id)),
        }
        Ok(())
    }
}

/// A dictionary shared between the store (which interns during load/insert)
/// and the registered `RDF_*` scalar functions (which resolve IDs during
/// query execution, possibly from several worker threads at once). The dict
/// is append-only, so an ID never remaps while the process lives.
#[derive(Debug, Clone, Default)]
pub struct SharedDict(Arc<RwLock<Dict>>);

impl SharedDict {
    pub fn new() -> SharedDict {
        SharedDict::default()
    }

    pub fn read(&self) -> RwLockReadGuard<'_, Dict> {
        self.0.read().unwrap_or_else(|e| e.into_inner())
    }

    pub fn write(&self) -> RwLockWriteGuard<'_, Dict> {
        self.0.write().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdf::{decode_term, Term};

    #[test]
    fn intern_is_idempotent_and_dense() {
        let mut d = Dict::new();
        let a = d.intern("<http://a>");
        let b = d.intern("<http://b>");
        assert_eq!((a, b), (1, 2));
        assert_eq!(d.intern("<http://a>"), 1);
        assert_eq!(d.len(), 2);
        assert_eq!(d.lookup("<http://b>"), Some(2));
        assert_eq!(d.lookup("<http://c>"), None);
        assert_eq!(d.resolve(1).as_deref(), Some("<http://a>"));
        assert_eq!(d.resolve(0), None);
        assert_eq!(d.resolve(-1), None);
        assert_eq!(d.resolve(3), None);
    }

    #[test]
    fn restore_rejects_gaps_and_duplicates() {
        let mut d = Dict::new();
        d.restore(1, "<a>").unwrap();
        assert!(d.restore(3, "<c>").is_err());
        assert!(d.restore(2, "<a>").is_err());
        d.restore(2, "<b>").unwrap();
        assert_eq!(d.resolve(2).as_deref(), Some("<b>"));
    }

    /// Deterministic PRNG (SplitMix64) — the workspace builds offline, so no
    /// external property-testing crate; this generates the term corpus.
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    fn generated_terms(seed: u64, n: usize) -> Vec<Term> {
        let alphabets = ["ab", "héllo wörld", "日本語テキスト", "émoji 🦀 σ∑", "a\"b\\c\nd\te"];
        let mut rng = Rng(seed);
        (0..n)
            .map(|i| {
                let alpha: Vec<char> =
                    alphabets[rng.next() as usize % alphabets.len()].chars().collect();
                let len = 1 + rng.next() as usize % 12;
                let s: String =
                    (0..len).map(|_| alpha[rng.next() as usize % alpha.len()]).collect();
                match rng.next() % 6 {
                    0 => Term::iri(format!("http://example.org/{i}/{s}")),
                    1 => Term::blank(format!("b{i}")),
                    2 => Term::lit(s),
                    3 => Term::lang_lit(s, "ja"),
                    4 => Term::typed_lit(s, "http://example.org/dt"),
                    _ => Term::int_lit(rng.next() as i64),
                }
            })
            .collect()
    }

    /// Round-trip property: for generated terms — IRIs, plain/lang/typed
    /// literals with multi-byte UTF-8, escapes and blanks — interning the
    /// canonical encoding and resolving the ID back yields a string that
    /// decodes to the original term.
    #[test]
    fn round_trip_property_over_generated_terms() {
        let mut dict = Dict::new();
        let terms = generated_terms(42, 500);
        let ids: Vec<i64> = terms.iter().map(|t| dict.intern(&t.encode())).collect();
        for (t, id) in terms.iter().zip(&ids) {
            assert!(*id > 0);
            let enc = dict.resolve(*id).expect("interned id must resolve");
            assert_eq!(enc, t.encode(), "resolved encoding differs");
            assert_eq!(decode_term(&enc).as_ref(), Some(t), "decode(resolve(id)) != term");
        }
        // Distinct terms got distinct IDs; equal terms collapsed.
        for (i, a) in terms.iter().enumerate() {
            for (j, b) in terms.iter().enumerate() {
                if ids[i] == ids[j] {
                    assert_eq!(a, b, "id collision between distinct terms");
                } else {
                    assert_ne!(a, b, "duplicate term got two ids");
                }
            }
        }
    }

    /// Restore property: replaying `entries_from(0)` into a fresh dict (the
    /// recovery path) reproduces IDs, lookups, and resolutions exactly.
    #[test]
    fn restore_property_reproduces_dict() {
        for seed in [7u64, 99, 4242] {
            let mut dict = Dict::new();
            for t in generated_terms(seed, 300) {
                dict.intern(&t.encode());
            }
            let mut restored = Dict::new();
            for (id, term) in dict.entries_from(0) {
                restored.restore(id, &term).unwrap();
            }
            assert_eq!(restored.len(), dict.len());
            for id in 1..=dict.len() as i64 {
                let term = dict.resolve(id).unwrap();
                assert_eq!(restored.resolve(id).as_deref(), Some(term.as_str()));
                assert_eq!(restored.lookup(&term), Some(id));
            }
            assert_eq!(restored.mem_stats(), dict.mem_stats());
        }
    }

    /// Adjacent entries whose bytes diverge in the middle of a multi-byte
    /// character resolve intact: arena slices fall on entry boundaries.
    #[test]
    fn lcp_respects_char_boundaries() {
        let mut d = Dict::new();
        // "日本語" and "日本酒" share 6 bytes ("日本") then diverge mid-
        // sequence at byte 7 of the 3-byte third character.
        let a = d.intern("\"日本語\"");
        let b = d.intern("\"日本酒\"");
        assert_eq!(d.resolve(a).as_deref(), Some("\"日本語\""));
        assert_eq!(d.resolve(b).as_deref(), Some("\"日本酒\""));
    }

    #[test]
    fn entries_from_watermark_matches_resolve() {
        let mut d = Dict::new();
        for i in 0..50 {
            d.intern(&format!("<http://e/{i}>"));
        }
        let tail: Vec<(i64, String)> = d.entries_from(17).collect();
        assert_eq!(tail.len(), 33);
        for (id, term) in tail {
            assert_eq!(d.resolve(id), Some(term));
        }
    }
}
