//! A fast, non-cryptographic hasher for executor-internal hash tables.
//!
//! `std::collections::HashMap` defaults to SipHash-1-3, which is DoS-hardened
//! but byte-at-a-time slow; join builds, duplicate elimination and grouping
//! hash millions of short keys (after dictionary encoding, mostly single
//! `i64`s) where that hardening buys nothing — the inputs are the engine's
//! own rows, not attacker-controlled map keys living across requests. This is
//! the FxHash construction used by rustc: fold 8-byte words with
//! `rotate-xor-multiply` against a 64-bit odd constant derived from the
//! golden ratio. In-repo because the workspace builds fully offline.

use std::hash::{BuildHasherDefault, Hasher};

/// `floor(2^64 / φ)`, forced odd — the multiplier rustc's FxHash uses.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// FxHash-style streaming hasher. Not DoS-resistant by design; use only for
/// process-internal tables over trusted keys.
#[derive(Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_word(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        // The word mixer's multiply only propagates entropy upward, and the
        // map picks the bucket from the LOW bits of the hash. Inputs whose
        // entropy sits in high bits — notably `(small_int as f64).to_bits()`,
        // which is how `Value` hashes dictionary IDs so `1` and `1.0` agree
        // (low 40+ mantissa bits all zero) — would otherwise collide into
        // one bucket chain. Finish with a full-avalanche finalizer
        // (murmur3's fmix64) so every input bit reaches the bucket bits.
        let mut h = self.hash;
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        h ^= h >> 33;
        h
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in chunks.by_ref() {
            self.add_word(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            // Fold the length in so "ab" ≠ "ab\0".
            word[7] = rest.len() as u8;
            self.add_word(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add_word(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add_word(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add_word(v as u64);
    }
}

/// Hash one value through [`FxHasher`] — the exact hash an [`FxHashMap`]
/// would compute for it. An [`Index`](crate::Index) uses it to pick the
/// shard that holds a key.
pub fn fx_hash_one<T: std::hash::Hash + ?Sized>(v: &T) -> u64 {
    use std::hash::Hasher;
    let mut h = FxHasher::default();
    v.hash(&mut h);
    h.finish()
}

/// `BuildHasher` for `HashMap::with_capacity_and_hasher`.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed through [`FxHasher`].
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// A `HashSet` keyed through [`FxHasher`].
pub type FxHashSet<T> = std::collections::HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: &T) -> u64 {
        FxBuildHasher::default().hash_one(v)
    }

    #[test]
    fn deterministic_and_distinguishes_values() {
        assert_eq!(hash_of(&42u64), hash_of(&42u64));
        assert_ne!(hash_of(&42u64), hash_of(&43u64));
        assert_ne!(hash_of(&"ab"), hash_of(&"ab\0"));
        assert_ne!(hash_of(&"ab"), hash_of(&"ba"));
    }

    #[test]
    fn long_keys_use_all_bytes() {
        let a: Vec<u8> = (0..64).collect();
        let mut b = a.clone();
        b[63] ^= 1;
        assert_ne!(hash_of(&a), hash_of(&b));
        b[63] ^= 1;
        assert_eq!(hash_of(&a), hash_of(&b));
    }

    #[test]
    fn dense_float_encoded_ints_spread_across_low_bits() {
        // `Value::Int(k)` hashes `(k as f64).to_bits()`, whose low ~35 bits
        // are zero for small k. Bucket selection uses the low hash bits, so
        // they must still differ across a dense ID range.
        let mut low: std::collections::HashSet<u64> = std::collections::HashSet::new();
        for k in 1..=4096i64 {
            low.insert(hash_of(&(k as f64).to_bits()) & 0x7f);
        }
        assert_eq!(low.len(), 128, "dense IDs must reach every low-bit bucket");
    }

    #[test]
    fn map_roundtrip() {
        let mut m: FxHashMap<Vec<crate::Value>, usize> = FxHashMap::default();
        m.insert(vec![crate::Value::Int(7), crate::Value::str("x")], 1);
        assert_eq!(m.get(&vec![crate::Value::Int(7), crate::Value::str("x")]), Some(&1));
        assert_eq!(m.get(&vec![crate::Value::Int(8), crate::Value::str("x")]), None);
    }
}
