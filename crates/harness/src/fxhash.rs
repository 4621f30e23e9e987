//! A small multiply-rotate hasher (the Fx family) for the sweep engine's
//! own maps, which hash every scenario of a grid and never hand their
//! iteration order to any output.
//!
//! `std`'s default SipHash resists collision flooding; these maps hash
//! values the engine built itself, so that protection buys nothing and
//! costs several times a word-at-a-time hash. Only maps whose order is
//! never observed may use it (`DESIGN.md` §16): a different hasher changes
//! iteration order, never lookups.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Builds [`FxHasher`]s.
pub(crate) type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed through [`FxHasher`].
pub(crate) type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// An empty [`FxHashMap`] with room for `capacity` entries.
pub(crate) fn map_with_capacity<K, V>(capacity: usize) -> FxHashMap<K, V> {
    FxHashMap::with_capacity_and_hasher(capacity, BuildHasherDefault::default())
}

/// Folds each word into the state with an add and a multiply by an odd
/// constant; `finish` rotates the well-mixed high bits down to where
/// the table takes its bucket index.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct FxHasher {
    hash: u64,
}

const K: u64 = 0xf135_7aea_2e62_a9c5;

impl FxHasher {
    fn add(&mut self, word: u64) {
        self.hash = self.hash.wrapping_add(word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_le_bytes(chunk.try_into().expect("an 8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(word));
        }
        // The length keeps "ab" + "c" apart from "a" + "bc".
        self.add(bytes.len() as u64);
    }

    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash(value: impl Hash) -> u64 {
        BuildHasherDefault::<FxHasher>::default().hash_one(value)
    }

    #[test]
    fn equal_values_hash_alike_and_neighbours_apart() {
        assert_eq!(hash(("tinyllama", 8u32)), hash(("tinyllama", 8u32)));
        assert_ne!(hash(("ab", "c")), hash(("a", "bc")));
        assert_ne!(hash(1u64), hash(2u64));
        // Keys differing in one small field land in different buckets of
        // a small table: the low bits differ.
        let buckets: std::collections::HashSet<u64> =
            (0u32..64).map(|pct| hash(("tinyllama", pct)) & 63).collect();
        assert!(buckets.len() > 32, "{} distinct buckets of 64", buckets.len());
    }
}
