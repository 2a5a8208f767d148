//! Fast, deterministic hashing for hot-path maps.
//!
//! `std`'s default `RandomState` SipHash is keyed per process: iteration
//! order varies run to run (a determinism hazard for any code that iterates
//! a map) and the hash itself costs tens of nanoseconds per lookup. The
//! event core and the runtime's per-op indexes key on small integers, so we
//! use the Firefox/rustc multiply-xor hash instead: a couple of cycles per
//! word, and — with no random seed — byte-identical iteration order on
//! every run.
//!
//! Not DoS-resistant, by design: all keys are simulator-generated ids, never
//! attacker-controlled input.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// 64-bit Fx multiplier (golden-ratio derived, as in rustc's `FxHasher`).
const K: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// One-at-a-time word hasher: `hash = (hash rotl 5 ^ word) * K`.
#[derive(Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            #[expect(clippy::expect_used, reason = "chunks_exact(8) yields exactly 8 bytes")]
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(tail));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(n as u64);
    }
    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add(n as u64);
    }
    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }
    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }
    #[inline]
    fn write_u128(&mut self, n: u128) {
        self.add(n as u64);
        self.add((n >> 64) as u64);
    }
    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

/// `HashMap` with the Fx hasher (deterministic iteration order).
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;
/// `HashSet` with the Fx hasher (deterministic iteration order).
pub type FxHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

/// Hash one value with the Fx hasher (route fingerprints, cache keys).
pub fn fx_hash_one<T: std::hash::Hash>(v: &T) -> u64 {
    let mut h = FxHasher::default();
    v.hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_maps() {
        let mut a = FxHashMap::default();
        let mut b = FxHashMap::default();
        for i in 0..1000u64 {
            a.insert(i, i * 2);
            b.insert(i, i * 2);
        }
        let ka: Vec<u64> = a.keys().copied().collect();
        let kb: Vec<u64> = b.keys().copied().collect();
        assert_eq!(ka, kb, "same insertion history must give same order");
    }

    #[test]
    fn distributes_small_integers() {
        // Sequential ids must not collide into a handful of buckets.
        let hashes: FxHashSet<u64> = (0..10_000u64).map(|i| fx_hash_one(&i)).collect();
        assert_eq!(hashes.len(), 10_000);
    }

    #[test]
    fn hashes_byte_slices() {
        assert_ne!(
            fx_hash_one(&b"abcdefgh".as_slice()),
            fx_hash_one(&b"abcdefgi".as_slice())
        );
        // Tail shorter than a word still contributes.
        assert_ne!(
            fx_hash_one(&b"abc".as_slice()),
            fx_hash_one(&b"abd".as_slice())
        );
    }
}
