//! A cheap deterministic hasher for the simulation's hot hash tables.
//!
//! The memory's register store takes one insert per replicated log entry at
//! each of the m memories, and session dedup one per decided entry at each
//! replica. The standard library's SipHash is built to resist hash flooding
//! and costs several times more than these small fixed-width keys need.
//! [`FxHasher`] is the multiplicative hash rustc uses for its own tables:
//! one rotate, xor and multiply per word.
//!
//! **Not DoS-resistant.** An adversary that chooses keys can make them
//! collide. That is acceptable here: keys are register ids and command ids
//! the protocols choose, and the worst a Byzantine writer can do with
//! colliding keys is slow a simulation down — safety never depends on
//! hashing. Iteration order is deterministic but arbitrary; callers that
//! expose it sort first.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// The multiplicative (Fx-style) hasher; see the module docs.
#[derive(Clone, Copy, Default, Debug)]
pub struct FxHasher {
    hash: u64,
}

/// Odd multiplier with well-spread bits (the constant rustc's hasher uses).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

/// `RegId` hashes as one `u16` and three `u64`s, command ids as one `u64`;
/// other widths go through `write`.
impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add(n.into());
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    /// The multiply leaves its best-mixed bits at the top; the rotate
    /// brings them down to the low bits that pick a hash-table bucket.
    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

/// A `HashMap` hashed with [`FxHasher`].
pub(crate) type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// A `HashSet` hashed with [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::RegId;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(t: &T) -> u64 {
        BuildHasherDefault::<FxHasher>::default().hash_one(t)
    }

    #[test]
    fn deterministic_and_distinguishing() {
        let r = RegId::new(4, 7, 1 << 20, 3);
        assert_eq!(hash_of(&r), hash_of(&r));
        assert_ne!(hash_of(&r), hash_of(&RegId::new(4, 7, (1 << 20) + 1, 3)));
        assert_ne!(hash_of(&1u64), hash_of(&2u64));
        // Byte input is consumed in words, the last one zero-padded.
        let bytes = |b: &[u8]| {
            let mut h = FxHasher::default();
            h.write(b);
            h.finish()
        };
        assert_ne!(bytes(&[1, 2, 3]), bytes(&[1, 2, 4]));
        assert_ne!(bytes(&[1; 9]), bytes(&[1; 8]));
    }

    #[test]
    fn sequential_keys_spread_over_low_bits() {
        // Log instances are dense counters: their hashes must not pile up
        // in a few buckets of a power-of-two table.
        let mut buckets = FxHashSet::default();
        for b in 0..4096u64 {
            buckets.insert(hash_of(&RegId::new(4, b, 0, 1)) & 4095);
        }
        assert!(buckets.len() > 2048, "{} distinct buckets", buckets.len());
    }
}
