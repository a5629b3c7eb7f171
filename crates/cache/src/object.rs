//! Object identifiers, and the hasher under every id-keyed map.

use serde::{Deserialize, Serialize};
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};
use std::sync::OnceLock;

/// A content object identifier.
///
/// CDN URLs are hashed to opaque 64-bit ids; the trace generator assigns
/// ids densely. The id also feeds the bucket hash in
/// `starcdn_constellation::buckets` (after mixing, so dense ids spread
/// uniformly over buckets).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default, Serialize, Deserialize,
)]
pub struct ObjectId(pub u64);

impl ObjectId {
    /// A well-mixed 64-bit hash of the id, suitable for bucket selection.
    pub fn hash64(self) -> u64 {
        // splitmix64 finalizer.
        let mut x = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }
}

/// A hash map keyed by an id — [`ObjectId`], a satellite slot — hashed
/// by [`IdBuildHasher`] instead of `std`'s SipHash.
pub type IdMap<K, V> = HashMap<K, V, IdBuildHasher>;

/// `BuildHasher` for maps keyed by small fixed-width ids.
///
/// Every hasher it builds starts from one per-process random seed, drawn
/// once from `std`'s [`RandomState`], and absorbs each integer with one
/// folded 64×64→128-bit multiply ([`IdHasher`]). Against SipHash this
/// keeps the property that keys chosen without knowing the seed — ids
/// read from an access-log file or a checkpoint — cannot be aimed at one
/// bucket, and gives up SipHash's margin against an adversary who can
/// observe timings and adapt (DESIGN.md §8, "Id-keyed maps").
///
/// Iteration order of an [`IdMap`] differs from process to process, as
/// it does under `RandomState`: sort before anything reaches an output.
#[derive(Debug, Clone, Copy)]
pub struct IdBuildHasher {
    seed: u64,
}

impl Default for IdBuildHasher {
    fn default() -> Self {
        static SEED: OnceLock<u64> = OnceLock::new();
        IdBuildHasher { seed: *SEED.get_or_init(|| RandomState::new().hash_one(0x1D5E_ED00u64)) }
    }
}

impl BuildHasher for IdBuildHasher {
    type Hasher = IdHasher;

    #[inline]
    fn build_hasher(&self) -> IdHasher {
        IdHasher { state: self.seed }
    }
}

/// The hasher [`IdBuildHasher`] builds: `state ← fold((state ^ word) · M)`
/// per integer written, where `fold` xors the two halves of the 128-bit
/// product. Both halves matter to `hashbrown`: the low bits pick the
/// bucket and the top seven are the control-byte tag, and the fold
/// carries every input bit into both.
#[derive(Debug, Clone, Copy)]
pub struct IdHasher {
    state: u64,
}

/// Odd, bit-balanced multiplier (2^64 / φ).
const FOLD_MULTIPLIER: u64 = 0x9E37_79B9_7F4A_7C15;

impl IdHasher {
    #[inline]
    fn fold(&mut self, word: u64) {
        let product = (self.state ^ word) as u128 * FOLD_MULTIPLIER as u128;
        self.state = (product as u64) ^ (product >> 64) as u64;
    }
}

impl Hasher for IdHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    /// Byte strings are not what this hasher is for, but `Hash` impls
    /// may produce them (a `str` key, a slice length prefix): absorb
    /// them eight bytes at a time, the tail zero-padded.
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.fold(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.fold(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.fold(v);
    }
}

impl std::fmt::Display for ObjectId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "obj:{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_is_deterministic_and_mixing() {
        assert_eq!(ObjectId(7).hash64(), ObjectId(7).hash64());
        assert_ne!(ObjectId(7).hash64(), ObjectId(8).hash64());
        // Dense ids must spread over small moduli (bucket counts).
        let mut counts = [0usize; 4];
        for i in 0..10_000u64 {
            counts[(ObjectId(i).hash64() % 4) as usize] += 1;
        }
        for c in counts {
            assert!((2200..2800).contains(&c), "bucket skew: {counts:?}");
        }
    }

    /// Occupancy of 8 192 buckets by the low 13 bits, and how many of
    /// the 128 top-seven-bit tags appear — the two parts of a hash that
    /// `hashbrown` reads.
    fn spread<K: std::hash::Hash>(seed: u64, keys: impl Iterator<Item = K>) -> (u32, usize) {
        let build = IdBuildHasher { seed };
        let mut buckets = vec![0u32; 8192];
        let mut tags = [false; 128];
        for k in keys {
            let h = build.hash_one(k);
            buckets[(h & 8191) as usize] += 1;
            tags[(h >> 57) as usize] = true;
        }
        (*buckets.iter().max().unwrap(), tags.iter().filter(|&&t| t).count())
    }

    #[test]
    fn id_hasher_spreads_structured_keys_under_fixed_seeds() {
        /// `SatelliteId`'s shape (this crate sits below the orbit crate):
        /// a derived `Hash` over two `u16` fields.
        #[derive(Hash)]
        struct Slot {
            orbit: u16,
            slot: u16,
        }
        for seed in [0u64, 0x0123_4567_89AB_CDEF, u64::MAX] {
            let mut families: Vec<(String, Vec<u64>)> = vec![
                ("dense".into(), (0..4096).collect()),
                ("above bit 40".into(), (0..4096).map(|i| (i << 40) | 0x2A).collect()),
                ("below u64::MAX".into(), (0..4096).map(|i| u64::MAX - i).collect()),
            ];
            for k in [1u32, 3, 8, 13, 16, 24, 32, 40, 47, 52] {
                families.push((format!("multiples of 2^{k}"), (0..4096).map(|i| i << k).collect()));
            }
            for (name, ids) in families {
                let (max, tags) = spread(seed, ids.into_iter().map(ObjectId));
                assert!(max <= 8 && tags >= 100, "seed {seed:#x} {name}: max {max}, {tags} tags");
            }
            let grid = (0..72u16)
                .flat_map(|orbit| (0..18u16).map(move |slot| Slot { orbit, slot }))
                .chain([Slot { orbit: u16::MAX, slot: u16::MAX }]);
            let (max, tags) = spread(seed, grid);
            assert!(max <= 8 && tags >= 100, "seed {seed:#x} grid: max {max}, {tags} tags");
        }
    }

    #[test]
    fn id_hasher_is_seeded_once_per_process() {
        let (a, b) = (IdBuildHasher::default(), IdBuildHasher::default());
        assert_eq!(a.hash_one(ObjectId(7)), b.hash_one(ObjectId(7)));
        assert_ne!(a.hash_one(ObjectId(7)), IdBuildHasher { seed: !a.seed }.hash_one(ObjectId(7)));
        // A map built on it behaves as a map.
        let mut m: IdMap<ObjectId, u64> = IdMap::default();
        for i in 0..1000u64 {
            m.insert(ObjectId(i << 32), i);
        }
        assert_eq!(m.len(), 1000);
        assert!((0..1000u64).all(|i| m.get(&ObjectId(i << 32)) == Some(&i)));
    }

    #[test]
    fn display() {
        assert_eq!(ObjectId(42).to_string(), "obj:42");
    }
}
