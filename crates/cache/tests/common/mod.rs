//! Shared by the id-map oracles: a local PRNG (independent of the `rand`
//! stand-in's stream) and the key shapes a weak hasher would fold
//! together.

use starcdn_cache::object::ObjectId;

pub(crate) struct SplitMix(pub u64);

impl SplitMix {
    pub(crate) fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }
}

/// The `rank`-th id of the seed's key family (`seed % 4`): dense ids,
/// multiples of 2^k, ids differing only above bit 40, neighbours of
/// `u64::MAX`.
pub(crate) fn key(seed: u64, rank: u64) -> ObjectId {
    ObjectId(match seed % 4 {
        0 => rank,
        1 => rank << (3 + (seed / 4) % 50),
        2 => (rank << 40) | 0x2A,
        _ => u64::MAX - rank,
    })
}
