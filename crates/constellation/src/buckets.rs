//! The paper's LSN-specific consistent hashing: √L×√L bucket tiling.
//!
//! Objects are hashed into `L` disjoint buckets; buckets are mapped onto
//! the ISL grid in a repeating √L×√L pattern so that, from any satellite,
//! every bucket is reachable within `2⌊√L/2⌋` hops (§3.2; the paper notes
//! this bound is identical for L = 4 and L = 9, which is why L = 9's
//! consistent-hash routing adds no latency over L = 4).

use crate::grid::GridTopology;
use serde::{Deserialize, Serialize};
use starcdn_orbit::walker::SatelliteId;

/// A content bucket identifier in `0..L`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct BucketId(pub u32);

/// Errors constructing a tiling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TilingError {
    /// `L` must be a positive perfect square so a √L×√L tile exists.
    NotPerfectSquare(u32),
    /// The √L×√L tile is wider than a grid axis, so some bucket has no
    /// owner anywhere on the grid.
    TileExceedsGrid { root: u32, num_planes: u16, sats_per_plane: u16 },
}

impl std::fmt::Display for TilingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TilingError::NotPerfectSquare(l) => {
                write!(f, "bucket count {l} is not a positive perfect square")
            }
            TilingError::TileExceedsGrid { root, num_planes, sats_per_plane } => write!(
                f,
                "a {root}×{root} bucket tile does not fit a {num_planes}×{sats_per_plane} grid"
            ),
        }
    }
}

impl std::error::Error for TilingError {}

/// A √L×√L bucket tiling over the grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BucketTiling {
    /// Number of buckets L.
    pub num_buckets: u32,
    /// √L — the tile edge.
    pub root: u32,
}

impl BucketTiling {
    /// Create a tiling with `L` buckets. `L` must be a perfect square
    /// (the paper uses L = 4 and L = 9; Fig. 9 sweeps 1, 4, 9, 16, 25).
    pub fn new(num_buckets: u32) -> Result<Self, TilingError> {
        if num_buckets == 0 {
            return Err(TilingError::NotPerfectSquare(num_buckets));
        }
        let root = (num_buckets as f64).sqrt().round() as u32;
        if root * root != num_buckets {
            return Err(TilingError::NotPerfectSquare(num_buckets));
        }
        Ok(BucketTiling { num_buckets, root })
    }

    /// [`BucketTiling::new`], additionally requiring that one whole tile
    /// fits `grid` — the condition under which every bucket has an owner
    /// and [`nearest_owner`](Self::nearest_owner) is total. Every
    /// serving path builds its tiling through here.
    pub fn for_grid(num_buckets: u32, grid: &GridTopology) -> Result<Self, TilingError> {
        let tiling = Self::new(num_buckets)?;
        if tiling.root > grid.num_planes.min(grid.sats_per_plane) as u32 {
            return Err(TilingError::TileExceedsGrid {
                root: tiling.root,
                num_planes: grid.num_planes,
                sats_per_plane: grid.sats_per_plane,
            });
        }
        Ok(tiling)
    }

    /// The bucket a satellite slot is responsible for.
    ///
    /// Tiles repeat every √L planes and √L slots:
    /// `bucket = (orbit mod √L)·√L + (slot mod √L)`.
    pub fn bucket_of_sat(&self, id: SatelliteId) -> BucketId {
        let r = self.root as u16;
        BucketId(((id.orbit % r) as u32) * self.root + (id.slot % r) as u32)
    }

    /// The bucket an object belongs to, from its (already well-mixed) hash.
    pub fn bucket_of_object(&self, object_hash: u64) -> BucketId {
        BucketId((object_hash % self.num_buckets as u64) as u32)
    }

    /// Worst-case ISL hops from any satellite to the nearest owner of any
    /// bucket: `2⌊√L/2⌋` (one `⌊√L/2⌋` per grid axis).
    pub fn worst_case_hops(&self) -> u16 {
        2 * (self.root / 2) as u16
    }

    /// Per-axis worst-case hop count `⌊√L/2⌋`.
    pub fn worst_case_hops_per_axis(&self) -> u16 {
        (self.root / 2) as u16
    }

    /// The nearest satellite (in wrap-around grid distance) owning
    /// `bucket`, starting from `from`. Ties prefer the smaller offset on
    /// the plane axis, then the slot axis, eastward/northward first —
    /// deterministic so every satellite routes identically. The tile
    /// must fit the grid ([`BucketTiling::for_grid`]).
    pub fn nearest_owner(
        &self,
        grid: &GridTopology,
        from: SatelliteId,
        bucket: BucketId,
    ) -> SatelliteId {
        debug_assert!(bucket.0 < self.num_buckets);
        // The bucket pattern is axis-separable, so the nearest owner
        // combines the nearest plane residue with the nearest slot
        // residue.
        let want_plane_mod = (bucket.0 / self.root) as u16;
        let want_slot_mod = (bucket.0 % self.root) as u16;
        let plane =
            nearest_with_residue(from.orbit, want_plane_mod, self.root as u16, grid.num_planes);
        let slot =
            nearest_with_residue(from.slot, want_slot_mod, self.root as u16, grid.sats_per_plane);
        SatelliteId::new(plane, slot)
    }
}

/// Nearest coordinate to `from` (cyclic, size `n`) whose value mod `r`
/// equals `residue`; on equal offsets the upward one.
///
/// Closed form, for every `residue < r ≤ n` (`r` need not divide `n`):
/// upward the candidate is the next value ≥ `from` with the residue, or
/// past the wrap the first such value from 0 (`residue` itself);
/// downward the previous value ≤ `from`, or past the wrap the last such
/// value below `n`.
fn nearest_with_residue(from: u16, residue: u16, r: u16, n: u16) -> u16 {
    // `for_grid` guarantees it for every serving path; a tiling built by
    // `new` and laid over a smaller grid stops here, not at a slot that
    // does not exist.
    assert!(r <= n, "a tile edge of {r} does not fit an axis of {n}");
    debug_assert!(residue < r);
    let (residue, r, n) = (residue as u32, r as u32, n as u32);
    let from = if from as u32 >= n { from as u32 % n } else { from as u32 };
    let phase = from % r;
    let ahead = if residue >= phase { residue - phase } else { residue + r - phase };
    let behind = if ahead == 0 { 0 } else { r - ahead };
    let (up, up_offset) =
        if from + ahead < n { (from + ahead, ahead) } else { (residue, n - from + residue) };
    let (down, down_offset) = if behind <= from {
        (from - behind, behind)
    } else {
        let last = residue + (n - 1 - residue) / r * r;
        (last, from + n - last)
    };
    (if up_offset <= down_offset { up } else { down }) as u16
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn grid() -> GridTopology {
        GridTopology::starlink()
    }

    /// The outward scan `nearest_with_residue` used to be — offset 0,
    /// +1, −1, +2, −2, … — kept as the reference the closed form is
    /// checked against.
    fn scan_nearest_with_residue(from: u16, residue: u16, r: u16, n: u16) -> u16 {
        for d in 0..=(n / 2 + 1) {
            let up = (from + d) % n;
            if up % r == residue {
                return up;
            }
            let down = (from + n - d % n) % n;
            if down % r == residue {
                return down;
            }
        }
        unreachable!("no coordinate with residue {residue} (mod {r}) in 0..{n}")
    }

    #[test]
    fn nearest_with_residue_matches_the_scan_on_every_small_axis() {
        for n in 1..=80u16 {
            for r in 1..=n.min(9) {
                for residue in 0..r {
                    for from in 0..n + 3 {
                        assert_eq!(
                            nearest_with_residue(from, residue, r, n),
                            scan_nearest_with_residue(from, residue, r, n),
                            "from={from} residue={residue} r={r} n={n}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn nearest_owner_matches_the_scan_on_every_slot_and_bucket() {
        // 16 and 25 do not divide 72 × 18: the wrap seam cuts a tile.
        let grids = [(72u16, 18u16), (6, 70), (5, 4)];
        let mut checked = 0usize;
        for (num_planes, sats_per_plane) in grids {
            let g = GridTopology { num_planes, sats_per_plane, seamless: true };
            for l in [1u32, 4, 9, 16, 25, 36] {
                let t = BucketTiling::new(l).unwrap();
                let r = t.root as u16;
                if r > num_planes.min(sats_per_plane) {
                    // Some bucket has no owner at all: construction
                    // for a serving path refuses the pair.
                    assert!(BucketTiling::for_grid(l, &g).is_err());
                    continue;
                }
                assert_eq!(BucketTiling::for_grid(l, &g), Ok(t));
                for from in g.iter_ids() {
                    for b in 0..l {
                        let want = SatelliteId::new(
                            scan_nearest_with_residue(
                                from.orbit,
                                (b / t.root) as u16,
                                r,
                                num_planes,
                            ),
                            scan_nearest_with_residue(
                                from.slot,
                                (b % t.root) as u16,
                                r,
                                sats_per_plane,
                            ),
                        );
                        let got = t.nearest_owner(&g, from, BucketId(b));
                        assert_eq!(got, want, "{num_planes}×{sats_per_plane} L={l} {from} b={b}");
                        assert_eq!(t.bucket_of_sat(got), BucketId(b));
                        checked += 1;
                    }
                }
            }
        }
        assert!(checked > 1296 * 91, "{checked}");
    }

    #[test]
    fn rejects_a_tile_wider_than_a_grid_axis() {
        let g = |num_planes, sats_per_plane| GridTopology {
            num_planes,
            sats_per_plane,
            seamless: true,
        };
        for (grid, l) in [(g(2, 2), 9u32), (g(3, 2), 9), (g(2, 3), 9), (g(72, 18), 361)] {
            assert_eq!(
                BucketTiling::for_grid(l, &grid),
                Err(TilingError::TileExceedsGrid {
                    root: BucketTiling::new(l).unwrap().root,
                    num_planes: grid.num_planes,
                    sats_per_plane: grid.sats_per_plane,
                }),
                "{grid:?} L={l}"
            );
        }
        assert_eq!(BucketTiling::for_grid(8, &g(2, 2)), Err(TilingError::NotPerfectSquare(8)));
        for (grid, l) in [(g(2, 2), 4u32), (g(3, 3), 9), (g(72, 18), 324), (g(72, 18), 25)] {
            assert_eq!(BucketTiling::for_grid(l, &grid), BucketTiling::new(l), "{grid:?} L={l}");
        }
    }

    #[test]
    fn rejects_non_squares() {
        for l in [0u32, 2, 3, 5, 8, 10, 24] {
            assert_eq!(BucketTiling::new(l), Err(TilingError::NotPerfectSquare(l)), "{l}");
        }
        for l in [1u32, 4, 9, 16, 25, 36] {
            assert!(BucketTiling::new(l).is_ok(), "{l}");
        }
    }

    #[test]
    fn l4_tile_pattern_matches_paper_figure() {
        // Fig. 5a: the 2×2 grid S1,N1,S2,N2 holds 4 distinct buckets.
        let t = BucketTiling::new(4).unwrap();
        let b = |o, s| t.bucket_of_sat(SatelliteId::new(o, s));
        let tile = [b(0, 0), b(0, 1), b(1, 0), b(1, 1)];
        let mut uniq = tile.to_vec();
        uniq.sort();
        uniq.dedup();
        assert_eq!(uniq.len(), 4, "2×2 tile must hold all four buckets");
        // Pattern repeats.
        assert_eq!(b(0, 0), b(2, 2));
        assert_eq!(b(1, 0), b(3, 16));
        assert_eq!(b(0, 1), b(70, 17));
    }

    #[test]
    fn every_bucket_present_in_every_tile_l9() {
        let t = BucketTiling::new(9).unwrap();
        for base_o in [0u16, 3, 33, 69] {
            for base_s in [0u16, 3, 15] {
                let mut seen = [false; 9];
                for dol in 0..3u16 {
                    for dsl in 0..3u16 {
                        let b = t.bucket_of_sat(SatelliteId::new(base_o + dol, base_s + dsl));
                        seen[b.0 as usize] = true;
                    }
                }
                assert!(seen.iter().all(|&x| x), "tile at ({base_o},{base_s})");
            }
        }
    }

    #[test]
    fn worst_case_hops_same_for_l4_and_l9() {
        // §5.3: "the routing overhead ... remains the same as when we have
        // L = 4 buckets (2⌊√L/2⌋ is the same for both configurations)".
        assert_eq!(BucketTiling::new(4).unwrap().worst_case_hops(), 2);
        assert_eq!(BucketTiling::new(9).unwrap().worst_case_hops(), 2);
        assert_eq!(BucketTiling::new(16).unwrap().worst_case_hops(), 4);
        assert_eq!(BucketTiling::new(25).unwrap().worst_case_hops(), 4);
        assert_eq!(BucketTiling::new(1).unwrap().worst_case_hops(), 0);
    }

    #[test]
    fn object_hash_maps_into_range() {
        let t = BucketTiling::new(9).unwrap();
        for h in [0u64, 1, 8, 9, u64::MAX] {
            assert!(t.bucket_of_object(h).0 < 9);
        }
        assert_eq!(t.bucket_of_object(9).0, 0);
    }

    #[test]
    fn nearest_owner_owns_the_bucket() {
        let g = grid();
        for l in [1u32, 4, 9] {
            let t = BucketTiling::new(l).unwrap();
            for from in [SatelliteId::new(0, 0), SatelliteId::new(71, 17), SatelliteId::new(36, 8)]
            {
                for b in 0..l {
                    let owner = t.nearest_owner(&g, from, BucketId(b));
                    assert_eq!(t.bucket_of_sat(owner), BucketId(b), "L={l} from={from} b={b}");
                }
            }
        }
    }

    #[test]
    fn own_bucket_owner_is_self() {
        let g = grid();
        let t = BucketTiling::new(9).unwrap();
        let id = SatelliteId::new(13, 7);
        assert_eq!(t.nearest_owner(&g, id, t.bucket_of_sat(id)), id);
    }

    proptest! {
        #[test]
        fn prop_nearest_owner_within_worst_case(
            l_idx in 0usize..3, o in 0u16..72, s in 0u16..18, h in any::<u64>(),
        ) {
            // L ∈ {4, 9, 36}: tile edges 2, 3, 6 all divide 72 and 18.
            let l = [4u32, 9, 36][l_idx];
            let g = grid();
            let t = BucketTiling::new(l).unwrap();
            let from = SatelliteId::new(o, s);
            let bucket = t.bucket_of_object(h);
            let owner = t.nearest_owner(&g, from, bucket);
            prop_assert_eq!(t.bucket_of_sat(owner), bucket);
            prop_assert!(
                g.hop_distance(from, owner) <= t.worst_case_hops(),
                "L={} from={} bucket={:?} owner={} dist={} bound={}",
                l, from, bucket, owner, g.hop_distance(from, owner), t.worst_case_hops()
            );
        }

        #[test]
        fn prop_worst_case_bound_tight_per_axis(l_idx in 0usize..3, o in 0u16..72, s in 0u16..18) {
            let l = [4u32, 9, 36][l_idx];
            let g = grid();
            let t = BucketTiling::new(l).unwrap();
            let from = SatelliteId::new(o, s);
            for b in 0..l {
                let owner = t.nearest_owner(&g, from, BucketId(b));
                prop_assert!(g.plane_distance(from.orbit, owner.orbit) <= t.worst_case_hops_per_axis());
                prop_assert!(g.slot_distance(from.slot, owner.slot) <= t.worst_case_hops_per_axis());
            }
        }

        #[test]
        fn prop_buckets_evenly_distributed(l_idx in 0usize..3) {
            let l = [4u32, 9, 36][l_idx];
            let g = grid();
            let t = BucketTiling::new(l).unwrap();
            let mut counts = vec![0usize; l as usize];
            for id in g.iter_ids() {
                counts[t.bucket_of_sat(id).0 as usize] += 1;
            }
            let expect = g.total_slots() / l as usize;
            for (b, c) in counts.iter().enumerate() {
                prop_assert_eq!(*c, expect, "bucket {} has {} owners", b, c);
            }
        }
    }
}
