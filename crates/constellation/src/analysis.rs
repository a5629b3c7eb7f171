//! Topology analysis: hop-distance distributions and bucket-routing
//! statistics.
//!
//! §3.2's latency argument rests on how far requests travel to reach a
//! bucket owner: worst case `2⌊√L/2⌋`, but the *average* is what the
//! median latency of Fig. 10 reflects. This module computes exact
//! distributions over the whole grid.

use crate::buckets::{BucketId, BucketTiling};
use crate::grid::GridTopology;

/// Exact distribution of a hop-count statistic over the grid.
#[derive(Debug, Clone, PartialEq)]
pub struct HopDistribution {
    /// `counts[h]` = number of samples at exactly `h` hops.
    pub counts: Vec<u64>,
}

impl HopDistribution {
    fn from_samples(samples: impl IntoIterator<Item = u16>) -> Self {
        let mut counts = Vec::new();
        for h in samples {
            if counts.len() <= h as usize {
                counts.resize(h as usize + 1, 0);
            }
            counts[h as usize] += 1;
        }
        HopDistribution { counts }
    }

    /// Total samples.
    pub(crate) fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Mean hops.
    pub fn mean(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        self.counts.iter().enumerate().map(|(h, &c)| h as f64 * c as f64).sum::<f64>()
            / total as f64
    }

    /// Maximum observed hops.
    #[cfg(test)]
    pub(crate) fn max(&self) -> u16 {
        (self.counts.len().saturating_sub(1)) as u16
    }

    /// Fraction of samples at exactly `h` hops.
    #[cfg(test)]
    pub(crate) fn fraction_at(&self, h: u16) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        self.counts.get(h as usize).copied().unwrap_or(0) as f64 / total as f64
    }
}

/// Distribution of the distance from every satellite to the nearest
/// owner of every bucket — the per-request routing cost of consistent
/// hashing, assuming requests land uniformly on first contacts.
pub fn bucket_routing_distribution(grid: &GridTopology, tiling: &BucketTiling) -> HopDistribution {
    let samples =
        grid.iter_ids().flat_map(|from| (0..tiling.num_buckets).map(move |b| (from, BucketId(b))));
    HopDistribution::from_samples(samples.map(|(from, b)| {
        let owner = tiling.nearest_owner(grid, from, b);
        grid.hop_distance(from, owner)
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> GridTopology {
        GridTopology::starlink()
    }

    #[test]
    fn starlink_diameter() {
        // 72×18 torus: ⌊72/2⌋ + ⌊18/2⌋ = 45 hops corner to corner.
        let g = grid();
        let origin = g.iter_ids().next().unwrap();
        assert_eq!(g.iter_ids().map(|b| g.hop_distance(origin, b)).max(), Some(45));
    }

    #[test]
    fn pairwise_distribution_covers_grid() {
        // The torus is vertex-transitive: distances from one origin cover
        // the whole profile.
        let g = grid();
        let origin = g.iter_ids().next().unwrap();
        let d = HopDistribution::from_samples(g.iter_ids().map(|b| g.hop_distance(origin, b)));
        assert_eq!(d.total(), 1296);
        assert_eq!(d.fraction_at(0), 1.0 / 1296.0);
        // Four neighbours at distance 1.
        assert_eq!(d.counts[1], 4);
    }

    #[test]
    fn bucket_routing_respects_worst_case_and_mean() {
        for l in [4u32, 9] {
            let t = BucketTiling::new(l).unwrap();
            let d = bucket_routing_distribution(&grid(), &t);
            assert_eq!(d.total(), 1296 * l as u64);
            assert!(d.max() <= t.worst_case_hops(), "L={l}");
            // Exactly 1/L of (satellite, bucket) pairs are zero-hop (the
            // satellite's own bucket).
            assert!((d.fraction_at(0) - 1.0 / l as f64).abs() < 1e-9, "L={l}");
            // Mean routing distance near 1 hop for the small tiles.
            assert!(d.mean() > 0.5 && d.mean() < 2.0, "L={l} mean {}", d.mean());
        }
    }

    #[test]
    fn l4_and_l9_share_worst_case_but_not_mean() {
        // §5.3: same 2⌊√L/2⌋ bound, but L=9's average routing is longer
        // (3×3 tiles) — visible as slightly higher median latency in
        // Fig. 10.
        let g = grid();
        let d4 = bucket_routing_distribution(&g, &BucketTiling::new(4).unwrap());
        let d9 = bucket_routing_distribution(&g, &BucketTiling::new(9).unwrap());
        assert_eq!(d4.max(), d9.max());
        assert!(d9.mean() > d4.mean(), "L9 mean {} !> L4 mean {}", d9.mean(), d4.mean());
    }

    #[test]
    fn empty_distribution_is_sane() {
        let d = HopDistribution::from_samples(std::iter::empty());
        assert_eq!(d.total(), 0);
        assert_eq!(d.mean(), 0.0);
        assert_eq!(d.fraction_at(3), 0.0);
    }

    #[test]
    fn l1_is_all_zero_hops() {
        let t = BucketTiling::new(1).unwrap();
        let d = bucket_routing_distribution(&grid(), &t);
        assert_eq!(d.max(), 0);
        assert_eq!(d.fraction_at(0), 1.0);
    }
}
