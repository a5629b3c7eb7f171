//! End-to-end propagation-delay model (§5.3).
//!
//! The paper estimates *idle* latency — propagation only, no queueing —
//! between a user issuing a request and the response arriving, and
//! compares against baselines from the Cloudflare AIM dataset analysis
//! of [Bose et al., HotNets '24]: regular Starlink (bent pipe to a
//! terrestrial CDN) has a ~55 ms median; terrestrial users reaching a
//! terrestrial CDN see ~20 ms.
//!
//! Legs of a StarCDN request:
//!
//! ```text
//! user ──GSL──▶ first-contact ──ISL×h──▶ bucket owner ─▶ (hit: return)
//!                                             │ miss
//!                                 relay: ISL×√L to west/east neighbour
//!                                             │ still miss
//!                                 GSL down ▶ ground station ─▶ origin
//! ```
//!
//! All legs are doubled (request out, response back).

use crate::system::ServedFrom;
use serde::{Deserialize, Serialize};
use starcdn_constellation::isl::{IslKind, LinkModel};

/// Terrestrial constants calibrated to the paper's baselines.
pub mod calibration {
    /// One-way ground-station→IXP→CDN-edge delay, ms. Chosen so the
    /// regular-Starlink (no cache) median RTT lands at the paper's
    /// ~55 ms: 2×(GSL + GSL + this) ≈ 55 with Table-1 GSL averages.
    pub const TERRESTRIAL_CDN_ONEWAY_MS: f64 = 21.6;
    /// One-way ground-station→origin delay, ms (origins sit behind the
    /// CDN edge; misses pay this instead).
    pub const ORIGIN_ONEWAY_MS: f64 = 30.0;
    /// Median RTT of a *terrestrial* user to a terrestrial CDN edge, ms
    /// (the "Terrestrial CDN" curve of Fig. 10).
    pub const TERRESTRIAL_USER_CDN_RTT_MS: f64 = 20.0;
}

/// The latency model: link-level delays plus terrestrial legs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LatencyModel {
    pub link: LinkModel,
    pub terrestrial_cdn_oneway_ms: f64,
    pub origin_oneway_ms: f64,
}

/// Serialization (transmission) delay of `size_bytes` over a link of
/// `bandwidth_gbps`, in milliseconds.
///
/// The paper's latency analysis is propagation-only ("idle latency");
/// §7 leaves link-layer modelling as future work. This helper is the
/// first-order piece of it: an object must also be *clocked out* onto
/// the link, which matters for multi-MB video objects on the 20 Gbps
/// GSL (1 MiB ≈ 0.42 ms) and is negligible on 100 Gbps ISLs.
pub(crate) fn transmission_delay_ms(size_bytes: u64, bandwidth_gbps: f64) -> f64 {
    if bandwidth_gbps <= 0.0 {
        return 0.0;
    }
    size_bytes as f64 * 8.0 / (bandwidth_gbps * 1e9) * 1000.0
}

impl Default for LatencyModel {
    fn default() -> Self {
        LatencyModel {
            link: LinkModel::table1(),
            terrestrial_cdn_oneway_ms: calibration::TERRESTRIAL_CDN_ONEWAY_MS,
            origin_oneway_ms: calibration::ORIGIN_ONEWAY_MS,
        }
    }
}

impl LatencyModel {
    /// One-way delay of an ISL route with the given hop mix.
    pub fn route_oneway_ms(&self, intra_hops: u16, inter_hops: u16) -> f64 {
        intra_hops as f64 * self.link.delay_ms(IslKind::IntraOrbit)
            + inter_hops as f64 * self.link.delay_ms(IslKind::InterOrbit)
    }

    /// RTT of a request served from the bucket owner's cache:
    /// user→first-contact (GSL) →owner (route), and back.
    pub(crate) fn space_hit_rtt_ms(
        &self,
        gsl_oneway_ms: f64,
        intra_hops: u16,
        inter_hops: u16,
    ) -> f64 {
        2.0 * (gsl_oneway_ms + self.route_oneway_ms(intra_hops, inter_hops))
    }

    /// RTT when the owner missed but a same-bucket neighbour
    /// `relay_span` inter-orbit planes away served the object.
    pub(crate) fn relay_hit_rtt_ms(
        &self,
        gsl_oneway_ms: f64,
        intra_hops: u16,
        inter_hops: u16,
        relay_span: u16,
    ) -> f64 {
        self.space_hit_rtt_ms(gsl_oneway_ms, intra_hops, inter_hops)
            + 2.0 * relay_span as f64 * self.link.delay_ms(IslKind::InterOrbit)
    }

    /// RTT when the object had to come from the origin via the ground:
    /// the full space path plus owner→ground GSL plus ground→origin,
    /// both ways. `relay_penalty_span` > 0 adds the wasted relay probes.
    pub(crate) fn ground_miss_rtt_ms(
        &self,
        gsl_oneway_ms: f64,
        intra_hops: u16,
        inter_hops: u16,
        relay_penalty_span: u16,
    ) -> f64 {
        self.space_hit_rtt_ms(gsl_oneway_ms, intra_hops, inter_hops)
            + 2.0 * relay_penalty_span as f64 * self.link.delay_ms(IslKind::InterOrbit)
            + 2.0 * (self.link.delay_ms(IslKind::Gsl) + self.origin_oneway_ms)
    }

    /// First-order serialization delay of the response body: once per
    /// store-and-forward ISL hop (100 Gbps) plus the user service link
    /// (20 Gbps), plus the feeder uplink for ground fetches. Lives here,
    /// not on the fleet, so the engine and the shard replayer charge it
    /// through the same function.
    pub(crate) fn transmission_ms(
        &self,
        from: ServedFrom,
        size: u64,
        route_hops: u16,
        span: u16,
    ) -> f64 {
        let isl_bw = self.link.inter_orbit.bandwidth_gbps;
        let gsl_bw = self.link.gsl.bandwidth_gbps;
        let isl_hops = route_hops
            + match from {
                ServedFrom::RelayWest | ServedFrom::RelayEast => span,
                _ => 0,
            };
        let mut ms = isl_hops as f64 * transmission_delay_ms(size, isl_bw)
            + transmission_delay_ms(size, gsl_bw);
        if from == ServedFrom::Ground {
            // The object also crossed the feeder uplink.
            ms += transmission_delay_ms(size, gsl_bw);
        }
        ms
    }

    /// RTT of regular Starlink with no space cache (bent pipe to a
    /// terrestrial CDN edge): user→sat→GS→IXP→CDN and back.
    pub(crate) fn starlink_no_cache_rtt_ms(&self, gsl_oneway_ms: f64) -> f64 {
        2.0 * (gsl_oneway_ms + self.link.delay_ms(IslKind::Gsl) + self.terrestrial_cdn_oneway_ms)
    }

    /// RTT of a *terrestrial* user to a terrestrial CDN edge, jittered
    /// deterministically by `u ∈ [0,1)` to form a distribution around
    /// the calibrated median.
    pub(crate) fn terrestrial_cdn_rtt_ms(&self, u: f64) -> f64 {
        // Triangular-ish spread: median 20 ms, range ~[8, 45] ms.
        let med = calibration::TERRESTRIAL_USER_CDN_RTT_MS;
        if u < 0.5 {
            med * (0.4 + 1.2 * u)
        } else {
            med * (1.0 + 2.5 * (u - 0.5) * (u - 0.5) * 4.0)
        }
    }

    /// RTT of the Static Cache ideal: the cache hangs permanently above
    /// the user (GSL only) — on a miss it fetches from the ground.
    pub(crate) fn static_cache_rtt_ms(&self, gsl_oneway_ms: f64, hit: bool) -> f64 {
        if hit {
            2.0 * gsl_oneway_ms
        } else {
            2.0 * (gsl_oneway_ms + self.link.delay_ms(IslKind::Gsl) + self.origin_oneway_ms)
        }
    }
}

/// A latency CDF built from recorded samples.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct LatencyCdf {
    sorted_ms: Vec<f64>,
}

impl LatencyCdf {
    /// Build from raw samples (sorts a copy). Non-finite samples (NaN,
    /// ±∞) are dropped: they carry no latency information and would
    /// otherwise poison the top quantiles, since NaN total-orders above
    /// every real sample.
    pub(crate) fn from_samples(samples: Vec<f64>) -> Self {
        let mut samples: Vec<f64> = samples.into_iter().filter(|v| v.is_finite()).collect();
        samples.sort_by(|a, b| a.total_cmp(b));
        LatencyCdf { sorted_ms: samples }
    }

    /// Number of samples.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.sorted_ms.len()
    }

    /// The `q`-quantile: `None` when the CDF is empty or `q` is not a
    /// finite number (a NaN `q` used to clamp silently to the minimum).
    /// Out-of-range finite `q` clamps into `[0, 1]`, so `quantile(0.0)`
    /// is the exact minimum and `quantile(1.0)` the exact maximum (p100),
    /// for any sample count including a single sample.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.sorted_ms.is_empty() || !q.is_finite() {
            return None;
        }
        let idx = ((self.sorted_ms.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
        Some(self.sorted_ms[idx])
    }

    /// Median latency.
    pub fn median(&self) -> Option<f64> {
        self.quantile(0.5)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> LatencyModel {
        LatencyModel::default()
    }

    #[test]
    fn route_mixes_link_classes() {
        let m = model();
        // 1 intra (8.03) + 2 inter (2×2.15) = 12.33 one-way.
        assert!((m.route_oneway_ms(1, 2) - 12.33).abs() < 1e-9);
        assert_eq!(m.route_oneway_ms(0, 0), 0.0);
    }

    #[test]
    fn space_hit_is_round_trip() {
        let m = model();
        let rtt = m.space_hit_rtt_ms(2.94, 0, 1);
        assert!((rtt - 2.0 * (2.94 + 2.15)).abs() < 1e-9);
    }

    #[test]
    fn relay_adds_inter_orbit_span() {
        let m = model();
        let base = m.space_hit_rtt_ms(2.94, 0, 1);
        let relay = m.relay_hit_rtt_ms(2.94, 0, 1, 3);
        assert!((relay - base - 2.0 * 3.0 * 2.15).abs() < 1e-9);
    }

    #[test]
    fn miss_pays_origin() {
        let m = model();
        let hit = m.space_hit_rtt_ms(2.94, 1, 1);
        let miss = m.ground_miss_rtt_ms(2.94, 1, 1, 0);
        assert!((miss - hit - 2.0 * (2.94 + 30.0)).abs() < 1e-9);
        // A wasted relay probe makes the miss slower still.
        assert!(m.ground_miss_rtt_ms(2.94, 1, 1, 3) > miss);
    }

    #[test]
    fn starlink_no_cache_median_calibrated_to_55ms() {
        // §5.3: regular Starlink median RTT ≈ 55 ms.
        let m = model();
        let rtt = m.starlink_no_cache_rtt_ms(2.94);
        assert!((rtt - 55.0).abs() < 2.5, "no-cache RTT {rtt}");
    }

    #[test]
    fn starcdn_hit_beats_no_cache_by_more_than_2x() {
        // The headline: StarCDN improves user-perceived latency ~2.5×.
        let m = model();
        let hit = m.space_hit_rtt_ms(2.94, 0, 1); // typical L=4 route
        let nocache = m.starlink_no_cache_rtt_ms(2.94);
        assert!(nocache / hit > 2.5, "speedup only {}", nocache / hit);
    }

    #[test]
    fn terrestrial_cdn_distribution_median() {
        let m = model();
        let med = m.terrestrial_cdn_rtt_ms(0.5);
        assert!((med - 20.0).abs() < 1.0, "terrestrial median {med}");
        assert!(m.terrestrial_cdn_rtt_ms(0.05) < med);
        assert!(m.terrestrial_cdn_rtt_ms(0.95) > med);
    }

    #[test]
    fn static_cache_hit_is_pure_gsl() {
        let m = model();
        assert!((m.static_cache_rtt_ms(2.0, true) - 4.0).abs() < 1e-9);
        assert!(m.static_cache_rtt_ms(2.0, false) > 60.0);
    }

    #[test]
    fn transmission_charges_each_link_the_body_crosses() {
        let m = LatencyModel::default();
        let size = 1 << 20;
        let gsl = transmission_delay_ms(size, m.link.gsl.bandwidth_gbps);
        let isl = transmission_delay_ms(size, m.link.inter_orbit.bandwidth_gbps);
        // A local hit over 3 route hops: 3 ISLs and the service link.
        assert_eq!(m.transmission_ms(ServedFrom::LocalHit, size, 3, 2), 3.0 * isl + gsl);
        // A relay hit adds the span to the neighbour.
        assert_eq!(m.transmission_ms(ServedFrom::RelayEast, size, 3, 2), 5.0 * isl + gsl);
        // A ground fetch also crossed the feeder uplink.
        assert_eq!(m.transmission_ms(ServedFrom::Ground, size, 3, 2), 3.0 * isl + gsl + gsl);
    }

    #[test]
    fn transmission_delay_first_order() {
        // 1 MiB over the 20 Gbps GSL ≈ 0.42 ms.
        let d = transmission_delay_ms(1 << 20, 20.0);
        assert!((d - 0.4194).abs() < 0.001, "{d}");
        // Negligible over a 100 Gbps ISL.
        assert!(transmission_delay_ms(1 << 20, 100.0) < 0.1);
        // Degenerate bandwidth returns zero rather than infinity.
        assert_eq!(transmission_delay_ms(1000, 0.0), 0.0);
        assert_eq!(transmission_delay_ms(0, 20.0), 0.0);
    }

    #[test]
    fn cdf_quantiles() {
        let cdf = LatencyCdf::from_samples(vec![30.0, 10.0, 20.0, 40.0, 50.0]);
        assert_eq!(cdf.len(), 5);
        assert_eq!(cdf.median(), Some(30.0));
        assert_eq!(cdf.quantile(0.0), Some(10.0));
        assert_eq!(cdf.quantile(1.0), Some(50.0));
    }

    #[test]
    fn empty_cdf() {
        let cdf = LatencyCdf::default();
        assert_eq!(cdf.len(), 0);
        assert_eq!(cdf.median(), None);
        assert_eq!(cdf.quantile(0.0), None);
        assert_eq!(cdf.quantile(1.0), None);
        assert_eq!(cdf.quantile(0.0), None);
        assert_eq!(cdf.quantile(1.0), None);
        // from_samples of nothing is the same as default.
        assert_eq!(LatencyCdf::from_samples(vec![]), cdf);
    }

    #[test]
    fn single_sample_cdf() {
        let cdf = LatencyCdf::from_samples(vec![42.0]);
        assert_eq!(cdf.len(), 1);
        for q in [0.0, 0.25, 0.5, 0.99, 1.0] {
            assert_eq!(cdf.quantile(q), Some(42.0), "q={q}");
        }
        assert_eq!(cdf.quantile(0.0), Some(42.0));
        assert_eq!(cdf.quantile(1.0), Some(42.0));
    }

    #[test]
    fn p100_is_exact_max_and_out_of_range_clamps() {
        let cdf = LatencyCdf::from_samples(vec![5.0, 1.0, 9.0, 3.0]);
        assert_eq!(cdf.quantile(1.0), Some(9.0));
        assert_eq!(cdf.quantile(1.0), Some(9.0));
        // q outside [0,1] clamps rather than indexing out of bounds.
        assert_eq!(cdf.quantile(7.5), Some(9.0));
        assert_eq!(cdf.quantile(-2.0), Some(1.0));
        assert_eq!(cdf.quantile(0.0), Some(1.0));
    }

    #[test]
    fn non_finite_q_is_rejected_not_silently_minimum() {
        let cdf = LatencyCdf::from_samples(vec![10.0, 20.0, 30.0]);
        // A NaN q used to clamp to index 0 and report the minimum.
        assert_eq!(cdf.quantile(f64::NAN), None);
        assert_eq!(cdf.quantile(f64::INFINITY), None);
        assert_eq!(cdf.quantile(f64::NEG_INFINITY), None);
    }

    #[test]
    fn non_finite_samples_are_dropped() {
        let cdf =
            LatencyCdf::from_samples(vec![10.0, f64::NAN, 20.0, f64::INFINITY, f64::NEG_INFINITY]);
        assert_eq!(cdf.len(), 2);
        // Without filtering, NaN sorts above every real and p100 is NaN.
        assert_eq!(cdf.quantile(1.0), Some(20.0));
        assert_eq!(cdf.quantile(0.0), Some(10.0));
    }
}
