//! System-level metrics: hit rates, uplink usage, latency samples,
//! serve-source breakdown, per-satellite statistics, and the Table-3
//! neighbour-availability monitor.

use crate::latency::LatencyCdf;
use crate::system::ServedFrom;
use serde::{Deserialize, Serialize};
use starcdn_cache::object::IdMap;
use starcdn_cache::policy::AccessOutcome;
use starcdn_cache::stats::CacheStats;
use starcdn_orbit::walker::SatelliteId;

/// Table-3 counters: on a miss at the bucket owner, was the object
/// available in the west / east / both same-bucket neighbours?
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct NeighborAvailability {
    pub west_only_requests: u64,
    pub west_only_bytes: u64,
    pub east_only_requests: u64,
    pub east_only_bytes: u64,
    pub both_requests: u64,
    pub both_bytes: u64,
    pub neither_requests: u64,
    pub neither_bytes: u64,
}

impl NeighborAvailability {
    /// Record one miss probe.
    pub(crate) fn record(&mut self, west: bool, east: bool, bytes: u64) {
        match (west, east) {
            (true, false) => {
                self.west_only_requests += 1;
                self.west_only_bytes = self.west_only_bytes.saturating_add(bytes);
            }
            (false, true) => {
                self.east_only_requests += 1;
                self.east_only_bytes = self.east_only_bytes.saturating_add(bytes);
            }
            (true, true) => {
                self.both_requests += 1;
                self.both_bytes = self.both_bytes.saturating_add(bytes);
            }
            (false, false) => {
                self.neither_requests += 1;
                self.neither_bytes = self.neither_bytes.saturating_add(bytes);
            }
        }
    }
}

/// One sample of the per-epoch availability timeline recorded under a
/// fault schedule: how much of the constellation was in service when the
/// scheduler epoch began.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AvailabilityPoint {
    /// Scheduler epoch index.
    pub epoch: u64,
    /// Satellites in service at the start of the epoch.
    pub alive_sats: u32,
    /// Individually cut ISLs (dead-incident links not included).
    pub cut_links: u32,
}

/// Aggregate metrics of one simulation run. Every byte counter
/// saturates at `u64::MAX`, as [`CacheStats`]' do.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SystemMetrics {
    /// System-wide hit statistics: a "hit" is any request served from
    /// space (owner cache or relayed neighbour).
    pub stats: CacheStats,
    /// Bytes uploaded from ground to space (= miss bytes).
    pub uplink_bytes: u64,
    /// Per-source serve counts.
    pub served_local: u64,
    pub served_relay_west: u64,
    pub served_relay_east: u64,
    pub served_ground: u64,
    /// Bytes copied between satellites by relayed fetch (ISL traffic).
    #[serde(default)]
    pub relay_bytes: u64,
    /// Bytes copied between satellites by proactive prefetch (ISL
    /// traffic; the §3.3 rejected-alternative ablation).
    #[serde(default)]
    pub prefetch_bytes: u64,
    /// Objects copied by proactive prefetch.
    #[serde(default)]
    pub prefetch_copies: u64,
    /// Raw latency samples, ms.
    pub latencies_ms: Vec<f64>,
    /// Per-owner-satellite hit statistics (Fig. 11 grouping). Iteration
    /// order differs per process: sort before writing it anywhere.
    pub per_satellite: IdMap<SatelliteId, CacheStats>,
    /// Table-3 monitor (populated when `probe_neighbors_on_miss` is on).
    pub neighbor_availability: NeighborAvailability,
    /// Requests whose preferred bucket owner was dead and that were
    /// served by the §3.4 remap target instead.
    #[serde(default)]
    pub remapped_requests: u64,
    /// Misses charged to a recovered satellite that had not yet re-warmed
    /// (first accesses after a cold restart).
    #[serde(default)]
    pub cold_restart_misses: u64,
    /// Extra ISL hops paid because BFS had to route around dead
    /// satellites or cut links (vs. the healthy-torus hop distance).
    #[serde(default)]
    pub reroute_extra_hops: u64,
    /// Per-epoch constellation availability under a fault schedule
    /// (empty for static-failure runs).
    #[serde(default)]
    pub availability: Vec<AvailabilityPoint>,
    /// Admission refusals by the capacity ledger (each retry attempt
    /// that was shed counts once; empty unless overload mode is on).
    #[serde(default)]
    pub shed_requests: u64,
    /// Retry attempts made beyond the first (replica probes).
    #[serde(default)]
    pub retry_attempts: u64,
    /// Terminal outcome classification under overload mode. A request
    /// ends in exactly one of these four (unreachable requests — no
    /// visible satellite at all — stay outside the classification, as
    /// they never enter the constellation).
    #[serde(default)]
    pub served_primary: u64,
    #[serde(default)]
    pub served_replica: u64,
    #[serde(default)]
    pub served_origin_fallback: u64,
    #[serde(default)]
    pub dropped_requests: u64,
    /// Per-epoch link-utilization timeline from the capacity ledger
    /// (empty unless overload mode is on).
    #[serde(default)]
    pub utilization: Vec<starcdn_constellation::capacity::UtilizationPoint>,
    /// Requests whose owner resolved to a live satellite that was
    /// unreachable across a partitioned grid; each was served degraded
    /// over the origin bent pipe instead.
    #[serde(default)]
    pub partitioned_requests: u64,
    /// Requests that found an origin fetch already in flight for their
    /// object and coalesced onto it (delayed hits; zero unless the
    /// delayed-hit model is enabled).
    #[serde(default)]
    pub delayed_hits: u64,
    /// Followers aboard origin fetches that completed and retired.
    #[serde(default)]
    pub coalesced_requests: u64,
    /// Histogram of residual fetch wait charged to delayed hits,
    /// keyed by residual epochs (1..=fetch_epochs).
    #[serde(default)]
    pub residual_epoch_hist: std::collections::BTreeMap<u64, u64>,
}

/// Recovery-SLO summary of one availability dip episode, derived from
/// the [`AvailabilityPoint`] timeline: how deep the constellation sank
/// and how long it took to start and to finish recovering. Epoch times
/// are scheduler epoch indices (`u64::MAX` when the run ended before
/// the milestone was reached).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RecoverySlo {
    /// Alive satellites immediately before the dip began.
    pub baseline_alive: u32,
    /// Minimum alive satellites during the dip.
    pub trough_alive: u32,
    /// `baseline_alive - trough_alive`.
    pub dip_depth: u32,
    /// First epoch with fewer alive satellites than the baseline.
    pub dip_start_epoch: u64,
    /// Epoch of the trough (first epoch attaining the minimum).
    pub trough_epoch: u64,
    /// First epoch after the trough where availability rose at all
    /// (`u64::MAX` if it never did).
    pub first_recovery_epoch: u64,
    /// First epoch at or after the trough back at the baseline
    /// (`u64::MAX` if the run ended still degraded).
    pub full_recovery_epoch: u64,
}

impl RecoverySlo {
    /// Epochs from the trough to the first upward movement.
    pub fn time_to_first_recovery(&self) -> Option<u64> {
        (self.first_recovery_epoch != u64::MAX)
            .then(|| self.first_recovery_epoch - self.trough_epoch)
    }

    /// Epochs from the dip start back to the baseline.
    pub fn time_to_full_recovery(&self) -> Option<u64> {
        (self.full_recovery_epoch != u64::MAX)
            .then(|| self.full_recovery_epoch - self.dip_start_epoch)
    }
}

impl SystemMetrics {
    /// Record one served request.
    pub fn record(&mut self, owner: SatelliteId, from: ServedFrom, size: u64, latency_ms: f64) {
        let outcome = if from.is_space_hit() { AccessOutcome::Hit } else { AccessOutcome::Miss };
        self.stats.record(outcome, size);
        self.per_satellite.entry(owner).or_default().record(outcome, size);
        self.latencies_ms.push(latency_ms);
        match from {
            ServedFrom::LocalHit => self.served_local += 1,
            ServedFrom::RelayWest => {
                self.served_relay_west += 1;
                self.relay_bytes = self.relay_bytes.saturating_add(size);
            }
            ServedFrom::RelayEast => {
                self.served_relay_east += 1;
                self.relay_bytes = self.relay_bytes.saturating_add(size);
            }
            ServedFrom::Ground => {
                self.served_ground += 1;
                self.uplink_bytes = self.uplink_bytes.saturating_add(size);
            }
        }
    }

    /// Uplink bandwidth normalized to serving everything from ground
    /// (the Fig. 8 metric; 1.0 = no cache at all).
    pub fn uplink_fraction(&self) -> f64 {
        if self.stats.bytes_requested == 0 {
            0.0
        } else {
            self.uplink_bytes as f64 / self.stats.bytes_requested as f64
        }
    }

    /// Latency CDF over all recorded samples.
    pub fn latency_cdf(&self) -> LatencyCdf {
        LatencyCdf::from_samples(self.latencies_ms.clone())
    }

    /// Recovery-SLO episodes derived from the availability timeline: one
    /// entry per contiguous dip below the preceding baseline. Pure
    /// derivation — nothing extra is stored, so engine↔replayer parity
    /// of the timeline carries over to the SLOs.
    pub fn recovery_slos(&self) -> Vec<RecoverySlo> {
        let pts = &self.availability;
        let mut out = Vec::new();
        let mut i = 1;
        while i < pts.len() {
            if pts[i].alive_sats >= pts[i - 1].alive_sats {
                i += 1;
                continue;
            }
            // Dip begins at `i`; baseline is the point just before.
            let baseline = pts[i - 1].alive_sats;
            let dip_start = pts[i].epoch;
            let mut trough = pts[i];
            let mut j = i;
            // The dip runs until availability is back at the baseline.
            while j < pts.len() && pts[j].alive_sats < baseline {
                if pts[j].alive_sats < trough.alive_sats {
                    trough = pts[j];
                }
                j += 1;
            }
            let first_recovery = pts[i..j]
                .iter()
                .find(|p| p.epoch > trough.epoch && p.alive_sats > trough.alive_sats)
                .map(|p| p.epoch)
                .unwrap_or(if j < pts.len() { pts[j].epoch } else { u64::MAX });
            let full_recovery = if j < pts.len() { pts[j].epoch } else { u64::MAX };
            out.push(RecoverySlo {
                baseline_alive: baseline,
                trough_alive: trough.alive_sats,
                dip_depth: baseline - trough.alive_sats,
                dip_start_epoch: dip_start,
                trough_epoch: trough.epoch,
                first_recovery_epoch: first_recovery,
                full_recovery_epoch: full_recovery,
            });
            i = j.max(i + 1);
        }
        out
    }

    /// Merge another run's metrics into this one.
    pub fn merge(&mut self, other: &SystemMetrics) {
        self.stats += other.stats;
        self.uplink_bytes = self.uplink_bytes.saturating_add(other.uplink_bytes);
        self.served_local += other.served_local;
        self.served_relay_west += other.served_relay_west;
        self.served_relay_east += other.served_relay_east;
        self.served_ground += other.served_ground;
        self.relay_bytes = self.relay_bytes.saturating_add(other.relay_bytes);
        self.prefetch_bytes = self.prefetch_bytes.saturating_add(other.prefetch_bytes);
        self.prefetch_copies += other.prefetch_copies;
        self.latencies_ms.extend_from_slice(&other.latencies_ms);
        self.remapped_requests += other.remapped_requests;
        self.cold_restart_misses += other.cold_restart_misses;
        self.reroute_extra_hops += other.reroute_extra_hops;
        self.availability.extend_from_slice(&other.availability);
        self.availability.sort_by_key(|p| p.epoch);
        self.availability.dedup_by_key(|p| p.epoch);
        self.shed_requests += other.shed_requests;
        self.retry_attempts += other.retry_attempts;
        self.served_primary += other.served_primary;
        self.served_replica += other.served_replica;
        self.served_origin_fallback += other.served_origin_fallback;
        self.dropped_requests += other.dropped_requests;
        self.utilization.extend_from_slice(&other.utilization);
        self.utilization.sort_by_key(|a| a.epoch);
        self.utilization.dedup_by_key(|p| p.epoch);
        self.partitioned_requests += other.partitioned_requests;
        self.delayed_hits += other.delayed_hits;
        self.coalesced_requests += other.coalesced_requests;
        for (&residual, &count) in &other.residual_epoch_hist {
            *self.residual_epoch_hist.entry(residual).or_insert(0) += count;
        }
        for (sat, st) in &other.per_satellite {
            *self.per_satellite.entry(*sat).or_default() += *st;
        }
        let n = &mut self.neighbor_availability;
        let o = &other.neighbor_availability;
        n.west_only_requests += o.west_only_requests;
        n.west_only_bytes = n.west_only_bytes.saturating_add(o.west_only_bytes);
        n.east_only_requests += o.east_only_requests;
        n.east_only_bytes = n.east_only_bytes.saturating_add(o.east_only_bytes);
        n.both_requests += o.both_requests;
        n.both_bytes = n.both_bytes.saturating_add(o.both_bytes);
        n.neither_requests += o.neither_requests;
        n.neither_bytes = n.neither_bytes.saturating_add(o.neither_bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_classifies_sources() {
        let mut m = SystemMetrics::default();
        let sat = SatelliteId::new(1, 1);
        m.record(sat, ServedFrom::LocalHit, 100, 10.0);
        m.record(sat, ServedFrom::RelayWest, 100, 20.0);
        m.record(sat, ServedFrom::RelayEast, 100, 20.0);
        m.record(sat, ServedFrom::Ground, 100, 70.0);
        assert_eq!(m.served_local, 1);
        assert_eq!(m.served_relay_west, 1);
        assert_eq!(m.served_relay_east, 1);
        assert_eq!(m.served_ground, 1);
        assert_eq!(m.relay_bytes, 200, "both relay hits move bytes over ISLs");
        // Relay hits count as space hits.
        assert!((m.stats.request_hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(m.uplink_bytes, 100);
        assert!((m.uplink_fraction() - 0.25).abs() < 1e-12);
        assert_eq!(m.per_satellite[&sat].requests, 4);
    }

    #[test]
    fn empty_metrics() {
        let m = SystemMetrics::default();
        assert_eq!(m.uplink_fraction(), 0.0);
        assert_eq!(m.latency_cdf().len(), 0);
    }

    #[test]
    fn neighbor_availability_cells() {
        let mut n = NeighborAvailability::default();
        n.record(true, false, 10);
        n.record(false, true, 20);
        n.record(true, true, 30);
        n.record(false, false, 40);
        assert_eq!(n.west_only_requests, 1);
        assert_eq!(n.west_only_bytes, 10);
        assert_eq!(n.east_only_bytes, 20);
        assert_eq!(n.both_bytes, 30);
        assert_eq!(n.neither_bytes, 40);
        assert_eq!([n.east_only_requests, n.both_requests, n.neither_requests], [1, 1, 1]);
    }

    #[test]
    fn merge_accumulates() {
        let sat = SatelliteId::new(0, 0);
        let mut a = SystemMetrics::default();
        a.record(sat, ServedFrom::LocalHit, 10, 5.0);
        let mut b = SystemMetrics::default();
        b.record(sat, ServedFrom::Ground, 30, 60.0);
        b.neighbor_availability.record(true, true, 30);
        a.merge(&b);
        assert_eq!(a.stats.requests, 2);
        assert_eq!(a.uplink_bytes, 30);
        assert_eq!(a.latencies_ms.len(), 2);
        assert_eq!(a.per_satellite[&sat].requests, 2);
        assert_eq!(a.neighbor_availability.both_requests, 1);
    }

    #[test]
    fn merge_degraded_mode_counters() {
        let mut a =
            SystemMetrics { remapped_requests: 3, cold_restart_misses: 1, ..Default::default() };
        a.availability.push(AvailabilityPoint { epoch: 0, alive_sats: 1296, cut_links: 0 });
        let mut b =
            SystemMetrics { remapped_requests: 2, reroute_extra_hops: 7, ..Default::default() };
        // Duplicate epoch 0 (parallel shards each see the boundary) plus a
        // new epoch 1 — merge dedups by epoch.
        b.availability.push(AvailabilityPoint { epoch: 0, alive_sats: 1296, cut_links: 0 });
        b.availability.push(AvailabilityPoint { epoch: 1, alive_sats: 1290, cut_links: 4 });
        a.merge(&b);
        assert_eq!(a.remapped_requests, 5);
        assert_eq!(a.cold_restart_misses, 1);
        assert_eq!(a.reroute_extra_hops, 7);
        assert_eq!(a.availability.len(), 2);
        assert_eq!(a.availability[1].alive_sats, 1290);
    }

    #[test]
    fn merge_overload_counters_and_utilization() {
        use starcdn_constellation::capacity::UtilizationPoint;
        let point = |epoch: u64, util: f64| UtilizationPoint {
            epoch,
            peak_gsl_util: util,
            peak_isl_util: 0.0,
            gsl_bytes: 0,
            isl_bytes: 0,
            shed_requests: 0,
        };
        let mut a = SystemMetrics { shed_requests: 2, served_primary: 5, ..Default::default() };
        a.utilization.push(point(0, 0.5));
        let mut b = SystemMetrics {
            shed_requests: 1,
            retry_attempts: 4,
            served_replica: 2,
            served_origin_fallback: 1,
            dropped_requests: 1,
            ..Default::default()
        };
        b.utilization.push(point(0, 0.5)); // duplicate epoch → deduped
        b.utilization.push(point(1, 0.9));
        a.merge(&b);
        assert_eq!(a.shed_requests, 3);
        assert_eq!(a.retry_attempts, 4);
        assert_eq!(a.served_primary, 5);
        assert_eq!(a.served_replica, 2);
        assert_eq!(a.served_origin_fallback, 1);
        assert_eq!(a.dropped_requests, 1);
        assert_eq!(a.utilization.len(), 2);
        assert_eq!(a.utilization[1].epoch, 1);
    }

    fn avail(epoch: u64, alive: u32) -> AvailabilityPoint {
        AvailabilityPoint { epoch, alive_sats: alive, cut_links: 0 }
    }

    #[test]
    fn recovery_slos_empty_without_dips() {
        let mut m = SystemMetrics::default();
        assert!(m.recovery_slos().is_empty());
        m.availability = vec![avail(0, 1296), avail(1, 1296), avail(2, 1296)];
        assert!(m.recovery_slos().is_empty(), "flat availability has no episodes");
    }

    #[test]
    fn recovery_slos_one_storm_episode() {
        // Baseline 1296, storm drops to 1200 then 1150, staged recovery
        // via 1210 back to 1296.
        let m = SystemMetrics {
            availability: vec![
                avail(0, 1296),
                avail(1, 1200),
                avail(2, 1150),
                avail(3, 1150),
                avail(4, 1210),
                avail(5, 1296),
                avail(6, 1296),
            ],
            ..Default::default()
        };
        let slos = m.recovery_slos();
        assert_eq!(slos.len(), 1);
        let s = slos[0];
        assert_eq!(s.baseline_alive, 1296);
        assert_eq!(s.trough_alive, 1150);
        assert_eq!(s.dip_depth, 146);
        assert_eq!(s.dip_start_epoch, 1);
        assert_eq!(s.trough_epoch, 2);
        assert_eq!(s.first_recovery_epoch, 4);
        assert_eq!(s.full_recovery_epoch, 5);
        assert_eq!(s.time_to_first_recovery(), Some(2));
        assert_eq!(s.time_to_full_recovery(), Some(4));
    }

    #[test]
    fn recovery_slos_unrecovered_dip_and_two_episodes() {
        let m = SystemMetrics {
            availability: vec![
                avail(0, 100),
                avail(1, 90), // episode 1: dips, recovers at 3
                avail(2, 95),
                avail(3, 100),
                avail(4, 80), // episode 2: never recovers
                avail(5, 80),
            ],
            ..Default::default()
        };
        let slos = m.recovery_slos();
        assert_eq!(slos.len(), 2);
        assert_eq!(slos[0].dip_depth, 10);
        assert_eq!(slos[0].full_recovery_epoch, 3);
        assert_eq!(slos[1].dip_depth, 20);
        assert_eq!(slos[1].first_recovery_epoch, u64::MAX);
        assert_eq!(slos[1].full_recovery_epoch, u64::MAX);
        assert_eq!(slos[1].time_to_first_recovery(), None);
        assert_eq!(slos[1].time_to_full_recovery(), None);
    }

    #[test]
    fn merge_delayed_hit_counters() {
        let mut a = SystemMetrics { delayed_hits: 2, coalesced_requests: 1, ..Default::default() };
        a.residual_epoch_hist.insert(1, 1);
        a.residual_epoch_hist.insert(2, 1);
        let mut b = SystemMetrics { delayed_hits: 3, coalesced_requests: 4, ..Default::default() };
        b.residual_epoch_hist.insert(2, 2);
        b.residual_epoch_hist.insert(5, 1);
        a.merge(&b);
        assert_eq!(a.delayed_hits, 5);
        assert_eq!(a.coalesced_requests, 5);
        assert_eq!(a.residual_epoch_hist[&1], 1);
        assert_eq!(a.residual_epoch_hist[&2], 3);
        assert_eq!(a.residual_epoch_hist[&5], 1);
    }

    #[test]
    fn merge_partitioned_requests() {
        let mut a = SystemMetrics { partitioned_requests: 2, ..Default::default() };
        let b = SystemMetrics { partitioned_requests: 3, ..Default::default() };
        a.merge(&b);
        assert_eq!(a.partitioned_requests, 5);
    }

    #[test]
    fn latency_cdf_from_metrics() {
        let mut m = SystemMetrics::default();
        let sat = SatelliteId::new(0, 0);
        for (i, lat) in [10.0, 30.0, 20.0].into_iter().enumerate() {
            m.record(sat, ServedFrom::LocalHit, i as u64 + 1, lat);
        }
        assert_eq!(m.latency_cdf().median(), Some(20.0));
    }
}
