//! Coverage and handover analytics.
//!
//! Quantifies the §3.1 claims that motivate StarCDN's design:
//!
//! * a user sees 10+ satellites at once (§3.1.2);
//! * the user→satellite mapping changes every few minutes at most — the
//!   Starlink scheduler reconfigures every 15 s and "the client-satellite
//!   mapping cannot last beyond a few minutes";
//! * a satellite serves a given location for under ten minutes (§3.1.1).

use crate::scheduler::{EpochScheduler, SchedulerConfig};
use crate::world::World;
use starcdn_orbit::coords::Geodetic;
use starcdn_orbit::time::{SimDuration, SimTime};
use starcdn_orbit::visibility::{visible_top_k_into, VisScratch};
use starcdn_orbit::walker::SatelliteId;
use starcdn_telemetry::Noop;

/// Visibility statistics for one location over a window.
#[derive(Debug, Clone, PartialEq)]
pub struct VisibilityStats {
    pub location: String,
    pub min_visible: usize,
    pub mean_visible: f64,
    pub max_visible: usize,
    /// Fraction of epochs with zero coverage.
    pub outage_fraction: f64,
}

/// Per-user link-assignment churn statistics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HandoverStats {
    /// Number of epoch transitions observed.
    pub transitions: u64,
    /// Transitions where the assigned satellite changed.
    pub handovers: u64,
    /// Longest run of consecutive epochs on one satellite.
    pub longest_stable_epochs: u64,
}

impl HandoverStats {
    /// Mean consecutive epochs a user keeps one satellite.
    pub fn mean_stable_epochs(&self) -> f64 {
        if self.handovers == 0 {
            self.transitions as f64 + 1.0
        } else {
            (self.transitions as f64 + 1.0) / (self.handovers as f64 + 1.0)
        }
    }
}

/// Count visible alive satellites per location every `epoch_secs` over
/// `duration`.
pub fn visibility_stats(
    world: &World,
    duration: SimDuration,
    epoch_secs: u64,
    min_elevation_deg: f64,
) -> Vec<VisibilityStats> {
    let mut snapshot = world.snapshot();
    let epochs = (duration.as_secs_f64() / epoch_secs as f64).ceil() as u64;
    let mut counts: Vec<Vec<usize>> = vec![Vec::new(); world.num_locations()];
    let (mut scratch, mut visible) = (VisScratch::default(), Vec::new());
    for e in 0..epochs {
        snapshot.advance_to(SimTime::from_secs(e * epoch_secs));
        for (i, loc) in world.locations.iter().enumerate() {
            visible_top_k_into(
                &world.satellites,
                snapshot.positions_soa(),
                Geodetic::from_degrees(loc.lat_deg, loc.lon_deg, 0.0),
                min_elevation_deg,
                usize::MAX,
                |id| world.failures.is_alive(id),
                &mut scratch,
                &mut visible,
            );
            counts[i].push(visible.len());
        }
    }
    world
        .locations
        .iter()
        .zip(&counts)
        .map(|(loc, c)| {
            let n = c.len().max(1) as f64;
            VisibilityStats {
                location: loc.name.clone(),
                min_visible: c.iter().copied().min().unwrap_or(0),
                mean_visible: c.iter().sum::<usize>() as f64 / n,
                max_visible: c.iter().copied().max().unwrap_or(0),
                outage_fraction: c.iter().filter(|&&x| x == 0).count() as f64 / n,
            }
        })
        .collect()
}

/// Track one virtual user's assignment across epochs and summarize the
/// churn. `user` indexes into the scheduler's per-location users.
pub fn handover_stats(
    world: &World,
    location_idx: usize,
    user: usize,
    duration: SimDuration,
    epoch_secs: u64,
    cfg: &SchedulerConfig,
) -> HandoverStats {
    assert!(user < cfg.users_per_location);
    let mut scheduler = EpochScheduler::new(world);
    let epochs = (duration.as_secs_f64() / epoch_secs as f64).ceil() as u64;
    let mut stats = HandoverStats::default();
    let mut prev: Option<SatelliteId> = None;
    let mut run = 0u64;
    for e in 0..epochs {
        scheduler.step(world, e, epoch_secs, cfg, &world.failures, &Noop);
        let cur = scheduler.schedule().assignments[location_idx][user].map(|a| a.satellite);
        if let Some(p) = prev {
            stats.transitions += 1;
            if cur != Some(p) {
                stats.handovers += 1;
                run = 0;
            } else {
                run += 1;
                stats.longest_stable_epochs = stats.longest_stable_epochs.max(run);
            }
        }
        prev = cur;
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nine_cities_see_ten_plus_satellites() {
        // §3.1.2: "a Starlink client often has 10+ satellites in view".
        let world = World::starlink_nine_cities();
        let stats = visibility_stats(&world, SimDuration::from_mins(95), 60, 25.0);
        assert_eq!(stats.len(), 9);
        for s in &stats {
            // Shell density peaks near ±53° latitude; lower-latitude
            // cities (Mexico City 19°N, Dallas 33°N, Atlanta 34°N) see
            // fewer satellites of this one shell.
            let floor = if s.location == "Mexico City" { 4.0 } else { 7.0 };
            assert!(s.mean_visible >= floor, "{}: mean visible {}", s.location, s.mean_visible);
            assert!(s.min_visible >= 1, "{}: lost coverage entirely", s.location);
            assert_eq!(s.outage_fraction, 0.0, "{}", s.location);
            assert!(s.max_visible >= s.min_visible);
        }
        // Mid-latitude cities really do see 10+.
        let london = stats.iter().find(|s| s.location == "London").unwrap();
        assert!(london.mean_visible >= 10.0, "London mean {}", london.mean_visible);
    }

    #[test]
    fn mapping_cannot_last_beyond_a_few_minutes() {
        // §3.1.2: "in any LEO network, the client-satellite mapping cannot
        // last beyond a few minutes".
        let world = World::starlink_nine_cities();
        let cfg = SchedulerConfig::default();
        let stats = handover_stats(&world, 4, 0, SimDuration::from_mins(60), 15, &cfg);
        assert!(stats.transitions >= 230);
        assert!(stats.handovers > 0, "no handovers in an hour is unphysical");
        // Longest stable stretch under 10 minutes (40 epochs of 15 s).
        assert!(
            stats.longest_stable_epochs < 40,
            "stable for {} epochs",
            stats.longest_stable_epochs
        );
        assert!(stats.mean_stable_epochs() < 40.0);
    }

    #[test]
    fn dead_satellites_reduce_visible_count() {
        let world = World::starlink_nine_cities();
        let healthy = visibility_stats(&world, SimDuration::from_mins(10), 60, 25.0);
        let failures = starcdn_constellation::failures::FailureModel::sample(&world.grid, 432, 3);
        let world = World::starlink_nine_cities().with_failures(failures);
        let degraded = visibility_stats(&world, SimDuration::from_mins(10), 60, 25.0);
        let h: f64 = healthy.iter().map(|s| s.mean_visible).sum();
        let d: f64 = degraded.iter().map(|s| s.mean_visible).sum();
        assert!(d < h, "outage must reduce mean visibility: {d} !< {h}");
    }

    #[test]
    fn handover_stats_edge_cases() {
        let s = HandoverStats::default();
        assert_eq!(s.mean_stable_epochs(), 1.0);
        let s = HandoverStats { transitions: 9, handovers: 0, longest_stable_epochs: 9 };
        assert_eq!(s.mean_stable_epochs(), 10.0);
    }
}
