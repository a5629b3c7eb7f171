//! Link model: propagation delays and bandwidths of ISLs and GSLs.
//!
//! [`LinkModel::table1`] holds the paper's measured Starlink values
//! (intra-orbit ISL 8.03 ms avg, inter-orbit 2.15 ms, GSL 2.94 ms), used
//! for analytic latency accounting. [`geometric_delay_stats`] measures the
//! same delays from the actual inter-satellite distances of a Walker
//! shell: they reproduce the Table-1 averages while capturing the
//! latitude-dependent inter-orbit shrinkage.

use crate::grid::Direction;
use serde::{Deserialize, Serialize};
use starcdn_orbit::constants::SPEED_OF_LIGHT_KM_S;
use starcdn_orbit::propagator::Satellite;
use starcdn_orbit::time::SimTime;
use starcdn_orbit::walker::{SatelliteId, WalkerConstellation};

/// The three link classes of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum IslKind {
    /// Intra-orbit ISL: previous/next satellite in the same plane.
    IntraOrbit,
    /// Inter-orbit ISL: nearest satellite in an adjacent plane.
    InterOrbit,
    /// Ground-satellite link.
    Gsl,
}

impl IslKind {
    /// Classify a grid direction.
    pub(crate) fn of_direction(dir: Direction) -> IslKind {
        if dir.is_inter_orbit() {
            IslKind::InterOrbit
        } else {
            IslKind::IntraOrbit
        }
    }
}

/// Per-class delay and bandwidth parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkParams {
    pub avg_delay_ms: f64,
    pub min_delay_ms: f64,
    pub std_delay_ms: f64,
    pub bandwidth_gbps: f64,
}

/// The link model used by latency accounting.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinkModel {
    pub intra_orbit: LinkParams,
    pub inter_orbit: LinkParams,
    pub gsl: LinkParams,
}

impl LinkModel {
    /// Table 1 of the paper, verbatim.
    pub fn table1() -> Self {
        LinkModel {
            intra_orbit: LinkParams {
                avg_delay_ms: 8.03,
                min_delay_ms: 4.76,
                std_delay_ms: 0.376,
                bandwidth_gbps: 100.0,
            },
            inter_orbit: LinkParams {
                avg_delay_ms: 2.15,
                min_delay_ms: 1.32,
                std_delay_ms: 0.492,
                bandwidth_gbps: 100.0,
            },
            gsl: LinkParams {
                avg_delay_ms: 2.94,
                min_delay_ms: 1.82,
                std_delay_ms: 1.01,
                bandwidth_gbps: 20.0,
            },
        }
    }

    /// Parameters for a link class.
    pub(crate) fn params(&self, kind: IslKind) -> LinkParams {
        match kind {
            IslKind::IntraOrbit => self.intra_orbit,
            IslKind::InterOrbit => self.inter_orbit,
            IslKind::Gsl => self.gsl,
        }
    }

    /// One-way average delay for a link class, milliseconds.
    pub fn delay_ms(&self, kind: IslKind) -> f64 {
        self.params(kind).avg_delay_ms
    }
}

/// Delay statistics measured from shell geometry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeometricDelayStats {
    pub intra_avg_ms: f64,
    pub intra_min_ms: f64,
    pub intra_std_ms: f64,
    pub inter_avg_ms: f64,
    pub inter_min_ms: f64,
    pub inter_std_ms: f64,
}

/// Measure intra-/inter-orbit neighbour delays over the whole shell at `t`.
pub fn geometric_delay_stats(shell: &WalkerConstellation, t: SimTime) -> GeometricDelayStats {
    let sats: Vec<Satellite> = shell.satellites();
    let pos: Vec<_> = sats.iter().map(|s| s.orbit.position_eci(t).to_ecef(t)).collect();
    let idx = |id: SatelliteId| id.index(shell.sats_per_plane);

    let mut intra = Vec::new();
    let mut inter = Vec::new();
    for sat in &sats {
        let id = sat.id;
        let north = SatelliteId::new(id.orbit, (id.slot + 1) % shell.sats_per_plane);
        let east = SatelliteId::new((id.orbit + 1) % shell.num_planes, id.slot);
        let d_in = pos[idx(id)].distance_km(&pos[idx(north)]);
        let d_out = pos[idx(id)].distance_km(&pos[idx(east)]);
        intra.push(d_in / SPEED_OF_LIGHT_KM_S * 1000.0);
        inter.push(d_out / SPEED_OF_LIGHT_KM_S * 1000.0);
    }
    let summarize = |v: &[f64]| {
        let n = v.len() as f64;
        let avg = v.iter().sum::<f64>() / n;
        let var = v.iter().map(|x| (x - avg).powi(2)).sum::<f64>() / n;
        let min = v.iter().cloned().fold(f64::INFINITY, f64::min);
        (avg, min, var.sqrt())
    };
    let (ia, im, is) = summarize(&intra);
    let (oa, om, os) = summarize(&inter);
    GeometricDelayStats {
        intra_avg_ms: ia,
        intra_min_ms: im,
        intra_std_ms: is,
        inter_avg_ms: oa,
        inter_min_ms: om,
        inter_std_ms: os,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_values_verbatim() {
        let m = LinkModel::table1();
        assert_eq!(m.delay_ms(IslKind::IntraOrbit), 8.03);
        assert_eq!(m.delay_ms(IslKind::InterOrbit), 2.15);
        assert_eq!(m.delay_ms(IslKind::Gsl), 2.94);
        assert_eq!(m.params(IslKind::IntraOrbit).bandwidth_gbps, 100.0);
        assert_eq!(m.params(IslKind::Gsl).bandwidth_gbps, 20.0);
    }

    #[test]
    fn direction_classification() {
        assert_eq!(IslKind::of_direction(Direction::North), IslKind::IntraOrbit);
        assert_eq!(IslKind::of_direction(Direction::South), IslKind::IntraOrbit);
        assert_eq!(IslKind::of_direction(Direction::East), IslKind::InterOrbit);
        assert_eq!(IslKind::of_direction(Direction::West), IslKind::InterOrbit);
    }

    #[test]
    fn geometric_intra_orbit_matches_table1() {
        // Table 1 reports 8.03 ms average intra-orbit delay; the 72×18
        // shell's ~2400 km spacing should land within ~0.2 ms of that.
        let shell = WalkerConstellation::starlink_shell1();
        let stats = geometric_delay_stats(&shell, SimTime::ZERO);
        assert!((stats.intra_avg_ms - 8.03).abs() < 0.3, "intra avg {}", stats.intra_avg_ms);
        // Circular orbits: intra-plane spacing is constant, so std ≈ 0.
        assert!(stats.intra_std_ms < 0.1);
    }

    #[test]
    fn geometric_inter_orbit_matches_table1() {
        // Table 1: inter-orbit avg 2.15 ms, min 1.32 ms. Inter-plane
        // distance shrinks toward the inclination band edges.
        let shell = WalkerConstellation::starlink_shell1();
        let stats = geometric_delay_stats(&shell, SimTime::ZERO);
        assert!((stats.inter_avg_ms - 2.15).abs() < 0.6, "inter avg {}", stats.inter_avg_ms);
        assert!(stats.inter_min_ms < stats.inter_avg_ms);
        assert!(stats.inter_std_ms > 0.05, "inter delays should vary with latitude");
    }

    #[test]
    fn inter_orbit_cheaper_than_intra_orbit() {
        // The relayed-fetch design rests on this asymmetry (§3.3).
        let shell = WalkerConstellation::starlink_shell1();
        let stats = geometric_delay_stats(&shell, SimTime::ZERO);
        assert!(stats.inter_avg_ms < stats.intra_avg_ms / 2.0);
    }
}
