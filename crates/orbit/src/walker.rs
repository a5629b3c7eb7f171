//! Walker-delta constellation builder.
//!
//! The paper simulates the Starlink 53° Gen-1 shell: 72 orbital planes at
//! 550 km, 18 slots per plane (1296 slots; 126 of which were out of slot
//! at collection time, leaving the 1170 active satellites the paper
//! simulates). A Walker-delta pattern distributes planes uniformly in
//! RAAN and satellites uniformly in phase, with an inter-plane phase
//! offset that staggers adjacent planes.

use crate::constants::{STARLINK_ALTITUDE_KM, STARLINK_INCLINATION_DEG};
use crate::kepler::CircularOrbit;
use crate::propagator::Satellite;
use serde::{Deserialize, Serialize};

/// Identifier of a satellite slot in a gridded constellation.
///
/// `orbit` indexes the plane (0..num_planes), `slot` the position within
/// the plane (0..sats_per_plane). This doubles as the grid coordinate used
/// by the ISL topology crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct SatelliteId {
    pub orbit: u16,
    pub slot: u16,
}

impl SatelliteId {
    pub fn new(orbit: u16, slot: u16) -> Self {
        SatelliteId { orbit, slot }
    }

    /// Flatten to a dense index given the plane size.
    pub fn index(&self, sats_per_plane: u16) -> usize {
        self.orbit as usize * sats_per_plane as usize + self.slot as usize
    }

    /// Inverse of [`SatelliteId::index`].
    pub fn from_index(index: usize, sats_per_plane: u16) -> Self {
        SatelliteId {
            orbit: (index / sats_per_plane as usize) as u16,
            slot: (index % sats_per_plane as usize) as u16,
        }
    }
}

impl std::fmt::Display for SatelliteId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "S{}-{}", self.orbit, self.slot)
    }
}

/// A Walker-delta constellation description.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WalkerConstellation {
    /// Number of orbital planes.
    pub num_planes: u16,
    /// Satellites per plane.
    pub sats_per_plane: u16,
    /// Altitude, km.
    pub altitude_km: f64,
    /// Inclination, degrees.
    pub inclination_deg: f64,
    /// Walker phasing factor F: adjacent planes are offset by
    /// `F * 360 / (num_planes * sats_per_plane)` degrees of phase.
    pub phasing_factor: u16,
    /// RAAN spread in degrees: 360 for a full delta pattern (Starlink),
    /// 180 for a star pattern (e.g. Iridium).
    pub raan_spread_deg: f64,
}

impl WalkerConstellation {
    /// The Starlink shell-1 geometry the paper simulates: 72 planes × 18
    /// slots at 550 km / 53°.
    pub fn starlink_shell1() -> Self {
        WalkerConstellation {
            num_planes: 72,
            sats_per_plane: 18,
            altitude_km: STARLINK_ALTITUDE_KM,
            inclination_deg: STARLINK_INCLINATION_DEG,
            phasing_factor: 1,
            raan_spread_deg: 360.0,
        }
    }

    /// A small constellation for fast tests (8 planes × 6).
    #[cfg(test)]
    pub(crate) fn test_shell() -> Self {
        WalkerConstellation {
            num_planes: 8,
            sats_per_plane: 6,
            altitude_km: STARLINK_ALTITUDE_KM,
            inclination_deg: STARLINK_INCLINATION_DEG,
            phasing_factor: 1,
            raan_spread_deg: 360.0,
        }
    }

    /// Total number of slots.
    pub(crate) fn total_slots(&self) -> usize {
        self.num_planes as usize * self.sats_per_plane as usize
    }

    /// The orbit occupied by a given slot.
    pub fn orbit_for(&self, id: SatelliteId) -> CircularOrbit {
        debug_assert!(id.orbit < self.num_planes && id.slot < self.sats_per_plane);
        let raan_deg = self.raan_spread_deg * id.orbit as f64 / self.num_planes as f64;
        let intra_deg = 360.0 * id.slot as f64 / self.sats_per_plane as f64;
        let walker_offset_deg =
            360.0 * self.phasing_factor as f64 * id.orbit as f64 / self.total_slots() as f64;
        CircularOrbit::from_degrees(
            self.altitude_km,
            self.inclination_deg,
            raan_deg,
            intra_deg + walker_offset_deg,
        )
    }

    /// Materialize every slot as a [`Satellite`].
    pub fn satellites(&self) -> Vec<Satellite> {
        let mut out = Vec::with_capacity(self.total_slots());
        for orbit in 0..self.num_planes {
            for slot in 0..self.sats_per_plane {
                let id = SatelliteId::new(orbit, slot);
                out.push(Satellite { id, orbit: self.orbit_for(id) });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coords::Eci;
    use crate::time::SimTime;

    #[test]
    fn shell1_has_1296_slots() {
        let shell = WalkerConstellation::starlink_shell1();
        assert_eq!(shell.total_slots(), 1296);
        assert_eq!(shell.satellites().len(), 1296);
    }

    #[test]
    fn satellite_id_index_roundtrip() {
        let spp = 18;
        for idx in [0usize, 1, 17, 18, 1295] {
            let id = SatelliteId::from_index(idx, spp);
            assert_eq!(id.index(spp), idx);
        }
        assert_eq!(SatelliteId::new(71, 17).index(18), 1295);
    }

    #[test]
    fn raan_uniformly_spread() {
        let shell = WalkerConstellation::starlink_shell1();
        let o0 = shell.orbit_for(SatelliteId::new(0, 0));
        let o1 = shell.orbit_for(SatelliteId::new(1, 0));
        let o71 = shell.orbit_for(SatelliteId::new(71, 0));
        let step = (o1.raan_rad - o0.raan_rad).to_degrees();
        assert!((step - 5.0).abs() < 1e-9, "RAAN step = {step}");
        assert!((o71.raan_rad.to_degrees() - 355.0).abs() < 1e-9);
    }

    #[test]
    fn intra_plane_phase_uniform() {
        let shell = WalkerConstellation::starlink_shell1();
        let a = shell.orbit_for(SatelliteId::new(0, 0));
        let b = shell.orbit_for(SatelliteId::new(0, 1));
        assert!(((b.phase_rad - a.phase_rad).to_degrees() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn spacing_matches_table1_link_lengths() {
        // Sanity-check against Table 1: intra-orbit ISL mean delay 8.03 ms
        // (~2400 km), inter-orbit mean 2.15 ms (~645 km, shorter at high
        // latitudes; equator value slightly above the mean).
        // Measured as chords between the satellites' positions at t = 0,
        // when slot (0, 0) sits on the equator at its ascending node.
        let shell = WalkerConstellation::starlink_shell1();
        let pos = |o, s| shell.orbit_for(SatelliteId::new(o, s)).position_eci(SimTime::ZERO);
        let dist = |a: Eci, b: Eci| {
            ((a.x - b.x).powi(2) + (a.y - b.y).powi(2) + (a.z - b.z).powi(2)).sqrt()
        };
        let intra = dist(pos(0, 0), pos(0, 1));
        assert!((2300.0..2550.0).contains(&intra), "intra spacing {intra}");
        let inter =
            (0..shell.sats_per_plane).map(|s| dist(pos(0, 0), pos(1, s))).fold(f64::MAX, f64::min);
        assert!((500.0..700.0).contains(&inter), "inter spacing {inter}");
    }

    #[test]
    fn all_satellites_distinct_positions() {
        // At t=0, no two satellites should coincide.
        let shell = WalkerConstellation::test_shell();
        let sats = shell.satellites();
        let t = SimTime::ZERO;
        for i in 0..sats.len() {
            for j in (i + 1)..sats.len() {
                let pi = sats[i].orbit.position_eci(t);
                let pj = sats[j].orbit.position_eci(t);
                let d =
                    ((pi.x - pj.x).powi(2) + (pi.y - pj.y).powi(2) + (pi.z - pj.z).powi(2)).sqrt();
                assert!(d > 10.0, "{} and {} coincide (d={d})", sats[i].id, sats[j].id);
            }
        }
    }

    #[test]
    fn walker_phasing_staggers_adjacent_planes() {
        let shell = WalkerConstellation::starlink_shell1();
        let a = shell.orbit_for(SatelliteId::new(0, 0));
        let b = shell.orbit_for(SatelliteId::new(1, 0));
        let expected = 360.0 / 1296.0;
        assert!(((b.phase_rad - a.phase_rad).to_degrees() - expected).abs() < 1e-9);
    }
}
