//! The simulated world: constellation, ISL grid, user locations, outages.

use spacegen::trace::Location;
use starcdn_constellation::failures::FailureModel;
use starcdn_constellation::grid::GridTopology;
use starcdn_constellation::schedule::FaultSchedule;
use starcdn_orbit::fleet::TleFleet;
use starcdn_orbit::propagator::{Satellite, SnapshotPropagator};
use starcdn_orbit::walker::{SatelliteId, WalkerConstellation};

/// Everything static about a simulation run.
#[derive(Debug)]
pub struct World {
    pub shell: WalkerConstellation,
    pub grid: GridTopology,
    pub satellites: Vec<Satellite>,
    pub locations: Vec<Location>,
    /// Static base outage (slots empty for the whole run).
    pub failures: FailureModel,
    /// Time-varying faults applied on top of `failures` at scheduler
    /// epoch boundaries; empty = the failure view never changes.
    pub schedule: FaultSchedule,
}

impl World {
    /// The paper's setup: the 72×18 Starlink shell over the nine Akamai
    /// trace cities, no failures.
    pub fn starlink_nine_cities() -> Self {
        Self::new(WalkerConstellation::starlink_shell1(), Location::akamai_nine())
    }

    /// A world over an arbitrary shell and location set.
    pub(crate) fn new(shell: WalkerConstellation, locations: Vec<Location>) -> Self {
        let grid = GridTopology::from_shell(&shell);
        let satellites = shell.satellites();
        World {
            shell,
            grid,
            satellites,
            locations,
            failures: FailureModel::none(),
            schedule: FaultSchedule::empty(),
        }
    }

    /// A world assembled from a TLE catalog (via
    /// [`starcdn_orbit::fleet::fleet_from_tles`]): grid slots with no
    /// satellite become the §5.4 out-of-slot failure set, exactly how the
    /// paper derives its outage from real constellation status.
    ///
    /// The satellite list is padded to the full grid (empty slots carry
    /// their nominal Walker orbit) so snapshots stay index-aligned; the
    /// failure model keeps those slots out of scheduling and caching.
    pub fn from_tle_fleet(fleet: &TleFleet, locations: Vec<Location>) -> Self {
        let shell = WalkerConstellation {
            num_planes: fleet.num_planes,
            sats_per_plane: fleet.sats_per_plane,
            ..WalkerConstellation::starlink_shell1()
        };
        let grid = GridTopology::from_shell(&shell);
        // Dense, id-indexed satellite table: real orbits where present,
        // nominal Walker orbits in the (dead) gaps.
        let mut satellites: Vec<Satellite> = (0..grid.total_slots())
            .map(|i| {
                let id = SatelliteId::from_index(i, fleet.sats_per_plane);
                Satellite { id, orbit: shell.orbit_for(id) }
            })
            .collect();
        for sat in &fleet.satellites {
            satellites[sat.id.index(fleet.sats_per_plane)] = *sat;
        }
        let failures = FailureModel::from_dead(fleet.empty_slots.iter().copied());
        World { shell, grid, satellites, locations, failures, schedule: FaultSchedule::empty() }
    }

    /// Apply an outage set (returns self for chaining).
    pub fn with_failures(mut self, failures: FailureModel) -> Self {
        self.failures = failures;
        self
    }

    /// Attach a time-varying fault schedule (returns self for chaining).
    pub fn with_fault_schedule(mut self, schedule: FaultSchedule) -> Self {
        self.schedule = schedule;
        self
    }

    /// A fresh position snapshot over this world's satellites.
    pub fn snapshot(&self) -> SnapshotPropagator {
        SnapshotPropagator::new(self.satellites.clone(), self.shell.sats_per_plane)
    }

    /// Number of user locations.
    pub fn num_locations(&self) -> usize {
        self.locations.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starlink_world_dimensions() {
        let w = World::starlink_nine_cities();
        assert_eq!(w.satellites.len(), 1296);
        assert_eq!(w.num_locations(), 9);
        assert_eq!(w.grid.num_planes, 72);
        assert!(w.failures.dead_count() == 0);
    }

    #[test]
    fn failures_attach() {
        let w = World::starlink_nine_cities();
        let f = FailureModel::sample(&w.grid, 126, 1);
        let w = w.with_failures(f);
        assert_eq!(w.failures.dead_count(), 126);
    }

    #[test]
    fn fault_schedule_attaches_and_defaults_empty() {
        use starcdn_constellation::schedule::ChurnParams;
        let w = World::starlink_nine_cities();
        assert!(w.schedule.is_empty(), "default world has no churn");
        let sched = FaultSchedule::churn(&w.grid, &ChurnParams::sats_only(3600.0, 300.0, 7200, 1));
        let w = w.with_fault_schedule(sched.clone());
        assert_eq!(w.schedule, sched);
    }

    #[test]
    fn snapshot_covers_fleet() {
        let w = World::new(WalkerConstellation::test_shell(), Location::akamai_nine());
        let snap = w.snapshot();
        assert_eq!(snap.positions_soa().len(), w.satellites.len());
    }

    #[test]
    fn world_from_tle_fleet_marks_gaps_dead() {
        use starcdn_orbit::fleet::fleet_from_tles;
        use starcdn_orbit::tle::{synthesize_tle, Tle};
        // Synthesize a sparse catalog from the shell (drop every 9th).
        let shell = WalkerConstellation::starlink_shell1();
        let tles: Vec<Tle> = shell
            .satellites()
            .iter()
            .enumerate()
            .filter(|(i, _)| i % 9 != 0)
            .map(|(i, sat)| {
                let o = &sat.orbit;
                let (n, l1, l2) = synthesize_tle(
                    &format!("S{i}"),
                    i as u32 + 1,
                    o.inclination_rad.to_degrees(),
                    o.raan_rad.to_degrees(),
                    o.phase_rad.to_degrees().rem_euclid(360.0),
                    86400.0 / o.period_s(),
                );
                Tle::parse(&n, &l1, &l2).unwrap()
            })
            .collect();
        let fleet = fleet_from_tles(&tles, 72, 18).unwrap();
        let world = World::from_tle_fleet(&fleet, Location::akamai_nine());
        assert_eq!(world.satellites.len(), 1296, "dense grid table");
        assert_eq!(world.failures.dead_count(), 144, "1296/9 gaps out of slot");
        // Snapshot indexing works across gaps.
        let snap = world.snapshot();
        assert_eq!(snap.positions_soa().len(), 1296);
        // Alive satellites match the catalog orbits.
        for sat in &fleet.satellites {
            assert!(world.failures.is_alive(sat.id));
        }
    }
}
