//! The simulated world: constellation, ISL grid, user locations, outages.

use spacegen::trace::Location;
use starcdn_constellation::failures::FailureModel;
use starcdn_constellation::grid::GridTopology;
use starcdn_constellation::schedule::FaultSchedule;
use starcdn_orbit::propagator::{Satellite, SnapshotPropagator};
use starcdn_orbit::walker::WalkerConstellation;

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
        let small = WalkerConstellation {
            num_planes: 8,
            sats_per_plane: 6,
            ..WalkerConstellation::starlink_shell1()
        };
        let w = World::new(small, Location::akamai_nine());
        let snap = w.snapshot();
        assert_eq!(snap.positions_soa().len(), w.satellites.len());
    }
}
