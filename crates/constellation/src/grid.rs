//! The +grid ISL topology.
//!
//! Satellites are addressed by their [`SatelliteId`] (orbit plane, slot).
//! Each satellite has up to four neighbours:
//!
//! * **north/south** — previous/next slot in the same plane (intra-orbit
//!   ISLs, wrap around the plane),
//! * **east/west** — same slot in the adjacent plane (inter-orbit ISLs,
//!   wrap around the constellation; "west" is the lower plane index,
//!   i.e. the plane whose ground track the satellite will retrace, per
//!   the paper's Fig. 3).
//!
//! The grid wraps in both dimensions, so it is a torus. Starlink's seam
//! (where plane 71 meets plane 0) does carry ISLs in the Gen-2 design the
//! paper assumes; a `seamless: false` option cuts the east-west wrap for
//! sensitivity studies.

use serde::{Deserialize, Serialize};
use starcdn_orbit::walker::{SatelliteId, WalkerConstellation};

/// Cardinal directions on the ISL grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Direction {
    /// Next slot in the same plane (intra-orbit).
    North,
    /// Previous slot in the same plane (intra-orbit).
    South,
    /// Adjacent plane with higher index (inter-orbit).
    East,
    /// Adjacent plane with lower index (inter-orbit).
    West,
}

impl Direction {
    /// All four directions in a fixed order.
    pub const ALL: [Direction; 4] =
        [Direction::North, Direction::South, Direction::East, Direction::West];

    /// Whether this is an inter-orbit (east/west) direction.
    pub fn is_inter_orbit(self) -> bool {
        matches!(self, Direction::East | Direction::West)
    }
}

/// The torus grid of satellites.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GridTopology {
    pub num_planes: u16,
    pub sats_per_plane: u16,
    /// Whether east/west links wrap across the plane-0/plane-(P-1) seam.
    pub seamless: bool,
}

impl GridTopology {
    /// Grid for the paper's Starlink shell (72×18, seamless).
    pub fn starlink() -> Self {
        let shell = WalkerConstellation::starlink_shell1();
        GridTopology {
            num_planes: shell.num_planes,
            sats_per_plane: shell.sats_per_plane,
            seamless: true,
        }
    }

    /// Grid matching an arbitrary Walker shell.
    pub fn from_shell(shell: &WalkerConstellation) -> Self {
        GridTopology {
            num_planes: shell.num_planes,
            sats_per_plane: shell.sats_per_plane,
            seamless: true,
        }
    }

    /// Total number of grid slots.
    pub fn total_slots(&self) -> usize {
        self.num_planes as usize * self.sats_per_plane as usize
    }

    /// Whether an id addresses a slot inside this grid.
    pub fn contains(&self, id: SatelliteId) -> bool {
        id.orbit < self.num_planes && id.slot < self.sats_per_plane
    }

    /// The neighbour of `id` in `dir`, if the link exists.
    ///
    /// Intra-orbit links always wrap; inter-orbit links wrap only on a
    /// seamless grid.
    pub fn neighbor(&self, id: SatelliteId, dir: Direction) -> Option<SatelliteId> {
        debug_assert!(self.contains(id));
        let p = self.num_planes;
        let s = self.sats_per_plane;
        match dir {
            Direction::North => Some(SatelliteId::new(id.orbit, (id.slot + 1) % s)),
            Direction::South => Some(SatelliteId::new(id.orbit, (id.slot + s - 1) % s)),
            Direction::East => {
                if id.orbit + 1 < p {
                    Some(SatelliteId::new(id.orbit + 1, id.slot))
                } else if self.seamless {
                    Some(SatelliteId::new(0, id.slot))
                } else {
                    None
                }
            }
            Direction::West => {
                if id.orbit > 0 {
                    Some(SatelliteId::new(id.orbit - 1, id.slot))
                } else if self.seamless {
                    Some(SatelliteId::new(p - 1, id.slot))
                } else {
                    None
                }
            }
        }
    }

    /// All existing neighbours of `id`, with their directions, in
    /// [`Direction::ALL`] order.
    pub fn neighbors(
        &self,
        id: SatelliteId,
    ) -> impl ExactSizeIterator<Item = (Direction, SatelliteId)> {
        let mut found = [(Direction::North, id); 4];
        let mut len = 0;
        for d in Direction::ALL {
            if let Some(n) = self.neighbor(id, d) {
                found[len] = (d, n);
                len += 1;
            }
        }
        found.into_iter().take(len)
    }

    /// The inter-orbit neighbour `planes` hops west of `id` (wrapping).
    pub fn west_by(&self, id: SatelliteId, planes: u16) -> SatelliteId {
        let p = self.num_planes;
        SatelliteId::new((id.orbit + p - planes % p) % p, id.slot)
    }

    /// The inter-orbit neighbour `planes` hops east of `id` (wrapping).
    pub fn east_by(&self, id: SatelliteId, planes: u16) -> SatelliteId {
        SatelliteId::new((id.orbit + planes) % self.num_planes, id.slot)
    }

    /// Minimal wrap-around distance along the plane axis.
    pub fn plane_distance(&self, a: u16, b: u16) -> u16 {
        let d = a.abs_diff(b);
        if self.seamless {
            d.min(self.num_planes - d)
        } else {
            d
        }
    }

    /// Minimal wrap-around distance along the slot axis.
    pub fn slot_distance(&self, a: u16, b: u16) -> u16 {
        let d = a.abs_diff(b);
        d.min(self.sats_per_plane - d)
    }

    /// Manhattan hop distance between two satellites on the torus.
    pub fn hop_distance(&self, a: SatelliteId, b: SatelliteId) -> u16 {
        self.plane_distance(a.orbit, b.orbit) + self.slot_distance(a.slot, b.slot)
    }

    /// The two legs of the wrap-minimal staircase from `from` to `to`:
    /// the plane leg, then the slot leg, each as the direction to step
    /// in and the hop count ([`Self::plane_distance`] /
    /// [`Self::slot_distance`]). East / north win an exact half-way tie;
    /// without the seam the plane leg heads straight for `to`. Both ids
    /// must be on the grid.
    pub(crate) fn canonical_legs(
        &self,
        from: SatelliteId,
        to: SatelliteId,
    ) -> [(Direction, u16); 2] {
        debug_assert!(self.contains(from) && self.contains(to));
        let (p, s) = (self.num_planes, self.sats_per_plane);
        let east = (to.orbit + p - from.orbit) % p;
        let go_east = if self.seamless { east <= p - east } else { to.orbit > from.orbit };
        let north = (to.slot + s - from.slot) % s;
        [
            (
                if go_east { Direction::East } else { Direction::West },
                self.plane_distance(from.orbit, to.orbit),
            ),
            (
                if north <= s - north { Direction::North } else { Direction::South },
                self.slot_distance(from.slot, to.slot),
            ),
        ]
    }

    /// Iterate over every slot id.
    pub fn iter_ids(&self) -> impl Iterator<Item = SatelliteId> + '_ {
        let spp = self.sats_per_plane;
        (0..self.num_planes).flat_map(move |o| (0..spp).map(move |s| SatelliteId::new(o, s)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn grid() -> GridTopology {
        GridTopology::starlink()
    }

    #[test]
    fn starlink_grid_dimensions() {
        let g = grid();
        assert_eq!(g.total_slots(), 1296);
        assert_eq!(g.iter_ids().count(), 1296);
    }

    #[test]
    fn four_neighbors_on_torus() {
        let g = grid();
        for id in [SatelliteId::new(0, 0), SatelliteId::new(71, 17), SatelliteId::new(35, 9)] {
            assert_eq!(g.neighbors(id).len(), 4, "{id}");
        }
    }

    #[test]
    fn intra_orbit_wraps() {
        let g = grid();
        assert_eq!(
            g.neighbor(SatelliteId::new(0, 17), Direction::North),
            Some(SatelliteId::new(0, 0))
        );
        assert_eq!(
            g.neighbor(SatelliteId::new(0, 0), Direction::South),
            Some(SatelliteId::new(0, 17))
        );
    }

    #[test]
    fn inter_orbit_wraps_when_seamless() {
        let g = grid();
        assert_eq!(
            g.neighbor(SatelliteId::new(71, 3), Direction::East),
            Some(SatelliteId::new(0, 3))
        );
        assert_eq!(
            g.neighbor(SatelliteId::new(0, 3), Direction::West),
            Some(SatelliteId::new(71, 3))
        );
    }

    #[test]
    fn seam_cuts_inter_orbit_links() {
        let g = GridTopology { seamless: false, ..grid() };
        assert_eq!(g.neighbor(SatelliteId::new(71, 3), Direction::East), None);
        assert_eq!(g.neighbor(SatelliteId::new(0, 3), Direction::West), None);
        assert_eq!(g.neighbors(SatelliteId::new(0, 3)).len(), 3);
    }

    #[test]
    fn west_east_by_are_inverses() {
        let g = grid();
        let id = SatelliteId::new(2, 5);
        assert_eq!(g.west_by(id, 4), SatelliteId::new(70, 5));
        assert_eq!(g.east_by(SatelliteId::new(70, 5), 4), id);
        assert_eq!(g.east_by(id, 72), id, "full wrap is identity");
        assert_eq!(g.west_by(id, 72), id);
    }

    #[test]
    fn hop_distance_examples() {
        let g = grid();
        assert_eq!(g.hop_distance(SatelliteId::new(0, 0), SatelliteId::new(0, 0)), 0);
        assert_eq!(g.hop_distance(SatelliteId::new(0, 0), SatelliteId::new(1, 1)), 2);
        // Wrap: plane 71 is 1 hop from plane 0; slot 17 is 1 hop from slot 0.
        assert_eq!(g.hop_distance(SatelliteId::new(0, 0), SatelliteId::new(71, 17)), 2);
        // Farthest point on the torus: 36 planes + 9 slots away.
        assert_eq!(g.hop_distance(SatelliteId::new(0, 0), SatelliteId::new(36, 9)), 45);
    }

    #[test]
    fn directions_classify() {
        assert!(Direction::East.is_inter_orbit());
        assert!(Direction::West.is_inter_orbit());
        assert!(!Direction::North.is_inter_orbit());
        assert!(!Direction::South.is_inter_orbit());
    }

    proptest! {
        #[test]
        fn prop_neighbor_relation_symmetric(o in 0u16..72, s in 0u16..18) {
            let g = grid();
            let id = SatelliteId::new(o, s);
            for (d, n) in g.neighbors(id) {
                let back = match d {
                    Direction::North => Direction::South,
                    Direction::South => Direction::North,
                    Direction::East => Direction::West,
                    Direction::West => Direction::East,
                };
                prop_assert_eq!(g.neighbor(n, back), Some(id));
            }
        }

        #[test]
        fn prop_hop_distance_is_metric(
            o1 in 0u16..72, s1 in 0u16..18,
            o2 in 0u16..72, s2 in 0u16..18,
            o3 in 0u16..72, s3 in 0u16..18,
        ) {
            let g = grid();
            let a = SatelliteId::new(o1, s1);
            let b = SatelliteId::new(o2, s2);
            let c = SatelliteId::new(o3, s3);
            prop_assert_eq!(g.hop_distance(a, b), g.hop_distance(b, a));
            prop_assert_eq!(g.hop_distance(a, a), 0);
            prop_assert!(g.hop_distance(a, c) <= g.hop_distance(a, b) + g.hop_distance(b, c));
        }

        #[test]
        fn prop_neighbors_are_distance_one(o in 0u16..72, s in 0u16..18) {
            let g = grid();
            let id = SatelliteId::new(o, s);
            for (_, n) in g.neighbors(id) {
                prop_assert_eq!(g.hop_distance(id, n), 1);
            }
        }
    }
}
