//! Relayed fetch (§3.3): neighbour selection.
//!
//! On a cache miss at a bucket owner, StarCDN probes the *same-bucket*
//! inter-orbit neighbours — `√L` planes west (the satellite that just
//! retraced this ground track, per Fig. 3) and/or `√L` planes east.
//! Intra-orbit neighbours are never used: at 8 ms per hop they are ~4×
//! costlier than inter-orbit hops (Table 1).
//!
//! Under failures a neighbour slot may be out of service; its bucket
//! responsibilities were remapped (§3.4), so the probe follows the remap
//! to the satellite actually holding that neighbour's content.

use crate::config::RelayPolicy;
use crate::system::ServedFrom;
use starcdn_constellation::failures::FailureModel;
use starcdn_constellation::grid::GridTopology;
use starcdn_orbit::walker::SatelliteId;

/// The at most two candidates of one miss, held inline (every owner
/// miss asks for them, so they must not cost an allocation). Derefs to
/// the slice of candidates and iterates by value, both in probe order.
#[derive(Debug, Clone, Copy)]
pub struct RelayCandidates {
    slots: [(ServedFrom, SatelliteId); 2],
    len: usize,
}

impl std::ops::Deref for RelayCandidates {
    type Target = [(ServedFrom, SatelliteId)];

    fn deref(&self) -> &Self::Target {
        &self.slots[..self.len]
    }
}

impl IntoIterator for RelayCandidates {
    type Item = (ServedFrom, SatelliteId);
    type IntoIter = std::iter::Take<std::array::IntoIter<Self::Item, 2>>;

    fn into_iter(self) -> Self::IntoIter {
        self.slots.into_iter().take(self.len)
    }
}

/// The neighbours a miss at `owner` may relay to, in probe order
/// (west first — the historically-useful direction — then east).
///
/// Each candidate is `(source_tag, satellite)`. Candidates equal to the
/// owner itself (possible after failure remapping collapses neighbours)
/// are dropped.
pub(crate) fn relay_candidates(
    grid: &GridTopology,
    owner: SatelliteId,
    span_planes: u16,
    policy: RelayPolicy,
    failures: &FailureModel,
) -> RelayCandidates {
    let mut out = RelayCandidates { slots: [(ServedFrom::RelayWest, owner); 2], len: 0 };
    let mut push = |tag: ServedFrom, slot: SatelliteId| {
        if let Some(resolved) = failures.resolve_owner(grid, slot) {
            if resolved != owner && !out.iter().any(|&(_, s)| s == resolved) {
                out.slots[out.len] = (tag, resolved);
                out.len += 1;
            }
        }
    };
    match policy {
        RelayPolicy::None => {}
        RelayPolicy::WestOnly => push(ServedFrom::RelayWest, grid.west_by(owner, span_planes)),
        RelayPolicy::EastOnly => push(ServedFrom::RelayEast, grid.east_by(owner, span_planes)),
        RelayPolicy::Both => {
            push(ServedFrom::RelayWest, grid.west_by(owner, span_planes));
            push(ServedFrom::RelayEast, grid.east_by(owner, span_planes));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> GridTopology {
        GridTopology::starlink()
    }

    #[test]
    fn none_policy_no_candidates() {
        let c = relay_candidates(
            &grid(),
            SatelliteId::new(10, 5),
            2,
            RelayPolicy::None,
            &FailureModel::none(),
        );
        assert!(c.is_empty());
    }

    #[test]
    fn both_policy_west_first() {
        let owner = SatelliteId::new(10, 5);
        let c = relay_candidates(&grid(), owner, 3, RelayPolicy::Both, &FailureModel::none());
        assert_eq!(c.len(), 2);
        assert_eq!(c[0], (ServedFrom::RelayWest, SatelliteId::new(7, 5)));
        assert_eq!(c[1], (ServedFrom::RelayEast, SatelliteId::new(13, 5)));
    }

    #[test]
    fn wraps_across_seam() {
        let c = relay_candidates(
            &grid(),
            SatelliteId::new(0, 5),
            2,
            RelayPolicy::WestOnly,
            &FailureModel::none(),
        );
        assert_eq!(*c, [(ServedFrom::RelayWest, SatelliteId::new(70, 5))]);
    }

    #[test]
    fn dead_neighbor_follows_remap() {
        let owner = SatelliteId::new(10, 5);
        let west_slot = SatelliteId::new(8, 5);
        let failures = FailureModel::from_dead([west_slot]);
        let c = relay_candidates(&grid(), owner, 2, RelayPolicy::WestOnly, &failures);
        assert_eq!(c.len(), 1);
        // Remap walks north along the plane: (8, 6).
        assert_eq!(c[0].1, SatelliteId::new(8, 6));
    }

    #[test]
    fn candidate_equal_to_owner_dropped() {
        // Span that wraps all the way around to the owner itself.
        let owner = SatelliteId::new(10, 5);
        let c = relay_candidates(&grid(), owner, 72, RelayPolicy::Both, &FailureModel::none());
        assert!(c.is_empty(), "self-relay must be dropped: {c:?}");
    }

    #[test]
    fn duplicate_candidates_dedup() {
        // On a tiny 2-plane grid, west and east neighbours coincide.
        let g = GridTopology { num_planes: 2, sats_per_plane: 4, seamless: true };
        let owner = SatelliteId::new(0, 1);
        let c = relay_candidates(&g, owner, 1, RelayPolicy::Both, &FailureModel::none());
        assert_eq!(c.len(), 1, "{c:?}");
        assert_eq!(c[0].1, SatelliteId::new(1, 1));
    }
}
