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
//!
//! Relay edges keep the slot and shift the plane, so they split the
//! fleet into closed groups; [`shard_table`] hands each parallel worker
//! whole groups, which makes every serve a worker runs read only slots
//! that worker owns.

use crate::config::RelayPolicy;
use crate::kernel::ServeEnv;
use crate::system::ServedFrom;
use starcdn_constellation::failures::FailureModel;
use starcdn_constellation::grid::GridTopology;
use starcdn_orbit::walker::SatelliteId;

/// The at most two candidates of one miss, held inline (every owner
/// miss asks for them, so they must not cost an allocation). Derefs to
/// the slice of candidates and iterates by value, both in probe order.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RelayCandidates {
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

/// The worker, of `workers`, that serves each slot (indexed like
/// [`SatelliteId::index`]) in the replayer and on the socket plane.
///
/// With relay or neighbour probing on, each slot is joined to its west
/// and east neighbours `env.span` planes away as `base` resolves them —
/// every slot a serve at that owner can read, whatever the policy — and
/// the joined groups are dealt out whole: largest first, ties by lowest
/// member id, each to the least-loaded worker, ties by lowest index.
/// Without relay edges every group is one slot, so slot `i` goes to
/// worker `i % workers`. The table depends on the configuration, the
/// base failures and `workers` (at least one) alone, never on a log.
///
/// The deal keeps every group whole and worker loads within the largest
/// group of each other; it does not balance them. A base view with
/// outages can join the groups into a few large ones: the remap walk of
/// `FailureModel::sample(grid, 126, 3)` merges them into 2 groups of 648
/// slots for L = 4 and 3 of 432 for L = 9, so at most 2 or 3 workers are
/// busy, and at 2 workers L = 9 splits 864 / 432. Dead slots count as
/// load too.
pub fn shard_table(env: &ServeEnv, base: &FailureModel, workers: usize) -> Vec<usize> {
    let (grid, spp) = (&env.grid, env.grid.sats_per_plane);
    let n = grid.total_slots();
    // Union-find whose root is always the group's lowest member.
    let mut root: Vec<usize> = (0..n).collect();
    let find = |root: &mut Vec<usize>, mut i: usize| {
        while root[i] != i {
            root[i] = root[root[i]];
            i = root[i];
        }
        i
    };
    if env.relay.enabled() || env.probe {
        for id in grid.iter_ids() {
            for slot in [grid.west_by(id, env.span), grid.east_by(id, env.span)] {
                if let Some(neighbor) = base.resolve_owner(grid, slot) {
                    let a = find(&mut root, id.index(spp));
                    let b = find(&mut root, neighbor.index(spp));
                    root[a.max(b)] = a.min(b);
                }
            }
        }
    }
    let mut size = vec![0usize; n];
    for i in 0..n {
        root[i] = find(&mut root, i);
        size[root[i]] += 1;
    }
    let mut groups: Vec<usize> = (0..n).filter(|&i| root[i] == i).collect();
    groups.sort_by_key(|&g| (std::cmp::Reverse(size[g]), g));
    let (mut load, mut worker) = (vec![0usize; workers], vec![0usize; n]);
    for g in groups {
        let w = (0..workers).min_by_key(|&w| load[w]).expect("at least one worker");
        load[w] += size[g];
        worker[g] = w;
    }
    root.iter().map(|&g| worker[g]).collect()
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

    /// Every slot a serve at each owner can read: the owner, its relay
    /// candidates and its probe neighbours, as `base` resolves them.
    fn reads(env: &ServeEnv, base: &FailureModel, owner: SatelliteId) -> Vec<SatelliteId> {
        let (g, span) = (&env.grid, env.span);
        let probes = [g.west_by(owner, span), g.east_by(owner, span)];
        let probes = probes.into_iter().filter_map(|s| base.resolve_owner(g, s));
        let relays = relay_candidates(g, owner, span, env.relay, base).into_iter().map(|c| c.1);
        std::iter::once(owner).chain(probes).chain(relays).collect()
    }

    #[test]
    fn shard_table_without_relay_is_slot_mod_workers() {
        let env = ServeEnv::new(&crate::config::StarCdnConfig::starcdn_no_relay(9, 1000));
        let base = FailureModel::sample(&env.grid, 126, 3);
        for workers in [1, 2, 3, 4, 7, 8, 16] {
            let table = shard_table(&env, &base, workers);
            assert!(table.iter().enumerate().all(|(i, &w)| w == i % workers), "{workers}");
        }
    }

    #[test]
    fn shard_table_keeps_every_read_on_the_owners_worker() {
        for buckets in [4, 9] {
            let mut cfg = crate::config::StarCdnConfig::starcdn(buckets, 1000);
            cfg.relay = RelayPolicy::WestOnly;
            cfg.probe_neighbors_on_miss = true;
            let env = ServeEnv::new(&cfg);
            let spp = env.grid.sats_per_plane;
            for base in [FailureModel::none(), FailureModel::sample(&env.grid, 126, 3)] {
                for workers in [1, 2, 4, 8] {
                    let table = shard_table(&env, &base, workers);
                    for owner in env.grid.iter_ids() {
                        let w = table[owner.index(spp)];
                        for s in reads(&env, &base, owner) {
                            assert_eq!(table[s.index(spp)], w, "L={buckets} {owner:?} → {s:?}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn shard_table_deals_largest_groups_to_the_least_loaded_worker() {
        // No failures: the groups are (plane mod span, slot), all of one
        // size, so they go round-robin in order of their lowest member.
        let env = ServeEnv::new(&crate::config::StarCdnConfig::starcdn(4, 1000));
        let (g, spp) = (&env.grid, env.grid.sats_per_plane as usize);
        let span = env.span as usize;
        let table = shard_table(&env, &FailureModel::none(), 4);
        assert_eq!(g.num_planes as usize % span, 0);
        for (i, &w) in table.iter().enumerate() {
            // The group's lowest member is its rank in the deal.
            let lowest = (i / spp % span) * spp + i % spp;
            assert_eq!(w, lowest % 4, "slot {i}");
        }
        let mut load = [0; 4];
        table.iter().for_each(|&w| load[w] += 1);
        assert_eq!(load, [g.total_slots() / 4; 4]);
    }

    /// What the deal guarantees on any base view: no group (slots joined
    /// by what a serve reads) is split, and the loads differ by at most
    /// the largest group. It does not promise balance: the remap walk of
    /// `sample(grid, 126, 3)` joins everything into 2 groups of 648
    /// slots for L = 4 and 3 of 432 for L = 9, so 2 workers take 864 and
    /// 432 there.
    #[test]
    fn shard_table_keeps_groups_whole_within_the_largest_group() {
        for buckets in [4, 9] {
            let env = ServeEnv::new(&crate::config::StarCdnConfig::starcdn(buckets, 1000));
            let (g, spp) = (&env.grid, env.grid.sats_per_plane);
            let n = g.total_slots();
            for sampled in [false, true] {
                let base =
                    if sampled { FailureModel::sample(g, 126, 3) } else { FailureModel::none() };
                // Groups: the components of the read relation, undirected.
                let mut adjacent = vec![Vec::new(); n];
                for owner in g.iter_ids() {
                    for s in reads(&env, &base, owner) {
                        adjacent[owner.index(spp)].push(s.index(spp));
                        adjacent[s.index(spp)].push(owner.index(spp));
                    }
                }
                let (mut group, mut sizes) = (vec![usize::MAX; n], Vec::new());
                for start in 0..n {
                    if group[start] != usize::MAX {
                        continue;
                    }
                    let (mut stack, mut size) = (vec![start], 0);
                    group[start] = sizes.len();
                    while let Some(i) = stack.pop() {
                        size += 1;
                        for &j in &adjacent[i] {
                            if group[j] == usize::MAX {
                                group[j] = sizes.len();
                                stack.push(j);
                            }
                        }
                    }
                    sizes.push(size);
                }
                if sampled {
                    let merged: &[usize] = if buckets == 4 { &[648, 648] } else { &[432; 3] };
                    assert_eq!(sizes, merged, "L={buckets}");
                }
                let largest = *sizes.iter().max().unwrap();
                for workers in [1, 2, 4, 8] {
                    let table = shard_table(&env, &base, workers);
                    let mut owner_of = vec![usize::MAX; sizes.len()];
                    let mut load = vec![0; workers];
                    for (i, &w) in table.iter().enumerate() {
                        let owner = &mut owner_of[group[i]];
                        if *owner == usize::MAX {
                            *owner = w;
                        }
                        assert_eq!(*owner, w, "L={buckets} W={workers}: slot {i}'s group is split");
                        load[w] += 1;
                    }
                    let (lo, hi) = (load.iter().min().unwrap(), load.iter().max().unwrap());
                    assert!(hi - lo <= largest, "L={buckets} W={workers}: loads {load:?}");
                    if sampled && buckets == 9 && workers == 2 {
                        assert_eq!(load, [864, 432]);
                    }
                }
            }
        }
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
