//! Differential oracle for route resolution under faults.
//!
//! Every search under a faulted view runs on one per-thread scratch
//! (`routing.rs`: generation-stamped visited table, flat queue). The
//! reference kept here is what it replaced: one allocating BFS per
//! resolution (`reference_bfs`, the search as it stood before the
//! scratch) and the outcome derived from that path. Over seeded sweeps
//! of failure views and grids the two must agree on the full
//! `RouteOutcome`, on every `GridPath` node, and on what they record.
//! (The `proptest` stand-in is fixed-input, so seeds are swept by hand.)
//!
//! A resolution whose wrap-minimal staircase survives is answered
//! without that search; the `staircase_*` tests below place the faults
//! where that shortcut could go wrong, and the reference still searches
//! every time.

use starcdn::system::{classify_route_toward_recorded, ResolvedRoute, RouteOutcome};
use starcdn_constellation::failures::FailureModel;
use starcdn_constellation::grid::{Direction, GridTopology};
use starcdn_constellation::routing::{shortest_path_avoiding_links, GridPath};
use starcdn_orbit::walker::SatelliteId;
use starcdn_telemetry::{Counter, Histo, MemoryRecorder, Recorder};
use std::collections::VecDeque;

/// The allocating BFS: two grid-sized vectors, a deque and a path per
/// call, neighbours expanded in `Direction::ALL` order.
fn reference_bfs(
    grid: &GridTopology,
    from: SatelliteId,
    to: SatelliteId,
    view: &FailureModel,
) -> Option<GridPath> {
    if !view.is_alive(from) || !view.is_alive(to) {
        return None;
    }
    if from == to {
        return Some(GridPath { hops: vec![], nodes: vec![from] });
    }
    let spp = grid.sats_per_plane;
    let mut prev: Vec<Option<(SatelliteId, Direction)>> = vec![None; grid.total_slots()];
    let mut visited = vec![false; grid.total_slots()];
    visited[from.index(spp)] = true;
    let mut q = VecDeque::from([from]);
    while let Some(cur) = q.pop_front() {
        for (d, n) in grid.neighbors(cur) {
            if visited[n.index(spp)] || !view.is_alive(n) || !view.is_link_alive(cur, n) {
                continue;
            }
            visited[n.index(spp)] = true;
            prev[n.index(spp)] = Some((cur, d));
            if n == to {
                let mut hops = Vec::new();
                let mut nodes = vec![to];
                let mut walk = to;
                while walk != from {
                    let (p, d) = prev[walk.index(spp)].unwrap();
                    hops.push(d);
                    nodes.push(p);
                    walk = p;
                }
                hops.reverse();
                nodes.reverse();
                return Some(GridPath { hops, nodes });
            }
            q.push_back(n);
        }
    }
    None
}

/// Route resolution as it was: remap, then the healthy-torus distances
/// on a fault-free view, else one recorded BFS.
fn reference_classify(
    grid: &GridTopology,
    view: &FailureModel,
    remap: bool,
    first_contact: SatelliteId,
    preferred: SatelliteId,
    rec: &dyn Recorder,
) -> RouteOutcome {
    let owner = if remap {
        match view.resolve_owner(grid, preferred) {
            Some(o) => o,
            None => return RouteOutcome::Unroutable,
        }
    } else if view.is_alive(preferred) {
        preferred
    } else {
        return RouteOutcome::Unroutable;
    };
    let remapped = owner != preferred;
    let routed = |intra, inter, extra_hops| {
        RouteOutcome::Routed(ResolvedRoute { owner, intra, inter, remapped, extra_hops })
    };
    if owner == first_contact {
        return routed(0, 0, 0);
    }
    if !view.has_faults() {
        return routed(
            grid.slot_distance(first_contact.slot, owner.slot),
            grid.plane_distance(first_contact.orbit, owner.orbit),
            0,
        );
    }
    rec.add(Counter::BfsRoutes, 1);
    let Some(path) = reference_bfs(grid, first_contact, owner, view) else {
        return RouteOutcome::Partitioned { owner };
    };
    rec.observe(Histo::BfsPathHops, path.len() as u64);
    let inter = path.hops.iter().filter(|d| matches!(d, Direction::East | Direction::West)).count();
    let intra = path.len() - inter;
    let extra = (path.len() as u16).saturating_sub(grid.hop_distance(first_contact, owner));
    routed(intra as u16, inter as u16, extra)
}

/// splitmix64, so the sweep is the same on every run and host.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn sat(&mut self, grid: &GridTopology) -> SatelliteId {
        SatelliteId::new(
            self.below(grid.num_planes as usize) as u16,
            self.below(grid.sats_per_plane as usize) as u16,
        )
    }
}

/// `dead_pct` percent of the grid dead plus `cuts` cut links whose
/// endpoints are both alive.
fn view(grid: &GridTopology, dead_pct: usize, cuts: usize, seed: u64) -> FailureModel {
    let mut f = FailureModel::sample(grid, grid.total_slots() * dead_pct / 100, seed);
    let mut rng = Rng(seed ^ 0xC0FF_EE00);
    let mut placed = 0;
    for _ in 0..cuts * 20 {
        if placed == cuts {
            break;
        }
        let a = rng.sat(grid);
        let mut neighbors = grid.neighbors(a);
        let (_, b) = neighbors.nth(rng.below(neighbors.len())).expect("index below the count");
        if a != b && f.is_alive(a) && f.is_alive(b) && !f.is_link_cut(a, b) {
            f.cut_link(a, b);
            placed += 1;
        }
    }
    f
}

/// Both implementations over one sweep, each into its own recorder.
struct Oracle<'a> {
    grid: &'a GridTopology,
    view: &'a FailureModel,
    new_rec: MemoryRecorder,
    ref_rec: MemoryRecorder,
    routed: u64,
    detours: u64,
    partitioned: u64,
}

impl<'a> Oracle<'a> {
    fn new(grid: &'a GridTopology, view: &'a FailureModel) -> Self {
        Oracle {
            grid,
            view,
            new_rec: MemoryRecorder::new(),
            ref_rec: MemoryRecorder::new(),
            routed: 0,
            detours: 0,
            partitioned: 0,
        }
    }

    fn check(&mut self, first_contact: SatelliteId, preferred: SatelliteId) -> RouteOutcome {
        let mut last = RouteOutcome::Unroutable;
        for remap in [true, false] {
            let got = classify_route_toward_recorded(
                self.grid,
                self.view,
                remap,
                first_contact,
                preferred,
                &self.new_rec,
            );
            let want = reference_classify(
                self.grid,
                self.view,
                remap,
                first_contact,
                preferred,
                &self.ref_rec,
            );
            assert_eq!(
                got, want,
                "{first_contact} -> {preferred} (remap {remap}) on {:?} under {:?}",
                self.grid, self.view
            );
            match got {
                RouteOutcome::Routed(r) => {
                    self.routed += 1;
                    self.detours += (r.extra_hops > 0) as u64;
                }
                RouteOutcome::Partitioned { .. } => self.partitioned += 1,
                RouteOutcome::Unroutable => {}
            }
            last = got;
        }
        // The path-returning search keeps its tie-breaks too: same
        // nodes, not just the same length.
        let path = shortest_path_avoiding_links(
            self.grid,
            first_contact,
            preferred,
            |id| self.view.is_alive(id),
            |a, b| self.view.is_link_alive(a, b),
        );
        assert_eq!(
            path,
            reference_bfs(self.grid, first_contact, preferred, self.view),
            "{first_contact} -> {preferred} on {:?} under {:?}",
            self.grid,
            self.view
        );
        last
    }

    /// What was recorded must match exactly; returns the resolutions
    /// counted, for the callers' coverage assertions.
    fn finish(self) -> u64 {
        let (new, reference) = (self.new_rec.snapshot(), self.ref_rec.snapshot());
        assert_eq!(new.counters, reference.counters, "recorded counters");
        assert_eq!(new.histograms, reference.histograms, "recorded histograms");
        new.counter(Counter::BfsRoutes)
    }
}

fn all_pairs(grid: &GridTopology, view: &FailureModel) -> (u64, u64, u64) {
    let mut oracle = Oracle::new(grid, view);
    for from in grid.iter_ids() {
        for to in grid.iter_ids() {
            oracle.check(from, to);
        }
    }
    let seen = (oracle.routed, oracle.detours, oracle.partitioned);
    oracle.finish();
    seen
}

#[test]
fn every_pair_on_small_grids_matches_the_allocating_bfs() {
    let grids = [
        GridTopology { num_planes: 6, sats_per_plane: 5, seamless: true },
        // No east-west wrap: the search must stay off the seam.
        GridTopology { num_planes: 5, sats_per_plane: 4, seamless: false },
        // Two-wide axes: east and west (north and south) are the same
        // neighbour.
        GridTopology { num_planes: 2, sats_per_plane: 6, seamless: true },
        GridTopology { num_planes: 6, sats_per_plane: 2, seamless: true },
        GridTopology { num_planes: 2, sats_per_plane: 2, seamless: true },
        GridTopology { num_planes: 2, sats_per_plane: 5, seamless: false },
    ];
    let (mut detours, mut partitioned) = (0, 0);
    for grid in &grids {
        for (dead_pct, cuts) in [(0, 0), (0, 3), (10, 0), (10, 3), (30, 2), (50, 4)] {
            for seed in 1..=4 {
                let (_, d, p) = all_pairs(grid, &view(grid, dead_pct, cuts, seed));
                detours += d;
                partitioned += p;
            }
        }
    }
    assert!(detours > 500, "the sweep must exercise detours (saw {detours})");
    assert!(partitioned > 100, "the sweep must exercise partitions (saw {partitioned})");
}

#[test]
fn sampled_pairs_on_the_starlink_grid_match_the_allocating_bfs() {
    let grid = GridTopology::starlink();
    let mut pairs = 0u64;
    let mut resolutions = 0u64;
    let (mut detours, mut partitioned) = (0, 0);
    // 0 / 1 / 5 / 10 / 30 % dead, with and without cut links between
    // live satellites.
    for (i, (dead_pct, cuts)) in
        [(0, 0), (0, 40), (1, 0), (1, 40), (5, 0), (5, 40), (10, 40), (30, 0), (30, 40)]
            .into_iter()
            .enumerate()
    {
        let view = view(&grid, dead_pct, cuts, 100 + i as u64);
        let mut oracle = Oracle::new(&grid, &view);
        let mut rng = Rng(7 + i as u64);
        for k in 0..2600 {
            let from = rng.sat(&grid);
            // Three pairs in four are near (what a request does: first
            // contact to a bucket owner a hop or two away), the fourth
            // is anywhere on the torus.
            let to = if k % 4 != 0 {
                SatelliteId::new(
                    (from.orbit + 71 + rng.below(3) as u16) % 72,
                    (from.slot + 17 + rng.below(3) as u16) % 18,
                )
            } else {
                rng.sat(&grid)
            };
            oracle.check(from, to);
            pairs += 1;
        }
        detours += oracle.detours;
        partitioned += oracle.partitioned;
        resolutions += oracle.finish();
    }
    assert!(pairs >= 20_000, "sampled {pairs} pairs");
    assert!(resolutions > 20_000, "faulted resolutions counted: {resolutions}");
    assert!(detours > 1_000, "the sweep must exercise detours (saw {detours})");
    assert!(partitioned > 0, "30 % dead must strand someone");
}

#[test]
fn wrap_ties_and_seam_pairs_match_the_allocating_bfs() {
    let grid = GridTopology::starlink();
    for seed in 1..=3 {
        let view = view(&grid, 5, 30, 40 + seed);
        let mut oracle = Oracle::new(&grid, &view);
        let mut rng = Rng(seed);
        for _ in 0..150 {
            let a = rng.sat(&grid);
            // Half-way round both axes: east/west and north/south tie,
            // so the route taken is the expansion order's tie-break.
            oracle.check(a, SatelliteId::new((a.orbit + 36) % 72, (a.slot + 9) % 18));
            oracle.check(a, SatelliteId::new((a.orbit + 36) % 72, a.slot));
            oracle.check(a, SatelliteId::new(a.orbit, (a.slot + 9) % 18));
            // Across the plane seam and the slot wrap.
            let s = a.slot;
            oracle.check(SatelliteId::new(71, s), SatelliteId::new(0, (s + 1) % 18));
            oracle.check(SatelliteId::new(0, s), SatelliteId::new(70, s));
            oracle.check(SatelliteId::new(a.orbit, 17), SatelliteId::new(a.orbit, 1));
            oracle.check(SatelliteId::new(a.orbit, 0), SatelliteId::new((a.orbit + 1) % 72, 17));
        }
        oracle.finish();
    }
}

#[test]
fn dead_plane_and_dead_first_contact_match_the_allocating_bfs() {
    let grid = GridTopology::starlink();
    // A whole plane dead, plus scattered outages: every route between
    // planes 19 and 21 detours around or remaps across plane 20.
    let mut view = view(&grid, 1, 10, 9);
    for s in 0..18 {
        view.kill(SatelliteId::new(20, s));
    }
    let mut oracle = Oracle::new(&grid, &view);
    for s in 0..18 {
        for t in 0..18 {
            oracle.check(SatelliteId::new(19, s), SatelliteId::new(21, t));
            oracle.check(SatelliteId::new(19, s), SatelliteId::new(20, t));
        }
    }
    assert!(oracle.detours > 0, "crossing a dead plane costs extra hops");

    // A dead first contact is trivially disconnected: the owner is
    // alive, so the outcome is `Partitioned`, never a route.
    let dead_contact = SatelliteId::new(20, 4);
    for t in 0..18 {
        let owner = SatelliteId::new(22, t);
        if view.is_alive(owner) {
            assert_eq!(oracle.check(dead_contact, owner), RouteOutcome::Partitioned { owner });
        }
    }
    assert!(oracle.partitioned > 0);
    oracle.finish();
}

#[test]
fn unreachable_target_exhausts_the_queue_like_the_allocating_bfs() {
    let grid = GridTopology::starlink();
    // A live satellite with all four ISLs cut: the search visits every
    // other live slot before giving up.
    let island = SatelliteId::new(40, 7);
    let mut view = view(&grid, 5, 20, 77);
    view.revive(island);
    for (_, n) in grid.neighbors(island) {
        view.cut_link(island, n);
    }
    let mut oracle = Oracle::new(&grid, &view);
    let mut rng = Rng(5);
    for _ in 0..200 {
        let from = rng.sat(&grid);
        let got = oracle.check(from, island);
        if from != island {
            assert_eq!(got, RouteOutcome::Partitioned { owner: island }, "from {from}");
        }
        // And outward: the island reaches nobody either.
        oracle.check(island, from);
    }
    oracle.finish();
}

#[test]
fn back_to_back_searches_across_grid_sizes_share_one_scratch() {
    // One thread, one scratch: a search on a small grid right after one
    // on a large grid (and back) must not see the other's stamps or
    // predecessors.
    let grids = [
        GridTopology::starlink(),
        GridTopology { num_planes: 2, sats_per_plane: 2, seamless: true },
        GridTopology { num_planes: 6, sats_per_plane: 5, seamless: true },
        GridTopology { num_planes: 5, sats_per_plane: 4, seamless: false },
        // Same slot count as 6×5, different row length.
        GridTopology { num_planes: 3, sats_per_plane: 10, seamless: true },
    ];
    let views: Vec<FailureModel> =
        grids.iter().enumerate().map(|(i, g)| view(g, 15, 3, 60 + i as u64)).collect();
    let mut oracles: Vec<Oracle> =
        grids.iter().zip(&views).map(|(g, v)| Oracle::new(g, v)).collect();
    let mut rng = Rng(11);
    for _ in 0..1500 {
        for (grid, oracle) in grids.iter().zip(&mut oracles) {
            oracle.check(rng.sat(grid), rng.sat(grid));
        }
    }
    for oracle in oracles {
        assert!(oracle.routed > 0);
        oracle.finish();
    }
}

/// `(orbit, slot)`.
type Sat = (u16, u16);

/// A view with exactly these satellites dead and these links cut.
fn faults(dead: &[Sat], cuts: &[(Sat, Sat)]) -> FailureModel {
    let mut view = FailureModel::none();
    for &(o, s) in dead {
        view.kill(SatelliteId::new(o, s));
    }
    for &((o1, s1), (o2, s2)) in cuts {
        view.cut_link(SatelliteId::new(o1, s1), SatelliteId::new(o2, s2));
    }
    view
}

/// Check `from -> to` against the reference and against the outcome the
/// case was built to produce.
fn expect_route(
    grid: &GridTopology,
    view: &FailureModel,
    from: Sat,
    to: Sat,
    (intra, inter, extra_hops): (u16, u16, u16),
) {
    let owner = SatelliteId::new(to.0, to.1);
    let mut oracle = Oracle::new(grid, view);
    let got = oracle.check(SatelliteId::new(from.0, from.1), owner);
    let want = ResolvedRoute { owner, intra, inter, remapped: false, extra_hops };
    assert_eq!(got, RouteOutcome::Routed(want), "{from:?} -> {to:?} under {view:?}");
    assert_eq!(oracle.finish(), 2, "one resolution per remap mode, searched or not");
}

#[test]
fn staircase_one_order_blocked_the_other_open() {
    let grid = GridTopology::starlink();
    // (10,5) -> (12,7): planes first runs (11,5) (12,5) (12,6); slots
    // first runs (10,6) (10,7) (11,7).
    for blocked in [(11, 5), (12, 5), (12, 6)] {
        expect_route(&grid, &faults(&[blocked], &[]), (10, 5), (12, 7), (2, 2, 0));
    }
    for blocked in [(10, 6), (10, 7), (11, 7)] {
        expect_route(&grid, &faults(&[blocked], &[]), (10, 5), (12, 7), (2, 2, 0));
    }
    // The same with a cut link on an otherwise live staircase.
    for cut in [((10, 5), (11, 5)), ((12, 6), (12, 7)), ((10, 5), (10, 6)), ((11, 7), (12, 7))] {
        expect_route(&grid, &faults(&[], &[cut]), (10, 5), (12, 7), (2, 2, 0));
    }
    // Westward and southward, across both wraps.
    for blocked in [(71, 1), (0, 17)] {
        expect_route(&grid, &faults(&[blocked], &[]), (0, 1), (70, 17), (2, 2, 0));
    }
}

#[test]
fn staircase_both_orders_blocked_a_third_survives() {
    let grid = GridTopology::starlink();
    // Both walks lose their second hop; (11,5) (11,6) (11,7) and
    // (10,6) (11,6) (12,6) are still whole, so the search finds a route
    // of healthy length: the same mix, no extra hops.
    let view = faults(&[(12, 5), (10, 7)], &[]);
    expect_route(&grid, &view, (10, 5), (12, 7), (2, 2, 0));
    let view = faults(&[], &[((11, 5), (12, 5)), ((10, 6), (10, 7))]);
    expect_route(&grid, &view, (10, 5), (12, 7), (2, 2, 0));
    // A longer pair, blocked at the far corner of each walk.
    let view = faults(&[(15, 5), (10, 9)], &[]);
    expect_route(&grid, &view, (10, 5), (15, 9), (4, 5, 0));
}

#[test]
fn staircase_both_orders_blocked_only_a_detour_left() {
    let grid = GridTopology::starlink();
    // Every monotone route of (10,5) -> (11,6) passes (11,5) or (10,6).
    // Dead, they also close the owner's south and west side: round by
    // (10,4) (11,4) (12,4) (12,5) (12,6).
    expect_route(&grid, &faults(&[(11, 5), (10, 6)], &[]), (10, 5), (11, 6), (3, 3, 4));
    // Cut off from the first contact only: (10,4) (11,4) (11,5).
    let cuts = [((10, 5), (11, 5)), ((10, 5), (10, 6))];
    expect_route(&grid, &faults(&[], &cuts), (10, 5), (11, 6), (3, 1, 2));
    // One axis at distance zero: the two orders are one walk, and a cut
    // link on it (every satellite alive) forces the detour.
    expect_route(&grid, &faults(&[], &[((11, 5), (12, 5))]), (10, 5), (12, 5), (2, 2, 2));
    expect_route(&grid, &faults(&[(10, 6)], &[]), (10, 5), (10, 7), (2, 2, 2));
}

#[test]
fn staircase_half_way_tie_blocked_in_the_canonical_direction() {
    let grid = GridTopology::starlink();
    // 36 planes apart: east is canonical, west is as short. With east
    // blocked the search goes west — same length, same mix, no extras.
    expect_route(&grid, &faults(&[(20, 5)], &[]), (10, 5), (46, 5), (0, 36, 0));
    expect_route(&grid, &faults(&[], &[((45, 5), (46, 5))]), (10, 5), (46, 5), (0, 36, 0));
    // 9 slots apart: north is canonical, south is as short.
    expect_route(&grid, &faults(&[(10, 8)], &[]), (10, 5), (10, 14), (9, 0, 0));
    // Both at once, east blocked on both rows the two walks use.
    let view = faults(&[(11, 5), (11, 14)], &[]);
    expect_route(&grid, &view, (10, 5), (46, 14), (9, 36, 0));
}

#[test]
fn staircase_dead_endpoints_are_not_routed() {
    let grid = GridTopology::starlink();
    let (from, to) = (SatelliteId::new(10, 5), SatelliteId::new(12, 7));
    // Dead first contact, every hop of both walks alive: partitioned.
    let view = faults(&[(10, 5)], &[]);
    let mut oracle = Oracle::new(&grid, &view);
    assert_eq!(oracle.check(from, to), RouteOutcome::Partitioned { owner: to });
    oracle.finish();
    // Dead owner: without remapping there is nobody to route to; with
    // it the request goes to the next live slot north.
    let view = faults(&[(12, 7)], &[]);
    let mut oracle = Oracle::new(&grid, &view);
    assert_eq!(oracle.check(from, to), RouteOutcome::Unroutable);
    let remapped = classify_route_toward_recorded(&grid, &view, true, from, to, &oracle.new_rec);
    let want = ResolvedRoute {
        owner: SatelliteId::new(12, 8),
        intra: 3,
        inter: 2,
        remapped: true,
        extra_hops: 0,
    };
    assert_eq!(remapped, RouteOutcome::Routed(want));
}

#[test]
fn staircase_on_two_wide_axes_and_at_the_seam() {
    // Two planes: east and west are the same neighbour, slots tie at 3.
    let grid = GridTopology { num_planes: 2, sats_per_plane: 6, seamless: true };
    expect_route(&grid, &faults(&[(1, 0)], &[]), (0, 0), (1, 3), (3, 1, 0));
    expect_route(&grid, &faults(&[(0, 1)], &[]), (0, 0), (1, 3), (3, 1, 0));
    expect_route(&grid, &faults(&[], &[((0, 0), (1, 0))]), (0, 0), (1, 0), (2, 1, 2));
    // Two slots per plane: north and south are the same neighbour.
    let grid = GridTopology { num_planes: 6, sats_per_plane: 2, seamless: true };
    expect_route(&grid, &faults(&[(1, 0)], &[]), (0, 0), (2, 1), (1, 2, 0));
    expect_route(&grid, &faults(&[(0, 1)], &[]), (0, 0), (2, 1), (1, 2, 0));
    let grid = GridTopology { num_planes: 2, sats_per_plane: 2, seamless: true };
    expect_route(&grid, &faults(&[(1, 0)], &[]), (0, 0), (1, 1), (1, 1, 0));
    expect_route(&grid, &faults(&[], &[((0, 0), (0, 1))]), (0, 0), (0, 1), (1, 2, 2));
    // No seam: plane 4 to plane 0 is four hops west, never one east.
    let grid = GridTopology { num_planes: 5, sats_per_plane: 4, seamless: false };
    expect_route(&grid, &FailureModel::sample(&grid, 1, 3), (4, 0), (0, 0), (0, 4, 0));
    expect_route(&grid, &faults(&[(2, 0)], &[]), (4, 0), (0, 1), (1, 4, 0));
    expect_route(&grid, &faults(&[(4, 1)], &[]), (4, 0), (0, 1), (1, 4, 0));
    expect_route(&grid, &faults(&[(2, 0)], &[]), (4, 0), (0, 0), (2, 4, 2));
    expect_route(&grid, &faults(&[(3, 0), (4, 1)], &[]), (4, 0), (0, 1), (3, 4, 2));
}
