//! Shortest-path routing on the ISL grid.
//!
//! On the healthy torus, a shortest path is any monotone staircase along
//! the two wrap-minimal axes; we return the canonical "planes first, then
//! slots" path. With failures (missing satellites or cut links) routing
//! falls back to breadth-first search over the surviving grid.

use crate::grid::{Direction, GridTopology};
#[cfg(test)]
use crate::isl::{IslKind, LinkModel};
use starcdn_orbit::walker::SatelliteId;
use starcdn_telemetry::{Counter, Histo, Recorder};
use std::cell::Cell;

/// A path across the grid: the sequence of hops (directions taken) plus
/// the satellites visited (including both endpoints).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GridPath {
    pub hops: Vec<Direction>,
    pub nodes: Vec<SatelliteId>,
}

impl GridPath {
    /// Number of ISL hops.
    pub fn len(&self) -> usize {
        self.hops.len()
    }

    /// True for a zero-hop (self) path.
    pub fn is_empty(&self) -> bool {
        self.hops.is_empty()
    }

    /// Total one-way propagation delay along the path under `model`, ms.
    #[cfg(test)]
    pub(crate) fn delay_ms(&self, model: &LinkModel) -> f64 {
        self.hops.iter().map(|&d| model.delay_ms(IslKind::of_direction(d))).sum()
    }

    /// Count of (intra, inter) hops.
    pub fn hop_mix(&self) -> (usize, usize) {
        let inter = self.hops.iter().filter(|d| d.is_inter_orbit()).count();
        (self.hops.len() - inter, inter)
    }
}

/// Canonical shortest path on the healthy torus: wrap-minimal plane moves
/// first, then wrap-minimal slot moves.
///
/// Panics when the grid is degenerate (an axis without a wrap
/// neighbour); hot paths that must survive a broken topology use
/// `try_shortest_path` and treat `None` as a partition.
pub fn shortest_path(grid: &GridTopology, from: SatelliteId, to: SatelliteId) -> GridPath {
    try_shortest_path(grid, from, to).expect("canonical walk needs a torus with wrap neighbours")
}

/// Fallible [`shortest_path`]: returns `None` instead of panicking when
/// a neighbour lookup fails mid-walk (degenerate or partitioned grid),
/// so callers can degrade to the origin bent-pipe path.
pub(crate) fn try_shortest_path(
    grid: &GridTopology,
    from: SatelliteId,
    to: SatelliteId,
) -> Option<GridPath> {
    if !grid.contains(from) || !grid.contains(to) {
        return None;
    }
    let mut hops = Vec::new();
    let mut nodes = vec![from];
    let mut cur = from;

    // Plane axis: choose the wrap direction with fewer hops (east = +1).
    let p = grid.num_planes;
    let fwd = (to.orbit + p - cur.orbit) % p; // hops going east
    let (pd, psteps) =
        if fwd <= p - fwd { (Direction::East, fwd) } else { (Direction::West, p - fwd) };
    for _ in 0..psteps {
        cur = grid.neighbor(cur, pd)?;
        hops.push(pd);
        nodes.push(cur);
    }

    // Slot axis (north = +1).
    let s = grid.sats_per_plane;
    let fwd = (to.slot + s - cur.slot) % s;
    let (sd, ssteps) =
        if fwd <= s - fwd { (Direction::North, fwd) } else { (Direction::South, s - fwd) };
    for _ in 0..ssteps {
        cur = grid.neighbor(cur, sd)?;
        hops.push(sd);
        nodes.push(cur);
    }

    if cur != to {
        return None;
    }
    Some(GridPath { hops, nodes })
}

/// BFS shortest path avoiding satellites for which `alive` returns false.
/// Endpoints must be alive. Returns `None` if `to` is unreachable.
#[cfg(test)]
pub(crate) fn shortest_path_avoiding(
    grid: &GridTopology,
    from: SatelliteId,
    to: SatelliteId,
    alive: impl Fn(SatelliteId) -> bool,
) -> Option<GridPath> {
    shortest_path_avoiding_links(grid, from, to, alive, |_, _| true)
}

/// BFS shortest path avoiding both dead satellites (`alive` false) and
/// individually cut ISLs (`link_ok` false for the unordered endpoint
/// pair). Endpoints must be alive. Returns `None` if `to` is
/// unreachable over the surviving grid.
pub fn shortest_path_avoiding_links(
    grid: &GridTopology,
    from: SatelliteId,
    to: SatelliteId,
    alive: impl Fn(SatelliteId) -> bool,
    link_ok: impl Fn(SatelliteId, SatelliteId) -> bool,
) -> Option<GridPath> {
    search(grid, from, to, alive, link_ok, |route| {
        let (mut hops, mut nodes) = (Vec::new(), vec![to]);
        for (pred, d) in route {
            hops.push(d);
            nodes.push(pred);
        }
        hops.reverse();
        nodes.reverse();
        GridPath { hops, nodes }
    })
}

/// The `(intra, inter)` hop mix of the route
/// [`shortest_path_avoiding_links`] would return, without building the
/// path: this is what every non-local request under a faulted view asks
/// for. A surviving wrap-minimal staircase answers without a search
/// (`staircase_survives`); either way the resolution is counted
/// ([`Counter::BfsRoutes`]) and the hop length of a found route observed
/// ([`Histo::BfsPathHops`]).
pub fn hop_mix_avoiding_links_recorded(
    grid: &GridTopology,
    from: SatelliteId,
    to: SatelliteId,
    alive: impl Fn(SatelliteId) -> bool,
    link_ok: impl Fn(SatelliteId, SatelliteId) -> bool,
    rec: &dyn Recorder,
) -> Option<(u16, u16)> {
    let enabled = rec.is_enabled();
    if enabled {
        rec.add(Counter::BfsRoutes, 1);
    }
    let mix = if !alive(from) || !alive(to) {
        None
    } else if staircase_survives(grid, from, to, &alive, &link_ok) {
        Some((grid.slot_distance(from.slot, to.slot), grid.plane_distance(from.orbit, to.orbit)))
    } else {
        search(grid, from, to, alive, link_ok, |route| {
            let (mut intra, mut inter) = (0u16, 0u16);
            for (_, d) in route {
                if d.is_inter_orbit() {
                    inter += 1;
                } else {
                    intra += 1;
                }
            }
            (intra, inter)
        })
    };
    if enabled {
        if let Some((intra, inter)) = mix {
            rec.observe(Histo::BfsPathHops, (intra + inter) as u64);
        }
    }
    mix
}

/// Whether one of the two wrap-minimal staircases from a live `from` to
/// `to` — planes first (the canonical walk), else slots first — has
/// every satellite alive and every link intact.
///
/// Such a route has the healthy torus's length, so it is a shortest
/// route over the surviving grid too; and every route of that length is
/// monotone on both axes, so whichever of them the search's tie-break
/// would have kept, its hop mix is `(slot_distance, plane_distance)`
/// with no extra hops. The answer is the search's, exactly; the search
/// is only skipped. Two walks rather than one because a lone dead
/// satellite on the first leg blocks the canonical walk of every pair
/// that crosses it, and the other order steps round it.
fn staircase_survives(
    grid: &GridTopology,
    from: SatelliteId,
    to: SatelliteId,
    alive: impl Fn(SatelliteId) -> bool,
    link_ok: impl Fn(SatelliteId, SatelliteId) -> bool,
) -> bool {
    // An id off the grid stays the search's to refuse: the legs'
    // arithmetic must not see it.
    if !grid.contains(from) || !grid.contains(to) {
        return false;
    }
    let [planes, slots] = grid.canonical_legs(from, to);
    let survives = |legs: [(Direction, u16); 2]| {
        let mut cur = from;
        for (dir, hops) in legs {
            for _ in 0..hops {
                match grid.neighbor(cur, dir) {
                    Some(next) if alive(next) && link_ok(cur, next) => cur = next,
                    _ => return false,
                }
            }
        }
        true
    };
    // With an axis at distance zero the two orders are one walk.
    survives([planes, slots]) || (planes.1 > 0 && slots.1 > 0 && survives([slots, planes]))
}

/// The working set of one breadth-first search, kept per thread and
/// reused: a search stamps the slots it visits with its generation
/// instead of clearing a visited table, and the frontier is a `Vec`
/// consumed by index. After the first search on a grid nothing here
/// allocates.
struct BfsScratch {
    generation: u32,
    /// `seen[slot] == generation` marks a slot visited by this search.
    seen: Vec<u32>,
    /// For a visited slot, its predecessor and the direction taken from
    /// it; stale for slots this search has not stamped.
    prev: Vec<(SatelliteId, Direction)>,
    queue: Vec<SatelliteId>,
}

thread_local! {
    static SCRATCH: Cell<BfsScratch> = const { Cell::new(BfsScratch::new()) };
}

impl BfsScratch {
    const fn new() -> Self {
        BfsScratch { generation: 0, seen: Vec::new(), prev: Vec::new(), queue: Vec::new() }
    }

    /// Breadth-first search from `from` until `to` is reached, expanding
    /// neighbours in [`Direction::ALL`] order: the first route found to a
    /// slot wins, so this order is the tie-break among equally short
    /// routes and every recorded detour depends on it. True when `to`
    /// was reached; [`RouteBack`] then reads the route.
    fn reach(
        &mut self,
        grid: &GridTopology,
        from: SatelliteId,
        to: SatelliteId,
        alive: impl Fn(SatelliteId) -> bool,
        link_ok: impl Fn(SatelliteId, SatelliteId) -> bool,
    ) -> bool {
        if from == to {
            return true;
        }
        let spp = grid.sats_per_plane;
        let slots = grid.total_slots();
        if self.seen.len() < slots {
            self.seen.resize(slots, 0);
            self.prev.resize(slots, (from, Direction::North));
            self.queue.reserve(slots);
        }
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            self.seen.fill(0);
            self.generation = 1;
        }
        self.seen[from.index(spp)] = self.generation;
        self.queue.clear();
        self.queue.push(from);
        let mut head = 0;
        while let Some(&cur) = self.queue.get(head) {
            head += 1;
            for d in Direction::ALL {
                let Some(n) = grid.neighbor(cur, d) else {
                    continue;
                };
                let i = n.index(spp);
                if self.seen[i] == self.generation || !alive(n) || !link_ok(cur, n) {
                    continue;
                }
                self.seen[i] = self.generation;
                self.prev[i] = (cur, d);
                if n == to {
                    return true;
                }
                self.queue.push(n);
            }
        }
        false
    }
}

/// The route a successful [`BfsScratch::reach`] left in the scratch,
/// walked from `to` back to `from`: each item is a hop's source
/// satellite and the direction taken from it.
struct RouteBack<'a> {
    prev: &'a [(SatelliteId, Direction)],
    spp: u16,
    from: SatelliteId,
    cur: SatelliteId,
}

impl Iterator for RouteBack<'_> {
    type Item = (SatelliteId, Direction);

    fn next(&mut self) -> Option<Self::Item> {
        (self.cur != self.from).then(|| {
            let hop = self.prev[self.cur.index(self.spp)];
            self.cur = hop.0;
            hop
        })
    }
}

/// Run `f` on this thread's scratch. The scratch is taken out of its
/// cell for the duration, so an `alive` / `link_ok` closure that itself
/// searches finds an empty scratch rather than a borrow panic.
fn with_scratch<R>(f: impl FnOnce(&mut BfsScratch) -> R) -> R {
    SCRATCH.with(|cell| {
        let mut scratch = cell.replace(BfsScratch::new());
        let out = f(&mut scratch);
        cell.set(scratch);
        out
    })
}

/// Search on this thread's scratch and, when `to` is reachable, read the
/// route (hops from `to` back to `from`) out of it with `found`. `None`
/// when an endpoint is dead or no surviving path exists.
fn search<R>(
    grid: &GridTopology,
    from: SatelliteId,
    to: SatelliteId,
    alive: impl Fn(SatelliteId) -> bool,
    link_ok: impl Fn(SatelliteId, SatelliteId) -> bool,
    found: impl FnOnce(RouteBack<'_>) -> R,
) -> Option<R> {
    if !alive(from) || !alive(to) {
        return None;
    }
    with_scratch(|scratch| {
        scratch.reach(grid, from, to, alive, link_ok).then(|| {
            found(RouteBack { prev: &scratch.prev, spp: grid.sats_per_plane, from, cur: to })
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use starcdn_telemetry::Noop;

    fn grid() -> GridTopology {
        GridTopology::starlink()
    }

    #[test]
    fn self_path_is_empty() {
        let g = grid();
        let p = shortest_path(&g, SatelliteId::new(3, 4), SatelliteId::new(3, 4));
        assert!(p.is_empty());
        assert_eq!(p.nodes, vec![SatelliteId::new(3, 4)]);
        assert_eq!(p.delay_ms(&LinkModel::table1()), 0.0);
    }

    #[test]
    fn single_hop_paths() {
        let g = grid();
        let p = shortest_path(&g, SatelliteId::new(0, 0), SatelliteId::new(1, 0));
        assert_eq!(p.hops, vec![Direction::East]);
        let p = shortest_path(&g, SatelliteId::new(0, 0), SatelliteId::new(0, 1));
        assert_eq!(p.hops, vec![Direction::North]);
    }

    #[test]
    fn wrap_around_paths_take_short_side() {
        let g = grid();
        // Plane 71 → plane 0 is one hop east via the seam.
        let p = shortest_path(&g, SatelliteId::new(71, 5), SatelliteId::new(0, 5));
        assert_eq!(p.len(), 1);
        assert_eq!(p.hops, vec![Direction::East]);
        // Slot 0 → slot 17 is one hop south via the wrap.
        let p = shortest_path(&g, SatelliteId::new(4, 0), SatelliteId::new(4, 17));
        assert_eq!(p.hops, vec![Direction::South]);
    }

    #[test]
    fn path_delay_accounts_link_kinds() {
        let g = grid();
        let m = LinkModel::table1();
        // 2 east + 1 north = 2×2.15 + 8.03 = 12.33 ms.
        let p = shortest_path(&g, SatelliteId::new(0, 0), SatelliteId::new(2, 1));
        assert_eq!(p.hop_mix(), (1, 2));
        assert!((p.delay_ms(&m) - 12.33).abs() < 1e-9);
    }

    #[test]
    fn try_shortest_path_matches_panicking_walk() {
        let g = grid();
        for (a, b) in [
            (SatelliteId::new(0, 0), SatelliteId::new(5, 3)),
            (SatelliteId::new(71, 5), SatelliteId::new(0, 5)),
            (SatelliteId::new(3, 4), SatelliteId::new(3, 4)),
        ] {
            let fallible = try_shortest_path(&g, a, b).expect("healthy torus always routes");
            assert_eq!(fallible, shortest_path(&g, a, b));
        }
    }

    #[test]
    fn try_shortest_path_recovers_on_degenerate_grid() {
        // A seamless-less grid has no east/west wrap at the seam: the
        // canonical walk would panic; the fallible walk reports None.
        let g = GridTopology { num_planes: 4, sats_per_plane: 4, seamless: false };
        let a = SatelliteId::new(3, 0);
        let b = SatelliteId::new(0, 0);
        assert!(try_shortest_path(&g, a, b).is_none(), "seam crossing must not route");
        // Off-grid endpoints are rejected rather than walked.
        let g = grid();
        assert!(try_shortest_path(&g, SatelliteId::new(99, 0), SatelliteId::new(0, 0)).is_none());
    }

    #[test]
    fn bfs_agrees_with_manhattan_when_healthy() {
        let g = grid();
        for (a, b) in [
            (SatelliteId::new(0, 0), SatelliteId::new(5, 3)),
            (SatelliteId::new(70, 16), SatelliteId::new(1, 1)),
            (SatelliteId::new(36, 9), SatelliteId::new(0, 0)),
        ] {
            let direct = shortest_path(&g, a, b);
            let bfs = shortest_path_avoiding(&g, a, b, |_| true).unwrap();
            assert_eq!(direct.len(), bfs.len(), "{a} -> {b}");
            assert_eq!(direct.len() as u16, g.hop_distance(a, b));
        }
    }

    #[test]
    fn bfs_routes_around_dead_satellite() {
        let g = grid();
        let from = SatelliteId::new(0, 0);
        let to = SatelliteId::new(2, 0);
        let dead = SatelliteId::new(1, 0);
        let p = shortest_path_avoiding(&g, from, to, |id| id != dead).unwrap();
        assert!(!p.nodes.contains(&dead));
        assert_eq!(p.len(), 4, "detour adds two hops");
    }

    #[test]
    fn bfs_none_when_endpoint_dead() {
        let g = grid();
        let a = SatelliteId::new(0, 0);
        let b = SatelliteId::new(1, 0);
        assert!(shortest_path_avoiding(&g, a, b, |id| id != a).is_none());
        assert!(shortest_path_avoiding(&g, a, b, |id| id != b).is_none());
    }

    #[test]
    fn bfs_routes_around_cut_link() {
        let g = grid();
        let from = SatelliteId::new(0, 0);
        let to = SatelliteId::new(2, 0);
        let mut f = crate::failures::FailureModel::none();
        f.cut_link(SatelliteId::new(0, 0), SatelliteId::new(1, 0));
        let p = shortest_path_avoiding_links(
            &g,
            from,
            to,
            |id| f.is_alive(id),
            |a, b| f.is_link_alive(a, b),
        )
        .expect("a single cut link always leaves a detour on the torus");
        assert_eq!(p.len(), 4, "one cut link forces a two-hop detour");
        for w in p.nodes.windows(2) {
            assert!(f.is_link_alive(w[0], w[1]), "path uses cut link {:?}->{:?}", w[0], w[1]);
        }
        // Both endpoints of the cut link are still reachable themselves.
        assert!(shortest_path_avoiding_links(
            &g,
            from,
            SatelliteId::new(1, 0),
            |id| f.is_alive(id),
            |a, b| f.is_link_alive(a, b),
        )
        .is_some());
    }

    #[test]
    fn bfs_none_when_all_links_of_endpoint_cut() {
        let g = grid();
        let target = SatelliteId::new(10, 10);
        let mut f = crate::failures::FailureModel::none();
        for (_, n) in g.neighbors(target) {
            f.cut_link(target, n);
        }
        let p = shortest_path_avoiding_links(
            &g,
            SatelliteId::new(0, 0),
            target,
            |id| f.is_alive(id),
            |a, b| f.is_link_alive(a, b),
        );
        assert!(p.is_none(), "satellite with every ISL cut is unreachable");
    }

    #[test]
    fn bfs_none_when_isolated() {
        let g = grid();
        let target = SatelliteId::new(10, 10);
        let ring: Vec<SatelliteId> = g.neighbors(target).map(|(_, n)| n).collect();
        let p =
            shortest_path_avoiding(&g, SatelliteId::new(0, 0), target, |id| !ring.contains(&id));
        assert!(p.is_none());
    }

    /// A faulted view (10 % dead) and forty random pairs over it.
    fn faulted_pairs() -> (crate::failures::FailureModel, Vec<(SatelliteId, SatelliteId)>) {
        let g = grid();
        let f = crate::failures::FailureModel::sample(&g, 130, 17);
        let mut rng = crate::failures::rand_like::SmallRng::new(29);
        let mut sat = || SatelliteId::new(rng.gen_range(72) as u16, rng.gen_range(18) as u16);
        let pairs = (0..40).map(|_| (sat(), sat())).collect();
        (f, pairs)
    }

    #[test]
    fn generation_wrap_rezeroes_the_stamps() {
        let g = grid();
        let (f, pairs) = faulted_pairs();
        let route = |a, b| {
            shortest_path_avoiding_links(
                &g,
                a,
                b,
                |id| f.is_alive(id),
                |x, y| f.is_link_alive(x, y),
            )
        };
        let expected: Vec<_> = pairs.iter().map(|&(a, b)| route(a, b)).collect();
        assert!(expected.iter().flatten().count() > 20, "most pairs must route");
        for (&(a, b), want) in pairs.iter().zip(&expected) {
            if a == b {
                continue;
            }
            // With every link into `b` refused, a search stamps all the
            // other slots with generation 1 before it gives up ...
            with_scratch(|scratch| *scratch = BfsScratch::new());
            let stranded =
                shortest_path_avoiding_links(&g, a, b, |_| true, |x, y| x != b && y != b);
            assert!(stranded.is_none());
            // ... and the next search wraps back onto generation 1.
            with_scratch(|scratch| scratch.generation = u32::MAX);
            assert_eq!(&route(a, b), want, "{a} -> {b}");
            if want.is_some() {
                assert_eq!(with_scratch(|scratch| scratch.generation), 1);
            }
        }
    }

    #[test]
    fn a_surviving_staircase_never_enters_the_search() {
        let g = grid();
        let (from, to) = (SatelliteId::new(10, 5), SatelliteId::new(12, 7));
        let mix = |dead: &[SatelliteId]| {
            hop_mix_avoiding_links_recorded(
                &g,
                from,
                to,
                |id| !dead.contains(&id),
                |_, _| true,
                &Noop,
            )
        };
        let searches = || with_scratch(|scratch| scratch.generation);
        with_scratch(|scratch| *scratch = BfsScratch::new());
        // Planes first whole; planes first blocked and slots first whole.
        assert_eq!(mix(&[SatelliteId::new(30, 3)]), Some((2, 2)));
        assert_eq!(mix(&[SatelliteId::new(11, 5)]), Some((2, 2)));
        assert_eq!(mix(&[SatelliteId::new(12, 6)]), Some((2, 2)));
        assert_eq!(searches(), 0, "a whole staircase is answered without the scratch");
        // Both blocked: the search runs, and finds the third staircase.
        assert_eq!(mix(&[SatelliteId::new(12, 5), SatelliteId::new(10, 7)]), Some((2, 2)));
        assert_eq!(searches(), 1);
        // A dead endpoint is answered before either.
        assert_eq!(mix(&[to]), None);
        assert_eq!(searches(), 1);
        // An owner off the grid is never walked toward: the search looks
        // for it, as it always did, and finds nothing.
        let off = SatelliteId::new(65535, 65535);
        let lost = hop_mix_avoiding_links_recorded(&g, from, off, |_| true, |_, _| true, &Noop);
        assert_eq!(lost, None);
        assert_eq!(searches(), 2);
    }

    #[test]
    fn a_closure_that_searches_gets_its_own_scratch() {
        let g = grid();
        let (f, pairs) = faulted_pairs();
        let small = GridTopology { num_planes: 4, sats_per_plane: 3, seamless: true };
        for (a, b) in pairs {
            let plain = shortest_path_avoiding(&g, a, b, |id| f.is_alive(id));
            let nested = shortest_path_avoiding(&g, a, b, |id| {
                let inner = shortest_path_avoiding(
                    &small,
                    SatelliteId::new(0, 0),
                    SatelliteId::new(2, 1),
                    |n| n != SatelliteId::new(1, 0),
                );
                assert_eq!(inner.expect("one dead slot leaves a route").len(), 3);
                f.is_alive(id)
            });
            assert_eq!(nested, plain, "{a} -> {b}");
        }
    }

    proptest! {
        #[test]
        fn prop_path_length_equals_hop_distance(
            o1 in 0u16..72, s1 in 0u16..18, o2 in 0u16..72, s2 in 0u16..18,
        ) {
            let g = grid();
            let a = SatelliteId::new(o1, s1);
            let b = SatelliteId::new(o2, s2);
            let p = shortest_path(&g, a, b);
            prop_assert_eq!(p.len() as u16, g.hop_distance(a, b));
            // Path is connected and ends at b.
            prop_assert_eq!(*p.nodes.first().unwrap(), a);
            prop_assert_eq!(*p.nodes.last().unwrap(), b);
            for w in p.nodes.windows(2) {
                prop_assert_eq!(g.hop_distance(w[0], w[1]), 1);
            }
        }

        #[test]
        fn prop_bfs_no_longer_than_manhattan_plus_detours(
            o1 in 0u16..72, s1 in 0u16..18, o2 in 0u16..72, s2 in 0u16..18,
            dead_o in 0u16..72, dead_s in 0u16..18,
        ) {
            let g = grid();
            let a = SatelliteId::new(o1, s1);
            let b = SatelliteId::new(o2, s2);
            let dead = SatelliteId::new(dead_o, dead_s);
            prop_assume!(a != dead && b != dead);
            let p = shortest_path_avoiding(&g, a, b, |id| id != dead).unwrap();
            // One dead satellite can add at most 2 hops on a torus.
            prop_assert!(p.len() as u16 <= g.hop_distance(a, b) + 2);
            prop_assert!(p.len() as u16 >= g.hop_distance(a, b));
        }

        #[test]
        fn prop_paths_avoid_cut_links_and_dead_nodes(
            o1 in 0u16..72, s1 in 0u16..18, o2 in 0u16..72, s2 in 0u16..18,
            seed in 1u64..200, kill in 0usize..60, cuts in 0usize..60,
        ) {
            let g = grid();
            let a = SatelliteId::new(o1, s1);
            let b = SatelliteId::new(o2, s2);
            // Random dead set plus random cut links, deterministic in seed.
            let mut f = crate::failures::FailureModel::sample(&g, kill, seed);
            let mut rng = crate::failures::rand_like::SmallRng::new(seed ^ 0xDEAD_15E5);
            for _ in 0..cuts {
                let x = SatelliteId::new(
                    rng.gen_range(g.num_planes as u64) as u16,
                    rng.gen_range(g.sats_per_plane as u64) as u16,
                );
                let (_, n) = g.neighbors(x).nth(rng.gen_range(4) as usize).unwrap();
                f.cut_link(x, n);
            }
            prop_assume!(f.is_alive(a) && f.is_alive(b));
            if let Some(p) = shortest_path_avoiding_links(
                &g, a, b, |id| f.is_alive(id), |x, y| f.is_link_alive(x, y),
            ) {
                prop_assert_eq!(*p.nodes.first().unwrap(), a);
                prop_assert_eq!(*p.nodes.last().unwrap(), b);
                for n in &p.nodes {
                    prop_assert!(f.is_alive(*n), "path visits dead satellite {:?}", n);
                }
                for w in p.nodes.windows(2) {
                    prop_assert_eq!(g.hop_distance(w[0], w[1]), 1);
                    prop_assert!(
                        f.is_link_alive(w[0], w[1]),
                        "path crosses cut link {:?} -> {:?}", w[0], w[1]
                    );
                }
            }
        }
    }
}
