//! Satellite unavailability and consistent-hash remapping (§3.4).
//!
//! The paper observed 126 of 1296 shell slots (9.7 %) out of slot,
//! breaking 438 ISLs among the remaining satellites. StarCDN handles
//! long-term unavailability by remapping the dead satellite's bucket to
//! the *next available satellite* along its orbit; that satellite then
//! serves multiple bucket IDs (Fig. 11 groups hit rates by this count).

use crate::buckets::{BucketId, BucketTiling};
use crate::grid::{Direction, GridTopology};
use rand_like::SmallRng;
use starcdn_orbit::walker::SatelliteId;
use std::collections::BTreeSet;
use std::fmt;

/// Deterministic xorshift generator so this crate does not need a `rand`
/// dependency for the sampling tasks it performs (outage sampling here,
/// churn-schedule generation in [`crate::schedule`]).
pub(crate) mod rand_like {
    pub(crate) struct SmallRng(u64);
    impl SmallRng {
        pub(crate) fn new(seed: u64) -> Self {
            SmallRng(seed.max(1))
        }
        pub(crate) fn next_u64(&mut self) -> u64 {
            // xorshift64*
            let mut x = self.0;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.0 = x;
            x.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }
        pub(crate) fn gen_range(&mut self, n: u64) -> u64 {
            self.next_u64() % n
        }
        /// Uniform in [0, 1).
        pub(crate) fn next_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
        }
        /// Exponentially distributed with the given mean.
        pub(crate) fn next_exp(&mut self, mean: f64) -> f64 {
            -mean * (1.0 - self.next_f64()).ln()
        }
    }
}

/// An undirected ISL identified by its (ordered) endpoint pair.
pub type LinkId = (SatelliteId, SatelliteId);

/// Normalize an endpoint pair into a canonical [`LinkId`].
pub fn link_id(a: SatelliteId, b: SatelliteId) -> LinkId {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// The dead set as liveness rows: one row of `u64` words per plane, bit
/// `slot % 64` of word `slot / 64` set while that slot is dead, so a
/// membership test is an index, a shift and a mask.
///
/// Rows exist only up to the highest plane with a dead slot and reach
/// only to that plane's highest dead slot — storage follows the members,
/// never an `orbit × slot` rectangle. It is kept canonical (no row ends
/// in a zero word, the last row is not empty), which is what lets `==`
/// be derived and still compare members: two sets with the same members
/// are equal whatever was killed and revived on the way.
///
/// **Memory.** Killing `(o, s)` grows the table to `o + 1` row headers
/// (24 bytes each) and plane `o`'s row to `s / 64 + 1` words: 72 headers
/// and 72 words on the Starlink shell, and for an id on no grid at most
/// 65536 × 24 B + 8 KB ≈ 1.6 MB at `(65535, 65535)`. Ids are not checked
/// against a grid here, so the worst a caller can do is 8 KB per plane it
/// kills a far slot in.
#[derive(Clone, PartialEq, Eq, Default)]
struct DeadRows {
    rows: Vec<Vec<u64>>,
    len: usize,
}

impl DeadRows {
    /// (row, word in the row, bit in the word) of `id`.
    fn locate(id: SatelliteId) -> (usize, usize, u64) {
        (id.orbit as usize, (id.slot >> 6) as usize, 1 << (id.slot & 63))
    }

    fn contains(&self, id: SatelliteId) -> bool {
        let (row, word, bit) = Self::locate(id);
        self.rows.get(row).and_then(|r| r.get(word)).is_some_and(|w| w & bit != 0)
    }

    fn insert(&mut self, id: SatelliteId) {
        let (row, word, bit) = Self::locate(id);
        if self.rows.len() <= row {
            self.rows.resize_with(row + 1, Vec::new);
        }
        let words = &mut self.rows[row];
        if words.len() <= word {
            words.resize(word + 1, 0);
        }
        self.len += usize::from(words[word] & bit == 0);
        words[word] |= bit;
    }

    fn remove(&mut self, id: SatelliteId) {
        let (row, word, bit) = Self::locate(id);
        let Some(words) = self.rows.get_mut(row) else { return };
        match words.get_mut(word) {
            Some(w) if *w & bit != 0 => *w &= !bit,
            _ => return,
        }
        self.len -= 1;
        // Back to canonical form.
        while words.last() == Some(&0) {
            words.pop();
        }
        while self.rows.last().is_some_and(Vec::is_empty) {
            self.rows.pop();
        }
    }

    /// Members in `(orbit, slot)` order — the order of `SatelliteId`.
    fn iter(&self) -> impl Iterator<Item = SatelliteId> + '_ {
        self.rows.iter().enumerate().flat_map(|(orbit, words)| {
            words.iter().enumerate().flat_map(move |(word, &bits)| {
                crate::bits::ones(bits)
                    .map(move |b| SatelliteId::new(orbit as u16, (word * 64) as u16 + b as u16))
            })
        })
    }
}

impl FromIterator<SatelliteId> for DeadRows {
    fn from_iter<I: IntoIterator<Item = SatelliteId>>(ids: I) -> Self {
        let mut rows = DeadRows::default();
        for id in ids {
            rows.insert(id);
        }
        rows
    }
}

/// Reads as the set of its members, like the ordered set it replaced.
impl fmt::Debug for DeadRows {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// The current failure view: unavailable (out-of-slot) satellites plus
/// individually cut ISLs (link flaps that leave both endpoints alive).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FailureModel {
    dead: DeadRows,
    /// Cut links between two *alive* satellites; links incident to a dead
    /// satellite are implicitly down and not tracked here. An ordered
    /// set: the pairs are sparse, and most views cut none.
    cut: BTreeSet<LinkId>,
}

impl FailureModel {
    /// No failures.
    pub fn none() -> Self {
        Self::default()
    }

    /// Build from an explicit set.
    pub fn from_dead(dead: impl IntoIterator<Item = SatelliteId>) -> Self {
        FailureModel { dead: dead.into_iter().collect(), cut: BTreeSet::new() }
    }

    /// Build from an explicit dead set plus individually cut links.
    pub fn from_outages(
        dead: impl IntoIterator<Item = SatelliteId>,
        cut: impl IntoIterator<Item = (SatelliteId, SatelliteId)>,
    ) -> Self {
        FailureModel {
            dead: dead.into_iter().collect(),
            cut: cut.into_iter().map(|(a, b)| link_id(a, b)).collect(),
        }
    }

    /// Sample `count` distinct dead satellites uniformly (deterministic in
    /// `seed`). Mirrors the paper's observed 126-of-1296 outage pattern:
    /// `FailureModel::sample(&grid, 126, seed)`.
    pub fn sample(grid: &GridTopology, count: usize, seed: u64) -> Self {
        assert!(count <= grid.total_slots(), "cannot kill more slots than exist");
        let mut rng = SmallRng::new(seed);
        let mut dead = DeadRows::default();
        while dead.len < count {
            let o = rng.gen_range(grid.num_planes as u64) as u16;
            let s = rng.gen_range(grid.sats_per_plane as u64) as u16;
            dead.insert(SatelliteId::new(o, s));
        }
        FailureModel { dead, cut: BTreeSet::new() }
    }

    /// Is this satellite alive?
    pub fn is_alive(&self, id: SatelliteId) -> bool {
        !self.dead.contains(id)
    }

    /// Is the ISL between `a` and `b` usable? Requires both endpoints
    /// alive and the link not individually cut.
    pub fn is_link_alive(&self, a: SatelliteId, b: SatelliteId) -> bool {
        self.is_alive(a) && self.is_alive(b) && !self.is_link_cut(a, b)
    }

    /// Is the link between `a` and `b` individually cut (regardless of
    /// endpoint liveness)? Answered without looking at the pair while no
    /// link is cut at all.
    pub fn is_link_cut(&self, a: SatelliteId, b: SatelliteId) -> bool {
        !self.cut.is_empty() && self.cut.contains(&link_id(a, b))
    }

    /// Number of dead satellites.
    pub fn dead_count(&self) -> usize {
        self.dead.len
    }

    /// Number of individually cut links (dead-incident links not
    /// included; see [`FailureModel::broken_isl_count`] for those).
    pub fn cut_link_count(&self) -> usize {
        self.cut.len()
    }

    /// True when any satellite is dead or any link is cut.
    pub fn has_faults(&self) -> bool {
        self.dead.len > 0 || !self.cut.is_empty()
    }

    /// Iterate over dead satellites, in `(orbit, slot)` order.
    pub fn dead(&self) -> impl Iterator<Item = SatelliteId> + '_ {
        self.dead.iter()
    }

    /// Iterate over individually cut links.
    pub fn cut_links(&self) -> impl Iterator<Item = LinkId> + '_ {
        self.cut.iter().copied()
    }

    /// Mark a satellite out of service.
    pub fn kill(&mut self, id: SatelliteId) {
        self.dead.insert(id);
    }

    /// Return a satellite to service.
    pub fn revive(&mut self, id: SatelliteId) {
        self.dead.remove(id);
    }

    /// Cut the link between `a` and `b`.
    pub fn cut_link(&mut self, a: SatelliteId, b: SatelliteId) {
        self.cut.insert(link_id(a, b));
    }

    /// Restore the link between `a` and `b`.
    pub fn restore_link(&mut self, a: SatelliteId, b: SatelliteId) {
        self.cut.remove(&link_id(a, b));
    }

    /// Number of ISLs lost to the failures: every link incident to a dead
    /// satellite is unusable (links between two dead satellites counted
    /// once).
    pub fn broken_isl_count(&self, grid: &GridTopology) -> usize {
        let mut broken = 0usize;
        for d in self.dead.iter() {
            for (_, n) in grid.neighbors(d) {
                if self.dead.contains(n) {
                    // Count the dead-dead link only from the smaller id.
                    if d < n {
                        broken += 1;
                    }
                } else {
                    broken += 1;
                }
            }
        }
        broken
    }

    /// The satellite that actually serves `preferred`'s responsibilities:
    /// `preferred` itself when alive, else the next available satellite
    /// along the orbital direction (north, wrapping) in its plane. When
    /// the whole plane is dead the walk stops one slot short of where it
    /// started — at `preferred.slot - 1` — steps east from there, and
    /// from then on probes *that one slot* of each plane further east:
    /// in the new plane the very next northward step lands on
    /// `preferred.slot` again, which the wrap test reads as another full
    /// revolution. So with plane 5 and `(6, 2)` dead, `(5, 3)` resolves
    /// to `(7, 2)` although plane 6 has 17 satellites alive, and with the
    /// whole slot-2 ring dead as well it resolves to `None`. Known
    /// deviation (DESIGN.md §7), pinned by tests, kept because the
    /// extreme-event digests ride on it.
    ///
    /// Returns `None` if the walk finds nobody alive or runs off a
    /// degenerate grid (never panics — callers degrade to a ground fetch).
    pub fn resolve_owner(
        &self,
        grid: &GridTopology,
        preferred: SatelliteId,
    ) -> Option<SatelliteId> {
        if self.is_alive(preferred) {
            return Some(preferred);
        }
        let mut cur = preferred;
        for _ in 0..grid.total_slots() {
            // Walk north; after a full plane revolution, step east.
            let next = grid.neighbor(cur, Direction::North)?;
            cur = if next == first_visited_in_plane(preferred, cur) {
                grid.neighbor(cur, Direction::East).unwrap_or(next)
            } else {
                next
            };
            if self.is_alive(cur) {
                return Some(cur);
            }
        }
        None
    }

    /// For each alive satellite: the set of distinct bucket IDs it serves
    /// under `tiling` after remapping (its own bucket plus any inherited
    /// from dead satellites that resolve to it).
    ///
    /// This is the grouping variable of Fig. 11.
    pub fn buckets_served(
        &self,
        grid: &GridTopology,
        tiling: &BucketTiling,
    ) -> Vec<(SatelliteId, BTreeSet<BucketId>)> {
        let spp = grid.sats_per_plane;
        let mut served: Vec<BTreeSet<BucketId>> = vec![BTreeSet::new(); grid.total_slots()];
        for id in grid.iter_ids() {
            if let Some(owner) = self.resolve_owner(grid, id) {
                served[owner.index(spp)].insert(tiling.bucket_of_sat(id));
            }
        }
        grid.iter_ids()
            .filter(|&id| self.is_alive(id))
            .map(|id| (id, std::mem::take(&mut served[id.index(spp)])))
            .collect()
    }
}

/// Helper: detect a full wrap of the north-walk within `preferred`'s
/// current plane (the walk started at `preferred`'s slot).
fn first_visited_in_plane(preferred: SatelliteId, cur: SatelliteId) -> SatelliteId {
    SatelliteId::new(cur.orbit, preferred.slot)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn grid() -> GridTopology {
        GridTopology::starlink()
    }

    #[test]
    fn no_failures_resolves_to_self() {
        let g = grid();
        let f = FailureModel::none();
        assert_eq!(f.dead_count(), 0);
        for id in [SatelliteId::new(0, 0), SatelliteId::new(71, 17)] {
            assert_eq!(f.resolve_owner(&g, id), Some(id));
        }
    }

    #[test]
    fn dead_satellite_resolves_to_next_in_orbit() {
        let g = grid();
        let dead = SatelliteId::new(5, 5);
        let f = FailureModel::from_dead([dead]);
        assert!(!f.is_alive(dead));
        assert_eq!(f.resolve_owner(&g, dead), Some(SatelliteId::new(5, 6)));
    }

    #[test]
    fn run_of_dead_satellites_skipped() {
        let g = grid();
        let f = FailureModel::from_dead([
            SatelliteId::new(5, 5),
            SatelliteId::new(5, 6),
            SatelliteId::new(5, 7),
        ]);
        assert_eq!(f.resolve_owner(&g, SatelliteId::new(5, 5)), Some(SatelliteId::new(5, 8)));
    }

    #[test]
    fn wrap_within_plane() {
        let g = grid();
        let f = FailureModel::from_dead([SatelliteId::new(5, 17)]);
        assert_eq!(f.resolve_owner(&g, SatelliteId::new(5, 17)), Some(SatelliteId::new(5, 0)));
    }

    #[test]
    fn whole_plane_dead_spills_east() {
        let g = grid();
        let f = FailureModel::from_dead((0..18).map(|s| SatelliteId::new(5, s)));
        let resolved = f.resolve_owner(&g, SatelliteId::new(5, 3)).unwrap();
        assert_eq!(resolved.orbit, 6, "should spill to the next plane east");
        assert!(f.is_alive(resolved));
    }

    /// The remap walk exactly as it stood while the dead set was an
    /// ordered set. `resolve_owner` has to stay this, owner for owner:
    /// remapped requests, and the extreme-event digests with them, ride
    /// on every quirk of it.
    fn reference_walk(
        dead: &BTreeSet<SatelliteId>,
        grid: &GridTopology,
        preferred: SatelliteId,
    ) -> Option<SatelliteId> {
        if !dead.contains(&preferred) {
            return Some(preferred);
        }
        let mut cur = preferred;
        for _ in 0..grid.total_slots() {
            let next = grid.neighbor(cur, Direction::North)?;
            cur = if next == SatelliteId::new(cur.orbit, preferred.slot) {
                grid.neighbor(cur, Direction::East).unwrap_or(next)
            } else {
                next
            };
            if !dead.contains(&cur) {
                return Some(cur);
            }
        }
        None
    }

    fn plane(orbit: u16, slots: u16) -> impl Iterator<Item = SatelliteId> {
        (0..slots).map(move |s| SatelliteId::new(orbit, s))
    }

    #[test]
    fn resolve_owner_is_the_reference_walk_owner_for_owner() {
        let grids = [
            grid(),
            GridTopology { num_planes: 6, sats_per_plane: 70, seamless: true },
            GridTopology { num_planes: 5, sats_per_plane: 4, seamless: false },
        ];
        for g in &grids {
            let (p, s) = (g.num_planes, g.sats_per_plane);
            for seed in 1..=40u64 {
                let mut rng = SmallRng::new(seed);
                let mut dead = BTreeSet::new();
                // Dead runs along a plane, wrapping past its last slot.
                for _ in 0..1 + seed % 6 {
                    let (o, from) =
                        (rng.gen_range(p as u64) as u16, rng.gen_range(s as u64) as u16);
                    let len = 1 + rng.gen_range(s as u64 - 1) as u16;
                    dead.extend((0..len).map(|k| SatelliteId::new(o, (from + k) % s)));
                }
                // From every third seed on: a whole dead plane; from every
                // ninth: its spill slots east of it dead too.
                if seed % 3 == 0 {
                    let o = rng.gen_range(p as u64) as u16;
                    dead.extend(plane(o, s));
                    if seed % 9 == 0 {
                        let spill = rng.gen_range(s as u64) as u16;
                        dead.extend((1..=2).map(|k| SatelliteId::new((o + k) % p, spill)));
                    }
                }
                let f = FailureModel::from_dead(dead.iter().copied());
                for id in g.iter_ids() {
                    assert_eq!(
                        f.resolve_owner(g, id),
                        reference_walk(&dead, g, id),
                        "{p}x{s} seed {seed}: owner of {id}"
                    );
                }
            }
        }
    }

    /// Known deviation, open for a correctness PR (DESIGN.md §7): after
    /// the first spill the walk probes one slot per plane.
    #[test]
    fn known_deviation_spill_skips_a_live_plane_when_its_spill_slot_is_dead() {
        let g = grid();
        let dead: BTreeSet<_> = plane(5, 18).chain([SatelliteId::new(6, 2)]).collect();
        let f = FailureModel::from_dead(dead.iter().copied());
        // 17 satellites of plane 6 are alive, yet the owner is in plane 7.
        assert_eq!(plane(6, 18).filter(|&id| f.is_alive(id)).count(), 17);
        assert_eq!(f.resolve_owner(&g, SatelliteId::new(5, 3)), Some(SatelliteId::new(7, 2)));
        assert_eq!(reference_walk(&dead, &g, SatelliteId::new(5, 3)), Some(SatelliteId::new(7, 2)));
    }

    /// Known deviation, same cause: with the probed ring dead the walk
    /// gives up although most of the grid is alive.
    #[test]
    fn known_deviation_dead_plane_and_dead_slot_ring_resolve_to_none() {
        let g = grid();
        let dead: BTreeSet<_> =
            plane(5, 18).chain((0..72).map(|o| SatelliteId::new(o, 2))).collect();
        let f = FailureModel::from_dead(dead.iter().copied());
        assert_eq!(g.total_slots() - f.dead_count(), 1207);
        assert_eq!(f.resolve_owner(&g, SatelliteId::new(5, 3)), None);
        assert_eq!(reference_walk(&dead, &g, SatelliteId::new(5, 3)), None);
    }

    #[test]
    fn everything_dead_returns_none() {
        let g = GridTopology { num_planes: 2, sats_per_plane: 2, seamless: true };
        let f = FailureModel::from_dead(g.iter_ids());
        assert_eq!(f.resolve_owner(&g, SatelliteId::new(0, 0)), None);
    }

    #[test]
    fn broken_isl_counts() {
        let g = grid();
        // One isolated dead satellite: 4 broken links.
        let f = FailureModel::from_dead([SatelliteId::new(10, 10)]);
        assert_eq!(f.broken_isl_count(&g), 4);
        // Two adjacent dead satellites: 4 + 4 - 1 shared = 7.
        let f = FailureModel::from_dead([SatelliteId::new(10, 10), SatelliteId::new(10, 11)]);
        assert_eq!(f.broken_isl_count(&g), 7);
        // Two far-apart dead satellites: 8.
        let f = FailureModel::from_dead([SatelliteId::new(10, 10), SatelliteId::new(40, 3)]);
        assert_eq!(f.broken_isl_count(&g), 8);
    }

    #[test]
    fn paper_scale_outage() {
        // The paper: 126/1296 out of slot → 438 broken ISLs. A uniform
        // random 126-satellite outage lands in the same regime (the exact
        // figure depends on which satellites failed; 126 isolated failures
        // would break ≤504, clustering reduces it).
        let g = grid();
        let f = FailureModel::sample(&g, 126, 7);
        assert_eq!(f.dead_count(), 126);
        let broken = f.broken_isl_count(&g);
        assert!((380..=504).contains(&broken), "broken ISLs = {broken}");
    }

    #[test]
    fn buckets_served_no_failures_is_one_each() {
        let g = grid();
        let t = BucketTiling::new(9).unwrap();
        let f = FailureModel::none();
        let served = f.buckets_served(&g, &t);
        assert_eq!(served.len(), 1296);
        for (id, buckets) in served {
            assert_eq!(buckets.len(), 1, "{id} serves {buckets:?}");
            assert!(buckets.contains(&t.bucket_of_sat(id)));
        }
    }

    #[test]
    fn buckets_served_accumulates_under_failures() {
        let g = grid();
        let t = BucketTiling::new(9).unwrap();
        let f = FailureModel::sample(&g, 126, 42);
        let served = f.buckets_served(&g, &t);
        assert_eq!(served.len(), 1296 - 126);
        let max_served = served.iter().map(|(_, b)| b.len()).max().unwrap();
        let total: usize = served.iter().map(|(_, b)| b.len()).sum();
        // Every original responsibility is covered by someone.
        assert!(total >= 1296 - 126, "coverage total {total}");
        // Fig. 11's x-axis extends to 4+ buckets under the paper's outage.
        assert!(max_served >= 2, "max buckets served {max_served}");
        assert!(max_served <= 9);
        // All satellites still serve their own bucket.
        for (id, buckets) in &served {
            assert!(buckets.contains(&t.bucket_of_sat(*id)));
        }
    }

    #[test]
    fn cut_links_tracked_independently_of_dead() {
        let a = SatelliteId::new(3, 3);
        let b = SatelliteId::new(3, 4);
        let mut f = FailureModel::none();
        assert!(f.is_link_alive(a, b));
        f.cut_link(b, a); // endpoint order is normalized
        assert!(!f.is_link_alive(a, b));
        assert!(!f.is_link_alive(b, a));
        assert_eq!(f.cut_link_count(), 1);
        assert!(f.has_faults());
        assert!(f.is_alive(a) && f.is_alive(b), "cut links leave endpoints alive");
        f.restore_link(a, b);
        assert!(f.is_link_alive(a, b));
        assert!(!f.has_faults());
    }

    #[test]
    fn dead_endpoint_implies_dead_link() {
        let a = SatelliteId::new(5, 5);
        let b = SatelliteId::new(5, 6);
        let mut f = FailureModel::none();
        f.kill(a);
        assert!(!f.is_link_alive(a, b));
        assert_eq!(f.cut_link_count(), 0, "implicit outage, not a tracked cut");
        f.revive(a);
        assert!(f.is_link_alive(a, b));
    }

    #[test]
    fn kill_and_revive_roundtrip() {
        let g = grid();
        let id = SatelliteId::new(7, 7);
        let mut f = FailureModel::none();
        f.kill(id);
        assert_eq!(f.dead_count(), 1);
        assert_ne!(f.resolve_owner(&g, id), Some(id));
        f.revive(id);
        assert_eq!(f, FailureModel::none());
        assert_eq!(f.resolve_owner(&g, id), Some(id));
    }

    #[test]
    fn from_outages_normalizes_links() {
        let a = SatelliteId::new(1, 1);
        let b = SatelliteId::new(1, 2);
        let f = FailureModel::from_outages([SatelliteId::new(0, 0)], [(b, a), (a, b)]);
        assert_eq!(f.dead_count(), 1);
        assert_eq!(f.cut_link_count(), 1, "duplicate orientations collapse");
    }

    proptest! {
        #[test]
        fn prop_resolved_owner_always_alive(seed in 1u64..500, kill in 1usize..300) {
            let g = grid();
            let f = FailureModel::sample(&g, kill, seed);
            for id in [SatelliteId::new(0, 0), SatelliteId::new(35, 9), SatelliteId::new(71, 17)] {
                let owner = f.resolve_owner(&g, id).unwrap();
                prop_assert!(f.is_alive(owner));
            }
        }

        #[test]
        fn prop_sample_deterministic(seed in 1u64..100) {
            let g = grid();
            let a = FailureModel::sample(&g, 50, seed);
            let b = FailureModel::sample(&g, 50, seed);
            prop_assert_eq!(a, b);
        }
    }
}
