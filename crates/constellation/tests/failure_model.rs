//! Model test of [`FailureModel`]: a plain pair of `BTreeSet`s is the
//! reference, and both are driven through the same seeded `kill` /
//! `revive` / `cut_link` / `restore_link` / `clone` sequences. Every
//! observable answer — liveness, link state, iteration order, counts,
//! `==` and `Debug` — must match the reference, whatever the model
//! stores underneath.
//!
//! The seed loops are explicit: the vendored `proptest` replays one input
//! per property, so a `proptest!` block here would be a single case.

use starcdn_constellation::buckets::{BucketId, BucketTiling};
use starcdn_constellation::failures::{link_id, FailureModel, LinkId};
use starcdn_constellation::grid::{Direction, GridTopology};
use starcdn_orbit::walker::SatelliteId;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeSet;

const SEEDS: u64 = 200;
const STEPS: usize = 256;

thread_local! {
    // Per thread, so the tests of this binary can run side by side.
    static ALLOC_CALLS: Cell<u64> = const { Cell::new(0) };
    static ALLOC_BYTES: Cell<u64> = const { Cell::new(0) };
}

struct CountingAllocator;

fn count(bytes: usize) {
    // `try_with`: the allocator also runs while a thread's locals are torn down.
    let _ = ALLOC_CALLS.try_with(|c| c.set(c.get() + 1));
    let _ = ALLOC_BYTES.try_with(|c| c.set(c.get() + bytes as u64));
}

// SAFETY: delegates every operation to the system allocator unchanged;
// the counters are plain thread-local cells with no destructor and no
// effect on allocation behavior.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// (allocator calls, bytes requested) on this thread while `f` runs.
fn allocations_during<R>(f: impl FnOnce() -> R) -> (R, u64, u64) {
    let calls = ALLOC_CALLS.with(Cell::get);
    let bytes = ALLOC_BYTES.with(Cell::get);
    let out = f();
    (out, ALLOC_CALLS.with(Cell::get) - calls, ALLOC_BYTES.with(Cell::get) - bytes)
}

/// splitmix64 — the test's own stream, independent of the crate's.
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
}

/// The reference: ordered sets, every answer computed the obvious way.
#[derive(Clone, Default)]
struct Reference {
    dead: BTreeSet<SatelliteId>,
    cut: BTreeSet<LinkId>,
}

impl Reference {
    fn is_alive(&self, id: SatelliteId) -> bool {
        !self.dead.contains(&id)
    }

    fn is_link_cut(&self, a: SatelliteId, b: SatelliteId) -> bool {
        self.cut.contains(&link_id(a, b))
    }

    fn is_link_alive(&self, a: SatelliteId, b: SatelliteId) -> bool {
        self.is_alive(a) && self.is_alive(b) && !self.is_link_cut(a, b)
    }

    fn broken_isl_count(&self, grid: &GridTopology) -> usize {
        let mut broken = 0;
        for &d in &self.dead {
            for (_, n) in grid.neighbors(d) {
                if !self.dead.contains(&n) || d < n {
                    broken += 1;
                }
            }
        }
        broken
    }

    /// The remap walk of `FailureModel::resolve_owner`, on the ordered set.
    fn resolve_owner(&self, grid: &GridTopology, preferred: SatelliteId) -> Option<SatelliteId> {
        if self.is_alive(preferred) {
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
            if self.is_alive(cur) {
                return Some(cur);
            }
        }
        None
    }

    fn buckets_served(
        &self,
        grid: &GridTopology,
        tiling: &BucketTiling,
    ) -> Vec<(SatelliteId, BTreeSet<BucketId>)> {
        let spp = grid.sats_per_plane;
        let mut served = vec![BTreeSet::new(); grid.total_slots()];
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

    /// What `{:?}` of a `FailureModel` with these members reads.
    fn debug(&self) -> String {
        format!("FailureModel {{ dead: {:?}, cut: {:?} }}", self.dead, self.cut)
    }
}

/// Where a regime's ids come from.
enum Ids {
    /// Uniform over the grid.
    Grid(GridTopology),
    /// Word and row boundaries on no grid: any slot of `u16`, planes up
    /// to `max_orbit`. (Every clone, comparison and walk of a model is
    /// linear in its highest dead plane, so the sequences that reach
    /// plane 65535 are fewer.)
    OffGrid { max_orbit: u16 },
}

const EDGES: [u16; 12] = [0, 1, 17, 63, 64, 65, 127, 128, 1023, 4096, 65534, 65535];

impl Ids {
    fn pick(&self, rng: &mut Rng) -> SatelliteId {
        match self {
            Ids::Grid(g) => SatelliteId::new(
                rng.below(g.num_planes as usize) as u16,
                rng.below(g.sats_per_plane as usize) as u16,
            ),
            &Ids::OffGrid { max_orbit } => {
                let coord = |rng: &mut Rng, max: u16| match rng.below(4) {
                    0 => rng.below(max as usize + 1) as u16,
                    _ => EDGES[rng.below(EDGES.len())].min(max),
                };
                SatelliteId::new(coord(rng, max_orbit), coord(rng, u16::MAX))
            }
        }
    }

    /// Every id worth a full sweep: the whole grid, or the edge lattice.
    fn sweep(&self) -> Vec<SatelliteId> {
        match self {
            Ids::Grid(g) => g.iter_ids().collect(),
            &Ids::OffGrid { max_orbit } => EDGES
                .iter()
                .flat_map(|&o| EDGES.iter().map(move |&s| SatelliteId::new(o.min(max_orbit), s)))
                .collect(),
        }
    }

    fn grid(&self) -> Option<&GridTopology> {
        match self {
            Ids::Grid(g) => Some(g),
            Ids::OffGrid { .. } => None,
        }
    }
}

fn grid_ids(num_planes: u16, sats_per_plane: u16) -> Ids {
    Ids::Grid(GridTopology { num_planes, sats_per_plane, seamless: true })
}

/// One member of `set`, chosen by `rng` (so revives and restores mostly
/// hit something), or `None` when it is empty.
fn member<T: Copy + Ord>(set: &BTreeSet<T>, rng: &mut Rng) -> Option<T> {
    (!set.is_empty()).then(|| *set.iter().nth(rng.below(set.len())).unwrap())
}

/// The cheap per-step comparison: counts plus point probes. `probes`
/// starts with the step's own pair, so that pair is always tried.
fn check_probes(r: &Reference, m: &FailureModel, probes: &[SatelliteId], ctx: &str) {
    assert_eq!(m.dead_count(), r.dead.len(), "{ctx}: dead_count");
    assert_eq!(m.cut_link_count(), r.cut.len(), "{ctx}: cut_link_count");
    assert_eq!(m.has_faults(), !r.dead.is_empty() || !r.cut.is_empty(), "{ctx}: has_faults");
    for (i, &a) in probes.iter().enumerate() {
        assert_eq!(m.is_alive(a), r.is_alive(a), "{ctx}: is_alive({a})");
        // Each probe against itself and the next two, in both orders.
        for &b in probes.iter().cycle().skip(i).take(3) {
            for (x, y) in [(a, b), (b, a)] {
                assert_eq!(
                    m.is_link_alive(x, y),
                    r.is_link_alive(x, y),
                    "{ctx}: is_link_alive({x}, {y})"
                );
                assert_eq!(
                    m.is_link_cut(x, y),
                    r.is_link_cut(x, y),
                    "{ctx}: is_link_cut({x}, {y})"
                );
            }
        }
    }
}

/// The comparison by members: counts, iteration order, `Debug`, and
/// equality against models with the same members and another growth
/// history.
fn check_members(r: &Reference, m: &FailureModel, ctx: &str) {
    check_probes(r, m, &[], ctx);
    assert_eq!(
        m.dead().collect::<Vec<_>>(),
        r.dead.iter().copied().collect::<Vec<_>>(),
        "{ctx}: dead() order"
    );
    assert_eq!(
        m.cut_links().collect::<Vec<_>>(),
        r.cut.iter().copied().collect::<Vec<_>>(),
        "{ctx}: cut_links() order"
    );
    assert_eq!(format!("{m:?}"), r.debug(), "{ctx}: Debug");

    // Same members, three other histories: built in order, built in
    // reverse, and built after a far-off id came and went.
    let sorted = FailureModel::from_outages(r.dead.iter().copied(), r.cut.iter().copied());
    let mut reversed = FailureModel::none();
    for &d in r.dead.iter().rev() {
        reversed.kill(d);
    }
    let mut shrunk = FailureModel::none();
    shrunk.kill(SatelliteId::new(1023, 4096));
    shrunk.revive(SatelliteId::new(1023, 4096));
    for &d in &r.dead {
        shrunk.kill(d);
    }
    for &(a, b) in &r.cut {
        reversed.cut_link(b, a);
        shrunk.cut_link(a, b);
    }
    for other in [&sorted, &reversed, &shrunk] {
        assert_eq!(m, other, "{ctx}: equal members, unequal models");
        assert_eq!(format!("{other:?}"), r.debug(), "{ctx}: Debug of a rebuilt model");
    }
}

/// The full comparison: [`check_members`], every id of the sweep, and —
/// on a grid — the whole-grid derivations.
fn check_full(r: &Reference, m: &FailureModel, ids: &Ids, sweep: &[SatelliteId], ctx: &str) {
    check_members(r, m, ctx);
    for &id in sweep {
        assert_eq!(m.is_alive(id), r.is_alive(id), "{ctx}: is_alive({id})");
    }
    if let Some(grid) = ids.grid() {
        assert_eq!(m.broken_isl_count(grid), r.broken_isl_count(grid), "{ctx}: broken_isl_count");
        for id in sweep {
            assert_eq!(
                m.resolve_owner(grid, *id),
                r.resolve_owner(grid, *id),
                "{ctx}: resolve_owner({id})"
            );
        }
    }
}

fn run_sequence(name: &str, ids: &Ids, seed: u64) {
    let mut rng = Rng(seed.wrapping_mul(0xA24B_AED4_963E_E407) ^ name.len() as u64);
    let sweep = ids.sweep();
    let mut r = Reference::default();
    let mut m = FailureModel::none();
    // A clone taken mid-sequence must not follow its source afterwards.
    let mut snapshot: Option<(Reference, FailureModel)> = None;

    for step in 0..STEPS {
        let ctx = format!("{name} seed {seed} step {step}");
        let a = ids.pick(&mut rng);
        let b = match ids.grid() {
            // Mostly real ISLs, sometimes an arbitrary pair.
            Some(g) if rng.below(4) > 0 => g.neighbor(a, Direction::ALL[rng.below(4)]).unwrap(),
            _ => ids.pick(&mut rng),
        };
        let mut touched = vec![a, b];
        match rng.below(16) {
            0..=5 => {
                r.dead.insert(a);
                m.kill(a);
            }
            6..=8 => {
                let id = member(&r.dead, &mut rng).unwrap_or(a);
                r.dead.remove(&id);
                m.revive(id);
                touched.push(id);
            }
            // A revive of something alive, a kill of something dead.
            9 => {
                r.dead.remove(&a);
                m.revive(a);
                if let Some(id) = member(&r.dead, &mut rng) {
                    m.kill(id);
                }
            }
            10..=11 => {
                r.cut.insert(link_id(a, b));
                m.cut_link(b, a);
            }
            12 => {
                let (x, y) = member(&r.cut, &mut rng).unwrap_or((a, b));
                r.cut.remove(&link_id(x, y));
                m.restore_link(y, x);
                touched.extend([x, y]);
            }
            13 => {
                m = m.clone();
            }
            14 => {
                if let Some((sr, sm)) = snapshot.take() {
                    check_members(&sr, &sm, &format!("{ctx} (snapshot)"));
                }
                snapshot = Some((r.clone(), m.clone()));
            }
            _ => {
                // Membership differs by exactly `a`: the models must too.
                let mut other = m.clone();
                if r.is_alive(a) {
                    other.kill(a);
                } else {
                    other.revive(a);
                }
                assert_ne!(m, other, "{ctx}: models differing in {a} compare equal");
            }
        }
        touched.extend((0..4).map(|_| ids.pick(&mut rng)));
        check_probes(&r, &m, &touched, &ctx);
        if step % 64 == 63 {
            check_full(&r, &m, ids, &sweep, &ctx);
        }
    }

    let ctx = format!("{name} seed {seed} end");
    check_full(&r, &m, ids, &sweep, &ctx);
    if let Some((sr, sm)) = snapshot {
        check_members(&sr, &sm, &format!("{ctx} (snapshot)"));
    }

    // Everything comes back: the model is `none()` again, by `==` and by `Debug`.
    for &d in &r.dead {
        m.revive(d);
    }
    for &(x, y) in &r.cut {
        m.restore_link(x, y);
    }
    assert_eq!(m, FailureModel::none(), "{ctx}: kill -> revive is not none()");
    assert_eq!(format!("{m:?}"), Reference::default().debug(), "{ctx}");
    assert!(!m.has_faults() && m.dead().next().is_none(), "{ctx}");
}

fn run_regime(name: &str, ids: Ids, seeds: u64) {
    for seed in 0..seeds {
        run_sequence(name, &ids, seed);
    }
}

// One test per regime, so the harness runs them side by side.

#[test]
fn model_matches_reference_on_72x18() {
    run_regime("72x18", grid_ids(72, 18), SEEDS);
}

/// 110 slots per plane: a row is two words.
#[test]
fn model_matches_reference_on_48x110() {
    run_regime("48x110", grid_ids(48, 110), SEEDS);
}

#[test]
fn model_matches_reference_on_2x2() {
    run_regime("2x2", grid_ids(2, 2), SEEDS);
}

#[test]
fn model_matches_reference_off_grid() {
    run_regime("off-grid", Ids::OffGrid { max_orbit: 255 }, SEEDS);
}

#[test]
fn model_matches_reference_up_to_the_far_corner() {
    run_regime("far corner", Ids::OffGrid { max_orbit: u16::MAX }, 4);
}

#[test]
fn buckets_served_matches_reference_under_sampled_outages() {
    let tiling = BucketTiling::new(9).unwrap();
    let starlink = GridTopology::starlink();
    let wide = GridTopology { num_planes: 48, sats_per_plane: 110, seamless: true };
    for seed in 1..=12 {
        for (grid, kill) in [(&starlink, 126), (&wide, 500)] {
            let m = FailureModel::sample(grid, kill, seed);
            let r = Reference { dead: m.dead().collect(), cut: BTreeSet::new() };
            assert_eq!(r.dead.len(), kill);
            assert_eq!(
                m.buckets_served(grid, &tiling),
                r.buckets_served(grid, &tiling),
                "seed {seed}"
            );
            assert_eq!(m.broken_isl_count(grid), r.broken_isl_count(grid), "seed {seed}");
        }
    }
}

#[test]
fn liveness_probes_do_not_allocate() {
    let grid = GridTopology::starlink();
    let mut m = FailureModel::sample(&grid, 126, 42);
    m.kill(SatelliteId::new(300, 4000));
    let probes: Vec<SatelliteId> =
        grid.iter_ids().chain(Ids::OffGrid { max_orbit: u16::MAX }.sweep()).collect();
    let (dead_seen, calls, _) = allocations_during(|| {
        let mut dead_seen = 0;
        for &a in &probes {
            dead_seen += usize::from(!m.is_alive(a));
            dead_seen += usize::from(!m.is_link_alive(a, SatelliteId::new(a.slot, a.orbit)));
            dead_seen += usize::from(m.is_link_cut(a, SatelliteId::new(0, 0)));
        }
        dead_seen
    });
    assert!(dead_seen >= 126);
    assert_eq!(calls, 0, "is_alive / is_link_alive / is_link_cut called the allocator");
}

/// The bound the type's rustdoc states: one far-off kill costs one row
/// header per plane up to its orbit plus one word per 64 slots up to its
/// slot — about 1.6 MB at the far corner of `u16 × u16`, not the
/// 512 MB of an `orbit × slot` rectangle.
#[test]
fn far_off_grid_kill_stays_correct_and_small() {
    let far = SatelliteId::new(65535, 65535);
    let (m, _, bytes) = allocations_during(|| {
        let mut m = FailureModel::none();
        m.kill(far);
        m
    });
    assert!(bytes < 4 << 20, "one far-off kill requested {bytes} bytes");

    assert!(!m.is_alive(far));
    assert_eq!(m.dead_count(), 1);
    assert_eq!(m.dead().collect::<Vec<_>>(), vec![far]);
    for near in
        [SatelliteId::new(65535, 65534), SatelliteId::new(65534, 65535), SatelliteId::new(0, 0)]
    {
        assert!(m.is_alive(near), "{near}");
        assert!(!m.is_link_alive(far, near) && !m.is_link_cut(far, near));
    }
    assert_eq!(m, FailureModel::from_dead([far]));
    assert_eq!(
        format!("{m:?}"),
        Reference { dead: BTreeSet::from([far]), cut: BTreeSet::new() }.debug()
    );

    let mut back = m.clone();
    back.revive(far);
    assert_eq!(back, FailureModel::none());
    assert!(!m.is_alive(far), "the clone's revive reached its source");
}
