//! Zero-allocation invariant of the steady-state epoch loop.
//!
//! A counting global allocator wraps the system allocator; after a
//! warm-up of one epoch (which sizes every scratch buffer for this
//! world), running 40 epochs — the schedule's prologue (a
//! visibility-window refresh from orbital elements where the window runs
//! out), the candidate union's advance, each location scheduled into
//! reusable scratch on the first request that reads it, per-request
//! resolution appended to a pre-sized row log — must perform zero heap
//! allocations. The 40 measured epochs span five refreshes, and every
//! other epoch leaves five of the nine cities silent: the candidate lists
//! are sized once, not grown refresh by refresh, and a cell first read
//! late allocates no more than one read at the boundary. This pins the
//! contract of the builders' one per-entry loop, which every chunk of
//! `build_access_log_parallel` runs: after its first epoch a chunk
//! allocates nothing, pushing onto a vector sized on the calling thread
//! before the chunk starts. A second measured pass drives a
//! window alone across five refreshes, none of them a full advance.
//!
//! One `#[test]` only: the allocation counter is process-global, and a
//! concurrently running test would pollute the measured window.

use spacegen::trace::{LocationId, Request, Trace};
use starcdn_cache::object::ObjectId;
use starcdn_orbit::coords::Geodetic;
use starcdn_orbit::time::SimTime;
use starcdn_orbit::visibility::VisibilityWindow;
use starcdn_sim::scheduler::{epoch_of, EpochScheduler};
use starcdn_sim::{build_access_log_recorded, AccessLogEntry, SimConfig, World};
use starcdn_telemetry::{Counter, MemoryRecorder, Noop, Recorder};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

struct CountingAllocator;

// SAFETY: delegates every operation to the system allocator unchanged;
// the counter is a relaxed atomic with no effect on allocation behavior.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

#[test]
fn steady_state_epoch_loop_allocates_nothing() {
    let world = World::starlink_nine_cities();
    let cfg = SimConfig::default();
    let sched_cfg = cfg.scheduler();

    // 40 epochs of requests, pre-built outside the window: every city in
    // even epochs, cities 0–3 only in odd ones.
    let reqs: Vec<Request> = (0..3600u64)
        .map(|k| Request {
            time: SimTime::from_secs(k / 6),
            object: ObjectId(k % 97),
            size: 1000,
            location: LocationId((k % if k / 90 % 2 == 0 { 9 } else { 4 }) as u16),
        })
        .collect();
    let trace = Trace::new(reqs);

    let mut scheduler = EpochScheduler::new(&world);
    let mut rr = vec![0usize; world.num_locations()];
    let mut entries = Vec::with_capacity(trace.len());

    // The steady-state loop under test — identical shape to one parallel
    // worker's per-run body, appending as the sequential builder does.
    let run_epochs = |trace: &Trace,
                      entries: &mut Vec<AccessLogEntry>,
                      scheduler: &mut EpochScheduler,
                      rr: &mut [usize],
                      rec: &dyn Recorder| {
        rr.fill(0);
        let mut current_epoch = u64::MAX;
        for r in &trace.requests {
            let epoch = epoch_of(r.time, cfg.epoch_secs);
            if epoch != current_epoch {
                current_epoch = epoch;
                scheduler.begin(&world, epoch, cfg.epoch_secs, &sched_cfg, rec);
            }
            let loc = r.location.0 as usize;
            let user = rr[loc] % sched_cfg.users_per_location;
            rr[loc] += 1;
            let assignment = scheduler.assignment(loc, user, &world.failures, rec);
            entries.push(AccessLogEntry::resolved(r, assignment));
        }
    };

    // Warm-up: the first epoch only — one refresh, which sizes the
    // window's lists, the scratch and the schedule for this world. The
    // 39 epochs after it, and the four later refreshes, are first seen
    // inside the measured pass.
    let first_epoch = Trace::new(trace.requests[..90].to_vec());
    assert_eq!(epoch_of(first_epoch.requests[89].time, cfg.epoch_secs), 0);
    run_epochs(&first_epoch, &mut entries, &mut scheduler, &mut rr, &Noop);

    // Measured pass over all 40 epochs (a backward jump to epoch 0
    // first): zero allocator calls allowed.
    let mut fresh = Vec::with_capacity(trace.len());
    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    run_epochs(&trace, &mut fresh, &mut scheduler, &mut rr, &Noop);
    let after = ALLOC_CALLS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "steady-state epoch loop must not allocate (saw {} allocator calls)",
        after - before
    );

    // And the allocation-free pass produced the right answer — the
    // sequential builder's — across at least three refreshes.
    let counted = MemoryRecorder::new();
    let want = build_access_log_recorded(&world, &trace, cfg.epoch_secs, &sched_cfg, &counted);
    assert_eq!(fresh, want.entries);
    let refreshes = counted.snapshot().counter(Counter::VisibilityRefreshes);
    assert!(refreshes >= 3, "the measured epochs span only {refreshes} refreshes");

    // A window alone, advancing its own snapshot an hour at a time: every
    // advance refreshes from the elements and moves the new union, and
    // no full advance happens. Warm-up: one advance and one scan.
    let grounds: Vec<Geodetic> =
        world.locations.iter().map(|l| Geodetic::from_degrees(l.lat_deg, l.lon_deg, 0.0)).collect();
    let mask = sched_cfg.min_elevation_deg;
    let mut snapshot = world.snapshot();
    let mut window = VisibilityWindow::default();
    let mut visible = Vec::new();
    window.advance(&mut snapshot, SimTime::ZERO, mask, &grounds);
    window.top_k_into(0, &snapshot, sched_cfg.top_k, |_| true, &mut visible);
    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    let mut seen = 0;
    for hour in 1..=5u64 {
        let t = SimTime::from_secs(hour * 3600);
        assert!(!window.covers(&snapshot, t, mask, &grounds));
        window.advance(&mut snapshot, t, mask, &grounds);
        for j in 0..grounds.len() {
            window.top_k_into(j, &snapshot, sched_cfg.top_k, |_| true, &mut visible);
            seen += visible.len();
        }
    }
    let after = ALLOC_CALLS.load(Ordering::Relaxed);
    assert_eq!(after - before, 0, "refresh from elements allocated ({} calls)", after - before);
    assert!(!snapshot.is_complete(), "a refresh advanced the whole fleet");
    assert!(seen >= 5 * 9 * 3, "only {seen} satellites scanned");
}
