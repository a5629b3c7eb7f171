//! Zero-allocation invariants of the serve path: route resolution under
//! a faulted view, and plain serving of local hits and relay hits.
//!
//! With faults present every non-local request (and every overload retry
//! probe) resolves its route through `classify_route_toward_recorded`,
//! which searches on a per-thread scratch. After one warm-up pass (which
//! grows that scratch to the grid) a second pass over the same requests
//! — detours and partitions included — must not call the allocator at
//! all.
//!
//! A request that the owner or one of its relay neighbours can serve
//! from cache goes through `SpaceCdn::handle_request` the same way: once
//! the tables it touches have their size, a local hit and a relay hit
//! (the owner's miss, the candidate probe, the relayed copy's admission)
//! make no allocator call either.
//!
//! Same method as `crates/sim/tests/alloc_free.rs`: a counting global
//! allocator and one `#[test]` only, since the counter is process-global.

use starcdn::config::StarCdnConfig;
use starcdn::system::{
    classify_route_toward_recorded, preferred_owner, RouteOutcome, ServedFrom, SpaceCdn,
};
use starcdn_cache::object::ObjectId;
use starcdn_constellation::buckets::BucketTiling;
use starcdn_constellation::failures::FailureModel;
use starcdn_constellation::grid::GridTopology;
use starcdn_constellation::schedule::{ChurnParams, FaultSchedule, ScheduleCursor};
use starcdn_orbit::walker::SatelliteId;
use starcdn_telemetry::Noop;
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

#[derive(Debug, Default)]
struct Tally {
    routed: u64,
    detours: u64,
    partitioned: u64,
}

/// Local hits and relay hits through `handle_request`, `starcdn(9, …)`
/// with relay `Both`, counted after warm-up.
fn plain_serving_allocates_nothing() {
    const SIZE: u64 = 1_000;
    let mut cdn = SpaceCdn::new(StarCdnConfig::starcdn(9, 400 * SIZE));
    let grid = cdn.config().grid.clone();
    let span = cdn.config().relay_span_planes();
    let first_contacts: Vec<SatelliteId> =
        (0..24u16).map(|k| SatelliteId::new(k * 3, (k * 5) % 18)).collect();
    let owner_of = |cdn: &SpaceCdn, fc, object| cdn.resolve_route(fc, object).unwrap().owner;

    // Warm-up. Every owner first holds 300 filler objects, so its slab
    // and index reach a size the measured admissions stay well inside;
    // one oversized-but-cacheable object then evicts the fillers, leaving
    // free slab nodes and an index at a fraction of its capacity.
    let mut next_id = 0u64;
    let mut fresh = |cdn: &SpaceCdn, fc: SatelliteId, want: Option<SatelliteId>| loop {
        next_id += 1;
        let object = ObjectId(next_id.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        if want.is_none() || want == Some(owner_of(cdn, fc, object)) {
            return object;
        }
    };
    let mut relayed: Vec<(SatelliteId, ObjectId, ServedFrom)> = Vec::new();
    let mut local: Vec<(SatelliteId, ObjectId)> = Vec::new();
    for (k, &fc) in first_contacts.iter().enumerate() {
        let probe = fresh(&cdn, fc, None);
        let owner = owner_of(&cdn, fc, probe);
        for _ in 0..300 {
            let filler = fresh(&cdn, fc, Some(owner));
            cdn.handle_request(fc, filler, SIZE, 2.9);
        }
        let flush = fresh(&cdn, fc, Some(owner));
        cdn.handle_request(fc, flush, 380 * SIZE, 2.9);
        // Objects the owner holds: local hits.
        for _ in 0..4 {
            let object = fresh(&cdn, fc, Some(owner));
            cdn.handle_request(fc, object, SIZE, 2.9);
            local.push((fc, object));
        }
        // Objects only a same-bucket neighbour holds: seeded by a request
        // whose first contact is that neighbour (it owns the bucket too).
        for j in 0..4 {
            let west = (k + j) % 2 == 0;
            let neighbour =
                if west { grid.west_by(owner, span) } else { grid.east_by(owner, span) };
            let object = fresh(&cdn, fc, Some(owner));
            let seeded = cdn.handle_request(neighbour, object, SIZE, 2.9);
            assert_eq!((seeded.owner, seeded.served_from), (neighbour, ServedFrom::Ground));
            let tag = if west { ServedFrom::RelayWest } else { ServedFrom::RelayEast };
            relayed.push((fc, object, tag));
        }
    }
    // The relayed copies are admitted at the owner: local hits afterwards.
    local.extend(relayed.iter().map(|&(fc, object, _)| (fc, object)));
    cdn.metrics.latencies_ms.reserve(2 * local.len());

    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    let mut relay_hits = 0usize;
    for &(fc, object, tag) in &relayed {
        relay_hits += (cdn.handle_request(fc, object, SIZE, 2.9).served_from == tag) as usize;
    }
    let mut local_hits = 0usize;
    for &(fc, object) in &local {
        let out = cdn.handle_request(fc, object, SIZE, 2.9);
        local_hits += (out.served_from == ServedFrom::LocalHit) as usize;
    }
    let after = ALLOC_CALLS.load(Ordering::Relaxed);
    assert_eq!(relay_hits, relayed.len(), "every seeded object is served by its neighbour");
    assert_eq!(local_hits, local.len());
    assert_eq!(
        after - before,
        0,
        "local hits and relay hits must not allocate (saw {} allocator calls over {} requests)",
        after - before,
        relay_hits + local_hits
    );
}

#[test]
fn serve_path_allocates_nothing() {
    degraded_route_resolution_allocates_nothing();
    plain_serving_allocates_nothing();
}

fn degraded_route_resolution_allocates_nothing() {
    let grid = GridTopology::starlink();
    let tiling = BucketTiling::new(9).unwrap();

    // The view half-way through an hour of satellite churn and link
    // flaps: dead satellites and cut links both present.
    let churn = ChurnParams {
        sat_mtbf_secs: 2.0 * 3600.0,
        sat_mttr_secs: 900.0,
        link_mtbf_secs: Some(3.0 * 3600.0),
        link_mttr_secs: 900.0,
        horizon_secs: 3600,
        seed: 23,
    };
    let schedule = FaultSchedule::churn(&grid, &churn);
    let mut cursor = ScheduleCursor::new(&schedule, FailureModel::none());
    cursor.advance_to(1800);
    let view = cursor.view().clone();
    assert!(view.dead_count() > 20 && view.cut_link_count() > 20, "{view:?}");

    // Requests built outside the measured window: every slot as first
    // contact (dead ones included), a spread of objects.
    let requests: Vec<(SatelliteId, ObjectId)> = (0..12_000u64)
        .map(|k| {
            let fc = SatelliteId::new((k % 72) as u16, (k * 7 % 18) as u16);
            (fc, ObjectId(k.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 20))
        })
        .collect();

    // Each request resolves its bucket owner and, as the overload retry
    // path does, the next two same-bucket replicas east of it.
    let pass = || {
        let mut tally = Tally::default();
        for &(fc, object) in &requests {
            let preferred = preferred_owner(&grid, Some(&tiling), fc, object);
            for attempt in 0..3u16 {
                let target = grid.east_by(preferred, 3 * attempt);
                match classify_route_toward_recorded(&grid, &view, true, fc, target, &Noop) {
                    RouteOutcome::Routed(route) => {
                        tally.routed += 1;
                        tally.detours += (route.extra_hops > 0) as u64;
                    }
                    RouteOutcome::Partitioned { .. } => tally.partitioned += 1,
                    RouteOutcome::Unroutable => {}
                }
            }
        }
        tally
    };

    // Warm-up: the first search sizes this thread's scratch.
    let warm = pass();
    assert!(warm.routed > 10_000, "{warm:?}");

    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    let measured = pass();
    let after = ALLOC_CALLS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "degraded route resolution must not allocate (saw {} allocator calls)",
        after - before
    );
    // The measured pass did the work the claim is about.
    assert!(measured.detours > 500, "requests that needed a detour: {measured:?}");
    assert!(measured.partitioned > 0, "dead first contacts are partitioned: {measured:?}");
}
