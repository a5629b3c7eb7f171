//! Microbenchmarks of grid routing and bucket resolution — the per-
//! request hot path of consistent hashing.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use starcdn::system::{classify_route_in_recorded, classify_route_toward_recorded};
use starcdn_cache::object::ObjectId;
use starcdn_constellation::buckets::{BucketId, BucketTiling};
use starcdn_constellation::capacity::CapacityLedger;
use starcdn_constellation::failures::FailureModel;
use starcdn_constellation::grid::GridTopology;
use starcdn_constellation::hashring::{mix64, HashRing};
use starcdn_constellation::isl::LinkModel;
use starcdn_constellation::routing::{shortest_path, shortest_path_avoiding};
use starcdn_constellation::schedule::{ChurnParams, FaultSchedule, ScheduleCursor};
use starcdn_orbit::walker::SatelliteId;
use starcdn_telemetry::Noop;

fn bench_routing(c: &mut Criterion) {
    let grid = GridTopology::starlink();
    let tiling = BucketTiling::new(9).unwrap();

    c.bench_function("nearest_owner", |b| {
        let mut k = 0u64;
        b.iter(|| {
            k += 1;
            let from = SatelliteId::new((k % 72) as u16, (k % 18) as u16);
            let bucket = BucketId((mix64(k) % 9) as u32);
            black_box(tiling.nearest_owner(&grid, from, bucket))
        })
    });

    c.bench_function("shortest_path_healthy", |b| {
        let mut k = 0u64;
        b.iter(|| {
            k += 1;
            let a = SatelliteId::new((k % 72) as u16, (k % 18) as u16);
            let bm = mix64(k);
            let z = SatelliteId::new((bm % 72) as u16, ((bm >> 8) % 18) as u16);
            black_box(shortest_path(&grid, a, z).len())
        })
    });

    // Far pairs only (24–36 planes and 6–9 slots apart): the search has
    // to cross the grid. What a request does is `classify_under_churn`.
    let failures = FailureModel::sample(&grid, 126, 1);
    c.bench_function("shortest_path_bfs_with_outage", |b| {
        let mut k = 0u64;
        b.iter(|| {
            k += 1;
            let a = SatelliteId::new((k % 72) as u16, (k % 18) as u16);
            let bm = mix64(k);
            let z = SatelliteId::new(
                (a.orbit + 24 + (bm % 25) as u16) % 72,
                (a.slot + 6 + ((bm >> 8) % 7) as u16) % 18,
            );
            black_box(
                shortest_path_avoiding(&grid, a, z, |id| failures.is_alive(id)).map(|p| p.len()),
            )
        })
    });

    // What a request does under faults: first contact to the owner of
    // its bucket, a hop or two away, under the view half-way through an
    // hour of churn.
    let churn = ChurnParams {
        sat_mtbf_secs: 2.0 * 3600.0,
        sat_mttr_secs: 900.0,
        link_mtbf_secs: Some(3.0 * 3600.0),
        link_mttr_secs: 900.0,
        horizon_secs: 3600,
        seed: 1,
    };
    let schedule = FaultSchedule::churn(&grid, &churn);
    let mut cursor = ScheduleCursor::new(&schedule, FailureModel::none());
    cursor.advance_to(1800);
    let midrun = cursor.view().clone();
    let env = starcdn::kernel::ServeEnv::new(&starcdn::StarCdnConfig::starcdn(9, 0));
    c.bench_function("classify_under_churn", |b| {
        let mut k = 0u64;
        b.iter(|| {
            k += 1;
            let fc = SatelliteId::new((k % 72) as u16, (k % 18) as u16);
            black_box(classify_route_in_recorded(&env, &midrun, fc, ObjectId(mix64(k)), &Noop))
        })
    });

    // The resolution neither staircase answers: every fourth plane has
    // the two satellites dead that each first step of (o,5) -> (o+1,6)
    // lands on, so all of these search, and find a six-hop way round.
    let mut walled = FailureModel::none();
    for o in (0..72).step_by(4) {
        walled.kill(SatelliteId::new(o + 1, 5));
        walled.kill(SatelliteId::new(o, 6));
    }
    c.bench_function("classify_staircase_blocked", |b| {
        let mut k = 0u16;
        b.iter(|| {
            k = (k + 4) % 72;
            black_box(classify_route_toward_recorded(
                &grid,
                &walled,
                true,
                SatelliteId::new(k, 5),
                SatelliteId::new(k + 1, 6),
                &Noop,
            ))
        })
    });

    // What `overload::decide` asks of the ledger: the bucket owner one
    // to three hops from the first contact and, on a retry, the replica
    // `span` planes east of it, against the backed-off epoch.
    let link = LinkModel::table1();
    let span = 3;
    c.bench_function("ledger_admit_near", |b| {
        let mut ledger = CapacityLedger::new(&grid, &link, 15, 1.0);
        let mut k = 0u64;
        b.iter(|| {
            k += 1;
            let fc = SatelliteId::new((k % 72) as u16, (k % 18) as u16);
            let owner = tiling.nearest_owner(&grid, fc, BucketId((mix64(k) % 9) as u32));
            let epoch = k >> 16;
            if k.is_multiple_of(3) {
                black_box(ledger.admit(epoch + 1, fc, grid.east_by(owner, span), 1000));
            }
            black_box(ledger.admit(epoch, fc, owner, 1000))
        })
    });

    // What the benchmark's `capacity.admits_per_s` probe asks: the next
    // request's first contact as owner, anywhere on the torus — walks
    // of 22 hops on average, an order longer than any request's.
    c.bench_function("ledger_admit_far", |b| {
        let mut ledger = CapacityLedger::new(&grid, &link, 15, 1.0);
        let mut k = 0u64;
        b.iter(|| {
            k += 1;
            let fc = SatelliteId::new((k % 72) as u16, (k % 18) as u16);
            let m = mix64(k);
            let owner = SatelliteId::new((m % 72) as u16, ((m >> 8) % 18) as u16);
            black_box(ledger.admit(k >> 16, fc, owner, 1000))
        })
    });

    // The two questions the fault-routing search asks of every node it
    // expands, over the 126-dead view.
    c.bench_function("failure_is_alive", |b| {
        let mut k = 0u64;
        b.iter(|| {
            k += 1;
            let id = SatelliteId::new((k % 72) as u16, (k % 18) as u16);
            black_box(failures.is_alive(id))
        })
    });

    c.bench_function("failure_is_link_alive", |b| {
        let mut k = 0u64;
        b.iter(|| {
            k += 1;
            let a = SatelliteId::new((k % 72) as u16, (k % 18) as u16);
            let z = SatelliteId::new(a.orbit, (a.slot + 1) % 18);
            black_box(failures.is_link_alive(a, z))
        })
    });

    c.bench_function("failure_resolve_owner", |b| {
        let mut k = 0u64;
        b.iter(|| {
            k += 1;
            let id = SatelliteId::new((k % 72) as u16, (k % 18) as u16);
            black_box(failures.resolve_owner(&grid, id))
        })
    });
}

fn bench_hashring(c: &mut Criterion) {
    let ring: HashRing<u32> = HashRing::new((0..1296u64).map(|i| (i, i as u32)), 64);
    c.bench_function("hashring_lookup_1296x64", |b| {
        let mut k = 0u64;
        b.iter(|| {
            k += 1;
            black_box(ring.node_for(k))
        })
    });
}

criterion_group!(benches, bench_routing, bench_hashring);
criterion_main!(benches);
