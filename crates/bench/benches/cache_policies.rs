//! Microbenchmarks of the cache substrate: per-access cost of each
//! eviction policy on a Zipf-like workload, and the eviction-heavy path.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use starcdn_cache::lru::LruCache;
use starcdn_cache::object::ObjectId;
use starcdn_cache::policy::{Cache, PolicyKind};
use starcdn_constellation::buckets::BucketTiling;
use starcdn_constellation::grid::GridTopology;
use starcdn_orbit::walker::SatelliteId;

/// Deterministic pseudo-Zipf id stream (mix of hot head + cold tail).
fn workload(n: usize) -> Vec<(ObjectId, u64)> {
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    (0..n)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let id = if x % 100 < 70 { x % 64 } else { x % 100_000 };
            (ObjectId(id), 1000 + (x % 3) * 500)
        })
        .collect()
}

fn bench_policies(c: &mut Criterion) {
    let ops = workload(100_000);
    let mut g = c.benchmark_group("cache_access");
    for policy in PolicyKind::ALL {
        g.bench_with_input(BenchmarkId::new("mixed", policy.name()), &ops, |b, ops| {
            b.iter(|| {
                let mut cache = policy.build(1_000_000);
                for &(id, size) in ops {
                    black_box(cache.access(id, size));
                }
                cache.len()
            })
        });
    }
    g.finish();

    let mut g = c.benchmark_group("cache_eviction_heavy");
    for policy in PolicyKind::ALL {
        g.bench_with_input(BenchmarkId::new("stream", policy.name()), &(), |b, _| {
            // Every access is a distinct object: pure admit+evict churn.
            b.iter(|| {
                let mut cache = policy.build(50_000);
                for i in 0..20_000u64 {
                    black_box(cache.access(ObjectId(i), 1000));
                }
                cache.used_bytes()
            })
        });
    }
    g.finish();
}

fn bench_probe(c: &mut Criterion) {
    // The relay path's read-only probe.
    let mut cache = PolicyKind::Lru.build(10_000_000);
    for i in 0..10_000u64 {
        cache.insert(ObjectId(i), 1000);
    }
    c.bench_function("cache_contains_probe", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 7919) % 20_000;
            black_box(cache.contains(ObjectId(i)))
        })
    });
}

/// LRU access the way the engine issues it: every request goes to the
/// cache of its bucket owner, so consecutive accesses land in different
/// caches of the 1296 and the index lookups miss the CPU cache — beside
/// the same stream through one hot cache (what the repository
/// benchmark's `cache.lru_access_per_s` layer times).
fn bench_lru_fleet(c: &mut Criterion) {
    let grid = GridTopology::starlink();
    let tiling = BucketTiling::for_grid(9, &grid).unwrap();
    let ops: Vec<(usize, ObjectId, u64)> = workload(200_000)
        .into_iter()
        .enumerate()
        .map(|(k, (id, size))| {
            let k = k as u64;
            let first_contact = SatelliteId::new((k * 31 % 72) as u16, (k * 7 % 18) as u16);
            let bucket = tiling.bucket_of_object(id.hash64());
            let owner = tiling.nearest_owner(&grid, first_contact, bucket);
            (owner.index(grid.sats_per_plane), id, size)
        })
        .collect();
    let mut g = c.benchmark_group("lru_access");
    g.bench_function("one_hot_cache", |b| {
        let mut cache = LruCache::new(1_000_000);
        b.iter(|| {
            for &(_, id, size) in &ops {
                black_box(cache.access(id, size));
            }
            cache.len()
        })
    });
    g.bench_function("fleet_1296_owner_order", |b| {
        let mut fleet: Vec<LruCache> =
            (0..grid.total_slots()).map(|_| LruCache::new(1_000_000)).collect();
        b.iter(|| {
            for &(owner, id, size) in &ops {
                black_box(fleet[owner].access(id, size));
            }
            fleet.len()
        })
    });
    g.finish();
}

criterion_group!(benches, bench_policies, bench_probe, bench_lru_fleet);
criterion_main!(benches);
