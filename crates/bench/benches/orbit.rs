//! Microbenchmarks of the orbital substrate: propagation, snapshots,
//! and the per-epoch visibility scan that dominates scheduling cost.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use starcdn_orbit::coords::Geodetic;
use starcdn_orbit::propagator::SnapshotPropagator;
use starcdn_orbit::time::SimTime;
use starcdn_orbit::visibility::{visible_satellites, VisibilityWindow};
use starcdn_orbit::walker::WalkerConstellation;
use starcdn_sim::scheduler::{EpochScheduler, SchedulerConfig};
use starcdn_sim::World;
use starcdn_telemetry::Noop;

fn bench_orbit(c: &mut Criterion) {
    let shell = WalkerConstellation::starlink_shell1();
    let sats = shell.satellites();

    c.bench_function("propagate_one_satellite", |b| {
        let mut t = 0u64;
        b.iter(|| {
            t += 15;
            black_box(sats[100].orbit.position_eci(SimTime::from_secs(t)))
        })
    });

    c.bench_function("snapshot_advance_1296", |b| {
        let mut snap = SnapshotPropagator::new(sats.clone(), shell.sats_per_plane);
        let mut t = 0u64;
        b.iter(|| {
            t += 15;
            snap.advance_to(SimTime::from_secs(t));
            black_box(snap.positions_soa().len())
        })
    });

    // The same advance for the candidate union of the nine cities only
    // (what an epoch inside a visibility window propagates).
    c.bench_function("snapshot_advance_subset", |b| {
        let world = World::starlink_nine_cities();
        let mut snap = world.snapshot();
        let grounds: Vec<Geodetic> = world
            .locations
            .iter()
            .map(|l| Geodetic::from_degrees(l.lat_deg, l.lon_deg, 0.0))
            .collect();
        let mut window = VisibilityWindow::default();
        window.refresh(&snap, snap.epoch(), 25.0, &grounds);
        let mut t = 0u64;
        b.iter(|| {
            t += 15;
            snap.advance_subset(SimTime::from_secs(t), window.union());
            black_box(snap.epoch())
        })
    });

    // One scheduler epoch for the nine cities, propagation included (a
    // rescan every ninth epoch, candidate lists in between).
    c.bench_function("schedule_epoch_windowed", |b| {
        let world = World::starlink_nine_cities();
        let cfg = SchedulerConfig::default();
        let mut scheduler = EpochScheduler::new(&world);
        let mut epoch = 0u64;
        b.iter(|| {
            epoch += 1;
            scheduler.step(&world, epoch, 15, &cfg, &world.failures, &Noop);
            black_box(scheduler.schedule().assignments.len())
        })
    });

    let nyc = Geodetic::from_degrees(40.7128, -74.0060, 0.0);
    c.bench_function("visibility_scan_direct_1296", |b| {
        let mut t = 0u64;
        b.iter(|| {
            t += 15;
            black_box(visible_satellites(&sats, nyc, SimTime::from_secs(t), 25.0).len())
        })
    });
}

criterion_group!(benches, bench_orbit);
criterion_main!(benches);
