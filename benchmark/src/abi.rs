//! The benchmark ABI: every call from the benchmark into the program
//! goes through this file, and no other file of the benchmark names a
//! `starcdn*`/`spacegen` crate. A refactor that renames or removes one
//! of the functions called here must be preceded by a benchmark change
//! that touches this file only (benchmark/README.md lists the names).
//!
//! The wrappers add nothing: they fix the arguments the benchmark never
//! varies (15 s epochs, the video class, the nine cities, `Noop`
//! telemetry) and hand back the program's own types.

use std::time::Duration;

pub use spacegen::trace::Trace;
pub use starcdn::config::StarCdnConfig;
pub use starcdn::metrics::SystemMetrics;
pub use starcdn::system::SpaceCdn;
pub use starcdn_constellation::failures::FailureModel;
pub use starcdn_constellation::schedule::FaultSchedule;
pub use starcdn_net::{NetError, ServeStats};
pub use starcdn_sim::overload::OverloadConfig;
pub use starcdn_sim::{AccessLog, AccessLogColumns, ServePlan, World};
pub use starcdn_telemetry::{Histo, Recorder};

use spacegen::classes::TrafficClass;
use spacegen::production::ProductionModel;
use spacegen::trace::Location;
use starcdn::config::DelayedHitConfig;
use starcdn_cache::lru::LruCache;
use starcdn_cache::object::ObjectId;
use starcdn_cache::simulate;
use starcdn_cache::InflightQueue;
use starcdn_constellation::buckets::BucketTiling;
use starcdn_constellation::capacity::CapacityLedger;
use starcdn_constellation::grid::GridTopology;
use starcdn_constellation::routing;
use starcdn_constellation::schedule::{ChurnParams, ScheduleCursor};
use starcdn_net::{Frame, FrameCodec, MemNet, RealNet, ServeConfig};
use starcdn_orbit::coords::Geodetic;
use starcdn_orbit::propagator::SnapshotPropagator;
use starcdn_orbit::time::{SimDuration, SimTime};
use starcdn_orbit::visibility::{visible_top_k_into, VisScratch, VisibleSatellite};
use starcdn_orbit::walker::SatelliteId;
use starcdn_sim::engine::SimConfig;
use starcdn_sim::scheduler::{schedule_epoch_into, EpochSchedule, ScheduleScratch};
use starcdn_sim::ShardState;
use starcdn_telemetry::{MemoryRecorder, Noop};

/// Scheduler epoch, seconds (Starlink's reconfiguration interval).
pub const EPOCH_SECS: u64 = 15;

/// The socket plane's frame cap, bytes.
pub const MAX_FRAME_LEN: usize = starcdn_net::MAX_FRAME_LEN as usize;

/// Raw GSL bandwidth the overload headroom is calibrated against,
/// bytes per epoch at Table 1's 20 Gbps (as `ablation_overload` does).
const GSL_BYTES_PER_EPOCH: f64 = 37_500_000_000.0;

// ---------------------------------------------------------------- inputs

/// `World::starlink_nine_cities`.
pub fn world() -> World {
    World::starlink_nine_cities()
}

/// The nine-city world under a seeded satellite-churn schedule
/// (`ChurnParams::sats_only` → `FaultSchedule::churn` →
/// `World::with_fault_schedule`).
pub fn churn_world(mtbf_secs: f64, mttr_secs: f64, horizon_secs: u64, seed: u64) -> World {
    let base = World::starlink_nine_cities();
    let churn = ChurnParams::sats_only(mtbf_secs, mttr_secs, horizon_secs, seed);
    let schedule = FaultSchedule::churn(&base.grid, &churn);
    base.with_fault_schedule(schedule)
}

/// `ProductionModel::build` + `generate_trace` for the video class over
/// `Location::akamai_nine()`, catalog and request rate scaled
/// independently (the rate is *not* tied to the catalog factor). The
/// catalog is drawn from `catalog_seed`, the requests from `seed`.
pub fn generate_trace(
    catalog_factor: f64,
    rate_factor: f64,
    minutes: u64,
    catalog_seed: u64,
    seed: u64,
) -> Trace {
    let class = TrafficClass::Video;
    let mut params = class.params().scaled(catalog_factor);
    params.base_rate_per_loc_hz = class.params().base_rate_per_loc_hz * rate_factor;
    let model = ProductionModel::build(params, &Location::akamai_nine(), catalog_seed);
    model.generate_trace(SimDuration::from_mins(minutes), seed)
}

/// Total bytes of the distinct objects in a trace (`Trace::unique_objects`).
pub fn working_set_bytes(trace: &Trace) -> u64 {
    trace.unique_objects().1
}

/// Mean object size over the requests of a trace.
fn mean_request_bytes(trace: &Trace) -> f64 {
    trace.total_bytes() as f64 / trace.len().max(1) as f64
}

/// `OverloadConfig::with_headroom`, the headroom given in mean-size
/// objects per satellite per epoch.
pub fn overload_objects_per_epoch(trace: &Trace, objects: f64) -> OverloadConfig {
    OverloadConfig::with_headroom(mean_request_bytes(trace) / GSL_BYTES_PER_EPOCH * objects)
}

/// `StarCdnConfig::starcdn` (relay on) or `starcdn_no_relay`.
pub fn cdn_config(buckets: u32, cache_bytes: u64, relay: bool) -> StarCdnConfig {
    if relay {
        StarCdnConfig::starcdn(buckets, cache_bytes)
    } else {
        StarCdnConfig::starcdn_no_relay(buckets, cache_bytes)
    }
}

/// `StarCdnConfig::with_delayed_hits(DelayedHitConfig::with_latency(..).with_origin_tiers(..))`.
pub fn with_delayed_hits(
    cfg: StarCdnConfig,
    fetch_epochs: u64,
    wait_ms: f64,
    tiers: u64,
) -> StarCdnConfig {
    cfg.with_delayed_hits(
        DelayedHitConfig::with_latency(fetch_epochs, wait_ms).with_origin_tiers(tiers),
    )
}

// ------------------------------------------------------------- log build

fn sim_config(seed: u64) -> SimConfig {
    SimConfig { seed, ..SimConfig::default() }
}

/// `build_access_log_columns`.
pub fn build_log_columns(world: &World, trace: &Trace, seed: u64) -> AccessLogColumns {
    starcdn_sim::build_access_log_columns(world, trace, EPOCH_SECS, &sim_config(seed).scheduler())
}

/// `build_access_log_columns_parallel`.
pub fn build_log_columns_parallel(
    world: &World,
    trace: &Trace,
    seed: u64,
    workers: usize,
) -> AccessLogColumns {
    starcdn_sim::build_access_log_columns_parallel(
        world,
        trace,
        EPOCH_SECS,
        &sim_config(seed).scheduler(),
        workers,
    )
}

/// `AccessLogColumns::write_binary` into memory: the 39-byte record
/// format both log representations share.
pub fn codec_write(cols: &AccessLogColumns) -> Result<Vec<u8>, String> {
    let mut bytes = Vec::new();
    cols.write_binary(&mut bytes).map_err(|e| e.to_string())?;
    Ok(bytes)
}

/// `AccessLog::read_binary`: the same bytes decoded as rows.
pub fn codec_read(bytes: &[u8]) -> Result<AccessLog, String> {
    AccessLog::read_binary(bytes).map_err(|e| e.to_string())
}

// ---------------------------------------------------------------- engine

/// `SpaceCdn::new`: modelled caches start empty.
pub fn new_cdn(cfg: &StarCdnConfig) -> SpaceCdn {
    SpaceCdn::new(cfg.clone())
}

/// The row engine: `run_space`, or `run_space_overloaded` when the
/// workload carries a fault schedule and an overload configuration.
pub fn engine_rows(
    cdn: &mut SpaceCdn,
    log: &AccessLog,
    world: &World,
    degraded: Option<&OverloadConfig>,
) -> SystemMetrics {
    match degraded {
        None => starcdn_sim::run_space(cdn, log),
        Some(o) => starcdn_sim::run_space_overloaded(cdn, log, &world.schedule, o),
    }
}

/// The columnar engine: `run_space_columns` or
/// `run_space_overloaded_columns`; with `recorded`, their `_recorded`
/// twins into a fresh `MemoryRecorder`.
pub fn engine_columns(
    cdn: &mut SpaceCdn,
    cols: &AccessLogColumns,
    world: &World,
    degraded: Option<&OverloadConfig>,
    recorded: bool,
) -> SystemMetrics {
    let schedule = &world.schedule;
    match (degraded, recorded) {
        (None, false) => starcdn_sim::run_space_columns(cdn, cols),
        (None, true) => starcdn_sim::run_space_columns_recorded(cdn, cols, &MemoryRecorder::new()),
        (Some(o), false) => starcdn_sim::run_space_overloaded_columns(cdn, cols, schedule, o),
        (Some(o), true) => starcdn_sim::run_space_overloaded_columns_recorded(
            cdn,
            cols,
            schedule,
            o,
            &MemoryRecorder::new(),
        ),
    }
}

/// `metrics_digest`: FNV over the checkpoint encoding of the metrics.
pub fn metrics_digest(m: &SystemMetrics) -> u64 {
    starcdn_sim::metrics_digest(m)
}

/// Requests that found no visible satellite: the engine books them on a
/// sentinel satellite id (`tests/overload.rs` reads them the same way).
pub fn unreachable_requests(m: &SystemMetrics) -> u64 {
    let sentinel = SatelliteId::new(u16::MAX, u16::MAX);
    m.per_satellite.get(&sentinel).map_or(0, |s| s.requests)
}

// -------------------------------------------------------------- replayer

/// `replay_parallel`, or `replay_parallel_overloaded` when the workload
/// carries a fault schedule and an overload configuration.
pub fn replay(
    cfg: &StarCdnConfig,
    world: &World,
    log: &AccessLog,
    degraded: Option<&OverloadConfig>,
    workers: usize,
) -> SystemMetrics {
    match degraded {
        None => starcdn_sim::replay_parallel(cfg.clone(), world.failures.clone(), log, workers),
        Some(overload) => starcdn_sim::replay_parallel_overloaded(
            cfg.clone(),
            world.failures.clone(),
            log,
            &world.schedule,
            workers,
            overload,
        ),
    }
}

// ---------------------------------------------------------- socket plane

/// Which `Net` the router and the shard servers speak over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// `RealNet`: TCP over the host's loopback interface (not a link).
    LoopbackTcp,
    /// `MemNet`: in-process pipes.
    Memory,
}

/// `ServePlan::build` with a `Noop` recorder.
pub fn build_plan(
    cfg: &StarCdnConfig,
    world: &World,
    log: &AccessLog,
    degraded: Option<&OverloadConfig>,
    shards: usize,
    batch_ops: usize,
) -> Result<ServePlan, String> {
    let schedule = degraded.map(|_| &world.schedule);
    ServePlan::build(cfg, &world.failures, log, schedule, degraded, shards, batch_ops, &Noop)
        .map_err(|e| e.to_string())
}

/// Largest request count any one shard of the plan holds
/// (`ServePlan::request_count`).
pub fn max_requests_per_shard(plan: &ServePlan) -> u64 {
    (0..plan.num_shards()).map(|k| plan.request_count(k)).max().unwrap_or(0)
}

/// Encoded batch bytes of the whole plan (`ServePlan::batch_bytes`).
pub fn plan_bytes(plan: &ServePlan) -> u64 {
    (0..plan.num_shards())
        .flat_map(|k| (0..plan.batch_count(k)).map(move |b| plan.batch_bytes(k, b).len() as u64))
        .sum()
}

/// `serve_replay` with `ServeConfig::default()` (window 8, one
/// connection per shard, router on the calling thread).
pub fn serve(
    plan: &ServePlan,
    transport: Transport,
    rec: &dyn Recorder,
) -> Result<(SystemMetrics, ServeStats), NetError> {
    let scfg = ServeConfig::default();
    let report = match transport {
        Transport::LoopbackTcp => starcdn_net::serve_replay(&RealNet, plan, &scfg, rec),
        Transport::Memory => starcdn_net::serve_replay(&MemNet::new(), plan, &scfg, rec),
    }?;
    Ok((report.metrics, report.stats))
}

/// The `Noop` recorder, for callers that trace nothing.
pub fn noop() -> &'static dyn Recorder {
    &Noop
}

/// `ServeConfig::default().overall_deadline`: how long a serve spins
/// before `Timeout("serve overall deadline")`.
pub fn serve_overall_deadline() -> Duration {
    ServeConfig::default().overall_deadline
}

// ---------------------------------------------------------- layer probes
//
// Each probe calls one layer's public function in a loop over inputs
// taken from the workload and returns how many items it processed (and
// a checksum the caller black-boxes). Timing is the caller's job.

/// Ground points of the world's locations.
fn grounds(world: &World) -> Vec<Geodetic> {
    world.locations.iter().map(|l| Geodetic::from_degrees(l.lat_deg, l.lon_deg, 0.0)).collect()
}

/// State for the orbit and scheduler probes: a snapshot plus scratch.
pub struct OrbitProbe<'a> {
    world: &'a World,
    grounds: Vec<Geodetic>,
    snap: SnapshotPropagator,
    sim: SimConfig,
    vis: VisScratch,
    visible: Vec<VisibleSatellite>,
    scratch: ScheduleScratch,
    schedule: EpochSchedule,
    epoch: u64,
}

impl<'a> OrbitProbe<'a> {
    pub fn new(world: &'a World, seed: u64) -> Self {
        OrbitProbe {
            world,
            grounds: grounds(world),
            snap: world.snapshot(),
            sim: sim_config(seed),
            vis: VisScratch::default(),
            visible: Vec::new(),
            scratch: ScheduleScratch::default(),
            schedule: EpochSchedule { epoch_index: 0, assignments: Vec::new() },
            epoch: 0,
        }
    }

    /// `SnapshotPropagator::advance_to` the next epoch; returns the
    /// satellites propagated.
    pub fn propagate(&mut self) -> u64 {
        self.epoch += 1;
        self.snap.advance_to(SimTime::from_secs(self.epoch * EPOCH_SECS));
        self.world.satellites.len() as u64
    }

    /// `visible_top_k_into` over `positions_soa` for every location;
    /// returns (satellite checks, satellites selected).
    pub fn visibility(&mut self) -> (u64, u64) {
        let mut selected = 0;
        for g in &self.grounds {
            visible_top_k_into(
                &self.world.satellites,
                self.snap.positions_soa(),
                *g,
                self.sim.min_elevation_deg,
                self.sim.top_k,
                |_| true,
                &mut self.vis,
                &mut self.visible,
            );
            selected += self.visible.len() as u64;
        }
        ((self.grounds.len() * self.world.satellites.len()) as u64, selected)
    }

    /// `schedule_epoch_into` at the current snapshot; returns 1 epoch.
    pub fn schedule(&mut self) -> u64 {
        schedule_epoch_into(
            self.world,
            &self.snap,
            self.epoch,
            &self.sim.scheduler(),
            &self.world.failures,
            &Noop,
            &mut self.scratch,
            &mut self.schedule,
        );
        1
    }
}

/// `(object, size)` and first-contact columns a probe replays.
pub struct RequestSample {
    pub objects: Vec<(ObjectId, u64)>,
    pub epochs: Vec<u64>,
    pub first_contacts: Vec<SatelliteId>,
}

/// The first `limit` reachable requests of a log, as probe inputs.
pub fn request_sample(log: &AccessLog, limit: usize) -> RequestSample {
    let mut s =
        RequestSample { objects: Vec::new(), epochs: Vec::new(), first_contacts: Vec::new() };
    for e in log.entries.iter().filter(|e| e.first_contact.is_some()).take(limit) {
        s.objects.push((e.object, e.size));
        s.epochs.push(e.time.as_secs() / EPOCH_SECS);
        s.first_contacts.push(e.first_contact.expect("filtered to reachable"));
    }
    s
}

/// `simulate::replay` of the sample through one fresh LRU cache;
/// returns (accesses, hits).
pub fn cache_replay(sample: &RequestSample, capacity: u64) -> (u64, u64) {
    let mut cache = LruCache::new(capacity);
    let stats = simulate::replay(&mut cache, sample.objects.iter().copied());
    (stats.requests, stats.hits)
}

/// `simulate::replay_delayed` of the sample through one fresh LRU cache
/// and in-flight queue; returns (accesses, delayed hits).
pub fn cache_replay_delayed(
    sample: &RequestSample,
    capacity: u64,
    fetch_epochs: u64,
) -> (u64, u64) {
    let mut cache = LruCache::new(capacity);
    let mut queue = InflightQueue::new();
    let accesses =
        sample.objects.iter().zip(&sample.epochs).map(|(&(id, size), &ep)| (id, size, ep));
    let stats = simulate::replay_delayed(&mut cache, &mut queue, accesses, fetch_epochs);
    (stats.requests, stats.delayed_hits)
}

/// `BucketTiling::bucket_of_object` + `nearest_owner` per request;
/// returns (lookups, checksum).
pub fn bucket_lookups(sample: &RequestSample, grid: &GridTopology, buckets: u32) -> (u64, u64) {
    let tiling = BucketTiling::new(buckets).expect("square bucket count");
    let mut sum = 0u64;
    for (&(id, _), &fc) in sample.objects.iter().zip(&sample.first_contacts) {
        let bucket = tiling.bucket_of_object(id.hash64());
        let owner = tiling.nearest_owner(grid, fc, bucket);
        sum = sum.wrapping_add(owner.index(grid.sats_per_plane) as u64);
    }
    (sample.objects.len() as u64, sum)
}

/// `SpaceCdn::resolve_route` per request; returns (routes, total hops).
pub fn resolve_routes(cdn: &SpaceCdn, sample: &RequestSample) -> (u64, u64) {
    let mut hops = 0u64;
    for (&(id, _), &fc) in sample.objects.iter().zip(&sample.first_contacts) {
        if let Some(route) = cdn.resolve_route(fc, id) {
            hops += route.hops() as u64;
        }
    }
    (sample.objects.len() as u64, hops)
}

/// `routing::shortest_path` between consecutive first contacts;
/// returns (paths, total hops).
pub fn grid_paths(sample: &RequestSample, grid: &GridTopology) -> (u64, u64) {
    let mut hops = 0u64;
    for pair in sample.first_contacts.windows(2) {
        hops += routing::shortest_path(grid, pair[0], pair[1]).len() as u64;
    }
    (sample.first_contacts.len().saturating_sub(1) as u64, hops)
}

/// The failure view half-way through the world's fault schedule
/// (`ScheduleCursor::advance_to`); the static view when it is empty.
pub fn midrun_failures(world: &World) -> FailureModel {
    let mut cursor = ScheduleCursor::new(&world.schedule, world.failures.clone());
    cursor.advance_to(world.schedule.last_event_secs().unwrap_or(0) / 2);
    cursor.view().clone()
}

/// `routing::shortest_path_avoiding_links` between consecutive first
/// contacts under `view`; returns (searches, paths found).
pub fn bfs_paths(sample: &RequestSample, grid: &GridTopology, view: &FailureModel) -> (u64, u64) {
    let mut found = 0u64;
    let mut searched = 0u64;
    for pair in sample.first_contacts.windows(2) {
        if !view.is_alive(pair[0]) || !view.is_alive(pair[1]) {
            continue;
        }
        searched += 1;
        let path = routing::shortest_path_avoiding_links(
            grid,
            pair[0],
            pair[1],
            |id| view.is_alive(id),
            |a, b| !view.is_link_cut(a, b),
        );
        found += path.is_some() as u64;
    }
    (searched, found)
}

/// `CapacityLedger::admit` per request against consecutive first
/// contacts as owners; returns (decisions, admits).
pub fn ledger_admits(sample: &RequestSample, cfg: &StarCdnConfig, headroom: f64) -> (u64, u64) {
    let mut ledger = CapacityLedger::new(&cfg.grid, &cfg.link_model, EPOCH_SECS, headroom);
    let mut admits = 0u64;
    let mut n = 0u64;
    for (i, pair) in sample.first_contacts.windows(2).enumerate() {
        let decision = ledger.admit(sample.epochs[i], pair[0], pair[1], sample.objects[i].1);
        admits += decision.is_admit() as u64;
        n += 1;
    }
    (n, admits)
}

/// `ShardState::apply_batch` over every batch of the plan, shard by
/// shard, with no transport; returns (ops applied, drain payload bytes).
pub fn apply_plan(plan: &ServePlan) -> Result<(u64, u64), String> {
    let mut ops = 0u64;
    let mut drain = 0u64;
    for k in 0..plan.num_shards() {
        let mut state: ShardState = plan.shard_state(false);
        for b in 0..plan.batch_count(k) {
            ops += state.apply_batch(plan.batch_bytes(k, b)).map_err(|e| e.to_string())? as u64;
        }
        drain += state.drain_bytes().len() as u64;
    }
    Ok((ops, drain))
}

/// `Frame::encode` of every batch of the plan as an `Ops` frame;
/// returns the wire bytes, one buffer per frame.
pub fn encode_frames(plan: &ServePlan) -> Vec<Vec<u8>> {
    let mut wire = Vec::new();
    for k in 0..plan.num_shards() {
        for b in 0..plan.batch_count(k) {
            let frame = Frame::Ops { seq: b as u64, payload: plan.batch_bytes(k, b).to_vec() };
            wire.push(frame.encode());
        }
    }
    wire
}

/// `FrameCodec::push` + `next_frame` over encoded frames; returns the
/// frames decoded.
pub fn decode_frames(wire: &[Vec<u8>]) -> Result<u64, String> {
    let mut codec = FrameCodec::new();
    let mut frames = 0u64;
    for bytes in wire {
        codec.push(bytes);
        while codec.next_frame().map_err(|e| e.to_string())?.is_some() {
            frames += 1;
        }
    }
    Ok(frames)
}
