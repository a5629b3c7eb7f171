//! End-to-end tests for the socket serving plane.
//!
//! The contract under test: with zero faults the socket plane
//! reproduces `replay_parallel`'s `metrics_digest` bit-for-bit over
//! both transports; with seeded chaos every run either matches that
//! golden digest or fails with a typed [`NetError`] — never a panic,
//! never silent divergence.

use spacegen::trace::{LocationId, Request, Trace};
use starcdn::config::{DelayedHitConfig, StarCdnConfig};
use starcdn::metrics::SystemMetrics;
use starcdn::system::SpaceCdn;
use starcdn_cache::object::ObjectId;
use starcdn_constellation::failures::FailureModel;
use starcdn_net::frame::code;
use starcdn_net::{
    serve_replay, ChaosNet, ChaosPlan, Frame, FrameCodec, MemNet, Net, NetConn, NetError,
    NetListener, RealNet, ServeConfig,
};
use starcdn_orbit::time::SimTime;
use starcdn_orbit::walker::SatelliteId;
use starcdn_sim::engine::{RunSpec, SimConfig};
use starcdn_sim::replayer;
use starcdn_sim::{
    build_access_log, metrics_digest, replay_parallel, run_space, AccessLog, ServePlan, World,
};
use starcdn_telemetry::{Counter, MemoryRecorder, Noop};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn log() -> AccessLog {
    let w = World::starlink_nine_cities();
    let reqs: Vec<Request> = (0..2500u64)
        .map(|k| Request {
            time: SimTime::from_secs(k / 6),
            object: ObjectId((k * 7919) % 180),
            size: 500 + (k % 5) * 100,
            location: LocationId((k % 9) as u16),
        })
        .collect();
    build_access_log(&w, &Trace::new(reqs), 15, &SimConfig::default().scheduler())
}

fn cfg() -> StarCdnConfig {
    StarCdnConfig::starcdn_no_relay(4, 100_000)
}

fn plan(l: &AccessLog, shards: usize) -> ServePlan {
    ServePlan::build(&cfg(), &FailureModel::none(), l, None, None, shards, 64, &Noop).unwrap()
}

fn golden(l: &AccessLog, shards: usize) -> SystemMetrics {
    replay_parallel(cfg(), FailureModel::none(), l, shards)
}

/// Fast deadlines for loopback/in-memory tests: stalls and losses are
/// detected in milliseconds, keeping chaos sweeps cheap.
fn fast() -> ServeConfig {
    ServeConfig {
        deadline: Duration::from_millis(40),
        backoff_base: Duration::from_micros(200),
        backoff_cap: Duration::from_millis(5),
        max_attempts: 8,
        overall_deadline: Duration::from_secs(30),
        ..ServeConfig::default()
    }
}

/// `m`'s digest with its latency samples sorted: the engine books them
/// in log order, the plane shard after shard.
fn sorted_digest(m: &SystemMetrics) -> u64 {
    let mut m = m.clone();
    m.latencies_ms.sort_by(f64::total_cmp);
    metrics_digest(&m)
}

/// Zero-fault serves over `net` at 1/4/8 shards: the no-relay plan
/// lands on the replayer's digest, and relay plans — `starcdn(4, …)`,
/// and `starcdn(9, …)` with probing, delayed hits and static outages —
/// on the engine's. Returns the reconnects the serves took.
fn zero_fault_parity(net: &dyn Net, over: &str) -> u64 {
    let l = log();
    let outages = FailureModel::sample(&World::starlink_nine_cities().grid, 126, 3);
    let mut nine = StarCdnConfig::starcdn(9, 100_000)
        .with_delayed_hits(DelayedHitConfig::with_latency(2, 40.0));
    nine.probe_neighbors_on_miss = true;
    let relay = [(StarCdnConfig::starcdn(4, 100_000), FailureModel::none()), (nine, outages)];
    let engine = relay.clone().map(|(cfg, failures)| {
        let metrics = run_space(&mut SpaceCdn::with_failures(cfg, failures), &l);
        assert!(metrics.served_relay_west + metrics.served_relay_east > 0);
        sorted_digest(&metrics)
    });
    let mut reconnects = 0;
    for shards in [1usize, 4, 8] {
        let report = serve_replay(net, &plan(&l, shards), &fast(), &Noop).unwrap();
        assert_eq!(
            metrics_digest(&golden(&l, shards)),
            metrics_digest(&report.metrics),
            "socket parity over {over} at {shards} shards"
        );
        reconnects += report.stats.reconnects;
        for ((cfg, failures), want) in relay.iter().zip(engine) {
            let p = ServePlan::build(cfg, failures, &l, None, None, shards, 64, &Noop).unwrap();
            let report = serve_replay(net, &p, &fast(), &Noop).unwrap();
            let buckets = cfg.num_buckets.unwrap_or_default();
            let cell = format!("L={buckets} over {over} at {shards} shards");
            assert_eq!(sorted_digest(&report.metrics), want, "engine parity, {cell}");
            reconnects += report.stats.reconnects;
        }
    }
    reconnects
}

/// A log read from disk may name a first contact outside the fleet's
/// grid. Mixed among valid records, such contacts — an orbit past the
/// last plane, a slot past the last in its plane — are booked as
/// unreachable by the engine, the replayer at 1 and 4 workers and a
/// MemNet serve alike, relay on at 9 and 4 buckets.
#[test]
fn contacts_outside_the_grid_are_unreachable_in_every_driver() {
    let mut l = log();
    let bad = [SatelliteId::new(500, 3), SatelliteId::new(71, 500), SatelliteId::new(72, 0)];
    let mut planted = 0u64;
    for (i, e) in l.entries.iter_mut().enumerate().filter(|(i, _)| i % 37 == 5) {
        e.first_contact = Some(bad[i % bad.len()]);
        planted += 1;
    }
    let mut bytes = Vec::new();
    l.write_binary(&mut bytes).unwrap();
    let l = AccessLog::read_binary(bytes.as_slice()).unwrap();
    let sentinel = SatelliteId::new(u16::MAX, u16::MAX);
    for cfg in [StarCdnConfig::starcdn(9, 100_000), StarCdnConfig::starcdn(4, 100_000)] {
        let engine = run_space(&mut SpaceCdn::new(cfg.clone()), &l);
        assert_eq!(engine.stats.requests, l.len() as u64, "every entry counted once");
        let unreachable = engine.per_satellite.get(&sentinel).map_or(0, |s| s.requests);
        assert_eq!(unreachable, planted, "every foreign contact booked as unreachable");
        let want = sorted_digest(&engine);
        for workers in [1usize, 4] {
            let m = replay_parallel(cfg.clone(), FailureModel::none(), &l, workers);
            assert_eq!(sorted_digest(&m), want, "replayer at {workers} workers");
        }
        let p =
            ServePlan::build(&cfg, &FailureModel::none(), &l, None, None, 4, 64, &Noop).unwrap();
        let report = serve_replay(&MemNet::new(), &p, &fast(), &Noop).unwrap();
        assert_eq!(sorted_digest(&report.metrics), want, "MemNet serve");
    }
}

#[test]
fn zero_fault_memnet_matches_replayer_digest() {
    let reconnects = zero_fault_parity(&MemNet::new(), "MemNet");
    assert_eq!(reconnects, 0, "zero faults, zero reconnects");
}

/// A serve whose recorder is enabled has every shard record and ship its
/// telemetry home in the drain: the absorbed counters are the in-process
/// replayer's, plus the router's own `Net*` ones, and recording leaves
/// the metrics digest alone.
#[test]
fn recorded_serve_ships_the_replayers_counters() {
    let l = log();
    let is_net = |c: Counter| c.name().starts_with("net_");
    for shards in [1usize, 4] {
        let replay_rec = MemoryRecorder::new();
        let spec = RunSpec { recorder: &replay_rec, ..RunSpec::default() };
        replayer::run(&cfg(), &FailureModel::none(), &l, shards, &spec).unwrap();
        let replayed = replay_rec.snapshot().counters;
        assert!(replayed.iter().any(|&(c, n)| c == Counter::CacheHits && n > 0));

        let serve_rec = MemoryRecorder::new();
        let p =
            ServePlan::build(&cfg(), &FailureModel::none(), &l, None, None, shards, 64, &serve_rec)
                .unwrap();
        let report = serve_replay(&MemNet::new(), &p, &ServeConfig::default(), &serve_rec).unwrap();
        assert_eq!(
            metrics_digest(&golden(&l, shards)),
            metrics_digest(&report.metrics),
            "recorded serve parity at {shards} shards"
        );
        let served = serve_rec.snapshot().counters;
        let (net, rest): (Vec<_>, Vec<_>) = served.into_iter().partition(|&(c, _)| is_net(c));
        assert_eq!(rest, replayed, "{shards} shards: shard counters");
        assert!(net.iter().any(|&(c, _)| c == Counter::NetFramesSent), "{shards} shards");
    }
}

/// The plane's row of `tests/replayer_parity.rs::every_driver_records_the_same_fault_event_timeline`:
/// a recorded MemNet serve at 1 and 4 shards records the engine's
/// fault-event timeline cell for cell — the router's pre-pass the
/// remaps, detours and churn, the shards the cold misses — under churn
/// and under static outages with no schedule.
#[test]
fn recorded_serve_ships_the_engines_fault_event_timeline() {
    use spacegen::classes::TrafficClass;
    use spacegen::production::ProductionModel;
    use spacegen::trace::Location;
    use starcdn_constellation::schedule::{ChurnParams, FaultSchedule};
    use starcdn_orbit::time::SimDuration;
    use starcdn_telemetry::{Event, TelemetrySnapshot};
    use std::collections::BTreeMap;

    let fault_events = |snap: &TelemetrySnapshot| -> BTreeMap<(Event, u64), u64> {
        let timeline =
            snap.events.iter().filter(|((e, _), _)| *e != Event::CheckpointRestoreFallback);
        timeline.map(|(&cell, &n)| (cell, n)).collect()
    };
    let cfg = StarCdnConfig::starcdn_no_relay(9, 5_000_000);
    let world = World::starlink_nine_cities();
    let churn = FaultSchedule::churn(
        &world.grid,
        &ChurnParams {
            sat_mtbf_secs: 3.0 * 3600.0,
            sat_mttr_secs: 600.0,
            link_mtbf_secs: Some(4.0 * 3600.0),
            link_mttr_secs: 600.0,
            horizon_secs: 3600,
            seed: 91,
        },
    );
    let outages = FailureModel::sample(&world.grid, 126, 3);
    let model = ProductionModel::build(
        TrafficClass::Video.params().scaled(0.02),
        &Location::akamai_nine(),
        61,
    );
    let trace = model.generate_trace(SimDuration::from_hours(1), 61);
    let scheduler = SimConfig::default().scheduler();
    let churn_world = World::starlink_nine_cities().with_fault_schedule(churn.clone());
    let scenarios = [
        (
            "churn",
            FailureModel::none(),
            Some(&churn),
            build_access_log(&churn_world, &trace, 15, &scheduler),
        ),
        ("static outages", outages, None, build_access_log(&world, &trace, 15, &scheduler)),
    ];
    for (name, base, schedule, l) in scenarios {
        let rec = MemoryRecorder::new();
        let mut spec = RunSpec { recorder: &rec, ..RunSpec::default() };
        spec.schedule = schedule.unwrap_or(spec.schedule);
        let mut fleet = SpaceCdn::with_failures(cfg.clone(), base.clone());
        let m = starcdn_sim::engine::run(&mut fleet, &l, &spec).unwrap();
        let engine = fault_events(&rec.snapshot());
        assert!(m.remapped_requests > 0 && engine.keys().any(|&(e, _)| e == Event::Remap));
        assert_eq!(m.cold_restart_misses > 0, schedule.is_some(), "{name}: cold restarts");
        for shards in [1usize, 4] {
            let rec = MemoryRecorder::new();
            let p = ServePlan::build(&cfg, &base, &l, schedule, None, shards, 64, &rec).unwrap();
            let report = serve_replay(&MemNet::new(), &p, &ServeConfig::default(), &rec).unwrap();
            assert_eq!(report.metrics.stats, m.stats, "{name} at {shards} shards: stats");
            assert_eq!(fault_events(&rec.snapshot()), engine, "{name} at {shards} shards");
        }
    }
}

#[test]
fn zero_fault_realnet_matches_replayer_digest() {
    zero_fault_parity(&RealNet, "loopback TCP");
}

/// The acceptance gate in miniature (the full ≥500-seed sweep lives in
/// the serve_soak bench): every seeded chaos schedule either converges
/// to the golden digest or fails typed. Nothing panics, nothing
/// silently diverges.
///
/// `ChaosNet` decides a fault per connect and per write, and a write
/// carries a window of frames, so the denominator is sized by the faults
/// the sweep injects: at least `FAULT_FLOOR` (≈ 136 at 9).
#[test]
fn chaos_sweep_matches_golden_or_fails_typed() {
    const FAULT_FLOOR: u64 = 123;
    let l = log();
    let shards = 4;
    let gold = metrics_digest(&golden(&l, shards));
    let p = plan(&l, shards);
    let mut matched = 0u32;
    let mut typed = 0u32;
    let mut injected = 0;
    for seed in 0..40u64 {
        let net = ChaosNet::new(Box::new(MemNet::new()), ChaosPlan::all(seed, 9));
        let outcome = serve_replay(&net, &p, &fast(), &Noop);
        injected += net.stats().injected;
        match outcome {
            Ok(report) => {
                assert_eq!(
                    gold,
                    metrics_digest(&report.metrics),
                    "seed {seed} converged but diverged from golden"
                );
                matched += 1;
            }
            Err(e) => {
                // Typed failure: RetriesExhausted (circuit) or the
                // overall deadline. Anything else is a protocol bug.
                assert!(
                    matches!(e, NetError::RetriesExhausted { .. } | NetError::Timeout(_)),
                    "seed {seed}: unexpected error {e}"
                );
                typed += 1;
            }
        }
    }
    assert!(matched > 0, "some chaos schedules must converge");
    assert!(
        matched + typed == 40,
        "every schedule accounted for: {matched} matched, {typed} typed"
    );
    assert!(injected >= FAULT_FLOOR, "{injected} faults injected, fewer than {FAULT_FLOOR}");
}

/// A shard that never answers surfaces as a typed RetriesExhausted once
/// its circuit opens, not a hang or a panic.
#[test]
fn unreachable_shard_fails_typed() {
    struct RefuseAlways {
        inner: MemNet,
        victim: String,
    }
    impl Net for RefuseAlways {
        fn listen(&self, hint: &str) -> Result<Box<dyn NetListener>, NetError> {
            self.inner.listen(hint)
        }
        fn connect(&self, addr: &str) -> Result<Box<dyn NetConn>, NetError> {
            if addr == self.victim {
                return Err(NetError::Refused(addr.to_string()));
            }
            self.inner.connect(addr)
        }
    }
    let l = log();
    let p = plan(&l, 2);
    let net = RefuseAlways { inner: MemNet::new(), victim: "mem:2".to_string() };
    let mut scfg = fast();
    scfg.max_attempts = 3;
    let err = serve_replay(&net, &p, &scfg, &Noop).err().unwrap();
    assert!(matches!(err, NetError::RetriesExhausted { shard: 1, .. }), "wrong error: {err}");
}

/// A shard whose drain payload cannot fit one frame says so with
/// `DRAIN_TOO_LARGE`, and the router gives up at once, typed: the
/// payload only grows, so the reconnect-and-redrain loop it used to
/// enter ended at the overall deadline. The shard's half (the size
/// check) is unit-tested in `shard.rs`; here a scripted peer plays a
/// shard that acks everything and refuses the drain.
#[test]
fn oversized_drain_fails_typed_without_a_reconnect() {
    /// Answers each router frame the way a shard server would, except
    /// `Drain`.
    struct Scripted {
        from_router: FrameCodec,
        to_router: Vec<u8>,
    }
    impl NetConn for Scripted {
        fn send(&mut self, bytes: &[u8]) -> Result<(), NetError> {
            self.from_router.push(bytes);
            while let Some(f) = self.from_router.next_frame()? {
                let reply = match f {
                    Frame::Hello { .. } => Frame::HelloAck { next: 0 },
                    Frame::Ops { seq, .. } => Frame::Ack { next: seq + 1 },
                    Frame::Ping { nonce } => Frame::Pong { nonce },
                    Frame::Drain => Frame::Error {
                        code: code::DRAIN_TOO_LARGE,
                        msg: "drain exceeds the frame cap".into(),
                    },
                    _ => continue,
                };
                self.to_router.extend_from_slice(&reply.encode());
            }
            Ok(())
        }
        fn recv(&mut self, buf: &mut [u8]) -> Result<usize, NetError> {
            let n = self.to_router.len().min(buf.len());
            buf[..n].copy_from_slice(&self.to_router[..n]);
            self.to_router.drain(..n);
            Ok(n)
        }
        /// Replies are framed as the router sends, so none can arrive
        /// while it waits.
        fn wait(&mut self, timeout: Duration) -> Result<(), NetError> {
            if self.to_router.is_empty() {
                std::thread::sleep(timeout);
            }
            Ok(())
        }
    }
    /// Real listeners (the shard threads idle on them until teardown),
    /// scripted connections, and a count of the dials.
    struct ScriptedNet {
        inner: MemNet,
        connects: Arc<AtomicU64>,
    }
    impl Net for ScriptedNet {
        fn listen(&self, hint: &str) -> Result<Box<dyn NetListener>, NetError> {
            self.inner.listen(hint)
        }
        fn connect(&self, _addr: &str) -> Result<Box<dyn NetConn>, NetError> {
            self.connects.fetch_add(1, Ordering::Relaxed);
            Ok(Box::new(Scripted { from_router: FrameCodec::new(), to_router: Vec::new() }))
        }
    }

    let l = log();
    let p = plan(&l, 1);
    let connects = Arc::new(AtomicU64::new(0));
    let net = ScriptedNet { inner: MemNet::new(), connects: Arc::clone(&connects) };
    let started = Instant::now();
    let err = serve_replay(&net, &p, &fast(), &Noop).err().unwrap();
    assert!(
        matches!(err, NetError::Protocol { code: code::DRAIN_TOO_LARGE, .. }),
        "wrong error: {err}"
    );
    assert!(started.elapsed() < Duration::from_secs(2), "took {:?}", started.elapsed());
    assert_eq!(connects.load(Ordering::Relaxed), 1, "one dial, no reconnect");
}

/// Twenty reconnects of five sends each through one chaos schedule:
/// each send's and connect's outcome, and the fault counts. Between ops
/// the server end is polled `polls` times, each poll after a `wait` on
/// both ends when one is given.
fn chaos_outcomes(polls: usize, wait: Option<Duration>) -> (Vec<bool>, starcdn_net::ChaosStats) {
    let net = ChaosNet::new(Box::new(MemNet::new()), ChaosPlan::all(0xC0FFEE, 5));
    let mut outcomes = Vec::new();
    let mut listener = net.listen("").unwrap();
    let idle = |server: &mut Box<dyn NetConn>, client: &mut Box<dyn NetConn>| {
        let mut buf = [0u8; 64];
        for _ in 0..polls {
            if let Some(t) = wait {
                let _ = server.wait(t);
                let _ = client.wait(t);
            }
            let _ = server.recv(&mut buf);
        }
    };
    for _round in 0..20 {
        match net.connect(&listener.addr()) {
            Err(_) => outcomes.push(false),
            Ok(mut conn) => {
                outcomes.push(true);
                if let Ok(Some(mut server)) = listener.accept() {
                    idle(&mut server, &mut conn);
                    for i in 0..5u8 {
                        outcomes.push(conn.send(&[i; 16]).is_ok());
                        idle(&mut server, &mut conn);
                    }
                }
            }
        }
    }
    (outcomes, net.stats())
}

/// ChaosNet's op index advances only on connects and sends, so a fault
/// schedule is a pure function of the op sequence — identical across
/// runs, reconnects included, no matter how often either side polls or
/// how long it waits.
#[test]
fn chaos_schedule_stable_across_reconnects_and_polls() {
    let (a, sa) = chaos_outcomes(1, None);
    let short = Some(Duration::from_micros(50));
    for (polls, wait) in [(7, None), (1000, None), (1, short), (7, short)] {
        let (b, sb) = chaos_outcomes(polls, wait);
        assert_eq!(a, b, "op-index schedule must ignore polls ({polls}) and waits ({wait:?})");
        assert_eq!(sa, sb, "fault counts must be identical ({polls} polls, waits {wait:?})");
    }
    assert!(sa.injected > 0, "schedule actually injected faults");
}

/// What [`Tap`] does to the first router write that carries two or more
/// frames.
#[derive(Clone, Copy, PartialEq, Eq)]
enum WriteFault {
    /// Leave it alone.
    None,
    /// Deliver it up to the middle of its second frame, then kill the
    /// connection.
    Tear,
    /// Deliver it twice.
    Duplicate,
}

/// What a [`Tap`] saw.
#[derive(Default)]
struct Taps {
    listens: AtomicU64,
    /// Writes the shard servers made.
    shard_sends: AtomicU64,
    /// Frames in the write the fault hit (0: none hit yet).
    faulted_frames: AtomicU64,
}

/// MemNet with one scripted fault on the router's side and a count of
/// the shard servers' writes on the listener's.
struct Tap {
    inner: MemNet,
    fault: WriteFault,
    taps: Arc<Taps>,
}

impl Tap {
    fn new(fault: WriteFault) -> Self {
        Tap { inner: MemNet::new(), fault, taps: Arc::default() }
    }
}

/// End offset of each whole frame in `bytes`, read off the length
/// prefixes.
fn frame_ends(bytes: &[u8]) -> Vec<usize> {
    let mut ends = Vec::new();
    let mut at = 0;
    while at + 4 <= bytes.len() {
        at += 4 + u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
        ends.push(at);
    }
    ends
}

struct TapConn {
    inner: Box<dyn NetConn>,
    fault: WriteFault,
    taps: Arc<Taps>,
    dead: bool,
}

impl NetConn for TapConn {
    fn send(&mut self, bytes: &[u8]) -> Result<(), NetError> {
        if self.dead {
            return Err(NetError::Reset("tap: torn"));
        }
        let ends = frame_ends(bytes);
        if self.fault == WriteFault::None
            || ends.len() < 2
            || self.taps.faulted_frames.load(Ordering::Relaxed) > 0
        {
            return self.inner.send(bytes);
        }
        self.taps.faulted_frames.store(ends.len() as u64, Ordering::Relaxed);
        match self.fault {
            WriteFault::Tear => {
                self.dead = true;
                self.inner.send(&bytes[..(ends[0] + ends[1]) / 2])
            }
            _ => {
                self.inner.send(bytes)?;
                self.inner.send(bytes)
            }
        }
    }
    fn recv(&mut self, buf: &mut [u8]) -> Result<usize, NetError> {
        if self.dead {
            return Err(NetError::Reset("tap: torn"));
        }
        self.inner.recv(buf)
    }
    fn wait(&mut self, timeout: Duration) -> Result<(), NetError> {
        if self.dead {
            return Err(NetError::Reset("tap: torn"));
        }
        self.inner.wait(timeout)
    }
}

struct CountingConn {
    inner: Box<dyn NetConn>,
    taps: Arc<Taps>,
}

impl NetConn for CountingConn {
    fn send(&mut self, bytes: &[u8]) -> Result<(), NetError> {
        self.taps.shard_sends.fetch_add(1, Ordering::Relaxed);
        self.inner.send(bytes)
    }
    fn recv(&mut self, buf: &mut [u8]) -> Result<usize, NetError> {
        self.inner.recv(buf)
    }
    fn wait(&mut self, timeout: Duration) -> Result<(), NetError> {
        self.inner.wait(timeout)
    }
}

struct CountingListener {
    inner: Box<dyn NetListener>,
    taps: Arc<Taps>,
}

impl NetListener for CountingListener {
    fn accept(&mut self) -> Result<Option<Box<dyn NetConn>>, NetError> {
        Ok(self.inner.accept()?.map(|inner| {
            Box::new(CountingConn { inner, taps: Arc::clone(&self.taps) }) as Box<dyn NetConn>
        }))
    }
    fn addr(&self) -> String {
        self.inner.addr()
    }
}

impl Net for Tap {
    fn listen(&self, hint: &str) -> Result<Box<dyn NetListener>, NetError> {
        self.taps.listens.fetch_add(1, Ordering::Relaxed);
        let inner = self.inner.listen(hint)?;
        Ok(Box::new(CountingListener { inner, taps: Arc::clone(&self.taps) }))
    }
    fn connect(&self, addr: &str) -> Result<Box<dyn NetConn>, NetError> {
        Ok(Box::new(TapConn {
            inner: self.inner.connect(addr)?,
            fault: self.fault,
            taps: Arc::clone(&self.taps),
            dead: false,
        }))
    }
}

/// Patient deadlines: the scripted tests count resends and duplicates
/// exactly, so no deadline may fire on a slow machine.
fn patient() -> ServeConfig {
    ServeConfig { overall_deadline: Duration::from_secs(30), ..ServeConfig::default() }
}

/// The router frames a window of `Ops` into one write. Torn in the
/// middle of its second frame, that write still delivers its first: the
/// shard applies it, drops the connection at the torn one, and the
/// router resumes from the `HelloAck` — resending every other frame of
/// the write and nothing more.
#[test]
fn torn_multi_frame_write_applies_its_whole_frames_and_resyncs() {
    let l = log();
    let p = plan(&l, 2);
    let net = Tap::new(WriteFault::Tear);
    let report = serve_replay(&net, &p, &patient(), &Noop).unwrap();
    let torn = net.taps.faulted_frames.load(Ordering::Relaxed);
    assert!(torn >= 2, "a multi-frame write was torn ({torn} frames)");
    assert_eq!(metrics_digest(&golden(&l, 2)), metrics_digest(&report.metrics));
    assert_eq!(report.stats.reconnects, 1);
    assert_eq!(report.stats.frames_resent, torn - 1, "the shard applied exactly the first frame");
    assert_eq!(report.stats.duplicates_dropped, 0);
}

/// A multi-frame write delivered twice: the shard drops every frame of
/// the second copy.
#[test]
fn duplicated_multi_frame_write_drops_each_frame_once() {
    let l = log();
    let p = plan(&l, 2);
    let net = Tap::new(WriteFault::Duplicate);
    let report = serve_replay(&net, &p, &patient(), &Noop).unwrap();
    let dup = net.taps.faulted_frames.load(Ordering::Relaxed);
    assert!(dup >= 2, "a multi-frame write was duplicated ({dup} frames)");
    assert_eq!(metrics_digest(&golden(&l, 2)), metrics_digest(&report.metrics));
    assert_eq!(report.stats.duplicates_dropped, dup);
    assert_eq!(report.stats.reconnects + report.stats.frames_resent, 0);
}

/// Acks are cumulative per receive pass, so the shards write less often
/// than the router sends frames.
#[test]
fn shards_write_fewer_replies_than_the_router_sends_frames() {
    let l = log();
    let p = plan(&l, 4);
    let net = Tap::new(WriteFault::None);
    let report = serve_replay(&net, &p, &patient(), &Noop).unwrap();
    assert_eq!(metrics_digest(&golden(&l, 4)), metrics_digest(&report.metrics));
    let shard_sends = net.taps.shard_sends.load(Ordering::Relaxed);
    assert!(
        shard_sends < report.stats.frames_sent,
        "{shard_sends} shard writes for {} router frames",
        report.stats.frames_sent
    );
}

/// A window of zero could never send a batch, so nothing would arm a
/// deadline: the serve fails typed at once, before a shard starts.
#[test]
fn zero_window_fails_typed_before_any_shard_starts() {
    let l = log();
    let p = plan(&l, 2);
    let net = Tap::new(WriteFault::None);
    let started = Instant::now();
    let scfg = ServeConfig { window: 0, ..patient() };
    let err = serve_replay(&net, &p, &scfg, &Noop).err().unwrap();
    assert!(matches!(err, NetError::Config(_)), "wrong error: {err}");
    assert!(started.elapsed() < Duration::from_secs(1), "took {:?}", started.elapsed());
    assert_eq!(net.taps.listens.load(Ordering::Relaxed), 0, "no shard was started");
}
