//! The front-door router: fans op batches out to shard servers with
//! deadlines, bounded retries, and circuit breaking.
//!
//! [`serve_replay`] is the socket analogue of
//! `starcdn_sim::replay_parallel`: it spawns one shard-server thread per
//! shard of a [`ServePlan`], streams each shard's batches over the
//! [`Net`] transport with a bounded in-flight window, and merges drain
//! results in shard index order — so a zero-fault run reproduces the
//! in-process replayer's `metrics_digest` bit-for-bit.
//!
//! A write carries every `Ops` frame the window admits at that moment:
//! a whole window after a handshake, then whatever room each cumulative
//! ack frees. The shard answers a receive pass with one ack (see
//! `shard`), so both directions pay a syscall per write, not per frame.
//! The counters (`frames_sent`, `frames_resent`, the frame-size
//! histogram) stay per frame, and so does the ack clock:
//! `Histo::NetAckRttUs` times each frame from its write to the
//! cumulative ack that covers it.
//!
//! ## Failure handling
//!
//! Every write the router makes starts a deadline; progress (acks,
//! handshakes, pongs, drain results) resets it. A missed deadline or a
//! connection error tears the connection down and schedules a reconnect
//! after jittered exponential backoff (the jitter is a pure function of
//! plan fingerprint, shard, and attempt — no RNG state, runs stay
//! reproducible). Reconnects resync via the handshake: `HelloAck`
//! carries the shard's authoritative next sequence, so the router
//! resends exactly the unapplied suffix and duplicates are dedup'd
//! server-side.
//!
//! After `max_attempts` consecutive failures the shard's circuit opens
//! and the run aborts with a typed [`NetError::RetriesExhausted`]: a
//! run either matches the golden replay bit-for-bit or fails typed.
//!
//! Graceful shutdown: once a shard's batches are all acked the router
//! health-checks it (ping/pong), drains it (metrics + telemetry
//! payload), and broadcasts `Shutdown`; in-process supervisors also get
//! a stop flag for teardown on error paths. Shards record telemetry
//! exactly when the caller's recorder is enabled, and ship it home in
//! the drain.

use crate::chaos::splitmix64;
use crate::error::NetError;
use crate::frame::{code, Frame, FrameCodec, FrameRef, MAX_FRAME_LEN};
use crate::shard::run_shard_server;
use crate::transport::{Net, NetConn};
use starcdn::metrics::SystemMetrics;
use starcdn_sim::serve::{decode_drain, ServePlan};
use starcdn_telemetry::{Counter, Histo, Recorder};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Router tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Max unacked `Ops` frames in flight per shard, sent in one write
    /// as acks free room. At least 1 ([`NetError::Config`] otherwise).
    pub window: u64,
    /// Deadline for any awaited response (handshake, ack, pong, drain).
    pub deadline: Duration,
    /// Consecutive failures on one shard before its circuit opens and
    /// the run fails with [`NetError::RetriesExhausted`].
    pub max_attempts: u32,
    /// First backoff step; doubles per consecutive failure.
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_cap: Duration,
    /// Hard wall-clock bound on the whole serve.
    pub overall_deadline: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            window: 8,
            deadline: Duration::from_millis(1000),
            max_attempts: 6,
            backoff_base: Duration::from_millis(2),
            backoff_cap: Duration::from_millis(100),
            overall_deadline: Duration::from_secs(120),
        }
    }
}

/// Router-side counters for one serve run.
#[derive(Debug, Default, Clone, Copy)]
pub struct ServeStats {
    pub frames_sent: u64,
    pub frames_resent: u64,
    pub timeouts: u64,
    pub reconnects: u64,
    pub circuit_opens: u64,
    /// Duplicate frames the shard servers dedup'd.
    pub duplicates_dropped: u64,
}

/// A completed serve: merged metrics plus the router's accounting.
#[derive(Debug)]
pub struct ServeReport {
    pub metrics: SystemMetrics,
    pub stats: ServeStats,
}

struct Endpoint {
    shard: u32,
    addr: String,
    total: u64,
    conn: Option<Box<dyn NetConn>>,
    codec: FrameCodec,
    /// The frame being sent: every outgoing frame is encoded here, so a
    /// batch's bytes are copied (and checksummed) once on their way out.
    wire: Vec<u8>,
    helloed: bool,
    acked: u64,
    next_send: u64,
    /// Highest sequence ever sent + 1; sends below it count as resends.
    high_water: u64,
    sent_at: VecDeque<(u64, Instant)>,
    /// Deadline for the response currently awaited, if any.
    wait: Option<(Instant, &'static str)>,
    attempts: u32,
    ever_connected: bool,
    backoff_until: Option<Instant>,
    probe_sent: bool,
    drain_sent: bool,
    nonce: u64,
    drain: Option<Vec<u8>>,
    done: bool,
}

impl Endpoint {
    /// Tear down the connection state after a failure; retry/circuit
    /// bookkeeping is the caller's job.
    fn reset_conn(&mut self) {
        self.conn = None;
        self.codec = FrameCodec::new();
        self.helloed = false;
        self.sent_at.clear();
        self.wait = None;
        self.probe_sent = false;
        self.drain_sent = false;
    }

    /// Is the router waiting on the shard for anything right now?
    fn outstanding(&self) -> bool {
        if self.done || self.conn.is_none() {
            return false;
        }
        if !self.helloed {
            return true;
        }
        // `probe_sent` stays true through drain (Drain is only sent
        // from the Pong handler), so it covers both awaited replies.
        self.acked < self.next_send || self.probe_sent
    }
}

/// Serve a plan over sockets and merge the results.
///
/// Spawns `plan.num_shards()` shard-server threads on listeners bound
/// from `net`, routes every batch, health-checks and drains each shard,
/// and merges: pre-pass direct metrics, then each shard's drain payload
/// in shard index order (the replayer's determinism rule). Shards record
/// telemetry when `rec` is enabled; their snapshots are absorbed into it
/// in the same order.
pub fn serve_replay(
    net: &dyn Net,
    plan: &ServePlan,
    scfg: &ServeConfig,
    rec: &dyn Recorder,
) -> Result<ServeReport, NetError> {
    if scfg.window == 0 {
        // Nothing could ever be sent, so nothing would arm a deadline:
        // the serve would spin until `overall_deadline`.
        return Err(NetError::Config("window must admit at least one frame"));
    }
    let shards = plan.num_shards();
    for k in 0..shards {
        for b in 0..plan.batch_count(k) {
            let frame = FrameRef::Ops { seq: b as u64, payload: plan.batch_bytes(k, b) };
            if frame.wire_len() > MAX_FRAME_LEN as usize {
                return Err(NetError::Malformed("batch exceeds frame cap"));
            }
        }
    }
    let mut stops: Vec<Arc<AtomicBool>> = Vec::with_capacity(shards);
    let mut handles = Vec::with_capacity(shards);
    let mut eps: Vec<Endpoint> = Vec::with_capacity(shards);
    for k in 0..shards {
        let listener = match net.listen("") {
            Ok(l) => l,
            Err(e) => {
                // Earlier shard threads are already up: stop them before
                // bailing.
                for s in &stops {
                    s.store(true, Ordering::Relaxed);
                }
                for h in handles {
                    join_shard(h);
                }
                return Err(e);
            }
        };
        let addr = listener.addr();
        let stop = Arc::new(AtomicBool::new(false));
        stops.push(Arc::clone(&stop));
        let state = plan.shard_state(rec.is_enabled());
        let fingerprint = plan.fingerprint();
        handles.push(std::thread::spawn(move || {
            run_shard_server(listener, state, k as u32, fingerprint, stop)
        }));
        eps.push(Endpoint {
            shard: k as u32,
            addr,
            total: plan.batch_count(k) as u64,
            conn: None,
            codec: FrameCodec::new(),
            wire: Vec::new(),
            helloed: false,
            acked: 0,
            next_send: 0,
            high_water: 0,
            sent_at: VecDeque::new(),
            wait: None,
            attempts: 0,
            ever_connected: false,
            backoff_until: None,
            probe_sent: false,
            drain_sent: false,
            nonce: 0,
            drain: None,
            done: false,
        });
    }

    let mut stats = ServeStats::default();
    let result = route_all(net, plan, scfg, rec, &mut eps, &mut stats);

    // Teardown: polite Shutdown to live connections, stop flags for the
    // rest, then join (propagating any shard panic — a panic is a bug,
    // not a fault).
    for ep in &mut eps {
        if let Some(conn) = ep.conn.as_mut() {
            let _ = conn.send(&Frame::Shutdown.encode());
        }
    }
    for s in &stops {
        s.store(true, Ordering::Relaxed);
    }
    let mut duplicates = 0;
    for h in handles {
        duplicates += join_shard(h).duplicates;
    }
    stats.duplicates_dropped = duplicates;
    if duplicates > 0 {
        rec.add(Counter::NetDuplicatesDropped, duplicates);
    }
    result?;

    // Merge in shard index order — the replayer's determinism rule.
    let mut total = plan.direct_metrics().clone();
    for ep in &eps {
        let payload = ep.drain.as_ref().expect("done endpoint has drain payload");
        let (m, snap) = decode_drain(payload)?;
        total.merge(&m);
        if let Some(snap) = &snap {
            rec.absorb(snap);
        }
    }
    plan.assert_conserved(&total);
    Ok(ServeReport { metrics: total, stats })
}

fn join_shard(
    h: std::thread::JoinHandle<(crate::shard::ShardServerStats, starcdn_sim::ShardState)>,
) -> crate::shard::ShardServerStats {
    match h.join() {
        Ok((stats, _state)) => stats,
        Err(p) => std::panic::resume_unwind(p),
    }
}

fn route_all(
    net: &dyn Net,
    plan: &ServePlan,
    scfg: &ServeConfig,
    rec: &dyn Recorder,
    eps: &mut [Endpoint],
    stats: &mut ServeStats,
) -> Result<(), NetError> {
    let end = Instant::now() + scfg.overall_deadline;
    let mut turn = 0;
    loop {
        if eps.iter().all(|e| e.done) {
            return Ok(());
        }
        if Instant::now() > end {
            return Err(NetError::Timeout("serve overall deadline"));
        }
        let mut progress = false;
        for ep in eps.iter_mut() {
            progress |= drive(net, plan, scfg, rec, ep, stats)?;
        }
        if !progress {
            await_progress(plan, scfg, rec, eps, stats, &mut turn, end)?;
        }
    }
}

/// A pass moved nothing: block until something may have. The router
/// waits on the next connection, in rotation from `turn`, that owes it a
/// reply, no longer than the earliest armed deadline or backoff (so the
/// next pass fires it in time); with no reply owed, it sleeps until the
/// earliest backoff ends.
fn await_progress(
    plan: &ServePlan,
    scfg: &ServeConfig,
    rec: &dyn Recorder,
    eps: &mut [Endpoint],
    stats: &mut ServeStats,
    turn: &mut usize,
    end: Instant,
) -> Result<(), NetError> {
    let wake = eps
        .iter()
        .flat_map(|e| [e.wait.map(|(t, _)| t), e.backoff_until])
        .flatten()
        .fold(end, Instant::min);
    let timeout = wake.saturating_duration_since(Instant::now());
    let n = eps.len();
    let Some(k) = (0..n).map(|i| (*turn + i) % n).find(|&k| eps[k].outstanding()) else {
        std::thread::sleep(timeout);
        return Ok(());
    };
    *turn = k + 1;
    let ep = &mut eps[k];
    if ep.conn.as_mut().expect("a connection owes the reply").wait(timeout).is_err() {
        register_failure(ep, scfg, rec, stats, plan)?;
    }
    Ok(())
}

/// One failure on this endpoint: tear down the connection, consume one
/// retry, and fail the run typed once the budget is gone (the circuit
/// opens).
fn register_failure(
    ep: &mut Endpoint,
    scfg: &ServeConfig,
    rec: &dyn Recorder,
    stats: &mut ServeStats,
    plan: &ServePlan,
) -> Result<(), NetError> {
    ep.reset_conn();
    ep.attempts += 1;
    if ep.attempts >= scfg.max_attempts {
        stats.circuit_opens += 1;
        rec.add(Counter::NetCircuitOpens, 1);
        return Err(NetError::RetriesExhausted { shard: ep.shard, attempts: ep.attempts });
    }
    // Jittered exponential backoff, deterministic in (plan, shard,
    // attempt) so chaos runs replay exactly.
    let exp = ep.attempts.min(16);
    let base = scfg.backoff_base.as_micros() as u64;
    let cap = scfg.backoff_cap.as_micros() as u64;
    let raw = base.saturating_mul(1u64 << exp.min(20)).min(cap.max(1));
    let jitter = splitmix64(plan.fingerprint() ^ ((ep.shard as u64) << 32) ^ ep.attempts as u64)
        % raw.max(1);
    ep.backoff_until = Some(Instant::now() + Duration::from_micros(raw / 2 + jitter / 2));
    Ok(())
}

/// Advance one endpoint's state machine a step. Returns whether any
/// visible work happened (bytes moved, frames handled, sends issued).
fn drive(
    net: &dyn Net,
    plan: &ServePlan,
    scfg: &ServeConfig,
    rec: &dyn Recorder,
    ep: &mut Endpoint,
    stats: &mut ServeStats,
) -> Result<bool, NetError> {
    if ep.done {
        return Ok(false);
    }
    let now = Instant::now();
    if let Some(t) = ep.backoff_until {
        if now < t {
            return Ok(false);
        }
        ep.backoff_until = None;
    }

    // Connect + handshake.
    if ep.conn.is_none() {
        if ep.ever_connected {
            stats.reconnects += 1;
            rec.add(Counter::NetReconnects, 1);
        }
        match net.connect(&ep.addr) {
            Ok(conn) => {
                ep.conn = Some(conn);
                ep.ever_connected = true;
                let hello = FrameRef::Hello { shard: ep.shard, fingerprint: plan.fingerprint() };
                if send_frame(ep, hello, rec, stats).is_err() {
                    register_failure(ep, scfg, rec, stats, plan)?;
                    return Ok(true);
                }
                ep.wait = Some((now + scfg.deadline, "hello ack"));
            }
            Err(_) => {
                register_failure(ep, scfg, rec, stats, plan)?;
                return Ok(true);
            }
        }
    }

    // Pump the receive side.
    let mut progress = false;
    loop {
        let conn = ep.conn.as_mut().expect("connected above");
        match ep.codec.recv_from(conn.as_mut()) {
            Ok(0) => break,
            Ok(_) => progress = true,
            Err(_) => {
                register_failure(ep, scfg, rec, stats, plan)?;
                return Ok(true);
            }
        }
    }

    // Handle every complete frame.
    loop {
        let frame = match ep.codec.next_frame() {
            Ok(Some(f)) => f,
            Ok(None) => break,
            Err(_) => {
                register_failure(ep, scfg, rec, stats, plan)?;
                return Ok(true);
            }
        };
        progress = true;
        match frame {
            Frame::HelloAck { next } => {
                ep.helloed = true;
                ep.acked = next;
                ep.next_send = next;
                ep.sent_at.clear();
                ep.attempts = 0;
                ep.wait = None;
            }
            Frame::Ack { next } => {
                if next > ep.acked {
                    while let Some(&(seq, at)) = ep.sent_at.front() {
                        if seq >= next {
                            break;
                        }
                        rec.observe(Histo::NetAckRttUs, at.elapsed().as_micros() as u64);
                        ep.sent_at.pop_front();
                    }
                    ep.acked = next;
                    ep.attempts = 0;
                    ep.wait = None;
                    if ep.next_send < next {
                        ep.next_send = next;
                    }
                }
            }
            Frame::Pong { nonce } => {
                if nonce == ep.nonce && ep.probe_sent && !ep.drain_sent {
                    ep.wait = None;
                    if send_frame(ep, FrameRef::Drain, rec, stats).is_err() {
                        register_failure(ep, scfg, rec, stats, plan)?;
                        return Ok(true);
                    }
                    ep.drain_sent = true;
                    ep.wait = Some((Instant::now() + scfg.deadline, "drain ack"));
                }
            }
            Frame::DrainAck { payload } => {
                ep.drain = Some(payload);
                ep.done = true;
                ep.wait = None;
                return Ok(true);
            }
            Frame::Error { code: c, msg } => {
                // Handshake and payload rejections are plan-level bugs,
                // and a drain over the frame cap only grows: retrying
                // cannot fix them, so they surface typed.
                if matches!(c, code::BAD_HANDSHAKE | code::BAD_PAYLOAD | code::DRAIN_TOO_LARGE) {
                    return Err(NetError::Protocol { code: c, msg });
                }
                register_failure(ep, scfg, rec, stats, plan)?;
                return Ok(true);
            }
            // Server-only frames arriving at the router: protocol
            // confusion, treat as a connection fault.
            Frame::Hello { .. }
            | Frame::Ops { .. }
            | Frame::Ping { .. }
            | Frame::Drain
            | Frame::Shutdown => {
                register_failure(ep, scfg, rec, stats, plan)?;
                return Ok(true);
            }
        }
    }

    // Send side.
    if ep.helloed && !ep.done {
        // Every batch the window admits goes out back to back in one
        // write; the counters and the ack clock stay per frame.
        let first = ep.next_send;
        let last = ep.total.min(ep.acked.saturating_add(scfg.window));
        if first < last {
            ep.wire.clear();
            for seq in first..last {
                let payload = plan.batch_bytes(ep.shard as usize, seq as usize);
                if seq < ep.high_water {
                    stats.frames_resent += 1;
                    rec.add(Counter::NetFramesResent, 1);
                }
                count_frame(FrameRef::Ops { seq, payload }, &mut ep.wire, rec, stats);
            }
            ep.high_water = ep.high_water.max(last);
            if send_wire(ep).is_err() {
                register_failure(ep, scfg, rec, stats, plan)?;
                return Ok(true);
            }
            let at = Instant::now();
            ep.sent_at.extend((first..last).map(|seq| (seq, at)));
            ep.next_send = last;
            progress = true;
        }
        if ep.acked == ep.total && !ep.probe_sent {
            // All applied: health-check, then drain on the pong. The
            // nonce is deterministic but connection-unique.
            ep.nonce = splitmix64(plan.fingerprint() ^ ep.shard as u64 ^ ep.acked);
            if send_frame(ep, FrameRef::Ping { nonce: ep.nonce }, rec, stats).is_err() {
                register_failure(ep, scfg, rec, stats, plan)?;
                return Ok(true);
            }
            ep.probe_sent = true;
            progress = true;
        }
    }

    // Arm or fire the deadline.
    let now = Instant::now();
    if ep.outstanding() {
        match ep.wait {
            None => ep.wait = Some((now + scfg.deadline, "ack progress")),
            Some((t, _what)) if now > t => {
                stats.timeouts += 1;
                rec.add(Counter::NetTimeouts, 1);
                register_failure(ep, scfg, rec, stats, plan)?;
                return Ok(true);
            }
            Some(_) => {}
        }
    } else {
        ep.wait = None;
    }
    Ok(progress)
}

/// Frame `f` into the endpoint's scratch and send it alone.
fn send_frame(
    ep: &mut Endpoint,
    f: FrameRef<'_>,
    rec: &dyn Recorder,
    stats: &mut ServeStats,
) -> Result<(), NetError> {
    ep.wire.clear();
    count_frame(f, &mut ep.wire, rec, stats);
    send_wire(ep)
}

/// Append `f` to `wire`, with the router-side counters every frame
/// shares.
fn count_frame(f: FrameRef<'_>, wire: &mut Vec<u8>, rec: &dyn Recorder, stats: &mut ServeStats) {
    let start = wire.len();
    f.encode_into(wire);
    stats.frames_sent += 1;
    rec.add(Counter::NetFramesSent, 1);
    rec.observe(Histo::NetFrameBytes, (wire.len() - start) as u64);
}

/// One write of everything framed into the endpoint's scratch.
fn send_wire(ep: &mut Endpoint) -> Result<(), NetError> {
    ep.conn.as_mut().expect("live connection").send(&ep.wire)
}
