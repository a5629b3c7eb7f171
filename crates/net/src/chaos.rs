//! Seeded network-fault injection behind the [`Net`] seam.
//!
//! Mirrors `starcdn_io::FaultyIo`: wrap any transport in [`ChaosNet`]
//! and every fault decision becomes a pure function of
//! `(seed, op_index)` — no RNG state, no time dependence — so a failing
//! schedule replays exactly from its seed. The op index advances only on
//! *decision points*: each `connect` and each `send`. Reads and idle
//! polls never consume an index, so the schedule is stable no matter how
//! often the router polls or how the loopback scheduler interleaves.
//!
//! Fault kinds model the LEO serving plane's observed failure modes
//! (connection loss and stalls are routine on satellite paths):
//!
//! * [`FaultKind::ConnectRefused`] — the dial fails typed.
//! * [`FaultKind::Disconnect`] — the connection dies mid-stream: this
//!   send fails, every later op on the connection fails.
//! * [`FaultKind::PartialFrame`] — the first half of this send is
//!   delivered and reported as success; the receiver handles the frames
//!   that arrived whole, its codec detects the torn one (CRC/desync) or
//!   the EOF behind it, and it drops the connection.
//! * [`FaultKind::Stall`] — the connection black-holes: this send and
//!   everything after it is silently swallowed and reads return no
//!   data, so only the router's deadline can detect it.
//! * [`FaultKind::Duplicate`] — the send is delivered twice; the
//!   shard's sequence dedup must absorb every frame of the copy.
//!
//! A router send carries every `Ops` frame its window admits, so one
//! decision covers up to a window of frames: a sweep's fault count
//! follows the number of writes, not of frames.
//!
//! Only the *dialing* side is wrapped: `listen` passes through, faults
//! are injected on router-originated connections, which keeps one op
//! counter authoritative for the whole schedule.

use crate::error::NetError;
use crate::transport::{Net, NetConn, NetListener};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One injectable network fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    ConnectRefused,
    Disconnect,
    PartialFrame,
    Stall,
    Duplicate,
}

impl FaultKind {
    pub const ALL: [FaultKind; 5] = [
        FaultKind::ConnectRefused,
        FaultKind::Disconnect,
        FaultKind::PartialFrame,
        FaultKind::Stall,
        FaultKind::Duplicate,
    ];
}

/// Deterministic fault schedule: which ops fault, and how.
#[derive(Debug, Clone)]
pub struct ChaosPlan {
    /// Schedule seed; two runs with equal seeds make equal decisions.
    pub seed: u64,
    /// Kinds eligible for injection (empty = no faults).
    pub kinds: Vec<FaultKind>,
    /// One op in `denom` faults (0 behaves as "never").
    pub denom: u64,
    /// Stop injecting after this many faults (`u64::MAX` = unbounded).
    pub max_faults: u64,
}

impl ChaosPlan {
    /// No faults at all: the wrapper becomes a pass-through.
    #[cfg(test)]
    pub(crate) fn none() -> Self {
        ChaosPlan { seed: 0, kinds: Vec::new(), denom: 0, max_faults: 0 }
    }

    /// Every kind eligible, one op in `denom` faulting.
    pub fn all(seed: u64, denom: u64) -> Self {
        ChaosPlan { seed, kinds: FaultKind::ALL.to_vec(), denom, max_faults: u64::MAX }
    }

    /// The pure decision function: would op `op_index` fault, and how?
    /// Ignores `max_faults` (that is runtime state, not schedule).
    pub(crate) fn decide(&self, op_index: u64) -> Option<FaultKind> {
        if self.kinds.is_empty() || self.denom == 0 {
            return None;
        }
        let r = splitmix64(self.seed ^ splitmix64(op_index));
        if !r.is_multiple_of(self.denom) {
            return None;
        }
        Some(self.kinds[((r >> 33) as usize) % self.kinds.len()])
    }
}

/// SplitMix64: the same full-avalanche mixer `starcdn-io` uses, so one
/// seed discipline covers both fault planes. Also the router's jitter
/// source — backoff stays deterministic in (plan, shard, attempt).
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Counters for one chaos run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ChaosStats {
    pub ops: u64,
    pub injected: u64,
    pub connect_refused: u64,
    pub disconnects: u64,
    pub partial_frames: u64,
    pub stalls: u64,
    pub duplicates: u64,
}

#[derive(Default)]
struct Shared {
    op: AtomicU64,
    injected: AtomicU64,
    connect_refused: AtomicU64,
    disconnects: AtomicU64,
    partial_frames: AtomicU64,
    stalls: AtomicU64,
    duplicates: AtomicU64,
}

impl Shared {
    fn count(&self, kind: FaultKind) {
        self.injected.fetch_add(1, Ordering::Relaxed);
        let c = match kind {
            FaultKind::ConnectRefused => &self.connect_refused,
            FaultKind::Disconnect => &self.disconnects,
            FaultKind::PartialFrame => &self.partial_frames,
            FaultKind::Stall => &self.stalls,
            FaultKind::Duplicate => &self.duplicates,
        };
        c.fetch_add(1, Ordering::Relaxed);
    }
}

/// A [`Net`] that injects the plan's faults into dialed connections.
pub struct ChaosNet {
    inner: Box<dyn Net>,
    plan: ChaosPlan,
    shared: Arc<Shared>,
}

impl ChaosNet {
    pub fn new(inner: Box<dyn Net>, plan: ChaosPlan) -> Self {
        ChaosNet { inner, plan, shared: Arc::new(Shared::default()) }
    }

    pub fn stats(&self) -> ChaosStats {
        ChaosStats {
            ops: self.shared.op.load(Ordering::Relaxed),
            injected: self.shared.injected.load(Ordering::Relaxed),
            connect_refused: self.shared.connect_refused.load(Ordering::Relaxed),
            disconnects: self.shared.disconnects.load(Ordering::Relaxed),
            partial_frames: self.shared.partial_frames.load(Ordering::Relaxed),
            stalls: self.shared.stalls.load(Ordering::Relaxed),
            duplicates: self.shared.duplicates.load(Ordering::Relaxed),
        }
    }

    /// Decide the fault (if any) for the next op index, honoring the
    /// runtime `max_faults` budget.
    fn next_decision(&self) -> Option<FaultKind> {
        let op = self.shared.op.fetch_add(1, Ordering::Relaxed);
        let kind = self.plan.decide(op)?;
        if self.shared.injected.load(Ordering::Relaxed) >= self.plan.max_faults {
            return None;
        }
        self.shared.count(kind);
        Some(kind)
    }
}

impl Net for ChaosNet {
    fn listen(&self, hint: &str) -> Result<Box<dyn NetListener>, NetError> {
        // Server side is never wrapped: faults belong to the dialing
        // router, which owns the op schedule.
        self.inner.listen(hint)
    }

    fn connect(&self, addr: &str) -> Result<Box<dyn NetConn>, NetError> {
        if self.next_decision() == Some(FaultKind::ConnectRefused) {
            return Err(NetError::Refused(format!("chaos: {addr}")));
        }
        let inner = self.inner.connect(addr)?;
        Ok(Box::new(ChaosConn {
            inner,
            plan: self.plan.clone(),
            shared: Arc::clone(&self.shared),
            state: ConnState::Live,
        }))
    }
}

#[derive(PartialEq, Eq, Clone, Copy)]
enum ConnState {
    Live,
    /// Black hole: sends swallowed, reads return nothing, forever.
    Stalled,
    /// Reset: every further op fails.
    Dead,
}

struct ChaosConn {
    inner: Box<dyn NetConn>,
    plan: ChaosPlan,
    shared: Arc<Shared>,
    state: ConnState,
}

impl ChaosConn {
    fn next_decision(&self) -> Option<FaultKind> {
        let op = self.shared.op.fetch_add(1, Ordering::Relaxed);
        let kind = self.plan.decide(op)?;
        if self.shared.injected.load(Ordering::Relaxed) >= self.plan.max_faults {
            return None;
        }
        self.shared.count(kind);
        Some(kind)
    }
}

impl NetConn for ChaosConn {
    fn send(&mut self, bytes: &[u8]) -> Result<(), NetError> {
        match self.state {
            ConnState::Stalled => return Ok(()),
            ConnState::Dead => return Err(NetError::Reset("chaos: dead connection")),
            ConnState::Live => {}
        }
        match self.next_decision() {
            Some(FaultKind::Disconnect) => {
                self.state = ConnState::Dead;
                Err(NetError::Reset("chaos: disconnect"))
            }
            Some(FaultKind::PartialFrame) => {
                // Deliver a torn prefix and claim success: the receiver's
                // CRC/framing must catch it.
                self.inner.send(&bytes[..bytes.len() / 2])?;
                self.state = ConnState::Dead;
                Ok(())
            }
            Some(FaultKind::Stall) => {
                self.state = ConnState::Stalled;
                Ok(())
            }
            Some(FaultKind::Duplicate) => {
                self.inner.send(bytes)?;
                self.inner.send(bytes)
            }
            Some(FaultKind::ConnectRefused) | None => self.inner.send(bytes),
        }
    }

    fn recv(&mut self, buf: &mut [u8]) -> Result<usize, NetError> {
        match self.state {
            ConnState::Stalled => Ok(0),
            ConnState::Dead => Err(NetError::Reset("chaos: dead connection")),
            ConnState::Live => self.inner.recv(buf),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_pure_in_seed_and_index() {
        let plan = ChaosPlan::all(0xDEAD_BEEF, 7);
        let a: Vec<_> = (0..10_000).map(|i| plan.decide(i)).collect();
        let b: Vec<_> = (0..10_000).map(|i| plan.decide(i)).collect();
        assert_eq!(a, b);
        let other = ChaosPlan::all(0xDEAD_BEF0, 7);
        let c: Vec<_> = (0..10_000).map(|i| other.decide(i)).collect();
        assert_ne!(a, c, "different seed, different schedule");
        assert!(a.iter().any(Option::is_some), "some ops fault");
        assert!(a.iter().any(Option::is_none), "some ops pass");
    }

    #[test]
    fn none_plan_never_faults() {
        let plan = ChaosPlan::none();
        assert!((0..10_000).all(|i| plan.decide(i).is_none()));
    }
}
