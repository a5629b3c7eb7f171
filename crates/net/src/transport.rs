//! The transport seam: an object-safe [`Net`] trait with a zero-cost
//! TCP implementation.
//!
//! Mirrors the `starcdn-io` design: production code takes `&dyn Net`,
//! [`RealNet`] forwards straight to `std::net`, and the chaos wrapper
//! ([`crate::chaos::ChaosNet`]) interposes seeded faults without the
//! serving plane knowing. All connections are non-blocking: `recv`
//! returns `Ok(0)` when no bytes are available, which lets the
//! single-threaded router and shard event loops multiplex many
//! connections with plain polling (the roadmap's tokio substitution —
//! the trait boundary is where an async runtime would slot in).
//!
//! Polling needs an answer to "nothing moved — now what?", and
//! `Idle` is the one place that gives it: the router loop, the shard
//! server loop and a back-pressured TCP send all yield the processor
//! for a bounded run of empty passes before they start sleeping.

use crate::error::NetError;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// Connection factory. Implementations: [`RealNet`] (TCP),
/// [`crate::mem::MemNet`] (in-process pipes),
/// [`crate::chaos::ChaosNet`] (fault wrapper).
pub trait Net: Send + Sync {
    /// Bind a listener. `hint` is implementation-specific ("" picks a
    /// fresh address; RealNet binds `127.0.0.1:0`).
    fn listen(&self, hint: &str) -> Result<Box<dyn NetListener>, NetError>;

    /// Open a connection to a listener's address.
    fn connect(&self, addr: &str) -> Result<Box<dyn NetConn>, NetError>;
}

/// A bound, non-blocking listener.
pub trait NetListener: Send {
    /// Accept one pending connection, or `None` if nothing is waiting.
    fn accept(&mut self) -> Result<Option<Box<dyn NetConn>>, NetError>;

    /// The address peers should `connect` to.
    fn addr(&self) -> String;
}

/// One bidirectional byte-stream connection.
pub trait NetConn: Send {
    /// Send the whole buffer. May block briefly on backpressure;
    /// implementations bound that wait and fail typed rather than hang.
    fn send(&mut self, bytes: &[u8]) -> Result<(), NetError>;

    /// Non-blocking read: `Ok(0)` means no data right now,
    /// `Err(NetError::Closed)` means orderly EOF.
    fn recv(&mut self, buf: &mut [u8]) -> Result<usize, NetError>;
}

/// Empty passes an event loop answers with `yield_now` before it starts
/// sleeping. A serve is a router and its shard threads trading frames
/// every few tens of microseconds, usually on fewer hardware threads
/// than there are loops: a yield hands the core to whichever peer has
/// the reply, while a sleep's timer slack costs more than the reply
/// takes. The bound keeps a genuinely idle loop (backoff, a stalled
/// peer) from spinning for longer than about one such sleep.
const IDLE_YIELDS: u32 = 64;

/// What [`Idle::step`] decided for one pass of a polling loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum IdleStep {
    /// The pass made progress: go straight round again.
    Run,
    Yield,
    Sleep,
}

/// The idle policy every polling loop in this crate shares: progress
/// resets it, the first [`IDLE_YIELDS`] consecutive empty passes yield,
/// the ones after that sleep `nap` each. It touches no connection, so
/// [`crate::chaos::ChaosNet`]'s op index (connects and sends only) is
/// the same however often a loop idles.
pub(crate) struct Idle {
    nap: Duration,
    /// Consecutive passes without progress.
    empty: u32,
}

impl Idle {
    pub(crate) fn new(nap: Duration) -> Self {
        Idle { nap, empty: 0 }
    }

    /// Account one pass and say what should follow it.
    pub(crate) fn step(&mut self, progress: bool) -> IdleStep {
        if progress {
            self.empty = 0;
            IdleStep::Run
        } else if self.empty < IDLE_YIELDS {
            self.empty += 1;
            IdleStep::Yield
        } else {
            IdleStep::Sleep
        }
    }

    /// [`step`](Self::step), carried out.
    pub(crate) fn pass(&mut self, progress: bool) {
        match self.step(progress) {
            IdleStep::Run => {}
            IdleStep::Yield => std::thread::yield_now(),
            IdleStep::Sleep => std::thread::sleep(self.nap),
        }
    }
}

/// The zero-cost transport: loopback TCP via `std::net`.
#[derive(Debug, Default, Clone, Copy)]
pub struct RealNet;

/// Backpressure budget for one whole-buffer send before failing typed.
const SEND_STALL_BUDGET: Duration = Duration::from_secs(5);

impl Net for RealNet {
    fn listen(&self, hint: &str) -> Result<Box<dyn NetListener>, NetError> {
        let bind = if hint.is_empty() { "127.0.0.1:0" } else { hint };
        let l = TcpListener::bind(bind).map_err(NetError::from_io)?;
        l.set_nonblocking(true).map_err(NetError::from_io)?;
        let addr = l.local_addr().map_err(NetError::from_io)?.to_string();
        Ok(Box::new(TcpListenerWrap { l, addr }))
    }

    fn connect(&self, addr: &str) -> Result<Box<dyn NetConn>, NetError> {
        let s = TcpStream::connect(addr).map_err(NetError::from_io)?;
        s.set_nodelay(true).map_err(NetError::from_io)?;
        s.set_nonblocking(true).map_err(NetError::from_io)?;
        Ok(Box::new(TcpConnWrap { s }))
    }
}

struct TcpListenerWrap {
    l: TcpListener,
    addr: String,
}

impl NetListener for TcpListenerWrap {
    fn accept(&mut self) -> Result<Option<Box<dyn NetConn>>, NetError> {
        match self.l.accept() {
            Ok((s, _)) => {
                s.set_nodelay(true).map_err(NetError::from_io)?;
                s.set_nonblocking(true).map_err(NetError::from_io)?;
                Ok(Some(Box::new(TcpConnWrap { s })))
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => Ok(None),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => Ok(None),
            Err(e) => Err(NetError::from_io(e)),
        }
    }

    fn addr(&self) -> String {
        self.addr.clone()
    }
}

struct TcpConnWrap {
    s: TcpStream,
}

impl NetConn for TcpConnWrap {
    fn send(&mut self, bytes: &[u8]) -> Result<(), NetError> {
        let mut off = 0;
        let start = Instant::now();
        let mut idle = Idle::new(Duration::from_micros(100));
        while off < bytes.len() {
            match self.s.write(&bytes[off..]) {
                Ok(0) => return Err(NetError::Reset("zero-byte write")),
                Ok(n) => {
                    off += n;
                    idle.pass(true);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    if start.elapsed() > SEND_STALL_BUDGET {
                        return Err(NetError::Timeout("send backpressure"));
                    }
                    idle.pass(false);
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(NetError::from_io(e)),
            }
        }
        Ok(())
    }

    fn recv(&mut self, buf: &mut [u8]) -> Result<usize, NetError> {
        match self.s.read(buf) {
            Ok(0) => Err(NetError::Closed),
            Ok(n) => Ok(n),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => Ok(0),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => Ok(0),
            Err(e) => Err(NetError::from_io(e)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The contract, read off the helper's own decisions: a loop that
    /// keeps making progress is never told to wait; an idle one yields
    /// exactly `IDLE_YIELDS` times, then sleeps until progress resets it.
    #[test]
    fn idle_yields_a_bounded_run_then_sleeps_and_resets_on_progress() {
        let mut idle = Idle::new(Duration::from_micros(100));
        for _ in 0..10 * IDLE_YIELDS {
            assert_eq!(idle.step(true), IdleStep::Run);
        }
        for round in 0..3 {
            for pass in 0..IDLE_YIELDS {
                assert_eq!(idle.step(false), IdleStep::Yield, "round {round}, pass {pass}");
            }
            for _ in 0..5 {
                assert_eq!(idle.step(false), IdleStep::Sleep, "round {round}");
            }
            assert_eq!(idle.step(true), IdleStep::Run);
        }
        // Progress one pass short of the bound starts the run over.
        for _ in 0..IDLE_YIELDS - 1 {
            assert_eq!(idle.step(false), IdleStep::Yield);
        }
        assert_eq!(idle.step(true), IdleStep::Run);
        assert_eq!(idle.step(false), IdleStep::Yield);
    }
}
