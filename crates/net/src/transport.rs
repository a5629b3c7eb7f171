//! The transport seam: an object-safe [`Net`] trait with a zero-cost
//! TCP implementation.
//!
//! Mirrors the `starcdn-io` design: production code takes `&dyn Net`,
//! [`RealNet`] forwards straight to `std::net`, and the chaos wrapper
//! ([`crate::chaos::ChaosNet`]) interposes seeded faults without the
//! serving plane knowing. All connections are non-blocking: `recv`
//! returns `Ok(0)` when no bytes are available, which lets the
//! single-threaded router and shard event loops multiplex many
//! connections (the roadmap's tokio substitution — the trait boundary
//! is where an async runtime would slot in).
//!
//! A loop that made no progress does not spin or yield: it blocks in
//! [`NetConn::wait`] on one of its connections, bounded by a timeout,
//! so the kernel (or `MemNet`'s condition variable) wakes it when that
//! peer writes or closes. A serve is a router and its shard
//! threads on usually fewer hardware threads than there are loops, and
//! a waiting loop leaves its core to the peer that has the work.

use crate::error::NetError;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

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

    /// Block until a `recv` may have something to say (bytes arrived,
    /// or the peer closed) or until `timeout` passes, whichever is
    /// first. It may return early; the next `recv` tells. An error
    /// means the connection is unusable.
    fn wait(&mut self, timeout: Duration) -> Result<(), NetError>;
}

/// The zero-cost transport: loopback TCP via `std::net`.
#[derive(Debug, Default, Clone, Copy)]
pub struct RealNet;

/// How long a back-pressured send blocks for room before failing typed.
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
        TcpConnWrap::boxed(s)
    }
}

struct TcpListenerWrap {
    l: TcpListener,
    addr: String,
}

impl NetListener for TcpListenerWrap {
    fn accept(&mut self) -> Result<Option<Box<dyn NetConn>>, NetError> {
        match self.l.accept() {
            Ok((s, _)) => TcpConnWrap::boxed(s).map(Some),
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

impl TcpConnWrap {
    fn boxed(s: TcpStream) -> Result<Box<dyn NetConn>, NetError> {
        s.set_nodelay(true).map_err(NetError::from_io)?;
        // Only a blocking write reads it: see `send`.
        s.set_write_timeout(Some(SEND_STALL_BUDGET)).map_err(NetError::from_io)?;
        s.set_nonblocking(true).map_err(NetError::from_io)?;
        Ok(Box::new(TcpConnWrap { s }))
    }

    /// Run `f` with the socket switched to blocking, then switch it back.
    fn blocking<T>(&mut self, f: impl FnOnce(&mut TcpStream) -> T) -> Result<T, NetError> {
        self.s.set_nonblocking(false).map_err(NetError::from_io)?;
        let out = f(&mut self.s);
        self.s.set_nonblocking(true).map_err(NetError::from_io)?;
        Ok(out)
    }
}

impl NetConn for TcpConnWrap {
    fn send(&mut self, bytes: &[u8]) -> Result<(), NetError> {
        let mut off = 0;
        while off < bytes.len() {
            match self.s.write(&bytes[off..]) {
                Ok(0) => return Err(NetError::Reset("zero-byte write")),
                Ok(n) => off += n,
                // Backpressure: finish the write blocking, each stalled
                // write bounded by `SEND_STALL_BUDGET`.
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    let rest = &bytes[off..];
                    return self.blocking(|s| s.write_all(rest))?.map_err(|e| match e.kind() {
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => {
                            NetError::Timeout("send backpressure")
                        }
                        _ => NetError::from_io(e),
                    });
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

    /// One blocking `peek` under `SO_RCVTIMEO`: it returns when a byte or
    /// the peer's FIN arrives, or with `EAGAIN` when the timeout passes.
    /// Whatever it returns, the next `recv` reads the truth.
    fn wait(&mut self, timeout: Duration) -> Result<(), NetError> {
        if timeout.is_zero() {
            return Ok(());
        }
        self.s.set_read_timeout(Some(timeout)).map_err(NetError::from_io)?;
        self.blocking(|s| {
            let _ = s.peek(&mut [0u8; 1]);
        })
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::time::Instant;

    /// `wait` ends well before its timeout when the peer sends or
    /// closes, at once while bytes or the close are unread, and only
    /// after its timeout when nothing arrives.
    pub(crate) fn wait_contract(net: &dyn Net) {
        let mut l = net.listen("").unwrap();
        let mut c = net.connect(&l.addr()).unwrap();
        let mut s = loop {
            if let Some(s) = l.accept().unwrap() {
                break s;
            }
        };
        let long = Duration::from_secs(10);
        let quick = |c: &mut Box<dyn NetConn>, what: &str| {
            let started = Instant::now();
            c.wait(long).unwrap();
            assert!(started.elapsed() < long / 2, "{what} did not end the wait");
        };

        let started = Instant::now();
        c.wait(Duration::from_millis(30)).unwrap();
        assert!(started.elapsed() >= Duration::from_millis(30), "returned before its timeout");

        let sender = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            s.send(b"x").unwrap();
            s
        });
        quick(&mut c, "a send");
        let s = sender.join().unwrap();
        quick(&mut c, "an unread byte");
        let mut buf = [0u8; 4];
        assert_eq!(c.recv(&mut buf).unwrap(), 1);

        let closer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            drop(s);
        });
        quick(&mut c, "a close");
        closer.join().unwrap();
        quick(&mut c, "an unread close");
        assert!(matches!(c.recv(&mut buf), Err(NetError::Closed)));
    }

    #[test]
    fn wait_wakes_on_send_and_close_and_times_out_otherwise() {
        wait_contract(&RealNet);
    }
}
