//! In-process transport: paired byte queues behind the [`Net`] trait.
//!
//! Used by the chaos sweep, where hundreds of seeded runs must be fast
//! and deterministic-ish without exhausting ephemeral ports. Semantics
//! match [`RealNet`](crate::transport::RealNet): non-blocking reads,
//! orderly close on drop, connect to a dropped listener refuses, and a
//! `wait` that a write or a close into the pipe ends (a condition
//! variable the writer and the closer notify).

use crate::error::NetError;
use crate::transport::{Net, NetConn, NetListener};
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

#[derive(Default)]
struct Registry {
    next_addr: u64,
    /// Pending server-side connections per live listener address.
    pending: HashMap<String, VecDeque<MemConn>>,
}

/// The in-memory connection fabric. Cloning shares the address space.
#[derive(Clone, Default)]
pub struct MemNet {
    reg: Arc<Mutex<Registry>>,
}

impl MemNet {
    pub fn new() -> Self {
        Self::default()
    }
}

#[derive(Default)]
struct Pipe {
    buf: VecDeque<u8>,
    closed: bool,
}

/// One direction of a connection: its bytes, and the condition variable
/// its reader waits on.
#[derive(Default)]
struct PipeEnd {
    pipe: Mutex<Pipe>,
    ready: Condvar,
}

impl PipeEnd {
    fn lock(&self) -> MutexGuard<'_, Pipe> {
        self.pipe.lock().expect("pipe lock")
    }

    fn close(&self) {
        self.lock().closed = true;
        self.ready.notify_all();
    }
}

type Shared = Arc<PipeEnd>;

fn pipe() -> Shared {
    Arc::default()
}

struct MemConn {
    rx: Shared,
    tx: Shared,
}

impl Drop for MemConn {
    fn drop(&mut self) {
        // Orderly close: the peer drains buffered bytes, then sees EOF.
        self.rx.close();
        self.tx.close();
    }
}

impl NetConn for MemConn {
    fn send(&mut self, bytes: &[u8]) -> Result<(), NetError> {
        let mut p = self.tx.lock();
        if p.closed {
            return Err(NetError::Reset("peer gone"));
        }
        p.buf.extend(bytes);
        drop(p);
        self.tx.ready.notify_all();
        Ok(())
    }

    fn recv(&mut self, buf: &mut [u8]) -> Result<usize, NetError> {
        let mut p = self.rx.lock();
        if p.buf.is_empty() {
            return if p.closed { Err(NetError::Closed) } else { Ok(0) };
        }
        let n = p.buf.len().min(buf.len());
        let (head, tail) = p.buf.as_slices();
        let h = head.len().min(n);
        buf[..h].copy_from_slice(&head[..h]);
        buf[h..n].copy_from_slice(&tail[..n - h]);
        p.buf.drain(..n);
        Ok(n)
    }

    fn wait(&mut self, timeout: Duration) -> Result<(), NetError> {
        let until = Instant::now() + timeout;
        let mut p = self.rx.lock();
        while p.buf.is_empty() && !p.closed {
            let left = until.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break;
            }
            p = self.rx.ready.wait_timeout(p, left).expect("pipe lock").0;
        }
        Ok(())
    }
}

struct MemListener {
    addr: String,
    reg: Arc<Mutex<Registry>>,
}

impl Drop for MemListener {
    fn drop(&mut self) {
        self.reg.lock().expect("registry lock").pending.remove(&self.addr);
    }
}

impl NetListener for MemListener {
    fn accept(&mut self) -> Result<Option<Box<dyn NetConn>>, NetError> {
        let mut reg = self.reg.lock().expect("registry lock");
        let q = reg.pending.get_mut(&self.addr).ok_or_else(|| NetError::Addr(self.addr.clone()))?;
        Ok(q.pop_front().map(|c| Box::new(c) as Box<dyn NetConn>))
    }

    fn addr(&self) -> String {
        self.addr.clone()
    }
}

impl Net for MemNet {
    fn listen(&self, hint: &str) -> Result<Box<dyn NetListener>, NetError> {
        let mut reg = self.reg.lock().expect("registry lock");
        let addr = if hint.is_empty() {
            reg.next_addr += 1;
            format!("mem:{}", reg.next_addr)
        } else {
            hint.to_string()
        };
        if reg.pending.contains_key(&addr) {
            return Err(NetError::Addr(format!("{addr} already bound")));
        }
        reg.pending.insert(addr.clone(), VecDeque::new());
        Ok(Box::new(MemListener { addr, reg: Arc::clone(&self.reg) }))
    }

    fn connect(&self, addr: &str) -> Result<Box<dyn NetConn>, NetError> {
        let mut reg = self.reg.lock().expect("registry lock");
        let Some(q) = reg.pending.get_mut(addr) else {
            return Err(NetError::Refused(addr.to_string()));
        };
        let a = pipe();
        let b = pipe();
        let client = MemConn { rx: Arc::clone(&a), tx: Arc::clone(&b) };
        let server = MemConn { rx: b, tx: a };
        q.push_back(server);
        Ok(Box::new(client))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_and_close_semantics() {
        let net = MemNet::new();
        let mut l = net.listen("").unwrap();
        let mut c = net.connect(&l.addr()).unwrap();
        let mut s = l.accept().unwrap().expect("pending conn");
        assert!(l.accept().unwrap().is_none());
        c.send(b"hello").unwrap();
        let mut buf = [0u8; 16];
        assert_eq!(s.recv(&mut buf).unwrap(), 5);
        assert_eq!(&buf[..5], b"hello");
        assert_eq!(s.recv(&mut buf).unwrap(), 0, "drained pipe would-blocks");
        s.send(b"hi").unwrap();
        drop(s);
        // Buffered bytes still readable, then EOF.
        assert_eq!(c.recv(&mut buf).unwrap(), 2);
        assert!(matches!(c.recv(&mut buf), Err(NetError::Closed)));
        assert!(matches!(c.send(b"x"), Err(NetError::Reset(_))));
    }

    #[test]
    fn wait_wakes_on_send_and_close_and_times_out_otherwise() {
        crate::transport::tests::wait_contract(&MemNet::new());
    }

    #[test]
    fn connect_without_listener_refused() {
        let net = MemNet::new();
        assert!(matches!(net.connect("mem:999"), Err(NetError::Refused(_))));
        let l = net.listen("").unwrap();
        let addr = l.addr();
        drop(l);
        assert!(matches!(net.connect(&addr), Err(NetError::Refused(_))));
    }
}
