//! The shard server: one event loop owning one shard's cache state.
//!
//! A shard server accepts connections from the front-door router,
//! validates the plan fingerprint on handshake, applies `Ops` batches
//! in sequence through [`ShardState::apply_batch`], and acks
//! cumulatively. Reconnects are first-class: a fresh `Hello` gets the
//! current resync point (`HelloAck { next }`), duplicate frames from
//! retries or chaos duplication are acked-and-dropped, and `SkipTo`
//! advances past batches the router chose to serve from the origin
//! instead. `Drain` returns the accumulated metrics; `Shutdown` (or the
//! shared stop flag, the in-process supervisor's teardown path) ends
//! the loop.
//!
//! Per-connection failures never kill the shard: a bad fingerprint, a
//! torn frame, or a hostile payload sends a best-effort `Error` frame
//! and drops that one connection — robustness to one bad peer or one
//! chaos-torn stream must not take the serving state down.
//!
//! Single-threaded and non-blocking throughout: the loop polls its
//! listener and every live connection, and a full pass that made no
//! progress goes to the shared [`Idle`] policy (yield first, sleep
//! later).
//!
//! A batch's bytes are read once and checksummed once: each connection
//! receives straight into its codec's buffer, the decoded `Ops` payload
//! is a slice of that buffer, and [`ShardState::apply_batch`] decodes
//! the ops out of the slice — no owned copy of the payload exists on
//! this side. Replies are framed into one scratch buffer per connection.

use crate::frame::{code, FrameCodec, FrameRef, MAX_FRAME_LEN};
use crate::transport::{Idle, NetConn, NetListener};
use starcdn_sim::ShardState;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// What one shard server did, returned when its loop exits.
#[derive(Debug, Default, Clone, Copy)]
pub struct ShardServerStats {
    /// Batches applied to the cache state.
    pub applied: u64,
    /// Batches skipped via `SkipTo`.
    pub skipped: u64,
    /// Duplicate `Ops` frames dropped by sequence dedup.
    pub duplicates: u64,
    /// Connections accepted over the server's lifetime.
    pub accepted: u64,
}

struct SrvConn {
    codec: FrameCodec,
    peer: Peer,
}

/// The sending half of a connection — apart from the codec, so a reply
/// can go out while a decoded frame still borrows the codec's buffer.
struct Peer {
    conn: Box<dyn NetConn>,
    greeted: bool,
    /// Every reply is framed here.
    wire: Vec<u8>,
}

impl Peer {
    /// Frame `f` and send it. A reply that fails to send means the
    /// connection is gone; dropping it is the whole remedy (the router
    /// resyncs on reconnect).
    fn answer(&mut self, f: FrameRef<'_>) -> Action {
        self.wire.clear();
        f.encode_into(&mut self.wire);
        if self.conn.send(&self.wire).is_ok() {
            Action::Keep
        } else {
            Action::Drop
        }
    }

    /// Best-effort `Error` frame ahead of dropping the connection.
    fn refuse(&mut self, code: u16, msg: &str) -> Action {
        self.answer(FrameRef::Error { code, msg: msg.as_bytes() });
        Action::Drop
    }
}

/// What to do with a connection after handling one frame.
enum Action {
    Keep,
    Drop,
    Shutdown,
}

/// Run one shard server until `Shutdown` arrives or `stop` is set.
/// Returns the final cache state alongside the stats so in-process
/// supervisors can inspect it after a teardown without a drain.
pub fn run_shard_server(
    mut listener: Box<dyn NetListener>,
    mut state: ShardState,
    shard: u32,
    fingerprint: u64,
    stop: Arc<AtomicBool>,
) -> (ShardServerStats, ShardState) {
    let mut stats = ShardServerStats::default();
    let mut conns: Vec<SrvConn> = Vec::new();
    let mut next: u64 = 0;
    let mut idle = Idle::new(Duration::from_micros(200));
    while !stop.load(Ordering::Relaxed) {
        let mut progress = false;
        match listener.accept() {
            Ok(Some(conn)) => {
                stats.accepted += 1;
                let peer = Peer { conn, greeted: false, wire: Vec::new() };
                conns.push(SrvConn { codec: FrameCodec::new(), peer });
                progress = true;
            }
            Ok(None) => {}
            // A dead listener is unrecoverable: exit; the supervisor
            // notices the missing drain and fails typed on its side.
            Err(_) => break,
        }
        let mut shutdown = false;
        let mut i = 0;
        while i < conns.len() {
            let (moved, action) =
                pump_conn(&mut conns[i], &mut state, shard, fingerprint, &mut next, &mut stats);
            progress |= moved;
            match action {
                Action::Keep => i += 1,
                Action::Drop => {
                    conns.swap_remove(i);
                }
                Action::Shutdown => {
                    shutdown = true;
                    break;
                }
            }
        }
        if shutdown {
            break;
        }
        idle.pass(progress);
    }
    (stats, state)
}

/// Read whatever is available on one connection and handle every
/// complete frame. Returns whether any byte or frame moved, and the
/// connection's fate.
fn pump_conn(
    sc: &mut SrvConn,
    state: &mut ShardState,
    shard: u32,
    fingerprint: u64,
    next: &mut u64,
    stats: &mut ShardServerStats,
) -> (bool, Action) {
    let SrvConn { codec, peer } = sc;
    let mut progress = false;
    loop {
        match codec.recv_from(peer.conn.as_mut()) {
            Ok(0) => break,
            Ok(_) => progress = true,
            // EOF or reset: the router went away (or chaos killed the
            // stream); it will reconnect and resync via Hello.
            Err(_) => return (progress, Action::Drop),
        }
    }
    loop {
        let frame = match codec.next_frame_ref() {
            Ok(Some(f)) => f,
            Ok(None) => break,
            // Torn/hostile stream: framing is unrecoverable on this
            // connection. Tell the peer (best effort) and drop.
            Err(e) => return (progress, peer.refuse(code::UNEXPECTED, &e.to_string())),
        };
        progress = true;
        match handle_frame(frame, peer, state, shard, fingerprint, next, stats) {
            Action::Keep => {}
            fate => return (progress, fate),
        }
    }
    (progress, Action::Keep)
}

fn handle_frame(
    frame: FrameRef<'_>,
    peer: &mut Peer,
    state: &mut ShardState,
    shard: u32,
    fingerprint: u64,
    next: &mut u64,
    stats: &mut ShardServerStats,
) -> Action {
    match frame {
        FrameRef::Hello { shard: s, fingerprint: f } => {
            if s != shard || f != fingerprint {
                return peer.refuse(code::BAD_HANDSHAKE, "wrong shard or plan");
            }
            peer.greeted = true;
            peer.answer(FrameRef::HelloAck { next: *next })
        }
        FrameRef::Ops { seq, payload } => {
            if !peer.greeted {
                return peer.refuse(code::UNEXPECTED, "ops before hello");
            }
            if seq < *next {
                // Retry or chaos duplicate of an applied batch: count it,
                // ack where we are, move on.
                stats.duplicates += 1;
            } else if seq == *next {
                match state.apply_batch(payload) {
                    Ok(_) => {
                        stats.applied += 1;
                        *next += 1;
                    }
                    Err(e) => return peer.refuse(code::BAD_PAYLOAD, &e.to_string()),
                }
            }
            // seq > next is a gap (a swallowed frame): fall through — the
            // cumulative ack below doubles as a NAK telling the router
            // where to resume.
            peer.answer(FrameRef::Ack { next: *next })
        }
        FrameRef::SkipTo { next: target } => {
            if target > *next {
                stats.skipped += target - *next;
                *next = target;
            }
            peer.answer(FrameRef::Ack { next: *next })
        }
        FrameRef::Ping { nonce } => peer.answer(FrameRef::Pong { nonce }),
        FrameRef::Drain => {
            let payload = state.drain_bytes();
            if !drain_fits(&payload) {
                return peer.refuse(code::DRAIN_TOO_LARGE, "drain exceeds the frame cap");
            }
            peer.answer(FrameRef::DrainAck { payload: &payload })
        }
        FrameRef::Shutdown => Action::Shutdown,
        FrameRef::Error { .. } => Action::Drop,
        FrameRef::HelloAck { .. }
        | FrameRef::Ack { .. }
        | FrameRef::Pong { .. }
        | FrameRef::DrainAck { .. } => peer.refuse(code::UNEXPECTED, "client-only frame"),
    }
}

/// Whether a drain payload makes a frame the router's decoder accepts.
/// One that does not is answered with `DRAIN_TOO_LARGE` instead: the
/// payload only grows, so a resend could never cure it.
fn drain_fits(payload: &[u8]) -> bool {
    FrameRef::DrainAck { payload }.wire_len() <= MAX_FRAME_LEN as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::Frame;

    #[test]
    fn drain_size_check_agrees_with_the_decoder() {
        // The length prefix counts kind + payload + CRC.
        let mut payload = vec![0u8; MAX_FRAME_LEN as usize - 5];
        assert!(drain_fits(&payload));
        let mut codec = FrameCodec::new();
        codec.push(&Frame::DrainAck { payload: payload.clone() }.encode());
        assert!(matches!(codec.next_frame_ref(), Ok(Some(FrameRef::DrainAck { .. }))));
        payload.push(0);
        assert!(!drain_fits(&payload));
        let mut codec = FrameCodec::new();
        codec.push(&Frame::DrainAck { payload }.encode());
        assert!(matches!(codec.next_frame_ref(), Err(crate::NetError::FrameTooLarge(_))));
    }
}
