//! The shard server: one event loop owning one shard's cache state.
//!
//! A shard server accepts connections from the front-door router,
//! validates the plan fingerprint on handshake, applies `Ops` batches
//! in sequence through [`ShardState::apply_batch`], and acks
//! cumulatively. Reconnects are first-class: a fresh `Hello` gets the
//! current resync point (`HelloAck { next }`), and duplicate frames
//! from retries or chaos duplication are acked-and-dropped. `Drain`
//! returns the accumulated metrics; `Shutdown` (or the
//! shared stop flag, the in-process supervisor's teardown path) ends
//! the loop.
//!
//! Per-connection failures never kill the shard: a bad fingerprint, a
//! torn frame, or a hostile payload sends a best-effort `Error` frame
//! and drops that one connection — robustness to one bad peer or one
//! chaos-torn stream must not take the serving state down. Frames that
//! arrived whole ahead of a torn one or an EOF are still handled.
//!
//! Single-threaded and non-blocking throughout: the loop polls its
//! listener and every live connection, and after a full pass that made
//! no progress it blocks on its newest connection until the router
//! writes or closes, at most `WAIT_CAP` (without a connection it
//! sleeps that long).
//!
//! A batch's bytes are read once and checksummed once: each connection
//! receives straight into its codec's buffer, the decoded `Ops` payload
//! is a slice of that buffer, and [`ShardState::apply_batch`] decodes
//! the ops out of the slice — no owned copy of the payload exists on
//! this side.
//!
//! One write answers a receive pass. The router frames a whole window
//! of `Ops` into one write, so one pass usually holds several frames:
//! every `Ops` in it (a duplicate or a gap included) owes
//! the one cumulative `Ack { next }` the pass sends at its end, and any
//! other reply is framed behind the owed ack in the same buffer, so
//! replies keep the order of the frames they answer. A pass that has
//! applied `ACK_EVERY` batches acks at once, mid-pass, so the router
//! can refill its window while the rest of the pass is applied.

use crate::frame::{code, FrameCodec, FrameRef, MAX_FRAME_LEN};
use crate::transport::{NetConn, NetListener};
use starcdn_sim::ShardState;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// What one shard server did, returned when its loop exits.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct ShardServerStats {
    /// Batches applied to the cache state.
    pub(crate) applied: u64,
    /// Duplicate `Ops` frames dropped by sequence dedup.
    pub(crate) duplicates: u64,
    /// Connections accepted over the server's lifetime.
    pub(crate) accepted: u64,
}

/// Batches applied since the last ack after which a receive pass acks
/// at once instead of at its end: half the router's default window, so
/// it refills one half while the shard applies the other. Acking only at
/// the end of a pass leaves the router idle while the shard applies a
/// whole window, and then the shard idle while the router frames the
/// next; acking every batch spends a write per batch again.
const ACK_EVERY: u32 = 4;

/// Longest an idle shard server blocks on its connection, or sleeps
/// without one: how late it can notice a new connection or its stop
/// flag (everything the router writes or a close ends the wait at once).
const WAIT_CAP: Duration = Duration::from_millis(1);

struct SrvConn {
    codec: FrameCodec,
    peer: Peer,
}

/// The sending half of a connection — apart from the codec, so a reply
/// can be framed while a decoded frame still borrows the codec's buffer.
struct Peer {
    conn: Box<dyn NetConn>,
    greeted: bool,
    /// This pass's replies, framed back to back and sent in one write.
    wire: Vec<u8>,
    /// The cumulative ack an `Ops` of this pass owes.
    owed: Option<u64>,
    /// Batches applied since the last ack was framed.
    unacked: u32,
}

impl Peer {
    /// Frame `f` behind the ack the pass owes, if any.
    fn answer(&mut self, f: FrameRef<'_>) {
        self.frame_owed_ack();
        f.encode_into(&mut self.wire);
    }

    /// Owe the cumulative ack `next`; send everything framed so far once
    /// [`ACK_EVERY`] batches have gone unacked.
    fn ack(&mut self, next: u64, applied: bool) -> Action {
        self.owed = Some(next);
        self.unacked += u32::from(applied);
        if self.unacked >= ACK_EVERY {
            self.flush()
        } else {
            Action::Keep
        }
    }

    fn frame_owed_ack(&mut self) {
        if let Some(next) = self.owed.take() {
            FrameRef::Ack { next }.encode_into(&mut self.wire);
            self.unacked = 0;
        }
    }

    /// Send the owed ack and every framed reply in one write. A write
    /// that fails means the connection is gone; dropping it is the whole
    /// remedy (the router resyncs on reconnect).
    fn flush(&mut self) -> Action {
        self.frame_owed_ack();
        if self.wire.is_empty() {
            return Action::Keep;
        }
        let sent = self.conn.send(&self.wire);
        self.wire.clear();
        if sent.is_ok() {
            Action::Keep
        } else {
            Action::Drop
        }
    }

    /// Best-effort `Error` frame ahead of dropping the connection.
    fn refuse(&mut self, code: u16, msg: &str) -> Action {
        self.answer(FrameRef::Error { code, msg: msg.as_bytes() });
        self.flush();
        Action::Drop
    }
}

/// What to do with a connection after handling one frame.
#[derive(PartialEq, Eq)]
enum Action {
    Keep,
    Drop,
    Shutdown,
}

/// Run one shard server until `Shutdown` arrives or `stop` is set.
/// Returns the final cache state alongside the stats so in-process
/// supervisors can inspect it after a teardown without a drain.
pub(crate) fn run_shard_server(
    mut listener: Box<dyn NetListener>,
    mut state: ShardState,
    shard: u32,
    fingerprint: u64,
    stop: Arc<AtomicBool>,
) -> (ShardServerStats, ShardState) {
    let mut stats = ShardServerStats::default();
    let mut conns: Vec<SrvConn> = Vec::new();
    let mut next: u64 = 0;
    while !stop.load(Ordering::Relaxed) {
        let mut progress = false;
        match listener.accept() {
            Ok(Some(conn)) => {
                stats.accepted += 1;
                let peer = Peer { conn, greeted: false, wire: Vec::new(), owed: None, unacked: 0 };
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
        if !progress {
            match conns.last_mut() {
                Some(sc) => {
                    if sc.peer.conn.wait(WAIT_CAP).is_err() {
                        conns.pop();
                    }
                }
                None => std::thread::sleep(WAIT_CAP),
            }
        }
    }
    (stats, state)
}

/// Read whatever is available on one connection, handle every complete
/// frame, and answer them in one write. Returns whether any byte or
/// frame moved, and the connection's fate.
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
    // EOF or reset: the router went away (or chaos killed the stream);
    // it will reconnect and resync via Hello. What arrived whole before
    // that is still handled.
    let mut gone = false;
    loop {
        match codec.recv_from(peer.conn.as_mut()) {
            Ok(0) => break,
            Ok(_) => progress = true,
            Err(_) => {
                gone = true;
                break;
            }
        }
    }
    let mut fate = Action::Keep;
    while fate == Action::Keep {
        let frame = match codec.next_frame_ref() {
            Ok(Some(f)) => f,
            Ok(None) => break,
            // Torn/hostile stream: framing is unrecoverable on this
            // connection. Tell the peer (best effort) and drop.
            Err(e) => return (progress, peer.refuse(code::UNEXPECTED, &e.to_string())),
        };
        progress = true;
        fate = handle_frame(frame, peer, state, shard, fingerprint, next, stats);
    }
    if gone {
        return (progress, Action::Drop);
    }
    match fate {
        Action::Keep => (progress, peer.flush()),
        fate => (progress, fate),
    }
}

/// Handle one frame: apply it, and frame (or owe) its reply.
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
            peer.answer(FrameRef::HelloAck { next: *next });
            Action::Keep
        }
        FrameRef::Ops { seq, payload } => {
            if !peer.greeted {
                return peer.refuse(code::UNEXPECTED, "ops before hello");
            }
            let mut applied = false;
            if seq < *next {
                // Retry or chaos duplicate of an applied batch: count it,
                // ack where we are, move on.
                stats.duplicates += 1;
            } else if seq == *next {
                match state.apply_batch(payload) {
                    Ok(_) => {
                        stats.applied += 1;
                        *next += 1;
                        applied = true;
                    }
                    Err(e) => return peer.refuse(code::BAD_PAYLOAD, &e.to_string()),
                }
            }
            // seq > next is a gap (a swallowed frame): fall through — the
            // cumulative ack doubles as a NAK telling the router where to
            // resume.
            peer.ack(*next, applied)
        }
        FrameRef::Ping { nonce } => {
            peer.answer(FrameRef::Pong { nonce });
            Action::Keep
        }
        FrameRef::Drain => {
            let payload = state.drain_bytes();
            if !drain_fits(&payload) {
                return peer.refuse(code::DRAIN_TOO_LARGE, "drain exceeds the frame cap");
            }
            peer.answer(FrameRef::DrainAck { payload: &payload });
            Action::Keep
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
    use crate::mem::MemNet;
    use crate::transport::Net;
    use starcdn::config::StarCdnConfig;
    use starcdn_constellation::failures::FailureModel;

    const FP: u64 = 0x5EED;

    /// A shard server on a MemNet listener, and a connection to it that
    /// has been greeted.
    fn greeted_shard(
    ) -> (Box<dyn NetConn>, FrameCodec, Arc<AtomicBool>, std::thread::JoinHandle<ShardServerStats>)
    {
        let net = MemNet::new();
        let listener = net.listen("").unwrap();
        let mut conn = net.connect(&listener.addr()).unwrap();
        let state = ShardState::new(
            &StarCdnConfig::starcdn_no_relay(4, 100_000),
            &FailureModel::none(),
            false,
        );
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let server = std::thread::spawn(move || run_shard_server(listener, state, 0, FP, flag).0);
        conn.send(&Frame::Hello { shard: 0, fingerprint: FP }.encode()).unwrap();
        let mut codec = FrameCodec::new();
        assert_eq!(next_reply(conn.as_mut(), &mut codec), Frame::HelloAck { next: 0 });
        (conn, codec, stop, server)
    }

    fn next_reply(conn: &mut dyn NetConn, codec: &mut FrameCodec) -> Frame {
        loop {
            if let Some(f) = codec.next_frame().unwrap() {
                return f;
            }
            if codec.recv_from(conn).unwrap() == 0 {
                conn.wait(Duration::from_secs(1)).unwrap();
            }
        }
    }

    /// One write holding `seqs` as `Ops` frames of empty batches.
    fn ops_write(seqs: &[u64]) -> Vec<u8> {
        let empty = 0u32.to_le_bytes();
        let mut wire = Vec::new();
        for &seq in seqs {
            FrameRef::Ops { seq, payload: &empty }.encode_into(&mut wire);
        }
        wire
    }

    /// Everything the shard sends until it answers a ping, the pong
    /// excluded: a ping is answered in its own pass, so this is exactly
    /// what the passes before it sent.
    fn replies_before_pong(conn: &mut dyn NetConn, codec: &mut FrameCodec) -> Vec<Frame> {
        conn.send(&Frame::Ping { nonce: 7 }.encode()).unwrap();
        let mut replies = Vec::new();
        loop {
            match next_reply(conn, codec) {
                Frame::Pong { nonce: 7 } => return replies,
                f => replies.push(f),
            }
        }
    }

    fn stop(
        stop: Arc<AtomicBool>,
        server: std::thread::JoinHandle<ShardServerStats>,
    ) -> ShardServerStats {
        stop.store(true, Ordering::Relaxed);
        server.join().unwrap()
    }

    /// Applied, gap and duplicate frames of one receive pass share one
    /// cumulative ack, which names where the router must resume.
    #[test]
    fn one_receive_pass_gets_one_cumulative_ack() {
        let (mut conn, mut codec, flag, server) = greeted_shard();
        conn.send(&ops_write(&[0, 1, 3, 0])).unwrap();
        assert_eq!(replies_before_pong(conn.as_mut(), &mut codec), [Frame::Ack { next: 2 }]);
        let stats = stop(flag, server);
        assert_eq!((stats.applied, stats.duplicates), (2, 1));
    }

    /// A pass that applies more than `ACK_EVERY` batches acks as soon as
    /// it has applied that many, then once more at its end.
    #[test]
    fn a_long_pass_acks_every_ack_every_batches() {
        let (mut conn, mut codec, flag, server) = greeted_shard();
        let n = u64::from(ACK_EVERY) + 2;
        conn.send(&ops_write(&(0..n).collect::<Vec<_>>())).unwrap();
        assert_eq!(
            replies_before_pong(conn.as_mut(), &mut codec),
            [Frame::Ack { next: u64::from(ACK_EVERY) }, Frame::Ack { next: n }]
        );
        assert_eq!(stop(flag, server).applied, n);
    }

    /// Replies keep frame order: the owed ack goes ahead of a pong in the
    /// same write.
    #[test]
    fn an_owed_ack_precedes_the_next_reply() {
        let (mut conn, mut codec, flag, server) = greeted_shard();
        let mut wire = ops_write(&[0]);
        FrameRef::Ping { nonce: 9 }.encode_into(&mut wire);
        wire.extend(ops_write(&[1]));
        conn.send(&wire).unwrap();
        assert_eq!(
            replies_before_pong(conn.as_mut(), &mut codec),
            [Frame::Ack { next: 1 }, Frame::Pong { nonce: 9 }, Frame::Ack { next: 2 }]
        );
        assert_eq!(stop(flag, server).applied, 2);
    }

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
