//! The wire protocol: length-prefixed, CRC-guarded frames.
//!
//! Layout on the wire (all little-endian, same discipline as the
//! `STARCKP1` checkpoint container):
//!
//! ```text
//! u32 len | u8 kind | body (len-5 bytes) | u32 crc32(kind..body)
//! ```
//!
//! `len` counts everything after itself (kind + body + CRC). The decoder
//! is hostile-input safe: a length prefix below [`MIN_FRAME_LEN`]
//! (zero-length frames included) or above [`MAX_FRAME_LEN`] fails typed
//! before any allocation, a CRC mismatch fails before the body is
//! interpreted, and the body is read through the workspace's one
//! bounds-checked reader (`starcdn_sim::wire::Reader`, written through
//! its `Writer`), which never reads past its slice: a body too short or
//! too long for its kind is [`NetError::Malformed`].
//!
//! A frame's bytes are touched once per side. [`FrameRef::encode_into`]
//! appends prefix, kind, body and CRC to a caller-owned buffer and
//! checksums them where they lie (the router frames every plan batch its
//! window admits back to back into its endpoint's scratch and sends them
//! in one write: one copy, one CRC pass per batch);
//! `FrameCodec::recv_from` lets the transport read into the decoder's
//! own buffer, and [`FrameCodec::next_frame_ref`] hands an `Ops` payload
//! out as a slice of that buffer (the shard applies it in place: one
//! read, one CRC pass). [`Frame`] is the owning form of the same eleven
//! kinds; its `encode` / `next_frame` are thin wrappers, so the bounds,
//! CRC and hostile-length checks exist in one decoder body.
//!
//! Sequence numbers: `Ops` frames are numbered per shard from 0 in plan
//! order. Acks are cumulative and carry the *next expected* sequence
//! (`Ack { next }` means batches `0..next` are applied), which keeps the
//! zero-applied case representable without underflow. One ack answers
//! however many `Ops` the shard read in one receive pass, so a stream
//! carries fewer acks than batches; nothing in the protocol pairs them.

use crate::error::NetError;
use crate::transport::NetConn;
use starcdn_sim::wire::{crc32, Reader, Writer};

/// Hard cap on `len`: bounds the decoder's buffer and any allocation a
/// hostile prefix could drive. Far above any real batch (a 256-op batch
/// encodes to ~12 KiB).
pub const MAX_FRAME_LEN: u32 = 4 * 1024 * 1024;

/// Smallest well-formed `len`: one kind byte plus the CRC.
pub const MIN_FRAME_LEN: u32 = 5;

/// Cap on an `Error` frame's message.
const MAX_ERR_MSG: usize = 256;

const K_HELLO: u8 = 1;
const K_HELLO_ACK: u8 = 2;
const K_OPS: u8 = 3;
const K_ACK: u8 = 4;
const K_SKIP_TO: u8 = 5;
const K_PING: u8 = 6;
const K_PONG: u8 = 7;
const K_DRAIN: u8 = 8;
const K_DRAIN_ACK: u8 = 9;
const K_SHUTDOWN: u8 = 10;
const K_ERROR: u8 = 11;

/// Error-frame codes (carried in [`Frame::Error`]).
pub mod code {
    /// The peer's Hello named a different plan fingerprint or shard.
    pub const BAD_HANDSHAKE: u16 = 1;
    /// A batch payload failed the shard-op codec.
    pub const BAD_PAYLOAD: u16 = 2;
    /// A frame kind arrived that this side never accepts.
    pub const UNEXPECTED: u16 = 3;
    /// The shard's drain payload does not fit one frame: asking again
    /// cannot shrink it, so the router fails typed instead of retrying.
    pub const DRAIN_TOO_LARGE: u16 = 4;
}

/// One protocol frame, owning its payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// Router → shard on every (re)connect: which shard it wants and
    /// the plan fingerprint both sides must share.
    Hello {
        shard: u32,
        fingerprint: u64,
    },
    /// Shard → router: handshake accepted; `next` is the next sequence
    /// the shard expects (resync point after a reconnect).
    HelloAck {
        next: u64,
    },
    /// One encoded op batch.
    Ops {
        seq: u64,
        payload: Vec<u8>,
    },
    /// Cumulative ack: batches `0..next` are applied (or skipped).
    Ack {
        next: u64,
    },
    /// Router → shard: advance the expected sequence to `next` without
    /// applying (circuit-open degradation; the skipped ops are served
    /// from the origin on the router side).
    SkipTo {
        next: u64,
    },
    /// Health check.
    Ping {
        nonce: u64,
    },
    Pong {
        nonce: u64,
    },
    /// Router → shard: all ops acked, return your results.
    Drain,
    /// Shard → router: accumulated metrics (+ telemetry) payload.
    DrainAck {
        payload: Vec<u8>,
    },
    /// Router → shard: exit the serve loop.
    Shutdown,
    /// Either side: a typed protocol failure (connection is dropped
    /// after sending).
    Error {
        code: u16,
        msg: String,
    },
}

/// One protocol frame whose variable-length part borrows the bytes it
/// was built from or decoded out of: same kinds, same fields as
/// [`Frame`] (which documents them), no allocation either way.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameRef<'a> {
    Hello {
        shard: u32,
        fingerprint: u64,
    },
    HelloAck {
        next: u64,
    },
    Ops {
        seq: u64,
        payload: &'a [u8],
    },
    Ack {
        next: u64,
    },
    SkipTo {
        next: u64,
    },
    Ping {
        nonce: u64,
    },
    Pong {
        nonce: u64,
    },
    Drain,
    DrainAck {
        payload: &'a [u8],
    },
    Shutdown,
    /// `msg` is the message's bytes: cut at the cap on encode, read as
    /// lossy UTF-8 by [`FrameRef::into_owned`].
    Error {
        code: u16,
        msg: &'a [u8],
    },
}

impl Frame {
    /// The same frame, borrowing this one's payload.
    pub fn as_ref(&self) -> FrameRef<'_> {
        match self {
            Frame::Hello { shard, fingerprint } => {
                FrameRef::Hello { shard: *shard, fingerprint: *fingerprint }
            }
            Frame::HelloAck { next } => FrameRef::HelloAck { next: *next },
            Frame::Ops { seq, payload } => FrameRef::Ops { seq: *seq, payload },
            Frame::Ack { next } => FrameRef::Ack { next: *next },
            Frame::SkipTo { next } => FrameRef::SkipTo { next: *next },
            Frame::Ping { nonce } => FrameRef::Ping { nonce: *nonce },
            Frame::Pong { nonce } => FrameRef::Pong { nonce: *nonce },
            Frame::Drain => FrameRef::Drain,
            Frame::DrainAck { payload } => FrameRef::DrainAck { payload },
            Frame::Shutdown => FrameRef::Shutdown,
            Frame::Error { code, msg } => FrameRef::Error { code: *code, msg: msg.as_bytes() },
        }
    }

    /// Serialize to the wire format (length prefix, kind, body, CRC):
    /// [`FrameRef::encode_into`] a fresh buffer, which it sizes once.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.as_ref().encode_into(&mut out);
        out
    }
}

impl<'a> FrameRef<'a> {
    /// The owning form (copies the payload; an `Error` message becomes
    /// lossy UTF-8).
    pub fn into_owned(self) -> Frame {
        match self {
            FrameRef::Hello { shard, fingerprint } => Frame::Hello { shard, fingerprint },
            FrameRef::HelloAck { next } => Frame::HelloAck { next },
            FrameRef::Ops { seq, payload } => Frame::Ops { seq, payload: payload.to_vec() },
            FrameRef::Ack { next } => Frame::Ack { next },
            FrameRef::SkipTo { next } => Frame::SkipTo { next },
            FrameRef::Ping { nonce } => Frame::Ping { nonce },
            FrameRef::Pong { nonce } => Frame::Pong { nonce },
            FrameRef::Drain => Frame::Drain,
            FrameRef::DrainAck { payload } => Frame::DrainAck { payload: payload.to_vec() },
            FrameRef::Shutdown => Frame::Shutdown,
            FrameRef::Error { code, msg } => {
                Frame::Error { code, msg: String::from_utf8_lossy(msg).into_owned() }
            }
        }
    }

    /// What this frame's length prefix will say: kind + body + CRC.
    /// A frame is sendable iff this is at most [`MAX_FRAME_LEN`].
    pub fn wire_len(&self) -> usize {
        let body = match self {
            FrameRef::Hello { .. } => 12,
            FrameRef::HelloAck { .. }
            | FrameRef::Ack { .. }
            | FrameRef::SkipTo { .. }
            | FrameRef::Ping { .. }
            | FrameRef::Pong { .. } => 8,
            FrameRef::Ops { payload, .. } => 8 + payload.len(),
            FrameRef::Drain | FrameRef::Shutdown => 0,
            FrameRef::DrainAck { payload } => payload.len(),
            FrameRef::Error { msg, .. } => 4 + msg.len().min(MAX_ERR_MSG),
        };
        1 + body + 4
    }

    /// Append this frame's wire bytes to `out` — prefix, kind, body,
    /// then the CRC of what was just written, computed in place. `out`
    /// grows at most once.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let len = self.wire_len();
        out.reserve(4 + len);
        let inner = out.len() + 4;
        let mut w = Writer::new(out);
        w.u32(len as u32);
        match *self {
            FrameRef::Hello { shard, fingerprint } => {
                w.u8(K_HELLO);
                w.u32(shard);
                w.u64(fingerprint);
            }
            FrameRef::HelloAck { next } => {
                w.u8(K_HELLO_ACK);
                w.u64(next);
            }
            FrameRef::Ops { seq, payload } => {
                w.u8(K_OPS);
                w.u64(seq);
                w.bytes(payload);
            }
            FrameRef::Ack { next } => {
                w.u8(K_ACK);
                w.u64(next);
            }
            FrameRef::SkipTo { next } => {
                w.u8(K_SKIP_TO);
                w.u64(next);
            }
            FrameRef::Ping { nonce } => {
                w.u8(K_PING);
                w.u64(nonce);
            }
            FrameRef::Pong { nonce } => {
                w.u8(K_PONG);
                w.u64(nonce);
            }
            FrameRef::Drain => w.u8(K_DRAIN),
            FrameRef::DrainAck { payload } => {
                w.u8(K_DRAIN_ACK);
                w.bytes(payload);
            }
            FrameRef::Shutdown => w.u8(K_SHUTDOWN),
            FrameRef::Error { code, msg } => {
                w.u8(K_ERROR);
                w.u16(code);
                let n = msg.len().min(MAX_ERR_MSG);
                w.u16(n as u16);
                w.bytes(&msg[..n]);
            }
        }
        debug_assert_eq!(out.len() - inner, len - 4, "wire_len disagrees with the bytes written");
        let crc = crc32(&out[inner..]);
        Writer::new(out).u32(crc);
    }

    /// Decode a complete kind+body slice (CRC already checked).
    fn decode_inner(inner: &'a [u8]) -> Result<FrameRef<'a>, NetError> {
        let kind = inner[0];
        let mut b = Reader::new(&inner[1..]);
        match kind {
            K_HELLO => {
                let shard = b.u32()?;
                let fingerprint = b.u64()?;
                b.finish()?;
                Ok(FrameRef::Hello { shard, fingerprint })
            }
            K_HELLO_ACK => {
                let next = b.u64()?;
                b.finish()?;
                Ok(FrameRef::HelloAck { next })
            }
            K_OPS => {
                let seq = b.u64()?;
                Ok(FrameRef::Ops { seq, payload: b.rest() })
            }
            K_ACK => {
                let next = b.u64()?;
                b.finish()?;
                Ok(FrameRef::Ack { next })
            }
            K_SKIP_TO => {
                let next = b.u64()?;
                b.finish()?;
                Ok(FrameRef::SkipTo { next })
            }
            K_PING => {
                let nonce = b.u64()?;
                b.finish()?;
                Ok(FrameRef::Ping { nonce })
            }
            K_PONG => {
                let nonce = b.u64()?;
                b.finish()?;
                Ok(FrameRef::Pong { nonce })
            }
            K_DRAIN => {
                b.finish()?;
                Ok(FrameRef::Drain)
            }
            K_DRAIN_ACK => Ok(FrameRef::DrainAck { payload: b.rest() }),
            K_SHUTDOWN => {
                b.finish()?;
                Ok(FrameRef::Shutdown)
            }
            K_ERROR => {
                let code = b.u16()?;
                let n = b.u16()? as usize;
                if n > MAX_ERR_MSG {
                    return Err(NetError::Malformed("error message over cap"));
                }
                let msg = b.take(n)?;
                b.finish()?;
                Ok(FrameRef::Error { code, msg })
            }
            k => Err(NetError::BadKind(k)),
        }
    }
}

/// Incremental frame decoder over a byte stream.
///
/// Put received bytes in (`recv_from` reads a
/// connection straight into the buffer, [`push`](Self::push) copies a
/// slice), pull complete frames out. The internal buffer is bounded: a
/// hostile length prefix is rejected the moment the four prefix bytes
/// arrive, so the buffer never grows past `MAX_FRAME_LEN + 4` plus one
/// read's worth of slack.
#[derive(Default)]
pub struct FrameCodec {
    /// Every byte up to `buf.len()` is initialized, so a read can be
    /// handed `buf[end..]` as it is: the zero-fill is paid when the
    /// buffer grows, not on every poll.
    buf: Vec<u8>,
    /// Received, undecoded bytes are `buf[start..end]`.
    start: usize,
    end: usize,
}

/// Least room [`FrameCodec::recv_from`] offers one read.
const READ_CHUNK: usize = 16 * 1024;

impl FrameCodec {
    pub fn new() -> Self {
        Self::default()
    }

    /// Make `buf[end..]` at least `want` bytes long, reclaiming the
    /// consumed prefix first: for nothing once every frame is decoded
    /// (the steady state), by one shift once it dominates.
    fn make_room(&mut self, want: usize) {
        if self.start == self.end {
            self.start = 0;
            self.end = 0;
        } else if self.start > 4096 && self.start * 2 > self.end {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        if self.buf.len() - self.end < want {
            self.buf.resize(self.end + want, 0);
        }
    }

    /// Append received bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        self.make_room(bytes.len());
        self.buf[self.end..self.end + bytes.len()].copy_from_slice(bytes);
        self.end += bytes.len();
    }

    /// One `recv` on `conn`, straight into the buffer's free tail.
    /// Returns what `recv` returned: the byte count (`0` = nothing yet)
    /// or its error.
    pub(crate) fn recv_from(&mut self, conn: &mut dyn NetConn) -> Result<usize, NetError> {
        self.make_room(READ_CHUNK);
        let n = conn.recv(&mut self.buf[self.end..])?;
        self.end += n;
        Ok(n)
    }

    /// Try to decode the next complete frame, its payload borrowed from
    /// the codec's buffer (valid until the next call that takes bytes
    /// in). `Ok(None)` means more bytes are needed. Any error is fatal
    /// for the stream: framing is lost and the connection should be
    /// dropped.
    pub fn next_frame_ref(&mut self) -> Result<Option<FrameRef<'_>>, NetError> {
        let avail = &self.buf[self.start..self.end];
        if avail.len() < 4 {
            return Ok(None);
        }
        let len = Reader::new(avail).u32()?;
        if len < MIN_FRAME_LEN {
            return Err(NetError::FrameTooShort(len));
        }
        if len > MAX_FRAME_LEN {
            return Err(NetError::FrameTooLarge(len));
        }
        let total = 4 + len as usize;
        if avail.len() < total {
            return Ok(None);
        }
        let inner = &avail[4..total - 4];
        if Reader::new(&avail[total - 4..]).u32()? != crc32(inner) {
            return Err(NetError::BadCrc);
        }
        let frame = FrameRef::decode_inner(inner)?;
        self.start += total;
        Ok(Some(frame))
    }

    /// [`next_frame_ref`](Self::next_frame_ref), payload copied out.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, NetError> {
        Ok(self.next_frame_ref()?.map(FrameRef::into_owned))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_and_short_length_prefixes_rejected() {
        let mut c = FrameCodec::new();
        c.push(&0u32.to_le_bytes());
        assert!(matches!(c.next_frame(), Err(NetError::FrameTooShort(0))));
        let mut c = FrameCodec::new();
        c.push(&4u32.to_le_bytes());
        assert!(matches!(c.next_frame(), Err(NetError::FrameTooShort(4))));
    }

    #[test]
    fn oversized_length_prefix_rejected_before_body_arrives() {
        let mut c = FrameCodec::new();
        c.push(&u32::MAX.to_le_bytes());
        assert!(matches!(c.next_frame(), Err(NetError::FrameTooLarge(_))));
    }

    #[test]
    fn split_delivery_reassembles() {
        let f = Frame::Ops { seq: 42, payload: vec![1, 2, 3, 4, 5] };
        let bytes = f.encode();
        let mut c = FrameCodec::new();
        for b in &bytes {
            assert!(c.next_frame().unwrap().is_none());
            c.push(std::slice::from_ref(b));
        }
        assert_eq!(c.next_frame().unwrap(), Some(f));
        assert!(c.next_frame().unwrap().is_none());
    }

    #[test]
    fn error_message_truncated_at_cap() {
        let f = Frame::Error { code: 7, msg: "x".repeat(1000) };
        let bytes = f.encode();
        let mut c = FrameCodec::new();
        c.push(&bytes);
        match c.next_frame().unwrap().unwrap() {
            Frame::Error { code, msg } => {
                assert_eq!(code, 7);
                assert_eq!(msg.len(), 256);
            }
            other => panic!("wrong frame {other:?}"),
        }
    }
}
