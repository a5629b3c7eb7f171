//! Typed errors for the serving plane.
//!
//! Mirrors the `starcdn-io` discipline: every failure a socket, a frame
//! decoder, or the router can hit maps to a variant — callers match on
//! structure, tests assert "typed error, never a panic", and chaos
//! injections are distinguishable from real faults.

use starcdn_sim::wire::WireError;
use starcdn_sim::CheckpointError;

/// Every way the serving plane can fail.
#[derive(Debug)]
pub enum NetError {
    /// Connection refused (or no such listener).
    Refused(String),
    /// The peer reset the connection mid-stream.
    Reset(&'static str),
    /// The peer closed the connection cleanly.
    Closed,
    /// A deadline expired; the payload names what was being awaited.
    Timeout(&'static str),
    /// The address could not be parsed or bound.
    Addr(String),
    /// A frame length prefix exceeds the allocation cap.
    FrameTooLarge(u32),
    /// A frame length prefix is too short to hold a kind byte and CRC
    /// (zero-length frames land here).
    FrameTooShort(u32),
    /// The frame CRC-32 does not match its contents.
    BadCrc,
    /// An unknown frame kind byte.
    BadKind(u8),
    /// A structurally invalid frame body.
    Malformed(&'static str),
    /// A batch or drain payload failed the shard-op codec.
    Codec(CheckpointError),
    /// Handshake fingerprints disagree: the shard server was built for a
    /// different plan.
    Fingerprint { ours: u64, theirs: u64 },
    /// The peer reported a protocol error via an `Error` frame.
    Protocol { code: u16, msg: String },
    /// The router exhausted its retry budget against one shard.
    RetriesExhausted { shard: u32, attempts: u32 },
    /// Some other OS-level socket error.
    Io(std::io::ErrorKind),
    /// A router setting that cannot serve, rejected before any shard
    /// starts.
    Config(&'static str),
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Refused(addr) => write!(f, "connection refused: {addr}"),
            NetError::Reset(why) => write!(f, "connection reset: {why}"),
            NetError::Closed => write!(f, "connection closed by peer"),
            NetError::Timeout(what) => write!(f, "deadline expired waiting for {what}"),
            NetError::Addr(a) => write!(f, "bad address: {a}"),
            NetError::FrameTooLarge(len) => write!(f, "frame length {len} exceeds cap"),
            NetError::FrameTooShort(len) => write!(f, "frame length {len} below minimum"),
            NetError::BadCrc => write!(f, "frame CRC mismatch"),
            NetError::BadKind(k) => write!(f, "unknown frame kind {k}"),
            NetError::Malformed(why) => write!(f, "malformed frame: {why}"),
            NetError::Codec(e) => write!(f, "payload codec error: {e}"),
            NetError::Fingerprint { ours, theirs } => {
                write!(f, "plan fingerprint mismatch: ours {ours:#x}, theirs {theirs:#x}")
            }
            NetError::Protocol { code, msg } => write!(f, "peer protocol error {code}: {msg}"),
            NetError::RetriesExhausted { shard, attempts } => {
                write!(f, "shard {shard} unreachable after {attempts} attempts")
            }
            NetError::Io(kind) => write!(f, "socket error: {kind:?}"),
            NetError::Config(why) => write!(f, "bad serve config: {why}"),
        }
    }
}

impl std::error::Error for NetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetError::Codec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CheckpointError> for NetError {
    fn from(e: CheckpointError) -> Self {
        NetError::Codec(e)
    }
}

/// Whatever is wrong with a frame body, it is a malformed frame.
impl From<WireError> for NetError {
    fn from(e: WireError) -> Self {
        NetError::Malformed(match e {
            WireError::Short => "body shorter than its fields",
            WireError::Trailing => "trailing bytes in frame body",
            WireError::Invalid(why) => why,
        })
    }
}

impl NetError {
    /// Map an OS socket error to the closest typed variant.
    pub(crate) fn from_io(e: std::io::Error) -> NetError {
        use std::io::ErrorKind;
        match e.kind() {
            ErrorKind::ConnectionRefused => NetError::Refused("tcp".into()),
            ErrorKind::ConnectionReset | ErrorKind::BrokenPipe => NetError::Reset("os"),
            ErrorKind::ConnectionAborted => NetError::Reset("aborted"),
            ErrorKind::UnexpectedEof => NetError::Closed,
            ErrorKind::TimedOut => NetError::Timeout("socket"),
            ErrorKind::AddrInUse | ErrorKind::AddrNotAvailable | ErrorKind::InvalidInput => {
                NetError::Addr(e.to_string())
            }
            kind => NetError::Io(kind),
        }
    }
}
