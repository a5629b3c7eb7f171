//! `starcdn-net`: the resilient socket serving plane.
//!
//! Moves the PR 2 replayer's shard workers behind real connections: a
//! front-door router ([`serve_replay`]) streams each shard's op batches
//! to a shard-server thread over a length-prefixed, CRC-guarded binary
//! protocol ([`frame`]), with per-request deadlines, bounded retries
//! with jittered exponential backoff, and a circuit that fails the run
//! typed when a shard stays unreachable.
//!
//! Everything speaks the object-safe [`Net`] seam, so the same router
//! runs over loopback TCP ([`RealNet`]), in-process pipes ([`MemNet`]),
//! or seeded fault injection ([`ChaosNet`]) — the chaos discipline
//! mirrors `starcdn_io::FaultyIo`: every fault is a pure function of
//! `(seed, op_index)`, so any failing schedule replays from its seed.
//!
//! The correctness bar is inherited from the checkpoint subsystem:
//! under zero faults the socket plane reproduces the in-process
//! replayer's `metrics_digest` bit-for-bit; under chaos every run
//! either matches that golden digest or fails with a typed error —
//! never a panic, never silent divergence.

pub mod chaos;
pub mod error;
pub mod frame;
pub mod mem;
pub mod plane;
pub mod shard;
pub mod transport;

pub use chaos::{ChaosNet, ChaosPlan, ChaosStats};
pub use error::NetError;
pub use frame::{Frame, FrameCodec, FrameRef, MAX_FRAME_LEN};
pub use mem::MemNet;
pub use plane::{serve_replay, ServeConfig, ServeStats};
pub use transport::{Net, NetConn, NetListener, RealNet};
