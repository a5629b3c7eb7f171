//! Property tests for the wire protocol: every frame round-trips, and
//! no hostile byte stream — truncated, bit-flipped, or pure garbage —
//! can panic the decoder or make it allocate unboundedly.
//!
//! Every stream here is decoded twice, through the owning reader
//! (`next_frame`) and the borrowing one (`next_frame_ref`), and the two
//! must agree on every frame and on the exact typed error; every frame
//! is encoded twice, through `Frame::encode` and in place through
//! `FrameRef::encode_into`, and the bytes must be the same.

use proptest::prelude::*;
use starcdn_net::{Frame, FrameCodec, FrameRef, NetError, MAX_FRAME_LEN};
use starcdn_sim::crc32;

/// Build one frame of each kind from drawn values, by kind index.
fn frame_from(kind: usize, a: u64, b: u64, payload: &[u8]) -> Frame {
    match kind % 10 {
        0 => Frame::Hello { shard: a as u32, fingerprint: b },
        1 => Frame::HelloAck { next: a },
        2 => Frame::Ops { seq: a, payload: payload.to_vec() },
        3 => Frame::Ack { next: a },
        4 => Frame::Ping { nonce: a },
        5 => Frame::Pong { nonce: a },
        6 => Frame::Drain,
        7 => Frame::DrainAck { payload: payload.to_vec() },
        8 => Frame::Shutdown,
        // Messages over 256 bytes are truncated on encode, so keep the
        // round-trip exact: short ASCII derived from the drawn payload.
        _ => Frame::Error {
            code: (a % (u16::MAX as u64 + 1)) as u16,
            msg: payload.iter().take(64).map(|b| (b'a' + (b % 26)) as char).collect(),
        },
    }
}

/// What a reader got out of a stream: the frames before the first
/// error, and that error.
type Drained = (Vec<Frame>, Option<NetError>);

/// Deliver `bytes` in two pieces cut at `cut` and pull every complete
/// frame after each, through `next_frame` or `next_frame_ref`.
fn drain_with(bytes: &[u8], cut: usize, borrowed: bool) -> Drained {
    let mut c = FrameCodec::new();
    let mut out = Vec::new();
    for piece in [&bytes[..cut], &bytes[cut..]] {
        c.push(piece);
        loop {
            let next = if borrowed {
                c.next_frame_ref().map(|f| f.map(FrameRef::into_owned))
            } else {
                c.next_frame()
            };
            match next {
                Ok(Some(f)) => out.push(f),
                Ok(None) => break,
                Err(e) => return (out, Some(e)),
            }
        }
    }
    (out, None)
}

/// [`drain_with`] through both readers, which must agree to the frame
/// and to the error's variant and payload. Must never panic regardless
/// of input.
fn drain_split(bytes: &[u8], cut: usize) -> Result<Vec<Frame>, NetError> {
    let owned = drain_with(bytes, cut, false);
    let borrowed = drain_with(bytes, cut, true);
    assert_eq!(format!("{owned:?}"), format!("{borrowed:?}"), "the two readers disagree");
    match owned {
        (frames, None) => Ok(frames),
        (_, Some(e)) => Err(e),
    }
}

/// Decode every complete frame out of a byte stream delivered whole,
/// stopping at the first error.
fn drain_codec(bytes: &[u8]) -> Result<Vec<Frame>, NetError> {
    drain_split(bytes, bytes.len())
}

/// `len | inner | crc32(inner)` around arbitrary kind+body bytes: a
/// frame the CRC accepts whatever the body says.
fn sealed(inner: &[u8]) -> Vec<u8> {
    let mut bytes = ((inner.len() + 4) as u32).to_le_bytes().to_vec();
    bytes.extend_from_slice(inner);
    bytes.extend_from_slice(&crc32(inner).to_le_bytes());
    bytes
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// The wire format is frozen: these are the bytes the protocol has
/// always put on the wire for these two frames.
#[test]
fn wire_bytes_are_pinned() {
    let ops = Frame::Ops { seq: 42, payload: vec![1, 2, 3, 4, 5] };
    assert_eq!(hex(&ops.encode()), "12000000032a000000000000000102030405261fd2a5");
    let ack = Frame::Ack { next: 7 };
    assert_eq!(hex(&ack.encode()), "0d000000040700000000000000bb4c20b1");
}

/// Each typed decode error, from both readers, from the smallest
/// stream that earns it.
#[test]
fn every_typed_error_from_both_readers() {
    let err = |bytes: &[u8]| drain_codec(bytes).expect_err("must fail");
    assert!(matches!(err(&4u32.to_le_bytes()), NetError::FrameTooShort(4)));
    let over = MAX_FRAME_LEN + 1;
    assert!(matches!(err(&over.to_le_bytes()), NetError::FrameTooLarge(n) if n == over));
    let mut torn = Frame::Ack { next: 7 }.encode();
    torn[6] ^= 0x10;
    assert!(matches!(err(&torn), NetError::BadCrc));
    assert!(matches!(err(&sealed(&[0])), NetError::BadKind(0)));
    assert!(matches!(err(&sealed(&[12, 1, 2])), NetError::BadKind(12)));
    // Kind 5 is retired: a well-sized body does not make it a frame.
    assert!(matches!(err(&sealed(&[5, 0, 0, 0, 0, 0, 0, 0, 0])), NetError::BadKind(5)));
    // An Ack whose body is one byte short, and one with a byte extra.
    assert!(matches!(err(&sealed(&[4, 0, 0, 0, 0, 0, 0, 0])), NetError::Malformed(_)));
    assert!(matches!(err(&sealed(&[4, 0, 0, 0, 0, 0, 0, 0, 0, 0])), NetError::Malformed(_)));
    // A good frame ahead of the bad one still comes out of both.
    let mut stream = Frame::Ping { nonce: 9 }.encode();
    stream.extend_from_slice(&sealed(&[0]));
    let (frames, e) = drain_with(&stream, stream.len(), true);
    assert_eq!(frames, vec![Frame::Ping { nonce: 9 }]);
    assert!(matches!(e, Some(NetError::BadKind(0))));
}

proptest! {
    /// Every frame kind round-trips exactly through encode + codec.
    #[test]
    fn prop_all_frame_kinds_round_trip(
        kind in 0usize..10,
        a in proptest::prelude::any::<u64>(),
        b in proptest::prelude::any::<u64>(),
        payload in proptest::collection::vec(any::<u8>(), 0..300),
    ) {
        let f = frame_from(kind, a, b, &payload);
        let decoded = drain_codec(&f.encode()).unwrap();
        prop_assert_eq!(decoded, vec![f]);
    }

    /// Two frames back to back both come out, in order.
    #[test]
    fn prop_concatenated_frames_round_trip(
        k1 in 0usize..10,
        k2 in 0usize..10,
        a in any::<u64>(),
        payload in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let f1 = frame_from(k1, a, a ^ 0xFF, &payload);
        let f2 = frame_from(k2, a.wrapping_add(1), a, &payload);
        let mut bytes = f1.encode();
        bytes.extend_from_slice(&f2.encode());
        let decoded = drain_codec(&bytes).unwrap();
        prop_assert_eq!(decoded, vec![f1, f2]);
    }

    /// Any truncation of a valid frame either waits for more bytes or
    /// fails typed — never panics, never yields a frame.
    #[test]
    fn prop_truncations_never_panic(
        kind in 0usize..10,
        a in any::<u64>(),
        cut in 0usize..4096,
        payload in proptest::collection::vec(any::<u8>(), 0..300),
    ) {
        let bytes = frame_from(kind, a, a, &payload).encode();
        let n = cut % bytes.len();
        if let Ok(frames) = drain_codec(&bytes[..n]) {
            prop_assert!(frames.is_empty(), "truncated input produced a frame");
        }
    }

    /// Any single-byte corruption of a valid frame is survivable: the
    /// decoder returns (usually an error — the CRC covers every inner
    /// byte) without panicking.
    #[test]
    fn prop_bit_flips_never_panic(
        kind in 0usize..10,
        a in any::<u64>(),
        pos in 0usize..4096,
        mask in 1u8..=255,
        payload in proptest::collection::vec(any::<u8>(), 0..300),
    ) {
        let mut bytes = frame_from(kind, a, a, &payload).encode();
        let i = pos % bytes.len();
        bytes[i] ^= mask;
        let _ = drain_codec(&bytes);
        // Flips inside the length prefix can only enlarge or shrink the
        // claimed frame; anything touching kind/body/CRC must be caught.
        if i >= 4 {
            prop_assert!(drain_codec(&bytes).is_err(), "corrupted frame accepted");
        }
    }

    /// Encoding in place — after whatever the buffer already holds —
    /// writes the bytes `Frame::encode` returns, for every kind, and
    /// says beforehand how long they are.
    #[test]
    fn prop_encode_into_matches_encode(
        kind in 0usize..10,
        a in any::<u64>(),
        b in any::<u64>(),
        payload in proptest::collection::vec(any::<u8>(), 0..300),
        prefix in proptest::collection::vec(any::<u8>(), 0..16),
    ) {
        let f = frame_from(kind, a, b, &payload);
        let wire = f.encode();
        let mut buf = prefix.clone();
        f.as_ref().encode_into(&mut buf);
        prop_assert_eq!(&buf[..prefix.len()], &prefix[..]);
        prop_assert_eq!(&buf[prefix.len()..], &wire[..]);
        prop_assert_eq!(f.as_ref().wire_len() + 4, wire.len());
        prop_assert_eq!(f.as_ref().into_owned(), f);
    }

    /// Two frames delivered in two pieces come out of both readers, in
    /// order, wherever the cut falls.
    #[test]
    fn prop_split_delivery_at_every_cut(
        k1 in 0usize..10,
        k2 in 0usize..10,
        a in any::<u64>(),
        payload in proptest::collection::vec(any::<u8>(), 0..48),
    ) {
        let f1 = frame_from(k1, a, !a, &payload);
        let f2 = frame_from(k2, a.wrapping_mul(3), a, &payload);
        let mut bytes = f1.encode();
        bytes.extend_from_slice(&f2.encode());
        for cut in 0..=bytes.len() {
            let decoded = drain_split(&bytes, cut).unwrap();
            prop_assert_eq!(&decoded, &vec![f1.clone(), f2.clone()], "cut at {}", cut);
        }
    }

    /// Pure garbage never panics and never loops.
    #[test]
    fn prop_garbage_never_panics(
        data in proptest::collection::vec(any::<u8>(), 0..2048),
    ) {
        let _ = drain_codec(&data);
    }
}
