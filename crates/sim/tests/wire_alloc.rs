//! A hostile element count reserves no more than its payload could fill.
//!
//! Every decoder bounds a count by the bytes left (each element costs at
//! least one), but an element can be far larger in memory than one byte:
//! a per-satellite entry of a drain payload is ≈ 40 bytes in a hash map,
//! a worker's metrics in a replay checkpoint some hundreds. Sized from
//! the count alone, a 4 MiB drain payload (the frame cap) whose
//! per-satellite count claims the rest asked for one ≈ 344 MB allocation
//! before failing. A counting global allocator records the largest single
//! allocation while each hostile payload decodes: it must stay within 4×
//! the payload, and the error must still be `Truncated`.
//!
//! One `#[test]` only: the high-water mark is process-global, and a
//! concurrently running test would pollute it.

use starcdn_sim::{crc32, decode_drain, validate_checkpoint_bytes, CheckpointError};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

static LARGEST: AtomicUsize = AtomicUsize::new(0);

struct LargestAllocation;

// SAFETY: delegates every operation to the system allocator unchanged;
// the high-water mark is a relaxed atomic with no effect on allocation.
unsafe impl GlobalAlloc for LargestAllocation {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: LargestAllocation = LargestAllocation;

/// `prefix` as little-endian `u64`s, then a count claiming every byte
/// after it, then zeros up to `len` bytes in all.
fn claiming_the_rest(prefix: &[u64], len: usize) -> Vec<u8> {
    let mut out: Vec<u8> = prefix.iter().flat_map(|v| v.to_le_bytes()).collect();
    let rest = (len - out.len() - 8) as u64;
    out.extend_from_slice(&rest.to_le_bytes());
    out.resize(len, 0);
    out
}

/// `tag | len | payload | crc32(tag‖len‖payload)`.
fn section(tag: u32, payload: &[u8]) -> Vec<u8> {
    let mut out = tag.to_le_bytes().to_vec();
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// A replay checkpoint (kind 2) whose body's metrics count claims the rest.
fn replay_container(body_len: usize) -> Vec<u8> {
    let mut out = b"STARCKP1".to_vec();
    for v in [1u32, 2, 3] {
        out.extend_from_slice(&v.to_le_bytes());
    }
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    // META: fingerprint, barrier epoch, workers, slots.
    out.extend(section(1, &[7u64, 4, 2, 1296].map(u64::to_le_bytes).concat()));
    // BODY: no caches, no queues, no cold flags, then the metrics.
    out.extend(section(2, &claiming_the_rest(&[0, 0, 0], body_len)));
    // TELEMETRY: no workers recorded.
    out.extend(section(3, &0u64.to_le_bytes()));
    out
}

/// The largest single allocation `decode` makes, and what it returned.
fn largest_during<T>(decode: impl FnOnce() -> T) -> (usize, T) {
    LARGEST.store(0, Ordering::SeqCst);
    let out = decode();
    (LARGEST.load(Ordering::SeqCst), out)
}

#[test]
fn hostile_counts_reserve_at_most_four_times_the_payload() {
    // Stats (4), eight counters, an empty latency list, then the
    // per-satellite count.
    let drain = claiming_the_rest(&[0; 13], 4 << 20);
    let (largest, got) = largest_during(|| decode_drain(&drain).map(|_| ()));
    assert!(matches!(got, Err(CheckpointError::Truncated)), "{got:?}");
    assert!(largest <= 4 * drain.len(), "drain: {largest} B for a {} B payload", drain.len());

    let ckpt = replay_container(256 << 10);
    let (largest, got) = largest_during(|| validate_checkpoint_bytes(&ckpt));
    assert!(matches!(got, Err(CheckpointError::Truncated)), "{got:?}");
    assert!(largest <= 4 * ckpt.len(), "replay body: {largest} B for a {} B file", ckpt.len());
}
