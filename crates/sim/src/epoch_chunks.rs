//! Epoch-aligned chunks: where the two parallel passes over a request
//! stream — the log builder over a trace, the replayer's pre-pass over a
//! log — cut it, and the scoped-thread driver that runs the pieces. A
//! chunk after the first starts where the item before it left one pass
//! (each pass seeds its own state there) and runs the pass's one
//! per-item loop. That is the one pass bit for bit only while time runs
//! forwards, so each chunk reports whether its epochs never decrease,
//! starting above the epoch of the item before it ([`or_one_chunk`]).

use std::ops::Range;

/// Where a pass over `n` items, item `i` in scheduler epoch `epoch(i)`,
/// splits them: the first item of every chunk but the first. Chunks
/// start at epoch boundaries, there are `min(num_workers, distinct
/// epochs)` of them, and each cut is the first epoch start at or after an
/// equal share of the items — moved only as far as it takes to leave
/// every chunk an epoch of its own. The epochs of items sorted by time
/// are found by binary search: O(num_workers · log n) calls of `epoch`,
/// not a pass.
pub(crate) fn chunk_starts(
    n: usize,
    num_workers: usize,
    epoch: impl Fn(usize) -> u64,
) -> Vec<usize> {
    if num_workers < 2 || n == 0 {
        return Vec::new();
    }
    // The first index in `lo..hi` where `holds` stops holding.
    let first_not = |mut lo: usize, mut hi: usize, holds: &dyn Fn(usize) -> bool| {
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if holds(mid) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    };
    // The first item of the epoch after item `i`'s (`n` if none), and
    // the first item of item `i`'s own epoch.
    let next_start = |i: usize| first_not(i + 1, n, &|j| epoch(j) == epoch(i));
    let own_start = |i: usize| first_not(0, i, &|j| epoch(j) < epoch(i));
    // The last `num_workers - 1` epoch starts, latest last: cut `c` may
    // lie no later than `lasts[c]`, so every later cut still finds an
    // epoch. Reaching item 0 first means fewer epochs than workers, and
    // then every epoch is a chunk.
    let mut lasts = Vec::with_capacity(num_workers - 1);
    let mut b = n;
    while lasts.len() < num_workers - 1 {
        b = own_start(b - 1);
        if b == 0 {
            break;
        }
        lasts.push(b);
    }
    lasts.reverse();
    if lasts.len() < num_workers - 1 {
        return lasts;
    }
    let mut cuts: Vec<usize> = Vec::with_capacity(num_workers - 1);
    for (c, &last) in lasts.iter().enumerate() {
        let (prev, share) = (cuts.last().copied().unwrap_or(0), (c + 1) * n / num_workers);
        let cut = next_start(share - 1).max(next_start(prev)).min(last);
        // Only items unsorted by time can fail this; the pass then falls
        // back to one chunk anyway.
        if prev < cut && cut < n {
            cuts.push(cut);
        }
    }
    cuts
}

/// Run `work` over the chunks of `0..n` that begin at `starts`, one
/// thread each, the first on the calling thread; `None` when there are
/// several and one did not run in order (`work`'s result). `make` builds
/// every chunk's state and outputs on the calling thread first: glibc
/// keeps what a thread allocates in that thread's own arena and, with
/// trimming off (as the benchmark pins it), never returns it.
pub(crate) fn run_chunks<C: Send>(
    n: usize,
    starts: &[usize],
    make: impl FnMut(Range<usize>) -> C,
    work: impl Fn(&mut C) -> bool + Sync,
) -> Option<Vec<C>> {
    let bounds: Vec<usize> = std::iter::once(0).chain(starts.iter().copied()).chain([n]).collect();
    let mut chunks: Vec<C> = bounds.windows(2).map(|b| b[0]..b[1]).map(make).collect();
    let work = &work;
    let in_order = std::thread::scope(|s| {
        let (first, rest) = chunks.split_first_mut().expect("bounds hold at least one chunk");
        let threads: Vec<_> = rest.iter_mut().map(|ch| s.spawn(move || work(ch))).collect();
        let first = work(first);
        threads.into_iter().fold(first, |all, t| {
            t.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)) & all
        })
    });
    (chunks.len() == 1 || in_order).then_some(chunks)
}

/// `pass` over the chunks that begin at `starts`, or over one chunk when
/// it returns `None` — time ran backwards, which one pass handles
/// differently.
pub(crate) fn or_one_chunk<T>(starts: &[usize], pass: impl Fn(&[usize]) -> Option<T>) -> T {
    pass(starts).unwrap_or_else(|| pass(&[]).expect("one chunk is the one-pass order"))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `sizes[e]` items in epoch `e`, as the epoch of each item.
    fn epochs(sizes: &[usize]) -> Vec<u64> {
        sizes.iter().enumerate().flat_map(|(e, &n)| std::iter::repeat_n(e as u64, n)).collect()
    }

    fn starts(epochs: &[u64], workers: usize) -> Vec<usize> {
        chunk_starts(epochs.len(), workers, |i| epochs[i])
    }

    #[test]
    fn chunks_start_at_epochs_and_number_min_of_workers_and_epochs() {
        // Empty and one-epoch streams: one chunk.
        assert!(starts(&[], 4).is_empty());
        assert!(starts(&epochs(&[40]), 4).is_empty());
        // Fewer epochs than workers: every epoch is a chunk.
        assert_eq!(starts(&epochs(&[5, 7, 3]), 8), [5, 12]);
        // Skewed epochs still give every chunk an epoch of its own.
        assert_eq!(starts(&epochs(&[1, 1000, 1]), 3), [1, 1001]);
        assert_eq!(starts(&epochs(&[1, 1, 1, 1000]), 4), [1, 2, 3]);
        // 3000 items, six a second, in 15 s epochs.
        let stream: Vec<u64> = (0..3000u64).map(|k| k / 6 / 15).collect();
        // One worker: one chunk.
        assert!(starts(&stream, 1).is_empty());
        // Otherwise each cut is the first epoch start at or after an
        // equal share of the items.
        let n = stream.len();
        for workers in [2, 3, 4, 8] {
            let cuts = starts(&stream, workers);
            assert_eq!(cuts.len(), workers - 1, "{workers} workers");
            for (c, &b) in cuts.iter().enumerate() {
                let share = (c + 1) * n / workers;
                assert!(stream[b - 1] < stream[b], "cut {b} starts an epoch");
                assert!(b >= share && stream[share - 1] == stream[b - 1]);
            }
        }
    }

    /// Each chunk runs once over its own range, and a chunk out of order
    /// refuses the split but not one chunk.
    #[test]
    fn chunks_cover_the_range_and_refuse_a_split_out_of_order() {
        // Each chunk is its range and how often it ran; with `ok` false,
        // every chunk but the first reports its time running backwards.
        let ranges = |starts: &[usize], ok: bool| {
            run_chunks(
                10,
                starts,
                |r| (r, 0),
                |(r, runs)| {
                    *runs += 1;
                    ok || r.start == 0
                },
            )
        };
        assert_eq!(ranges(&[3, 7], true), Some(vec![(0..3, 1), (3..7, 1), (7..10, 1)]));
        assert_eq!(ranges(&[], false), Some(vec![(0..10, 1)]));
        assert_eq!(ranges(&[3, 7], false), None);
        let pass = |starts: &[usize]| ranges(starts, false).map(|chunks| chunks.len());
        assert_eq!(or_one_chunk(&[3, 7], pass), 1);
    }
}
