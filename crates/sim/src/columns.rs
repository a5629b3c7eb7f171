//! The log names `benchmark/src/abi.rs` links (that package is frozen by
//! BENCHMARK.json and pinned to these names), kept from when the log also
//! had a struct-of-arrays layout: each is the row log, or its builder,
//! under that name. The tests hold the codec to its contract through
//! these names, as the benchmark reaches it.

use crate::access_log::{build_access_log, build_access_log_parallel, AccessLog};
use crate::scheduler::SchedulerConfig;
use crate::world::World;
use spacegen::trace::Trace;

/// [`AccessLog`] under the name `benchmark/src/abi.rs` links; that file
/// is its only reason to exist.
pub type AccessLogColumns = AccessLog;

/// [`build_access_log`] under the name `benchmark/src/abi.rs` links.
pub fn build_access_log_columns(
    world: &World,
    trace: &Trace,
    epoch_secs: u64,
    cfg: &SchedulerConfig,
) -> AccessLogColumns {
    build_access_log(world, trace, epoch_secs, cfg)
}

/// [`build_access_log_parallel`] under the name `benchmark/src/abi.rs`
/// links.
pub fn build_access_log_columns_parallel(
    world: &World,
    trace: &Trace,
    epoch_secs: u64,
    cfg: &SchedulerConfig,
    num_workers: usize,
) -> AccessLogColumns {
    build_access_log_parallel(world, trace, epoch_secs, cfg, num_workers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use spacegen::io::IoError;
    use spacegen::trace::{LocationId, Request};
    use starcdn_cache::object::ObjectId;
    use starcdn_orbit::time::SimTime;

    fn tiny_trace() -> Trace {
        let mut reqs = Vec::new();
        for k in 0..200u64 {
            reqs.push(Request {
                time: SimTime::from_secs(k * 3),
                object: ObjectId(k % 17),
                size: 100,
                location: LocationId((k % 9) as u16),
            });
        }
        Trace::new(reqs)
    }

    #[test]
    fn binary_empty_log() {
        let cols = AccessLogColumns { entries: Vec::new(), epoch_secs: 30 };
        let mut buf = Vec::new();
        cols.write_binary(&mut buf).unwrap();
        assert_eq!(buf.len(), 16);
        let back = AccessLogColumns::read_binary(buf.as_slice()).unwrap();
        assert_eq!(back, cols);
    }

    #[test]
    fn binary_detects_truncation_and_bad_header() {
        let w = World::starlink_nine_cities();
        let cols = build_access_log_columns(&w, &tiny_trace(), 15, &SchedulerConfig::default());
        let mut buf = Vec::new();
        cols.write_binary(&mut buf).unwrap();
        buf.truncate(buf.len() - 7); // chop mid-record
        assert!(matches!(
            AccessLogColumns::read_binary(buf.as_slice()),
            Err(IoError::TruncatedRecord)
        ));
        assert!(matches!(
            AccessLogColumns::read_binary(b"NOTALOG!\0\0\0\0\0\0\0\0".as_slice()),
            Err(IoError::BadHeader)
        ));
        // A header shorter than 16 bytes is a bad header, not a panic.
        assert!(matches!(
            AccessLogColumns::read_binary(b"STARLOG1\x0f".as_slice()),
            Err(IoError::BadHeader)
        ));
    }

    proptest! {
        /// Truncating a valid binary log anywhere either reproduces a
        /// record-boundary prefix or returns a clean error — never a
        /// panic, never silently dropped bytes.
        #[test]
        fn prop_truncation_never_panics(cut in 0usize..800) {
            let w = World::starlink_nine_cities();
            let cols =
                build_access_log_columns(&w, &tiny_trace(), 15, &SchedulerConfig::default());
            let mut buf = Vec::new();
            cols.write_binary(&mut buf).unwrap();
            let cut = cut.min(buf.len());
            buf.truncate(cut);
            match AccessLogColumns::read_binary(buf.as_slice()) {
                Ok(back) => {
                    prop_assert!(cut >= 16);
                    prop_assert_eq!((cut - 16) % 39, 0);
                    prop_assert_eq!(back.len(), (cut - 16) / 39);
                    prop_assert_eq!(&back.entries[..], &cols.entries[..back.len()]);
                }
                Err(IoError::BadHeader) => prop_assert!(cut < 16),
                Err(IoError::TruncatedRecord) => {
                    prop_assert!(cut >= 16);
                    prop_assert!((cut - 16) % 39 != 0);
                }
                Err(e) => prop_assert!(false, "unexpected error: {e:?}"),
            }
        }
    }
}
