//! Golden-file, corruption and hostile-record tests for the `AccessLog`
//! binary format.
//!
//! The committed fixture pins the on-disk layout: if the format changes,
//! `golden_fixture_decodes_to_known_entries` fails and the fixture must
//! be regenerated (run the `#[ignore]`d `regenerate_golden_fixture` test
//! with `-- --ignored`) alongside a version bump of the magic header.

use proptest::prelude::*;
use spacegen::io::IoError;
use spacegen::trace::LocationId;
use starcdn::config::StarCdnConfig;
use starcdn::system::SpaceCdn;
use starcdn_cache::object::ObjectId;
use starcdn_constellation::failures::FailureModel;
use starcdn_orbit::time::SimTime;
use starcdn_orbit::walker::SatelliteId;
use starcdn_sim::{
    engine, replay_parallel, replayer, run_space, AccessLog, AccessLogEntry, RunSpec,
};
use starcdn_telemetry::{Histo, MemoryRecorder};

const FIXTURE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/access_log_v1.bin");

/// The exact log the committed fixture encodes: covers a reachable
/// entry, an unreachable one (no first contact), a zero-time entry, and
/// a non-trivial float delay.
fn golden_log() -> AccessLog {
    AccessLog {
        entries: vec![
            AccessLogEntry {
                time: SimTime::ZERO,
                object: ObjectId(0),
                size: 1,
                location: LocationId(0),
                first_contact: Some(SatelliteId::new(0, 0)),
                gsl_oneway_ms: 0.0,
            },
            AccessLogEntry {
                time: SimTime::from_millis(1500),
                object: ObjectId(7919),
                size: 1_048_576,
                location: LocationId(8),
                first_contact: Some(SatelliteId::new(71, 17)),
                gsl_oneway_ms: 2.625,
            },
            AccessLogEntry {
                time: SimTime::from_secs(3600),
                object: ObjectId(u64::MAX),
                size: u64::MAX,
                location: LocationId(u16::MAX),
                first_contact: None,
                gsl_oneway_ms: 0.0,
            },
            AccessLogEntry {
                time: SimTime::from_millis(86_400_000),
                object: ObjectId(42),
                size: 512,
                location: LocationId(3),
                first_contact: Some(SatelliteId::new(12, 5)),
                gsl_oneway_ms: 3.984_375,
            },
        ],
        epoch_secs: 15,
    }
}

fn golden_bytes() -> Vec<u8> {
    let mut buf = Vec::new();
    golden_log().write_binary(&mut buf).expect("encode golden log");
    buf
}

/// One-time fixture generator; run `cargo test -p starcdn-sim --test
/// access_log_golden -- --ignored` after an intentional format change.
#[test]
#[ignore]
fn regenerate_golden_fixture() {
    std::fs::create_dir_all(std::path::Path::new(FIXTURE).parent().unwrap()).unwrap();
    std::fs::write(FIXTURE, golden_bytes()).unwrap();
}

#[test]
fn golden_fixture_decodes_to_known_entries() {
    let bytes = std::fs::read(FIXTURE).expect("committed fixture present");
    let log = AccessLog::read_binary(&bytes[..]).expect("fixture decodes");
    assert_eq!(log, golden_log());
}

#[test]
fn golden_fixture_bytes_are_stable() {
    let bytes = std::fs::read(FIXTURE).expect("committed fixture present");
    assert_eq!(
        bytes,
        golden_bytes(),
        "binary format drifted from the committed fixture; if intentional, \
         bump the magic version and regenerate"
    );
    // Header is the 8-byte magic plus the epoch length; records are 39 B.
    assert_eq!(bytes.len(), 16 + 39 * golden_log().entries.len());
    assert_eq!(&bytes[..8], b"STARLOG1");
}

#[test]
fn truncated_header_is_bad_header() {
    let bytes = golden_bytes();
    for cut in 0..16 {
        let err = AccessLog::read_binary(&bytes[..cut]).unwrap_err();
        assert!(matches!(err, IoError::BadHeader), "cut at {cut}: {err:?}");
    }
}

#[test]
fn corrupt_magic_is_bad_header() {
    for i in 0..8 {
        let mut bytes = golden_bytes();
        bytes[i] ^= 0xFF;
        let err = AccessLog::read_binary(&bytes[..]).unwrap_err();
        assert!(matches!(err, IoError::BadHeader), "byte {i}: {err:?}");
    }
}

#[test]
fn empty_log_roundtrips() {
    let log = AccessLog { entries: Vec::new(), epoch_secs: 30 };
    let mut buf = Vec::new();
    log.write_binary(&mut buf).unwrap();
    assert_eq!(buf.len(), 16);
    assert_eq!(AccessLog::read_binary(&buf[..]).unwrap(), log);
}

/// Hostile sizes: two records of `u64::MAX` bytes (one reachable, one
/// with no contact) among ordinary ones. The codec keeps them exactly,
/// and the engine and the replayer count them without overflowing: every
/// byte counter the sizes reach saturates at `u64::MAX` and the request
/// counts stay exact. Recorded, so does the object-size histogram's sum,
/// whether a worker's recorder holds it or a merge of several.
#[test]
fn hostile_sizes_saturate_the_byte_counters() {
    let entry = |ms: u64, size: u64, first_contact: Option<SatelliteId>| AccessLogEntry {
        time: SimTime::from_millis(ms),
        object: ObjectId(ms % 7),
        size,
        location: LocationId(4),
        first_contact,
        gsl_oneway_ms: 2.5,
    };
    let sat = Some(SatelliteId::new(12, 5));
    let log = AccessLog {
        entries: vec![
            entry(0, 1_000, sat),
            entry(1_000, u64::MAX, sat),
            entry(2_000, 1_000, sat),
            entry(16_000, u64::MAX, None),
            entry(17_000, 512, sat),
        ],
        epoch_secs: 15,
    };
    let mut buf = Vec::new();
    log.write_binary(&mut buf).unwrap();
    let back = AccessLog::read_binary(&buf[..]).unwrap();
    assert_eq!(back, log, "the codec keeps hostile sizes exactly");

    let cfg = StarCdnConfig::starcdn_no_relay(4, 1_000_000);
    let engine = run_space(&mut SpaceCdn::new(cfg.clone()), &back);
    assert_eq!(engine.stats.requests, 5);
    assert_eq!(engine.stats.bytes_requested, u64::MAX);
    assert_eq!(engine.uplink_bytes, u64::MAX);
    for workers in [1usize, 4] {
        let m = replay_parallel(cfg.clone(), FailureModel::none(), &back, workers);
        assert_eq!(m.stats, engine.stats, "replayer at {workers} workers");
        assert_eq!(m.uplink_bytes, engine.uplink_bytes, "replayer at {workers} workers");
        assert_eq!(m.per_satellite, engine.per_satellite, "replayer at {workers} workers");
    }

    let object_bytes = |rec: &MemoryRecorder| {
        let snap = rec.snapshot();
        snap.histogram(Histo::ObjectBytes).map(|h| (h.count, h.sum))
    };
    let rec = MemoryRecorder::new();
    let spec = RunSpec { recorder: &rec, ..RunSpec::default() };
    let recorded = engine::run(&mut SpaceCdn::new(cfg.clone()), &back, &spec).unwrap();
    assert_eq!(recorded.stats, engine.stats);
    // The four served requests; the unreachable one is never routed.
    assert_eq!(object_bytes(&rec), Some((4, u64::MAX)), "engine");
    for workers in [1usize, 4] {
        let rec = MemoryRecorder::new();
        let spec = RunSpec { recorder: &rec, ..RunSpec::default() };
        let m = replayer::run(&cfg, &FailureModel::none(), &back, workers, &spec).unwrap();
        assert_eq!(m.stats, engine.stats, "recorded replayer at {workers} workers");
        assert_eq!(object_bytes(&rec), Some((4, u64::MAX)), "replayer at {workers} workers");
    }
}

proptest! {
    /// Roundtrip: arbitrary entries survive encode → decode exactly
    /// (f64 delays bit-for-bit, including the unreachable encoding).
    #[test]
    fn prop_roundtrip_preserves_entries(
        raw in proptest::collection::vec(
            (any::<u64>(), any::<u64>(), any::<u64>(), any::<u16>(), any::<u16>(), any::<u16>()),
            0..50,
        ),
        epoch_secs in 1u64..3600,
    ) {
        let entries: Vec<AccessLogEntry> = raw
            .iter()
            .map(|&(ms, obj, size, loc, orbit, slot)| AccessLogEntry {
                time: SimTime::from_millis(ms % (u64::MAX / 2)),
                object: ObjectId(obj),
                size,
                location: LocationId(loc),
                // Odd orbit numbers double as the "unreachable" case.
                first_contact: (orbit % 3 != 0).then(|| SatelliteId::new(orbit, slot)),
                gsl_oneway_ms: (slot as f64) / 64.0,
            })
            .collect();
        let log = AccessLog { entries, epoch_secs };
        let mut buf = Vec::new();
        log.write_binary(&mut buf).unwrap();
        let back = AccessLog::read_binary(&buf[..]).unwrap();
        prop_assert_eq!(back, log);
    }

    /// Truncating anywhere mid-record errors with `TruncatedRecord`
    /// rather than panicking or silently dropping the tail.
    #[test]
    fn prop_truncation_errors_not_panics(cut_seed in any::<u64>()) {
        let bytes = golden_bytes();
        // Any cut strictly between the header and the full length that
        // is not on a record boundary.
        let span = bytes.len() - 17;
        let cut = 17 + (cut_seed % span as u64) as usize;
        match AccessLog::read_binary(&bytes[..cut]) {
            Ok(log) => {
                // Record-boundary cut: decodes a clean prefix.
                prop_assert_eq!((cut - 16) % 39, 0);
                prop_assert_eq!(log.entries.len(), (cut - 16) / 39);
            }
            Err(IoError::TruncatedRecord) => prop_assert!(!(cut - 16).is_multiple_of(39)),
            Err(other) => prop_assert!(false, "unexpected error {:?}", other),
        }
    }

    /// Arbitrary garbage never panics the reader: every input yields
    /// `Ok` or a structured error.
    #[test]
    fn prop_garbage_input_never_panics(
        bytes in proptest::collection::vec(any::<u8>(), 0..200),
    ) {
        let _ = AccessLog::read_binary(&bytes[..]);
    }
}
