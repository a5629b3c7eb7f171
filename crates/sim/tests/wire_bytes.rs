//! The bytes the public codecs write, pinned as `(CRC-32, length)`: a
//! replayer checkpoint container, a shard server's drain payload with
//! and without telemetry, and a shard-op batch holding all three op
//! kinds. The values were recorded before the codecs were moved onto one
//! reader and writer; a change that moves any of them changed the format,
//! not only the code. Never regenerate them.
//!
//! A checkpoint container's CRC-32 sees only its section lengths: every
//! section ends in the CRC-32 of itself, and the CRC-32 of a message
//! followed by its own CRC-32 is one constant. So each container is also
//! pinned by an FNV-1a digest of its bytes, recorded when the replay
//! fingerprint came to name the shard table (the worker of every slot).

use spacegen::trace::{LocationId, Request, Trace};
use starcdn::config::StarCdnConfig;
use starcdn_cache::object::ObjectId;
use starcdn_constellation::failures::FailureModel;
use starcdn_constellation::schedule::{FaultEvent, FaultSchedule, TimedFault};
use starcdn_io::wire::fp_bytes;
use starcdn_io::RealIo;
use starcdn_orbit::time::SimTime;
use starcdn_orbit::walker::SatelliteId;
use starcdn_sim::{
    build_access_log, crc32, decode_drain, list_checkpoint_files, replayer, AccessLog,
    CheckpointPolicy, Checkpointing, RunSpec, ServePlan, SimConfig, World,
};
use starcdn_telemetry::Noop;

fn log() -> AccessLog {
    let w = World::starlink_nine_cities();
    let reqs: Vec<Request> = (0..3000u64)
        .map(|k| Request {
            time: SimTime::from_secs(k / 6),
            object: ObjectId((k * 7919) % 200),
            size: 500 + (k % 5) * 100,
            location: LocationId((k % 9) as u16),
        })
        .collect();
    build_access_log(&w, &Trace::new(reqs), 15, &SimConfig::default().scheduler())
}

fn churn() -> FaultSchedule {
    FaultSchedule::from_events([
        TimedFault { at_secs: 120, event: FaultEvent::SatDown(SatelliteId::new(3, 7)) },
        TimedFault { at_secs: 240, event: FaultEvent::SatUp(SatelliteId::new(3, 7)) },
    ])
}

fn cfg() -> StarCdnConfig {
    StarCdnConfig::starcdn_no_relay(4, 100_000)
}

fn pin(bytes: &[u8]) -> (u32, usize) {
    (crc32(bytes), bytes.len())
}

/// Every barrier checkpoint of a two-worker churn replay recorded into
/// `Noop`: caches, in-flight queues, cold flags and metrics per worker.
#[test]
fn replay_checkpoint_containers_are_pinned() {
    let dir = std::env::temp_dir().join(format!("starcdn-wire-bytes-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let policy = CheckpointPolicy { every_n_epochs: 4, dir: dir.clone(), keep_last: 0 };
    let sched = churn();
    let spec = RunSpec {
        schedule: &sched,
        checkpoint: Some(Checkpointing { policy: &policy, io: &RealIo, resume: false }),
        recorder: &Noop,
        ..RunSpec::default()
    };
    replayer::run(&cfg(), &FailureModel::none(), &log(), 2, &spec).unwrap();
    let got: Vec<(u64, (u32, usize), u64)> = list_checkpoint_files(&dir)
        .into_iter()
        .map(|(epoch, path)| {
            let bytes = std::fs::read(path).unwrap();
            (epoch, pin(&bytes), fp_bytes(0xCBF2_9CE4_8422_2325, &bytes))
        })
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    let want = [
        (4, (0x84FB_7F6A, 47400), 0x81C0_99C7_8FA8_2891),
        (8, (0x4B13_993A, 56172), 0x4BC5_C895_FD78_3A07),
        (12, (0x464B_D70C, 64924), 0xFED9_E73E_78FA_8562),
        (16, (0x761D_E5E3, 72944), 0x2DF9_C34A_D243_4BD2),
        (20, (0x2BF5_D038, 80880), 0x6452_8D29_43D4_83D5),
        (24, (0x2886_7BEA, 88184), 0xC15B_EE47_CBA6_742C),
        (28, (0x649C_E6F4, 95132), 0xD0E6_8CF2_FB2A_64FF),
        (32, (0x1B75_5B0F, 102436), 0x2937_FFDD_FB48_89CE),
    ];
    assert_eq!(got, want);
}

/// The op batch of a one-shard plan whose every op fits one batch:
/// requests, the churned satellite's wipe and its mark-cold.
fn one_batch_plan() -> ServePlan {
    ServePlan::build(&cfg(), &FailureModel::none(), &log(), Some(&churn()), None, 1, 1 << 20, &Noop)
        .unwrap()
}

/// Op counts of an encoded batch by tag, walking the documented layout
/// (u32 count; a request is 50 bytes with its tag, a wipe or mark-cold 9).
fn op_kinds(batch: &[u8]) -> [u32; 3] {
    let count = u32::from_le_bytes(batch[..4].try_into().unwrap());
    let mut kinds = [0u32; 3];
    let mut at = 4;
    for _ in 0..count {
        let tag = batch[at] as usize;
        kinds[tag] += 1;
        at += if tag == 0 { 50 } else { 9 };
    }
    assert_eq!(at, batch.len());
    kinds
}

#[test]
fn shard_op_batch_is_pinned() {
    let plan = one_batch_plan();
    assert_eq!(plan.batch_count(0), 1);
    let batch = plan.batch_bytes(0, 0);
    let [requests, wipes, marks] = op_kinds(batch);
    assert_eq!((requests as u64, wipes, marks), (plan.request_count(0), 1, 1));
    assert_eq!(pin(batch), (0x4479_6AD3, 150022));
}

#[test]
fn drain_payloads_are_pinned_with_and_without_telemetry() {
    let plan = one_batch_plan();
    for (record, pinned) in [(false, (0xB2C8_2E9E, 30201)), (true, (0x57EE_A25A, 30497))] {
        let mut st = plan.shard_state(record);
        st.apply_batch(plan.batch_bytes(0, 0)).unwrap();
        let drain = st.drain_bytes();
        let (_, snap) = decode_drain(&drain).unwrap();
        assert_eq!(snap.is_some(), record);
        assert_eq!(pin(&drain), pinned, "record {record}");
    }
}
