//! Deterministic, seeded storage-fault injection.
//!
//! [`FaultyIo`] wraps the real filesystem and injects the failure modes
//! flash on an intermittently powered satellite actually exhibits:
//! short writes, write errors, failed fsyncs, failed and *torn* renames
//! (rename visible, data pages lost), ENOSPC after a byte budget, read
//! errors, silent single-bit flips on read, and crash points that kill
//! the simulated process at any chosen I/O operation.
//!
//! Every decision is a pure function of `(plan.seed, op_index)`, so a
//! failing schedule replays exactly from its seed. Crash semantics are
//! permanent: once a crash point fires, every later operation fails
//! with the same [`CrashPoint`] error — the "process" is dead, and
//! whatever bytes made it to disk are what resume gets to work with.

use crate::{CrashPoint, Io, IoError, IoFile, IoOp, IoResult, RealIo};
use std::ffi::OsString;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// One injectable failure mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// `write_all` persists only a prefix, then reports failure.
    ShortWrite,
    /// `write_all` persists nothing and reports an I/O error.
    WriteErr,
    /// `sync_all` reports failure (durability not guaranteed).
    SyncFail,
    /// `rename` fails; the source file stays in place.
    RenameFail,
    /// `rename` succeeds but the destination loses its tail — the
    /// metadata-before-data reordering a power cut exposes.
    TornRename,
    /// The disk fills: writes beyond the plan's byte budget fail with
    /// ENOSPC, persistently.
    Enospc,
    /// A read reports an I/O error (EIO).
    ReadErr,
    /// A read *silently* returns data with one bit flipped.
    BitFlip,
    /// The process dies at this operation and every one after it.
    Crash,
}

/// A deterministic fault schedule: which kinds can fire, how often, and
/// any absolute crash point or ENOSPC budget.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Seeds every per-operation decision.
    pub seed: u64,
    /// Kinds eligible to fire (an op only draws from kinds that apply
    /// to it).
    pub kinds: Vec<FaultKind>,
    /// A rate-based fault fires roughly once per `denom` operations
    /// (0 disables rate-based faults).
    pub denom: u64,
    /// Stop injecting rate-based faults after this many have fired.
    pub max_faults: Option<u64>,
    /// Total bytes writable before ENOSPC (None = unlimited).
    pub enospc_budget: Option<u64>,
    /// Kill the process at exactly this operation index.
    pub crash_at_op: Option<u64>,
}

impl FaultPlan {
    /// No faults at all: [`FaultyIo`] behaves like [`RealIo`] while
    /// still counting operations.
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            kinds: Vec::new(),
            denom: 0,
            max_faults: None,
            enospc_budget: None,
            crash_at_op: None,
        }
    }

    /// The general write-side torture mix: short writes, write errors,
    /// sync failures, failed and torn renames, and crash points, with
    /// an ENOSPC budget on some seeds.
    pub fn seeded(seed: u64) -> Self {
        let h = splitmix64(seed);
        FaultPlan {
            seed,
            kinds: vec![
                FaultKind::ShortWrite,
                FaultKind::WriteErr,
                FaultKind::SyncFail,
                FaultKind::RenameFail,
                FaultKind::TornRename,
                FaultKind::Crash,
            ],
            denom: 24,
            max_faults: None,
            // One seed in five runs against a finite disk.
            enospc_budget: seed.is_multiple_of(5).then_some(256 * 1024 + h % (2 * 1024 * 1024)),
            crash_at_op: None,
        }
    }

    /// Exactly one file-damaging fault over the whole run — the
    /// single-file-fault availability invariant: with `keep_last >= 2`
    /// a restorable checkpoint must survive it.
    pub fn single(seed: u64) -> Self {
        FaultPlan {
            seed,
            kinds: vec![
                FaultKind::ShortWrite,
                FaultKind::WriteErr,
                FaultKind::SyncFail,
                FaultKind::RenameFail,
                FaultKind::TornRename,
            ],
            denom: 48,
            max_faults: Some(1),
            enospc_budget: None,
            crash_at_op: None,
        }
    }

    /// Only crash points: the process dies at a seed-chosen operation.
    pub fn crash_only(seed: u64) -> Self {
        FaultPlan {
            seed,
            kinds: vec![FaultKind::Crash],
            denom: 32,
            max_faults: Some(1),
            enospc_budget: None,
            crash_at_op: None,
        }
    }

    /// Read-side faults only (EIO and bit flips), for torturing resume
    /// over intact checkpoint directories.
    pub fn read_faults(seed: u64) -> Self {
        FaultPlan {
            seed,
            kinds: vec![FaultKind::ReadErr, FaultKind::BitFlip],
            denom: 2,
            max_faults: None,
            enospc_budget: None,
            crash_at_op: None,
        }
    }
}

/// What a [`FaultyIo`] actually did, for harness assertions.
#[derive(Debug, Default, Clone)]
pub struct FaultStats {
    /// Total operations attempted (including post-crash rejections).
    pub ops: u64,
    /// Rate-based faults fired.
    pub faults: u64,
    pub short_writes: u64,
    pub write_errs: u64,
    pub sync_fails: u64,
    pub rename_fails: u64,
    pub torn_renames: u64,
    pub enospc_hits: u64,
    pub read_errs: u64,
    pub bit_flips: u64,
    /// Renames that completed untouched — each one is a durable,
    /// intact checkpoint (or other final file) on disk.
    pub clean_renames: u64,
    /// The crash point fired (op index recorded).
    pub crashed_at: Option<u64>,
}

impl FaultStats {
    pub fn crashed(&self) -> bool {
        self.crashed_at.is_some()
    }
}

pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

struct Inner {
    plan: FaultPlan,
    next_op: u64,
    bytes_written: u64,
    stats: FaultStats,
}

struct Shared {
    real: RealIo,
    inner: Mutex<Inner>,
}

/// The seeded fault injector. Cheap to clone (shared state), safe to
/// share across threads, deterministic per plan.
#[derive(Clone)]
pub struct FaultyIo {
    shared: Arc<Shared>,
}

/// The fault (if any) chosen for one operation.
enum Decision {
    None,
    Fault(FaultKind),
    Crash(u64),
    Dead(u64),
}

impl FaultyIo {
    pub fn new(plan: FaultPlan) -> Self {
        FaultyIo {
            shared: Arc::new(Shared {
                real: RealIo,
                inner: Mutex::new(Inner {
                    plan,
                    next_op: 0,
                    bytes_written: 0,
                    stats: FaultStats::default(),
                }),
            }),
        }
    }

    /// Snapshot of everything injected so far.
    pub fn stats(&self) -> FaultStats {
        self.shared.inner.lock().unwrap().stats.clone()
    }

    /// True once a crash point has fired (all later ops fail).
    pub fn crashed(&self) -> bool {
        self.shared.inner.lock().unwrap().stats.crashed_at.is_some()
    }
}

fn crash_error(op: IoOp, path: &Path, at: u64) -> IoError {
    IoError::new(op, path, std::io::Error::other(CrashPoint { op_index: at }))
}

fn injected(op: IoOp, path: &Path, kind: std::io::ErrorKind, what: &str) -> IoError {
    IoError::new(op, path, std::io::Error::new(kind, format!("{what} (injected)")))
}

impl Shared {
    /// Account one operation and decide its fate. `applicable` is the
    /// subset of fault kinds that make sense for this operation; the
    /// plan's enabled kinds are intersected with it.
    fn decide(&self, applicable: &[FaultKind]) -> Decision {
        let mut inner = self.inner.lock().unwrap();
        inner.stats.ops += 1;
        if let Some(at) = inner.stats.crashed_at {
            return Decision::Dead(at);
        }
        let i = inner.next_op;
        inner.next_op += 1;
        if inner.plan.crash_at_op == Some(i) {
            inner.stats.crashed_at = Some(i);
            return Decision::Crash(i);
        }
        if inner.plan.denom == 0 {
            return Decision::None;
        }
        if let Some(max) = inner.plan.max_faults {
            if inner.stats.faults >= max {
                return Decision::None;
            }
        }
        let h = splitmix64(inner.plan.seed ^ splitmix64(i));
        if !h.is_multiple_of(inner.plan.denom) {
            return Decision::None;
        }
        let eligible: Vec<FaultKind> =
            applicable.iter().copied().filter(|k| inner.plan.kinds.contains(k)).collect();
        if eligible.is_empty() {
            return Decision::None;
        }
        let kind = eligible[((h >> 33) as usize) % eligible.len()];
        inner.stats.faults += 1;
        if kind == FaultKind::Crash {
            inner.stats.crashed_at = Some(i);
            return Decision::Crash(i);
        }
        Decision::Fault(kind)
    }

    /// ENOSPC accounting for `len` incoming bytes: how many still fit.
    /// Consumes budget for the bytes that will be written.
    fn admit_bytes(&self, len: u64) -> Result<(), u64> {
        let mut inner = self.inner.lock().unwrap();
        let Some(budget) = inner.plan.enospc_budget else {
            inner.bytes_written += len;
            return Ok(());
        };
        if inner.bytes_written + len <= budget {
            inner.bytes_written += len;
            return Ok(());
        }
        let fit = budget.saturating_sub(inner.bytes_written);
        inner.bytes_written = budget;
        inner.stats.enospc_hits += 1;
        Err(fit)
    }

    fn bump(&self, f: impl FnOnce(&mut FaultStats)) {
        f(&mut self.inner.lock().unwrap().stats)
    }

    /// The hash driving data-dependent fault details (bit positions),
    /// keyed off the op that chose the fault.
    fn detail_hash(&self) -> u64 {
        let inner = self.inner.lock().unwrap();
        splitmix64(inner.plan.seed ^ splitmix64(inner.next_op.wrapping_mul(0x9E37)))
    }
}

struct FaultyFile {
    file: Box<dyn IoFile>,
    path: PathBuf,
    shared: Arc<Shared>,
}

impl IoFile for FaultyFile {
    fn write_all(&mut self, buf: &[u8]) -> IoResult<()> {
        match self.shared.decide(&[FaultKind::ShortWrite, FaultKind::WriteErr, FaultKind::Crash]) {
            Decision::Dead(at) => Err(crash_error(IoOp::Write, &self.path, at)),
            Decision::Crash(at) => {
                // Power dies mid-write: a prefix may have hit the disk.
                let k = buf.len() / 2;
                if k > 0 && self.shared.admit_bytes(k as u64).is_ok() {
                    let _ = self.file.write_all(&buf[..k]);
                }
                Err(crash_error(IoOp::Write, &self.path, at))
            }
            Decision::Fault(FaultKind::ShortWrite) => {
                let k = buf.len() / 2;
                if k > 0 && self.shared.admit_bytes(k as u64).is_ok() {
                    let _ = self.file.write_all(&buf[..k]);
                }
                self.shared.bump(|s| s.short_writes += 1);
                Err(injected(IoOp::Write, &self.path, std::io::ErrorKind::WriteZero, "short write"))
            }
            Decision::Fault(FaultKind::WriteErr) => {
                self.shared.bump(|s| s.write_errs += 1);
                Err(injected(IoOp::Write, &self.path, std::io::ErrorKind::Other, "write error"))
            }
            Decision::Fault(_) | Decision::None => {
                match self.shared.admit_bytes(buf.len() as u64) {
                    Ok(()) => self.file.write_all(buf),
                    Err(fit) => {
                        if fit > 0 {
                            let _ = self.file.write_all(&buf[..fit as usize]);
                        }
                        Err(injected(
                            IoOp::Write,
                            &self.path,
                            std::io::ErrorKind::Other,
                            "no space left on device",
                        ))
                    }
                }
            }
        }
    }

    fn read(&mut self, buf: &mut [u8]) -> IoResult<usize> {
        match self.shared.decide(&[FaultKind::ReadErr, FaultKind::BitFlip, FaultKind::Crash]) {
            Decision::Dead(at) | Decision::Crash(at) => {
                Err(crash_error(IoOp::Read, &self.path, at))
            }
            Decision::Fault(FaultKind::ReadErr) => {
                self.shared.bump(|s| s.read_errs += 1);
                Err(injected(IoOp::Read, &self.path, std::io::ErrorKind::Other, "read error"))
            }
            Decision::Fault(FaultKind::BitFlip) => {
                let n = self.file.read(buf)?;
                if n > 0 {
                    let h = self.shared.detail_hash();
                    let bit = (h % (n as u64 * 8)) as usize;
                    buf[bit / 8] ^= 1 << (bit % 8);
                    self.shared.bump(|s| s.bit_flips += 1);
                }
                Ok(n)
            }
            Decision::Fault(_) | Decision::None => self.file.read(buf),
        }
    }

    fn sync_all(&mut self) -> IoResult<()> {
        match self.shared.decide(&[FaultKind::SyncFail, FaultKind::Crash]) {
            Decision::Dead(at) => Err(crash_error(IoOp::Sync, &self.path, at)),
            Decision::Crash(at) => {
                // Power dies at fsync: the page cache never made it out.
                // Model the loss by truncating what was "written".
                truncate_half(&self.path);
                Err(crash_error(IoOp::Sync, &self.path, at))
            }
            Decision::Fault(FaultKind::SyncFail) => {
                self.shared.bump(|s| s.sync_fails += 1);
                Err(injected(IoOp::Sync, &self.path, std::io::ErrorKind::Other, "fsync failed"))
            }
            Decision::Fault(_) | Decision::None => self.file.sync_all(),
        }
    }
}

/// Chop a file to half its current length (best-effort), modeling data
/// pages that never reached the disk.
fn truncate_half(path: &Path) {
    if let Ok(meta) = std::fs::metadata(path) {
        let half = meta.len() / 2;
        if let Ok(f) = std::fs::OpenOptions::new().write(true).open(path) {
            let _ = f.set_len(half);
        }
    }
}

impl Io for FaultyIo {
    fn create(&self, path: &Path) -> IoResult<Box<dyn IoFile>> {
        match self.shared.decide(&[FaultKind::Crash]) {
            Decision::Dead(at) | Decision::Crash(at) => Err(crash_error(IoOp::Create, path, at)),
            _ => {
                let file = self.shared.real.create(path)?;
                Ok(Box::new(FaultyFile {
                    file,
                    path: path.to_path_buf(),
                    shared: Arc::clone(&self.shared),
                }))
            }
        }
    }

    fn open(&self, path: &Path) -> IoResult<Box<dyn IoFile>> {
        match self.shared.decide(&[FaultKind::Crash]) {
            Decision::Dead(at) | Decision::Crash(at) => Err(crash_error(IoOp::Open, path, at)),
            _ => {
                let file = self.shared.real.open(path)?;
                Ok(Box::new(FaultyFile {
                    file,
                    path: path.to_path_buf(),
                    shared: Arc::clone(&self.shared),
                }))
            }
        }
    }

    fn read(&self, path: &Path) -> IoResult<Vec<u8>> {
        match self.shared.decide(&[FaultKind::ReadErr, FaultKind::BitFlip, FaultKind::Crash]) {
            Decision::Dead(at) | Decision::Crash(at) => Err(crash_error(IoOp::Read, path, at)),
            Decision::Fault(FaultKind::ReadErr) => {
                self.shared.bump(|s| s.read_errs += 1);
                Err(injected(IoOp::Read, path, std::io::ErrorKind::Other, "read error"))
            }
            Decision::Fault(FaultKind::BitFlip) => {
                let mut bytes = self.shared.real.read(path)?;
                if !bytes.is_empty() {
                    let h = self.shared.detail_hash();
                    let bit = (h % (bytes.len() as u64 * 8)) as usize;
                    bytes[bit / 8] ^= 1 << (bit % 8);
                    self.shared.bump(|s| s.bit_flips += 1);
                }
                Ok(bytes)
            }
            Decision::Fault(_) | Decision::None => self.shared.real.read(path),
        }
    }

    fn rename(&self, from: &Path, to: &Path) -> IoResult<()> {
        match self.shared.decide(&[FaultKind::RenameFail, FaultKind::TornRename, FaultKind::Crash])
        {
            Decision::Dead(at) | Decision::Crash(at) => {
                // Power dies before the rename hits the journal: the
                // source file stays; the destination never appears.
                Err(crash_error(IoOp::Rename, from, at))
            }
            Decision::Fault(FaultKind::RenameFail) => {
                self.shared.bump(|s| s.rename_fails += 1);
                Err(injected(IoOp::Rename, from, std::io::ErrorKind::Other, "rename failed"))
            }
            Decision::Fault(FaultKind::TornRename) => {
                // The rename becomes visible but the file's data pages
                // were never flushed: destination exists, tail gone.
                self.shared.real.rename(from, to)?;
                truncate_half(to);
                self.shared.bump(|s| s.torn_renames += 1);
                Ok(())
            }
            Decision::Fault(_) | Decision::None => {
                self.shared.real.rename(from, to)?;
                self.shared.bump(|s| s.clean_renames += 1);
                Ok(())
            }
        }
    }

    fn remove_file(&self, path: &Path) -> IoResult<()> {
        match self.shared.decide(&[FaultKind::Crash]) {
            Decision::Dead(at) | Decision::Crash(at) => {
                Err(crash_error(IoOp::RemoveFile, path, at))
            }
            _ => self.shared.real.remove_file(path),
        }
    }

    fn create_dir_all(&self, path: &Path) -> IoResult<()> {
        match self.shared.decide(&[FaultKind::Crash]) {
            Decision::Dead(at) | Decision::Crash(at) => {
                Err(crash_error(IoOp::CreateDirAll, path, at))
            }
            _ => self.shared.real.create_dir_all(path),
        }
    }

    fn sync_dir(&self, path: &Path) -> IoResult<()> {
        match self.shared.decide(&[FaultKind::SyncFail, FaultKind::Crash]) {
            Decision::Dead(at) | Decision::Crash(at) => Err(crash_error(IoOp::SyncDir, path, at)),
            Decision::Fault(FaultKind::SyncFail) => {
                self.shared.bump(|s| s.sync_fails += 1);
                Err(injected(IoOp::SyncDir, path, std::io::ErrorKind::Other, "fsync failed"))
            }
            Decision::Fault(_) | Decision::None => self.shared.real.sync_dir(path),
        }
    }

    fn list_dir(&self, path: &Path) -> IoResult<Vec<OsString>> {
        match self.shared.decide(&[FaultKind::Crash]) {
            Decision::Dead(at) | Decision::Crash(at) => Err(crash_error(IoOp::ListDir, path, at)),
            _ => self.shared.real.list_dir(path),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("starcdn-faulty-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    /// Drive a fixed op script against an injector and fold what
    /// happened into a comparable trace.
    fn run_script(io: &FaultyIo, dir: &Path) -> Vec<String> {
        let mut out = Vec::new();
        for i in 0..40u64 {
            let tmp = dir.join(format!("f-{i}.tmp"));
            let dst = dir.join(format!("f-{i}"));
            let step = (|| -> IoResult<()> {
                let mut f = io.create(&tmp)?;
                f.write_all(&vec![i as u8; 512])?;
                f.sync_all()?;
                drop(f);
                io.rename(&tmp, &dst)?;
                let _ = io.read(&dst)?;
                Ok(())
            })();
            out.push(match step {
                Ok(()) => "ok".to_string(),
                Err(e) => format!("{}:{}", e.op.name(), e.is_crash()),
            });
            if io.crashed() {
                break;
            }
        }
        out
    }

    #[test]
    fn same_seed_same_schedule() {
        for seed in [1u64, 7, 42, 1000, 65537] {
            let d1 = tmpdir(&format!("det-a-{seed}"));
            let d2 = tmpdir(&format!("det-b-{seed}"));
            let a = FaultyIo::new(FaultPlan::seeded(seed));
            let b = FaultyIo::new(FaultPlan::seeded(seed));
            assert_eq!(run_script(&a, &d1), run_script(&b, &d2), "seed {seed}");
            let (sa, sb) = (a.stats(), b.stats());
            assert_eq!(sa.ops, sb.ops);
            assert_eq!(sa.faults, sb.faults);
            assert_eq!(sa.crashed_at, sb.crashed_at);
            let _ = std::fs::remove_dir_all(&d1);
            let _ = std::fs::remove_dir_all(&d2);
        }
    }

    #[test]
    fn crash_is_permanent() {
        let d = tmpdir("crash-perm");
        let io = FaultyIo::new(FaultPlan { crash_at_op: Some(3), ..FaultPlan::none() });
        let p = d.join("x");
        let mut f = io.create(&p).unwrap(); // op 0
        f.write_all(b"aaaa").unwrap(); // op 1
        f.sync_all().unwrap(); // op 2
        let err = io.rename(&p, &d.join("y")).unwrap_err(); // op 3: dies
        assert!(err.is_crash());
        // Dead forever after.
        assert!(io.read(&p).unwrap_err().is_crash());
        assert!(io.create(&d.join("z")).map(|_| ()).unwrap_err().is_crash());
        assert!(io.list_dir(&d).unwrap_err().is_crash());
        assert_eq!(io.stats().crashed_at, Some(3));
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn enospc_budget_is_persistent() {
        let d = tmpdir("enospc");
        let io = FaultyIo::new(FaultPlan { enospc_budget: Some(1000), ..FaultPlan::none() });
        let mut f = io.create(&d.join("a")).unwrap();
        f.write_all(&[0u8; 600]).unwrap();
        // 600 written, 400 left: an 800-byte write hits the wall.
        let err = f.write_all(&[0u8; 800]).unwrap_err();
        assert!(err.to_string().contains("no space"), "{err}");
        // The disk stays full: even one byte fails now.
        let mut g = io.create(&d.join("b")).unwrap();
        assert!(g.write_all(&[0u8; 1]).is_err());
        assert!(io.stats().enospc_hits >= 1);
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn torn_rename_loses_the_tail() {
        let d = tmpdir("torn");
        // Make TornRename the only eligible kind and force it on every
        // eligible op.
        let io = FaultyIo::new(FaultPlan {
            seed: 9,
            kinds: vec![FaultKind::TornRename],
            denom: 1,
            max_faults: None,
            enospc_budget: None,
            crash_at_op: None,
        });
        let p = d.join("t.tmp");
        let q = d.join("t");
        let mut f = io.create(&p).unwrap();
        f.write_all(&[7u8; 1000]).unwrap();
        drop(f);
        io.rename(&p, &q).unwrap(); // "succeeds"
        assert_eq!(std::fs::metadata(&q).unwrap().len(), 500, "tail lost");
        assert_eq!(io.stats().torn_renames, 1);
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn bit_flip_is_silent_and_seeded() {
        let d = tmpdir("flip");
        std::fs::write(d.join("data"), vec![0u8; 4096]).unwrap();
        let io = FaultyIo::new(FaultPlan {
            seed: 1234,
            kinds: vec![FaultKind::BitFlip],
            denom: 1,
            max_faults: None,
            enospc_budget: None,
            crash_at_op: None,
        });
        let a = io.read(&d.join("data")).unwrap();
        let flipped: u32 = a.iter().map(|b| b.count_ones()).sum();
        assert_eq!(flipped, 1, "exactly one bit flipped");
        // Same seed, fresh injector: same bit.
        let io2 = FaultyIo::new(FaultPlan {
            seed: 1234,
            kinds: vec![FaultKind::BitFlip],
            denom: 1,
            max_faults: None,
            enospc_budget: None,
            crash_at_op: None,
        });
        assert_eq!(io2.read(&d.join("data")).unwrap(), a);
        assert_eq!(io.stats().bit_flips, 1);
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn single_plan_fires_at_most_once() {
        for seed in 0..50u64 {
            let d = tmpdir(&format!("single-{seed}"));
            let io = FaultyIo::new(FaultPlan::single(seed));
            let _ = run_script(&io, &d);
            let s = io.stats();
            assert!(s.faults <= 1, "seed {seed}: {} faults", s.faults);
            assert!(!s.crashed(), "single plans never crash");
            let _ = std::fs::remove_dir_all(&d);
        }
    }

    #[test]
    fn none_plan_is_transparent() {
        let d = tmpdir("none");
        let io = FaultyIo::new(FaultPlan::none());
        let trace = run_script(&io, &d);
        assert!(trace.iter().all(|s| s == "ok"), "{trace:?}");
        let s = io.stats();
        assert_eq!(s.faults, 0);
        assert!(s.ops > 0);
        assert_eq!(s.clean_renames, 40);
        let _ = std::fs::remove_dir_all(&d);
    }
}
