//! The storage seam: every filesystem operation in the workspace goes
//! through the [`Io`] trait (DESIGN.md §15).
//!
//! StarCDN's satellites checkpoint onto intermittently powered,
//! radiation-exposed flash where short writes, failed fsyncs, torn
//! renames, ENOSPC, and bit rot are routine. The simulator's
//! crash-consistency machinery (`starcdn-sim::checkpoint`, the
//! segmented replayer, spacegen trace I/O) therefore takes its
//! filesystem through this seam:
//!
//! * [`RealIo`] — the zero-sized production default that forwards
//!   straight to `std::fs` and adds operation + path context to every
//!   error;
//! * [`FaultyIo`] — a deterministic, seeded fault injector wrapping the
//!   real filesystem, used by the torture harness to prove that resume
//!   either reproduces the golden run bit-for-bit or fails with a typed
//!   error — never a panic, never silent divergence.
//!
//! The trait is object-safe on purpose: callers thread a `&dyn Io`
//! so production entry points and the torture harness share one code
//! path, with the real-filesystem case costing one virtual call per
//! file *operation* (not per byte — bulk reads and writes stay bulk).
//!
//! What goes into those files (and onto the socket plane's wire) is
//! read and written through [`wire`]: one bounds-checked little-endian
//! reader and writer, CRC-32 and FNV-1a.

pub mod faulty;
pub mod wire;

pub use faulty::{FaultKind, FaultPlan, FaultStats, FaultyIo};

use std::ffi::OsString;
use std::fmt;
use std::fs;
use std::io::{Read as _, Write as _};
use std::path::{Path, PathBuf};

// ---------------------------------------------------------------------------
// Errors: every failure names the operation and the path.
// ---------------------------------------------------------------------------

/// Which filesystem operation failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IoOp {
    Create,
    Open,
    Read,
    Write,
    Sync,
    Rename,
    RemoveFile,
    CreateDirAll,
    SyncDir,
    ListDir,
}

impl IoOp {
    /// Lowercase human name, used in error messages.
    pub(crate) fn name(self) -> &'static str {
        match self {
            IoOp::Create => "create",
            IoOp::Open => "open",
            IoOp::Read => "read",
            IoOp::Write => "write",
            IoOp::Sync => "sync",
            IoOp::Rename => "rename",
            IoOp::RemoveFile => "remove",
            IoOp::CreateDirAll => "create-dir",
            IoOp::SyncDir => "sync-dir",
            IoOp::ListDir => "list-dir",
        }
    }
}

/// A filesystem failure with operation and path context, so a torture
/// run that dies deep inside resume still names the exact call and file
/// that failed.
#[derive(Debug)]
pub struct IoError {
    /// The operation that failed.
    pub op: IoOp,
    /// The path it was applied to (the *source* path for renames).
    pub path: PathBuf,
    /// The underlying error.
    pub source: std::io::Error,
}

impl IoError {
    pub(crate) fn new(op: IoOp, path: &Path, source: std::io::Error) -> Self {
        IoError { op, path: path.to_path_buf(), source }
    }

    /// True when this error is an injected crash point: the simulated
    /// process is dead, so cleanup handlers must not run (a real crash
    /// would not have run them either).
    pub fn is_crash(&self) -> bool {
        self.source.get_ref().is_some_and(|e| e.is::<CrashPoint>())
    }
}

impl fmt::Display for IoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}: {}", self.op.name(), self.path.display(), self.source)
    }
}

impl std::error::Error for IoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

/// The payload inside the `std::io::Error` produced when a [`FaultyIo`]
/// crash point fires. Carries the operation index so a failing seed can
/// be replayed to the exact call.
#[derive(Debug)]
pub struct CrashPoint {
    /// Index of the I/O operation at which the simulated process died.
    pub op_index: u64,
}

impl fmt::Display for CrashPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "injected crash point at I/O operation {}", self.op_index)
    }
}

impl std::error::Error for CrashPoint {}

pub type IoResult<T> = Result<T, IoError>;

// ---------------------------------------------------------------------------
// The traits.
// ---------------------------------------------------------------------------

/// An open file handle behind the seam.
pub trait IoFile: Send {
    /// Write the whole buffer (may fail mid-way: short writes are a
    /// fault the injector exercises).
    fn write_all(&mut self, buf: &[u8]) -> IoResult<()>;
    /// Read up to `buf.len()` bytes, returning the count (0 = EOF).
    fn read(&mut self, buf: &mut [u8]) -> IoResult<usize>;
    /// Flush file contents and metadata to stable storage.
    fn sync_all(&mut self) -> IoResult<()>;
}

/// The filesystem surface the workspace uses. Object-safe; see the
/// crate docs for why this exists.
pub trait Io: Sync {
    /// Create (or truncate) a file for writing.
    fn create(&self, path: &Path) -> IoResult<Box<dyn IoFile>>;
    /// Open an existing file for reading.
    fn open(&self, path: &Path) -> IoResult<Box<dyn IoFile>>;
    /// Read a whole file into memory.
    fn read(&self, path: &Path) -> IoResult<Vec<u8>>;
    /// Atomically rename `from` to `to` (same directory).
    fn rename(&self, from: &Path, to: &Path) -> IoResult<()>;
    /// Remove a file.
    fn remove_file(&self, path: &Path) -> IoResult<()>;
    /// Create a directory and any missing parents.
    fn create_dir_all(&self, path: &Path) -> IoResult<()>;
    /// Fsync a directory, making renames within it durable. Callers
    /// treat failure as best-effort: not every filesystem supports it.
    fn sync_dir(&self, path: &Path) -> IoResult<()>;
    /// Entry names in a directory, sorted, so iteration order never
    /// depends on the filesystem.
    fn list_dir(&self, path: &Path) -> IoResult<Vec<OsString>>;
}

// ---------------------------------------------------------------------------
// std::io adapters for the streaming codecs.
// ---------------------------------------------------------------------------

fn into_std(e: IoError) -> std::io::Error {
    std::io::Error::new(e.source.kind(), e)
}

/// Wraps an [`IoFile`] as a `std::io::Write`, so the streaming binary
/// codecs (spacegen traces, access logs) run unchanged over the seam.
/// The typed [`IoError`] travels inside the `std::io::Error` it emits.
pub struct WriteAdapter<'a>(pub &'a mut dyn IoFile);

impl std::io::Write for WriteAdapter<'_> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.write_all(buf).map_err(into_std)?;
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Wraps an [`IoFile`] as a `std::io::Read` for the streaming decoders.
pub struct ReadAdapter<'a>(pub &'a mut dyn IoFile);

impl std::io::Read for ReadAdapter<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.0.read(buf).map_err(into_std)
    }
}

// ---------------------------------------------------------------------------
// RealIo: the zero-cost production default.
// ---------------------------------------------------------------------------

/// Forwards every operation to `std::fs`, adding operation + path
/// context to errors. Zero-sized; `&RealIo` is the default argument of
/// every non-`_io` entry point in the workspace.
#[derive(Debug, Default, Clone, Copy)]
pub struct RealIo;

struct RealFile {
    file: fs::File,
    path: PathBuf,
}

impl IoFile for RealFile {
    fn write_all(&mut self, buf: &[u8]) -> IoResult<()> {
        self.file.write_all(buf).map_err(|e| IoError::new(IoOp::Write, &self.path, e))
    }
    fn read(&mut self, buf: &mut [u8]) -> IoResult<usize> {
        self.file.read(buf).map_err(|e| IoError::new(IoOp::Read, &self.path, e))
    }
    fn sync_all(&mut self) -> IoResult<()> {
        self.file.sync_all().map_err(|e| IoError::new(IoOp::Sync, &self.path, e))
    }
}

impl Io for RealIo {
    fn create(&self, path: &Path) -> IoResult<Box<dyn IoFile>> {
        let file = fs::File::create(path).map_err(|e| IoError::new(IoOp::Create, path, e))?;
        Ok(Box::new(RealFile { file, path: path.to_path_buf() }))
    }

    fn open(&self, path: &Path) -> IoResult<Box<dyn IoFile>> {
        let file = fs::File::open(path).map_err(|e| IoError::new(IoOp::Open, path, e))?;
        Ok(Box::new(RealFile { file, path: path.to_path_buf() }))
    }

    fn read(&self, path: &Path) -> IoResult<Vec<u8>> {
        fs::read(path).map_err(|e| IoError::new(IoOp::Read, path, e))
    }

    fn rename(&self, from: &Path, to: &Path) -> IoResult<()> {
        fs::rename(from, to).map_err(|e| IoError::new(IoOp::Rename, from, e))
    }

    fn remove_file(&self, path: &Path) -> IoResult<()> {
        fs::remove_file(path).map_err(|e| IoError::new(IoOp::RemoveFile, path, e))
    }

    fn create_dir_all(&self, path: &Path) -> IoResult<()> {
        fs::create_dir_all(path).map_err(|e| IoError::new(IoOp::CreateDirAll, path, e))
    }

    fn sync_dir(&self, path: &Path) -> IoResult<()> {
        let d = fs::File::open(path).map_err(|e| IoError::new(IoOp::SyncDir, path, e))?;
        d.sync_all().map_err(|e| IoError::new(IoOp::SyncDir, path, e))
    }

    fn list_dir(&self, path: &Path) -> IoResult<Vec<OsString>> {
        let rd = fs::read_dir(path).map_err(|e| IoError::new(IoOp::ListDir, path, e))?;
        let mut names: Vec<OsString> = rd.flatten().map(|e| e.file_name()).collect();
        names.sort();
        Ok(names)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("starcdn-io-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn real_io_roundtrip_and_listing() {
        let d = tmpdir("real");
        let io = RealIo;
        let p = d.join("a.bin");
        {
            let mut f = io.create(&p).unwrap();
            f.write_all(b"hello").unwrap();
            f.sync_all().unwrap();
        }
        assert_eq!(io.read(&p).unwrap(), b"hello");
        let q = d.join("b.bin");
        io.rename(&p, &q).unwrap();
        io.sync_dir(&d).unwrap();
        assert_eq!(io.list_dir(&d).unwrap(), vec![OsString::from("b.bin")]);
        let mut buf = Vec::new();
        let mut f = io.open(&q).unwrap();
        ReadAdapter(&mut *f).read_to_end(&mut buf).unwrap();
        assert_eq!(buf, b"hello");
        io.remove_file(&q).unwrap();
        assert!(io.list_dir(&d).unwrap().is_empty());
        let _ = fs::remove_dir_all(&d);
    }

    #[test]
    fn errors_carry_op_and_path() {
        let d = tmpdir("ctx");
        let missing = d.join("nope.bin");
        let err = RealIo.read(&missing).unwrap_err();
        assert_eq!(err.op, IoOp::Read);
        assert_eq!(err.path, missing);
        let msg = err.to_string();
        assert!(msg.contains("read"), "{msg}");
        assert!(msg.contains("nope.bin"), "{msg}");
        assert!(!err.is_crash());
        let _ = fs::remove_dir_all(&d);
    }

    #[test]
    fn listing_is_sorted() {
        let d = tmpdir("sorted");
        for name in ["c", "a", "b"] {
            let mut f = RealIo.create(&d.join(name)).unwrap();
            f.write_all(b"x").unwrap();
        }
        let names: Vec<OsString> = ["a", "b", "c"].iter().map(OsString::from).collect();
        assert_eq!(RealIo.list_dir(&d).unwrap(), names);
        let _ = fs::remove_dir_all(&d);
    }

    #[test]
    fn write_adapter_roundtrip() {
        let d = tmpdir("adapter");
        let p = d.join("f");
        let mut f = RealIo.create(&p).unwrap();
        use std::io::Write as _;
        let mut w = WriteAdapter(&mut *f);
        w.write_all(b"abc").unwrap();
        w.flush().unwrap();
        drop(f);
        assert_eq!(RealIo.read(&p).unwrap(), b"abc");
        let _ = fs::remove_dir_all(&d);
    }
}
