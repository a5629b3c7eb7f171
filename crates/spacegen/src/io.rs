//! Trace and model file I/O.
//!
//! The paper publishes SpaceGEN's traffic models and generated traces
//! for download; this module provides the equivalent surface:
//!
//! * traces as CSV (`time_ms,object,size,location` — one request per
//!   line, the format CDN cache research tools commonly exchange);
//! * traces as a compact binary format (fixed 26-byte records) for the
//!   multi-gigabyte synthetic traces;
//! * pFD + GPD model bundles as JSON.
//!
//! Every fixed binary record in the pipeline (these traces, the access
//! logs) is read field by field through the one bounds-checked
//! [`starcdn_io::wire::Reader`]; a read it cannot satisfy is
//! [`IoError::TruncatedRecord`].

use crate::fd::FootprintDescriptor;
use crate::gpd::GlobalPopularity;
use crate::trace::{LocationId, Request, Trace};
use serde::{Deserialize, Serialize};
use starcdn_cache::object::ObjectId;
use starcdn_io::wire::{Reader, WireError};
use starcdn_io::{Io, ReadAdapter, RealIo, WriteAdapter};
use starcdn_orbit::time::SimTime;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Errors from trace/model I/O.
#[derive(Debug)]
pub enum IoError {
    /// Underlying stream I/O failure.
    Io(io::Error),
    /// A filesystem operation failed, with operation + path context.
    File(starcdn_io::IoError),
    /// A CSV line did not parse.
    BadCsvLine { line: usize, content: String },
    /// Binary stream truncated mid-record.
    TruncatedRecord,
    /// Bad magic/version header in a binary trace.
    BadHeader,
    /// Model JSON failed to parse.
    BadModel(serde_json::Error),
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "I/O error: {e}"),
            IoError::File(e) => write!(f, "file error: {e}"),
            IoError::BadCsvLine { line, content } => {
                write!(f, "malformed CSV at line {line}: `{content}`")
            }
            IoError::TruncatedRecord => write!(f, "binary trace truncated mid-record"),
            IoError::BadHeader => write!(f, "not a spacegen binary trace (bad header)"),
            IoError::BadModel(e) => write!(f, "model JSON error: {e}"),
        }
    }
}

impl std::error::Error for IoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IoError::Io(e) => Some(e),
            IoError::File(e) => Some(e),
            IoError::BadModel(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for IoError {
    fn from(e: io::Error) -> Self {
        IoError::Io(e)
    }
}

impl From<starcdn_io::IoError> for IoError {
    fn from(e: starcdn_io::IoError) -> Self {
        IoError::File(e)
    }
}

/// A record field the record cannot hold. Shared by every fixed-record
/// codec in the pipeline.
impl From<WireError> for IoError {
    fn from(_: WireError) -> Self {
        IoError::TruncatedRecord
    }
}

/// Write a trace as CSV with a header line.
pub fn write_csv(trace: &Trace, w: impl Write) -> Result<(), IoError> {
    let mut w = BufWriter::new(w);
    writeln!(w, "time_ms,object,size,location")?;
    for r in &trace.requests {
        writeln!(w, "{},{},{},{}", r.time.as_millis(), r.object.0, r.size, r.location.0)?;
    }
    w.flush()?;
    Ok(())
}

/// Read a CSV trace (header line optional).
pub fn read_csv(r: impl Read) -> Result<Trace, IoError> {
    let reader = BufReader::new(r);
    let mut requests = Vec::new();
    for (idx, line) in reader.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || (idx == 0 && trimmed.starts_with("time_ms")) {
            continue;
        }
        let mut parts = trimmed.split(',');
        let parse = || IoError::BadCsvLine { line: idx + 1, content: line.clone() };
        let time: u64 = parts.next().and_then(|s| s.trim().parse().ok()).ok_or_else(parse)?;
        let object: u64 = parts.next().and_then(|s| s.trim().parse().ok()).ok_or_else(parse)?;
        let size: u64 = parts.next().and_then(|s| s.trim().parse().ok()).ok_or_else(parse)?;
        let loc: u16 = parts.next().and_then(|s| s.trim().parse().ok()).ok_or_else(parse)?;
        requests.push(Request {
            time: SimTime::from_millis(time),
            object: ObjectId(object),
            size,
            location: LocationId(loc),
        });
    }
    Ok(Trace::new(requests))
}

const BIN_MAGIC: &[u8; 8] = b"SPACEGN1";

/// Write a trace in the compact binary format: an 8-byte magic header
/// followed by fixed 26-byte little-endian records
/// `(time_ms: u64, object: u64, size: u64, location: u16)`.
pub fn write_binary(trace: &Trace, w: impl Write) -> Result<(), IoError> {
    let mut w = BufWriter::new(w);
    w.write_all(BIN_MAGIC)?;
    for r in &trace.requests {
        w.write_all(&r.time.as_millis().to_le_bytes())?;
        w.write_all(&r.object.0.to_le_bytes())?;
        w.write_all(&r.size.to_le_bytes())?;
        w.write_all(&r.location.0.to_le_bytes())?;
    }
    w.flush()?;
    Ok(())
}

/// Fill `buf` with the next fixed-size record from `r`.
///
/// Returns `Ok(true)` when a full record was read, `Ok(false)` on a
/// clean EOF at a record boundary, and [`IoError::TruncatedRecord`] when
/// the stream ends mid-record — a partial trailing record is corruption,
/// never silently dropped. Shared by every fixed-record binary codec in
/// the pipeline (spacegen traces, access logs, columnar access logs).
pub fn read_fixed_record(r: &mut impl Read, buf: &mut [u8]) -> Result<bool, IoError> {
    let mut filled = 0usize;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(IoError::Io(e)),
        }
    }
    if filled == 0 {
        return Ok(false);
    }
    if filled < buf.len() {
        return Err(IoError::TruncatedRecord);
    }
    Ok(true)
}

/// Fill `buf` with a binary format's fixed-size header. A stream that
/// ends first is not this format ([`IoError::BadHeader`]); any other
/// failure is the stream's own and comes back as [`IoError::Io`].
/// Shared by every fixed-record binary codec in the pipeline.
pub fn read_header(r: &mut impl Read, buf: &mut [u8]) -> Result<(), IoError> {
    r.read_exact(buf).map_err(|e| match e.kind() {
        io::ErrorKind::UnexpectedEof => IoError::BadHeader,
        _ => IoError::Io(e),
    })
}

/// Read a binary trace written by [`write_binary`].
pub fn read_binary(r: impl Read) -> Result<Trace, IoError> {
    let mut r = BufReader::new(r);
    let mut magic = [0u8; 8];
    read_header(&mut r, &mut magic)?;
    if &magic != BIN_MAGIC {
        return Err(IoError::BadHeader);
    }
    let mut requests = Vec::new();
    let mut rec = [0u8; 26];
    while read_fixed_record(&mut r, &mut rec)? {
        let mut f = Reader::new(&rec);
        requests.push(Request {
            time: SimTime::from_millis(f.u64()?),
            object: ObjectId(f.u64()?),
            size: f.u64()?,
            location: LocationId(f.u16()?),
        });
    }
    Ok(Trace::new(requests))
}

/// Write a trace as CSV to `path` (created or truncated).
pub fn write_csv_path(trace: &Trace, path: impl AsRef<Path>) -> Result<(), IoError> {
    write_csv_path_io(trace, path.as_ref(), &RealIo)
}

/// [`write_csv_path`] over an explicit [`Io`].
pub fn write_csv_path_io(trace: &Trace, path: &Path, io: &dyn Io) -> Result<(), IoError> {
    let mut f = io.create(path)?;
    write_csv(trace, WriteAdapter(&mut *f))
}

/// Read a CSV trace from `path`.
pub fn read_csv_path(path: impl AsRef<Path>) -> Result<Trace, IoError> {
    read_csv_path_io(path.as_ref(), &RealIo)
}

/// [`read_csv_path`] over an explicit [`Io`].
pub fn read_csv_path_io(path: &Path, io: &dyn Io) -> Result<Trace, IoError> {
    let mut f = io.open(path)?;
    read_csv(ReadAdapter(&mut *f))
}

/// Write a binary trace to `path` (created or truncated).
pub fn write_binary_path(trace: &Trace, path: impl AsRef<Path>) -> Result<(), IoError> {
    write_binary_path_io(trace, path.as_ref(), &RealIo)
}

/// [`write_binary_path`] over an explicit [`Io`].
pub fn write_binary_path_io(trace: &Trace, path: &Path, io: &dyn Io) -> Result<(), IoError> {
    let mut f = io.create(path)?;
    write_binary(trace, WriteAdapter(&mut *f))
}

/// Read a binary trace from `path`.
pub fn read_binary_path(path: impl AsRef<Path>) -> Result<Trace, IoError> {
    read_binary_path_io(path.as_ref(), &RealIo)
}

/// [`read_binary_path`] over an explicit [`Io`].
pub fn read_binary_path_io(path: &Path, io: &dyn Io) -> Result<Trace, IoError> {
    let mut f = io.open(path)?;
    read_binary(ReadAdapter(&mut *f))
}

/// A serializable bundle of the traffic models SpaceGEN needs: one pFD
/// per location plus the GPD — the artifact the paper publishes.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ModelBundle {
    pub pfds: Vec<FootprintDescriptor>,
    pub gpd: GlobalPopularity,
}

impl ModelBundle {
    /// Extract the bundle from a multi-location production trace.
    pub fn from_trace(trace: &Trace, num_locations: usize, seed: u64) -> Self {
        let per_loc = trace.split_by_location(num_locations);
        ModelBundle {
            pfds: per_loc
                .iter()
                .enumerate()
                .map(|(i, t)| FootprintDescriptor::from_trace(t, seed ^ (i as u64) << 32))
                .collect(),
            gpd: GlobalPopularity::from_trace(trace, num_locations),
        }
    }

    /// Serialize as JSON.
    pub fn write_json(&self, w: impl Write) -> Result<(), IoError> {
        serde_json::to_writer(BufWriter::new(w), self).map_err(IoError::BadModel)
    }

    /// Deserialize from JSON.
    pub fn read_json(r: impl Read) -> Result<Self, IoError> {
        serde_json::from_reader(BufReader::new(r)).map_err(IoError::BadModel)
    }

    /// Serialize as JSON to `path` (created or truncated).
    pub fn write_json_path(&self, path: impl AsRef<Path>) -> Result<(), IoError> {
        self.write_json_path_io(path.as_ref(), &RealIo)
    }

    /// [`ModelBundle::write_json_path`] over an explicit [`Io`].
    pub fn write_json_path_io(&self, path: &Path, io: &dyn Io) -> Result<(), IoError> {
        let mut f = io.create(path)?;
        self.write_json(WriteAdapter(&mut *f))
    }

    /// Deserialize from the JSON file at `path`.
    pub fn read_json_path(path: impl AsRef<Path>) -> Result<Self, IoError> {
        Self::read_json_path_io(path.as_ref(), &RealIo)
    }

    /// [`ModelBundle::read_json_path`] over an explicit [`Io`].
    pub fn read_json_path_io(path: &Path, io: &dyn Io) -> Result<Self, IoError> {
        let mut f = io.open(path)?;
        Self::read_json(ReadAdapter(&mut *f))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> Trace {
        Trace::new(vec![
            Request {
                time: SimTime::from_millis(10),
                object: ObjectId(1),
                size: 100,
                location: LocationId(0),
            },
            Request {
                time: SimTime::from_millis(20),
                object: ObjectId(2),
                size: 2048,
                location: LocationId(3),
            },
            Request {
                time: SimTime::from_millis(20),
                object: ObjectId(1),
                size: 100,
                location: LocationId(8),
            },
        ])
    }

    #[test]
    fn csv_roundtrip() {
        let t = sample_trace();
        let mut buf = Vec::new();
        write_csv(&t, &mut buf).unwrap();
        let text = String::from_utf8(buf.clone()).unwrap();
        assert!(text.starts_with("time_ms,object,size,location\n"));
        assert_eq!(text.lines().count(), 4);
        let back = read_csv(buf.as_slice()).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn csv_without_header_and_blank_lines() {
        let body = "\n10,1,100,0\n\n20,2,2048,3\n";
        let t = read_csv(body.as_bytes()).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.requests[1].size, 2048);
    }

    #[test]
    fn csv_malformed_reports_line() {
        let body = "time_ms,object,size,location\n10,1,100,0\nnot,a,line\n";
        match read_csv(body.as_bytes()) {
            Err(IoError::BadCsvLine { line: 3, .. }) => {}
            other => panic!("expected BadCsvLine(3), got {other:?}"),
        }
    }

    #[test]
    fn binary_roundtrip() {
        let t = sample_trace();
        let mut buf = Vec::new();
        write_binary(&t, &mut buf).unwrap();
        assert_eq!(buf.len(), 8 + 26 * 3);
        let back = read_binary(buf.as_slice()).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn binary_detects_truncated_record() {
        let t = sample_trace();
        let mut buf = Vec::new();
        write_binary(&t, &mut buf).unwrap();
        buf.truncate(buf.len() - 5); // chop mid-record
        match read_binary(buf.as_slice()) {
            Err(IoError::TruncatedRecord) => {}
            other => panic!("expected TruncatedRecord, got {other:?}"),
        }
    }

    #[test]
    fn binary_rejects_bad_magic() {
        let buf = b"NOTATRCE".to_vec();
        assert!(matches!(read_binary(buf.as_slice()), Err(IoError::BadHeader)));
    }

    #[test]
    fn a_failing_stream_is_an_io_error_not_a_bad_header() {
        struct Eio;
        impl Read for Eio {
            fn read(&mut self, _: &mut [u8]) -> io::Result<usize> {
                Err(io::Error::other("EIO"))
            }
        }
        match read_binary(Eio) {
            Err(IoError::Io(e)) if e.kind() == io::ErrorKind::Other => {}
            other => panic!("expected the stream's own error, got {other:?}"),
        }
        // A stream that simply ends inside the magic is not a trace.
        assert!(matches!(read_binary(&b"SPACE"[..]), Err(IoError::BadHeader)));
    }

    #[test]
    fn binary_empty_trace() {
        let mut buf = Vec::new();
        write_binary(&Trace::default(), &mut buf).unwrap();
        let back = read_binary(buf.as_slice()).unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn model_bundle_roundtrip() {
        let t = sample_trace();
        let bundle = ModelBundle::from_trace(&t, 9, 1);
        assert_eq!(bundle.pfds.len(), 9);
        assert_eq!(bundle.gpd.len(), 2);
        let mut buf = Vec::new();
        bundle.write_json(&mut buf).unwrap();
        let back = ModelBundle::read_json(buf.as_slice()).unwrap();
        assert_eq!(back.pfds.len(), 9);
        assert_eq!(back.gpd.records, bundle.gpd.records);
    }

    #[test]
    fn path_roundtrips() {
        let t = sample_trace();
        let dir = std::env::temp_dir().join(format!("spacegen-io-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let csv = dir.join("t.csv");
        write_csv_path(&t, &csv).unwrap();
        assert_eq!(read_csv_path(&csv).unwrap(), t);
        let bin = dir.join("t.bin");
        write_binary_path(&t, &bin).unwrap();
        assert_eq!(read_binary_path(&bin).unwrap(), t);
        assert!(matches!(read_binary_path(dir.join("missing.bin")), Err(IoError::File(_))));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn error_display() {
        assert!(IoError::TruncatedRecord.to_string().contains("truncated"));
        assert!(IoError::BadHeader.to_string().contains("header"));
    }
}
