//! The one little-endian byte layer (DESIGN.md §11, §16).
//!
//! Checkpoint containers and their payloads, shard-op batches, drain
//! payloads, socket frames and the fixed binary trace and access-log
//! records are all read through [`Reader`] and written through
//! [`Writer`]: integers little-endian, floats as IEEE-754 bit patterns,
//! booleans as one `0`/`1` byte. A read past the end, bytes left over,
//! and a value the format forbids are the three [`WireError`]s; each
//! caller maps them onto its own typed errors.
//!
//! [`crc32`] guards checkpoint sections and frames; [`fp`] / [`fp_bytes`]
//! are the FNV-1a steps the checkpoint fingerprints and digests are built
//! from. Both values are persisted, so neither may ever change.

/// Why a read failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The bytes ended before the value did.
    Short,
    /// Bytes were left after the last value.
    Trailing,
    /// A value the format does not allow (a bad tag, an unknown
    /// discriminant, an out-of-range index).
    Invalid(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Short => write!(f, "bytes end inside a value"),
            WireError::Trailing => write!(f, "trailing bytes after the last value"),
            WireError::Invalid(why) => write!(f, "invalid value: {why}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Bounds-checked little-endian reads over a byte slice. No read ever
/// panics or reads past the slice.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    #[inline]
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet read.
    #[inline]
    pub(crate) fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The next `n` bytes.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Short);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    #[inline]
    fn array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        Ok(self.take(N)?.try_into().expect("take returns N bytes"))
    }

    #[inline]
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    #[inline]
    pub fn u16(&mut self) -> Result<u16, WireError> {
        self.array().map(u16::from_le_bytes)
    }

    #[inline]
    pub fn u32(&mut self) -> Result<u32, WireError> {
        self.array().map(u32::from_le_bytes)
    }

    #[inline]
    pub fn u64(&mut self) -> Result<u64, WireError> {
        self.array().map(u64::from_le_bytes)
    }

    /// A float from its bit pattern, so it round-trips bit for bit.
    #[inline]
    pub fn f64(&mut self) -> Result<f64, WireError> {
        self.u64().map(f64::from_bits)
    }

    #[inline]
    pub fn bool(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::Invalid("boolean byte is not 0/1")),
        }
    }

    /// A `u64` element count. Every element costs at least one byte, so a
    /// count beyond the bytes left is [`WireError::Short`] at once.
    #[inline]
    pub fn count(&mut self) -> Result<usize, WireError> {
        let n = self.u64()?;
        if n > self.remaining() as u64 {
            return Err(WireError::Short);
        }
        Ok(n as usize)
    }

    /// How many `T`s to reserve for `n` claimed elements: never more
    /// than the bytes left could hold in memory, so a hostile count
    /// reserves at most about the payload's size.
    #[inline]
    pub fn capacity_for<T>(&self, n: usize) -> usize {
        n.min(self.remaining() / std::mem::size_of::<T>().max(1))
    }

    /// Everything not yet read.
    #[inline]
    pub fn rest(self) -> &'a [u8] {
        &self.buf[self.pos..]
    }

    /// [`WireError::Trailing`] unless every byte was read.
    #[inline]
    pub fn finish(&self) -> Result<(), WireError> {
        if self.remaining() != 0 {
            return Err(WireError::Trailing);
        }
        Ok(())
    }
}

/// Little-endian writes appended to a caller's buffer.
pub struct Writer<'a> {
    buf: &'a mut Vec<u8>,
}

impl<'a> Writer<'a> {
    #[inline]
    pub fn new(buf: &'a mut Vec<u8>) -> Self {
        Writer { buf }
    }

    /// Length of the underlying buffer: what was there before plus
    /// what this writer appended.
    #[inline]
    pub fn position(&self) -> usize {
        self.buf.len()
    }

    #[inline]
    pub fn bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    #[inline]
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    #[inline]
    pub fn u16(&mut self, v: u16) {
        self.bytes(&v.to_le_bytes());
    }

    #[inline]
    pub fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }

    #[inline]
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// A float as its bit pattern.
    #[inline]
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    #[inline]
    pub fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }
}

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3, reflected), slicing-by-8.
// ---------------------------------------------------------------------------

/// `CRC_TABLES[0]` is the classic byte table; `CRC_TABLES[k][b]` is the
/// CRC state after byte `b` followed by `k` zero bytes, so eight table
/// loads — independent of one another — advance the state by eight
/// input bytes at once (Intel's "slicing-by-8"). 8 KiB, L1-resident.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32 (IEEE) of `bytes`: checkpoint headers and sections, and every
/// frame of the socket plane.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = !0u32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = u32::from_le_bytes([w[0], w[1], w[2], w[3]]) ^ c;
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// The one-table bytewise loop `crc32` replaced, kept as its oracle.
#[cfg(test)]
fn crc32_bytewise(bytes: &[u8]) -> u32 {
    let mut c = !0u32;
    for &b in bytes {
        c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

// ---------------------------------------------------------------------------
// FNV-1a.
// ---------------------------------------------------------------------------

/// FNV-1a over one more field.
pub fn fp(h: u64, v: u64) -> u64 {
    fp_bytes(h, &v.to_le_bytes())
}

/// FNV-1a over `bytes`.
pub fn fp_bytes(h: u64, bytes: &[u8]) -> u64 {
    let mut h = h;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vector() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
    }

    /// Slicing-by-8 against the bytewise oracle: every length around
    /// the 8-byte step and its tail at every alignment, then a buffer
    /// long enough that the word loop dominates.
    #[test]
    fn crc32_matches_bytewise_reference() {
        let seeded = |n: usize, mut x: u64| -> Vec<u8> {
            (0..n)
                .map(|_| {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    (x >> 56) as u8
                })
                .collect()
        };
        let buf = seeded(8 + 130, 0x5EED);
        for off in 0..8 {
            for len in 0..=130 {
                let s = &buf[off..off + len];
                assert_eq!(crc32(s), crc32_bytewise(s), "offset {off}, length {len}");
            }
        }
        let big = seeded(1 << 20, 0xC0FFEE);
        assert_eq!(crc32(&big), crc32_bytewise(&big));
    }

    /// The FNV values persisted checkpoint fingerprints are built from.
    #[test]
    fn fnv_values_are_pinned() {
        let basis = 0xCBF2_9CE4_8422_2325;
        assert_eq!(fp_bytes(basis, b""), basis);
        assert_eq!(fp_bytes(basis, b"a"), 0xAF63_DC4C_8601_EC8C);
        assert_eq!(fp(basis, 0x0102_0304_0506_0708), fp_bytes(basis, &[8, 7, 6, 5, 4, 3, 2, 1]));
    }

    #[test]
    fn every_width_round_trips_little_endian() {
        let mut buf = vec![0xEE];
        let mut w = Writer::new(&mut buf);
        w.u8(1);
        w.u16(0x0302);
        w.u32(0x0706_0504);
        w.u64(0x0F0E_0D0C_0B0A_0908);
        w.f64(-0.0);
        w.bool(true);
        w.bytes(&[0xAB]);
        assert_eq!(buf[..16], [0xEE, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15]);
        let mut r = Reader::new(&buf[1..]);
        assert_eq!(r.u8(), Ok(1));
        assert_eq!(r.u16(), Ok(0x0302));
        assert_eq!(r.u32(), Ok(0x0706_0504));
        assert_eq!(r.u64(), Ok(0x0F0E_0D0C_0B0A_0908));
        assert_eq!(r.f64().map(f64::to_bits), Ok((-0.0f64).to_bits()));
        assert_eq!(r.bool(), Ok(true));
        assert_eq!(r.finish(), Err(WireError::Trailing));
        assert_eq!(r.clone().rest(), &[0xAB]);
        assert_eq!(r.take(1), Ok(&[0xAB][..]));
        assert_eq!(r.finish(), Ok(()));
    }

    #[test]
    fn reads_past_the_end_are_short_and_consume_nothing() {
        let mut r = Reader::new(&[1, 2, 3]);
        assert_eq!(r.u32(), Err(WireError::Short));
        assert_eq!(r.remaining(), 3);
        assert_eq!(r.take(4), Err(WireError::Short));
        assert_eq!(r.u16(), Ok(0x0201));
        assert_eq!(r.bool(), Err(WireError::Invalid("boolean byte is not 0/1")));
    }

    #[test]
    fn counts_and_capacities_are_bounded_by_the_bytes_left() {
        let claim = |n: u64| [n.to_le_bytes(), [0; 8]].concat();
        assert_eq!(Reader::new(&claim(9)).count(), Err(WireError::Short));
        let bytes = claim(8);
        let mut r = Reader::new(&bytes);
        assert_eq!(r.count(), Ok(8));
        assert_eq!(r.capacity_for::<u8>(8), 8);
        assert_eq!(r.capacity_for::<u64>(8), 1);
        assert_eq!(r.capacity_for::<u64>(usize::MAX), 1);
        assert_eq!(r.capacity_for::<()>(5), 5);
        r.take(8).unwrap();
        assert_eq!(r.capacity_for::<u8>(3), 0);
    }
}
