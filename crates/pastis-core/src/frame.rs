//! One small versioned binary frame for bulk on-disk payloads: the
//! persisted index's shards and manifest, and the pipeline's spilled
//! index stripes.
//!
//! ```text
//! magic    8 bytes, one per kind of file
//! version  u32 LE
//! body     fixed-width LE integers, LEB128 varints, u32 LE arrays
//! crc32    u32 LE over every preceding byte
//! ```
//!
//! Every value has one spelling (varints are canonical), so one value is
//! always the same bytes. `FrameReader` is a bounds-checked cursor: a
//! read past the end is an `Err`, and a count read from the file is held
//! against the bytes left before anything is allocated for it.

use std::fmt;

use pastis_comm::fault::crc32;

/// Magic plus version; the CRC trailer.
const HEADER: usize = 12;
const TRAILER: usize = 4;

/// Why a frame was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The file ends inside the named field.
    Truncated(&'static str),
    /// Too short for a frame, or the first eight bytes are not this
    /// kind's magic.
    Magic,
    /// The trailer (first) is not the content's CRC (second): torn or damaged.
    Crc(u32, u32),
    /// A binary frame of this version; this build reads another.
    Version(u32),
    /// A text file of this kind and version, from before the binary frame.
    Legacy(String),
    /// A field breaks the format's invariants.
    Invalid(String),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Truncated(field) => write!(f, "truncated in {field}"),
            FrameError::Magic => write!(f, "not a frame of this kind (bad magic or too short)"),
            FrameError::Crc(stored, computed) => write!(
                f,
                "crc mismatch: file says {stored:08x}, content is {computed:08x}"
            ),
            FrameError::Version(v) => write!(
                f,
                "schema version {v}, which this build does not read: \
                 re-run `pastis index build`"
            ),
            FrameError::Legacy(v) => write!(
                f,
                "text format version {v}, which this build no longer reads: \
                 re-run `pastis index build`"
            ),
            FrameError::Invalid(why) => f.write_str(why),
        }
    }
}

/// A kind of frame: its magic, the version written and read, and the
/// first-line prefix of the text format it replaced, which is refused as
/// [`FrameError::Legacy`].
pub struct Kind(pub [u8; 8], pub u32, pub &'static str);

/// Builds one frame; [`FrameWriter::finish`] seals it.
pub struct FrameWriter(Vec<u8>);

impl FrameWriter {
    /// A frame of `kind`, with room for `capacity` body bytes.
    pub fn new(kind: &Kind, capacity: usize) -> FrameWriter {
        let mut buf = Vec::with_capacity(HEADER + capacity + TRAILER);
        buf.extend_from_slice(&kind.0);
        buf.extend_from_slice(&kind.1.to_le_bytes());
        FrameWriter(buf)
    }

    /// A fixed-width u64.
    pub fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    /// A LEB128 varint.
    pub fn varint(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.0.push(v as u8 | 0x80);
            v >>= 7;
        }
        self.0.push(v as u8);
    }

    /// Raw bytes (their length is the caller's to record).
    pub fn bytes(&mut self, b: &[u8]) {
        self.0.extend_from_slice(b);
    }

    /// A u32 LE array (its length is the caller's to record).
    pub fn u32s(&mut self, vs: &[u32]) {
        self.0.extend(vs.iter().flat_map(|v| v.to_le_bytes()));
    }

    /// Append the CRC trailer and return the frame.
    pub fn finish(mut self) -> Vec<u8> {
        let crc = crc32(&self.0);
        self.0.extend_from_slice(&crc.to_le_bytes());
        self.0
    }
}

/// Bounds-checked cursor over a frame's body. Each read names its field
/// and is an `Err` if the bytes left cannot hold it.
pub(crate) struct FrameReader<'a>(&'a [u8]);

impl<'a> FrameReader<'a> {
    /// Check the frame's magic, CRC and version, in that order, and
    /// return a cursor over its body.
    pub(crate) fn open(bytes: &'a [u8], kind: &Kind) -> Result<FrameReader<'a>, FrameError> {
        let Kind(magic, version, legacy) = kind;
        if let Some(rest) = bytes.strip_prefix(legacy.as_bytes()) {
            let line = rest.split(|&b| b == b'\n').next().unwrap_or_default();
            let line = String::from_utf8_lossy(&line[..line.len().min(16)]);
            return Err(FrameError::Legacy(line.into_owned()));
        }
        if bytes.len() < HEADER + TRAILER || bytes[..8] != magic[..] {
            return Err(FrameError::Magic);
        }
        let (content, trailer) = bytes.split_at(bytes.len() - TRAILER);
        let stored = u32::from_le_bytes(trailer.try_into().expect("four bytes"));
        if stored != crc32(content) {
            return Err(FrameError::Crc(stored, crc32(content)));
        }
        let found = u32::from_le_bytes(content[8..HEADER].try_into().expect("four bytes"));
        if found != *version {
            return Err(FrameError::Version(found));
        }
        Ok(FrameReader(&content[HEADER..]))
    }

    /// The next `n` bytes.
    pub(crate) fn bytes(&mut self, n: u64, field: &'static str) -> Result<&'a [u8], FrameError> {
        let n = usize::try_from(n).unwrap_or(usize::MAX);
        let head = self.0.get(..n).ok_or(FrameError::Truncated(field))?;
        self.0 = &self.0[n..];
        Ok(head)
    }

    /// A fixed-width u64.
    pub(crate) fn u64(&mut self, field: &'static str) -> Result<u64, FrameError> {
        let b = self.bytes(8, field)?;
        Ok(u64::from_le_bytes(b.try_into().expect("eight bytes")))
    }

    /// A LEB128 varint as a `T`; an overlong spelling or a value `T`
    /// cannot hold is an `Err`.
    #[inline]
    pub(crate) fn varint<T: TryFrom<u64>>(&mut self, field: &'static str) -> Result<T, FrameError> {
        // One byte (most row ids and lengths) is canonical: decoded inline.
        if let Some((&b, rest)) = self.0.split_first().filter(|(&b, _)| b < 0x80) {
            if let Ok(v) = T::try_from(u64::from(b)) {
                self.0 = rest;
                return Ok(v);
            }
        }
        self.long_varint(field)
    }

    #[inline(never)]
    fn long_varint<T: TryFrom<u64>>(&mut self, field: &'static str) -> Result<T, FrameError> {
        let (mut v, mut shift) = (0u64, 0);
        for (at, &b) in self.0.iter().enumerate() {
            if (shift == 63 && b > 1) || (b == 0 && shift > 0) {
                return Err(FrameError::Invalid(format!("{field} is not canonical")));
            }
            v |= u64::from(b & 0x7F) << shift;
            if b < 0x80 {
                self.0 = &self.0[at + 1..];
                let why = || FrameError::Invalid(format!("{field} {v} out of range"));
                return T::try_from(v).map_err(|_| why());
            }
            shift += 7;
        }
        Err(FrameError::Truncated(field))
    }

    /// `n` items of at least `min_bytes` each, held against the bytes
    /// left: an `Err` if they cannot fit, so that `n` may size an
    /// allocation.
    pub(crate) fn count(
        &self,
        n: u64,
        min_bytes: u64,
        field: &'static str,
    ) -> Result<usize, FrameError> {
        if n.saturating_mul(min_bytes) > self.0.len() as u64 {
            return Err(FrameError::Truncated(field));
        }
        Ok(n as usize)
    }

    /// `n` u32 LE values, allocated once the file is known to hold them.
    pub(crate) fn u32s(&mut self, n: u64, field: &'static str) -> Result<Vec<u32>, FrameError> {
        let b = self.bytes(n.saturating_mul(4), field)?;
        Ok(b.chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().expect("four bytes")))
            .collect())
    }

    /// The end of the body: `Err` if bytes are left over.
    pub(crate) fn finish(self) -> Result<(), FrameError> {
        match self.0.len() {
            0 => Ok(()),
            n => Err(FrameError::Invalid(format!("{n} trailing bytes"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KIND: Kind = Kind(*b"\x89PTEST\r\n", 3, "PASTIS-TEST ");

    fn reopen(frame: &[u8]) -> Result<FrameReader<'_>, FrameError> {
        FrameReader::open(frame, &KIND)
    }

    #[test]
    fn fields_round_trip_and_varints_are_canonical() {
        let values = [0, 1, 127, 128, 300, u64::from(u32::MAX), u64::MAX];
        let mut w = FrameWriter::new(&KIND, 0);
        w.bytes(&[7]);
        w.u64(0xDEAD_BEEF_0123_4567);
        for v in values {
            w.varint(v);
        }
        w.u32s(&[1, u32::MAX]);
        let frame = w.finish();
        let mut r = reopen(&frame).unwrap();
        assert_eq!(r.bytes(1, "a").unwrap(), [7]);
        assert_eq!(r.u64("b").unwrap(), 0xDEAD_BEEF_0123_4567);
        let run: Vec<u64> = (0..7).map(|_| r.varint("c").unwrap()).collect();
        assert_eq!(run, values);
        assert_eq!(r.u32s(2, "d").unwrap(), [1, u32::MAX]);
        r.finish().unwrap();
        // An overlong zero and an eleventh byte are refused.
        for bad in [&[0x80, 0x00][..], &[0xFF; 9][..], &[0xFF; 11][..]] {
            assert!(FrameReader(bad).varint::<u64>("v").is_err(), "{bad:?}");
        }
        assert!(
            FrameReader(&[0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x02])
                .varint::<u64>("v")
                .is_err()
        );
    }

    #[test]
    fn open_checks_magic_crc_version_and_legacy_text() {
        let frame = FrameWriter::new(&KIND, 0).finish();
        reopen(&frame).unwrap().finish().unwrap();
        assert_eq!(reopen(&frame[..15]).err(), Some(FrameError::Magic));
        let mut flipped = frame.clone();
        flipped[9] ^= 1;
        assert!(matches!(reopen(&flipped), Err(FrameError::Crc(..))));
        flipped[0] ^= 1;
        assert_eq!(reopen(&flipped).err(), Some(FrameError::Magic));
        let v4 = FrameWriter::new(&Kind(KIND.0, 4, ""), 0).finish();
        assert_eq!(reopen(&v4).err(), Some(FrameError::Version(4)));
        let err = reopen(b"PASTIS-TEST 1\nrest\nend 0\n").err().unwrap();
        assert_eq!(err, FrameError::Legacy("1".to_string()));
        assert!(err.to_string().contains("text format version 1"), "{err}");
    }

    #[test]
    fn counts_past_the_bytes_left_fail_before_allocating() {
        let mut w = FrameWriter::new(&KIND, 0);
        w.varint(5);
        w.u32s(&[9, 9]);
        let frame = w.finish();
        for n in [
            3,
            4,
            1 << 20,
            u64::from(u32::MAX),
            u64::MAX / 4 + 1,
            u64::MAX,
        ] {
            let mut r = reopen(&frame).unwrap();
            r.varint::<u64>("n").unwrap();
            assert_eq!(r.u32s(n, "x").err(), Some(FrameError::Truncated("x")));
            let r = reopen(&frame).unwrap();
            assert!(r.count(n.max(10), 1, "x").is_err());
        }
        // What does fit is sized by the file, not by the count.
        let mut r = reopen(&frame).unwrap();
        r.varint::<u64>("n").unwrap();
        let got = r.u32s(2, "x").unwrap();
        assert!(got.capacity() * 4 <= frame.len());
    }
}
