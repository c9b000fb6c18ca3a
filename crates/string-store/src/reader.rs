//! Bounded decoding of untrusted artifact bytes: the `ERACAT1` catalog's
//! header, footer and TOC, its `ERAFLAT1` group segments and the `ERAP`
//! packed-store header are all read through one [`ByteReader`], and their
//! symbol tables through [`decode_symbol_table`]. A [`FormatError`] names the
//! artifact and field that failed; it is corruption, an
//! [`io::ErrorKind::InvalidData`] error or a [`StoreError::InvalidText`].

#![deny(
    clippy::cast_possible_truncation,
    clippy::arithmetic_side_effects,
    clippy::indexing_slicing
)]

use std::fmt;
use std::io;

use crate::alphabet::{Alphabet, TERMINAL};
use crate::error::StoreError;

/// Malformed artifact bytes: which artifact and field, and what is wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FormatError(String);

impl fmt::Display for FormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for FormatError {}

impl From<FormatError> for io::Error {
    fn from(e: FormatError) -> Self {
        io::Error::new(io::ErrorKind::InvalidData, e.0)
    }
}

impl From<FormatError> for StoreError {
    fn from(e: FormatError) -> Self {
        StoreError::InvalidText(e.0)
    }
}

/// A bounds-checked forward cursor over the bytes of one artifact.
#[derive(Debug, Clone)]
pub struct ByteReader<'a> {
    rest: &'a [u8],
    what: &'static str,
}

impl<'a> ByteReader<'a> {
    /// A reader over `bytes`; `what` names the artifact in its errors.
    pub fn new(bytes: &'a [u8], what: &'static str) -> Self {
        ByteReader { rest: bytes, what }
    }

    /// The next `n` bytes.
    pub fn take(&mut self, n: usize, field: &str) -> Result<&'a [u8], FormatError> {
        let (head, rest) = self.rest.split_at_checked(n).ok_or_else(|| self.short(n, field))?;
        self.rest = rest;
        Ok(head)
    }

    fn array<const N: usize>(&mut self, field: &str) -> Result<[u8; N], FormatError> {
        let (head, rest) =
            self.rest.split_first_chunk::<N>().ok_or_else(|| self.short(N, field))?;
        self.rest = rest;
        Ok(*head)
    }

    fn short(&self, n: usize, field: &str) -> FormatError {
        FormatError(format!("{} {field}: {n} bytes wanted, {} left", self.what, self.rest.len()))
    }

    /// The next byte.
    pub fn u8(&mut self, field: &str) -> Result<u8, FormatError> {
        self.array(field).map(|[b]| b)
    }

    /// The next `u64`, as a `usize` (a length or an offset): a value this
    /// platform cannot address is an error, never a truncation.
    pub fn usize(&mut self, field: &str) -> Result<usize, FormatError> {
        let v = self.u64(field)?;
        usize::try_from(v).map_err(|_| {
            FormatError(format!("{} {field}: {v} does not fit this platform", self.what))
        })
    }

    /// Ends the read: every byte must have been consumed.
    pub fn finish(self) -> Result<(), FormatError> {
        match self.rest.len() {
            0 => Ok(()),
            n => Err(FormatError(format!("{} has {n} trailing bytes", self.what))),
        }
    }
}

#[expect(clippy::disallowed_methods, reason = "the one decoder of artifact integers")]
impl<'a> ByteReader<'a> {
    /// The next little-endian `u16`.
    pub fn u16(&mut self, field: &str) -> Result<u16, FormatError> {
        self.array(field).map(u16::from_le_bytes)
    }

    /// The next little-endian `u32`.
    pub fn u32(&mut self, field: &str) -> Result<u32, FormatError> {
        self.array(field).map(u32::from_le_bytes)
    }

    /// The next little-endian `u64`.
    pub fn u64(&mut self, field: &str) -> Result<u64, FormatError> {
        self.array(field).map(u64::from_le_bytes)
    }

    /// The next `count` records of `N` little-endian `u32` words each,
    /// bounds-checked at once and decoded where they lie.
    pub fn u32_records<const N: usize>(
        &mut self,
        count: usize,
        field: &str,
    ) -> Result<impl ExactSizeIterator<Item = [u32; N]> + 'a, FormatError> {
        // No slice holds usize::MAX bytes: an overflowing count fails `take`.
        let len = count.saturating_mul(size_of::<[u32; N]>());
        let bytes = self.take(len, field)?;
        Ok(bytes.as_chunks::<4>().0.as_chunks::<N>().0.iter().map(|r| r.map(u32::from_le_bytes)))
    }
}

/// Decodes a stored symbol table: 1..=255 symbols, strictly ascending, no
/// terminal. A table that is not strictly ascending would decode every code
/// to the wrong symbol ([`Alphabet::custom`] sorts and dedups), so it is
/// rejected rather than repaired. A built-in alphabet's table comes back as
/// that built-in kind.
pub fn decode_symbol_table(table: &[u8]) -> Result<Alphabet, FormatError> {
    // Strictly ascending, so the terminal (0) could only come first.
    let ascending = table.is_sorted_by(|a, b| a < b);
    if !(1..=255).contains(&table.len()) || table.first() == Some(&TERMINAL) || !ascending {
        return Err(FormatError(format!(
            "symbol table {table:?} must be 1..=255 strictly ascending symbols, no terminal"
        )));
    }
    for builtin in [Alphabet::dna(), Alphabet::protein(), Alphabet::english()] {
        if builtin.symbols() == table {
            return Ok(builtin);
        }
    }
    Alphabet::custom(table).map_err(|e| FormatError(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::AlphabetKind;

    #[test]
    fn reads_fields_in_order_and_finishes_exactly() {
        let mut bytes = b"MAGC".to_vec();
        bytes.push(7);
        bytes.extend(0x0102u16.to_le_bytes());
        bytes.extend(0x0304_0506u32.to_le_bytes());
        bytes.extend(0x0708_090a_0b0c_0d0eu64.to_le_bytes());
        bytes.extend(42u64.to_le_bytes());
        bytes.extend([1u32, 2, 3, 4, 5, 6, 7, 8].iter().flat_map(|w| w.to_le_bytes()));
        let mut r = ByteReader::new(&bytes, "test artifact");
        assert_eq!(r.take(4, "magic").unwrap(), b"MAGC");
        assert_eq!(r.u8("flags").unwrap(), 7);
        assert_eq!(r.u16("version").unwrap(), 0x0102);
        assert_eq!(r.u32("count").unwrap(), 0x0304_0506);
        assert_eq!(r.u64("checksum").unwrap(), 0x0708_090a_0b0c_0d0e);
        assert_eq!(r.usize("length").unwrap(), 42);
        let records: Vec<[u32; 4]> = r.u32_records(2, "records").unwrap().collect();
        assert_eq!(records, [[1, 2, 3, 4], [5, 6, 7, 8]]);
        r.finish().unwrap();
    }

    #[test]
    fn a_short_slice_fails_each_accessor_naming_the_field() {
        type Read = fn(&mut ByteReader<'_>) -> Result<(), FormatError>;
        let accessors: [(usize, Read); 8] = [
            (0, |r| r.u8("the-field").map(drop)),
            (1, |r| r.take(2, "the-field").map(drop)),
            (1, |r| r.u16("the-field").map(drop)),
            (3, |r| r.u32("the-field").map(drop)),
            (7, |r| r.u64("the-field").map(drop)),
            (7, |r| r.usize("the-field").map(drop)),
            (15, |r| r.u32_records::<4>(1, "the-field").map(drop)),
            (15, |r| r.u32_records::<4>(usize::MAX, "the-field").map(drop)),
        ];
        for (len, read) in accessors {
            let bytes = vec![0u8; len];
            let err = read(&mut ByteReader::new(&bytes, "test artifact")).unwrap_err();
            let msg = err.to_string();
            assert!(msg.starts_with("test artifact the-field: "), "{msg}");
            assert!(msg.ends_with(&format!("wanted, {len} left")), "{msg}");
            assert_eq!(io::Error::from(err.clone()).kind(), io::ErrorKind::InvalidData);
            assert!(matches!(StoreError::from(err), StoreError::InvalidText(m) if m == msg));
        }
    }

    #[test]
    fn a_u64_above_usize_fails_on_narrow_platforms_only() {
        let bytes = u64::MAX.to_le_bytes();
        let got = ByteReader::new(&bytes, "test artifact").usize("length");
        match usize::try_from(u64::MAX) {
            Ok(max) => assert_eq!(got.unwrap(), max),
            Err(_) => assert!(got.unwrap_err().to_string().contains("does not fit")),
        }
    }

    #[test]
    fn finish_rejects_one_trailing_byte() {
        let mut r = ByteReader::new(&[1, 2, 3], "test artifact");
        r.take(2, "head").unwrap();
        let err = r.clone().finish().unwrap_err();
        assert_eq!(err.to_string(), "test artifact has 1 trailing bytes");
        r.u8("tail").unwrap();
        r.finish().unwrap();
    }

    #[test]
    fn symbol_tables_are_canonical_or_rejected() {
        assert_eq!(decode_symbol_table(b"ACGT").unwrap().kind(), AlphabetKind::Dna);
        assert_eq!(
            decode_symbol_table(Alphabet::protein().symbols()).unwrap().kind(),
            AlphabetKind::Protein
        );
        let custom = decode_symbol_table(b"!#x").unwrap();
        assert_eq!((custom.kind(), custom.symbols()), (AlphabetKind::Custom, &b"!#x"[..]));
        let all: Vec<u8> = (1..=255).collect();
        assert_eq!(decode_symbol_table(&all).unwrap().len(), 255);
        for bad in [&b""[..], b"CAGT", b"AACGT", b"\0ACGT", &[0u8; 256]] {
            assert!(decode_symbol_table(bad).is_err(), "{bad:?}");
        }
    }
}
