//! The raw string store: one byte per symbol, in memory or read from a file
//! (the file constructors are in [`crate::disk`]).

#![deny(
    clippy::indexing_slicing,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use crate::alphabet::Alphabet;
use crate::backing::Backing;
use crate::error::{StoreError, StoreResult};
use crate::stats::IoStats;
use crate::store::{clamp_read, StringStore};

/// Default block size used when accounting in-memory reads (4 KiB).
pub const DEFAULT_MEMORY_BLOCK: usize = 4 * 1024;

/// A [`StringStore`] holding the text one byte per symbol, in a `Vec<u8>` or
/// in a file read in fixed-size blocks.
///
/// Reads are accounted whatever the backing (an in-memory store with a
/// virtual block size), so unit tests can assert on access patterns without
/// touching the file system, and the experiments report the exact split of
/// sequential reads and random seeks alongside wall-clock time.
#[derive(Debug)]
pub struct RawStore {
    pub(crate) bytes: Backing,
    len: usize,
    alphabet: Alphabet,
    block_size: usize,
    stats: IoStats,
}

/// The raw store holding its text in memory.
pub type InMemoryStore = RawStore;

impl RawStore {
    /// Wraps an already-terminated text.
    pub fn new(text: Vec<u8>, alphabet: Alphabet) -> StoreResult<Self> {
        alphabet.validate(&text)?;
        let len = text.len();
        Self::over(Backing::Memory(text), len, alphabet, DEFAULT_MEMORY_BLOCK)
    }

    /// A store serving the `len`-symbol text that `bytes` hold.
    pub(crate) fn over(
        bytes: Backing,
        len: usize,
        alphabet: Alphabet,
        block_size: usize,
    ) -> StoreResult<Self> {
        RawStore { bytes, len, alphabet, block_size: 1, stats: IoStats::new() }
            .with_block_size(block_size)
    }

    /// Appends the terminal to `body` and wraps the result.
    pub fn from_body(body: &[u8], alphabet: Alphabet) -> StoreResult<Self> {
        let text = alphabet.terminate(body)?;
        Self::new(text, alphabet)
    }

    /// Infers the alphabet from `body`, appends the terminal and wraps it.
    pub fn from_body_inferred(body: &[u8]) -> StoreResult<Self> {
        let alphabet = Alphabet::infer(body)?;
        Self::from_body(body, alphabet)
    }

    /// Overrides the block size used for accounting.
    pub fn with_block_size(mut self, block_size: usize) -> StoreResult<Self> {
        if block_size == 0 {
            return Err(StoreError::InvalidConfig("block size must be non-zero".into()));
        }
        self.block_size = block_size;
        Ok(self)
    }
}

impl StringStore for RawStore {
    fn len(&self) -> usize {
        self.len
    }

    fn alphabet(&self) -> &Alphabet {
        &self.alphabet
    }

    fn block_size(&self) -> usize {
        self.block_size
    }

    fn stats(&self) -> &IoStats {
        &self.stats
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "take = min(buf.len(), len - pos) bounds the slice"
    )]
    fn read_at(&self, pos: usize, buf: &mut [u8]) -> StoreResult<usize> {
        let take = clamp_read(pos, buf.len(), self.len)?;
        if take > 0 {
            self.bytes.read_exact_at(pos, &mut buf[..take])?;
            self.stats.charge_read(pos, take, self.read_cost(pos, take));
        }
        Ok(take)
    }
}

#[cfg(test)]
#[expect(clippy::disallowed_methods, reason = "tests of the store's own read accounting")]
mod tests {
    use super::*;

    #[test]
    fn from_body_appends_terminal() {
        let s = InMemoryStore::from_body(b"GATTACA", Alphabet::dna()).unwrap();
        assert_eq!(s.len(), 8);
        assert_eq!(s.read_all().unwrap().last(), Some(&0u8));
    }

    #[test]
    fn rejects_invalid_body() {
        assert!(InMemoryStore::from_body(b"GATTAXA", Alphabet::dna()).is_err());
    }

    #[test]
    fn inferred_alphabet() {
        let s = InMemoryStore::from_body_inferred(b"mississippi").unwrap();
        assert_eq!(s.alphabet().symbols(), b"imps");
    }

    #[test]
    fn sequential_vs_random_classification() {
        let s = InMemoryStore::from_body(b"ACGTACGTACGT", Alphabet::dna()).unwrap();
        let mut buf = [0u8; 4];
        s.read_at(0, &mut buf).unwrap(); // first read at 0: sequential
        s.read_at(4, &mut buf).unwrap(); // continues: sequential
        s.read_at(8, &mut buf).unwrap(); // continues: sequential
        s.read_at(2, &mut buf).unwrap(); // jump back: seek
        let snap = s.stats().snapshot();
        assert_eq!(snap.sequential_reads, 3);
        assert_eq!(snap.random_seeks, 1);
        assert_eq!(snap.bytes_read, 16);
    }

    #[test]
    fn zero_block_size_rejected() {
        let s = InMemoryStore::from_body(b"ACG", Alphabet::dna()).unwrap();
        assert!(s.with_block_size(0).is_err());
    }

    #[test]
    fn read_at_end_returns_zero() {
        let s = InMemoryStore::from_body(b"ACG", Alphabet::dna()).unwrap();
        let mut buf = [0u8; 2];
        let got = s.read_at(4, &mut buf).unwrap();
        assert_eq!(got, 0);
        assert!(s.read_at(5, &mut buf).is_err());
    }
}
