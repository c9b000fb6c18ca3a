//! In-memory string store.

#![deny(
    clippy::indexing_slicing,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use std::sync::atomic::AtomicU64;

use crate::alphabet::Alphabet;
use crate::error::{StoreError, StoreResult};
use crate::stats::IoStats;
use crate::store::StringStore;

/// Default block size used when accounting in-memory reads (4 KiB).
pub const DEFAULT_MEMORY_BLOCK: usize = 4 * 1024;

/// A [`StringStore`] backed by a `Vec<u8>`.
///
/// I/O is still accounted (with a virtual block size) so that unit tests can
/// assert on access patterns without touching the file system.
#[derive(Debug)]
pub struct InMemoryStore {
    text: Vec<u8>,
    alphabet: Alphabet,
    block_size: usize,
    stats: IoStats,
    last_end: AtomicU64,
}

impl InMemoryStore {
    /// Wraps an already-terminated text.
    pub fn new(text: Vec<u8>, alphabet: Alphabet) -> StoreResult<Self> {
        alphabet.validate(&text)?;
        Ok(InMemoryStore {
            text,
            alphabet,
            block_size: DEFAULT_MEMORY_BLOCK,
            stats: IoStats::new(),
            // A fresh store's cursor is at offset 0: the first read at
            // position 0 counts as sequential, matching `DiskStore`.
            last_end: AtomicU64::new(0),
        })
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

    /// Overrides the virtual block size used for accounting.
    pub fn with_block_size(mut self, block_size: usize) -> StoreResult<Self> {
        if block_size == 0 {
            return Err(StoreError::InvalidConfig("block size must be non-zero".into()));
        }
        self.block_size = block_size;
        Ok(self)
    }

    /// Direct borrowing access to the underlying text (not I/O accounted);
    /// intended for test oracles and in-memory baselines that legitimately
    /// hold the whole string.
    pub fn raw_text(&self) -> &[u8] {
        &self.text
    }
}

impl StringStore for InMemoryStore {
    fn len(&self) -> usize {
        self.text.len()
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
        reason = "take = min(buf.len(), len - pos) bounds both slices"
    )]
    fn read_at(&self, pos: usize, buf: &mut [u8]) -> StoreResult<usize> {
        if pos > self.text.len() {
            return Err(StoreError::OutOfBounds { pos, len: buf.len(), text_len: self.text.len() });
        }
        let take = buf.len().min(self.text.len() - pos);
        buf[..take].copy_from_slice(&self.text[pos..pos + take]);

        self.stats.charge_read(&self.last_end, pos, take, self.read_cost(pos, take));
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
        assert_eq!(s.raw_text().last(), Some(&0u8));
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
