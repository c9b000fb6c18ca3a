//! The [`StringStore`] abstraction.

use crate::alphabet::Alphabet;
use crate::error::{StoreError, StoreResult};
use crate::resident::ResidentText;
use crate::stats::{IoStats, ReadCursor};

/// Read-only access to the input string `S` (terminated by the terminal
/// symbol), with every access recorded in [`IoStats`].
///
/// Both ERA and the baselines are generic over this trait. The crate
/// implements it twice, once per encoding: [`crate::RawStore`] (one byte per
/// symbol; named [`crate::DiskStore`] where it reads a file, as in the
/// benchmarks, and [`crate::InMemoryStore`] where it holds the text, as in
/// most unit tests) and [`crate::PackedStore`] (the §6.1 bit-packed
/// encoding). Either keeps its bytes in memory or reads them from a file by
/// position.
pub trait StringStore: Send + Sync {
    /// Total length of the stored string, *including* the terminal symbol.
    fn len(&self) -> usize;

    /// Whether the store is empty (never true for a valid input string).
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The alphabet `Σ` of the stored string (terminal excluded).
    fn alphabet(&self) -> &Alphabet;

    /// The I/O block size, in the same *symbol-position* units as
    /// [`Self::len`] and [`Self::read_at`].
    ///
    /// For the raw stores one symbol is one byte, so this is the block size
    /// in bytes. Packed stores return the symbols per logical block (a group
    /// of physical blocks whose bit span divides evenly into symbols), which
    /// is larger than the physical block's byte size by the packing ratio —
    /// callers sizing byte buffers from this value must account for that.
    fn block_size(&self) -> usize;

    /// Physical blocks per [`Self::block_size`] unit: 1 for the raw stores,
    /// the logical-block grouping factor for packed stores (e.g. 5 for 5-bit
    /// alphabets).
    ///
    /// Block-granular consumers such as [`crate::BlockCursor`] multiply by
    /// this so that `blocks_skipped` stays in the same physical units as
    /// `blocks_read`.
    fn physical_blocks_per_block(&self) -> u64 {
        1
    }

    /// Whether the store keeps the string in the bit-packed §6.1 encoding
    /// (`false` for the raw 1-byte-per-symbol backends).
    ///
    /// Callers that persist or re-materialize the string use this to keep the
    /// encoding a store was built with.
    fn is_packed(&self) -> bool {
        false
    }

    /// The I/O counters of this store.
    fn stats(&self) -> &IoStats;

    /// Reads up to `buf.len()` bytes starting at `pos`, returning how many
    /// bytes were read (less than `buf.len()` only at end of string).
    ///
    /// The store records bytes/blocks read and classifies the access against
    /// the cursor its [`IoStats`] keep ([`ReadCursor`]) as sequential
    /// (continues exactly where the previous such read ended) or as a random
    /// seek.
    fn read_at(&self, pos: usize, buf: &mut [u8]) -> StoreResult<usize> {
        #[expect(clippy::disallowed_methods, reason = "the store's own cursor")]
        self.read_at_with(pos, buf, self.stats().cursor())
    }

    /// [`Self::read_at`], classified against the reader's own `cursor`
    /// instead of the store's: how a sequential pass
    /// ([`BlockCursor`](crate::BlockCursor)) reads, so that passes sharing
    /// the store do not classify each other's reads.
    fn read_at_with(&self, pos: usize, buf: &mut [u8], cursor: &ReadCursor) -> StoreResult<usize>;

    /// Bits per symbol code as [`Self::read_codes_at`] serves it: 8 for a
    /// raw store, whose code of a symbol is its byte. A store that overrides
    /// [`Self::read_codes_at_with`] overrides this next to it — the packed stores
    /// return their alphabet's packed width, 2 for DNA and 5 for protein and
    /// English.
    fn code_bits(&self) -> u32 {
        8
    }

    /// Reads the *codes* of up to `count` symbols starting at `pos` into
    /// `buf`, returning how many symbols the read covers — what
    /// [`Self::read_at`] returns for a `count`-byte buffer.
    ///
    /// The codes are the store's own bits, [`Self::code_bits`] per symbol,
    /// least significant first, with nothing decoded: the symbol at `pos`
    /// starts `pos * code_bits() % 8` bits into `buf[0]`. The terminal has no
    /// code in a packed payload and occupies no bits there; a raw store's
    /// codes are its bytes, terminal included. `buf` must hold the
    /// `(pos * code_bits() % 8 + count * code_bits()).div_ceil(8)` bytes the
    /// read may span. The access is accounted exactly as [`Self::read_at`]
    /// accounts it: the same [`Self::read_cost`] and the same
    /// sequential-or-seek classification.
    fn read_codes_at(&self, pos: usize, count: usize, buf: &mut [u8]) -> StoreResult<usize> {
        #[expect(clippy::disallowed_methods, reason = "the store's own cursor")]
        self.read_codes_at_with(pos, count, buf, self.stats().cursor())
    }

    /// [`Self::read_codes_at`], classified against the reader's own `cursor`
    /// as [`Self::read_at_with`] is.
    fn read_codes_at_with(
        &self,
        pos: usize,
        count: usize,
        buf: &mut [u8],
        cursor: &ReadCursor,
    ) -> StoreResult<usize> {
        #[expect(clippy::disallowed_methods, reason = "a raw store's codes are its bytes")]
        self.read_at_with(pos, code_span(buf, count)?, cursor)
    }

    /// The `(bytes, physical blocks)` the store's [`IoStats`] attribute to
    /// one [`Self::read_at`] call at `pos` that returned `take` symbols.
    ///
    /// This is the accounting rule itself, exposed so callers that attribute
    /// I/O *per consumer* (e.g. [`StoreTextSource`](crate::StoreTextSource),
    /// one per query worker) can record locally exactly what the shared
    /// store's global counters record — concurrent readers of one store then
    /// each report only the I/O they caused. Raw stores charge one byte per
    /// symbol over the aligned block span; packed stores override this with
    /// the packed byte span (`bits/8` of the symbols, terminal out-of-band).
    fn read_cost(&self, pos: usize, take: usize) -> (u64, u64) {
        if take == 0 {
            return (0, 0);
        }
        (take as u64, crate::stats::blocks_spanned(pos, pos + take - 1, self.block_size()))
    }

    /// The text itself when the store holds it in memory, to be matched in
    /// place ([`ResidentText`]); `None` for a store that reads a file. The
    /// raw store hands out its bytes, the packed store its payload and codec.
    /// Reading through it is not I/O: the store's [`IoStats`] do not move.
    fn resident(&self) -> Option<ResidentText<'_>> {
        None
    }

    /// Reads exactly `len` bytes at `pos` into a fresh vector, clamping at the
    /// end of the string (the returned vector may be shorter than `len`).
    fn read_range(&self, pos: usize, len: usize) -> StoreResult<Vec<u8>> {
        let take = clamp_read(pos, len, self.len())?;
        let mut buf = vec![0u8; take];
        #[expect(clippy::disallowed_methods, reason = "read_exact_at is part of the store seam")]
        let got = self.read_at(pos, &mut buf)?;
        buf.truncate(got);
        Ok(buf)
    }

    /// Reads the entire string into memory (counts as one full scan).
    fn read_all(&self) -> StoreResult<Vec<u8>> {
        self.stats().add_full_scan();
        self.read_range(0, self.len())
    }
}

/// How many of `want` symbols a read at `pos` of a `text_len`-symbol string
/// serves — fewer only at its end — or `OutOfBounds` for a `pos` past it.
pub(crate) fn clamp_read(pos: usize, want: usize, text_len: usize) -> StoreResult<usize> {
    match text_len.checked_sub(pos) {
        Some(left) => Ok(want.min(left)),
        None => Err(StoreError::OutOfBounds { pos, len: want, text_len }),
    }
}

/// The first `bytes` bytes of a [`StringStore::read_codes_at`] buffer, or an
/// error if the caller sized it too small for the read.
pub(crate) fn code_span(buf: &mut [u8], bytes: usize) -> StoreResult<&mut [u8]> {
    let len = buf.len();
    buf.get_mut(..bytes).ok_or_else(|| {
        StoreError::InvalidConfig(format!(
            "a {len}-byte buffer cannot hold a {bytes}-byte code read"
        ))
    })
}

/// Blanket helper: any `&T` where `T: StringStore` is also usable as a store.
impl<T: StringStore + ?Sized> StringStore for &T {
    fn len(&self) -> usize {
        (**self).len()
    }
    fn alphabet(&self) -> &Alphabet {
        (**self).alphabet()
    }
    fn block_size(&self) -> usize {
        (**self).block_size()
    }
    fn physical_blocks_per_block(&self) -> u64 {
        (**self).physical_blocks_per_block()
    }
    fn is_packed(&self) -> bool {
        (**self).is_packed()
    }
    fn code_bits(&self) -> u32 {
        (**self).code_bits()
    }
    fn stats(&self) -> &IoStats {
        (**self).stats()
    }
    fn read_at_with(&self, pos: usize, buf: &mut [u8], cursor: &ReadCursor) -> StoreResult<usize> {
        #[expect(clippy::disallowed_methods, reason = "blanket forwarding impl")]
        (**self).read_at_with(pos, buf, cursor)
    }
    fn read_codes_at_with(
        &self,
        pos: usize,
        count: usize,
        buf: &mut [u8],
        cursor: &ReadCursor,
    ) -> StoreResult<usize> {
        #[expect(clippy::disallowed_methods, reason = "blanket forwarding impl")]
        (**self).read_codes_at_with(pos, count, buf, cursor)
    }
    fn read_cost(&self, pos: usize, take: usize) -> (u64, u64) {
        (**self).read_cost(pos, take)
    }
    fn resident(&self) -> Option<ResidentText<'_>> {
        (**self).resident()
    }
}

impl<T: StringStore + ?Sized> StringStore for std::sync::Arc<T> {
    fn len(&self) -> usize {
        (**self).len()
    }
    fn alphabet(&self) -> &Alphabet {
        (**self).alphabet()
    }
    fn block_size(&self) -> usize {
        (**self).block_size()
    }
    fn physical_blocks_per_block(&self) -> u64 {
        (**self).physical_blocks_per_block()
    }
    fn is_packed(&self) -> bool {
        (**self).is_packed()
    }
    fn code_bits(&self) -> u32 {
        (**self).code_bits()
    }
    fn stats(&self) -> &IoStats {
        (**self).stats()
    }
    fn read_at_with(&self, pos: usize, buf: &mut [u8], cursor: &ReadCursor) -> StoreResult<usize> {
        #[expect(clippy::disallowed_methods, reason = "blanket forwarding impl")]
        (**self).read_at_with(pos, buf, cursor)
    }
    fn read_codes_at_with(
        &self,
        pos: usize,
        count: usize,
        buf: &mut [u8],
        cursor: &ReadCursor,
    ) -> StoreResult<usize> {
        #[expect(clippy::disallowed_methods, reason = "blanket forwarding impl")]
        (**self).read_codes_at_with(pos, count, buf, cursor)
    }
    fn read_cost(&self, pos: usize, take: usize) -> (u64, u64) {
        (**self).read_cost(pos, take)
    }
    fn resident(&self) -> Option<ResidentText<'_>> {
        (**self).resident()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::InMemoryStore;
    use crate::packed_store::PackedMemoryStore;
    use crate::text_source::TextSource;

    #[test]
    fn read_range_clamps_at_end() {
        let store = InMemoryStore::from_body(b"ACGT", Alphabet::dna()).unwrap();
        let r = store.read_range(2, 10).unwrap();
        assert_eq!(r, vec![b'G', b'T', 0]);
    }

    #[test]
    fn read_range_rejects_past_end() {
        let store = InMemoryStore::from_body(b"ACGT", Alphabet::dna()).unwrap();
        assert!(store.read_range(6, 1).is_err());
    }

    #[test]
    fn read_all_counts_scan() {
        let store = InMemoryStore::from_body(b"ACGT", Alphabet::dna()).unwrap();
        let all = store.read_all().unwrap();
        assert_eq!(all.len(), 5);
        assert_eq!(store.stats().snapshot().full_scans, 1);
    }

    #[test]
    fn trait_objects_and_arcs_delegate() {
        let store =
            std::sync::Arc::new(InMemoryStore::from_body(b"ACGT", Alphabet::dna()).unwrap());
        let via_arc: &dyn StringStore = &store;
        assert_eq!(via_arc.len(), 5);
        assert_eq!(store.alphabet().len(), 4);
        let r = store.read_range(0, 2).unwrap();
        assert_eq!(r, b"AC");

        // Both wrappers hand out the resident text of a memory store, raw or
        // packed; matching through it reads nothing from the store.
        let packed = PackedMemoryStore::from_body(b"ACGT", Alphabet::dna()).unwrap();
        let by_ref: &dyn StringStore = &&packed;
        for wrapper in [via_arc, by_ref, &std::sync::Arc::new(&packed)] {
            let before = wrapper.stats().snapshot();
            let text = wrapper.resident().expect("a memory store is resident");
            assert_eq!(TextSource::len(&text), 5);
            assert_eq!(text.common_prefix(1, 5, b"CGT\0").unwrap(), 4);
            assert_eq!(text.symbol_at(4).unwrap(), crate::TERMINAL);
            assert_eq!(wrapper.stats().snapshot(), before);
        }
    }
}
