//! Zero-copy block-scan layer: one sequential pass served from a reused
//! buffer.
//!
//! [`BlockCursor`] is the I/O primitive underneath every sequential pass in
//! the workspace — the windowed scans of vertical partitioning, the
//! occurrence-collection scan of horizontal partitioning, the read-ahead
//! fills of `SubTreePrepare` and the per-suffix range reads of the iterative
//! `BranchEdge` (§4.2.1): during one pass every active suffix requests its
//! next symbols, and the requests are served in ascending position order. It
//! maintains a sliding block-aligned window of the string in **one reused
//! buffer**: blocks are read from the store directly into the buffer's tail
//! (no per-fetch allocation), consumed bytes are compacted in place, and
//! callers borrow `&[u8]` slices straight out of the buffer — copying out
//! only what they keep across requests.
//!
//! In *code mode* ([`BlockCursor::new_codes`]) the same window holds the
//! store's codes instead of decoded symbols — [`StringStore::read_codes_at`]
//! rather than [`StringStore::read_at`], so a packed store decodes nothing —
//! and [`BlockCursor::codes`] copies each request's codes out, realigned to
//! bit 0. Which blocks are read, skipped or read through, and so every I/O
//! counter, is the same in both modes.
//!
//! A pass classifies its reads as sequential or as seeks against its own
//! [`ReadCursor`], not the store's: passes that share a store — the workers
//! of a threaded build — leave each other's classification alone, so the
//! counters of a build do not depend on the order its threads read in.

#![expect(clippy::disallowed_methods, reason = "the accounted-I/O seam")]

use crate::error::{StoreError, StoreResult};
use crate::stats::ReadCursor;
use crate::store::StringStore;

/// A forward-only cursor over the string that serves ascending-position
/// `(pos, len)` requests as borrowed slices of an internal reused buffer, or
/// in code mode as copies of their codes.
///
/// With `skip_blocks` enabled, whole blocks between the previous and the next
/// request that contain no needed symbol are skipped with a forward seek
/// instead of being read (the paper's disk-seek optimisation, §4.4).
pub struct BlockCursor<'a> {
    store: &'a dyn StringStore,
    skip_blocks: bool,
    block: usize,
    /// Whether the window holds codes ([`Self::codes`]) rather than decoded
    /// symbols ([`Self::slice`]).
    codes: bool,
    /// Bits one symbol takes in `buf`: 8 for a decoded symbol, the store's
    /// [`StringStore::code_bits`] in code mode.
    bits: u32,
    /// The reused window buffer, holding text positions
    /// `[win_start, win_end)` from bit 0 on, `bits` per symbol. Grows to a
    /// steady state of a few blocks and is never reallocated afterwards:
    /// extensions read into its tail, compactions shift the live bytes to
    /// the front in place. `win_start` is always block-aligned, and a
    /// logical block is a whole number of bytes in either mode.
    buf: Vec<u8>,
    win_start: usize,
    win_end: usize,
    /// Index of the block that would be read next by a strictly sequential
    /// reader (used to classify skipped blocks).
    next_block: usize,
    last_pos: usize,
    /// Where this pass's previous read ended, which its next read is
    /// classified against (a fresh pass starts at offset 0).
    reads: ReadCursor,
}

impl<'a> BlockCursor<'a> {
    /// Starts one sequential pass over `store`. Counts one full scan.
    pub fn new(store: &'a dyn StringStore, skip_blocks: bool) -> Self {
        Self::start(store, skip_blocks, false)
    }

    /// Starts one sequential pass over `store` in code mode: requests are
    /// served by [`Self::codes`]. Counts one full scan.
    pub fn new_codes(store: &'a dyn StringStore, skip_blocks: bool) -> Self {
        Self::start(store, skip_blocks, true)
    }

    fn start(store: &'a dyn StringStore, skip_blocks: bool, codes: bool) -> Self {
        store.stats().add_full_scan();
        BlockCursor {
            store,
            skip_blocks,
            block: store.block_size().max(1),
            codes,
            bits: if codes { store.code_bits() } else { 8 },
            buf: Vec::new(),
            win_start: 0,
            win_end: 0,
            next_block: 0,
            last_pos: 0,
            reads: ReadCursor::default(),
        }
    }

    /// The store this cursor reads from.
    pub fn store(&self) -> &'a dyn StringStore {
        self.store
    }

    /// Returns the `len` symbols starting at `pos`, clamped at the end of the
    /// string, as a slice borrowed from the internal buffer.
    ///
    /// Requests must be issued with non-decreasing `pos`; violating that
    /// returns [`StoreError::InvalidConfig`] so that algorithm bugs surface as
    /// errors rather than silently degraded I/O accounting. So does calling
    /// this on a cursor in code mode.
    pub fn slice(&mut self, pos: usize, len: usize) -> StoreResult<&[u8]> {
        let end = self.request(pos, len, false)?;
        if end <= pos {
            return Ok(&[]);
        }
        let lo = pos - self.win_start;
        let hi = end - self.win_start;
        Ok(&self.buf[lo..hi])
    }

    /// Writes the codes of the `len` symbols starting at `pos`, clamped at
    /// the end of the string, into `out` and returns how many symbols that
    /// is — the length [`Self::slice`] would return.
    ///
    /// The codes are [`StringStore::code_bits`] bits each, least significant
    /// first as in a packed payload, realigned so that the first starts at
    /// bit 0 of `out[0]`; `(n * code_bits()).div_ceil(8)` bytes are written
    /// and the bits past the last code are zero. The terminal's code is zero
    /// too: a packed payload has no bits for it, a raw store's byte is 0.
    /// Ordering and error rules are those of [`Self::slice`]; the cursor must
    /// be in code mode.
    pub fn codes(&mut self, pos: usize, len: usize, out: &mut [u8]) -> StoreResult<usize> {
        let end = self.request(pos, len, true)?;
        let n = end.saturating_sub(pos);
        if n == 0 {
            return Ok(0);
        }
        let bits = self.bits as usize;
        let (bytes, spare) = ((n * bits).div_ceil(8), n * bits % 8);
        let out_len = out.len();
        let out = out.get_mut(..bytes).ok_or_else(|| {
            StoreError::InvalidConfig(format!("{n} codes do not fit a {out_len}-byte record"))
        })?;
        let first = (pos - self.win_start) * bits;
        copy_bits(self.buf.get(first / 8..).unwrap_or_default(), (first % 8) as u32, out);
        if let (Some(last), true) = (out.last_mut(), spare != 0) {
            *last &= (1u8 << spare) - 1;
        }
        Ok(n)
    }

    /// Checks one request against the string, the ascending order and the
    /// cursor's mode, makes the window cover it, and returns where it ends.
    fn request(&mut self, pos: usize, len: usize, codes: bool) -> StoreResult<usize> {
        if codes != self.codes {
            return Err(StoreError::InvalidConfig(format!(
                "block cursor in {} mode asked for {}",
                if self.codes { "code" } else { "symbol" },
                if codes { "codes" } else { "symbols" }
            )));
        }
        let text_len = self.store.len();
        if pos > text_len {
            return Err(StoreError::OutOfBounds { pos, len, text_len });
        }
        if pos < self.last_pos {
            return Err(StoreError::InvalidConfig(format!(
                "block cursor received a descending request: {} after {}",
                pos, self.last_pos
            )));
        }
        self.last_pos = pos;
        let end = (pos + len).min(text_len);
        if end > pos {
            self.ensure_window(pos, end)?;
        }
        Ok(end)
    }

    /// Bytes of `buf` that `symbols` symbols from a block boundary take.
    fn bytes(&self, symbols: usize) -> usize {
        (symbols * self.bits as usize).div_ceil(8)
    }

    /// Reads the `count` symbols at the block-aligned `pos` into the buffer's
    /// tail — decoded, or in code mode as the store's codes, where a
    /// terminal's absent bits stay zero — and returns how many the store
    /// served.
    fn fetch(&mut self, pos: usize, count: usize) -> StoreResult<usize> {
        let live = self.buf.len();
        self.buf.resize(live + self.bytes(count), 0);
        let tail = &mut self.buf[live..];
        let got = if self.codes {
            self.store.read_codes_at_with(pos, count, tail, &self.reads)?
        } else {
            self.store.read_at_with(pos, tail, &self.reads)?
        };
        self.buf.truncate(live + self.bytes(got));
        Ok(got)
    }

    /// Makes sure the buffer covers `[pos, end)`.
    fn ensure_window(&mut self, pos: usize, end: usize) -> StoreResult<()> {
        debug_assert!(end <= self.store.len());

        // Compact in place: drop whole blocks before the block containing
        // `pos` — requests are ascending, so they will never be needed again.
        let new_start = (pos / self.block) * self.block;
        if new_start > self.win_start {
            if new_start < self.win_end {
                let drop = self.bytes(new_start - self.win_start);
                let keep = self.buf.len() - drop;
                self.buf.copy_within(drop.., 0);
                self.buf.truncate(keep);
            } else {
                self.buf.clear();
                self.win_end = new_start;
            }
            self.win_start = new_start;
        }
        let win_end = self.win_end;
        if end <= win_end {
            return Ok(());
        }

        // Extend the window block by block until it covers `end`.
        let first_needed_block = win_end / self.block;
        let last_needed_block = (end - 1) / self.block;

        // Handle the gap between the sequential cursor and the first block we
        // actually need.
        if first_needed_block > self.next_block {
            let gap = first_needed_block - self.next_block;
            if self.skip_blocks {
                // Scale to physical blocks: the cursor's block is a store's
                // logical block, which packed stores group from several
                // physical blocks — `blocks_skipped` must stay in the same
                // units as `blocks_read`.
                self.store
                    .stats()
                    .add_blocks_skipped(gap as u64 * self.store.physical_blocks_per_block());
            } else {
                // Read-through: fetch and discard the gap blocks, mirroring
                // the behaviour of WaveFront-style full scans. The window
                // buffer is borrowed as scratch so the pass still allocates
                // nothing per fetch.
                let gap_start = self.next_block * self.block;
                let gap_end = (first_needed_block * self.block).min(self.store.len());
                if gap_end > gap_start {
                    let live = self.buf.len();
                    self.fetch(gap_start, gap_end - gap_start)?;
                    self.buf.truncate(live);
                }
            }
        }

        let read_start = win_end.max(first_needed_block * self.block);
        let read_end = ((last_needed_block + 1) * self.block).min(self.store.len());
        if read_end > read_start {
            self.win_end = read_start + self.fetch(read_start, read_end - read_start)?;
        }
        self.next_block = last_needed_block + 1;
        if end > self.win_end {
            return Err(StoreError::OutOfBounds {
                pos,
                len: end - pos,
                text_len: self.store.len(),
            });
        }
        Ok(())
    }
}

/// Fills `out` with the bits of `src` from bit `shift` (< 8) on, realigned to
/// bit 0, eight bytes per step; bits past the end of `src` read as zero.
fn copy_bits(src: &[u8], shift: u32, out: &mut [u8]) {
    if shift == 0 {
        let n = out.len().min(src.len());
        out[..n].copy_from_slice(&src[..n]);
        out[n..].fill(0);
        return;
    }
    let (words, tail) = out.as_chunks_mut::<8>();
    for (k, word) in words.iter_mut().enumerate() {
        // Nine source bytes cover the eight output bytes of any shift; only
        // the last words of `src` need the zero fill.
        let from = src.get(8 * k..).unwrap_or_default();
        let bits = match from.split_first_chunk::<8>() {
            Some((low, [high, ..])) => {
                u64::from_le_bytes(*low) >> shift | u64::from(*high) << (64 - shift)
            }
            _ => {
                let mut window = [0u8; 16];
                let n = from.len().min(9);
                window[..n].copy_from_slice(&from[..n]);
                (u128::from_le_bytes(window) >> shift) as u64
            }
        };
        *word = bits.to_le_bytes();
    }
    let at = 8 * words.len();
    let byte = |i: usize| src.get(i).copied().unwrap_or(0) as u16;
    for (i, b) in tail.iter_mut().enumerate() {
        *b = ((byte(at + i) | byte(at + i + 1) << 8) >> shift) as u8;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::InMemoryStore;

    fn store_with_block(body: &[u8], block: usize) -> InMemoryStore {
        InMemoryStore::from_body_inferred(body).unwrap().with_block_size(block).unwrap()
    }

    #[test]
    fn slices_are_correct_and_clamped() {
        let body: Vec<u8> = (0..200).map(|i| b'a' + (i % 4) as u8).collect();
        let store = store_with_block(&body, 16);
        let mut cursor = BlockCursor::new(&store, false);
        for pos in [0usize, 3, 10, 50, 120, 199] {
            let got = cursor.slice(pos, 7).unwrap().to_vec();
            let expect_end = (pos + 7).min(201);
            let mut expect = body[pos..expect_end.min(200)].to_vec();
            if expect_end > 200 {
                expect.push(0);
            }
            assert_eq!(got, expect, "pos {pos}");
        }
        // Past-the-end start is rejected; at-the-end start yields empty.
        assert!(cursor.slice(202, 1).is_err());
        assert_eq!(cursor.slice(201, 5).unwrap(), &[] as &[u8]);
    }

    #[test]
    fn descending_request_is_rejected() {
        let store = store_with_block(b"abcdefgh", 4);
        let mut cursor = BlockCursor::new(&store, false);
        cursor.slice(4, 2).unwrap();
        assert!(cursor.slice(1, 2).is_err());
    }

    #[test]
    fn overlapping_requests_within_window() {
        let body: Vec<u8> = (0..100).map(|i| b'a' + (i % 26) as u8).collect();
        let store = store_with_block(&body, 8);
        let mut cursor = BlockCursor::new(&store, false);
        assert_eq!(cursor.slice(10, 30).unwrap(), &body[10..40]);
        assert_eq!(cursor.slice(12, 30).unwrap(), &body[12..42]);
    }

    #[test]
    fn scan_counter_increments_per_cursor() {
        let store = store_with_block(b"abcabc", 4);
        let _c1 = BlockCursor::new(&store, false);
        let _c2 = BlockCursor::new(&store, true);
        assert_eq!(store.stats().snapshot().full_scans, 2);
    }

    #[test]
    fn one_pass_reads_one_pass_of_bytes() {
        let body: Vec<u8> = (0..997).map(|i| b'a' + (i % 26) as u8).collect();
        let store = store_with_block(&body, 32);
        let mut cursor = BlockCursor::new(&store, false);
        for pos in 0..store.len() {
            let w = cursor.slice(pos, 8).unwrap();
            assert!(!w.is_empty() || pos == store.len());
            let _ = w;
        }
        let snap = store.stats().snapshot();
        assert_eq!(snap.full_scans, 1);
        // Every byte is read exactly once: block-aligned reads clamp at the
        // end of the string, so the total equals the text length.
        assert_eq!(snap.bytes_read as usize, store.len());
    }

    #[test]
    fn buffer_is_reused_not_regrown() {
        let body: Vec<u8> = (0..4096).map(|i| b'a' + (i % 4) as u8).collect();
        let store = store_with_block(&body, 64);
        let mut cursor = BlockCursor::new(&store, false);
        // Warm up past the first few blocks so the steady state is reached.
        for pos in 0..256usize {
            cursor.slice(pos, 16).unwrap();
        }
        let steady = cursor.buf.capacity();
        for pos in 256..store.len() {
            cursor.slice(pos, 16).unwrap();
        }
        assert_eq!(
            cursor.buf.capacity(),
            steady,
            "window buffer must stay at its steady-state capacity"
        );
    }

    #[test]
    fn skipping_counts_skipped_blocks() {
        let body: Vec<u8> = (0..1000).map(|i| b'a' + (i % 4) as u8).collect();
        let store = store_with_block(&body, 10);
        let mut cursor = BlockCursor::new(&store, true);
        cursor.slice(0, 5).unwrap();
        cursor.slice(500, 5).unwrap(); // skips blocks 1..=49
        let snap = store.stats().snapshot();
        assert!(snap.blocks_skipped >= 45, "skipped {} blocks", snap.blocks_skipped);
        assert!(snap.bytes_read < 100);
    }

    #[test]
    fn each_mode_serves_only_its_own_requests() {
        let store = store_with_block(b"abcdefgh", 4);
        let mut out = [0u8; 8];
        assert!(BlockCursor::new(&store, false).codes(0, 2, &mut out).is_err());
        let mut cursor = BlockCursor::new_codes(&store, false);
        assert!(cursor.slice(0, 2).is_err());
        // A raw store's codes are its bytes.
        assert_eq!(cursor.codes(2, 3, &mut out).unwrap(), 3);
        assert_eq!(&out[..3], b"cde");
        assert!(cursor.codes(4, 4, &mut out[..2]).is_err(), "a short record is an error");
    }

    #[test]
    fn copy_bits_realigns_every_shift() {
        let src: Vec<u8> = (0..23u8).map(|i| i.wrapping_mul(37) ^ 0x5A).collect();
        let bit = |i: usize| src.get(i / 8).map_or(0, |b| b >> (i % 8) & 1);
        for shift in 0..8u32 {
            for len in [0usize, 1, 7, 8, 9, 16, 22, 23] {
                let mut out = vec![0xEEu8; len];
                copy_bits(&src, shift, &mut out);
                let expect: Vec<u8> = (0..len)
                    .map(|j| (0..8).map(|k| bit(shift as usize + 8 * j + k) << k).sum())
                    .collect();
                assert_eq!(out, expect, "shift {shift} len {len}");
            }
        }
    }

    #[test]
    fn no_skip_reads_through_gap() {
        let body: Vec<u8> = (0..1000).map(|i| b'a' + (i % 4) as u8).collect();
        let store = store_with_block(&body, 10);
        let mut cursor = BlockCursor::new(&store, false);
        cursor.slice(0, 5).unwrap();
        cursor.slice(500, 5).unwrap();
        let snap = store.stats().snapshot();
        assert_eq!(snap.blocks_skipped, 0);
        assert!(snap.bytes_read >= 500, "read {} bytes", snap.bytes_read);
    }
}
