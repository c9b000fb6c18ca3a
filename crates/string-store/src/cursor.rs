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

use crate::error::{StoreError, StoreResult};
use crate::store::StringStore;

/// A forward-only cursor over the string that serves ascending-position
/// `(pos, len)` requests as borrowed slices of an internal reused buffer.
///
/// With `skip_blocks` enabled, whole blocks between the previous and the next
/// request that contain no needed symbol are skipped with a forward seek
/// instead of being read (the paper's disk-seek optimisation, §4.4).
pub struct BlockCursor<'a> {
    store: &'a dyn StringStore,
    skip_blocks: bool,
    block: usize,
    /// The reused window buffer, holding the bytes of text positions
    /// `[win_start, win_start + buf.len())`. Grows to a steady state of a few
    /// blocks and is never reallocated afterwards: extensions read into its
    /// tail, compactions shift the live bytes to the front in place.
    buf: Vec<u8>,
    win_start: usize,
    /// Index of the block that would be read next by a strictly sequential
    /// reader (used to classify skipped blocks).
    next_block: usize,
    last_pos: usize,
}

impl<'a> BlockCursor<'a> {
    /// Starts one sequential pass over `store`. Counts one full scan.
    pub fn new(store: &'a dyn StringStore, skip_blocks: bool) -> Self {
        store.stats().add_full_scan();
        let block = store.block_size().max(1);
        BlockCursor {
            store,
            skip_blocks,
            block,
            buf: Vec::new(),
            win_start: 0,
            next_block: 0,
            last_pos: 0,
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
    /// errors rather than silently degraded I/O accounting.
    pub fn slice(&mut self, pos: usize, len: usize) -> StoreResult<&[u8]> {
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
        if end <= pos {
            return Ok(&[]);
        }
        self.ensure_window(pos, end)?;
        let lo = pos - self.win_start;
        let hi = end - self.win_start;
        Ok(&self.buf[lo..hi])
    }

    /// Makes sure the buffer covers `[pos, end)`.
    fn ensure_window(&mut self, pos: usize, end: usize) -> StoreResult<()> {
        debug_assert!(end <= self.store.len());
        let mut win_end = self.win_start + self.buf.len();

        // Compact in place: drop whole blocks before the block containing
        // `pos` — requests are ascending, so they will never be needed again.
        let new_start = (pos / self.block) * self.block;
        if new_start > self.win_start {
            if new_start < win_end {
                let drop = new_start - self.win_start;
                let keep = self.buf.len() - drop;
                self.buf.copy_within(drop.., 0);
                self.buf.truncate(keep);
            } else {
                self.buf.clear();
            }
            self.win_start = new_start;
            win_end = self.win_start + self.buf.len();
        }
        if end <= win_end {
            return Ok(());
        }

        // Extend the window block by block until it covers `end`
        // (`win_end >= win_start` always holds: it is `win_start + buf.len()`).
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
                    self.buf.resize(live + (gap_end - gap_start), 0);
                    let (_, scratch) = self.buf.split_at_mut(live);
                    self.store.read_at(gap_start, scratch)?;
                    self.buf.truncate(live);
                }
            }
        }

        let read_start = win_end.max(first_needed_block * self.block);
        let read_end = ((last_needed_block + 1) * self.block).min(self.store.len());
        if read_end > read_start {
            let live = self.buf.len();
            self.buf.resize(live + (read_end - read_start), 0);
            let got = self.store.read_at(read_start, &mut self.buf[live..])?;
            self.buf.truncate(live + got);
            win_end = read_start + got;
        }
        self.next_block = last_needed_block + 1;
        if end > win_end {
            return Err(StoreError::OutOfBounds {
                pos,
                len: end - pos,
                text_len: self.store.len(),
            });
        }
        Ok(())
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
