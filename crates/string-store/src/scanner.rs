//! One sequential pass over the string with optional block skipping.
//!
//! [`SequentialScanner`] is the I/O primitive behind the iterative
//! `BranchEdge` (§4.2.1; `SubTreePrepare`, §4.2.2, issues the same requests
//! to the [`BlockCursor`](crate::BlockCursor) directly): during one iteration
//! every active suffix requests the next `range` symbols, the requests are
//! served in ascending position order, and — with the disk-seek optimisation
//! of §4.4 — whole blocks that contain no requested symbol are skipped with a
//! short forward seek instead of being read.
//!
//! The block window itself lives in [`BlockCursor`](crate::BlockCursor); the
//! scanner is a thin copy-out adapter for callers that want the bytes in
//! their own buffer (e.g. to keep them across subsequent requests).

use crate::cursor::BlockCursor;
use crate::error::StoreResult;
use crate::store::StringStore;

/// A single read request: `len` symbols starting at `pos`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScanRequest {
    /// Starting position in the string.
    pub pos: usize,
    /// Number of symbols requested (the returned slice is clamped at the end
    /// of the string).
    pub len: usize,
}

/// Serves ascending-position read requests from a sliding block-aligned
/// window, counting sequential reads, skipped blocks and bytes.
pub struct SequentialScanner<'a> {
    cursor: BlockCursor<'a>,
}

impl<'a> SequentialScanner<'a> {
    /// Starts a new pass over `store`. Counts one full scan.
    pub fn new(store: &'a dyn StringStore, skip_blocks: bool) -> Self {
        SequentialScanner { cursor: BlockCursor::new(store, skip_blocks) }
    }

    /// Borrows the `len` symbols at `pos` (clamped at end of string) straight
    /// from the cursor's window — the zero-copy path.
    ///
    /// Requests must be issued with non-decreasing `pos`; violating that
    /// returns [`crate::StoreError::InvalidConfig`] so that algorithm bugs
    /// surface as errors rather than silently degraded I/O accounting.
    pub fn slice(&mut self, pos: usize, len: usize) -> StoreResult<&[u8]> {
        self.cursor.slice(pos, len)
    }

    /// Reads `req.len` symbols at `req.pos` (clamped at end of string) into
    /// `out`, which is cleared first.
    pub fn read(&mut self, req: ScanRequest, out: &mut Vec<u8>) -> StoreResult<()> {
        out.clear();
        let slice = self.cursor.slice(req.pos, req.len)?;
        out.extend_from_slice(slice);
        Ok(())
    }

    /// Convenience wrapper allocating the output vector.
    pub fn read_vec(&mut self, pos: usize, len: usize) -> StoreResult<Vec<u8>> {
        Ok(self.cursor.slice(pos, len)?.to_vec())
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
    fn ascending_requests_read_correct_bytes() {
        let body: Vec<u8> = (0..200).map(|i| b'a' + (i % 4) as u8).collect();
        let store = store_with_block(&body, 16);
        let mut sc = SequentialScanner::new(&store, false);
        for pos in [0usize, 3, 10, 50, 120, 199] {
            let got = sc.read_vec(pos, 7).unwrap();
            let expect_end = (pos + 7).min(201);
            let mut expect = body[pos..expect_end.min(200)].to_vec();
            if expect_end > 200 {
                expect.push(0);
            }
            assert_eq!(got, expect, "pos {pos}");
        }
    }

    #[test]
    fn descending_request_is_rejected() {
        let store = store_with_block(b"abcdefgh", 4);
        let mut sc = SequentialScanner::new(&store, false);
        sc.read_vec(4, 2).unwrap();
        assert!(sc.read_vec(1, 2).is_err());
    }

    #[test]
    fn overlapping_requests_within_window() {
        let body: Vec<u8> = (0..100).map(|i| b'a' + (i % 26) as u8).collect();
        let store = store_with_block(&body, 8);
        let mut sc = SequentialScanner::new(&store, false);
        let a = sc.read_vec(10, 30).unwrap();
        let b = sc.read_vec(12, 30).unwrap();
        assert_eq!(a, body[10..40].to_vec());
        assert_eq!(b, body[12..42].to_vec());
    }

    #[test]
    fn skipping_counts_skipped_blocks() {
        let body: Vec<u8> = (0..1000).map(|i| b'a' + (i % 4) as u8).collect();
        let store = store_with_block(&body, 10);
        let mut sc = SequentialScanner::new(&store, true);
        sc.read_vec(0, 5).unwrap();
        sc.read_vec(500, 5).unwrap(); // skips blocks 1..=49
        let snap = store.stats().snapshot();
        assert!(snap.blocks_skipped >= 45, "skipped {} blocks", snap.blocks_skipped);
        // With skipping, far less than the whole string is read.
        assert!(snap.bytes_read < 100);
    }

    #[test]
    fn no_skip_reads_through_gap() {
        let body: Vec<u8> = (0..1000).map(|i| b'a' + (i % 4) as u8).collect();
        let store = store_with_block(&body, 10);
        let mut sc = SequentialScanner::new(&store, false);
        sc.read_vec(0, 5).unwrap();
        sc.read_vec(500, 5).unwrap();
        let snap = store.stats().snapshot();
        assert_eq!(snap.blocks_skipped, 0);
        assert!(snap.bytes_read >= 500, "read {} bytes", snap.bytes_read);
    }

    #[test]
    fn scan_counter_increments_per_scanner() {
        let store = store_with_block(b"abcabc", 4);
        let _s1 = SequentialScanner::new(&store, false);
        let _s2 = SequentialScanner::new(&store, true);
        assert_eq!(store.stats().snapshot().full_scans, 2);
    }

    #[test]
    fn read_clamps_at_terminal() {
        let store = store_with_block(b"abc", 2);
        let mut sc = SequentialScanner::new(&store, false);
        let got = sc.read_vec(2, 10).unwrap();
        assert_eq!(got, vec![b'c', 0]);
        let empty = sc.read_vec(4, 10).unwrap();
        assert!(empty.is_empty());
    }

    #[test]
    fn zero_copy_slice_matches_copy_out() {
        let body: Vec<u8> = (0..300).map(|i| b'a' + (i % 11) as u8).collect();
        let store = store_with_block(&body, 32);
        let mut copying = SequentialScanner::new(&store, false);
        let store2 = store_with_block(&body, 32);
        let mut borrowing = SequentialScanner::new(&store2, false);
        for pos in [0usize, 5, 64, 65, 200, 299] {
            let copied = copying.read_vec(pos, 40).unwrap();
            let borrowed = borrowing.slice(pos, 40).unwrap();
            assert_eq!(copied.as_slice(), borrowed, "pos {pos}");
        }
    }
}
