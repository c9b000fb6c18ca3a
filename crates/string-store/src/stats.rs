//! Thread-safe I/O accounting.
//!
//! The counters mirror the access-pattern arguments of the paper: out-of-core
//! algorithms win by replacing random disk I/O with a small number of
//! sequential scans of `S`, and ERA further reduces the number of scans via the
//! elastic range and skips useless blocks via forward seeks.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Number of `block`-sized blocks touched by the inclusive span `[lo, hi]`
/// (byte or symbol units, as long as all three agree).
///
/// This is the aligned-span rule every store uses for `blocks_read`: a read
/// that straddles a block boundary touches every block it overlaps, even when
/// it is shorter than one block.
pub fn blocks_spanned(lo: usize, hi: usize, block: usize) -> u64 {
    debug_assert!(block > 0 && hi >= lo);
    (hi / block - lo / block + 1) as u64
}

/// Cumulative I/O counters for one string store (or one simulated node).
///
/// All counters are monotonically increasing and updated with relaxed atomics;
/// cross-thread visibility of *exact* values is only needed when the workers
/// have been joined, which is how the construction drivers use it.
#[derive(Debug, Default)]
pub struct IoStats {
    bytes_read: AtomicU64,
    blocks_read: AtomicU64,
    sequential_reads: AtomicU64,
    random_seeks: AtomicU64,
    blocks_skipped: AtomicU64,
    full_scans: AtomicU64,
    /// Where the last charged read ended: the cursor [`Self::charge_read`]
    /// classifies the next read against. A fresh cursor is at offset 0.
    last_end: AtomicU64,
}

impl IoStats {
    /// Creates a zeroed counter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a zeroed counter set behind an [`Arc`] for sharing.
    pub fn shared() -> Arc<Self> {
        Arc::new(Self::new())
    }

    /// Records `n` bytes fetched from the backing medium.
    pub fn add_bytes_read(&self, n: u64) {
        self.bytes_read.fetch_add(n, Ordering::Relaxed);
    }

    /// Records `n` blocks fetched from the backing medium.
    pub fn add_blocks_read(&self, n: u64) {
        self.blocks_read.fetch_add(n, Ordering::Relaxed);
    }

    /// Records `n` sequential read operations.
    pub fn add_sequential_reads(&self, n: u64) {
        self.sequential_reads.fetch_add(n, Ordering::Relaxed);
    }

    /// Records `n` random seeks (non-contiguous repositionings).
    pub fn add_random_seeks(&self, n: u64) {
        self.random_seeks.fetch_add(n, Ordering::Relaxed);
    }

    /// Records `n` blocks skipped by the forward-seek optimisation.
    pub fn add_blocks_skipped(&self, n: u64) {
        self.blocks_skipped.fetch_add(n, Ordering::Relaxed);
    }

    /// Records the start of one complete pass over the string.
    pub fn add_full_scan(&self) {
        self.full_scans.fetch_add(1, Ordering::Relaxed);
    }

    /// Charges one read of `take` symbols at `pos` that cost
    /// `(bytes, blocks)` — the store's `read_cost` of it — and classifies it
    /// against this counter set's own cursor: sequential iff it starts
    /// exactly where the previous read ended (a fresh cursor is at 0, so the
    /// first read at offset 0 counts as sequential), a random seek otherwise.
    ///
    /// This is the one accounting rule every store read, decoded or not, and
    /// every per-consumer mirror of one such as
    /// [`StoreTextSource`](crate::StoreTextSource) applies, kept here so it
    /// cannot drift between them.
    pub fn charge_read(&self, pos: usize, take: usize, (bytes, blocks): (u64, u64)) {
        if self.last_end.swap((pos + take) as u64, Ordering::Relaxed) == pos as u64 {
            self.add_sequential_reads(1);
        } else {
            self.add_random_seeks(1);
        }
        self.add_bytes_read(bytes);
        self.add_blocks_read(blocks);
    }

    /// Takes a point-in-time copy of the counters.
    pub fn snapshot(&self) -> IoSnapshot {
        IoSnapshot {
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            blocks_read: self.blocks_read.load(Ordering::Relaxed),
            sequential_reads: self.sequential_reads.load(Ordering::Relaxed),
            random_seeks: self.random_seeks.load(Ordering::Relaxed),
            blocks_skipped: self.blocks_skipped.load(Ordering::Relaxed),
            full_scans: self.full_scans.load(Ordering::Relaxed),
        }
    }

    /// Resets every counter to zero and the cursor to offset 0.
    pub fn reset(&self) {
        self.bytes_read.store(0, Ordering::Relaxed);
        self.blocks_read.store(0, Ordering::Relaxed);
        self.sequential_reads.store(0, Ordering::Relaxed);
        self.random_seeks.store(0, Ordering::Relaxed);
        self.blocks_skipped.store(0, Ordering::Relaxed);
        self.full_scans.store(0, Ordering::Relaxed);
        self.last_end.store(0, Ordering::Relaxed);
    }
}

/// A point-in-time copy of [`IoStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoSnapshot {
    /// Bytes fetched from the backing medium.
    pub bytes_read: u64,
    /// Blocks fetched from the backing medium.
    pub blocks_read: u64,
    /// Sequential read operations issued.
    pub sequential_reads: u64,
    /// Random seeks (non-contiguous repositionings).
    pub random_seeks: u64,
    /// Blocks skipped by the forward-seek optimisation.
    pub blocks_skipped: u64,
    /// Complete passes over the string.
    pub full_scans: u64,
}

impl IoSnapshot {
    /// Difference `self - earlier`, counter by counter (saturating).
    pub fn since(&self, earlier: &IoSnapshot) -> IoSnapshot {
        IoSnapshot {
            bytes_read: self.bytes_read.saturating_sub(earlier.bytes_read),
            blocks_read: self.blocks_read.saturating_sub(earlier.blocks_read),
            sequential_reads: self.sequential_reads.saturating_sub(earlier.sequential_reads),
            random_seeks: self.random_seeks.saturating_sub(earlier.random_seeks),
            blocks_skipped: self.blocks_skipped.saturating_sub(earlier.blocks_skipped),
            full_scans: self.full_scans.saturating_sub(earlier.full_scans),
        }
    }

    /// Sum of two snapshots, counter by counter.
    pub fn merged(&self, other: &IoSnapshot) -> IoSnapshot {
        IoSnapshot {
            bytes_read: self.bytes_read + other.bytes_read,
            blocks_read: self.blocks_read + other.blocks_read,
            sequential_reads: self.sequential_reads + other.sequential_reads,
            random_seeks: self.random_seeks + other.random_seeks,
            blocks_skipped: self.blocks_skipped + other.blocks_skipped,
            full_scans: self.full_scans + other.full_scans,
        }
    }

    /// Fraction of read operations that were sequential (1.0 when no reads).
    pub fn sequential_fraction(&self) -> f64 {
        let total = self.sequential_reads + self.random_seeks;
        if total == 0 {
            1.0
        } else {
            self.sequential_reads as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let s = IoStats::new();
        s.add_bytes_read(10);
        s.add_bytes_read(5);
        s.add_blocks_read(2);
        s.add_sequential_reads(3);
        s.add_random_seeks(1);
        s.add_blocks_skipped(4);
        s.add_full_scan();
        let snap = s.snapshot();
        assert_eq!(snap.bytes_read, 15);
        assert_eq!(snap.blocks_read, 2);
        assert_eq!(snap.sequential_reads, 3);
        assert_eq!(snap.random_seeks, 1);
        assert_eq!(snap.blocks_skipped, 4);
        assert_eq!(snap.full_scans, 1);
    }

    #[test]
    fn reset_zeroes() {
        let s = IoStats::new();
        s.add_bytes_read(10);
        s.reset();
        assert_eq!(s.snapshot(), IoSnapshot::default());
    }

    #[test]
    fn since_and_merged() {
        let a = IoSnapshot { bytes_read: 10, sequential_reads: 2, ..Default::default() };
        let b = IoSnapshot { bytes_read: 25, sequential_reads: 5, ..Default::default() };
        let d = b.since(&a);
        assert_eq!(d.bytes_read, 15);
        assert_eq!(d.sequential_reads, 3);
        let m = a.merged(&b);
        assert_eq!(m.bytes_read, 35);
    }

    #[test]
    fn sequential_fraction() {
        let mut s = IoSnapshot::default();
        assert_eq!(s.sequential_fraction(), 1.0);
        s.sequential_reads = 3;
        s.random_seeks = 1;
        assert!((s.sequential_fraction() - 0.75).abs() < 1e-9);
    }

    #[test]
    fn shared_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<IoStats>();
        let shared = IoStats::shared();
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let s = shared.clone();
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        s.add_bytes_read(1);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(shared.snapshot().bytes_read, 4000);
    }
}
