//! B²ST (Barsky, Stege, Thomo, Upton — CIKM 2009).
//!
//! B²ST partitions the *string* (not the tree): for every partition it builds
//! a sorted run of the suffixes starting there (suffix array + LCP), merges
//! the runs, and only then materialises the suffix tree in batch. The paper
//! highlights two consequences that this re-implementation preserves:
//!
//! * the temporary results (sorted runs) are large, and every run construction
//!   plus the merge re-reads the string — with `c = 2n/M` partitions the cost
//!   grows quickly once the string is much larger than memory;
//! * the final batch tree construction is cache-friendly (no per-node
//!   traversals), which is why B²ST beats WaveFront when memory is scarce
//!   (Fig. 10(a)) — and why ERA adopts batch construction too.
//!
//! Simplification versus the original system (documented in `DESIGN.md`): the
//! original merges runs with pairwise partition comparisons entirely on disk;
//! here each run is sorted against the string read through the store (counted
//! I/O) and the merge is performed by the shared k-way merge of
//! `era-suffix-array`. The number of string scans, the run volume and the
//! batch build are the same; only the constant factors of the external sort
//! differ.

use std::time::Instant;

use era::{ConstructionReport, EraResult};
use era_string_store::StringStore;
use era_suffix_array::{merge_runs, SortedRun};
use era_suffix_tree::{assemble::assemble_from_sa_lcp, PartitionedSuffixTree};

/// Configuration of the B²ST baseline.
#[derive(Debug, Clone)]
pub struct B2stConfig {
    /// Total memory budget in bytes.
    pub memory_budget: usize,
    /// Bytes of the input string that one partition may hold in memory
    /// (derived from the budget if `None`: half the budget, as the rest is
    /// needed for output buffers and the suffix/LCP arrays).
    pub partition_bytes: Option<usize>,
}

impl Default for B2stConfig {
    fn default() -> Self {
        B2stConfig { memory_budget: 64 << 20, partition_bytes: None }
    }
}

impl B2stConfig {
    /// Size of one string partition.
    pub fn partition_size(&self) -> usize {
        self.partition_bytes.unwrap_or((self.memory_budget / 2).max(1024))
    }
}

/// Builds the suffix tree with the B²ST strategy.
pub fn b2st_construct(
    store: &dyn StringStore,
    config: &B2stConfig,
) -> EraResult<(PartitionedSuffixTree, ConstructionReport)> {
    let start_all = Instant::now();
    let io_start = store.stats().snapshot();
    let n = store.len();
    let part = config.partition_size().max(2);
    let partitions = n.div_ceil(part);

    // --- Phase 1: one sorted run (suffix array fragment + implicit LCP) per
    // string partition. Each run construction scans the string once (the
    // suffixes of a partition extend beyond it, so the tail is needed for
    // comparisons).
    let t0 = Instant::now();
    let mut runs: Vec<SortedRun> = Vec::with_capacity(partitions);
    let mut temp_bytes: u64 = 0;
    let mut full_text: Option<Vec<u8>> = None;
    for p in 0..partitions {
        let lo = p * part;
        let hi = ((p + 1) * part).min(n);
        // Read the string for this run's comparisons (counted against the
        // store: this is the repeated sequential I/O that makes B²ST's cost
        // grow with the number of partitions).
        let text = store.read_all()?;
        let mut suffixes: Vec<u32> = (lo as u32..hi as u32).collect();
        suffixes.sort_by(|&a, &b| text[a as usize..].cmp(&text[b as usize..]));
        temp_bytes += 8 * suffixes.len() as u64; // SA entry + LCP entry per suffix
        runs.push(SortedRun::new(&text, suffixes));
        full_text = Some(text);
    }
    let phase1 = t0.elapsed();

    // --- Phase 2: k-way merge of the runs and batch tree construction.
    let t1 = Instant::now();
    let text = match full_text {
        Some(t) => t,
        None => store.read_all()?,
    };
    let (sa, lcp) = merge_runs(&text, &runs);
    let tree = assemble_from_sa_lcp(&text, &sa, &lcp);
    let partitioned = PartitionedSuffixTree::single(n, tree);
    let phase2 = t1.elapsed();

    let mut io = store.stats().snapshot().since(&io_start);
    // Account the sorted-run volume as additional I/O traffic: the original
    // system writes and re-reads them from disk.
    io.bytes_read += temp_bytes;

    let report = ConstructionReport {
        algorithm: "b2st".into(),
        text_len: n,
        memory_budget: config.memory_budget,
        fm: 0,
        elapsed: start_all.elapsed(),
        vertical_time: phase1,
        horizontal_time: phase2,
        vertical_scans: partitions,
        partitions,
        virtual_trees: partitions,
        io,
        tree: partitioned.stats(),
        per_node: Vec::new(),
        ..Default::default()
    };
    Ok((partitioned, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use era_string_store::{Alphabet, InMemoryStore};
    use era_suffix_tree::{naive_suffix_tree, validate_partitioned};

    #[test]
    fn builds_the_correct_tree() {
        let body = b"GATTACAGATTACAGGATCCGATTACATTTTACAGAG";
        let store = InMemoryStore::from_body(body, Alphabet::dna()).unwrap();
        let text: Vec<u8> = {
            let mut t = body.to_vec();
            t.push(0);
            t
        };
        let cfg = B2stConfig { memory_budget: 0, partition_bytes: Some(10) };
        let (tree, report) = b2st_construct(&store, &cfg).unwrap();
        validate_partitioned(&tree, &text).unwrap();
        let reference = naive_suffix_tree(&text);
        assert_eq!(tree.lexicographic_suffixes(), reference.lexicographic_suffixes());
        assert_eq!(report.partitions, text.len().div_ceil(10));
        assert_eq!(report.algorithm, "b2st");
    }

    #[test]
    fn io_grows_as_memory_shrinks() {
        let body: Vec<u8> =
            b"ACGTTGCAGGCTAAGCTTACGGATCAGTCAGCATCAG".iter().cycle().take(1500).copied().collect();
        let mk_store = || InMemoryStore::from_body(&body, Alphabet::dna()).unwrap();
        let small = b2st_construct(
            &mk_store(),
            &B2stConfig { memory_budget: 0, partition_bytes: Some(100) },
        )
        .unwrap()
        .1;
        let large = b2st_construct(
            &mk_store(),
            &B2stConfig { memory_budget: 0, partition_bytes: Some(1000) },
        )
        .unwrap()
        .1;
        assert!(small.partitions > large.partitions);
        assert!(small.io.bytes_read > large.io.bytes_read);
    }
}
