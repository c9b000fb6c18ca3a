//! WaveFront (Ghoting & Makarychev, SIGMOD 2009) — serial and parallel.
//!
//! WaveFront is the out-of-core competitor closest to ERA: it also partitions
//! the *tree* (not the string) with variable-length prefixes and reads `S`
//! strictly sequentially, so there is no merge phase and the parallel version
//! (PWaveFront) simply distributes sub-trees. The differences the paper calls
//! out — and which this re-implementation reproduces — are:
//!
//! * **memory split**: ~50 % of the budget goes to the two block-nested-loop
//!   buffers, leaving only half for the sub-tree, so `FM` is smaller and there
//!   are more sub-trees (more scans of `S`);
//! * **no virtual-tree grouping**: every sub-tree scans `S` on its own;
//! * **fixed read-ahead**: the per-suffix range does not grow as suffixes
//!   become inactive (no elastic range);
//! * **no seek optimisation**: every scan reads the entire string;
//! * **per-node top-down traversal**: each new tree node requires descending
//!   the partial sub-tree from its root, an extra CPU / random-memory cost
//!   that grows with the branch factor (the effect behind Fig. 11(b)).

use std::time::Instant;

use era::config::{RangePolicy, TREE_NODE_BYTES};
use era::horizontal::branch_edge::compute_group_str;
use era::horizontal::HorizontalParams;
use era::scan::collect_occurrences;
use era::vertical::vertical_partition;
use era::{ConstructionReport, EraResult, NodeReport};
use era_string_store::StringStore;
use era_suffix_tree::{NodeId, Partition, PartitionedSuffixTree};

/// Configuration of the WaveFront baseline.
#[derive(Debug, Clone)]
pub struct WaveFrontConfig {
    /// Total memory budget in bytes (shared 50/50 between buffers and tree).
    pub memory_budget: usize,
    /// Fixed number of symbols fetched per suffix and iteration.
    pub range_symbols: usize,
    /// Number of worker threads for PWaveFront (ignored by
    /// [`wavefront_construct`]).
    pub threads: usize,
}

impl Default for WaveFrontConfig {
    fn default() -> Self {
        WaveFrontConfig { memory_budget: 64 << 20, range_symbols: 32, threads: 1 }
    }
}

impl WaveFrontConfig {
    /// The frequency bound: only ~50 % of the memory is available for the
    /// sub-tree ("for optimum performance, these buffers occupy roughly 50% of
    /// the available memory", §3).
    pub fn fm(&self) -> usize {
        ((self.memory_budget / 2) / (2 * TREE_NODE_BYTES)).max(1)
    }
}

/// Serial WaveFront construction.
pub fn wavefront_construct(
    store: &dyn StringStore,
    config: &WaveFrontConfig,
) -> EraResult<(PartitionedSuffixTree, ConstructionReport)> {
    construct_impl(store, config, 1)
}

/// PWaveFront: sub-trees are distributed over `config.threads` workers that
/// share the store (the BlueGene implementation distributes them over MPI
/// ranks; the paper's Fig. 12 runs it on the same multicore machine as ERA).
pub fn wavefront_construct_parallel(
    store: &dyn StringStore,
    config: &WaveFrontConfig,
) -> EraResult<(PartitionedSuffixTree, ConstructionReport)> {
    construct_impl(store, config, config.threads.max(1))
}

fn construct_impl(
    store: &dyn StringStore,
    config: &WaveFrontConfig,
    threads: usize,
) -> EraResult<(PartitionedSuffixTree, ConstructionReport)> {
    let start_all = Instant::now();
    let io_start = store.stats().snapshot();
    let fm = config.fm();

    // Vertical partitioning: same as ERA, but no grouping.
    let t0 = Instant::now();
    let vertical = vertical_partition(store, fm, false)?;
    let vertical_time = t0.elapsed();

    let params = HorizontalParams {
        r_capacity: config.memory_budget / 2,
        range_policy: RangePolicy::Fixed(config.range_symbols),
        min_range: 1,
        seek_optimization: false,
    };

    let t1 = Instant::now();
    let prefixes: Vec<Vec<u8>> = vertical.prefixes.iter().map(|p| p.prefix.clone()).collect();

    let build_one = |prefix: &Vec<u8>| -> EraResult<Vec<Partition>> {
        let occurrences = collect_occurrences(store, std::slice::from_ref(prefix))?;
        let mut parts =
            compute_group_str(store, std::slice::from_ref(prefix), &occurrences, &params)?;
        parts.retain(|p| p.tree.leaf_count() > 0);
        // Model WaveFront's per-node top-down traversal: for every node of the
        // finished sub-tree, walk from the node up to the root (the same
        // number of pointer dereferences the top-down insertion pays).
        for part in &parts {
            let mut touched = 0u64;
            for id in part.tree.node_ids() {
                let mut cur: NodeId = id;
                while cur != part.tree.root() {
                    cur = part.tree.node(cur).parent;
                    touched += 1;
                }
            }
            std::hint::black_box(touched);
        }
        Ok(parts)
    };

    let mut partitions: Vec<Partition> = Vec::with_capacity(prefixes.len());
    let mut per_node: Vec<NodeReport> = Vec::new();
    if threads <= 1 {
        for prefix in &prefixes {
            partitions.extend(build_one(prefix)?);
        }
    } else {
        let next = std::sync::atomic::AtomicUsize::new(0);
        let results: Result<Vec<(usize, Vec<Partition>, NodeReport)>, era::EraError> =
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..threads)
                    .map(|worker| {
                        let next = &next;
                        let prefixes = &prefixes;
                        let build_one = &build_one;
                        scope.spawn(move || {
                            let t = Instant::now();
                            let mut built = Vec::new();
                            let mut groups = 0usize;
                            loop {
                                let idx = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                                let Some(prefix) = prefixes.get(idx) else { break };
                                built.extend(build_one(prefix)?);
                                groups += 1;
                            }
                            Ok::<_, era::EraError>((
                                worker,
                                built,
                                NodeReport {
                                    node: worker,
                                    virtual_trees: groups,
                                    partitions: 0,
                                    elapsed: t.elapsed(),
                                    ..Default::default()
                                },
                            ))
                        })
                    })
                    .collect();
                #[expect(clippy::expect_used, reason = "a panicked worker is unrecoverable")]
                handles.into_iter().map(|h| h.join().expect("worker must not panic")).collect()
            });
        for (_, built, mut report) in results? {
            report.partitions = built.len();
            partitions.extend(built);
            per_node.push(report);
        }
        per_node.sort_by_key(|r| r.node);
    }
    let horizontal_time = t1.elapsed();

    let tree = PartitionedSuffixTree::new(store.len(), partitions);
    let report = ConstructionReport {
        algorithm: if threads > 1 { "pwavefront".into() } else { "wavefront".into() },
        text_len: store.len(),
        memory_budget: config.memory_budget,
        fm,
        elapsed: start_all.elapsed(),
        vertical_time,
        horizontal_time,
        vertical_scans: vertical.scans,
        partitions: vertical.partition_count(),
        virtual_trees: vertical.partition_count(),
        io: store.stats().snapshot().since(&io_start),
        tree: tree.stats(),
        per_node,
        ..Default::default()
    };
    Ok((tree, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use era_string_store::{Alphabet, InMemoryStore};
    use era_suffix_tree::{naive_suffix_tree, validate_partitioned};

    fn config(budget: usize) -> WaveFrontConfig {
        WaveFrontConfig { memory_budget: budget, range_symbols: 8, ..WaveFrontConfig::default() }
    }

    #[test]
    fn produces_the_correct_tree() {
        let body = b"GATTACAGATTACAGGATCCGATTACATTTTACAGAGATT";
        let store = InMemoryStore::from_body(body, Alphabet::dna()).unwrap();
        let text: Vec<u8> = {
            let mut t = body.to_vec();
            t.push(0);
            t
        };
        let (tree, report) = wavefront_construct(&store, &config(8 << 10)).unwrap();
        validate_partitioned(&tree, &text).unwrap();
        let reference = naive_suffix_tree(&text);
        assert_eq!(tree.lexicographic_suffixes(), reference.lexicographic_suffixes());
        assert_eq!(report.algorithm, "wavefront");
        assert!(report.partitions >= 1);
    }

    #[test]
    fn parallel_matches_serial() {
        let body = b"GATTACAGATTACAGGATCCGATTACATTTTACAGAGATTGGCATTAC";
        let text: Vec<u8> = {
            let mut t = body.to_vec();
            t.push(0);
            t
        };
        let serial_store = InMemoryStore::from_body(body, Alphabet::dna()).unwrap();
        let parallel_store = InMemoryStore::from_body(body, Alphabet::dna()).unwrap();
        let (serial, _) = wavefront_construct(&serial_store, &config(8 << 10)).unwrap();
        let mut cfg = config(8 << 10);
        cfg.threads = 4;
        let (parallel, report) = wavefront_construct_parallel(&parallel_store, &cfg).unwrap();
        validate_partitioned(&parallel, &text).unwrap();
        assert_eq!(serial.lexicographic_suffixes(), parallel.lexicographic_suffixes());
        assert_eq!(report.algorithm, "pwavefront");
        assert_eq!(report.per_node.len(), 4);
    }

    #[test]
    fn uses_more_io_than_era_under_same_budget() {
        // The headline comparison of the paper: same budget, same string, ERA
        // reads far less because of grouping + elastic range + larger FM.
        let body: Vec<u8> = b"ACGTTGCAGGCTAAGCTTACGGATCAGTCAGCATCAGATTACACCGTGGTTAACCGTA"
            .iter()
            .cycle()
            .take(2000)
            .copied()
            .collect();
        let budget = 16 << 10;
        let era_store = InMemoryStore::from_body(&body, Alphabet::dna()).unwrap();
        let wf_store = InMemoryStore::from_body(&body, Alphabet::dna()).unwrap();
        let era_cfg = era::EraConfig {
            memory_budget: budget,
            r_buffer_size: Some(1 << 10),
            input_buffer_size: 256,
            trie_area: 256,
            ..era::EraConfig::default()
        };
        let (_t1, era_report) = era::construct(&era_store, &era_cfg).unwrap();
        let (_t2, wf_report) = wavefront_construct(&wf_store, &config(budget)).unwrap();
        assert!(
            wf_report.io.bytes_read > era_report.io.bytes_read,
            "WaveFront {} bytes vs ERA {} bytes",
            wf_report.io.bytes_read,
            era_report.io.bytes_read
        );
        assert!(wf_report.partitions >= era_report.partitions);
    }
}
