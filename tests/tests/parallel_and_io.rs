//! Integration tests for the parallel drivers and for the I/O behaviour the
//! paper's optimisations are about (grouping, elastic range, seek skipping,
//! sequential access).

use era::{construct, construct_shared_nothing, EraConfig, RangePolicy, SharedNothingOptions};
use era_baselines::{ukkonen_construct, wavefront_construct, WaveFrontConfig};
use era_string_store::{Alphabet, InMemoryStore};
use era_suffix_tree::validate_partitioned;
use era_tests::terminated;
use era_workloads::{genome_like, uniform_dna};

fn cfg(budget: usize) -> EraConfig {
    EraConfig {
        memory_budget: budget,
        r_buffer_size: Some(1 << 10),
        input_buffer_size: 256,
        trie_area: 256,
        ..EraConfig::default()
    }
}

fn dna_store(body: &[u8]) -> InMemoryStore {
    InMemoryStore::from_body(body, Alphabet::dna()).unwrap().with_block_size(256).unwrap()
}

#[test]
fn parallel_shared_memory_equals_serial_for_many_thread_counts() {
    let body = genome_like(6000, 77);
    let text = terminated(&body);
    let (serial_tree, _) = construct(&dna_store(&body), &cfg(12 << 10)).unwrap();
    for threads in [2usize, 3, 4, 8] {
        let config = EraConfig { threads, ..cfg(12 << 10) };
        let (tree, report) = construct(&dna_store(&body), &config).unwrap();
        validate_partitioned(&tree, &text).unwrap();
        assert_eq!(tree.lexicographic_suffixes(), serial_tree.lexicographic_suffixes());
        assert_eq!(report.per_node.len(), threads);
    }
}

#[test]
fn shared_nothing_equals_serial_and_balances_load() {
    let body = genome_like(8000, 78);
    let text = terminated(&body);
    let (serial_tree, _) = construct(&dna_store(&body), &cfg(10 << 10)).unwrap();
    for nodes in [2usize, 4, 8] {
        let stores: Vec<InMemoryStore> = (0..nodes).map(|_| dna_store(&body)).collect();
        let (tree, report) =
            construct_shared_nothing(&stores, &cfg(10 << 10), &SharedNothingOptions::default())
                .unwrap();
        validate_partitioned(&tree, &text).unwrap();
        assert_eq!(tree.lexicographic_suffixes(), serial_tree.lexicographic_suffixes());
        // Load balance: with many virtual trees, no node should sit idle.
        let busy = report.per_node.iter().filter(|n| n.virtual_trees > 0).count();
        assert_eq!(busy, nodes, "every node should receive work");
        // Aggregate I/O equals the sum over the nodes.
        let sum: u64 = report.per_node.iter().map(|n| n.io.bytes_read).sum();
        assert_eq!(report.io.bytes_read, sum);
    }
}

#[test]
fn grouping_and_elastic_range_reduce_scans() {
    let body = genome_like(12_000, 5);
    // Grouping on vs off.
    let (_, with_grouping) = construct(&dna_store(&body), &cfg(10 << 10)).unwrap();
    let no_grouping = EraConfig { group_virtual_trees: false, ..cfg(10 << 10) };
    let (_, without_grouping) = construct(&dna_store(&body), &no_grouping).unwrap();
    assert!(with_grouping.virtual_trees < without_grouping.virtual_trees);
    assert!(
        with_grouping.io.full_scans < without_grouping.io.full_scans,
        "grouping: {} scans vs {} scans",
        with_grouping.io.full_scans,
        without_grouping.io.full_scans
    );

    // Elastic vs small static range.
    let elastic = cfg(10 << 10);
    let static16 = EraConfig { range_policy: RangePolicy::Fixed(16), ..cfg(10 << 10) };
    let (_, r_elastic) = construct(&dna_store(&body), &elastic).unwrap();
    let (_, r_static) = construct(&dna_store(&body), &static16).unwrap();
    assert!(
        r_elastic.io.full_scans <= r_static.io.full_scans,
        "elastic {} vs static {}",
        r_elastic.io.full_scans,
        r_static.io.full_scans
    );
}

#[test]
fn era_access_pattern_is_overwhelmingly_sequential() {
    // With the seek optimisation disabled every scan reads straight through
    // the string, so all but the first block fetch of each scan must be
    // classified as sequential. (With skipping enabled the forward seeks are
    // counted as seeks, which is exercised separately below.)
    let body = uniform_dna(8000, 6);
    let config = EraConfig { seek_optimization: false, ..cfg(8 << 10) };
    let (_, report) = construct(&dna_store(&body), &config).unwrap();
    assert!(
        report.io.sequential_fraction() > 0.9,
        "sequential fraction was {:.3}",
        report.io.sequential_fraction()
    );
}

#[test]
fn threaded_builds_of_one_text_report_identical_io() {
    // Each pass classifies its reads against its own cursor, so however the
    // two workers' passes over the shared store alternate, every counter —
    // the split into sequential reads and seeks included — repeats.
    let body = genome_like(60_000, 5);
    let config = EraConfig { threads: 2, ..cfg(16 << 10) };
    let builds: Vec<_> =
        (0..3).map(|_| construct(&dna_store(&body), &config).unwrap().1.io).collect();
    assert!(builds[0].random_seeks > 0 && builds[0].sequential_reads > 0, "{:?}", builds[0]);
    assert!(builds.windows(2).all(|pair| pair[0] == pair[1]), "{builds:#?}");
}

#[test]
fn era_reads_less_than_wavefront_at_the_same_budget() {
    let body = genome_like(16_000, 41);
    let budget = 12 << 10;
    let (_, era_report) = construct(&dna_store(&body), &cfg(budget)).unwrap();
    let (_, wf_report) = wavefront_construct(
        &dna_store(&body),
        &WaveFrontConfig { memory_budget: budget, ..Default::default() },
    )
    .unwrap();
    assert!(
        era_report.io.bytes_read < wf_report.io.bytes_read,
        "ERA {} bytes vs WaveFront {} bytes",
        era_report.io.bytes_read,
        wf_report.io.bytes_read
    );
    assert!(era_report.partitions <= wf_report.partitions);
}

#[test]
fn in_memory_baseline_reads_the_string_exactly_once() {
    let body = uniform_dna(5000, 8);
    let (_, report) = ukkonen_construct(&dna_store(&body)).unwrap();
    assert_eq!(report.io.full_scans, 1);
    assert!(report.io.bytes_read >= body.len() as u64);
}

#[test]
fn seek_optimization_skips_blocks_without_changing_the_result() {
    let body = genome_like(20_000, 55);
    let text = terminated(&body);
    let with_seek = cfg(10 << 10);
    let without_seek = EraConfig { seek_optimization: false, ..cfg(10 << 10) };
    let store_a = dna_store(&body);
    let store_b = dna_store(&body);
    let (tree_a, rep_a) = construct(&store_a, &with_seek).unwrap();
    let (tree_b, rep_b) = construct(&store_b, &without_seek).unwrap();
    validate_partitioned(&tree_a, &text).unwrap();
    assert_eq!(tree_a.lexicographic_suffixes(), tree_b.lexicographic_suffixes());
    assert!(rep_a.io.blocks_skipped > 0, "seek optimisation never skipped a block");
    assert_eq!(rep_b.io.blocks_skipped, 0);
    assert!(rep_a.io.bytes_read <= rep_b.io.bytes_read);
}

#[test]
fn index_api_works_end_to_end_with_threads() {
    let body = genome_like(10_000, 90);
    let index = era::SuffixIndex::builder()
        .memory_budget(256 << 10)
        .threads(4)
        .build_from_bytes(&body)
        .unwrap();
    let probe = &body[4000..4020];
    let hits = index.find_all(probe);
    assert!(hits.contains(&4000));
    assert_eq!(index.count(probe), hits.len());
    assert_eq!(index.suffix_array().len(), body.len() + 1);
}
