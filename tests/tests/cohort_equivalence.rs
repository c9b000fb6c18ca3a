//! One classifying pass serves a whole cohort of virtual trees.
//!
//! The accepted S-prefixes of vertical partitioning are a prefix-free cover of
//! the suffixes, so one trie descent per position names the one sub-tree the
//! position belongs to, for any number of groups at once. These tests pin
//! what that rests on and what it must not change:
//!
//! * the classifier answers like the per-position oracle on the pattern sets
//!   the pipeline scans for, on every store and block size;
//! * across all cohorts every position lands in exactly one `L` list;
//! * how the groups are chunked into cohorts — and which scheduler hands the
//!   cohorts out — decides the number of passes and nothing about the trees;
//! * a cohort of one group costs exactly the passes and bytes a group cost
//!   when each had its own occurrence pass, and `k` groups share one.

use era::horizontal::prepare::prepare_group;
use era::horizontal::HorizontalParams;
use era::pipeline::{build_cohort, cohort_len};
use era::scan::{collect_occurrences, collect_occurrences_scalar};
use era::{
    vertical_partition, ConstructionPipeline, EraConfig, GroupScheduler, HorizontalMethod,
    PrefixFrequency, SerialScheduler, SharedMemoryScheduler, SharedNothingOptions,
    SharedNothingScheduler, VirtualTree,
};
use era_string_store::{Alphabet, InMemoryStore, PackedMemoryStore, StringStore};
use era_suffix_tree::{encode_catalog, PartitionedSuffixTree, TextSegment};
use era_tests::terminated;
use era_workloads::{english_like, genome_like, protein_like};

fn prefixes_of(groups: &[VirtualTree]) -> Vec<Vec<u8>> {
    groups.iter().flat_map(|g| &g.prefixes).map(|p| p.prefix.clone()).collect()
}

#[test]
fn classifier_agrees_with_the_oracle_on_accepted_prefixes_and_covers_every_position() {
    // Levels the jump table folds: 12 bits over 3-bit DNA columns, 5-bit others.
    let workloads = [
        (Alphabet::dna(), genome_like(3000, 3), 4usize),
        (Alphabet::protein(), protein_like(2000, 4), 2),
        (Alphabet::english(), english_like(2500, 5), 2),
    ];
    let (mut above, mut below, mut mid_terminal) = (false, false, false);
    for (alphabet, body, jump_len) in workloads {
        for (packed, block) in
            [(false, 8usize), (true, 8), (false, 64), (true, 512), (false, 4096), (true, 4096)]
        {
            let store: Box<dyn StringStore> = if packed {
                Box::new(
                    PackedMemoryStore::from_body(&body, alphabet.clone())
                        .unwrap()
                        .with_block_size(block)
                        .unwrap(),
                )
            } else {
                Box::new(
                    InMemoryStore::from_body(&body, alphabet.clone())
                        .unwrap()
                        .with_block_size(block)
                        .unwrap(),
                )
            };
            for fm in [3usize, 40, 400] {
                let vertical = vertical_partition(&*store, fm, true).unwrap();
                let all = prefixes_of(&vertical.groups);
                above |= all.iter().any(|p| p.len() < jump_len);
                below |= all.iter().any(|p| p.len() > jump_len);
                mid_terminal |= all.iter().any(|p| p.len() > 1 && p.ends_with(&[0]));

                let oracle = collect_occurrences_scalar(&*store, &all).unwrap();
                assert_eq!(collect_occurrences(&*store, &all).unwrap(), oracle);

                // Cohort by cohort, as the pipeline scans: the same lists, of
                // the counted lengths, and together every position once.
                let mut oracle = oracle.into_iter();
                let mut seen = vec![0u8; store.len()];
                for cohort in vertical.groups.chunks(3) {
                    let lists = collect_occurrences(&*store, &prefixes_of(cohort)).unwrap();
                    let counted = cohort.iter().flat_map(|g| &g.prefixes);
                    for ((list, counted), expected) in lists.iter().zip(counted).zip(&mut oracle) {
                        assert_eq!(*list, expected, "{:?}", counted.prefix);
                        assert_eq!(list.len() as u64, counted.frequency);
                        list.iter().for_each(|&at| seen[at as usize] += 1);
                    }
                }
                assert!(
                    seen.iter().all(|&lists| lists == 1),
                    "fm {fm} block {block} packed {packed}"
                );
            }
        }
    }
    assert!(above && below && mid_terminal, "the sweep must reach every shape of prefix");
}

fn config() -> EraConfig {
    EraConfig {
        memory_budget: 8 << 10,
        r_buffer_size: Some(512),
        input_buffer_size: 128,
        trie_area: 128,
        ..EraConfig::default()
    }
}

fn dna_store(body: &[u8]) -> InMemoryStore {
    InMemoryStore::from_body(body, Alphabet::dna()).unwrap().with_block_size(64).unwrap()
}

/// What the pipeline derives for a serial run of `config`: the virtual
/// trees, the parameters of the horizontal phase and the cohort length.
fn serial_plan(
    store: &InMemoryStore,
    config: &EraConfig,
) -> (Vec<VirtualTree>, HorizontalParams, usize) {
    let layout = config.memory_layout(store.alphabet()).unwrap();
    let groups = vertical_partition(store, layout.fm, config.group_virtual_trees).unwrap().groups;
    let params = HorizontalParams {
        r_capacity: layout.r_bytes,
        range_policy: config.range_policy,
        min_range: config.min_range,
        seek_optimization: config.seek_optimization,
    };
    (groups, params, cohort_len(layout.r_bytes, layout.fm))
}

fn build_chunked(
    store: &InMemoryStore,
    groups: &[VirtualTree],
    chunk: usize,
    params: &HorizontalParams,
    method: HorizontalMethod,
) -> PartitionedSuffixTree {
    let mut partitions = Vec::new();
    for cohort in groups.chunks(chunk) {
        partitions.extend(build_cohort(store, cohort, params, method).unwrap());
    }
    PartitionedSuffixTree::from_flat(store.len(), partitions)
}

#[test]
fn every_chunking_and_every_scheduler_builds_the_same_arenas() {
    let body = genome_like(6000, 11);
    let text = terminated(&body);
    let store = dna_store(&body);
    let cfg = config();
    let layout = cfg.memory_layout(store.alphabet()).unwrap();
    let (groups, params, k) = serial_plan(&store, &cfg);
    assert!(k > 1 && groups.len() > 2 * k, "k {k}, {} groups", groups.len());

    let catalog = |tree: &PartitionedSuffixTree| {
        encode_catalog(1, TextSegment::Raw(&text), store.alphabet(), tree).unwrap().bytes
    };
    let pipeline = ConstructionPipeline::new(&cfg);
    let (reference, report) = pipeline.run(&SerialScheduler::new(&store)).unwrap();
    assert_eq!(report.cohorts, groups.len().div_ceil(k));
    let reference_catalog = catalog(&reference);

    let method = HorizontalMethod::StringAndMemory;
    for chunk in [1, k, groups.len()] {
        let tree = build_chunked(&store, &groups, chunk, &params, method);
        assert!(catalog(&tree) == reference_catalog, "cohorts of {chunk}");
    }
    for threads in [2usize, 3] {
        let scheduler = SharedMemoryScheduler::new(&store, threads);
        let (tree, report) = pipeline.run(&scheduler).unwrap();
        assert!(catalog(&tree) == reference_catalog, "{threads} threads");
        // A worker's share of `R` is smaller, and so are its cohorts.
        let len = cohort_len(scheduler.worker_r_capacity(&layout), layout.fm);
        assert!(len < k);
        assert_eq!(report.cohorts, groups.len().div_ceil(len), "{threads} threads");
        assert_eq!(report.per_node.iter().map(|n| n.virtual_trees).sum::<usize>(), groups.len());
    }
    let nodes: Vec<InMemoryStore> = (0..2).map(|_| dna_store(&body)).collect();
    let scheduler = SharedNothingScheduler::new(&nodes, SharedNothingOptions::default()).unwrap();
    let (tree, report) = pipeline.run(&scheduler).unwrap();
    assert!(catalog(&tree) == reference_catalog, "shared-nothing");
    let per_node = report.per_node.iter().map(|n| n.virtual_trees.div_ceil(k)).sum::<usize>();
    assert_eq!(report.cohorts, per_node);

    // ERA-str labels edges from whichever occurrence it read them at, so its
    // chunkings are compared by content.
    let method = HorizontalMethod::StringOnly;
    let str_reference = build_chunked(&store, &groups, 1, &params, method);
    assert_eq!(str_reference.lexicographic_suffixes(), reference.lexicographic_suffixes());
    for chunk in [k, groups.len()] {
        let tree = build_chunked(&store, &groups, chunk, &params, method);
        assert_eq!(tree.lexicographic_suffixes(), str_reference.lexicographic_suffixes());
    }
}

#[test]
fn a_cohort_of_one_costs_what_a_group_did_and_k_groups_share_one_pass() {
    let body = genome_like(6000, 13);
    let cfg = config();
    let method = HorizontalMethod::StringAndMemory;

    // One occurrence pass, then `SubTreePrepare` with all of `R`: a group as
    // it was built before cohorts.
    let store = dna_store(&body);
    let (groups, params, k) = serial_plan(&store, &cfg);
    let before = store.stats().snapshot();
    for group in &groups {
        let prefixes = prefixes_of(std::slice::from_ref(group));
        let occurrences = collect_occurrences(&store, &prefixes).unwrap();
        prepare_group(&store, &prefixes, &occurrences, &params).unwrap();
    }
    let per_group = store.stats().snapshot().since(&before);

    let store = dna_store(&body);
    let before = store.stats().snapshot();
    build_chunked(&store, &groups, 1, &params, method);
    let singles = store.stats().snapshot().since(&before);
    assert_eq!(singles.full_scans, per_group.full_scans);
    assert_eq!(singles.bytes_read, per_group.bytes_read);

    // The derived k: every cohort saves its members' occurrence passes but
    // one; what the waiting lists take from `R` costs some members a round of
    // `SubTreePrepare` back.
    let store = dna_store(&body);
    let (_, report) = ConstructionPipeline::new(&cfg).run(&SerialScheduler::new(&store)).unwrap();
    assert_eq!(report.cohorts, groups.len().div_ceil(k));
    let horizontal_scans = report.io.full_scans - report.vertical_scans as u64;
    assert!(
        horizontal_scans < singles.full_scans,
        "{horizontal_scans} passes in {} cohorts, {} for {} single groups",
        report.cohorts,
        singles.full_scans,
        groups.len()
    );

    // Sub-trees of one leaf need no pass of their own, which leaves the
    // classifying passes: exactly one per cohort.
    let store = dna_store(&body);
    let leaves = vertical_partition(&store, 1, true).unwrap().groups;
    assert_eq!(leaves.len(), store.len());
    let before = store.stats().snapshot();
    build_chunked(&store, &leaves, 500, &params, method);
    let passes = store.stats().snapshot().since(&before).full_scans;
    assert_eq!(passes, leaves.len().div_ceil(500) as u64);
}

#[test]
fn a_list_that_disagrees_with_its_counted_frequency_is_an_error() {
    let store = dna_store(b"TGGTGGTGGTGCGGTGATGGTGC");
    let (_, params, _) = serial_plan(&store, &config());
    let group = |frequency| VirtualTree {
        prefixes: vec![PrefixFrequency { prefix: b"TG".to_vec(), frequency }],
    };
    let method = HorizontalMethod::StringAndMemory;
    assert_eq!(build_cohort(&store, &[group(7)], &params, method).unwrap().len(), 1);
    for miscounted in [0, 6, 8, u64::MAX] {
        let err = build_cohort(&store, &[group(miscounted)], &params, method).unwrap_err();
        assert!(err.to_string().contains("counted"), "{miscounted}: {err}");
    }
    // Two members that could both claim a position are refused before the pass.
    let overlapping = VirtualTree {
        prefixes: vec![
            PrefixFrequency { prefix: b"TG".to_vec(), frequency: 7 },
            PrefixFrequency { prefix: b"TGG".to_vec(), frequency: 4 },
        ],
    };
    let before = store.stats().snapshot();
    assert!(build_cohort(&store, &[overlapping], &params, method).is_err());
    assert_eq!(store.stats().snapshot().since(&before).full_scans, 0);
}
