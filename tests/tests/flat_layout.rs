//! The flat serving layout must answer for the Vec-node construction form it
//! is frozen from.
//!
//! Every sub-tree the pipeline serves is a [`FlatTree`] frozen from the
//! construction-form [`SuffixTree`], which is never queried itself, and there
//! is no way back. These property tests pin the frozen form end-to-end:
//! contains/count/locate answers equal to a scan of the text through byte
//! slices and through all four store backends (`InMemoryStore`, `DiskStore`,
//! `PackedMemoryStore`, `PackedDiskStore`), a freeze that loses nothing, a
//! lossless `ERAFLAT1` serialization round-trip, and — on every sub-tree any
//! scheduler builds from either encoding — the one-range reading of a
//! subtree that `Count` and `Locate` serve from.
//!
//! The pipeline itself builds no construction-form tree: it assembles every
//! prepared sub-tree straight into its arena. That arena must be the freeze
//! of the construction form, byte for byte, for every group
//! `prepare_group` yields.

use std::sync::Arc;

use era::horizontal::build::{assemble_partition, build_partition};
use era::horizontal::prepare::prepare_group;
use era::horizontal::HorizontalParams;
use era::scan::collect_occurrences;
use era::{
    vertical_partition, ConstructionPipeline, EraConfig, SerialScheduler, SharedMemoryScheduler,
    SharedNothingOptions, SharedNothingScheduler,
};
use era_string_store::{
    Alphabet, BlockCache, DiskStore, InMemoryStore, PackedDiskStore, PackedMemoryStore,
    StoreTextSource, StringStore,
};
use era_suffix_tree::{
    naive_suffix_tree, validate_flat_tree, FlatTree, NodeId, PartitionedSuffixTree,
};
use era_tests::{scan_occurrences, terminated};
use proptest::collection;
use proptest::prelude::*;

fn config() -> EraConfig {
    EraConfig {
        memory_budget: 8 << 10,
        r_buffer_size: Some(512),
        input_buffer_size: 128,
        trie_area: 128,
        ..EraConfig::default()
    }
}

/// The alphabets whose stores are exercised: one per backend bit width class.
fn alphabets() -> Vec<Alphabet> {
    vec![Alphabet::dna(), Alphabet::protein(), Alphabet::english()]
}

/// Maps raw generator bytes onto alphabet symbols.
fn body_from(raw: &[u8], alphabet: &Alphabet) -> Vec<u8> {
    let symbols = alphabet.symbols();
    raw.iter().map(|&b| symbols[b as usize % symbols.len()]).collect()
}

fn scratch_dir() -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("era-flat-layout-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The serial, shared-memory (2 workers) and shared-nothing (2 nodes)
/// builds of the text behind `make`, each over its own store(s).
fn scheduler_builds<S: StringStore>(
    make: impl Fn() -> S,
) -> Vec<(&'static str, PartitionedSuffixTree)> {
    let cfg = config();
    let pipeline = ConstructionPipeline::new(&cfg);
    let serial = make();
    let shared = make();
    let nodes = [make(), make()];
    let nothing = SharedNothingScheduler::new(&nodes, SharedNothingOptions::default()).unwrap();
    vec![
        ("serial", pipeline.run(&SerialScheduler::new(&serial)).unwrap().0),
        ("shared-memory", pipeline.run(&SharedMemoryScheduler::new(&shared, 2)).unwrap().0),
        ("shared-nothing", pipeline.run(&nothing).unwrap().0),
    ]
}

/// The ids strictly below `id`, found the slow way: a stack walk of the
/// child links.
fn walked_descendants(tree: &FlatTree, id: NodeId) -> Vec<NodeId> {
    let mut out = Vec::new();
    let mut stack: Vec<NodeId> = tree.node(id).children_range().collect();
    while let Some(cur) = stack.pop() {
        out.push(cur);
        stack.extend(tree.node(cur).children_range());
    }
    out.sort_unstable();
    out
}

/// Every group of `body`'s vertical partitioning under `config`, prepared
/// as the pipeline prepares it: each sub-tree assembled straight into its
/// arena must be the freeze of its construction form. Returns the number of
/// sub-trees compared.
fn assert_groups_assemble_as_they_freeze(
    body: &[u8],
    alphabet: &Alphabet,
    config: &EraConfig,
) -> usize {
    let store = InMemoryStore::from_body(body, alphabet.clone()).unwrap();
    let layout = config.memory_layout(alphabet).unwrap();
    let vertical = vertical_partition(&store, layout.fm, config.group_virtual_trees).unwrap();
    let params = HorizontalParams {
        r_capacity: layout.r_bytes,
        range_policy: config.range_policy,
        min_range: config.min_range,
        seek_optimization: config.seek_optimization,
    };
    let mut compared = 0;
    for group in &vertical.groups {
        let prefixes: Vec<Vec<u8>> = group.prefixes.iter().map(|p| p.prefix.clone()).collect();
        let occurrences = collect_occurrences(&store, &prefixes).unwrap();
        for prepared in prepare_group(&store, &prefixes, &occurrences, &params).unwrap() {
            let frozen = build_partition(store.len(), &prepared).freeze();
            let direct = assemble_partition(store.len(), prepared);
            assert_eq!(direct, frozen, "prefix {:?}", String::from_utf8_lossy(&frozen.prefix));
            compared += 1;
        }
    }
    compared
}

#[test]
fn every_prepared_group_assembles_into_the_arena_its_freeze_makes() {
    let small = config();
    // Budgets from a handful of leaves per sub-tree (many single-leaf ones)
    // to a few large groups.
    let budgets = [small.clone(), EraConfig { memory_budget: 64 << 10, ..small.clone() }];
    let tg = b"TGGTGGTGGTGCGGTGATGGTGC".to_vec();
    let mut dna = vec![tg, b"ACGT".repeat(100), b"A".repeat(200), b"TGG".repeat(100)];
    dna.push(era_workloads::genome_like(8_000, 3));
    dna.push(era_workloads::uniform_dna(8_000, 4));
    let texts = [
        (Alphabet::dna(), dna),
        (Alphabet::protein(), vec![era_workloads::protein_like(8_000, 5), b"MKV".repeat(100)]),
        (Alphabet::english(), vec![era_workloads::english_like(8_000, 6), b"abz".repeat(100)]),
    ];
    for (alphabet, bodies) in &texts {
        for body in bodies {
            for config in &budgets {
                assert!(assert_groups_assemble_as_they_freeze(body, alphabet, config) > 0);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, max_shrink_iters: 0 })]

    /// Every subtree of every sub-tree is one arena range: for each node of
    /// each partition — DNA, protein and English text, raw and packed
    /// stores, serial, shared-memory and shared-nothing builds — the
    /// descendant range holds exactly the ids the stack walk reaches, the
    /// range count equals the walk's leaf count, and the range gather lists
    /// the walk's leaves (as a multiset: the gather is in arena order).
    #[test]
    fn subtree_ranges_match_the_stack_walk(
        which in 0usize..3,
        packed in any::<bool>(),
        raw_bytes in collection::vec(any::<u8>(), 1..400),
    ) {
        let alphabet = alphabets()[which].clone();
        let body = body_from(&raw_bytes, &alphabet);
        let builds = if packed {
            scheduler_builds(|| PackedMemoryStore::from_body(&body, alphabet.clone()).unwrap())
        } else {
            scheduler_builds(|| InMemoryStore::from_body(&body, alphabet.clone()).unwrap())
        };
        for (scheduler, tree) in &builds {
            for part in tree.partitions() {
                let flat = &part.tree;
                for id in flat.node_ids() {
                    let range: Vec<NodeId> = flat.descendants(id).collect();
                    prop_assert_eq!((scheduler, id, range), (scheduler, id, walked_descendants(flat, id)));
                    let mut leaves = flat.leaves_below(id);
                    prop_assert_eq!(flat.leaf_count_below(id), leaves.len());
                    let mut gathered: Vec<u32> = flat.suffixes_below(id).collect();
                    gathered.sort_unstable();
                    leaves.sort_unstable();
                    prop_assert_eq!((scheduler, id, gathered), (scheduler, id, leaves));
                }
            }
        }
    }

    /// Freezing renumbers nodes into DFS order and loses nothing on the way:
    /// the frozen form is the suffix tree of the text (the deep validator
    /// reads every label), lists the construction form's leaves in its order
    /// over as many nodes, and a second freeze is bit-identical.
    #[test]
    fn freeze_thaw_is_lossless(
        which in 0usize..3,
        raw_bytes in collection::vec(any::<u8>(), 1..300),
    ) {
        let alphabet = alphabets()[which].clone();
        let body = body_from(&raw_bytes, &alphabet);
        let text = terminated(&body);
        let tree = naive_suffix_tree(&text);
        let flat = FlatTree::freeze(&tree);
        validate_flat_tree(&flat, &text, Some(text.len())).expect("flat tree validates");
        prop_assert_eq!(FlatTree::freeze(&tree), flat.clone());
        prop_assert_eq!(flat.lexicographic_suffixes(), tree.lexicographic_suffixes());
        prop_assert_eq!(flat.internal_count(), tree.internal_count());
        prop_assert_eq!(flat.node_count(), tree.node_count());
    }

    /// The flat form answers contains/count/locate for the construction form
    /// it was frozen from — the only form that answers at all — exactly like a
    /// scan of the text, for present, absent and empty patterns.
    #[test]
    fn flat_answers_match_construction_form(
        which in 0usize..3,
        raw_bytes in collection::vec(any::<u8>(), 1..300),
        pat_start in 0usize..300,
        pat_len in 1usize..12,
    ) {
        let alphabet = alphabets()[which].clone();
        let body = body_from(&raw_bytes, &alphabet);
        let text = terminated(&body);
        let flat = FlatTree::freeze(&naive_suffix_tree(&text));
        let start = pat_start % body.len();
        let patterns = [
            body[start..(start + pat_len).min(body.len())].to_vec(),
            vec![0u8],
            b"\x02never".to_vec(),
            Vec::new(),
        ];
        for p in &patterns {
            let expected = scan_occurrences(&text, p);
            let mut found = flat.try_find_all(&text, p).unwrap();
            found.sort_unstable();
            prop_assert_eq!(&found, &expected);
            prop_assert_eq!(flat.try_count(&text, p).unwrap(), expected.len());
            prop_assert_eq!(flat.try_contains(&text, p).unwrap(), !expected.is_empty());
        }
    }

    /// The full pipeline output answers like a scan of the text through every
    /// store backend, partition by partition and through the routing trie (no
    /// thawed form answers any more; the oracle it stood in for is asserted
    /// directly).
    #[test]
    fn all_backends_answer_like_the_thawed_form(
        raw_bytes in collection::vec(any::<u8>(), 4..250),
        pat_start in 0usize..250,
        pat_len in 1usize..10,
    ) {
        let alphabet = Alphabet::dna();
        let body = body_from(&raw_bytes, &alphabet);
        let text = terminated(&body);
        let store = InMemoryStore::from_body(&body, alphabet.clone())
            .unwrap()
            .with_block_size(64)
            .unwrap();
        let (tree, _) = ConstructionPipeline::new(&config())
            .run(&SerialScheduler::new(&store))
            .expect("build");
        let dir = scratch_dir();
        let tag = format!("{}-{}", raw_bytes.len(), pat_start);
        let disk =
            DiskStore::create(dir.join(format!("b-{tag}.era")), &body, alphabet.clone(), 64)
                .unwrap();
        let packed_mem =
            PackedMemoryStore::from_body(&body, alphabet.clone()).unwrap().with_block_size(64).unwrap();
        let packed_disk =
            PackedDiskStore::create(dir.join(format!("b-{tag}.erap")), &body, alphabet.clone(), 64)
                .unwrap();
        let backends: [&dyn StringStore; 4] = [&store, &disk, &packed_mem, &packed_disk];

        let start = pat_start % body.len();
        let patterns = [
            body[start..(start + pat_len).min(body.len())].to_vec(),
            vec![0u8],
            b"\x02never".to_vec(),
        ];
        for backend in backends {
            // The file-backed stores are read through a cache of 64-symbol
            // blocks, so edge labels cross block boundaries.
            let blocks = Arc::new(BlockCache::with_layout(1 << 12, 64, 2));
            let source = StoreTextSource::with_cache(backend, blocks);
            for p in &patterns {
                let mut count = 0usize;
                let mut found: Vec<u32> = Vec::new();
                let mut contains = false;
                for part in tree.partitions() {
                    let flat_occ = part.tree.try_find_all(&source, p).unwrap();
                    prop_assert_eq!(
                        part.tree.try_contains(&source, p).unwrap(),
                        !flat_occ.is_empty()
                    );
                    prop_assert_eq!(part.tree.try_count(&source, p).unwrap(), flat_occ.len());
                    contains |= !flat_occ.is_empty();
                    count += flat_occ.len();
                    found.extend(flat_occ);
                }
                found.sort_unstable();
                // The partition-level sums must equal the oracle and the
                // tree-level answers through the same backend.
                prop_assert_eq!(found, scan_occurrences(&text, p));
                prop_assert_eq!(contains, tree.try_contains(&source, p).unwrap());
                prop_assert_eq!(count, tree.try_count(&source, p).unwrap());
            }
        }
    }

    /// `ERAFLAT1` serialization round-trips every frozen tree bit-for-bit.
    #[test]
    fn flat_serialization_roundtrip(
        which in 0usize..3,
        raw_bytes in collection::vec(any::<u8>(), 1..300),
    ) {
        let alphabet = alphabets()[which].clone();
        let body = body_from(&raw_bytes, &alphabet);
        let flat = FlatTree::freeze(&naive_suffix_tree(&terminated(&body)));
        let mut bytes = Vec::new();
        era_suffix_tree::serialize::write_flat_tree(&mut bytes, &flat).expect("write");
        prop_assert_eq!(bytes.len(), flat.serialized_size());
        let back = era_suffix_tree::serialize::read_flat_tree(&bytes).expect("read");
        prop_assert_eq!(back, flat);
    }
}
