//! Cross-algorithm equivalence: ERA (all configurations), WaveFront, B²ST,
//! Trellis and Ukkonen must index exactly the same suffixes in the same
//! lexicographic order, and answer queries identically to a brute-force scan.

use era::{EraConfig, HorizontalMethod, RangePolicy};
use era_baselines::{
    b2st_construct, trellis_construct, ukkonen_construct, wavefront_construct, B2stConfig,
    TrellisConfig, WaveFrontConfig,
};
use era_string_store::InMemoryStore;
use era_suffix_tree::{validate_partitioned, PartitionedSuffixTree};
use era_tests::{corpus, scan_occurrences, small_block_store, terminated};
use era_workloads::{english_like, genome_like, protein_like};

fn era_config() -> EraConfig {
    EraConfig {
        memory_budget: 8 << 10,
        r_buffer_size: Some(512),
        input_buffer_size: 128,
        trie_area: 128,
        ..EraConfig::default()
    }
}

fn all_constructions(body: &[u8]) -> Vec<(String, PartitionedSuffixTree)> {
    let mut out = Vec::new();
    let store = small_block_store(body);
    out.push(("era".into(), era::construct(&store, &era_config()).unwrap().0));
    let store = small_block_store(body);
    let cfg = EraConfig { horizontal: HorizontalMethod::StringOnly, ..era_config() };
    out.push(("era-str".into(), era::construct(&store, &cfg).unwrap().0));
    let store = small_block_store(body);
    out.push((
        "wavefront".into(),
        wavefront_construct(
            &store,
            &WaveFrontConfig { memory_budget: 8 << 10, range_symbols: 8, ..Default::default() },
        )
        .unwrap()
        .0,
    ));
    let store = small_block_store(body);
    out.push((
        "b2st".into(),
        b2st_construct(&store, &B2stConfig { memory_budget: 0, partition_bytes: Some(16) })
            .unwrap()
            .0,
    ));
    let store = small_block_store(body);
    out.push((
        "trellis".into(),
        trellis_construct(
            &store,
            &TrellisConfig { memory_budget: 0, partition_bytes: Some(16), spill_dir: None },
        )
        .unwrap()
        .0,
    ));
    let store = small_block_store(body);
    out.push(("ukkonen".into(), ukkonen_construct(&store).unwrap().0));
    out
}

#[test]
fn all_algorithms_agree_on_the_corpus() {
    for body in corpus() {
        let text = terminated(&body);
        let trees = all_constructions(&body);
        let expected_order = trees[0].1.lexicographic_suffixes();
        for (name, tree) in &trees {
            validate_partitioned(tree, &text).unwrap_or_else(|e| {
                panic!(
                    "{name} produced an invalid tree for {:?}: {e}",
                    String::from_utf8_lossy(&body)
                )
            });
            assert_eq!(tree.leaf_count(), text.len(), "{name}");
            assert_eq!(
                tree.lexicographic_suffixes(),
                expected_order,
                "{name} disagrees on {:?}",
                String::from_utf8_lossy(&body)
            );
        }
    }
}

#[test]
fn queries_agree_with_scanning_for_every_algorithm() {
    let body = b"GATTACAGATTACAGGATCCGATTACATTTTACAGAGATTACCA";
    let text = terminated(body);
    let patterns: Vec<&[u8]> =
        vec![b"GATTACA", b"TT", b"A", b"CAGG", b"GATTACAGATTACAGG", b"XYZ", b""];
    for (name, tree) in all_constructions(body) {
        for pattern in &patterns {
            let expected = scan_occurrences(&text, pattern);
            let got = tree.try_find_all(&text, pattern).unwrap();
            assert_eq!(got, expected, "{name} pattern {:?}", String::from_utf8_lossy(pattern));
            assert_eq!(tree.try_count(&text, pattern).unwrap(), expected.len(), "{name}");
        }
    }
}

#[test]
fn workload_generators_build_correctly_across_algorithms() {
    // One realistic workload per alphabet, compared against ERA as reference.
    for body in [genome_like(3000, 1), protein_like(2000, 2), english_like(2500, 3)] {
        let text = terminated(&body);
        let store = small_block_store(&body);
        let (era_tree, _) = era::construct(&store, &era_config()).unwrap();
        validate_partitioned(&era_tree, &text).unwrap();

        let store = small_block_store(&body);
        let (wf_tree, _) = wavefront_construct(
            &store,
            &WaveFrontConfig { memory_budget: 8 << 10, ..Default::default() },
        )
        .unwrap();
        assert_eq!(era_tree.lexicographic_suffixes(), wf_tree.lexicographic_suffixes());

        let store = small_block_store(&body);
        let (uk_tree, _) = ukkonen_construct(&store).unwrap();
        assert_eq!(era_tree.lexicographic_suffixes(), uk_tree.lexicographic_suffixes());
    }
}

#[test]
fn range_policies_and_seek_optimisation_do_not_change_the_result() {
    let body = genome_like(4000, 9);
    let text = terminated(&body);
    let mut reference: Option<Vec<u32>> = None;
    for policy in [RangePolicy::Elastic, RangePolicy::Fixed(16), RangePolicy::Fixed(3)] {
        for seek in [true, false] {
            for grouping in [true, false] {
                let store = small_block_store(&body);
                let cfg = EraConfig {
                    range_policy: policy,
                    seek_optimization: seek,
                    group_virtual_trees: grouping,
                    ..era_config()
                };
                let (tree, _) = era::construct(&store, &cfg).unwrap();
                validate_partitioned(&tree, &text).unwrap();
                let order = tree.lexicographic_suffixes();
                match &reference {
                    None => reference = Some(order),
                    Some(r) => assert_eq!(
                        &order, r,
                        "policy {policy:?} seek {seek} grouping {grouping} changed the tree"
                    ),
                }
            }
        }
    }
}

#[test]
fn era_handles_memory_budgets_from_tiny_to_huge() {
    let body = genome_like(3000, 21);
    let text = terminated(&body);
    for budget in [3 << 10, 8 << 10, 64 << 10, 8 << 20] {
        let store = small_block_store(&body);
        let cfg = EraConfig {
            memory_budget: budget,
            r_buffer_size: Some(512),
            input_buffer_size: 128,
            trie_area: 128,
            ..EraConfig::default()
        };
        let (tree, report) = era::construct(&store, &cfg).unwrap();
        validate_partitioned(&tree, &text).unwrap();
        assert_eq!(tree.leaf_count(), text.len(), "budget {budget}");
        assert!(report.fm >= 1);
    }
}

#[test]
fn disk_store_and_memory_store_produce_identical_trees() {
    let body = genome_like(2500, 33);
    let text = terminated(&body);
    let dir = std::env::temp_dir().join(format!("era-it-disk-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let disk = era_string_store::DiskStore::create_in_dir(
        &dir,
        "equivalence",
        &body,
        era_string_store::Alphabet::dna(),
    )
    .unwrap();
    let (from_disk, _) = era::construct(&disk, &era_config()).unwrap();
    let mem = InMemoryStore::from_body(&body, era_string_store::Alphabet::dna()).unwrap();
    let (from_mem, _) = era::construct(&mem, &era_config()).unwrap();
    validate_partitioned(&from_disk, &text).unwrap();
    assert_eq!(from_disk.lexicographic_suffixes(), from_mem.lexicographic_suffixes());
}
