//! Driver equivalence across the three `GroupScheduler`s.
//!
//! The `ConstructionPipeline` guarantees that the scheduler only decides *who
//! runs which virtual tree* — never what gets built. These tests pin that
//! contract: the serial, shared-memory and shared-nothing schedulers must
//! produce byte-identical `PartitionedSuffixTree`s (same partitions in the
//! same order, same serialized bytes, same query answers) on realistic DNA,
//! protein and English workloads.

use era::{
    ConstructionPipeline, EraConfig, SerialScheduler, SharedMemoryScheduler, SharedNothingOptions,
    SharedNothingScheduler, SuffixIndex,
};
use era_string_store::InMemoryStore;
use era_suffix_tree::{validate_partitioned, PartitionedSuffixTree};
use era_tests::{scan_occurrences, terminated, tree_bytes};
use era_workloads::{english_like, genome_like, protein_like};

fn config() -> EraConfig {
    EraConfig {
        memory_budget: 8 << 10,
        r_buffer_size: Some(512),
        input_buffer_size: 128,
        trie_area: 128,
        ..EraConfig::default()
    }
}

fn store(body: &[u8]) -> InMemoryStore {
    InMemoryStore::from_body_inferred(body).expect("valid body").with_block_size(64).unwrap()
}

/// Builds the same body with all three schedulers (several worker/node counts)
/// and returns the labelled trees.
fn all_scheduler_builds(body: &[u8]) -> Vec<(String, PartitionedSuffixTree)> {
    let cfg = config();
    let pipeline = ConstructionPipeline::new(&cfg);
    let mut out = Vec::new();

    let s = store(body);
    out.push(("serial".to_string(), pipeline.run(&SerialScheduler::new(&s)).unwrap().0));

    for threads in [2usize, 4] {
        let s = store(body);
        out.push((
            format!("shared-memory/{threads}"),
            pipeline.run(&SharedMemoryScheduler::new(&s, threads)).unwrap().0,
        ));
    }

    for nodes in [2usize, 3] {
        let stores: Vec<InMemoryStore> = (0..nodes).map(|_| store(body)).collect();
        let scheduler =
            SharedNothingScheduler::new(&stores, SharedNothingOptions::default()).unwrap();
        out.push((format!("shared-nothing/{nodes}"), pipeline.run(&scheduler).unwrap().0));
    }
    out
}

#[test]
fn schedulers_produce_byte_identical_trees_on_all_workloads() {
    for (name, body) in [
        ("dna", genome_like(4000, 7)),
        ("protein", protein_like(3000, 8)),
        ("english", english_like(3500, 9)),
    ] {
        let text = terminated(&body);
        let builds = all_scheduler_builds(&body);
        let reference_bytes = tree_bytes(&builds[0].1);
        for (scheduler, tree) in &builds {
            validate_partitioned(tree, &text)
                .unwrap_or_else(|e| panic!("{scheduler} built an invalid tree on {name}: {e}"));
            assert_eq!(
                tree_bytes(tree),
                reference_bytes,
                "{scheduler} disagrees with serial on the {name} workload"
            );
        }
    }
}

#[test]
fn schedulers_answer_queries_identically() {
    let body = genome_like(3000, 21);
    let text = terminated(&body);
    // Patterns sampled from the text (hits) plus guaranteed misses.
    let mut patterns: Vec<Vec<u8>> = vec![b"NOPE".to_vec(), vec![0u8], b"Z".to_vec()];
    for (start, len) in [(0usize, 3usize), (500, 8), (1200, 1), (2990, 12)] {
        patterns.push(body[start..(start + len).min(body.len())].to_vec());
    }
    for (scheduler, tree) in all_scheduler_builds(&body) {
        for pattern in &patterns {
            let expected = scan_occurrences(&text, pattern);
            assert_eq!(
                tree.try_find_all(&text, pattern).unwrap(),
                expected,
                "{scheduler} pattern {:?}",
                String::from_utf8_lossy(pattern)
            );
            assert_eq!(tree.try_count(&text, pattern).unwrap(), expected.len(), "{scheduler}");
        }
    }
}

#[test]
fn builder_threads_pick_the_scheduler_automatically() {
    let body = genome_like(2000, 5);
    let serial =
        SuffixIndex::builder().config(config()).threads(1).build_from_bytes(&body).unwrap();
    assert_eq!(serial.report().algorithm, "era");

    let parallel =
        SuffixIndex::builder().config(config()).threads(4).build_from_bytes(&body).unwrap();
    assert_eq!(parallel.report().algorithm, "era-parallel-sm");
    assert_eq!(parallel.report().per_node.len(), 4);
    assert_eq!(parallel.suffix_array(), serial.suffix_array());
}
