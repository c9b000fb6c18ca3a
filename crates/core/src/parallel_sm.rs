//! Unit tests of the shared-memory scheduler (§5.1): the tree equals the
//! serial one for any worker count, and the work spreads over the workers.

#[cfg(test)]
mod tests {
    use crate::config::EraConfig;
    use crate::pipeline::{construct, ConstructionPipeline, SharedMemoryScheduler};
    use era_string_store::{Alphabet, InMemoryStore};
    use era_suffix_tree::{naive_suffix_tree, validate_partitioned};

    fn config(threads: usize) -> EraConfig {
        EraConfig {
            memory_budget: 8 << 10,
            r_buffer_size: Some(512),
            input_buffer_size: 64,
            trie_area: 64,
            threads,
            ..EraConfig::default()
        }
    }

    #[test]
    fn parallel_equals_serial() {
        let body = b"GATTACAGATTACAGGATCCGATTACATTTTACAGAGATTACCAGATTACAGGGATTTACA";
        let text: Vec<u8> = {
            let mut t = body.to_vec();
            t.push(0);
            t
        };
        let reference = naive_suffix_tree(&text);
        for threads in [1usize, 2, 4, 8] {
            let store = InMemoryStore::from_body(body, Alphabet::dna()).unwrap();
            // Named through the pipeline so that one thread, too, runs the
            // shared-memory scheduler (`construct` would pick the serial one).
            let cfg = config(threads);
            let scheduler = SharedMemoryScheduler::new(&store, threads);
            let (tree, report) = ConstructionPipeline::new(&cfg).run(&scheduler).unwrap();
            validate_partitioned(&tree, &text).unwrap();
            assert_eq!(
                tree.lexicographic_suffixes(),
                reference.lexicographic_suffixes(),
                "threads {threads}"
            );
            assert_eq!(report.per_node.len(), threads);
            let total_groups: usize = report.per_node.iter().map(|n| n.virtual_trees).sum();
            assert_eq!(total_groups, report.virtual_trees);
        }
    }

    #[test]
    fn work_is_distributed_across_workers() {
        // Many partitions (tiny FM) so that several workers actually get work.
        let body: Vec<u8> = b"ACGTTGCAGGCTAAGCTTACGGATCAGTCAGCATCAGATTACACCGTGGTTAACCGTA"
            .iter()
            .cycle()
            .take(400)
            .copied()
            .collect();
        let store = InMemoryStore::from_body(&body, Alphabet::dna()).unwrap();
        let mut cfg = config(4);
        cfg.memory_budget = 6 << 10;
        let (_tree, report) = construct(&store, &cfg).unwrap();
        let busy_workers = report.per_node.iter().filter(|n| n.virtual_trees > 0).count();
        assert!(busy_workers >= 2, "expected at least two busy workers, got {busy_workers}");
    }
}
