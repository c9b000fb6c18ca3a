//! Unit tests of the shared-nothing driver (§5.2): the tree equals the serial
//! one for any node count, every node reads its own store, the transfer-time
//! model, and rejection of mismatched store sets.

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use crate::config::EraConfig;
    use crate::pipeline::{construct_shared_nothing, SharedNothingOptions};

    use era_string_store::{Alphabet, InMemoryStore};
    use era_suffix_tree::{naive_suffix_tree, validate_partitioned};

    fn stores(body: &[u8], nodes: usize) -> Vec<InMemoryStore> {
        (0..nodes).map(|_| InMemoryStore::from_body(body, Alphabet::dna()).unwrap()).collect()
    }

    fn config() -> EraConfig {
        EraConfig {
            memory_budget: 8 << 10,
            r_buffer_size: Some(512),
            input_buffer_size: 64,
            trie_area: 64,
            ..EraConfig::default()
        }
    }

    #[test]
    fn shared_nothing_equals_serial() {
        let body = b"GATTACAGATTACAGGATCCGATTACATTTTACAGAGATTACCAGATTACAGGGATTTACA";
        let text: Vec<u8> = {
            let mut t = body.to_vec();
            t.push(0);
            t
        };
        let reference = naive_suffix_tree(&text);
        for nodes in [1usize, 2, 4, 7] {
            let node_stores = stores(body, nodes);
            let (tree, report) =
                construct_shared_nothing(&node_stores, &config(), &SharedNothingOptions::default())
                    .unwrap();
            validate_partitioned(&tree, &text).unwrap();
            assert_eq!(
                tree.lexicographic_suffixes(),
                reference.lexicographic_suffixes(),
                "nodes {nodes}"
            );
            assert_eq!(report.per_node.len(), nodes);
            let assigned: usize = report.per_node.iter().map(|n| n.virtual_trees).sum();
            assert_eq!(assigned, report.virtual_trees);
        }
    }

    #[test]
    fn every_node_does_io_against_its_own_store() {
        let body: Vec<u8> = b"ACGTTGCAGGCTAAGCTTACGGATCAGTCAGCATCAGATTACACCGTGGTTAACCGTA"
            .iter()
            .cycle()
            .take(600)
            .copied()
            .collect();
        let node_stores = stores(&body, 3);
        let mut cfg = config();
        cfg.memory_budget = 6 << 10;
        let options = SharedNothingOptions { transfer_bandwidth: None };
        let (_tree, report) = construct_shared_nothing(&node_stores, &cfg, &options).unwrap();
        for node in &report.per_node {
            if node.virtual_trees > 0 {
                assert!(node.io.bytes_read > 0, "node {} read nothing", node.node);
            }
        }
        // Work should be spread: no single node owns everything.
        let busiest = report.per_node.iter().map(|n| n.virtual_trees).max().unwrap();
        assert!(busiest < report.virtual_trees, "one node owns all the work");
    }

    #[test]
    fn transfer_time_is_modelled() {
        let body = b"GATTACAGATTACA";
        let node_stores = stores(body, 2);
        let options = SharedNothingOptions { transfer_bandwidth: Some(1000.0) };
        let (_tree, report) = construct_shared_nothing(&node_stores, &config(), &options).unwrap();
        // 15 bytes at 1000 B/s = 15 ms.
        assert!(report.string_transfer >= Duration::from_millis(14));
        assert!(report.elapsed_with_transfer() > report.elapsed);
    }

    #[test]
    fn mismatched_stores_are_rejected() {
        let a = InMemoryStore::from_body(b"GATTACA", Alphabet::dna()).unwrap();
        let b = InMemoryStore::from_body(b"GATTACAGATTACA", Alphabet::dna()).unwrap();
        let err = construct_shared_nothing(&[a, b], &config(), &SharedNothingOptions::default());
        assert!(err.is_err());
        let empty: Vec<InMemoryStore> = Vec::new();
        assert!(
            construct_shared_nothing(&empty, &config(), &SharedNothingOptions::default()).is_err()
        );
    }
}
