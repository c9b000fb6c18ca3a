//! Unit tests of the serial driver (§4): [`construct`](crate::construct) with
//! one thread, across horizontal methods, range policies, grouping and
//! alphabets, each checked against the naive reference tree.

#[cfg(test)]
mod tests {
    use crate::config::{EraConfig, HorizontalMethod, RangePolicy};
    use crate::pipeline::construct;
    use era_string_store::{Alphabet, InMemoryStore};
    use era_suffix_tree::{naive_suffix_tree, validate_partitioned};

    fn tiny_config(budget: usize) -> EraConfig {
        EraConfig {
            memory_budget: budget,
            r_buffer_size: Some(256),
            input_buffer_size: 64,
            trie_area: 64,
            min_range: 2,
            ..EraConfig::default()
        }
    }

    fn check_against_reference(body: &[u8], config: &EraConfig) {
        let store = InMemoryStore::from_body_inferred(body).unwrap().with_block_size(64).unwrap();
        let text: Vec<u8> = {
            let mut t = body.to_vec();
            t.push(0);
            t
        };
        let (tree, report) = construct(&store, config).unwrap();
        validate_partitioned(&tree, &text).unwrap();
        let reference = naive_suffix_tree(&text);
        assert_eq!(tree.lexicographic_suffixes(), reference.lexicographic_suffixes());
        assert_eq!(tree.leaf_count(), text.len());
        assert!(report.partitions >= 1);
        assert!(report.virtual_trees <= report.partitions);
        assert!(report.io.bytes_read > 0);
        for pattern in [&b"GAT"[..], b"TTA", b"A", b"CAG", b"zzz"] {
            let expected: Vec<u32> = (0..text.len() as u32)
                .filter(|&i| text[i as usize..].starts_with(pattern))
                .collect();
            assert_eq!(tree.try_find_all(&text, pattern).unwrap(), expected, "pattern {pattern:?}");
        }
    }

    #[test]
    fn paper_example_small_memory() {
        // Small budget => FM small => deep vertical partitioning.
        check_against_reference(b"TGGTGGTGGTGCGGTGATGGTGC", &tiny_config(4 << 10));
    }

    #[test]
    fn dna_with_both_horizontal_methods() {
        let body = b"GATTACAGATTACAGGATCCGATTACATTTTACAGAGATTACCA";
        for method in [HorizontalMethod::StringAndMemory, HorizontalMethod::StringOnly] {
            let config = EraConfig { horizontal: method, ..tiny_config(8 << 10) };
            check_against_reference(body, &config);
        }
    }

    #[test]
    fn range_policies_agree() {
        let body = b"GATTACAGATTACAGGATCCGATTACATTTTACAGAGATTACCAGATTACA";
        for policy in [RangePolicy::Elastic, RangePolicy::Fixed(16), RangePolicy::Fixed(2)] {
            let config = EraConfig { range_policy: policy, ..tiny_config(8 << 10) };
            check_against_reference(body, &config);
        }
    }

    #[test]
    fn grouping_off_produces_same_tree_with_more_scans() {
        let body = b"GATTACAGATTACAGGATCCGATTACATTTTACAGAGATTACCA";
        let store_on = InMemoryStore::from_body(body, Alphabet::dna()).unwrap();
        let store_off = InMemoryStore::from_body(body, Alphabet::dna()).unwrap();
        let config_on = tiny_config(6 << 10);
        let config_off = EraConfig { group_virtual_trees: false, ..config_on.clone() };
        let (tree_on, rep_on) = construct(&store_on, &config_on).unwrap();
        let (tree_off, rep_off) = construct(&store_off, &config_off).unwrap();
        assert_eq!(tree_on.lexicographic_suffixes(), tree_off.lexicographic_suffixes());
        assert!(rep_on.virtual_trees < rep_off.virtual_trees);
        assert!(
            rep_on.io.full_scans < rep_off.io.full_scans,
            "grouping must save scans: {} vs {}",
            rep_on.io.full_scans,
            rep_off.io.full_scans
        );
    }

    #[test]
    fn protein_and_english_alphabets() {
        let protein =
            b"MKTAYIAKQRQISFVKSHFSRQLEERLGLIEVQAPILSRVGDGTQDNLSGAEKAVQVKVKALPDAQFEVVHSLAKWKR"
                .iter()
                .map(|&b| if Alphabet::protein().contains(b) { b } else { b'A' })
                .collect::<Vec<u8>>();
        check_against_reference(&protein, &tiny_config(8 << 10));
        check_against_reference(
            b"thequickbrownfoxjumpsoverthelazydogthequickbrownfox",
            &tiny_config(8 << 10),
        );
    }

    #[test]
    fn single_character_text() {
        check_against_reference(b"A", &tiny_config(4 << 10));
        check_against_reference(b"AAAAAAAAAAAAAAAAAAAAAAAA", &tiny_config(4 << 10));
    }
}
