//! Algorithm `BuildSubTree` (§4.2.2): batch assembly of the sub-tree from the
//! `L`/`B` arrays produced by `SubTreePrepare`.
//!
//! The stack-based assembly itself lives in
//! [`era_suffix_tree::assemble::assemble_from_sorted`] (it is shared with the
//! B²ST baseline, which assembles trees from merged suffix-array runs); this
//! module adapts the prepared data and attaches the partition prefix.

use era_suffix_tree::{Partition, SuffixTree};

use super::prepare::PreparedSubTree;

/// Builds the suffix sub-tree for one prepared S-prefix.
///
/// No string access happens here: the edge labels are `(start, end)` offsets
/// and the branching characters were captured in `B` during preparation.
pub fn build_subtree(text_len: usize, prepared: &PreparedSubTree) -> SuffixTree {
    #[expect(clippy::expect_used, reason = "invariant of vertical partitioning")]
    let first_char = prepared
        .prefix
        .first()
        .copied()
        .expect("vertical partitioning never produces an empty prefix");
    era_suffix_tree::assemble_from_sorted(
        text_len,
        &prepared.leaves,
        &prepared.branching,
        first_char,
    )
}

/// Builds the sub-tree and wraps it as a [`Partition`] of the final index.
pub fn build_partition(text_len: usize, prepared: &PreparedSubTree) -> Partition {
    Partition { prefix: prepared.prefix.clone(), tree: build_subtree(text_len, prepared) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RangePolicy;
    use crate::horizontal::prepare::prepare_group;
    use crate::horizontal::HorizontalParams;
    use era_string_store::{Alphabet, InMemoryStore};
    use era_suffix_tree::{validate_suffix_tree, FlatTree};

    #[test]
    fn paper_subtree_tg_matches_reference() {
        let body = b"TGGTGGTGGTGCGGTGATGGTGC";
        let store = InMemoryStore::from_body(body, Alphabet::dna()).unwrap();
        let text: Vec<u8> = {
            let mut t = body.to_vec();
            t.push(0);
            t
        };
        let occ: Vec<u32> =
            (0..text.len()).filter(|&i| text[i..].starts_with(b"TG")).map(|i| i as u32).collect();
        let params = HorizontalParams {
            r_capacity: 64,
            range_policy: RangePolicy::Fixed(4),
            min_range: 1,
            seek_optimization: false,
        };
        let prepared =
            prepare_group(&store, &[b"TG".to_vec()], std::slice::from_ref(&occ), &params).unwrap();
        let tree = build_subtree(text.len(), &prepared[0]);
        validate_suffix_tree(&tree, &text, Some(occ.len())).unwrap();

        // Figure 2: the TG sub-tree has 7 leaves and 7 internal nodes counting
        // its root (the paper states #internal == #leaves for the full tree;
        // for the sub-tree the root with a single child takes the place of the
        // trie node above it).
        assert_eq!(tree.leaf_count(), 7);

        // Every query answered through the frozen sub-tree agrees with a
        // scan of the text for patterns starting with TG.
        let frozen = FlatTree::freeze(&tree);
        for pattern in [&b"TG"[..], b"TGG", b"TGC", b"TGA", b"TGGTGC", b"TGCGG"] {
            let mut got = frozen.try_find_all(&text, pattern).unwrap();
            got.sort_unstable();
            let expected: Vec<u32> = (0..text.len() as u32)
                .filter(|&i| text[i as usize..].starts_with(pattern))
                .collect();
            assert_eq!(got, expected, "pattern {:?}", std::str::from_utf8(pattern));
        }
    }

    #[test]
    fn single_leaf_partition() {
        let prepared =
            PreparedSubTree { prefix: b"GA".to_vec(), leaves: vec![6], branching: vec![] };
        let part = build_partition(9, &prepared);
        assert_eq!(part.prefix, b"GA");
        assert_eq!(part.tree.leaf_count(), 1);
    }
}
