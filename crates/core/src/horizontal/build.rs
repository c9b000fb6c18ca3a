//! Algorithm `BuildSubTree` (§4.2.2): batch assembly of the sub-tree from the
//! `L`/`B` arrays produced by `SubTreePrepare`.
//!
//! The pipeline assembles every sub-tree straight into its flat serving
//! arena with [`assemble_partition`]
//! ([`era_suffix_tree::assemble::assemble_flat`]): `L` is the group's slice
//! of the suffix array and `B` its LCP array, so the pre-order arena follows
//! from them with no construction-form node in between. [`build_partition`]
//! still assembles the `Vec`-node [`SuffixTree`] that arena is the freeze of
//! ([`era_suffix_tree::assemble::assemble_from_sorted`], shared with the
//! B²ST baseline), for the callers that want that form.

use era_suffix_tree::{FlatPartition, Partition, SuffixTree};

use super::prepare::PreparedSubTree;

/// The first character of every suffix of the prepared S-prefix.
fn first_char(prepared: &PreparedSubTree) -> u8 {
    #[expect(clippy::expect_used, reason = "invariant of vertical partitioning")]
    prepared.prefix.first().copied().expect("vertical partitioning never produces an empty prefix")
}

/// Assembles the sub-tree of one prepared S-prefix straight into its flat
/// arena and wraps it as a [`FlatPartition`] of the final index, dropping
/// `L` and `B` — what ERA's pipeline does with every prepared sub-tree.
///
/// The arena is byte for byte `build_partition(..).freeze()`'s, allocated
/// once at its exact size. No string access happens here.
pub fn assemble_partition(text_len: usize, prepared: PreparedSubTree) -> FlatPartition {
    let tree = era_suffix_tree::assemble_flat(
        text_len,
        &prepared.leaves,
        &prepared.branching,
        first_char(&prepared),
    );
    FlatPartition { prefix: prepared.prefix, tree }
}

/// Builds the construction-form suffix sub-tree for one prepared S-prefix.
///
/// No string access happens here: the edge labels are `(start, end)` offsets
/// and the branching characters were captured in `B` during preparation.
pub fn build_subtree(text_len: usize, prepared: &PreparedSubTree) -> SuffixTree {
    era_suffix_tree::assemble_from_sorted(
        text_len,
        &prepared.leaves,
        &prepared.branching,
        first_char(prepared),
    )
}

/// Builds the construction-form sub-tree and wraps it as a [`Partition`].
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
        assert_eq!(assemble_partition(text.len(), prepared[0].clone()).tree, frozen);
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
        assert_eq!(assemble_partition(9, prepared), part.freeze());
    }
}
