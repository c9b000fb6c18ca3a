//! Stack-based batch assembly of a suffix (sub-)tree from lexicographically
//! sorted leaves and branching information.
//!
//! This is Algorithm `BuildSubTree` of the paper (§4.2.2): given the array `L`
//! of leaf offsets in lexicographic order and, for each adjacent pair, the
//! length of their common prefix (the `offset` component of the `B` triplets)
//! plus the first diverging characters (`c1`, `c2`), the tree is built in one
//! pass with a stack — purely sequential memory access and **no** string reads.
//!
//! The very same routine converts a (suffix array, LCP array) pair into a
//! suffix tree, which is how the B²ST baseline materialises its output.

use crate::node::NodeId;
use crate::tree::SuffixTree;

/// Branching information between two lexicographically adjacent leaves
/// (one entry of the paper's `B` array).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Branching {
    /// First character of the left branch after the common path (`c1`).
    pub left_char: u8,
    /// First character of the right branch after the common path (`c2`).
    pub right_char: u8,
    /// Length of the common path, i.e. the longest common prefix of the two
    /// suffixes (`offset` in the paper's triplet).
    pub lcp: u32,
}

/// Assembles a suffix (sub-)tree from sorted leaves.
///
/// * `text_len` — length of the indexed text including the terminal.
/// * `leaves` — suffix offsets in lexicographic order.
/// * `branching[i - 1]` — relation between `leaves[i - 1]` and `leaves[i]`
///   (so `branching.len() == leaves.len() - 1`; pass an empty slice for a
///   single leaf).
/// * `smallest_first_char` — the first character of the lexicographically
///   smallest suffix (`text[leaves[0]]`). It cannot be derived from the
///   branching data alone and is needed so that child lookups by character
///   work without re-reading the string; ERA passes the first character of
///   the partition prefix, B²ST passes `text[sa[0]]`.
///
/// The resulting tree has exactly `leaves.len()` leaves.
///
/// # Panics
///
/// Panics if `leaves` is empty or the lengths disagree — these are programmer
/// errors in the construction pipeline, not data errors.
pub fn assemble_from_sorted(
    text_len: usize,
    leaves: &[u32],
    branching: &[Branching],
    smallest_first_char: u8,
) -> SuffixTree {
    assert!(!leaves.is_empty(), "cannot assemble a tree without leaves");
    assert_eq!(
        branching.len(),
        leaves.len() - 1,
        "need one branching entry per adjacent leaf pair"
    );

    let n = text_len as u32;
    let mut tree = SuffixTree::with_capacity(text_len, 2 * leaves.len());
    let root = tree.root();

    // Stack of node ids on the path to the most recently added leaf
    // (each entry stands for the edge ending at that node).
    let mut stack: Vec<NodeId> = Vec::with_capacity(64);

    // The first (lexicographically smallest) leaf hangs directly off the root.
    let leaf0 = tree.add_leaf(root, leaves[0], n, smallest_first_char, leaves[0]);
    stack.push(leaf0);
    let mut depth: u32 = n - leaves[0];

    for i in 1..leaves.len() {
        let b = branching[i - 1];
        let offset = b.lcp;

        // Pop edges until the depth of the node *above* the popped edge is at
        // most `offset` (the previous leaf is always deeper than the lcp, so
        // at least one pop happens).
        #[expect(clippy::expect_used, reason = "stack invariant of the assembly loop")]
        let mut popped = stack.pop().expect("stack never empty while assembling");
        depth -= tree.node(popped).edge_len();
        #[expect(clippy::expect_used, reason = "lcp values are bounded by the root sentinel")]
        while depth > offset {
            popped = stack.pop().expect("lcp cannot reach below the root");
            depth -= tree.node(popped).edge_len();
        }

        let attach_node: NodeId = if depth == offset {
            // Branch at an existing node: the upper endpoint of the popped edge.
            tree.node(popped).parent
        } else {
            // Branch strictly inside the popped edge: split it. The character
            // of the continuing (left) branch right after the split is `c1`.
            let split_len = offset - depth;
            let mid = tree.split_edge(popped, split_len, b.left_char);
            depth += split_len;
            stack.push(mid);
            mid
        };
        debug_assert_eq!(depth, offset);

        // Add the new leaf, labelled with the remainder of its suffix.
        let suffix = leaves[i];
        let start = suffix + offset;
        let leaf = tree.add_leaf(attach_node, start, n, b.right_char, suffix);
        stack.push(leaf);
        depth = offset + (n - start);
    }

    tree
}

/// Converts a (suffix array, LCP array) pair into a suffix tree.
///
/// `lcp[i]` must be the length of the longest common prefix of the suffixes
/// `sa[i - 1]` and `sa[i]` (`lcp[0]` is ignored) — the convention produced by
/// Kasai's algorithm in `era-suffix-array`.
pub fn assemble_from_sa_lcp(text: &[u8], sa: &[u32], lcp: &[u32]) -> SuffixTree {
    assert_eq!(lcp.len(), sa.len(), "expected lcp.len() == sa.len() with lcp[0] ignored");
    assert!(!sa.is_empty(), "cannot assemble a tree from an empty suffix array");
    let branching: Vec<Branching> = (1..sa.len())
        .map(|i| {
            let l = lcp[i];
            Branching {
                left_char: text[(sa[i - 1] + l) as usize],
                right_char: text[(sa[i] + l) as usize],
                lcp: l,
            }
        })
        .collect();
    assemble_from_sorted(text.len(), sa, &branching, text[sa[0] as usize])
}

/// The sub-tree over an arbitrary set of suffixes of `text`, sorted and
/// LCP-ed by direct comparison — how unit tests cut a text into hand-made
/// partitions.
#[cfg(test)]
pub(crate) fn sub_tree_of(text: &[u8], mut leaves: Vec<u32>) -> SuffixTree {
    leaves.sort_by(|&a, &b| text[a as usize..].cmp(&text[b as usize..]));
    let mut lcp = vec![0u32; leaves.len()];
    for i in 1..leaves.len() {
        let (a, b) = (&text[leaves[i - 1] as usize..], &text[leaves[i] as usize..]);
        lcp[i] = a.iter().zip(b).take_while(|(x, y)| x == y).count() as u32;
    }
    assemble_from_sa_lcp(text, &leaves, &lcp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::naive_suffix_tree;
    use crate::validate::validate_suffix_tree;

    fn sa_and_lcp(text: &[u8]) -> (Vec<u32>, Vec<u32>) {
        let mut sa: Vec<u32> = (0..text.len() as u32).collect();
        sa.sort_by(|&a, &b| text[a as usize..].cmp(&text[b as usize..]));
        let mut lcp = vec![0u32; sa.len()];
        for i in 1..sa.len() {
            let a = &text[sa[i - 1] as usize..];
            let b = &text[sa[i] as usize..];
            lcp[i] = a.iter().zip(b.iter()).take_while(|(x, y)| x == y).count() as u32;
        }
        (sa, lcp)
    }

    #[test]
    fn assembles_banana_correctly() {
        let text = b"banana\0";
        let (sa, lcp) = sa_and_lcp(text);
        let tree = assemble_from_sa_lcp(text, &sa, &lcp);
        validate_suffix_tree(&tree, text, Some(text.len())).unwrap();
        assert_eq!(tree.lexicographic_suffixes(), sa);
    }

    #[test]
    fn matches_naive_builder_structure() {
        for body in ["mississippi", "abracadabra", "aaaaaaa", "abcabcabc", "GATTACAGATTACA"] {
            let mut text = body.as_bytes().to_vec();
            text.push(0);
            let (sa, lcp) = sa_and_lcp(&text);
            let assembled = assemble_from_sa_lcp(&text, &sa, &lcp);
            let naive = naive_suffix_tree(&text);
            validate_suffix_tree(&assembled, &text, Some(text.len())).unwrap();
            assert_eq!(assembled.lexicographic_suffixes(), naive.lexicographic_suffixes());
            assert_eq!(assembled.leaf_count(), naive.leaf_count());
            assert_eq!(assembled.internal_count(), naive.internal_count());
        }
    }

    #[test]
    fn single_leaf_tree() {
        let tree = assemble_from_sorted(5, &[4], &[], 0);
        assert_eq!(tree.leaf_count(), 1);
        assert_eq!(tree.node(tree.children(tree.root())[0]).suffix(), Some(4));
    }

    #[test]
    fn subtree_of_prefix_only() {
        // Sub-tree of suffixes sharing the prefix "an" in "banana$":
        // suffixes 3 (ana$) and 1 (anana$), lcp 3.
        let text = b"banana\0";
        let leaves = [3u32, 1u32];
        let branching = [Branching { left_char: 0, right_char: b'n', lcp: 3 }];
        let tree = assemble_from_sorted(text.len(), &leaves, &branching, b'a');
        assert_eq!(tree.leaf_count(), 2);
        assert_eq!(tree.internal_count(), 2); // root + the "ana" node
        let labels: Vec<Vec<u8>> =
            tree.lexicographic_suffixes().iter().map(|&s| text[s as usize..].to_vec()).collect();
        assert_eq!(labels, vec![b"ana\0".to_vec(), b"anana\0".to_vec()]);
        // The root child caches the prefix's first character.
        let root_child = tree.children(tree.root())[0];
        assert_eq!(tree.node(root_child).first_char, b'a');
    }

    #[test]
    fn root_children_are_sorted_by_first_char() {
        let text = b"cab\0";
        let (sa, lcp) = sa_and_lcp(text);
        let tree = assemble_from_sa_lcp(text, &sa, &lcp);
        let firsts: Vec<u8> =
            tree.children(tree.root()).iter().map(|&c| tree.node(c).first_char).collect();
        assert_eq!(firsts, vec![0, b'a', b'b', b'c']);
    }

    #[test]
    #[should_panic(expected = "without leaves")]
    fn empty_leaves_panics() {
        assemble_from_sorted(3, &[], &[], 0);
    }

    #[test]
    #[should_panic(expected = "one branching entry")]
    fn mismatched_lengths_panic() {
        assemble_from_sorted(3, &[0, 1], &[], 0);
    }
}
