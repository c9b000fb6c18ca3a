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
//!
//! [`assemble_flat`] is the same assembly emitted straight into the flat
//! serving arena: ERA's pipeline assembles every sub-tree with it, so no
//! construction-form node exists between `SubTreePrepare` and the arena.

use crate::layout::{FlatNode, FlatTree};
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

/// One internal node of [`assemble_flat`]'s tree, an LCP interval: the
/// string depth of its node and its number of children.
struct Interval {
    depth: u32,
    children: u32,
}

/// An internal node of [`assemble_flat`] on the path to the current leaf,
/// its record not written yet.
struct OpenNode {
    id: u32,
    depth: u32,
    /// Where its child block starts in the arena, and the next free slot.
    block: u32,
    next: u32,
    children: u32,
    start: u32,
    end: u32,
    /// `None` while the node is the first child of a non-root node: its
    /// first character is then the left character of the branching after
    /// its last leaf, known when it closes.
    first_char: Option<u8>,
}

/// Assembles the same sub-tree as [`assemble_from_sorted`] straight into its
/// flat arena: the [`FlatTree`] that `FlatTree::freeze` makes of the
/// assembled tree, byte for byte, with no construction-form tree in between.
/// The arguments and their contract are [`assemble_from_sorted`]'s, and like
/// it this reads no string.
///
/// The internal nodes are the LCP intervals of `branching` (Abouelhoda,
/// Kurtz and Ohlebusch, "Replacing suffix trees with enhanced suffix
/// arrays", J. Discrete Algorithms 2(1), 2004), found in two passes:
///
/// 1. right to left, a stack of open intervals counts every internal node's
///    children; the order in which the intervals close, reversed, is the
///    pre-order in which the freeze hands out child blocks, so the exact
///    node count — and with it the one arena allocation — is known before a
///    record is written;
/// 2. left to right, every leaf takes the next slot of its parent's block
///    and every internal node its slot when its first leaf is reached; an
///    internal node's record is written when the node closes.
///
/// Besides the arena, the assembly holds two words per internal node.
///
/// A node whose leftmost leaf is `leaves[lb]` and whose parent sits at string
/// depth `p` has the edge label `leaves[lb] + p .. leaves[lb] + depth` (a
/// leaf's ends at the text's end). Its cached first character is the one the
/// stack assembly records: `smallest_first_char` for the root's first child,
/// the left character of the branching after its last leaf for the first
/// child of any other node (the edge that branching split), and the right
/// character of the branching before its first leaf for every later child
/// (the leaf that opened the edge).
///
/// # Panics
///
/// As [`assemble_from_sorted`]: on empty `leaves` or when the lengths
/// disagree.
pub fn assemble_flat(
    text_len: usize,
    leaves: &[u32],
    branching: &[Branching],
    smallest_first_char: u8,
) -> FlatTree {
    assert!(!leaves.is_empty(), "cannot assemble a tree without leaves");
    assert_eq!(
        branching.len(),
        leaves.len() - 1,
        "need one branching entry per adjacent leaf pair"
    );
    let n = text_len as u32;
    // The common prefix of leaves `i - 1` and `i`; 0 past either end, which
    // closes every interval but the root's.
    let lcp = |i: usize| match i.checked_sub(1).and_then(|b| branching.get(b)) {
        Some(b) => b.lcp,
        None => 0,
    };

    // Pass 1. `open` holds (depth, children) of the intervals containing
    // leaf `k`; on entry its top is the one shared with leaf `k + 1`.
    // A tree has at most one internal node per leaf, the root included.
    let mut closed: Vec<Interval> = Vec::with_capacity(leaves.len());
    let mut open: Vec<(u32, u32)> = vec![(0, 0)];
    for k in (0..leaves.len()).rev() {
        let before = lcp(k);
        if open.last().is_some_and(|&(depth, _)| before > depth) {
            open.push((before, 0));
        }
        bump(&mut open);
        while let Some((depth, children)) = open.pop_if(|&mut (depth, _)| depth > before) {
            closed.push(Interval { depth, children });
            if open.last().is_some_and(|&(depth, _)| depth >= before) {
                bump(&mut open);
            } else {
                open.push((before, 1));
            }
        }
    }
    let root_children = open.first().map_or(0, |&(_, children)| children);
    closed.push(Interval { depth: 0, children: root_children });

    // Pass 2. `path` holds the internal nodes above leaf `k`, root first.
    let mut nodes = vec![FlatNode::default(); leaves.len() + closed.len()];
    let mut pre_order = closed.iter().rev().skip(1).peekable();
    let mut next_block = 1 + root_children;
    // The root's record is the last one written.
    let mut path = vec![OpenNode {
        id: 0,
        depth: 0,
        block: 1,
        next: 1,
        children: root_children,
        start: 0,
        end: 0,
        first_char: None,
    }];
    for (k, &suffix) in leaves.iter().enumerate() {
        // The nodes whose first leaf is leaf `k` are the next ones in
        // pre-order that lie deeper than the path and no deeper than the
        // common prefix with leaf `k + 1`, outermost first.
        let after = lcp(k + 1);
        while let Some(node) = pre_order.next_if(|node| {
            node.depth <= after && path.last().is_some_and(|top| node.depth > top.depth)
        }) {
            let (id, parent_depth, first_char) =
                take_slot(&mut path, branching, k, smallest_first_char);
            path.push(OpenNode {
                id,
                depth: node.depth,
                block: next_block,
                next: next_block,
                children: node.children,
                start: suffix + parent_depth,
                end: suffix + node.depth,
                first_char,
            });
            next_block += node.children;
        }
        let (id, parent_depth, first_char) =
            take_slot(&mut path, branching, k, smallest_first_char);
        let first_char = first_char.unwrap_or_else(|| branching[k].left_char);
        nodes[id as usize] = FlatNode::leaf(suffix + parent_depth, n, first_char, suffix);
        while let Some(node) = path.pop_if(|node| node.depth > after) {
            let first_char = node.first_char.unwrap_or_else(|| branching[k].left_char);
            nodes[node.id as usize] =
                FlatNode::internal(node.start, node.end, first_char, node.block, node.children);
        }
    }
    debug_assert_eq!(next_block as usize, nodes.len());
    nodes[0] = FlatNode::internal(0, 0, 0, 1, root_children);
    FlatTree::from_raw_parts(n, nodes)
}

/// Counts one more child for the innermost open interval of pass 1.
fn bump(open: &mut [(u32, u32)]) {
    if let Some((_, children)) = open.last_mut() {
        *children += 1;
    }
}

/// Gives the node whose first leaf is leaf `k` the next slot of the
/// innermost open node's child block. Returns the slot, the parent's string
/// depth and the node's first character — `None` for the first child of a
/// non-root node, whose character is known only where it ends.
fn take_slot(
    path: &mut [OpenNode],
    branching: &[Branching],
    k: usize,
    smallest_first_char: u8,
) -> (u32, u32, Option<u8>) {
    #[expect(clippy::expect_used, reason = "the root is open until every leaf is placed")]
    let parent = path.last_mut().expect("the root stays open");
    let id = parent.next;
    parent.next += 1;
    let first_char = if id != parent.block {
        Some(branching[k - 1].right_char)
    } else if parent.id == 0 {
        Some(smallest_first_char)
    } else {
        None
    };
    (id, parent.depth, first_char)
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
        assert_eq!(assemble_flat(5, &[4], &[], 0), FlatTree::freeze(&tree));
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

    /// The branching data of `leaves` (sorted) over `text`, as
    /// `SubTreePrepare` hands it over.
    fn branching_of(text: &[u8], leaves: &[u32]) -> Vec<Branching> {
        leaves
            .windows(2)
            .map(|w| {
                let (a, b) = (&text[w[0] as usize..], &text[w[1] as usize..]);
                let lcp = a.iter().zip(b).take_while(|(x, y)| x == y).count();
                Branching { left_char: a[lcp], right_char: b[lcp], lcp: lcp as u32 }
            })
            .collect()
    }

    /// `assemble_flat` against the freeze of `assemble_from_sorted`, over
    /// the leaves of `text` that start with `prefix` (all of them for the
    /// empty prefix, whose root then has a child per first character).
    fn assert_flat_matches_freeze(text: &[u8], prefix: &[u8]) {
        let mut leaves: Vec<u32> =
            (0..text.len() as u32).filter(|&i| text[i as usize..].starts_with(prefix)).collect();
        if leaves.is_empty() {
            return;
        }
        leaves.sort_by(|&a, &b| text[a as usize..].cmp(&text[b as usize..]));
        let branching = branching_of(text, &leaves);
        let first = text[leaves[0] as usize];
        let frozen =
            FlatTree::freeze(&assemble_from_sorted(text.len(), &leaves, &branching, first));
        let flat = assemble_flat(text.len(), &leaves, &branching, first);
        assert_eq!(flat, frozen, "text {:?}, prefix {prefix:?}", String::from_utf8_lossy(text));
    }

    /// Every prefix of length 0–2 over the text's own symbols.
    fn assert_every_short_prefix(text: &[u8]) {
        let mut symbols: Vec<u8> = text.to_vec();
        symbols.sort_unstable();
        symbols.dedup();
        assert_flat_matches_freeze(text, b"");
        for &a in &symbols {
            assert_flat_matches_freeze(text, &[a]);
            for &b in &symbols {
                assert_flat_matches_freeze(text, &[a, b]);
            }
        }
    }

    #[test]
    fn flat_assembly_is_the_freeze_of_the_stack_assembly() {
        // The paper's running example (Fig. 2: the TG sub-tree), periodic
        // texts whose sub-trees are deep chains, and single-leaf sub-trees.
        let mut bodies: Vec<Vec<u8>> = ["TGGTGGTGGTGCGGTGATGGTGC", "banana", "mississippi", "a"]
            .iter()
            .map(|b| b.as_bytes().to_vec())
            .collect();
        for period in ["A", "AC", "ACG", "TGG"] {
            bodies.push(period.repeat(40).into_bytes());
        }
        // Pseudo-random bodies over the DNA, protein and English alphabets.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for alphabet in [&b"ACGT"[..], b"ACDEFGHIKLMNPQRSTVWY", b" abcdefghijklmnopqrstuvwxyz."] {
            for len in [2usize, 17, 300] {
                let body = (0..len)
                    .map(|_| {
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        alphabet[(state % alphabet.len() as u64) as usize]
                    })
                    .collect();
                bodies.push(body);
            }
        }
        for mut text in bodies {
            text.push(0);
            assert_every_short_prefix(&text);
        }
    }

    #[test]
    #[should_panic(expected = "without leaves")]
    fn flat_assembly_of_no_leaves_panics() {
        assemble_flat(3, &[], &[], 0);
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
