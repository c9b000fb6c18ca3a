//! Flat, cache-conscious serving layout.
//!
//! The mutable [`SuffixTree`] is the *construction* form: every internal node
//! owns a heap `Vec<NodeId>`, so one edge descent costs two dependent cache
//! misses (node → child vector → child node) and a node weighs ~48 bytes plus
//! the vector's heap block. A finished sub-tree never mutates again —
//! queries only descend it — so every partition is served as a
//! [`FlatTree`]. ERA-str+mem writes that arena straight from a group's `L`
//! and `B` ([`crate::assemble::assemble_flat`]) with no construction form in
//! between; a tree grown in the construction form (ERA-str, the baselines) is
//! frozen into it ([`FlatTree::freeze`]). Both make the same arena:
//!
//! * one contiguous arena of 16-byte [`FlatNode`] records;
//! * the children of every node occupy one contiguous id range, ordered by
//!   the first character of their edge labels, so child lookup is a binary
//!   search over *adjacent* records (one cache line holds four of them);
//! * child blocks are handed out in pre-order of their parents, so every
//!   subtree is one id range: the nodes strictly below `v` are the ids from
//!   `v`'s first child to the end of the last block handed out inside its
//!   subtree ([`FlatTree::descendants`]). `Count` counts the leaf records of
//!   that range and `Locate` reads their suffixes, with no walk and no
//!   stack; a descent moves mostly forward through the arena too;
//! * leaf/internal is a tag bit; the leaf's suffix offset and the internal
//!   node's `children_start` share one payload word; no parent pointers
//!   (descents only ever walk down).
//!
//! The pre-order layout is a checked invariant, not only what the freeze
//! happens to do: [`crate::validate::validate_flat_structure`], which every
//! `ERAFLAT1` load runs, accepts exactly one arena per tree shape — the one
//! the freeze and the direct assembly write — so an arena that links the
//! same tree in another block order is rejected before a range read could
//! miscount it.
//!
//! The freeze is deterministic: two structurally equal [`SuffixTree`]s always
//! freeze to byte-identical [`FlatTree`]s, and the direct assembly of a
//! group's `L` and `B` is byte for byte the freeze of the tree
//! [`crate::assemble::assemble_from_sorted`] builds from them. So the
//! scheduler-equivalence guarantees (serial, shared-memory and shared-nothing
//! builds produce the same index) carry over to the serving form unchanged.
//! There is no way back: queries, validation and serialization all work on
//! the flat form.

#![deny(
    clippy::indexing_slicing,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use crate::node::{NodeData, NodeId};
use crate::stats::TreeStats;
use crate::tree::SuffixTree;

/// Size of one flat node record in bytes.
pub const FLAT_NODE_BYTES: usize = std::mem::size_of::<FlatNode>();

const LEAF_BIT: u32 = 1 << 31;
const CHILDREN_LEN_MASK: u32 = 0xFFFF;
pub(crate) const FIRST_CHAR_SHIFT: u32 = 16;
/// Meta-word bits not covered by the leaf tag, the packed first character, or
/// the child count. The writer never sets them and validation requires them to
/// be zero, so single-bit corruption cannot hide in slack bits.
pub(crate) const RESERVED_META_MASK: u32 =
    !(LEAF_BIT | (0xFF << FIRST_CHAR_SHIFT) | CHILDREN_LEN_MASK);

/// One 16-byte record of a [`FlatTree`] arena.
///
/// `start`/`end` are the incoming edge label offsets into the text (both zero
/// for the root). The payload word holds the suffix offset for leaves and the
/// first child id for internal nodes; the meta word packs the child count
/// (bits 0–15), the cached first edge character (bits 16–23) and the leaf tag
/// (bit 31).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlatNode {
    /// Start offset (inclusive) of the incoming edge label.
    pub start: u32,
    /// End offset (exclusive) of the incoming edge label.
    pub end: u32,
    payload: u32,
    meta: u32,
}

impl FlatNode {
    /// Rebuilds a record from its raw serialized words (deserialization
    /// only; [`crate::serialize::read_flat_tree`] validates the invariants).
    pub(crate) fn from_raw(start: u32, end: u32, payload: u32, meta: u32) -> FlatNode {
        FlatNode { start, end, payload, meta }
    }

    pub(crate) fn leaf(start: u32, end: u32, first_char: u8, suffix: u32) -> FlatNode {
        FlatNode {
            start,
            end,
            payload: suffix,
            meta: LEAF_BIT | (u32::from(first_char) << FIRST_CHAR_SHIFT),
        }
    }

    pub(crate) fn internal(
        start: u32,
        end: u32,
        first_char: u8,
        children_start: u32,
        len: u32,
    ) -> FlatNode {
        debug_assert!(len <= CHILDREN_LEN_MASK);
        FlatNode {
            start,
            end,
            payload: children_start,
            meta: len | (u32::from(first_char) << FIRST_CHAR_SHIFT),
        }
    }

    /// Whether this node is a leaf.
    pub fn is_leaf(&self) -> bool {
        self.meta & LEAF_BIT != 0
    }

    /// First character of the incoming edge label (0 for the root).
    pub fn first_char(&self) -> u8 {
        (self.meta >> FIRST_CHAR_SHIFT) as u8
    }

    /// The suffix offset if this node is a leaf.
    pub fn suffix(&self) -> Option<u32> {
        if self.is_leaf() {
            Some(self.payload)
        } else {
            None
        }
    }

    /// Length of the incoming edge label.
    pub fn edge_len(&self) -> u32 {
        self.end - self.start
    }

    /// The contiguous id range of this node's children (empty for leaves).
    pub fn children_range(&self) -> std::ops::Range<u32> {
        if self.is_leaf() {
            0..0
        } else {
            self.payload..self.payload + (self.meta & CHILDREN_LEN_MASK)
        }
    }
}

/// A frozen suffix (sub-)tree: one contiguous arena of [`FlatNode`] records,
/// children packed adjacently in `first_char` order. Node 0 is the root.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FlatTree {
    text_len: u32,
    nodes: Vec<FlatNode>,
}

/// One frozen vertical partition: the flat sub-tree indexing all suffixes
/// that share the S-prefix `prefix`. The serving-path counterpart of the
/// construction-form [`crate::Partition`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlatPartition {
    /// The variable-length S-prefix identifying the partition.
    pub prefix: Vec<u8>,
    /// The frozen sub-tree over the suffixes starting with `prefix`.
    pub tree: FlatTree,
}

impl FlatTree {
    /// Freezes a construction-form tree into the flat layout.
    ///
    /// Ids are assigned by a depth-first walk that hands every node's
    /// children one contiguous block as the node is reached, leftmost
    /// subtree first — siblings are adjacent (child lookup never leaves the
    /// cache-line run), the blocks are in pre-order of their parents, so
    /// every subtree is one id range ([`Self::descendants`]), and the blocks
    /// of a descent path sit close together in the arena. The pass is
    /// O(nodes) and deterministic: structurally equal inputs freeze to
    /// byte-identical arenas.
    #[expect(
        clippy::indexing_slicing,
        reason = "this walk assigns every id below node_count(); construction, off the query path"
    )]
    pub fn freeze(tree: &SuffixTree) -> FlatTree {
        let n = tree.node_count();
        let mut nodes = vec![FlatNode::default(); n];
        let mut next_free = 1u32;
        // (construction id, flat id) — flat ids are pre-assigned when the
        // parent is popped; pushing children in reverse pops the leftmost
        // first, which keeps its whole subtree in front of its siblings'.
        let mut stack: Vec<(NodeId, u32)> = vec![(tree.root(), 0)];
        while let Some((old, new)) = stack.pop() {
            let src = tree.node(old);
            match &src.data {
                NodeData::Leaf { suffix } => {
                    nodes[new as usize] =
                        FlatNode::leaf(src.start, src.end, src.first_char, *suffix);
                }
                NodeData::Internal { children } => {
                    // Child blocks are laid out in construction-child order;
                    // binary-search dispatch over the block is only sound if
                    // that order is strictly increasing by first character.
                    #[cfg(feature = "paranoid")]
                    assert!(
                        children
                            .windows(2)
                            .all(|w| tree.node(w[0]).first_char < tree.node(w[1]).first_char),
                        "freeze: children of construction node {old} are not strictly \
                         ordered by first character"
                    );
                    let start = next_free;
                    next_free += children.len() as u32;
                    nodes[new as usize] = FlatNode::internal(
                        src.start,
                        src.end,
                        src.first_char,
                        start,
                        children.len() as u32,
                    );
                    for (k, &c) in children.iter().enumerate().rev() {
                        stack.push((c, start + k as u32));
                    }
                }
            }
        }
        debug_assert_eq!(next_free as usize, n);
        FlatTree { text_len: tree.text_len() as u32, nodes }
    }

    /// Builds a flat tree directly from raw records (deserialization only).
    pub(crate) fn from_raw_parts(text_len: u32, nodes: Vec<FlatNode>) -> FlatTree {
        FlatTree { text_len, nodes }
    }

    /// A copy whose node `id` has its raw words `[start, end, payload, meta]`
    /// rewritten by `edit` — how unit tests plant a corrupt record.
    #[cfg(test)]
    pub(crate) fn with_raw_node(&self, id: NodeId, edit: impl Fn(&mut [u32; 4])) -> FlatTree {
        let mut nodes = self.nodes.clone();
        let n = &mut nodes[id as usize];
        let mut words = [n.start, n.end, n.payload, n.meta];
        edit(&mut words);
        *n = FlatNode::from_raw(words[0], words[1], words[2], words[3]);
        FlatTree { text_len: self.text_len, nodes }
    }

    /// Raw record fields `(start, end, payload, meta)` of node `id`
    /// (serialization only).
    #[expect(
        clippy::indexing_slicing,
        reason = "callers pass ids below node_count(): serialization and load-time validation"
    )]
    pub(crate) fn raw_node(&self, id: u32) -> (u32, u32, u32, u32) {
        let n = &self.nodes[id as usize];
        (n.start, n.end, n.payload, n.meta)
    }

    /// The raw child-count bits of node `id`'s meta word — reported even for
    /// leaves, whose count [`FlatNode::children_range`] hides. Validation
    /// uses this to reject leaf records smuggling a non-zero count.
    #[expect(
        clippy::indexing_slicing,
        reason = "callers pass ids below node_count(): serialization and load-time validation"
    )]
    pub(crate) fn raw_children_len(&self, id: u32) -> u32 {
        self.nodes[id as usize].meta & CHILDREN_LEN_MASK
    }

    /// The raw payload word of node `id` (suffix offset for leaves, first
    /// child id for internal nodes), for overflow-safe bounds validation.
    #[expect(
        clippy::indexing_slicing,
        reason = "callers pass ids below node_count(): serialization and load-time validation"
    )]
    pub(crate) fn raw_payload(&self, id: u32) -> u32 {
        self.nodes[id as usize].payload
    }

    /// The root node id (always 0).
    pub fn root(&self) -> NodeId {
        0
    }

    /// Length of the indexed text (including the terminal).
    pub fn text_len(&self) -> usize {
        self.text_len as usize
    }

    /// Total number of nodes (including the root).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Borrow a node record.
    #[expect(
        clippy::indexing_slicing,
        reason = "node ids are validated by validate_flat_structure on load"
    )]
    pub fn node(&self, id: NodeId) -> &FlatNode {
        &self.nodes[id as usize]
    }

    /// Iterator over all node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        0..self.nodes.len() as NodeId
    }

    /// Number of leaves.
    pub fn leaf_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.is_leaf()).count()
    }

    /// Number of internal nodes (including the root).
    pub fn internal_count(&self) -> usize {
        self.nodes.len() - self.leaf_count()
    }

    /// Exact in-memory size of the arena in bytes (16 bytes per node; the
    /// flat layout has no per-node heap blocks to estimate).
    pub fn approx_bytes(&self) -> usize {
        self.nodes.len() * FLAT_NODE_BYTES
    }

    /// Looks up the child of `id` whose incoming edge starts with `c`: a
    /// binary search over the node's contiguous child run.
    #[expect(
        clippy::indexing_slicing,
        reason = "children_range is validated against nodes.len() on load"
    )]
    pub fn child_starting_with(&self, id: NodeId, c: u8) -> Option<NodeId> {
        let range = self.node(id).children_range();
        let slice = &self.nodes[range.start as usize..range.end as usize];
        slice
            .binary_search_by_key(&c, |child| child.first_char())
            .ok()
            .map(|i| range.start + i as u32)
    }

    /// All leaf suffix offsets below `id` (inclusive), in lexicographic
    /// order (an explicit stack with children pushed in reverse).
    pub fn leaves_below(&self, id: NodeId) -> Vec<u32> {
        let mut out = Vec::new();
        let mut stack = vec![id];
        while let Some(cur) = stack.pop() {
            let node = self.node(cur);
            match node.suffix() {
                Some(suffix) => out.push(suffix),
                None => {
                    for c in node.children_range().rev() {
                        stack.push(c);
                    }
                }
            }
        }
        out
    }

    /// The lexicographically smallest suffix at or below `id`, as `(leaf id,
    /// suffix offset)`: the end of the first-child chain. `None` only for a
    /// childless root.
    pub(crate) fn leftmost_leaf(&self, mut id: NodeId) -> Option<(NodeId, u32)> {
        loop {
            let node = self.node(id);
            match node.suffix() {
                Some(suffix) => return Some((id, suffix)),
                None => id = node.children_range().next()?,
            }
        }
    }

    /// The ids of every node strictly below `id`, as one range (empty for a
    /// leaf). Child blocks are handed out in pre-order, so the subtree's
    /// blocks are adjacent: they start with `id`'s own block and end with
    /// the block of the last internal node of the subtree in pre-order —
    /// reached by following the last internal child down. Costs one block
    /// scan per level of that path, whatever the subtree's size.
    pub fn descendants(&self, id: NodeId) -> std::ops::Range<u32> {
        let mut last = self.nodes.get(id as usize).map_or(0..0, FlatNode::children_range);
        let start = last.start;
        while let Some(next) = self
            .nodes
            .get(last.start as usize..last.end as usize)
            .and_then(|block| block.iter().rev().find(|n| !n.is_leaf()))
        {
            last = next.children_range();
        }
        start..last.end
    }

    /// The records of every node strictly below `id`: one arena slice.
    fn below(&self, id: NodeId) -> &[FlatNode] {
        let ids = self.descendants(id);
        self.nodes.get(ids.start as usize..ids.end as usize).unwrap_or_default()
    }

    /// Number of leaves at or below `id` (inclusive): the leaf records of
    /// its descendant range, counted in one forward scan.
    pub fn leaf_count_below(&self, id: NodeId) -> usize {
        let own = self.nodes.get(id as usize).is_some_and(FlatNode::is_leaf);
        usize::from(own) + self.below(id).iter().filter(|n| n.is_leaf()).count()
    }

    /// The suffix offsets of every leaf at or below `id` (inclusive), read
    /// off its descendant range in arena order — *not* lexicographic order.
    pub fn suffixes_below(&self, id: NodeId) -> impl Iterator<Item = u32> + '_ {
        let own = self.nodes.get(id as usize).and_then(FlatNode::suffix);
        own.into_iter().chain(self.below(id).iter().filter_map(FlatNode::suffix))
    }

    /// All suffix offsets in lexicographic order (the suffix array of the
    /// indexed suffixes).
    pub fn lexicographic_suffixes(&self) -> Vec<u32> {
        self.leaves_below(self.root())
    }

    /// Depth-first traversal yielding `(node, string_depth)` pairs in
    /// lexicographic order.
    pub fn dfs(&self) -> Vec<(NodeId, u32)> {
        let mut out = Vec::with_capacity(self.nodes.len());
        let mut stack = vec![(self.root(), 0u32)];
        while let Some((cur, depth)) = stack.pop() {
            out.push((cur, depth));
            for c in self.node(cur).children_range().rev() {
                stack.push((c, depth + self.node(c).edge_len()));
            }
        }
        out
    }

    /// Structural statistics of the tree, including the exact arena size.
    pub fn stats(&self) -> TreeStats {
        let mut stats = TreeStats {
            nodes: self.nodes.len(),
            arena_bytes: self.approx_bytes(),
            ..TreeStats::default()
        };
        for (id, depth) in self.dfs() {
            let n = self.node(id);
            if n.is_leaf() {
                stats.leaves += 1;
            } else {
                stats.internal += 1;
                if id != self.root() {
                    stats.max_internal_depth = stats.max_internal_depth.max(depth);
                }
            }
            stats.max_depth = stats.max_depth.max(depth);
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::naive_suffix_tree;
    use crate::validate::validate_flat_tree;
    use era_string_store::{Alphabet, BlockCache, DiskStore, StoreTextSource};
    use std::sync::Arc;

    fn tree_for(body: &[u8]) -> (Vec<u8>, SuffixTree) {
        let mut text = body.to_vec();
        text.push(0);
        let t = naive_suffix_tree(&text);
        (text, t)
    }

    #[test]
    fn freeze_preserves_structure_and_counts() {
        for body in
            [&b"banana"[..], b"mississippi", b"TGGTGGTGGTGCGGTGATGGTGC", b"aaaa", b"a", b"abcd"]
        {
            let (text, t) = tree_for(body);
            let flat = FlatTree::freeze(&t);
            assert_eq!(flat.node_count(), t.node_count());
            assert_eq!(flat.leaf_count(), t.leaf_count());
            assert_eq!(flat.internal_count(), t.internal_count());
            assert_eq!(flat.text_len(), t.text_len());
            assert_eq!(flat.lexicographic_suffixes(), t.lexicographic_suffixes());
            let stats = flat.stats();
            assert_eq!(stats.leaves, t.leaf_count());
            assert_eq!(stats.internal, t.internal_count());
            // The deepest leaf spells the whole text.
            assert_eq!(stats.max_depth as usize, text.len());
            assert_eq!(stats.arena_bytes, flat.node_count() * FLAT_NODE_BYTES);
            // The flat arena is the compact layout the issue demands.
            assert!(flat.approx_bytes() * 10 <= t.approx_bytes() * 7, "body {body:?}");
            // The frozen form is the suffix tree of the text.
            validate_flat_tree(&flat, &text, Some(text.len())).unwrap();
        }
    }

    #[test]
    fn children_are_contiguous_and_sorted() {
        let (_, t) = tree_for(b"mississippi");
        let flat = FlatTree::freeze(&t);
        for id in flat.node_ids() {
            let range = flat.node(id).children_range();
            let firsts: Vec<u8> = range.clone().map(|c| flat.node(c).first_char()).collect();
            let mut sorted = firsts.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(firsts, sorted, "children of {id} not strictly sorted");
            for c in range {
                assert!((c as usize) < flat.node_count());
            }
        }
    }

    #[test]
    fn child_blocks_cover_every_non_root_node_once() {
        let (_, t) = tree_for(b"abracadabra");
        let flat = FlatTree::freeze(&t);
        // Every non-root id is claimed by exactly one parent's child range.
        let mut owner = vec![0usize; flat.node_count()];
        for id in flat.node_ids() {
            for c in flat.node(id).children_range() {
                owner[c as usize] += 1;
            }
        }
        assert_eq!(owner[0], 0, "the root has no parent");
        assert!(owner[1..].iter().all(|&n| n == 1), "child ranges must partition the arena");
    }

    #[test]
    fn queries_match_construction_form() {
        // The frozen form answers what the construction form spells: every
        // pattern's occurrences are the suffixes whose path label — read off
        // the Vec-node tree the arena was frozen from — starts with it.
        let (text, t) = tree_for(b"mississippi");
        let flat = FlatTree::freeze(&t);
        let suffixes: Vec<(u32, Vec<u8>)> = t
            .node_ids()
            .filter_map(|id| t.node(id).suffix().map(|s| (s, t.path_label(id, &text))))
            .collect();
        for pattern in
            [&b"ss"[..], b"issi", b"i", b"mississippi", b"p", b"sip", b"", b"zzz", b"ippi2"]
        {
            let mut expected: Vec<u32> = suffixes
                .iter()
                .filter(|(_, label)| label.starts_with(pattern))
                .map(|&(s, _)| s)
                .collect();
            expected.sort_unstable();
            let mut got = flat.try_find_all(&text, pattern).unwrap();
            got.sort_unstable();
            assert_eq!(got, expected, "pattern {pattern:?}");
            assert_eq!(flat.try_count(&text, pattern).unwrap(), expected.len());
            assert_eq!(flat.try_contains(&text, pattern).unwrap(), !expected.is_empty());
        }
        // "issi": the deepest internal node of either form.
        assert_eq!(flat.longest_repeated_substring().map(|(_, l)| l), Some(4));
    }

    #[test]
    fn store_backed_source_answers_like_the_slice() {
        let (text, t) = tree_for(b"TGGTGGTGGTGCGGTGATGGTGC");
        let flat = FlatTree::freeze(&t);
        // The text in a file, read through a cache of 4-symbol blocks.
        let body = &text[..text.len() - 1];
        let path =
            std::env::temp_dir().join(format!("era-layout-source-{}.era", std::process::id()));
        let store = DiskStore::create(path, body, Alphabet::infer(body).unwrap(), 4).unwrap();
        let cache = Arc::new(BlockCache::with_layout(1 << 10, 4, 2));
        let source = StoreTextSource::with_cache(&store, cache);
        for pattern in [&b"TG"[..], b"TGGTG", b"GATT", b"", b"CCC"] {
            assert_eq!(
                flat.try_find_all(&source, pattern).unwrap(),
                flat.try_find_all(&text, pattern).unwrap()
            );
            assert_eq!(
                flat.try_count(&source, pattern).unwrap(),
                flat.try_count(&text, pattern).unwrap()
            );
        }
    }

    #[test]
    fn leaf_count_below_matches_leaves_below() {
        let (_, t) = tree_for(b"abracadabra");
        let flat = FlatTree::freeze(&t);
        for id in flat.node_ids() {
            assert_eq!(flat.leaf_count_below(id), flat.leaves_below(id).len(), "node {id}");
        }
    }

    #[test]
    fn root_only_tree_freezes() {
        let t = SuffixTree::new(1);
        let flat = FlatTree::freeze(&t);
        assert_eq!(flat.node_count(), 1);
        assert_eq!(flat.leaf_count(), 0);
        assert!(flat.lexicographic_suffixes().is_empty());
        validate_flat_tree(&flat, &[0u8][..], Some(0)).unwrap();
    }
}
