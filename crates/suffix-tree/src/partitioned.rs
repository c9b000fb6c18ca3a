//! The partitioned suffix tree: ERA's final output.
//!
//! ERA never materialises one gigantic tree; the result of construction is a
//! set of independent sub-trees, one per variable-length S-prefix, assembled
//! under a tiny trie (Fig. 3 of the paper: "the trie for the human genome is
//! in the order of KB"). This module provides that representation together
//! with queries that are equivalent to querying the full tree.
//!
//! Construction (ERA-str+mem) assembles each sub-tree straight into a
//! [`FlatPartition`] — a cache-conscious [`FlatTree`] arena, see
//! [`crate::layout`] — from its group's sorted suffixes and LCPs, with no
//! `Vec`-node [`SuffixTree`] in between; everything downstream — the query
//! engine, the serializer, the index — serves from that flat form. A
//! [`Partition`] (a `Vec`-node sub-tree, frozen by [`Partition::freeze`])
//! remains only where a construction form is built on purpose: ERA-str's
//! branch-edge construction, the baselines, and the tests that pin the arena
//! against the freeze of that form.

#![deny(
    clippy::indexing_slicing,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use std::ops::Range;

use era_string_store::{StoreResult, TextSource};

use crate::layout::{FlatPartition, FlatTree};
use crate::query::MatchResult;
use crate::stats::TreeStats;
use crate::tree::SuffixTree;

/// One vertical partition in its mutable construction form: the sub-tree
/// indexing all suffixes that share the S-prefix `prefix`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// The variable-length S-prefix identifying the partition.
    pub prefix: Vec<u8>,
    /// The sub-tree over the suffixes starting with `prefix`.
    pub tree: SuffixTree,
}

impl Partition {
    /// Freezes the sub-tree into the flat serving layout, dropping the
    /// construction form.
    pub fn freeze(self) -> FlatPartition {
        FlatPartition { tree: FlatTree::freeze(&self.tree), prefix: self.prefix }
    }
}

/// A small trie over the partition prefixes, used to route queries to the
/// relevant sub-tree(s).
///
/// Like the sub-trees themselves the trie is frozen for serving: every node
/// stores a `(start, len)` range into one shared edge arena instead of its
/// own `Vec`, so routing walks contiguous memory and the size accounting is
/// exact.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PrefixTrie {
    nodes: Vec<TrieNode>,
    /// `(symbol, child index)` pairs of every node, packed back to back;
    /// each node's slice is sorted by symbol.
    edges: Vec<(u8, u32)>,
}

#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct TrieNode {
    /// Start of this node's slice in the shared `edges` arena.
    edges_start: u32,
    /// Number of outgoing edges.
    edges_len: u32,
    /// Partition index if a prefix ends exactly at this node.
    partition: Option<u32>,
}

impl PrefixTrie {
    /// Builds a trie from the partition prefixes, in partition order, which
    /// must be sorted ([`PrefixTrie::candidates`] hands out index ranges).
    #[expect(
        clippy::indexing_slicing,
        reason = "ids index this build's own vectors; construction, off the query path"
    )]
    pub fn build(prefixes: &[Vec<u8>]) -> Self {
        // Grow with per-node vectors, then freeze into the packed arena.
        let mut children: Vec<Vec<(u8, u32)>> = vec![Vec::new()];
        let mut partition: Vec<Option<u32>> = vec![None];
        for (idx, prefix) in prefixes.iter().enumerate() {
            let mut cur = 0usize;
            for &c in prefix {
                cur = match children[cur].binary_search_by_key(&c, |&(s, _)| s) {
                    Ok(i) => children[cur][i].1 as usize,
                    Err(i) => {
                        let id = children.len();
                        children[cur].insert(i, (c, id as u32));
                        children.push(Vec::new());
                        partition.push(None);
                        id
                    }
                };
            }
            partition[cur] = Some(idx as u32);
        }
        let mut nodes = Vec::with_capacity(children.len());
        let mut edges = Vec::with_capacity(children.iter().map(Vec::len).sum());
        for (kids, part) in children.into_iter().zip(partition) {
            nodes.push(TrieNode {
                edges_start: edges.len() as u32,
                edges_len: kids.len() as u32,
                partition: part,
            });
            edges.extend(kids);
        }
        PrefixTrie { nodes, edges }
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "edges_start/edges_len are produced by build over this arena"
    )]
    fn children(&self, node: u32) -> &[(u8, u32)] {
        let n = &self.nodes[node as usize];
        &self.edges[n.edges_start as usize..(n.edges_start + n.edges_len) as usize]
    }

    /// Number of trie nodes (reported in experiments as the "trie on top").
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Exact in-memory size of the trie in bytes: the node records plus the
    /// packed edge arena. (The old estimate charged 5 bytes per edge and
    /// ignored both the per-node `Vec` headers it actually paid and edge-slot
    /// padding; the packed layout makes the figure exact instead.)
    pub fn approx_bytes(&self) -> usize {
        self.nodes.len() * std::mem::size_of::<TrieNode>()
            + self.edges.len() * std::mem::size_of::<(u8, u32)>()
    }

    /// Partitions that can contain occurrences of `pattern`, as one range of
    /// partition indices — no allocation.
    ///
    /// Walks the trie along the pattern. If a partition prefix ends before the
    /// pattern does, only that partition is a candidate (prefixes are
    /// prefix-free). If the pattern ends inside the trie, every partition
    /// below the reached node is a candidate (all their suffixes start with
    /// the pattern; the empty pattern reaches the root, so that is every
    /// partition). The prefixes were inserted in sorted order, so the
    /// partitions below a node are contiguous: from the one at the end of its
    /// first-edge path to the one at the end of its last-edge path.
    #[expect(clippy::indexing_slicing, reason = "trie node ids are produced by build")]
    pub fn candidates(&self, pattern: &[u8]) -> Range<u32> {
        let mut cur = 0u32;
        for &c in pattern {
            if let Some(p) = self.nodes[cur as usize].partition {
                return p..p + 1;
            }
            match self.children(cur).binary_search_by_key(&c, |&(s, _)| s) {
                Ok(k) => cur = self.children(cur)[k].1,
                Err(_) => return 0..0,
            }
        }
        match (self.outermost_partition(cur, false), self.outermost_partition(cur, true)) {
            (Some(first), Some(last)) => first..last + 1,
            _ => 0..0,
        }
    }

    /// The partition reached from `node` by always taking the first edge (or,
    /// `rightmost`, the last); `None` below a node with neither (an empty
    /// trie).
    fn outermost_partition(&self, mut node: u32, rightmost: bool) -> Option<u32> {
        loop {
            if let Some(p) = self.nodes.get(node as usize)?.partition {
                return Some(p);
            }
            let edges = self.children(node);
            node = if rightmost { edges.last() } else { edges.first() }?.1;
        }
    }

    /// Folds one summary per partition up the trie: entry `id` of the result
    /// is `(string depth of trie node id, merge of the summaries of every
    /// partition at or below it, left to right)`, starting from `empty` — how
    /// the whole-index operations see what lies above the S-prefixes, where
    /// the sub-trees of one merged tree would join. Node ids grow along every
    /// root path and, [`PartitionedSuffixTree`] inserting its prefixes in
    /// sorted order, in lexicographic preorder.
    #[expect(
        clippy::indexing_slicing,
        reason = "trie ids and partition indices come from build; whole-index, off the query path"
    )]
    fn fold_up<A: Copy>(
        &self,
        per_partition: &[A],
        empty: A,
        merge: impl Fn(A, A) -> A,
    ) -> Vec<(u32, A)> {
        let own = |n: &TrieNode| n.partition.map_or(empty, |p| per_partition[p as usize]);
        let mut out: Vec<(u32, A)> = self.nodes.iter().map(|n| (0, own(n))).collect();
        for id in 0..self.nodes.len() {
            for &(_, child) in self.children(id as u32) {
                out[child as usize].0 = out[id].0 + 1;
            }
        }
        for id in (0..self.nodes.len()).rev() {
            for &(_, child) in self.children(id as u32) {
                out[id].1 = merge(out[id].1, out[child as usize].1);
            }
        }
        out
    }
}

/// The complete index: frozen partitions plus the routing trie.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionedSuffixTree {
    text_len: usize,
    partitions: Vec<FlatPartition>,
    trie: PrefixTrie,
}

impl PartitionedSuffixTree {
    /// Builds the index from construction-form partitions, freezing every
    /// sub-tree on the way — for callers that hold all their sub-trees at once
    /// (tests, the in-memory baselines). The prefixes must be prefix-free.
    pub fn new(text_len: usize, partitions: Vec<Partition>) -> Self {
        Self::from_flat(text_len, partitions.into_iter().map(Partition::freeze).collect())
    }

    /// Builds the index from already-frozen partitions — what the
    /// construction pipeline (which freezes each group as it finishes) and
    /// deserialization hand over: sorts them by prefix and builds the routing
    /// trie. The prefixes must be prefix-free (which vertical partitioning
    /// guarantees).
    pub fn from_flat(text_len: usize, mut partitions: Vec<FlatPartition>) -> Self {
        partitions.sort_by(|a, b| a.prefix.cmp(&b.prefix));
        let prefixes: Vec<Vec<u8>> = partitions.iter().map(|p| p.prefix.clone()).collect();
        let trie = PrefixTrie::build(&prefixes);
        PartitionedSuffixTree { text_len, partitions, trie }
    }

    /// Length of the indexed text (including the terminal).
    pub fn text_len(&self) -> usize {
        self.text_len
    }

    /// The frozen partitions in lexicographic prefix order.
    pub fn partitions(&self) -> &[FlatPartition] {
        &self.partitions
    }

    /// The routing trie.
    pub fn trie(&self) -> &PrefixTrie {
        &self.trie
    }

    /// Total number of leaves across all partitions (equals the text length
    /// for a complete index).
    pub fn leaf_count(&self) -> usize {
        self.partitions.iter().map(|p| p.tree.leaf_count()).sum()
    }

    /// Merged structural statistics over all sub-trees.
    pub fn stats(&self) -> TreeStats {
        self.partitions.iter().fold(TreeStats::default(), |acc, p| acc.merge(&p.tree.stats()))
    }

    /// The sub-trees of the partitions [`PrefixTrie::candidates`] routes
    /// `pattern` to (every partition for the empty pattern).
    fn candidate_trees(&self, pattern: &[u8]) -> impl Iterator<Item = &FlatTree> {
        let range = self.trie.candidates(pattern);
        let parts = self.partitions.get(range.start as usize..range.end as usize);
        parts.unwrap_or_default().iter().map(|p| &p.tree)
    }

    /// Whether `pattern` occurs in the text behind any [`TextSource`].
    ///
    /// Stops at the first candidate partition that matches.
    pub fn try_contains<T: TextSource + ?Sized>(
        &self,
        text: &T,
        pattern: &[u8],
    ) -> StoreResult<bool> {
        for tree in self.candidate_trees(pattern) {
            if tree.try_contains(text, pattern)? {
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// Number of occurrences of `pattern` behind any [`TextSource`]: per
    /// candidate partition, the leaf records of the matched subtree's arena
    /// range ([`FlatTree::leaf_count_below`]).
    pub fn try_count<T: TextSource + ?Sized>(
        &self,
        text: &T,
        pattern: &[u8],
    ) -> StoreResult<usize> {
        let mut total = 0usize;
        for tree in self.candidate_trees(pattern) {
            total += tree.try_count(text, pattern)?;
        }
        Ok(total)
    }

    /// All occurrence positions of `pattern` behind any [`TextSource`], in
    /// ascending position order: [`Self::try_locate`]'s page with no offset
    /// and no limit.
    pub fn try_find_all<T: TextSource + ?Sized>(
        &self,
        text: &T,
        pattern: &[u8],
    ) -> StoreResult<Vec<u32>> {
        self.try_locate(text, pattern, 0, None)
    }

    /// One page of the occurrence positions of `pattern` behind any
    /// [`TextSource`], ascending: skip the first `offset`, then return at
    /// most `limit` (`None` = all the rest).
    ///
    /// Every candidate partition's matched subtree is one arena range, whose
    /// leaf suffixes are gathered in one forward read
    /// ([`FlatTree::suffixes_below`]). Of those, only the `offset + limit`
    /// smallest are selected (`select_nth_unstable`, linear) and sorted, so
    /// a page of `k` costs the gather plus O(k log k), not a sort of every
    /// occurrence.
    pub fn try_locate<T: TextSource + ?Sized>(
        &self,
        text: &T,
        pattern: &[u8],
        offset: usize,
        limit: Option<usize>,
    ) -> StoreResult<Vec<u32>> {
        let mut out = Vec::new();
        for tree in self.candidate_trees(pattern) {
            if let MatchResult::Complete { node } = tree.try_match_pattern(text, pattern)? {
                out.extend(tree.suffixes_below(node));
            }
        }
        let keep = limit.map_or(out.len(), |limit| offset.saturating_add(limit));
        if keep < out.len() {
            out.select_nth_unstable(keep);
            out.truncate(keep);
        }
        out.sort_unstable();
        out.drain(..offset.min(out.len()));
        Ok(out)
    }

    /// The longest substring occurring at least twice, as `(offset, length)`.
    pub fn longest_repeated_substring(&self) -> Option<(u32, u32)> {
        // Deep repeats live inside partitions.
        let mut best: Option<(u32, u32)> = None;
        for p in &self.partitions {
            if let Some((off, len)) = p.tree.longest_repeated_substring() {
                if best.map(|(_, l)| len > l).unwrap_or(true) {
                    best = Some((off, len));
                }
            }
        }
        // Shallow repeats may sit above the partition prefixes (inside the
        // trie): a trie node at depth d with at least two suffixes below it
        // witnesses a repeat of length d, spelled by any of them — here the
        // first. Among equally deep trie nodes the last one wins.
        let below: Vec<(usize, u32)> = self
            .partitions
            .iter()
            .map(|p| (p.tree.leaf_count(), p.tree.leftmost_leaf(0).map_or(u32::MAX, |(_, s)| s)))
            .collect();
        let join = |a: (usize, u32), b: (usize, u32)| (a.0 + b.0, if a.0 > 0 { a.1 } else { b.1 });
        for (depth, (leaves, leaf)) in
            self.trie.fold_up(&below, (0, u32::MAX), join).into_iter().rev()
        {
            if depth > 0 && leaves >= 2 && best.map(|(_, l)| depth > l).unwrap_or(true) {
                best = Some((leaf, depth));
            }
        }
        best
    }

    /// Longest common substring of the two halves of a generalized text
    /// `left # right $` (`separator_pos` is the index of `#`), as
    /// `(offset, length)` of an occurrence in the left half; `None` if the
    /// strings share no symbol. No merged tree is built: each sub-tree runs
    /// [`FlatTree::longest_common_substring`]'s pass on its own, and a trie
    /// node at depth d below which both sides of the separator occur is a
    /// candidate of length d — met in the order one merged tree would list
    /// them, so ties resolve as they would there.
    #[expect(
        clippy::indexing_slicing,
        reason = "partition indices come from the trie built over this table; whole-index, off the query path"
    )]
    pub fn longest_common_substring(&self, separator_pos: usize) -> Option<(u32, u32)> {
        let passes: Vec<_> =
            self.partitions.iter().map(|p| p.tree.common_substring_pass(separator_pos)).collect();
        let sides: Vec<(u32, bool)> =
            passes.iter().map(|&(_, left, right)| (left, right)).collect();
        let both = |a: (u32, bool), b: (u32, bool)| (a.0.min(b.0), a.1 || b.1);
        let mut best: Option<(u32, u32)> = None;
        let folded = self.trie.fold_up(&sides, (u32::MAX, false), both);
        for (node, (depth, (left, right))) in self.trie.nodes.iter().zip(folded) {
            let spans =
                depth > 0 && right && left != u32::MAX && left + depth <= separator_pos as u32;
            let above = spans.then_some((left, depth));
            let inside = node.partition.and_then(|p| passes[p as usize].0);
            for (off, len) in above.into_iter().chain(inside) {
                if best.map(|(_, l)| len > l).unwrap_or(true) {
                    best = Some((off, len));
                }
            }
        }
        best
    }

    /// Lexicographically sorted suffix offsets across all partitions
    /// (the suffix array of the text when the index is complete).
    pub fn lexicographic_suffixes(&self) -> Vec<u32> {
        self.partitions.iter().flat_map(|p| p.tree.lexicographic_suffixes()).collect()
    }

    /// Convenience constructor for a single-partition index over the whole
    /// text (used by in-memory baselines so that all algorithms share one
    /// output type).
    pub fn single(text_len: usize, tree: SuffixTree) -> Self {
        PartitionedSuffixTree::new(text_len, vec![Partition { prefix: Vec::new(), tree }])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::naive_suffix_tree;
    use crate::validate::validate_partitioned;

    /// Builds a partitioned tree by hand: one partition per distinct first
    /// `k` symbols (a suffix shorter than that is its own partition).
    fn partition_by_prefix(text: &[u8], k: usize) -> PartitionedSuffixTree {
        use std::collections::BTreeMap;
        let mut groups: BTreeMap<&[u8], Vec<u32>> = BTreeMap::new();
        for i in 0..text.len() {
            groups.entry(&text[i..text.len().min(i + k)]).or_default().push(i as u32);
        }
        let parts: Vec<Partition> = groups
            .into_iter()
            .map(|(prefix, leaves)| Partition {
                prefix: prefix.to_vec(),
                tree: crate::assemble::sub_tree_of(text, leaves),
            })
            .collect();
        PartitionedSuffixTree::new(text.len(), parts)
    }

    fn partition_by_first_char(text: &[u8]) -> PartitionedSuffixTree {
        partition_by_prefix(text, 1)
    }

    #[test]
    fn partitioned_queries_match_full_tree() {
        let text = b"mississippi\0";
        let part = partition_by_first_char(text);
        let full = FlatTree::freeze(&naive_suffix_tree(text));
        validate_partitioned(&part, &text[..]).unwrap();
        for pattern in [&b"ss"[..], b"issi", b"i", b"p", b"zzz", b"mississippi", b""] {
            let mut expected = full.try_find_all(&text[..], pattern).unwrap();
            expected.sort_unstable();
            assert_eq!(
                part.try_find_all(&text[..], pattern).unwrap(),
                expected,
                "pattern {pattern:?}"
            );
            assert_eq!(part.try_count(&text[..], pattern).unwrap(), expected.len());
            assert_eq!(part.try_contains(&text[..], pattern).unwrap(), !expected.is_empty());
        }
    }

    #[test]
    fn partitions_are_served_flat() {
        let text = b"mississippi\0";
        let part = partition_by_first_char(text);
        let stats = part.stats();
        assert_eq!(stats.arena_bytes, stats.nodes * crate::layout::FLAT_NODE_BYTES);
        assert!((stats.bytes_per_node() - crate::layout::FLAT_NODE_BYTES as f64).abs() < 1e-9);
    }

    #[test]
    fn lexicographic_merge_equals_suffix_array() {
        let text = b"abracadabra\0";
        let part = partition_by_first_char(text);
        let full = naive_suffix_tree(text);
        assert_eq!(part.lexicographic_suffixes(), full.lexicographic_suffixes());
    }

    #[test]
    fn longest_repeated_substring_matches_full_tree() {
        for body in ["mississippi", "abracadabra", "TGGTGGTGGTGCGGTGATGGTGC", "aaaa", "abcd"] {
            let mut text = body.as_bytes().to_vec();
            text.push(0);
            let full = FlatTree::freeze(&naive_suffix_tree(&text));
            let expected = full.longest_repeated_substring().map(|(_, l)| l);
            // Prefixes of 4 symbols put every repeat of "abracadabra" but
            // "abra" itself, and every repeat of "abcd", above the sub-trees.
            for k in [1, 2, 4] {
                let got = partition_by_prefix(&text, k).longest_repeated_substring();
                assert_eq!(got.map(|(_, l)| l), expected, "body {body}, prefixes of {k}");
                if let Some((off, len)) = got {
                    let repeat = &text[off as usize..(off + len) as usize];
                    assert!(full.try_count(&text, repeat).unwrap() >= 2, "body {body}");
                }
            }
        }
    }

    #[test]
    fn longest_common_substring_matches_full_tree() {
        // The answer of the one merged tree, offset included — whether it is
        // found inside a sub-tree ("abc" under prefixes of 1) or only above
        // them ("abc" under prefixes of 4), is absent, or competes with a
        // repeat that spans the '#' ("ab#a").
        for body in ["xabcy#zabcw", "aaa#bbb", "ab#ab", "GATTACA#TTACAGA", "abab#baba"] {
            let mut text = body.as_bytes().to_vec();
            text.push(0);
            let sep = body.find('#').unwrap();
            let expected =
                FlatTree::freeze(&naive_suffix_tree(&text)).longest_common_substring(sep);
            for k in [1, 2, 4] {
                let part = partition_by_prefix(&text, k);
                validate_partitioned(&part, &text[..]).unwrap();
                assert_eq!(
                    part.longest_common_substring(sep),
                    expected,
                    "body {body}, prefixes of {k}"
                );
            }
        }
    }

    #[test]
    fn trie_candidates() {
        let prefixes = vec![b"A".to_vec(), b"TGA".to_vec(), b"TGC".to_vec(), b"TGG".to_vec()];
        let trie = PrefixTrie::build(&prefixes);
        assert!(trie.node_count() >= 6);
        // Pattern shorter than prefixes: all TG* partitions are candidates,
        // one contiguous range of the sorted partitions.
        assert_eq!(trie.candidates(b"TG"), 1..4);
        assert_eq!(trie.candidates(b"T"), 1..4);
        // Pattern longer than a prefix: only that partition.
        assert_eq!(trie.candidates(b"TGCGGT"), 2..3);
        // Pattern that matches nothing.
        assert!(trie.candidates(b"C").is_empty());
        assert!(trie.candidates(b"TT").is_empty());
        // Pattern equal to a short prefix.
        assert_eq!(trie.candidates(b"A"), 0..1);
        // The empty pattern reaches every partition.
        assert_eq!(trie.candidates(b""), 0..4);
        assert!(PrefixTrie::build(&[]).candidates(b"").is_empty());
        assert_eq!(PrefixTrie::build(&[Vec::new()]).candidates(b"ACGT"), 0..1);
        assert!(trie.approx_bytes() > 0);
    }

    #[test]
    fn trie_bytes_account_for_every_edge() {
        let prefixes = vec![b"TGA".to_vec(), b"TGC".to_vec(), b"TGG".to_vec(), b"A".to_vec()];
        let trie = PrefixTrie::build(&prefixes);
        // 7 nodes (root, T, TG, TGA, TGC, TGG, A) and 6 edges.
        assert_eq!(trie.node_count(), 7);
        let expected = 7 * std::mem::size_of::<TrieNode>() + 6 * std::mem::size_of::<(u8, u32)>();
        assert_eq!(trie.approx_bytes(), expected);
    }

    #[test]
    fn single_partition_wrapper() {
        let text = b"banana\0";
        let tree = naive_suffix_tree(text);
        let single = PartitionedSuffixTree::single(text.len(), tree);
        assert_eq!(single.leaf_count(), 7);
        assert_eq!(single.try_count(&text[..], b"an").unwrap(), 2);
        assert_eq!(single.try_find_all(&text[..], b"na").unwrap(), vec![2, 4]);
    }
}
