//! The partitioned suffix tree: ERA's final output.
//!
//! ERA never materialises one gigantic tree; the result of construction is a
//! set of independent sub-trees, one per variable-length S-prefix, assembled
//! under a tiny trie (Fig. 3 of the paper: "the trie for the human genome is
//! in the order of KB"). This module provides that representation together
//! with queries that are equivalent to querying the full tree.
//!
//! Construction builds mutable [`Partition`]s (`Vec`-node [`SuffixTree`]s)
//! and freezes each one ([`Partition::freeze`]) into a [`FlatPartition`] (a
//! cache-conscious [`FlatTree`] arena — see [`crate::layout`]) as soon as it
//! is finished, so the construction form of a sub-tree never outlives its
//! group and everything downstream — the query engine, the serializer, the
//! index — serves from the flat form.

use era_string_store::{StoreResult, TextSource};

use crate::assemble::assemble_from_sa_lcp;
use crate::layout::{FlatPartition, FlatTree};
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
    /// Builds a trie from the partition prefixes (in partition order).
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

    // era-check: allow(panic-path): edges_start/edges_len are produced by build over this arena
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

    /// Partitions that can contain occurrences of `pattern`.
    ///
    /// Walks the trie along the pattern. If the pattern ends inside the trie,
    /// every partition below the reached node is a candidate (all their
    /// suffixes start with the pattern). If a partition prefix ends before the
    /// pattern does, only that partition is a candidate (prefixes are
    /// prefix-free).
    // era-check: allow(panic-path): trie node ids are produced by build
    pub fn candidates(&self, pattern: &[u8]) -> Vec<u32> {
        let mut cur = 0u32;
        for &c in pattern {
            if let Some(p) = self.nodes[cur as usize].partition {
                return vec![p];
            }
            match self.children(cur).binary_search_by_key(&c, |&(s, _)| s) {
                Ok(k) => cur = self.children(cur)[k].1,
                Err(_) => return Vec::new(),
            }
        }
        // Pattern exhausted inside (or exactly at the end of) the trie.
        let mut out = Vec::new();
        self.collect_partitions(cur, &mut out);
        out
    }

    // era-check: allow(panic-path): trie node ids are produced by build
    fn collect_partitions(&self, node: u32, out: &mut Vec<u32>) {
        let mut stack = vec![node];
        while let Some(cur) = stack.pop() {
            if let Some(p) = self.nodes[cur as usize].partition {
                out.push(p);
            }
            for &(_, c) in self.children(cur).iter().rev() {
                stack.push(c);
            }
        }
    }

    /// `(string_depth, node, number_of_partitions_below)` for every trie node
    /// — used to account for repeated substrings shorter than the partition
    /// prefixes.
    fn depth_and_partition_counts(&self) -> Vec<(u32, u32, usize)> {
        let mut counts = vec![0usize; self.nodes.len()];
        let mut order = Vec::with_capacity(self.nodes.len());
        let mut stack = vec![(0u32, 0u32)];
        while let Some((cur, depth)) = stack.pop() {
            order.push((cur, depth));
            for &(_, c) in self.children(cur) {
                stack.push((c, depth + 1));
            }
        }
        for &(id, _) in order.iter().rev() {
            let mut c = usize::from(self.nodes[id as usize].partition.is_some());
            for &(_, child) in self.children(id) {
                c += counts[child as usize];
            }
            counts[id as usize] = c;
        }
        order.into_iter().map(|(id, d)| (d, id, counts[id as usize])).collect()
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

    /// Whether `pattern` occurs in the text behind any [`TextSource`].
    ///
    /// Stops at the first candidate partition that matches.
    // era-check: allow(panic-path): candidate partitions come from the trie built over this table
    pub fn try_contains<T: TextSource + ?Sized>(
        &self,
        text: &T,
        pattern: &[u8],
    ) -> StoreResult<bool> {
        if pattern.is_empty() {
            return Ok(self.leaf_count() > 0);
        }
        for p in self.trie.candidates(pattern) {
            if self.partitions[p as usize].tree.try_contains(text, pattern)? {
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// Number of occurrences of `pattern` behind any [`TextSource`].
    // era-check: allow(panic-path): candidate partitions come from the trie built over this table
    pub fn try_count<T: TextSource + ?Sized>(
        &self,
        text: &T,
        pattern: &[u8],
    ) -> StoreResult<usize> {
        if pattern.is_empty() {
            return Ok(self.leaf_count());
        }
        let mut total = 0usize;
        for p in self.trie.candidates(pattern) {
            total += self.partitions[p as usize].tree.try_count(text, pattern)?;
        }
        Ok(total)
    }

    /// All occurrence positions of `pattern` behind any [`TextSource`], in
    /// ascending position order.
    // era-check: allow(panic-path): candidate partitions come from the trie built over this table
    pub fn try_find_all<T: TextSource + ?Sized>(
        &self,
        text: &T,
        pattern: &[u8],
    ) -> StoreResult<Vec<u32>> {
        let mut out: Vec<u32> = if pattern.is_empty() {
            self.partitions.iter().flat_map(|p| p.tree.lexicographic_suffixes()).collect()
        } else {
            let mut out = Vec::new();
            for p in self.trie.candidates(pattern) {
                out.extend(self.partitions[p as usize].tree.try_find_all(text, pattern)?);
            }
            out
        };
        out.sort_unstable();
        Ok(out)
    }

    /// The longest substring occurring at least twice, as `(offset, length)`.
    pub fn longest_repeated_substring(&self, text: &[u8]) -> Option<(u32, u32)> {
        // Deep repeats live inside partitions.
        let mut best: Option<(u32, u32)> = None;
        for p in &self.partitions {
            if let Some((off, len)) = p.tree.longest_repeated_substring(text) {
                if best.map(|(_, l)| len > l).unwrap_or(true) {
                    best = Some((off, len));
                }
            }
        }
        // Shallow repeats may sit above the partition prefixes (inside the
        // trie): a trie node at depth d with at least two suffixes below it
        // witnesses a repeat of length d.
        for (depth, id, _parts) in self.trie.depth_and_partition_counts() {
            if depth == 0 {
                continue;
            }
            let leaves_below: usize = {
                let mut out = Vec::new();
                self.trie.collect_partitions(id, &mut out);
                out.iter().map(|&p| self.partitions[p as usize].tree.leaf_count()).sum()
            };
            if leaves_below >= 2 && best.map(|(_, l)| depth > l).unwrap_or(true) {
                // Any suffix below spells the repeated prefix at its offset.
                let mut parts = Vec::new();
                self.trie.collect_partitions(id, &mut parts);
                let leaf = self.partitions[parts[0] as usize].tree.lexicographic_suffixes()[0];
                best = Some((leaf, depth));
            }
        }
        best
    }

    /// Lexicographically sorted suffix offsets across all partitions
    /// (the suffix array of the text when the index is complete).
    pub fn lexicographic_suffixes(&self) -> Vec<u32> {
        self.partitions.iter().flat_map(|p| p.tree.lexicographic_suffixes()).collect()
    }

    /// Merges every partition into a single in-memory [`SuffixTree`].
    ///
    /// Useful for validation and — once frozen — for queries (such as longest
    /// common substring) that are simpler on a single tree. Requires the text.
    pub fn to_single_tree(&self, text: &[u8]) -> SuffixTree {
        let sa = self.lexicographic_suffixes();
        assert!(!sa.is_empty(), "cannot merge an empty partitioned tree");
        let mut lcp = vec![0u32; sa.len()];
        for i in 1..sa.len() {
            let a = &text[sa[i - 1] as usize..];
            let b = &text[sa[i] as usize..];
            lcp[i] = a.iter().zip(b.iter()).take_while(|(x, y)| x == y).count() as u32;
        }
        assemble_from_sa_lcp(text, &sa, &lcp)
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
    use crate::validate::{validate_partitioned, validate_suffix_tree};

    /// Builds a partitioned tree by hand from the naive full tree: one
    /// partition per distinct first character.
    fn partition_by_first_char(text: &[u8]) -> PartitionedSuffixTree {
        use std::collections::BTreeMap;
        let mut groups: BTreeMap<u8, Vec<u32>> = BTreeMap::new();
        for i in 0..text.len() as u32 {
            groups.entry(text[i as usize]).or_default().push(i);
        }
        let parts: Vec<Partition> = groups
            .into_iter()
            .map(|(c, mut leaves)| {
                leaves.sort_by(|&a, &b| text[a as usize..].cmp(&text[b as usize..]));
                let mut lcp = vec![0u32; leaves.len()];
                for i in 1..leaves.len() {
                    let a = &text[leaves[i - 1] as usize..];
                    let b = &text[leaves[i] as usize..];
                    lcp[i] = a.iter().zip(b.iter()).take_while(|(x, y)| x == y).count() as u32;
                }
                Partition {
                    prefix: vec![c],
                    tree: crate::assemble::assemble_from_sa_lcp(text, &leaves, &lcp),
                }
            })
            .collect();
        PartitionedSuffixTree::new(text.len(), parts)
    }

    #[test]
    fn partitioned_queries_match_full_tree() {
        let text = b"mississippi\0";
        let part = partition_by_first_char(text);
        let full = FlatTree::freeze(&naive_suffix_tree(text));
        validate_partitioned(&part, text).unwrap();
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
    fn to_single_tree_is_valid_and_equivalent() {
        let text = b"GATTACAGATTACA\0";
        let part = partition_by_first_char(text);
        let merged = part.to_single_tree(text);
        validate_suffix_tree(&merged, text, Some(text.len())).unwrap();
        let full = naive_suffix_tree(text);
        assert_eq!(merged.lexicographic_suffixes(), full.lexicographic_suffixes());
        assert_eq!(merged.internal_count(), full.internal_count());
    }

    #[test]
    fn longest_repeated_substring_matches_full_tree() {
        for body in ["mississippi", "abracadabra", "TGGTGGTGGTGCGGTGATGGTGC", "aaaa"] {
            let mut text = body.as_bytes().to_vec();
            text.push(0);
            let part = partition_by_first_char(&text);
            let full = FlatTree::freeze(&naive_suffix_tree(&text));
            let expected = full.longest_repeated_substring(&text).map(|(_, l)| l);
            let got = part.longest_repeated_substring(&text).map(|(_, l)| l);
            assert_eq!(got, expected, "body {body}");
        }
    }

    #[test]
    fn trie_candidates() {
        let prefixes = vec![b"TGA".to_vec(), b"TGC".to_vec(), b"TGG".to_vec(), b"A".to_vec()];
        let trie = PrefixTrie::build(&prefixes);
        assert!(trie.node_count() >= 6);
        // Pattern shorter than prefixes: all TG* partitions are candidates.
        let mut c = trie.candidates(b"TG");
        c.sort_unstable();
        assert_eq!(c, vec![0, 1, 2]);
        // Pattern longer than a prefix: only that partition.
        assert_eq!(trie.candidates(b"TGCGGT"), vec![1]);
        // Pattern that matches nothing.
        assert!(trie.candidates(b"C").is_empty());
        // Pattern equal to a short prefix.
        assert_eq!(trie.candidates(b"A"), vec![3]);
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
