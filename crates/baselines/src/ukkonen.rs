//! Ukkonen's online suffix-tree construction (in-memory baseline).
//!
//! `O(n)` time with suffix links, but the whole string *and* the whole tree
//! must reside in memory and the accesses have poor locality — the reason the
//! paper's Table 2 classifies it as impractical once the tree outgrows RAM.

use std::collections::BTreeMap;
use std::time::Instant;

use era::{ConstructionReport, EraResult};
use era_string_store::StringStore;
use era_suffix_tree::{PartitionedSuffixTree, SuffixTree};

const OPEN: usize = usize::MAX;

struct UkkNode {
    start: usize,
    end: usize, // exclusive; OPEN for leaves
    link: usize,
    children: BTreeMap<u8, usize>,
}

impl UkkNode {
    fn new(start: usize, end: usize) -> Self {
        UkkNode { start, end, link: 0, children: BTreeMap::new() }
    }

    fn edge_len(&self, pos: usize) -> usize {
        self.end.min(pos + 1) - self.start
    }
}

/// Builds the suffix tree of `text` (terminated by the unique byte `0`) with
/// Ukkonen's algorithm and converts it to the shared arena representation.
pub fn ukkonen_tree(text: &[u8]) -> SuffixTree {
    let n = text.len();
    assert!(n > 0 && text[n - 1] == 0, "text must end with the terminal byte");

    let mut nodes: Vec<UkkNode> = vec![UkkNode::new(0, 0)]; // 0 = root
    let mut active_node = 0usize;
    let mut active_edge = 0usize; // index into text
    let mut active_length = 0usize;
    let mut remainder = 0usize;

    for pos in 0..n {
        let c = text[pos];
        let mut pending_link: Option<usize> = None;
        remainder += 1;

        while remainder > 0 {
            if active_length == 0 {
                active_edge = pos;
            }
            let edge_char = text[active_edge];
            match nodes[active_node].children.get(&edge_char).copied() {
                None => {
                    // Rule 2: new leaf directly under the active node.
                    let leaf = nodes.len();
                    nodes.push(UkkNode::new(pos, OPEN));
                    nodes[active_node].children.insert(edge_char, leaf);
                    if let Some(p) = pending_link.take() {
                        nodes[p].link = active_node;
                    }
                    pending_link = Some(active_node);
                }
                Some(nxt) => {
                    // Walk down if the active length spans the whole edge.
                    let el = nodes[nxt].edge_len(pos);
                    if active_length >= el {
                        active_edge += el;
                        active_length -= el;
                        active_node = nxt;
                        continue;
                    }
                    if text[nodes[nxt].start + active_length] == c {
                        // Rule 3: the suffix is already present; move on.
                        active_length += 1;
                        if let Some(p) = pending_link.take() {
                            nodes[p].link = active_node;
                        }
                        break;
                    }
                    // Rule 2 with an edge split.
                    let split = nodes.len();
                    let nxt_start = nodes[nxt].start;
                    nodes.push(UkkNode::new(nxt_start, nxt_start + active_length));
                    nodes[active_node].children.insert(edge_char, split);
                    let leaf = nodes.len();
                    nodes.push(UkkNode::new(pos, OPEN));
                    nodes[split].children.insert(c, leaf);
                    nodes[nxt].start += active_length;
                    let nxt_first = text[nodes[nxt].start];
                    nodes[split].children.insert(nxt_first, nxt);
                    if let Some(p) = pending_link.take() {
                        nodes[p].link = split;
                    }
                    pending_link = Some(split);
                }
            }
            remainder -= 1;
            if active_node == 0 && active_length > 0 {
                active_length -= 1;
                active_edge = pos - remainder + 1;
            } else if active_node != 0 {
                active_node = nodes[active_node].link;
            }
        }
    }

    convert(&nodes, n, text)
}

/// Converts the pointer-based Ukkonen representation into the shared arena
/// [`SuffixTree`].
fn convert(nodes: &[UkkNode], n: usize, text: &[u8]) -> SuffixTree {
    let mut tree = SuffixTree::with_capacity(n, nodes.len());
    // Iterative DFS: (ukk node, arena parent, string depth of parent).
    let mut stack: Vec<(usize, u32, u32)> =
        nodes[0].children.values().rev().map(|&c| (c, 0u32, 0u32)).collect();
    while let Some((u, parent, depth)) = stack.pop() {
        let node = &nodes[u];
        let end = if node.end == OPEN { n } else { node.end };
        let label_len = (end - node.start) as u32;
        let first_char = text[node.start];
        if node.children.is_empty() {
            let suffix = n as u32 - (depth + label_len);
            tree.add_leaf(parent, node.start as u32, end as u32, first_char, suffix);
        } else {
            let id = tree.add_internal(parent, node.start as u32, end as u32, first_char);
            for &c in node.children.values().rev() {
                stack.push((c, id, depth + label_len));
            }
        }
    }
    tree
}

/// Runs Ukkonen against a store: the whole string is loaded into memory
/// (counted as one scan), the tree is built in memory, and the result is
/// wrapped in the common output types.
pub fn ukkonen_construct(
    store: &dyn StringStore,
) -> EraResult<(PartitionedSuffixTree, ConstructionReport)> {
    let start = Instant::now();
    let io_start = store.stats().snapshot();
    let text = store.read_all()?;
    let tree = ukkonen_tree(&text);
    let partitioned = PartitionedSuffixTree::single(text.len(), tree);
    let elapsed = start.elapsed();
    let report = ConstructionReport {
        algorithm: "ukkonen".into(),
        text_len: text.len(),
        memory_budget: 0,
        fm: 0,
        elapsed,
        vertical_time: std::time::Duration::ZERO,
        horizontal_time: elapsed,
        vertical_scans: 0,
        partitions: 1,
        virtual_trees: 1,
        io: store.stats().snapshot().since(&io_start),
        tree: partitioned.stats(),
        per_node: Vec::new(),
        ..Default::default()
    };
    Ok((partitioned, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use era_string_store::{Alphabet, InMemoryStore};
    use era_suffix_tree::{naive_suffix_tree, validate_suffix_tree};

    #[test]
    fn matches_naive_on_corpus() {
        for body in [
            "banana",
            "mississippi",
            "abracadabra",
            "aaaaaaaaaa",
            "abcabcabcabc",
            "GATTACAGATTACAGG",
            "TGGTGGTGGTGCGGTGATGGTGC",
            "z",
        ] {
            let mut text = body.as_bytes().to_vec();
            text.push(0);
            let tree = ukkonen_tree(&text);
            let naive = naive_suffix_tree(&text);
            validate_suffix_tree(&tree, &text, Some(text.len())).unwrap();
            assert_eq!(
                tree.lexicographic_suffixes(),
                naive.lexicographic_suffixes(),
                "body {body}"
            );
            assert_eq!(tree.internal_count(), naive.internal_count(), "body {body}");
        }
    }

    #[test]
    fn construct_through_store() {
        let body = b"GATTACAGATTACAGGATCC";
        let store = InMemoryStore::from_body(body, Alphabet::dna()).unwrap();
        let (tree, report) = ukkonen_construct(&store).unwrap();
        assert_eq!(tree.leaf_count(), body.len() + 1);
        assert_eq!(report.algorithm, "ukkonen");
        assert_eq!(report.io.full_scans, 1);
        let text: Vec<u8> = {
            let mut t = body.to_vec();
            t.push(0);
            t
        };
        assert_eq!(tree.try_find_all(&text, b"GATTACA").unwrap(), vec![0, 7]);
    }

    #[test]
    fn linearity_smoke_check() {
        // Not a rigorous complexity test, just a sanity check that 20k symbols
        // finish instantly and produce the right number of nodes.
        let body: Vec<u8> = (0..20_000u32).map(|i| b"ACGT"[(i % 4) as usize]).collect();
        let mut text = body;
        text.push(0);
        let tree = ukkonen_tree(&text);
        assert_eq!(tree.leaf_count(), text.len());
    }
}
