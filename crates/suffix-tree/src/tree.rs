//! The arena suffix tree.

use crate::node::{Node, NodeData, NodeId, NO_NODE};

/// A suffix tree (or suffix sub-tree) in its mutable *construction* form: an
/// arena of nodes that own their child vectors.
///
/// Edge labels are `(start, end)` offsets into the input text, so the
/// structure itself never stores string data — matching the `O(n)` space
/// representation described in §2 of the paper. Node 0 is always the root.
/// The form is built and split, never read: queries, validation and
/// serialization work on what [`FlatTree::freeze`](crate::FlatTree::freeze)
/// makes of a finished tree (the one exception is the leaf order Trellis
/// merges by, [`Self::lexicographic_suffixes`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SuffixTree {
    text_len: u32,
    nodes: Vec<Node>,
}

impl SuffixTree {
    /// Creates an empty tree (only the root) for a text of `text_len` bytes
    /// (including the terminal).
    pub fn new(text_len: usize) -> Self {
        SuffixTree { text_len: text_len as u32, nodes: vec![Node::root()] }
    }

    /// Creates an empty tree and pre-allocates space for `capacity` nodes.
    pub fn with_capacity(text_len: usize, capacity: usize) -> Self {
        let mut nodes = Vec::with_capacity(capacity.max(1));
        nodes.push(Node::root());
        SuffixTree { text_len: text_len as u32, nodes }
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

    /// Borrow a node.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id as usize]
    }

    /// Mutably borrow a node.
    pub fn node_mut(&mut self, id: NodeId) -> &mut Node {
        &mut self.nodes[id as usize]
    }

    /// Iterator over all node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        0..self.nodes.len() as NodeId
    }

    /// Children of `id` (empty for leaves).
    pub fn children(&self, id: NodeId) -> &[NodeId] {
        self.node(id).children()
    }

    /// Looks up the child of `id` whose incoming edge starts with `c`.
    pub fn child_starting_with(&self, id: NodeId, c: u8) -> Option<NodeId> {
        let children = self.children(id);
        children.binary_search_by_key(&c, |&ch| self.node(ch).first_char).ok().map(|i| children[i])
    }

    /// Number of leaves.
    pub fn leaf_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.is_leaf()).count()
    }

    /// Number of internal nodes (including the root).
    pub fn internal_count(&self) -> usize {
        self.nodes.len() - self.leaf_count()
    }

    /// Adds a leaf under `parent` with edge label `text[start..end]`
    /// representing the suffix starting at `suffix`.
    ///
    /// `first_char` must equal `text[start]`.
    pub fn add_leaf(
        &mut self,
        parent: NodeId,
        start: u32,
        end: u32,
        first_char: u8,
        suffix: u32,
    ) -> NodeId {
        let id = self.push(Node::leaf(parent, start, end, first_char, suffix));
        self.attach(parent, id);
        id
    }

    /// Adds an internal node under `parent` with edge label `text[start..end]`.
    pub fn add_internal(&mut self, parent: NodeId, start: u32, end: u32, first_char: u8) -> NodeId {
        let id = self.push(Node::internal(parent, start, end, first_char));
        self.attach(parent, id);
        id
    }

    /// Splits the incoming edge of `child` after `split_len` symbols,
    /// inserting a new internal node between `child` and its parent.
    ///
    /// `child_first_after_split` must be the text character at
    /// `child.start + split_len`; passing it explicitly keeps batch assembly
    /// free of string accesses (the character is available as `c1` in the
    /// paper's `B` array).
    ///
    /// Returns the id of the new internal node.
    pub fn split_edge(
        &mut self,
        child: NodeId,
        split_len: u32,
        child_first_after_split: u8,
    ) -> NodeId {
        assert!(split_len > 0, "split length must be positive");
        let (start, end, parent, first_char) = {
            let c = self.node(child);
            assert!(
                split_len < c.edge_len(),
                "split length {} must be shorter than the edge ({})",
                split_len,
                c.edge_len()
            );
            (c.start, c.end, c.parent, c.first_char)
        };
        let mid_id = self.push(Node::internal(parent, start, start + split_len, first_char));
        // Re-wire the parent: replace `child` with `mid_id` in place (ordering
        // is unchanged because the first character is the same).
        {
            let p = self.node_mut(parent);
            if let NodeData::Internal { children } = &mut p.data {
                #[expect(clippy::expect_used, reason = "caller guarantees the child is present")]
                let slot = children.iter().position(|&c| c == child).expect("child present");
                children[slot] = mid_id;
            } else {
                panic!("parent of a split edge must be internal");
            }
        }
        // Re-point the child below the new node.
        {
            let c = self.node_mut(child);
            c.parent = mid_id;
            c.start = start + split_len;
            c.first_char = child_first_after_split;
            debug_assert!(c.start < end);
        }
        // Attach the child to the new internal node.
        if let NodeData::Internal { children } = &mut self.node_mut(mid_id).data {
            children.push(child);
        }
        mid_id
    }

    fn push(&mut self, node: Node) -> NodeId {
        let id = self.nodes.len() as NodeId;
        assert!(id != NO_NODE, "arena overflow");
        self.nodes.push(node);
        id
    }

    fn attach(&mut self, parent: NodeId, child: NodeId) {
        let first = self.node(child).first_char;
        let pos = {
            let children = self.children(parent);
            children
                .binary_search_by_key(&first, |&ch| self.node(ch).first_char)
                .unwrap_or_else(|insert_at| insert_at)
        };
        match &mut self.node_mut(parent).data {
            NodeData::Internal { children } => children.insert(pos, child),
            NodeData::Leaf { .. } => panic!("cannot attach a child to a leaf"),
        }
    }

    /// String depth (number of symbols from the root) of `id`.
    #[cfg(test)]
    pub(crate) fn string_depth(&self, id: NodeId) -> u32 {
        let mut depth = 0;
        let mut cur = id;
        while cur != self.root() {
            let n = self.node(cur);
            depth += n.edge_len();
            cur = n.parent;
        }
        depth
    }

    /// The path label of `id` extracted from `text`.
    #[cfg(test)]
    pub(crate) fn path_label(&self, id: NodeId, text: &[u8]) -> Vec<u8> {
        let mut parts: Vec<(u32, u32)> = Vec::new();
        let mut cur = id;
        while cur != self.root() {
            let n = self.node(cur);
            parts.push((n.start, n.end));
            cur = n.parent;
        }
        let mut label = Vec::new();
        for &(s, e) in parts.iter().rev() {
            label.extend_from_slice(&text[s as usize..e as usize]);
        }
        label
    }

    /// All suffix offsets in lexicographic order (a suffix array of the
    /// indexed suffixes). For a complete suffix tree this is the suffix array
    /// of the text.
    pub fn lexicographic_suffixes(&self) -> Vec<u32> {
        let mut out = Vec::new();
        let mut stack = vec![self.root()];
        while let Some(cur) = stack.pop() {
            match &self.node(cur).data {
                NodeData::Leaf { suffix } => out.push(*suffix),
                NodeData::Internal { children } => {
                    // Push in reverse so that lexicographically smallest is
                    // processed first.
                    for &c in children.iter().rev() {
                        stack.push(c);
                    }
                }
            }
        }
        out
    }

    /// Estimated in-memory size of the tree in bytes.
    pub fn approx_bytes(&self) -> usize {
        let child_slots: usize = self.nodes.iter().map(|n| n.children().len()).sum();
        self.nodes.len() * std::mem::size_of::<Node>() + child_slots * std::mem::size_of::<NodeId>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds the suffix tree for "banana$" by hand (Figure 1 of the paper)
    /// and checks navigation helpers.
    fn banana_tree() -> (Vec<u8>, SuffixTree) {
        let text = b"banana\0".to_vec();
        let mut t = SuffixTree::new(text.len());
        let root = t.root();
        // $ leaf (suffix 6)
        t.add_leaf(root, 6, 7, 0, 6);
        // "a" internal node: suffixes 1, 3, 5
        let a = t.add_internal(root, 1, 2, b'a');
        t.add_leaf(a, 6, 7, 0, 5); // a$
        let na = t.add_internal(a, 2, 4, b'n'); // "na"
        t.add_leaf(na, 6, 7, 0, 3); // na$
        t.add_leaf(na, 4, 7, b'n', 1); // nana$
                                       // banana$ leaf
        t.add_leaf(root, 0, 7, b'b', 0);
        // "na" internal: suffixes 2, 4
        let n = t.add_internal(root, 2, 4, b'n');
        t.add_leaf(n, 6, 7, 0, 4);
        t.add_leaf(n, 4, 7, b'n', 2);
        (text, t)
    }

    #[test]
    fn counts_and_navigation() {
        let (_text, t) = banana_tree();
        assert_eq!(t.leaf_count(), 7);
        assert_eq!(t.internal_count(), 4); // root + a + na + n
        assert_eq!(t.node_count(), 11);
        let a = t.child_starting_with(t.root(), b'a').unwrap();
        assert_eq!(t.node(a).first_char, b'a');
        assert!(t.child_starting_with(t.root(), b'z').is_none());
    }

    #[test]
    fn lexicographic_suffixes_match_banana_suffix_array() {
        let (_text, t) = banana_tree();
        // Suffix array of banana$ with $ smallest: $, a$, ana$, anana$, banana$, na$, nana$
        assert_eq!(t.lexicographic_suffixes(), vec![6, 5, 3, 1, 0, 4, 2]);
    }

    #[test]
    fn path_labels_spell_suffixes() {
        let (text, t) = banana_tree();
        for id in t.node_ids() {
            if let Some(s) = t.node(id).suffix() {
                assert_eq!(t.path_label(id, &text), text[s as usize..].to_vec());
            }
        }
    }

    #[test]
    fn string_depth_accumulates() {
        let (_text, t) = banana_tree();
        let a = t.child_starting_with(t.root(), b'a').unwrap();
        let na = t.child_starting_with(a, b'n').unwrap();
        assert_eq!(t.string_depth(a), 1);
        assert_eq!(t.string_depth(na), 3);
    }

    #[test]
    fn split_edge_inserts_internal_node() {
        let text = b"banana\0";
        let mut t = SuffixTree::new(text.len());
        let leaf = t.add_leaf(t.root(), 0, 7, b'b', 0);
        let mid = t.split_edge(leaf, 3, text[3]);
        assert_eq!(t.node(mid).edge_len(), 3);
        assert_eq!(t.node(leaf).parent, mid);
        assert_eq!(t.node(leaf).start, 3);
        assert_eq!(t.node(leaf).first_char, b'a');
        assert_eq!(t.children(t.root()), &[mid]);
        assert_eq!(t.children(mid), &[leaf]);
        assert_eq!(t.string_depth(leaf), 7);
    }

    #[test]
    #[should_panic(expected = "split length")]
    fn split_edge_rejects_full_length() {
        let mut t = SuffixTree::new(7);
        let leaf = t.add_leaf(t.root(), 0, 7, b'b', 0);
        t.split_edge(leaf, 7, 0);
    }

    #[test]
    fn stats_reflect_structure() {
        let (_text, t) = banana_tree();
        let s = crate::FlatTree::freeze(&t).stats();
        assert_eq!(s.leaves, 7);
        assert_eq!(s.internal, 4);
        assert_eq!(s.max_depth, 7); // banana$
        assert_eq!(s.max_internal_depth, 3); // "ana"... the "na" node below "a"
        assert!(t.approx_bytes() > 0);
    }

    #[test]
    fn children_stay_sorted() {
        let text = b"cba\0";
        let mut t = SuffixTree::new(text.len());
        t.add_leaf(t.root(), 0, 4, b'c', 0);
        t.add_leaf(t.root(), 2, 4, b'a', 2);
        t.add_leaf(t.root(), 1, 4, b'b', 1);
        t.add_leaf(t.root(), 3, 4, 0, 3);
        let firsts: Vec<u8> = t.children(t.root()).iter().map(|&c| t.node(c).first_char).collect();
        assert_eq!(firsts, vec![0, b'a', b'b', b'c']);
    }
}
