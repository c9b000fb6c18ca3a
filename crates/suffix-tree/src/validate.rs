//! Invariant checking, on the flat form.
//!
//! [`validate_flat_structure`] is the text-free tier every `ERAFLAT1` load
//! runs. [`validate_flat_tree`] and [`validate_partitioned`] add the one
//! text-backed walk, `check_labels`, over any [`TextSource`] — the text is
//! read where it lives, never materialized. This is what `SuffixIndex::verify`
//! (`EraConfig::paranoid`, `era-check fsck --deep`) runs, one sub-tree at a
//! time, and — through [`validate_suffix_tree`], which freezes first — how
//! the test suites certify every construction algorithm (ERA, WaveFront, B²ST,
//! Trellis, Ukkonen, naive).

use std::fmt;

use era_string_store::{StoreError, TextSource};

use crate::layout::FlatTree;
use crate::node::NodeId;
use crate::partitioned::PartitionedSuffixTree;
use crate::tree::SuffixTree;

/// A violated suffix-tree invariant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidationError {
    /// An internal node other than the root has fewer than two children.
    UnaryInternalNode(NodeId),
    /// Two sibling edges begin with the same character, or siblings are out of
    /// order.
    SiblingOrder(NodeId),
    /// A node's cached first character does not match the text.
    FirstCharMismatch(NodeId),
    /// A non-root node has an empty edge label.
    EmptyEdge(NodeId),
    /// A child's parent pointer does not point back to its parent.
    ParentMismatch(NodeId),
    /// The path label of a leaf does not spell the suffix it claims (or, for
    /// a partition, does not start with its prefix). A mislabelled internal
    /// edge is reported through the leftmost leaf below it.
    WrongSuffix {
        /// The offending leaf.
        leaf: NodeId,
        /// The suffix offset stored in the leaf.
        suffix: u32,
    },
    /// A suffix is indexed by more than one leaf.
    DuplicateSuffix(u32),
    /// The set of indexed suffixes differs from the expected set.
    WrongLeafSet {
        /// Number of leaves found.
        found: usize,
        /// Number of leaves expected.
        expected: usize,
    },
    /// An edge label range is out of bounds of the text.
    EdgeOutOfBounds(NodeId),
    /// A flat node's child range leaves the arena.
    ChildRangeOutOfBounds(NodeId),
    /// A flat node's child block does not start where the previous block in
    /// pre-order ended (the root's: at id 1) — it overlaps another block,
    /// claims the root, or the arena is not in the freeze's pre-order layout.
    ChildBlockOutOfOrder(NodeId),
    /// The child blocks end before the arena does: from this id on, no node
    /// is reachable from the root.
    UnreachableNode(NodeId),
    /// A flat leaf record carries a non-zero child count in its meta word.
    LeafMetaInconsistent(NodeId),
    /// The root record of a flat arena is tagged as a leaf.
    RootIsLeaf,
    /// A flat node's meta word has reserved (unused) bits set.
    ReservedMetaBits(NodeId),
    /// The root record's unused fields (edge offsets, cached first character)
    /// are not zero.
    RootRecordNotCanonical,
    /// The text source failed while a label was read from it (the message is
    /// the store's): nothing is known about the tree.
    TextRead(String),
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidationError::UnaryInternalNode(n) => {
                write!(f, "internal node {n} has fewer than 2 children")
            }
            ValidationError::SiblingOrder(n) => {
                write!(f, "children of node {n} are not strictly ordered by first character")
            }
            ValidationError::FirstCharMismatch(n) => {
                write!(f, "cached first character of node {n} does not match the text")
            }
            ValidationError::EmptyEdge(n) => write!(f, "non-root node {n} has an empty edge label"),
            ValidationError::ParentMismatch(n) => {
                write!(f, "parent pointer of node {n} is inconsistent")
            }
            ValidationError::WrongSuffix { leaf, suffix } => {
                write!(f, "leaf {leaf} does not spell suffix {suffix}")
            }
            ValidationError::DuplicateSuffix(s) => {
                write!(f, "suffix {s} is indexed by more than one leaf")
            }
            ValidationError::WrongLeafSet { found, expected } => {
                write!(f, "tree indexes {found} suffixes, expected {expected}")
            }
            ValidationError::EdgeOutOfBounds(n) => {
                write!(f, "edge label of node {n} is out of text bounds")
            }
            ValidationError::ChildRangeOutOfBounds(n) => {
                write!(f, "child range of node {n} leaves the arena")
            }
            ValidationError::ChildBlockOutOfOrder(n) => {
                write!(f, "child block of node {n} is not where pre-order puts it")
            }
            ValidationError::UnreachableNode(n) => {
                write!(f, "node {n} is not reachable from the root")
            }
            ValidationError::LeafMetaInconsistent(n) => {
                write!(f, "leaf {n} carries a non-zero child count in its meta word")
            }
            ValidationError::RootIsLeaf => write!(f, "the root record is tagged as a leaf"),
            ValidationError::ReservedMetaBits(n) => {
                write!(f, "meta word of node {n} has reserved bits set")
            }
            ValidationError::RootRecordNotCanonical => {
                write!(f, "root record's unused edge/first-char fields are not zero")
            }
            ValidationError::TextRead(e) => write!(f, "reading the text failed: {e}"),
        }
    }
}

impl std::error::Error for ValidationError {}

impl From<StoreError> for ValidationError {
    fn from(e: StoreError) -> Self {
        ValidationError::TextRead(e.to_string())
    }
}

/// Validates a single construction-form suffix (sub-)tree against the text:
/// every child's parent pointer must name its parent, and the frozen form
/// must pass [`validate_flat_tree`] — the construction form has no validator
/// of its own. Node ids in the errors of that second half are the frozen
/// (depth-first) ids.
///
/// If `expected_leaves` is `Some(k)` the tree must contain exactly `k` leaves;
/// a complete suffix tree of `text` has `text.len()` leaves.
pub fn validate_suffix_tree(
    tree: &SuffixTree,
    text: &[u8],
    expected_leaves: Option<usize>,
) -> Result<(), ValidationError> {
    for id in tree.node_ids() {
        if let Some(&c) = tree.children(id).iter().find(|&&c| tree.node(c).parent != id) {
            return Err(ValidationError::ParentMismatch(c));
        }
    }
    validate_flat_tree(&FlatTree::freeze(tree), text, expected_leaves)
}

/// Validates the *structural* invariants of a flat arena without touching the
/// text: the cheap subset of [`validate_flat_tree`] that deserialization runs
/// on every `ERAFLAT1` load (`era-check fsck` runs it too, then adds the
/// text-backed deep checks).
///
/// Checked in one pre-order pass from the root, in O(nodes) time and
/// O(depth × fan-out) scratch:
///
/// * the arena is non-empty and node 0 (the root) is not a leaf;
/// * the child blocks are laid out in pre-order of their parents, as
///   [`FlatTree::freeze`] hands them out: each internal node's block starts
///   where the previous block ended (the root's at id 1), stays inside the
///   arena, and the last one ends at `node_count()`. The blocks therefore
///   tile the arena — every node but the root has exactly one parent and is
///   reachable from the root, so the arena encodes a tree, not a DAG or a
///   forest — and every subtree is one contiguous id range, which
///   [`FlatTree::descendants`] and with it `Count` and `Locate` rely on. One
///   arena passes per tree shape;
/// * every leaf's meta word carries a zero child count (the count bits share
///   the word with the leaf tag, so a corrupted tag would otherwise smuggle
///   in a bogus child range);
/// * children are strictly ordered by their cached `first_char`, so the
///   binary-search child dispatch is sound;
/// * every non-root node has a non-empty edge range with `end` within the
///   recorded text length, and internal non-root nodes have at least two
///   children;
/// * no record sets reserved meta-word bits, and the root's unused fields
///   (edge offsets, first-char cache) are zero — every bit of every record
///   is load-bearing, so no single-bit corruption can go undetected.
pub fn validate_flat_structure(tree: &FlatTree) -> Result<(), ValidationError> {
    let n = tree.node_count() as u64;
    let root = tree.root();
    if tree.node(root).is_leaf() {
        return Err(ValidationError::RootIsLeaf);
    }
    // The root's edge fields and first-char cache are unused by every reader;
    // requiring them to be zero (as the writer emits them) keeps every bit of
    // the record load-bearing, so single-bit corruption cannot hide in them.
    {
        let (start, end, _, _) = tree.raw_node(root);
        if start != 0 || end != 0 || tree.node(root).first_char() != 0 {
            return Err(ValidationError::RootRecordNotCanonical);
        }
    }
    let text_len = tree.text_len() as u32;
    // The freeze's own walk: pop a node, hand its children the next block,
    // push them in reverse so the leftmost subtree comes first. `next` is
    // the first id no block has claimed yet; it only grows, so no node is
    // reached twice.
    let mut next = 1u64;
    let mut stack = vec![root];
    while let Some(id) = stack.pop() {
        let node = tree.node(id);
        if tree.raw_node(id).3 & crate::layout::RESERVED_META_MASK != 0 {
            return Err(ValidationError::ReservedMetaBits(id));
        }
        if node.is_leaf() && tree.raw_children_len(id) != 0 {
            return Err(ValidationError::LeafMetaInconsistent(id));
        }
        if id != root {
            if node.start >= node.end {
                return Err(ValidationError::EmptyEdge(id));
            }
            if node.end > text_len {
                return Err(ValidationError::EdgeOutOfBounds(id));
            }
            if !node.is_leaf() && tree.raw_children_len(id) < 2 {
                return Err(ValidationError::UnaryInternalNode(id));
            }
        }
        if node.is_leaf() {
            continue;
        }
        // Bounds first, on the raw words: `children_range()` adds payload and
        // count, which must not be allowed to overflow on untrusted bytes.
        let (len, payload) = (tree.raw_children_len(id), tree.raw_payload(id));
        if u64::from(payload) != next {
            return Err(ValidationError::ChildBlockOutOfOrder(id));
        }
        next += u64::from(len);
        if next > n {
            return Err(ValidationError::ChildRangeOutOfBounds(id));
        }
        let children = node.children_range();
        for c in children.clone().skip(1) {
            if tree.node(c).first_char() <= tree.node(c - 1).first_char() {
                return Err(ValidationError::SiblingOrder(id));
            }
        }
        stack.extend(children.rev());
    }
    if next != n {
        return Err(ValidationError::UnreachableNode(next as NodeId));
    }
    Ok(())
}

/// Validates a flat serving-layout tree against the text behind any
/// [`TextSource`]: [`validate_flat_structure`], then every edge label, cached
/// first character and leaf suffix (`check_labels`, the one text-backed walk).
///
/// If `expected_leaves` is `Some(k)` the tree must contain exactly `k` leaves;
/// a complete suffix tree of the text has `text.len()` leaves.
pub fn validate_flat_tree<T: TextSource + ?Sized>(
    tree: &FlatTree,
    text: &T,
    expected_leaves: Option<usize>,
) -> Result<(), ValidationError> {
    validate_flat_structure(tree)?;
    check_labels(tree, text, &[], |_| Ok(()))?;
    match expected_leaves {
        Some(expected) if tree.leaf_count() != expected => {
            Err(ValidationError::WrongLeafSet { found: tree.leaf_count(), expected })
        }
        _ => Ok(()),
    }
}

/// Validates a partitioned suffix tree, one sub-tree at a time: every
/// sub-tree is well formed (as by [`validate_flat_tree`]), every leaf of
/// partition `p` is an occurrence of `p`, and across all partitions the leaves
/// are exactly the suffixes `0..text.len()` — one bit per suffix, so a suffix
/// indexed twice is caught when its second leaf is met.
pub fn validate_partitioned<T: TextSource + ?Sized>(
    tree: &PartitionedSuffixTree,
    text: &T,
) -> Result<(), ValidationError> {
    let mut seen = vec![0u64; text.len().div_ceil(64)];
    let mut found = 0usize;
    for part in tree.partitions() {
        validate_flat_structure(&part.tree)?;
        check_labels(&part.tree, text, &part.prefix, |suffix| {
            // `check_labels` only reports leaves that spell a suffix of the
            // text, so `suffix < text.len()`.
            let (word, bit) = (suffix as usize / 64, 1u64 << (suffix % 64));
            if seen[word] & bit != 0 {
                return Err(ValidationError::DuplicateSuffix(suffix));
            }
            seen[word] |= bit;
            found += 1;
            Ok(())
        })?;
    }
    if found != text.len() {
        return Err(ValidationError::WrongLeafSet { found, expected: text.len() });
    }
    Ok(())
}

/// The text-backed half of validation and the only code here that reads the
/// text: one depth-first walk of a structurally valid arena that checks every
/// node's edge bound and cached first character, that every leaf's path label
/// is exactly the suffix it claims and starts with `prefix`, and hands each
/// verified leaf to `on_leaf`.
///
/// The walk holds the path label of the node it is at (as long as the deepest
/// internal node, not as the text) and, per node, a *witness*: the leftmost
/// leaf below, already shown to spell the node's path label. A child then
/// costs its first symbol; unless it is the first child (whose leftmost leaf
/// *is* the parent's witness), one `common_prefix` of the parent's path label
/// against its own leftmost leaf — the LCP of two adjacent suffixes, so the
/// tree pays the sum of its LCP array; and its edge label, read once and
/// compared against `text[witness + depth..]` — except for a leaf edge that is
/// `text[suffix + depth..text_len]`, as every builder emits it, which is its
/// own witness. By induction from the root every path label is a prefix of
/// the leftmost leaf's suffix, and a leaf is its own leftmost leaf.
fn check_labels<T: TextSource + ?Sized>(
    tree: &FlatTree,
    text: &T,
    prefix: &[u8],
    mut on_leaf: impl FnMut(u32) -> Result<(), ValidationError>,
) -> Result<(), ValidationError> {
    let (n, root) = (text.len(), tree.root());
    // A root without children has no label to check.
    let Some(first) = tree.leftmost_leaf(root) else { return Ok(()) };
    let mut path: Vec<u8> = Vec::new();
    // (node, string depth of its parent, the witness a first child inherits)
    let mut stack = vec![(root, 0usize, Some(first))];
    while let Some((id, parent_depth, inherited)) = stack.pop() {
        let node = tree.node(id);
        let (leaf, suffix) = inherited
            .or_else(|| tree.leftmost_leaf(id))
            .ok_or(ValidationError::UnaryInternalNode(id))?;
        let wrong = ValidationError::WrongSuffix { leaf, suffix };
        let at = suffix as usize;
        let depth = parent_depth + node.edge_len() as usize;
        path.truncate(parent_depth);
        if id != root {
            if node.end as usize > n {
                return Err(ValidationError::EdgeOutOfBounds(id));
            }
            if text.symbol_at(node.start as usize)? != node.first_char() {
                return Err(ValidationError::FirstCharMismatch(id));
            }
            if at + depth > n || node.is_leaf() && at + depth < n {
                return Err(wrong);
            }
            if inherited.is_none() && text.common_prefix(at, n, &path)? != parent_depth {
                return Err(wrong);
            }
            if !(node.is_leaf() && node.start as usize == at + parent_depth) {
                for pos in node.start..node.end {
                    path.push(text.symbol_at(pos as usize)?);
                }
                let label = &path[parent_depth..];
                if text.common_prefix(at + parent_depth, n, label)? != label.len() {
                    return Err(wrong);
                }
            }
            // The first node of a root path to reach the partition prefix
            // answers for every leaf below it; a leaf cannot end above it.
            if parent_depth < prefix.len()
                && (depth >= prefix.len() || node.is_leaf())
                && text.common_prefix(at, n, prefix)? != prefix.len()
            {
                return Err(wrong);
            }
        }
        if node.is_leaf() {
            on_leaf(suffix)?;
        }
        for (k, c) in node.children_range().enumerate().rev() {
            stack.push((c, depth, (k == 0).then_some((leaf, suffix))));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assemble::sub_tree_of;
    use crate::catalog::{encode_catalog, parse_catalog, CatalogFile, TextSegment};
    use crate::layout::{FlatNode, FlatPartition, FIRST_CHAR_SHIFT};
    use crate::naive::naive_suffix_tree;
    use crate::partitioned::Partition;
    use crate::query::MatchResult;
    use crate::serialize::{read_flat_tree, write_flat_tree};
    use era_string_store::{Alphabet, BlockCache, DiskStore, PackedDiskStore, StoreTextSource};
    use std::collections::{BTreeMap, VecDeque};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn naive_tree_passes() {
        let text = b"mississippi\0";
        let t = naive_suffix_tree(text);
        validate_suffix_tree(&t, text, Some(text.len())).unwrap();
    }

    #[test]
    fn detects_wrong_leaf_count() {
        let text = b"abc\0";
        let t = naive_suffix_tree(text);
        let err = validate_suffix_tree(&t, text, Some(99)).unwrap_err();
        assert!(matches!(err, ValidationError::WrongLeafSet { found: 4, expected: 99 }));
    }

    #[test]
    fn detects_unary_internal_node() {
        let text = b"ab\0";
        let mut t = SuffixTree::new(3);
        let internal = t.add_internal(t.root(), 0, 1, b'a');
        t.add_leaf(internal, 1, 3, b'b', 0);
        let err = validate_suffix_tree(&t, text, None).unwrap_err();
        assert!(matches!(err, ValidationError::UnaryInternalNode(_)));
    }

    #[test]
    fn detects_wrong_suffix_label() {
        let text = b"ab\0";
        let mut t = SuffixTree::new(3);
        // Claims to be suffix 1 ("b$") but spells "ab$".
        t.add_leaf(t.root(), 0, 3, b'a', 1);
        let err = validate_suffix_tree(&t, text, None).unwrap_err();
        assert!(matches!(err, ValidationError::WrongSuffix { .. }));
    }

    #[test]
    fn detects_first_char_mismatch() {
        let text = b"ab\0";
        let mut t = SuffixTree::new(3);
        t.add_leaf(t.root(), 0, 3, b'x', 0);
        let err = validate_suffix_tree(&t, text, None).unwrap_err();
        assert!(matches!(err, ValidationError::FirstCharMismatch(_)));
    }

    #[test]
    fn detects_out_of_bounds_edge() {
        let text = b"ab\0";
        let mut t = SuffixTree::new(5); // lies about text length
        t.add_leaf(t.root(), 0, 5, b'a', 0);
        let err = validate_suffix_tree(&t, text, None).unwrap_err();
        assert!(matches!(err, ValidationError::EdgeOutOfBounds(_)));
    }

    /// `check`'s verdict over the text as a slice — after making sure a raw
    /// and a packed store that read a file, four symbols a block, give the
    /// same one.
    fn verdict(
        text: &[u8],
        check: impl Fn(&dyn TextSource) -> Result<(), ValidationError>,
    ) -> Result<(), ValidationError> {
        static SEQ: AtomicUsize = AtomicUsize::new(0);
        let body = &text[..text.len() - 1];
        let alphabet = Alphabet::infer(body).unwrap();
        let path = std::env::temp_dir().join(format!(
            "era-verdict-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let raw = DiskStore::create(path.with_extension("era"), body, alphabet.clone(), 4).unwrap();
        let packed =
            PackedDiskStore::create(path.with_extension("erap"), body, alphabet, 1).unwrap();
        let blocks = || Arc::new(BlockCache::with_layout(1 << 10, 4, 2));
        let over_slice = check(&text);
        assert_eq!(check(&StoreTextSource::with_cache(&raw, blocks())), over_slice);
        assert_eq!(check(&StoreTextSource::with_cache(&packed, blocks())), over_slice);
        over_slice
    }

    #[test]
    fn flat_validator_reads_every_label_through_any_source() {
        let text = b"mississippi\0";
        let flat = FlatTree::freeze(&naive_suffix_tree(text));
        let check = |t: &FlatTree| verdict(text, |src| validate_flat_tree(t, src, Some(12)));
        check(&flat).unwrap();

        // The node "issi": edge "ssi", leaves "ppi$" (4) and "ssippi$" (1).
        let MatchResult::Complete { node: issi } =
            flat.try_match_pattern(&text[..], b"issi").unwrap()
        else {
            panic!("issi occurs")
        };
        let leaves: Vec<NodeId> = flat.node(issi).children_range().collect();
        assert_eq!(flat.leaves_below(issi), vec![4, 1]);

        // Swapped leaf suffixes.
        let swapped =
            flat.with_raw_node(leaves[0], |w| w[2] = 1).with_raw_node(leaves[1], |w| w[2] = 4);
        assert!(matches!(check(&swapped), Err(ValidationError::WrongSuffix { suffix: 1, .. })));
        // An internal edge shifted by one: "sis" or "sip" instead of "ssi",
        // with the cached first character still right.
        let shifted = flat.with_raw_node(issi, |w| (w[0], w[1]) = (w[0] + 1, w[1] + 1));
        assert!(matches!(check(&shifted), Err(ValidationError::WrongSuffix { suffix: 4, .. })));
        // A stale cached first character ('t' keeps the siblings ordered).
        let stale = flat.with_raw_node(issi, |w| w[3] += 1 << FIRST_CHAR_SHIFT);
        assert_eq!(check(&stale), Err(ValidationError::FirstCharMismatch(issi)));
    }

    #[test]
    fn partition_validator_checks_prefixes_and_the_cover() {
        let text = b"mississippi\0";
        // One partition per first symbol; `with` swaps in hand-made ones.
        let build = |with: &[(&[u8], Vec<u32>)]| {
            let mut leaves: BTreeMap<&[u8], Vec<u32>> = BTreeMap::new();
            for i in 0..text.len() {
                leaves.entry(&text[i..i + 1]).or_default().push(i as u32);
            }
            leaves.extend(with.iter().cloned());
            let parts = leaves
                .into_iter()
                .map(|(prefix, leaves)| Partition {
                    prefix: prefix.to_vec(),
                    tree: sub_tree_of(text, leaves),
                })
                .collect();
            PartitionedSuffixTree::new(text.len(), parts)
        };
        let check = |with: &[(&[u8], Vec<u32>)]| {
            let tree = build(with);
            verdict(text, |src| validate_partitioned(&tree, src))
        };
        check(&[]).unwrap();
        // "ppi$" (8) filed under 's': every sub-tree is a sound sub-tree and
        // the cover is complete, only the prefix is not spelled.
        let misfiled = check(&[(b"p", vec![9]), (b"s", vec![2, 3, 5, 6, 8])]);
        assert!(matches!(misfiled, Err(ValidationError::WrongSuffix { suffix: 8, .. })));
        // A suffix nobody indexes.
        let missing = check(&[(b"p", vec![9])]);
        assert_eq!(missing, Err(ValidationError::WrongLeafSet { found: 11, expected: 12 }));
        // "ssippi$" (5) and "ssissippi$" (2) indexed under "s" and "ss".
        let twice = check(&[(b"ss", vec![2, 5])]);
        assert_eq!(twice, Err(ValidationError::DuplicateSuffix(5)));
    }

    /// The same tree with its child blocks handed out breadth-first instead
    /// of in pre-order: every link and every sibling order is kept, only
    /// where the blocks sit in the arena differs.
    fn breadth_first(tree: &FlatTree) -> FlatTree {
        let mut nodes = vec![FlatNode::default(); tree.node_count()];
        let mut queue = VecDeque::from([(tree.root(), 0u32)]);
        let mut next = 1u32;
        while let Some((old, new)) = queue.pop_front() {
            let (start, end, payload, meta) = tree.raw_node(old);
            let children = tree.node(old).children_range();
            let payload = if tree.node(old).is_leaf() { payload } else { next };
            nodes[new as usize] = FlatNode::from_raw(start, end, payload, meta);
            for (k, c) in children.enumerate() {
                queue.push_back((c, next + k as u32));
            }
            next += tree.raw_children_len(old);
        }
        FlatTree::from_raw_parts(tree.text_len() as u32, nodes)
    }

    #[test]
    fn an_arena_out_of_pre_order_is_rejected_on_load() {
        let text = b"mississippi\0";
        let flat = FlatTree::freeze(&naive_suffix_tree(text));
        let bfs = breadth_first(&flat);
        // "i" has an internal child ("issi") whose block pre-order hands out
        // before the blocks of "p" and "s"; breadth-first, after them.
        assert_ne!(bfs, flat);
        // The links still spell the same tree: a walk of them lists the same
        // suffixes and answers every query alike...
        assert_eq!(bfs.lexicographic_suffixes(), flat.lexicographic_suffixes());
        for pattern in [&b"i"[..], b"s", b"ss", b"issi", b"p", b"", b"x"] {
            let find = |t: &FlatTree| t.try_find_all(&text[..], pattern).unwrap();
            assert_eq!(find(&bfs), find(&flat));
        }
        // ...but a subtree is no longer one id range, so a range read
        // miscounts; the load must refuse such an arena.
        assert!(bfs.node_ids().any(|id| bfs.leaf_count_below(id) != bfs.leaves_below(id).len()));
        assert!(matches!(
            validate_flat_structure(&bfs),
            Err(ValidationError::ChildBlockOutOfOrder(_))
        ));

        let mut segment = Vec::new();
        write_flat_tree(&mut segment, &bfs).unwrap();
        let err = read_flat_tree(&segment).unwrap_err();
        assert!(err.to_string().contains("pre-order"), "{err}");

        let index = PartitionedSuffixTree::from_flat(
            text.len(),
            vec![FlatPartition { prefix: Vec::new(), tree: bfs }],
        );
        let alphabet = Alphabet::infer(&text[..text.len() - 1]).unwrap();
        let image = encode_catalog(1, TextSegment::Raw(text), &alphabet, &index).unwrap();
        let err = parse_catalog(&image.bytes).unwrap_err();
        assert!(err.to_string().contains("pre-order"), "{err}");
        let path =
            std::env::temp_dir().join(format!("era-validate-bfs-{}.eracat", std::process::id()));
        std::fs::write(&path, &image.bytes).unwrap();
        let err = CatalogFile::open(&path).unwrap().load_groups().unwrap_err();
        std::fs::remove_file(&path).unwrap();
        assert!(err.to_string().contains("pre-order"), "{err}");
    }

    #[test]
    fn error_messages_render() {
        let e = ValidationError::WrongLeafSet { found: 1, expected: 2 };
        assert!(e.to_string().contains("expected 2"));
    }
}
