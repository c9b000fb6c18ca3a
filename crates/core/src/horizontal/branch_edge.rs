//! Algorithms `ComputeSuffixSubTree` / `BranchEdge` (§4.2.1): the
//! string-access-optimised variant (ERA-str).
//!
//! The sub-tree is grown level-range by level-range: in each sequential pass
//! over the string every *open edge* (a group of suffixes that still share
//! their path) fetches the next `range` symbols for each of its suffixes, and
//! the buffered symbols are consumed to extend edge labels, create branches
//! and finalise leaves — i.e. the in-memory tree is updated **during** the
//! scan, which is exactly the memory-access pattern that `SubTreePrepare`
//! (ERA-str+mem, §4.2.2) later removes. Figure 7 of the paper compares the
//! two variants.
//!
//! All three optimisations of §4.2.1 are implemented: one scan serves every
//! open edge of a level (1), a *range* of symbols is read per suffix rather
//! than a single one (2), and all sub-trees of a virtual tree share the scan
//! (3).

use era_string_store::{BlockCursor, StoreResult, StringStore};
use era_suffix_tree::{NodeId, Partition, SuffixTree};

use super::HorizontalParams;

/// An edge that still needs more symbols before it is fully branched
/// (a "thick" edge in Figure 4 of the paper).
#[derive(Debug)]
struct OpenEdge {
    /// Node the edge hangs off.
    parent: NodeId,
    /// Text position where the edge label starts (taken from the first
    /// occurrence below the edge).
    base: u32,
    /// First character of the edge label.
    first_char: u8,
    /// Symbols of the label accumulated so far.
    label_len: u32,
    /// String depth of `parent`.
    depth_at_parent: u32,
    /// Occurrences (suffix start positions) below this edge, in string order.
    occurrences: Vec<u32>,
}

/// Construction state for one S-prefix of the virtual tree.
struct SubTreeState {
    prefix: Vec<u8>,
    tree: SuffixTree,
    open: Vec<OpenEdge>,
}

impl SubTreeState {
    fn active_suffixes(&self) -> usize {
        self.open.iter().map(|e| e.occurrences.len()).sum()
    }
}

/// Builds the sub-trees of a virtual tree with the ERA-str method.
///
/// `occurrences[i]` lists the positions of `prefixes[i]` in string order.
pub fn compute_group_str(
    store: &dyn StringStore,
    prefixes: &[Vec<u8>],
    occurrences: &[Vec<u32>],
    params: &HorizontalParams,
) -> StoreResult<Vec<Partition>> {
    assert_eq!(prefixes.len(), occurrences.len());
    let text_len = store.len();
    let n = text_len as u32;

    let mut states: Vec<SubTreeState> = prefixes
        .iter()
        .zip(occurrences.iter())
        .map(|(prefix, occ)| {
            let mut tree = SuffixTree::with_capacity(text_len, 2 * occ.len());
            let mut open = Vec::new();
            let first = prefix.first().copied().unwrap_or(0);
            match occ.len() {
                0 => {}
                1 => {
                    // A single suffix: the sub-tree is one leaf, no scanning
                    // needed (Proposition 1, case 1).
                    tree.add_leaf(tree.root(), occ[0], n, first, occ[0]);
                }
                _ => open.push(OpenEdge {
                    parent: tree.root(),
                    base: occ[0],
                    first_char: first,
                    label_len: prefix.len() as u32,
                    depth_at_parent: 0,
                    occurrences: occ.clone(),
                }),
            }
            SubTreeState { prefix: prefix.clone(), tree, open }
        })
        .collect();

    while states.iter().any(|s| !s.open.is_empty()) {
        let active: usize = states.iter().map(|s| s.active_suffixes()).sum();
        let range = params.range_for(active);

        // Gather the read requests of every open edge across the group:
        // (position, state index, flattened buffer slot).
        let mut requests: Vec<(usize, usize, usize)> = Vec::new();
        let mut buffers: Vec<Vec<Vec<u8>>> = Vec::with_capacity(states.len());
        let mut edge_offsets: Vec<Vec<usize>> = Vec::with_capacity(states.len());
        for (si, state) in states.iter().enumerate() {
            let mut offsets = Vec::with_capacity(state.open.len());
            let mut flat = 0usize;
            for edge in &state.open {
                offsets.push(flat);
                let read_depth = edge.depth_at_parent + edge.label_len;
                for &occ in &edge.occurrences {
                    requests.push(((occ + read_depth) as usize, si, flat));
                    flat += 1;
                }
            }
            buffers.push(vec![Vec::new(); flat]);
            edge_offsets.push(offsets);
        }
        requests.sort_unstable_by_key(|&(pos, _, _)| pos);

        // One sequential pass serves every request.
        let mut cursor = BlockCursor::new(store, params.seek_optimization);
        for (pos, si, slot) in requests {
            buffers[si][slot] = cursor.slice(pos, range)?.to_vec();
        }

        // Consume the buffered symbols, updating each tree.
        for (si, state) in states.iter_mut().enumerate() {
            let open = std::mem::take(&mut state.open);
            for (ei, edge) in open.into_iter().enumerate() {
                let base_slot = edge_offsets[si][ei];
                let bufs: Vec<Vec<u8>> = (0..edge.occurrences.len())
                    .map(|oi| std::mem::take(&mut buffers[si][base_slot + oi]))
                    .collect();
                consume_edge(&mut state.tree, n, edge, bufs, 0, &mut state.open);
            }
        }
    }

    Ok(states.into_iter().map(|s| Partition { prefix: s.prefix, tree: s.tree }).collect())
}

/// Processes one open edge with freshly buffered symbols, starting at buffer
/// position `offset`: extends the label while all suffixes agree, branches
/// where they diverge (creating the internal node and recursing into each
/// symbol class within the same buffer), finalises leaves for singleton
/// classes, and re-registers an open edge when the buffer runs out before the
/// suffixes diverge.
fn consume_edge(
    tree: &mut SuffixTree,
    text_len: u32,
    edge: OpenEdge,
    bufs: Vec<Vec<u8>>,
    offset: usize,
    open_out: &mut Vec<OpenEdge>,
) {
    debug_assert!(edge.occurrences.len() >= 2, "open edges always cover at least two suffixes");
    debug_assert!(edge.label_len >= 1, "an edge label always contains at least one symbol");
    let mut edge = edge;
    let mut offset = offset;

    loop {
        if offset >= bufs[0].len() {
            // Ran out of buffered symbols while every suffix still agrees:
            // keep the edge open for the next sequential pass.
            open_out.push(edge);
            return;
        }
        debug_assert!(
            bufs.iter().all(|b| b.len() > offset),
            "a suffix that ends inside the range must have diverged at the unique terminal"
        );

        let first_symbol = bufs[0][offset];
        if bufs.iter().all(|b| b[offset] == first_symbol) {
            // Proposition 1, case 2: every suffix continues with the same
            // symbol; extend the edge label.
            edge.label_len += 1;
            offset += 1;
            continue;
        }

        // Proposition 1, case 3: the edge branches here. Materialise the
        // internal node for the common label, then handle each symbol class.
        let branch_node =
            tree.add_internal(edge.parent, edge.base, edge.base + edge.label_len, edge.first_char);
        let child_depth = edge.depth_at_parent + edge.label_len;

        let mut classes: Vec<(u8, Vec<usize>)> = Vec::new();
        for (i, b) in bufs.iter().enumerate() {
            let sym = b[offset];
            match classes.iter_mut().find(|(s, _)| *s == sym) {
                Some((_, members)) => members.push(i),
                None => classes.push((sym, vec![i])),
            }
        }
        classes.sort_unstable_by_key(|&(s, _)| s);

        for (sym, members) in classes {
            if members.len() == 1 {
                // A singleton class is a finished leaf (Proposition 1, case 1).
                let occ = edge.occurrences[members[0]];
                tree.add_leaf(branch_node, occ + child_depth, text_len, sym, occ);
            } else {
                let class_occs: Vec<u32> = members.iter().map(|&i| edge.occurrences[i]).collect();
                let class_bufs: Vec<Vec<u8>> = members.iter().map(|&i| bufs[i].clone()).collect();
                let class_base = class_occs[0] + child_depth;
                let sub_edge = OpenEdge {
                    parent: branch_node,
                    base: class_base,
                    first_char: sym,
                    label_len: 1,
                    depth_at_parent: child_depth,
                    occurrences: class_occs,
                };
                // Recurse within the symbols already buffered this round.
                consume_edge(tree, text_len, sub_edge, class_bufs, offset + 1, open_out);
            }
        }
        return;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RangePolicy;
    use era_string_store::{Alphabet, InMemoryStore};
    use era_suffix_tree::{validate_suffix_tree, FlatTree};

    fn params(policy: RangePolicy) -> HorizontalParams {
        HorizontalParams {
            r_capacity: 64,
            range_policy: policy,
            min_range: 1,
            seek_optimization: false,
        }
    }

    fn occurrences_of(text: &[u8], prefix: &[u8]) -> Vec<u32> {
        (0..text.len()).filter(|&i| text[i..].starts_with(prefix)).map(|i| i as u32).collect()
    }

    #[test]
    fn tg_subtree_matches_reference_queries() {
        let body = b"TGGTGGTGGTGCGGTGATGGTGC";
        let store = InMemoryStore::from_body(body, Alphabet::dna()).unwrap();
        let text: Vec<u8> = {
            let mut t = body.to_vec();
            t.push(0);
            t
        };
        let occ = occurrences_of(&text, b"TG");
        for policy in [RangePolicy::Fixed(4), RangePolicy::Fixed(1), RangePolicy::Elastic] {
            let parts = compute_group_str(
                &store,
                &[b"TG".to_vec()],
                std::slice::from_ref(&occ),
                &params(policy),
            )
            .unwrap();
            let tree = &parts[0].tree;
            validate_suffix_tree(tree, &text, Some(7)).unwrap();
            let mut expected: Vec<u32> = occ.clone();
            expected.sort_by(|&a, &b| text[a as usize..].cmp(&text[b as usize..]));
            assert_eq!(tree.lexicographic_suffixes(), expected, "policy {policy:?}");
            let frozen = FlatTree::freeze(tree);
            for pattern in [&b"TGG"[..], b"TGC", b"TGA", b"TGGTGC"] {
                let mut got = frozen.try_find_all(&text, pattern).unwrap();
                got.sort_unstable();
                assert_eq!(
                    got,
                    occurrences_of(&text, pattern),
                    "pattern {pattern:?} policy {policy:?}"
                );
            }
        }
    }

    #[test]
    fn agrees_with_prepare_variant() {
        use crate::horizontal::build::build_subtree;
        use crate::horizontal::prepare::prepare_group;
        let body = b"GATTACAGATTACAGGATCCGATTACATTTTACAGAGATT";
        let store = InMemoryStore::from_body(body, Alphabet::dna()).unwrap();
        let text: Vec<u8> = {
            let mut t = body.to_vec();
            t.push(0);
            t
        };
        for prefix in [&b"GA"[..], b"T", b"TTA", b"A"] {
            let occ = occurrences_of(&text, prefix);
            let p = params(RangePolicy::Fixed(3));
            let via_str =
                compute_group_str(&store, &[prefix.to_vec()], std::slice::from_ref(&occ), &p)
                    .unwrap();
            let via_mem =
                prepare_group(&store, &[prefix.to_vec()], std::slice::from_ref(&occ), &p).unwrap();
            let mem_tree = build_subtree(text.len(), &via_mem[0]);
            validate_suffix_tree(&via_str[0].tree, &text, Some(occ.len())).unwrap();
            assert_eq!(
                via_str[0].tree.lexicographic_suffixes(),
                mem_tree.lexicographic_suffixes(),
                "prefix {prefix:?}"
            );
            assert_eq!(via_str[0].tree.internal_count(), mem_tree.internal_count());
        }
    }

    #[test]
    fn singleton_prefix_creates_single_leaf() {
        let body = b"ACGTACGA";
        let store = InMemoryStore::from_body(body, Alphabet::dna()).unwrap();
        let parts =
            compute_group_str(&store, &[b"GA".to_vec()], &[vec![6]], &params(RangePolicy::Elastic))
                .unwrap();
        assert_eq!(parts[0].tree.leaf_count(), 1);
        assert_eq!(parts[0].tree.lexicographic_suffixes(), vec![6]);
    }

    #[test]
    fn group_shares_scans() {
        let body = b"GATTACAGATTACAGGATCCGATTACA";
        let store_grouped = InMemoryStore::from_body(body, Alphabet::dna()).unwrap();
        let store_single = InMemoryStore::from_body(body, Alphabet::dna()).unwrap();
        let text: Vec<u8> = {
            let mut t = body.to_vec();
            t.push(0);
            t
        };
        let prefixes = vec![b"GA".to_vec(), b"TT".to_vec(), b"AC".to_vec()];
        let occs: Vec<Vec<u32>> = prefixes.iter().map(|p| occurrences_of(&text, p)).collect();
        let p = params(RangePolicy::Fixed(4));
        compute_group_str(&store_grouped, &prefixes, &occs, &p).unwrap();
        let grouped_scans = store_grouped.stats().snapshot().full_scans;
        for (prefix, occ) in prefixes.iter().zip(occs.iter()) {
            compute_group_str(
                &store_single,
                std::slice::from_ref(prefix),
                std::slice::from_ref(occ),
                &p,
            )
            .unwrap();
        }
        let single_scans = store_single.stats().snapshot().full_scans;
        assert!(grouped_scans < single_scans);
    }
}
