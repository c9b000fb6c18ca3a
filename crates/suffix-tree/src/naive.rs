//! Naive `O(n²)` reference construction.
//!
//! This builder inserts every suffix by walking from the root and comparing
//! characters. It is far too slow for real inputs but its simplicity makes it
//! the correctness oracle for every other construction algorithm in this
//! repository (ERA, WaveFront, B²ST, Trellis, Ukkonen).

use crate::tree::SuffixTree;

/// Builds the suffix tree of `text` (which must end with the unique terminal
/// byte `0`) by naive repeated insertion.
///
/// # Panics
///
/// Panics if the text is empty or not terminated; the oracle is only used on
/// inputs produced by the validated stores.
#[expect(clippy::unwrap_used, reason = "emptiness asserted on the line before")]
pub fn naive_suffix_tree(text: &[u8]) -> SuffixTree {
    assert!(!text.is_empty(), "text must not be empty");
    assert_eq!(*text.last().unwrap(), 0, "text must end with the terminal byte");
    let n = text.len() as u32;
    let mut tree = SuffixTree::with_capacity(text.len(), 2 * text.len());

    for suffix in 0..n {
        insert_suffix(&mut tree, text, suffix);
    }
    tree
}

/// Inserts one suffix into a partially built tree by top-down comparison.
/// Also used by the WaveFront and Trellis baselines, which insert suffixes
/// one at a time (that per-insertion traversal is exactly the CPU overhead
/// the paper attributes to WaveFront).
pub fn insert_suffix(tree: &mut SuffixTree, text: &[u8], suffix: u32) {
    let n = text.len() as u32;
    let mut node = tree.root();
    let mut pos = suffix; // next text position of the suffix still to match

    loop {
        debug_assert!(pos < n);
        let c = text[pos as usize];
        match tree.child_starting_with(node, c) {
            None => {
                tree.add_leaf(node, pos, n, c, suffix);
                return;
            }
            Some(child) => {
                let (start, end) = {
                    let ch = tree.node(child);
                    (ch.start, ch.end)
                };
                // Match along the edge label.
                let mut k = 0u32;
                while start + k < end
                    && pos + k < n
                    && text[(start + k) as usize] == text[(pos + k) as usize]
                {
                    k += 1;
                }
                if start + k == end {
                    // Whole edge matched; descend.
                    node = child;
                    pos += k;
                    // Because the terminal is unique, a suffix can never end
                    // exactly at an existing internal node or leaf.
                    debug_assert!(pos < n);
                } else {
                    // Mismatch inside the edge: split and attach the new leaf.
                    let mid = tree.split_edge(child, k, text[(start + k) as usize]);
                    tree.add_leaf(mid, pos + k, n, text[(pos + k) as usize], suffix);
                    return;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::validate_suffix_tree;

    #[test]
    fn banana_has_expected_shape() {
        let text = b"banana\0";
        let t = naive_suffix_tree(text);
        assert_eq!(t.leaf_count(), 7);
        // Suffix array of banana$: $, a$, ana$, anana$, banana$, na$, nana$
        assert_eq!(t.lexicographic_suffixes(), vec![6, 5, 3, 1, 0, 4, 2]);
        validate_suffix_tree(&t, text, Some(text.len())).unwrap();
    }

    #[test]
    fn paper_example_string() {
        // The running example of the paper (Figure 2).
        let mut text = b"TGGTGGTGGTGCGGTGATGGTGC".to_vec();
        text.push(0);
        let t = naive_suffix_tree(&text);
        assert_eq!(t.leaf_count(), text.len());
        validate_suffix_tree(&t, &text, Some(text.len())).unwrap();
        // Table 1: the suffixes sharing the S-prefix "TG" occur at these
        // offsets.
        let tg_positions: Vec<u32> = (0..text.len() - 1)
            .filter(|&i| text[i..].starts_with(b"TG"))
            .map(|i| i as u32)
            .collect();
        assert_eq!(tg_positions, vec![0, 3, 6, 9, 14, 17, 20]);
    }

    #[test]
    fn repetitive_string() {
        let mut text = vec![b'a'; 50];
        text.push(0);
        let t = naive_suffix_tree(&text);
        assert_eq!(t.leaf_count(), 51);
        validate_suffix_tree(&t, &text, Some(text.len())).unwrap();
    }

    #[test]
    fn single_terminal() {
        let t = naive_suffix_tree(&[0]);
        assert_eq!(t.leaf_count(), 1);
        validate_suffix_tree(&t, &[0], Some(1)).unwrap();
    }

    #[test]
    #[should_panic(expected = "terminal")]
    fn unterminated_text_panics() {
        naive_suffix_tree(b"abc");
    }
}
