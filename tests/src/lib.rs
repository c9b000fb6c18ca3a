//! Shared helpers for the cross-crate integration and property tests.

#![deny(rust_2018_idioms)]

use era_string_store::{Alphabet, InMemoryStore};
use era_suffix_tree::{naive_suffix_tree, PartitionedSuffixTree, SuffixTree};

/// Appends the terminal to a body.
pub fn terminated(body: &[u8]) -> Vec<u8> {
    let mut t = body.to_vec();
    t.push(0);
    t
}

/// Builds the reference (naive) suffix tree for a body.
pub fn reference_tree(body: &[u8]) -> SuffixTree {
    naive_suffix_tree(&terminated(body))
}

/// Creates an in-memory store with an inferred alphabet and a small block
/// size so that block-level behaviour is exercised even on tiny inputs.
pub fn small_block_store(body: &[u8]) -> InMemoryStore {
    InMemoryStore::from_body_inferred(body)
        .expect("valid body")
        .with_block_size(64)
        .expect("non-zero block size")
}

/// Creates a DNA store.
pub fn dna_store(body: &[u8]) -> InMemoryStore {
    InMemoryStore::from_body(body, Alphabet::dna()).expect("valid DNA body")
}

/// A small corpus of structurally diverse strings used across the integration
/// tests: repetitive, random-ish, periodic, and the paper's running example.
pub fn corpus() -> Vec<Vec<u8>> {
    vec![
        b"TGGTGGTGGTGCGGTGATGGTGC".to_vec(), // the paper's Figure 2 string
        b"GATTACAGATTACAGGATCCGATTACATTTTACAGAGATTACCA".to_vec(),
        b"mississippi".to_vec(),
        b"abracadabra".to_vec(),
        b"aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa".to_vec(),
        b"abcabcabcabcabcabcabcabcabc".to_vec(),
        b"a".to_vec(),
        b"thequickbrownfoxjumpsoverthelazydogthequickbrownfox".to_vec(),
    ]
}

/// Serializes every partition of the tree into one byte string, capturing the
/// exact partition boundaries and node layout — not just the leaf order. Two
/// trees are byte-identical iff these strings are equal.
pub fn tree_bytes(tree: &PartitionedSuffixTree) -> Vec<u8> {
    let mut out = Vec::new();
    for partition in tree.partitions() {
        out.extend_from_slice(&(partition.prefix.len() as u64).to_le_bytes());
        out.extend_from_slice(&partition.prefix);
        era_suffix_tree::serialize::write_flat_tree(&mut out, &partition.tree)
            .expect("serialization succeeds");
    }
    out
}

/// Every occurrence of `pattern` in `text` found by direct scanning — the
/// query oracle.
pub fn scan_occurrences(text: &[u8], pattern: &[u8]) -> Vec<u32> {
    if pattern.is_empty() {
        return (0..text.len() as u32).collect();
    }
    (0..text.len()).filter(|&i| text[i..].starts_with(pattern)).map(|i| i as u32).collect()
}

/// The patterns of `candidates`, in order, that are non-empty and neither
/// begin nor are begun by one kept before them — a set the classifying scan
/// (`era::scan::collect_occurrences`) accepts.
pub fn prefix_free(candidates: Vec<Vec<u8>>) -> Vec<Vec<u8>> {
    let mut kept: Vec<Vec<u8>> = Vec::new();
    for p in candidates {
        if !p.is_empty() && kept.iter().all(|k| !k.starts_with(&p) && !p.starts_with(k)) {
            kept.push(p);
        }
    }
    kept
}

#[cfg(test)]
mod tests {
    use super::*;
    use era_string_store::StringStore;

    #[test]
    fn helpers_are_consistent() {
        let body = b"banana";
        assert_eq!(terminated(body).len(), 7);
        assert_eq!(reference_tree(body).leaf_count(), 7);
        assert_eq!(scan_occurrences(&terminated(body), b"an"), vec![1, 3]);
        assert_eq!(small_block_store(body).len(), 7);
        assert_eq!(dna_store(b"ACGT").len(), 5);
        let set = [&b"TG"[..], b"TGG", b"", b"GT", b"G", b"TG", b"C"].map(<[u8]>::to_vec);
        assert_eq!(prefix_free(set.to_vec()), [&b"TG"[..], b"GT", b"C"].map(<[u8]>::to_vec));
    }
}
