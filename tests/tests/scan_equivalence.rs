//! The classifying multi-pattern scan must answer exactly like the
//! per-position reference.
//!
//! `era::scan::collect_occurrences` descends a trie of the (prefix-free)
//! pattern set from every position, the top levels folded into a jump table;
//! `collect_occurrences_scalar` compares every pattern at every position.
//! These tests pin them to each other — and to the brute-force oracle —
//! across DNA, protein and English inputs, block sizes that put matches on
//! every kind of stretch boundary, and patterns that end above and below the
//! jump table's last level. `cohort_equivalence.rs` does the same for the
//! pattern sets the pipeline scans for.

use era::scan::{collect_occurrences, collect_occurrences_scalar};
use era_string_store::{Alphabet, InMemoryStore};
use era_tests::{prefix_free, scan_occurrences, terminated};
use proptest::collection;
use proptest::prelude::*;

/// The paper's three alphabets.
fn alphabets() -> Vec<Alphabet> {
    vec![Alphabet::dna(), Alphabet::protein(), Alphabet::english()]
}

/// Maps raw generator bytes onto alphabet symbols.
fn body_from(raw: &[u8], alphabet: &Alphabet) -> Vec<u8> {
    let symbols = alphabet.symbols();
    raw.iter().map(|&b| symbols[b as usize % symbols.len()]).collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, max_shrink_iters: 0 })]

    /// The trie and the scalar scan agree with each other and the oracle on
    /// random inputs over all three alphabets, at block sizes small enough
    /// that matches straddle stretch boundaries.
    #[test]
    fn vectorized_scan_equals_scalar_reference(
        which in 0usize..3,
        raw_bytes in collection::vec(any::<u8>(), 1..500),
        pat_start in 0usize..500,
        pat_len in 1usize..20,
        block_idx in 0usize..4,
    ) {
        let block = [8usize, 16, 64, 256][block_idx];
        let alphabet = alphabets()[which].clone();
        let body = body_from(&raw_bytes, &alphabet);
        let text = terminated(&body);
        let start = pat_start % body.len();
        // Sampled substrings (up to 20 symbols: the jump table folds 4 of DNA,
        // 2 of the others), one of them run into the terminal, the terminal,
        // a single-symbol pattern and a guaranteed miss — whichever of them
        // form a prefix-free set, in this order.
        let other = (start + pat_len) % body.len();
        let patterns = prefix_free(vec![
            body[start..(start + pat_len).min(body.len())].to_vec(),
            body[other..(other + 3).min(body.len())].to_vec(),
            text[body.len().saturating_sub(pat_len)..].to_vec(),
            vec![0u8],
            vec![alphabet.symbols()[0]],
            b"\x02never".to_vec(),
        ]);
        let store = InMemoryStore::from_body(&body, alphabet.clone())
            .unwrap()
            .with_block_size(block)
            .unwrap();
        let fast = collect_occurrences(&store, &patterns).expect("trie scan");
        let slow = collect_occurrences_scalar(&store, &patterns).expect("scalar scan");
        prop_assert_eq!(&fast, &slow);
        for (i, p) in patterns.iter().enumerate() {
            prop_assert_eq!(&fast[i], &scan_occurrences(&text, p));
        }
    }
}

/// A match that begins at the end of one stretch and ends inside the next
/// must be found exactly once, by both scan flavors.
#[test]
fn boundary_straddling_matches_are_found_once() {
    // At every offset against blocks of 8 and 16, a pattern of length 10
    // straddles every boundary shape: the jump table's window, the descent
    // below it and the lookahead region.
    for offset in 0..16usize {
        let mut body = vec![b'A'; 64];
        let needle = b"CGTACGTACG";
        body[offset..offset + needle.len()].copy_from_slice(needle);
        let patterns = vec![needle.to_vec(), b"ACGTACGTACGTACGTACGT".to_vec(), b"GT".to_vec()];
        for block in [8usize, 16] {
            let store = InMemoryStore::from_body(&body, Alphabet::dna())
                .unwrap()
                .with_block_size(block)
                .unwrap();
            let fast = collect_occurrences(&store, &patterns).unwrap();
            let slow = collect_occurrences_scalar(&store, &patterns).unwrap();
            assert_eq!(fast, slow, "offset {offset} block {block}");
            assert_eq!(fast[0], vec![offset as u32], "offset {offset} block {block}");
            let text = terminated(&body);
            for (i, p) in patterns.iter().enumerate() {
                assert_eq!(fast[i], scan_occurrences(&text, p), "offset {offset} block {block}");
            }
        }
    }
}
