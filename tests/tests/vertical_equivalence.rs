//! Vertical partitioning's counting pass must count exactly what a hash map
//! probed with the window at every position counts.
//!
//! `era::vertical_partition` descends a trie of the working set from every
//! position, block-sized stretch by stretch, the top levels folded into a
//! jump table. The reference below is the textbook round — one map lookup per
//! window of the in-memory text — and everything downstream of the counts
//! (accept / extend, the order prefixes are accepted in, the number of scans,
//! the grouping) has to come out identical: prefixes, frequencies, groups.

use std::collections::HashMap;

use era::vertical::{group_prefixes, PrefixFrequency};
use era::{vertical_partition, EraConfig};
use era_string_store::{Alphabet, InMemoryStore, StringStore};
use era_tests::terminated;
use era_workloads::{generate, DatasetKind, DatasetSpec};

/// `(accepted prefixes in acceptance order, scans)` by per-window map lookups.
fn reference_partition(text: &[u8], symbols: &[u8], fm: u64) -> (Vec<PrefixFrequency>, usize) {
    let mut working: Vec<Vec<u8>> = symbols.iter().map(|&s| vec![s]).collect();
    let (mut accepted, mut scans) = (Vec::new(), 0);
    while !working.is_empty() {
        let len = working[0].len();
        let mut counts: HashMap<&[u8], u64> = working.iter().map(|p| (&p[..], 0)).collect();
        for window in text.windows(len) {
            if let Some(count) = counts.get_mut(window) {
                *count += 1;
            }
        }
        scans += 1;
        let mut next = Vec::new();
        for prefix in &working {
            match counts[&prefix[..]] {
                0 => {}
                f if f <= fm => {
                    accepted.push(PrefixFrequency { prefix: prefix.clone(), frequency: f })
                }
                _ => next.extend(symbols.iter().map(|&s| [&prefix[..], &[s]].concat())),
            }
        }
        working = next;
    }
    (accepted, scans)
}

fn assert_matches_reference(store: &dyn StringStore, text: &[u8], fm: usize) {
    let (prefixes, scans) = reference_partition(text, &store.alphabet().with_terminal(), fm as u64);
    for group in [true, false] {
        let got = vertical_partition(store, fm, group).unwrap();
        assert_eq!(got.prefixes, prefixes, "fm {fm}");
        assert_eq!(got.scans, scans, "fm {fm}");
        if group {
            assert_eq!(got.groups, group_prefixes(&prefixes, fm as u64), "fm {fm}");
        } else {
            assert_eq!(got.groups.len(), prefixes.len());
        }
    }
    // One pass per round, every byte of it read once.
    let io = store.stats().snapshot();
    assert_eq!(io.full_scans, 2 * scans as u64);
    assert_eq!(io.bytes_read, 2 * (scans * store.len()) as u64);
}

#[test]
fn small_texts_of_every_alphabet_at_every_stretch_boundary() {
    // 5, 21 and 27 symbols with the terminal: jump tables of four, two and
    // two levels, over prefixes shorter and longer than that.
    for kind in [DatasetKind::GenomeLike, DatasetKind::Protein, DatasetKind::English] {
        let alphabet = era_workloads::alphabet_for(kind);
        for (len, seed) in [(1usize, 3u64), (63, 4), (64, 5), (900, 6)] {
            let body = generate(&DatasetSpec::new(kind, len, seed));
            let text = terminated(&body);
            for (block, fm) in [(8usize, 1usize), (16, 3), (100, 40), (4096, 1000)] {
                let store = InMemoryStore::from_body(&body, alphabet.clone())
                    .unwrap()
                    .with_block_size(block)
                    .unwrap();
                assert_matches_reference(&store, &text, fm);
            }
        }
    }
}

#[test]
fn long_runs_outgrow_the_jump_table() {
    // A run of one symbol extends one prefix per round, far past the four
    // levels the table folds, and ends at the terminal.
    let body =
        [vec![b'A'; 150], b"CGTACGTTTTTTTTTTTTTTTTTTTTTTTT".to_vec(), vec![b'A'; 90]].concat();
    for fm in [1, 3, 20] {
        let store =
            InMemoryStore::from_body(&body, Alphabet::dna()).unwrap().with_block_size(8).unwrap();
        assert_matches_reference(&store, &terminated(&body), fm);
    }
}

#[test]
fn genome_like_256k_under_a_tight_budget() {
    let body = generate(&DatasetSpec::new(DatasetKind::GenomeLike, 256 << 10, 1));
    let store = InMemoryStore::from_body(&body, Alphabet::dna()).unwrap();
    let config = EraConfig { memory_budget: 128 << 10, ..EraConfig::default() };
    let fm = config.memory_layout(store.alphabet()).unwrap().fm;
    assert_matches_reference(&store, &terminated(&body), fm);
}
