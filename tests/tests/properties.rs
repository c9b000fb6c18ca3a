//! Property-based tests (proptest) over the core invariants:
//!
//! * ERA builds exactly the suffix tree of its input, for arbitrary strings,
//!   alphabets and memory budgets;
//! * the lexicographic leaf order equals an independently computed suffix
//!   array;
//! * queries agree with brute-force scanning;
//! * the suffix-array substrate agrees with direct sorting and with the naive
//!   oracle on every input shape (generated, periodic, single-symbol,
//!   all-distinct, embedded `0`s, no terminal, empty);
//! * the whole-index operations (longest repeated / longest common substring),
//!   answered per sub-tree and up the trie, agree with the suffix-array + LCP
//!   oracle.

use era::{EraConfig, HorizontalMethod, RangePolicy, SuffixIndex};
use era_string_store::InMemoryStore;
use era_suffix_array::sa::{is_suffix_array, suffix_array_naive};
use era_suffix_array::{lcp_kasai, suffix_array};
use era_suffix_tree::{validate_partitioned, validate_suffix_tree};
use era_tests::{scan_occurrences, terminated};
use era_workloads::{generate, DatasetKind, DatasetSpec};
use proptest::prelude::*;

/// Arbitrary bodies over small alphabets (small alphabets maximise repeat
/// structure and therefore stress the branching logic hardest).
fn body_strategy() -> impl Strategy<Value = Vec<u8>> {
    let dna = proptest::collection::vec(
        prop_oneof![Just(b'A'), Just(b'C'), Just(b'G'), Just(b'T')],
        1..200,
    );
    let binary = proptest::collection::vec(prop_oneof![Just(b'a'), Just(b'b')], 1..200);
    let ascii = proptest::collection::vec(33u8..127u8, 1..120);
    prop_oneof![dna, binary, ascii]
}

/// The suffix-array substrate's bodies: [`body_strategy`]'s, plus bodies
/// that draw `0` bytes and bodies up to 4 KiB.
fn sa_body_strategy() -> impl Strategy<Value = Vec<u8>> {
    let zeros = proptest::collection::vec(prop_oneof![Just(0u8), Just(b'A'), Just(b'C')], 1..600);
    let long_dna = proptest::collection::vec(
        prop_oneof![Just(b'A'), Just(b'C'), Just(b'G'), Just(b'T')],
        1..4097,
    );
    let long_bytes = proptest::collection::vec(any::<u8>(), 1..4097);
    prop_oneof![body_strategy(), zeros, long_dna, long_bytes]
}

/// Texts of every shape the suffix-array builder must sort, up to 4 KiB.
/// Periodic and single-symbol texts recurse below the first reduced level.
fn sa_text_strategy() -> impl Strategy<Value = Vec<u8>> {
    let kinds = [
        DatasetKind::GenomeLike,
        DatasetKind::UniformDna,
        DatasetKind::Protein,
        DatasetKind::English,
    ];
    let generated = (0..kinds.len(), 0usize..4097, 0u64..u64::MAX, any::<bool>()).prop_map(
        move |(kind, len, seed, terminal)| {
            let mut text = generate(&DatasetSpec::new(kinds[kind], len, seed));
            if terminal {
                text.push(0);
            }
            text
        },
    );
    let periodic = (0usize..3, 1usize..600).prop_map(|(motif, reps)| {
        let motif: &[u8] = [&b"AC"[..], b"GATTACA", b"a"][motif];
        motif.repeat(reps)
    });
    // All 256 byte values, Fisher-Yates shuffled.
    let all_distinct = (0u64..u64::MAX).prop_map(|mut state| {
        let mut text: Vec<u8> = (0..=255).collect();
        for i in (1..text.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            text.swap(i, (state >> 33) as usize % (i + 1));
        }
        text
    });
    let zeros = proptest::collection::vec(prop_oneof![Just(0u8), Just(b'G'), Just(b'T')], 0..4097);
    prop_oneof![generated, periodic, all_distinct, zeros, Just(Vec::new())]
}

fn config_strategy() -> impl Strategy<Value = EraConfig> {
    (
        2_000usize..40_000,
        1usize..64,
        prop_oneof![Just(RangePolicy::Elastic), (1usize..40).prop_map(RangePolicy::Fixed)],
        any::<bool>(),
        any::<bool>(),
        prop_oneof![Just(HorizontalMethod::StringAndMemory), Just(HorizontalMethod::StringOnly)],
    )
        .prop_map(|(budget, r_kb, range_policy, grouping, seek, horizontal)| EraConfig {
            memory_budget: budget,
            r_buffer_size: Some(r_kb * 16),
            input_buffer_size: 64,
            trie_area: 64,
            range_policy,
            group_virtual_trees: grouping,
            seek_optimization: seek,
            horizontal,
            min_range: 1,
            ..EraConfig::default()
        })
}

/// Two strings over one small alphabet — DNA or two symbols.
fn two_strings_strategy() -> impl Strategy<Value = (Vec<u8>, Vec<u8>)> {
    let over = |symbols: &'static [u8]| {
        let string =
            || proptest::collection::vec((0..symbols.len()).prop_map(move |i| symbols[i]), 1..150);
        (string(), string())
    };
    prop_oneof![over(b"ACGT"), over(b"ab")]
}

/// A budget of a few KB: `FM` comes out at 7–22 leaves, so a text of a few
/// hundred symbols over 2–4 symbols is cut into multi-symbol S-prefixes.
fn tiny_budget(budget: usize) -> EraConfig {
    EraConfig {
        memory_budget: budget,
        r_buffer_size: Some(256),
        input_buffer_size: 64,
        trie_area: 64,
        min_range: 1,
        ..EraConfig::default()
    }
}

/// What the suffix array and Kasai's LCP array of the generalized text say:
/// `(longest repeat, longest substring common to both sides of `sep`)`, as
/// lengths. Adjacent suffixes suffice for both, and a common prefix cannot
/// reach across the separator because the separator occurs once.
fn repeat_and_common_lengths(text: &[u8], sep: usize) -> (usize, usize) {
    let sa = suffix_array(text);
    let lcp = lcp_kasai(text, &sa);
    let left = |i: usize| (sa[i] as usize) < sep;
    let mixed = (1..sa.len()).filter(|&i| left(i - 1) != left(i)).map(|i| lcp[i] as usize);
    (lcp.iter().max().map_or(0, |&l| l as usize), mixed.max().unwrap_or(0))
}

/// Builds the generalized index of `a` and `b` and checks both whole-index
/// answers against the oracle; returns the index and the common substring.
fn check_repeat_and_common(a: &[u8], b: &[u8], config: EraConfig) -> (SuffixIndex, Vec<u8>) {
    let index = SuffixIndex::builder().config(config).build_generalized(&[a, b]).unwrap();
    let text = index.text();
    let (repeat, common) = repeat_and_common_lengths(text, a.len());
    let lcs = index.longest_common_substring().unwrap();
    assert_eq!(lcs.len(), common, "{a:?} / {b:?}");
    assert!(lcs.is_empty() || a.windows(lcs.len()).any(|w| w == lcs), "not in the left string");
    assert!(lcs.is_empty() || b.windows(lcs.len()).any(|w| w == lcs), "not in the right string");
    match index.longest_repeated_substring() {
        None => assert_eq!(repeat, 0),
        Some((off, len)) => {
            assert_eq!(len, repeat, "{a:?} / {b:?}");
            assert!(scan_occurrences(text, &text[off..off + len]).len() >= 2);
        }
    }
    (index, lcs)
}

#[test]
fn common_substrings_above_inside_and_beside_the_sub_trees() {
    // Above: "a" is all the two strings share, and it is a proper prefix of
    // every S-prefix that starts with it — no sub-tree holds a node for it.
    let (index, lcs) =
        check_repeat_and_common(&[b'a'; 60], &b"bbbbbbbbbbabbbbbbbbbb"[..], tiny_budget(2_000));
    assert_eq!(lcs, b"a");
    let below = index.tree().trie().candidates(&lcs);
    assert!(below.len() >= 2);
    assert!(below.clone().all(|p| index.tree().partitions()[p as usize].prefix.len() > 1));

    // Inside: 12 common symbols, far below one sub-tree's S-prefix.
    let (a, b) = (b"ACGTTGCAGATTACAGATTCCAGTACGT", b"TTTTGGGGCCCCGATTACAGATTCAAAA");
    let (index, lcs) = check_repeat_and_common(a, b, tiny_budget(2_000));
    assert_eq!(lcs, b"GATTACAGATTC");
    let below = index.tree().trie().candidates(&lcs);
    assert_eq!(below.len(), 1, "a substring longer than its S-prefix lives in one sub-tree");
    let only = below.start;
    assert!(index.tree().partitions()[only as usize].prefix.len() < lcs.len());

    // Beside: the left string's own repeat ("abcabc") is longer than
    // anything it shares with the right one, and "bc" + separator + "bc" is
    // not a substring of either.
    let (_, lcs) = check_repeat_and_common(b"abcabcabc", b"bc", tiny_budget(2_000));
    assert_eq!(lcs, b"bc");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn repeats_and_common_substrings_agree_with_the_lcp_oracle(
        strings in two_strings_strategy(),
        budget in 1_500usize..4_000,
    ) {
        check_repeat_and_common(&strings.0, &strings.1, tiny_budget(budget));
    }

    #[test]
    fn era_builds_the_suffix_tree_of_arbitrary_strings(
        body in body_strategy(),
        config in config_strategy(),
    ) {
        let text = terminated(&body);
        let store = InMemoryStore::from_body_inferred(&body).unwrap()
            .with_block_size(32).unwrap();
        let (tree, report) = era::construct(&store, &config).unwrap();
        // Structural invariants and exact leaf coverage.
        validate_partitioned(&tree, &text).unwrap();
        prop_assert_eq!(tree.leaf_count(), text.len());
        // Lexicographic leaf order == suffix array computed independently.
        let sa = suffix_array(&text);
        prop_assert_eq!(tree.lexicographic_suffixes(), sa);
        // The report is self-consistent.
        prop_assert!(report.partitions >= 1);
        prop_assert!(report.virtual_trees <= report.partitions);
        prop_assert!(report.io.bytes_read > 0);
    }

    #[test]
    fn queries_agree_with_scanning(
        body in body_strategy(),
        pattern in proptest::collection::vec(any::<u8>(), 0..8),
    ) {
        let text = terminated(&body);
        let store = InMemoryStore::from_body_inferred(&body).unwrap();
        let config = EraConfig {
            memory_budget: 16 << 10,
            r_buffer_size: Some(512),
            input_buffer_size: 64,
            trie_area: 64,
            ..EraConfig::default()
        };
        let (tree, _) = era::construct(&store, &config).unwrap();
        // Query with a pattern sampled from the text (guaranteed hits) and the
        // arbitrary pattern (usually a miss).
        let sampled: Vec<u8> = if body.len() >= 3 {
            body[body.len() / 3..(body.len() / 3 + 3).min(body.len())].to_vec()
        } else {
            body.clone()
        };
        for p in [sampled.as_slice(), pattern.as_slice()] {
            let expected = scan_occurrences(&text, p);
            prop_assert_eq!(tree.try_find_all(&text, p).unwrap(), expected.clone());
            prop_assert_eq!(tree.try_count(&text, p).unwrap(), expected.len());
        }
    }

    #[test]
    fn suffix_array_substrate_matches_direct_sort(body in sa_body_strategy()) {
        let text = terminated(&body);
        let sa = suffix_array(&text);
        let mut direct: Vec<u32> = (0..text.len() as u32).collect();
        direct.sort_by(|&a, &b| text[a as usize..].cmp(&text[b as usize..]));
        prop_assert_eq!(&sa, &direct);
        // LCP sanity: lcp[i] is the exact common-prefix length.
        let lcp = lcp_kasai(&text, &sa);
        for i in 1..sa.len() {
            let a = &text[sa[i - 1] as usize..];
            let b = &text[sa[i] as usize..];
            let expect = a.iter().zip(b.iter()).take_while(|(x, y)| x == y).count() as u32;
            prop_assert_eq!(lcp[i], expect);
        }
    }

    #[test]
    fn suffix_array_matches_naive_on_every_shape(text in sa_text_strategy()) {
        let sa = suffix_array(&text);
        prop_assert_eq!(&sa, &suffix_array_naive(&text));
        prop_assert!(is_suffix_array(&text, &sa));
    }

    #[test]
    fn naive_reference_tree_is_always_valid(body in body_strategy()) {
        let text = terminated(&body);
        let tree = era_suffix_tree::naive_suffix_tree(&text);
        validate_suffix_tree(&tree, &text, Some(text.len())).unwrap();
    }

    #[test]
    fn longest_repeated_substring_is_correct(body in body_strategy()) {
        let text = terminated(&body);
        let store = InMemoryStore::from_body_inferred(&body).unwrap();
        let config = EraConfig {
            memory_budget: 8 << 10,
            r_buffer_size: Some(512),
            input_buffer_size: 64,
            trie_area: 64,
            ..EraConfig::default()
        };
        let (tree, _) = era::construct(&store, &config).unwrap();
        match tree.longest_repeated_substring() {
            None => {
                // No substring of length >= 1 repeats.
                for i in 0..body.len() {
                    let count = scan_occurrences(&text, &body[i..i + 1]).len();
                    prop_assert!(count <= 1, "symbol {:?} repeats", body[i]);
                }
            }
            Some((off, len)) => {
                let substr = &text[off as usize..(off + len) as usize];
                // It really does occur at least twice...
                prop_assert!(scan_occurrences(&text, substr).len() >= 2);
                // ...and nothing longer does (check all substrings one longer).
                let longer = len as usize + 1;
                for i in 0..body.len().saturating_sub(longer - 1) {
                    let candidate = &text[i..i + longer];
                    prop_assert!(
                        scan_occurrences(&text, candidate).len() < 2,
                        "a longer repeat {:?} exists", candidate
                    );
                }
            }
        }
    }
}
