//! `SubTreePrepare` reads codes, not symbols: its records hold a store's own
//! bits (2 per DNA symbol on a packed store, 8 on a raw one), compared and
//! ordered without decoding. These property tests pin what must not move:
//!
//! * the code view of a [`BlockCursor`] reads what [`BlockCursor::slice`]
//!   reads, and charges the store's counters exactly as a slice pass does —
//!   which keeps `build_read_amp` comparable across the two;
//! * `prepare_group` returns the same `L` / `B` whatever the encoding, at
//!   every code width from 1 to 8 bits, over raw, packed in-memory and
//!   packed on-disk stores (the last directly, behind `&` and behind `Arc`).

use std::path::PathBuf;
use std::sync::Arc;

use era::config::RangePolicy;
use era::horizontal::prepare::{prepare_group, PreparedSubTree};
use era::horizontal::HorizontalParams;
use era_string_store::{
    Alphabet, BlockCursor, DiskStore, InMemoryStore, PackedCodec, PackedDiskStore,
    PackedMemoryStore, StringStore,
};
use era_tests::{prefix_free, scan_occurrences, terminated};
use proptest::collection;
use proptest::prelude::*;

/// Alphabets of 2, 3, 4, 5, 16, 20, 32, 33 and 200 symbols: code widths 1–8.
fn alphabet(which: usize) -> Alphabet {
    let n = [2u8, 3, 4, 5, 16, 20, 32, 33, 200][which];
    Alphabet::custom(&(0..n).map(|i| i + 33).collect::<Vec<u8>>()).expect("valid alphabet")
}

fn work_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("era-code-equivalence-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// What the code view must hand out for the symbols `slice` returned: a raw
/// store's bytes, or the packed codes of the body — the terminal has none —
/// padded with zero bits to whole bytes.
fn expected_codes(store: &dyn StringStore, symbols: &[u8]) -> Vec<u8> {
    if !store.is_packed() {
        return symbols.to_vec();
    }
    let body = symbols.strip_suffix(&[0]).unwrap_or(symbols);
    let mut codes = PackedCodec::new(store.alphabet()).pack_body(body).expect("body symbols");
    codes.resize((symbols.len() * store.code_bits() as usize).div_ceil(8), 0);
    codes
}

/// One slice pass over `slice_store` and one code pass over `code_store` (a
/// fresh twin), for the same ascending requests.
fn compare_passes(
    slice_store: &dyn StringStore,
    code_store: &dyn StringStore,
    reads: &[(usize, usize)],
    skip: bool,
) {
    let mut slices = BlockCursor::new(slice_store, skip);
    let mut codes = BlockCursor::new_codes(code_store, skip);
    let mut out = vec![0xA5u8; 1024];
    for &(pos, len) in reads {
        let symbols = slices.slice(pos, len).expect("ascending request").to_vec();
        let n = codes.codes(pos, len, &mut out).expect("ascending request");
        assert_eq!(n, symbols.len(), "symbols covered at {pos}+{len}");
        let expect = expected_codes(code_store, &symbols);
        assert_eq!(&out[..expect.len()], &expect[..], "codes at {pos}+{len}, skip {skip}");
    }
    let (by_slice, by_code) = (slice_store.stats().snapshot(), code_store.stats().snapshot());
    assert_eq!(by_code, by_slice, "I/O counters of the code pass, skip {skip}");
    assert_eq!(by_code.sequential_fraction(), by_slice.sequential_fraction());
}

fn params(r_capacity: usize, range_policy: RangePolicy, seek: bool) -> HorizontalParams {
    HorizontalParams { r_capacity, range_policy, min_range: 1, seek_optimization: seek }
}

/// `L` in suffix order and every `B` entry right, against the text itself.
fn check_against_text(text: &[u8], prepared: &[PreparedSubTree]) {
    for sub in prepared {
        for (k, b) in sub.branching.iter().enumerate() {
            let (left, right) = (sub.leaves[k] as usize, sub.leaves[k + 1] as usize);
            assert!(text[left..] < text[right..], "L out of order under {:?}", sub.prefix);
            let lcp = text[left..].iter().zip(&text[right..]).take_while(|(x, y)| x == y).count();
            assert_eq!(b.lcp as usize, lcp, "lcp under {:?}", sub.prefix);
            assert_eq!(b.left_char, text[left + lcp]);
            assert_eq!(b.right_char, text[right + lcp]);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 40, max_shrink_iters: 0 })]

    #[test]
    fn the_code_view_reads_what_slice_reads(
        which in 0usize..9,
        raw_bytes in collection::vec(any::<u8>(), 1..700),
        requests in collection::vec((0usize..700, 0usize..90), 1..24),
        block in 0usize..3,
        skip in any::<bool>(),
    ) {
        let alphabet = alphabet(which);
        let symbols = alphabet.symbols();
        let body: Vec<u8> = raw_bytes.iter().map(|&b| symbols[b as usize % symbols.len()]).collect();
        let text_len = body.len() + 1;
        let mut reads: Vec<(usize, usize)> =
            requests.iter().map(|&(pos, len)| (pos % text_len, len)).collect();
        reads.push((text_len - 1, 3)); // the terminal alone
        reads.sort_unstable();
        // Tiny blocks, so that requests straddle logical blocks.
        let block_bytes = [1usize, 3, 8][block];

        let raw = || {
            InMemoryStore::from_body(&body, alphabet.clone())
                .unwrap()
                .with_block_size(block_bytes)
                .unwrap()
        };
        compare_passes(&raw(), &raw(), &reads, skip);

        let packed = || {
            PackedMemoryStore::from_body(&body, alphabet.clone())
                .unwrap()
                .with_block_size(block_bytes)
                .unwrap()
        };
        compare_passes(&packed(), &packed(), &reads, skip);

        let dir = work_dir();
        let raw_file =
            DiskStore::create(dir.join("view.era"), &body, alphabet.clone(), block_bytes).unwrap();
        let raw_twin = DiskStore::open(raw_file.path(), alphabet.clone(), block_bytes).unwrap();
        compare_passes(&raw_file, &raw_twin, &reads, skip);

        let packed_file =
            PackedDiskStore::create(dir.join("view.erap"), &body, alphabet.clone(), block_bytes)
                .unwrap();
        let packed_twin = PackedDiskStore::open(packed_file.path(), block_bytes).unwrap();
        compare_passes(&packed_file, &packed_twin, &reads, skip);
    }

    #[test]
    fn prepare_is_the_same_whatever_the_encoding(
        which in 0usize..9,
        raw_bytes in collection::vec(any::<u8>(), 1..600),
        periodic in any::<bool>(),
        period in 1usize..8,
        prefix_len in 1usize..4,
    ) {
        let alphabet = alphabet(which);
        let symbols = alphabet.symbols();
        let mut body: Vec<u8> =
            raw_bytes.iter().map(|&b| symbols[b as usize % symbols.len()]).collect();
        if periodic {
            let unit = body[..period.min(body.len())].to_vec();
            body = unit.iter().copied().cycle().take(body.len()).collect();
        }
        let text = terminated(&body);
        // Prefixes from the start, the middle and the very end of the text:
        // the suffixes below the last are clamped at the terminal.
        let prefix_at = |at: usize| text[at..(at + prefix_len).min(text.len())].to_vec();
        let prefixes = prefix_free(vec![
            prefix_at(0),
            prefix_at(text.len() / 2),
            prefix_at(text.len().saturating_sub(prefix_len + 1)),
            prefix_at(text.len() - 2.min(text.len())),
        ]);
        let occurrences: Vec<Vec<u32>> = prefixes.iter().map(|p| scan_occurrences(&text, p)).collect();
        // One byte of R per suffix: the elastic range starts at 8 / w
        // symbols, so repeats take several rounds.
        let r_capacity: usize = occurrences.iter().map(Vec::len).sum();

        let raw = InMemoryStore::from_body(&body, alphabet.clone())
            .unwrap()
            .with_block_size(16)
            .unwrap();
        let packed = PackedMemoryStore::from_body(&body, alphabet.clone())
            .unwrap()
            .with_block_size(4)
            .unwrap();
        let disk = Arc::new(
            PackedDiskStore::create(work_dir().join("prepare.erap"), &body, alphabet.clone(), 8)
                .unwrap(),
        );
        let by_ref: &PackedDiskStore = &disk;

        for (k, policy) in [
            RangePolicy::Elastic,
            RangePolicy::Fixed(1),
            RangePolicy::Fixed(3),
            RangePolicy::Fixed(16),
        ]
        .into_iter()
        .enumerate()
        {
            let p = params(r_capacity, policy, k % 2 == 0);
            let scans = raw.stats().snapshot().full_scans;
            let expected = prepare_group(&raw, &prefixes, &occurrences, &p).expect("raw prepare");
            if periodic && body.len() >= 64 {
                let rounds = raw.stats().snapshot().full_scans - scans;
                prop_assert!(rounds >= 3, "{policy:?}: {rounds} rounds");
            }
            check_against_text(&text, &expected);
            let stores: [(&str, &dyn StringStore); 4] = [
                ("packed memory", &packed),
                ("packed disk", &*disk),
                ("packed disk behind &", &by_ref),
                ("packed disk behind Arc", &disk),
            ];
            for (name, store) in stores {
                let got = prepare_group(store, &prefixes, &occurrences, &p).expect("packed prepare");
                prop_assert!(got == expected, "{name} under {policy:?}: {got:?} vs {expected:?}");
            }
        }
    }
}
