//! Packed stores must be observationally identical to raw stores.
//!
//! The packed backends decode inside `read_at`, so every layer above them —
//! `BlockCursor`, `collect_occurrences`, the whole construction pipeline —
//! must see exactly the bytes a raw store serves. These property tests pin
//! that: byte-identical trees and identical occurrence sets between raw and
//! packed stores across DNA, protein, English and custom alphabets at the
//! bit-width boundaries (15/16/31/32 symbols), a round-trip through the
//! packed on-disk header format, and arbitrary `(pos, len)` reads through both
//! packed stores and a `BlockCursor` over them at several block sizes.

use era::{ConstructionPipeline, EraConfig, SerialScheduler};
use era_string_store::{
    Alphabet, BlockCursor, InMemoryStore, PackedDiskStore, PackedMemoryStore, StringStore, TERMINAL,
};
use era_tests::{prefix_free, scan_occurrences, terminated, tree_bytes};
use proptest::collection;
use proptest::prelude::*;

fn config() -> EraConfig {
    EraConfig {
        memory_budget: 8 << 10,
        r_buffer_size: Some(512),
        input_buffer_size: 128,
        trie_area: 128,
        ..EraConfig::default()
    }
}

/// The alphabets under test: the paper's three plus custom alphabets at the
/// 4-bit/5-bit width boundaries.
fn alphabets() -> Vec<Alphabet> {
    let custom = |n: u8| {
        Alphabet::custom(&(0..n).map(|i| i + 33).collect::<Vec<u8>>()).expect("valid alphabet")
    };
    vec![
        Alphabet::dna(),
        Alphabet::protein(),
        Alphabet::english(),
        custom(15),
        custom(16),
        custom(31),
        custom(32),
    ]
}

/// Maps raw generator bytes onto alphabet symbols.
fn body_from(raw: &[u8], alphabet: &Alphabet) -> Vec<u8> {
    let symbols = alphabet.symbols();
    raw.iter().map(|&b| symbols[b as usize % symbols.len()]).collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 40, max_shrink_iters: 0 })]

    #[test]
    fn packed_and_raw_stores_build_identical_trees(
        which in 0usize..7,
        raw_bytes in collection::vec(any::<u8>(), 1..400),
    ) {
        let alphabet = alphabets()[which].clone();
        let body = body_from(&raw_bytes, &alphabet);
        let cfg = config();
        let pipeline = ConstructionPipeline::new(&cfg);

        let raw = InMemoryStore::from_body(&body, alphabet.clone())
            .expect("valid body")
            .with_block_size(64)
            .unwrap();
        let (raw_tree, _) = pipeline.run(&SerialScheduler::new(&raw)).expect("raw build");

        let packed = PackedMemoryStore::from_body(&body, alphabet.clone())
            .expect("valid body")
            .with_block_size(64)
            .unwrap();
        let (packed_tree, _) = pipeline.run(&SerialScheduler::new(&packed)).expect("packed build");

        prop_assert_eq!(tree_bytes(&raw_tree), tree_bytes(&packed_tree));
    }

    #[test]
    fn packed_and_raw_stores_agree_on_occurrences(
        which in 0usize..7,
        raw_bytes in collection::vec(any::<u8>(), 1..300),
        pat_start in 0usize..300,
        pat_len in 1usize..12,
    ) {
        let alphabet = alphabets()[which].clone();
        let body = body_from(&raw_bytes, &alphabet);
        let text = terminated(&body);
        let start = pat_start % body.len();
        // The sampled substring may begin with the single symbol, which then
        // gives way: the scan takes prefix-free sets.
        let patterns = prefix_free(vec![
            body[start..(start + pat_len).min(body.len())].to_vec(),
            vec![TERMINAL],
            vec![alphabet.symbols()[0]],
            b"\x02never".to_vec(), // guaranteed miss
        ]);

        let raw = InMemoryStore::from_body(&body, alphabet.clone())
            .unwrap()
            .with_block_size(32)
            .unwrap();
        let packed = PackedMemoryStore::from_body(&body, alphabet.clone())
            .unwrap()
            .with_block_size(32)
            .unwrap();
        let from_raw = era::scan::collect_occurrences(&raw, &patterns).expect("raw scan");
        let from_packed = era::scan::collect_occurrences(&packed, &patterns).expect("packed scan");
        prop_assert_eq!(&from_raw, &from_packed);
        for (i, p) in patterns.iter().enumerate() {
            prop_assert_eq!(&from_raw[i], &scan_occurrences(&text, p));
        }
    }

    #[test]
    fn packed_disk_roundtrip_through_header(
        which in 0usize..7,
        raw_bytes in collection::vec(any::<u8>(), 1..300),
    ) {
        let alphabet = alphabets()[which].clone();
        let body = body_from(&raw_bytes, &alphabet);
        let dir = std::env::temp_dir()
            .join(format!("era-packed-prop-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();

        let store = PackedDiskStore::create_in_dir(&dir, "prop", &body, alphabet.clone())
            .expect("create packed file");
        prop_assert_eq!(store.bits_per_symbol(), alphabet.bits_per_symbol());
        prop_assert_eq!(store.read_all().expect("read back"), terminated(&body));

        // Re-open from the header alone: alphabet and contents survive.
        let reopened = PackedDiskStore::open(store.path(), 512).expect("reopen");
        prop_assert_eq!(reopened.alphabet().symbols(), alphabet.symbols());
        prop_assert_eq!(reopened.read_all().expect("read back"), terminated(&body));
    }

    #[test]
    fn packed_reads_return_the_raw_text(
        which in 0usize..3, // DNA, protein, English: the table-decoded widths
        raw_bytes in collection::vec(any::<u8>(), 1..600),
        requests in collection::vec((0usize..600, 0usize..130), 1..12),
        block in 0usize..4,
    ) {
        let alphabet = alphabets()[which].clone();
        let body = body_from(&raw_bytes, &alphabet);
        let text = terminated(&body);
        // Packed bytes per block; 24 is accepted although no power of two.
        let block_bytes = [8usize, 24, 64, 512][block];
        // Random ranges start mid-byte more often than not; the last ten end
        // on the out-of-band terminal from every alignment.
        let mut reads: Vec<(usize, usize)> =
            requests.iter().map(|&(pos, len)| (pos % text.len(), len)).collect();
        reads.extend((0..text.len().min(10)).map(|k| (text.len() - 1 - k, k + 1)));

        let dir = std::env::temp_dir()
            .join(format!("era-packed-prop-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let created = PackedDiskStore::create_in_dir(&dir, "reads", &body, alphabet.clone())
            .expect("create packed file");
        let disk = PackedDiskStore::open(created.path(), block_bytes).expect("reopen");
        let memory = PackedMemoryStore::from_body(&body, alphabet.clone())
            .unwrap()
            .with_block_size(block_bytes)
            .unwrap();
        let stores: [&dyn StringStore; 2] = [&memory, &disk];
        let mut ascending = reads.clone();
        ascending.sort_unstable();

        for store in stores {
            for &(pos, len) in &reads {
                let mut buf = vec![0xAAu8; len];
                #[expect(clippy::disallowed_methods, reason = "the property under test")]
                let take = store.read_at(pos, &mut buf).expect("read in bounds");
                prop_assert_eq!(take, len.min(text.len() - pos));
                prop_assert_eq!(&buf[..take], &text[pos..pos + take]);
            }
            let mut cursor = BlockCursor::new(store, false);
            for &(pos, len) in &ascending {
                let end = (pos + len).min(text.len());
                prop_assert_eq!(cursor.slice(pos, len).expect("ascending request"), &text[pos..end]);
            }
        }
    }
}
