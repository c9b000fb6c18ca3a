//! The `ERACAT1` catalog across store backends and across its two open modes.
//!
//! * Property: a catalog round-trips arbitrary texts from every store backend
//!   — packed builds from memory (`build_from_bytes`) and from disk
//!   (`build_from_path`), raw ones through `build_from_store` over an
//!   `InMemoryStore` or a `DiskStore` — and reopens, materialized *and* with
//!   the text left on disk, answering byte-identically to the in-memory build.
//! * The open mode follows the memory budget: a text segment over
//!   `EraConfig::memory_budget` is served block-wise from the catalog file;
//!   in either mode the file is read exactly once, byte for byte, to open it.
//! * A catalog truncated underneath an on-disk index turns queries into
//!   errors, never into answers.

use std::path::PathBuf;

use era::{EraConfig, Query, QueryBatch, SuffixIndex};
use era_string_store::{Alphabet, DiskStore, InMemoryStore};
use era_suffix_tree::catalog::{CatalogFile, HEADER_LEN};
use era_workloads::{alphabet_for, generate, DatasetKind, DatasetSpec};
use proptest::prelude::*;

/// A configuration under which a text segment of `text_bytes` bytes does not
/// fit the memory budget by one byte.
fn budget_below(text_bytes: usize) -> EraConfig {
    EraConfig { memory_budget: text_bytes - 1, ..EraConfig::default() }
}

fn scratch_file(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("era-catalog-{name}-{}.eracat", std::process::id()))
}

/// Arbitrary bodies over small alphabets (repeat-heavy inputs stress the
/// partitioning and the packed codec hardest). No byte 0: that is the
/// out-of-band terminal.
fn body_strategy() -> impl Strategy<Value = Vec<u8>> {
    let dna = proptest::collection::vec(
        prop_oneof![Just(b'A'), Just(b'C'), Just(b'G'), Just(b'T')],
        1..160,
    );
    let binary = proptest::collection::vec(prop_oneof![Just(b'a'), Just(b'b')], 1..160);
    let ascii = proptest::collection::vec(33u8..127u8, 1..100);
    prop_oneof![dna, binary, ascii]
}

/// Deterministic probes: substrings at fixed fractions of the body (always
/// present), plus one pattern guaranteed absent.
fn probes(body: &[u8]) -> Vec<Vec<u8>> {
    let mut probes = Vec::new();
    for (num, den, len) in [(0usize, 1usize, 3usize), (1, 2, 5), (2, 3, 8), (3, 4, 2)] {
        let start = (body.len() * num / den).min(body.len() - 1);
        let len = len.min(body.len() - start);
        probes.push(body[start..start + len].to_vec());
    }
    probes.push(vec![1u8, 2, 3]); // never occurs: 1..=3 are not in any alphabet here
    probes
}

fn assert_identical_answers(reopened: &SuffixIndex, reference: &SuffixIndex, probes: &[Vec<u8>]) {
    for probe in probes {
        assert_eq!(reopened.contains(probe), reference.contains(probe), "probe {probe:?}");
        assert_eq!(reopened.count(probe), reference.count(probe), "probe {probe:?}");
        assert_eq!(reopened.find_all(probe), reference.find_all(probe), "probe {probe:?}");
    }
    assert_eq!(reopened.text(), reference.text());
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    #[test]
    fn catalog_round_trips_byte_identically_across_backends(
        body in body_strategy(),
        packed in any::<bool>(),
        from_disk in any::<bool>(),
    ) {
        let scratch = std::env::temp_dir().join(format!(
            "era-catalog-prop-{}-{packed}-{from_disk}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&scratch);
        std::fs::create_dir_all(&scratch).unwrap();

        // Build through the requested backend family: every builder entry
        // point packs, and `build_from_store` keeps a raw store raw.
        let builder = SuffixIndex::builder().memory_budget(1 << 20);
        let alphabet = Alphabet::infer(&body).unwrap();
        let input = scratch.join("input.era");
        if from_disk {
            let mut text = body.clone();
            text.push(0);
            std::fs::write(&input, &text).unwrap();
        }
        let built = match (packed, from_disk) {
            (true, true) => builder.build_from_path(&input, alphabet),
            (true, false) => builder.build_from_bytes(&body),
            (false, true) => {
                builder.build_from_store(&DiskStore::open(&input, alphabet, 4 << 10).unwrap(), vec![])
            }
            (false, false) => {
                builder.build_from_store(&InMemoryStore::from_body(&body, alphabet).unwrap(), vec![])
            }
        }
        .unwrap();
        prop_assert_eq!(built.is_packed(), packed);
        let probes = probes(&body);

        let catalog = scratch.join("index.eracat");
        built.save_to_file(&catalog).unwrap();
        let materialized = SuffixIndex::open_file(&catalog).unwrap();
        prop_assert_eq!(materialized.is_packed(), packed);
        assert_identical_answers(&materialized, &built, &probes);

        // The same file with the text left on disk.
        let text_bytes = CatalogFile::open(&catalog).unwrap().toc().text_bytes;
        let on_disk = SuffixIndex::open_file_with(&catalog, &budget_below(text_bytes)).unwrap();
        prop_assert_eq!(on_disk.is_packed(), packed);
        prop_assert!(on_disk.store().is_some());
        assert_identical_answers(&on_disk, &built, &probes);

        std::fs::remove_dir_all(&scratch).unwrap();
    }
}

/// DNA, protein and English texts, each indexed and saved raw and packed:
/// `(name, body, packed, catalog path)`.
fn saved_catalogs(tag: &str) -> Vec<(String, Vec<u8>, bool, PathBuf)> {
    let mut out = Vec::new();
    for kind in [DatasetKind::GenomeLike, DatasetKind::Protein, DatasetKind::English] {
        let spec = DatasetSpec::new(kind, 24 << 10, 7);
        let body = generate(&spec);
        for packed in [false, true] {
            let name = format!("{}-{}", spec.tag(), if packed { "packed" } else { "raw" });
            let path = scratch_file(&format!("{tag}-{name}"));
            let builder = SuffixIndex::builder().memory_budget(1 << 20);
            let built = if packed {
                builder.build_from_bytes_with_alphabet(&body, alphabet_for(kind))
            } else {
                let store = InMemoryStore::from_body(&body, alphabet_for(kind)).unwrap();
                builder.build_from_store(&store, vec![])
            };
            built.unwrap().save_to_file(&path).unwrap();
            out.push((name, body.clone(), packed, path));
        }
    }
    out
}

/// A mixed batch over substrings drawn from across `body`, plus one absent
/// pattern.
fn mixed_batch(body: &[u8]) -> QueryBatch {
    let mut batch = QueryBatch::new();
    for i in 0..48usize {
        let len = 4 + i % 9;
        let start = (i * 7919) % (body.len() - len);
        let pattern = &body[start..start + len];
        batch.add(match i % 3 {
            0 => Query::contains(pattern),
            1 => Query::count(pattern),
            _ => Query::locate_page(pattern, 0, 16),
        });
    }
    batch.push(Query::count(vec![1u8, 2, 3]))
}

#[test]
fn open_mode_follows_the_memory_budget_with_identical_answers() {
    for (name, body, packed, path) in saved_catalogs("budget") {
        let file_len = std::fs::metadata(&path).unwrap().len();

        // What an open reads, counted where it is read: header, footer, TOC,
        // one pass over the text and every group segment — together, each
        // byte of the file exactly once, whether the text segment is read
        // into memory or left on disk.
        let text_bytes = CatalogFile::open(&path).unwrap().toc().text_bytes;
        for in_memory in [true, false] {
            let mut file = CatalogFile::open(&path).unwrap();
            let text = file.read_text(in_memory).unwrap();
            assert_eq!(text.map(|t| t.len()), in_memory.then_some(text_bytes), "{name}");
            file.load_groups().unwrap();
            assert_eq!(file.bytes_read(), file_len, "{name}, in memory: {in_memory}");
        }

        // A budget that still holds the text segment materializes it ...
        let at_budget = EraConfig { memory_budget: text_bytes, ..EraConfig::default() };
        let materialized = SuffixIndex::open_file_with(&path, &at_budget).unwrap();
        assert_eq!(materialized.store().is_some(), packed, "{name}: only packed texts use a store");
        // ... one byte less leaves it on disk, raw catalogs included.
        let served = SuffixIndex::open_file_with(&path, &budget_below(text_bytes)).unwrap();
        let store = served.store().unwrap_or_else(|| panic!("{name}: text must stay in a store"));
        assert_eq!(store.is_packed(), packed, "{name}");
        assert_eq!(served.is_packed(), packed, "{name}");
        assert_eq!(served.generation(), materialized.generation());

        let batch = mixed_batch(&body);
        let want = materialized.query_batch(&batch).unwrap();
        let got = served.query_batch(&batch).unwrap();
        assert_eq!(got.results, want.results, "{name}");
        assert!(got.stats.io.bytes_read > 0, "{name}: on-disk serving must account its reads");
        assert_eq!(want.stats.io.bytes_read, 0, "{name}: an in-memory text costs no I/O");
        std::fs::remove_file(&path).unwrap();
    }
}

#[test]
fn a_catalog_truncated_after_an_on_disk_open_fails_queries_instead_of_answering() {
    for (name, body, _, path) in saved_catalogs("trunc") {
        let image = std::fs::read(&path).unwrap();
        let text_bytes = CatalogFile::open(&path).unwrap().toc().text_bytes;
        let batch = mixed_batch(&body);
        let want = SuffixIndex::open_file(&path).unwrap().query_batch(&batch).unwrap().results;

        // The trees sit behind the text, so half the *file* still holds the
        // whole text segment: a cut there may only leave answers intact. A
        // cut to half the *text segment* (or to nothing) takes away blocks
        // the batch needs, and must surface as an error.
        let cuts = [(image.len() / 2, false), (HEADER_LEN + text_bytes / 2, true), (0, true)];
        for (cut, must_fail) in cuts {
            std::fs::write(&path, &image).unwrap();
            let served = SuffixIndex::open_file_with(&path, &budget_below(text_bytes))
                .unwrap()
                .with_cache_bytes(0);
            std::fs::write(&path, &image[..cut]).unwrap(); // truncates the open file in place
            match served.query_batch(&batch) {
                Ok(response) => {
                    assert!(!must_fail, "{name}: answered from a file cut to {cut} bytes");
                    assert_eq!(response.results, want, "{name}: cut to {cut} bytes");
                }
                Err(era::EraError::Io(_)) => assert!(must_fail, "{name}: cut to {cut} bytes"),
                Err(other) => panic!("{name}: cut to {cut} bytes: unexpected {other:?}"),
            }
            // Whole-text operations fail the same way instead of panicking.
            if must_fail {
                assert!(served.verify().is_err(), "{name}: verify over a cut file");
                assert!(served.save_to_file(scratch_file("never-written")).is_err());
            }
        }
        std::fs::remove_file(&path).unwrap();
    }
}
