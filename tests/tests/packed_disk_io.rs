//! Packed `DiskStore` under the full pipeline: identical trees, ~4x fewer
//! bytes.
//!
//! Construction over a packed DNA file must produce a byte-identical
//! `PartitionedSuffixTree` to the raw file under all three `GroupScheduler`s
//! and under the default `build_from_path`, which packs the raw file first,
//! while `IoStats.bytes_read` drops by at least 3x (2-bit DNA packs 4x
//! denser; the floor leaves headroom for header and partial-block effects).
//! Over DNA, protein, English and an inferred 8-bit alphabet alike,
//! `build_from_path` builds the trees `build_from_store` builds over the raw
//! file, reading fewer bytes wherever the alphabet is narrower than 8 bits.
//!
//! The `#[ignore]`d test repeats the check on a multi-MB workload — CI runs
//! it in release mode (see `.github/workflows/ci.yml`, job `packed-io`),
//! seeding the bigger-than-RAM read-amplification guard.

use std::path::PathBuf;

use era::{
    ConstructionPipeline, ConstructionReport, EraConfig, SerialScheduler, SharedMemoryScheduler,
    SharedNothingOptions, SharedNothingScheduler, SuffixIndex,
};
use era_string_store::{Alphabet, DiskStore, PackedDiskStore, StringStore};
use era_suffix_tree::PartitionedSuffixTree;
use era_tests::tree_bytes;
use era_workloads::{alphabet_for, generate, genome_like, DatasetKind, DatasetSpec};

const BLOCK: usize = 4 << 10;

fn config(budget: usize) -> EraConfig {
    EraConfig {
        memory_budget: budget,
        input_buffer_size: 4 << 10,
        trie_area: 1 << 10,
        ..EraConfig::default()
    }
}

struct Dataset {
    dir: PathBuf,
    raw_path: PathBuf,
    packed_path: PathBuf,
}

impl Dataset {
    fn materialise(tag: &str, body: &[u8]) -> Dataset {
        let dir = std::env::temp_dir().join(format!("era-packed-io-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let raw_path = dir.join("dna.era");
        let mut text = body.to_vec();
        text.push(0);
        std::fs::write(&raw_path, &text).unwrap();
        let packed_path = dir.join("dna.erap");
        {
            let raw = DiskStore::open(&raw_path, Alphabet::dna(), BLOCK).unwrap();
            let _ = PackedDiskStore::pack_store(&raw, &packed_path, BLOCK).unwrap();
        }
        Dataset { dir, raw_path, packed_path }
    }

    fn open_raw(&self) -> DiskStore {
        DiskStore::open(&self.raw_path, Alphabet::dna(), BLOCK).unwrap()
    }

    fn open_packed(&self) -> PackedDiskStore {
        PackedDiskStore::open(&self.packed_path, BLOCK).unwrap()
    }
}

impl Drop for Dataset {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Builds with every scheduler against stores opened by `open`, returning
/// labelled trees and reports.
fn all_scheduler_builds<S: StringStore, F: Fn() -> S>(
    cfg: &EraConfig,
    open: F,
) -> Vec<(String, PartitionedSuffixTree, ConstructionReport)> {
    let pipeline = ConstructionPipeline::new(cfg);
    let mut out = Vec::new();

    let store = open();
    let (tree, report) = pipeline.run(&SerialScheduler::new(&store)).unwrap();
    out.push(("serial".to_string(), tree, report));

    let store = open();
    let (tree, report) = pipeline.run(&SharedMemoryScheduler::new(&store, 3)).unwrap();
    out.push(("shared-memory/3".to_string(), tree, report));

    let stores: Vec<S> = (0..2).map(|_| open()).collect();
    let scheduler = SharedNothingScheduler::new(&stores, SharedNothingOptions::default()).unwrap();
    let (tree, report) = pipeline.run(&scheduler).unwrap();
    out.push(("shared-nothing/2".to_string(), tree, report));
    out
}

fn assert_packed_matches_raw(body: &[u8], budget: usize, block_ratio: u64, tag: &str) {
    let dataset = Dataset::materialise(tag, body);
    let cfg = config(budget);
    let raw_builds = all_scheduler_builds(&cfg, || dataset.open_raw());
    let packed_builds = all_scheduler_builds(&cfg, || dataset.open_packed());
    let reference = tree_bytes(&raw_builds[0].1);

    // The default file build packs the raw file itself and scans the codes.
    let path_build = SuffixIndex::builder()
        .config(cfg.clone())
        .build_from_path(&dataset.raw_path, Alphabet::dna())
        .unwrap();
    assert!(path_build.is_packed());
    assert_eq!(tree_bytes(path_build.tree()), reference, "build_from_path disagrees");
    let (path_bytes, raw_bytes) =
        (path_build.report().io.bytes_read, raw_builds[0].2.io.bytes_read);
    assert!(
        path_bytes.max(1) * 3 <= raw_bytes,
        "build_from_path read {path_bytes} bytes, raw {raw_bytes} — expected a >=3x reduction"
    );

    for ((label, raw_tree, raw_report), (_, packed_tree, packed_report)) in
        raw_builds.iter().zip(&packed_builds)
    {
        assert_eq!(
            tree_bytes(raw_tree),
            reference,
            "{label}: raw build disagrees with serial raw build"
        );
        assert_eq!(
            tree_bytes(packed_tree),
            reference,
            "{label}: packed build must be byte-identical to the raw build"
        );
        let raw_bytes = raw_report.io.bytes_read;
        let packed_bytes = packed_report.io.bytes_read.max(1);
        assert!(
            packed_bytes * 3 <= raw_bytes,
            "{label}: packed store read {packed_bytes} bytes, raw {raw_bytes} — \
             expected a >=3x reduction (2-bit DNA packs 4x denser)"
        );
        // Blocks follow the same trend but compress toward 1x at tiny
        // scale: every scan touches at least one block whether packed or
        // not, so the caller picks the floor (2x at smoke scale, 3x once
        // the string spans many blocks).
        assert!(
            packed_report.io.blocks_read * block_ratio <= raw_report.io.blocks_read.max(1),
            "{label}: packed blocks {} vs raw {}",
            packed_report.io.blocks_read,
            raw_report.io.blocks_read
        );
    }
}

#[test]
fn packed_disk_store_matches_raw_across_schedulers() {
    let body = genome_like(24 << 10, 42);
    assert_packed_matches_raw(&body, 64 << 10, 2, "small");
}

/// Multi-MB version for CI (release mode): `cargo test --release -p era-tests
/// --test packed_disk_io -- --include-ignored`.
#[test]
#[ignore = "multi-MB workload; run explicitly / in the CI packed-io job"]
fn packed_disk_store_matches_raw_on_multi_mb_workload() {
    let body = genome_like(4 << 20, 1117);
    assert_packed_matches_raw(&body, 2 << 20, 3, "large");
}

/// `build_from_path` over a raw file against `build_from_store` over the same
/// file opened raw: byte-identical group arenas and answers, and fewer bytes
/// read for every alphabet narrower than 8 bits.
#[test]
fn build_from_path_builds_over_codes_for_every_alphabet() {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let wide: Vec<u8> = (0..16 << 10)
        .map(|_| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (1 + (state >> 33) % 200) as u8
        })
        .collect();
    let wide_alphabet = Alphabet::infer(&wide).unwrap();
    assert!(wide_alphabet.len() > 128 && wide_alphabet.bits_per_symbol() == 8);
    let mut texts = vec![("inferred", wide, wide_alphabet)];
    for (name, kind) in [
        ("dna", DatasetKind::GenomeLike),
        ("protein", DatasetKind::Protein),
        ("english", DatasetKind::English),
    ] {
        texts.push((name, generate(&DatasetSpec::new(kind, 16 << 10, 5)), alphabet_for(kind)));
    }
    let dir = std::env::temp_dir().join(format!("era-path-codes-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (name, body, alphabet) in texts {
        let path = dir.join(format!("{name}.era"));
        let mut text = body.clone();
        text.push(0);
        std::fs::write(&path, &text).unwrap();
        let builder = || SuffixIndex::builder().config(config(64 << 10));
        let packed = builder().build_from_path(&path, alphabet.clone()).unwrap();
        let raw_store = DiskStore::open(&path, alphabet.clone(), BLOCK).unwrap();
        let raw = builder().build_from_store(&raw_store, vec![]).unwrap();
        assert!(packed.is_packed() && !raw.is_packed(), "{name}");
        assert_eq!(tree_bytes(packed.tree()), tree_bytes(raw.tree()), "{name}: arenas differ");
        for at in [0, body.len() / 3, body.len() / 2, body.len() - 12] {
            let pattern = &body[at..at + 12.min(body.len() - at)];
            for len in [1, 3, pattern.len()] {
                let probe = &pattern[..len];
                assert_eq!(packed.find_all(probe), raw.find_all(probe), "{name}: {probe:?}");
                assert_eq!(packed.count(probe), raw.count(probe), "{name}: {probe:?}");
            }
        }
        assert!(!packed.contains(&[0x01, 0xFF]) && !raw.contains(&[0x01, 0xFF]));
        let (packed_bytes, raw_bytes) = (packed.report().io.bytes_read, raw.report().io.bytes_read);
        if alphabet.bits_per_symbol() < 8 {
            assert!(
                packed_bytes < raw_bytes,
                "{name}: path build read {packed_bytes}, raw {raw_bytes}"
            );
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The packed file itself is ~4x smaller than the raw file — the other half
/// of §6.1's argument (more of `S` fits in one block / in memory).
#[test]
fn packed_file_is_four_times_smaller() {
    let body = genome_like(16 << 10, 7);
    let dataset = Dataset::materialise("size", &body);
    let raw_len = std::fs::metadata(&dataset.raw_path).unwrap().len();
    let packed_len = std::fs::metadata(&dataset.packed_path).unwrap().len();
    assert!(packed_len * 3 < raw_len, "packed file {packed_len} bytes vs raw {raw_len}");
}
