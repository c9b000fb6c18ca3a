//! Corruption matrix: systematic single-bit-flip, truncation and
//! trailing-garbage mutations over every on-disk format, asserting that
//! **every** mutation is rejected with a diagnostic — never a panic, never a
//! silent pass, never a header-sized allocation (CI runs this suite under an
//! address-space limit).
//!
//! The matrix is exhaustive where the format makes exhaustiveness possible:
//!
//! * `ERACAT1` catalog — every bit of every byte (the per-segment checksums
//!   and strict contiguity make the *whole file* load-bearing), truncation at
//!   every length, and adversarial TOC values behind a recomputed checksum.
//!   Each mutation must be rejected by **both** open modes: the whole-image
//!   one (`era-check fsck --deep`) and the streaming one that leaves the text
//!   on disk (`open_file_with` under a budget below the text segment).
//! * `ERAFLAT1` segment — every bit of every byte of a bare segment, without
//!   a checksum in front of it. The flat record format was deliberately
//!   tightened so this holds: reserved meta bits and the root's unused fields
//!   must be zero, every other field is re-derived from the text by the deep
//!   pass.
//! * `ERAP` packed text file (a build input) — every bit of the fixed header
//!   and symbol table, and every truncation. Payload bits are **excluded**:
//!   the standalone format has no checksum (a catalog's segment checksum
//!   covers them).

#![deny(rust_2018_idioms)]

use std::fs;
use std::path::{Path, PathBuf};

use era::{EraConfig, EraError, SuffixIndex};
use era_check::fsck::fsck_file;
use era_string_store::{Alphabet, ByteReader, InMemoryStore, PackedDiskStore, StringStore};
use era_suffix_tree::serialize::{read_flat_tree, write_flat_tree};
use era_suffix_tree::{parse_catalog, validate_partitioned, FlatPartition, PartitionedSuffixTree};

const TEXT: &[u8] = b"GATTACAGATTACAGGATCCGATTACA";

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("era-matrix-{name}-{}", std::process::id()))
}

/// A packed catalog from the default build, or a raw one from
/// `build_from_store` over a raw store.
fn build_catalog(path: &Path, packed: bool) {
    let builder = SuffixIndex::builder();
    let index = if packed {
        builder.build_from_bytes(TEXT)
    } else {
        builder.build_from_store(&InMemoryStore::from_body_inferred(TEXT).unwrap(), Vec::new())
    };
    index.unwrap().save_to_file(path).unwrap();
}

/// The budget under which `open_file_with` leaves any text segment on disk.
fn on_disk() -> EraConfig {
    EraConfig { memory_budget: 1, ..EraConfig::default() }
}

fn assert_clean(path: &Path) {
    fsck_file(path, true).expect("pristine catalog must verify clean");
    assert!(SuffixIndex::open_file_with(path, &on_disk()).unwrap().store().is_some());
}

/// Asserts the (mutated) catalog at `path` is rejected with a diagnostic by
/// both open modes.
fn assert_rejected(path: &Path, what: &str) {
    let whole_image = fsck_file(path, true);
    let err = whole_image.expect_err(&format!("{what} went undetected by the whole-image open"));
    assert!(!err.is_empty(), "{what} produced an empty diagnostic");
    let streamed = SuffixIndex::open_file_with(path, &on_disk());
    let err =
        streamed.err().unwrap_or_else(|| panic!("{what} went undetected by the on-disk open"));
    assert!(!err.to_string().is_empty(), "{what} produced an empty diagnostic");
}

/// Every single-bit mutation of `pristine[..len]`, with a label for
/// diagnostics.
fn bit_flips(pristine: &[u8], len: usize) -> impl Iterator<Item = (Vec<u8>, String)> + '_ {
    (0..len * 8).map(|i| {
        let mut bytes = pristine.to_vec();
        bytes[i / 8] ^= 1 << (i % 8);
        (bytes, format!("flipping bit {} of byte {}", i % 8, i / 8))
    })
}

/// Every truncation of `pristine`, and `pristine` with trailing garbage.
fn length_mutations(pristine: &[u8]) -> impl Iterator<Item = (Vec<u8>, String)> + '_ {
    let cuts = (0..pristine.len()).map(|cut| (pristine[..cut].to_vec(), format!("cut to {cut}")));
    cuts.chain([1usize, 7, 512].into_iter().map(|extra| {
        let garbage = std::iter::repeat_n(0xAA, extra);
        (pristine.iter().copied().chain(garbage).collect(), format!("{extra} trailing bytes"))
    }))
}

#[test]
fn every_bit_of_the_catalog_is_load_bearing() {
    // The catalog checksums its text and tree segments and pins every region
    // contiguously — so the matrix covers the *entire file*, both encodings.
    for packed in [false, true] {
        let path = temp_path(if packed { "cat-bits-packed" } else { "cat-bits-raw" });
        build_catalog(&path, packed);
        assert_clean(&path);
        let pristine = fs::read(&path).unwrap();
        for (bytes, what) in bit_flips(&pristine, pristine.len()) {
            fs::write(&path, &bytes).unwrap();
            assert_rejected(&path, &what);
        }
        fs::write(&path, &pristine).unwrap();
        assert_clean(&path);
        fs::remove_file(&path).unwrap();
    }
}

#[test]
fn every_truncation_of_the_catalog_is_rejected() {
    let path = temp_path("cat-lengths");
    build_catalog(&path, true);
    assert_clean(&path);
    let pristine = fs::read(&path).unwrap();
    for (bytes, what) in length_mutations(&pristine) {
        fs::write(&path, &bytes).unwrap();
        assert_rejected(&path, &what);
    }
    fs::write(&path, &pristine).unwrap();
    assert_clean(&path);
    fs::remove_file(&path).unwrap();
}

/// FNV-1a 64, re-implemented locally so adversarial TOC values can be hidden
/// behind a *valid* checksum — forcing the parser to reject the values
/// themselves, not merely the broken checksum.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf29ce484222325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

/// Hostile-TOC fixtures: not random corruption but *adversarial* values —
/// maxed-out counts and lengths that would truncate under a 32-bit `as` cast
/// or request multi-GB reservations if the parser trusted them. The format
/// modules deny unchecked arithmetic and truncating casts at compile time;
/// no lint sees an allocation sized by a header, so this test (run under an
/// address-space limit) is the proof for those: every case must come back as
/// a diagnostic, never a panic, never a huge allocation.
#[test]
#[expect(clippy::disallowed_methods, reason = "the test reads the footer it corrupts")]
fn hostile_catalog_toc_values_are_rejected_without_panics_or_allocation() {
    let path = temp_path("cat-hostile");
    build_catalog(&path, false);
    assert_clean(&path);
    let pristine = fs::read(&path).unwrap();
    let footer_at = pristine.len() - 32;
    let toc_offset =
        u64::from_le_bytes(pristine[footer_at..footer_at + 8].try_into().unwrap()) as usize;
    let toc_len =
        u64::from_le_bytes(pristine[footer_at + 8..footer_at + 16].try_into().unwrap()) as usize;

    // TOC layout: generation u64, text_len u64, flags u8, alphabet_len u8,
    // reserved u16, group_count u32, alphabet (alen symbols), text_offset u64,
    // text_bytes u64, text_checksum u64, then per group: generation u64,
    // offset u64, length u64, checksum u64, prefix_len u32, prefix — plant
    // maxed-out values at each wide field and recompute the TOC checksum so
    // the parser must reject the *value*, not the hash.
    let alen = usize::from(pristine[toc_offset + 17]);
    let group0 = toc_offset + 24 + alen + 24;
    let hostile: [(usize, Vec<u8>); 7] = [
        (toc_offset + 8, u64::MAX.to_le_bytes().to_vec()), // text_len
        (toc_offset + 20, u32::MAX.to_le_bytes().to_vec()), // group_count
        (toc_offset + 17, vec![0xFF]),                     // alphabet_len > 255 symbols on file
        (toc_offset + 24 + alen + 8, u64::MAX.to_le_bytes().to_vec()), // text_bytes
        (group0 + 8, u64::MAX.to_le_bytes().to_vec()),     // group 0 offset
        (group0 + 16, u64::MAX.to_le_bytes().to_vec()),    // group 0 length
        (group0 + 32, u32::MAX.to_le_bytes().to_vec()),    // group 0 prefix length
    ];
    for (at, value) in hostile {
        let mut bytes = pristine.clone();
        bytes[at..at + value.len()].copy_from_slice(&value);
        let checksum = fnv1a64(&bytes[toc_offset..toc_offset + toc_len]);
        bytes[footer_at + 16..footer_at + 24].copy_from_slice(&checksum.to_le_bytes());
        fs::write(&path, &bytes).unwrap();
        assert_rejected(&path, &format!("hostile TOC value at {at}"));
    }
    // A footer claiming a u64::MAX-byte TOC: rejected before anything is
    // allocated for it.
    let mut bytes = pristine.clone();
    bytes[footer_at + 8..footer_at + 16].copy_from_slice(&u64::MAX.to_le_bytes());
    fs::write(&path, &bytes).unwrap();
    assert_rejected(&path, "hostile footer TOC length");

    fs::write(&path, &pristine).unwrap();
    assert_clean(&path);
    fs::remove_file(&path).unwrap();
}

/// The TOC's symbol table is decoded like the packed header's: a table that
/// is not strictly ascending, permuted or holding a symbol twice, is
/// corruption behind a valid TOC checksum too, never sorted and deduplicated
/// into some other alphabet.
#[test]
fn a_non_canonical_toc_symbol_table_is_corrupt() {
    let path = temp_path("cat-symbol-table");
    build_catalog(&path, true);
    let pristine = fs::read(&path).unwrap();
    let footer_at = pristine.len() - 32;
    let mut footer = ByteReader::new(&pristine[footer_at..], "catalog footer");
    let toc_offset = footer.usize("toc offset").unwrap();
    let toc_len = footer.usize("toc length").unwrap();
    // TOC: generation u64, text_len u64, flags u8, alphabet_len u8, reserved
    // u16, group_count u32, then the symbol table.
    let table = toc_offset + 24;
    assert_eq!(&pristine[table..table + 4], b"ACGT");
    for bad in [b"CAGT", b"AAGT"] {
        let mut bytes = pristine.clone();
        bytes[table..table + 4].copy_from_slice(bad);
        let checksum = fnv1a64(&bytes[toc_offset..toc_offset + toc_len]);
        bytes[footer_at + 16..footer_at + 24].copy_from_slice(&checksum.to_le_bytes());
        let what = String::from_utf8_lossy(bad);
        let err = parse_catalog(&bytes).expect_err(&what);
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{what}: {err}");
        assert!(err.to_string().contains("strictly ascending"), "{what}: {err}");
        fs::write(&path, &bytes).unwrap();
        let err = SuffixIndex::open_file(&path).err().unwrap_or_else(|| panic!("{what} opened"));
        assert!(matches!(err, EraError::Corrupt(_)), "{what}: {err}");
    }
    fs::remove_file(&path).unwrap();
}

#[test]
fn every_bit_of_every_flat_tree_record_is_load_bearing() {
    // A bare ERAFLAT1 segment, with no catalog checksum in front of it: each
    // flip must be caught by the segment reader's structural pass or, where
    // the flipped field is only meaningful against the text, by the deep
    // validation.
    let index = SuffixIndex::builder().build_from_bytes(TEXT).unwrap();
    let text = index.text();
    let partitions = index.tree().partitions();
    validate_partitioned(index.tree(), text).unwrap();
    for (p, part) in partitions.iter().enumerate() {
        let mut pristine = Vec::new();
        write_flat_tree(&mut pristine, &part.tree).unwrap();
        for (bytes, what) in bit_flips(&pristine, pristine.len()) {
            let Ok(tree) = read_flat_tree(&bytes) else { continue };
            if tree.text_len() != text.len() {
                continue; // the catalog holds every group to its TOC's text length
            }
            let mut mutated = partitions.to_vec();
            mutated[p] = FlatPartition { prefix: part.prefix.clone(), tree };
            let mutated = PartitionedSuffixTree::from_flat(text.len(), mutated);
            assert!(
                validate_partitioned(&mutated, text).is_err(),
                "partition {p}: {what} went undetected"
            );
        }
        // Truncations and a hostile node count: a clamped preallocation and
        // an EOF, never a header-sized allocation.
        for cut in 0..pristine.len() {
            assert!(read_flat_tree(&pristine[..cut]).is_err(), "truncation to {cut}");
        }
    }
    let mut bytes = b"ERAFLAT1".to_vec();
    bytes.extend(27u32.to_le_bytes()); // text_len
    bytes.extend(u32::MAX.to_le_bytes()); // node_count, with no records behind the claim
    let err = read_flat_tree(&bytes).expect_err("u32::MAX node count");
    assert!(!err.to_string().is_empty());
}

/// Writes TEXT as a standalone `ERAP` packed file (the build-input format)
/// and returns its bytes.
fn packed_text_file(path: &Path) -> Vec<u8> {
    let _keep =
        PackedDiskStore::create(path, TEXT, Alphabet::dna(), 4096).unwrap().cleanup_on_drop(false);
    fs::read(path).unwrap()
}

/// Whether the packed file at `path` opens and still decodes to TEXT.
fn packed_file_is_intact(path: &Path) -> bool {
    PackedDiskStore::open(path, 4096)
        .and_then(|store| store.read_all())
        .is_ok_and(|text| text[..text.len() - 1] == *TEXT)
}

#[test]
fn every_bit_of_the_packed_text_header_and_symbol_table_is_load_bearing() {
    let path = temp_path("erap-bits");
    let pristine = packed_text_file(&path);
    assert!(packed_file_is_intact(&path));
    // ERAP layout: 4 magic + 2 version + 1 bits + 1 table-len + 8 text-len,
    // then the symbol table (its length sits in header byte 7). A flip is
    // either rejected by `open` or decodes to a different text (symbol-table
    // flips re-map every occurrence of a symbol).
    let table_len = pristine[7] as usize;
    assert!(table_len > 0);
    for (bytes, what) in bit_flips(&pristine, 16 + table_len) {
        fs::write(&path, &bytes).unwrap();
        assert!(!packed_file_is_intact(&path), "ERAP: {what} went undetected");
    }
    fs::remove_file(&path).unwrap();
}

#[test]
fn packed_text_truncations_garbage_and_hostile_lengths_are_rejected() {
    let path = temp_path("erap-lengths");
    let pristine = packed_text_file(&path);
    for (bytes, what) in length_mutations(&pristine) {
        fs::write(&path, &bytes).unwrap();
        assert!(PackedDiskStore::open(&path, 4096).is_err(), "ERAP {what} went undetected");
    }
    // An all-ones text length: on 32-bit targets the usize conversion
    // rejects it; on 64-bit the exact file-length equation does. Either way
    // it is a diagnostic, not a truncated cast.
    let mut bytes = pristine.clone();
    bytes[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
    fs::write(&path, &bytes).unwrap();
    let err =
        PackedDiskStore::open(&path, 4096).expect_err("u64::MAX packed length must be rejected");
    assert!(!err.to_string().is_empty());
    fs::remove_file(&path).unwrap();
}
