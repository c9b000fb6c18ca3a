//! Deep verification of a persisted index (`era-check fsck`).
//!
//! An index persists as one `ERACAT1` catalog file, and opening one already
//! re-derives the whole format from the bytes — header, footer-located
//! checksummed TOC, per-segment checksums, strict segment contiguity (no
//! unaccounted byte anywhere in the file), and the full structural pass of
//! [`era_suffix_tree::validate_flat_structure`] over every group segment.
//! fsck has no parser or validator of its own: it runs the product's open
//! path and reports what that finds. Deep mode opens paranoid
//! ([`EraConfig::paranoid`]): every partition is validated against the text —
//! read where the open left it, never materialized for the check — and the
//! leaves must cover exactly `0..text_len`.

use std::path::Path;

use era::{EraConfig, SuffixIndex};

/// Verifies the `ERACAT1` catalog file at `path`, returning the number of
/// flat-tree nodes verified or the first defect as a diagnostic — never a
/// panic, never a silently wrong answer. `deep` adds the text-backed
/// validation ([`SuffixIndex::verify`]: about a symbol per edge plus the sum
/// of the text's LCP array).
pub fn fsck_file(path: &Path, deep: bool) -> Result<usize, String> {
    let config = EraConfig { paranoid: deep, ..EraConfig::default() };
    let index = SuffixIndex::open_file_with(path, &config)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(index.tree().partitions().iter().map(|p| p.tree.node_count()).sum())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use std::path::PathBuf;

    fn temp_catalog(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("era-fsck-{name}-{}.eracat", std::process::id()))
    }

    fn save_catalog_index(path: &Path, packed: bool) {
        SuffixIndex::builder()
            .packed(packed)
            .build_from_bytes(b"GATTACAGATTACAGGATCCGATTACA")
            .unwrap()
            .save_to_file(path)
            .unwrap();
    }

    fn assert_clean(path: &Path) {
        assert!(fsck_file(path, false).unwrap() > 0);
        assert!(fsck_file(path, true).unwrap() > 0);
    }

    #[test]
    fn clean_catalog_passes_shallow_and_deep() {
        for packed in [false, true] {
            let path = temp_catalog(if packed { "clean-packed" } else { "clean-raw" });
            save_catalog_index(&path, packed);
            assert_clean(&path);
            fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn clean_index_passes_shallow_and_deep() {
        // An index reopened with its text left on disk re-saves (through the
        // region store) to a catalog that verifies clean.
        for packed in [false, true] {
            let path = temp_catalog(if packed { "resave-packed" } else { "resave-raw" });
            save_catalog_index(&path, packed);
            let on_disk = EraConfig { memory_budget: 1, ..EraConfig::default() };
            let reopened = SuffixIndex::open_file_with(&path, &on_disk).unwrap();
            assert!(reopened.store().is_some());
            let resaved = temp_catalog(if packed { "resaved-packed" } else { "resaved-raw" });
            reopened.save_to_file(&resaved).unwrap();
            assert_eq!(fs::read(&resaved).unwrap(), fs::read(&path).unwrap());
            assert_clean(&resaved);
            fs::remove_file(&path).unwrap();
            fs::remove_file(&resaved).unwrap();
        }
    }

    #[test]
    fn corrupted_catalog_is_a_diagnostic() {
        let path = temp_catalog("corrupt");
        save_catalog_index(&path, false);
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        fs::write(&path, &bytes).unwrap();
        let diagnostic = fsck_file(&path, false).expect_err("a flipped byte must be detected");
        assert!(diagnostic.starts_with(&path.display().to_string()), "{diagnostic}");
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_catalog_is_a_diagnostic() {
        assert!(fsck_file(&temp_catalog("missing"), false).is_err());
    }

    #[test]
    fn flipped_child_range_byte_fails_fsck() {
        let path = temp_catalog("bitflip");
        save_catalog_index(&path, false);
        let mut bytes = fs::read(&path).unwrap();
        // The first group segment follows the 16-byte header and the 28-byte
        // raw text; its node records start 16 bytes in, and word 2 (offset
        // +8) of each record is the child-range start. Flip a bit in the
        // root's.
        let segment = 16 + 28;
        assert_eq!(&bytes[segment..segment + 8], b"ERAFLAT1");
        bytes[segment + 16 + 8] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        assert!(fsck_file(&path, false).is_err(), "a flipped child-range byte must be detected");
        fs::remove_file(&path).unwrap();
    }
}
