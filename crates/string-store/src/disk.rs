//! The raw store's file constructors: a text file, or a text embedded in a
//! larger file, read by position.

#![deny(
    clippy::indexing_slicing,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};

use crate::alphabet::{Alphabet, TERMINAL};
use crate::backing::Backing;
use crate::error::{StoreError, StoreResult};
use crate::memory::RawStore;

/// Default I/O block size (64 KiB).
///
/// The paper uses a 1 MB input buffer over multi-GB strings; experiments in
/// this reproduction run on MB-scale strings so the block size is scaled down
/// accordingly (the string : block ratio stays in the same regime).
pub const DEFAULT_DISK_BLOCK: usize = 64 * 1024;

/// The raw store reading its text from a file.
pub type DiskStore = RawStore;

impl RawStore {
    /// Opens an existing terminated string file.
    #[deny(
        clippy::cast_possible_truncation,
        clippy::arithmetic_side_effects,
        clippy::indexing_slicing
    )]
    pub fn open(
        path: impl AsRef<Path>,
        alphabet: Alphabet,
        block_size: usize,
    ) -> StoreResult<Self> {
        let file = File::open(path.as_ref())?;
        let len = file.metadata()?.len();
        let mut store = Self::open_region(file, 0, len, alphabet, block_size)?;
        store.bytes.set_path(path.as_ref());
        Ok(store)
    }

    /// Serves the `len` bytes at `offset` of the already-open `file` as a
    /// terminated string — a text embedded in a larger container (the text
    /// segment of a catalog file). Positions of the store are relative to
    /// `offset`. Taking the open handle rather than a path keeps the store
    /// on the file the caller verified even if its path is atomically
    /// replaced meanwhile; [`Self::path`] of such a store is empty.
    #[deny(
        clippy::cast_possible_truncation,
        clippy::arithmetic_side_effects,
        clippy::indexing_slicing
    )]
    pub fn open_region(
        file: File,
        offset: u64,
        len: u64,
        alphabet: Alphabet,
        block_size: usize,
    ) -> StoreResult<Self> {
        let bytes = Backing::region(file, offset, len, PathBuf::new())?;
        let len = usize::try_from(len).map_err(|_| {
            StoreError::InvalidText(format!("text of {len} bytes overflows this platform's usize"))
        })?;
        let Some(last) = len.checked_sub(1) else {
            return Err(StoreError::InvalidText("file is empty".into()));
        };
        // Validate only the final byte here; the first pass over the text
        // (vertical partitioning) counts every symbol.
        let mut terminal = [0u8; 1];
        bytes.read_exact_at(last, &mut terminal)?;
        if terminal != [TERMINAL] {
            return Err(StoreError::InvalidText(
                "file does not end with the terminal symbol".into(),
            ));
        }
        Self::over(bytes, len, alphabet, block_size)
    }

    /// Writes `body` + terminal to `path` and opens it.
    ///
    /// The file is removed when the store is dropped.
    pub fn create(
        path: impl AsRef<Path>,
        body: &[u8],
        alphabet: Alphabet,
        block_size: usize,
    ) -> StoreResult<Self> {
        let text = alphabet.terminate(body)?;
        let path = path.as_ref();
        {
            let mut f = File::create(path)?;
            f.write_all(&text)?;
            f.sync_all()?;
        }
        let mut store = Self::open(path, alphabet, block_size)?;
        store.bytes.set_owned(true);
        Ok(store)
    }

    /// Writes `body` + terminal to a fresh file inside `dir` and opens it.
    ///
    /// The file is removed when the store is dropped.
    pub fn create_in_dir(
        dir: impl AsRef<Path>,
        name: &str,
        body: &[u8],
        alphabet: Alphabet,
    ) -> StoreResult<Self> {
        let path = dir.as_ref().join(format!("{name}.era"));
        Self::create(path, body, alphabet, DEFAULT_DISK_BLOCK)
    }

    /// The path of the backing file: empty for a text in memory or a region
    /// of a file the caller opened.
    pub fn path(&self) -> &Path {
        self.bytes.path()
    }
}

#[cfg(test)]
#[expect(clippy::disallowed_methods, reason = "tests of the store's own read accounting")]
mod tests {
    use super::*;
    use crate::store::StringStore;

    fn temp_dir() -> PathBuf {
        let dir = std::env::temp_dir().join(format!("era-store-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn create_and_read_back() {
        let dir = temp_dir();
        let store = DiskStore::create_in_dir(&dir, "t1", b"GATTACA", Alphabet::dna()).unwrap();
        assert_eq!(store.len(), 8);
        let all = store.read_all().unwrap();
        assert_eq!(&all[..7], b"GATTACA");
        assert_eq!(all[7], 0);
    }

    #[test]
    fn sequential_and_random_accounting() {
        let dir = temp_dir();
        let body: Vec<u8> = std::iter::repeat(*b"ACGT").flatten().take(1000).collect();
        let store = DiskStore::create_in_dir(&dir, "t2", &body, Alphabet::dna()).unwrap();
        let mut buf = [0u8; 100];
        store.read_at(0, &mut buf).unwrap(); // first read at 0: sequential
        store.read_at(100, &mut buf).unwrap(); // continues: sequential
        store.read_at(50, &mut buf).unwrap(); // jump back: seek
        let snap = store.stats().snapshot();
        assert_eq!(snap.sequential_reads, 2);
        assert_eq!(snap.random_seeks, 1);
        assert_eq!(snap.bytes_read, 300);
    }

    #[test]
    fn block_accounting_counts_straddled_blocks() {
        // Regression test: `take.div_ceil(block_size)` counted blocks as if
        // every read were block-aligned, so a short read straddling a block
        // boundary recorded 1 block while touching 2.
        let dir = temp_dir();
        let body: Vec<u8> = std::iter::repeat(*b"ACGT").flatten().take(1000).collect();
        let path = dir.join("blocks.era");
        let store = DiskStore::create(&path, &body, Alphabet::dna(), 64).unwrap();
        let mut buf = [0u8; 8];
        store.read_at(60, &mut buf).unwrap(); // bytes 60..68 span blocks 0 and 1
        assert_eq!(store.stats().snapshot().blocks_read, 2);
        let mut buf = [0u8; 100];
        store.read_at(30, &mut buf).unwrap(); // bytes 30..130 span blocks 0..=2
        assert_eq!(store.stats().snapshot().blocks_read, 2 + 3);
        let mut buf = [0u8; 64];
        store.read_at(128, &mut buf).unwrap(); // exactly block 2
        assert_eq!(store.stats().snapshot().blocks_read, 2 + 3 + 1);
    }

    #[test]
    fn open_rejects_unterminated_file() {
        let dir = temp_dir();
        let path = dir.join("bad.era");
        std::fs::write(&path, b"ACGT").unwrap();
        assert!(DiskStore::open(&path, Alphabet::dna(), 1024).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn region_store_reads_a_text_embedded_in_a_larger_file() {
        let dir = temp_dir();
        let path = dir.join("region.bin");
        std::fs::write(&path, b"HEADERxxGATTACA\0trailing").unwrap();
        let open = |offset, len| {
            DiskStore::open_region(File::open(&path).unwrap(), offset, len, Alphabet::dna(), 4)
        };
        let store = open(8, 8).unwrap();
        assert_eq!(store.read_all().unwrap(), b"GATTACA\0");
        let mut buf = [0u8; 3];
        assert_eq!(store.read_at(6, &mut buf).unwrap(), 2, "reads stop at the region end");
        assert_eq!(&buf[..2], b"A\0");
        // The region must lie inside the file, end on the terminal, and its
        // bounds must not overflow.
        assert!(open(8, 7).is_err());
        assert!(open(8, 1 << 20).is_err());
        assert!(open(u64::MAX, 8).is_err());
        // A file shrinking underfoot is a read error, not a short answer.
        std::fs::write(&path, b"HEADERxxGATT").unwrap();
        assert!(store.read_all().is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn create_rejects_invalid_body() {
        let dir = temp_dir();
        assert!(DiskStore::create_in_dir(&dir, "t3", b"GATTAXA", Alphabet::dna()).is_err());
    }

    #[test]
    fn zero_block_size_rejected() {
        let dir = temp_dir();
        let path = dir.join("zb.era");
        std::fs::write(&path, [b'A', 0]).unwrap();
        assert!(DiskStore::open(&path, Alphabet::dna(), 0).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn drop_removes_owned_file() {
        let dir = temp_dir();
        let path;
        {
            let store = DiskStore::create_in_dir(&dir, "t4", b"ACGT", Alphabet::dna()).unwrap();
            path = store.path().to_path_buf();
            assert!(path.exists());
        }
        assert!(!path.exists());
    }
}
