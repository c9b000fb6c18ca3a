//! Where a store's bytes live.
//!
//! Both stores keep their bytes — the text itself for
//! [`RawStore`](crate::memory::RawStore), the packed payload for
//! [`PackedStore`](crate::packed_store::PackedStore) — in one [`Backing`]: a
//! buffer in memory, or a region of a file read by position
//! ([`FileExt::read_exact_at`]). A positional read moves no shared file
//! cursor, so the workers of the shared-memory scheduler read one file
//! without a lock between them.

#![deny(
    clippy::indexing_slicing,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use std::cell::RefCell;
use std::fs::File;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

use crate::error::{StoreError, StoreResult};

thread_local! {
    /// Per-thread scratch for [`Backing::with_span`] over a file: no thread
    /// allocates per fetch in steady state.
    static SCRATCH: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

/// The bytes of one store.
#[derive(Debug)]
pub(crate) enum Backing {
    /// The bytes themselves.
    Memory(Vec<u8>),
    /// A region of an open file.
    File(FileRegion),
}

/// The bytes from `base` on of an open file.
#[derive(Debug)]
pub(crate) struct FileRegion {
    file: File,
    base: u64,
    /// The file's path; empty for a region of a file the caller opened.
    path: PathBuf,
    /// Whether dropping the store removes the file.
    owned: bool,
}

impl Backing {
    /// The `len` bytes at `base` of `file`, which must lie inside it.
    pub(crate) fn region(file: File, base: u64, len: u64, path: PathBuf) -> StoreResult<Self> {
        let file_len = file.metadata()?.len();
        if base.checked_add(len).is_none_or(|end| end > file_len) {
            return Err(StoreError::InvalidText(format!(
                "region of {len} bytes at offset {base} overruns the {file_len}-byte file"
            )));
        }
        Ok(Backing::File(FileRegion { file, base, path, owned: false }))
    }

    /// Fills `buf` with the bytes at `offset`. A file that no longer holds
    /// them (it shrank underfoot) is an I/O error, never a short read.
    pub(crate) fn read_exact_at(&self, offset: usize, buf: &mut [u8]) -> StoreResult<()> {
        match self {
            Backing::Memory(bytes) => buf.copy_from_slice(memory_span(bytes, offset, buf.len())?),
            Backing::File(region) => region.file.read_exact_at(buf, region.base + offset as u64)?,
        }
        Ok(())
    }

    /// Calls `f` on the `len` bytes at `offset`: borrowed from memory, or read
    /// from the file into this thread's scratch.
    pub(crate) fn with_span<R>(
        &self,
        offset: usize,
        len: usize,
        f: impl FnOnce(&[u8]) -> R,
    ) -> StoreResult<R> {
        match self {
            Backing::Memory(bytes) => Ok(f(memory_span(bytes, offset, len)?)),
            Backing::File(_) => SCRATCH.with(|cell| {
                let mut scratch = cell.borrow_mut();
                if scratch.len() < len {
                    scratch.resize(len, 0);
                }
                #[expect(clippy::indexing_slicing, reason = "scratch was just grown to len")]
                let span = &mut scratch[..len];
                self.read_exact_at(offset, span)?;
                Ok(f(span))
            }),
        }
    }

    /// The backing file's path; empty in memory and for a caller's file.
    pub(crate) fn path(&self) -> &Path {
        match self {
            Backing::Memory(_) => Path::new(""),
            Backing::File(region) => &region.path,
        }
    }

    /// Records the path the backing file was opened at.
    pub(crate) fn set_path(&mut self, path: &Path) {
        if let Backing::File(region) = self {
            region.path = path.to_path_buf();
        }
    }

    /// Chooses whether dropping the store removes the backing file.
    pub(crate) fn set_owned(&mut self, owned: bool) {
        if let Backing::File(region) = self {
            region.owned = owned;
        }
    }
}

fn memory_span(bytes: &[u8], offset: usize, len: usize) -> StoreResult<&[u8]> {
    offset.checked_add(len).and_then(|end| bytes.get(offset..end)).ok_or(StoreError::OutOfBounds {
        pos: offset,
        len,
        text_len: bytes.len(),
    })
}

impl Drop for FileRegion {
    fn drop(&mut self) {
        if self.owned {
            let _ = std::fs::remove_file(&self.path);
        }
    }
}
