//! `ERACAT1` — the crash-safe single-file index catalog.
//!
//! One file holds everything a serving index needs: the text (raw or
//! bit-packed), every partition-group's flat (`ERAFLAT1`) tree, and a
//! checksummed table of contents that is the *commit point* of the whole
//! catalog. It is the only persisted index format, read through one
//! footer/TOC parser in two ways: [`parse_catalog`] verifies a whole in-memory
//! image, while a [`CatalogFile`] reads the footer and TOC and then either
//! the whole file in one sequential pass, handed to [`parse_catalog`]
//! ([`CatalogFile::load_all`]), or only the group segments
//! ([`CatalogFile::load_groups`]) — the text segment's checksum is verified
//! in a bounded-buffer streaming pass and the text stays on disk, for a
//! region store to serve block-wise.
//!
//! # On-disk format (all integers little-endian)
//!
//! ```text
//! offset 0                16 bytes   header
//!   magic      "ERACAT1\0"  8B
//!   version    u32          (currently 1)
//!   reserved   u32          (must be 0)
//! offset 16               text segment
//!   raw catalogs:    the terminated text, verbatim (1 byte/symbol,
//!                    trailing TERMINAL included)
//!   packed catalogs: the `PackedCodec::pack_body` payload only — the
//!                    alphabet and text length live in the TOC
//! then, contiguously      one ERAFLAT1 segment per partition group
//!   each segment is exactly the bytes `write_flat_tree` produces
//! then                    TOC (variable length)
//!   generation    u64      catalog generation number
//!   text_len      u64      terminated text length in symbols
//!   flags         u8       bit 0: text segment is packed
//!   alphabet_len  u8       number of alphabet symbols (≥ 1)
//!   reserved      u16      (must be 0)
//!   group_count   u32      number of partition groups (≥ 1)
//!   alphabet      alphabet_len bytes (symbol table, terminal excluded)
//!   text_offset   u64      must be 16
//!   text_bytes    u64      text segment length in bytes
//!   text_checksum u64      FNV-1a 64 of the text segment
//!   per group (group_count times):
//!     generation  u64      group generation (the incremental-replace seam)
//!     offset      u64      absolute segment offset
//!     len         u64      segment length in bytes
//!     checksum    u64      FNV-1a 64 of the segment
//!     prefix_len  u32      partition prefix length
//!     prefix      prefix_len bytes
//! offset file_len - 32    32 bytes   footer
//!   toc_offset   u64
//!   toc_len      u64
//!   toc_checksum u64      FNV-1a 64 of the TOC bytes
//!   magic        "ERACATF1"  8B
//! ```
//!
//! The layout is *strictly contiguous*: the text segment starts at byte 16,
//! each group segment starts where the previous one ends, the TOC starts
//! where the last group ends and ends exactly 32 bytes before EOF. Together
//! with the per-segment checksums this makes **every byte of the file
//! load-bearing** — the corruption matrix flips each bit of a whole catalog
//! and expects a diagnostic each time.
//!
//! # Commit protocol ([`CommitProtocol::Sound`])
//!
//! A catalog is never updated in place. [`commit_catalog`] writes the new
//! image to a unique temporary sibling through the [`Vfs`] seam:
//!
//! 1. write header + text + group segments,
//! 2. `sync_data` — **segments are durable before the TOC that promises
//!    them exists**,
//! 3. write TOC + footer,
//! 4. `sync_data`,
//! 5. `rename` over the target path,
//! 6. `sync_dir` the parent directory — the rename itself becomes durable.
//!
//! A crash anywhere before step 6 completes leaves the previous catalog
//! untouched; after it, the new one is fully durable. There is no third
//! state — the crash-matrix harness in `era-check` proves this by
//! enumerating every fault point of a recorded save against a [`FaultVfs`].
//! [`CommitProtocol::TocBeforeSegmentSync`] is the deliberately seeded bug
//! the harness must catch: it publishes the name (rename + dir sync) before
//! the data sync, so a crash in between leaves a durable catalog whose
//! bytes were never fsynced.

#![deny(
    clippy::cast_possible_truncation,
    clippy::arithmetic_side_effects,
    clippy::indexing_slicing
)]

use std::fs::File;
use std::io::{self, Read, Seek, SeekFrom};
use std::path::Path;

use era_string_store::packed::packed_size;
use era_string_store::packed_store::{builtin_or_custom, unique_sibling};
use era_string_store::{Alphabet, Vfs};

use crate::layout::{FlatPartition, FlatTree};
use crate::partitioned::PartitionedSuffixTree;
use crate::serialize::{read_flat_tree, write_flat_tree, MAX_PREALLOC, MAX_PREFIX_LEN};

/// Header magic of an `ERACAT1` catalog file.
pub const CATALOG_MAGIC: &[u8; 8] = b"ERACAT1\0";
/// Footer magic, last 8 bytes of the file.
pub const FOOTER_MAGIC: &[u8; 8] = b"ERACATF1";
/// Current format version.
pub const CATALOG_VERSION: u32 = 1;
/// Fixed header length.
pub const HEADER_LEN: usize = 16;
/// Fixed footer length.
pub const FOOTER_LEN: usize = 32;
/// Flag bit: the text segment holds a packed payload.
const FLAG_PACKED: u8 = 1;
/// Write granularity of [`commit_catalog`]: small enough that a recorded
/// save has many distinct fault points, large enough to stay cheap.
const COMMIT_CHUNK: usize = 4096;

/// FNV-1a 64-bit over `bytes` — dependency-free, deterministic, and fast
/// enough for commit-time whole-segment checksums at this scale.
fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_extend(FNV_OFFSET, bytes)
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Continues an FNV-1a 64 hash `h` over `bytes` (the streaming form).
fn fnv1a64_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

fn corrupt(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// The text segment handed to [`encode_catalog`].
#[derive(Debug, Clone, Copy)]
pub enum TextSegment<'a> {
    /// Terminated text, stored verbatim (1 byte/symbol).
    Raw(&'a [u8]),
    /// A `PackedCodec::pack_body` payload covering `text_len - 1` symbols
    /// (the terminal is out-of-band, as everywhere in the packed layer).
    Packed {
        /// The packed payload bytes.
        payload: &'a [u8],
        /// Terminated text length in symbols.
        text_len: usize,
    },
}

/// A fully encoded catalog image plus the offset where its TOC begins —
/// the boundary between the two `sync_data` calls of the sound protocol.
#[derive(Debug, Clone)]
pub struct EncodedCatalog {
    /// The complete file image.
    pub bytes: Vec<u8>,
    /// Absolute offset of the TOC (end of the last group segment).
    pub toc_offset: usize,
}

/// One partition group as read back from a catalog.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CatalogGroup {
    /// The group's generation number (the incremental-replace seam: groups
    /// replaced individually will carry newer generations than their
    /// siblings).
    pub generation: u64,
    /// The partition prefix.
    pub prefix: Vec<u8>,
    /// The flat serving tree, structurally validated on load.
    pub tree: FlatTree,
}

/// The text segment as read back from a catalog.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CatalogText {
    /// Terminated text, verbatim.
    Raw(Vec<u8>),
    /// Packed payload; decode with the catalog's [`Catalog::alphabet`].
    Packed(Vec<u8>),
}

/// A parsed, checksum-verified `ERACAT1` catalog.
#[derive(Debug, Clone)]
pub struct Catalog {
    /// Catalog generation number.
    pub generation: u64,
    /// Terminated text length in symbols.
    pub text_len: usize,
    /// The alphabet recorded at save time (built-in kinds preserved).
    pub alphabet: Alphabet,
    /// The text segment.
    pub text: CatalogText,
    /// The partition groups, in on-disk order.
    pub groups: Vec<CatalogGroup>,
}

/// Assembles verified catalog groups into the serving tree.
pub fn groups_into_tree(text_len: usize, groups: Vec<CatalogGroup>) -> PartitionedSuffixTree {
    let partitions =
        groups.into_iter().map(|g| FlatPartition { prefix: g.prefix, tree: g.tree }).collect();
    PartitionedSuffixTree::from_flat(text_len, partitions)
}

/// Builds the complete `ERACAT1` image for `tree` + `text` in memory.
///
/// Every group is written with `generation` as its group generation; a
/// future group-granular replace will splice newer generations per group.
#[expect(
    clippy::arithmetic_side_effects,
    clippy::cast_possible_truncation,
    reason = "text_len - 1 follows the zero check and alen as u8 the 1..=255 check; entries.len() and prefix.len() fit a u32: each group and each prefix covers at least one suffix, and ConstructionPipeline::run refuses a text of u32::MAX symbols or more"
)]
pub fn encode_catalog(
    generation: u64,
    text: TextSegment<'_>,
    alphabet: &Alphabet,
    tree: &PartitionedSuffixTree,
) -> io::Result<EncodedCatalog> {
    let (text_bytes, text_len, packed) = match text {
        TextSegment::Raw(t) => (t, t.len(), false),
        TextSegment::Packed { payload, text_len } => (payload, text_len, true),
    };
    if text_len == 0 {
        return Err(corrupt("catalog text must be terminated (non-empty)".into()));
    }
    if !packed && text_bytes.last() != Some(&era_string_store::TERMINAL) {
        return Err(corrupt("raw catalog text must end with the terminal symbol".into()));
    }
    if packed {
        let want = packed_size(text_len - 1, alphabet.bits_per_symbol());
        if text_bytes.len() != want {
            return Err(corrupt(format!(
                "packed payload is {} bytes, text length {} needs {}",
                text_bytes.len(),
                text_len,
                want
            )));
        }
    }
    let alen = alphabet.symbols().len();
    if alen == 0 || alen > usize::from(u8::MAX) {
        return Err(corrupt(format!("catalog alphabets hold 1..=255 symbols, got {alen}")));
    }
    if tree.partitions().is_empty() {
        return Err(corrupt("catalog needs at least one partition group".into()));
    }
    if tree.text_len() != text_len {
        return Err(corrupt(format!(
            "tree text length {} disagrees with text segment length {}",
            tree.text_len(),
            text_len
        )));
    }

    let mut bytes = Vec::new();
    bytes.extend_from_slice(CATALOG_MAGIC);
    bytes.extend_from_slice(&CATALOG_VERSION.to_le_bytes());
    bytes.extend_from_slice(&0u32.to_le_bytes());
    debug_assert_eq!(bytes.len(), HEADER_LEN);

    let text_offset = bytes.len() as u64;
    bytes.extend_from_slice(text_bytes);
    let text_checksum = fnv1a64(text_bytes);

    struct GroupEntry {
        offset: u64,
        len: u64,
        checksum: u64,
    }
    let mut entries = Vec::with_capacity(tree.partitions().len());
    for part in tree.partitions() {
        if part.prefix.len() > MAX_PREFIX_LEN {
            return Err(corrupt(format!(
                "partition prefix of {} bytes exceeds the format maximum {}",
                part.prefix.len(),
                MAX_PREFIX_LEN
            )));
        }
        let offset = bytes.len() as u64;
        let mut seg = Vec::with_capacity(part.tree.serialized_size());
        write_flat_tree(&mut seg, &part.tree)?;
        let checksum = fnv1a64(&seg);
        bytes.extend_from_slice(&seg);
        entries.push(GroupEntry { offset, len: seg.len() as u64, checksum });
    }

    let toc_offset = bytes.len();
    let mut toc = Vec::new();
    toc.extend_from_slice(&generation.to_le_bytes());
    toc.extend_from_slice(&(text_len as u64).to_le_bytes());
    toc.push(if packed { FLAG_PACKED } else { 0 });
    toc.push(alen as u8);
    toc.extend_from_slice(&0u16.to_le_bytes());
    toc.extend_from_slice(&(entries.len() as u32).to_le_bytes());
    toc.extend_from_slice(alphabet.symbols());
    toc.extend_from_slice(&text_offset.to_le_bytes());
    toc.extend_from_slice(&(text_bytes.len() as u64).to_le_bytes());
    toc.extend_from_slice(&text_checksum.to_le_bytes());
    for (entry, part) in entries.iter().zip(tree.partitions()) {
        toc.extend_from_slice(&generation.to_le_bytes());
        toc.extend_from_slice(&entry.offset.to_le_bytes());
        toc.extend_from_slice(&entry.len.to_le_bytes());
        toc.extend_from_slice(&entry.checksum.to_le_bytes());
        toc.extend_from_slice(&(part.prefix.len() as u32).to_le_bytes());
        toc.extend_from_slice(&part.prefix);
    }

    let toc_checksum = fnv1a64(&toc);
    bytes.extend_from_slice(&toc);
    bytes.extend_from_slice(&(toc_offset as u64).to_le_bytes());
    bytes.extend_from_slice(&(toc.len() as u64).to_le_bytes());
    bytes.extend_from_slice(&toc_checksum.to_le_bytes());
    bytes.extend_from_slice(FOOTER_MAGIC);
    Ok(EncodedCatalog { bytes, toc_offset })
}

/// How [`commit_catalog`] orders its durability operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommitProtocol {
    /// The correct protocol: segments fsynced, TOC+footer written and
    /// fsynced, rename, directory fsync.
    Sound,
    /// **Seeded bug for harness self-tests — never use in production.**
    /// Writes everything including the TOC, publishes the name (rename +
    /// directory fsync) and only then fsyncs the data: a crash in the
    /// publish window leaves a durable catalog with un-synced bytes.
    TocBeforeSegmentSync,
}

fn write_chunked(f: &mut dyn era_string_store::VfsFile, bytes: &[u8]) -> io::Result<()> {
    for chunk in bytes.chunks(COMMIT_CHUNK) {
        f.write_all(chunk)?;
    }
    Ok(())
}

/// Commits an encoded catalog image to `path` through `vfs`.
///
/// The target is only ever replaced atomically (write temp → fsync →
/// rename → dir fsync); on failure the temporary sibling is removed on a
/// best-effort basis and whatever lived at `path` is untouched.
#[expect(
    clippy::indexing_slicing,
    reason = "toc_offset is where encode_catalog began the TOC inside bytes"
)]
pub fn commit_catalog(
    path: &Path,
    vfs: &dyn Vfs,
    protocol: CommitProtocol,
    enc: &EncodedCatalog,
) -> io::Result<()> {
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    let tmp = unique_sibling(path, "cat");
    let result = (|| {
        let mut f = vfs.create(&tmp)?;
        match protocol {
            CommitProtocol::Sound => {
                write_chunked(f.as_mut(), &enc.bytes[..enc.toc_offset])?;
                f.sync_data()?;
                write_chunked(f.as_mut(), &enc.bytes[enc.toc_offset..])?;
                f.sync_data()?;
                drop(f);
                vfs.rename(&tmp, path)?;
                vfs.sync_dir(parent)
            }
            CommitProtocol::TocBeforeSegmentSync => {
                write_chunked(f.as_mut(), &enc.bytes)?;
                vfs.rename(&tmp, path)?;
                vfs.sync_dir(parent)?;
                // Too late: the name is already durable.
                f.sync_data()
            }
        }
    })();
    if result.is_err() {
        let _ = vfs.remove_file(&tmp);
    }
    result
}

/// A bounds-checked subslice; `what` names the field for diagnostics.
fn field<'a>(bytes: &'a [u8], at: usize, len: usize, what: &str) -> io::Result<&'a [u8]> {
    let end =
        at.checked_add(len).ok_or_else(|| corrupt(format!("catalog {what}: offset overflow")))?;
    bytes
        .get(at..end)
        .ok_or_else(|| corrupt(format!("catalog {what}: {len} bytes at {at} out of bounds")))
}

#[expect(
    clippy::disallowed_methods,
    reason = "the catalog's integer decoder, under the module deny"
)]
fn read_u64_at(bytes: &[u8], at: usize, what: &str) -> io::Result<u64> {
    let s = field(bytes, at, 8, what)?;
    let arr: [u8; 8] = s.try_into().map_err(|_| corrupt(format!("catalog {what}: short field")))?;
    Ok(u64::from_le_bytes(arr))
}

#[expect(
    clippy::disallowed_methods,
    reason = "the catalog's integer decoder, under the module deny"
)]
fn read_u32_at(bytes: &[u8], at: usize, what: &str) -> io::Result<u32> {
    let s = field(bytes, at, 4, what)?;
    let arr: [u8; 4] = s.try_into().map_err(|_| corrupt(format!("catalog {what}: short field")))?;
    Ok(u32::from_le_bytes(arr))
}

/// `usize::try_from` with a named diagnostic — the single door through which
/// header-declared sizes enter address arithmetic.
fn to_usize(v: u64, what: &str) -> io::Result<usize> {
    usize::try_from(v)
        .map_err(|_| corrupt(format!("catalog {what}: {v} does not fit this platform")))
}

/// One partition group as the TOC declares it.
#[derive(Debug, Clone)]
struct TocGroup {
    generation: u64,
    prefix: Vec<u8>,
    /// Absolute offset of the group's `ERAFLAT1` segment.
    offset: usize,
    /// Segment length in bytes.
    len: usize,
    /// FNV-1a 64 of the segment bytes.
    checksum: u64,
}

/// The layout a catalog's footer and TOC declare, validated against the file
/// length: the text segment starts at [`HEADER_LEN`], the group segments
/// follow contiguously and end exactly where the TOC begins. No segment byte
/// has been read or verified yet.
#[derive(Debug, Clone)]
pub struct CatalogToc {
    /// Catalog generation number.
    pub generation: u64,
    /// Terminated text length in symbols.
    pub text_len: usize,
    /// The alphabet recorded at save time (built-in kinds preserved).
    pub alphabet: Alphabet,
    /// Whether the text segment holds a packed payload.
    pub packed: bool,
    /// Length in bytes of the text segment, which starts at [`HEADER_LEN`].
    pub text_bytes: usize,
    text_checksum: u64,
    groups: Vec<TocGroup>,
}

fn parse_header(header: &[u8]) -> io::Result<()> {
    if field(header, 0, 8, "header magic")? != CATALOG_MAGIC {
        return Err(corrupt("not an ERACAT1 catalog (bad header magic)".into()));
    }
    let version = read_u32_at(header, 8, "version")?;
    if version != CATALOG_VERSION {
        return Err(corrupt(format!("unsupported catalog version {version}")));
    }
    if read_u32_at(header, 12, "header reserved")? != 0 {
        return Err(corrupt("catalog header reserved field must be zero".into()));
    }
    Ok(())
}

/// Parses the footer of a `file_len`-byte catalog into the TOC's
/// `(offset, length, checksum)`; the TOC must end exactly at the footer.
fn parse_footer(footer: &[u8], file_len: usize) -> io::Result<(usize, usize, u64)> {
    let footer_at =
        file_len.checked_sub(FOOTER_LEN).filter(|&at| at >= HEADER_LEN).ok_or_else(|| {
            corrupt(format!("catalog of {file_len} bytes is shorter than header + footer"))
        })?;
    if field(footer, 24, 8, "footer magic")? != FOOTER_MAGIC {
        return Err(corrupt("catalog footer magic missing (truncated or torn file)".into()));
    }
    let toc_offset = to_usize(read_u64_at(footer, 0, "toc offset")?, "toc offset")?;
    let toc_len = to_usize(read_u64_at(footer, 8, "toc length")?, "toc length")?;
    let toc_checksum = read_u64_at(footer, 16, "toc checksum")?;
    let toc_end = toc_offset
        .checked_add(toc_len)
        .ok_or_else(|| corrupt("catalog toc bounds overflow".into()))?;
    if toc_offset < HEADER_LEN || toc_end != footer_at {
        return Err(corrupt(format!(
            "catalog toc [{toc_offset}, {toc_end}) must end exactly at the footer ({footer_at})"
        )));
    }
    Ok((toc_offset, toc_len, toc_checksum))
}

/// Parses and validates the TOC bytes of a catalog whose TOC starts at
/// `toc_offset` — the one TOC parser behind [`parse_catalog`],
/// [`CatalogFile`] and `era-check fsck`.
///
/// Hostile lengths never drive allocation: every count is bounds-checked
/// against the real TOC bytes before use.
fn parse_toc(toc: &[u8], toc_offset: usize, toc_checksum: u64) -> io::Result<CatalogToc> {
    if fnv1a64(toc) != toc_checksum {
        return Err(corrupt("catalog toc checksum mismatch".into()));
    }
    let generation = read_u64_at(toc, 0, "generation")?;
    let text_len = to_usize(read_u64_at(toc, 8, "text length")?, "text length")?;
    let flags = *field(toc, 16, 1, "flags")?.first().unwrap_or(&0);
    let alen = usize::from(*field(toc, 17, 1, "alphabet length")?.first().unwrap_or(&0));
    if field(toc, 18, 2, "toc reserved")? != [0, 0] {
        return Err(corrupt("catalog toc reserved field must be zero".into()));
    }
    let group_count = to_usize(u64::from(read_u32_at(toc, 20, "group count")?), "group count")?;
    if flags & !FLAG_PACKED != 0 {
        return Err(corrupt(format!("catalog flags {flags:#04x} set unknown bits")));
    }
    let packed = flags & FLAG_PACKED != 0;
    if alen == 0 {
        return Err(corrupt("catalog records no alphabet".into()));
    }
    if group_count == 0 {
        return Err(corrupt("catalog holds no partition groups".into()));
    }
    if text_len == 0 {
        return Err(corrupt("catalog text length is zero (must include the terminal)".into()));
    }
    let alphabet = builtin_or_custom(field(toc, 24, alen, "alphabet")?)
        .map_err(|e| corrupt(format!("catalog alphabet invalid: {e}")))?;

    // Text segment: pinned to HEADER_LEN, inside [HEADER_LEN, toc_offset).
    let after_alpha =
        24usize.checked_add(alen).ok_or_else(|| corrupt("catalog toc alphabet overflow".into()))?;
    let text_offset = to_usize(read_u64_at(toc, after_alpha, "text offset")?, "text offset")?;
    #[expect(clippy::arithmetic_side_effects, reason = "after_alpha <= 24 + 255")]
    let text_bytes = to_usize(read_u64_at(toc, after_alpha + 8, "text bytes")?, "text bytes")?;
    #[expect(clippy::arithmetic_side_effects, reason = "after_alpha <= 24 + 255")]
    let text_checksum = read_u64_at(toc, after_alpha + 16, "text checksum")?;
    if text_offset != HEADER_LEN {
        return Err(corrupt(format!(
            "catalog text segment must start at {HEADER_LEN}, not {text_offset}"
        )));
    }
    let text_end = text_offset
        .checked_add(text_bytes)
        .ok_or_else(|| corrupt("catalog text bounds overflow".into()))?;
    if text_end > toc_offset {
        return Err(corrupt(format!(
            "catalog text segment [{text_offset}, {text_end}) overruns the toc at {toc_offset}"
        )));
    }
    #[expect(clippy::arithmetic_side_effects, reason = "text_len == 0 is rejected above")]
    let want =
        if packed { packed_size(text_len - 1, alphabet.bits_per_symbol()) } else { text_len };
    if text_bytes != want {
        return Err(corrupt(format!(
            "text segment is {text_bytes} bytes, a {} text of {text_len} symbols needs {want}",
            if packed { "packed" } else { "raw" }
        )));
    }

    // Group segments: strictly contiguous from the text end to the TOC.
    let mut groups = Vec::with_capacity(group_count.min(MAX_PREALLOC));
    let mut cursor = text_end;
    #[expect(clippy::arithmetic_side_effects, reason = "after_alpha <= 24 + 255")]
    let mut toc_at = after_alpha + 24;
    // `toc_at + k` follows a successful read ending at or past it, and
    // `36 + prefix_len` the `MAX_PREFIX_LEN` check.
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "every offset is bounded by a field already read"
    )]
    for i in 0..group_count {
        let generation = read_u64_at(toc, toc_at, "group generation")?;
        let offset = to_usize(read_u64_at(toc, toc_at + 8, "group offset")?, "group offset")?;
        let len = to_usize(read_u64_at(toc, toc_at + 16, "group length")?, "group length")?;
        let checksum = read_u64_at(toc, toc_at + 24, "group checksum")?;
        let prefix_len =
            to_usize(u64::from(read_u32_at(toc, toc_at + 32, "prefix length")?), "prefix length")?;
        if prefix_len > MAX_PREFIX_LEN {
            return Err(corrupt(format!(
                "group {i} claims a {prefix_len}-byte prefix (max {MAX_PREFIX_LEN})"
            )));
        }
        let prefix = field(toc, toc_at + 36, prefix_len, "group prefix")?.to_vec();
        toc_at = toc_at
            .checked_add(36 + prefix_len)
            .ok_or_else(|| corrupt("catalog toc group overflow".into()))?;

        if offset != cursor {
            return Err(corrupt(format!(
                "group {i} at {offset} leaves a gap after {cursor} (segments must be contiguous)"
            )));
        }
        let end =
            offset.checked_add(len).ok_or_else(|| corrupt(format!("group {i} bounds overflow")))?;
        if end > toc_offset {
            return Err(corrupt(format!(
                "group {i} segment [{offset}, {end}) overruns the toc at {toc_offset}"
            )));
        }
        groups.push(TocGroup { generation, prefix, offset, len, checksum });
        cursor = end;
    }
    if cursor != toc_offset {
        #[expect(
            clippy::arithmetic_side_effects,
            reason = "min() bounds the subtrahend by the minuend"
        )]
        return Err(corrupt(format!(
            "catalog has {} unaccounted bytes between the last group and the toc",
            toc_offset - cursor.min(toc_offset)
        )));
    }
    if toc_at != toc.len() {
        #[expect(
            clippy::arithmetic_side_effects,
            reason = "min() bounds the subtrahend by the minuend"
        )]
        return Err(corrupt(format!(
            "catalog toc has {} trailing bytes",
            toc.len() - toc_at.min(toc.len())
        )));
    }
    Ok(CatalogToc { generation, text_len, alphabet, packed, text_bytes, text_checksum, groups })
}

/// Verifies one group segment against its TOC entry and parses its tree
/// (structural validation included).
fn load_group(i: usize, entry: &TocGroup, seg: &[u8], text_len: usize) -> io::Result<CatalogGroup> {
    if fnv1a64(seg) != entry.checksum {
        return Err(corrupt(format!("group {i} segment checksum mismatch")));
    }
    let tree = read_flat_tree(&mut &seg[..])
        .map_err(|e| corrupt(format!("group {i} tree invalid: {e}")))?;
    if tree.serialized_size() != seg.len() {
        return Err(corrupt(format!(
            "group {i} segment has {} trailing bytes",
            seg.len().saturating_sub(tree.serialized_size())
        )));
    }
    if tree.text_len() != text_len {
        return Err(corrupt(format!(
            "group {i} tree covers a {}-symbol text, catalog says {text_len}",
            tree.text_len()
        )));
    }
    Ok(CatalogGroup { generation: entry.generation, prefix: entry.prefix.clone(), tree })
}

/// Holds the text segment's hash and last byte to what the TOC promises.
fn check_text(toc: &CatalogToc, hash: u64, last: Option<u8>) -> io::Result<()> {
    if hash != toc.text_checksum {
        return Err(corrupt("catalog text segment checksum mismatch".into()));
    }
    if !toc.packed && last != Some(era_string_store::TERMINAL) {
        return Err(corrupt("raw catalog text does not end with the terminal".into()));
    }
    Ok(())
}

/// Parses and fully verifies an `ERACAT1` image.
///
/// Verification is exhaustive by construction: the footer fixes the TOC, the
/// TOC's checksum covers every offset/length/checksum it declares, the
/// per-segment checksums cover the text and every group, and the contiguity
/// checks (text at [`HEADER_LEN`], groups adjacent, TOC ending exactly at
/// the footer) mean no byte of the file is outside some verified region.
#[expect(
    clippy::arithmetic_side_effects,
    reason = "footer_at = bytes.len().saturating_sub(FOOTER_LEN) <= bytes.len()"
)]
pub fn parse_catalog(bytes: &[u8]) -> io::Result<Catalog> {
    let footer_at = bytes.len().saturating_sub(FOOTER_LEN);
    let (toc_offset, toc_len, toc_checksum) =
        parse_footer(field(bytes, footer_at, bytes.len() - footer_at, "footer")?, bytes.len())?;
    parse_header(field(bytes, 0, HEADER_LEN, "header")?)?;
    let toc = parse_toc(field(bytes, toc_offset, toc_len, "toc")?, toc_offset, toc_checksum)?;
    let text_seg = field(bytes, HEADER_LEN, toc.text_bytes, "text segment")?;
    check_text(&toc, fnv1a64(text_seg), text_seg.last().copied())?;
    let mut groups = Vec::with_capacity(toc.groups.len());
    for (i, entry) in toc.groups.iter().enumerate() {
        let seg = field(bytes, entry.offset, entry.len, "group segment")?;
        groups.push(load_group(i, entry, seg, toc.text_len)?);
    }
    let text_seg = text_seg.to_vec();
    let text = if toc.packed { CatalogText::Packed(text_seg) } else { CatalogText::Raw(text_seg) };
    let CatalogToc { generation, text_len, alphabet, .. } = toc;
    Ok(Catalog { generation, text_len, alphabet, text, groups })
}

/// Buffer of the streaming text-checksum pass of [`CatalogFile::load_groups`].
const STREAM_CHUNK: usize = 64 << 10;

/// An open catalog file whose header, footer and TOC have been read and
/// validated; no segment has been read yet. The caller picks how to load the
/// rest from [`Self::toc`]: [`Self::load_all`] materializes everything,
/// [`Self::load_groups`] leaves the text segment on disk.
#[derive(Debug)]
pub struct CatalogFile {
    file: File,
    toc: CatalogToc,
    bytes_read: u64,
}

/// Fills `buf` from the cursor of `file`, adding what was read to `count`.
#[expect(
    clippy::arithmetic_side_effects,
    reason = "count sums bytes read once each from one file, bounded by its u64 length"
)]
fn read_counted(file: &mut File, count: &mut u64, buf: &mut [u8]) -> io::Result<()> {
    file.read_exact(buf)?;
    *count += buf.len() as u64;
    Ok(())
}

impl CatalogFile {
    /// Opens `path` and reads its header, footer and TOC.
    #[expect(
        clippy::arithmetic_side_effects,
        clippy::indexing_slicing,
        reason = "footer_at = file_len.saturating_sub(FOOTER_LEN), so file_len - footer_at <= footer.len()"
    )]
    pub fn open(path: impl AsRef<Path>) -> io::Result<CatalogFile> {
        let mut file = File::open(path)?;
        let mut bytes_read = 0;
        let file_len = to_usize(file.metadata()?.len(), "file length")?;
        let mut footer = [0u8; FOOTER_LEN];
        let footer_at = file_len.saturating_sub(FOOTER_LEN);
        file.seek(SeekFrom::Start(footer_at as u64))?;
        read_counted(&mut file, &mut bytes_read, &mut footer[..file_len - footer_at])?;
        let (toc_offset, toc_len, toc_checksum) = parse_footer(&footer, file_len)?;
        let mut header = [0u8; HEADER_LEN];
        file.seek(SeekFrom::Start(0))?;
        read_counted(&mut file, &mut bytes_read, &mut header)?;
        parse_header(&header)?;
        // `toc_len` is bounded by the real file length (the TOC ends at the
        // footer), so this allocation is never larger than the file.
        let mut toc_bytes = vec![0u8; toc_len];
        file.seek(SeekFrom::Start(toc_offset as u64))?;
        read_counted(&mut file, &mut bytes_read, &mut toc_bytes)?;
        let toc = parse_toc(&toc_bytes, toc_offset, toc_checksum)?;
        Ok(CatalogFile { file, toc, bytes_read })
    }

    /// The validated layout.
    pub fn toc(&self) -> &CatalogToc {
        &self.toc
    }

    /// Bytes read from the file so far, counted where they are read: header,
    /// footer and TOC, plus what [`Self::load_groups`] read.
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read
    }

    /// Reads the file in one sequential pass and verifies that image with
    /// [`parse_catalog`]: the materializing open.
    pub fn load_all(mut self) -> io::Result<Catalog> {
        let mut image = Vec::new();
        self.file.seek(SeekFrom::Start(0))?;
        self.file.read_to_end(&mut image)?;
        parse_catalog(&image)
    }

    /// Verifies the text segment's checksum in one streaming pass through a
    /// [`STREAM_CHUNK`]-byte buffer — the text is never held in memory — and
    /// loads the group segments.
    #[expect(
        clippy::arithmetic_side_effects,
        clippy::indexing_slicing,
        reason = "chunk = left.min(STREAM_CHUNK) is at most buf.len() and at most left"
    )]
    pub fn load_groups(&mut self) -> io::Result<Vec<CatalogGroup>> {
        let toc = &self.toc;
        self.file.seek(SeekFrom::Start(HEADER_LEN as u64))?;
        let mut buf = vec![0u8; STREAM_CHUNK.min(toc.text_bytes)];
        let mut hash = FNV_OFFSET;
        let mut last = None;
        let mut left = toc.text_bytes;
        while left > 0 {
            let chunk = &mut buf[..left.min(STREAM_CHUNK)];
            read_counted(&mut self.file, &mut self.bytes_read, chunk)?;
            hash = fnv1a64_extend(hash, chunk);
            last = chunk.last().copied();
            left -= chunk.len();
        }
        check_text(toc, hash, last)?;
        // Groups follow the text contiguously, so the file cursor is already
        // at the first one; each buffer is bounded by the real file length.
        let mut groups = Vec::with_capacity(toc.groups.len());
        let mut seg = Vec::new();
        for (i, entry) in toc.groups.iter().enumerate() {
            seg.resize(entry.len, 0);
            read_counted(&mut self.file, &mut self.bytes_read, &mut seg)?;
            groups.push(load_group(i, entry, &seg, toc.text_len)?);
        }
        Ok(groups)
    }

    /// The open file and its layout, for a region store to serve the text
    /// segment from — the very file that was verified, even if its path is
    /// replaced meanwhile.
    pub fn into_parts(self) -> (File, CatalogToc) {
        (self.file, self.toc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::naive_suffix_tree;
    use era_string_store::{FaultVfs, PackedCodec, StdVfs};

    fn sample_tree() -> (Vec<u8>, PartitionedSuffixTree) {
        let text = b"GATTACAGATTACAGGATCC\0".to_vec();
        let tree = PartitionedSuffixTree::single(text.len(), naive_suffix_tree(&text));
        (text, tree)
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("era-catalog-{}-{}", name, std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("index.eracat")
    }

    #[test]
    fn raw_roundtrip_through_bytes() {
        let (text, tree) = sample_tree();
        let alpha = Alphabet::dna();
        let enc = encode_catalog(7, TextSegment::Raw(&text), &alpha, &tree).unwrap();
        let cat = parse_catalog(&enc.bytes).unwrap();
        assert_eq!(cat.generation, 7);
        assert_eq!(cat.text_len, text.len());
        assert_eq!(cat.text, CatalogText::Raw(text.clone()));
        assert_eq!(cat.alphabet.symbols(), alpha.symbols());
        assert_eq!(cat.groups.len(), 1);
        assert_eq!(cat.groups[0].generation, 7);
        let back = groups_into_tree(cat.text_len, cat.groups);
        assert_eq!(back, tree);
        assert_eq!(back.try_find_all(&text, b"GATTACA").unwrap(), vec![0, 7]);
    }

    #[test]
    fn packed_roundtrip_through_bytes() {
        let (text, tree) = sample_tree();
        let alpha = Alphabet::dna();
        let payload = PackedCodec::new(&alpha).pack_body(&text[..text.len() - 1]).unwrap();
        let enc = encode_catalog(
            1,
            TextSegment::Packed { payload: &payload, text_len: text.len() },
            &alpha,
            &tree,
        )
        .unwrap();
        let cat = parse_catalog(&enc.bytes).unwrap();
        assert_eq!(cat.text, CatalogText::Packed(payload));
        assert_eq!(cat.alphabet.kind(), alpha.kind());
        assert_eq!(groups_into_tree(cat.text_len, cat.groups), tree);
    }

    #[test]
    fn commit_and_open_through_std_vfs() {
        let (text, tree) = sample_tree();
        let alpha = Alphabet::dna();
        let payload = PackedCodec::new(&alpha).pack_body(&text[..text.len() - 1]).unwrap();
        let packed = TextSegment::Packed { payload: &payload, text_len: text.len() };
        for (name, segment) in [("std-raw", TextSegment::Raw(&text)), ("std-packed", packed)] {
            let path = temp_path(name);
            let enc = encode_catalog(3, segment, &alpha, &tree).unwrap();
            commit_catalog(&path, &StdVfs, CommitProtocol::Sound, &enc).unwrap();
            let cat = CatalogFile::open(&path).unwrap().load_all().unwrap();
            assert_eq!(cat.generation, 3);
            // The streamed open verifies the same groups, leaves the text on
            // disk and reads each byte of the file exactly once: header,
            // text, groups, TOC and footer tile it.
            let mut file = CatalogFile::open(&path).unwrap();
            assert_eq!(file.toc().packed, matches!(cat.text, CatalogText::Packed(_)));
            assert_eq!(file.load_groups().unwrap(), cat.groups);
            assert_eq!(file.bytes_read(), enc.bytes.len() as u64);
            assert_eq!(groups_into_tree(cat.text_len, cat.groups), tree);
            // The temp sibling is gone.
            let dir = path.parent().unwrap();
            let stray: Vec<_> = std::fs::read_dir(dir)
                .unwrap()
                .filter_map(|e| e.ok())
                .filter(|e| e.file_name() != "index.eracat")
                .collect();
            assert!(stray.is_empty(), "{stray:?}");
            std::fs::remove_dir_all(dir).unwrap();
        }
    }

    #[test]
    fn sound_commit_keeps_old_catalog_on_any_precommit_crash() {
        let (text, tree) = sample_tree();
        let alpha = Alphabet::dna();
        let path = std::path::Path::new("/virtual/index.eracat");
        let old = encode_catalog(1, TextSegment::Raw(&text), &alpha, &tree).unwrap();
        let new = encode_catalog(2, TextSegment::Raw(&text), &alpha, &tree).unwrap();

        let probe = FaultVfs::new();
        commit_catalog(path, &probe, CommitProtocol::Sound, &old).unwrap();
        probe.record();
        commit_catalog(path, &probe, CommitProtocol::Sound, &new).unwrap();
        let n = probe.op_count();
        assert!(n >= 6, "expected several fault points, got {n}");

        for k in 0..n {
            let vfs = FaultVfs::new();
            commit_catalog(path, &vfs, CommitProtocol::Sound, &old).unwrap();
            vfs.plan_crash(k, era_string_store::CrashMode::DropUnsynced);
            assert!(commit_catalog(path, &vfs, CommitProtocol::Sound, &new).is_err());
            let durable = vfs.durable_bytes(path).expect("old catalog must survive");
            let cat = parse_catalog(&durable).expect("old catalog must stay parseable");
            assert_eq!(cat.generation, 1, "crash at {k} must keep the old generation");
        }
    }

    #[test]
    fn seeded_toc_before_sync_bug_is_observable() {
        let (text, tree) = sample_tree();
        let alpha = Alphabet::dna();
        let path = std::path::Path::new("/virtual/index.eracat");
        let enc = encode_catalog(9, TextSegment::Raw(&text), &alpha, &tree).unwrap();

        // Count the buggy save's ops, then crash right before its final
        // (too-late) sync_data: the name is durable, the bytes are not.
        let probe = FaultVfs::new();
        commit_catalog(path, &probe, CommitProtocol::TocBeforeSegmentSync, &enc).unwrap();
        let n = probe.op_count();
        let vfs = FaultVfs::new();
        vfs.plan_crash(n - 1, era_string_store::CrashMode::DropUnsynced);
        assert!(commit_catalog(path, &vfs, CommitProtocol::TocBeforeSegmentSync, &enc).is_err());
        let durable = vfs.durable_bytes(path).expect("the buggy protocol published the name");
        assert!(
            parse_catalog(&durable).is_err(),
            "published-but-unsynced catalog must not parse ({} durable bytes)",
            durable.len()
        );
    }

    #[test]
    fn every_bit_flip_is_detected() {
        let (text, tree) = sample_tree();
        let enc = encode_catalog(1, TextSegment::Raw(&text), &Alphabet::dna(), &tree).unwrap();
        parse_catalog(&enc.bytes).unwrap();
        let mut bytes = enc.bytes.clone();
        for i in 0..bytes.len() {
            for bit in 0..8 {
                bytes[i] ^= 1 << bit;
                assert!(
                    parse_catalog(&bytes).is_err(),
                    "flipping bit {bit} of byte {i} went undetected"
                );
                bytes[i] ^= 1 << bit;
            }
        }
        parse_catalog(&bytes).unwrap();
    }

    #[test]
    fn every_truncation_is_detected() {
        let (text, tree) = sample_tree();
        let enc = encode_catalog(1, TextSegment::Raw(&text), &Alphabet::dna(), &tree).unwrap();
        for len in 0..enc.bytes.len() {
            assert!(
                parse_catalog(&enc.bytes[..len]).is_err(),
                "truncation to {len} bytes went undetected"
            );
        }
    }

    #[test]
    fn hostile_toc_lengths_do_not_allocate() {
        let (text, tree) = sample_tree();
        let enc = encode_catalog(1, TextSegment::Raw(&text), &Alphabet::dna(), &tree).unwrap();
        let mut bytes = enc.bytes.clone();
        // Hostile group count in the TOC: checksum guards it, but even with a
        // fixed-up checksum the count is bounds-checked against real bytes.
        let toc_off = enc.toc_offset;
        bytes[toc_off + 20..toc_off + 24].copy_from_slice(&u32::MAX.to_le_bytes());
        let toc_len = bytes.len() - FOOTER_LEN - toc_off;
        let sum = fnv1a64(&bytes[toc_off..toc_off + toc_len]);
        let fat = bytes.len() - FOOTER_LEN + 16;
        bytes[fat..fat + 8].copy_from_slice(&sum.to_le_bytes());
        assert!(parse_catalog(&bytes).is_err());
    }
}
