//! `ERACAT1` — the crash-safe single-file index catalog.
//!
//! One file holds everything a serving index needs: the text (raw or
//! bit-packed), every partition-group's flat (`ERAFLAT1`) tree, and a
//! checksummed table of contents that is the *commit point* of the whole
//! catalog. It is the only persisted index format, with one footer/TOC parser
//! and one group loader, read in two ways: [`parse_catalog`] verifies a whole
//! in-memory image, while a [`CatalogFile`] reads each byte of a file once —
//! the footer, header and TOC when it opens, then the text segment
//! ([`CatalogFile::read_text`], hashed as it is read: into memory, or through
//! a bounded buffer, the text staying in the file for a region store to
//! serve block-wise) and the group segments ([`CatalogFile::load_groups`]).
//! Every field is decoded by era-string-store's bounded [`ByteReader`]: the
//! header, footer and TOC are each read front to back and must be consumed
//! exactly, the group segments are cut one after another out of the region
//! read for them, and the symbol table goes through the same
//! [`decode_symbol_table`] as the packed-store header.
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
//!   alphabet      alphabet_len bytes (symbol table, strictly ascending,
//!                 terminal excluded)
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
//! state — the crash-matrix harness in `era-check` proves this by enumerating
//! every fault point of a recorded save against a [`era_string_store::FaultVfs`].
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
use std::ops::Range;
use std::path::Path;

use era_string_store::packed::packed_size;
use era_string_store::packed_store::unique_sibling;
use era_string_store::{decode_symbol_table, Alphabet, ByteReader, Vfs};

use crate::layout::{FlatPartition, FlatTree};
use crate::partitioned::PartitionedSuffixTree;
use crate::serialize::{read_flat_tree, write_flat_tree};

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
/// Ceiling on a TOC's partition-prefix length. Partition prefixes are a
/// handful of symbols by construction; a TOC claiming more is hostile or
/// corrupt and is rejected rather than allocated.
const MAX_PREFIX_LEN: usize = 1 << 10;
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
fn fnv1a64_extend(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| fnv1a64_step(h, b))
}

/// One byte of FNV-1a 64.
fn fnv1a64_step(h: u64, b: u8) -> u64 {
    (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
}

/// [`fnv1a64`] of every segment, in their order. One hash is a chain of
/// dependent multiplies, so the segments are hashed four at a time, longest
/// first so that the four are of about one length: side by side up to the
/// shortest of them, then each one's rest alone. The four chains overlap,
/// and a catalog's group segments hash in about a third of the time one
/// after another takes.
fn fnv1a64_each(segments: &[&[u8]]) -> Vec<u64> {
    let mut longest_first: Vec<(usize, &[u8])> = segments.iter().copied().enumerate().collect();
    longest_first.sort_by_key(|&(_, seg)| std::cmp::Reverse(seg.len()));
    let mut out = vec![FNV_OFFSET; segments.len()];
    for four in longest_first.chunks(4) {
        let mut lanes: [Option<(usize, &[u8])>; 4] = [None; 4];
        for (lane, &seg) in lanes.iter_mut().zip(four) {
            *lane = Some(seg);
        }
        let side_by_side = lanes.iter().map(|lane| lane.map_or(0, |(_, s)| s.len())).min();
        let n = side_by_side.unwrap_or(0);
        let [a, b, c, d] = lanes.map(|lane| lane.and_then(|(_, s)| s.get(..n)).unwrap_or_default());
        let mut h = [FNV_OFFSET; 4];
        for (((&w, &x), &y), &z) in a.iter().zip(b).zip(c).zip(d) {
            let [p, q, r, t] = h;
            h = [fnv1a64_step(p, w), fnv1a64_step(q, x), fnv1a64_step(r, y), fnv1a64_step(t, z)];
        }
        for (lane, hash) in lanes.into_iter().zip(h) {
            if let Some((i, seg)) = lane {
                if let Some(slot) = out.get_mut(i) {
                    *slot = fnv1a64_extend(hash, seg.get(n..).unwrap_or_default());
                }
            }
        }
    }
    out
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
    reason = "text_len - 1 follows the zero check and alen as u8 the 1..=255 check; the partition count and prefix.len() fit a u32: each group and each prefix covers at least one suffix, and ConstructionPipeline::run refuses a text of u32::MAX symbols or more"
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

    // The TOC is laid out while the group segments are appended after the
    // text; it follows them once they are all written.
    let mut toc = Vec::new();
    toc.extend_from_slice(&generation.to_le_bytes());
    toc.extend_from_slice(&(text_len as u64).to_le_bytes());
    toc.push(if packed { FLAG_PACKED } else { 0 });
    toc.push(alen as u8);
    toc.extend_from_slice(&0u16.to_le_bytes());
    toc.extend_from_slice(&(tree.partitions().len() as u32).to_le_bytes());
    toc.extend_from_slice(alphabet.symbols());
    toc.extend_from_slice(&text_offset.to_le_bytes());
    toc.extend_from_slice(&(text_bytes.len() as u64).to_le_bytes());
    toc.extend_from_slice(&fnv1a64(text_bytes).to_le_bytes());
    for part in tree.partitions() {
        if part.prefix.len() > MAX_PREFIX_LEN {
            return Err(corrupt(format!(
                "partition prefix of {} bytes exceeds the format maximum {}",
                part.prefix.len(),
                MAX_PREFIX_LEN
            )));
        }
        let mut seg = Vec::with_capacity(part.tree.serialized_size());
        write_flat_tree(&mut seg, &part.tree)?;
        toc.extend_from_slice(&generation.to_le_bytes());
        toc.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
        toc.extend_from_slice(&(seg.len() as u64).to_le_bytes());
        toc.extend_from_slice(&fnv1a64(&seg).to_le_bytes());
        toc.extend_from_slice(&(part.prefix.len() as u32).to_le_bytes());
        toc.extend_from_slice(&part.prefix);
        bytes.extend_from_slice(&seg);
    }

    let toc_offset = bytes.len();
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

/// One partition group as the TOC declares it.
#[derive(Debug, Clone)]
struct TocGroup {
    generation: u64,
    prefix: Vec<u8>,
    /// Segment length in bytes; the segments lie end to end.
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
    /// Where the group segments lie in the file, from the text to the TOC.
    group_region: Range<usize>,
}

fn too_short(file_len: usize) -> io::Error {
    corrupt(format!("catalog of {file_len} bytes is shorter than header + footer"))
}

fn parse_header(header: &[u8]) -> io::Result<()> {
    let mut r = ByteReader::new(header, "catalog header");
    if r.take(CATALOG_MAGIC.len(), "magic")? != CATALOG_MAGIC {
        return Err(corrupt("not an ERACAT1 catalog (bad header magic)".into()));
    }
    let version = r.u32("version")?;
    if version != CATALOG_VERSION {
        return Err(corrupt(format!("unsupported catalog version {version}")));
    }
    if r.u32("reserved")? != 0 {
        return Err(corrupt("catalog header reserved field must be zero".into()));
    }
    Ok(r.finish()?)
}

/// Parses the footer that begins at byte `footer_at` of a catalog into the
/// TOC's `(offset, length, checksum)`; the TOC must end exactly at the
/// footer, after the header.
fn parse_footer(footer: &[u8], footer_at: usize) -> io::Result<(usize, usize, u64)> {
    let mut r = ByteReader::new(footer, "catalog footer");
    let toc_offset = r.usize("toc offset")?;
    let toc_len = r.usize("toc length")?;
    let toc_checksum = r.u64("toc checksum")?;
    if r.take(FOOTER_MAGIC.len(), "magic")? != FOOTER_MAGIC {
        return Err(corrupt("catalog footer magic missing (truncated or torn file)".into()));
    }
    r.finish()?;
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
/// Hostile lengths never drive allocation: every field is read through a
/// [`ByteReader`], bounds-checked against the real TOC bytes before use.
fn parse_toc(toc: &[u8], toc_offset: usize, toc_checksum: u64) -> io::Result<CatalogToc> {
    if fnv1a64(toc) != toc_checksum {
        return Err(corrupt("catalog toc checksum mismatch".into()));
    }
    let mut r = ByteReader::new(toc, "catalog toc");
    let generation = r.u64("generation")?;
    let text_len = r.usize("text length")?;
    let flags = r.u8("flags")?;
    let alen = r.u8("alphabet length")?;
    if r.u16("reserved")? != 0 {
        return Err(corrupt("catalog toc reserved field must be zero".into()));
    }
    let group_count = r.u32("group count")?;
    if flags & !FLAG_PACKED != 0 {
        return Err(corrupt(format!("catalog flags {flags:#04x} set unknown bits")));
    }
    let packed = flags & FLAG_PACKED != 0;
    if group_count == 0 {
        return Err(corrupt("catalog holds no partition groups".into()));
    }
    let Some(body_len) = text_len.checked_sub(1) else {
        return Err(corrupt("catalog text length is zero (must include the terminal)".into()));
    };
    let alphabet = decode_symbol_table(r.take(usize::from(alen), "alphabet")?)
        .map_err(|e| corrupt(format!("catalog alphabet invalid: {e}")))?;

    // Text segment: pinned to HEADER_LEN.
    let text_offset = r.usize("text offset")?;
    let text_bytes = r.usize("text bytes")?;
    let text_checksum = r.u64("text checksum")?;
    if text_offset != HEADER_LEN {
        return Err(corrupt(format!(
            "catalog text segment must start at {HEADER_LEN}, not {text_offset}"
        )));
    }
    let text_end = text_offset
        .checked_add(text_bytes)
        .ok_or_else(|| corrupt("catalog text bounds overflow".into()))?;
    let want = if packed { packed_size(body_len, alphabet.bits_per_symbol()) } else { text_len };
    if text_bytes != want {
        return Err(corrupt(format!(
            "text segment is {text_bytes} bytes, a {} text of {text_len} symbols needs {want}",
            if packed { "packed" } else { "raw" }
        )));
    }

    // Group segments: strictly contiguous from the text end to the TOC. The
    // list grows as entries are read, so a hostile count allocates nothing.
    let mut groups = Vec::new();
    let mut cursor = text_end;
    for i in 0..group_count {
        let generation = r.u64("group generation")?;
        let offset = r.usize("group offset")?;
        let len = r.usize("group length")?;
        let checksum = r.u64("group checksum")?;
        let prefix_len = r.u32("prefix length")? as usize;
        if prefix_len > MAX_PREFIX_LEN {
            return Err(corrupt(format!(
                "group {i} claims a {prefix_len}-byte prefix (max {MAX_PREFIX_LEN})"
            )));
        }
        let prefix = r.take(prefix_len, "group prefix")?.to_vec();
        if offset != cursor {
            return Err(corrupt(format!(
                "group {i} at {offset} leaves a gap after {cursor} (segments must be contiguous)"
            )));
        }
        cursor =
            offset.checked_add(len).ok_or_else(|| corrupt(format!("group {i} bounds overflow")))?;
        groups.push(TocGroup { generation, prefix, len, checksum });
    }
    // The text and every group lie end to end from HEADER_LEN, so this one
    // check also keeps each of them in front of the TOC.
    if cursor != toc_offset {
        return Err(corrupt(format!(
            "catalog groups end at {cursor}, not where the toc begins ({toc_offset})"
        )));
    }
    r.finish()?;
    Ok(CatalogToc {
        generation,
        text_len,
        alphabet,
        packed,
        text_bytes,
        text_checksum,
        groups,
        group_region: text_end..toc_offset,
    })
}

/// Verifies every group segment against its TOC entry and parses its tree
/// (structural validation included): the one group loader, behind both
/// [`parse_catalog`] and [`CatalogFile::load_groups`]. `region` reads the
/// group segments, end to end and nothing after them; they are hashed four
/// side by side ([`fnv1a64_each`]).
fn verify_groups(toc: &CatalogToc, mut region: ByteReader<'_>) -> io::Result<Vec<CatalogGroup>> {
    let segments = (toc.groups.iter())
        .map(|g| region.take(g.len, "group segment"))
        .collect::<Result<Vec<_>, _>>()?;
    region.finish()?;
    let hashes = fnv1a64_each(&segments);
    let mut groups = Vec::with_capacity(segments.len());
    for (i, ((entry, seg), hash)) in toc.groups.iter().zip(segments).zip(hashes).enumerate() {
        if hash != entry.checksum {
            return Err(corrupt(format!("group {i} segment checksum mismatch")));
        }
        let tree =
            read_flat_tree(seg).map_err(|e| corrupt(format!("group {i} tree invalid: {e}")))?;
        if tree.text_len() != toc.text_len {
            return Err(corrupt(format!(
                "group {i} tree covers a {}-symbol text, catalog says {}",
                tree.text_len(),
                toc.text_len
            )));
        }
        groups.push(CatalogGroup {
            generation: entry.generation,
            prefix: entry.prefix.clone(),
            tree,
        });
    }
    Ok(groups)
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
pub fn parse_catalog(bytes: &[u8]) -> io::Result<Catalog> {
    let (rest, footer) =
        bytes.split_last_chunk::<FOOTER_LEN>().ok_or_else(|| too_short(bytes.len()))?;
    let (toc_offset, _, toc_checksum) = parse_footer(footer, rest.len())?;
    let (head, toc) = rest.split_at_checked(toc_offset).ok_or_else(|| too_short(bytes.len()))?;
    let mut head = ByteReader::new(head, "catalog");
    parse_header(head.take(HEADER_LEN, "header")?)?;
    let toc = parse_toc(toc, toc_offset, toc_checksum)?;
    let text_seg = head.take(toc.text_bytes, "text segment")?;
    check_text(&toc, fnv1a64(text_seg), text_seg.last().copied())?;
    let groups = verify_groups(&toc, head)?;
    let text_seg = text_seg.to_vec();
    let text = if toc.packed { CatalogText::Packed(text_seg) } else { CatalogText::Raw(text_seg) };
    let CatalogToc { generation, text_len, alphabet, .. } = toc;
    Ok(Catalog { generation, text_len, alphabet, text, groups })
}

/// The piece of the text segment [`CatalogFile::read_text`] reads and hashes
/// at a time, and its whole buffer when the text stays in the file.
const STREAM_CHUNK: usize = 64 << 10;

/// An open catalog file whose header, footer and TOC have been read and
/// validated; no segment has been read yet. The rest is read once, in file
/// order: [`Self::read_text`], into memory or leaving the text in the file,
/// then [`Self::load_groups`].
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
    pub fn open(path: impl AsRef<Path>) -> io::Result<CatalogFile> {
        let mut file = File::open(path)?;
        let mut bytes_read = 0;
        let file_len = usize::try_from(file.metadata()?.len())
            .map_err(|_| corrupt("catalog file is too large for this platform".into()))?;
        let footer_at = file_len.checked_sub(FOOTER_LEN).ok_or_else(|| too_short(file_len))?;
        let mut footer = [0u8; FOOTER_LEN];
        file.seek(SeekFrom::Start(footer_at as u64))?;
        read_counted(&mut file, &mut bytes_read, &mut footer)?;
        let (toc_offset, toc_len, toc_checksum) = parse_footer(&footer, footer_at)?;
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
    /// footer and TOC, plus what [`Self::read_text`] and
    /// [`Self::load_groups`] read.
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read
    }

    /// Reads the text segment 64 KiB (`STREAM_CHUNK`) at a time, hashing each
    /// piece as it is read, and checks it against the TOC. With `keep` the
    /// segment is read into memory and returned; without, it goes through
    /// one bounded buffer and stays in the file, for a region store to serve.
    #[expect(
        clippy::arithmetic_side_effects,
        clippy::indexing_slicing,
        reason = "at < len and take = (len - at).min(STREAM_CHUNK), so the piece fits the buffer, which holds len or STREAM_CHUNK.min(len) bytes"
    )]
    pub fn read_text(&mut self, keep: bool) -> io::Result<Option<Vec<u8>>> {
        let len = self.toc.text_bytes;
        // The TOC put the segment inside the file: no buffer outgrows it.
        let mut buf = vec![0u8; if keep { len } else { STREAM_CHUNK.min(len) }];
        self.file.seek(SeekFrom::Start(HEADER_LEN as u64))?;
        let (mut hash, mut last, mut at) = (FNV_OFFSET, None, 0);
        while at < len {
            let take = (len - at).min(STREAM_CHUNK);
            let from = if keep { at } else { 0 };
            let piece = &mut buf[from..from + take];
            read_counted(&mut self.file, &mut self.bytes_read, piece)?;
            hash = fnv1a64_extend(hash, piece);
            last = piece.last().copied();
            at += take;
        }
        check_text(&self.toc, hash, last)?;
        Ok(keep.then_some(buf))
    }

    /// Reads the group segments, which lie contiguously after the text, in
    /// one read, and verifies them with the loader [`parse_catalog`] uses.
    pub fn load_groups(&mut self) -> io::Result<Vec<CatalogGroup>> {
        // Bounded by the real file length, like the TOC.
        let mut region = vec![0u8; self.toc.group_region.len()];
        self.file.seek(SeekFrom::Start(self.toc.group_region.start as u64))?;
        read_counted(&mut self.file, &mut self.bytes_read, &mut region)?;
        verify_groups(&self.toc, ByteReader::new(&region, "catalog group region"))
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
    fn hashing_four_side_by_side_gives_each_segment_its_own_hash() {
        let bytes: Vec<u8> = (0..5_000u32).map(|i| (i * 7 + i / 13).to_le_bytes()[0]).collect();
        for count in [0usize, 1, 3, 4, 5, 9] {
            let segments: Vec<&[u8]> =
                (0..count).map(|k| &bytes[k * 37..k * 37 + (k * 613) % 4_000]).collect();
            let one_by_one: Vec<u64> = segments.iter().map(|seg| fnv1a64(seg)).collect();
            assert_eq!(fnv1a64_each(&segments), one_by_one, "{count} segments");
        }
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
            let cat = parse_catalog(&std::fs::read(&path).unwrap()).unwrap();
            assert_eq!(cat.generation, 3);
            // The file reads the same text and groups as the image parse, and
            // each byte of the file exactly once, whether the text is kept in
            // memory or left on disk: header, text, groups, TOC and footer
            // tile it.
            let (CatalogText::Raw(image_text) | CatalogText::Packed(image_text)) = &cat.text;
            for keep in [true, false] {
                let mut file = CatalogFile::open(&path).unwrap();
                assert_eq!(file.toc().packed, matches!(cat.text, CatalogText::Packed(_)));
                let text = file.read_text(keep).unwrap();
                assert_eq!(text.as_ref(), keep.then_some(image_text), "keep={keep}");
                assert_eq!(file.load_groups().unwrap(), cat.groups);
                assert_eq!(file.bytes_read(), enc.bytes.len() as u64);
            }
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
    fn a_text_of_several_pieces_is_read_and_checked_once_in_both_modes() {
        // Two whole STREAM_CHUNK pieces and a short third one.
        let mut x = 1u32;
        let mut text: Vec<u8> = (0..2 * STREAM_CHUNK + 1000)
            .map(|_| {
                x = x.wrapping_mul(1_103_515_245).wrapping_add(12_345);
                b"ACGT"[(x >> 16) as usize % 4]
            })
            .collect();
        text.push(0);
        let tree = PartitionedSuffixTree::single(text.len(), naive_suffix_tree(&text));
        let enc = encode_catalog(1, TextSegment::Raw(&text), &Alphabet::dna(), &tree).unwrap();
        let path = temp_path("pieces");
        std::fs::write(&path, &enc.bytes).unwrap();
        for keep in [true, false] {
            let mut file = CatalogFile::open(&path).unwrap();
            assert_eq!(file.read_text(keep).unwrap(), keep.then(|| text.clone()), "keep={keep}");
            assert_eq!(groups_into_tree(text.len(), file.load_groups().unwrap()), tree);
            assert_eq!(file.bytes_read(), enc.bytes.len() as u64, "keep={keep}");
        }
        // A bit flipped in the last piece fails the text checksum either way.
        let mut bytes = enc.bytes.clone();
        bytes[HEADER_LEN + text.len() - 2] ^= 1;
        std::fs::write(&path, &bytes).unwrap();
        for keep in [true, false] {
            let err = CatalogFile::open(&path).unwrap().read_text(keep).unwrap_err();
            assert!(err.to_string().contains("text segment checksum mismatch"), "{err}");
        }
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
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
