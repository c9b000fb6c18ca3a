//! The packed string store.
//!
//! [`PackedStore`] keeps the string bit-packed (§6.1: 2 bits/symbol for DNA,
//! 5 for protein/English), in memory or in a file, and decodes on the fly
//! inside [`StringStore::read_at`], straight into the caller's buffer — which
//! for every construction scan is the reused window buffer of
//! [`crate::BlockCursor`]. Callers see ordinary symbol bytes at symbol
//! positions; the I/O counters record the *packed* bytes and blocks actually
//! fetched, so `IoStats.bytes_read` drops by the packing ratio (4x on DNA) on
//! every scan.
//!
//! [`StringStore::read_codes_at`] is the other read: it hands out the payload
//! bits themselves, copied from memory or read from the file straight into
//! the caller's buffer, with nothing decoded and the same accounting as
//! `read_at`. The read-ahead fill of `SubTreePrepare` goes through it — via
//! [`crate::BlockCursor::codes`] — so its records hold 2- or 5-bit codes and
//! that pass decodes nothing.
//!
//! Positions and lengths in the [`StringStore`] API stay symbol-granular.
//! [`StringStore::block_size`] reports the symbols per *logical* block — the
//! smallest group of physical blocks whose bit span divides evenly into
//! symbols (one block for 2-bit DNA, five for 5-bit protein/English) — so the
//! block-aligned windows of [`crate::BlockCursor`] always start on whole
//! packed bytes and whole physical blocks, and `blocks_read` falls by the
//! packing ratio alongside `bytes_read`.
//!
//! The on-disk format is a small header — magic, version, bits-per-symbol,
//! symbol table, text length — followed by the packed body. The header is
//! decoded by the crate's bounded [`ByteReader`], its symbol table by
//! [`decode_symbol_table`], the decoder the catalog's TOC uses too; the
//! magic-plus-version signature is one check, shared by
//! [`PackedStore::open`] and [`PackedStore::open_if_packed`]. The terminal
//! symbol is stored *out-of-band*: its position is implied by the text length
//! and it occupies no payload bits, so the encoding matches the paper's bit
//! widths exactly.

#![deny(
    clippy::indexing_slicing,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use std::fs::File;
use std::io::{BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::alphabet::{Alphabet, TERMINAL};
use crate::backing::Backing;
use crate::cursor::BlockCursor;
use crate::error::{StoreError, StoreResult};
use crate::memory::DEFAULT_MEMORY_BLOCK;
use crate::packed::{packed_size, PackState, PackedCodec};
use crate::reader::{decode_symbol_table, ByteReader};
use crate::resident::ResidentText;
use crate::stats::{blocks_spanned, IoStats, ReadCursor};
use crate::store::{clamp_read, code_span, StringStore};

/// Magic bytes opening a packed string file.
pub const PACKED_MAGIC: [u8; 4] = *b"ERAP";

/// Version of the packed on-disk format.
pub const PACKED_VERSION: u16 = 1;

/// Fixed-size part of the packed header: magic (4), version (2), bits (1),
/// alphabet length (1), text length (8). The symbol table follows.
const HEADER_FIXED: usize = 16;

/// Symbols per *logical* block: the smallest whole number of physical blocks
/// whose bit span divides evenly into symbols.
///
/// For bit widths that divide 8 (2-bit DNA, 4-bit) one physical block holds a
/// whole number of symbols and the logical block equals the physical block.
/// For widths that don't (5-bit protein/English), a single physical block
/// ends mid-symbol, so block-granular reads would straddle two physical
/// blocks and inflate `blocks_read`; grouping `bits / gcd(bits, block_bits)`
/// physical blocks (5 for 5-bit at any power-of-two block size) makes every
/// logical-block boundary fall on a whole packed byte *and* a whole physical
/// block, keeping the blocks-read ratio at the packing ratio.
fn symbols_per_block(block_bytes: usize, bits: u32) -> usize {
    let block_bits = block_bytes as u64 * 8;
    let k = bits as u64 / gcd(bits as u64, block_bits);
    ((k * block_bits) / bits as u64).max(1) as usize
}

/// Physical blocks grouped into one logical block (see [`symbols_per_block`]).
fn blocks_per_logical(block_bytes: usize, bits: u32) -> u64 {
    bits as u64 / gcd(bits as u64, block_bytes as u64 * 8)
}

fn gcd(a: u64, b: u64) -> u64 {
    let (mut a, mut b) = (a, b);
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// A unique sibling of `path` named `<path>.<tag>.<pid>.<seq>`: the pid keeps
/// concurrent processes apart, the counter keeps threads apart. Used for the
/// write-then-rename of [`PackedStore::create`]/[`PackedStore::pack_store`]
/// and for the conversion files of packed path builds.
pub fn unique_sibling(path: &Path, tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let mut os = path.as_os_str().to_os_string();
    os.push(format!(".{tag}.{}.{}", std::process::id(), SEQ.fetch_add(1, Ordering::Relaxed)));
    PathBuf::from(os)
}

/// Writes a file atomically: `write` produces a unique temp sibling, which is
/// renamed over `path` only on success; on any failure the temp file is
/// removed and whatever already lived at `path` stays untouched.
fn write_then_rename(path: &Path, write: impl FnOnce(&Path) -> StoreResult<()>) -> StoreResult<()> {
    let tmp = unique_sibling(path, "tmp");
    write(&tmp).and_then(|()| Ok(std::fs::rename(&tmp, path)?)).inspect_err(|_| {
        let _ = std::fs::remove_file(&tmp);
    })
}

/// The aligned packed-byte span `[lo, hi]` (inclusive) covering `count` body
/// symbols starting at symbol `start`, or `None` when no payload is touched.
fn packed_span(start: usize, count: usize, bits: u32) -> Option<(usize, usize)> {
    if count == 0 {
        return None;
    }
    let first_bit = start as u64 * bits as u64;
    let last_bit = (start + count) as u64 * bits as u64 - 1;
    Some(((first_bit / 8) as usize, (last_bit / 8) as usize))
}

/// A [`StringStore`] holding the string bit-packed, in memory or in a file.
///
/// A file is laid out as `ERAP | version | bits | |Σ| | text_len | symbol
/// table | packed body`; see the module docs. Reads fetch only the packed
/// span a request covers and decode it into the caller's buffer, so
/// sequential scans of a DNA string fetch one quarter of the raw bytes.
#[derive(Debug)]
pub struct PackedStore {
    /// The packed payload (the terminal has no bits in it).
    bytes: Backing,
    len: usize,
    alphabet: Alphabet,
    codec: PackedCodec,
    block_bytes: usize,
    stats: IoStats,
}

/// The packed store holding its payload in memory.
pub type PackedMemoryStore = PackedStore;

/// The packed store reading its payload from a file.
pub type PackedDiskStore = PackedStore;

/// A fully validated packed header.
struct ParsedHeader {
    alphabet: Alphabet,
    len: usize,
    payload_offset: u64,
}

/// Reads the packed signature, magic *and* version together, that opens
/// every packed file: the one check behind [`parse_header`] and
/// [`PackedStore::open_if_packed`].
fn read_signature(r: &mut ByteReader<'_>) -> StoreResult<()> {
    if r.take(PACKED_MAGIC.len(), "magic")? != PACKED_MAGIC {
        return Err(StoreError::InvalidText("missing packed-store magic".into()));
    }
    let version = r.u16("version")?;
    if version != PACKED_VERSION {
        return Err(StoreError::InvalidText(format!("unsupported packed-store version {version}")));
    }
    Ok(())
}

/// Reads and validates the complete header of an open packed file: magic,
/// version, bits/symbol-table consistency, and that the file length matches
/// exactly what the header implies.
#[deny(clippy::cast_possible_truncation, clippy::arithmetic_side_effects, clippy::indexing_slicing)]
fn parse_header(file: &mut File, file_len: u64) -> StoreResult<ParsedHeader> {
    let mut fixed = [0u8; HEADER_FIXED];
    file.read_exact(&mut fixed)
        .map_err(|_| StoreError::InvalidText("file too short for a packed header".into()))?;
    let mut r = ByteReader::new(&fixed, "packed header");
    read_signature(&mut r)?;
    let bits = u32::from(r.u8("bits per symbol")?);
    let alen = r.u8("alphabet length")?;
    let len = r.usize("text length")?;
    if len == 0 {
        return Err(StoreError::InvalidText("packed file holds an empty string".into()));
    }
    let mut symbols = vec![0u8; usize::from(alen)];
    file.read_exact(&mut symbols)
        .map_err(|_| StoreError::InvalidText("truncated packed symbol table".into()))?;
    let alphabet = decode_symbol_table(&symbols)?;
    if alphabet.bits_per_symbol() != bits {
        return Err(StoreError::InvalidText(format!(
            "header claims {bits} bits/symbol but the {alen}-symbol table needs {}",
            alphabet.bits_per_symbol()
        )));
    }
    #[expect(clippy::arithmetic_side_effects, reason = "alen is a u8")]
    let payload_offset = HEADER_FIXED as u64 + u64::from(alen);
    // Exact 128-bit length check: `len` is untrusted, and a truncating cast
    // here could let a hostile length alias the real file size.
    #[expect(clippy::arithmetic_side_effects, reason = "len >= 1; u64 + u64 * 8 fits a u128")]
    let expected = payload_offset as u128 + ((len as u128 - 1) * bits as u128).div_ceil(8);
    if file_len as u128 != expected {
        return Err(StoreError::InvalidText(format!(
            "packed file is {file_len} bytes, header implies {expected}"
        )));
    }
    Ok(ParsedHeader { alphabet, len, payload_offset })
}

impl PackedStore {
    /// Packs an already-terminated text.
    pub fn new(text: &[u8], alphabet: Alphabet) -> StoreResult<Self> {
        alphabet.validate(text)?;
        let body = text.split_last().map_or(&[][..], |(_, body)| body);
        let payload = PackedCodec::new(&alphabet).pack_body(body)?;
        Self::over(Backing::Memory(payload), text.len(), alphabet, DEFAULT_MEMORY_BLOCK)
    }

    /// A store serving the `len`-symbol text whose payload `bytes` hold.
    fn over(
        bytes: Backing,
        len: usize,
        alphabet: Alphabet,
        block_bytes: usize,
    ) -> StoreResult<Self> {
        let codec = PackedCodec::new(&alphabet);
        PackedStore { bytes, len, alphabet, codec, block_bytes: 1, stats: IoStats::new() }
            .with_block_size(block_bytes)
    }

    /// A store serving the payload of `header`'s text out of `file`, which
    /// must hold all of it.
    fn over_file(
        file: File,
        path: PathBuf,
        header: ParsedHeader,
        block_bytes: usize,
    ) -> StoreResult<Self> {
        let payload = packed_size(header.len.saturating_sub(1), header.alphabet.bits_per_symbol());
        let bytes = Backing::region(file, header.payload_offset, payload as u64, path)?;
        Self::over(bytes, header.len, header.alphabet, block_bytes)
    }

    /// Appends the terminal to `body` and packs the result.
    pub fn from_body(body: &[u8], alphabet: Alphabet) -> StoreResult<Self> {
        let text = alphabet.terminate(body)?;
        Self::new(&text, alphabet)
    }

    /// Adopts an already-packed `payload` of a `text_len`-symbol text (the
    /// text segment of a packed catalog) without decoding and re-packing it.
    /// The size must be exact and every code must name a symbol: an alphabet
    /// that does not fill its bit width (protein uses 20 of 32 codes) leaves
    /// codes that [`PackedCodec::pack_body`] never emits and that decode to a
    /// terminal in mid-text.
    #[expect(clippy::indexing_slicing, reason = "a chunk is at most CHUNK symbols long")]
    pub fn from_payload(
        payload: Vec<u8>,
        text_len: usize,
        alphabet: Alphabet,
    ) -> StoreResult<Self> {
        let (bits, body) = (alphabet.bits_per_symbol(), text_len.saturating_sub(1));
        if text_len == 0 || payload.len() != packed_size(body, bits) {
            return Err(StoreError::InvalidText(format!(
                "{} packed bytes do not hold a {text_len}-symbol text at {bits} bits per symbol",
                payload.len()
            )));
        }
        let store = Self::over(Backing::Memory(payload), text_len, alphabet, DEFAULT_MEMORY_BLOCK)?;
        if store.alphabet.len() < 1 << bits {
            const CHUNK: usize = 4096;
            let mut symbols = [0u8; CHUNK];
            for start in (0..body).step_by(CHUNK) {
                let chunk = &mut symbols[..(body - start).min(CHUNK)];
                store.decode(start, chunk)?;
                if chunk.contains(&TERMINAL) {
                    return Err(StoreError::InvalidText(
                        "packed payload holds a code outside the alphabet".into(),
                    ));
                }
            }
        }
        Ok(store)
    }

    /// Infers the alphabet from `body`, appends the terminal and packs it.
    pub fn from_body_inferred(body: &[u8]) -> StoreResult<Self> {
        let alphabet = Alphabet::infer(body)?;
        Self::from_body(body, alphabet)
    }

    /// Overrides the physical block size (bytes of *packed* payload per
    /// block) used for accounting.
    pub fn with_block_size(mut self, block_bytes: usize) -> StoreResult<Self> {
        if block_bytes == 0 {
            return Err(StoreError::InvalidConfig("block size must be non-zero".into()));
        }
        self.block_bytes = block_bytes;
        Ok(self)
    }

    /// Opens an existing packed string file, recovering the alphabet from the
    /// header.
    #[deny(
        clippy::cast_possible_truncation,
        clippy::arithmetic_side_effects,
        clippy::indexing_slicing
    )]
    pub fn open(path: impl AsRef<Path>, block_bytes: usize) -> StoreResult<Self> {
        let path = path.as_ref().to_path_buf();
        let mut file = File::open(&path)?;
        let file_len = file.metadata()?.len();
        let header = parse_header(&mut file, file_len)?;
        Self::over_file(file, path, header, block_bytes)
    }

    /// Serves a bare packed payload embedded in a larger container (the text
    /// segment of a catalog file) out of the already-open `file`: `text_len`
    /// symbols under `alphabet`, packed from byte `payload_offset` on. The
    /// caller supplies what an `ERAP` header would have carried; the payload
    /// must lie inside the file. [`Self::path`] of such a store is empty.
    #[deny(
        clippy::cast_possible_truncation,
        clippy::arithmetic_side_effects,
        clippy::indexing_slicing
    )]
    pub fn open_region(
        file: File,
        payload_offset: u64,
        text_len: usize,
        alphabet: Alphabet,
        block_bytes: usize,
    ) -> StoreResult<Self> {
        if text_len == 0 {
            return Err(StoreError::InvalidText("packed region holds an empty string".into()));
        }
        let header = ParsedHeader { alphabet, len: text_len, payload_offset };
        Self::over_file(file, PathBuf::new(), header, block_bytes)
    }

    /// Packs `body` + out-of-band terminal into a new file at `path` and
    /// opens it. The file is removed when the store is dropped.
    ///
    /// The file is written to a unique temporary sibling and renamed into
    /// place only on success, so a failed create neither litters a truncated
    /// file nor destroys whatever already lived at `path`.
    pub fn create(
        path: impl AsRef<Path>,
        body: &[u8],
        alphabet: Alphabet,
        block_bytes: usize,
    ) -> StoreResult<Self> {
        // No up-front validation copy: `pack_body` rejects foreign symbols
        // and interior terminals (the terminal has no code).
        let path = path.as_ref().to_path_buf();
        write_then_rename(&path, |tmp| {
            let codec = PackedCodec::new(&alphabet);
            let mut f = BufWriter::new(File::create(tmp)?);
            write_header(&mut f, &alphabet, body.len() + 1)?;
            f.write_all(&codec.pack_body(body)?)?;
            f.into_inner().map_err(|e| StoreError::Io(e.into_error()))?.sync_all()?;
            Ok(())
        })?;
        Ok(Self::open(&path, block_bytes)?.cleanup_on_drop(true))
    }

    /// Packs body + terminal to a fresh file inside `dir` and opens it.
    ///
    /// The file is removed when the store is dropped.
    pub fn create_in_dir(
        dir: impl AsRef<Path>,
        name: &str,
        body: &[u8],
        alphabet: Alphabet,
    ) -> StoreResult<Self> {
        let path = dir.as_ref().join(format!("{name}.erap"));
        Self::create(path, body, alphabet, crate::disk::DEFAULT_DISK_BLOCK)
    }

    /// Converts any (raw) store into a packed file at `path` with one
    /// streaming scan, then opens it.
    ///
    /// The source is read through a [`BlockCursor`] in block-sized chunks, so
    /// the conversion works for strings larger than memory. Like
    /// [`Self::create`], the output is written to a temporary sibling and
    /// renamed into place on success, so a failed conversion (e.g. a source
    /// symbol outside its declared alphabet surfacing mid-scan) leaves no
    /// trace and cannot destroy a pre-existing file at `path`.
    pub fn pack_store(
        source: &dyn StringStore,
        path: impl AsRef<Path>,
        block_bytes: usize,
    ) -> StoreResult<Self> {
        let path = path.as_ref().to_path_buf();
        let alphabet = source.alphabet().clone();
        let codec = PackedCodec::new(&alphabet);
        let len = source.len();
        write_then_rename(&path, |tmp| {
            let mut f = BufWriter::new(File::create(tmp)?);
            write_header(&mut f, &alphabet, len)?;
            let mut cursor = BlockCursor::new(source, false);
            let chunk = source.block_size().max(1);
            let mut state = PackState::default();
            let mut out = Vec::new();
            let mut pos = 0usize;
            let body_len = len - 1;
            while pos < body_len {
                let take = chunk.min(body_len - pos);
                let symbols = cursor.slice(pos, take)?;
                out.clear();
                codec.pack_chunk(symbols, &mut state, &mut out)?;
                f.write_all(&out)?;
                pos += take;
            }
            out.clear();
            codec.pack_finish(&mut state, &mut out);
            f.write_all(&out)?;
            f.into_inner().map_err(|e| StoreError::Io(e.into_error()))?.sync_all()?;
            Ok(())
        })?;
        Self::open(&path, block_bytes)
    }

    /// Opens `path` as a packed store when it carries the packed
    /// magic-plus-version signature, `Ok(None)` when it does not (a raw or
    /// foreign file), and `Err` for I/O failures *or for a file that claims
    /// to be packed but has a corrupt header*.
    ///
    /// The signature is magic *and* version together: a valid raw text file
    /// can legitimately begin with the bytes `ERAP` (they are all protein
    /// symbols), but it can never carry the interior `0` byte of the version
    /// field, so the signature cannot misclassify raw text — and once the
    /// signature matches, header corruption (truncation, a bad symbol table,
    /// a wrong implied length) is reported as an error instead of silently
    /// falling back to a raw interpretation of packed bytes.
    #[deny(
        clippy::cast_possible_truncation,
        clippy::arithmetic_side_effects,
        clippy::indexing_slicing
    )]
    pub fn open_if_packed(path: impl AsRef<Path>, block_bytes: usize) -> StoreResult<Option<Self>> {
        let path = path.as_ref();
        let mut head = [0u8; 6]; // the signature: magic and version
                                 // A file shorter than the signature cannot be packed.
        if File::open(path)?.read_exact(&mut head).is_err()
            || read_signature(&mut ByteReader::new(&head, "packed header")).is_err()
        {
            return Ok(None);
        }
        Self::open(path, block_bytes).map(Some)
    }

    /// Chooses whether the backing file is deleted when the store is dropped
    /// (stores returned by [`Self::create`] delete it by default; stores from
    /// [`Self::open`] and [`Self::pack_store`] keep it). A store in memory
    /// has no file to delete.
    pub fn cleanup_on_drop(mut self, owned: bool) -> Self {
        self.bytes.set_owned(owned);
        self
    }

    /// The path of the backing file: empty for a payload in memory or a
    /// region of a file the caller opened.
    pub fn path(&self) -> &Path {
        self.bytes.path()
    }

    /// Bits per symbol of the packed payload.
    pub fn bits_per_symbol(&self) -> u32 {
        self.codec.bits()
    }

    /// Size of the packed payload in bytes (header excluded).
    pub fn payload_bytes(&self) -> usize {
        packed_size(self.len - 1, self.codec.bits())
    }

    /// How many of the `take` symbols at `pos` lie in the body, i.e. have
    /// payload bits: all but the out-of-band terminal.
    fn body_count(&self, pos: usize, take: usize) -> usize {
        take.min((self.len - 1).saturating_sub(pos))
    }

    /// Decodes the body symbols from `pos` on into `out`, one logical block
    /// at a time: straight from a memory backing's buffer, and from a file
    /// through this thread's scratch, which stays one block long however
    /// long the read.
    fn decode(&self, pos: usize, out: &mut [u8]) -> StoreResult<()> {
        let (bits, block) = (self.codec.bits(), self.block_size());
        let (mut start, mut rest) = (pos, out);
        while !rest.is_empty() {
            // Each chunk ends at a logical-block boundary (logical blocks are
            // whole-byte aligned), so consecutive chunk spans never share a
            // packed byte and nothing is fetched twice.
            let n = (block - start % block).min(rest.len());
            let (chunk, tail) = std::mem::take(&mut rest).split_at_mut(n);
            if let Some((lo, hi)) = packed_span(start, n, bits) {
                let first_bit = (start as u64 * bits as u64 % 8) as u32;
                self.bytes.with_span(lo, hi - lo + 1, |span| {
                    self.codec.unpack(span, first_bit, n, chunk);
                })?;
            }
            (start, rest) = (start + n, tail);
        }
        Ok(())
    }
}

fn write_header<W: Write>(out: &mut W, alphabet: &Alphabet, text_len: usize) -> StoreResult<()> {
    if alphabet.len() > u8::MAX as usize {
        return Err(StoreError::InvalidConfig(
            "packed stores support at most 255 alphabet symbols".into(),
        ));
    }
    let mut fixed = [0u8; HEADER_FIXED];
    fixed[0..4].copy_from_slice(&PACKED_MAGIC);
    fixed[4..6].copy_from_slice(&PACKED_VERSION.to_le_bytes());
    fixed[6] = alphabet.bits_per_symbol() as u8;
    fixed[7] = alphabet.len() as u8;
    fixed[8..16].copy_from_slice(&(text_len as u64).to_le_bytes());
    out.write_all(&fixed)?;
    out.write_all(alphabet.symbols())?;
    Ok(())
}

impl StringStore for PackedStore {
    fn len(&self) -> usize {
        self.len
    }

    fn alphabet(&self) -> &Alphabet {
        &self.alphabet
    }

    fn block_size(&self) -> usize {
        symbols_per_block(self.block_bytes, self.codec.bits())
    }

    fn physical_blocks_per_block(&self) -> u64 {
        blocks_per_logical(self.block_bytes, self.codec.bits())
    }

    fn is_packed(&self) -> bool {
        true
    }

    fn stats(&self) -> &IoStats {
        &self.stats
    }

    #[expect(clippy::indexing_slicing, reason = "body < take <= buf.len() bounds both")]
    fn read_at_with(&self, pos: usize, buf: &mut [u8], cursor: &ReadCursor) -> StoreResult<usize> {
        let take = clamp_read(pos, buf.len(), self.len)?;
        if take == 0 {
            return Ok(0);
        }
        let body = self.body_count(pos, take);
        self.decode(pos, &mut buf[..body])?;
        if take > body {
            buf[body] = TERMINAL;
        }
        self.stats.charge_read_on(cursor, pos, take, self.read_cost(pos, take));
        Ok(take)
    }

    fn code_bits(&self) -> u32 {
        self.codec.bits()
    }

    /// The payload span goes from memory or the file straight into `buf`: no
    /// scratch buffer, no decode.
    fn read_codes_at_with(
        &self,
        pos: usize,
        count: usize,
        buf: &mut [u8],
        cursor: &ReadCursor,
    ) -> StoreResult<usize> {
        let take = clamp_read(pos, count, self.len)?;
        if take == 0 {
            return Ok(0);
        }
        if let Some((lo, hi)) = packed_span(pos, self.body_count(pos, take), self.codec.bits()) {
            self.bytes.read_exact_at(lo, code_span(buf, hi - lo + 1)?)?;
        }
        self.stats.charge_read_on(cursor, pos, take, self.read_cost(pos, take));
        Ok(take)
    }

    /// The payload and codec, matched code by code where they lie.
    fn resident(&self) -> Option<ResidentText<'_>> {
        let payload = self.bytes.memory()?;
        Some(ResidentText::packed(payload, self.len, &self.codec))
    }

    /// The packed byte span covering the body symbols of the read (the
    /// terminal is out-of-band and costs nothing), plus the physical blocks
    /// it touches.
    fn read_cost(&self, pos: usize, take: usize) -> (u64, u64) {
        match packed_span(pos, self.body_count(pos, take), self.codec.bits()) {
            Some((lo, hi)) => ((hi - lo + 1) as u64, blocks_spanned(lo, hi, self.block_bytes)),
            None => (0, 0),
        }
    }
}

#[cfg(test)]
#[expect(clippy::disallowed_methods, reason = "tests of the store's own read accounting")]
mod tests {
    use super::*;
    use crate::disk::DiskStore;
    use crate::memory::InMemoryStore;

    fn temp_dir() -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("era-packed-store-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn memory_store_roundtrips_and_accounts_packed_bytes() {
        let body: Vec<u8> = std::iter::repeat(*b"GATC").flatten().take(4096).collect();
        let raw = InMemoryStore::from_body(&body, Alphabet::dna()).unwrap();
        let packed = PackedMemoryStore::from_body(&body, Alphabet::dna()).unwrap();
        assert_eq!(packed.len(), raw.len());
        assert_eq!(packed.bits_per_symbol(), 2);
        assert_eq!(packed.read_all().unwrap(), raw.read_all().unwrap());
        // Packed accounting: ~1/4 of the raw bytes for 2-bit DNA.
        let raw_bytes = raw.stats().snapshot().bytes_read;
        let packed_bytes = packed.stats().snapshot().bytes_read;
        assert!(
            packed_bytes * 3 < raw_bytes,
            "packed read {packed_bytes} bytes vs raw {raw_bytes}"
        );
    }

    #[test]
    fn from_payload_adopts_what_pack_body_emits_and_nothing_else() {
        for alphabet in [Alphabet::dna(), Alphabet::protein()] {
            // Longer than one validation chunk, not a multiple of it.
            let body: Vec<u8> =
                (0..9001).map(|i| alphabet.symbols()[(i * 7 + i / 5) % alphabet.len()]).collect();
            let payload = PackedCodec::new(&alphabet).pack_body(&body).unwrap();
            let adopted =
                PackedMemoryStore::from_payload(payload.clone(), body.len() + 1, alphabet.clone())
                    .unwrap();
            let packed = PackedMemoryStore::from_body(&body, alphabet.clone()).unwrap();
            assert_eq!(adopted.read_all().unwrap(), packed.read_all().unwrap());
            assert_eq!(adopted.payload_bytes(), packed.payload_bytes());
            // A size that does not match the text length, either way.
            for text_len in [0, body.len(), body.len() + 9] {
                let off =
                    PackedMemoryStore::from_payload(payload.clone(), text_len, alphabet.clone());
                assert!(matches!(off, Err(StoreError::InvalidText(_))), "text_len {text_len}");
            }
        }
        // Protein fills 20 of its 32 five-bit codes: code 31 in the last
        // chunk names no symbol, and must not come back as a terminal.
        let alphabet = Alphabet::protein();
        let body = vec![b'A'; 9001];
        let mut payload = PackedCodec::new(&alphabet).pack_body(&body).unwrap();
        payload[9000 * 5 / 8] |= 0x1F; // symbol 9000 starts on a byte boundary
        let bad = PackedMemoryStore::from_payload(payload, body.len() + 1, alphabet);
        assert!(matches!(bad, Err(StoreError::InvalidText(_))), "{bad:?}");
    }

    #[test]
    fn memory_store_block_cursor_scan_matches_raw() {
        let body: Vec<u8> = (0..2000).map(|i| b"ACGT"[(i * 13 + i / 7) % 4]).collect();
        let raw = InMemoryStore::from_body(&body, Alphabet::dna()).unwrap();
        let packed = PackedMemoryStore::from_body(&body, Alphabet::dna())
            .unwrap()
            .with_block_size(64)
            .unwrap();
        let mut raw_cursor = BlockCursor::new(&raw, false);
        let mut packed_cursor = BlockCursor::new(&packed, false);
        for pos in 0..raw.len() {
            assert_eq!(
                raw_cursor.slice(pos, 9).unwrap(),
                packed_cursor.slice(pos, 9).unwrap(),
                "pos {pos}"
            );
        }
    }

    #[test]
    fn disk_store_roundtrip_through_header() {
        let dir = temp_dir();
        let body = b"GATTACAGATTACAGGATCC";
        let store = PackedDiskStore::create_in_dir(&dir, "rt", body, Alphabet::dna()).unwrap();
        assert_eq!(store.len(), body.len() + 1);
        assert_eq!(store.bits_per_symbol(), 2);
        assert_eq!(store.alphabet().kind(), crate::alphabet::AlphabetKind::Dna);
        let all = store.read_all().unwrap();
        assert_eq!(&all[..body.len()], body);
        assert_eq!(all[body.len()], TERMINAL);

        // Re-open the same file explicitly and compare.
        let reopened = PackedDiskStore::open(store.path(), 1024).unwrap();
        assert_eq!(reopened.read_all().unwrap(), all);
    }

    #[test]
    fn region_store_decodes_a_bare_payload_inside_a_larger_file() {
        let dir = temp_dir();
        let body: Vec<u8> = (0..3000).map(|i| b"ACGT"[(i * 7 + i / 11) % 4]).collect();
        let payload = PackedCodec::new(&Alphabet::dna()).pack_body(&body).unwrap();
        let mut image = b"CONTAINER-HEADER".to_vec();
        image.extend_from_slice(&payload);
        image.extend_from_slice(b"segments that follow");
        let path = dir.join("region.bin");
        std::fs::write(&path, &image).unwrap();

        let len = body.len() + 1;
        let open = |offset, len| {
            let file = File::open(&path).unwrap();
            PackedDiskStore::open_region(file, offset, len, Alphabet::dna(), 64)
        };
        let store = open(16, len).unwrap();
        assert_eq!(store.len(), len);
        let mut expect = body.clone();
        expect.push(TERMINAL);
        assert_eq!(store.read_all().unwrap(), expect);
        // The payload must lie inside the file; bounds must not overflow.
        assert!(open(16, 100 * image.len()).is_err());
        assert!(open(u64::MAX, len).is_err());
        assert!(open(16, 0).is_err());
        // A file shrinking underfoot is a read error, not a short answer.
        std::fs::write(&path, &image[..16 + payload.len() / 2]).unwrap();
        assert!(store.read_all().is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn pack_store_streams_a_raw_disk_store() {
        let dir = temp_dir();
        let body: Vec<u8> = (0..5000).map(|i| b"ACGT"[(i * 31 + i / 5) % 4]).collect();
        let raw = DiskStore::create(dir.join("raw-src.era"), &body, Alphabet::dna(), 512).unwrap();
        let packed_path = dir.join("converted.erap");
        let packed =
            PackedDiskStore::pack_store(&raw, &packed_path, 512).unwrap().cleanup_on_drop(true);
        assert_eq!(packed.read_all().unwrap(), raw.read_all().unwrap());
        // Byte-identical to packing the body directly.
        let direct =
            PackedDiskStore::create(dir.join("direct.erap"), &body, Alphabet::dna(), 512).unwrap();
        assert_eq!(std::fs::read(packed.path()).unwrap(), std::fs::read(direct.path()).unwrap());
    }

    #[test]
    fn disk_reads_account_packed_spans() {
        let dir = temp_dir();
        let body: Vec<u8> = std::iter::repeat(*b"ACGT").flatten().take(4000).collect();
        let store =
            PackedDiskStore::create(dir.join("acct.erap"), &body, Alphabet::dna(), 64).unwrap();
        // 2-bit symbols: 256 symbols per 64-byte block.
        assert_eq!(store.block_size(), 256);
        let mut buf = vec![0u8; 256];
        store.read_at(0, &mut buf).unwrap();
        let snap = store.stats().snapshot();
        assert_eq!(snap.bytes_read, 64);
        assert_eq!(snap.blocks_read, 1);
        assert_eq!(snap.sequential_reads, 1);
        // A straddling read touches two packed blocks.
        let mut buf = vec![0u8; 300];
        store.read_at(400, &mut buf).unwrap();
        let snap = store.stats().snapshot();
        assert_eq!(snap.bytes_read, 64 + 75);
        assert_eq!(snap.blocks_read, 1 + 2);
        assert_eq!(snap.random_seeks, 1);
    }

    #[test]
    fn terminal_only_read_touches_no_payload() {
        let dir = temp_dir();
        let store = PackedDiskStore::create_in_dir(&dir, "term", b"ACGT", Alphabet::dna()).unwrap();
        let mut buf = [0u8; 1];
        let got = store.read_at(4, &mut buf).unwrap();
        assert_eq!(got, 1);
        assert_eq!(buf[0], TERMINAL);
        assert_eq!(store.stats().snapshot().bytes_read, 0);
    }

    #[test]
    fn five_bit_blocks_read_fall_by_the_packing_ratio() {
        // 5 bits does not divide a physical block's bit span, so a naive
        // symbols-per-block would make every block-granular read straddle two
        // physical blocks and *inflate* blocks_read. The logical block groups
        // 5 physical blocks; a full scan's blocks_read must fall ~1.6x.
        let a = Alphabet::protein();
        let body: Vec<u8> = (0..8000).map(|i| a.symbols()[(i * 7 + i / 3) % 20]).collect();
        let raw = InMemoryStore::from_body(&body, a.clone()).unwrap().with_block_size(64).unwrap();
        let packed = PackedMemoryStore::from_body(&body, a).unwrap().with_block_size(64).unwrap();
        // 64-byte blocks at 5 bits: 5 physical blocks = 512 symbols.
        assert_eq!(packed.block_size(), 512);
        let mut raw_cursor = BlockCursor::new(&raw, false);
        let mut packed_cursor = BlockCursor::new(&packed, false);
        for pos in 0..raw.len() {
            assert_eq!(raw_cursor.slice(pos, 4).unwrap(), packed_cursor.slice(pos, 4).unwrap());
        }
        let raw_snap = raw.stats().snapshot();
        let packed_snap = packed.stats().snapshot();
        assert!(
            packed_snap.bytes_read * 3 <= raw_snap.bytes_read * 2,
            "bytes: packed {} raw {}",
            packed_snap.bytes_read,
            raw_snap.bytes_read
        );
        assert!(
            packed_snap.blocks_read * 3 <= raw_snap.blocks_read * 2,
            "blocks: packed {} raw {}",
            packed_snap.blocks_read,
            raw_snap.blocks_read
        );
    }

    #[test]
    fn open_rejects_unsorted_symbol_table() {
        // An out-of-order table would silently decode every code to the
        // wrong symbol (Alphabet::custom sorts), so it must be rejected.
        let dir = temp_dir();
        let store =
            PackedDiskStore::create_in_dir(&dir, "sorted", b"GATTACA", Alphabet::dna()).unwrap();
        let mut bytes = std::fs::read(store.path()).unwrap();
        bytes.swap(HEADER_FIXED, HEADER_FIXED + 1); // "ACGT" -> "CAGT"
        let bad = dir.join("unsorted.erap");
        std::fs::write(&bad, &bytes).unwrap();
        assert!(PackedDiskStore::open(&bad, 1024).is_err());
        std::fs::remove_file(&bad).unwrap();
    }

    #[test]
    fn open_if_packed_distinguishes_corrupt_from_raw() {
        let dir = temp_dir();
        // Truncating a packed file keeps the magic+version signature, so it
        // must surface as an error — never fall through to a raw
        // interpretation of packed bytes.
        let store =
            PackedDiskStore::create_in_dir(&dir, "trunc", b"GATTACAGATTACA", Alphabet::dna())
                .unwrap();
        let bytes = std::fs::read(store.path()).unwrap();
        let cut = dir.join("cut.erap");
        std::fs::write(&cut, &bytes[..bytes.len() - 2]).unwrap();
        assert!(PackedDiskStore::open_if_packed(&cut, 1024).is_err());
        // A raw file without the signature is simply "not packed".
        let raw = dir.join("not-packed.era");
        std::fs::write(&raw, b"ACGT\0").unwrap();
        assert!(PackedDiskStore::open_if_packed(&raw, 1024).unwrap().is_none());
        // So is a file shorter than the signature.
        let tiny = dir.join("tiny.era");
        std::fs::write(&tiny, b"AC").unwrap();
        assert!(PackedDiskStore::open_if_packed(&tiny, 1024).unwrap().is_none());
        for p in [cut, raw, tiny] {
            std::fs::remove_file(p).unwrap();
        }
    }

    #[test]
    fn raw_text_starting_with_magic_is_not_misclassified() {
        // E, R, A and P are all protein symbols, so a legitimate raw protein
        // file can begin with the magic bytes. Full-header validation must
        // not mistake it for a packed file (raw text can never carry the
        // interior 0 byte of the version field).
        let dir = temp_dir();
        let path = dir.join("erap-protein.era");
        let mut text = b"ERAPKLMNERAPKLMNERAPKLMN".to_vec();
        text.push(TERMINAL);
        std::fs::write(&path, &text).unwrap();
        assert!(PackedDiskStore::open_if_packed(&path, 1024).unwrap().is_none());
        assert!(PackedDiskStore::open(&path, 1024).is_err());
        // The raw store opens it fine.
        assert!(DiskStore::open(&path, Alphabet::protein(), 1024).is_ok());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn failed_create_preserves_existing_destination() {
        // create writes to a temp sibling and renames on success, so a failed
        // create must leave a pre-existing file at the destination intact.
        let dir = temp_dir();
        let path = dir.join("precious.erap");
        {
            let _keep = PackedDiskStore::create(&path, b"ACGT", Alphabet::dna(), 1024)
                .unwrap()
                .cleanup_on_drop(false);
        }
        assert!(PackedDiskStore::create(&path, b"AXGT", Alphabet::dna(), 1024).is_err());
        let reopened = PackedDiskStore::open(&path, 1024).unwrap();
        assert_eq!(reopened.read_all().unwrap(), b"ACGT\0");
        // No temp siblings of *this* file left behind either (the directory
        // is shared with the module's other tests, which may be mid-create).
        let leftovers: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|n| n.starts_with("precious.erap.tmp."))
            .collect();
        assert!(leftovers.is_empty(), "temp files must be cleaned up: {leftovers:?}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn failed_pack_store_leaves_no_file_behind() {
        // DiskStore::open only validates the trailing terminal, so a foreign
        // symbol surfaces mid-conversion; the partial output must be removed.
        let dir = temp_dir();
        let src = dir.join("bad-src.era");
        std::fs::write(&src, b"AXGTACGT\0").unwrap();
        let raw = DiskStore::open(&src, Alphabet::dna(), 64).unwrap();
        let out = dir.join("bad-out.erap");
        assert!(PackedDiskStore::pack_store(&raw, &out, 64).is_err());
        assert!(!out.exists(), "failed conversion must not litter a truncated file");
        std::fs::remove_file(&src).unwrap();
    }

    #[test]
    fn concurrent_readers_decode_in_parallel() {
        // Reads by position share no file cursor: four threads on one file,
        // two decoding and two taking codes, each get exactly their bytes,
        // and the store charges exactly the read_cost of every read — on
        // both encodings.
        let dir = temp_dir();
        let body: Vec<u8> = (0..20_000).map(|i| b"ACGT"[(i * 17 + i / 9) % 4]).collect();
        let packed =
            PackedDiskStore::create_in_dir(&dir, "concurrent", &body, Alphabet::dna()).unwrap();
        let raw = DiskStore::create_in_dir(&dir, "concurrent-raw", &body, Alphabet::dna()).unwrap();
        let mut expect = body.clone();
        expect.push(TERMINAL);
        let payload = PackedCodec::new(&Alphabet::dna()).pack_body(&body).unwrap();
        for (store, codes) in [(&packed as &dyn StringStore, &payload), (&raw, &expect)] {
            let bits = store.code_bits() as usize;
            let start = std::sync::Barrier::new(4);
            let charged = std::thread::scope(|scope| {
                let readers: Vec<_> = (0..4usize)
                    .map(|t| {
                        let (expect, start) = (&expect, &start);
                        scope.spawn(move || {
                            start.wait();
                            let (mut bytes, mut blocks) = (0, 0);
                            let mut buf = vec![0u8; 997];
                            let mut pos = t * 13;
                            while pos < store.len() {
                                let got = if t % 2 == 0 {
                                    let got = store.read_at(pos, &mut buf).unwrap();
                                    assert_eq!(&buf[..got], &expect[pos..pos + got], "pos {pos}");
                                    got
                                } else {
                                    store.read_codes_at(pos, buf.len(), &mut buf).unwrap()
                                };
                                let cost = store.read_cost(pos, got);
                                if t % 2 == 1 {
                                    let (lo, n) = (pos * bits / 8, cost.0 as usize);
                                    assert_eq!(&buf[..n], &codes[lo..lo + n], "codes at {pos}");
                                }
                                (bytes, blocks) = (bytes + cost.0, blocks + cost.1);
                                pos += 1777;
                            }
                            (bytes, blocks)
                        })
                    })
                    .collect();
                readers
                    .into_iter()
                    .map(|r| r.join().unwrap())
                    .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1))
            });
            let snap = store.stats().snapshot();
            assert_eq!(
                (snap.bytes_read, snap.blocks_read),
                charged,
                "packed: {}",
                store.is_packed()
            );
        }
    }

    #[test]
    fn open_rejects_corrupt_headers() {
        let dir = temp_dir();
        let bad = dir.join("bad.erap");
        std::fs::write(&bad, b"NOPE").unwrap();
        assert!(PackedDiskStore::open(&bad, 1024).is_err());
        std::fs::write(&bad, b"ERAPxxxxxxxxxxxxxxxx").unwrap();
        assert!(PackedDiskStore::open(&bad, 1024).is_err());
        assert!(PackedDiskStore::open(dir.join("missing.erap"), 1024).is_err());
        std::fs::remove_file(&bad).unwrap();
    }

    #[test]
    fn create_rejects_invalid_body_and_zero_block() {
        let dir = temp_dir();
        assert!(PackedDiskStore::create_in_dir(&dir, "inv", b"GATTAXA", Alphabet::dna()).is_err());
        let store = PackedDiskStore::create_in_dir(&dir, "zb", b"ACGT", Alphabet::dna()).unwrap();
        assert!(PackedDiskStore::open(store.path(), 0).is_err());
    }

    #[test]
    fn drop_removes_owned_file() {
        let dir = temp_dir();
        let path;
        {
            let store =
                PackedDiskStore::create_in_dir(&dir, "own", b"ACGT", Alphabet::dna()).unwrap();
            path = store.path().to_path_buf();
            assert!(path.exists());
        }
        assert!(!path.exists());
    }

    #[test]
    fn custom_alphabet_roundtrip_at_bit_boundaries() {
        let dir = temp_dir();
        for n in [15usize, 16, 31, 32] {
            let symbols: Vec<u8> = (0..n as u8).map(|i| i + 33).collect();
            let alphabet = Alphabet::custom(&symbols).unwrap();
            let body: Vec<u8> = (0..777).map(|i| symbols[(i * 11 + 3) % n]).collect();
            let store =
                PackedDiskStore::create_in_dir(&dir, &format!("c{n}"), &body, alphabet.clone())
                    .unwrap();
            assert_eq!(store.bits_per_symbol(), alphabet.bits_per_symbol());
            let mut expect = body.clone();
            expect.push(TERMINAL);
            assert_eq!(store.read_all().unwrap(), expect, "alphabet size {n}");
        }
    }
}
