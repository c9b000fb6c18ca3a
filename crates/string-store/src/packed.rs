//! Packed symbol encodings.
//!
//! §6.1 of the paper encodes DNA with 2 bits per symbol and protein / English
//! with 5 bits per symbol, which determines how much of the string fits in a
//! given memory budget and how many bytes every sequential scan has to fetch.
//! [`PackedCodec`] reproduces that encoding exactly: the terminal symbol is
//! kept *out-of-band* (its position is implied by the text length, so it
//! occupies no payload bits) and the `i`-th alphabet symbol gets the dense
//! code `i`, preserving lexicographic order. DNA therefore really is 2
//! bits/symbol, as the paper states.
//!
//! The pack and unpack loops are word-level: encoding accumulates codes into a
//! 64-bit register and flushes 32 bits at a time, decoding extracts as many
//! codes as fit from one unaligned 64-bit load. The unpack path sits on every
//! block fetch of the packed stores ([`crate::PackedMemoryStore`],
//! [`crate::PackedDiskStore`]) and therefore on every construction scan.

use crate::alphabet::{Alphabet, TERMINAL};
use crate::error::{StoreError, StoreResult};

/// Number of bytes needed to store `len` symbols at `bits` bits per symbol.
///
/// Computed in 128-bit arithmetic so hostile header values (a corrupt
/// on-disk length) cannot overflow — callers validating untrusted input rely
/// on this never panicking.
pub fn packed_size(len: usize, bits: u32) -> usize {
    ((len as u128 * bits as u128).div_ceil(8)) as usize
}

/// The symbol ⇄ code mapping of one alphabet, with word-level pack/unpack.
///
/// Codes are dense and order-preserving: the `i`-th alphabet symbol (sorted
/// ascending) gets code `i`. The terminal symbol has *no* code — packed texts
/// store only the body and keep the terminal position out-of-band, which is
/// what makes DNA a true 2 bits/symbol.
#[derive(Debug, Clone)]
pub struct PackedCodec {
    bits: u32,
    /// symbol byte -> code; `u8::MAX` marks bytes outside the alphabet.
    encode: [u8; 256],
    /// code -> symbol byte, padded to `1 << bits` entries so decoding never
    /// indexes out of bounds even on corrupt payloads (padding decodes to the
    /// terminal byte, which downstream validation rejects).
    decode: Vec<u8>,
}

impl PackedCodec {
    /// Builds the codec for `alphabet`.
    pub fn new(alphabet: &Alphabet) -> Self {
        let bits = alphabet.bits_per_symbol();
        let mut encode = [u8::MAX; 256];
        let mut decode = vec![TERMINAL; 1usize << bits];
        for (i, &s) in alphabet.symbols().iter().enumerate() {
            encode[s as usize] = i as u8;
            decode[i] = s;
        }
        PackedCodec { bits, encode, decode }
    }

    /// Bits per symbol of this codec.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Packs a whole body (no terminal) into a fresh buffer.
    pub fn pack_body(&self, body: &[u8]) -> StoreResult<Vec<u8>> {
        let mut out = Vec::with_capacity(packed_size(body.len(), self.bits));
        let mut state = PackState::default();
        self.pack_chunk(body, &mut state, &mut out)?;
        self.pack_finish(&mut state, &mut out);
        Ok(out)
    }

    /// Packs one chunk of symbols, appending complete bytes to `out`.
    ///
    /// Streaming entry point: call repeatedly with consecutive chunks, then
    /// [`Self::pack_finish`] once to flush the trailing partial byte.
    pub fn pack_chunk(
        &self,
        symbols: &[u8],
        state: &mut PackState,
        out: &mut Vec<u8>,
    ) -> StoreResult<()> {
        let bits = self.bits;
        for &b in symbols {
            let code = self.encode[b as usize];
            if code == u8::MAX {
                return Err(StoreError::InvalidText(format!("symbol {b:#04x} not in alphabet")));
            }
            state.acc |= (code as u64) << state.acc_bits;
            state.acc_bits += bits;
            // `bits <= 8`, so the accumulator holds at most 39 pending bits
            // right after the push; flushing a 32-bit word keeps it < 32.
            if state.acc_bits >= 32 {
                out.extend_from_slice(&(state.acc as u32).to_le_bytes());
                state.acc >>= 32;
                state.acc_bits -= 32;
            }
        }
        Ok(())
    }

    /// Flushes the pending partial word of a streaming pack.
    pub fn pack_finish(&self, state: &mut PackState, out: &mut Vec<u8>) {
        while state.acc_bits > 0 {
            out.push(state.acc as u8);
            state.acc >>= 8;
            state.acc_bits = state.acc_bits.saturating_sub(8);
        }
    }

    /// Decodes `count` symbols from `data`, starting `first_bit` bits into it
    /// (`first_bit < 8`), into `out[..count]`.
    ///
    /// This is the hot path of the packed stores: it runs once per block
    /// fetch, so it decodes via unaligned 64-bit loads — one load yields up to
    /// `64 / bits` symbols — with a byte-assembled tail for the final word.
    // era-check: allow(panic-path): caller sizes data and out for count symbols at first_bit
    pub fn unpack(&self, data: &[u8], first_bit: u32, count: usize, out: &mut [u8]) {
        debug_assert!(first_bit < 8);
        debug_assert!(out.len() >= count);
        let bits = self.bits as u64;
        let mask = (1u64 << bits) - 1;
        let mut produced = 0usize;
        // Fast path: whole 64-bit loads while 8 bytes remain.
        while produced < count {
            let bit = first_bit as u64 + produced as u64 * bits;
            let byte = (bit >> 3) as usize;
            if byte + 8 > data.len() {
                break;
            }
            // era-check: allow(unwrap): slice length is exactly 8
            let word = u64::from_le_bytes(data[byte..byte + 8].try_into().expect("8 bytes"));
            let mut w = word >> (bit & 7);
            let mut avail = 64 - (bit & 7);
            while avail >= bits && produced < count {
                out[produced] = self.decode[(w & mask) as usize];
                w >>= bits;
                avail -= bits;
                produced += 1;
            }
        }
        // Tail: assemble the last (partial) word byte by byte.
        while produced < count {
            let bit = first_bit as u64 + produced as u64 * bits;
            let byte = (bit >> 3) as usize;
            let mut word = 0u64;
            for (k, &b) in data[byte..].iter().take(8).enumerate() {
                word |= (b as u64) << (8 * k);
            }
            out[produced] = self.decode[((word >> (bit & 7)) & mask) as usize];
            produced += 1;
        }
    }
}

/// Accumulator state of a streaming pack (see [`PackedCodec::pack_chunk`]).
#[derive(Debug, Default, Clone, Copy)]
pub struct PackState {
    acc: u64,
    acc_bits: u32,
}

/// A bit-packed copy of a terminated input string.
///
/// Only the body is stored — the terminal is out-of-band: its position is
/// `len - 1` and it never appears in the payload, so a DNA text packs at the
/// paper's 2 bits/symbol.
#[derive(Debug, Clone)]
pub struct PackedText {
    codec: PackedCodec,
    len: usize,
    data: Vec<u8>,
}

impl PackedText {
    /// Packs `text` (which must be valid for `alphabet`, i.e. terminated).
    pub fn pack(text: &[u8], alphabet: &Alphabet) -> StoreResult<Self> {
        alphabet.validate(text)?;
        let codec = PackedCodec::new(alphabet);
        let data = codec.pack_body(&text[..text.len() - 1])?;
        Ok(PackedText { codec, len: text.len(), data })
    }

    /// Adopts the already-packed `data` of a `len`-symbol text (out-of-band
    /// terminal included) instead of re-encoding it. The size must be exact
    /// and every code must name a symbol: an alphabet that does not fill its
    /// bit width (protein uses 20 of 32 codes) leaves codes that
    /// [`PackedCodec::pack_body`] never emits and that decode to a terminal
    /// in mid-text.
    pub(crate) fn from_payload(
        data: Vec<u8>,
        len: usize,
        alphabet: &Alphabet,
    ) -> StoreResult<Self> {
        let packed = PackedText { codec: PackedCodec::new(alphabet), len, data };
        let (bits, body) = (packed.codec.bits, len.saturating_sub(1));
        if len == 0 || packed.data.len() != packed_size(body, bits) {
            return Err(StoreError::InvalidText(format!(
                "{} packed bytes do not hold a {len}-symbol text at {bits} bits per symbol",
                packed.data.len()
            )));
        }
        if alphabet.len() < 1 << bits {
            let mut symbols = [0u8; 4096];
            for start in (0..body).step_by(symbols.len()) {
                let count = symbols.len().min(body - start);
                packed.unpack_range(start, count, &mut symbols);
                if symbols[..count].contains(&TERMINAL) {
                    return Err(StoreError::InvalidText(
                        "packed payload holds a code outside the alphabet".into(),
                    ));
                }
            }
        }
        Ok(packed)
    }

    /// Number of symbols stored, *including* the out-of-band terminal.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the packed text is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bits used per symbol.
    pub fn bits_per_symbol(&self) -> u32 {
        self.codec.bits()
    }

    /// The codec mapping symbols to codes.
    pub fn codec(&self) -> &PackedCodec {
        &self.codec
    }

    /// Size of the packed payload in bytes (the terminal occupies none).
    pub fn payload_bytes(&self) -> usize {
        self.data.len()
    }

    /// The raw packed payload.
    pub fn payload(&self) -> &[u8] {
        &self.data
    }

    /// Returns the symbol at position `i`.
    // era-check: allow(panic-path): guarded by the i >= len early return
    pub fn get(&self, i: usize) -> Option<u8> {
        if i >= self.len {
            return None;
        }
        if i == self.len - 1 {
            return Some(TERMINAL);
        }
        let mut out = [0u8; 1];
        let bit = i as u64 * self.codec.bits() as u64;
        self.codec.unpack(&self.data[(bit / 8) as usize..], (bit % 8) as u32, 1, &mut out);
        Some(out[0])
    }

    /// Decodes `count` symbols starting at `start` into `out[..count]`,
    /// including the out-of-band terminal when the range covers it. The range
    /// must lie within the text.
    // era-check: allow(panic-path): caller bounds start + count to len
    pub fn unpack_range(&self, start: usize, count: usize, out: &mut [u8]) {
        debug_assert!(start + count <= self.len);
        let body_len = self.len - 1;
        let body_count = (start + count).min(body_len).saturating_sub(start);
        if body_count > 0 {
            let bit = start as u64 * self.codec.bits() as u64;
            self.codec.unpack(&self.data[(bit / 8) as usize..], (bit % 8) as u32, body_count, out);
        }
        if count > body_count {
            out[count - 1] = TERMINAL;
        }
    }

    /// Unpacks the whole text (body + terminal).
    // era-check: allow(hot-alloc): whole-text convenience, never on the serving path; name-collides with the zero-alloc PackedCodec::unpack
    pub fn unpack(&self) -> Vec<u8> {
        let mut out = vec![0u8; self.len];
        self.unpack_range(0, self.len, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packed_size_matches_paper_ratios() {
        // DNA: 4 symbols at 2 bits (the terminal is out-of-band); protein and
        // English at 5 bits — exactly the figures of §6.1.
        assert_eq!(packed_size(8, Alphabet::dna().bits_per_symbol()), 2);
        assert_eq!(packed_size(8, Alphabet::protein().bits_per_symbol()), 5);
        assert_eq!(packed_size(8, Alphabet::english().bits_per_symbol()), 5);
        assert_eq!(packed_size(0, 5), 0);
    }

    #[test]
    fn dna_text_packs_at_one_quarter() {
        let a = Alphabet::dna();
        let body: Vec<u8> = std::iter::repeat(*b"GATC").flatten().take(4000).collect();
        let text = a.terminate(&body).unwrap();
        let p = PackedText::pack(&text, &a).unwrap();
        assert_eq!(p.payload_bytes(), 1000, "2-bit DNA is 4x denser than raw bytes");
        assert_eq!(p.unpack(), text);
    }

    #[test]
    fn roundtrip_dna() {
        let a = Alphabet::dna();
        let text = a.terminate(b"GATTACAGATTACA").unwrap();
        let p = PackedText::pack(&text, &a).unwrap();
        assert_eq!(p.unpack(), text);
        assert_eq!(p.len(), text.len());
        assert!(p.payload_bytes() < text.len());
        assert_eq!(p.bits_per_symbol(), 2);
    }

    #[test]
    fn roundtrip_protein() {
        let a = Alphabet::protein();
        let text = a.terminate(b"ACDEFGHIKLMNPQRSTVWY").unwrap();
        let p = PackedText::pack(&text, &a).unwrap();
        assert_eq!(p.unpack(), text);
        assert_eq!(p.bits_per_symbol(), 5);
    }

    #[test]
    fn roundtrip_all_bit_widths() {
        // 1..=8 bits per symbol, including the 15/16/31/32 boundary sizes.
        for n in [1usize, 2, 3, 4, 15, 16, 17, 31, 32, 33, 64, 200] {
            let symbols: Vec<u8> = (1..=n as u8).map(|i| i.wrapping_add(32)).collect();
            let a = Alphabet::custom(&symbols).unwrap();
            let body: Vec<u8> = (0..997).map(|i| a.symbols()[i % n]).collect();
            let text = a.terminate(&body).unwrap();
            let p = PackedText::pack(&text, &a).unwrap();
            assert_eq!(p.unpack(), text, "alphabet size {n}");
            assert_eq!(p.payload_bytes(), packed_size(body.len(), a.bits_per_symbol()));
            for i in [0usize, 1, n.min(996), 500, 996, 997] {
                assert_eq!(p.get(i), Some(text[i]), "alphabet size {n} position {i}");
            }
        }
    }

    #[test]
    fn streaming_pack_matches_whole_body_pack() {
        let a = Alphabet::protein();
        let body: Vec<u8> = (0..613).map(|i| a.symbols()[i % a.len()]).collect();
        let codec = PackedCodec::new(&a);
        let whole = codec.pack_body(&body).unwrap();
        for chunk in [1usize, 3, 7, 64, 100] {
            let mut out = Vec::new();
            let mut state = PackState::default();
            for c in body.chunks(chunk) {
                codec.pack_chunk(c, &mut state, &mut out).unwrap();
            }
            codec.pack_finish(&mut state, &mut out);
            assert_eq!(out, whole, "chunk size {chunk}");
        }
    }

    #[test]
    fn unpack_from_arbitrary_offsets() {
        let a = Alphabet::dna();
        let body: Vec<u8> = (0..301).map(|i| a.symbols()[(i * 7 + i / 3) % 4]).collect();
        let text = a.terminate(&body).unwrap();
        let p = PackedText::pack(&text, &a).unwrap();
        for start in [0usize, 1, 2, 3, 4, 5, 97, 150, 299, 300, 301] {
            for count in [0usize, 1, 2, 5, 33] {
                let count = count.min(text.len() - start);
                let mut out = vec![0u8; count];
                p.unpack_range(start, count, &mut out);
                assert_eq!(out, &text[start..start + count], "start {start} count {count}");
            }
        }
    }

    #[test]
    fn get_out_of_range_is_none() {
        let a = Alphabet::dna();
        let text = a.terminate(b"ACGT").unwrap();
        let p = PackedText::pack(&text, &a).unwrap();
        assert_eq!(p.get(4), Some(0));
        assert_eq!(p.get(5), None);
        assert!(!p.is_empty());
    }

    #[test]
    fn pack_rejects_foreign_symbols() {
        let a = Alphabet::dna();
        assert!(PackedText::pack(b"AXGT\0", &a).is_err());
    }

    #[test]
    fn order_preserving_codes() {
        let a = Alphabet::dna();
        let text = a.terminate(b"ACGT").unwrap();
        let p = PackedText::pack(&text, &a).unwrap();
        // A < C < G < T in both packed and unpacked form, terminal out-of-band.
        let codes: Vec<u8> = (0..5).map(|i| p.get(i).unwrap()).collect();
        assert_eq!(codes, vec![b'A', b'C', b'G', b'T', 0]);
    }
}
