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
//! The pack loop is word-level: it accumulates codes into a 64-bit register
//! and flushes 32 bits at a time. Decoding is table-driven for the two widths
//! the paper uses: at 2 bits a payload byte *is* four symbols, at 5 bits ten
//! payload bits are two, so [`PackedCodec::unpack`] looks several symbols up
//! at a time ([`SymbolTable`]) and keeps the one-code-at-a-time loop for the
//! ragged ends of a range and for every other width. The unpack path sits on
//! every decoded read of [`crate::PackedStore`] — the construction scans
//! that need symbols, and the text leaving the index whole — and on
//! [`crate::PackedStore::from_payload`]'s validation when a catalog is
//! opened. Serving decodes nothing, whether the payload is in memory or in a
//! file: a [`crate::ResidentText`] turns each pattern byte into its code
//! ([`PackedCodec`]'s encode table) and compares codes where they lie.

#![deny(
    clippy::indexing_slicing,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

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
    /// Several codes -> their symbols, for the widths that have a kernel.
    table: SymbolTable,
}

/// `decode` applied to every run of `k` adjacent codes, so that the widths of
/// §6.1 decode `k` symbols per lookup (at most 2 KiB per codec). It is built
/// from the *padded* `decode` array: a spare code of an alphabet that does not
/// fill its width is [`TERMINAL`] through the table exactly as it is through
/// `decode`. The payload is untrusted, but an index into either table is
/// bounded by construction — a `u8` into 256 entries, ten masked bits into
/// 1,024.
#[derive(Debug, Clone)]
enum SymbolTable {
    /// 2 bits: one payload byte -> its 4 symbols.
    Quads(Box<[[u8; 4]; 256]>),
    /// 5 bits: 10 payload bits -> their 2 symbols.
    Pairs(Box<[[u8; 2]; 1024]>),
    /// Any other width decodes one code at a time.
    None,
}

impl SymbolTable {
    #[expect(
        clippy::indexing_slicing,
        reason = "masked below decode.len(), a power of two; runs once per codec, off the query path"
    )]
    fn new(bits: u32, decode: &[u8]) -> Self {
        let symbol = |index: usize, k: u32| decode[(index >> (k * bits)) & (decode.len() - 1)];
        match bits {
            2 => SymbolTable::Quads(Box::new(std::array::from_fn(|i| {
                std::array::from_fn(|k| symbol(i, k as u32))
            }))),
            5 => SymbolTable::Pairs(Box::new(std::array::from_fn(|i| {
                std::array::from_fn(|k| symbol(i, k as u32))
            }))),
            _ => SymbolTable::None,
        }
    }
}

impl PackedCodec {
    /// Builds the codec for `alphabet`.
    #[expect(
        clippy::indexing_slicing,
        reason = "encode has one entry per byte value, decode 2^bits >= alphabet.len(); off the query path"
    )]
    pub fn new(alphabet: &Alphabet) -> Self {
        let bits = alphabet.bits_per_symbol();
        let mut encode = [u8::MAX; 256];
        let mut decode = vec![TERMINAL; 1usize << bits];
        for (i, &s) in alphabet.symbols().iter().enumerate() {
            encode[s as usize] = i as u8;
            decode[i] = s;
        }
        let table = SymbolTable::new(bits, &decode);
        PackedCodec { bits, encode, decode, table }
    }

    /// Bits per symbol of this codec.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// The code of `symbol`; `None` for a byte outside the alphabet, the
    /// terminal included.
    pub(crate) fn code(&self, symbol: u8) -> Option<u8> {
        let code = self.encode.get(usize::from(symbol)).copied().unwrap_or(u8::MAX);
        (code != u8::MAX).then_some(code)
    }

    /// The symbol of `code`: [`TERMINAL`] for a spare code of an alphabet
    /// that does not fill its width, as in [`Self::unpack`].
    pub(crate) fn symbol(&self, code: u8) -> u8 {
        self.decode.get(usize::from(code)).copied().unwrap_or(TERMINAL)
    }

    /// The low `bits` bits of a word: one code.
    pub(crate) fn mask(&self) -> u16 {
        (1 << self.bits) - 1
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
    #[expect(
        clippy::indexing_slicing,
        reason = "encode has one entry per byte value; packing is off the query path"
    )]
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
    /// fetch. The two widths of §6.1 go through the [`SymbolTable`]:
    ///
    /// * 2 bits — after the at most 3 symbols up to the next byte boundary,
    ///   every payload byte is one lookup and one 4-byte store;
    /// * 5 bits — one unaligned 64-bit load shifted by `first_bit` holds 8
    ///   symbols = 4 lookups, and the next group starts exactly 5 bytes on,
    ///   so `first_bit` never changes.
    ///
    /// Whatever the kernel leaves — the head before the byte boundary, the
    /// last `count % 4` symbols, a 5-bit range with fewer than 8 symbols or
    /// 8 payload bytes left — and every other width is decoded one code at a
    /// time by [`Self::unpack_symbols`]. Both go through tables built from the
    /// padded `decode` array, so a code outside the alphabet comes out as
    /// [`TERMINAL`] on either path.
    #[expect(
        clippy::indexing_slicing,
        clippy::disallowed_methods,
        reason = "caller sizes data and out for count symbols at first_bit; payload words are bit patterns, not lengths"
    )]
    pub fn unpack(&self, data: &[u8], first_bit: u32, count: usize, out: &mut [u8]) {
        debug_assert!(first_bit < 8);
        let out = &mut out[..count];
        match &self.table {
            SymbolTable::Quads(table) => {
                let head = ((8 - first_bit as usize) / 2 % 4).min(count);
                self.unpack_symbols(data, first_bit, &mut out[..head]);
                let whole = &data[usize::from(head > 0)..];
                let (quads, tail) = out[head..].as_chunks_mut::<4>();
                for (quad, &byte) in quads.iter_mut().zip(whole) {
                    *quad = table[byte as usize];
                }
                self.unpack_symbols(&whole[quads.len()..], 0, tail);
            }
            SymbolTable::Pairs(table) => {
                let mut rest = data;
                let (groups, _) = out.as_chunks_mut::<8>();
                let mut done = 0;
                for group in groups {
                    let Some(word) = rest.first_chunk::<8>() else { break };
                    let word = u64::from_le_bytes(*word) >> first_bit;
                    let (pairs, _) = group.as_chunks_mut::<2>();
                    for (k, pair) in pairs.iter_mut().enumerate() {
                        *pair = table[(word >> (10 * k)) as usize & 0x3ff];
                    }
                    rest = &rest[5..];
                    done += 8;
                }
                self.unpack_symbols(rest, first_bit, &mut out[done..]);
            }
            SymbolTable::None => self.unpack_symbols(data, first_bit, out),
        }
        // Every symbol again, one code at a time.
        #[cfg(feature = "paranoid")]
        for (n, chunk) in out.chunks(64).enumerate() {
            let bit = first_bit as usize + 64 * n * self.bits as usize;
            let mut reference = [0u8; 64];
            let expected = &mut reference[..chunk.len()];
            self.unpack_symbols(&data[bit / 8..], (bit % 8) as u32, expected);
            assert_eq!(chunk, expected, "table decode differs from the per-symbol decode");
        }
    }

    /// The one-code-at-a-time decoder: fills `out` with the symbols that
    /// start `first_bit` bits into `data`. One unaligned 64-bit load yields up
    /// to `64 / bits` codes; the final, partial word is assembled byte by
    /// byte. It serves every width, which makes it the reference the table
    /// kernels of [`Self::unpack`] are tested against.
    #[expect(clippy::disallowed_methods, reason = "payload words are bit patterns, not lengths")]
    fn unpack_symbols(&self, data: &[u8], first_bit: u32, out: &mut [u8]) {
        let bits = self.bits as usize;
        let end = first_bit as usize + out.len() * bits;
        assert!(out.is_empty() || end <= 8 * data.len(), "payload too short");
        let mask = (1u64 << bits) - 1;
        let mut bit = first_bit as usize;
        let mut out = out.iter_mut();
        while out.len() > 0 {
            // In range by the assert above, like every load of this loop.
            let from = data.get(bit / 8..).unwrap_or_default();
            let word = match from.first_chunk::<8>() {
                Some(word) => u64::from_le_bytes(*word),
                None => from.iter().rev().fold(0, |word, &b| word << 8 | b as u64),
            };
            let mut word = word >> (bit % 8);
            for symbol in out.by_ref().take((64 - bit % 8) / bits) {
                // `decode` is padded to `1 << bits` entries: always `Some`.
                *symbol = self.decode.get((word & mask) as usize).copied().unwrap_or(TERMINAL);
                word >>= bits;
                bit += bits;
            }
        }
    }
}

/// Accumulator state of a streaming pack (see [`PackedCodec::pack_chunk`]).
#[derive(Debug, Default, Clone, Copy)]
pub struct PackState {
    acc: u64,
    acc_bits: u32,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packed_store::PackedMemoryStore;
    use crate::store::StringStore;

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
        let p = PackedMemoryStore::new(&text, a).unwrap();
        assert_eq!(p.payload_bytes(), 1000, "2-bit DNA is 4x denser than raw bytes");
        assert_eq!(p.read_all().unwrap(), text);
    }

    #[test]
    fn roundtrip_dna() {
        let a = Alphabet::dna();
        let text = a.terminate(b"GATTACAGATTACA").unwrap();
        let p = PackedMemoryStore::new(&text, a).unwrap();
        assert_eq!(p.read_all().unwrap(), text);
        assert_eq!(p.len(), text.len());
        assert!(p.payload_bytes() < text.len());
        assert_eq!(p.bits_per_symbol(), 2);
    }

    #[test]
    fn roundtrip_protein() {
        let a = Alphabet::protein();
        let text = a.terminate(b"ACDEFGHIKLMNPQRSTVWY").unwrap();
        let p = PackedMemoryStore::new(&text, a).unwrap();
        assert_eq!(p.read_all().unwrap(), text);
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
            let p = PackedMemoryStore::new(&text, a.clone()).unwrap();
            assert_eq!(p.read_all().unwrap(), text, "alphabet size {n}");
            assert_eq!(p.payload_bytes(), packed_size(body.len(), a.bits_per_symbol()));
            for i in [0usize, 1, n.min(996), 500, 996, 997] {
                assert_eq!(
                    p.read_range(i, 1).unwrap(),
                    [text[i]],
                    "alphabet size {n} position {i}"
                );
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
        let p = PackedMemoryStore::new(&text, a).unwrap();
        for start in [0usize, 1, 2, 3, 4, 5, 97, 150, 299, 300, 301] {
            for count in [0usize, 1, 2, 5, 33] {
                let count = count.min(text.len() - start);
                let out = p.read_range(start, count).unwrap();
                assert_eq!(out, &text[start..start + count], "start {start} count {count}");
            }
        }
    }

    /// Deterministic payload bytes: every code, spare ones included.
    fn noise(len: usize, seed: u64) -> Vec<u8> {
        let mut x = seed;
        let mut next = || {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (x >> 33) as u8
        };
        (0..len).map(|_| next()).collect()
    }

    #[test]
    fn table_kernels_match_the_per_symbol_decode() {
        // Widths 1..=8; 4 symbols take the byte table, 20 and 32 the 10-bit
        // one, the rest only the per-symbol loop (which must survive the
        // refactoring too: `unpack` of those widths is compared against it
        // with the payload cut at every slack).
        for n in [2usize, 4, 5, 16, 20, 32, 33, 100, 200] {
            let symbols: Vec<u8> = (0..n).map(|i| i as u8 + 33).collect();
            let codec = PackedCodec::new(&Alphabet::custom(&symbols).unwrap());
            let bits = codec.bits() as usize;
            let payload = noise(bits * 11 + 9, n as u64);
            let boundaries: std::collections::BTreeSet<usize> =
                (0..8).map(|i| i * bits % 8).collect();
            for &first_bit in &boundaries {
                for count in 0..=80usize {
                    let need = (first_bit + count * bits).div_ceil(8);
                    let mut expected = vec![0xAAu8; count];
                    codec.unpack_symbols(&payload[..need], first_bit as u32, &mut expected);
                    for slack in 0..=8 {
                        // One byte past `count` proves nothing beyond it is written.
                        let mut out = vec![0x55u8; count + 1];
                        codec.unpack(&payload[..need + slack], first_bit as u32, count, &mut out);
                        assert_eq!(
                            out[..count],
                            expected[..],
                            "{n} symbols, first_bit {first_bit}, count {count}, slack {slack}"
                        );
                        assert_eq!(out[count], 0x55);
                    }
                }
            }
        }
    }

    #[test]
    fn per_symbol_decode_matches_get() {
        // The reference itself, against the definition of the encoding.
        for a in [Alphabet::dna(), Alphabet::protein(), Alphabet::english()] {
            let body: Vec<u8> =
                noise(203, 7).iter().map(|&b| a.symbols()[b as usize % a.len()]).collect();
            let codec = PackedCodec::new(&a);
            let payload = codec.pack_body(&body).unwrap();
            for start in [0usize, 1, 2, 3, 5, 8, 13, 100, 202] {
                let bit = start * codec.bits() as usize;
                let mut out = vec![0u8; body.len() - start];
                codec.unpack_symbols(&payload[bit / 8..], (bit % 8) as u32, &mut out);
                assert_eq!(out, body[start..], "start {start}");
            }
        }
    }

    #[test]
    fn spare_codes_decode_to_the_terminal_on_every_path() {
        // Protein uses 20 of the 32 five-bit codes. Each of the other 12, at
        // every position (every lane of the pair table in the kernel's five
        // groups, then the per-symbol tail), must come out as the terminal —
        // which is what `from_payload` rejects.
        let a = Alphabet::protein();
        let codec = PackedCodec::new(&a);
        let body: Vec<u8> = (0..47).map(|i| a.symbols()[i * 7 % a.len()]).collect();
        let clean = codec.pack_body(&body).unwrap();
        assert!(PackedMemoryStore::from_payload(clean.clone(), body.len() + 1, a.clone()).is_ok());
        for spare in a.len() as u8..32 {
            for at in 0..body.len() {
                let mut payload = clean.clone();
                for k in 0..5 {
                    let bit = at * 5 + k;
                    payload[bit / 8] &= !(1 << (bit % 8));
                    payload[bit / 8] |= (spare >> k & 1) << (bit % 8);
                }
                let mut out = vec![0xAAu8; body.len()];
                codec.unpack(&payload, 0, body.len(), &mut out);
                let mut expected = body.clone();
                expected[at] = TERMINAL;
                assert_eq!(out, expected, "spare code {spare} at {at}");
                assert!(
                    PackedMemoryStore::from_payload(payload, body.len() + 1, a.clone()).is_err(),
                    "spare code {spare} at {at} must be rejected"
                );
            }
        }
    }

    #[test]
    fn get_out_of_range_is_none() {
        let a = Alphabet::dna();
        let text = a.terminate(b"ACGT").unwrap();
        let p = PackedMemoryStore::new(&text, a).unwrap();
        assert_eq!(p.read_range(4, 1).unwrap(), [0]);
        assert!(p.read_range(5, 1).unwrap().is_empty());
        assert!(p.read_range(6, 1).is_err());
        assert!(!p.is_empty());
    }

    #[test]
    fn pack_rejects_foreign_symbols() {
        let a = Alphabet::dna();
        assert!(PackedMemoryStore::new(b"AXGT\0", a).is_err());
    }

    #[test]
    fn order_preserving_codes() {
        let a = Alphabet::dna();
        let text = a.terminate(b"ACGT").unwrap();
        let p = PackedMemoryStore::new(&text, a).unwrap();
        // A < C < G < T in both packed and unpacked form, terminal out-of-band.
        let codes: Vec<u8> = p.read_all().unwrap();
        assert_eq!(codes, vec![b'A', b'C', b'G', b'T', 0]);
    }
}
