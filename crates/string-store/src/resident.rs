//! A text, or a span of one, matched where it lies in memory.
//!
//! A store whose bytes are in memory — the raw text, or the §6.1 packed
//! payload — hands them out through [`StringStore::resident`] as a
//! [`ResidentText`], and query serving matches against that directly. A text
//! left in a file is matched by the same code, one span at a time: a
//! [`StoreTextSource`](crate::StoreTextSource) reads a block of the store's
//! codes and views it as a [`ResidentText`] of the positions
//! `[base, base + n)` it holds.
//!
//! * raw bytes go through the `&[u8]` [`TextSource`];
//! * a packed payload is compared code by code. A pattern byte becomes a code
//!   through [`PackedCodec`]'s encode table (a byte outside the alphabet has
//!   none, so it mismatches), and the text's code at any position comes from
//!   one 16-bit little-endian load, which holds a 1–8-bit code at any bit
//!   offset. A span need not start on a byte: it carries the bit offset of
//!   its first code. The terminal at `len - 1` has no bits in the payload and
//!   is handled on its own, in the span that reaches it.
//!
//! Nothing is copied, decoded, allocated or locked here, and the store's
//! counters do not move: a view is memory, not I/O.
//!
//! [`StringStore::resident`]: crate::StringStore::resident

#![deny(
    clippy::indexing_slicing,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use crate::alphabet::TERMINAL;
use crate::error::{StoreError, StoreResult};
use crate::packed::PackedCodec;
use crate::text_source::TextSource;

/// The symbols `[base, end)` of a `len`-symbol text held in memory, served
/// as a [`TextSource`] in place: raw bytes, or the codes of a packed payload.
/// A whole text is the span at 0.
///
/// Positions are the text's own. A span answers for the positions it holds:
/// [`TextSource::symbol_at`] outside it is out of bounds, and
/// [`TextSource::common_prefix`] compares no further than its end.
#[derive(Debug, Clone, Copy)]
pub struct ResidentText<'a> {
    form: Form<'a>,
    /// Text position of the first symbol held.
    base: usize,
    /// One past the last symbol held.
    end: usize,
    /// Length of the whole text, terminal included.
    len: usize,
}

#[derive(Debug, Clone, Copy)]
enum Form<'a> {
    /// One byte per symbol, from `base` on; the terminal is a byte.
    Bytes(&'a [u8]),
    /// The codes of the body symbols from `base` on, the first one starting
    /// `first_bit` bits into `payload[0]`; the terminal is out of band.
    Codes { payload: &'a [u8], first_bit: usize, codec: &'a PackedCodec },
}

impl<'a> From<&'a [u8]> for ResidentText<'a> {
    /// A raw text, terminal included.
    fn from(text: &'a [u8]) -> Self {
        ResidentText::bytes(text, 0, text.len())
    }
}

impl<'a> ResidentText<'a> {
    /// The `len`-symbol text whose body `payload` holds packed under `codec`.
    /// The caller guarantees `payload` is exactly the packed size of
    /// `len - 1` codes and that every code names a symbol
    /// ([`crate::PackedStore`]'s constructors check both).
    pub(crate) fn packed(payload: &'a [u8], len: usize, codec: &'a PackedCodec) -> Self {
        ResidentText::codes(payload, 0, len, len, codec)
    }

    /// The span of a `len`-symbol raw text that `bytes` holds from `base` on.
    pub(crate) fn bytes(bytes: &'a [u8], base: usize, len: usize) -> Self {
        ResidentText { form: Form::Bytes(bytes), base, end: base + bytes.len(), len }
    }

    /// The span `[base, end)` of a `len`-symbol packed text, `payload` being
    /// its codes from the byte that holds the code at `base` on.
    pub(crate) fn codes(
        payload: &'a [u8],
        base: usize,
        end: usize,
        len: usize,
        codec: &'a PackedCodec,
    ) -> Self {
        let first_bit = base * codec.bits() as usize % 8;
        ResidentText { form: Form::Codes { payload, first_bit, codec }, base, end, len }
    }

    /// The bytes the text is held in: a raw text's bytes, terminal included,
    /// or a packed text's payload.
    pub fn stored_bytes(&self) -> &'a [u8] {
        match self.form {
            Form::Bytes(bytes) => bytes,
            Form::Codes { payload, .. } => payload,
        }
    }

    /// One past the last position the span holds.
    pub(crate) fn end(&self) -> usize {
        self.end
    }

    fn out_of_bounds(&self, pos: usize, len: usize) -> StoreError {
        StoreError::OutOfBounds { pos, len, text_len: self.len }
    }
}

impl TextSource for ResidentText<'_> {
    fn len(&self) -> usize {
        self.len
    }

    fn symbol_at(&self, pos: usize) -> StoreResult<u8> {
        if pos < self.base || pos >= self.end {
            return Err(self.out_of_bounds(pos, 1));
        }
        let at = pos - self.base;
        match self.form {
            Form::Bytes(bytes) => bytes.symbol_at(at),
            Form::Codes { .. } if pos + 1 == self.len => Ok(TERMINAL),
            Form::Codes { payload, first_bit, codec } => {
                Ok(codec.symbol(code_at(payload, first_bit + at * codec.bits() as usize, codec)?))
            }
        }
    }

    fn common_prefix(&self, start: usize, end: usize, pat: &[u8]) -> StoreResult<usize> {
        let stop = end.min(self.end);
        if start > stop || start < self.base {
            return Err(self.out_of_bounds(start, 0));
        }
        let at = start - self.base;
        match self.form {
            Form::Bytes(bytes) => bytes.common_prefix(at, stop - self.base, pat),
            Form::Codes { payload, first_bit, codec } => {
                let need = (stop - start).min(pat.len());
                // The symbols that have payload bits: all but the terminal at
                // len - 1.
                let body = need.min(self.len.saturating_sub(1).saturating_sub(start));
                let bits = codec.bits() as usize;
                let mut bit = first_bit + at * bits;
                for (matched, &symbol) in pat.iter().take(body).enumerate() {
                    // A byte outside the alphabet has no code and mismatches.
                    if codec.code(symbol) != Some(code_at(payload, bit, codec)?) {
                        return Ok(matched);
                    }
                    bit += bits;
                }
                // Past the body only the terminal is left, if `need` reaches it.
                Ok(body + usize::from(need > body && pat.get(body) == Some(&TERMINAL)))
            }
        }
    }
}

/// The code at bit `bit` of `payload`: one 16-bit little-endian load, so a
/// code of up to 8 bits at a bit offset of up to 7 is always inside it. An
/// error only for a payload shorter than its span.
fn code_at(payload: &[u8], bit: usize, codec: &PackedCodec) -> StoreResult<u8> {
    let byte = bit / 8;
    let Some(&lo) = payload.get(byte) else {
        return Err(StoreError::InvalidText("packed payload shorter than its text".into()));
    };
    let hi = payload.get(byte + 1).copied().unwrap_or(0);
    let word = u16::from(lo) | u16::from(hi) << 8;
    Ok(((word >> (bit % 8)) & codec.mask()) as u8)
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::Alphabet;
    use crate::memory::InMemoryStore;
    use crate::packed_store::PackedMemoryStore;
    use crate::store::StringStore;

    /// Deterministic pseudo-random draws below `n`.
    struct Draws(u64);

    impl Draws {
        fn below(&mut self, n: usize) -> usize {
            self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (self.0 >> 33) as usize % n
        }
    }

    /// Every width the kernel must handle, with the alphabet that has it:
    /// 2-bit codes never straddle a byte, 5-bit ones do, and 1, 3 and 8 bits
    /// are the custom extremes and an odd width.
    fn alphabets() -> Vec<(Alphabet, u32)> {
        let custom = |n: u8| Alphabet::custom(&(1..=n).collect::<Vec<u8>>()).unwrap();
        vec![
            (Alphabet::dna(), 2),
            (Alphabet::protein(), 5),
            (Alphabet::english(), 5),
            (custom(2), 1),
            (custom(7), 3),
            (custom(200), 8),
        ]
    }

    /// A random pattern against `text[start..]`, in one of the shapes a
    /// match loop meets.
    fn pattern(text: &[u8], start: usize, a: &Alphabet, outside: u8, d: &mut Draws) -> Vec<u8> {
        let symbols = a.symbols();
        let mut pat: Vec<u8> =
            text[start.min(text.len())..].iter().take(d.below(48)).copied().collect();
        let at = d.below(pat.len().max(1));
        match d.below(7) {
            0 => {}
            // One symbol changed to another symbol of the alphabet.
            1 if !pat.is_empty() => {
                pat[at] = symbols
                    [(symbols.iter().position(|&s| s == pat[at]).unwrap_or(0) + 1) % symbols.len()]
            }
            // A byte outside the alphabet.
            2 if !pat.is_empty() => pat[at] = outside,
            // The terminal in mid-pattern.
            3 if !pat.is_empty() => pat[at] = TERMINAL,
            // The rest of the text, so the pattern ends in the terminal ...
            4 => pat = text[start.min(text.len())..].to_vec(),
            // ... or runs on past it.
            5 => {
                pat = text[start.min(text.len())..].to_vec();
                pat.extend((0..1 + d.below(4)).map(|_| symbols[d.below(symbols.len())]));
            }
            _ => pat = (0..d.below(16)).map(|_| symbols[d.below(symbols.len())]).collect(),
        }
        pat
    }

    #[test]
    fn packed_codes_match_like_the_decoded_bytes() {
        let mut d = Draws(0x5eed);
        for (alphabet, bits) in alphabets() {
            let symbols = alphabet.symbols().to_vec();
            let outside = (1..=u8::MAX).find(|b| !symbols.contains(b)).unwrap();
            for len in [1usize, 2, 3, 4, 5, 8, 9, 17, 64, 333, 1001] {
                let body: Vec<u8> = (1..len).map(|_| symbols[d.below(symbols.len())]).collect();
                let text = alphabet.terminate(&body).unwrap();
                let store = PackedMemoryStore::new(&text, alphabet.clone()).unwrap();
                assert_eq!(store.bits_per_symbol(), bits);
                let raw = InMemoryStore::new(text.clone(), alphabet.clone()).unwrap();
                let packed = store.resident().unwrap();
                let resident_raw = raw.resident().unwrap();
                let slice: &[u8] = &text;
                let what = format!("{bits}-bit, {len} symbols");
                assert_eq!(TextSource::len(&packed), len, "{what}");
                assert_eq!(TextSource::len(&resident_raw), len, "{what}");
                // Each hands out the bytes its store holds: the text, or the
                // payload `pack_body` made of its body.
                assert_eq!(resident_raw.stored_bytes(), &text[..], "{what}");
                let payload = PackedCodec::new(&alphabet).pack_body(&body).unwrap();
                assert_eq!(packed.stored_bytes(), &payload[..], "{what}");

                for pos in 0..len + 2 {
                    let want = slice.symbol_at(pos).ok();
                    assert_eq!(packed.symbol_at(pos).ok(), want, "{what}: symbol_at({pos})");
                    assert_eq!(resident_raw.symbol_at(pos).ok(), want, "{what}: symbol_at({pos})");
                }

                for i in 0..600 {
                    // Every tenth start is the end of the text itself.
                    let start = if i % 10 == 0 { len } else { d.below(len) };
                    // Ends before, at and past the end of the text.
                    let end = start + d.below(56);
                    let pat = pattern(&text, start, &alphabet, outside, &mut d);
                    let want = slice.common_prefix(start, end, &pat).unwrap();
                    let why = format!("{what}: common_prefix({start}, {end}, {pat:?})");
                    assert_eq!(packed.common_prefix(start, end, &pat).unwrap(), want, "{why}");
                    assert_eq!(
                        resident_raw.common_prefix(start, end, &pat).unwrap(),
                        want,
                        "{why}"
                    );
                }

                // A start past the end is an error on every source.
                for (start, end) in [(1, 0), (len, len - 1), (len + 1, len + 5)] {
                    assert!(slice.common_prefix(start, end, b"A").is_err(), "{what}");
                    assert!(packed.common_prefix(start, end, b"A").is_err(), "{what}");
                    assert!(resident_raw.common_prefix(start, end, b"A").is_err(), "{what}");
                }
            }
        }
    }

    #[test]
    fn spans_match_like_the_whole_text() {
        // A span of the payload, starting at any bit offset, answers for its
        // positions exactly as the whole text does, clamped to its end.
        let mut d = Draws(0xb10c);
        for (alphabet, bits) in alphabets() {
            let (symbols, bits) = (alphabet.symbols().to_vec(), bits as usize);
            let outside = (1..=u8::MAX).find(|b| !symbols.contains(b)).unwrap();
            let codec = PackedCodec::new(&alphabet);
            for len in [1usize, 2, 9, 17, 64, 333] {
                let body: Vec<u8> = (1..len).map(|_| symbols[d.below(symbols.len())]).collect();
                let text = alphabet.terminate(&body).unwrap();
                let payload = codec.pack_body(&body).unwrap();
                let whole = ResidentText::packed(&payload, len, &codec);
                for _ in 0..40 {
                    let base = d.below(len);
                    let end = base + 1 + d.below(len - base);
                    // The block of codes a store read of the span returns.
                    let first = base * bits / 8;
                    let last = (end.min(len - 1) * bits).div_ceil(8).max(first);
                    let span = ResidentText::codes(&payload[first..last], base, end, len, &codec);
                    let raw = ResidentText::bytes(&text[base..end], base, len);
                    let what = format!("{bits}-bit, {len} symbols, span {base}..{end}");
                    for pos in base.saturating_sub(1)..=end {
                        let want = text.get(pos).copied().filter(|_| (base..end).contains(&pos));
                        assert_eq!(span.symbol_at(pos).ok(), want, "{what}: symbol_at({pos})");
                        assert_eq!(raw.symbol_at(pos).ok(), want, "{what}: symbol_at({pos})");
                    }
                    for _ in 0..20 {
                        let start = base + d.below(end - base + 1);
                        let stop = start + d.below(24);
                        let pat = pattern(&text, start, &alphabet, outside, &mut d);
                        let want = whole.common_prefix(start, stop.min(end), &pat).unwrap();
                        let why = format!("{what}: common_prefix({start}, {stop}, {pat:?})");
                        assert_eq!(span.common_prefix(start, stop, &pat).unwrap(), want, "{why}");
                        assert_eq!(raw.common_prefix(start, stop, &pat).unwrap(), want, "{why}");
                    }
                    if base > 0 {
                        assert!(span.common_prefix(base - 1, end, b"A").is_err(), "{what}");
                        assert!(raw.common_prefix(base - 1, end, b"A").is_err(), "{what}");
                    }
                }
            }
        }
    }

    #[test]
    fn file_backed_stores_are_not_resident() {
        let dir = std::env::temp_dir();
        let name = format!("era-resident-{}", std::process::id());
        let raw =
            crate::DiskStore::create_in_dir(&dir, &name, b"GATTACA", Alphabet::dna()).unwrap();
        let packed =
            crate::PackedDiskStore::create_in_dir(&dir, &name, b"GATTACA", Alphabet::dna())
                .unwrap();
        assert!(raw.resident().is_none());
        assert!(packed.resident().is_none());
    }
}
