//! Alphabets and the terminal symbol.
//!
//! The paper evaluates DNA (4 symbols), protein (20 symbols) and English
//! (26 symbols) datasets; the alphabet size drives the branching factor of the
//! suffix tree and therefore the read-ahead buffer size `|R|` (§4.4, Fig. 8).

use crate::error::{StoreError, StoreResult};

/// The end-of-string terminal symbol (`$` in the paper).
///
/// It is represented by byte `0`, does not belong to any alphabet and sorts
/// before every alphabet symbol. Exactly one terminal must appear in a stored
/// string, at the very last position.
pub const TERMINAL: u8 = 0;

/// Identifies one of the built-in alphabets (or a custom one).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AlphabetKind {
    /// `{A, C, G, T}` — 4 symbols, 2 bits each.
    Dna,
    /// The 20 standard amino-acid letters — 5 bits each.
    Protein,
    /// `a`–`z` — 26 symbols, 5 bits each.
    English,
    /// A caller-supplied symbol set.
    Custom,
}

/// A finite symbol set `Σ` over which input strings are defined.
///
/// The terminal symbol is *not* part of the alphabet; [`Alphabet::with_terminal`]
/// returns the symbol set extended with the terminal, which is what the
/// vertical-partitioning working set iterates over.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Alphabet {
    kind: AlphabetKind,
    symbols: Vec<u8>,
}

impl Alphabet {
    /// The DNA alphabet `{A, C, G, T}`.
    pub fn dna() -> Self {
        Alphabet { kind: AlphabetKind::Dna, symbols: b"ACGT".to_vec() }
    }

    /// The 20-symbol protein alphabet.
    pub fn protein() -> Self {
        Alphabet { kind: AlphabetKind::Protein, symbols: b"ACDEFGHIKLMNPQRSTVWY".to_vec() }
    }

    /// The 26-symbol lowercase English alphabet.
    pub fn english() -> Self {
        Alphabet { kind: AlphabetKind::English, symbols: (b'a'..=b'z').collect() }
    }

    /// Builds a custom alphabet from the given symbols.
    ///
    /// Symbols are deduplicated and sorted. The terminal byte (`0`) may not be
    /// a member.
    pub fn custom(symbols: &[u8]) -> StoreResult<Self> {
        let mut s: Vec<u8> = symbols.to_vec();
        s.sort_unstable();
        s.dedup();
        if s.is_empty() {
            return Err(StoreError::InvalidConfig("alphabet must not be empty".into()));
        }
        if s.contains(&TERMINAL) {
            return Err(StoreError::InvalidConfig(
                "the terminal byte 0 may not be an alphabet symbol".into(),
            ));
        }
        Ok(Alphabet { kind: AlphabetKind::Custom, symbols: s })
    }

    /// Infers an alphabet from a text body (excluding any trailing terminal).
    pub fn infer(text: &[u8]) -> StoreResult<Self> {
        let body = match text.last() {
            Some(&TERMINAL) => &text[..text.len() - 1],
            _ => text,
        };
        let mut seen = [false; 256];
        for &b in body {
            seen[b as usize] = true;
        }
        if seen[TERMINAL as usize] {
            return Err(StoreError::InvalidText(
                "terminal byte 0 appears before the end of the text".into(),
            ));
        }
        let symbols: Vec<u8> = (0u16..256).map(|b| b as u8).filter(|&b| seen[b as usize]).collect();
        Alphabet::custom(&symbols)
    }

    /// Which built-in family this alphabet belongs to.
    pub fn kind(&self) -> AlphabetKind {
        self.kind
    }

    /// The symbols of `Σ`, sorted ascending.
    pub fn symbols(&self) -> &[u8] {
        &self.symbols
    }

    /// `|Σ|`.
    pub fn len(&self) -> usize {
        self.symbols.len()
    }

    /// Whether the alphabet is empty (never true for a constructed alphabet).
    pub fn is_empty(&self) -> bool {
        self.symbols.is_empty()
    }

    /// The symbols of `Σ ∪ {$}` with the terminal first.
    pub fn with_terminal(&self) -> Vec<u8> {
        let mut v = Vec::with_capacity(self.symbols.len() + 1);
        v.push(TERMINAL);
        v.extend_from_slice(&self.symbols);
        v
    }

    /// Whether `b` is a member of `Σ`.
    pub fn contains(&self, b: u8) -> bool {
        self.symbols.binary_search(&b).is_ok()
    }

    /// Number of bits required to encode one alphabet symbol.
    ///
    /// DNA needs 2 bits; protein and English need 5 bits — exactly the
    /// figures of §6.1 of the paper. The terminal is *not* encoded: the
    /// packed stores keep its position out-of-band (it is implied by the text
    /// length), so it costs no bits.
    pub fn bits_per_symbol(&self) -> u32 {
        let n = self.symbols.len() as u32;
        (u32::BITS - (n - 1).leading_zeros()).max(1)
    }

    /// Validates that `text` is a proper input string: non-empty, terminated by
    /// exactly one terminal at the last position, all other bytes in `Σ`.
    ///
    /// Membership is one lookup in a 256-entry table per byte (the terminal
    /// is never a member), so a catalog's raw text segment is checked at
    /// about the speed it is read.
    pub fn validate(&self, text: &[u8]) -> StoreResult<()> {
        let Some((&last, body)) = text.split_last() else {
            return Err(StoreError::InvalidText("text is empty".into()));
        };
        if last != TERMINAL {
            return Err(StoreError::InvalidText("text must end with the terminal symbol".into()));
        }
        let mut member = [false; 256];
        for &s in &self.symbols {
            member[usize::from(s)] = true;
        }
        let Some(i) = body.iter().position(|&b| !member[usize::from(b)]) else {
            return Ok(());
        };
        Err(StoreError::InvalidText(match body[i] {
            TERMINAL => format!("terminal symbol found at interior position {i}"),
            b => format!("symbol {b:#04x} at position {i} is not in the alphabet"),
        }))
    }

    /// Appends the terminal to `body`, validating the body against `Σ`.
    pub fn terminate(&self, body: &[u8]) -> StoreResult<Vec<u8>> {
        let mut text = Vec::with_capacity(body.len() + 1);
        text.extend_from_slice(body);
        text.push(TERMINAL);
        self.validate(&text)?;
        Ok(text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_sizes() {
        assert_eq!(Alphabet::dna().len(), 4);
        assert_eq!(Alphabet::protein().len(), 20);
        assert_eq!(Alphabet::english().len(), 26);
    }

    #[test]
    fn bits_per_symbol_matches_paper() {
        // §6.1: 2-bit DNA, 5-bit protein and English. The terminal is
        // out-of-band and costs no bits.
        assert_eq!(Alphabet::dna().bits_per_symbol(), 2);
        assert_eq!(Alphabet::protein().bits_per_symbol(), 5);
        assert_eq!(Alphabet::english().bits_per_symbol(), 5);
        // Width boundaries: 15/16 symbols fit in 4 bits, 17 and 31/32 in 5.
        let custom = |n: u8| Alphabet::custom(&(1..=n).collect::<Vec<u8>>()).unwrap();
        assert_eq!(custom(1).bits_per_symbol(), 1);
        assert_eq!(custom(15).bits_per_symbol(), 4);
        assert_eq!(custom(16).bits_per_symbol(), 4);
        assert_eq!(custom(17).bits_per_symbol(), 5);
        assert_eq!(custom(31).bits_per_symbol(), 5);
        assert_eq!(custom(32).bits_per_symbol(), 5);
        assert_eq!(custom(33).bits_per_symbol(), 6);
    }

    #[test]
    fn custom_rejects_terminal_and_empty() {
        assert!(Alphabet::custom(&[]).is_err());
        assert!(Alphabet::custom(&[0, b'a']).is_err());
        let a = Alphabet::custom(b"ba").unwrap();
        assert_eq!(a.symbols(), b"ab");
        assert_eq!(a.kind(), AlphabetKind::Custom);
    }

    #[test]
    fn with_terminal_puts_terminal_first() {
        let a = Alphabet::dna();
        let s = a.with_terminal();
        assert_eq!(s[0], TERMINAL);
        assert_eq!(&s[1..], b"ACGT");
    }

    #[test]
    fn validate_accepts_proper_text() {
        let a = Alphabet::dna();
        let t = a.terminate(b"GATTACA").unwrap();
        assert_eq!(t.last(), Some(&TERMINAL));
        assert!(a.validate(&t).is_ok());
    }

    #[test]
    fn validate_rejects_bad_text() {
        let a = Alphabet::dna();
        assert!(a.validate(b"").is_err());
        assert!(a.validate(b"ACGT").is_err()); // no terminal
        assert!(a.validate(&[b'A', 0, b'C', 0]).is_err()); // interior terminal
        assert!(a.validate(&[b'A', b'X', 0]).is_err()); // foreign symbol
    }

    #[test]
    fn validate_names_the_first_bad_byte_and_its_position() {
        let a = Alphabet::protein();
        let message = |text: &[u8]| a.validate(text).unwrap_err().to_string();
        assert!(message(b"").contains("text is empty"));
        assert!(message(b"AC").contains("must end with the terminal"));
        let interior = message(&[b'A', b'C', 0, b'B', 0]);
        assert!(interior.contains("terminal symbol found at interior position 2"), "{interior}");
        let foreign = message(&[b'A', b'C', b'D', b'B', 0, 0]);
        assert!(foreign.contains("symbol 0x42 at position 3 is not in the alphabet"), "{foreign}");
        // Every byte value: members pass, everything else is refused.
        for b in 0..=u8::MAX {
            assert_eq!(a.validate(&[b'A', b, 0]).is_ok(), a.contains(b), "byte {b:#04x}");
        }
    }

    #[test]
    fn infer_recovers_symbols() {
        let a = Alphabet::infer(b"banana").unwrap();
        assert_eq!(a.symbols(), b"abn");
        let with_term = Alphabet::infer(&[b'a', b'b', 0]).unwrap();
        assert_eq!(with_term.symbols(), b"ab");
    }

    #[test]
    fn infer_rejects_interior_terminal() {
        assert!(Alphabet::infer(&[b'a', 0, b'b', 0]).is_err());
    }

    #[test]
    fn contains_checks_membership() {
        let a = Alphabet::dna();
        assert!(a.contains(b'G'));
        assert!(!a.contains(b'Z'));
        assert!(!a.contains(TERMINAL));
    }
}
