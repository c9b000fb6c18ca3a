//! Streaming helpers over the string store.
//!
//! Vertical partitioning (§4.1) and the occurrence-collection step of
//! horizontal partitioning both need one strictly sequential pass over `S`
//! looking at a sliding window of a few symbols. Both run on
//! [`for_each_stretch`], a block-sized walk of the zero-copy [`BlockCursor`]
//! of `era-string-store`: the pass is served as borrowed slices out of one
//! reused window buffer, so it is I/O-accounted, never holds more than a few
//! blocks in memory, and allocates nothing per fetch.
//!
//! Both also ask the same question of every position — *which of these
//! S-prefixes starts here?* — about a set in which at most one can: the
//! working set of a round (all of one length) or accepted prefixes (a
//! prefix-free cover of the suffixes, §4.1). One descent of a trie of the set
//! (`ScanTrie`) answers it, whatever the size of the set: vertical
//! partitioning counts the answers, [`collect_occurrences`] and the
//! pipeline's cohort pass append the position to the `L` list of the prefix
//! found. [`collect_occurrences_scalar`] is the per-position oracle the trie
//! is tested against.

use era_string_store::{BlockCursor, StoreError, StoreResult, StringStore};

/// Walks the string once in block-sized stretches, calling
/// `f(base, stretch, positions)` for each: `stretch` starts at text position
/// `base` and holds `positions` window starts followed by `lookahead` more
/// symbols (fewer where the string ends), so a window of `lookahead + 1`
/// symbols starting in a stretch's first `positions` bytes never straddles
/// its end and every window has exactly one home stretch. Performs exactly
/// one sequential scan, one [`BlockCursor::slice`] per stretch.
pub fn for_each_stretch<F>(store: &dyn StringStore, lookahead: usize, mut f: F) -> StoreResult<()>
where
    F: FnMut(usize, &[u8], usize),
{
    let len = store.len();
    let mut cursor = BlockCursor::new(store, false);
    let stride = store.block_size().max(lookahead + 1).max(64);
    let mut pos = 0usize;
    while pos < len {
        let positions = stride.min(len - pos);
        f(pos, cursor.slice(pos, positions + lookahead)?, positions);
        pos += positions;
    }
    Ok(())
}

/// "No pattern continues with this symbol" in a [`ScanTrie`].
const NO_EDGE: u32 = u32::MAX;

/// Set in an edge of a [`ScanTrie`] that ends a pattern: the other bits are
/// the pattern's index. ([`NO_EDGE`] has it set as well — both end a
/// descent.)
const LEAF: u32 = 1 << 31;

/// Width, in bits, of the code the top levels of a [`ScanTrie`] are folded
/// under: a 16 KiB table, four DNA symbols or two protein ones.
const JUMP_BITS: u32 = 12;

/// A prefix-free set of patterns over `Σ ∪ {$}` as a trie with one edge
/// column per symbol, which a pass descends from every position of the
/// string to learn which pattern, if any, starts there.
///
/// A descent ends at the first symbol no pattern continues with, or at the
/// leaf of the one pattern that matches — leaves sit at whatever depth their
/// pattern has. However long the patterns are, nearly every position that
/// matches none is dismissed within a few symbols, and where is as random as
/// the string, so the first `jump_len` levels are folded into one table
/// indexed by a rolling code of that many symbols: one lookup and one
/// well-predicted branch per position instead of a mispredicted one. The last
/// few positions of the string, whose window is shorter than the table is
/// deep, are descended symbol by symbol.
pub(crate) struct ScanTrie {
    /// Length of the longest pattern (1 for a trie of none).
    depth: usize,
    /// Bits per symbol column: a node has `1 << bits` edge columns, one per
    /// symbol of `Σ ∪ {$}` plus at least one that is never set, which bytes
    /// outside the alphabet map to.
    bits: u32,
    /// `column_of[byte]` — the byte's edge column.
    column_of: [u16; 256],
    /// `edges[node << bits | column]` — the child node, [`LEAF`]` | index` of
    /// the pattern that ends here, or [`NO_EDGE`].
    edges: Vec<u32>,
    /// Levels folded into `jump` (at least 1, at most `depth`).
    jump_len: usize,
    /// `jump[code]` — where the descent stands after the `jump_len` symbols
    /// whose columns, first symbol in the highest bits, spell `code`, or
    /// after as many of them as it took to end it.
    jump: Vec<u32>,
}

impl ScanTrie {
    /// `symbols` is `Σ ∪ {$}`. Rejects a set that is not prefix-free (a
    /// duplicate is its own prefix) or holds an empty pattern: more than one
    /// of its members could start at one position. A pattern with a byte
    /// outside `symbols` matches nowhere and is left out of the trie.
    pub(crate) fn new<P: AsRef<[u8]>>(symbols: &[u8], patterns: &[P]) -> StoreResult<Self> {
        let bits = usize::BITS - symbols.len().leading_zeros();
        let spare = symbols.len() as u16;
        let mut column_of = [spare; 256];
        for (column, &symbol) in symbols.iter().enumerate() {
            column_of[symbol as usize] = column as u16;
        }
        let not_prefix_free = |pattern: &[u8]| {
            StoreError::InvalidConfig(format!(
                "the scanned pattern set is not prefix-free at {:?}",
                String::from_utf8_lossy(pattern)
            ))
        };
        let mut depth = 1;
        let mut edges = vec![NO_EDGE; 1 << bits];
        for (index, pattern) in patterns.iter().enumerate() {
            let pattern = pattern.as_ref();
            if pattern.is_empty() {
                return Err(not_prefix_free(pattern));
            }
            if pattern.iter().any(|&symbol| column_of[symbol as usize] == spare) {
                continue;
            }
            depth = depth.max(pattern.len());
            let mut node = 0usize;
            for (level, &symbol) in pattern.iter().enumerate() {
                let edge = node << bits | column_of[symbol as usize] as usize;
                let last = level + 1 == pattern.len();
                match edges[edge] {
                    NO_EDGE if last => edges[edge] = LEAF | index as u32,
                    NO_EDGE => {
                        node = edges.len() >> bits;
                        edges[edge] = node as u32;
                        edges.resize(edges.len() + (1 << bits), NO_EDGE);
                    }
                    // An earlier pattern ends on the way, or this one ends
                    // inside an earlier one.
                    child if child >= LEAF || last => return Err(not_prefix_free(pattern)),
                    child => node = child as usize,
                }
            }
        }
        let jump_len = ((JUMP_BITS / bits) as usize).clamp(1, depth);
        let jump = (0..1usize << (bits * jump_len as u32))
            .map(|code| {
                let mut at = 0u32;
                for level in (0..jump_len as u32).rev() {
                    let column = code >> (bits * level) & ((1 << bits) - 1);
                    at = edges[(at as usize) << bits | column];
                    if at >= LEAF {
                        break;
                    }
                }
                at
            })
            .collect();
        Ok(ScanTrie { depth, bits, column_of, edges, jump_len, jump })
    }

    /// Symbols a window needs beyond its first, for [`for_each_stretch`].
    pub(crate) fn lookahead(&self) -> usize {
        self.depth - 1
    }

    /// Continues a descent standing at `at` over `rest`; still at a node
    /// (below [`LEAF`]) when the string ends first.
    #[inline]
    fn descend(&self, mut at: u32, rest: &[u8]) -> u32 {
        for &byte in rest {
            if at >= LEAF {
                break;
            }
            at = self.edges[(at as usize) << self.bits | self.column_of[byte as usize] as usize];
        }
        at
    }

    /// Calls `hit(start, index)` for each of the first `positions` bytes of
    /// `stretch` at which a pattern starts, in string order. A window cut
    /// short by the end of the string matches only a pattern it holds in
    /// full.
    #[inline]
    pub(crate) fn for_each_match<F>(&self, stretch: &[u8], positions: usize, mut hit: F)
    where
        F: FnMut(usize, usize),
    {
        let mut report = |start: usize, at: u32| {
            if at >= LEAF && at != NO_EDGE {
                hit(start, (at ^ LEAF) as usize);
            }
        };
        let column = |byte: u8| self.column_of[byte as usize] as usize;
        let mask = self.jump.len() - 1;
        let lead = self.jump_len - 1;
        // Window starts with all `jump_len` symbols inside the stretch.
        let rolled = positions.min(stretch.len().saturating_sub(lead));
        let mut code = stretch.iter().take(lead).fold(0, |code, &b| code << self.bits | column(b));
        for (start, &byte) in stretch.iter().skip(lead).take(rolled).enumerate() {
            code = (code << self.bits | column(byte)) & mask;
            let at = self.jump[code];
            if at == NO_EDGE {
                continue;
            }
            report(start, self.descend(at, &stretch[start + self.jump_len..]));
        }
        for start in rolled..positions {
            report(start, self.descend(0, &stretch[start..]));
        }
    }
}

/// One pass (none for no patterns) that appends every position at which one
/// of `patterns` starts to the list of that pattern, in string order — the
/// pattern set under the contract of [`ScanTrie::new`].
pub(crate) fn classify_into<P: AsRef<[u8]>>(
    store: &dyn StringStore,
    patterns: &[P],
    lists: &mut [Vec<u32>],
) -> StoreResult<()> {
    if patterns.is_empty() {
        return Ok(());
    }
    let trie = ScanTrie::new(&store.alphabet().with_terminal(), patterns)?;
    for_each_stretch(store, trie.lookahead(), |base, stretch, positions| {
        trie.for_each_match(stretch, positions, |start, pattern| {
            lists[pattern].push((base + start) as u32);
        });
    })
}

/// Collects the positions of every occurrence of each `pattern` in the store,
/// in string order, using a single sequential scan — the classifying pass of
/// the construction pipeline, run for one group.
///
/// The patterns must be non-empty and prefix-free, as the S-prefixes of
/// vertical partitioning are; any other set is an error. A pattern with a
/// byte outside `Σ ∪ {$}` has no occurrences.
pub fn collect_occurrences(
    store: &dyn StringStore,
    patterns: &[Vec<u8>],
) -> StoreResult<Vec<Vec<u32>>> {
    let mut out: Vec<Vec<u32>> = vec![Vec::new(); patterns.len()];
    classify_into(store, patterns, &mut out)?;
    Ok(out)
}

/// The per-position reference for [`collect_occurrences`]: every pattern is
/// compared at every position, so it answers for any pattern set (empty
/// patterns occur nowhere) and agrees with the trie on those the trie
/// accepts — same positions, same order. The oracle of the equivalence tests.
pub fn collect_occurrences_scalar(
    store: &dyn StringStore,
    patterns: &[Vec<u8>],
) -> StoreResult<Vec<Vec<u32>>> {
    let mut out: Vec<Vec<u32>> = vec![Vec::new(); patterns.len()];
    let Some(max_len) = patterns.iter().map(Vec::len).max().filter(|&len| len > 0) else {
        return Ok(out);
    };
    for_each_stretch(store, max_len - 1, |base, stretch, positions| {
        for start in 0..positions {
            for (pattern, hits) in patterns.iter().zip(out.iter_mut()) {
                if !pattern.is_empty() && stretch[start..].starts_with(pattern) {
                    hits.push((base + start) as u32);
                }
            }
        }
    })?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use era_string_store::InMemoryStore;

    fn store(body: &[u8]) -> InMemoryStore {
        InMemoryStore::from_body_inferred(body).unwrap().with_block_size(8).unwrap()
    }

    #[test]
    fn stretches_cover_whole_string() {
        let body = b"abcdefghijklmnopqrstuvwxyz";
        let s = store(body);
        let mut seen = Vec::new();
        for_each_stretch(&s, 2, |base, stretch, positions| {
            for i in 0..positions {
                seen.push((base + i, stretch[i..stretch.len().min(i + 3)].to_vec()));
            }
        })
        .unwrap();
        assert_eq!(seen.len(), 27); // including terminal position
        assert_eq!(seen[0], (0, b"abc".to_vec()));
        assert_eq!(seen[24], (24, vec![b'y', b'z', 0]));
        assert_eq!(seen[26], (26, vec![0]));
        // Exactly one scan, and close to one pass worth of bytes.
        let snap = s.stats().snapshot();
        assert_eq!(snap.full_scans, 1);
        assert!(snap.bytes_read as usize <= body.len() + 1 + 8);
    }

    #[test]
    fn stretched_pass_stays_within_one_pass_of_io() {
        // Regression test for the old per-fetch `vec![0u8; …]` +
        // `buf.drain(..)` implementation: a windowed pass must read every
        // byte exactly once, regardless of window length and block size.
        for (body_len, window_len, block) in
            [(4096usize, 3usize, 32usize), (2500, 16, 64), (999, 1, 8), (257, 40, 16)]
        {
            let body: Vec<u8> = (0..body_len).map(|i| b'a' + (i % 7) as u8).collect();
            let s =
                InMemoryStore::from_body_inferred(&body).unwrap().with_block_size(block).unwrap();
            let mut count = 0usize;
            for_each_stretch(&s, window_len - 1, |_, stretch, positions| {
                assert!(stretch.len() >= positions && stretch.len() < positions + window_len);
                count += positions;
            })
            .unwrap();
            assert_eq!(count, body_len + 1);
            let snap = s.stats().snapshot();
            assert_eq!(snap.full_scans, 1);
            assert_eq!(
                snap.bytes_read as usize,
                s.len(),
                "one pass must read each byte once (body {body_len}, window {window_len}, block {block})"
            );
        }
    }

    #[test]
    fn occurrences_match_naive_search() {
        let body = b"TGGTGGTGGTGCGGTGATGGTGC";
        let s = store(body);
        // Prefix-free (`TG` occurs inside `GGTG`, it does not begin it); `X` is
        // outside the alphabet, so `XX` occurs nowhere.
        let patterns = vec![b"TG".to_vec(), b"GGTG".to_vec(), b"GC".to_vec(), b"XX".to_vec()];
        let occ = collect_occurrences(&s, &patterns).unwrap();
        let text: Vec<u8> = {
            let mut t = body.to_vec();
            t.push(0);
            t
        };
        for (i, p) in patterns.iter().enumerate() {
            let expected: Vec<u32> = (0..text.len())
                .filter(|&j| text[j..].starts_with(p.as_slice()))
                .map(|j| j as u32)
                .collect();
            assert_eq!(occ[i], expected, "pattern {:?}", String::from_utf8_lossy(p));
        }
        assert_eq!(occ[0], vec![0, 3, 6, 9, 14, 17, 20]); // Table 1 of the paper
    }

    #[test]
    fn occurrences_against_oracle_across_strides() {
        // Stretch boundaries must not drop or duplicate matches: compare with
        // the brute-force oracle over bodies spanning many blocks, with
        // patterns longer and shorter than the block size.
        let body: Vec<u8> = b"abcabcdabcdeabcdefab".iter().cycle().take(1000).copied().collect();
        for block in [4usize, 8, 16, 64] {
            let s =
                InMemoryStore::from_body_inferred(&body).unwrap().with_block_size(block).unwrap();
            let patterns = vec![
                b"abca".to_vec(),
                b"abcdefab".to_vec(),
                b"b".to_vec(),
                b"cabcdabcdeabcdefabab".to_vec(), // longer than small blocks
                b"zzz".to_vec(),
            ];
            let occ = collect_occurrences(&s, &patterns).unwrap();
            let text: Vec<u8> = {
                let mut t = body.clone();
                t.push(0);
                t
            };
            for (i, p) in patterns.iter().enumerate() {
                let expected: Vec<u32> = (0..text.len())
                    .filter(|&j| text[j..].starts_with(p.as_slice()))
                    .map(|j| j as u32)
                    .collect();
                assert_eq!(occ[i], expected, "block {block} pattern {i}");
            }
            // The scan is a single pass.
            let snap = s.stats().snapshot();
            assert_eq!(snap.full_scans, 1);
            assert_eq!(snap.bytes_read as usize, s.len());
        }
    }

    #[test]
    fn scalar_reference_agrees_with_vectorized() {
        // Deterministic pseudo-random DNA body; patterns end above, at and
        // below the jump table's four levels, and in the terminal.
        let mut state = 0x9e37_79b9u32;
        let body: Vec<u8> = (0..2531)
            .map(|_| {
                state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                b"ACGT"[(state >> 24) as usize % 4]
            })
            .collect();
        let patterns = vec![
            b"AC".to_vec(),
            b"AGGT".to_vec(),
            b"T".to_vec(),
            b"GTTTTA".to_vec(),
            b"GA\0".to_vec(),
            vec![0u8],
        ];
        for block in [8usize, 64] {
            let s =
                InMemoryStore::from_body_inferred(&body).unwrap().with_block_size(block).unwrap();
            let fast = collect_occurrences(&s, &patterns).unwrap();
            let slow = collect_occurrences_scalar(&s, &patterns).unwrap();
            assert_eq!(fast, slow, "block {block}");
        }
    }

    #[test]
    fn a_pattern_set_that_is_not_prefix_free_is_rejected() {
        let s = store(b"TGGTGGTGC");
        let patterns = |set: &[&[u8]]| set.iter().map(|p| p.to_vec()).collect::<Vec<_>>();
        for set in [&[&b"TG"[..], b"TGG"][..], &[b"TGG", b"TG"], &[b"TG", b"TG"], &[b"TG", b""]] {
            assert!(collect_occurrences(&s, &patterns(set)).is_err(), "{set:?}");
        }
        // The tail of the string is shorter than the jump table is deep.
        let set = patterns(&[b"TGGTG", b"GC\0", b"C\0", b"\0"]);
        let occ = collect_occurrences(&s, &set).unwrap();
        assert_eq!(occ, vec![vec![0, 3], vec![7], vec![8], vec![9]]);
        assert_eq!(occ, collect_occurrences_scalar(&s, &set).unwrap());
    }

    #[test]
    fn terminal_pattern() {
        let s = store(b"abcabc");
        let occ = collect_occurrences(&s, &[vec![0u8]]).unwrap();
        assert_eq!(occ[0], vec![6]);
    }

    #[test]
    fn empty_pattern_list() {
        let s = store(b"abc");
        let occ = collect_occurrences(&s, &[]).unwrap();
        assert!(occ.is_empty());
        let occ = collect_occurrences_scalar(&s, &[]).unwrap();
        assert!(occ.is_empty());
    }
}
