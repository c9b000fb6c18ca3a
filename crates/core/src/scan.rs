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
//! The multi-pattern scan is vectorized without `core::simd`: candidate
//! positions are found eight at a time with a SWAR (SIMD-within-a-register)
//! first-byte filter — broadcast the byte across a `u64`, XOR against the
//! stretch, and detect zero lanes with carry-free bit tricks — and only the
//! candidates are verified against the full patterns. On low-entropy inputs
//! (DNA, prefix groups from vertical partitioning) the filter rejects the
//! vast majority of positions one word at a time.

use era_string_store::{BlockCursor, StoreResult, StringStore};

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

/// Byte lanes per SWAR word.
const LANES: usize = std::mem::size_of::<u64>();
/// The low bit of every byte lane.
const LANE_LO: u64 = 0x0101_0101_0101_0101;
/// Every bit of every lane except the lane's high bit.
const LANE_INNER: u64 = 0x7f7f_7f7f_7f7f_7f7f;

/// Returns a mask with the high bit set in every byte lane of `x` that is
/// zero. Exact: `(x & INNER) + INNER` cannot carry across lanes (each lane
/// sums to at most `0xfe`), so no false positives — unlike the shorter
/// `x - LO & !x & HI` trick, which can flag the lane after a genuine zero.
#[inline]
fn zero_lanes(x: u64) -> u64 {
    !(((x & LANE_INNER) + LANE_INNER) | x | LANE_INNER)
}

/// Sentinel in the first-byte index: no pattern starts with this byte.
const NO_GROUP: u16 = u16::MAX;

/// The patterns sharing one first byte.
struct PatternGroup {
    /// The shared first byte — the needle the SWAR filter broadcasts.
    first: u8,
    /// Indices into the pattern list, in pattern order.
    members: Vec<u32>,
    /// `(pattern word, lane mask, pattern index)` for members that fit one
    /// SWAR word (`len <= 8`), in pattern order: the vectorized path verifies
    /// these with one masked compare each, no pointer chasing.
    short: Vec<(u64, u64, u32)>,
    /// Members longer than one word, verified by slice compare.
    long: Vec<u32>,
}

/// A batched multi-pattern matcher over one sequential scan.
///
/// Patterns are grouped by their first byte once, up front, into a *sparse*
/// index: one [`PatternGroup`] per first byte actually present plus a fixed
/// 256-entry lookup table of group ids — no per-call allocation proportional
/// to the alphabet. The scan walks the string in block-sized stretches of the
/// cursor's window; for each group the SWAR filter yields candidate
/// positions, and only those are verified against the group's full patterns.
/// Prefix groups produced by vertical partitioning share first bytes heavily,
/// which is exactly the case the grouping exploits.
struct MultiPatternMatcher<'p> {
    patterns: &'p [Vec<u8>],
    /// One entry per distinct first byte, in first-seen order.
    groups: Vec<PatternGroup>,
    /// first byte -> index into `groups`, or [`NO_GROUP`].
    group_of: [u16; 256],
    max_len: usize,
}

impl<'p> MultiPatternMatcher<'p> {
    fn new(patterns: &'p [Vec<u8>]) -> Self {
        let mut groups: Vec<PatternGroup> = Vec::new();
        let mut group_of = [NO_GROUP; 256];
        let mut max_len = 0usize;
        for (i, p) in patterns.iter().enumerate() {
            // Empty patterns never match (they carry no first byte to anchor
            // the scan on); vertical partitioning never produces them.
            if let Some(&first) = p.first() {
                let slot = &mut group_of[first as usize];
                if *slot == NO_GROUP {
                    *slot = groups.len() as u16;
                    groups.push(PatternGroup {
                        first,
                        members: Vec::new(),
                        short: Vec::new(),
                        long: Vec::new(),
                    });
                }
                let group = &mut groups[*slot as usize];
                group.members.push(i as u32);
                if p.len() <= LANES {
                    let mut bytes = [0u8; LANES];
                    bytes[..p.len()].copy_from_slice(p);
                    let mask =
                        if p.len() == LANES { u64::MAX } else { (1u64 << (8 * p.len())) - 1 };
                    group.short.push((u64::from_le_bytes(bytes), mask, i as u32));
                } else {
                    group.long.push(i as u32);
                }
                max_len = max_len.max(p.len());
            }
        }
        MultiPatternMatcher { patterns, groups, group_of, max_len }
    }

    /// Verifies every pattern of `group` against the window at `stretch[i..]`,
    /// pushing hits (offset by `base`) into `out`.
    #[inline]
    fn verify_candidates(
        &self,
        group: &PatternGroup,
        base: usize,
        stretch: &[u8],
        i: usize,
        out: &mut [Vec<u32>],
    ) {
        for &pi in &group.members {
            let p = &self.patterns[pi as usize];
            if stretch.len() - i >= p.len() && stretch[i..i + p.len()] == p[..] {
                out[pi as usize].push((base + i) as u32);
            }
        }
    }

    /// Like [`Self::verify_candidates`], but verifies patterns that fit one
    /// SWAR word with a single masked `u64` compare. Falls back to the slice
    /// compare for long patterns and near the end of the stretch (where a
    /// whole word cannot be loaded).
    #[inline(always)]
    fn verify_candidates_swar(
        &self,
        group: &PatternGroup,
        base: usize,
        stretch: &[u8],
        i: usize,
        out: &mut [Vec<u32>],
    ) {
        if stretch.len() - i < LANES {
            return self.verify_candidates(group, base, stretch, i, out);
        }
        // era-check: allow(unwrap): slice length is exactly LANES
        let window = u64::from_le_bytes(stretch[i..i + LANES].try_into().unwrap());
        for &(word, mask, pi) in &group.short {
            if window & mask == word {
                out[pi as usize].push((base + i) as u32);
            }
        }
        for &pi in &group.long {
            let p = &self.patterns[pi as usize];
            if stretch.len() - i >= p.len() && stretch[i..i + p.len()] == p[..] {
                out[pi as usize].push((base + i) as u32);
            }
        }
    }

    /// Matches every pattern against every window starting in
    /// `stretch[..positions]`, pushing hits (offset by `base`) into `out`.
    ///
    /// For each group the first byte is broadcast across a `u64` and compared
    /// against eight stretch bytes at a time; candidate lanes are drained in
    /// ascending order via `trailing_zeros`, and the last `positions % 8`
    /// bytes fall back to the scalar tail. Per-pattern hit order therefore
    /// matches the scalar scan exactly.
    fn scan_stretch(&self, base: usize, stretch: &[u8], positions: usize, out: &mut [Vec<u32>]) {
        for group in &self.groups {
            let broadcast = u64::from(group.first) * LANE_LO;
            let mut i = 0usize;
            while i + LANES <= positions {
                // era-check: allow(unwrap): slice length is exactly LANES
                let word = u64::from_le_bytes(stretch[i..i + LANES].try_into().unwrap());
                let mut hits = zero_lanes(word ^ broadcast);
                while hits != 0 {
                    let at = i + (hits.trailing_zeros() / 8) as usize;
                    self.verify_candidates_swar(group, base, stretch, at, out);
                    hits &= hits - 1;
                }
                i += LANES;
            }
            while i < positions {
                if stretch[i] == group.first {
                    self.verify_candidates_swar(group, base, stretch, i, out);
                }
                i += 1;
            }
        }
    }

    /// The per-position reference scan: look up the group of each byte and
    /// verify its members. Kept as the oracle the vectorized path is tested
    /// and benchmarked against.
    fn scan_stretch_scalar(
        &self,
        base: usize,
        stretch: &[u8],
        positions: usize,
        out: &mut [Vec<u32>],
    ) {
        for i in 0..positions {
            let g = self.group_of[stretch[i] as usize];
            if g != NO_GROUP {
                self.verify_candidates(&self.groups[g as usize], base, stretch, i, out);
            }
        }
    }
}

/// Shared driver for both scan flavors: one pass of [`for_each_stretch`] with
/// `max_len - 1` lookahead bytes, so windows that straddle a stretch boundary
/// are matched exactly once, in their home stretch.
fn collect_with(
    store: &dyn StringStore,
    patterns: &[Vec<u8>],
    vectorized: bool,
) -> StoreResult<Vec<Vec<u32>>> {
    let mut out: Vec<Vec<u32>> = vec![Vec::new(); patterns.len()];
    let matcher = MultiPatternMatcher::new(patterns);
    if matcher.max_len == 0 {
        return Ok(out);
    }
    for_each_stretch(store, matcher.max_len - 1, |base, stretch, positions| {
        if vectorized {
            matcher.scan_stretch(base, stretch, positions, &mut out);
        } else {
            matcher.scan_stretch_scalar(base, stretch, positions, &mut out);
        }
    })?;
    Ok(out)
}

/// Collects the positions of every occurrence of each `pattern` in the store,
/// in string order, using a single sequential scan with the SWAR first-byte
/// filter.
///
/// Empty patterns yield no occurrences: a pattern needs at least one symbol
/// to anchor the scan on (vertical partitioning never produces empty
/// prefixes).
pub fn collect_occurrences(
    store: &dyn StringStore,
    patterns: &[Vec<u8>],
) -> StoreResult<Vec<Vec<u32>>> {
    collect_with(store, patterns, true)
}

/// The scalar per-position reference for [`collect_occurrences`]: identical
/// answers (same positions, same order), no SWAR filter. Exists so property
/// tests can assert scan equivalence and benchmarks can measure the speedup
/// of the vectorized path.
pub fn collect_occurrences_scalar(
    store: &dyn StringStore,
    patterns: &[Vec<u8>],
) -> StoreResult<Vec<Vec<u32>>> {
    collect_with(store, patterns, false)
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
    fn zero_lane_mask_is_exact() {
        // The lane after a zero must NOT flag (the classic `x - LO & !x & HI`
        // shortcut gets exactly this wrong via cross-lane borrow).
        let word = u64::from_le_bytes([0, 1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff]);
        assert_eq!(zero_lanes(word), 0x80);
        assert_eq!(zero_lanes(0), 0x8080_8080_8080_8080);
        assert_eq!(zero_lanes(u64::MAX), 0);
        assert_eq!(zero_lanes(0x8080_8080_8080_8080), 0);
        // Exhaustive per-lane check against the definition.
        for b in 0u8..=255 {
            let x = u64::from_le_bytes([b, 1, b, 0xff, b, 0x80, b, 0]);
            let mask = zero_lanes(x);
            for lane in 0..8 {
                let flagged = mask & (0x80u64 << (lane * 8)) != 0;
                assert_eq!(flagged, x.to_le_bytes()[lane] == 0, "byte {b:#x} lane {lane}");
            }
        }
    }

    #[test]
    fn occurrences_match_naive_search() {
        let body = b"TGGTGGTGGTGCGGTGATGGTGC";
        let s = store(body);
        let patterns = vec![b"TG".to_vec(), b"TGG".to_vec(), b"GGTG".to_vec(), b"XX".to_vec()];
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
                b"abc".to_vec(),
                b"abcdefab".to_vec(),
                b"a".to_vec(),
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
        // Deterministic pseudo-random DNA body; hits land in SWAR words and
        // in scalar tails (stride is not a multiple of 8 once the final
        // partial stretch is reached).
        let mut state = 0x9e37_79b9u32;
        let body: Vec<u8> = (0..2531)
            .map(|_| {
                state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                b"ACGT"[(state >> 24) as usize % 4]
            })
            .collect();
        let patterns =
            vec![b"AC".to_vec(), b"ACGT".to_vec(), b"T".to_vec(), b"TTTT".to_vec(), vec![0u8]];
        for block in [8usize, 64] {
            let s =
                InMemoryStore::from_body_inferred(&body).unwrap().with_block_size(block).unwrap();
            let fast = collect_occurrences(&s, &patterns).unwrap();
            let slow = collect_occurrences_scalar(&s, &patterns).unwrap();
            assert_eq!(fast, slow, "block {block}");
        }
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
