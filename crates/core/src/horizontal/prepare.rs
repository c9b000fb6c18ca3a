//! Algorithm `SubTreePrepare` (§4.2.2): the string+memory-optimised variant.
//!
//! For every S-prefix `p` of a virtual tree the algorithm computes:
//!
//! * `L` — the occurrences of `p` (the leaves of `T_p`) reordered so that the
//!   corresponding suffixes are lexicographically sorted, and
//! * `B` — for each adjacent pair of leaves the triplet
//!   `(c1, c2, offset)` describing where and how their branches separate.
//!
//! The string is read in strictly sequential passes; in each pass every
//! still-active suffix fetches the next `range` symbols (the elastic range
//! grows as suffixes become inactive). Sub-trees grouped into the same
//! virtual tree share each pass: their read requests are merged into a single
//! ascending stream so the I/O cost is amortised (§4.1).
//!
//! # Memory of the phase
//!
//! While this module runs, no tree node of the group exists yet, so `R` is
//! what [`MemoryLayout::r_bytes`](crate::config::MemoryLayout::r_bytes) says
//! it is — the dedicated read-ahead buffer plus the idle sub-tree area — and
//! it is held as exactly that: one flat byte arena per virtual tree,
//! allocated once, cut into `active` records of `r_capacity / active` bytes
//! each round. Record `k` holds the symbols of the `k`-th read request of the
//! pass (in string order) as the store's own codes — `w` =
//! [`StringStore::code_bits`] bits each: 8 on a raw store, where a record is
//! the symbols' bytes, 2 for packed DNA and 5 for packed protein and English
//! (§6.1) — copied once out of the window of a code-mode [`BlockCursor`]
//! with nothing decoded. So the same bytes hold a range of
//! ⌊8 · bytes / w⌋ symbols: ≈ 4× the raw range on DNA and 1.6× on protein,
//! and as many fewer passes. `R[slot]` of the paper is the 4-byte number of
//! the slot's record. Next to `R` live the arrays of the processing area
//! (`L`, `B`, `I`, `A`, `P`) and the pass's request list; all of it is
//! dropped when the group's `L`/`B` are handed to `BuildSubTree`, which then
//! has the sub-tree area to itself.
//!
//! # Comparing codes
//!
//! Codes are dense and order-preserving, so two records are ordered by their
//! codes at the first symbol where they differ. The terminal has no code in a
//! packed payload; it is out of band here too: a read's length is what the
//! read returned, and where one read ends before the two differ, its suffix
//! is the smaller.
//!
//! * Each read carries a key, its first ⌊64 / w⌋ symbols (32 DNA, 12
//!   protein) as one number in their order. Sorting an area compares keys,
//!   and only reads whose keys tie — repeats — are compared further; where
//!   two keys differ, their highest differing bit is the first differing
//!   symbol.
//! * Two records are scanned with one XOR per 8 bytes — 8 raw, 32 DNA or 12
//!   protein symbols — and the lowest set bit divided by `w` is the first
//!   differing symbol.

use era_string_store::{BlockCursor, StoreResult, StringStore, TERMINAL};
use era_suffix_tree::assemble::Branching;

use super::HorizontalParams;

/// Marker for completed entries in the auxiliary arrays.
const DONE: u32 = u32::MAX;

/// The output of `SubTreePrepare` for one S-prefix: everything `BuildSubTree`
/// needs, and nothing else.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PreparedSubTree {
    /// The S-prefix `p`.
    pub prefix: Vec<u8>,
    /// `L`: leaf positions in lexicographic order of their suffixes.
    pub leaves: Vec<u32>,
    /// `B`: branching information between adjacent leaves
    /// (`branching.len() == leaves.len() - 1`).
    pub branching: Vec<Branching>,
}

/// The read-ahead buffer `R` of one virtual tree: a flat arena cut, every
/// round anew, into one record per read request, each `range` codes of
/// `bits` bits from bit 0 on, in `stride` bytes.
///
/// A request that is clamped at the end of the string fills only the front of
/// its record. What follows (older rounds' codes, or zeros) never decides a
/// comparison: every comparison stops at the shorter record's end.
struct ReadAhead {
    bytes: Vec<u8>,
    /// Length of the string, terminal included.
    text_len: usize,
    /// Bits per code: the store's [`StringStore::code_bits`].
    bits: u32,
    /// Symbols per record in the current round.
    range: usize,
    /// Bytes per record in the current round.
    stride: usize,
    /// Code → symbol: the alphabet on a packed store, the identity on a raw
    /// one. The width cannot tell the two apart: a packed alphabet of more
    /// than 128 symbols takes 8 bits as well.
    symbols: [u8; 256],
}

/// One read of a round as the comparisons see it.
#[derive(Clone, Copy)]
struct Read {
    /// Its sort key ([`ReadAhead::key`]).
    key: u64,
    /// The record it was copied to.
    record: u32,
    /// How many codes of the record are the suffix's own symbols: fewer than
    /// the range where the read reached the terminal, which then sits right
    /// after them.
    len: u32,
}

/// Where two reads of one round first differ: the symbol index, and each
/// side's symbol there as a rank — 0 for the terminal, `code + 1` otherwise.
type Divergence = (usize, u16, u16);

impl ReadAhead {
    fn new(store: &dyn StringStore) -> Self {
        let mut symbols: [u8; 256] = std::array::from_fn(|code| code as u8);
        if store.is_packed() {
            symbols.fill(TERMINAL);
            symbols[..store.alphabet().len()].copy_from_slice(store.alphabet().symbols());
        }
        ReadAhead {
            bytes: Vec::new(),
            text_len: store.len(),
            bits: store.code_bits(),
            range: 0,
            stride: 0,
            symbols,
        }
    }

    fn record(&self, k: u32) -> &[u8] {
        &self.bytes[k as usize * self.stride..][..self.stride]
    }

    /// The read of `len` symbols copied to `record`.
    fn read(&self, record: u32, len: usize) -> Read {
        Read { key: self.key(record, len), record, len: len as u32 }
    }

    /// The code of symbol `i` of `record`.
    fn code(&self, record: &[u8], i: usize) -> u8 {
        let bit = i * self.bits as usize;
        let byte = |at: usize| record.get(at).copied().unwrap_or(0) as u16;
        let pair = byte(bit / 8) | byte(bit / 8 + 1) << 8;
        ((pair >> (bit % 8)) & ((1 << self.bits) - 1)) as u8
    }

    /// The sort key of the read of `len` symbols in `record`: its first
    /// ⌊64 / w⌋ symbols — 32 for DNA, 12 for protein, 8 raw — as one number
    /// in their order, code `i` in the `w` bits below bit `64 − w·i`, with
    /// zeros from the read's end on. Where two keys differ, their reads
    /// differ the same way, the one that ends first being the smaller; the
    /// highest differing bit tells the first differing symbol.
    #[expect(clippy::disallowed_methods, reason = "decodes in-memory R codes, not artifact bytes")]
    fn key(&self, record: u32, len: usize) -> u64 {
        let w = self.bits as usize;
        let codes = len.min(64 / w);
        let record = self.record(record);
        let mut head = [0u8; 8];
        let n = record.len().min(8);
        head[..n].copy_from_slice(&record[..n]);
        let x = u64::from_le_bytes(head);
        let mask = (1u64 << w) - 1;
        (0..codes).fold(0, |key, i| key | (x >> (w * i) & mask) << (64 - w * (i + 1)))
    }

    /// The symbol of a [`Divergence`] rank.
    fn symbol(&self, rank: u16) -> u8 {
        rank.checked_sub(1).map_or(TERMINAL, |code| self.symbols[code as usize])
    }

    /// Compares two reads of this round: `None` if they agree on all `range`
    /// symbols, else where and how they diverge — where they first differ
    /// or one of them ends. Where their keys differ, the keys tell where;
    /// else the records are scanned from the start.
    fn diverge(&self, a: Read, b: Read) -> Option<Divergence> {
        debug_assert!(
            a.len != b.len || a.len as usize == self.range,
            "two suffixes end at one offset"
        );
        let w = self.bits as usize;
        let diff = a.key ^ b.key;
        let first = if diff != 0 {
            diff.leading_zeros() as usize / w
        } else {
            first_difference(self.record(a.record), self.record(b.record))
                .map_or(self.range, |bit| bit / w)
        };
        let at = first.min(self.range).min(a.len as usize).min(b.len as usize);
        let rank = |read: Read| {
            if at == read.len as usize {
                0
            } else {
                self.code(self.record(read.record), at) as u16 + 1
            }
        };
        (at < self.range).then(|| (at, rank(a), rank(b)))
    }

    /// The order of two reads of this round; equal reads stay one area.
    /// Their keys decide where they differ, and [`Self::diverge`] where they
    /// tie.
    #[inline]
    fn order(&self, a: Read, b: Read) -> std::cmp::Ordering {
        a.key.cmp(&b.key).then_with(|| self.order_by_codes(a, b))
    }

    /// The order of two reads by their codes where they first differ.
    fn order_by_codes(&self, a: Read, b: Read) -> std::cmp::Ordering {
        self.diverge(a, b).map_or(std::cmp::Ordering::Equal, |(_, left, right)| left.cmp(&right))
    }

    /// Checks two reads that a sort left adjacent, `a` first, against a
    /// plain compare: [`Self::order`] and [`Self::diverge`] must agree with
    /// it on their order and on the index of their divergence, and `a` must
    /// not be the greater. Up to the claimed divergence the two records must
    /// hold the same bits (one code per symbol, so the same symbols); there,
    /// the decoded symbols — the terminal right after a read that ends —
    /// must differ and decide the order.
    #[cfg(feature = "paranoid")]
    fn cross_check(&self, a: Read, b: Read) {
        let divergence = self.diverge(a, b);
        let at = divergence.map_or(self.range, |(at, ..)| at);
        let (record_a, record_b) = (self.record(a.record), self.record(b.record));
        let bits = at * self.bits as usize;
        let tail = (1u16 << (bits % 8)) - 1;
        let byte = |record: &[u8]| u16::from(record.get(bits / 8).copied().unwrap_or(0));
        assert!(
            record_a[..bits / 8] == record_b[..bits / 8]
                && (byte(record_a) ^ byte(record_b)) & tail == 0,
            "the reads differ before their divergence index"
        );
        let symbol = |read: Read, record: &[u8]| {
            let len = read.len as usize;
            if at < len {
                Some(self.symbols[self.code(record, at) as usize])
            } else {
                (at == len && len < self.range).then_some(TERMINAL)
            }
        };
        let (x, y) = (symbol(a, record_a), symbol(b, record_b));
        assert!(x != y || x.is_none(), "the reads agree at their divergence index");
        let decoded = x.cmp(&y);
        let order =
            divergence.map_or(std::cmp::Ordering::Equal, |(_, left, right)| left.cmp(&right));
        assert_eq!(order, decoded, "divergence order differs from the decoded compare");
        assert_eq!(self.order(a, b), decoded, "sort order differs from the decoded compare");
        assert_ne!(decoded, std::cmp::Ordering::Greater, "a sorted area is out of order");
    }
}

/// `(R, P, L)` of the slots of one active area, `R` as its [`Read`], while
/// the area is sorted and its `B` entries are defined; reused across areas,
/// prefixes and rounds.
type AreaScratch = Vec<(Read, u32, u32)>;

/// Mutable state of `SubTreePrepare` for one S-prefix (the arrays
/// `L`, `B`, `I`, `A`, `R`, `P` of the paper).
struct PrepareState {
    prefix: Vec<u8>,
    /// `L[slot]` — occurrence position currently stored at `slot`.
    l: Vec<u32>,
    /// `B[i]` — branching between slots `i-1` and `i` (index 0 unused).
    b: Vec<Option<Branching>>,
    /// `I[j]` — current slot of the `j`-th occurrence (string order), or
    /// `DONE`.
    i_idx: Vec<u32>,
    /// `A[slot]` — active-area id, or `DONE`.
    a: Vec<u32>,
    /// `P[slot]` — which string-order occurrence sits at `slot`.
    p: Vec<u32>,
    /// `R[slot]` — the record of the group's [`ReadAhead`] arena holding the
    /// codes read for `slot` in the current iteration (meaningless once the
    /// slot is done).
    r: Vec<u32>,
    /// Symbols of the suffix consumed so far (`start` in the paper; begins at
    /// `|p|`).
    start: u32,
    /// Next fresh active-area id.
    next_area: u32,
    /// Number of slots that are still active.
    active: usize,
    /// Number of `B` entries still undefined.
    undefined_b: usize,
}

impl PrepareState {
    fn new(prefix: Vec<u8>, occurrences: &[u32]) -> Self {
        let n = occurrences.len();
        PrepareState {
            start: prefix.len() as u32,
            prefix,
            l: occurrences.to_vec(),
            b: vec![None; n],
            i_idx: (0..n as u32).collect(),
            a: vec![0; n],
            p: (0..n as u32).collect(),
            r: vec![0; n],
            next_area: 1,
            active: n,
            undefined_b: n.saturating_sub(1),
        }
    }

    fn finished(&self) -> bool {
        self.undefined_b == 0
    }

    fn mark_done(&mut self, slot: usize) {
        if self.a[slot] != DONE {
            self.a[slot] = DONE;
            self.i_idx[self.p[slot] as usize] = DONE;
            self.active -= 1;
        }
    }

    /// Emits the pending read requests `(position, slot)` of this prefix for
    /// the current iteration, in ascending string order.
    fn pending_reads(&self) -> impl Iterator<Item = (usize, u32)> + '_ {
        self.i_idx.iter().filter(|&&slot| slot != DONE).map(move |&slot| {
            let pos = self.l[slot as usize] as usize + self.start as usize;
            (pos, slot)
        })
    }

    /// One round of reordering + `B` computation after `R` has been filled
    /// with the codes of `r.range` symbols per active slot (lines 13–24 of
    /// the paper).
    ///
    /// An active area is a maximal run of slots whose suffixes have been
    /// equal so far, so the undefined entries of `B` are exactly the adjacent
    /// pairs *inside* active areas. One comparison per such pair, after the
    /// area is sorted, therefore does both jobs of the round: where the two
    /// records differ it defines `B` (lines 16–23), where they are equal the
    /// pair stays in one run, and the runs of two or more slots are the new
    /// active areas (line 15).
    fn process_round(&mut self, r: &ReadAhead, scratch: &mut AreaScratch) {
        let n = self.l.len();
        let mut slot = 0usize;
        while slot < n {
            if self.a[slot] == DONE {
                slot += 1;
                continue;
            }
            let area = self.a[slot];
            let mut end = slot + 1;
            while end < n && self.a[end] == area {
                end += 1;
            }
            // --- Lines 13-14: order the area by what was read. ---
            self.sort_area(slot, end, r, scratch);
            // --- Lines 15-23: in ascending order, so that a slot is marked
            // done by whichever of its two `B` entries is defined last. ---
            let mut run_start = slot;
            for i in slot + 1..end {
                let (left, right) = (scratch[i - 1 - slot].0, scratch[i - slot].0);
                let Some((cs, left, right)) = r.diverge(left, right) else {
                    continue;
                };
                self.b[i] = Some(Branching {
                    left_char: r.symbol(left),
                    right_char: r.symbol(right),
                    lcp: self.start + cs as u32,
                });
                self.undefined_b -= 1;
                if i == 1 || self.b[i - 1].is_some() {
                    self.mark_done(i - 1);
                }
                if i == n - 1 || self.b[i + 1].is_some() {
                    self.mark_done(i);
                }
                self.open_area(run_start, i);
                run_start = i;
            }
            self.open_area(run_start, end);
            slot = end;
        }
        #[cfg(feature = "paranoid")]
        assert_eq!(
            self.undefined_b,
            self.b.iter().skip(1).filter(|b| b.is_none()).count(),
            "every pair left undefined lies inside a new active area"
        );

        self.start += r.range as u32;
    }

    /// This round's read of `slot`.
    #[inline]
    fn read(&self, slot: usize, r: &ReadAhead) -> Read {
        // The symbols before the terminal: `range`, or what was left of them.
        let position = self.l[slot] as usize + self.start as usize;
        r.read(self.r[slot], (r.text_len - 1).saturating_sub(position).min(r.range))
    }

    /// Sorts slots `[lo, hi)` (one active area) so that `R` is
    /// lexicographically ordered, reordering `R`, `P`, `L` together and
    /// updating `I`; `scratch` is left holding the area in that order.
    /// Suffixes with equal records stay one area and are told apart in a
    /// later round, so their order here is immaterial.
    fn sort_area(&mut self, lo: usize, hi: usize, r: &ReadAhead, scratch: &mut AreaScratch) {
        scratch.clear();
        scratch.extend((lo..hi).map(|slot| (self.read(slot, r), self.p[slot], self.l[slot])));
        scratch.sort_unstable_by(|x, y| r.order(x.0, y.0));
        // One check per adjacent pair of the sorted area, not per comparison
        // of the sort: sortedness is a property of neighbours.
        #[cfg(feature = "paranoid")]
        for pair in scratch.windows(2) {
            r.cross_check(pair[0].0, pair[1].0);
        }
        for (slot, &(read, occurrence, position)) in (lo..hi).zip(scratch.iter()) {
            self.r[slot] = read.record;
            self.p[slot] = occurrence;
            self.l[slot] = position;
            self.i_idx[occurrence as usize] = slot as u32;
        }
    }

    /// Makes the run `[lo, hi)` of equal records a new active area (line 15);
    /// a single slot is no area, its two `B` entries are defined.
    fn open_area(&mut self, lo: usize, hi: usize) {
        if hi - lo >= 2 {
            self.a[lo..hi].fill(self.next_area);
            self.next_area += 1;
        }
    }

    #[expect(clippy::expect_used, reason = "B is fully defined once preparation finishes")]
    fn into_prepared(self) -> PreparedSubTree {
        PreparedSubTree {
            prefix: self.prefix,
            leaves: self.l,
            branching: self.b.into_iter().skip(1).map(|b| b.expect("B fully defined")).collect(),
        }
    }
}

/// The first bit at which two records of one round (equal lengths) differ,
/// eight bytes per comparison; `None` if they are equal.
#[expect(clippy::disallowed_methods, reason = "compares in-memory records, not artifact bytes")]
fn first_difference(a: &[u8], b: &[u8]) -> Option<usize> {
    debug_assert_eq!(a.len(), b.len());
    let ((a_words, a_tail), (b_words, b_tail)) = (a.as_chunks::<8>(), b.as_chunks::<8>());
    for (k, (x, y)) in a_words.iter().zip(b_words).enumerate() {
        let diff = u64::from_le_bytes(*x) ^ u64::from_le_bytes(*y);
        if diff != 0 {
            return Some(64 * k + diff.trailing_zeros() as usize);
        }
    }
    let (k, diff) =
        a_tail.iter().zip(b_tail).map(|(x, y)| x ^ y).enumerate().find(|&(_, d)| d != 0)?;
    Some(64 * a_words.len() + 8 * k + diff.trailing_zeros() as usize)
}

/// Runs `SubTreePrepare` for every prefix of a virtual tree, sharing each
/// sequential pass over the string across the whole group.
///
/// `occurrences[i]` must list the positions of `prefixes[i]` in string order.
pub fn prepare_group(
    store: &dyn StringStore,
    prefixes: &[Vec<u8>],
    occurrences: &[Vec<u32>],
    params: &HorizontalParams,
) -> StoreResult<Vec<PreparedSubTree>> {
    assert_eq!(prefixes.len(), occurrences.len());
    let text_len = store.len();
    let mut states: Vec<PrepareState> = prefixes
        .iter()
        .zip(occurrences.iter())
        .map(|(p, occ)| PrepareState::new(p.clone(), occ))
        .collect();
    let mut r = ReadAhead::new(store);
    let mut requests: Vec<(usize, u32, u32)> = Vec::new(); // (pos, state idx, slot)
    let mut scratch = AreaScratch::new();

    while !states.iter().all(|s| s.finished()) {
        let active: usize = states.iter().filter(|s| !s.finished()).map(|s| s.active).sum();
        // No suffix is longer than the string, whatever a fixed range or a
        // roomy R would allow.
        r.range = params.range_symbols(active, r.bits).min(text_len);
        r.stride = (r.range * r.bits as usize).div_ceil(8);
        if r.bytes.is_empty() {
            // `R` as the layout grants it; more only where `min_range` or a
            // fixed range ask for more than that. The number of active
            // suffixes never grows, so the first round's need bounds them all.
            r.bytes = vec![0; params.r_capacity.max(active * r.stride)];
        }
        #[cfg(feature = "paranoid")]
        assert!(
            active * r.stride <= r.bytes.len(),
            "{active} records of {} bytes overflow an R of {} bytes",
            r.stride,
            r.bytes.len()
        );

        // Merge the read requests of all unfinished prefixes into one
        // ascending stream and serve them with a single sequential scan.
        requests.clear();
        for (si, state) in states.iter().enumerate().filter(|(_, s)| !s.finished()) {
            requests.extend(state.pending_reads().map(|(pos, slot)| (pos, si as u32, slot)));
        }
        requests.sort_unstable_by_key(|&(pos, _, _)| pos);

        let mut cursor = BlockCursor::new_codes(store, params.seek_optimization);
        for (k, &(pos, si, slot)) in requests.iter().enumerate() {
            cursor.codes(pos, r.range, &mut r.bytes[k * r.stride..][..r.stride])?;
            states[si as usize].r[slot as usize] = k as u32;
        }

        for state in states.iter_mut().filter(|s| !s.finished()) {
            state.process_round(&r, &mut scratch);
        }
    }

    Ok(states.into_iter().map(|s| s.into_prepared()).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RangePolicy;
    use era_string_store::{Alphabet, InMemoryStore};

    fn params(r_capacity: usize, policy: RangePolicy) -> HorizontalParams {
        HorizontalParams {
            r_capacity,
            range_policy: policy,
            min_range: 1,
            seek_optimization: false,
        }
    }

    fn occurrences_of(text: &[u8], prefix: &[u8]) -> Vec<u32> {
        (0..text.len()).filter(|&i| text[i..].starts_with(prefix)).map(|i| i as u32).collect()
    }

    /// The worked example of the paper (§4.2.2, Traces 1–3): prefix TG of the
    /// string in Figure 2 with a fixed range of 4 symbols.
    #[test]
    fn paper_trace_tg() {
        let body = b"TGGTGGTGGTGCGGTGATGGTGC";
        let store = InMemoryStore::from_body(body, Alphabet::dna()).unwrap();
        let text: Vec<u8> = {
            let mut t = body.to_vec();
            t.push(0);
            t
        };
        let occ = occurrences_of(&text, b"TG");
        assert_eq!(occ, vec![0, 3, 6, 9, 14, 17, 20]);
        let out =
            prepare_group(&store, &[b"TG".to_vec()], &[occ], &params(1024, RangePolicy::Fixed(4)))
                .unwrap();
        let prepared = &out[0];
        // Final L of Trace 3 (the paper sorts the terminal *after* the
        // letters; with the conventional terminal-first order the two suffixes
        // TGC$ (20) and TGCGG... (9) swap, as do TGGTGC$ (17)/TGGTGG (0,3)
        // groups — the overall lexicographic order with $ smallest is:
        assert_eq!(prepared.leaves, vec![14, 20, 9, 17, 6, 3, 0]);
        // B offsets are the pairwise LCPs of adjacent suffixes.
        let lcps: Vec<u32> = prepared.branching.iter().map(|b| b.lcp).collect();
        assert_eq!(lcps, vec![2, 3, 2, 6, 5, 8]);
        // And the diverging characters match the text.
        for (i, b) in prepared.branching.iter().enumerate() {
            let left = prepared.leaves[i] + b.lcp;
            let right = prepared.leaves[i + 1] + b.lcp;
            assert_eq!(b.left_char, text[left as usize]);
            assert_eq!(b.right_char, text[right as usize]);
        }
    }

    #[test]
    fn prepared_leaves_are_lexicographically_sorted() {
        let body = b"GATTACAGATTACAGGATCCGATTACA";
        let store = InMemoryStore::from_body(body, Alphabet::dna()).unwrap();
        let text: Vec<u8> = {
            let mut t = body.to_vec();
            t.push(0);
            t
        };
        for prefix in [&b"GA"[..], b"A", b"T", b"GATTACA"] {
            let occ = occurrences_of(&text, prefix);
            if occ.is_empty() {
                continue;
            }
            for policy in [RangePolicy::Elastic, RangePolicy::Fixed(3), RangePolicy::Fixed(16)] {
                let out = prepare_group(
                    &store,
                    &[prefix.to_vec()],
                    std::slice::from_ref(&occ),
                    &params(64, policy),
                )
                .unwrap();
                let leaves = &out[0].leaves;
                for w in leaves.windows(2) {
                    assert!(
                        text[w[0] as usize..] < text[w[1] as usize..],
                        "prefix {prefix:?} policy {policy:?}"
                    );
                }
                // LCP values are correct.
                for (i, b) in out[0].branching.iter().enumerate() {
                    let a = &text[leaves[i] as usize..];
                    let c = &text[leaves[i + 1] as usize..];
                    let expected =
                        a.iter().zip(c.iter()).take_while(|(x, y)| x == y).count() as u32;
                    assert_eq!(b.lcp, expected);
                }
            }
        }
    }

    #[test]
    fn grouped_prefixes_share_scans() {
        let body = b"GATTACAGATTACAGGATCCGATTACA";
        let store_grouped = InMemoryStore::from_body(body, Alphabet::dna()).unwrap();
        let store_single = InMemoryStore::from_body(body, Alphabet::dna()).unwrap();
        let text: Vec<u8> = {
            let mut t = body.to_vec();
            t.push(0);
            t
        };
        let prefixes = vec![b"GA".to_vec(), b"TT".to_vec(), b"C".to_vec()];
        let occs: Vec<Vec<u32>> = prefixes.iter().map(|p| occurrences_of(&text, p)).collect();

        let p = params(32, RangePolicy::Fixed(4));
        let grouped = prepare_group(&store_grouped, &prefixes, &occs, &p).unwrap();
        let grouped_scans = store_grouped.stats().snapshot().full_scans;

        let mut single_results = Vec::new();
        for (prefix, occ) in prefixes.iter().zip(occs.iter()) {
            let out = prepare_group(
                &store_single,
                std::slice::from_ref(prefix),
                std::slice::from_ref(occ),
                &p,
            )
            .unwrap();
            single_results.extend(out);
        }
        let single_scans = store_single.stats().snapshot().full_scans;

        // Identical results, fewer scans when grouped.
        assert_eq!(grouped, single_results);
        assert!(grouped_scans < single_scans, "grouped {grouped_scans} vs single {single_scans}");
    }

    /// Periodic texts keep runs of equal records alive round after round (and
    /// clamp the reads of the suffixes near the end): `L`, `B.lcp` and the
    /// branching symbols of a three-prefix group against the suffix array.
    #[test]
    fn periodic_texts_match_the_suffix_array_oracle() {
        use era_suffix_array::{lcp_kasai, suffix_array};
        let cases: [(&[u8], [&[u8]; 3]); 2] =
            [(b"AC", [b"A", b"CA", b"ACAC"]), (b"GATTACAGGATCCAACGTT", [b"GATTACA", b"C", b"TT"])];
        for (unit, prefixes) in cases {
            let body: Vec<u8> = unit.iter().copied().cycle().take(230).collect();
            let text = [&body[..], &[0]].concat();
            let sa = suffix_array(&text);
            let lcp = lcp_kasai(&text, &sa);
            let prefixes: Vec<Vec<u8>> = prefixes.iter().map(|p| p.to_vec()).collect();
            let occs: Vec<Vec<u32>> = prefixes.iter().map(|p| occurrences_of(&text, p)).collect();
            for policy in [
                RangePolicy::Elastic,
                RangePolicy::Fixed(1),
                RangePolicy::Fixed(3),
                RangePolicy::Fixed(16),
            ] {
                let store = InMemoryStore::from_body(&body, Alphabet::dna()).unwrap();
                let out = prepare_group(&store, &prefixes, &occs, &params(256, policy)).unwrap();
                assert!(store.stats().snapshot().full_scans >= 3, "{policy:?}: equal runs survive");
                for (prefix, prepared) in prefixes.iter().zip(&out) {
                    // The suffixes below one prefix are one stretch of the
                    // suffix array, so its LCP entries are theirs.
                    let ranks: Vec<usize> = (0..sa.len())
                        .filter(|&i| text[sa[i] as usize..].starts_with(prefix))
                        .collect();
                    let leaves: Vec<u32> = ranks.iter().map(|&i| sa[i]).collect();
                    assert_eq!(prepared.leaves, leaves, "{policy:?} {prefix:?}");
                    for (k, b) in prepared.branching.iter().enumerate() {
                        let (left, right) = (leaves[k] + b.lcp, leaves[k + 1] + b.lcp);
                        assert_eq!(b.lcp, lcp[ranks[k + 1]], "{policy:?} {prefix:?} pair {k}");
                        assert_eq!(b.left_char, text[left as usize]);
                        assert_eq!(b.right_char, text[right as usize]);
                    }
                }
            }
        }
    }

    #[test]
    fn single_occurrence_prefix() {
        let body = b"ACGTACGA";
        let store = InMemoryStore::from_body(body, Alphabet::dna()).unwrap();
        let out =
            prepare_group(&store, &[b"GA".to_vec()], &[vec![6]], &params(16, RangePolicy::Elastic))
                .unwrap();
        assert_eq!(out[0].leaves, vec![6]);
        assert!(out[0].branching.is_empty());
    }

    #[test]
    fn elastic_range_uses_fewer_scans_than_small_fixed_range() {
        // A genome-like string with long repeats keeps areas active for many
        // iterations; the elastic range needs far fewer passes.
        let body: Vec<u8> = {
            let unit = b"GATTACAGGATCCAACGTT";
            let mut s: Vec<u8> = Vec::new();
            while s.len() < 4000 {
                s.extend_from_slice(unit);
            }
            s.truncate(4000);
            s
        };
        let text: Vec<u8> = {
            let mut t = body.clone();
            t.push(0);
            t
        };
        let occ = occurrences_of(&text, b"GATTACA");

        let store_elastic = InMemoryStore::from_body(&body, Alphabet::dna()).unwrap();
        let store_fixed = InMemoryStore::from_body(&body, Alphabet::dna()).unwrap();
        let elastic = prepare_group(
            &store_elastic,
            &[b"GATTACA".to_vec()],
            std::slice::from_ref(&occ),
            &params(4096, RangePolicy::Elastic),
        )
        .unwrap();
        let fixed = prepare_group(
            &store_fixed,
            &[b"GATTACA".to_vec()],
            std::slice::from_ref(&occ),
            &params(4096, RangePolicy::Fixed(8)),
        )
        .unwrap();
        assert_eq!(elastic, fixed, "policies must agree on the result");
        let scans_elastic = store_elastic.stats().snapshot().full_scans;
        let scans_fixed = store_fixed.stats().snapshot().full_scans;
        assert!(
            scans_elastic < scans_fixed,
            "elastic {scans_elastic} should need fewer scans than fixed {scans_fixed}"
        );
    }
}
