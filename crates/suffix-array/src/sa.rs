//! Suffix array construction by induced sorting (SA-IS).
//!
//! Nong, Zhang and Chan, "Two efficient algorithms for linear time suffix
//! array construction" (IEEE TC 2011). One routine, [`sais`], is generic over
//! the symbol type: level 0 reads the byte text directly with 256 buckets, and
//! each reduced level reads the names of the level above as `u32`s. The end of
//! the string is a virtual sentinel smaller than every symbol, so any byte
//! string — embedded `0`s, no terminal, empty — is sorted exactly as
//! `text[i..].cmp(&text[j..])` would sort it.
//!
//! `O(n)` time. Beyond the text and the returned array the work space is one
//! bit of L/S type per symbol and level and one bucket array per level: the
//! reduced string and its suffix array share the output buffer (`n1 ≤ n/2`).
//! On a 64 MiB genome-like text the build takes about 14 s and peaks at
//! 5.4 bytes per symbol, text and output included (`tests/scale.rs`).
//!
//! [`is_suffix_array`] checks a result in `O(n)` and shares no code with the
//! builder; [`suffix_array_naive`] is the oracle of the oracle.

/// A slot of the suffix-array buffer that holds no suffix yet.
const EMPTY: u32 = u32::MAX;

/// A symbol of one SA-IS level: a byte of the text, or the name of an LMS
/// substring of the level above.
trait Symbol: Copy + Ord {
    /// The symbol's bucket, `0..alphabet`.
    fn bucket(self) -> usize;
}

impl Symbol for u8 {
    fn bucket(self) -> usize {
        usize::from(self)
    }
}

impl Symbol for u32 {
    fn bucket(self) -> usize {
        self as usize
    }
}

/// Builds the suffix array of `text`: its suffix offsets in lexicographic
/// order, a shorter suffix before every suffix it is a proper prefix of.
///
/// # Panics
///
/// If `text` has `u32::MAX` bytes or more.
pub fn suffix_array(text: &[u8]) -> Vec<u32> {
    assert!(
        text.len() < u32::MAX as usize,
        "suffix_array: a text of {} bytes does not fit u32 offsets",
        text.len()
    );
    let mut sa = vec![EMPTY; text.len()];
    sais(text, &mut sa, 256);
    sa
}

/// L/S types, one bit per position; a set bit is S-type (the suffix is smaller
/// than the one after it).
struct Types(Vec<u64>);

impl Types {
    fn classify<S: Symbol>(s: &[S]) -> Types {
        let mut bits = vec![0u64; s.len().div_ceil(64)];
        // The last suffix is L-type: the virtual sentinel after it is smaller.
        let mut next_is_s = false;
        for i in (0..s.len().saturating_sub(1)).rev() {
            next_is_s = s[i] < s[i + 1] || (s[i] == s[i + 1] && next_is_s);
            if next_is_s {
                bits[i / 64] |= 1 << (i % 64);
            }
        }
        Types(bits)
    }

    fn is_s(&self, i: usize) -> bool {
        self.0[i / 64] >> (i % 64) & 1 == 1
    }

    /// Leftmost-S: an S-type position right after an L-type one.
    fn is_lms(&self, i: usize) -> bool {
        i > 0 && self.is_s(i) && !self.is_s(i - 1)
    }
}

/// Writes into `sa` (`sa.len() == s.len()`) the suffix array of `s`, whose
/// symbols are all below `alphabet`.
fn sais<S: Symbol>(s: &[S], sa: &mut [u32], alphabet: usize) {
    let n = s.len();
    match n {
        0 => return,
        1 => {
            sa[0] = 0;
            return;
        }
        _ => {}
    }
    let types = Types::classify(s);
    let mut bkt = vec![0u32; alphabet];

    // Stage 1: every LMS position at the tail of its bucket, in any order;
    // one induction then sorts the LMS substrings.
    sa.fill(EMPTY);
    bucket_bounds(s, &mut bkt, true);
    for (i, &c) in s.iter().enumerate() {
        if types.is_lms(i) {
            let c = c.bucket();
            bkt[c] -= 1;
            sa[bkt[c] as usize] = i as u32;
        }
    }
    induce(s, &types, sa, &mut bkt);

    // The sorted LMS positions move to `sa[..n1]`. No two are adjacent and
    // neither end of the text is one, so `n1 < n / 2`.
    let mut n1 = 0;
    for i in 0..n {
        let p = sa[i];
        if p != EMPTY && types.is_lms(p as usize) {
            sa[n1] = p;
            n1 += 1;
        }
    }

    // Name the LMS substrings in sorted order, equal substrings alike. A name
    // is parked at `n1 + p / 2` (distinct, since LMS positions are at least
    // two apart), then the names move to the tail in text order: the reduced
    // string.
    sa[n1..].fill(EMPTY);
    let mut names = 0u32;
    for i in 0..n1 {
        let p = sa[i] as usize;
        if i == 0 || !lms_substrings_equal(s, &types, sa[i - 1] as usize, p) {
            names += 1;
        }
        sa[n1 + p / 2] = names - 1;
    }
    let mut j = n;
    for i in (n1..n).rev() {
        if sa[i] != EMPTY {
            j -= 1;
            sa[j] = sa[i];
        }
    }

    // Stage 2: the suffix array of the reduced string, in the head of `sa`.
    let (head, reduced) = sa.split_at_mut(n - n1);
    let sa1 = &mut head[..n1];
    if (names as usize) < n1 {
        sais::<u32>(reduced, sa1, names as usize);
    } else {
        for (i, &name) in reduced.iter().enumerate() {
            sa1[name as usize] = i as u32;
        }
    }

    // Stage 3: the reduced string's tail becomes the LMS positions in text
    // order, so the reduced suffix array maps to the sorted LMS suffixes.
    let mut j = 0;
    for i in 1..n {
        if types.is_lms(i) {
            reduced[j] = i as u32;
            j += 1;
        }
    }
    for r in sa1.iter_mut() {
        *r = reduced[*r as usize];
    }
    sa[n1..].fill(EMPTY);
    // Each sorted LMS suffix goes to its bucket's tail, the last first; its
    // slot is never left of where it came from.
    bucket_bounds(s, &mut bkt, true);
    for i in (0..n1).rev() {
        let p = sa[i];
        sa[i] = EMPTY;
        let c = s[p as usize].bucket();
        bkt[c] -= 1;
        sa[bkt[c] as usize] = p;
    }
    induce(s, &types, sa, &mut bkt);
}

/// Sets `bkt[c]` to the first slot of bucket `c`, or with `ends` to one past
/// its last.
fn bucket_bounds<S: Symbol>(s: &[S], bkt: &mut [u32], ends: bool) {
    bkt.fill(0);
    for &c in s {
        bkt[c.bucket()] += 1;
    }
    let mut sum = 0;
    for b in bkt.iter_mut() {
        let count = *b;
        *b = if ends { sum + count } else { sum };
        sum += count;
    }
}

/// Induces the order of the L-type suffixes from the LMS suffixes in `sa`
/// (left to right, into bucket heads), then that of the S-type suffixes from
/// the L-type ones (right to left, into bucket tails).
fn induce<S: Symbol>(s: &[S], types: &Types, sa: &mut [u32], bkt: &mut [u32]) {
    let n = s.len();
    bucket_bounds(s, bkt, false);
    // The virtual sentinel is the smallest suffix; it induces `n - 1`, which
    // is always L-type.
    let last = s[n - 1].bucket();
    sa[bkt[last] as usize] = (n - 1) as u32;
    bkt[last] += 1;
    for i in 0..n {
        let j = sa[i];
        if j != EMPTY && j > 0 && !is_s_before(s, types, j as usize) {
            let c = s[j as usize - 1].bucket();
            sa[bkt[c] as usize] = j - 1;
            bkt[c] += 1;
        }
    }
    bucket_bounds(s, bkt, true);
    for i in (0..n).rev() {
        let j = sa[i];
        if j != EMPTY && j > 0 && is_s_before(s, types, j as usize) {
            let c = s[j as usize - 1].bucket();
            bkt[c] -= 1;
            sa[bkt[c] as usize] = j - 1;
        }
    }
}

/// The type of `j - 1`, read from the type bits only when `s[j - 1] == s[j]`:
/// the symbol pair sits in one cache line, the bit usually does not.
fn is_s_before<S: Symbol>(s: &[S], types: &Types, j: usize) -> bool {
    let (before, at) = (s[j - 1], s[j]);
    before < at || (before == at && types.is_s(j - 1))
}

/// Whether the LMS substrings at `a != b` (each up to and including the next
/// LMS position) have the same symbols and types.
fn lms_substrings_equal<S: Symbol>(s: &[S], types: &Types, a: usize, b: usize) -> bool {
    let n = s.len();
    let mut d = 0;
    loop {
        let (i, j) = (a + d, b + d);
        // The sentinel ends only the last LMS substring, which is unique.
        if i == n || j == n || s[i] != s[j] || types.is_s(i) != types.is_s(j) {
            return false;
        }
        // Symbols and types agree up to here, so `j` is LMS exactly if `i` is.
        if d > 0 && types.is_lms(i) {
            return true;
        }
        d += 1;
    }
}

/// Whether `sa` is the suffix array of `text`, in `O(n)` with one inverse-rank
/// array (Burkhardt and Kärkkäinen's check).
///
/// `sa` must be a permutation of `0..n`, and each adjacent pair must be
/// ordered by first byte, then by the ranks `sa` itself gives the suffixes
/// one byte on, the empty suffix lowest. Together these imply every suffix is
/// in place, by induction on suffix length.
pub fn is_suffix_array(text: &[u8], sa: &[u32]) -> bool {
    let n = text.len();
    if sa.len() != n || u32::try_from(n).is_err() {
        return false;
    }
    let mut rank = vec![u32::MAX; n];
    for (i, &p) in sa.iter().enumerate() {
        match rank.get_mut(p as usize) {
            Some(r) if *r == u32::MAX => *r = i as u32,
            // Out of range, or seen before.
            _ => return false,
        }
    }
    let rank_after = |p: u32| rank.get(p as usize + 1).map_or(0, |&r| u64::from(r) + 1);
    sa.windows(2).all(|pair| {
        let (a, b) = (pair[0], pair[1]);
        (text[a as usize], rank_after(a)) < (text[b as usize], rank_after(b))
    })
}

/// Reference implementation: sorts suffixes by direct comparison.
/// Exponential-free but `O(n² log n)`; only for tests.
pub fn suffix_array_naive(text: &[u8]) -> Vec<u32> {
    let mut sa: Vec<u32> = (0..text.len() as u32).collect();
    sa.sort_by(|&a, &b| text[a as usize..].cmp(&text[b as usize..]));
    sa
}

#[cfg(test)]
mod tests {
    use super::*;

    const CORPUS: [&str; 6] =
        ["mississippi", "abracadabra", "aaaaaaaaaa", "abcabcabcabc", "GATTACAGATTACAGG", "z"];

    /// `suffix_array` equals the naive sort, and the certificate accepts it.
    fn check(text: &[u8]) {
        let sa = suffix_array(text);
        assert_eq!(sa, suffix_array_naive(text), "text {:?}", String::from_utf8_lossy(text));
        assert!(is_suffix_array(text, &sa));
    }

    #[test]
    fn every_short_text_over_small_alphabets() {
        for (symbols, max_len) in [(&b"ab"[..], 12), (b"abc", 8), (b"\0ab", 7)] {
            let k = symbols.len() as u64;
            for len in 0..=max_len {
                for mut code in 0..k.pow(len) {
                    let text: Vec<u8> = (0..len)
                        .map(|_| {
                            let b = symbols[(code % k) as usize];
                            code /= k;
                            b
                        })
                        .collect();
                    assert_eq!(suffix_array(&text), suffix_array_naive(&text), "{text:?}");
                }
            }
        }
    }

    #[test]
    fn banana() {
        let text = b"banana\0";
        assert_eq!(suffix_array(text), vec![6, 5, 3, 1, 0, 4, 2]);
        assert_eq!(suffix_array(b"banana"), vec![5, 3, 1, 0, 4, 2]);
    }

    #[test]
    fn matches_naive_on_corpus() {
        for body in CORPUS {
            let mut text = body.as_bytes().to_vec();
            check(&text);
            text.push(0);
            check(&text);
        }
    }

    #[test]
    fn empty_text() {
        assert!(suffix_array(b"").is_empty());
        assert!(is_suffix_array(b"", &[]));
    }

    #[test]
    fn single_terminal() {
        assert_eq!(suffix_array(&[0]), vec![0]);
    }

    #[test]
    fn longer_random_like_input() {
        // Deterministic pseudo-random DNA-ish string.
        let mut state = 0x12345678u64;
        let mut body = Vec::with_capacity(2000);
        for _ in 0..2000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            body.push(b"ACGT"[(state >> 33) as usize % 4]);
        }
        body.push(0);
        assert_eq!(suffix_array(&body), suffix_array_naive(&body));
    }

    #[test]
    fn certificate_accepts_the_corpus() {
        for body in CORPUS {
            let text = body.as_bytes();
            assert!(is_suffix_array(text, &suffix_array_naive(text)), "body {body}");
        }
    }

    #[test]
    fn certificate_rejects_broken_arrays() {
        let text = b"mississippi";
        let sa = suffix_array_naive(text);
        for i in 0..sa.len() - 1 {
            let mut swapped = sa.clone();
            swapped.swap(i, i + 1);
            assert!(!is_suffix_array(text, &swapped), "swap at {i}");
        }
        let mut duplicate = sa.clone();
        duplicate[3] = duplicate[4];
        assert!(!is_suffix_array(text, &duplicate));
        let mut out_of_range = sa.clone();
        out_of_range[5] = text.len() as u32;
        assert!(!is_suffix_array(text, &out_of_range));
        assert!(!is_suffix_array(text, &sa[1..]));
    }
}
