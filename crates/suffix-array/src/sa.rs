//! Prefix-doubling (Manber–Myers) suffix array construction.
//!
//! Every round is a comparison sort (`sort_unstable_by_key`) on the pair of
//! ranks, and the rank length doubles each round: `O(n log² n)` time, and
//! 12 bytes per symbol beyond the text (`sa`, `rank` and `tmp_rank`, one
//! `u32` each). Fast enough for the MB-scale partitions the B²ST baseline
//! sorts, and completely independent of the tree code so it can serve as an
//! oracle.

/// Builds the suffix array of `text` (all rotations are proper suffixes thanks
/// to the unique terminal byte, which must be the last byte).
///
/// Returns the suffix offsets in lexicographic order.
#[expect(clippy::unwrap_used, reason = "inside debug_assert on a checked-non-empty text")]
pub fn suffix_array(text: &[u8]) -> Vec<u32> {
    let n = text.len();
    if n == 0 {
        return Vec::new();
    }
    debug_assert_eq!(*text.last().unwrap(), 0, "text must end with the terminal byte");

    // Initial ranks = byte values.
    let mut rank: Vec<u32> = text.iter().map(|&b| b as u32).collect();
    let mut sa: Vec<u32> = (0..n as u32).collect();
    let mut tmp_rank: Vec<u32> = vec![0; n];

    let mut k = 1usize;
    // Sort by (rank[i], rank[i + k]) doubling k each round.
    while k < n {
        let key = |i: u32| -> (u32, u32) {
            let first = rank[i as usize];
            let second = if (i as usize) + k < n { rank[i as usize + k] + 1 } else { 0 };
            (first, second)
        };
        sa.sort_unstable_by_key(|&i| key(i));

        // Re-rank.
        tmp_rank[sa[0] as usize] = 0;
        for i in 1..n {
            let prev = key(sa[i - 1]);
            let cur = key(sa[i]);
            tmp_rank[sa[i] as usize] =
                tmp_rank[sa[i - 1] as usize] + if cur == prev { 0 } else { 1 };
        }
        std::mem::swap(&mut rank, &mut tmp_rank);
        if rank[sa[n - 1] as usize] as usize == n - 1 {
            break; // all ranks distinct
        }
        k *= 2;
    }
    sa
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

    #[test]
    fn banana() {
        let text = b"banana\0";
        assert_eq!(suffix_array(text), vec![6, 5, 3, 1, 0, 4, 2]);
    }

    #[test]
    fn matches_naive_on_corpus() {
        for body in
            ["mississippi", "abracadabra", "aaaaaaaaaa", "abcabcabcabc", "GATTACAGATTACAGG", "z"]
        {
            let mut text = body.as_bytes().to_vec();
            text.push(0);
            assert_eq!(suffix_array(&text), suffix_array_naive(&text), "body {body}");
        }
    }

    #[test]
    fn empty_text() {
        assert!(suffix_array(b"").is_empty());
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
}
