//! The query set and its expected answers.
//!
//! Patterns are sampled from the text with a seeded generator of the
//! harness's own, and every expected answer is computed from the suffix
//! array — a code path that shares nothing with the suffix tree under test.

/// Positions returned by a locate query (`locate_page(0, LOCATE_LIMIT)`).
pub const LOCATE_LIMIT: usize = 16;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    Count,
    Contains,
    LocatePage,
}

/// One query of the set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Op {
    pub kind: OpKind,
    pub pattern: Vec<u8>,
}

/// The answer to one [`Op`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Answer {
    Count(usize),
    Contains(bool),
    /// Ascending positions, at most [`LOCATE_LIMIT`].
    Locate(Vec<usize>),
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuerySet {
    pub ops: Vec<Op>,
    pub expected: Vec<Answer>,
}

/// SplitMix64: a tiny seeded generator, enough for uniform sampling.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is below 2^-40 here).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Samples `n_ops` queries from `text` (terminated) and answers them from its
/// suffix array `sa`.
///
/// Pattern = text substring at a uniform position, length uniform in
/// `8..=32`; every 10th pattern has one symbol replaced by another symbol of
/// the alphabet (usually, not always, turning it into a miss); kinds cycle
/// count, count, contains, locate-page.
pub fn sample(text: &[u8], sa: &[u32], symbols: &[u8], n_ops: usize, seed: u64) -> QuerySet {
    let body_len = text.len() - 1;
    assert!(body_len > 32, "text too short to sample patterns from");
    assert!(symbols.len() >= 2, "need two symbols to mutate a pattern");
    let mut rng = SplitMix64::new(seed ^ 0x5eed_0b5e_55ed_0001);
    let mut ops = Vec::with_capacity(n_ops);
    let mut expected = Vec::with_capacity(n_ops);
    for i in 0..n_ops {
        let len = 8 + rng.below(25);
        let pos = rng.below(body_len - len + 1);
        let mut pattern = text[pos..pos + len].to_vec();
        if i % 10 == 9 {
            let at = rng.below(len);
            let others: Vec<u8> = symbols.iter().copied().filter(|&s| s != pattern[at]).collect();
            pattern[at] = others[rng.below(others.len())];
        }
        let kind = match i % 4 {
            0 | 1 => OpKind::Count,
            2 => OpKind::Contains,
            _ => OpKind::LocatePage,
        };
        expected.push(answer(text, sa, kind, &pattern));
        ops.push(Op { kind, pattern });
    }
    QuerySet { ops, expected }
}

/// The answer the suffix array gives for one query.
pub fn answer(text: &[u8], sa: &[u32], kind: OpKind, pattern: &[u8]) -> Answer {
    // The first |pattern| symbols of a suffix (fewer at the end of the text,
    // where the shorter slice orders first, as the terminal does).
    let head = |&s: &u32| {
        let s = s as usize;
        &text[s..(s + pattern.len()).min(text.len())]
    };
    let lo = sa.partition_point(|s| head(s) < pattern);
    let hi = sa.partition_point(|s| head(s) <= pattern);
    match kind {
        OpKind::Count => Answer::Count(hi - lo),
        OpKind::Contains => Answer::Contains(hi > lo),
        OpKind::LocatePage => {
            let mut positions: Vec<usize> = sa[lo..hi].iter().map(|&p| p as usize).collect();
            positions.sort_unstable();
            positions.truncate(LOCATE_LIMIT);
            Answer::Locate(positions)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_sa(text: &[u8]) -> Vec<u32> {
        let mut sa: Vec<u32> = (0..text.len() as u32).collect();
        sa.sort_by(|&a, &b| text[a as usize..].cmp(&text[b as usize..]));
        sa
    }

    #[test]
    fn answers_match_a_brute_force_scan() {
        let text = b"TGGTGGTGGTGCGGTGATGGTGC\0";
        let sa = naive_sa(text);
        for pattern in [&b"TG"[..], b"TGC", b"GGTG", b"AAA", b"TGGTGGTGGTGCGGTGATGGTGC", b"C"] {
            let brute: Vec<usize> =
                (0..text.len()).filter(|&i| text[i..].starts_with(pattern)).collect();
            assert_eq!(answer(text, &sa, OpKind::Count, pattern), Answer::Count(brute.len()));
            assert_eq!(
                answer(text, &sa, OpKind::Contains, pattern),
                Answer::Contains(!brute.is_empty())
            );
            assert_eq!(answer(text, &sa, OpKind::LocatePage, pattern), Answer::Locate(brute));
        }
    }

    #[test]
    fn locate_pages_are_the_first_sixteen_ascending() {
        let mut text = vec![b'A'; 100];
        text.push(0);
        let sa = naive_sa(&text);
        let Answer::Locate(page) = answer(&text, &sa, OpKind::LocatePage, b"AAAA") else {
            panic!("locate answers with positions");
        };
        assert_eq!(page, (0..LOCATE_LIMIT).collect::<Vec<_>>());
    }

    #[test]
    fn sampling_is_seeded() {
        let mut text: Vec<u8> = (0..4096u32).map(|i| b"ACGT"[(i * i / 7 % 4) as usize]).collect();
        text.push(0);
        let sa = naive_sa(&text);
        let a = sample(&text, &sa, b"ACGT", 200, 1);
        assert_eq!(a, sample(&text, &sa, b"ACGT", 200, 1));
        assert_ne!(a.ops, sample(&text, &sa, b"ACGT", 200, 2).ops);
        assert_eq!(a.ops.len(), 200);
        assert!(a.ops.iter().all(|op| (8..=32).contains(&op.pattern.len())));
        let kinds: Vec<OpKind> = a.ops[..4].iter().map(|op| op.kind).collect();
        assert_eq!(kinds, [OpKind::Count, OpKind::Count, OpKind::Contains, OpKind::LocatePage]);
    }
}
