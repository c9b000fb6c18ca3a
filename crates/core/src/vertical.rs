//! Vertical partitioning (§4.1 of the paper).
//!
//! Splits the final suffix tree into sub-trees `T_p`, one per variable-length
//! S-prefix `p`, such that every sub-tree fits in the tree area of the memory
//! budget (`f_p ≤ FM`), and then groups sub-trees into *virtual trees* so that
//! one sequential scan of the string serves a whole group (Algorithm
//! `VerticalPartitioning`).
//!
//! Every round is one pass over the string, walked in block-sized stretches
//! ([`for_each_stretch`]); the frequencies of the round's working set are
//! counted by descending the scan trie of it ([`crate::scan`]) from every
//! position. All prefixes of a round have the same length, so a window cut
//! short by the end of the string matches none of them: the suffix it belongs
//! to was accepted in an earlier round, under a prefix ending in the terminal.

use era_string_store::{StoreResult, StringStore, TERMINAL};

use crate::scan::{for_each_stretch, ScanTrie};

/// A variable-length S-prefix together with its frequency in the string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrefixFrequency {
    /// The S-prefix.
    pub prefix: Vec<u8>,
    /// Number of suffixes that start with the prefix (`f_p`), i.e. the number
    /// of leaves of `T_p`.
    pub frequency: u64,
}

/// A group of S-prefixes processed as one unit ("virtual tree", §4.1).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct VirtualTree {
    /// The member prefixes.
    pub prefixes: Vec<PrefixFrequency>,
}

impl VirtualTree {
    /// Sum of the member frequencies (bounded by `FM` by construction).
    pub fn total_frequency(&self) -> u64 {
        self.prefixes.iter().map(|p| p.frequency).sum()
    }
}

/// The result of vertical partitioning.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerticalPartitioning {
    /// All prefixes with `0 < f_p ≤ FM`, covering every suffix exactly once.
    pub prefixes: Vec<PrefixFrequency>,
    /// The prefixes grouped into virtual trees. With grouping disabled each
    /// prefix forms its own group.
    pub groups: Vec<VirtualTree>,
    /// Number of sequential scans of the string that were needed.
    pub scans: usize,
}

impl VerticalPartitioning {
    /// Number of sub-trees.
    pub fn partition_count(&self) -> usize {
        self.prefixes.len()
    }

    /// Number of virtual trees.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }
}

/// Runs vertical partitioning against the store.
///
/// * `fm` — the maximum admissible frequency (Equation 1).
/// * `group` — whether to run the grouping phase (virtual trees).
///
/// The working set starts with one prefix per symbol of `Σ ∪ {$}`; every scan
/// counts the frequencies of the current working set, prefixes with
/// `0 < f ≤ FM` are accepted, prefixes with `f > FM` are extended by every
/// symbol of `Σ ∪ {$}` and re-counted in the next round (extending by `$` is
/// what guarantees that the suffix equal to `p$` itself is never lost).
pub fn vertical_partition(
    store: &dyn StringStore,
    fm: usize,
    group: bool,
) -> StoreResult<VerticalPartitioning> {
    assert!(fm >= 1, "FM must be at least 1");
    let alphabet = store.alphabet().clone();
    let symbols_with_terminal = alphabet.with_terminal();

    // Current working set P' (all prefixes in one round have the same length).
    let mut working: Vec<Vec<u8>> = symbols_with_terminal.iter().map(|&s| vec![s]).collect();
    let mut accepted: Vec<PrefixFrequency> = Vec::new();
    let mut scans = 0usize;

    while !working.is_empty() {
        let trie = ScanTrie::new(&symbols_with_terminal, &working)?;
        let mut counts = vec![0u64; working.len()];
        for_each_stretch(store, trie.lookahead(), |_base, stretch, positions| {
            trie.for_each_match(stretch, positions, |_start, prefix| counts[prefix] += 1);
        })?;
        scans += 1;

        let mut next_working = Vec::new();
        for (prefix, f) in working.into_iter().zip(counts) {
            if f == 0 {
                continue;
            }
            #[expect(clippy::expect_used, reason = "prefixes are non-empty by construction")]
            if f as usize <= fm {
                accepted.push(PrefixFrequency { prefix, frequency: f });
            } else {
                // Extend by every symbol (including the terminal, so that the
                // suffix equal to `prefix$` keeps a home partition).
                debug_assert_ne!(*prefix.last().expect("non-empty"), TERMINAL);
                for &s in &symbols_with_terminal {
                    let mut extended = Vec::with_capacity(prefix.len() + 1);
                    extended.extend_from_slice(&prefix);
                    extended.push(s);
                    next_working.push(extended);
                }
            }
        }
        working = next_working;
    }

    let groups =
        if group { group_prefixes(&accepted, fm as u64) } else { trivial_groups(&accepted) };
    Ok(VerticalPartitioning { prefixes: accepted, groups, scans })
}

/// The grouping heuristic of Algorithm `VerticalPartitioning` (lines 12–22):
/// sort by descending frequency, open a group with the head, then greedily add
/// prefixes while the group's total stays within `FM`.
pub fn group_prefixes(prefixes: &[PrefixFrequency], fm: u64) -> Vec<VirtualTree> {
    let mut remaining: Vec<PrefixFrequency> = prefixes.to_vec();
    remaining.sort_by(|a, b| b.frequency.cmp(&a.frequency).then_with(|| a.prefix.cmp(&b.prefix)));
    let mut groups = Vec::new();
    let mut used = vec![false; remaining.len()];
    for head in 0..remaining.len() {
        if used[head] {
            continue;
        }
        used[head] = true;
        let mut group = VirtualTree { prefixes: vec![remaining[head].clone()] };
        let mut total = remaining[head].frequency;
        for (idx, candidate) in remaining.iter().enumerate().skip(head + 1) {
            if used[idx] {
                continue;
            }
            if total + candidate.frequency <= fm {
                total += candidate.frequency;
                used[idx] = true;
                group.prefixes.push(candidate.clone());
            }
        }
        groups.push(group);
    }
    groups
}

fn trivial_groups(prefixes: &[PrefixFrequency]) -> Vec<VirtualTree> {
    prefixes.iter().map(|p| VirtualTree { prefixes: vec![p.clone()] }).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use era_string_store::{Alphabet, InMemoryStore};

    fn dna_store(body: &[u8]) -> InMemoryStore {
        InMemoryStore::from_body(body, Alphabet::dna()).unwrap()
    }

    /// The paper's running example (Figure 2 / Table 1).
    const PAPER: &[u8] = b"TGGTGGTGGTGCGGTGATGGTGC";

    #[test]
    fn paper_example_with_fm_5() {
        // §4.1: with FM = 5, TG (frequency 7) must be extended; the final set
        // contains TGA (1), TGC (2), TGG (4) and no TGT.
        let store = dna_store(PAPER);
        let vp = vertical_partition(&store, 5, false).unwrap();
        let get = |p: &[u8]| vp.prefixes.iter().find(|x| x.prefix == p).map(|x| x.frequency);
        assert_eq!(get(b"TGA"), Some(1));
        assert_eq!(get(b"TGC"), Some(2));
        assert_eq!(get(b"TGG"), Some(4));
        assert_eq!(get(b"TGT"), None);
        assert_eq!(get(b"TG"), None, "TG itself must have been extended");
        assert_eq!(get(b"A"), Some(1));
        assert_eq!(get(b"C"), Some(2));
        // G occurs 8 times > FM, so it is extended too.
        assert_eq!(get(b"G"), None);
    }

    #[test]
    fn frequencies_cover_every_suffix_exactly_once() {
        for fm in [1usize, 2, 3, 5, 10, 100] {
            let store = dna_store(PAPER);
            let vp = vertical_partition(&store, fm, false).unwrap();
            let total: u64 = vp.prefixes.iter().map(|p| p.frequency).sum();
            assert_eq!(total, (PAPER.len() + 1) as u64, "fm={fm}");
            assert!(vp.prefixes.iter().all(|p| p.frequency as usize <= fm), "fm={fm}");
            // Prefix-freeness: no accepted prefix is a prefix of another.
            for a in &vp.prefixes {
                for b in &vp.prefixes {
                    if a.prefix != b.prefix {
                        assert!(!b.prefix.starts_with(&a.prefix[..]), "{:?} vs {:?}", a, b);
                    }
                }
            }
        }
    }

    #[test]
    fn large_fm_keeps_single_symbols() {
        let store = dna_store(PAPER);
        let vp = vertical_partition(&store, 1000, false).unwrap();
        // Every single symbol (plus the terminal) fits.
        assert_eq!(vp.partition_count(), 5);
        assert_eq!(vp.scans, 1);
    }

    #[test]
    fn grouping_respects_fm_and_covers_all() {
        let store = dna_store(PAPER);
        let vp = vertical_partition(&store, 5, true).unwrap();
        let grouped: u64 = vp.groups.iter().map(|g| g.total_frequency()).sum();
        let direct: u64 = vp.prefixes.iter().map(|p| p.frequency).sum();
        assert_eq!(grouped, direct);
        for g in &vp.groups {
            assert!(g.total_frequency() <= 5, "group {:?}", g);
        }
        // Grouping must produce no more groups than partitions, and strictly
        // fewer here (TGA can ride along with TGG or C, etc.).
        assert!(vp.group_count() < vp.partition_count());
    }

    #[test]
    fn paper_grouping_example() {
        // §4.1: "this heuristic groups TGG and TGA together, whereas TGC is in
        // a different group" (with FM = 5, starting from the TG* frequencies).
        let prefixes = vec![
            PrefixFrequency { prefix: b"TGA".to_vec(), frequency: 1 },
            PrefixFrequency { prefix: b"TGC".to_vec(), frequency: 2 },
            PrefixFrequency { prefix: b"TGG".to_vec(), frequency: 4 },
        ];
        let groups = group_prefixes(&prefixes, 5);
        assert_eq!(groups.len(), 2);
        let first: Vec<&[u8]> = groups[0].prefixes.iter().map(|p| p.prefix.as_slice()).collect();
        assert_eq!(first, vec![&b"TGG"[..], &b"TGA"[..]]);
        let second: Vec<&[u8]> = groups[1].prefixes.iter().map(|p| p.prefix.as_slice()).collect();
        assert_eq!(second, vec![&b"TGC"[..]]);
    }

    #[test]
    fn repetitive_string_extends_deeply() {
        let body = vec![b'A'; 64];
        let store = dna_store(&body);
        let vp = vertical_partition(&store, 4, false).unwrap();
        // Suffixes: A^64$, ..., A$, $; prefixes must cover all 65.
        let total: u64 = vp.prefixes.iter().map(|p| p.frequency).sum();
        assert_eq!(total, 65);
        assert!(vp.scans > 10, "a run of identical symbols forces many extension rounds");
    }

    #[test]
    fn small_fm_of_one_still_covers() {
        let store = dna_store(b"ACGTACGT");
        let vp = vertical_partition(&store, 1, true).unwrap();
        let total: u64 = vp.prefixes.iter().map(|p| p.frequency).sum();
        assert_eq!(total, 9);
        assert!(vp.prefixes.iter().all(|p| p.frequency == 1));
        assert_eq!(vp.group_count(), vp.partition_count());
    }
}
