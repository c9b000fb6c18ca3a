//! # era-suffix-array
//!
//! Suffix-array substrate for the ERA reproduction.
//!
//! The B²ST baseline (Barsky et al., CIKM 2009) builds suffix *arrays* and LCP
//! arrays of string partitions, merges them, and only then materialises the
//! suffix tree in batch. This crate provides the pieces it needs:
//!
//! * [`suffix_array`] — SA-IS induced sorting (Nong, Zhang and Chan 2011) of
//!   any byte string: O(n) time, about 14 s and 5.4 bytes per symbol (text
//!   and output included) on a 64 MiB genome-like text;
//!   [`sa::is_suffix_array`] certifies a result in O(n).
//! * [`lcp_kasai`] — Kasai's linear-time LCP array.
//! * [`merge`] — k-way merge of sorted suffix runs with LCP maintenance.
//! * [`suffix_tree_from_text`] — convenience: SA + LCP + batch tree assembly.
//!
//! The suffix array is also the independent oracle of the benchmark and of
//! every equivalence suite: the lexicographic leaf order produced by every
//! tree-construction algorithm is checked against it.

#![deny(rust_2018_idioms)]
#![warn(missing_docs)]
#![warn(clippy::all)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod lcp;
pub mod merge;
pub mod sa;

pub use lcp::lcp_kasai;
pub use merge::{merge_runs, SortedRun};
pub use sa::suffix_array;

use era_suffix_tree::{assemble::assemble_from_sa_lcp, SuffixTree};

/// Builds the complete suffix tree of `text` by constructing its suffix array
/// and LCP array and assembling the tree in batch.
///
/// `text` must end with the unique terminal byte `0`.
pub fn suffix_tree_from_text(text: &[u8]) -> SuffixTree {
    let sa = suffix_array(text);
    let lcp = lcp_kasai(text, &sa);
    assemble_from_sa_lcp(text, &sa, &lcp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use era_suffix_tree::{naive_suffix_tree, validate_suffix_tree};

    #[test]
    fn tree_from_text_matches_naive() {
        for body in ["banana", "mississippi", "abracadabra", "aaaaaa", "GATTACAGATTACA"] {
            let mut text = body.as_bytes().to_vec();
            text.push(0);
            let via_sa = suffix_tree_from_text(&text);
            let naive = naive_suffix_tree(&text);
            validate_suffix_tree(&via_sa, &text, Some(text.len())).unwrap();
            assert_eq!(via_sa.lexicographic_suffixes(), naive.lexicographic_suffixes());
            assert_eq!(via_sa.internal_count(), naive.internal_count());
        }
    }
}
