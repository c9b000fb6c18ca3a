//! Query operations over a frozen suffix (sub-)tree — the one match loop of
//! the workspace.
//!
//! These are the classic operations the paper motivates in §1: exact substring
//! search in `O(|P|)`, occurrence counting/enumeration, the longest repeated
//! substring and the longest common substring of two strings (via a
//! generalized tree over their concatenation). They exist on [`FlatTree`]
//! only: the `Vec`-node [`SuffixTree`](crate::SuffixTree) is a construction
//! form that is frozen before anything asks it a question.
//!
//! Pattern matching is generic over [`TextSource`]: edge labels are resolved
//! through any source — an in-memory byte slice (the zero-overhead fast path)
//! or a [`StoreTextSource`](era_string_store::StoreTextSource) reading a raw
//! or bit-packed [`StringStore`](era_string_store::StringStore) — so the same
//! traversal serves queries with or without the text materialized.

#![deny(
    clippy::indexing_slicing,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use era_string_store::{StoreResult, TextSource};

use crate::layout::FlatTree;
use crate::node::NodeId;

/// Outcome of matching a pattern against the tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatchResult {
    /// The whole pattern was matched; the node is the highest node whose
    /// subtree contains every occurrence.
    Complete {
        /// Node at or below which every occurrence lies.
        node: NodeId,
    },
    /// The pattern does not occur.
    NoMatch,
}

impl FlatTree {
    /// Matches `pattern` from the root, resolving edge labels through any
    /// [`TextSource`].
    #[expect(
        clippy::indexing_slicing,
        reason = "matched < pattern.len() is the walk loop invariant"
    )]
    pub fn try_match_pattern<T: TextSource + ?Sized>(
        &self,
        text: &T,
        pattern: &[u8],
    ) -> StoreResult<MatchResult> {
        if pattern.is_empty() {
            return Ok(MatchResult::Complete { node: self.root() });
        }
        let mut node = self.root();
        let mut matched = 0usize;
        'walk: loop {
            // Fast path: the sorted `first_char` cache pinpoints the child
            // without touching the text. The cache is only a read-avoidance
            // device, though — the text stays authoritative: a candidate
            // whose edge text turns out not to start with the pattern symbol
            // (zero symbols matched on its edge) means the cache lied, and
            // the walk falls through to the sibling scan below instead of
            // reporting a false `NoMatch`. With a healthy cache that case is
            // impossible (first symbol equal ⇒ at least one symbol matches),
            // so the check costs nothing.
            let direct = self.child_starting_with(node, pattern[matched]);
            if let Some(child) = direct {
                let before = matched;
                match self.match_edge(text, pattern, &mut matched, child)? {
                    Some(MatchResult::NoMatch) if matched == before => {}
                    Some(r) => return Ok(r),
                    None => {
                        node = child;
                        continue 'walk;
                    }
                }
            }
            // Fallback: the cache had no (trustworthy) answer — e.g. the
            // unset `first_char` of a sub-tree root, or a stale entry. Only
            // the edge text decides which child to follow here; the cached
            // `first_char` is not consulted at all, so a stale entry can
            // never divert the walk past the right sibling.
            let mut found = None;
            for c in self.node(node).children_range() {
                if direct == Some(c) {
                    continue; // its edge text already ruled it out above
                }
                if text.symbol_at(self.node(c).start as usize)? == pattern[matched] {
                    found = Some(c);
                    break;
                }
            }
            match found {
                Some(c) => {
                    if let Some(r) = self.match_edge(text, pattern, &mut matched, c)? {
                        return Ok(r);
                    }
                    node = c;
                }
                None => return Ok(MatchResult::NoMatch),
            }
        }
    }

    /// Matches as much of `pattern` as possible along the edge into `child`.
    /// Returns `Some(result)` when matching terminates on this edge.
    #[expect(clippy::indexing_slicing, reason = "*matched < pattern.len() checked by the caller")]
    fn match_edge<T: TextSource + ?Sized>(
        &self,
        text: &T,
        pattern: &[u8],
        matched: &mut usize,
        child: NodeId,
    ) -> StoreResult<Option<MatchResult>> {
        let ch = self.node(child);
        let label_len = (ch.end as usize).min(text.len()) - ch.start as usize;
        let remaining = &pattern[*matched..];
        let k = text.common_prefix(ch.start as usize, ch.end as usize, remaining)?;
        *matched += k;
        Ok(if *matched == pattern.len() {
            Some(MatchResult::Complete { node: child })
        } else if k < label_len {
            Some(MatchResult::NoMatch)
        } else {
            None // full edge matched, pattern continues below `child`
        })
    }

    /// Whether `pattern` occurs in the text behind any [`TextSource`].
    pub fn try_contains<T: TextSource + ?Sized>(
        &self,
        text: &T,
        pattern: &[u8],
    ) -> StoreResult<bool> {
        Ok(matches!(self.try_match_pattern(text, pattern)?, MatchResult::Complete { .. }))
    }

    /// All occurrence positions of `pattern` behind any [`TextSource`], in
    /// **lexicographic order of the suffixes** that start with it — *not*
    /// ascending position order.
    pub fn try_find_all<T: TextSource + ?Sized>(
        &self,
        text: &T,
        pattern: &[u8],
    ) -> StoreResult<Vec<u32>> {
        Ok(match self.try_match_pattern(text, pattern)? {
            MatchResult::Complete { node } => self.leaves_below(node),
            MatchResult::NoMatch => Vec::new(),
        })
    }

    /// Number of occurrences of `pattern` behind any [`TextSource`].
    pub fn try_count<T: TextSource + ?Sized>(
        &self,
        text: &T,
        pattern: &[u8],
    ) -> StoreResult<usize> {
        Ok(match self.try_match_pattern(text, pattern)? {
            MatchResult::Complete { node } => self.leaf_count_below(node),
            MatchResult::NoMatch => 0,
        })
    }

    /// The longest substring that occurs at least twice, returned as
    /// `(offset, length)`; `None` when no substring repeats (e.g. a string of
    /// distinct symbols).
    ///
    /// This is the deepest internal node of the tree.
    pub fn longest_repeated_substring(&self) -> Option<(u32, u32)> {
        let mut best: Option<(u32, u32)> = None; // (depth, node)
        for (id, depth) in self.dfs() {
            if !self.node(id).is_leaf()
                && id != self.root()
                && depth > 0
                && best.map(|(d, _)| depth > d).unwrap_or(true)
            {
                best = Some((depth, id));
            }
        }
        // Any leaf below spells the substring at its own offset.
        best.and_then(|(depth, id)| Some((self.leftmost_leaf(id)?.1, depth)))
    }

    /// Longest common substring of the two halves of a generalized text
    /// `left # right $`, where `separator_pos` is the index of `#`.
    ///
    /// Returns `(offset_in_text, length)` of one occurrence inside the left
    /// half, or `None` if the strings share no symbol.
    pub fn longest_common_substring(&self, separator_pos: usize) -> Option<(u32, u32)> {
        self.common_substring_pass(separator_pos).0
    }

    /// [`Self::longest_common_substring`] for a sub-tree of a partitioned
    /// index: the best candidate inside, plus what the trie above needs to
    /// know of the tree as a whole — its smallest leaf left of the separator
    /// (`u32::MAX` for none) and whether any leaf lies right of it.
    #[expect(
        clippy::indexing_slicing,
        reason = "dfs ids index vectors of node_count() entries; whole-index, off the query path"
    )]
    pub(crate) fn common_substring_pass(
        &self,
        separator_pos: usize,
    ) -> (Option<(u32, u32)>, u32, bool) {
        debug_assert!(separator_pos < self.text_len(), "separator must lie inside the text");
        let sep = separator_pos as u32;
        // For every internal node, determine whether it has a leaf on each
        // side of the separator and whether the path label stays inside the
        // left string. `dfs` lists parents before their children, so walking
        // it backwards visits every child before its parent.
        let order = self.dfs();
        let mut min_left: Vec<u32> = vec![u32::MAX; self.node_count()];
        let mut has_right: Vec<bool> = vec![false; self.node_count()];
        for &(id, _) in order.iter().rev() {
            let node = self.node(id);
            if let Some(s) = node.suffix() {
                if s < sep {
                    min_left[id as usize] = s;
                } else if s > sep {
                    has_right[id as usize] = true;
                }
            } else {
                for c in node.children_range() {
                    min_left[id as usize] = min_left[id as usize].min(min_left[c as usize]);
                    has_right[id as usize] = has_right[id as usize] || has_right[c as usize];
                }
            }
        }
        let mut best: Option<(u32, u32)> = None;
        for (id, depth) in order {
            if id == self.root() || self.node(id).is_leaf() || depth == 0 {
                continue;
            }
            let left = min_left[id as usize];
            if left == u32::MAX || !has_right[id as usize] {
                continue;
            }
            // The path label must not cross the separator.
            if left + depth > sep {
                continue;
            }
            if best.map(|(_, d)| depth > d).unwrap_or(true) {
                best = Some((left, depth));
            }
        }
        (best, min_left[0], has_right[0])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::FIRST_CHAR_SHIFT;
    use crate::naive::naive_suffix_tree;
    use era_string_store::{
        Alphabet, BlockCache, DiskStore, PackedDiskStore, StoreTextSource, StringStore,
    };
    use std::sync::Arc;

    fn tree_for(body: &[u8]) -> (Vec<u8>, FlatTree) {
        let mut text = body.to_vec();
        text.push(0);
        let t = FlatTree::freeze(&naive_suffix_tree(&text));
        (text, t)
    }

    /// Every occurrence of `pattern` found by direct scanning, ascending —
    /// the oracle.
    fn scan(text: &[u8], pattern: &[u8]) -> Vec<u32> {
        (0..text.len()).filter(|&i| text[i..].starts_with(pattern)).map(|i| i as u32).collect()
    }

    fn find_sorted<T: TextSource + ?Sized>(t: &FlatTree, text: &T, pattern: &[u8]) -> Vec<u32> {
        let mut out = t.try_find_all(text, pattern).unwrap();
        out.sort_unstable();
        out
    }

    /// `text` in a raw and a packed store that read a file (named after
    /// `test`, removed on drop).
    fn file_stores(text: &[u8], test: &str) -> [Box<dyn StringStore>; 2] {
        let body = &text[..text.len() - 1];
        let alphabet = Alphabet::infer(body).unwrap();
        let path = std::env::temp_dir().join(format!("era-tree-{test}-{}", std::process::id()));
        [
            Box::new(
                DiskStore::create(path.with_extension("era"), body, alphabet.clone(), 4).unwrap(),
            ),
            Box::new(
                PackedDiskStore::create(path.with_extension("erap"), body, alphabet, 4).unwrap(),
            ),
        ]
    }

    /// A source over `store` through a cache of 4-symbol blocks: a compare
    /// crosses a block boundary every few symbols.
    fn tiny_block_source(store: &dyn StringStore) -> StoreTextSource<'_> {
        StoreTextSource::with_cache(store, Arc::new(BlockCache::with_layout(1 << 10, 4, 2)))
    }

    #[test]
    fn find_all_matches_scan() {
        let (text, t) = tree_for(b"mississippi");
        for pattern in [&b"ss"[..], b"issi", b"i", b"mississippi", b"p", b"sip"] {
            let expected = scan(&text, pattern);
            assert_eq!(
                find_sorted(&t, &text, pattern),
                expected,
                "pattern {:?}",
                std::str::from_utf8(pattern)
            );
            assert_eq!(t.try_count(&text, pattern).unwrap(), expected.len());
            assert_eq!(t.try_contains(&text, pattern).unwrap(), !expected.is_empty());
        }
    }

    #[test]
    fn absent_patterns() {
        let (text, t) = tree_for(b"mississippi");
        assert!(!t.try_contains(&text, b"xyz").unwrap());
        assert!(!t.try_contains(&text, b"ssb").unwrap());
        assert!(t.try_find_all(&text, b"ippi2").unwrap().is_empty());
        assert_eq!(t.try_count(&text, b"zzz").unwrap(), 0);
    }

    #[test]
    fn empty_pattern_matches_everything() {
        let (text, t) = tree_for(b"abcab");
        assert_eq!(t.try_count(&text, b"").unwrap(), text.len());
        assert!(t.try_contains(&text, b"").unwrap());
    }

    #[test]
    fn store_backed_source_answers_like_the_slice() {
        let (text, t) = tree_for(b"mississippi");
        for store in file_stores(&text, "answers") {
            let source = tiny_block_source(store.as_ref());
            for pattern in [
                &b"ss"[..],
                b"issi",
                b"i",
                b"mississippi",
                b"p",
                b"sip",
                b"",
                b"zzz",
                b"mississippix",
            ] {
                assert_eq!(
                    t.try_find_all(&source, pattern).unwrap(),
                    t.try_find_all(&text, pattern).unwrap(),
                    "pattern {:?}",
                    std::str::from_utf8(pattern)
                );
                assert_eq!(
                    t.try_count(&source, pattern).unwrap(),
                    t.try_count(&text, pattern).unwrap()
                );
                assert_eq!(
                    t.try_contains(&source, pattern).unwrap(),
                    t.try_contains(&text, pattern).unwrap()
                );
            }
            assert!(source.io().bytes_read > 0, "the text was read from the file");
        }
    }

    /// The child of the root whose outgoing edge *text* starts with `c` (the
    /// oracle the `first_char` cache approximates).
    fn root_child_by_text(t: &FlatTree, text: &[u8], c: u8) -> NodeId {
        t.node(t.root())
            .children_range()
            .find(|&ch| text[t.node(ch).start as usize] == c)
            .expect("child with that edge text exists")
    }

    /// A copy of `t` whose arena *claims* `c` as the first edge character of
    /// node `id` — the corruption a stale cache amounts to.
    fn with_first_char(t: &FlatTree, id: NodeId, c: u8) -> FlatTree {
        t.with_raw_node(id, |words| {
            words[3] = (words[3] & !(0xFF << FIRST_CHAR_SHIFT)) | (u32::from(c) << FIRST_CHAR_SHIFT)
        })
    }

    #[test]
    fn stale_first_char_on_the_direct_path_falls_back_to_siblings() {
        // Corrupt the 'm' child of the root to *claim* 'i': the binary search
        // for 'i' over the child run then lands on the impostor, whose edge
        // text is 'm...'. The text is authoritative, so the walk must recover
        // and follow the true 'i' child instead of reporting a false NoMatch.
        let (text, t) = tree_for(b"mississippi");
        let t = with_first_char(&t, root_child_by_text(&t, &text, b'm'), b'i');
        for pattern in [b"issi".as_slice(), b"i", b"ississippi"] {
            assert_eq!(
                find_sorted(&t, &text, pattern),
                scan(&text, pattern),
                "stale cache diverted pattern {:?}",
                std::str::from_utf8(pattern)
            );
        }
        // Patterns through the intact children still answer normally, and the
        // corrupted child itself is still reachable through the text.
        assert_eq!(t.try_count(&text, b"ss").unwrap(), 2);
        assert!(t.try_contains(&text, b"mississippi").unwrap());
    }

    #[test]
    fn stale_first_char_in_the_fallback_scan_does_not_mask_siblings() {
        // The shape the bug needs: the binary search for 's' fails (the true
        // 's' child claims 'z'), and an *earlier* sibling stales to 's' while
        // its edge text is 'i...'. The old scan trusted the cached byte, broke
        // on the impostor and never tried the real 's' child → false NoMatch.
        let (text, t) = tree_for(b"mississippi");
        let t = with_first_char(&t, root_child_by_text(&t, &text, b's'), b'z');
        let t = with_first_char(&t, root_child_by_text(&t, &text, b'i'), b's');
        for pattern in [b"ssi".as_slice(), b"s", b"sip"] {
            assert_eq!(
                find_sorted(&t, &text, pattern),
                scan(&text, pattern),
                "fallback scan missed the true child for {:?}",
                std::str::from_utf8(pattern)
            );
        }
        // Absent patterns still come back NoMatch (the scan must terminate).
        assert!(!t.try_contains(&text, b"sz").unwrap());
        assert_eq!(t.try_count(&text, b"zz").unwrap(), 0);

        // The same corrupted tree over a store-backed source: the recovery
        // path may legitimately read the text, and must stay correct when
        // those reads are real fetches.
        for store in file_stores(&text, "stale-scan") {
            let source = tiny_block_source(store.as_ref());
            assert_eq!(find_sorted(&t, &source, b"ssi"), scan(&text, b"ssi"));
            assert_eq!(t.try_count(&source, b"s").unwrap(), 4);
        }
    }

    #[test]
    fn leaf_count_below_matches_leaves_below_len() {
        let (text, t) = tree_for(b"mississippi");
        for id in t.node_ids() {
            assert_eq!(t.leaf_count_below(id), t.leaves_below(id).len(), "node {id}");
        }
        // And through the public counting query (which uses it).
        for pattern in [&b""[..], b"i", b"ss", b"issi", b"zzz", b"mississippi"] {
            assert_eq!(
                t.try_count(&text, pattern).unwrap(),
                t.try_find_all(&text, pattern).unwrap().len(),
                "pattern {:?}",
                std::str::from_utf8(pattern)
            );
        }
    }

    #[test]
    fn longest_repeated_substring_mississippi() {
        let (text, t) = tree_for(b"mississippi");
        let (off, len) = t.longest_repeated_substring().unwrap();
        assert_eq!(len, 4);
        assert_eq!(&text[off as usize..(off + len) as usize], b"issi");
    }

    #[test]
    fn longest_repeated_substring_none_for_unique_symbols() {
        let (_, t) = tree_for(b"abcd");
        assert!(t.longest_repeated_substring().is_none());
    }

    #[test]
    fn longest_common_substring_basic() {
        // left = "xabcy", right = "zabcw", separator '#'
        let body = b"xabcy#zabcw";
        let (text, t) = tree_for(body);
        let sep = body.iter().position(|&b| b == b'#').unwrap();
        let (off, len) = t.longest_common_substring(sep).unwrap();
        assert_eq!(len, 3);
        assert_eq!(&text[off as usize..(off + len) as usize], b"abc");
    }

    #[test]
    fn longest_common_substring_no_overlap() {
        let (_, t) = tree_for(b"aaa#bbb");
        assert!(t.longest_common_substring(3).is_none());
    }

    #[test]
    fn longest_common_substring_does_not_cross_separator() {
        // "ab#ab": the string "ab#a" crosses the separator and must not count.
        let (text, t) = tree_for(b"ab#ab");
        let (off, len) = t.longest_common_substring(2).unwrap();
        assert_eq!(len, 2);
        assert_eq!(&text[off as usize..(off + len) as usize], b"ab");
    }

    #[test]
    fn paper_example_queries() {
        let (text, t) = tree_for(b"TGGTGGTGGTGCGGTGATGGTGC");
        // Table 1: "TG" occurs at 0, 3, 6, 9, 14, 17, 20.
        assert_eq!(find_sorted(&t, &text, b"TG"), vec![0, 3, 6, 9, 14, 17, 20]);
        assert_eq!(t.try_count(&text, b"TGGTG").unwrap(), 4);
        assert_eq!(t.try_count(&text, b"TGGTGG").unwrap(), 2);
    }
}
