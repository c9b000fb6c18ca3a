//! Compact binary serialization of flat suffix (sub-)trees.
//!
//! ERA and the disk-based baselines write finished sub-trees to disk as they
//! are produced (the human-genome tree is ~26× the input, so it cannot stay in
//! memory). The one tree format is `ERAFLAT1` — the flat serving layout
//! ([`FlatTree`]): a little-endian header (magic, text length, node count)
//! and a fixed 16-byte record per node, written verbatim, so loading is a
//! bulk read with no per-node pointer rebuilding. It is the segment format
//! of the [`crate::catalog`] container and the spill format of the baselines;
//! construction-form [`SuffixTree`](crate::SuffixTree)s are frozen first.
//!
//! [`read_flat_tree`] takes one segment's bytes, already in memory (the
//! catalog's group region, a spill file), and decodes its records where they
//! lie through era-string-store's bounded [`ByteReader`]: the node count is
//! checked against the bytes present before anything is allocated for it,
//! and a segment with bytes after its last record is rejected.

#![deny(
    clippy::cast_possible_truncation,
    clippy::arithmetic_side_effects,
    clippy::indexing_slicing
)]

use std::io::{self, Write};

use era_string_store::ByteReader;

use crate::layout::{FlatNode, FlatTree};

const FLAT_MAGIC: &[u8; 8] = b"ERAFLAT1";

/// Writes a flat serving-layout tree to any writer (`ERAFLAT1`): the magic,
/// the text length, the node count, then the fixed 16-byte records verbatim.
#[expect(
    clippy::cast_possible_truncation,
    reason = "text_len() widens a u32 field; node_count() as u32 is unguarded: freeze counts ids in u32, and ConstructionPipeline::run holds a text below u32::MAX symbols but not its trees below 2^32 nodes (up to two per suffix)"
)]
pub fn write_flat_tree<W: Write>(w: &mut W, tree: &FlatTree) -> io::Result<()> {
    w.write_all(FLAT_MAGIC)?;
    w.write_all(&(tree.text_len() as u32).to_le_bytes())?;
    w.write_all(&(tree.node_count() as u32).to_le_bytes())?;
    for id in tree.node_ids() {
        let (start, end, payload, meta) = tree.raw_node(id);
        for word in [start, end, payload, meta] {
            w.write_all(&word.to_le_bytes())?;
        }
    }
    Ok(())
}

/// Reads a flat tree previously written with [`write_flat_tree`] out of the
/// segment's bytes, which it must fill exactly, running the full structural
/// validation pass ([`crate::validate::validate_flat_structure`]) on the
/// untrusted bytes: child blocks in the freeze's pre-order layout (in bounds,
/// tiling the arena, every node reachable once), sibling ordering and
/// leaf/meta-word consistency.
pub fn read_flat_tree(segment: &[u8]) -> io::Result<FlatTree> {
    let mut r = ByteReader::new(segment, "ERAFLAT1 segment");
    if r.take(FLAT_MAGIC.len(), "magic")? != FLAT_MAGIC {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "not an ERA flat tree file"));
    }
    let text_len = r.u32("text length")?;
    let node_count = r.u32("node count")? as usize;
    if node_count == 0 {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "flat tree without a root"));
    }
    // The records are bounds-checked against the segment before anything is
    // allocated for them, then decoded where they lie.
    let records = r.u32_records(node_count, "node records")?;
    r.finish()?;
    let nodes =
        records.map(|[start, end, payload, meta]| FlatNode::from_raw(start, end, payload, meta));
    let tree = FlatTree::from_raw_parts(text_len, nodes.collect());
    // The cheap structural subset of `validate_flat_tree` is always on for
    // untrusted bytes: a corrupt segment must error at load time, not
    // serve wrong answers (or panic) at query time. The text-backed deep
    // checks stay behind `EraConfig::paranoid` / `era-check fsck --deep`.
    crate::validate::validate_flat_structure(&tree).map_err(|e| {
        io::Error::new(io::ErrorKind::InvalidData, format!("corrupt flat tree: {e}"))
    })?;
    Ok(tree)
}

impl FlatTree {
    /// Serialized size in bytes (without writing anywhere): a fixed header
    /// plus 16 bytes per node.
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "ERAFLAT1 counts nodes in a u32, so 16 + 16 * node_count() < 2^37 fits a 64-bit usize"
    )]
    pub fn serialized_size(&self) -> usize {
        8 + 4 + 4 + self.node_count() * 16
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::naive_suffix_tree;
    use crate::validate::validate_flat_tree;

    #[test]
    fn flat_tree_roundtrip_in_memory() {
        let text = b"mississippi\0";
        let flat = FlatTree::freeze(&naive_suffix_tree(text));
        let mut buf = Vec::new();
        write_flat_tree(&mut buf, &flat).unwrap();
        let back = read_flat_tree(&buf).unwrap();
        assert_eq!(flat, back);
        assert_eq!(flat.serialized_size(), buf.len());
        validate_flat_tree(&back, &text[..], Some(text.len())).unwrap();
    }

    #[test]
    fn rejects_bad_magic() {
        let data = b"NOTATREExxxxxxxxxxxx".to_vec();
        assert!(read_flat_tree(&data).is_err());
    }

    #[test]
    fn rejects_one_trailing_byte() {
        let flat = FlatTree::freeze(&naive_suffix_tree(b"ab\0"));
        let mut buf = Vec::new();
        write_flat_tree(&mut buf, &flat).unwrap();
        buf.push(0);
        let err = read_flat_tree(&buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("1 trailing bytes"), "{err}");
    }

    #[test]
    fn rejects_out_of_bounds_child_range() {
        let flat = FlatTree::freeze(&naive_suffix_tree(b"ab\0"));
        let mut buf = Vec::new();
        write_flat_tree(&mut buf, &flat).unwrap();
        // Corrupt the root's child count (meta word of node 0) to overflow
        // the arena.
        let meta_off = 8 + 4 + 4 + 12;
        buf[meta_off..meta_off + 4].copy_from_slice(&1000u32.to_le_bytes());
        assert!(read_flat_tree(&buf).is_err());
    }
}
