// Fixture: the shape of a hand-written manifest parser that once shipped in
// `era-check fsck`. Neither fn is parser-named and the helper's value leaves
// through `Some(..)` of an `Option`, which used to hide it from the taint
// pass — so a flipped count bit preallocated ~25 GB and aborted the process.
// The helper decodes its own byte-slice parameter, which makes it a source.

fn read_u32(bytes: &[u8], off: usize) -> Option<u32> {
    Some(u32::from_le_bytes(bytes.get(off..off + 4)?.try_into().ok()?))
}

pub fn check_manifest(bytes: Vec<u8>, off: usize) -> Option<Vec<Vec<u8>>> {
    let count = read_u32(&bytes, 12)? as usize;
    let mut prefixes = Vec::with_capacity(count);
    let plen = read_u32(&bytes, off)?;
    prefixes.push(bytes.get(off..off + plen as usize)?.to_vec());
    Some(prefixes)
}
