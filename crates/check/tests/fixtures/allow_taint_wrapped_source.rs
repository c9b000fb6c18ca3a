// Twin: the same parser under the parser deny, with the preallocation
// clamped against a declared budget and the prefix bound computed with
// checked arithmetic — a hostile count or length now runs out of real bytes
// instead of out of memory.

#[expect(clippy::disallowed_methods, reason = "the manifest's decoder, under the parser deny")]
fn read_u32(bytes: &[u8], off: usize) -> Option<u32> {
    Some(u32::from_le_bytes(bytes.get(off..off.checked_add(4)?)?.try_into().ok()?))
}

pub fn check_manifest(bytes: Vec<u8>, off: usize) -> Option<Vec<Vec<u8>>> {
    let count = usize::try_from(read_u32(&bytes, 12)?).ok()?;
    let mut prefixes = Vec::with_capacity(count.min(1024));
    let plen = usize::try_from(read_u32(&bytes, off)?).ok()?;
    prefixes.push(bytes.get(off..off.checked_add(plen)?)?.to_vec());
    Some(prefixes)
}
