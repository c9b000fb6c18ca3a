// Twin: the same lookup through `get`, so a hostile slot is rejected
// instead of reaching the index.

#[expect(clippy::disallowed_methods, reason = "fixture parser, under the parser deny")]
pub fn parse_entry(buf: &[u8], table: &[u32]) -> u32 {
    let slot = u16::from_le_bytes(buf.get(0..2).and_then(|b| b.try_into().ok()).unwrap_or([0; 2]));
    table.get(usize::from(slot)).copied().unwrap_or(0)
}
