// Twin: the same offset computation, overflow-proofed with checked_* —
// and a second field excused by a reasoned expect.

#[expect(clippy::disallowed_methods, reason = "fixture parser, under the parser deny")]
pub fn parse_span(buf: &[u8]) -> u64 {
    let len = u64::from_le_bytes(buf.get(0..8).and_then(|b| b.try_into().ok()).unwrap_or([0; 8]));
    len.checked_mul(8).and_then(|b| b.checked_add(16)).unwrap_or(u64::MAX)
}

#[expect(clippy::disallowed_methods, reason = "fixture parser, under the parser deny")]
#[expect(clippy::arithmetic_side_effects, reason = "fixture: the caller range-checks this field")]
pub fn parse_flags(buf: &[u8]) -> u64 {
    let flags = u64::from_le_bytes(buf.get(8..16).and_then(|b| b.try_into().ok()).unwrap_or([0; 8]));
    flags + 1
}
