// Twin: the same sites, each fn excused by a reasoned expect.

#[expect(clippy::indexing_slicing, reason = "fixture: i is clamped to table.len() by every caller")]
fn lookup(table: &[usize], i: usize) -> usize {
    table[i]
}

#[expect(
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    reason = "fixture: callers never pass i < 4"
)]
pub fn serve(table: &[usize], i: usize) -> usize {
    match i {
        0 => panic!("empty query"),
        1 => unreachable!("validated on load"),
        2 => todo!(),
        3 => unimplemented!(),
        _ => lookup(table, i),
    }
}
