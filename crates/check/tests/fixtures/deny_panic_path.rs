// Fixture: a serving fn and the helper it calls, with one site for every
// lint a serving module denies; the index is one call away from `serve`.

fn lookup(table: &[usize], i: usize) -> usize {
    table[i]
}

pub fn serve(table: &[usize], i: usize) -> usize {
    match i {
        0 => panic!("empty query"),
        1 => unreachable!("validated on load"),
        2 => todo!(),
        3 => unimplemented!(),
        _ => lookup(table, i),
    }
}
