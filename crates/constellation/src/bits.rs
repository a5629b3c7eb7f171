//! Bit iteration shared by the liveness rows (`failures`) and the
//! ledger's touched bits (`capacity`).

/// Positions of the set bits of `word`, lowest first.
pub(crate) fn ones(word: u64) -> impl Iterator<Item = u32> {
    // Each step clears the lowest set bit.
    let nonzero = |b: u64| (b != 0).then_some(b);
    std::iter::successors(nonzero(word), move |&b| nonzero(b & (b - 1))).map(|b| b.trailing_zeros())
}
