//! Checked integer conversions for the DP index bookkeeping.
//!
//! The selection algorithms store candidate ranks and trie-vertex indices as
//! `u32` (halving the DP tables' cache footprint) while slices are indexed
//! with `usize`. Every conversion between the two goes through this module so
//! the narrowing direction is validated in exactly one place — bare `as`
//! casts in ring arithmetic and index bookkeeping are rejected by
//! `peercache-lint` rule L2.

/// Narrow a rank/index to the `u32` the DP tables store.
///
/// Problem validation caps candidate counts well below `u32::MAX`
/// (`Vec<f64>` tables of that size would exceed memory first), so the
/// expectation is unreachable in any constructible problem.
#[inline]
pub(crate) fn index_to_u32(value: usize) -> u32 {
    u32::try_from(value).expect("rank/index fits u32: problem sizes are memory-bounded")
}

/// Widen a stored `u32` rank/index back to `usize`.
#[inline]
pub(crate) fn index_from_u32(value: u32) -> usize {
    // usize is at least 32 bits on every supported target, so this cannot
    // fail; the `expect` documents the assumption instead of masking it.
    usize::try_from(value).expect("u32 fits usize on supported targets")
}

/// Widen a `u32` hop count / bit position into the `usize` domain used for
/// table strides and offsets. Same reasoning as [`index_from_u32`].
#[inline]
pub(crate) fn usize_from_u32(value: u32) -> usize {
    usize::try_from(value).expect("u32 fits usize on supported targets")
}

/// Narrow a trie child-slot index to the `u16` stored on each vertex.
///
/// Digit widths are validated to at most 16 bits, so slots range over
/// `0..2^16` and always fit.
#[inline]
pub(crate) fn slot_to_u16(value: usize) -> u16 {
    u16::try_from(value).expect("child slots are bounded by arity ≤ 2^16")
}

/// A count as `f64`, exact below `2^53` (the integers `f64` holds), from
/// its two 32-bit halves.
#[inline]
pub(crate) fn count_to_f64(value: u64) -> f64 {
    let half = |bits: u64| f64::from(u32::try_from(bits).unwrap_or(u32::MAX));
    half(value >> 32) * 4_294_967_296.0 + half(value & u64::from(u32::MAX))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips() {
        assert_eq!(index_to_u32(0), 0);
        assert_eq!(index_to_u32(123_456), 123_456);
        assert_eq!(index_from_u32(u32::MAX), u32::MAX as usize);
        assert_eq!(usize_from_u32(7), 7);
        for v in [0, 1, u64::from(u32::MAX), 1 << 32, (1 << 53) - 1] {
            assert_eq!(count_to_f64(v), v as f64);
        }
    }
}
