//! Checked index conversions for the dense (CSR/arena) hot paths.
//!
//! The dense engines store node indices as `u32` (half the cache traffic of
//! `usize` on 64-bit targets) and constantly convert between the packed form
//! and the `usize` the slice-indexing operators want. A raw `as` cast in
//! either direction is a silent truncation bug waiting for the population to
//! cross 2^32; these helpers make the intent explicit and make the narrowing
//! direction assert in debug builds while compiling to the same bare cast in
//! release.
//!
//! Rule D3 denies clippy's `cast_possible_truncation` and `cast_sign_loss`
//! in the hot-path files and points offenders here; this module is the one
//! sanctioned home for the underlying casts.

/// Widen a packed `u32` node index to a `usize` for slice indexing.
///
/// Infallible on every target the workspace supports (`usize` is at least
/// 32 bits); exists so hot-path code never spells a raw `as` cast.
#[inline(always)]
#[must_use]
pub const fn idx(i: u32) -> usize {
    i as usize
}

/// Narrow a `usize` length or position to a packed `u32` node index.
///
/// Debug builds assert the value fits; release builds compile to a bare
/// truncating cast (zero cost). Use [`checked_u32`] instead where the input
/// is externally controlled and the overflow must be a hard error in every
/// profile.
#[inline(always)]
#[must_use]
pub fn to_u32(i: usize) -> u32 {
    debug_assert!(
        u32::try_from(i).is_ok(),
        "index {i} does not fit in a packed u32 node index"
    );
    i as u32
}

/// Narrow a `u64` ordinal (a calendar day or bucket count) to a `usize`
/// index.
///
/// The callers only ever pass values already reduced modulo a collection
/// length, so the conversion is infallible in practice; debug builds assert
/// it, release builds compile to a bare cast.
#[inline(always)]
#[must_use]
pub fn idx_u64(i: u64) -> usize {
    debug_assert!(
        usize::try_from(i).is_ok(),
        "ordinal {i} does not fit in a usize index"
    );
    i as usize
}

/// Narrow a `usize` to `u32`, panicking in **every** profile on overflow.
///
/// For population-sized quantities established once per build (arena spawn,
/// CSR construction) where the check is off the hot path and a silent wrap
/// in release would corrupt the overlay.
#[inline]
#[must_use]
pub fn checked_u32(i: usize) -> u32 {
    u32::try_from(i).expect("index fits in a packed u32 node index")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_in_range() {
        for v in [0u32, 1, 63, 64, u32::MAX - 1, u32::MAX] {
            assert_eq!(to_u32(idx(v)), v);
            assert_eq!(checked_u32(idx(v)), v);
        }
    }

    #[test]
    #[should_panic(expected = "fits in a packed u32")]
    fn checked_u32_rejects_overflow() {
        let _ = checked_u32(u32::MAX as usize + 1);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "does not fit in a packed u32")]
    fn to_u32_asserts_in_debug() {
        let _ = to_u32(u32::MAX as usize + 1);
    }
}
