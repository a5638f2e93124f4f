//! Vectorized sweep kernels, in two tiers fixed at compile time.
//!
//! The two byte scans of the sweep pipeline — the ENDBR needle search
//! and the padding-run skipper — in two implementations:
//!
//! * **SSE2** (16-byte compares) on x86-64, where SSE2 is
//!   architecturally guaranteed, so no runtime feature check is needed;
//! * **Scalar** everywhere else, and as the byte-at-a-time reference
//!   ([`scalar`]) that `tests/kernel_differential.rs` checks SSE2
//!   against bit for bit.
//!
//! There is no runtime selection: interleaved end-to-end runs could not
//! tell AVX2, SSE2 and scalar apart (EXPERIMENTS.md), so the build picks
//! the one tier its target guarantees.

// The only unsafe code in the crate: SSE2 intrinsics, which every
// x86-64 CPU supports.
#![allow(unsafe_code)]

#[cfg(target_arch = "x86_64")]
use sse2 as native;

#[cfg(not(target_arch = "x86_64"))]
use scalar as native;

/// Kernel implementation tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelTier {
    /// 16-byte SSE2 kernels (x86-64 builds).
    Sse2,
    /// Byte-at-a-time kernels (every other target).
    Scalar,
}

impl KernelTier {
    /// The tier this build's kernels use: [`KernelTier::Sse2`] on
    /// x86-64, [`KernelTier::Scalar`] elsewhere. A label for reports —
    /// the choice is made at compile time.
    pub const fn active() -> KernelTier {
        if cfg!(target_arch = "x86_64") {
            KernelTier::Sse2
        } else {
            KernelTier::Scalar
        }
    }
}

/// All offsets in `code` where an ENDBR encoding (`F3 0F 1E FA` /
/// `F3 0F 1E FB`) begins — the whole-region needle scan behind
/// `endbr_pattern_scan`'s superset ENDBR recovery, which finds end
/// branches the linear sweep swallowed inside other instructions.
pub fn find_endbr(code: &[u8]) -> Vec<u32> {
    native::find_endbr(code)
}

/// First index in `start..hi` whose byte differs from `byte` (`hi` when
/// the run covers the rest) — the padding-run skipper.
pub fn pad_run_end(code: &[u8], start: usize, hi: usize, byte: u8) -> usize {
    debug_assert!(start <= hi && hi <= code.len());
    native::pad_run_end(code, start, hi, byte)
}

/// Whether a verified ENDBR encoding starts at `i` (the `F3` byte).
#[inline]
fn endbr_at(code: &[u8], i: usize) -> bool {
    i + 4 <= code.len()
        && code[i] == 0xF3
        && code[i + 1] == 0x0F
        && code[i + 2] == 0x1E
        && code[i + 3] & 0xFE == 0xFA
}

/// Byte-at-a-time kernels: the tier of non-x86-64 builds and the
/// reference the SSE2 tier is differentially tested against.
pub mod scalar {
    use super::endbr_at;

    /// Scalar [`find_endbr`](super::find_endbr).
    pub fn find_endbr(code: &[u8]) -> Vec<u32> {
        let mut out = Vec::new();
        for i in 0..code.len().saturating_sub(3) {
            if endbr_at(code, i) {
                out.push(i as u32);
            }
        }
        out
    }

    /// Scalar [`pad_run_end`](super::pad_run_end).
    pub fn pad_run_end(code: &[u8], start: usize, hi: usize, byte: u8) -> usize {
        let mut i = start;
        while i < hi && code[i] == byte {
            i += 1;
        }
        i
    }
}

/// 16-byte SSE2 kernels (baseline on x86-64, no runtime gate needed).
#[cfg(target_arch = "x86_64")]
mod sse2 {
    use core::arch::x86_64::*;

    use super::endbr_at;

    /// Per-byte equality mask of a 16-byte chunk against a splatted
    /// byte, as 16 packed bits.
    ///
    /// SAFETY of the loads: callers pass `i` with `i + 16 <= code.len()`.
    #[inline]
    fn eq_mask16(code: &[u8], i: usize, pat: __m128i) -> u32 {
        debug_assert!(i + 16 <= code.len());
        // SAFETY: 16 readable bytes at `code[i..]` per the caller
        // contract; loadu has no alignment requirement.
        let v = unsafe { _mm_loadu_si128(code.as_ptr().add(i).cast()) };
        (unsafe { _mm_movemask_epi8(_mm_cmpeq_epi8(v, pat)) }) as u32 & 0xFFFF
    }

    #[inline]
    fn splat(b: u8) -> __m128i {
        // SAFETY: _mm_set1_epi8 is available on every x86-64 CPU (SSE2
        // baseline) and has no memory operands.
        unsafe { _mm_set1_epi8(b as i8) }
    }

    pub(super) fn find_endbr(code: &[u8]) -> Vec<u32> {
        let mut out = Vec::new();
        let pat = splat(0xF3);
        let mut i = 0usize;
        while i + 16 <= code.len() {
            let mut hits = eq_mask16(code, i, pat);
            while hits != 0 {
                let k = i + hits.trailing_zeros() as usize;
                if endbr_at(code, k) {
                    out.push(k as u32);
                }
                hits &= hits - 1;
            }
            i += 16;
        }
        while i + 4 <= code.len() {
            if endbr_at(code, i) {
                out.push(i as u32);
            }
            i += 1;
        }
        out
    }

    pub(super) fn pad_run_end(code: &[u8], start: usize, hi: usize, byte: u8) -> usize {
        let pat = splat(byte);
        let mut i = start;
        while i + 16 <= hi {
            let eq = eq_mask16(code, i, pat);
            if eq != 0xFFFF {
                return i + (!eq).trailing_zeros() as usize;
            }
            i += 16;
        }
        while i < hi && code[i] == byte {
            i += 1;
        }
        i
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Kernel equivalence lives in `tests/kernel_differential.rs`.
    #[test]
    fn active_tier_matches_the_target() {
        let want = if cfg!(target_arch = "x86_64") { KernelTier::Sse2 } else { KernelTier::Scalar };
        assert_eq!(KernelTier::active(), want);
    }
}
