//! Differential tests for the sweep kernels: the build's tier (SSE2 on
//! x86-64) must agree bit-for-bit with the `kernels::scalar` reference
//! on every input — at every alignment phase, across every vector-width
//! boundary straddle, on adversarial needle layouts, and on arbitrary
//! random buffers (proptest). On other targets both sides run the
//! scalar code and the suite checks it against itself. The sealed-stream
//! rank lookups ride along: sealing is a pure accelerator, so a sealed
//! stream must answer every address query exactly like its unsealed
//! twin.

use funseeker_disasm::kernels::{find_endbr, pad_run_end, scalar};
use funseeker_disasm::{sweep_all, InsnStream, Mode};
use proptest::prelude::*;

#[test]
fn endbr_scan_every_alignment_and_straddle() {
    // One needle slid across every offset of a buffer long enough that it
    // straddles each 16-byte chunk boundary, embedded in F3 noise so
    // candidate filtering is exercised, plus both FA/FB tails and a
    // decoy (F3 0F 1E FC is not an ENDBR).
    for tail in [0xFAu8, 0xFB, 0xFC] {
        for pos in 0..100usize {
            let mut code = vec![0xF3u8; 104];
            code[pos] = 0xF3;
            code[pos + 1] = 0x0F;
            code[pos + 2] = 0x1E;
            code[pos + 3] = tail;
            let want = scalar::find_endbr(&code);
            if tail == 0xFC {
                assert!(!want.contains(&(pos as u32)));
            } else {
                assert!(want.contains(&(pos as u32)));
            }
            assert_eq!(find_endbr(&code), want, "pos={pos} tail={tail:#x}");
        }
    }
}

#[test]
fn endbr_scan_truncated_needles_at_buffer_end() {
    // Prefixes of the needle at the very end of the region must never be
    // reported, at every buffer length (vector remainders included).
    let needle = [0xF3u8, 0x0F, 0x1E, 0xFA];
    for pad in 0..70usize {
        for keep in 0..4usize {
            let mut code = vec![0x90u8; pad];
            code.extend_from_slice(&needle[..keep]);
            assert!(scalar::find_endbr(&code).is_empty());
            assert!(find_endbr(&code).is_empty(), "pad={pad} keep={keep}");
        }
    }
}

#[test]
fn pad_run_every_start_phase_and_cap() {
    // A long run with a mismatch planted at every distance from every
    // start phase, under caps that land inside, at, and past the run end.
    let n = 140usize;
    for mism in [None, Some(35usize), Some(64), Some(96)] {
        let mut code = vec![0xCCu8; n];
        if let Some(m) = mism {
            code[m] = 0x00;
        }
        for start in 0..48usize {
            for hi in [start, start + 1, start + 17, n - 3, n] {
                assert_eq!(
                    pad_run_end(&code, start, hi, 0xCC),
                    scalar::pad_run_end(&code, start, hi, 0xCC),
                    "start={start} hi={hi} mism={mism:?}"
                );
            }
        }
    }
}

#[test]
fn sealed_stream_answers_like_unsealed() {
    // Sweep real-ish bytes, seal a copy, and probe every address in and
    // around the region: sealing must be observationally invisible.
    let unit = [0xf3, 0x0f, 0x1e, 0xfa, 0x55, 0x48, 0x89, 0xe5, 0xe8, 0, 0, 0, 0, 0x90, 0xc3];
    let code: Vec<u8> = unit.iter().copied().cycle().take(700).collect();
    let base = 0x40_1000u64;
    let plain: InsnStream = sweep_all(&code, base, Mode::Bits64).stream;
    let mut sealed = plain.clone();
    sealed.seal();
    assert!(sealed.is_sealed());
    assert_eq!(plain, sealed, "sealing must not change stream equality");
    for addr in (base - 4)..(base + code.len() as u64 + 4) {
        assert_eq!(plain.index_of_addr(addr), sealed.index_of_addr(addr), "index_of {addr:#x}");
    }
    for (lo, hi) in [(base, base + 7), (base - 9, base + 700), (base + 33, base + 34)] {
        let a: Vec<_> = plain.range(lo, hi).collect();
        let b: Vec<_> = sealed.range(lo, hi).collect();
        assert_eq!(a, b, "range {lo:#x}..{hi:#x}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random buffers: both kernels agree with scalar at arbitrary
    /// content, lengths, and subslice phases.
    #[test]
    fn kernels_match_scalar_on_random_buffers(
        code in proptest::collection::vec(any::<u8>(), 0..2500),
        seeds in proptest::collection::vec((any::<u16>(), any::<bool>()), 0..12),
        phase in 0usize..64,
    ) {
        let mut code = code;
        // Plant needles and pad runs so hits are dense enough to matter.
        for (at, fb) in seeds {
            let at = at as usize;
            if at + 8 <= code.len() {
                code[at..at + 4].copy_from_slice(&[0xF3, 0x0F, 0x1E, if fb { 0xFB } else { 0xFA }]);
                code[at + 4..at + 8].fill(if fb { 0x90 } else { 0xCC });
            }
        }
        let code = &code[phase.min(code.len())..];

        prop_assert_eq!(find_endbr(code), scalar::find_endbr(code));
        for start in [0usize, 1, 31].into_iter().filter(|&s| s <= code.len()) {
            for byte in [0x90u8, 0xCC] {
                prop_assert_eq!(
                    pad_run_end(code, start, code.len(), byte),
                    scalar::pad_run_end(code, start, code.len(), byte),
                    "pad_run_end start={} byte={:#x}", start, byte
                );
            }
        }
    }
}
