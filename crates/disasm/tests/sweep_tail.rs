//! Sweep-tail identity: the sweep's single loop runs to the very end of
//! a region, decoding its last bytes through a zero-padded window. On
//! short regions of random and hostile bytes, and on the real end of a
//! compiled `.text` cut at every length, `sweep_all` and
//! `par_sweep_forced` must give exactly the instructions and error count
//! of the one-instruction-at-a-time `LinearSweep` reference.

use funseeker_disasm::{par_sweep_forced, sweep_all, LinearSweep, Mode};
use funseeker_elf::{Elf, Machine};
use proptest::prelude::*;

/// Checks one region against the reference; `what` names it in failures.
fn check(code: &[u8], base: u64, mode: Mode, what: &str) -> Result<(), TestCaseError> {
    let mut reference = LinearSweep::new(code, base, mode);
    let want: Vec<_> = reference.by_ref().collect();
    let seq = sweep_all(code, base, mode);
    prop_assert_eq!(&seq.to_insns(), &want, "sweep_all: {} {:?}", what, mode);
    prop_assert_eq!(seq.error_count, reference.error_count(), "sweep_all errors: {}", what);
    for shards in [2, 3] {
        let par = par_sweep_forced(code, base, mode, shards);
        prop_assert_eq!(&par.stream, &seq.stream, "{} shards: {} {:?}", shards, what, mode);
        prop_assert_eq!(par.error_count, seq.error_count, "{} shards errors: {}", shards, what);
    }
    Ok(())
}

fn xorshift(x: &mut u64) -> u8 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x as u8
}

/// Encodings whose decode depends on bytes a short region cuts off:
/// prefix chains, REX, escapes, VEX/EVEX heads, rel32 branches,
/// ModRM/SIB/disp32 forms, ENDBR, pad bytes, and undefined opcodes.
const HOSTILE: [&[u8]; 16] = [
    &[0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x90],
    &[0xF3, 0x0F, 0x1E, 0xFA],
    &[0xF3, 0x48, 0x0F, 0xB8, 0xC0],
    &[0x48, 0xB8, 1, 2, 3, 4, 5, 6, 7, 8],
    &[0xE8, 0x10, 0x20, 0x30, 0x40],
    &[0x0F, 0x85, 0xFF, 0xFF, 0xFF, 0xFF],
    &[0xC4, 0xE2, 0x6D, 0x36, 0xC1],
    &[0x62, 0xF1, 0x7C, 0x48, 0x10, 0x07],
    &[0xC7, 0x84, 0x24, 0x10, 0x00, 0x00, 0x00, 0x01, 0x02, 0x03, 0x04],
    &[0x8B, 0x04, 0x25, 1, 2, 3, 4],
    &[0xFF, 0x25, 0x10, 0x20, 0x30, 0x00],
    &[0xFF, 0xF8],
    &[0x41, 0x48, 0x55],
    &[0x90, 0x90, 0xCC, 0xCC, 0xCC],
    &[0x0F, 0x3A, 0x0F, 0xC1, 0x08],
    &[0x67, 0x8B, 0x06, 1, 2],
];

#[test]
fn short_random_and_hostile_regions_match_the_reference() {
    let hostile: Vec<u8> = HOSTILE.iter().flat_map(|f| f.iter().copied()).collect();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for mode in [Mode::Bits64, Mode::Bits32] {
        for len in 0..=48usize {
            for rot in 0..HOSTILE.len() {
                // Every fragment first in turn, so each one is cut at
                // every depth.
                let start: usize = HOSTILE[..rot].iter().map(|f| f.len()).sum();
                let code: Vec<u8> = hostile.iter().cycle().skip(start).take(len).copied().collect();
                check(&code, 0x40_1000, mode, &format!("hostile rot {rot} len {len}")).unwrap();
            }
            for _ in 0..8 {
                let code: Vec<u8> = (0..len).map(|_| xorshift(&mut x)).collect();
                check(&code, 0x40_1000, mode, &format!("random {code:x?}")).unwrap();
            }
        }
    }
}

#[test]
fn end_of_real_text_cut_at_every_length() {
    let bytes = std::fs::read("/proc/self/exe").expect("read own executable");
    let elf = Elf::parse(&bytes).expect("own executable parses");
    let mode = match elf.header.machine {
        Machine::X86_64 => Mode::Bits64,
        Machine::X86 => Mode::Bits32,
        Machine::Other(_) => return,
    };
    let (base, text) = elf.section_bytes(".text").expect("own executable has .text");
    assert!(text.len() > 64 + 3 * 4096, "test binary .text unexpectedly small");
    let tail = text.len() - 64;
    // A body of three 4 KiB shard spans in front, so the forced sharded
    // sweep really shards and its last shard ends in the cut tail.
    let body = tail - 3 * 4096;
    for cut in 0..=64usize {
        let alone = &text[tail..tail + cut];
        check(alone, base + tail as u64, mode, &format!("tail cut {cut}")).unwrap();
        let behind = &text[body..tail + cut];
        check(behind, base + body as u64, mode, &format!("body + tail cut {cut}")).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_short_regions_match_the_reference(
        code in proptest::collection::vec(any::<u8>(), 0..=48),
        wide in any::<bool>(),
        base in any::<u64>(),
    ) {
        let mode = if wide { Mode::Bits64 } else { Mode::Bits32 };
        check(&code, base, mode, "proptest")?;
    }
}
