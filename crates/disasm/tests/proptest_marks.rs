//! Property tests for the tag scan behind the shared index build:
//! [`InsnStream::marks`] must yield exactly the end-branches, direct
//! calls and direct jumps that a full [`InsnStream::iter`] walk finds, in
//! the same order and with the same addresses, lengths and targets — on
//! hand-built streams of every kind, on swept byte soups, on
//! forced-shard sweeps, and on multi-segment streams.

use funseeker_disasm::{
    par_sweep_forced, par_sweep_into, sweep_all, Insn, InsnKind, InsnStream, Mode,
};
use proptest::prelude::*;

/// The oracle: a full walk filtered to the marked kinds.
fn filtered(stream: &InsnStream) -> Vec<Insn> {
    stream
        .iter()
        .filter(|i| {
            matches!(
                i.kind,
                InsnKind::Endbr64
                    | InsnKind::Endbr32
                    | InsnKind::CallRel { .. }
                    | InsnKind::JmpRel { .. }
            )
        })
        .collect()
}

fn assert_marks(stream: &InsnStream, what: &str) -> Result<(), TestCaseError> {
    let marks: Vec<Insn> = stream.marks().collect();
    prop_assert_eq!(marks, filtered(stream), "marks diverge on {}", what);
    Ok(())
}

/// Every [`InsnKind`] variant, picked by `sel`, with `target` as the
/// payload of the direct branches.
fn kind_of(sel: u8, target: u64) -> InsnKind {
    match sel % 17 {
        0 => InsnKind::Other,
        1 => InsnKind::Endbr64,
        2 => InsnKind::Endbr32,
        3 => InsnKind::Ret,
        4 => InsnKind::Leave,
        5 => InsnKind::Nop,
        6 => InsnKind::Int3,
        7 => InsnKind::Ud2,
        8 => InsnKind::Hlt,
        9 => InsnKind::CallInd { notrack: sel & 0x80 != 0 },
        10 => InsnKind::JmpInd { notrack: sel & 0x80 != 0 },
        11 => InsnKind::CallRel { target },
        12 => InsnKind::JmpRel { target },
        13 | 14 => InsnKind::Jcc { target },
        _ => InsnKind::PushReg { reg: sel >> 4 },
    }
}

/// A stream built instruction by instruction from `(kind selector,
/// target, length)` triples, opening a new segment at a far base before
/// each instruction whose selector's top bit pair is set.
fn built(items: &[(u8, u64, u8)]) -> InsnStream {
    let mut stream = InsnStream::new();
    let mut addr = 0x40_0000u64;
    stream.begin_segment(addr);
    for &(sel, target, len) in items {
        if sel >> 6 == 3 {
            addr += 0x10_0000;
            stream.begin_segment(addr);
        }
        let len = 1 + len % 15;
        stream.push(Insn { addr, len, kind: kind_of(sel, target) });
        addr += u64::from(len);
    }
    stream
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Hand-built streams: every kind, arbitrary targets, single and
    /// multiple segments.
    #[test]
    fn built_streams(items in proptest::collection::vec((any::<u8>(), any::<u64>(), any::<u8>()), 0..600)) {
        let stream = built(&items);
        assert_marks(&stream, "a built stream")?;
        let mut sealed = stream.clone();
        sealed.seal();
        assert_marks(&sealed, "a sealed built stream")?;
    }

    /// Swept byte soups, sequentially and through forced shards.
    #[test]
    fn swept_soups(code in proptest::collection::vec(any::<u8>(), 0..20_000), wide in any::<bool>(), shards in 2usize..6) {
        let mode = if wide { Mode::Bits64 } else { Mode::Bits32 };
        assert_marks(&sweep_all(&code, 0x1000, mode).stream, "a sequential sweep")?;
        assert_marks(&par_sweep_forced(&code, 0x1000, mode, shards).stream, "a forced-shard sweep")?;
    }

    /// Several regions swept into one stream, one segment each (the
    /// index build's own layout), and the same regions concatenated
    /// with `append`.
    #[test]
    fn multi_region_streams(regions in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..3_000), 1..5)) {
        let mut into = InsnStream::new();
        let mut appended = InsnStream::new();
        for (k, code) in regions.iter().enumerate() {
            let base = 0x1000 + 0x10_0000 * k as u64;
            par_sweep_into(&mut into, code, base, Mode::Bits64, usize::MAX);
            appended.append(&sweep_all(code, base, Mode::Bits64).stream);
        }
        assert_marks(&into, "regions swept into one stream")?;
        assert_marks(&appended, "appended regions")?;
        prop_assert_eq!(into.to_insns(), appended.to_insns());
    }
}

#[test]
fn large_forced_shard_sweep_with_every_marked_kind() {
    // endbr64; call rel32; jmp rel8; jne rel8; push rbp; ret — repeated
    // well past several 4 KiB shard floors, so the stitch splices marked
    // instructions on both sides of every shard boundary.
    let unit = [0xf3, 0x0f, 0x1e, 0xfa, 0xe8, 1, 0, 0, 0, 0xeb, 0, 0x75, 0, 0x55, 0xc3];
    let code: Vec<u8> = unit.iter().copied().cycle().take(64 * 1024 + 7).collect();
    for shards in [2, 3, 7, 16] {
        let stream = par_sweep_forced(&code, 0x40_0000, Mode::Bits64, shards).stream;
        let marks: Vec<Insn> = stream.marks().collect();
        assert_eq!(marks, filtered(&stream), "{shards} shards");
        assert!(marks.len() > 10_000);
    }
}
