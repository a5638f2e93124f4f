//! Sharded parallel linear sweep, bit-identical to [`LinearSweep`](crate::LinearSweep).
//!
//! Linear sweep (§IV-B of the paper) is a deterministic chain: the offset
//! after decoding at `o` depends only on the bytes at `o` (instruction
//! length on success, `o + 1` on a decode error). That makes the sweep
//! parallelizable *without* changing its output: split the section into
//! `N` byte-range shards, decode each shard speculatively from its nominal
//! start, then stitch the shards back together by **resynchronizing** —
//! walking the true chain forward from the previous shard's exit offset
//! until it lands on an offset the speculative shard also decoded at,
//! after which the shard's remaining chain is provably identical to the
//! sequential one and can be spliced wholesale.
//!
//! Self-repairing disassembly resynchronizes quickly in practice (a
//! handful of instructions), so the serial stitching work is tiny compared
//! to the per-shard decoding it replaces. Sharding is **morsel-driven
//! and adaptive**: above the [`PAR_MIN_BYTES`] work threshold the
//! region splits into ~`MORSEL_BYTES` (256 KiB) cache-friendly morsels — at
//! least one per pool worker — that the work-stealing pool drains
//! oldest-first, so a decode-heavy morsel occupies one worker while the
//! rest rebalance; below the threshold, or on a one-worker pool, the
//! speculative + stitch overhead loses to the plain sequential loop and
//! [`par_sweep`] falls back to [`sweep_all`] ([`par_sweep_forced`]
//! keeps the sharded path for tests and benches that need it).
//!
//! Both the sequential and sharded paths run the same inner loop
//! ([`sweep_range`]), which layers the [`crate::kernels`] shortcuts over
//! the full decoder:
//!
//! * a **padding run-skipper** ([`kernels::pad_run_end`]) that
//!   bulk-appends runs of `0x90`/`0xCC` bytes — a byte equal to
//!   `90`/`CC` at the start of an instruction always decodes to a
//!   one-byte `NOP`/`INT3` regardless of what follows, so a run of `n`
//!   such bytes is `n` one-byte instructions and can skip the decoder
//!   entirely (inter-function padding makes these runs common and long);
//! * an **8-byte-window fast decoder**
//!   ([`crate::decode`]'s `decode_fast_win`) that decodes the
//!   table-dispatch fast path as a pure function of one unaligned `u64`
//!   load — the same load serves the pad check, so the serial
//!   `off -> bytes -> len -> off` chain carries exactly one load per
//!   instruction. In a region's last bytes the window is zero-padded and
//!   a result is accepted only if the instruction fits in the bytes
//!   left, so one loop runs all the way to the end;
//! * **batched emission**: decoded instructions accumulate in a
//!   64-slot column scratch (offsets, lengths, tags — mirroring the
//!   stream's own layout) and flush via `InsnStream::push_packed` as
//!   three memcpy-backed extends plus one bitmap word append, instead
//!   of one grow-checked push per instruction.
//!
//! Everything the fast path declines goes to the full decoder
//! ([`decode`]), which also walks the stitch's resync steps.
//!
//! Results land in a packed [`InsnStream`] (6 bytes per instruction)
//! instead of a `Vec<Insn>` (32), which shrinks both the speculative
//! shard chains and the memory traffic of the stitch splices. Shards run
//! on the persistent [`funseeker_pool`] worker pool rather than
//! per-call spawned threads.

use std::time::Instant;

use crate::decode::{decode, fast_step, window};
use crate::insn::{Insn, InsnKind};
use crate::kernels;
use crate::mode::Mode;
use crate::stats::SweepStats;
use crate::stream::{has_target, InsnStream};
#[cfg(test)]
use crate::sweep::LinearSweep;

/// The result of sweeping one code region: the decoded instruction chain
/// plus how many byte positions failed to decode.
#[derive(Debug, Clone, Default)]
pub struct SweepOutput {
    /// Instructions in address order, exactly as [`LinearSweep`](crate::LinearSweep) yields
    /// them, in packed form.
    pub stream: InsnStream,
    /// Byte positions skipped by the §IV-B "advance one byte" repair rule.
    pub error_count: usize,
    /// Where the time and the decode work went.
    pub stats: SweepStats,
}

impl SweepOutput {
    /// The stream as legacy [`Insn`] values (tests and debugging; hot
    /// paths iterate or index [`SweepOutput::stream`] directly).
    pub fn to_insns(&self) -> Vec<Insn> {
        self.stream.to_insns()
    }
}

/// Shared inner loop of the sequential sweep and of each speculative
/// shard: sweeps the chain from `lo` until it reaches or passes `hi`,
/// decoding against all of `code` (an instruction may run past `hi`).
/// Returns the exit offset (first chain offset at or past `hi`).
///
/// Offsets land in `stream` as `u32`s relative to the start of `code`,
/// which must be the current segment's base, so `hi` may not exceed
/// `u32::MAX` ([`sweep_segments`] chunks longer regions).
///
/// Equivalence to driving [`decode`] one instruction at a time: the pad
/// check only covers bytes (`90`/`CC`) whose decode is independent of
/// their suffix, and `fast_step` accepts only results equal to
/// [`decode`]'s (checked exhaustively, at every truncation length, in
/// `decode::tests`).
#[allow(clippy::too_many_arguments)]
fn sweep_range(
    code: &[u8],
    base: u64,
    mode: Mode,
    lo: usize,
    hi: usize,
    stream: &mut InsnStream,
    mut on_error: impl FnMut(usize),
    stats: &mut SweepStats,
) -> usize {
    debug_assert!(hi <= code.len() && hi <= u32::MAX as usize);
    let mut off = lo;
    let len0 = stream.len();
    let runs0 = stats.run_insns;
    let mut slow_ok = 0u64;
    // Decoded-instruction scratch: three column arrays mirroring the
    // stream's SoA layout, so a flush is three memcpy-backed
    // `extend_from_slice`s (see `InsnStream::push_packed`). `tbits`
    // marks the scratch slots carrying a branch target; the targets
    // themselves sit dense in `tv[..tn]`.
    let mut so = [0u32; 64];
    let mut sl = [0u8; 64];
    let mut st = [0u8; 64];
    let mut tv = [0u64; 64];
    let mut tbits = 0u64;
    let (mut pn, mut tn) = (0usize, 0usize);
    macro_rules! flush {
        () => {
            stream.push_packed(&so[..pn], &sl[..pn], &st[..pn], tbits, &tv[..tn]);
            (pn, tn, tbits) = (0, 0, 0);
        };
    }
    while off < hi {
        // One load serves both the pad check (low byte) and the window
        // decoder — the per-instruction serial chain `off -> load -> len
        // -> off` has exactly one load on it.
        let win = window(code, off);
        let b = win as u8;
        if b == 0x90 || b == 0xCC {
            flush!();
            let end = kernels::pad_run_end(code, off, hi, b);
            let n = end - off;
            let kind = if b == 0x90 { InsnKind::Nop } else { InsnKind::Int3 };
            stream.push_run(base.wrapping_add(off as u64), n, kind);
            stats.run_insns += n as u64;
            off = end;
            continue;
        }
        let addr = base.wrapping_add(off as u64);
        if let Some((len, tag, target)) = fast_step(code, off, win, addr, mode) {
            so[pn] = off as u32;
            sl[pn] = len;
            st[pn] = tag;
            // Branchless target accept: store unconditionally, advance
            // the cursor only when the tag actually carries one (the
            // branch pattern of real code mispredicts too often).
            let h = usize::from(has_target(tag));
            tv[tn & 63] = target;
            tn += h;
            tbits |= (h as u64) << pn;
            pn += 1;
            if pn == so.len() {
                flush!();
            }
            off += len as usize;
            continue;
        }
        flush!();
        stats.slow_decodes += 1;
        match decode(&code[off..], addr, mode) {
            Ok(insn) => {
                off += insn.len as usize;
                stream.push(insn);
                slow_ok += 1;
            }
            Err(_) => {
                on_error(off);
                off += 1;
            }
        }
    }
    stream.push_packed(&so[..pn], &sl[..pn], &st[..pn], tbits, &tv[..tn]);
    // Fast hits, reconciled in one subtraction instead of a
    // per-instruction counter bump: everything pushed that was neither a
    // run instruction nor a full-decoder success.
    stats.fast_hits += (stream.len() - len0) as u64 - (stats.run_insns - runs0) - slow_ok;
    off
}

/// Sequential sweep of a whole region, collected.
///
/// The single entry point non-parallel callers should use instead of
/// driving [`LinearSweep`](crate::LinearSweep) by hand; [`par_sweep`] is the parallel
/// equivalent and defers to this for small inputs or one-worker pools.
pub fn sweep_all(code: &[u8], base: u64, mode: Mode) -> SweepOutput {
    collect(code, |stream| sweep_into(stream, code, base, mode))
}

/// Runs an appending sweep of `code` into a fresh stream sized for it.
fn collect(code: &[u8], sweep: impl FnOnce(&mut InsnStream) -> SweepStats) -> SweepOutput {
    let mut stream = InsnStream::with_byte_capacity(code.len());
    let stats = sweep(&mut stream);
    SweepOutput { stream, error_count: stats.decode_errors as usize, stats }
}

/// The sequential sweep, appended to `stream` as a new segment based at
/// `base`. Returns this region's counters; `decode_errors` is its
/// §IV-B skip count.
fn sweep_into(stream: &mut InsnStream, code: &[u8], base: u64, mode: Mode) -> SweepStats {
    sweep_segments(stream, code, base, mode, u32::MAX as usize)
}

/// [`sweep_into`] with the segment span as a parameter: the region is
/// swept in chunks of at most `span` bytes, each starting a new stream
/// segment where the previous chunk's chain exited, so every packed
/// offset fits its segment's `u32`. Real regions are one chunk; tests
/// shrink `span` to cover the chunk hand-off.
fn sweep_segments(
    stream: &mut InsnStream,
    code: &[u8],
    base: u64,
    mode: Mode,
    span: usize,
) -> SweepStats {
    let t0 = Instant::now();
    let first = stream.len();
    stream.reserve(code.len() / 3);
    let mut stats = SweepStats { bytes: code.len() as u64, shards: 1, ..SweepStats::default() };
    let mut error_count = 0usize;
    let mut at = 0usize;
    loop {
        let chunk = &code[at..];
        let chunk_base = base.wrapping_add(at as u64);
        stream.begin_segment(chunk_base);
        let hi = chunk.len().min(span);
        at += sweep_range(chunk, chunk_base, mode, 0, hi, stream, |_| error_count += 1, &mut stats);
        if at >= code.len() {
            break;
        }
    }
    stats.decode_ns = t0.elapsed().as_nanos() as u64;
    stats.insns = (stream.len() - first) as u64;
    stats.decode_errors = error_count as u64;
    stats
}

/// Below this size sharding costs more than it saves.
const MIN_SHARD_BYTES: usize = 4096;

/// Nominal morsel size for the adaptive parallel sweep.
///
/// Morsels are the unit of distribution: small enough that a region
/// splits into several times more pieces than workers (so the
/// oldest-task-first stealing in [`funseeker_pool`] load-balances even
/// when one morsel hits a decode-error-dense stretch and runs long),
/// large enough that each morsel's speculative resync overhead — a
/// handful of instructions — is noise, and sized to sit comfortably
/// inside a per-core L2 so the decode loop streams from cache.
const MORSEL_BYTES: usize = 256 * 1024;

/// Below this many bytes no parallel path dispatches — neither the
/// morsel sweep nor parallel `prepare` fan-out. Measured on the 4 MiB
/// tiled-text bench host: forcing two shards on a 64 KiB region costs
/// ~6% in speculation waste + stitch + pool handoff, which two cores
/// win back, but below this the fixed handoff dominates and parallel
/// dispatch loses on any width.
pub const PAR_MIN_BYTES: usize = 64 * 1024;

/// Speculative decoding of one shard's byte range.
///
/// The chain's stream is a single segment based at the *region* base, so
/// its packed offsets are exactly the `code` offsets the instructions
/// were decoded at — which is what the stitch binary-searches.
struct ShardChain {
    /// Packed instructions, offsets into `code` (see above), sorted.
    stream: InsnStream,
    /// Offsets at which decoding failed, sorted.
    error_offsets: Vec<u32>,
    /// First chain offset at or past the shard's end boundary.
    exit: usize,
    /// This shard's decode-work counters.
    stats: SweepStats,
}

/// Adaptive, morsel-driven parallel linear sweep on the [`global`
/// pool](funseeker_pool::global).
///
/// Produces output **bit-identical** to `sweep_all(code, base, mode)` for
/// every input (see the module docs for why; `proptest_par_sweep.rs`
/// checks it on random byte soups and corpus-generated code). `shards`
/// is an upper bound on the parallel width (benches use it to emulate
/// narrower pools); the actual morsel count comes from
/// `morsel_count`. Falls back to the sequential sweep when the
/// effective width is one worker or the region is below
/// [`PAR_MIN_BYTES`] — guaranteeing the sharded configurations are
/// never slower than sequential. [`par_sweep_forced`] skips the
/// adaptive checks.
pub fn par_sweep(code: &[u8], base: u64, mode: Mode, shards: usize) -> SweepOutput {
    collect(code, |stream| par_sweep_into(stream, code, base, mode, shards))
}

/// [`par_sweep`] appending to `stream` as a new segment based at `base`
/// — how a multi-region index sweeps each region straight into its one
/// stream, with no per-region stream to copy. Returns this region's
/// counters; `decode_errors` is its §IV-B skip count.
///
/// The global pool is only touched when the region is big enough to
/// shard ([`PAR_MIN_BYTES`]), so sweeping small inputs never spawns or
/// pins pool workers.
pub fn par_sweep_into(
    stream: &mut InsnStream,
    code: &[u8],
    base: u64,
    mode: Mode,
    shards: usize,
) -> SweepStats {
    if code.len() < PAR_MIN_BYTES {
        return sweep_into(stream, code, base, mode);
    }
    par_sweep_pooled_into(funseeker_pool::global(), stream, code, base, mode, shards)
}

/// [`par_sweep`] on an explicit pool — the hook that lets the multicore
/// bench and the worker-count proptests run the adaptive path at widths
/// {1, 2, 4, 8} regardless of the host's global pool.
pub fn par_sweep_pooled(
    pool: &funseeker_pool::Pool,
    code: &[u8],
    base: u64,
    mode: Mode,
    shards: usize,
) -> SweepOutput {
    collect(code, |stream| par_sweep_pooled_into(pool, stream, code, base, mode, shards))
}

fn par_sweep_pooled_into(
    pool: &funseeker_pool::Pool,
    stream: &mut InsnStream,
    code: &[u8],
    base: u64,
    mode: Mode,
    shards: usize,
) -> SweepStats {
    let width = pool.workers().min(shards.max(1));
    let morsels = morsel_count(code.len(), width);
    if width <= 1 || code.len() < PAR_MIN_BYTES || morsels <= 1 {
        return sweep_into(stream, code, base, mode);
    }
    par_sweep_forced_into(pool, stream, code, base, mode, morsels)
}

/// How many morsels an adaptive sweep of `len` bytes splits into on a
/// `width`-worker pool: one per [`MORSEL_BYTES`] (so stealing can
/// balance), at least one per worker (so no worker idles on mid-size
/// regions), and never so many that a morsel drops below
/// [`MIN_SHARD_BYTES`] (where resync overhead stops amortizing).
fn morsel_count(len: usize, width: usize) -> usize {
    len.div_ceil(MORSEL_BYTES).max(width).min(len / MIN_SHARD_BYTES)
}

/// Parallel sharded linear sweep, without [`par_sweep`]'s adaptive
/// fallbacks: shards are decoded speculatively and stitched even on a
/// one-worker pool or a small region. Still clamps so every shard spans
/// at least `MIN_SHARD_BYTES` (`shards <= 1` degenerates to the
/// sequential sweep). This is the stitch-coverage entry point for tests
/// and benches; production callers want [`par_sweep`].
pub fn par_sweep_forced(code: &[u8], base: u64, mode: Mode, shards: usize) -> SweepOutput {
    par_sweep_forced_pooled(funseeker_pool::global(), code, base, mode, shards)
}

/// [`par_sweep_forced`] on an explicit pool.
pub fn par_sweep_forced_pooled(
    pool: &funseeker_pool::Pool,
    code: &[u8],
    base: u64,
    mode: Mode,
    shards: usize,
) -> SweepOutput {
    collect(code, |stream| par_sweep_forced_into(pool, stream, code, base, mode, shards))
}

fn par_sweep_forced_into(
    pool: &funseeker_pool::Pool,
    stream: &mut InsnStream,
    code: &[u8],
    base: u64,
    mode: Mode,
    shards: usize,
) -> SweepStats {
    // The stitch stores shard-relative offsets as u32; a >4 GiB region
    // (never seen in practice) just takes the sequential path.
    let shards = shards.min(code.len() / MIN_SHARD_BYTES);
    if code.len() > u32::MAX as usize || shards <= 1 {
        return sweep_into(stream, code, base, mode);
    }

    // Nominal shard boundaries: shard k speculatively decodes the chain
    // starting at starts[k], stopping once it crosses starts[k + 1].
    let starts: Vec<usize> = (0..shards).map(|k| k * code.len() / shards).collect();

    let t_decode = Instant::now();
    let chains: Vec<ShardChain> = pool.run(
        (0..shards)
            .map(|k| {
                let lo = starts[k];
                let hi = starts.get(k + 1).copied().unwrap_or(code.len());
                move || decode_shard(code, base, mode, lo, hi)
            })
            .collect(),
    );
    let decode_wall_ns = t_decode.elapsed().as_nanos() as u64;

    // Stitch: walk the true chain, splicing in each shard's speculative
    // chain as soon as the true chain reaches an offset the shard decoded
    // at (from there on the two chains are the same function of the same
    // bytes, hence equal).
    let t_stitch = Instant::now();
    let mut stats = SweepStats::default();
    let first = stream.len();
    stream.begin_segment(base);
    stream.reserve(chains.iter().map(|c| c.stream.len()).sum());
    let mut error_count = 0usize;
    let mut t = 0usize; // next true-chain offset
    for (k, chain) in chains.iter().enumerate() {
        stats.merge(&chain.stats);
        let hi = starts.get(k + 1).copied().unwrap_or(code.len());
        // An instruction from an earlier shard may straddle this entire
        // shard; if so the speculative work here is dead, skip it.
        while t < hi {
            if let Ok(i) = chain.stream.search_off(t as u32) {
                stream.splice_tail(&chain.stream, i);
                let first_err = chain.error_offsets.partition_point(|&e| (e as usize) < t);
                error_count += chain.error_offsets.len() - first_err;
                t = chain.exit;
                break;
            }
            // Not an offset this shard visited: decode one true-chain step.
            match decode(&code[t..], base.wrapping_add(t as u64), mode) {
                Ok(insn) => {
                    t += insn.len as usize;
                    stream.push(insn);
                }
                Err(_) => {
                    t += 1;
                    error_count += 1;
                }
            }
        }
    }
    stats.bytes = code.len() as u64;
    stats.shards = shards as u64;
    stats.insns = (stream.len() - first) as u64;
    stats.decode_errors = error_count as u64;
    // Per-shard decode_ns sums thread time; keep the larger of that and
    // the wall clock so single-core hosts still report real decode time.
    stats.decode_ns = stats.decode_ns.max(decode_wall_ns);
    stats.stitch_ns = t_stitch.elapsed().as_nanos() as u64;
    stats
}

fn decode_shard(code: &[u8], base: u64, mode: Mode, lo: usize, hi: usize) -> ShardChain {
    let t0 = Instant::now();
    let mut stream = InsnStream::with_byte_capacity(hi - lo);
    stream.begin_segment(base);
    let mut error_offsets = Vec::new();
    let mut stats = SweepStats::default();
    let exit = sweep_range(
        code,
        base,
        mode,
        lo,
        hi,
        &mut stream,
        |off| error_offsets.push(off as u32),
        &mut stats,
    );
    stats.decode_ns = t0.elapsed().as_nanos() as u64;
    ShardChain { stream, error_offsets, exit, stats }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_equivalent(code: &[u8], base: u64, mode: Mode, shards: usize) {
        let mut reference = LinearSweep::new(code, base, mode);
        let ref_insns: Vec<Insn> = reference.by_ref().collect();
        let seq = sweep_all(code, base, mode);
        // Forced, so stitch coverage survives one-worker hosts where the
        // adaptive path would short-circuit to sequential.
        let par = par_sweep_forced(code, base, mode, shards);
        assert_eq!(seq.to_insns(), ref_insns, "sequential packed vs iterator reference");
        assert_eq!(seq.stream, par.stream, "packed arrays must be bit-identical");
        assert_eq!(seq.error_count, reference.error_count());
        assert_eq!(seq.error_count, par.error_count);
        assert_eq!(seq.stats.insns, seq.stream.len() as u64);
        assert_eq!(par.stats.insns, par.stream.len() as u64);
    }

    #[test]
    fn empty_and_tiny_inputs() {
        assert_equivalent(&[], 0x1000, Mode::Bits64, 4);
        assert_equivalent(&[0xc3], 0x1000, Mode::Bits64, 4);
    }

    #[test]
    fn straight_line_code_matches() {
        // endbr64; push rbp; nop; ret — repeated past the shard minimum.
        let unit = [0xf3, 0x0f, 0x1e, 0xfa, 0x55, 0x90, 0xc3];
        let code: Vec<u8> = unit.iter().copied().cycle().take(MIN_SHARD_BYTES * 4 + 3).collect();
        for shards in [1, 2, 3, 7] {
            assert_equivalent(&code, 0x40_0000, Mode::Bits64, shards);
        }
    }

    #[test]
    fn misaligned_shard_boundaries_resynchronize() {
        // 15-byte instructions (max length) force shard boundaries to land
        // mid-instruction almost everywhere: 66 repeated data16 prefixes on
        // a mov — decoders reject over-long prefix runs, so mix lengths.
        let mut code = Vec::new();
        while code.len() < MIN_SHARD_BYTES * 3 {
            code.extend_from_slice(&[0x48, 0xb8, 1, 2, 3, 4, 5, 6, 7, 8]); // mov rax, imm64
            code.push(0x90);
            code.extend_from_slice(&[0xe8, 0x00, 0x00, 0x00, 0x00]); // call +0
        }
        for shards in [2, 3, 7] {
            assert_equivalent(&code, 0x1000, Mode::Bits64, shards);
        }
    }

    #[test]
    fn byte_soup_with_decode_errors_matches() {
        // Deterministic pseudo-random bytes (xorshift) — plenty of invalid
        // encodings, exercising the error-offset accounting in the splice.
        let mut x: u64 = 0x9e3779b97f4a7c15;
        let code: Vec<u8> = (0..MIN_SHARD_BYTES * 3)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect();
        for shards in [2, 3, 7] {
            assert_equivalent(&code, 0, Mode::Bits64, shards);
            assert_equivalent(&code, 0, Mode::Bits32, shards);
        }
    }

    #[test]
    fn shard_count_clamped_for_small_inputs() {
        let code = vec![0x90u8; MIN_SHARD_BYTES - 1];
        // Would be 0 shards by the ratio; must fall back to sequential.
        assert_equivalent(&code, 0, Mode::Bits64, 8);
    }

    #[test]
    fn adaptive_par_sweep_matches_sequential() {
        // Whatever the adaptive heuristic picks (sequential on this host's
        // pool size / region size, sharded elsewhere), the output contract
        // is unchanged.
        let unit = [0x55, 0x48, 0x89, 0xe5, 0xe8, 0, 0, 0, 0, 0xc9, 0xc3, 0xcc];
        for len in [100usize, MIN_SHARD_BYTES * 3, PAR_MIN_BYTES + 17] {
            let code: Vec<u8> = unit.iter().copied().cycle().take(len).collect();
            let seq = sweep_all(&code, 0x1000, Mode::Bits64);
            let par = par_sweep(&code, 0x1000, Mode::Bits64, 8);
            assert_eq!(seq.stream, par.stream);
            assert_eq!(seq.error_count, par.error_count);
        }
    }

    #[test]
    fn small_inputs_never_dispatch_parallel() {
        // The work threshold is the regression guard for the old
        // "parallel prepare 8× slower on 8 KiB inputs" failure mode: any
        // input below PAR_MIN_BYTES must take the sequential path (one
        // shard, no stitch) on every pool width.
        static WIDE: std::sync::OnceLock<funseeker_pool::Pool> = std::sync::OnceLock::new();
        let wide = WIDE.get_or_init(|| funseeker_pool::Pool::with_workers(8));
        let code = vec![0x90u8; PAR_MIN_BYTES - 1];
        for out in [
            par_sweep(&code, 0x1000, Mode::Bits64, 8),
            par_sweep_pooled(wide, &code, 0x1000, Mode::Bits64, 8),
        ] {
            assert_eq!(out.stats.shards, 1, "below-threshold input must not shard");
            assert_eq!(out.stats.stitch_ns, 0, "sequential path has no stitch");
        }
    }

    #[test]
    fn morsel_count_tracks_size_and_width() {
        // One morsel per MORSEL_BYTES once the region is big enough...
        assert_eq!(morsel_count(4 * MORSEL_BYTES, 2), 4);
        // ...but at least one morsel per worker on mid-size regions...
        assert_eq!(morsel_count(PAR_MIN_BYTES, 8), 8);
        // ...and never a morsel smaller than MIN_SHARD_BYTES.
        assert_eq!(morsel_count(MIN_SHARD_BYTES * 3, 8), 3);
    }

    #[test]
    fn pooled_adaptive_sweep_bit_identical_across_widths() {
        // The adaptive path itself (thresholds + morsel sizing + stitch)
        // at real pool widths, not just forced shard counts. Pools are
        // created once — workers are detached threads.
        static POOLS: std::sync::OnceLock<Vec<funseeker_pool::Pool>> = std::sync::OnceLock::new();
        let pools = POOLS.get_or_init(|| {
            [1, 2, 4].iter().map(|&n| funseeker_pool::Pool::with_workers(n)).collect()
        });
        let unit = [0xf3, 0x0f, 0x1e, 0xfa, 0x55, 0xe8, 0, 0, 0, 0, 0x90, 0xc3, 0xcc];
        let code: Vec<u8> = unit.iter().copied().cycle().take(PAR_MIN_BYTES * 3 + 11).collect();
        let seq = sweep_all(&code, 0x40_0000, Mode::Bits64);
        for pool in pools {
            let out = par_sweep_pooled(pool, &code, 0x40_0000, Mode::Bits64, usize::MAX);
            assert_eq!(out.stream, seq.stream, "width {}", pool.workers());
            assert_eq!(out.error_count, seq.error_count);
            if pool.workers() > 1 {
                assert!(out.stats.shards >= pool.workers() as u64, "every worker gets a morsel");
            }
        }
    }

    #[test]
    fn padding_runs_crossing_shard_boundaries() {
        // Long NOP and INT3 runs spanning every shard boundary: the bulk
        // run-skipper inside each shard must agree with the sequential
        // bulk skip and with one-at-a-time decoding.
        let mut code = Vec::new();
        while code.len() < MIN_SHARD_BYTES * 4 {
            code.push(0xc3);
            code.extend(std::iter::repeat_n(0x90, MIN_SHARD_BYTES / 2));
            code.push(0xc3);
            code.extend(std::iter::repeat_n(0xcc, MIN_SHARD_BYTES / 2));
        }
        for shards in [2, 3, 7, 8] {
            assert_equivalent(&code, 0x40_0000, Mode::Bits64, shards);
        }
    }

    #[test]
    fn lone_pad_bytes_between_instructions() {
        // Runs of length one take the run path; they must yield the same
        // stream as one-at-a-time decoding.
        let unit = [0x90, 0xc3, 0xcc, 0x55, 0x90, 0x90, 0xc3];
        let code: Vec<u8> = unit.iter().copied().cycle().take(MIN_SHARD_BYTES * 3 + 5).collect();
        for shards in [2, 5] {
            assert_equivalent(&code, 0x1000, Mode::Bits64, shards);
        }
    }

    #[test]
    fn chunked_segments_match_the_reference() {
        // Regions longer than a segment's u32 offset span sweep in
        // chunks; shrinking the span exercises the hand-off (including
        // instructions straddling a chunk end) without a 4 GiB buffer.
        let mut x: u64 = 0x2545f4914f6cdd1d;
        let mut code: Vec<u8> = (0..3000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect();
        code.extend(std::iter::repeat_n(0x90, 300));
        code.extend_from_slice(&[0xf3, 0x0f, 0x1e, 0xfa, 0x55, 0x90, 0x90, 0xc3]);
        for mode in [Mode::Bits64, Mode::Bits32] {
            let mut reference = LinearSweep::new(&code, 0x1000, mode);
            let ref_insns: Vec<Insn> = reference.by_ref().collect();
            for span in [1, 5, 37, 1024, code.len()] {
                let mut stream = InsnStream::new();
                let stats = sweep_segments(&mut stream, &code, 0x1000, mode, span);
                assert_eq!(stream.to_insns(), ref_insns, "span {span} {mode:?}");
                assert_eq!(stats.decode_errors as usize, reference.error_count(), "span {span}");
                assert_eq!(stats.insns, stream.len() as u64);
            }
        }
    }

    #[test]
    fn stats_account_for_fast_paths() {
        let mut code = vec![0x55]; // push rbp — fast dispatch
        code.extend(std::iter::repeat_n(0x90, 64)); // bulk run
                                                    // mov ax, cx — a 66-prefixed primary-map op forces the full
                                                    // decoder (the fast path only follows a 66 into the 0F map).
        code.extend_from_slice(&[0x66, 0x89, 0xc8]);
        code.push(0xc3);
        let out = sweep_all(&code, 0x1000, Mode::Bits64);
        assert_eq!(out.stats.bytes, code.len() as u64);
        assert_eq!(out.stats.insns, out.stream.len() as u64);
        assert_eq!(out.stats.run_insns, 64);
        assert!(out.stats.fast_hits >= 2); // push + ret
        assert_eq!(out.stats.slow_decodes, 1);
        assert!(out.stats.fast_path_rate() > 0.9);
        assert_eq!(out.stats.shards, 1);
    }
}
