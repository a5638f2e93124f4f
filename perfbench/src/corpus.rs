//! `corpus`: the batch/eval user path at paper scale.
//!
//! `Dataset::generate` with (108, 15, 47) programs × the 48-way
//! `BuildConfig::full_grid()` gives 8,160 distinct binaries (≈100 MiB).
//! One closed-loop submitter passes the whole corpus through
//! `funseeker_batch::run_with_cache` under all four Table II
//! configurations, with a fresh in-memory `ResultCache` per pass, on the
//! default-width pool. Every image is below the sweep's sharding
//! threshold, every lookup misses, and nothing crosses a socket.

use std::cell::RefCell;
use std::process::{Command, ExitCode, Stdio};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use funseeker::parse::parse;
use funseeker::{Analysis, AnalysisPlan, Config, Prepared, Scratch};
use funseeker_batch::{
    cache_key, hash_bytes, run_with_cache, BatchOptions, BatchStats, ResultCache,
};
use funseeker_corpus::{Arch, BuildConfig, Compiler, Dataset, DatasetParams, OptLevel};
use funseeker_disasm::SweepStats;

use crate::check::{self, Score};
use crate::clock::{now_ns, proc_status_kib, reset_peak_rss, trim_heap};
use crate::report::{Layers, Report};
use crate::stats::{interquartile_mean, median, tail};
use crate::trace::Recorder;
use crate::Ctx;

/// Programs per suite (Coreutils, Binutils, SPEC), as in the paper.
const PROGRAMS: (usize, usize, usize) = (108, 15, 47);
/// Cold starts measured per run for `setup_s`.
const SETUP_PROBES: usize = 15;
/// Untimed passes measuring peak memory, after the timed ones.
const MEMORY_PASSES: usize = 3;

type Results = Vec<Vec<Option<Arc<Analysis>>>>;

/// Child-process probe: pool start plus the first one-binary batch call,
/// printed as `setup_ns <n>`.
pub fn setup_probe(args: &[String]) -> ExitCode {
    let seed = match args {
        [flag, v] if flag == "--seed" => v.parse::<u64>().ok(),
        _ => None,
    };
    let Some(seed) = seed else { return ExitCode::from(2) };
    let params = DatasetParams {
        programs: (1, 0, 0),
        configs: vec![BuildConfig {
            compiler: Compiler::Gcc,
            arch: Arch::X64,
            opt: OptLevel::O2,
            pie: true,
        }],
    };
    let ds = Dataset::generate(&params, seed);
    let configs = check::configs();
    let t0 = now_ns();
    funseeker_pool::global();
    let out = run_with_cache(
        &[ds.binaries[0].bytes.as_slice()],
        &configs,
        &BatchOptions::default(),
        &ResultCache::new(),
    );
    let elapsed = now_ns() - t0;
    if out.results[0].iter().any(Option::is_none) {
        return ExitCode::FAILURE;
    }
    println!("setup_ns {elapsed}");
    ExitCode::SUCCESS
}

/// Interquartile mean of the cold starts of [`SETUP_PROBES`] fresh
/// processes, seconds.
fn setup_seconds(ctx: &Ctx) -> Result<f64, String> {
    let mut samples = Vec::with_capacity(SETUP_PROBES);
    for i in 0..SETUP_PROBES as u64 {
        let out = Command::new(&ctx.exe)
            .args(["--probe", "corpus-setup", "--seed", &(ctx.seed ^ (i << 40)).to_string()])
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("setup probe: {e}"))?;
        let text = String::from_utf8_lossy(&out.stdout);
        let ns = text
            .trim()
            .strip_prefix("setup_ns ")
            .and_then(|v| v.parse::<u64>().ok())
            .filter(|_| out.status.success())
            .ok_or_else(|| format!("setup probe failed: {}", text.trim()))?;
        samples.push(ns as f64 / 1e9);
    }
    Ok(interquartile_mean(&samples))
}

/// Counts binaries whose results differ from `expected` in any
/// configuration.
fn mismatches(got: &Results, expected: &Results) -> u64 {
    got.iter().zip(expected).filter(|(g, e)| g != e).count() as u64
}

/// Checks every (binary, configuration) result of the batch engine
/// against the stage pipeline and the shared plan, on the pool. Returns
/// the number of binaries with any disagreement.
fn cross_check(images: &[&[u8]], configs: &[Config], batch: &Results) -> u64 {
    let chunk = images.len().div_ceil(64).max(1);
    let tasks: Vec<_> = images
        .chunks(chunk)
        .zip(batch.chunks(chunk))
        .map(|(imgs, rows)| {
            move || {
                imgs.iter()
                    .zip(rows)
                    .filter(|(bytes, row)| {
                        let Some(reference) = check::reference(bytes, configs) else { return true };
                        row.iter().zip(&reference).any(|(got, want)| got.as_deref() != Some(want))
                    })
                    .count() as u64
            }
        })
        .collect();
    funseeker_pool::global().run(tasks).into_iter().sum()
}

pub fn run(ctx: &Ctx, rep: &mut Report) -> Result<(), String> {
    let setup_s = setup_seconds(ctx)?;
    let params = DatasetParams { programs: PROGRAMS, configs: BuildConfig::full_grid() };
    let ds = Dataset::generate(&params, ctx.seed);
    let images: Vec<&[u8]> = ds.binaries.iter().map(|b| b.bytes.as_slice()).collect();
    let n = images.len() as u64;
    let bytes: u64 = images.iter().map(|b| b.len() as u64).sum();
    let configs = check::configs();
    let opts = BatchOptions::default();

    // Warm-up pass. Its results are checked against the stage pipeline
    // and the shared plan, then every later pass must reproduce them.
    let expected = run_with_cache(&images, &configs, &opts, &ResultCache::new()).results;
    let bad = cross_check(&images, &configs, &expected);
    rep.count(n, bad);

    let mut score = Score::default();
    for (bin, row) in ds.binaries.iter().zip(&expected) {
        if let Some(a) = &row[check::C4] {
            score += Score::of(&a.functions, &bin.truth.eval_entries());
        }
    }
    rep.set("recall_pct", score.recall_pct());
    rep.set("precision_pct", score.precision_pct());
    rep.set("setup_s", setup_s);
    rep.note(format!(
        "{n} binaries ({}/{}/{} programs x {} build configs), {:.1} MiB, under configs 1-4",
        PROGRAMS.0,
        PROGRAMS.1,
        PROGRAMS.2,
        params.configs.len(),
        bytes as f64 / (1u64 << 20) as f64
    ));
    rep.note(format!(
        "config 4 vs ground truth: tp {} fp {} fn {} (recall {:.4}%, precision {:.4}%)",
        score.tp,
        score.fp,
        score.fn_,
        score.recall_pct(),
        score.precision_pct()
    ));

    if ctx.trace {
        traced(ctx, rep, &images, &configs, &expected, bytes)
    } else {
        untraced(ctx, rep, &images, &configs, &expected, bytes)
    }
}

fn untraced(
    ctx: &Ctx,
    rep: &mut Report,
    images: &[&[u8]],
    configs: &[Config],
    expected: &Results,
    bytes: u64,
) -> Result<(), String> {
    let opts = BatchOptions::default();
    let deadline = now_ns() + (ctx.seconds * 1e9) as u64;
    let mut walls = Vec::new();
    while walls.is_empty() || now_ns() < deadline {
        let t0 = now_ns();
        let out = run_with_cache(images, configs, &opts, &ResultCache::new());
        walls.push((now_ns() - t0) as f64 / 1e9);
        rep.count(images.len() as u64, mismatches(&out.results, expected));
    }

    // Peak memory of the engine's work, in untimed passes of its own.
    // Freed heap the allocator kept from earlier passes would absorb a
    // pass's growth unseen, so each starts from a trimmed heap; its
    // resident set then (inputs and expected results) is subtracted, and
    // the high-water mark reset so the generator's peak is excluded.
    let mut peaks = Vec::with_capacity(MEMORY_PASSES);
    for _ in 0..MEMORY_PASSES {
        trim_heap();
        let base_kib = proc_status_kib("self", "VmRSS");
        if !reset_peak_rss() {
            rep.note("peak_rss_mib: VmHWM reset refused, reading includes the generator");
        }
        let out = run_with_cache(images, configs, &opts, &ResultCache::new());
        peaks.push(proc_status_kib("self", "VmHWM").saturating_sub(base_kib) as f64 / 1024.0);
        rep.count(images.len() as u64, mismatches(&out.results, expected));
    }
    let peak_mib = median(&peaks);
    rep.note(format!(
        "peak RSS above the pre-pass resident set over {MEMORY_PASSES} memory passes: {}",
        peaks.iter().map(|p| format!("{p:.1}")).collect::<Vec<_>>().join(" ")
    ));

    let pass_s = median(&walls);
    let t = tail(&walls).expect("at least one pass");
    rep.set("bins_per_s", images.len() as f64 / pass_s);
    rep.set("mb_per_s", bytes as f64 / 1e6 / pass_s);
    rep.set("latency_p50_ms", pass_s * 1e3);
    rep.set("latency_p99_ms", t.value * 1e3);
    rep.set("max_rate_rps", 1.0 / pass_s);
    rep.set("peak_rss_mib", peak_mib);
    rep.note(format!("{} closed-loop passes; latency is per pass, {}", walls.len(), t.describe()));
    Ok(())
}

thread_local! {
    /// One scratch arena and plan per worker, as the batch scheduler keeps.
    static WORKSPACE: RefCell<(Scratch, AnalysisPlan)> =
        RefCell::new((Scratch::new(), AnalysisPlan::new()));
}

/// Sweep counters summed over a traced pass, with the code-region count.
#[derive(Default)]
struct SweepAcc {
    stats: SweepStats,
    regions: u64,
}

/// One traced pass: the scheduler's per-binary work (hash, cache probe,
/// parse, sweep, plan rebuild, four derives, cache insert) rebuilt from
/// the layers' public functions, with a span around each call. Returns
/// the binaries whose derived results differ from `expected`.
fn traced_pass(
    rec: &Recorder,
    pass: u64,
    images: &[&[u8]],
    configs: &[Config],
    expected: &Results,
    acc: &Mutex<SweepAcc>,
    candidates: &AtomicU64,
) -> u64 {
    let cache = ResultCache::new();
    let bad = AtomicU64::new(0);
    let next = AtomicUsize::new(0);
    rec.span("corpus.pass", None, pass, |root| {
        // One thread per pool worker and none beside: a helping
        // submitter would oversubscribe the cores, and the preemption
        // would land in the gaps between spans.
        std::thread::scope(|s| {
            for _ in 0..funseeker_pool::global().workers() {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&bytes) = images.get(i) else { break };
                    let req = (pass << 32) | i as u64;
                    let ok = rec.span("batch.binary", Some(root), req, |b| {
                        traced_binary(
                            rec,
                            b,
                            req,
                            bytes,
                            configs,
                            &cache,
                            &expected[i],
                            acc,
                            candidates,
                        )
                    });
                    if !ok {
                        bad.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        })
    });
    bad.into_inner()
}

#[allow(clippy::too_many_arguments)]
fn traced_binary(
    rec: &Recorder,
    parent: u32,
    req: u64,
    bytes: &[u8],
    configs: &[Config],
    cache: &ResultCache,
    expected: &[Option<Arc<Analysis>>],
    acc: &Mutex<SweepAcc>,
    candidates: &AtomicU64,
) -> bool {
    let p = Some(parent);
    let hash = rec.span("batch.hash", p, req, |_| hash_bytes(bytes));
    let hits = rec.span("batch.cache.lookup", p, req, |_| {
        configs.iter().filter(|c| cache.get(cache_key(hash, c)).is_some()).count()
    });
    let Ok(parsed) = rec.span("core.parse", p, req, |_| parse(bytes)) else { return false };
    let prepared = rec.span("disasm.sweep", p, req, |_| Prepared::from_parsed(parsed));
    {
        let mut a = acc.lock().expect("sweep accumulator poisoned");
        a.stats.merge(prepared.sweep_stats());
        a.regions += prepared.index.regions.len() as u64;
    }
    let derived: Vec<Arc<Analysis>> = WORKSPACE.with(|w| {
        let (scratch, plan) = &mut *w.borrow_mut();
        rec.span("core.plan.rebuild", p, req, |_| {
            plan.rebuild(&prepared.parsed, &prepared.index, scratch)
        });
        configs
            .iter()
            .map(|cfg| {
                Arc::new(rec.span("core.plan.derive", p, req, |_| {
                    plan.derive(cfg, &prepared.parsed, &prepared.index, scratch)
                }))
            })
            .collect()
    });
    rec.span("batch.cache.insert", p, req, |_| {
        for (cfg, a) in configs.iter().zip(&derived) {
            cache.insert(cache_key(hash, cfg), Arc::clone(a));
        }
    });
    rec.span("batch.release", p, req, |_| drop(prepared));
    rec.span("bench.check", p, req, |_| {
        candidates
            .fetch_add(derived.iter().map(|a| a.functions.len() as u64).sum(), Ordering::Relaxed);
        hits == 0 && derived.iter().zip(expected).all(|(got, want)| want.as_deref() == Some(&**got))
    })
}

fn traced(
    ctx: &Ctx,
    rep: &mut Report,
    images: &[&[u8]],
    configs: &[Config],
    expected: &Results,
    bytes: u64,
) -> Result<(), String> {
    let pool = funseeker_pool::global();
    let opts = BatchOptions::default();
    let rec = Recorder::new();
    let mut layers = Layers::default();
    let acc = Mutex::new(SweepAcc::default());
    let candidates = AtomicU64::new(0);
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut batch = BatchStats::default();
    let (mut busy_frac, mut helped, mut executed) = (Vec::new(), 0u64, 0u64);
    let n = images.len() as u64;

    // Untraced and traced passes alternate, so both see the same host.
    let deadline = now_ns() + (ctx.seconds * 1e9) as u64;
    while traced.is_empty() || now_ns() < deadline {
        let c0 = pool.counters();
        let t0 = now_ns();
        let out = run_with_cache(images, configs, &opts, &ResultCache::new());
        let wall = now_ns() - t0;
        let c1 = pool.counters();
        rep.count(n, mismatches(&out.results, expected));
        plain.push(wall as f64 / 1e9);
        let s = &out.stats;
        busy_frac.push(
            (s.parse_ns + s.sweep_ns + s.analyze_ns) as f64 / (wall as f64 * pool.workers() as f64),
        );
        helped += c1.helped - c0.helped;
        executed += c1.per_worker.iter().sum::<u64>() + c1.helped
            - c0.per_worker.iter().sum::<u64>()
            - c0.helped;
        accumulate(&mut batch, s);

        let pass = traced.len() as u64;
        let t0 = now_ns();
        let bad = traced_pass(&rec, pass, images, configs, expected, &acc, &candidates);
        traced.push((now_ns() - t0) as f64 / 1e9);
        rep.count(n, bad);
        layers.add(&rec.take());
    }

    let passes = plain.len() as f64;
    let sweep = acc.into_inner().expect("sweep accumulator poisoned");
    let bins = layers.get("core.parse").count.max(1) as f64;
    let parse = layers.get("core.parse");
    let sw = layers.get("disasm.sweep");
    let rebuild = layers.get("core.plan.rebuild");
    let derive = layers.get("core.plan.derive");
    let hash = layers.get("batch.hash");

    rep.set("core.parse.us_per_bin", parse.wall_ns as f64 / bins / 1e3);
    rep.set("core.parse.cpu_us_per_bin", parse.cpu_ns as f64 / bins / 1e3);
    rep.set("core.parse.allocs_per_bin", parse.allocs as f64 / bins);
    rep.set("disasm.sweep.mb_per_s", sweep.stats.bytes as f64 * 1e3 / sw.wall_ns.max(1) as f64);
    rep.set("disasm.sweep.cpu_ms", sw.cpu_ns as f64 / bins / 1e6);
    rep.set("disasm.sweep.insns", sweep.stats.insns as f64 / bins);
    rep.set("disasm.sweep.fast_path_rate", sweep.stats.fast_path_rate());
    rep.set("disasm.sweep.decode_errors", sweep.stats.decode_errors as f64 / bins);
    rep.set("disasm.sweep.shards", sweep.stats.shards as f64 / sweep.regions.max(1) as f64);
    rep.set("core.plan.rebuild_us_per_bin", rebuild.wall_ns as f64 / bins / 1e3);
    rep.set(
        "core.plan.derive_us_per_config",
        derive.wall_ns as f64 / derive.count.max(1) as f64 / 1e3,
    );
    rep.set("core.plan.allocs_per_bin", (rebuild.allocs + derive.allocs) as f64 / bins);
    rep.set("core.plan.final_candidates", candidates.into_inner() as f64 / bins);
    rep.set(
        "batch.hash.gb_per_s",
        bytes as f64 * hash.count as f64 / n as f64 / hash.wall_ns.max(1) as f64,
    );
    rep.set("batch.cache.hit_rate", batch.hit_rate());
    rep.set("batch.scheduler.parse_ms", batch.parse_ns as f64 / passes / 1e6);
    rep.set("batch.scheduler.sweep_ms", batch.sweep_ns as f64 / passes / 1e6);
    rep.set("batch.scheduler.analyze_ms", batch.analyze_ns as f64 / passes / 1e6);
    rep.set(
        "batch.scheduler.peak_inflight_mib",
        batch.peak_inflight_bytes as f64 / (1u64 << 20) as f64,
    );
    rep.set("batch.scheduler.worker_busy_frac", median(&busy_frac));
    rep.set("pool.helped_frac", helped as f64 / executed.max(1) as f64);
    rep.set("bench.tracing_overhead_frac", median(&traced) / median(&plain) - 1.0);
    rep.set("bench.span_coverage_frac", layers.coverage());
    rep.note(format!(
        "traced run: {} untraced passes (median {:.1} ms) alternating with {} traced passes (median {:.1} ms)",
        plain.len(),
        median(&plain) * 1e3,
        traced.len(),
        median(&traced) * 1e3
    ));
    layers.describe(rep);
    Ok(())
}

/// Sums the counters of `s` the report reads into `acc`; the in-flight
/// peak takes the max.
fn accumulate(acc: &mut BatchStats, s: &BatchStats) {
    acc.cache_hits += s.cache_hits;
    acc.cache_misses += s.cache_misses;
    acc.parse_ns += s.parse_ns;
    acc.sweep_ns += s.sweep_ns;
    acc.analyze_ns += s.analyze_ns;
    acc.peak_inflight_bytes = acc.peak_inflight_bytes.max(s.peak_inflight_bytes);
}
