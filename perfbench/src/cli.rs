//! `cli-large`: the reverse engineer's one-binary path.
//!
//! Six large CET images (≈1.2 MiB each), each built by merging about 90
//! generated Binutils-profile programs into one spec, over a gcc/clang ×
//! x86/x86-64 mix, written to files. One closed-loop client runs a fresh
//! `funseeker <file>` process per request and checks its stdout. The work is `elf::Image` mmap ingest, the
//! morsel-sharded sweep across the pool and the unfused stage pipeline;
//! the shared plan, the batch engine and the daemon do nothing here.

use std::fs::File;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use funseeker::parse::parse;
use funseeker::{Config, FunSeeker, Prepared, Scratch};
use funseeker_corpus::{
    compile, generate_program, Arch, BuildConfig, Compiler, Dataset, DatasetParams, GroundTruth,
    Lang, OptLevel, ProgramSpec, Suite,
};
use funseeker_disasm::SweepStats;
use funseeker_elf::Image;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::check::{self, Score};
use crate::clock::{now_ns, proc_status_kib, process_cpu_ns, reset_peak_rss, wait_child};
use crate::report::{Layers, Report};
use crate::stats::{block_rate, block_tail, interquartile_mean, median, tail};
use crate::trace::{self, Recorder, Span};
use crate::Ctx;

/// Size every large image is merged up to, MiB: about 90 Binutils-profile
/// programs, each image under a second and a half to generate (the
/// corpus linker is superlinear in program size). Merging up to a body
/// size rather than a program count keeps each image's size within a
/// percent across seeds; one size for all six keeps their latencies
/// within about a fifth of each other (the x86 clang PIE image is the
/// slow one), so the latency median does not jump between clusters.
const IMAGE_MIB: f64 = 1.22;
/// Rounds (one invocation per image each) in a block of the untraced
/// run: the rates and the tail are medians over such blocks. 20 rounds of
/// six images put the block tail at p91.7, ten invocations beyond it.
const BLOCK_ROUNDS: usize = 20;
/// Cold invocations measured per run for `setup_s`.
const SETUP_PROBES: usize = 15;

/// Build configurations of the six images, each with the body size (in
/// the generator's filler-instruction units) that makes its image about
/// [`IMAGE_MIB`].
fn image_configs() -> Vec<(BuildConfig, usize)> {
    // The image MiB each configuration emits per 140k units, as measured.
    let cfg = |compiler, arch, opt, pie, mib_per_140k: f64| {
        let units = IMAGE_MIB / mib_per_140k * 140_000.0;
        (BuildConfig { compiler, arch, opt, pie }, units as usize)
    };
    vec![
        cfg(Compiler::Gcc, Arch::X64, OptLevel::O2, true, 1.216),
        cfg(Compiler::Clang, Arch::X64, OptLevel::O3, false, 1.236),
        cfg(Compiler::Gcc, Arch::X86, OptLevel::Os, false, 1.045),
        cfg(Compiler::Clang, Arch::X86, OptLevel::O2, true, 0.931),
        cfg(Compiler::Gcc, Arch::X64, OptLevel::O1, false, 1.280),
        cfg(Compiler::Clang, Arch::X64, OptLevel::O2, true, 1.174),
    ]
}

/// Merges generated Binutils-profile programs into one spec until their
/// function bodies reach `units`: call and tail-call indices are
/// rebased, names prefixed, and only the first program keeps `main`.
/// Returns the spec and the number of programs merged.
pub fn merged_spec(seed: u64, units: usize) -> (ProgramSpec, usize) {
    let mut out =
        ProgramSpec { name: format!("large_{seed:x}"), lang: Lang::C, functions: Vec::new() };
    let (mut total, mut p) = (0, 0);
    while total < units {
        let mut rng = StdRng::seed_from_u64(seed ^ ((p as u64 + 1) << 24));
        let spec = generate_program(Suite::Binutils, &format!("b{p}"), &mut rng);
        if spec.lang == Lang::Cpp {
            out.lang = Lang::Cpp;
        }
        let base = out.functions.len();
        for mut f in spec.functions {
            if p > 0 || f.name != "main" {
                f.name = format!("p{p}_{}", f.name);
            }
            f.calls.iter_mut().for_each(|c| *c += base);
            if let Some(t) = &mut f.tail_call {
                *t += base;
            }
            total += f.body_size;
            out.functions.push(f);
        }
        p += 1;
    }
    (out, p)
}

/// One input file with what its analysis must print.
struct Input {
    path: PathBuf,
    len: u64,
    expected: String,
    /// Generated programs merged into it.
    programs: usize,
}

/// Child-process probe: the CLI's local-analysis path rebuilt from the
/// layers' public functions, with a span around each call. Prints the
/// function list exactly as `funseeker <file>` does, then the spans and
/// counters as `span`/`sweep`/`stages`/`mapped` lines.
pub fn replica_probe(args: &[String]) -> ExitCode {
    let [path] = args else { return ExitCode::from(2) };
    let rec = Recorder::new();
    let Ok(image) = rec.span("elf.load", None, 0, |_| Image::load(path)) else {
        return ExitCode::FAILURE;
    };
    let Ok(parsed) = rec.span("core.parse", None, 0, |_| parse(image.as_slice())) else {
        return ExitCode::FAILURE;
    };
    let cpu0 = process_cpu_ns();
    let prepared = rec.span("disasm.sweep", None, 0, |_| Prepared::from_parsed(parsed));
    let sweep_cpu = process_cpu_ns() - cpu0;
    let mut scratch = Scratch::new();
    let analysis = rec.span("core.stages", None, 0, |_| {
        FunSeeker::with_config(Config::c4()).run_stages_with(
            &prepared.parsed,
            &prepared.index,
            &mut scratch,
        )
    });
    rec.span("cli.print", None, 0, |_| {
        for addr in &analysis.functions {
            println!("{addr:#x}");
        }
    });
    let s = prepared.sweep_stats();
    println!("mapped {}", u8::from(image.is_mapped()));
    println!(
        "sweep {} {} {} {} {} {} {} {sweep_cpu}",
        s.bytes,
        s.insns,
        s.decode_errors,
        s.fast_hits,
        s.run_insns,
        s.shards,
        prepared.index.regions.len()
    );
    let st = scratch.stats;
    println!("stages {} {} {}", st.filter_ns, st.tailcall_ns, st.boundaries_ns);
    for sp in rec.take() {
        println!("span {} {} {} {} {}", sp.name, sp.start_ns, sp.end_ns, sp.cpu_ns, sp.allocs);
    }
    ExitCode::SUCCESS
}

/// One child process run to completion.
struct Run {
    /// Spawn and reap times, ns on the [`now_ns`] clock.
    t0: u64,
    t1: u64,
    /// Whether it exited 0.
    success: bool,
    /// Its peak resident set, KiB (0 where `wait4` is unavailable).
    rss_kib: u64,
    stdout: Vec<u8>,
}

/// Runs `cmd` with its stdout in `out_path`, read back once the child is
/// reaped, outside the timed span. The CLI writes a line per function;
/// through a pipe each write would wake this process while the child's
/// pool workers want both cores.
fn run_to_file(cmd: &mut Command, out_path: &Path) -> Result<Run, String> {
    let out = File::create(out_path).map_err(|e| format!("{}: {e}", out_path.display()))?;
    let t0 = now_ns();
    let mut child = cmd
        .stdin(Stdio::null())
        .stdout(out)
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("cannot run {:?}: {e}", cmd.get_program()))?;
    // Reaping by hand yields the child's own peak RSS; `Child::wait`
    // would discard it.
    let (success, rss_kib) = match wait_child(child.id()) {
        Some(reaped) => reaped,
        None => (child.wait().map_err(|e| format!("wait: {e}"))?.success(), 0),
    };
    let t1 = now_ns();
    let stdout = std::fs::read(out_path).map_err(|e| format!("{}: {e}", out_path.display()))?;
    Ok(Run { t0, t1, success, rss_kib, stdout })
}

/// One `funseeker <path>` run: its wall time, ns, whether it exited 0
/// printing exactly the expected output, and its peak resident set, KiB.
struct Invocation {
    wall_ns: u64,
    ok: bool,
    rss_kib: u64,
}

fn invoke(cli: &Path, input: &Input) -> Result<Invocation, String> {
    let run =
        run_to_file(Command::new(cli).arg(&input.path), &input.path.with_extension("stdout"))?;
    let ok = run.success && run.stdout == input.expected.as_bytes();
    Ok(Invocation { wall_ns: run.t1 - run.t0, ok, rss_kib: run.rss_kib })
}

/// Child-process probe: writes the inputs into `--work`, each image with
/// its expected CLI output beside it (`<name>.out`, empty when the batch
/// engine, the stage pipeline and the shared plan disagree on it), and
/// prints one `input <name> <bytes> <programs> <agree 0|1>` line per
/// image (the tiny one last) and `score <tp> <fp> <fn>` for config ④ of
/// the large images against their ground truth.
///
/// Generating in a child keeps the measuring process small: a process
/// spawned from it starts in its address space, whose peak `exec` folds
/// into the `wait4` reading of the child's peak RSS.
pub fn inputs_probe(args: &[String]) -> ExitCode {
    let [seed_flag, seed, work_flag, work] = args else { return ExitCode::from(2) };
    let Some(seed) =
        seed.parse::<u64>().ok().filter(|_| seed_flag == "--seed" && work_flag == "--work")
    else {
        return ExitCode::from(2);
    };
    let work = Path::new(work);
    let configs = check::configs();
    let mut score = Score::default();
    let mut emit = |name: &str, bytes: &[u8], truth: &GroundTruth, programs: usize| {
        let path = work.join(name);
        let batch = funseeker_batch::run(&[bytes], &configs, &Default::default()).results;
        let reference = check::reference(bytes, &configs)
            .filter(|r| batch[0].iter().zip(r).all(|(got, want)| got.as_deref() == Some(want)));
        let expected = reference.as_ref().map_or_else(String::new, |r| {
            let c4 = &r[check::C4].functions;
            if programs > 1 {
                score += Score::of(c4, &truth.eval_entries());
            }
            check::cli_text(c4)
        });
        std::fs::write(&path, bytes)?;
        std::fs::write(path.with_extension("out"), expected)?;
        println!("input {name} {} {programs} {}", bytes.len(), u8::from(reference.is_some()));
        std::io::Result::Ok(())
    };
    let mut written = Ok(());
    for (i, (cfg, units)) in image_configs().into_iter().enumerate() {
        let seed = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(i as u64);
        let (spec, programs) = merged_spec(seed, units);
        let bin = compile(&spec, cfg, seed);
        written = written
            .and_then(|()| emit(&format!("large_{i}.elf"), &bin.bytes, &bin.truth, programs));
    }
    let tiny_params = DatasetParams { programs: (1, 0, 0), configs: vec![image_configs()[0].0] };
    let tiny = Dataset::generate(&tiny_params, seed).binaries.remove(0);
    written = written.and_then(|()| emit("tiny.elf", &tiny.bytes, &tiny.truth, 1));
    if let Err(e) = written {
        eprintln!("cli-large inputs: {e}");
        return ExitCode::FAILURE;
    }
    println!("score {} {} {}", score.tp, score.fp, score.fn_);
    ExitCode::SUCCESS
}

/// The inputs the `cli-inputs` probe wrote: the large images, the tiny
/// one, how many failed the agreement check, and the config ④ score.
fn load_inputs(ctx: &Ctx) -> Result<(Vec<Input>, Input, u64, Score), String> {
    let out = Command::new(&ctx.exe)
        .args(["--probe", "cli-inputs", "--seed", &ctx.seed.to_string(), "--work"])
        .arg(&ctx.work)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("input generator: {e}"))?;
    if !out.status.success() {
        return Err("input generator failed".into());
    }
    let (mut inputs, mut bad, mut score) = (Vec::new(), 0, None);
    for line in String::from_utf8_lossy(&out.stdout).lines() {
        let fields: Vec<&str> = line.split(' ').collect();
        match fields[..] {
            ["input", name, len, programs, agree] => {
                let path = ctx.work.join(name);
                let expected = std::fs::read_to_string(path.with_extension("out"))
                    .map_err(|e| format!("read expected output of {name}: {e}"))?;
                bad += u64::from(agree != "1");
                let parse =
                    |v: &str| v.parse::<u64>().map_err(|e| format!("input line {line:?}: {e}"));
                inputs.push(Input {
                    path,
                    len: parse(len)?,
                    expected,
                    programs: parse(programs)? as usize,
                });
            }
            ["score", tp, fp, fn_] => {
                score = Some(Score {
                    tp: tp.parse().unwrap_or(0),
                    fp: fp.parse().unwrap_or(0),
                    fn_: fn_.parse().unwrap_or(0),
                });
            }
            _ => {}
        }
    }
    let (Some(score), Some(tiny)) = (score, inputs.pop()) else {
        return Err("input generator printed no inputs".into());
    };
    Ok((inputs, tiny, bad, score))
}

pub fn run(ctx: &Ctx, rep: &mut Report) -> Result<(), String> {
    let (inputs, tiny, bad, score) = load_inputs(ctx)?;
    rep.count(inputs.len() as u64 + 1, bad);

    // Set-up is paid inside every invocation: measure it as a cold
    // `funseeker` run on a tiny binary.
    let mut setup = Vec::with_capacity(SETUP_PROBES);
    for _ in 0..SETUP_PROBES {
        let run = invoke(&ctx.cli, &tiny)?;
        rep.count(1, u64::from(!run.ok));
        setup.push(run.wall_ns as f64 / 1e9);
    }
    rep.set("setup_s", interquartile_mean(&setup));
    rep.set("recall_pct", score.recall_pct());
    rep.set("precision_pct", score.precision_pct());
    let total: u64 = inputs.iter().map(|i| i.len).sum();
    rep.note(format!(
        "{} images of merged Binutils-profile programs, {:.2} MiB total (MiB/programs: {})",
        inputs.len(),
        total as f64 / (1u64 << 20) as f64,
        inputs
            .iter()
            .map(|i| format!("{:.2}/{}", i.len as f64 / (1u64 << 20) as f64, i.programs))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    rep.note(format!("config 4 vs ground truth: tp {} fp {} fn {}", score.tp, score.fp, score.fn_));
    if ctx.trace {
        traced(ctx, rep, &inputs)
    } else {
        untraced(ctx, rep, &inputs)
    }
}

fn untraced(ctx: &Ctx, rep: &mut Report, inputs: &[Input]) -> Result<(), String> {
    // A child's peak RSS (from `wait4`) also counts the address space it
    // was spawned from, which `exec` records before replacing it; this
    // process generated nothing, so it is small, and its peak is reset so
    // each reading is the CLI's own.
    let parent_kib = proc_status_kib("self", "VmRSS");
    if !reset_peak_rss() {
        rep.note("peak_rss_mib: VmHWM reset refused, readings may include this process");
    }
    let deadline = now_ns() + (ctx.seconds * 1e9) as u64;
    let (mut walls, mut wall_ns, mut bytes) = (Vec::new(), 0u64, 0u64);
    let mut per_image: Vec<(Vec<f64>, Vec<f64>)> = vec![Default::default(); inputs.len()];
    // Whole rounds, one invocation per image each, keep the mix even.
    while walls.is_empty() || now_ns() < deadline {
        for (input, (lat, rss)) in inputs.iter().zip(&mut per_image) {
            let run = invoke(&ctx.cli, input)?;
            rep.count(1, u64::from(!run.ok));
            walls.push(run.wall_ns as f64 / 1e9);
            lat.push(run.wall_ns as f64 / 1e6);
            rss.push(run.rss_kib as f64);
            wall_ns += run.wall_ns;
            bytes += input.len;
        }
    }
    // Rates and the tail are medians over blocks of whole rounds, so a
    // burst of host interference lasting a few seconds does not set them.
    let block = BLOCK_ROUNDS * inputs.len();
    let t = block_tail(&walls, block).expect("at least one invocation");
    let rate = block_rate(&walls, block);
    let round_mb = inputs.iter().map(|i| i.len).sum::<u64>() as f64 / 1e6;
    rep.set("bins_per_s", rate);
    rep.set("max_rate_rps", rate);
    rep.set("mb_per_s", rate * round_mb / inputs.len() as f64);
    rep.set("latency_p50_ms", median(&walls) * 1e3);
    rep.set("latency_p99_ms", t.value * 1e3);
    // The largest image's typical peak: the median over its invocations,
    // so one run's allocator timing does not set the figure.
    let peak_kib = per_image.iter().map(|(_, r)| median(r)).fold(0.0, f64::max);
    rep.note(format!(
        "median latency per image, ms: {}",
        per_image.iter().map(|(l, _)| format!("{:.2}", median(l))).collect::<Vec<_>>().join(" ")
    ));
    rep.set("peak_rss_mib", peak_kib / 1024.0);
    rep.note(format!(
        "peak RSS of the largest image's runs {:.1} MiB; this process was {:.1} MiB when spawning them",
        peak_kib / 1024.0,
        parent_kib as f64 / 1024.0
    ));
    rep.note(format!(
        "{} closed-loop invocations, {:.2}/s and {:.2} MB/s over the whole run; latency {}; whole-run tail {:.2} ms",
        walls.len(),
        walls.len() as f64 * 1e9 / wall_ns as f64,
        bytes as f64 * 1e3 / wall_ns as f64,
        t.describe(),
        tail(&walls).map_or(0.0, |w| w.value * 1e3),
    ));
    Ok(())
}

/// Counters one traced invocation reported.
#[derive(Default)]
struct Counters {
    sweep: SweepStats,
    regions: u64,
    sweep_cpu_ns: u64,
    mapped: u64,
    filter_ns: u64,
    tailcall_ns: u64,
    bounds_ns: u64,
}

/// One traced invocation of the replica probe: a root span around the
/// child process, the child's spans re-parented under it, and the gaps
/// before its first and after its last span as `cli.exec`/`cli.exit`.
/// Returns the wall time, ns, and whether the output was right.
fn traced_invocation(
    ctx: &Ctx,
    rec: &Recorder,
    req: u64,
    input: &Input,
    acc: &mut Counters,
) -> Result<(u64, bool), String> {
    let run = run_to_file(
        Command::new(&ctx.exe).args(["--probe", "cli-replica"]).arg(&input.path),
        &input.path.with_extension("stdout"),
    )?;
    let (t0, t1) = (run.t0, run.t1);
    let text = String::from_utf8_lossy(&run.stdout);
    let split = text.find("\nmapped ").map_or(0, |i| i + 1);
    let (functions, tail_lines) = text.split_at(split);
    let ok = run.success && functions == input.expected;

    let root = rec.next_id();
    let (mut first, mut last) = (t1, t0);
    let nums =
        |rest: &str| -> Vec<u64> { rest.split(' ').filter_map(|v| v.parse().ok()).collect() };
    for line in tail_lines.lines() {
        let (kind, rest) = line.split_once(' ').unwrap_or((line, ""));
        match kind {
            "mapped" => acc.mapped += nums(rest).first().copied().unwrap_or(0),
            "sweep" => {
                if let [bytes, insns, errs, fast, runs, shards, regions, cpu] = nums(rest)[..] {
                    acc.sweep.merge(&SweepStats {
                        bytes,
                        insns,
                        decode_errors: errs,
                        fast_hits: fast,
                        run_insns: runs,
                        shards,
                        ..SweepStats::default()
                    });
                    acc.regions += regions;
                    acc.sweep_cpu_ns += cpu;
                }
            }
            "stages" => {
                if let [f, t, b] = nums(rest)[..] {
                    acc.filter_ns += f;
                    acc.tailcall_ns += t;
                    acc.bounds_ns += b;
                }
            }
            "span" => {
                let (name, rest) = rest.split_once(' ').unwrap_or((rest, ""));
                if let (Some(name), [start, end, cpu, allocs]) =
                    (trace::intern(name), &nums(rest)[..])
                {
                    first = first.min(*start);
                    last = last.max(*end);
                    let timed = Span::timed(name, rec.next_id(), Some(root), req, *start, *end);
                    rec.push(Span { cpu_ns: *cpu, allocs: *allocs, ..timed });
                }
            }
            _ => {}
        }
    }
    if first < last {
        rec.push(Span::timed("cli.exec", rec.next_id(), Some(root), req, t0, first));
        rec.push(Span::timed("cli.exit", rec.next_id(), Some(root), req, last, t1));
    }
    rec.push(Span::timed("cli.invocation", root, None, req, t0, t1));
    Ok((t1 - t0, ok))
}

fn traced(ctx: &Ctx, rep: &mut Report, inputs: &[Input]) -> Result<(), String> {
    let rec = Recorder::new();
    let mut acc = Counters::default();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let deadline = now_ns() + (ctx.seconds * 1e9) as u64;
    // Untraced and traced invocations alternate on the same image.
    while traced.is_empty() || now_ns() < deadline {
        for input in inputs {
            let run = invoke(&ctx.cli, input)?;
            rep.count(1, u64::from(!run.ok));
            plain.push(run.wall_ns as f64);
            let (wall, ok) = traced_invocation(ctx, &rec, traced.len() as u64, input, &mut acc)?;
            rep.count(1, u64::from(!ok));
            traced.push(wall as f64);
        }
    }
    let mut layers = Layers::default();
    layers.add(&rec.take());
    let inv = traced.len() as f64;
    let per_inv = |ns: u64, scale: f64| ns as f64 / inv / scale;
    let load = layers.get("elf.load");
    let parse = layers.get("core.parse");
    let sweep = layers.get("disasm.sweep");
    let stages = layers.get("core.stages");
    rep.set("elf.load_ms", per_inv(load.wall_ns, 1e6));
    rep.set("elf.mapped_frac", acc.mapped as f64 / inv);
    rep.set("core.parse.us_per_bin", per_inv(parse.wall_ns, 1e3));
    rep.set("core.parse.cpu_us_per_bin", per_inv(parse.cpu_ns, 1e3));
    rep.set("core.parse.allocs_per_bin", per_inv(parse.allocs, 1.0));
    rep.set("disasm.sweep.mb_per_s", acc.sweep.bytes as f64 * 1e3 / sweep.wall_ns.max(1) as f64);
    rep.set("disasm.sweep.cpu_ms", per_inv(acc.sweep_cpu_ns, 1e6));
    rep.set("disasm.sweep.insns", per_inv(acc.sweep.insns, 1.0));
    rep.set("disasm.sweep.fast_path_rate", acc.sweep.fast_path_rate());
    rep.set("disasm.sweep.decode_errors", per_inv(acc.sweep.decode_errors, 1.0));
    rep.set("disasm.sweep.shards", acc.sweep.shards as f64 / acc.regions.max(1) as f64);
    rep.set("core.stages.us_per_bin", per_inv(stages.wall_ns, 1e3));
    rep.set("core.stages.filter_us", per_inv(acc.filter_ns, 1e3));
    rep.set("core.stages.tailcall_us", per_inv(acc.tailcall_ns, 1e3));
    rep.set("core.stages.bounds_us", per_inv(acc.bounds_ns, 1e3));
    rep.set("bench.tracing_overhead_frac", median(&traced) / median(&plain) - 1.0);
    rep.set("bench.span_coverage_frac", layers.coverage());
    rep.note(format!(
        "traced run: {} untraced invocations (median {:.2} ms) alternating with {} traced replica invocations (median {:.2} ms)",
        plain.len(),
        median(&plain) / 1e6,
        traced.len(),
        median(&traced) / 1e6
    ));
    layers.describe(rep);
    Ok(())
}
