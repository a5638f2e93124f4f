//! `funseeker-perfbench` — the end-to-end benchmark.
//!
//! ```text
//! funseeker-perfbench --workload corpus|cli-large|serve --seed N --seconds S --trace 0|1
//!                     --cli <path to the funseeker binary> --work <scratch dir>
//! ```
//!
//! Runs one workload against the real entry points (the batch engine,
//! the `funseeker` CLI, the `funseeker serve` daemon), checks every
//! output, prints a human-readable report and, as its last line, one JSON
//! object with the untraced end-to-end metrics (`--trace 0`) or the
//! traced per-layer metrics (`--trace 1`). Exits 1 if any output was
//! wrong or any operation failed. `perfbench/run.py` builds everything
//! and supplies `--cli` and `--work`; see `perfbench/README.md`.

mod alloc;
mod check;
mod cli;
mod clock;
mod corpus;
mod report;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use report::Report;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Everything a workload needs to know about its run.
#[derive(Debug)]
pub struct Ctx {
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// How long the measured phase runs, seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of untraced (end-to-end).
    pub trace: bool,
    /// The `funseeker` binary under test.
    pub cli: PathBuf,
    /// A private scratch directory (created here, removed on exit).
    pub work: PathBuf,
    /// This executable, for the child-process probes.
    pub exe: PathBuf,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: funseeker-perfbench --workload corpus|cli-large|serve --seed N --seconds S \
         --trace 0|1 --cli PATH --work DIR"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Child-process probes: a fresh process is the only way to measure a
    // cold start more than once per run, or to keep a measuring process
    // free of what generating the inputs touched.
    if args.first().map(String::as_str) == Some("--probe") {
        return match args.get(1).map(String::as_str) {
            Some("corpus-setup") => corpus::setup_probe(&args[2..]),
            Some("cli-inputs") => cli::inputs_probe(&args[2..]),
            Some("cli-replica") => cli::replica_probe(&args[2..]),
            _ => usage(),
        };
    }

    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut cli, mut work) = (None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else { return usage() };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            "--cli" => cli = Some(PathBuf::from(value)),
            "--work" => work = Some(PathBuf::from(value)),
            _ => return usage(),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace), Some(cli), Some(work)) =
        (workload, seed, seconds, trace, cli, work)
    else {
        return usage();
    };
    let run: fn(&Ctx, &mut Report) -> Result<(), String> = match workload.as_str() {
        "corpus" => corpus::run,
        "cli-large" => cli::run,
        "serve" => serve::run,
        _ => return usage(),
    };
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: cannot create {}: {e}", work.display());
        return ExitCode::FAILURE;
    }
    let ctx = Ctx { seed, seconds, trace, cli, work, exe };
    let mut report = Report::default();
    let outcome = run(&ctx, &mut report);
    let _ = std::fs::remove_dir_all(&ctx.work);
    if let Err(e) = outcome {
        eprintln!("perfbench: {workload}: {e}");
        return ExitCode::FAILURE;
    }
    let wanted = if trace { report::PER_LAYER } else { report::END_TO_END };
    report.print(&workload, seed, wanted);
    if report.failed > 0 {
        eprintln!(
            "perfbench: {workload}: {} of {} operations failed",
            report.failed, report.attempted
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
