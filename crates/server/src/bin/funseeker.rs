//! `funseeker` — command-line function identification for CET binaries,
//! locally or against the analysis daemon.
//!
//! ```text
//! funseeker [--config 1|2|3|4] [--summary] [--disasm] [--callgraph] [--strict] <binary>…
//! funseeker serve  [--listen ADDR] [--cores N] [--slots N] [--queue N]
//!                  [--max-bytes N] [--max-conns N] [--max-followers N]
//!                  [--disk-cache DIR]
//! funseeker submit [--addr ADDR] [--config 1|2|3|4] [--summary] [--callgraph] <binary>…
//! funseeker stats  [--addr ADDR]
//! funseeker shutdown [--addr ADDR]
//! ```
//!
//! The first form analyzes in-process and prints one function entry
//! address per line (hex), a per-binary summary with `--summary`, or
//! the CET-constrained call graph with `--callgraph`. `serve` runs the
//! daemon; `submit` sends binaries to a running daemon and prints the
//! same default output, so the two paths diff clean. Addresses are
//! `unix:<path>` or `tcp:<host>:<port>`; the default is
//! `unix:$TMPDIR/funseeker.sock`.
//!
//! Every print path writes through one locked, buffered stdout writer,
//! flushed once per binary. A reader that closes the pipe early
//! (`funseeker big.elf | head`) stops the output quietly.

use std::io::{self, BufWriter, StdoutLock, Write};
use std::process::ExitCode;

use funseeker::{Config, FunSeeker};
use funseeker_client::{Addr, Client};
use funseeker_elf::Image;
use funseeker_server::{Server, ServerConfig};

fn usage() -> ! {
    eprintln!(
        "usage: funseeker [--config 1|2|3|4] [--summary] [--disasm] [--callgraph] [--strict] <binary>...\n\
         \x20      funseeker serve [--listen ADDR] [--cores N] [--slots N] [--queue N] [--max-bytes N] [--max-conns N] [--max-followers N] [--disk-cache DIR]\n\
         \x20      funseeker submit [--addr ADDR] [--config 1|2|3|4] [--summary] [--callgraph] <binary>...\n\
         \x20      funseeker stats [--addr ADDR]\n\
         \x20      funseeker shutdown [--addr ADDR]"
    );
    std::process::exit(2);
}

fn default_addr() -> String {
    format!("unix:{}", std::env::temp_dir().join("funseeker.sock").display())
}

fn parse_config_id(v: &str) -> u8 {
    match v {
        "1" | "2" | "3" | "4" => v.as_bytes()[0] - b'0',
        _ => usage(),
    }
}

fn config_for(id: u8) -> Config {
    match id {
        1 => Config::c1(),
        2 => Config::c2(),
        3 => Config::c3(),
        _ => Config::c4(),
    }
}

/// Buffered standard output shared by every print path.
type Out = BufWriter<StdoutLock<'static>>;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = args.first().map(String::as_str);
    match command {
        Some("serve") => return cmd_serve(&args[1..]),
        Some("shutdown") => return cmd_shutdown(&args[1..]),
        _ => {}
    }
    let mut failed = false;
    let mut out = BufWriter::new(io::stdout().lock());
    let printed = match command {
        Some("submit") => cmd_submit(&args[1..], &mut out, &mut failed),
        Some("stats") => cmd_stats(&args[1..], &mut out, &mut failed),
        _ => cmd_local(&args, &mut out, &mut failed),
    };
    if let Err(e) = printed.and_then(|()| out.flush()) {
        // A reader that went away (`| head`) is a quiet stop.
        if e.kind() != io::ErrorKind::BrokenPipe {
            eprintln!("funseeker: writing output: {e}");
            failed = true;
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

// ---------------------------------------------------------------------
// Local analysis (the original CLI)
// ---------------------------------------------------------------------

fn cmd_local(args: &[String], out: &mut Out, failed: &mut bool) -> io::Result<()> {
    let mut config = Config::c4();
    let mut summary = false;
    let mut disasm = false;
    let mut callgraph = false;
    let mut strict = false;
    let mut paths: Vec<String> = Vec::new();

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--config" => {
                let v = it.next().unwrap_or_else(|| usage());
                config = config_for(parse_config_id(v));
            }
            "--summary" => summary = true,
            "--disasm" => disasm = true,
            "--callgraph" => callgraph = true,
            "--strict" => strict = true,
            "-h" | "--help" => usage(),
            _ => paths.push(arg.clone()),
        }
    }
    if paths.is_empty() {
        usage();
    }

    let seeker = FunSeeker::with_config(config).strict(strict);
    for path in &paths {
        // Memory-maps regular files (zero-copy); pipes and special
        // files fall back to a buffered read inside `Image::load`.
        let bytes = match Image::load(path) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("{path}: {e}");
                *failed = true;
                continue;
            }
        };
        match seeker.identify(&bytes) {
            Ok(analysis) => {
                for warning in analysis.diagnostics.iter() {
                    eprintln!("{path}: warning: {warning}");
                }
                if summary {
                    print_summary(out, path, &analysis)?;
                } else {
                    if paths.len() > 1 {
                        writeln!(out, "# {path}")?;
                    }
                    if callgraph {
                        print_call_graph(out, &bytes, &analysis)?;
                    } else if disasm {
                        print_disassembly(out, &bytes, &analysis)?;
                    } else {
                        print_functions(out, &analysis)?;
                    }
                }
                out.flush()?;
            }
            Err(e) => {
                eprintln!("{path}: {e}");
                *failed = true;
            }
        }
    }
    Ok(())
}

/// The default output: one function entry address per line, in hex.
fn print_functions(out: &mut Out, analysis: &funseeker::Analysis) -> io::Result<()> {
    for addr in &analysis.functions {
        writeln!(out, "{addr:#x}")?;
    }
    Ok(())
}

fn print_summary(out: &mut Out, path: &str, analysis: &funseeker::Analysis) -> io::Result<()> {
    writeln!(
        out,
        "{path}: {} functions ({} endbr, {} filtered, {} call targets, {} tail targets, {} decode errors){}",
        analysis.functions.len(),
        analysis.endbr_count,
        analysis.filtered_endbrs,
        analysis.call_target_count,
        analysis.tail_target_count,
        analysis.decode_errors,
        if analysis.cet_enabled { "" } else { " [no CET property note]" }
    )
}

/// Prints the call graph over the identified entries: every resolved
/// direct/tail edge, then the CET-constrained indirect summary.
fn print_call_graph(out: &mut Out, bytes: &[u8], analysis: &funseeker::Analysis) -> io::Result<()> {
    let Ok(prepared) = funseeker::prepare(bytes) else { return Ok(()) };
    let graph = funseeker::build_call_graph(&prepared.index, &analysis.functions);
    writeln!(
        out,
        "{} nodes, {} direct edges, {} tail edges",
        graph.nodes.len(),
        graph.direct_count(),
        graph.tail_count(),
    )?;
    for e in &graph.edges {
        let kind = match e.kind {
            funseeker::CallKind::Direct => "call",
            funseeker::CallKind::Tail => "tail",
        };
        match e.caller {
            Some(caller) => {
                writeln!(out, "{:#x}: {kind} {:#x} -> {:#x}", caller, e.site, e.callee)?;
            }
            None => writeln!(out, "?: {kind} {:#x} -> {:#x}", e.site, e.callee)?,
        }
    }
    writeln!(
        out,
        "indirect: {} call sites, {} jump sites, {} notrack; {} endbr targets",
        graph.indirect_call_sites.len(),
        graph.indirect_jump_sites.len(),
        graph.notrack_sites,
        graph.indirect_targets.len(),
    )
}

/// Prints the disassembly of every code region with identified function
/// entries marked.
fn print_disassembly(
    out: &mut Out,
    bytes: &[u8],
    analysis: &funseeker::Analysis,
) -> io::Result<()> {
    let Ok(parsed) = funseeker::parse::parse(bytes) else { return Ok(()) };
    let mode = parsed.mode();
    for region in parsed.code.regions() {
        writeln!(out, "\nDisassembly of section {}:", region.name)?;
        let mut off = 0usize;
        while off < region.bytes.len() {
            let addr = region.addr.wrapping_add(off as u64);
            if analysis.functions.contains(&addr) {
                writeln!(out, "\n{addr:#x} <fn>:")?;
            }
            match funseeker_disasm::format_insn(&region.bytes[off..], addr, mode) {
                Ok((text, len)) => {
                    writeln!(out, "  {addr:#x}: {text}")?;
                    off += len;
                }
                Err(_) => {
                    writeln!(out, "  {addr:#x}: (bad) {:02x}", region.bytes[off])?;
                    off += 1;
                }
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Daemon subcommands
// ---------------------------------------------------------------------

fn parse_addr(s: &str) -> Addr {
    Addr::parse(s).unwrap_or_else(|e| {
        eprintln!("funseeker: {e}");
        std::process::exit(2);
    })
}

fn parse_num(v: &str) -> usize {
    v.parse().unwrap_or_else(|_| usage())
}

fn cmd_serve(args: &[String]) -> ExitCode {
    // `--cores` must fix the pool width before anything touches the
    // global pool — including the config defaults below, which derive
    // `analyze_slots` from it — so scan for it first.
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--cores" {
            let n = parse_num(it.next().map(String::as_str).unwrap_or_else(|| usage()));
            if !funseeker_pool::configure_global(n) {
                eprintln!("funseeker serve: worker pool already running, --cores ignored");
            }
        }
    }
    let mut config = ServerConfig::unix(std::env::temp_dir().join("funseeker.sock"));
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().map(String::as_str).unwrap_or_else(|| usage());
        match arg.as_str() {
            "--listen" => config.listen = parse_addr(value()),
            "--slots" => config.analyze_slots = parse_num(value()),
            "--queue" => config.queue_cap = parse_num(value()),
            "--max-bytes" => config.max_inflight_bytes = parse_num(value()),
            "--max-conns" => config.max_connections = parse_num(value()),
            "--max-followers" => config.max_followers = parse_num(value()),
            "--disk-cache" => config.disk_cache = Some(value().into()),
            "--cores" => {
                value(); // consumed by the pre-scan above
            }
            _ => usage(),
        }
    }
    let server = Server::start(config).unwrap_or_else(|e| {
        eprintln!("funseeker serve: {e}");
        std::process::exit(1);
    });
    eprintln!("funseeker serve: listening on {}", server.addr());
    // Blocks until a client's `shutdown` request, then drains.
    server.wait();
    eprintln!("funseeker serve: drained, exiting");
    ExitCode::SUCCESS
}

fn connect(addr: &str) -> Client {
    Client::connect(addr).unwrap_or_else(|e| {
        eprintln!("funseeker: cannot connect to {addr}: {e}");
        std::process::exit(1);
    })
}

fn cmd_submit(args: &[String], out: &mut Out, failed: &mut bool) -> io::Result<()> {
    let mut addr = default_addr();
    let mut config_id = 4u8;
    let mut summary = false;
    let mut callgraph = false;
    let mut paths: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => addr = it.next().cloned().unwrap_or_else(|| usage()),
            "--config" => config_id = parse_config_id(it.next().unwrap_or_else(|| usage())),
            "--summary" => summary = true,
            "--callgraph" => callgraph = true,
            "-h" | "--help" => usage(),
            _ => paths.push(arg.clone()),
        }
    }
    if paths.is_empty() {
        usage();
    }

    let mut client = connect(&addr);
    for path in &paths {
        let bytes = match Image::load(path) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("{path}: {e}");
                *failed = true;
                continue;
            }
        };
        match client.analyze_retry(&bytes, config_id, callgraph, 8) {
            Ok(reply) => {
                if summary {
                    print_summary(out, path, &reply.analysis)?;
                } else if callgraph {
                    if paths.len() > 1 {
                        writeln!(out, "# {path}")?;
                    }
                    match reply.analysis.interproc {
                        Some(ip) => writeln!(
                            out,
                            "{} cfgs, {} blocks, {} cfg edges; {} direct, {} tail; {} indirect sites -> {} targets",
                            ip.cfg_count,
                            ip.block_count,
                            ip.cfg_edge_count,
                            ip.direct_call_edges,
                            ip.tail_call_edges,
                            ip.indirect_sites,
                            ip.indirect_targets,
                        )?,
                        None => writeln!(out, "(no interprocedural summary)")?,
                    }
                } else {
                    if paths.len() > 1 {
                        writeln!(out, "# {path}")?;
                    }
                    print_functions(out, &reply.analysis)?;
                }
                out.flush()?;
            }
            Err(e) => {
                eprintln!("{path}: {e}");
                *failed = true;
            }
        }
    }
    Ok(())
}

fn addr_only(args: &[String]) -> String {
    let mut addr = default_addr();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => addr = it.next().cloned().unwrap_or_else(|| usage()),
            _ => usage(),
        }
    }
    addr
}

fn cmd_stats(args: &[String], out: &mut Out, failed: &mut bool) -> io::Result<()> {
    let mut client = connect(&addr_only(args));
    match client.stats() {
        Ok(stats) => {
            for (name, value) in stats.iter() {
                writeln!(out, "{name} {value}")?;
            }
        }
        Err(e) => {
            eprintln!("funseeker stats: {e}");
            *failed = true;
        }
    }
    Ok(())
}

fn cmd_shutdown(args: &[String]) -> ExitCode {
    let mut client = connect(&addr_only(args));
    if let Err(e) = client.shutdown() {
        eprintln!("funseeker shutdown: {e}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
