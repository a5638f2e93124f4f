//! The `funseeker` binary as a user runs it: the default listing's
//! format, local and daemon paths agreeing byte for byte, a reader that
//! closes the pipe early, and small inputs leaving the worker pool
//! unspawned.

use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};

use funseeker::FunSeeker;
use funseeker_elf::{Class, ElfBuilder, Machine, ObjectType};
use funseeker_server::{Server, ServerConfig};

const CLI: &str = env!("CARGO_BIN_EXE_funseeker");

/// A scratch directory unique to this test process and `tag`.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("funseeker-cli-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Writes a tiny x86-64 executable — far below the size at which the
/// sweep shards — and returns its path.
fn tiny_elf(dir: &Path) -> PathBuf {
    let mut text = Vec::new();
    text.extend_from_slice(&[0xf3, 0x0f, 0x1e, 0xfa]); // 0x401000: endbr64
    text.extend_from_slice(&[0xe8, 0x01, 0, 0, 0]); // call 0x40100a
    text.push(0xc3); // ret
    text.extend_from_slice(&[0xf3, 0x0f, 0x1e, 0xfa]); // 0x40100a: endbr64
    text.push(0xc3); // ret
    let mut b = ElfBuilder::new(Class::Elf64, Machine::X86_64, ObjectType::Executable);
    b.entry(0x401000).text(".text", 0x401000, text);
    let path = dir.join("tiny.elf");
    std::fs::write(&path, b.build().unwrap()).unwrap();
    path
}

/// The listing format: a `# path` header per binary when there are
/// several, then one hex entry address per line.
fn expected_listing(paths: &[&Path]) -> String {
    let mut want = String::new();
    for path in paths {
        let bytes = std::fs::read(path).unwrap();
        let analysis = FunSeeker::new().identify(&bytes).unwrap();
        if paths.len() > 1 {
            want.push_str(&format!("# {}\n", path.display()));
        }
        for addr in &analysis.functions {
            want.push_str(&format!("{addr:#x}\n"));
        }
    }
    want
}

fn run(args: &[&str]) -> Output {
    Command::new(CLI).args(args).output().unwrap()
}

#[test]
fn listing_matches_the_format_and_the_daemon_byte_for_byte() {
    let dir = scratch("listing");
    let tiny = tiny_elf(&dir);
    let big = Path::new(CLI);
    let paths = [tiny.as_path(), big];
    let want = expected_listing(&paths);
    assert!(want.contains("\n0x401000\n0x40100a\n"), "the tiny image lists both entries");

    let args: Vec<&str> = paths.iter().map(|p| p.to_str().unwrap()).collect();
    let local = run(&args);
    assert!(local.status.success());
    assert_eq!(String::from_utf8(local.stdout).unwrap(), want, "local listing format");

    let server = Server::start(ServerConfig::tcp("127.0.0.1:0")).unwrap();
    let addr = server.addr().to_string();
    let mut submit_args = vec!["submit", "--addr", addr.as_str()];
    submit_args.extend(&args);
    let submitted = run(&submit_args);
    assert!(submitted.status.success());
    assert_eq!(String::from_utf8(submitted.stdout).unwrap(), want, "submit listing format");
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Spawns `funseeker args…` with its stdout a pipe whose reading end is
/// closed before the child writes anything, and waits for it.
fn run_into_closed_pipe(args: &[&str]) -> Output {
    let mut child: Child =
        Command::new(CLI).args(args).stdout(Stdio::piped()).stderr(Stdio::piped()).spawn().unwrap();
    drop(child.stdout.take());
    child.wait_with_output().unwrap()
}

#[test]
fn a_reader_that_stops_early_is_a_quiet_stop() {
    let server = Server::start(ServerConfig::tcp("127.0.0.1:0")).unwrap();
    let addr = server.addr().to_string();
    let runs: [&[&str]; 7] = [
        &[CLI],
        &[CLI, CLI],
        &["--disasm", CLI],
        &["--callgraph", CLI],
        &["--summary", CLI],
        &["submit", "--addr", &addr, CLI],
        &["stats", "--addr", &addr],
    ];
    for args in runs {
        let out = run_into_closed_pipe(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "funseeker {args:?}: {:?}, stderr: {stderr}", out.status);
        assert!(stderr.is_empty(), "funseeker {args:?} wrote to stderr: {stderr}");
    }

    // A reader that takes the first line and then leaves (`| head -1`).
    let mut child =
        Command::new(CLI).args(["--disasm", CLI]).stdout(Stdio::piped()).spawn().unwrap();
    let mut first = [0u8; 64];
    let n = child.stdout.as_mut().unwrap().read(&mut first).unwrap();
    assert!(n > 0);
    drop(child.stdout.take());
    assert!(child.wait().unwrap().success());
    server.join();
}

/// Threads of process `pid`, from `/proc`.
fn thread_count(pid: u32) -> usize {
    std::fs::read_dir(format!("/proc/{pid}/task")).unwrap().count()
}

#[test]
fn a_tiny_input_spawns_no_pool_workers() {
    let dir = scratch("lazy-pool");
    let tiny = tiny_elf(&dir);
    let tiny = tiny.to_str().unwrap();
    // The child lists the tiny image, flushes it, then blocks reading
    // its second input from the stdin pipe: once the listing arrives,
    // every thread the tiny analysis started is alive to be counted.
    let mut child = Command::new(CLI)
        .args([tiny, "/dev/stdin"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let want = format!("# {tiny}\n{}", expected_listing(&[Path::new(tiny)]));
    let mut got = vec![0u8; want.len()];
    child.stdout.as_mut().unwrap().read_exact(&mut got).unwrap();
    assert_eq!(String::from_utf8(got).unwrap(), want);
    assert_eq!(thread_count(child.id()), 1, "a tiny input must not start the worker pool");

    // An empty second input is a parse error: exit status 1.
    child.stdin.take().unwrap().write_all(b"").unwrap();
    assert_eq!(child.wait().unwrap().code(), Some(1));
    let _ = std::fs::remove_dir_all(&dir);
}
