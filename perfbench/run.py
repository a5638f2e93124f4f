#!/usr/bin/env python3
"""Build the funseeker CLI and the benchmark harness from source, then run
one workload.

    python3 perfbench/run.py --workload corpus|cli-large|serve \
        --seed N --seconds S --trace 0|1

Run from the repository root. Cargo builds offline into $CARGO_TARGET_DIR
(default: .bench_build); scratch files go under .bench_work/ and are
removed when the run ends. The harness prints a human-readable report and,
as its last line, one JSON object with the run's metrics. The exit status
is non-zero if the build fails, an operation fails or an output is wrong;
a failed build prints no result.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.basename(os.path.dirname(os.path.abspath(__file__)))


def build(target_dir):
    """Builds both binaries; returns their paths, or None on failure."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    steps = [
        ["cargo", "build", "--offline", "--release", "--quiet",
         "-p", "funseeker-server", "--bin", "funseeker"],
        ["cargo", "build", "--offline", "--release", "--quiet",
         "--manifest-path", os.path.join(BENCH_DIR, "Cargo.toml")],
    ]
    for cmd in steps:
        # Cargo's own output goes to stderr: stdout carries the result.
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            return None
    release = os.path.join(target_dir, "release")
    return os.path.join(release, "funseeker"), os.path.join(release, "funseeker-perfbench")


def main():
    os.chdir(ROOT)
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        print("perfbench: no Cargo workspace at the repository root", file=sys.stderr)
        return 1
    target_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    built = build(target_dir)
    if built is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    cli, bench = built
    # Relative, so the daemon's unix socket path stays short.
    work = os.path.join(".bench_work", str(os.getpid()))
    cmd = [bench, *sys.argv[1:], "--cli", cli, "--work", work]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
