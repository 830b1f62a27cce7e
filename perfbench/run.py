#!/usr/bin/env python3
"""Builds the benchmark and kv_server, then runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Build output goes to stderr and to
$CARGO_TARGET_DIR (default .bench_build); the benchmark's own output,
ending with one JSON line, goes to stdout. The exit code is the
benchmark's: non-zero when a build, a run or an output check fails.
"""
import os
import subprocess
import sys


def main():
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    builds = [
        # The real server binary, from the repository's own workspace.
        ["cargo", "build", "--release", "--offline", "-q", "-p", "lsm-server", "--bin", "kv_server"],
        ["cargo", "build", "--release", "--offline", "-q", "--manifest-path", "perfbench/Cargo.toml"],
    ]
    for cmd in builds:
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 1
    exe = os.path.join(target, "release", "perfbench")
    return subprocess.run([exe] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
