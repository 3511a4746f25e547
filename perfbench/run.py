#!/usr/bin/env python3
"""Builds and runs the Ring benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload hot-read-rep --seed 1 --seconds 10 --trace 0

Builds `perfbench` (this directory's own Cargo package) and the
`ring-server` binary from source into `$CARGO_TARGET_DIR` (default
`.bench_build`), then runs one workload. Build output goes to stderr;
stdout carries the host record, the metric lines and, last, the JSON
result line. The exit code is the benchmark's: 0 on success, 1 on a
wrong read, 2 on a failed build or set-up.
"""

import argparse
import os
import signal
import subprocess
import sys

WORKLOADS = ["hot-read-rep", "srs-update-4k", "degraded-srs-read", "tcp-mixed"]
RUN_TIMEOUT_S = 175


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(root, env):
    steps = [
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         os.path.join(root, "perfbench", "Cargo.toml")],
        # The loopback TCP workload spawns the shipped server binary; it
        # must sit next to the benchmark binary in the same target dir.
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         os.path.join(root, "Cargo.toml"), "-p", "ring-server", "--bin", "ring-server"],
    ]
    for cmd in steps:
        r = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")


def rustc_version(env):
    try:
        out = subprocess.run(["rustc", "--version"], env=env, capture_output=True, text=True)
        return out.stdout.strip() or "unknown"
    except OSError:
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    a = ap.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    for needed in ("Cargo.toml", "crates", "shims"):
        if not os.path.exists(os.path.join(root, needed)):
            fail(f"{needed} not found next to perfbench/: run from a full checkout")

    env = dict(os.environ)
    target = env.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(root, target)
    env["CARGO_TARGET_DIR"] = target
    build(root, env)

    exe = os.path.join(target, "release", "perfbench")
    cmd = [exe, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", a.trace,
           "--rustc", rustc_version(env)]
    # A session of its own, so every process the run starts can be
    # stopped with it.
    p = subprocess.Popen(cmd, cwd=root, env=env, start_new_session=True)
    try:
        code = p.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        code = 2
    finally:
        try:
            os.killpg(p.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        p.wait()
    sys.exit(code)


if __name__ == "__main__":
    main()
