#!/usr/bin/env python3
"""Build and run the Elk benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload <dse_sweep|serve_scale|serve_engines_mix> \
        --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --pin <workload>

Builds `perfbench/` (a package of its own that depends on the repository's
crates by path) in release mode into `$CARGO_TARGET_DIR`, default
`.bench_build`, then runs it; the program itself uses one worker thread per
core, at most two, on every run. The last line of standard output is the
benchmark's JSON result. Build output goes to standard error. Exits non-zero,
without a result, when the build or the run fails.
"""

import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# A run must end well within the 180 s the harness allows.
RUN_TIMEOUT_S = 170
# What the tree digest covers: everything that builds the benchmark.
SOURCES = ["Cargo.toml", "Cargo.lock", "src", "crates", "shims", "perfbench"]


def tree_digest():
    """SHA-256 over the source files, for checkouts without git metadata."""
    h = hashlib.sha256()
    for top in SOURCES:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f)
            for d, dirs, fs in os.walk(path)
            if not os.path.relpath(d, ROOT).startswith(os.path.join("perfbench", "out"))
            for f in fs
        )
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def output_of(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def main():
    args = sys.argv[1:]
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    if not os.path.isabs(target):
        target = env["CARGO_TARGET_DIR"] = os.path.join(ROOT, target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(ROOT, "perfbench", "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    env["PERFBENCH_META"] = json.dumps({
        "git_sha": output_of(["git", "rev-parse", "HEAD"])
        if os.path.isdir(os.path.join(ROOT, ".git")) else None,
        "tree_sha256": tree_digest(),
        "nproc": os.cpu_count(),
        "rustc": output_of(["rustc", "-V"]),
    })
    cmd = [os.path.join(target, "release", "perfbench"), *args]
    timeout = None if "--pin" in args or "--self-test" in args else RUN_TIMEOUT_S
    try:
        return subprocess.run(cmd, cwd=ROOT, env=env, timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
