#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 pstbench/run.py --workload cfg-scale|program-corpus|serve-mix|all \
        --seed N --seconds N --trace 0|1

Run from the repository root. Two release builds share CARGO_TARGET_DIR
(default: .bench_build in the repository root): this package, whose
library crates carry no `obs` instrumentation, and the shipped `pst`
binary with its default features, which serve-mix starts as a daemon.
Build output goes to standard error, so the last line of standard output
is the benchmark's JSON result. Traced runs write their spans under
<CARGO_TARGET_DIR>/pstbench-traces/.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(manifest, extra, env):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest, *extra]
    return subprocess.run(cmd, env=env, stdout=sys.stderr).returncode


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    steps = [
        (os.path.join(HERE, "Cargo.toml"), []),
        (os.path.join(ROOT, "Cargo.toml"), ["-p", "pst-cli", "--bin", "pst"]),
    ]
    for manifest, extra in steps:
        if not os.path.isfile(manifest):
            print(f"run.py: {manifest} is missing; run from a full checkout", file=sys.stderr)
            return 1
        code = build(manifest, extra, env)
        if code != 0:
            return code
    release = os.path.join(target, "release")
    cmd = [
        os.path.join(release, "pstbench"),
        *sys.argv[1:],
        "--pst-bin",
        os.path.join(release, "pst"),
        "--trace-dir",
        os.path.join(target, "pstbench-traces"),
    ]
    return subprocess.run(cmd, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
