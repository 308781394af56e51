#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload compile|traverse|serve \\
        --seed N --seconds S --trace 0|1

Run it from the repository root. The build goes to $CARGO_TARGET_DIR
(default: .bench_build). The benchmark binary prints the result as the
last line of standard output; this script passes its exit code through.
If the build fails, the script exits non-zero and prints no result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run measures for at most a few minutes; the build has no limit.
RUN_TIMEOUT_S = 175


def toolchain_and_commit():
    """The rustc version and git commit recorded with every result."""
    def out(cmd, **kw):
        try:
            p = subprocess.run(cmd, capture_output=True, text=True, timeout=30, **kw)
            return p.stdout.strip() if p.returncode == 0 else None
        except (OSError, subprocess.TimeoutExpired):
            return None

    rustc = out(["rustc", "--version"]) or "unknown"
    # Stop git at the checkout root: a checkout that is not a repository
    # must not report the commit of a repository around it.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    commit = out(["git", "-C", ROOT, "rev-parse", "HEAD"], env=env) or "unknown"
    return rustc, commit


def main():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(target, "release", "perfbench")
    rustc, commit = toolchain_and_commit()
    env.update(PERFBENCH_RUSTC=rustc, PERFBENCH_COMMIT=commit)
    try:
        run = subprocess.run([binary] + sys.argv[1:], env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
