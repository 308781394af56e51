#!/usr/bin/env python3
"""Fails when a change runs the repository benchmark worse than its parent.

    python3 .github/scripts/perf_gate.py PARENT_REV

Run it from the root of the change's checkout, with PARENT_REV in its
history. The parent is checked out into a temporary `git worktree`, so
both sides build and run on the same machine, one after the other.

For every workload in BENCHMARK.json it runs three pairs, parent and
change with one seed per pair, alternating which side goes first, at
the benchmark's own `run_seconds`. Then it runs one traced pair
(`--trace 1`, seed 1). The gate fails, naming the workload, the metric
and both values, when

- any run is incorrect or has failed operations;
- the change's median of an end-to-end metric is worse than the parent's
  by more than that metric's bound;
- in the traced pair, a per-layer metric whose unit is `count.exact` or
  `ratio.exact` moved the way its `better` field marks as worse.

Each side builds into its own `.bench_build`; the parent's goes away
with its worktree.
"""

import os
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
# Leave no bytecode cache inside the benchmark's directory.
sys.dont_write_bytecode = True
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
from spread import BENCH, run  # noqa: E402

PAIRS = 3
TRACE_SEED = 1


def worse(better, parent, change, bound=0.0):
    """Whether `change` is worse than `parent` by more than `bound` (a share)."""
    if better == "lower":
        return change > parent * (1 + bound)
    return change < parent * (1 - bound)


def compare_end_to_end(workload, parent_runs, change_runs, specs=BENCH["end_to_end"]):
    """Failures among the end-to-end metrics, compared by median."""
    failures = []
    for m in specs:
        name = m["name"]
        p = statistics.median(r[name]["value"] for r in parent_runs)
        c = statistics.median(r[name]["value"] for r in change_runs)
        bad = worse(m["better"], p, c, m["bound"])
        print(f"{workload:9} {name:12} parent {p:12.4f} change {c:12.4f} {m['unit']:3} "
              f"shift {c / p - 1:+7.1%}  bound {m['bound']:.0%}  {'WORSE' if bad else 'ok'}")
        if bad:
            failures.append(f"{workload}: {name} median {c:.4g} {m['unit']} against the "
                            f"parent's {p:.4g} {m['unit']}, worse by more than its "
                            f"bound of {m['bound']:.0%}")
    return failures


def compare_exact(workload, parent, change, specs=BENCH["per_layer"]):
    """Failures among the exact per-layer counters of one traced pair."""
    failures = []
    for m in specs:
        name = m["name"]
        if not m["unit"].endswith(".exact") or name not in parent:
            continue
        if name not in change:
            failures.append(f"{workload}: {name} is missing from the change's traced run")
            continue
        p, c = parent[name]["value"], change[name]["value"]
        if worse(m["better"], p, c):
            failures.append(f"{workload}: {name} is {c} against the parent's {p} "
                            f"({m['better']} is better)")
    return failures


def measure(side, root, workload, seed, trace):
    """One benchmark run of the checkout at `root`."""
    os.chdir(root)
    os.environ["CARGO_TARGET_DIR"] = os.path.join(root, ".bench_build")
    print(f"perf gate: {workload} seed {seed} trace {trace} on the {side}", file=sys.stderr)
    try:
        return run(workload, seed, trace)
    except SystemExit as e:
        raise SystemExit(f"the {side}'s run with seed {seed} failed: {e.code}") from None


def gate_workload(roots, workload):
    """Every failure of one workload; a failed run ends the workload's check."""
    runs = {side: [] for side in roots}
    try:
        for seed in range(1, PAIRS + 1):
            order = ("parent", "change") if seed % 2 else ("change", "parent")
            for side in order:
                runs[side].append(measure(side, roots[side], workload, seed, 0))
        failures = compare_end_to_end(workload, runs["parent"], runs["change"])
        traced = {side: measure(side, roots[side], workload, TRACE_SEED, 1) for side in roots}
    except SystemExit as e:
        return [f"{workload}: {e.code}"]
    return failures + compare_exact(workload, traced["parent"], traced["change"])


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    with tempfile.TemporaryDirectory() as tmp:
        parent_root = os.path.join(tmp, "parent")
        subprocess.run(["git", "-C", ROOT, "worktree", "add", "--quiet", "--detach",
                        parent_root, sys.argv[1]], check=True)
        try:
            roots = {"parent": parent_root, "change": ROOT}
            failures = [f for w in BENCH["workloads"] for f in gate_workload(roots, w["name"])]
        finally:
            os.chdir(ROOT)
            subprocess.run(["git", "worktree", "remove", "--force", parent_root], check=True)
    for f in failures:
        print(f"FAIL {f}")
    print(f"perf gate: {len(failures)} failure(s) on {len(BENCH['workloads'])} workloads")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
