#!/usr/bin/env python3
"""Checks that the benchmark is steady and its exact counters repeat.

    python3 perfbench/spread.py spread --workload W [--seeds 1-10 | --seeds 7x5] [--save F]
    python3 perfbench/spread.py compare F1 F2
    python3 perfbench/spread.py exact --workload W [--seed 1]

`spread` runs the workload once per seed (run_seconds from
BENCHMARK.json) and prints, per end-to-end metric, the median of the
values and the distance between their first and third quartiles as a
share of the median, next to the metric's bound. A spread must stay
below a third of its bound (setup_s is exempt). Exit code 1 otherwise.
`--save` writes the values to a JSON file.

`compare` reads two saved sets of one workload, taken at different
times, and checks that for every end-to-end metric the second median is
not worse than the first by more than the metric's bound, nor better by
more (a set that moves either way on unchanged code is not steady).

`exact` makes two traced runs with one seed and checks that every
per-layer metric whose unit ends in `.exact` reads the same in both.

Run it from the repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = json.load(open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")))


def run(workload, seed, trace):
    cmd = BENCH["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(BENCH["run_seconds"]),
                              "--trace", str(trace)]
    p = subprocess.run(cmd, capture_output=True, text=True)
    if p.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {p.returncode}:\n{p.stderr}")
    result = json.loads(p.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"seed {seed}: incorrect result\n{p.stderr}")
    return result["metrics"]


def seeds(spec):
    """`1-10` is seeds 1 to 10; `7x5` is seed 7 five times."""
    if "x" in spec:
        seed, _, times = spec.partition("x")
        return [int(seed)] * int(times)
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def spread(args):
    runs = [run(args.workload, s, 0) for s in seeds(args.seeds)]
    ok = True
    for m in BENCH["end_to_end"]:
        values = [r[m["name"]]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        share = (q3 - q1) / med
        steady = m["name"] == "setup_s" or share < m["bound"] / 3
        ok &= steady
        print(f"{args.workload:9} {m['name']:12} median {med:12.4f} {m['unit']:4} "
              f"spread {share:7.4f}  bound {m['bound']:.2f}  {'ok' if steady else 'WIDE'}  "
              + " ".join(f"{v:.4g}" for v in values))
    if args.save:
        with open(args.save, "w") as f:
            json.dump({"workload": args.workload, "seeds": list(seeds(args.seeds)),
                       "values": {m["name"]: [r[m["name"]]["value"] for r in runs]
                                  for m in BENCH["end_to_end"]}}, f)
    return 0 if ok else 1


def compare(args):
    a, b = (json.load(open(f)) for f in args.files)
    if a["workload"] != b["workload"]:
        sys.exit("the two sets are of different workloads")
    ok = True
    for m in BENCH["end_to_end"]:
        ma, mb = (statistics.median(s["values"][m["name"]]) for s in (a, b))
        shift = mb / ma - 1
        steady = abs(shift) <= m["bound"]
        ok &= steady
        print(f"{a['workload']:9} {m['name']:12} median {ma:12.4f} then {mb:12.4f} "
              f"{m['unit']:4} shift {shift:+7.4f}  bound {m['bound']:.2f}  "
              f"{'ok' if steady else 'MOVED'}")
    return 0 if ok else 1


def exact(args):
    a, b = (run(args.workload, args.seed, 1) for _ in range(2))
    units = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    bad = [n for n, u in units.items() if u.endswith(".exact") and a[n] != b[n]]
    for n in bad:
        print(f"{n}: {a[n]['value']} then {b[n]['value']}")
    print(f"{sum(u.endswith('.exact') for u in units.values())} exact metrics, "
          f"{len(bad)} differ")
    return 1 if bad else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("mode", choices=["spread", "compare", "exact"])
    ap.add_argument("files", nargs="*", help="two files saved by spread --save (compare)")
    ap.add_argument("--workload")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--save")
    ap.add_argument("--seed", default=1, type=int)
    args = ap.parse_args()
    if args.mode == "compare":
        if len(args.files) != 2:
            ap.error("compare takes two files")
        return compare(args)
    if not args.workload:
        ap.error("--workload is required")
    return spread(args) if args.mode == "spread" else exact(args)


if __name__ == "__main__":
    sys.exit(main())
