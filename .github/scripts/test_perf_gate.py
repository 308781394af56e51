#!/usr/bin/env python3
"""Unit tests of the perf gate's comparison on synthetic parent/change results.

    python3 .github/scripts/test_perf_gate.py

Proves the gate can fail: a 2x slower end-to-end metric and a worse exact
counter must each fail and name their metric; equal results and
improvements must pass. Runs no benchmark.
"""

import contextlib
import io
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from perf_gate import BENCH, compare_end_to_end, compare_exact  # noqa: E402

END_TO_END = [m["name"] for m in BENCH["end_to_end"]]
EXACT = {m["name"]: m["better"] for m in BENCH["per_layer"] if m["unit"].endswith(".exact")}


def results(**values):
    """Three runs' metrics, every end-to-end metric 4.0 unless given."""
    metrics = {name: {"value": values.get(name, 4.0)} for name in END_TO_END}
    return [metrics] * 3


def counters(**values):
    """One traced run's exact counters, every one 100 unless given."""
    return {name: {"value": values.get(name, 100)} for name in EXACT}


def end_to_end(parent, change):
    with contextlib.redirect_stdout(io.StringIO()):
        return compare_end_to_end("traverse", parent, change)


class EndToEnd(unittest.TestCase):
    def test_twice_as_slow_op_ms_fails_naming_it(self):
        failures = end_to_end(results(), results(op_ms=8.0))
        self.assertEqual(len(failures), 1)
        self.assertIn("traverse: op_ms", failures[0])
        self.assertIn("8", failures[0])
        self.assertIn("4", failures[0])

    def test_equal_results_pass(self):
        self.assertEqual(end_to_end(results(), results()), [])

    def test_improvement_passes(self):
        faster = results(**{name: 1.0 for name in END_TO_END})
        self.assertEqual(end_to_end(results(), faster), [])

    def test_within_bound_passes(self):
        self.assertEqual(end_to_end(results(), results(op_ms=4.8)), [])

    def test_median_not_one_run_decides(self):
        change = results()[:2] + [{name: {"value": 40.0} for name in END_TO_END}]
        self.assertEqual(end_to_end(results(), change), [])


class Exact(unittest.TestCase):
    def test_worse_counter_fails_naming_it(self):
        self.assertEqual(EXACT["vm.ops_fired.fused.ast"], "lower")
        failures = compare_exact("traverse", counters(), counters(**{"vm.ops_fired.fused.ast": 101}))
        self.assertEqual(len(failures), 1)
        self.assertIn("vm.ops_fired.fused.ast", failures[0])

    def test_fewer_of_a_higher_is_better_counter_fails(self):
        self.assertEqual(EXACT["fusion.fused_pairs"], "higher")
        failures = compare_exact("compile", counters(), counters(**{"fusion.fused_pairs": 99}))
        self.assertEqual(len(failures), 1)
        self.assertIn("fusion.fused_pairs", failures[0])

    def test_equal_counters_pass(self):
        self.assertEqual(compare_exact("compile", counters(), counters()), [])

    def test_improved_counters_pass(self):
        better = {n: 90 if b == "lower" else 110 for n, b in EXACT.items()}
        self.assertEqual(compare_exact("compile", counters(), counters(**better)), [])

    def test_counter_missing_from_the_change_fails(self):
        change = counters()
        del change["heap.nodes.fmm"]
        failures = compare_exact("traverse", counters(), change)
        self.assertEqual(len(failures), 1)
        self.assertIn("heap.nodes.fmm", failures[0])


if __name__ == "__main__":
    unittest.main()
