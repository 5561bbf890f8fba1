"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m unittest discover -s perfbench
"""

from __future__ import annotations

import sys
import time
import unittest
from pathlib import Path

sys.path.insert(1, str(Path(__file__).resolve().parent.parent / "src"))

import harness  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


class TestWorkloads(unittest.TestCase):
    def test_grid_is_626_verifies_and_two_scans(self):
        ops = workloads.build("grid", seed=0)
        self.assertEqual(sum(op[0] == "verify" for op in ops), 626)
        self.assertEqual(sum(op[0] == "scan" for op in ops), 2)
        self.assertEqual(len(ops), 628)
        self.assertEqual(len(set(ops)), 628)

    def test_seed_fixes_order_and_mc_seeds(self):
        self.assertEqual(workloads.build("oracles", 7), workloads.build("oracles", 7))
        self.assertNotEqual(workloads.build("grid", 1), workloads.build("grid", 2))

    def test_every_op_of_every_seed_is_pinned(self):
        pins = workloads.load_pins()
        for name in workloads.WORKLOADS:
            for seed in range(40):
                for op in workloads.build(name, seed):
                    self.assertIn(workloads.pin_key(op), pins)


class TestPins(unittest.TestCase):
    OP = ("dist", "-m", "2", "-s", "3", "-l", "1", "-u", "2")

    def _failed(self, pins):
        deadline = time.monotonic() + 60
        return harness.run_pass([self.OP], pins, deadline).failed

    def test_matching_pin_passes(self):
        r = harness.run_op(self.OP, time.monotonic() + 60)
        self.assertIsNone(r.error)
        pins = {workloads.pin_key(self.OP): {"exit": r.exit, "sha256": r.sha256}}
        self.assertEqual(self._failed(pins), [])

    def test_corrupted_pin_is_a_failed_op(self):
        r = harness.run_op(self.OP, time.monotonic() + 60)
        pins = {workloads.pin_key(self.OP): {"exit": r.exit, "sha256": "0" * 64}}
        failed = self._failed(pins)
        self.assertEqual([f.op for f in failed], [self.OP])

    def test_exception_is_a_failed_op_and_the_pass_goes_on(self):
        from bandorbump import cli

        def boom(params):
            raise ValueError("boom")

        saved = cli.joint_distribution
        cli.joint_distribution = boom  # the forked children inherit the patch
        try:
            result = harness.run_pass([self.OP, self.OP], {}, time.monotonic() + 60)
        finally:
            cli.joint_distribution = saved
        self.assertEqual(len(result.ops), 2)
        self.assertEqual(len(result.failed), 2)
        self.assertTrue(all(f.error == "ValueError: boom" for f in result.failed))


class TestSelfTime(unittest.TestCase):
    def test_synthetic_tree(self):
        tree = [
            ["cli", 0, 100, -1],
            ["distribution.joint", 10, 60, 0],
            ["hypergeom.rect", 20, 30, 1],
            ["hypergeom.rect", 35, 50, 1],
            ["exactnum.to_decimal", 70, 80, 0],
        ]
        self.assertEqual(spans.self_times(tree), [40, 25, 10, 15, 10])

    def test_overlapping_children_count_once(self):
        tree = [["cli", 0, 100, -1], ["a", 10, 40, 0], ["b", 30, 50, 0], ["c", 90, 120, 0]]
        self.assertEqual(spans.self_times(tree)[0], 100 - 40 - 10)

    def test_pass_totals(self):
        totals = spans.PassTotals()
        payload = {
            "spans": [["cli", 0, 3_000_000, -1], ["hypergeom.rect", 0, 2_000_000, 0]],
            "counts": {"hypergeom.rect_repeats": 1},
            "max_den_bits": 5,
            "mc_max_abs_z": 0.0,
        }
        totals.add(payload)
        totals.add(payload)
        metrics = totals.metrics()
        self.assertEqual(metrics["cli.self_ms"][0], 2.0)
        self.assertEqual(metrics["hypergeom.rect_ms"][0], 4.0)
        self.assertEqual(metrics["hypergeom.rect_calls"][0], 2)
        self.assertEqual(metrics["hypergeom.rect_repeat_ratio"][0], 1.0)

    def test_traced_op_records_layers(self):
        op = ("verify", "-m", "2", "-s", "3", "-l", "1", "-u", "2")
        r = harness.run_op(op, time.monotonic() + 60, traced=True)
        self.assertIsNone(r.error)
        names = {s[0] for s in r.trace["spans"]}
        self.assertTrue({"cli", "distribution.joint", "oracle.dp", "distribution.matches",
                         "hypergeom.rect"} <= names)
        self.assertEqual(r.trace["spans"][0][0], "cli")
        self.assertGreater(r.trace["counts"]["exactnum.binomial"], 0)


if __name__ == "__main__":
    unittest.main()
