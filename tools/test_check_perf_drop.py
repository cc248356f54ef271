#!/usr/bin/env python3
"""Unit tests of tools/check_perf_drop.py.

Run: python3 tools/test_check_perf_drop.py
"""

import contextlib
import io
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import check_perf_drop  # noqa: E402


def row(pr, workload, change_median):
    side = {"median": 1.0, "iqr": None}
    return json.dumps({
        "pr": pr, "parent_commit": "abcdef0", "workload": workload,
        "seeds": "1-10", "seconds": 25, "pairs": 10,
        "metrics": {
            "ops_per_sec": {"parent": side,
                            "change": {"median": change_median,
                                       "iqr": None}},
            "setup_s": {"parent": side, "change": side},
            "peak_rss_mb": {"parent": side, "change": side}}})


class CheckPerfDrop(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.trajectory = os.path.join(self.dir.name, "t.jsonl")
        with open(self.trajectory, "w") as f:
            f.write(row(26, "fleet_scale", 500.0) + "\n")
            f.write(row(27, "hw_serve", 9e5) + "\n")
            f.write(row(28, "fleet_scale", 1000.0) + "\n")

    def tearDown(self):
        self.dir.cleanup()

    def run_tool(self, ops, correct=True):
        result = os.path.join(self.dir.name, "run.json")
        with open(result, "w") as f:
            json.dump({"correct": correct, "attempted": 1, "failed": 0,
                       "metrics": {"ops_per_sec": {"value": ops,
                                                   "unit": "1/s"}}}, f)
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = check_perf_drop.main(
                ["check_perf_drop.py", result,
                 "--trajectory", self.trajectory])
        return code, out.getvalue()

    def test_uses_the_last_row_of_the_workload(self):
        with open(self.trajectory) as f:
            self.assertEqual(
                check_perf_drop.last_change_median(f),
                1000.0)

    def test_small_drop_is_quiet(self):
        code, out = self.run_tool(860.0)
        self.assertEqual(code, 0)
        self.assertNotIn("::warning::", out)

    def test_drop_past_threshold_warns_but_passes(self):
        code, out = self.run_tool(840.0)
        self.assertEqual(code, 0)
        self.assertIn("::warning::fleet_scale", out)
        self.assertIn("0.840x", out)

    def test_gain_is_quiet(self):
        code, out = self.run_tool(1500.0)
        self.assertEqual(code, 0)
        self.assertNotIn("::warning::", out)

    def test_incorrect_run_warns_without_comparing(self):
        code, out = self.run_tool(10.0, correct=False)
        self.assertEqual(code, 0)
        self.assertIn("not correct", out)

    def test_missing_workload_row_fails(self):
        self.assertIsNone(check_perf_drop.last_change_median(
            [row(27, "hw_serve", 9e5), row(27, "server_fine", 40.0)]))
        with open(self.trajectory, "w") as f:
            f.write(row(27, "hw_serve", 9e5) + "\n")
        code, _ = self.run_tool(1000.0)
        self.assertEqual(code, 1)

    def test_threshold_boundary(self):
        drop, _ = check_perf_drop.compare(850.0, 1000.0)
        self.assertFalse(drop)
        drop, _ = check_perf_drop.compare(849.0, 1000.0)
        self.assertTrue(drop)


if __name__ == "__main__":
    unittest.main()
