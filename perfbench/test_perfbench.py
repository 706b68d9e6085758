#!/usr/bin/env python3
"""Tests of the benchmark itself.

The smoke run must pass: all three workloads, traced and untraced, carry
every metric of BENCHMARK.json with its unit, a sample count and provenance,
and every correctness check holds. And the dense factors must not depend on
the thread width: dense-2048 and dense-2048-1t must record equal LU and
Cholesky digests for the same seed. That is checked on the smoke records and
on every full-size pair of records in .bench_out.

    python3 perfbench/test_perfbench.py
"""
import glob
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.smoke = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--smoke"],
                                   cwd=ROOT, capture_output=True, text=True, timeout=900)

    def test_smoke_passes(self):
        out = self.smoke.stdout
        self.assertEqual(self.smoke.returncode, 0, out + self.smoke.stderr)
        self.assertEqual(json.loads(out.splitlines()[-1]), {"smoke_ok": True}, out)

    def test_dense_digests_match_across_thread_widths(self):
        pairs = 0
        for path in sorted(glob.glob(os.path.join(OUT, "dense-2048-s*.json"))):
            if path.endswith(".spans.json"):
                continue
            other = os.path.join(OUT, os.path.basename(path).replace(
                "dense-2048-", "dense-2048-1t-", 1))
            if not os.path.exists(other):
                continue
            with open(path) as f:
                wide = json.load(f)
            with open(other) as f:
                narrow = json.load(f)
            self.assertEqual(sorted(wide["digests"]), ["chol", "lu"], path)
            self.assertEqual(wide["digests"], narrow["digests"],
                             "%s vs %s: factors changed with the thread width" % (path, other))
            pairs += 1
        self.assertGreaterEqual(pairs, 2, "the smoke run records a traced and an untraced pair")


if __name__ == "__main__":
    unittest.main()
