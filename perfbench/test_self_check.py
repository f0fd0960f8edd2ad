#!/usr/bin/env python3
"""The benchmark's own test: runs `perfbench/run.py --self-check`, which
builds perfbench_e2e and runs every workload for about a second on a small
table, asserting that every BENCHMARK.json metric is emitted with its unit,
every record is stamped, the traced run writes its spans, and the
correctness gate passes.

Run from the repository root:  python3 perfbench/test_self_check.py
"""
import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class SelfCheckTest(unittest.TestCase):
    def test_every_workload_emits_every_metric_and_passes_the_gate(self):
        proc = subprocess.run(
            [sys.executable, os.path.join("perfbench", "run.py"),
             "--self-check"],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        self.assertEqual(proc.returncode, 0, proc.stderr[-4000:])
        last = proc.stdout.strip().splitlines()[-1]
        self.assertEqual(json.loads(last), {"self_check": "ok"})


if __name__ == "__main__":
    unittest.main()
