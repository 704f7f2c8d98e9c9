"""Tests of run.py's result parsing and fingerprint comparison.

    cd ttcbench && python3 -m unittest test_run
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

import run

FP = {"cpu_model": "cpu", "isa": "avx2", "nproc": 4,
      "build_type": "RelWithDebInfo", "DPC_AVX2": False,
      "DPC_AVX512": False, "compiler": "gcc 12",
      "git_sha": "aaaa", "src_digest": "1111"}


class FingerprintTest(unittest.TestCase):
    def test_source_fields_may_differ(self):
        other = dict(FP, git_sha="bbbb", src_digest="2222")
        self.assertIsNone(run.fingerprint_mismatch(FP, other))

    def test_host_and_build_fields_may_not(self):
        self.assertEqual(run.fingerprint_mismatch(FP, dict(FP, nproc=8)),
                         "nproc: 4 vs 8")
        self.assertIn("DPC_AVX2",
                      run.fingerprint_mismatch(FP, dict(FP, DPC_AVX2=True)))
        missing = dict(FP)
        del missing["compiler"]
        self.assertIn("compiler", run.fingerprint_mismatch(FP, missing))

    def test_compare_refuses_mismatched_reports(self):
        report = {"workload": "cold_start", "trace": 0, "fingerprint": FP,
                  "metrics": {"setup_s": {"value": 1.0, "unit": "s"}}}
        with tempfile.TemporaryDirectory() as d:
            a, b = os.path.join(d, "a.json"), os.path.join(d, "b.json")
            with open(a, "w") as f:
                json.dump(report, f)
            with open(b, "w") as f:
                json.dump(dict(report, fingerprint=dict(FP, isa="sse4_2")),
                          f)
            proc = subprocess.run(
                [sys.executable, run.__file__, "--compare", a, b],
                capture_output=True, text=True)
            self.assertEqual(proc.returncode, 3)
            self.assertIn("refusing", proc.stderr)
            proc = subprocess.run(
                [sys.executable, run.__file__, "--compare", a, a],
                capture_output=True, text=True)
            self.assertEqual(proc.returncode, 0)
            self.assertIn("setup_s", proc.stdout)


class ResultTest(unittest.TestCase):
    def test_last_line_must_hold_exactly_the_four_keys(self):
        good = '{"correct": true, "attempted": 3, "failed": 0, "metrics": {}}'
        self.assertIsNotNone(run.result_of(["noise", good]))
        self.assertIsNone(run.result_of([good, "trailing"]))
        self.assertIsNone(run.result_of(
            ['{"correct": true, "attempted": 3, "metrics": {}}']))
        self.assertIsNone(run.result_of([]))


if __name__ == "__main__":
    unittest.main()
