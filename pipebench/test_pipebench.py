"""Tests of the pipeline benchmark itself, at smoke size.

Run from the repository root (builds pipebench/ on first use):

    python3 -m unittest discover -s pipebench -p 'test_*.py'
"""
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, seed, trace=0, ops=0):
    """Runs one smoke-size benchmark; returns (exit code, result, digest, output)."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--size", "smoke"]
    if ops:
        cmd += ["--ops", str(ops)]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    digest = next((line.split()[1] for line in lines if line.startswith("digest ")), None)
    return p.returncode, result, digest, p.stdout + p.stderr


class SmokeTest(unittest.TestCase):
    def test_every_workload_reports_every_metric(self):
        spec = load_spec()
        for workload in [w["name"] for w in spec["workloads"]]:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    code, result, _, out = run(workload, seed=3, trace=trace)
                    self.assertEqual(code, 0, out)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], out)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    want = {m["name"]: m["unit"] for m in spec[key]}
                    got = {name: m["unit"] for name, m in result["metrics"].items()}
                    self.assertEqual(got, want)
                    for name, m in result["metrics"].items():
                        self.assertIsInstance(m["value"], (int, float), name)


class DeterminismTest(unittest.TestCase):
    def test_same_seed_same_content_other_seed_other_world(self):
        for workload in ["steady-churn", "cold-start", "audit-trace"]:
            with self.subTest(workload=workload):
                first = run(workload, seed=5, ops=4)
                again = run(workload, seed=5, ops=4)
                other = run(workload, seed=6, ops=4)
                for code, _, digest, out in (first, again, other):
                    self.assertEqual(code, 0, out)
                    self.assertIsNotNone(digest, out)
                self.assertEqual(first[2], again[2])
                self.assertNotEqual(first[2], other[2])


if __name__ == "__main__":
    unittest.main()
