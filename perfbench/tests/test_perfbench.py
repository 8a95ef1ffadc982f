"""Self-tests of the host-time benchmark.

Run from the repository root (builds the driver first, like run.py):

    python3 -m unittest discover -s perfbench/tests -v

Each test runs the driver with --seconds 0, which executes exactly the
fixed digest prefix of every workload after its usual set-ups.
"""

import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run as bench_run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
EXE = bench_run.build()


def drive(workload, seed, trace=0, *extra):
    """Run the driver on the digest prefix; return (stdout lines, result)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("DMX_")}
    env["DMX_JOBS"] = "1"
    out = subprocess.run(
        [EXE, "--workload", workload, "--seed", str(seed), "--seconds", "0",
         "--trace", str(trace), *extra],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=600)
    if out.returncode != 0:
        raise AssertionError("driver failed: " + out.stderr)
    lines = out.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def fingerprints(lines):
    """The (inputs, digest) hashes the driver printed."""
    for line in lines:
        m = re.search(r"inputs ([0-9a-f]{16}) digest ([0-9a-f]{16})", line)
        if m:
            return m.groups()
    raise AssertionError("no digest line in output")


class SameSeedSameWork(unittest.TestCase):
    def test_same_seed_gives_same_operations_and_digest(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                a, ra = drive(w, 7)
                b, rb = drive(w, 7)
                self.assertTrue(ra["correct"] and rb["correct"])
                self.assertEqual(ra["attempted"], rb["attempted"])
                self.assertEqual(fingerprints(a), fingerprints(b))
                c, _ = drive(w, 8)
                self.assertNotEqual(fingerprints(a)[0], fingerprints(c)[0])

    def test_tracing_leaves_the_digest_unchanged(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                plain, _ = drive(w, 7, 0)
                traced, result = drive(w, 7, 1)
                self.assertTrue(result["correct"])
                self.assertEqual(fingerprints(plain), fingerprints(traced))


class CorruptedExpectationFails(unittest.TestCase):
    def test_corrupted_expected_output_counts_as_failure(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                _, result = drive(w, 7, 0, "--corrupt-expected")
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)
                self.assertLess(result["failed"], result["attempted"])


class MetricNamesMatchSpec(unittest.TestCase):
    def test_every_printed_metric_is_declared(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            declared = {m["name"]: m["unit"] for m in SPEC[key]}
            for w in WORKLOADS:
                with self.subTest(workload=w, trace=trace):
                    _, result = drive(w, 7, trace)
                    printed = {k: v["unit"]
                               for k, v in result["metrics"].items()}
                    self.assertEqual(printed, declared)
                    for v in result["metrics"].values():
                        self.assertIsInstance(v["value"], (int, float))


if __name__ == "__main__":
    unittest.main()
