"""Self-tests of the benchmark itself.

    python3 bench/selftest.py

They run the real workloads through run.py with --seconds 1 (one pass, or
one untraced and one traced pass), so the whole file takes about two
minutes.  They live here, not under tests/, so the package's own test run
does not pay for them.
"""

from __future__ import annotations

import json
import subprocess
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
PINNED = json.loads((BENCH / "digests.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload: str, seed: int, trace: int = 0, fault: str = "") -> tuple[int, dict, dict]:
    """Exit status, result line and full record of one one-second run."""
    cmd = [
        sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", "1", "--trace", str(trace),
    ] + (["--inject-fault", fault] if fault else [])
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=180)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((ROOT / ".bench_out" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return proc.returncode, result, record


def checks(record: dict) -> list:
    return [check for p in record["passes"] for check in p["checks"]]


class FaultInjection(unittest.TestCase):
    def test_flipped_coefficient_fails_the_run(self):
        code, result, _ = run("theorems-deep", 1, fault="flip")
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"] / result["attempted"], 0)

    def test_leaked_fraction_is_caught_by_the_digests(self):
        code, result, record = run("verify-all", 1, fault="fraction")
        # a whole Fraction compares equal to the int, so every report is ok
        self.assertTrue(all(ok for _, ok, _ in checks(record)))
        self.assertNotEqual(code, 0)
        self.assertGreater(result["failed"], 0)
        self.assertEqual(result["failed"], len(record["bad_digests"]))


class Seeds(unittest.TestCase):
    def test_two_seeds_give_the_same_digests_and_no_failures(self):
        runs = [run("theorems-deep", seed) for seed in (1, 2)]
        for code, result, record in runs:
            self.assertEqual(code, 0)
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)
            self.assertEqual(record["digests"], PINNED["theorems-deep"])
            self.assertEqual(set(result["metrics"]), {m["name"] for m in SPEC["end_to_end"]})
        orders = [[name for name, _, _ in checks(record)] for _, _, record in runs]
        self.assertNotEqual(orders[0], orders[1])
        self.assertEqual(sorted(orders[0]), sorted(orders[1]))


class Trace(unittest.TestCase):
    def test_traced_runs_report_every_layer_metric_and_the_pinned_digests(self):
        declared = {m["name"] for m in SPEC["per_layer"]}
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, result, record = run(workload, 1, trace=1)
                self.assertEqual(code, 0)
                self.assertEqual(set(result["metrics"]), declared)
                # digests rebuilt under tracing equal the ones untraced runs must match
                self.assertEqual(record["digests"], PINNED[workload])
                self.assertGreaterEqual(result["metrics"]["trace.span_share"]["value"], 0.9)

    def test_a_missing_binding_fails_loudly(self):
        sys.path.insert(0, str(ROOT / "src"))
        sys.path.insert(0, str(BENCH))
        import spans

        with self.assertRaises(spans.TraceTableError):
            spans.patch([("series", "_no_such_kernel", "series.binomial")], lambda fn, name, metric: fn)


if __name__ == "__main__":
    unittest.main()
