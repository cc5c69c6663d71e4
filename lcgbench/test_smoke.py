#!/usr/bin/env python3
"""The benchmark's own tests, at smoke sizes (about a minute in all).

    python3 lcgbench/test_smoke.py

Run from the root of a checkout. Every workload runs with --smoke, which
keeps every output check, in both modes: the last output line must be the
result object with exactly the metrics BENCHMARK.json declares, and the
output checks must pass on the default seed and on another seed. A copy of
BENCHMARK.json and lcgbench/ without the repository's sources must fail
without printing a result.
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / BENCH_DIR.name / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600, check=False)


def result_of(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


class SmokeTest(unittest.TestCase):
    def check_run(self, workload, trace, seed=None):
        args = ["--workload", workload, "--smoke", "--seconds", "1",
                "--trace", str(trace)]
        if seed is not None:
            args += ["--seed", str(seed)]
        proc = run(*args)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = result_of(proc)
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stderr)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertLessEqual(result["failed"], result["attempted"])
        declared = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in declared})
        for m in declared:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])
        if not trace:
            for m in declared:
                self.assertGreater(result["metrics"][m["name"]]["value"], 0,
                                   m["name"])
        return result

    def test_every_workload_untraced_default_seed(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                self.check_run(w["name"], 0)

    def test_every_workload_untraced_other_seed(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                self.check_run(w["name"], 0, seed=7)

    def test_every_workload_traced(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                self.check_run(w["name"], 1, seed=7)

    def test_same_seed_same_outputs(self):
        # htlc_stream prints its ledger; equal seeds must print equal ones.
        args = ["--workload", "htlc_stream", "--smoke", "--seconds", "1",
                "--seed", "11"]
        ledgers = [[line for line in run(*args).stdout.splitlines()
                    if line.startswith("# htlc_stream host 0 ledger")]
                   for _ in range(2)]
        self.assertEqual(len(ledgers[0]), 1)
        self.assertEqual(ledgers[0], ledgers[1])

    def test_fails_without_repository_sources(self):
        bare = ROOT / ".bench_build" / "bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH_DIR, bare / BENCH_DIR.name)
        try:
            proc = run("--workload", "htlc_stream", "--seconds", "1",
                       cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)
        finally:
            shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main()
