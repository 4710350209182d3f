#!/usr/bin/env python3
"""The benchmark's own test (see METRICS.md).

    python3 perfbench/test_bench.py            # from the repository root

Runs every workload briefly, traced and untraced, through run.py and checks:
  - the result line carries exactly the metric names and units BENCHMARK.json
    lists (end_to_end untraced, per_layer traced);
  - the detail line prints the raw value beside every scaled wall-time metric,
    and the host reference marks (host.ref_ms);
  - the exact counts agree between the traced and the untraced run;
  - pipeline's traced self times cover at least 90% of the traced wall time;
  - a wrong reference makes the correctness gate fire: non-zero exit, no
    result line.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SECONDS = "3"
SEED = "5"

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
TIMED = {"qps", "latency_ms_p50", "latency_ms_p99", "modelled_ms", "setup_s"}

_runs = {}


def run(workload, trace, *extra):
    key = (workload, trace) + extra
    if key not in _runs:
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", SEED, "--seconds", SECONDS, "--trace", str(trace), *extra]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        _runs[key] = done
    return _runs[key]


def parsed(workload, trace):
    done = run(workload, trace)
    assert done.returncode == 0, done.stderr[-2000:]
    lines = [json.loads(l) for l in done.stdout.strip().splitlines() if l.startswith("{")]
    provenance = next(l["provenance"] for l in lines if "provenance" in l)
    detail = next(l["detail"] for l in lines if "detail" in l)
    return provenance, detail, lines[-1]


class BenchmarkTest(unittest.TestCase):
    def test_metric_names_match_spec(self):
        for workload in WORKLOADS:
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    _, _, result = parsed(workload, trace)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    want = {m["name"]: m["unit"] for m in SPEC[section]}
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, want)

    def test_raw_and_reference_beside_scaled(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                provenance, detail, result = parsed(workload, 0)
                for name in TIMED:
                    entry = detail["metrics"][name]
                    self.assertIn("raw", entry, name)
                    self.assertEqual(entry["value"], result["metrics"][name]["value"])
                for name in ("latency_ms_p50", "latency_ms_p99"):
                    self.assertGreater(detail["metrics"][name]["samples"], 0)
                    self.assertIn("beyond", detail["metrics"][name])
                refs = detail["host"]["ref_ms"]
                self.assertGreaterEqual(len(refs), 2)
                self.assertTrue(all(r > 0 for r in refs))
                for key in ("seed", "nproc", "pinned_cpus", "build_type", "compiler", "git_sha"):
                    self.assertIn(key, provenance)
                self.assertLessEqual(len(provenance["pinned_cpus"]), provenance["nproc"])
                _, _, traced = parsed(workload, 1)
                self.assertGreater(traced["metrics"]["host.ref_ms"]["value"], 0)

    def test_exact_counts_agree_traced_and_untraced(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                _, untraced, _ = parsed(workload, 0)
                _, traced, _ = parsed(workload, 1)
                a, b = untraced["exact"], traced["exact"]
                # The churned state counts only queries a request ran on.
                common = set(a) & set(b)
                self.assertTrue(any(k.endswith("q4.partial_results") for k in common))
                self.assertTrue(all(k in common for k in a if not k.startswith("churned.")))
                for key in sorted(common):
                    self.assertEqual(a[key], b[key], key)

    def test_pipeline_self_times_cover_traced_wall(self):
        _, detail, _ = parsed("pipeline", 1)
        self.assertGreaterEqual(detail["facts"]["self_time_coverage"], 0.9)

    def test_wrong_reference_fires_gate(self):
        done = run("pipeline", 0, "--wrong-reference")
        self.assertNotEqual(done.returncode, 0)
        self.assertIn("FAST counted", done.stderr)
        for line in done.stdout.splitlines():
            self.assertNotIn('"correct"', line)


if __name__ == "__main__":
    unittest.main()
