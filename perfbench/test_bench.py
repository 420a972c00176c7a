#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/test_bench.py

Builds the benchmark, runs its OCaml checks (seeded inputs, open-loop
lateness, scratch directories), then runs every workload briefly
through run.py and checks the result against BENCHMARK.json.  Takes
about a minute.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("audit", "serve", "enforce")


def run_py(cwd, *args):
    return subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        os.chdir(ROOT)
        with open("BENCHMARK.json") as f:
            cls.spec = json.load(f)
        env = dict(os.environ, DUNE_CACHE="disabled")
        subprocess.run(["dune", "build", "--root", ".", "./perfbench"], env=env, check=True)
        cls.results = {}
        for w in WORKLOADS:
            for trace in (0, 1):
                proc = run_py(ROOT, "--workload", w, "--seed", "5", "--seconds", "1",
                              "--trace", str(trace))
                cls.results[w, trace] = proc

    def test_ocaml_checks(self):
        proc = subprocess.run([os.path.join("_build", "default", "perfbench", "bench_test.exe")],
                              capture_output=True, text=True, timeout=600)
        self.assertEqual(proc.returncode, 0, proc.stdout)

    def test_metric_names_match_benchmark_json(self):
        for (w, trace), proc in self.results.items():
            with self.subTest(workload=w, trace=trace):
                self.assertEqual(proc.returncode, 0, proc.stderr)
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                wanted = self.spec["per_layer"] if trace else self.spec["end_to_end"]
                self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()},
                                 {m["name"]: m["unit"] for m in wanted})
                self.assertTrue(result["correct"])
                self.assertGreaterEqual(result["attempted"], 1)

    def test_scratch_dirs_removed_on_exit(self):
        # every serve run made fresh cache directories under .bench_tmp
        self.assertFalse(os.path.exists(".bench_tmp") and os.listdir(".bench_tmp"))

    def test_open_loop_lateness_reported(self):
        info = json.loads(self.results["serve", 0].stdout.strip().splitlines()[-2])
        self.assertIn("lateness_mean_ms", info)
        self.assertIn("lateness_max_ms", info)
        result = json.loads(self.results["serve", 1].stdout.strip().splitlines()[-1])
        self.assertIn("serve.lateness_ms", result["metrics"])

    def test_refuses_directory_without_sources(self):
        with tempfile.TemporaryDirectory() as bare:
            shutil.copy("BENCHMARK.json", bare)
            shutil.copytree("perfbench", os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = run_py(bare, "--workload", "audit", "--seed", "1", "--seconds", "1",
                          "--trace", "0")
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
