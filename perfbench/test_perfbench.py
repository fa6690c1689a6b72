#!/usr/bin/env python3
"""Smoke tests of the repository benchmark.

    python3 perfbench/test_perfbench.py      # from the repository root

Runs every workload, ccqd-1c included, at its smoke size (route n = 256,
apsp n = 64, 50 ccqd jobs) through run.py, untraced and traced, and checks
the result contract:
all output checks pass, every metric BENCHMARK.json names is printed with
its unit, the traced layers plus the unattributed remainder sum to the
traced wall, the ccqd server counters cover exactly the traced jobs, and
the model's counts repeat exactly on a rerun.
Also checks that the benchmark refuses to run without the library sources.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
LEDGER = ["graph.generate_ms", "clique.session_build_ms", "clique.delivery_ms",
          "service.start_ms", "service.overhead_ms", "service.engine_ms",
          "clique.unattributed_ms"]
COUNTS = ["clique.rounds", "clique.messages", "clique.bits",
          "clique.collectives"]


def run(workload, trace, seed=7, root=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace), "--smoke"],
        cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=900)
    return proc


class SmokeTest(unittest.TestCase):
    def result(self, workload, trace, seed=7):
        proc = run(workload, trace, seed)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        result = json.loads(proc.stdout.splitlines()[-1])
        self.assertEqual(sorted(result),
                         ["attempted", "correct", "failed", "metrics"])
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        return result

    def check_names(self, result, spec_key):
        want = {m["name"]: m["unit"] for m in SPEC[spec_key]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, want)

    def test_workloads(self):
        # ccqd-1c is runnable by name but not in BENCHMARK.json (README.md).
        names = [w["name"] for w in SPEC["workloads"]] + ["ccqd-1c"]
        for name in names:
            with self.subTest(workload=name):
                plain = self.result(name, 0)
                self.check_names(plain, "end_to_end")
                for metric in plain["metrics"].values():
                    self.assertGreater(metric["value"], 0)

                traced = self.result(name, 1)
                self.check_names(traced, "per_layer")
                m = {k: v["value"] for k, v in traced["metrics"].items()}
                layers = sum(m[k] for k in LEDGER)
                self.assertAlmostEqual(layers, m["traced_wall_ms"],
                                       delta=1e-6 * m["traced_wall_ms"])
                self.assertGreater(m["clique.messages"], 0)
                if name.startswith("ccqd"):
                    # Server counters cover exactly the 50 traced jobs.
                    self.assertEqual(m["service.cache_hits"]
                                     + m["service.cache_misses"], 50)

                again = self.result(name, 1)["metrics"]
                for k in COUNTS:
                    self.assertEqual(again[k]["value"], m[k], k)

    def test_refuses_without_sources(self):
        scratch = os.path.join(ROOT, ".bench_build")
        os.makedirs(scratch, exist_ok=True)
        bare = tempfile.mkdtemp(dir=scratch)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            for path in SPEC["paths"]:
                shutil.copytree(os.path.join(ROOT, path),
                                os.path.join(bare, path))
            proc = run("ccqd-1c", 0, root=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main()
