"""Self-tests of the repository benchmark.

    python3 -m unittest perfbench/test_perfbench.py     (from the repo root)

They run every workload at smoke size and check the contract of the
result line against BENCHMARK.json, and that the seed drives the inputs.
"""

import json
import math
import os
import subprocess
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)

# serve-steady and engine-swarm are left out of BENCHMARK.json to fit the
# run budget, but stay runnable by hand, so they are tested too.
WORKLOADS = [w["name"] for w in SPEC["workloads"]] + ["serve-steady", "engine-swarm"]


def run(*args):
    done = subprocess.run(["python3", RUN, *args], cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=600)
    if done.returncode != 0:
        raise AssertionError("run.py %s exited %d" % (" ".join(args), done.returncode))
    return done.stdout


def result(workload, trace, seed=3):
    out = run("--workload", workload, "--seed", str(seed), "--seconds", "0.2",
              "--trace", str(trace), "--smoke")
    return out, json.loads(out.rstrip("\n").split("\n")[-1])


class Smoke(unittest.TestCase):
    def check(self, trace, declared):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                out, r = result(name, trace)
                self.assertEqual(set(r), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(r["correct"], out)
                self.assertGreaterEqual(r["attempted"], 1)
                self.assertEqual(r["failed"], 0)
                self.assertEqual(set(r["metrics"]), {m["name"] for m in declared})
                for m in declared:
                    got = r["metrics"][m["name"]]
                    self.assertEqual(got["unit"], m["unit"], m["name"])
                    self.assertTrue(math.isfinite(got["value"]), m["name"])
                    if trace == 0:
                        self.assertGreater(got["value"], 0, m["name"])
                    # the table above the result line names every metric too
                    self.assertIn(m["name"], out)

    def test_end_to_end_metrics(self):
        self.check(0, SPEC["end_to_end"])

    def test_per_layer_metrics(self):
        self.check(1, SPEC["per_layer"])


class Seeds(unittest.TestCase):
    def test_seed_changes_inputs(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                digest = lambda seed: run("--workload", name, "--seed", str(seed),
                                          "--inputs").strip()
                self.assertEqual(digest(1), digest(1))
                self.assertNotEqual(digest(1), digest(2))


if __name__ == "__main__":
    unittest.main()
