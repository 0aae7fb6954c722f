#!/usr/bin/env python3
"""The benchmark's own tests.

Checks the ledger arithmetic on a hand-made trace, and the exact layer
counts the ROADMAP states for the canonical grid (37 full simulations,
497 recosts, 180 extractions, 202 cold and 878 warm solves, 1080 optimal
placements) and for the tight model-only grid (6 of 240 labels degraded,
reported and not hidden). A later fix to the degraded labels shows up
here as a failing count and in the benchmark as a rise in optimal_share.

    python3 e2ebench/test_bench.py
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")


def bench(workload, trace):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, check=False)
    assert done.returncode == 0, "%s --trace %d failed" % (workload, trace)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return result, {k: v["value"] for k, v in result["metrics"].items()}


class LedgerArithmetic(unittest.TestCase):
    def test_self_times(self):
        bench("grid-tight-model", 0)  # builds the package
        done = subprocess.run([os.path.join(BUILD, "ledger_test")],
                              capture_output=True, text=True, check=False)
        self.assertEqual(done.returncode, 0, done.stderr)


class GridMeasure(unittest.TestCase):
    def test_roadmap_counts(self):
        result, m = bench("grid-measure", 1)
        self.assertTrue(result["correct"])  # traced bytes == untraced bytes
        self.assertEqual(m["sim.full_sims"], 37)
        self.assertEqual(m["sim.recosts"], 497)
        self.assertEqual(m["core.extractions"], 180)
        self.assertEqual(m["campaign.cold_solves"], 202)
        self.assertEqual(m["campaign.warm_solves"], 878)
        self.assertEqual(m["campaign.optimal"], 1080)
        self.assertEqual(m["lp.solves"], 1080)
        self.assertEqual(m["lp.degraded"], 0)
        # One fingerprint and link per measurement: baseline + distinct
        # optimized images, which is what full sims plus recosts count.
        self.assertEqual(m["layout.fingerprints"], 37 + 497)
        self.assertEqual(m["beebs.modules"], 180)

    def test_outputs_correct(self):
        result, m = bench("grid-measure", 0)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertEqual(m["optimal_share"], 1.0)


class TightModel(unittest.TestCase):
    def test_degraded_labels_reported(self):
        result, m = bench("grid-tight-model", 0)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertEqual(m["optimal_share"], 234 / 240)

    def test_ledger_counts(self):
        _, m = bench("grid-tight-model", 1)
        self.assertEqual(m["lp.degraded"], 6)
        self.assertEqual(m["campaign.optimal"], 234)
        self.assertEqual(m["sim.full_sims"], 0)
        self.assertEqual(m["sim.recosts"], 0)


class StoreResweep(unittest.TestCase):
    def test_store_layer_counts(self):
        result, m = bench("store-resweep", 1)
        self.assertEqual(m["sim.full_sims"], 1)
        self.assertEqual(m["campaign.incumbent_seeds"], 180)
        self.assertGreater(m["campaign.store_bytes"], 0)
        result, m = bench("store-resweep", 0)
        self.assertTrue(result["correct"])
        self.assertEqual(m["optimal_share"], 1.0)


if __name__ == "__main__":
    unittest.main()
