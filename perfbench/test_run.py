"""run.py reports exactly the metrics BENCHMARK.json declares, with the
declared units, on every workload.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import unittest
from pathlib import Path

import run

DECLARED = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def raw_result(workload):
    """A small raw runner result with one traced operation: a root with a
    core span and a context span inside it."""
    names = ["bench.pass", "core.generate_batch", "context.generation_windows"]
    return {
        "workload": workload, "seed": 1, "seconds": 1.0, "trace": 1,
        "setup_s": [1.0, 1.2, 1.1], "dataset_s": [0.9, 1.0, 1.1],
        "pack_load_ms": [1.0, 2.0, 3.0], "fdas_fit_ms": [],
        "wall_s": 2.0, "cpu_s": 1.0, "windows": 100,
        "traced_wall_s": 2.0, "traced_windows": 90,
        "units": 10, "units_ok": 10,
        "ttfc_ms": [1.0, 2.0], "gap_ms": [3.0], "ops": [[1, 1.0, 3.0], [1, 2.0, 0.0]],
        "checked": 1, "mismatched": 0, "problems": [],
        "counters": {"cells_per_window": 6.0, "window_len": 50.0, "threads": 1.0},
        "params": [["gendt.node.wx", 9, 192], ["gendt.agg.head.weight", 48, 4],
                   ["gendt.node.b", 1, 192]],
        "span_names": names,
        "spans": [[1, 0, 0, 0, 0, 0, 0, 0.0, 2.0],
                  [2, 1, 1, 7, 0, 8, 8, 0.5, 1.5],
                  [3, 1, 2, 7, 0, 1, 1, 0.2, 0.4]],
        "chunks": [],
        "peak_rss_mb": 20.0,
    }


class DeclaredMetricsTest(unittest.TestCase):
    def test_end_to_end_names_and_units(self):
        want = {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
        for w in DECLARED["workloads"]:
            got = run.end_to_end(raw_result(w["name"]), w["name"])
            self.assertEqual({k: v[1] for k, v in got.items()}, want, w["name"])

    def test_per_layer_names_and_units(self):
        want = {m["name"]: m["unit"] for m in DECLARED["per_layer"]}
        for w in DECLARED["workloads"]:
            got, wall, accounted = run.per_layer(raw_result(w["name"]))
            self.assertEqual({k: v[1] for k, v in got.items()}, want, w["name"])
            self.assertAlmostEqual(wall, 2.0)
            self.assertAlmostEqual(accounted, wall)

    def test_workloads_match_the_runner(self):
        self.assertEqual(tuple(w["name"] for w in DECLARED["workloads"]), run.WORKLOADS)

    def test_flop_estimate_counts_node_weights_per_cell(self):
        raw = raw_result("covermap")
        # 2 * 50 steps * (6 cells * 9*192 + 48*4) multiply-adds; biases skipped.
        self.assertAlmostEqual(run.mflop_per_window(raw), 2 * 50 * (6 * 9 * 192 + 48 * 4) / 1e6)

    def test_a_mismatch_makes_the_run_incorrect(self):
        raw = raw_result("stream")
        raw["mismatched"] = 1
        raw["units_ok"] = 9
        correct, attempted, failed, _, problems = run.evaluate(raw, "stream", 0)
        self.assertFalse(correct)
        self.assertEqual((attempted, failed), (10, 1))
        self.assertTrue(problems)


if __name__ == "__main__":
    unittest.main()
