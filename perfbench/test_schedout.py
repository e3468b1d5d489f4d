"""Tests of the lenient report parser on captured schedbench output.

Run with: python3 -m unittest discover -s perfbench
"""

import json
import os
import unittest

import schedout

HERE = os.path.dirname(os.path.abspath(__file__))


def captured(name):
    with open(os.path.join(HERE, "testdata", name)) as f:
        return schedout.parse(f.read())


class ParseTest(unittest.TestCase):
    def test_fields_and_numbers(self):
        f = schedout.fields("# fullgrid: grid_wall=18.2s cache=[hits=4 misses=0] partial=false")
        self.assertEqual(f, {"grid_wall": "18.2s", "cache": {"hits": "4", "misses": "0"},
                             "partial": "false"})
        self.assertEqual(schedout.number("8.23s"), 8.23)
        self.assertEqual(schedout.number("415.1MB"), 415.1)
        self.assertEqual(schedout.number("24248320"), 24248320)
        self.assertIsNone(schedout.number("false"))
        self.assertIsNone(schedout.number(None))

    def test_cell(self):
        rep = captured("cell.out")
        self.assertEqual(len(rep["cells"]), 1)
        cell = rep["cells"][0]
        self.assertEqual((cell["kernel"], cell["sched"], cell["links"]), ("RRM", "sb", 4))
        self.assertEqual(cell["fingerprint"],
                         "87a1452eeac2d9248fa178112dc8ca080c50defc53758f9b639681d96f0a1302")
        m = schedout.stage_metrics(rep)
        self.assertEqual(m["dagtrace.record_s"], 8.23)
        self.assertEqual(m["dagtrace.frame_s"], 0.50)
        self.assertEqual(m["sim.replay_s"], 5.16)
        self.assertEqual(m["shard.replay_s"], 2.83)
        self.assertEqual(m["cachesim.l3_misses"], 2020069)
        self.assertEqual(m["dagtrace.peak_window_bytes"], 24248320)
        # The cell prints no grid summary, and its trace cache saw no lookups.
        self.assertIsNone(m["exp.degraded_ratio"])
        self.assertIsNone(m["dagtrace.budget_peak_bytes"])
        self.assertEqual(m["dagtrace.trace_lookups"], 0)
        self.assertIsNone(m["dagtrace.trace_hit_ratio"])
        self.assertIsNone(schedout.failed_cells(rep))

    def test_missing_stage_field_is_absent(self):
        m = schedout.stage_metrics(captured("cell_nowrite.out"))
        self.assertIsNone(m["dagtrace.frame_s"])
        self.assertEqual(m["dagtrace.record_s"], 8.23)
        self.assertEqual(m["shard.replay_s"], 2.83)

    def test_missing_lines_are_absent(self):
        with open(os.path.join(HERE, "testdata", "grid.out")) as f:
            text = f.read()
        kept = [l for l in text.splitlines()
                if not l.startswith(("# fullgrid:", "# supervisor:", "  memory:"))]
        rep = schedout.parse("\n".join(kept))
        m = schedout.stage_metrics(rep)
        for k in ("dagtrace.budget_peak_bytes", "exp.concurrency", "exp.degraded_ratio",
                  "dagtrace.peak_window_bytes", "dagtrace.trace_hit_ratio"):
            self.assertIsNone(m[k], k)
        self.assertEqual(len([c for c in rep["cells"] if "fingerprint" in c]), 4)
        self.assertIsNone(schedout.failed_cells(rep))

    def test_grid(self):
        rep = captured("grid.out")
        keys = {"%s/%s" % (c["sched"], c["links"]) for c in rep["cells"]}
        self.assertEqual(keys, {"sb/4", "sb/1", "sbd/4", "sbd/1"})
        m = schedout.stage_metrics(rep)
        self.assertEqual(m["exp.cells"], 4)
        self.assertEqual(m["exp.degraded_ratio"], 0.5)
        self.assertAlmostEqual(m["exp.concurrency"], 23.4 / 18.2)
        self.assertEqual(m["dagtrace.budget_peak_bytes"], 20316160)
        self.assertEqual(m["dagtrace.budget_bytes"], 16777216)
        self.assertEqual(m["dagtrace.trace_hit_ratio"], 1.0)
        self.assertEqual(m["dagtrace.record_s"], 0.0)
        self.assertAlmostEqual(m["shard.replay_s"], 4.84 + 5.24 + 6.61 + 6.70)
        self.assertEqual(schedout.failed_cells(rep), 0)

    def test_supervisor_failed(self):
        self.assertEqual(schedout.failed_cells(captured("grid_failed.out")), 1)

    def test_fig8_trace_cache(self):
        m = schedout.stage_metrics(captured("fig8.out"))
        self.assertEqual(m["dagtrace.trace_lookups"], 40)
        self.assertEqual(m["dagtrace.trace_hit_ratio"], 0.75)
        self.assertIsNone(m["dagtrace.record_s"])


class ExpectedTest(unittest.TestCase):
    def test_cell_equals_grid_sb4(self):
        with open(os.path.join(HERE, "expected.json")) as f:
            expected = json.load(f)
        self.assertGreaterEqual(len(expected), 2)
        for seed, want in expected.items():
            self.assertEqual(want["cell_x16_rrm"]["fingerprint"],
                             want["grid_x16_warm"]["sb/4"], seed)
            self.assertEqual(sorted(want["grid_x16_warm"]), ["sb/1", "sb/4", "sbd/1", "sbd/4"])


class ContractTest(unittest.TestCase):
    def test_per_layer_metrics_match_benchmark_json(self):
        import run
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
            bench = json.load(f)
        self.assertEqual([(m["name"], m["unit"]) for m in bench["per_layer"]],
                         list(run.LAYER_METRICS))
        self.assertEqual(sorted(w["name"] for w in bench["workloads"]), sorted(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
