"""Tests of the benchmark's metric helpers.

    python3 perfbench/test_metrics.py
"""

import json
import unittest
from pathlib import Path

import metrics


def span(name, start, end, parent=-1, run=0):
    return {"name": name, "start": start, "end": end, "parent": parent,
            "run": run}


class TailPercentileTest(unittest.TestCase):
    def test_p90_needs_ten_samples_beyond_it(self):
        samples = list(range(1, 101))  # 100 samples: p90 leaves 10 above
        self.assertEqual(metrics.tail_percentile(samples), (0.9, 90, 100))

    def test_falls_back_to_the_highest_supported_percentile(self):
        samples = list(range(1, 51))  # 50 samples: only p80 leaves 10 above
        self.assertEqual(metrics.tail_percentile(samples), (0.8, 40, 50))

    def test_too_few_samples_has_no_tail(self):
        self.assertEqual(metrics.tail_percentile(list(range(10))),
                         (None, None, 10))

    def test_order_of_samples_does_not_matter(self):
        samples = list(range(200, 0, -1))
        self.assertEqual(metrics.tail_percentile(samples), (0.9, 180, 200))


class SelfTimeTest(unittest.TestCase):
    def test_no_children(self):
        self.assertAlmostEqual(metrics.self_time(span("p", 0, 10), []), 10)

    def test_disjoint_children(self):
        children = [span("a", 1, 3), span("b", 5, 6)]
        self.assertAlmostEqual(metrics.self_time(span("p", 0, 10), children), 7)

    def test_overlapping_children_count_once(self):
        # Two concurrent children covering [2, 8] between them.
        children = [span("a", 2, 6), span("b", 4, 8)]
        self.assertAlmostEqual(metrics.self_time(span("p", 0, 10), children), 4)

    def test_nested_child_inside_child(self):
        children = [span("a", 1, 9), span("a.inner", 2, 3)]
        self.assertAlmostEqual(metrics.self_time(span("p", 0, 10), children), 2)

    def test_children_clipped_to_the_parent(self):
        children = [span("a", -5, 2), span("b", 9, 20)]
        self.assertAlmostEqual(metrics.self_time(span("p", 0, 10), children), 7)


class NamesTest(unittest.TestCase):
    def test_every_metric_name_is_valid(self):
        names = list(metrics.END_TO_END_UNITS) + list(metrics.PER_LAYER_UNITS)
        for name in names:
            self.assertTrue(metrics.valid_name(name), name)
        self.assertEqual(len(names), len(set(names)))

    def test_invalid_names(self):
        for name in ("", "a b", "a/b", ".a", "x" * 65, "ms+"):
            self.assertFalse(metrics.valid_name(name), name)

    def test_benchmark_json_matches_the_metrics(self):
        spec = json.loads(
            (Path(__file__).resolve().parent.parent / "BENCHMARK.json")
            .read_text())
        declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        self.assertEqual(declared, metrics.END_TO_END_UNITS)
        declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
        self.assertEqual(declared, metrics.PER_LAYER_UNITS)
        for workload in spec["workloads"]:
            self.assertTrue(metrics.valid_name(workload["name"]))


class DerivedMetricsTest(unittest.TestCase):
    def test_diva_other_and_trace_overhead(self):
        spans = [
            span("rep", 0, 30),                       # 0
            span("core.run_diva", 0, 10, parent=0),   # 1
            span("core.replay", 10, 22, parent=0),    # 2
            span("core.graph_build", 10, 13, parent=2),
            span("core.coloring", 13, 19, parent=2),
        ]
        out = metrics.per_layer({"spans": spans, "values": {}})
        # RunDiva 10 s; the replayed layers cover 9 s of it.
        self.assertAlmostEqual(out["core.diva_other_s"], 1.0)
        self.assertAlmostEqual(out["bench.trace_overhead_ratio"], 1.2)
        self.assertAlmostEqual(out["core.graph_build_s"], 3.0)

    def test_layer_time_sums_within_a_run(self):
        spans = [span("anon.suppress", 0, 1, run=0),
                 span("anon.suppress", 2, 4, run=0),
                 span("anon.suppress", 0, 5, run=1),
                 span("anon.suppress", 0, 7, run=2)]
        out = metrics.per_layer({"spans": spans, "values": {}})
        self.assertAlmostEqual(out["anon.suppress_s"], 5.0)


if __name__ == "__main__":
    unittest.main()
