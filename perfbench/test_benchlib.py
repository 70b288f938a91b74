"""Tests of the benchmark's pure helpers.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import unittest
from pathlib import Path

import benchlib as bl

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def key(**over):
    k = {"workload": "transient", "scale": 1, "seed": 7, "workers": 1,
         "host": "2xx86_64", "commit": "c1", "parent": "c0"}
    k.update(over)
    return k


class PercentileSupport(unittest.TestCase):
    def test_p95_needs_ten_samples_beyond_it(self):
        self.assertIsNone(bl.supported_percentile(list(range(199)), 0.95))
        self.assertEqual(bl.supported_percentile(list(range(200)), 0.95), 189)
        self.assertEqual(bl.percentile(list(range(200)), 0.95), (189, 10))
        self.assertIsNone(bl.supported_percentile([], 0.5))

    def test_capped_percentile_falls_back_to_what_the_samples_support(self):
        self.assertEqual(bl.highest_supported(list(range(200)), 0.95), (189, 0.95))
        # 25 samples: rank 15 leaves 10 above, the 0.6 quantile.
        self.assertEqual(bl.highest_supported(list(range(25)), 0.95), (14, 0.6))
        # Too few samples for anything above the median.
        self.assertEqual(bl.highest_supported([5, 1, 3, 4, 2], 0.95), (3, 0.5))

    def test_median_is_nearest_rank(self):
        self.assertEqual(bl.percentile([3, 1, 2], 0.5), (2, 1))
        self.assertEqual(bl.percentile([5], 0.95), (5, 0))


class SpeedFactors(unittest.TestCase):
    def test_each_repetition_is_scaled_by_its_bracketing_calibrations(self):
        # The host ran at reference speed, then twice as slow, then at
        # reference speed: each repetition straddles one change.
        factors = bl.speed_factors([0.1, 0.2, 0.1], 0.1)
        self.assertEqual(len(factors), 2)
        for f in factors:
            self.assertAlmostEqual(f, 2 / 3)
        self.assertEqual(bl.speed_factors([0.1, 0.1], 0.1), [1.0])


class MetricNames(unittest.TestCase):
    def test_names_are_well_formed_and_match_the_benchmark_file(self):
        spec = json.loads(BENCHMARK.read_text())
        e2e = [m["name"] for m in spec["end_to_end"]]
        layer = [m["name"] for m in spec["per_layer"]]
        for name in e2e + layer + list(bl.LAYER_UNITS):
            self.assertRegex(name, r"^[A-Za-z0-9_.-]+$")
        self.assertEqual(sorted(layer), sorted(bl.LAYER_UNITS))
        self.assertEqual(len(set(e2e + layer)), len(e2e + layer))
        for m in spec["per_layer"]:
            self.assertEqual(m["unit"], bl.LAYER_UNITS[m["name"]], m["name"])

    def test_layer_metrics_cover_every_unit(self):
        empty = {"totals": {}, "counts": {}, "attributed_ns": 0, "wall_ns": 1}
        extra = {k: 0 for k in ("service.overhead_ms", "service.requests", "service.request_errors",
                                "service.chunks", "service.reps", "trace.overhead_frac")}
        self.assertEqual(sorted(bl.layer_metrics(empty, extra)), sorted(bl.LAYER_UNITS))


class RunKeys(unittest.TestCase):
    def test_same_commit_or_parent_and_child_compare(self):
        self.assertIsNone(bl.comparable(key(), key()))
        self.assertIsNone(bl.comparable(key(), key(commit="c2", parent="c1")))

    def test_mismatched_keys_are_refused(self):
        for field, value in [("workload", "sweep"), ("scale", 0.05), ("seed", 8),
                             ("workers", 2), ("host", "8xaarch64")]:
            why = bl.comparable(key(), key(**{field: value}))
            self.assertIsNotNone(why, field)
            self.assertIn(field, why)
        self.assertIsNotNone(bl.comparable(key(), key(commit="c9", parent="c8")))

    def test_key_carries_host_fingerprint(self):
        k = bl.run_key("serve", 3, 2, "c", "p")
        cores, arch = k["host"].split("x", 1)
        self.assertGreaterEqual(int(cores), 1)
        self.assertTrue(arch)
        self.assertEqual(set(k), set(bl.KEY_FIELDS) | {"commit", "parent"})


class PayloadDigest(unittest.TestCase):
    def test_timing_fields_are_stripped(self):
        a = '[{"id":"f","rows":[[1]],"wallclock":[["t",0.5],["u",1e-3]],"elapsed_s":1.25}]'
        b = '[{"id":"f","rows":[[1]],"wallclock":[["t",0.7]],"elapsed_s":9.5e-1}]'
        self.assertEqual(bl.payload_digest(a), bl.payload_digest(b))
        self.assertNotEqual(bl.payload_digest(a), bl.payload_digest(a.replace("[[1]]", "[[2]]")))


class Seeds(unittest.TestCase):
    def test_default_seed_is_the_figures_default(self):
        self.assertEqual(bl.figure_seed(0), 0xC5AA2009)
        self.assertEqual(bl.figure_seed(10), 0xC5AA2009)
        self.assertNotIn(0xC5AA2011, bl.FIGURE_SEEDS)


if __name__ == "__main__":
    unittest.main()
