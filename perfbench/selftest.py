"""Self-tests of the benchmark harness: ``python3 perfbench/selftest.py``.

They cover the parts whose mistakes would go unseen in a result line: the
seeded schedule, the pace scaling, the tail-percentile rule, span
self-time arithmetic, and that the bit-identity checks catch a one-ulp
change.  The file name keeps them out of the repository's pytest
collection; they need neither the program nor a server.
"""

from __future__ import annotations

import json
import math
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import cli_workloads  # noqa: E402
import common  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import service_workload  # noqa: E402
import spans  # noqa: E402


def _requests(inputs):
    return [(r.due, r.kind, json.dumps(r.spec, sort_keys=True), r.method,
             r.rid) for r in inputs.schedule + inputs.closed]


class ScheduleTest(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        first = service_workload.build_inputs(7, 20.0)
        second = service_workload.build_inputs(7, 20.0)
        self.assertEqual(_requests(first), _requests(second))
        self.assertEqual(first.grid, second.grid)
        self.assertEqual(first.hot, second.hot)

    def test_other_seed_other_inputs(self):
        self.assertNotEqual(
            _requests(service_workload.build_inputs(7, 20.0)),
            _requests(service_workload.build_inputs(8, 20.0)))

    def test_rate_window_and_exact_mix(self):
        for seed in (3, 4):
            schedule = service_workload.build_inputs(seed, 20.0).schedule
            dues = [r.due for r in schedule]
            self.assertEqual(dues, sorted(dues))
            self.assertTrue(0.0 <= dues[0] and dues[-1] < 20.0)
            kinds = {}
            for due in sorted(set(dues)):
                kind = next(r.kind for r in schedule if r.due == due)
                kinds[kind] = kinds.get(kind, 0) + 1
            per_segment = round(service_workload.RATE_PER_S * 20.0
                                / service_workload.SEGMENTS)
            mix = service_workload.segment_mix(per_segment)
            self.assertEqual(sum(mix.values()), per_segment)
            self.assertEqual(kinds, {kind: service_workload.SEGMENTS * count
                                     for kind, count in mix.items()})

    def test_sweep_pairs_overlap_by_half(self):
        schedule = service_workload.build_inputs(3, 20.0).schedule
        sweeps = [r for r in schedule if r.kind == "sweep"]
        first, second = sweeps[0], sweeps[1]
        self.assertEqual(first.due, second.due)
        lams_a = first.spec["sweep"]["lam"]
        lams_b = second.spec["sweep"]["lam"]
        self.assertEqual(len(set(lams_a) & set(lams_b)),
                         service_workload.SWEEP_CELLS // 2)


class PaceTest(unittest.TestCase):
    def test_scale_to_the_reference_pace(self):
        ref = common.PACE_REF_S
        self.assertEqual(common.pace_scale(ref, ref), 1.0)
        # A host 1.5x slower reads 1.5x longer walls; scaled, they match.
        self.assertAlmostEqual(1.5 * common.pace_scale(1.5 * ref, 1.5 * ref),
                               1.0)
        self.assertAlmostEqual(common.pace_scale(ref, 2 * ref), 2 / 3)


class TailRuleTest(unittest.TestCase):
    def test_highest_percentile_with_ten_beyond(self):
        self.assertEqual(common.tail_percentile(10000), 99.9)
        self.assertEqual(common.tail_percentile(1000), 99.0)
        self.assertEqual(common.tail_percentile(999), 98.0)
        self.assertEqual(common.tail_percentile(800), 98.0)
        self.assertEqual(common.tail_percentile(200), 95.0)
        self.assertEqual(common.tail_percentile(20), 50.0)
        self.assertIsNone(common.tail_percentile(19))

    def test_value_and_label(self):
        values = [float(i) for i in range(1, 1001)]
        label, value = common.tail(values)
        self.assertEqual(label, "p99")
        self.assertAlmostEqual(value, 990.01)
        self.assertEqual(sum(v > value for v in values), 10)
        self.assertEqual(common.tail([3.0, 1.0, 2.0]), ("max", 3.0))

    def test_percentile_interpolates(self):
        self.assertEqual(common.percentile([1.0, 2.0, 3.0, 4.0], 50), 2.5)
        self.assertEqual(common.median([4.0, 1.0, 3.0]), 3.0)


class SpanArithmeticTest(unittest.TestCase):
    @staticmethod
    def span(ident, parent, name, start, end, tag=None):
        return [ident, parent, None, name, start, end, tag]

    def test_nested_children(self):
        tree = [self.span(1, None, "a", 0.0, 10.0),
                self.span(2, 1, "b", 1.0, 4.0),
                self.span(3, 2, "c", 2.0, 3.0),
                self.span(4, 1, "d", 6.0, 8.0)]
        selfs = spans.self_times(tree)
        self.assertAlmostEqual(selfs[1], 10.0 - 3.0 - 2.0)
        self.assertAlmostEqual(selfs[2], 3.0 - 1.0)
        self.assertAlmostEqual(selfs[3], 1.0)
        self.assertAlmostEqual(selfs[4], 2.0)

    def test_overlapping_children_count_once(self):
        tree = [self.span(1, None, "submit", 0.0, 10.0),
                self.span(2, 1, "cell", 1.0, 5.0),
                self.span(3, 1, "cell", 3.0, 7.0),
                self.span(4, 1, "cell", 4.0, 6.0)]
        self.assertAlmostEqual(spans.self_times(tree)[1], 10.0 - 6.0)

    def test_children_clipped_to_parent(self):
        tree = [self.span(1, None, "flush", 2.0, 6.0),
                self.span(2, 1, "late", 5.0, 9.0)]
        self.assertAlmostEqual(spans.self_times(tree)[1], 3.0)

    def test_outermost_skips_delegation(self):
        tree = [self.span(1, None, "store.get", 0.0, 2.0, True),
                self.span(2, 1, "store.get", 0.5, 1.5, True),
                self.span(3, None, "store.get", 3.0, 4.0, False)]
        self.assertEqual([s[0] for s in spans.outermost(tree, "store.get")],
                         [1, 3])

    def test_layer_metrics_from_a_trace(self):
        trace = {"label": "cold", "import_s": 0.5,
                 "phases": {"assembly": [0.1, 3], "solve": [0.9, 3]},
                 "spans": [self.span(1, None, "store.get", 0.0, 0.002, True),
                           self.span(2, None, "store.get", 1.0, 1.004, None),
                           self.span(3, None, "api.assemble", 2.0, 2.001)]}
        metrics = layers.from_traces([trace], "cold", "analytic")
        self.assertEqual(set(metrics), {n for n, _ in layers.PER_LAYER})
        self.assertEqual(metrics["store.get_calls"], 2)
        self.assertAlmostEqual(metrics["store.hit_ratio"], 0.5)
        self.assertAlmostEqual(metrics["store.get_ms_mean"], 3.0)
        self.assertAlmostEqual(metrics["engine.analytic.solve_s"], 0.9)
        self.assertEqual(metrics["engine.strategy.sim_s"], 0.0)
        per_call = layers.from_traces([trace], "cold", "analytic",
                                      per_call=True)
        self.assertAlmostEqual(per_call["engine.analytic.solve_s"], 0.3)


class BitIdentityCheckTest(unittest.TestCase):
    def test_one_ulp_fails_the_hex_check(self):
        exact = {"mean": 0.1 + 0.2, "variance": 2.5}
        expected = [common.hex_metrics(exact)]
        self.assertEqual(common.count_mismatches(expected, [exact]), 0)
        nudged = dict(exact, mean=math.nextafter(exact["mean"], math.inf))
        self.assertEqual(common.count_mismatches(expected, [nudged]), 1)

    def test_one_ulp_fails_the_snapshot_sweep_check(self):
        for name in ("cli_analytic", "cli_strategy"):
            workload = cli_workloads.WORKLOADS[name]
            metrics = [{"x": 1.0} for _ in workload.cells]
            for index, hexes in workload.expected.items():
                metrics[index] = {k: float.fromhex(v)
                                  for k, v in hexes.items()}
            self.assertTrue(workload.check_sweep(metrics), name)
            index = min(workload.expected)
            key = sorted(metrics[index])[0]
            metrics[index] = dict(metrics[index], **{
                key: math.nextafter(metrics[index][key], -math.inf)})
            self.assertFalse(workload.check_sweep(metrics), name)

    def test_missing_output_fails(self):
        workload = cli_workloads.WORKLOADS["cli_analytic"]
        self.assertFalse(workload.check_sweep([]))
        self.assertFalse(common.all_finite([]))
        self.assertFalse(common.all_finite([{"mean": math.nan}]))

    def test_repeated_keys_must_agree(self):
        def outcome(key, value):
            request = service_workload.Request(0.0, "hot", {})
            return service_workload.Outcome(request, 200, cells=[
                {"key": key, "result": {"rows": [{"mean": value}]}}])
        same = [outcome("k", 0.3), outcome("k", 0.3)]
        self.assertTrue(service_workload._repeats_agree(same))
        nudged = [outcome("k", 0.3),
                  outcome("k", math.nextafter(0.3, 1.0))]
        self.assertFalse(service_workload._repeats_agree(nudged))


class ManifestTest(unittest.TestCase):
    def test_benchmark_json_names_what_run_reports(self):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with open(os.path.join(root, "BENCHMARK.json"), "r",
                  encoding="utf-8") as handle:
            bench = json.load(handle)
        self.assertEqual([(m["name"], m["unit"]) for m in bench["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in bench["per_layer"]],
                         list(layers.PER_LAYER))
        self.assertEqual([w["name"] for w in bench["workloads"]],
                         list(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
