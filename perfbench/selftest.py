"""Self-checks of the benchmark's own code.

Run from the repository root with ``python3 perfbench/selftest.py``.  They
need neither the package nor a CLI run: the span trees, outputs and op
records are synthetic.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


class SelfTimeTest(unittest.TestCase):
    # root a [0, 10] with children b [1, 4] and b [5, 6]; c [2, 3] under the
    # first b; a nested b [5.2, 5.8] under the second b.
    TREE = [
        [0, -1, "a", 0.0, 10.0, None],
        [1, 0, "b", 1.0, 4.0, 7],
        [2, 0, "b", 5.0, 6.0, None],
        [3, 1, "c", 2.0, 3.0, None],
        [4, 2, "b", 5.2, 5.8, 5],
    ]

    def test_self_time_subtracts_children(self):
        selfs = spans.self_times(self.TREE)
        expected = {0: 6.0, 1: 2.0, 2: 0.4, 3: 1.0, 4: 0.6}
        for sid, value in expected.items():
            self.assertAlmostEqual(selfs[sid], value, places=12)

    def test_overlapping_children_count_once(self):
        tree = [
            [0, -1, "a", 0.0, 10.0, None],
            [1, 0, "b", 1.0, 5.0, None],
            [2, 0, "b", 3.0, 7.0, None],
            [3, 0, "b", 9.0, 12.0, None],
        ]
        self.assertAlmostEqual(spans.self_times(tree)[0], 10.0 - 6.0 - 1.0, places=12)

    def test_function_stats(self):
        stats = spans.function_stats(self.TREE)
        self.assertEqual(stats["b"]["calls"], 3)
        # the nested b lies inside the second b and is not counted twice
        self.assertAlmostEqual(stats["b"]["s"], 3.0 + 1.0, places=12)
        self.assertAlmostEqual(stats["b"]["self_s"], 2.0 + 0.4 + 0.6, places=12)
        self.assertEqual(stats["b"]["cells"], 12)
        self.assertAlmostEqual(stats["a"]["s"], 10.0, places=12)

    def test_layer_metrics_sum_over_ops(self):
        name = spans.LAYER_METRICS[0][0]
        op = [[0, -1, name, 0.0, 2.0, None], [1, 0, name, 0.5, 1.0, None]]
        totals = spans.layer_metrics([op, op])
        self.assertEqual(totals[f"{name}.calls"], 4)
        self.assertAlmostEqual(totals[f"{name}.s"], 4.0, places=12)
        self.assertEqual(len(totals), len(spans.LAYER_METRICS))


class OutputCheckTest(unittest.TestCase):
    REFS = {
        "radial": {"2": {"perimeter": 62.0, "riesz": 8.0, "background": 6.0}},
        "ops": {"e": {"perimeter": 63.0, "riesz": 8.4, "background": 6.3, "total": 71.4}},
    }

    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.op = workloads.Op("e", "energy", {}, check="energy",
                               check_args={"dimension": 2})

    def tearDown(self):
        self.tmp.cleanup()

    def write_report(self, **changes):
        report = {
            "perimeter": 63.0, "perimeter_error": 0.5,
            "riesz": 8.4, "riesz_error": 0.1,
            "background": 6.3, "background_error": 0.05,
            "total": 71.4, "total_error": 0.6,
        }
        report.update(changes)
        with open(os.path.join(self.tmp.name, "energy.json"), "w") as fh:
            json.dump({"summary": {"report": report}}, fh)

    def test_reference_values_pass(self):
        self.write_report()
        problems, rel = checks.check_op(self.op, 0, "", self.tmp.name, self.REFS)
        self.assertEqual(problems, [])
        self.assertAlmostEqual(rel, 0.05, places=12)

    def test_perturbed_value_is_flagged(self):
        self.write_report(perimeter=63.0 + 0.51)
        problems, _ = checks.check_op(self.op, 0, "", self.tmp.name, self.REFS)
        self.assertEqual(len(problems), 1)
        self.assertIn("perimeter", problems[0])

    def test_nonzero_exit_is_flagged(self):
        self.write_report()
        problems, _ = checks.check_op(self.op, 2, '{"error": "x"}', self.tmp.name, self.REFS)
        self.assertEqual(len(problems), 1)
        self.assertIn("exit code 2", problems[0])

    def test_missing_output_is_flagged(self):
        problems, _ = checks.check_op(self.op, 0, "", self.tmp.name, self.REFS)
        self.assertIn("unreadable output", problems[0])

    def test_critical_mass_tolerance(self):
        truth = workloads.closed_form_critical_mass(3, 0.5, 0.5, 0.0)
        self.assertAlmostEqual(truth, 224.496, places=3)
        op = workloads.Op("cm", "critical-mass", {}, check="critical_mass",
                          check_args={"truth": truth, "keys": ["general"]})
        for mass, ok in ((truth * (1 + 1e-10), True), (truth * (1 + 1e-8), False)):
            with open(os.path.join(self.tmp.name, "critical-mass.json"), "w") as fh:
                json.dump({"summary": {"general": {"mass": mass}}}, fh)
            problems, _ = checks.check_op(op, 0, "", self.tmp.name, {})
            self.assertEqual(problems == [], ok)

    def test_byte_identity(self):
        a = os.path.join(self.tmp.name, "a")
        b = os.path.join(self.tmp.name, "b")
        for d, text in ((a, "1\n"), (b, "2\n")):
            os.makedirs(d)
            for ext in (".csv", ".json"):
                with open(os.path.join(d, "energy" + ext), "w") as fh:
                    fh.write("1\n" if ext == ".csv" else text)
        problems = checks.outputs_identical(a, b, "energy")
        self.assertEqual(problems, ["energy.json differs between two runs of the op"])


class MetricReportTest(unittest.TestCase):
    @staticmethod
    def record(ok, seconds=1.0, rss=100.0, traced=False):
        return {"op": "x", "pass": 0, "traced": traced, "ok": ok,
                "seconds": seconds if ok else None, "rss_mb": rss if ok else None,
                "rel_err": None, "problems": [] if ok else ["bad"]}

    def test_all_failed_reports_only_fail_frac_and_setup(self):
        summary, _, attempted, failed = run.end_to_end_metrics(
            [self.record(False), self.record(False)], [1.2, 1.3, 1.4]
        )
        self.assertEqual((attempted, failed), (2, 2))
        metrics = run.reported_metrics(summary)
        self.assertEqual(sorted(metrics), ["fail_frac", "setup_s"])
        self.assertEqual(metrics["fail_frac"]["value"], 1.0)
        self.assertAlmostEqual(metrics["setup_s"]["value"], 1.3)

    def test_successful_run_reports_end_to_end_metrics(self):
        records = [self.record(True, 2.0, 120.0), self.record(True, 4.0, 90.0),
                   self.record(True, 9.0, 500.0, traced=True)]
        summary, _, _, failed = run.end_to_end_metrics(records, [1.0])
        self.assertEqual(failed, 0)
        metrics = run.reported_metrics(summary)
        self.assertEqual(sorted(metrics), ["peak_rss_mb", "setup_s", "wall_s"])
        self.assertEqual(metrics["wall_s"]["value"], 3.0)
        self.assertEqual(metrics["peak_rss_mb"]["value"], 120.0)


if __name__ == "__main__":
    unittest.main()
