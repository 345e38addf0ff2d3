"""Self-tests of the benchmark: span arithmetic, output checks, tracing neutrality.

Run from the root of a checkout: ``python3 bench/selftest.py`` (about a
minute). The file name keeps it out of the repository's pytest collection.
"""
from __future__ import annotations

import contextlib
import functools
import io
import json
import shutil
import sys
import unittest
from dataclasses import replace
from pathlib import Path
from unittest import mock

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

WORKLOADS = run.load_workloads()

from harness import END_TO_END, ROOT, Ledger, digest_dir, scratch_dir, sha256_hex  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402
import checks  # noqa: E402
import cli_study  # noqa: E402
import pilot_analysis  # noqa: E402
import power_study  # noqa: E402
import replica_sync  # noqa: E402
from replicasim import cli, replica, report, scenario, stats  # noqa: E402
from replicasim.scene import Role, SetHighlight, SetValveState, ValveState, apply_edit  # noqa: E402


class SelfTimeTest(unittest.TestCase):
    def test_nested_tree(self):
        spans = [
            ("root", 0.0, 10.0, None, "op"),
            ("left", 1.0, 4.0, 0, "op"),
            ("right", 5.0, 9.0, 0, "op"),
            ("leaf", 2.0, 3.0, 1, "op"),
        ]
        self.assertEqual(self_times(spans), {0: 3.0, 1: 2.0, 2: 4.0, 3: 1.0})

    def test_overlapping_and_overhanging_children_count_once(self):
        spans = [
            ("parent", 0.0, 10.0, None, "op"),
            ("a", 1.0, 5.0, 0, "op"),
            ("b", 3.0, 7.0, 0, "op"),  # overlaps a: 1..7 covered once
            ("c", 8.0, 12.0, 0, "op"),  # clipped to the parent's end
        ]
        self.assertEqual(self_times(spans)[0], 10.0 - 6.0 - 2.0)

    def test_tracer_layer_metrics_sum_self_time(self):
        tracer = Tracer()
        tracer.spans = [
            ("replica.synchronize", 0.0, 0.004, None, "w/0"),
            ("replica.apply_commit", 0.001, 0.003, 0, "w/0"),
            ("scene.apply_edit", 0.0015, 0.0025, 1, "w/0"),
        ]
        metrics = tracer.layer_metrics()
        self.assertAlmostEqual(metrics["replica.synchronize.self_ms"][0], 2.0)
        self.assertAlmostEqual(metrics["replica.apply_commit.self_ms"][0], 1.0)
        self.assertAlmostEqual(metrics["scene.apply_edit.self_ms"][0], 1.0)
        self.assertEqual(metrics["scene.apply_edit.calls"][0], 1)


class OutputCheckTest(unittest.TestCase):
    def test_pinned_simulate_digest_rejects_one_flipped_byte(self):
        out = scratch_dir() / "selftest-sim"
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main(["simulate", "--out", str(out)])
            self.assertEqual(digest_dir(out), cli_study.PINNED_SIMULATE_SHA256)
            csv = out / "metrics.csv"
            data = bytearray(csv.read_bytes())
            data[len(data) // 2] ^= 1
            csv.write_bytes(bytes(data))
            self.assertNotEqual(digest_dir(out), cli_study.PINNED_SIMULATE_SHA256)
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def test_pinned_power_corpus_rejects_a_changed_total(self):
        inputs = WORKLOADS["power-study"].setup(1)
        self.assertEqual(inputs.reference_totals_sha256, power_study.REFERENCE_TOTALS_SHA256)
        totals = power_study.run_corpus(inputs, power_study.REFERENCE_CORPUS_SEED)
        totals["hmd"][3] += 0.001
        self.assertNotEqual(sha256_hex(totals["tablet"], totals["hmd"]), power_study.REFERENCE_TOTALS_SHA256)

    def _rows(self, n_tablet, n_hmd):
        model = scenario.default_model()
        return pilot_analysis.build_rows(5, n_tablet, n_hmd, model, scenario.default_routing_table(),
                                         scenario.build_default_plan(scenario.valve_registry(model)),
                                         scenario.default_profiles())

    @staticmethod
    def _groups(rows, measure):
        return ([float(r[measure]) for r in rows if r["condition"] == "tablet"],
                [float(r[measure]) for r in rows if r["condition"] == "hmd"])

    def _errors(self, rows) -> list[str]:
        errors = []
        for comparison in report.analyze_rows(rows).comparisons:
            a, b = self._groups(rows, comparison.measure)
            errors += checks.comparison_errors(comparison, a, b, stats.NORMALITY_ALPHA)
        return errors

    def test_p_value_checks_reject_a_perturbed_p_value(self):
        seen = set()
        for n_tablet, n_hmd in ((6, 6), (19, 20)):
            rows = self._rows(n_tablet, n_hmd)
            for comparison in report.analyze_rows(rows).comparisons:
                a, b = self._groups(rows, comparison.measure)
                self.assertEqual(checks.comparison_errors(comparison, a, b, stats.NORMALITY_ALPHA), [])
                p = comparison.result.p_value
                bad = replace(comparison, result=replace(comparison.result, p_value=p - 1e-6 if p > 0.5 else p + 1e-6))
                self.assertTrue(checks.comparison_errors(bad, a, b, stats.NORMALITY_ALPHA), comparison.measure)
                flipped = replace(comparison, chosen="mww" if comparison.chosen == "anova" else "anova")
                self.assertTrue(checks.comparison_errors(flipped, a, b, stats.NORMALITY_ALPHA))
                seen.add((comparison.chosen, comparison.result.exact))
        self.assertEqual(seen, {("anova", False), ("mww", True), ("mww", False)})

    def test_choice_checks_reject_an_approximate_test_on_a_small_sample(self):
        rows = self._rows(6, 6)
        self.assertEqual(self._errors(rows), [])
        with mock.patch.object(stats, "mann_whitney", functools.partial(stats.mann_whitney, exact_threshold=0)):
            errors = self._errors(rows)
        self.assertTrue(errors)
        self.assertTrue(all("was not exact" in e for e in errors), errors)

    def test_choice_checks_reject_a_refused_shapiro_wilk_in_range(self):
        def refuse(sample):
            raise stats.StatsError("refused")

        rows = self._rows(19, 20)
        self.assertEqual(self._errors(rows), [])
        with mock.patch.object(stats, "shapiro_wilk", refuse):
            errors = self._errors(rows)
        self.assertTrue(errors)
        self.assertTrue(all("refused n=" in e for e in errors), errors)
        self.assertTrue(checks.shapiro_may_refuse([1.0] * 60))
        self.assertTrue(checks.shapiro_may_refuse([2.0, 2.0, 2.0, 2.0]))
        self.assertFalse(checks.shapiro_may_refuse([1.0, 2.0, 4.0]))

    def test_replica_oracle_rejects_a_changed_field(self):
        inputs = WORKLOADS["replica-sync"].setup(1)
        base = inputs.model
        valve = inputs.valves[0]
        state = ValveState.CLOSED if base.nodes[valve].valve_state is ValveState.OPEN else ValveState.OPEN
        request = replica.SyncRequest("expert", Role.EXPERT, 0, (SetValveState(valve, state, Role.EXPERT, 1),))
        merged = replica.synchronize(request, base).merged
        self.assertEqual(replica_sync.oracle_errors(base, [request], merged), [])
        corrupted = apply_edit(merged, SetHighlight(inputs.node_ids[7], (1.0, 0.0, 0.0), Role.EXPERT, 2))
        self.assertEqual(replica_sync.oracle_errors(base, [request], corrupted), [f"highlight of {inputs.node_ids[7]}"])

    def test_replica_episode_passes_its_checks(self):
        workload = WORKLOADS["replica-sync"]
        inputs, ledger = workload.setup(2), Ledger()
        for i in (0, 1, replica_sync.EPISODES):  # the third run repeats episode 0
            self.assertIsNotNone(run.guarded_op(workload, inputs, i, ledger, run.Samples()))
        self.assertEqual((ledger.attempted, ledger.failed), (3, 0))


class TracedSweepTest(unittest.TestCase):
    def test_tracing_keeps_outputs_and_reports_every_per_layer_metric(self):
        with contextlib.redirect_stdout(io.StringIO()):
            ledger, metrics = run.run_traced(WORKLOADS, seed=3, seconds=1)
        self.assertEqual(ledger.failed, 0, dict(ledger.reasons))
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        self.assertEqual([m["name"] for m in spec["per_layer"]], list(metrics))
        uncalled = [name for name, (value, _) in metrics.items() if name.endswith(".calls") and not value]
        self.assertEqual(uncalled, [])

    def test_benchmark_json_lists_the_end_to_end_metrics(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]], list(END_TO_END))
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOAD_NAMES))


if __name__ == "__main__":
    try:
        unittest.main()
    finally:
        shutil.rmtree(scratch_dir(), ignore_errors=True)
