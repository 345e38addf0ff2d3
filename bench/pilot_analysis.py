"""pilot-analysis: ``analyze_rows`` and ``render_markdown`` on metrics tables.

Set-up builds one metrics table per corpus size from real seeded sessions. The
sizes cover what the CLI can produce: with pooled n <= 16 (4:4, 6:6, 8:8, 5:11)
Mann-Whitney enumerates every labeling, which makes those corpora cost tens to
hundreds of milliseconds; 19:20 and 60:60 take the normal approximation, and
60:60 also meets Shapiro-Wilk's n > 50 refusal. Both behaviours are kept on
purpose. One op is one round that analyses every corpus once; the small
corpora are the target, the large ones the control.
"""
from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field

from harness import Ledger, Samples, Workload, quantile_entries, sha256_hex
from replicasim import metrics, report, scenario, stats
from replicasim.netsim import derive_seed

SIZES = ((4, 4), (6, 6), (8, 8), (5, 11), (19, 20), (60, 60))
SMALL_POOLED_N = 16


@dataclass
class Inputs:
    corpora: list  # (label, rows)
    first: dict = field(default_factory=dict)  # label -> (digest, op id, report)


def build_rows(seed: int, n_tablet: int, n_hmd: int, model, routing, plan, profiles) -> list[dict]:
    rows = []
    for name, count in (("tablet", n_tablet), ("hmd", n_hmd)):
        condition = scenario.Condition(name)
        for i in range(count):
            log = scenario.run_session(plan, condition, profiles[condition], model=model, routing=routing,
                                       seed=derive_seed(seed, f"pilot:{n_tablet}:{n_hmd}:{name}:{i}"))
            rows.append(metrics.session_row(f"{name}-{i:03d}", log))
    return rows


class PilotAnalysis(Workload):
    name = "pilot-analysis"
    trace_ops_per_s = 0.15

    def setup(self, seed: int) -> Inputs:
        model = scenario.default_model()
        routing = scenario.default_routing_table()
        plan = scenario.build_default_plan(scenario.valve_registry(model))
        profiles = scenario.default_profiles()
        return Inputs([(f"{t}:{h}", build_rows(seed, t, h, model, routing, plan, profiles)) for t, h in SIZES])

    def run_op(self, inputs: Inputs, i: int, ledger: Ledger, samples: Samples, tracer=None) -> str:
        small = large = 0.0
        digests = []
        for label, rows in inputs.corpora:
            samples.calibrate(self.speed_factor())
            start = time.perf_counter()
            analysis = report.analyze_rows(rows)
            markdown = report.render_markdown(analysis)
            elapsed = time.perf_counter() - start
            samples.add("analysis_ms", elapsed * 1e3)
            samples.add_units(1, elapsed)
            if len(rows) <= SMALL_POOLED_N:
                small += elapsed
            else:
                large += elapsed
            digest = sha256_hex(markdown, [(c.measure, c.chosen, c.result.p_value) for c in analysis.comparisons])
            digests.append(digest)
            first = inputs.first.setdefault(label, (digest, (self.name, i), analysis))
            ledger.check(digest == first[0], (self.name, i), "analysis-not-repeatable", label)
        samples.add("small_round_ms", small * 1e3)
        samples.add("large_round_ms", large * 1e3)
        return sha256_hex(*digests)

    def finish(self, inputs: Inputs, ledger: Ledger) -> None:
        """Check the first analysis of each corpus against the SciPy references."""
        from checks import comparison_errors

        rows_by_label = dict(inputs.corpora)
        for label, (_, op_id, analysis) in inputs.first.items():
            rows = rows_by_label[label]
            for comparison in analysis.comparisons:
                a = [float(r[comparison.measure]) for r in rows if r["condition"] == report.BASELINE_CONDITION]
                b = [float(r[comparison.measure]) for r in rows if r["condition"] == report.TREATMENT_CONDITION]
                for error in comparison_errors(comparison, a, b, stats.NORMALITY_ALPHA):
                    ledger.fail(op_id, "p-value-check", f"{label} {error}")
        inputs.first.clear()

    def metrics(self, series: dict) -> tuple[float, float]:
        return statistics.median(series["small_round_ms"]), statistics.median(series["large_round_ms"])

    def named(self, samples: Samples):
        s = samples.series
        return (quantile_entries("analysis_ms", "ms", s["analysis_ms"])
                + quantile_entries("small_round_ms", "ms", s["small_round_ms"], qs=(50,))
                + quantile_entries("large_round_ms", "ms", s["large_round_ms"], qs=(50,)))
