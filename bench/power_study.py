"""power-study: the criterion-7 loop, repeated in process.

One op is one corpus: 19 tablet and 20 hmd sessions over a zero-latency link,
then ``compare_groups`` on ``total_s``. Scenario, netsim, replica and plant do
almost all the work; the statistics take under 1% of a corpus. Tablet sessions
skip the replica path entirely, so a replica change must move the hmd session
time (target) and leave the tablet session time (control) where it was.
"""
from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field

from harness import CheckFailed, Ledger, Samples, Workload, quantile_entries, sha256_hex
from replicasim import scenario, stats
from replicasim.netsim import LinkConfig, derive_seed

COUNTS = (("tablet", 19), ("hmd", 20))
# Criterion 7's first calibrated corpus; set-up runs it as warm-up and its
# session totals must keep this digest (the simulator's output is pinned).
REFERENCE_CORPUS_SEED = derive_seed(811, "power:0")
REFERENCE_TOTALS_SHA256 = "3c4e1845b8c3422b10c153b9143572ea38d27513330abdca9b74e2e7b27b1913"


@dataclass
class Inputs:
    seed: int
    model: object
    routing: object
    plan: object
    profiles: dict
    link: LinkConfig
    reference_totals_sha256: str = ""
    corpora: list = field(default_factory=list)  # (op id, tablet totals, hmd totals, comparison)


def run_corpus(inputs: Inputs, corpus_seed: int, samples: Samples | None = None):
    totals = {}
    for name, count in COUNTS:
        condition = scenario.Condition(name)
        profile = inputs.profiles[condition]
        values = []
        for i in range(count):
            start = time.perf_counter()
            log = scenario.run_session(inputs.plan, condition, profile, seed=derive_seed(corpus_seed, f"{name}:{i}"),
                                       model=inputs.model, routing=inputs.routing, link_config=inputs.link)
            if samples is not None:
                samples.add(f"{name}_session_ms", (time.perf_counter() - start) * 1e3)
            if log.final_valve_states != log.initial_valve_states:
                raise CheckFailed(f"{name} session {i}: plan did not restore the plant")
            values.append((log.events[-1].t_ms - log.events[0].t_ms) / 1000.0)
        totals[name] = values
    return totals


class PowerStudy(Workload):
    name = "power-study"
    trace_ops_per_s = 0.5

    def setup(self, seed: int) -> Inputs:
        model = scenario.default_model()
        inputs = Inputs(
            seed=seed,
            model=model,
            routing=scenario.default_routing_table(),
            plan=scenario.build_default_plan(scenario.valve_registry(model)),
            profiles=scenario.default_profiles(),
            link=LinkConfig(0, 0),
        )
        totals = run_corpus(inputs, REFERENCE_CORPUS_SEED)
        inputs.reference_totals_sha256 = sha256_hex(totals["tablet"], totals["hmd"])
        return inputs

    def run_op(self, inputs: Inputs, i: int, ledger: Ledger, samples: Samples, tracer=None) -> str:
        start = time.perf_counter()
        totals = run_corpus(inputs, derive_seed(inputs.seed, f"power:{i}"), samples)
        comparison = stats.compare_groups(stats.Sample(tuple(totals["tablet"])), stats.Sample(tuple(totals["hmd"])),
                                          measure="total_s")
        elapsed = time.perf_counter() - start
        samples.add("corpus_ms", elapsed * 1e3)
        samples.add_units(1, elapsed)
        inputs.corpora.append(((self.name, i), totals["tablet"], totals["hmd"], comparison))
        return sha256_hex(totals["tablet"], totals["hmd"], comparison.chosen, comparison.result.p_value)

    def finish(self, inputs: Inputs, ledger: Ledger) -> None:
        from checks import comparison_errors

        ledger.attempt()
        ledger.check(inputs.reference_totals_sha256 == REFERENCE_TOTALS_SHA256, (self.name, "reference"),
                     "reference-corpus-digest", inputs.reference_totals_sha256)
        for op_id, tablet, hmd, comparison in inputs.corpora:
            for error in comparison_errors(comparison, tablet, hmd, stats.NORMALITY_ALPHA):
                ledger.fail(op_id, "p-value-check", error)
        inputs.corpora.clear()

    def metrics(self, series: dict) -> tuple[float, float]:
        return (statistics.median(series["hmd_session_ms"]),
                statistics.median(series["tablet_session_ms"]))

    def named(self, samples: Samples):
        s = samples.series
        out = [("corpora_per_s", "1/s", f"{samples.units / samples.unit_s:.4f} (n={samples.units})")]
        for kind in ("tablet", "hmd"):
            out += quantile_entries(f"{kind}_session_ms", "ms", s[f"{kind}_session_ms"])
        out += quantile_entries("corpus_ms", "ms", s["corpus_ms"])
        return out
