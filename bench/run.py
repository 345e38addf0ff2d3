"""replicasim benchmark: four workloads, end-to-end metrics, a traced per-layer breakdown.

Usage (from the root of a checkout):

    python3 bench/run.py --workload power-study --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25

``--trace 0`` measures one workload untraced and reports the end-to-end
metrics. ``--trace 1`` runs the traced sweep: every workload, whatever
``--workload`` names, runs a fixed number of ops untraced and then traced, so
every per-layer metric is measured in every traced run; the two passes must
produce identical output digests, and their time difference is the tracing
overhead; so ``--workload all --trace 1`` is the same single sweep.
``--workload all --trace 0`` runs the four workloads one after another, each in
its own process. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 0 only
when every output check passed.
"""
from __future__ import annotations

import argparse
import json
import math
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from harness import END_TO_END, ROOT, SRC, TRACE_OUT, Ledger, Samples, guarded_op, measure, scratch_dir  # noqa: E402

WORKLOAD_NAMES = ("cli-study", "power-study", "pilot-analysis", "replica-sync")


def load_workloads() -> dict:
    """Import replicasim from this checkout's ``src`` and the four workloads."""
    if not (SRC / "replicasim" / "__init__.py").is_file():
        raise SystemExit(f"error: no replicasim sources under {SRC}; run from the root of a replicasim checkout")
    sys.path.insert(0, str(SRC))
    import replicasim

    if Path(replicasim.__file__).resolve().parent != (SRC / "replicasim").resolve():
        raise SystemExit(f"error: imported replicasim from {replicasim.__file__}, not from {SRC}")
    from cli_study import CliStudy
    from pilot_analysis import PilotAnalysis
    from power_study import PowerStudy
    from replica_sync import ReplicaSync

    return {w.name: w for w in (CliStudy(), PowerStudy(), PilotAnalysis(), ReplicaSync())}


def result_line(ledger: Ledger, metrics: dict) -> str:
    def number(value):
        return value if isinstance(value, int) or math.isfinite(value) else None

    return json.dumps({
        "correct": ledger.failed == 0 and ledger.attempted > 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": number(value), "unit": unit} for name, (value, unit) in metrics.items()},
    })


def print_ledger(ledger: Ledger) -> None:
    share = ledger.failed / ledger.attempted if ledger.attempted else 0.0
    print(f"  ops attempted {ledger.attempted}, failed {ledger.failed} (failed share {share:.4f})")
    for reason, count in sorted(ledger.reasons.items()):
        print(f"    failure {reason}: {count}")


def run_untraced(workload, seed: int, seconds: float) -> tuple[Ledger, dict]:
    ledger, metrics, samples = measure(workload, seed, seconds)
    units = dict(END_TO_END)
    print(f"{workload.name} (seed {seed}, {seconds:g} s, untraced)")
    for name, value in metrics.items():
        print(f"  {name:<24} {value:.6g} {units[name]}")
    if samples.units:
        for name, unit, text in workload.named(samples):
            print(f"  {name:<24} {text} {unit}")
        target, control = workload.metrics(samples.raw)
        print(f"  unscaled: ops_per_s {samples.units / samples.raw_unit_s:.6g}, target_ms.p50 {target:.6g},"
              f" control_ms.p50 {control:.6g}; speed factor median {statistics.median(samples.factors):.4f}"
              f" (min {min(samples.factors):.4f}, max {max(samples.factors):.4f})")
    print_ledger(ledger)
    return ledger, {name: (metrics[name], unit) for name, unit in END_TO_END}


def run_traced(workloads: dict, seed: int, seconds: float) -> tuple[Ledger, dict]:
    from tracer import Tracer, timed_span_names

    timed = set(timed_span_names())
    tracer, ledger, extras, overheads = Tracer(), Ledger(), {}, {}
    for name in WORKLOAD_NAMES:
        workload = workloads[name]
        inputs = workload.setup(seed)
        n = max(1, round(seconds * workload.trace_ops_per_s))
        plain, traced = Samples(), Samples()
        plain_digests = [guarded_op(workload, inputs, i, ledger, plain) for i in range(n)]
        traced_digests = []
        with tracer.installed():
            for i in range(n):
                tracer.op_id = f"{name}/{i}"
                traced_digests.append(guarded_op(workload, inputs, i, ledger, traced, tracer))
        for i, (a, b) in enumerate(zip(plain_digests, traced_digests)):
            ledger.check(a is None or a == b, (name, i), "tracing-changed-output")
        workload.finish(inputs, ledger)
        extras.update(workload.layer_extras())
        overhead = (traced.unit_s - plain.unit_s) / plain.unit_s * 100.0 if plain.unit_s else float("nan")
        overheads[f"trace.{name}.overhead_pct"] = (overhead, "%")
        print(f"{name}: {n} ops untraced {plain.unit_s:.3f} s, traced {traced.unit_s:.3f} s"
              f" (overhead {overhead:.1f}%)")
    print("self time by workload (calls, self ms):")
    for name, (calls, self_s) in sorted(tracer.calls_and_self_s().items()):
        top = sorted(self_s.items(), key=lambda item: -item[1])
        print(f"  {name}: " + ", ".join(f"{span} {calls[span]} {own_s * 1e3:.1f}" for span, own_s in top
                                       if span in timed))
    metrics = {**tracer.layer_metrics(), **extras, **overheads}
    TRACE_OUT.mkdir(exist_ok=True)
    spans_path = TRACE_OUT / "spans.jsonl"
    tracer.write_spans(spans_path)
    print(f"traced sweep (seed {seed}, {seconds:g} s): {len(tracer.spans)} spans written to {spans_path}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<48} {value:.6g} {unit}")
    print_ledger(ledger)
    return ledger, metrics


def run_all(seed: int, seconds: float) -> int:
    """Each workload in its own process, so peak RSS is per workload."""
    ledger, metrics = Ledger(), {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
                               "--seconds", str(seconds), "--trace", "0"],
                              cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        doc = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
        if doc is None:
            ledger.attempt()
            ledger.fail((name, "run"), "workload-crashed", f"exit code {proc.returncode}")
            continue
        ledger.attempted += doc["attempted"]
        for k in range(doc["failed"]):
            ledger.fail((name, k), f"{name}-failed")
        metrics.update({f"{name}.{m}": (v["value"], v["unit"]) for m, v in doc["metrics"].items()})
    print(result_line(ledger, metrics))
    return 0 if ledger.failed == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workloads = load_workloads()
    if args.workload == "all" and not args.trace:
        return run_all(args.seed, args.seconds)
    start = time.perf_counter()
    try:
        if args.trace:
            ledger, metrics = run_traced(workloads, args.seed, args.seconds)
        else:
            ledger, metrics = run_untraced(workloads[args.workload], args.seed, args.seconds)
    finally:
        shutil.rmtree(scratch_dir(), ignore_errors=True)
    print(f"  wall {time.perf_counter() - start:.1f} s")
    print(result_line(ledger, metrics))
    return 0 if ledger.failed == 0 and ledger.attempted > 0 else 1


if __name__ == "__main__":
    sys.exit(main())
