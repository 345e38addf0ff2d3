"""cli-study: the paper's user-facing pipeline, one fresh process per command.

One op runs ``python -m replicasim.cli simulate`` on the default 19:20 corpus,
then ``analyze`` on the ``metrics.csv`` it wrote, each as a child process, one
at a time. This is the only workload that pays for interpreter start and
imports, so a lazy import of the statistics stack shows here: ``simulate``
(target) should get faster and ``analyze`` (control), which needs the stack,
should not. Single runs vary by about 15%, so the metrics are medians over
every pipeline in the run. Peak memory is the largest peak of the ``simulate``
children alone (see ``spawn.py``), so it shows what ``simulate`` itself loads;
``analyze``'s peak is printed beside it.

Output checks: each ``simulate`` writes the same bytes as the same command run
in process during set-up, and the default-seed run also matches the digest
pinned below (the simulator's byte-identical-output invariant); each
``analyze`` writes the same report as in process.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

from harness import ROOT, SRC, CheckFailed, Ledger, Samples, Workload, digest_dir, scratch_dir
from replicasim import cli
from replicasim.netsim import derive_seed

# digest_dir() of `replicasim simulate --out DIR` with the default seed and corpus.
PINNED_SIMULATE_SHA256 = "2e955d5a481ce995896f27d9c3b81cca83bacd8d2bb32c0920185f288bb11d9d"
POOL = 3  # seeds cycled through: the CLI default, then two derived from --seed
# A fresh interpreter importing the same third-party stack the CLI loads; its
# wall time tracks the speed of process start and imports, which the
# in-process speed kernel does not. Median on the reference box:
REFERENCE_CHILD = "import numpy, scipy.special"
REFERENCE_CHILD_MS = 550.0
CHILD_TIMEOUT_S = 120
PROBE_REPEATS = 3


@dataclass
class Inputs:
    seed_args: list  # per pool entry: the CLI arguments that select the seed
    simulate_sha256: list
    report_sha256: list


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def paths(tag: str):
    base = scratch_dir() / tag
    return base / "sim", base / "report"


class CliStudy(Workload):
    name = "cli-study"
    trace_ops_per_s = 0.05

    def __init__(self) -> None:
        self.peak_mb = {"simulate": 0.0, "analyze": 0.0}  # largest child peak per command

    def setup(self, seed: int) -> Inputs:
        seed_args = [[]] + [["--seed", str(derive_seed(seed, f"cli:{k}") % 2**31)] for k in range(1, POOL)]
        inputs = Inputs(seed_args, [], [])
        sim, rep = paths("reference")
        for args in seed_args:
            shutil.rmtree(sim.parent, ignore_errors=True)
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main(["simulate", "--out", str(sim)] + args)
                cli.main(["analyze", str(sim / "metrics.csv"), "--out", str(rep)])
            inputs.simulate_sha256.append(digest_dir(sim))
            inputs.report_sha256.append(digest_dir(rep))
        shutil.rmtree(sim.parent, ignore_errors=True)
        return inputs

    def speed_factor(self) -> float:
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", REFERENCE_CHILD], cwd=ROOT, env=child_env(), check=True,
                       timeout=CHILD_TIMEOUT_S)
        return REFERENCE_CHILD_MS / ((time.perf_counter() - start) * 1e3)

    def _child(self, argv: list, tracer, op_id: str) -> float:
        """Run one CLI command as a child process; its wall time in seconds.

        The command starts from ``spawn.py``, which times it and reads its own
        peak memory when it is reaped.
        """
        if tracer is None:
            cmd = [sys.executable, "-m", "replicasim.cli"] + argv
        else:
            spans = scratch_dir() / "child-spans.json"
            cmd = [sys.executable, str(ROOT / "bench" / "cli_child.py"), str(spans), op_id] + argv
        proc = subprocess.run([sys.executable, str(ROOT / "bench" / "spawn.py"), str(CHILD_TIMEOUT_S)] + cmd,
                              cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              timeout=2 * CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise CheckFailed(f"{argv[0]} exited {proc.returncode}: {proc.stderr.decode(errors='replace')[-500:]}")
        child = json.loads(proc.stdout)
        self.peak_mb[argv[0]] = max(self.peak_mb[argv[0]], child["maxrss_kib"] / 1024.0)
        if tracer is not None:
            tracer.merge(json.loads(spans.read_text(encoding="utf-8")))
        return child["wall_s"]

    def peak_rss_mb(self) -> float:
        return self.peak_mb["simulate"]

    def run_op(self, inputs: Inputs, i: int, ledger: Ledger, samples: Samples, tracer=None) -> str:
        k = i % POOL
        sim, rep = paths(f"op-{i}")
        try:
            op = f"{self.name}/{i}"
            sim_s = self._child(["simulate", "--out", str(sim)] + inputs.seed_args[k], tracer, op)
            samples.add("simulate_ms", sim_s * 1e3)
            samples.add_units(0, sim_s)
            sim_sha = digest_dir(sim)
            ana_s = self._child(["analyze", str(sim / "metrics.csv"), "--out", str(rep)], tracer, op)
            samples.add("analyze_ms", ana_s * 1e3)
            samples.add_units(1, ana_s)
            rep_sha = digest_dir(rep)
        finally:
            shutil.rmtree(sim.parent, ignore_errors=True)
        op_id = (self.name, i)
        ledger.check(sim_sha == inputs.simulate_sha256[k], op_id, "simulate-output-differs-from-in-process")
        if k == 0:
            ledger.check(sim_sha == PINNED_SIMULATE_SHA256, op_id, "simulate-output-differs-from-pinned", sim_sha)
        ledger.check(rep_sha == inputs.report_sha256[k], op_id, "analyze-output-differs-from-in-process")
        return sim_sha + rep_sha

    def layer_extras(self) -> dict:
        """Fresh-interpreter start-up, and what importing replicasim.cli adds to it."""
        def wall(code: str) -> float:
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(), check=True,
                           timeout=CHILD_TIMEOUT_S)
            return (time.perf_counter() - start) * 1e3

        bare = statistics.median(wall("pass") for _ in range(PROBE_REPEATS))
        with_cli = statistics.median(wall("import replicasim.cli") for _ in range(PROBE_REPEATS))
        return {"cli.interp_ms": (bare, "ms"), "cli.import_ms": (with_cli - bare, "ms")}

    def metrics(self, series: dict) -> tuple[float, float]:
        return statistics.median(series["simulate_ms"]), statistics.median(series["analyze_ms"])

    def named(self, samples: Samples):
        s = samples.series
        n = len(s["simulate_ms"])
        return [
            ("cli_simulate_s", "s", f"{statistics.median(s['simulate_ms']) / 1e3:.4f} (median, n={n})"),
            ("cli_analyze_s", "s", f"{statistics.median(s['analyze_ms']) / 1e3:.4f} (median, n={n})"),
            ("cli_analyze_peak_rss_mb", "MB", f"{self.peak_mb['analyze']:.1f}"),
            ("pipelines_per_s", "1/s", f"{samples.units / samples.unit_s:.4f}"),
        ]

