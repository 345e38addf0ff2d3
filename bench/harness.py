"""Shared pieces of the benchmark: the workload interface, failure ledger, timing loop.

A workload is a deterministic sequence of operations built from a seed: op
``i`` always does the same work on the same inputs. The untraced run executes
ops until ``--seconds`` have passed and reports the end-to-end metrics; the
traced sweep executes a fixed number of ops per workload twice, untraced then
traced, so the two passes do identical work and their output digests must
agree.

On a shared 2-CPU box the speed of the whole machine drifts by 30% and more
within a minute, which no amount of repetition inside one run averages out. So
every workload times a fixed task right before each op
(``Workload.speed_factor``) and scales the op's times by reference time / task
time, so they are reported at a reference machine speed; paired raw and scaled
spreads are in README.md. The task is benchmark code that no change to
replicasim can move, so comparisons between commits stay valid; the raw times
are printed beside the scaled ones. The default task is a pure-Python kernel;
cli-study times a fresh interpreter importing the CLI's third-party stack
instead.
"""
from __future__ import annotations

import hashlib
import os
import resource
import statistics
import sys
import time
import traceback
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_tmp"
TRACE_OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5
# Median time of speed_kernel() on the reference box (2 CPUs, Python 3.11.7).
REFERENCE_KERNEL_MS = 0.60
KERNEL_REPEATS = 5
SPEED_WINDOW = 5  # calibrations a scale factor is the median of

# End-to-end metrics every workload reports, in BENCHMARK.json order.
END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_per_s", "1/s"),
    ("target_ms.p50", "ms"),
    ("control_ms.p50", "ms"),
)


class CheckFailed(Exception):
    """An output check that failed inside an op."""


class Ledger:
    """Operations attempted and failed; an op fails once, whatever the number of reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed_ops: set = set()
        self.reasons: Counter = Counter()

    def attempt(self) -> None:
        self.attempted += 1

    def fail(self, op_id, reason: str, detail: str = "") -> None:
        if not self.reasons[reason]:
            print(f"FAILED {op_id}: {reason} {detail}".rstrip(), file=sys.stderr)
        self.reasons[reason] += 1
        self.failed_ops.add(op_id)

    def fail_exception(self, op_id, exc: BaseException) -> None:
        if not self.reasons[type(exc).__name__]:
            traceback.print_exception(exc, file=sys.stderr)
        self.fail(op_id, type(exc).__name__)

    def check(self, ok: bool, op_id, reason: str, detail: str = "") -> bool:
        if not ok:
            self.fail(op_id, reason, detail)
        return ok

    @property
    def failed(self) -> int:
        return len(self.failed_ops)


def speed_kernel() -> int:
    """Fixed interpreter work: small-int arithmetic, dict updates and one sort."""
    table: dict = {}
    for i in range(3000):
        table[i % 97] = table.get(i % 97, 0) + i * 3 // 7
    return len(sorted(table.items()))


def median_ms(task, repeats: int = KERNEL_REPEATS) -> float:
    """Median wall time of ``task()`` over a few back-to-back runs, in ms."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        task()
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


def kernel_speed_factor() -> float:
    """REFERENCE_KERNEL_MS over the kernel's median time now: < 1 on a slow moment."""
    return REFERENCE_KERNEL_MS / median_ms(speed_kernel)


@dataclass
class Samples:
    """Per-op timing samples (ms) by series name, plus counted units of work.

    ``add`` and ``add_units`` scale by the median speed factor of the last
    few ``calibrate`` calls, so one disturbed timing of the speed task does not
    skew an op; the unscaled samples are kept in ``raw``.
    """

    series: dict = field(default_factory=lambda: defaultdict(list))
    raw: dict = field(default_factory=lambda: defaultdict(list))
    factors: list = field(default_factory=list)
    units: int = 0
    unit_s: float = 0.0
    raw_unit_s: float = 0.0
    factor: float = 1.0

    def calibrate(self, factor: float) -> None:
        self.factors.append(factor)
        self.factor = statistics.median(self.factors[-SPEED_WINDOW:])

    def add(self, name: str, ms: float) -> None:
        self.series[name].append(ms * self.factor)
        self.raw[name].append(ms)

    def add_units(self, count: int, seconds: float) -> None:
        self.units += count
        self.unit_s += seconds * self.factor
        self.raw_unit_s += seconds


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive method); needs at least two values."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def quantile_entries(name: str, unit: str, values: list[float], qs=(50, 95)) -> list[tuple[str, str, str]]:
    """Named percentile lines; a tail percentile needs ten samples above it."""
    out = []
    for q in qs:
        if len(values) >= 2 and (q == 50 or len(values) * (100 - q) / 100 >= 10):
            text = f"{percentile(values, q):.4f}"
        else:
            text = "n/a (fewer than 10 samples above it)"
        out.append((f"{name}.p{q}", unit, f"{text} (n={len(values)})"))
    return out


def scratch_dir() -> Path:
    """This process's directory for temporary files, inside the checkout."""
    return SCRATCH / str(os.getpid())


def sha256_hex(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()


def digest_dir(path: Path) -> str:
    """sha256 over every file's name and bytes, in name order."""
    h = hashlib.sha256()
    for file in sorted(p for p in path.iterdir() if p.is_file()):
        h.update(file.name.encode("utf-8") + b"\0" + file.read_bytes() + b"\0")
    return h.hexdigest()


class Workload:
    """Interface the four workloads implement."""

    name = ""
    # ops the traced sweep runs per second of --seconds (sized so the sweep of
    # all four workloads, untraced plus traced, fits in --seconds at the seed commit)
    trace_ops_per_s = 1.0

    def setup(self, seed: int):
        raise NotImplementedError

    def speed_factor(self) -> float:
        """Reference time over the time of a fixed task now."""
        return kernel_speed_factor()

    def run_op(self, inputs, i: int, ledger: Ledger, samples: Samples, tracer=None) -> str:
        """Execute op ``i``; record its samples; return a digest of its outputs."""
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        """Peak resident memory of the process that did the measured work."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def finish(self, inputs, ledger: Ledger) -> None:
        """Deferred output checks, run after timing and after peak RSS is read."""

    def layer_extras(self) -> dict:
        """Per-layer metrics measured outside the traced ops, as name -> (value, unit)."""
        return {}

    def metrics(self, series: dict) -> tuple[float, float]:
        """(target_ms.p50, control_ms.p50) from scaled or raw sample series."""
        raise NotImplementedError

    def named(self, samples: Samples) -> list[tuple[str, str, str]]:
        """The workload's own metrics as (name, unit, text), printed for people."""
        raise NotImplementedError


def timed_setup(workload: Workload, seed: int):
    """Set up several times; the median set-up time and the last inputs.

    Set-up always runs in process (cli-study's too), so it is scaled by the
    in-process kernel.
    """
    times, inputs = [], None
    for _ in range(SETUP_REPEATS):
        factor = kernel_speed_factor()
        start = time.perf_counter()
        inputs = workload.setup(seed)
        times.append((time.perf_counter() - start) * factor)
    return inputs, statistics.median(times)


def guarded_op(workload: Workload, inputs, i: int, ledger: Ledger, samples: Samples, tracer=None):
    """Run one op; an exception counts the op as failed and the run goes on."""
    ledger.attempt()
    op_id = (workload.name, i)
    samples.calibrate(workload.speed_factor())
    try:
        return workload.run_op(inputs, i, ledger, samples, tracer)
    except Exception as exc:  # the benchmark must keep measuring and report the failure
        ledger.fail_exception(op_id, exc)
        return None


def measure(workload: Workload, seed: int, seconds: float):
    """Untraced run: end-to-end metrics for one workload."""
    inputs, setup_s = timed_setup(workload, seed)
    ledger, samples = Ledger(), Samples()
    start = time.perf_counter()
    i = 0
    while i == 0 or time.perf_counter() - start < seconds:
        guarded_op(workload, inputs, i, ledger, samples)
        i += 1
    rss = workload.peak_rss_mb()
    workload.finish(inputs, ledger)
    target, control = workload.metrics(samples.series) if samples.units else (float("nan"), float("nan"))
    metrics = {
        "setup_s": setup_s,
        "peak_rss_mb": rss,
        "ops_per_s": samples.units / samples.unit_s if samples.unit_s else float("nan"),
        "target_ms.p50": target,
        "control_ms.p50": control,
    }
    return ledger, metrics, samples
