"""Error taxonomy, ponderation, and per-block timing extraction from session logs."""
from __future__ import annotations

import csv
from enum import Enum
from typing import TYPE_CHECKING

from replicasim import checks
from replicasim.records import record

if TYPE_CHECKING:
    from replicasim.scenario import SessionLog


class Condition(Enum):
    TABLET = "tablet"
    HMD = "hmd"


@record(frozen=True)
class ErrorCounts:
    simple: int = 0
    critical: int = 0
    repetition: int = 0

    def __post_init__(self) -> None:
        # Not checks.count: a total over the rows of a file may pass its bound.
        for name in ("simple", "critical", "repetition"):
            if checks.integer(getattr(self, name), name) < 0:
                raise ValueError(f"{name} must be non-negative, got {getattr(self, name)}")


@record(frozen=True)
class BlockTiming:
    block: str
    kind: str  # OneHanded | TwoHanded | NoManipulation
    duration_s: float


def error_counts(log: SessionLog) -> ErrorCounts:
    """The log's errors by type, in one pass: a wrong ``Identify`` is Simple, a
    wrong ``Manipulate`` is Critical and each ``RepeatRequest`` is a Repetition."""
    from replicasim.scenario import IDENTIFY, MANIPULATE, REPEAT_REQUEST

    counts = {IDENTIFY: 0, MANIPULATE: 0, REPEAT_REQUEST: 0}
    for event in log.events:
        if event.kind == REPEAT_REQUEST or (event.kind in counts and not event.data.get("correct", True)):
            counts[event.kind] += 1
    return ErrorCounts(counts[IDENTIFY], counts[MANIPULATE], counts[REPEAT_REQUEST])


def weighted_total(counts: ErrorCounts) -> int:
    """Ponderated error total."""
    # Critical errors can worsen the system state, so they count double.
    return counts.simple + 2 * counts.critical + counts.repetition


@record(frozen=True)
class TimingSummary:
    blocks: tuple[BlockTiming, ...]
    totals_by_kind: dict
    total_s: float


def block_times(log: SessionLog) -> TimingSummary:
    """Breakpoint-to-breakpoint block durations plus the call-long total.

    The first block's duration is measured from CallStart. The sum of block
    durations never exceeds the total, since the wrap-up tail follows the last
    breakpoint. A log that fails :func:`validate_session_log` raises LogError.
    """
    from replicasim.scenario import BREAKPOINT, NO_MANIPULATION, LogError, validate_session_log

    validate_session_log(log)
    events = log.events
    start_ms = events[0].t_ms
    end_ms = events[-1].t_ms

    blocks: list[BlockTiming] = []
    previous_ms = start_ms
    for event in events:
        if event.kind != BREAKPOINT:
            continue
        if event.block is None:
            raise LogError("breakpoint without block context")
        blocks.append(BlockTiming(event.block, event.block_kind or "", (event.t_ms - previous_ms) / 1000.0))
        previous_ms = event.t_ms

    totals = {"OneHanded": 0.0, "TwoHanded": 0.0, NO_MANIPULATION: 0.0}
    for timing in blocks:
        if timing.kind not in totals:
            raise LogError(f"unknown block kind {timing.kind!r}")
        totals[timing.kind] += timing.duration_s
    return TimingSummary(blocks=tuple(blocks), totals_by_kind=totals, total_s=(end_ms - start_ms) / 1000.0)


def percent_improvement(baseline: float, treatment: float) -> float:
    """Relative reduction from baseline to treatment, as a fraction."""
    if baseline <= 0:
        raise ValueError(f"baseline must be positive, got {baseline!r}")
    return (baseline - treatment) / baseline


# --- Per-session report row -------------------------------------------------------

CSV_COLUMNS = (
    "session_id",
    "condition",
    "seed",
    "total_s",
    "one_handed_s",
    "two_handed_s",
    "simple",
    "critical",
    "repetition",
    "weighted_total",
)


def session_row(session_id: str, log: SessionLog) -> dict:
    timing = block_times(log)
    counts = error_counts(log)
    return {
        "session_id": session_id,
        "condition": log.condition.value,
        "seed": log.seed,
        "total_s": round(timing.total_s, 3),
        "one_handed_s": round(timing.totals_by_kind["OneHanded"], 3),
        "two_handed_s": round(timing.totals_by_kind["TwoHanded"], 3),
        "simple": counts.simple,
        "critical": counts.critical,
        "repetition": counts.repetition,
        "weighted_total": weighted_total(counts),
    }


def write_metrics_csv(path: str, rows: list[dict]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: row[k] for k in CSV_COLUMNS})
