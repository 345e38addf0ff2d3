"""Error taxonomy, ponderation, and per-block timing extraction from session logs."""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from replicasim.scenario import (
    BREAKPOINT,
    IDENTIFY,
    MANIPULATE,
    NO_MANIPULATION,
    REPEAT_REQUEST,
    LogError,
    SessionLog,
    validate_session_log,
)


class ErrorType(Enum):
    SIMPLE = "Simple"
    CRITICAL = "Critical"
    REPETITION = "Repetition"


# Critical errors can worsen the system state, so they count double.
ERROR_WEIGHTS = {ErrorType.SIMPLE: 1, ErrorType.CRITICAL: 2, ErrorType.REPETITION: 1}


@dataclass(frozen=True)
class ErrorRecord:
    t_ms: int
    type: ErrorType
    valve: str
    block: Optional[str] = None


@dataclass(frozen=True)
class ErrorCounts:
    simple: int = 0
    critical: int = 0
    repetition: int = 0

    def __post_init__(self) -> None:
        if min(self.simple, self.critical, self.repetition) < 0:
            raise ValueError("error counts must be non-negative")

    def __add__(self, other: "ErrorCounts") -> "ErrorCounts":
        return ErrorCounts(
            self.simple + other.simple,
            self.critical + other.critical,
            self.repetition + other.repetition,
        )


@dataclass(frozen=True)
class BlockTiming:
    block: str
    kind: str  # OneHanded | TwoHanded | NoManipulation
    duration_s: float


def errors_from_log(log: SessionLog) -> list[ErrorRecord]:
    records = []
    for event in log.events:
        if event.kind == IDENTIFY and not event.data.get("correct", True):
            records.append(ErrorRecord(event.t_ms, ErrorType.SIMPLE, event.data["valve"], event.block))
        elif event.kind == MANIPULATE and not event.data.get("correct", True):
            records.append(ErrorRecord(event.t_ms, ErrorType.CRITICAL, event.data["valve"], event.block))
        elif event.kind == REPEAT_REQUEST:
            records.append(ErrorRecord(event.t_ms, ErrorType.REPETITION, event.data["valve"], event.block))
    return records


def count_errors(records: list[ErrorRecord]) -> ErrorCounts:
    return ErrorCounts(
        simple=sum(1 for r in records if r.type is ErrorType.SIMPLE),
        critical=sum(1 for r in records if r.type is ErrorType.CRITICAL),
        repetition=sum(1 for r in records if r.type is ErrorType.REPETITION),
    )


def weighted_total(counts: ErrorCounts) -> int:
    """Ponderated error total: Critical errors count twice."""
    return (
        counts.simple * ERROR_WEIGHTS[ErrorType.SIMPLE]
        + counts.critical * ERROR_WEIGHTS[ErrorType.CRITICAL]
        + counts.repetition * ERROR_WEIGHTS[ErrorType.REPETITION]
    )


@dataclass(frozen=True)
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
    counts = count_errors(errors_from_log(log))
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
