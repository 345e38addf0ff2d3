"""The session-log format, the error taxonomy, ponderation and per-block timings read from it,
and the metrics CSV that holds one row of them per session.

It loads no simulator layer: ``scenario`` writes logs in this format and
``replay`` reads them; ``simulate`` writes the metrics CSV with this module,
and ``analyze`` reads it with this module, without loading the simulator.
"""
from __future__ import annotations

import csv
from enum import Enum
from typing import Optional

from replicasim import ConfigError, checks
from replicasim.records import field, record


class Condition(Enum):  # in report order: the baseline, tablet, first
    TABLET = "tablet"
    HMD = "hmd"


# --- Session log -----------------------------------------------------------------

# Log event kinds
CALL_START = "CallStart"
INSTRUCTION = "Instruction"
REPLICA_INDICATION = "ReplicaIndication"
IDENTIFY = "Identify"
MANIPULATE = "Manipulate"
REPEAT_REQUEST = "RepeatRequest"
BREAKPOINT = "Breakpoint"
TEMPERATURE_REPORT = "TemperatureReport"
CALL_END = "CallEnd"
EVENT_KINDS = frozenset((CALL_START, INSTRUCTION, REPLICA_INDICATION, IDENTIFY, MANIPULATE, REPEAT_REQUEST,
                         BREAKPOINT, TEMPERATURE_REPORT, CALL_END))

NO_MANIPULATION = "NoManipulation"
# Every block kind name, as a log's ``block_kind`` and the metrics name them: the
# values of ``scene.Handedness``, then NO_MANIPULATION.
BLOCK_KINDS = ("OneHanded", "TwoHanded", NO_MANIPULATION)


@record(frozen=True)
class LogEvent:
    t_ms: int
    kind: str
    data: dict = field(default_factory=dict)
    block: Optional[str] = None
    block_kind: Optional[str] = None

    def to_dict(self) -> dict:
        doc: dict = {"record": "event", "t_ms": self.t_ms, "kind": self.kind}
        if self.block is not None:
            doc["block"] = self.block
            doc["block_kind"] = self.block_kind
        if self.data:
            doc["data"] = self.data
        return doc


@record
class SessionLog:
    condition: Condition
    seed: int
    events: list[LogEvent]
    # Auxiliary context for tests and replay tooling; not part of the JSONL schema.
    initial_valve_states: dict = field(default_factory=dict)  # valve id -> scene.ValveState
    final_valve_states: dict = field(default_factory=dict)  # valve id -> scene.ValveState
    transcript: list = field(default_factory=list)  # of netsim.TraceEntry


def session_log_to_jsonl(log: SessionLog) -> str:
    lines = [checks.dumps({"record": "session", "condition": log.condition.value, "seed": log.seed})]
    lines += [checks.dumps(e.to_dict()) for e in log.events]
    return "\n".join(lines) + "\n"


def session_log_from_jsonl(text: str) -> SessionLog:
    # A record ends at "\n" only; splitlines also breaks at U+2028, U+2029 and U+0085, which JSON takes raw.
    lines = [(n, line) for n, line in enumerate(text.split("\n"), start=1) if line.strip()]
    if not lines:
        raise ConfigError("empty session log")
    events = []
    n, line = lines[0]
    try:  # every refusal of the header or of a record names its line
        header = checks.typed(checks.loads(line), "session header", dict)
        if header.get("record") != "session":
            raise ConfigError("first record must be the session header")
        condition = checks.member(header.get("condition"), "condition", Condition)
        seed = checks.integer(header.get("seed"), "seed")
        for n, line in lines[1:]:
            doc = checks.typed(checks.loads(line), "log record", dict)
            if doc.get("record") != "event":
                raise ConfigError(f"unexpected record {doc.get('record')!r}")
            kind = checks.typed(doc.get("kind"), "kind", str)
            if kind not in EVENT_KINDS:
                raise ConfigError(f"unknown event kind {kind!r}")
            data = checks.typed(doc.get("data", {}), f"{kind} data", dict)
            if kind in (IDENTIFY, MANIPULATE, REPEAT_REQUEST):  # the errors that replay counts
                checks.ident(data.get("valve"), f"{kind} valve")
            if kind in (IDENTIFY, MANIPULATE):
                checks.typed(data.get("correct"), f"{kind} correct", bool)
            if "text" in data:
                checks.typed(data["text"], f"{kind} text", str)
            if "temperature_c" in data:
                checks.finite(data["temperature_c"], f"{kind} temperature_c")
            block, block_kind = doc.get("block"), doc.get("block_kind")
            events.append(LogEvent(
                t_ms=checks.count(doc.get("t_ms"), "t_ms"),
                kind=kind,
                data=data,
                block=None if block is None else checks.ident(block, "block"),
                block_kind=None if block_kind is None else checks.typed(block_kind, "block_kind", str),
            ))
    except ConfigError as exc:
        raise ConfigError(f"{exc} at line {n}") from None
    log = SessionLog(condition=condition, seed=seed, events=events)
    try:
        validate_session_log(log)
    except ConfigError as exc:
        for (n, _), event in zip(lines[1:], events):
            if event is exc.event:
                raise ConfigError(f"{exc} at line {n}") from None
        raise
    return log


def _refusal(message: str, event: Optional[LogEvent] = None) -> ConfigError:
    exc = ConfigError(message)
    exc.event = event
    return exc


def validate_session_log(log: SessionLog) -> None:
    """Check every rule of a session log, the rules that the metrics rely on among them. A refusal's
    ``event`` is the event that breaks the rule, or None if no one event does, so a reader can name its line."""
    events = log.events
    if not events or events[0].kind != CALL_START:
        raise _refusal("log must start with CallStart", events[0] if events else None)
    if events[-1].kind != CALL_END:
        raise _refusal("log must end with CallEnd", events[-1])
    last_t = events[0].t_ms
    for event in events:
        if event.t_ms < last_t:
            raise _refusal(f"timestamps decrease at {event.kind} t={event.t_ms}", event)
        last_t = event.t_ms
    # Every manipulation block mentioned in events must be closed by a breakpoint.
    manipulation_blocks = {e.block for e in events if e.block is not None and e.block_kind != NO_MANIPULATION}
    breakpoints = [e for e in events if e.kind == BREAKPOINT]
    unclosed = manipulation_blocks - {e.block for e in breakpoints}
    if unclosed:
        raise _refusal(f"manipulation blocks without a closing breakpoint: {sorted(unclosed)}")
    for e in breakpoints:
        if e.block is None:
            raise _refusal("breakpoint without block context", e)
    for e in breakpoints:
        if e.block_kind not in BLOCK_KINDS:
            raise _refusal(f"unknown block kind {e.block_kind or ''!r}", e)


@record(frozen=True)
class ErrorCounts:
    simple: int = 0
    critical: int = 0
    repetition: int = 0

    def __post_init__(self) -> None:
        for name in ("simple", "critical", "repetition"):
            checks.count(getattr(self, name), name)


@record(frozen=True)
class BlockTiming:
    block: str
    kind: str  # one of BLOCK_KINDS
    duration_s: float


def error_counts(log: SessionLog) -> ErrorCounts:
    """The log's errors by type, in one pass: a wrong ``Identify`` is Simple, a
    wrong ``Manipulate`` is Critical and each ``RepeatRequest`` is a Repetition."""
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
    totals_by_kind: dict  # each of BLOCK_KINDS, in that order -> seconds
    total_s: float


def block_times(log: SessionLog) -> TimingSummary:
    """Breakpoint-to-breakpoint block durations plus the call-long total.

    The first block's duration is measured from CallStart. The sum of block
    durations never exceeds the total, since the wrap-up tail follows the last
    breakpoint. ``log`` must have passed :func:`validate_session_log`, as every log
    that ``run_session`` returns or ``session_log_from_jsonl`` reads has.
    """
    events = log.events
    start_ms = events[0].t_ms
    end_ms = events[-1].t_ms

    blocks: list[BlockTiming] = []
    totals = dict.fromkeys(BLOCK_KINDS, 0.0)
    previous_ms = start_ms
    for event in events:
        if event.kind == BREAKPOINT:
            timing = BlockTiming(event.block, event.block_kind, (event.t_ms - previous_ms) / 1000.0)
            blocks.append(timing)
            totals[timing.kind] += timing.duration_s
            previous_ms = event.t_ms
    return TimingSummary(blocks=tuple(blocks), totals_by_kind=totals, total_s=(end_ms - start_ms) / 1000.0)


def percent_improvement(baseline: float, treatment: float) -> float:
    """Relative reduction from baseline to treatment, as a fraction."""
    if baseline <= 0:
        raise ValueError(f"baseline must be positive, got {baseline!r}")
    return (baseline - treatment) / baseline


# --- Metrics CSV: one row per session ---------------------------------------------

TIME_MEASURES = ("total_s", "one_handed_s", "two_handed_s")
ERROR_MEASURES = ("simple", "critical", "repetition", "weighted_total")
ALL_MEASURES = TIME_MEASURES + ERROR_MEASURES
CSV_COLUMNS = ("session_id", "condition", "seed", *ALL_MEASURES)


def session_row(session_id: str, log: SessionLog) -> dict:
    """The log's row of the metrics CSV: the keys of CSV_COLUMNS, in that order."""
    timing = block_times(log)
    counts = error_counts(log)
    one_handed, two_handed, _ = (timing.totals_by_kind[kind] for kind in BLOCK_KINDS)
    return {
        "session_id": session_id,
        "condition": log.condition.value,
        "seed": log.seed,
        "total_s": round(timing.total_s, 3),
        "one_handed_s": round(one_handed, 3),
        "two_handed_s": round(two_handed, 3),
        "simple": counts.simple,
        "critical": counts.critical,
        "repetition": counts.repetition,
        "weighted_total": weighted_total(counts),
    }


def write_metrics_csv(path: str, rows: list[dict]) -> None:
    """Write rows that ``session_row`` built."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)


def read_metrics_csv(path: str) -> list[dict]:
    """The rows of a metrics CSV; a malformed file raises a ConfigError naming it,
    and a malformed row the file line it starts on (a quoted cell may span lines)."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        records = []  # (line the row starts on, cells)
        try:
            header = next(reader, [])
            end = reader.line_num
            for cells in reader:
                if cells:  # a blank line is no row
                    records.append((end + 1, cells))
                end = reader.line_num
        except (UnicodeDecodeError, csv.Error) as exc:  # csv.Error: a field past the csv module's size limit
            raise ConfigError(f"cannot read {path!r}: {exc}") from None
    repeated = [name for i, name in enumerate(header) if name in header[:i]]
    if repeated:  # a row would keep the last copy's cells
        raise ConfigError(f"{path!r} repeats column {repeated[0]!r}")
    missing = set(CSV_COLUMNS) - set(header)
    if missing:
        raise ConfigError(f"{path!r} is missing columns: {sorted(missing)}")
    if not records:
        raise ConfigError(f"{path!r} contains no data rows")
    rows = []
    first_line = {}  # session_id -> line it first appears on
    for line, cells in records:
        try:
            if len(cells) > len(header):
                raise ConfigError(f"{len(cells) - len(header)} more cells than the header has columns")
            raw = dict.fromkeys(header, "")  # a short row reads as empty cells, which no check accepts
            raw.update(zip(header, cells))
            session_id = checks.ident(raw["session_id"], "session_id")
            if session_id in first_line:
                raise ConfigError(f"session_id {session_id!r} repeats line {first_line[session_id]}")
            first_line[session_id] = line
            condition = checks.member(raw["condition"], "condition", Condition)
            seed = checks.numeral(raw["seed"], "seed", int)
            row = {"session_id": session_id, "condition": condition.value, "seed": seed}
            row.update((key, checks.seconds(checks.numeral(raw[key], key, float), key)) for key in TIME_MEASURES)
            row.update((key, checks.count(checks.numeral(raw[key], key, int), key)) for key in ERROR_MEASURES)
            derived = weighted_total(ErrorCounts(row["simple"], row["critical"], row["repetition"]))
            if row["weighted_total"] != derived:
                raise ConfigError(f"weighted_total {row['weighted_total']} disagrees with the counts ({derived})")
        except ConfigError as exc:
            raise ConfigError(f"malformed row in {path!r} at line {line}: {exc}") from None
        rows.append(row)
    return rows
