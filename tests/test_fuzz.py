"""Seeded mutation fuzzing of every input boundary.

Mutation-based fuzzing as in Zeller et al., *The Fuzzing Book*: each case
takes a valid input, sets one leaf of it to one of ``MUTATIONS`` or deletes
it, and hands it to the code that reads that input from outside. The inputs
are the four shipped JSON files, a session log, a metrics CSV and one frame
per payload kind. The seed and the number of cases per input are fixed, so a
failing case reproduces; each test reports all of its failing cases at once.

Properties:

- the CLI exits 0 or 2 and raises nothing (in process, an exception out of
  ``main`` is what prints a traceback): bad input is a ``ConfigError``, and
  its message names the file;
- a run that exits 0 writes no non-finite number;
- ``decode_envelope`` raises nothing but ``RoomError``;
- a decoded ``SyncReq`` given to ``submit_sync`` raises nothing but
  ``RoomError``.

``simulate`` runs each case until its first session builds the plant, by
which point every input has been read and checked against the others;
``analyze`` reads each CSV case. A seeded sample of the cases runs the whole
command.
"""
import csv
import io
import json
import math
import random
import re
import struct
import typing
from importlib import resources
from pathlib import Path

import pytest

from replicasim import ConfigError, protocol, scenario
from replicasim.cli import build_parser
from replicasim.protocol import (
    Avatar,
    AvatarState,
    CallEnd,
    CallStart,
    Envelope,
    Instruction,
    MediaSignal,
    ReportTemperature,
    RoomError,
    RoomState,
    StepDone,
    SyncCommit,
    SyncReq,
    decode_envelope,
    envelope_to_dict,
    join_room,
    submit_sync,
)
from replicasim.replica import SyncRequest
from replicasim.report import read_metrics_csv
from replicasim.scenario import Condition, default_model, default_profiles, session_log_to_jsonl
from replicasim.scene import (
    AddAnnotation,
    Annotation,
    Pose,
    RemoveAnnotation,
    Role,
    SetHighlight,
    SetIndication,
    SetPose,
    SetValveState,
    ValveState,
)

SEED = 12
DELETE = object()
MUTATIONS = (math.nan, math.inf, -1, 0, "x", None, [], {}, 1e30, True, 1.5, DELETE)

# Cases per input, drawn without replacement from all of its (leaf, mutation) pairs.
JSON_CASES = 120  # per shipped file
LOG_CASES = 200
CSV_CASES = 240
FRAME_CASES = 60  # per frame
END_TO_END = 4  # per input file: a simulate of one session per condition costs about 20 ms

SHIPPED = {
    "--model": "default_model.json",
    "--plan": "default_plan.json",
    "--profile": "default_profiles.json",
    "--routing": "default_routing.json",
}

# A non-finite number as json.dumps writes it, and as str() writes it into the CSV and reports.
NON_FINITE = re.compile(rb"\b(?:NaN|Infinity|nan|inf)\b")


def leaves(doc, path=()):
    """The path to every leaf of a JSON document; an empty container is a leaf."""
    if isinstance(doc, dict) and doc:
        for key, value in doc.items():
            yield from leaves(value, path + (key,))
    elif isinstance(doc, list) and doc:
        for i, value in enumerate(doc):
            yield from leaves(value, path + (i,))
    else:
        yield path


def mutated(doc, path, value):
    """``doc`` with the leaf at ``path`` set to ``value``, or deleted; the
    containers on the path are copied, the rest is shared."""
    head, rest = path[0], path[1:]
    doc = list(doc) if isinstance(doc, list) else dict(doc)
    if rest:
        doc[head] = mutated(doc[head], rest, value)
    elif value is DELETE:
        del doc[head]
    else:
        doc[head] = value
    return doc


def cases(doc, rng, count):
    """``count`` distinct (path, mutation) pairs of ``doc``, drawn by ``rng``."""
    pairs = [(path, value) for path in leaves(doc) for value in MUTATIONS]
    return rng.sample(pairs, min(count, len(pairs)))


def show(path, value):
    return f"{'/'.join(map(str, path))} = {'<deleted>' if value is DELETE else repr(value)}"


class _Loaded(Exception):
    """Raised where the first session builds its plant: every input has been read and checked."""


def stop_at_first_plant(*args, **kwargs):
    raise _Loaded


def run_command(args, file: Path, capsys, out: Path = None):
    """Run a parsed command as ``main`` runs it: its exit code and a finding, or None.

    ``main`` exits 2 on ``ConfigError`` and ``OSError``, which must name
    ``file``; any other exception is a finding. A command that exits 0 must
    write no non-finite number to stdout or into ``out``.
    """
    try:
        args.func(args)
    except _Loaded:
        return 0, None
    except (ConfigError, OSError) as exc:
        capsys.readouterr()
        return 2, None if file.name in str(exc) else f"refused without naming the file: {exc}"
    except Exception as exc:  # any other exception is a traceback
        capsys.readouterr()
        return None, f"{type(exc).__name__}: {exc}"
    outputs = [capsys.readouterr().out.encode()]
    outputs += [f.read_bytes() for f in out.rglob("*") if f.is_file()] if out else []
    return 0, "wrote a non-finite number" if any(NON_FINITE.search(b) for b in outputs) else None


def test_shipped_json_files(tmp_path, monkeypatch, capsys):
    rng = random.Random(SEED)
    failures = []
    for option, name in SHIPPED.items():
        doc = json.loads(resources.files("replicasim").joinpath(f"data/{name}").read_text(encoding="utf-8"))
        file, out = tmp_path / name, tmp_path / "out"
        args = build_parser().parse_args(["simulate", "--sessions", "1:1", option, str(file), "--out", str(out)])
        loaded = []
        with monkeypatch.context() as patch:
            patch.setattr(scenario, "plant_from_model", stop_at_first_plant)
            for path, value in cases(doc, rng, JSON_CASES):
                file.write_text(json.dumps(mutated(doc, path, value)), encoding="utf-8")
                code, finding = run_command(args, file, capsys)
                if finding:
                    failures.append(f"{name} {show(path, value)}: {finding}")
                elif code == 0:
                    loaded.append((path, value))
        for path, value in rng.sample(loaded, min(END_TO_END, len(loaded))):
            file.write_text(json.dumps(mutated(doc, path, value)), encoding="utf-8")
            _, finding = run_command(args, file, capsys, out)
            if finding:
                failures.append(f"simulate with {name} {show(path, value)}: {finding}")
    assert failures == []


def test_session_log(tmp_path, capsys):
    plan = scenario.build_default_plan(scenario.valve_registry(default_model()))
    log = scenario.run_session(plan, Condition.HMD, default_profiles()[Condition.HMD], seed=1)
    records = [json.loads(line) for line in session_log_to_jsonl(log).splitlines()]
    rng = random.Random(SEED)
    file = tmp_path / "session.jsonl"
    args = build_parser().parse_args(["replay", str(file)])
    failures = []
    for path, value in cases(records, rng, LOG_CASES):
        file.write_text("".join(json.dumps(r) + "\n" for r in mutated(records, path, value)), encoding="utf-8")
        _, finding = run_command(args, file, capsys)
        if finding:
            failures.append(f"{show(path, value)}: {finding}")
    assert failures == []


METRICS_CSV = """\
session_id,condition,seed,total_s,one_handed_s,two_handed_s,simple,critical,repetition,weighted_total
tablet-000,tablet,11,1019.5,160.2,95.1,3,0,1,4
tablet-001,tablet,12,1101.3,170.9,101.7,2,1,0,4
tablet-002,tablet,13,987.0,150.4,99.9,4,0,0,4
hmd-000,hmd,21,902.8,140.0,90.2,0,0,0,0
hmd-001,hmd,22,951.6,139.5,88.8,1,0,0,1
hmd-002,hmd,23,880.1,131.1,92.6,0,1,0,2
"""


def test_metrics_csv(tmp_path, capsys):
    """Each case sets one cell to a mutation as str() writes it (null as an empty cell), or deletes the cell."""
    header, *rows = csv.reader(io.StringIO(METRICS_CSV))
    rng = random.Random(SEED)
    file, out = tmp_path / "metrics.csv", tmp_path / "out"
    args = build_parser().parse_args(["analyze", str(file), "--out", str(out), "--histograms"])
    failures, loaded = [], []
    for path, value in cases(rows, rng, CSV_CASES):
        text = io.StringIO()
        cell = value if value is DELETE else "" if value is None else str(value)
        csv.writer(text, lineterminator="\n").writerows([header, *mutated(rows, path, cell)])
        file.write_text(text.getvalue(), encoding="utf-8")
        try:
            read_metrics_csv(str(file))
        except ConfigError:
            continue
        except Exception as exc:
            failures.append(f"{show(path, value)}: {type(exc).__name__}: {exc}")
            continue
        loaded.append((path, value, text.getvalue()))
    for path, value, text in rng.sample(loaded, min(END_TO_END, len(loaded))):
        file.write_text(text, encoding="utf-8")
        _, finding = run_command(args, file, capsys, out)
        if finding:
            failures.append(f"analyze with {show(path, value)}: {finding}")
    assert failures == []


def one_frame_per_payload_kind() -> list[dict]:
    edits = (
        SetPose("1V1", Pose((0.0, 1.0, 0.0)), Role.EXPERT, 1),
        SetValveState("1V1", ValveState.CLOSED, Role.EXPERT, 2),
        SetHighlight("1V2", (1.0, 0.5, 0.0), Role.EXPERT, 3),
        SetIndication("1V2", True, Role.EXPERT, 4),
        AddAnnotation(Annotation("a1", Role.EXPERT, "1V3", "check the gland", (0.0, 0.1, 0.0)), Role.EXPERT, 5),
        RemoveAnnotation("a1", Role.EXPERT, 6),
    )
    payloads = (
        Avatar(AvatarState("operator", Role.OPERATOR, Pose((0.0, 1.7, 0.0)), (0.0, 0.0, 1.0))),
        SyncReq(SyncRequest("expert", Role.EXPERT, 0, edits)),
        SyncCommit(edits, 1),
        Instruction("set valve 1V1 to Closed", "1V1", ValveState.CLOSED),
        ReportTemperature(),
        StepDone(32.0),
        CallStart(),
        CallEnd(),
        MediaSignal(b"\x00\x01\xff"),
    )
    assert tuple(map(type, payloads)) == typing.get_args(protocol.Payload)
    return [envelope_to_dict(Envelope("expert", i + 1, "r", p, host_seq=i + 1)) for i, p in enumerate(payloads)]


def test_frames():
    room = RoomState(room="r", shared=default_model())
    room = join_room(room, "operator", Role.OPERATOR)
    room = join_room(room, "expert", Role.EXPERT)
    rng = random.Random(SEED)
    failures = []
    for frame in one_frame_per_payload_kind():
        for path, value in cases(frame, rng, FRAME_CASES):
            body = json.dumps(mutated(frame, path, value)).encode("utf-8")
            case = f"{frame['payload']['kind']} {show(path, value)}"
            try:
                env, _ = decode_envelope(struct.pack(">I", len(body)) + body)
            except RoomError:
                continue
            except Exception as exc:
                failures.append(f"decode {case}: {type(exc).__name__}: {exc}")
                continue
            if isinstance(env.payload, SyncReq):
                try:
                    submit_sync(room, env.payload.request)
                except RoomError:
                    pass
                except Exception as exc:
                    failures.append(f"submit_sync {case}: {type(exc).__name__}: {exc}")
    assert failures == []


@pytest.mark.parametrize("reading", [math.nan, math.inf, True, "x"])
def test_step_done_temperature_must_be_finite(reading):
    frame = next(f for f in one_frame_per_payload_kind() if f["payload"]["kind"] == "step_done")
    body = json.dumps(mutated(frame, ("payload", "temperature_c"), reading)).encode("utf-8")
    with pytest.raises(RoomError, match="temperature_c must be a finite number"):
        decode_envelope(struct.pack(">I", len(body)) + body)
