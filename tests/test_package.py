import ast
import importlib
import json
import math
import os
import re
import subprocess
import sys
import zipfile
from pathlib import Path

import pytest

import replicasim
from replicasim import checks, protocol, scenario
from replicasim.netsim import derive_seed
from replicasim.protocol import Envelope, envelope_to_dict
from replicasim.scenario import default_model
from replicasim.scene import Pose, Role, SetIndication, SetValveState, ValveState, canonical_json

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "replicasim"


def test_every_exported_name_resolves():
    assert [name for name in replicasim.__all__ if not hasattr(replicasim, name)] == []


def referenced_names(path: Path) -> set[str]:
    """Names a module uses: bare names, attribute names and imported names."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
    return names


def test_every_public_definition_has_a_caller_or_documentation():
    """No library function or class exists only for its own test: each public
    module-level definition is used by the package itself, the benchmark, a
    demo or a script, or README.md or docs/ name it as public API."""
    callers = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    for folder in ("bench", "demos", "scripts"):
        callers += (ROOT / folder).rglob("*.py")
    used = set().union(*(referenced_names(p) for p in callers))
    for doc in [ROOT / "README.md", *(ROOT / "docs").glob("*.md")]:
        for span in re.findall(r"`([^`\n]+)`", doc.read_text(encoding="utf-8")):
            used.update(re.findall(r"[A-Za-z_]\w*", span))
    orphans = [
        f"{module.stem}.{node.name}"
        for module in sorted(PACKAGE.glob("*.py"))
        for node in ast.parse(module.read_text(encoding="utf-8")).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in used
    ]
    assert orphans == []


def test_default_model_loads_from_a_zip_archive(tmp_path):
    archive = tmp_path / "replicasim.zip"
    with zipfile.ZipFile(archive, "w") as zf:
        for path in sorted(PACKAGE.rglob("*")):
            if path.suffix in (".py", ".json"):
                zf.write(path, path.relative_to(PACKAGE.parent).as_posix())
    probe = ("import replicasim.scenario as s\nassert s.__file__.startswith(%r)\n"
             "print(len(s.default_model().nodes), len(s.default_profiles()))" % str(archive))
    proc = subprocess.run([sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=str(archive)),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [str(len(default_model().nodes)), "2"]


def test_field_checks_live_in_one_module():
    """Outside ``checks.py`` no module refers to ``isfinite`` or checks an id
    with ``isinstance(..., str)``: every field check is one of ``checks``'."""
    found = []
    for module in sorted(PACKAGE.glob("*.py")):
        if module.name == "checks.py":
            continue
        for node in ast.walk(ast.parse(module.read_text(encoding="utf-8"))):
            if getattr(node, "attr", None) == "isfinite" or getattr(node, "id", None) == "isfinite":
                found.append(f"{module.name}:{node.lineno} isfinite")
            elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance" and len(node.args) == 2:
                kinds = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
                if any(getattr(kind, "id", None) == "str" for kind in kinds):
                    found.append(f"{module.name}:{node.lineno} isinstance(..., str)")
    assert found == []


def test_the_metrics_csv_format_lives_in_metrics():
    """``metrics`` alone defines the metrics CSV's measures and reader, and
    ``report`` reads no file: it neither opens one nor imports the field checks."""
    owned = {"read_metrics_csv", "TIME_MEASURES", "ERROR_MEASURES", "ALL_MEASURES", "CSV_COLUMNS"}
    defined = []
    for module in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(module.read_text(encoding="utf-8")).body:
            targets = node.targets if isinstance(node, ast.Assign) else [node]
            names = {getattr(target, "id", getattr(target, "name", None)) for target in targets}
            defined += [f"{module.name} {name}" for name in sorted(names & owned)]
    assert sorted(defined) == [f"metrics.py {name}" for name in sorted(owned)]
    found = []
    for node in ast.walk(ast.parse((PACKAGE / "report.py").read_text(encoding="utf-8"))):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            found += [alias.name for alias in node.names if alias.name.split(".")[-1] in ("checks", "ConfigError")]
            found += ["checks"] if getattr(node, "module", None) == "replicasim.checks" else []
        elif isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) == "open":
            found.append(f"open at line {node.lineno}")
    assert found == []
    from replicasim.metrics import ALL_MEASURES, CSV_COLUMNS
    assert CSV_COLUMNS == ("session_id", "condition", "seed", *ALL_MEASURES)


def test_only_the_json_parse_catches_any_value_error():
    """Outside ``checks.loads`` no ``except`` clause names ``ValueError``,
    ``RecursionError``, ``Exception`` or ``BaseException``, and none is bare:
    bad input is a ``ConfigError``, so a broader catch would report a program
    fault as bad input."""
    broad = {"ValueError", "RecursionError", "Exception", "BaseException"}
    found = []
    for module in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(module.read_text(encoding="utf-8"))
        exempt = {
            id(node)
            for function in tree.body
            if module.name == "checks.py" and isinstance(function, ast.FunctionDef) and function.name == "loads"
            for node in ast.walk(function)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.ExceptHandler) and id(node) not in exempt:
                types = ast.walk(node.type) if node.type else [ast.Name("BaseException")]  # a bare except
                caught = {getattr(n, "id", getattr(n, "attr", None)) for n in types} & broad
                found += [f"{module.name}:{node.lineno} {name}" for name in sorted(caught)]
    assert found == []


def bench_references() -> list[tuple[str, str, str]]:
    """``(file:line, module, dotted name)`` for each name the benchmark takes
    from replicasim, read from its source: each ``from replicasim[.m] import X``,
    each ``X.Y`` on a name ``X`` so imported, and each ``bench/tracer.py``
    ``TIMED`` entry."""
    refs = []
    for path in sorted((ROOT / "bench").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "replicasim":
                for alias in node.names:
                    refs.append((f"{path.name}:{node.lineno}", node.module, alias.name))
                    imported[alias.asname or alias.name] = (node.module, alias.name)
            elif path.name == "tracer.py" and isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "TIMED":
                for module, names in ast.literal_eval(node.value).items():
                    refs += [(f"{path.name}:{node.lineno}", f"replicasim.{module}", name) for name in names]
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in imported:
                module, name = imported[node.value.id]
                refs.append((f"{path.name}:{node.lineno}", module, f"{name}.{node.attr}"))
    return refs


def resolves(module: str, dotted: str) -> bool:
    obj = importlib.import_module(module)
    for part in dotted.split("."):
        try:  # an attribute, or a submodule that nothing has imported yet
            obj = getattr(obj, part) if hasattr(obj, part) else importlib.import_module(f"{obj.__name__}.{part}")
        except (AttributeError, ImportError):
            return False
    return True


def test_every_name_the_benchmark_uses_resolves():
    """The benchmark is read here, not run: a name it uses that the package no
    longer has would otherwise show only as a failed workload."""
    refs = bench_references()
    # one of each kind: an import, an attribute of an imported module, a TIMED entry
    assert {(module, dotted) for _, module, dotted in refs} >= {
        ("replicasim", "protocol"), ("replicasim", "protocol.Envelope"), ("replicasim.netsim", "World.send")}
    assert [f"{where} {dotted}" for where, module, dotted in refs if not resolves(module, dotted)] == []


def test_only_checks_writes_json():
    """``checks.dumps`` is the program's one JSON writer: no other module calls
    ``json.dumps`` or ``json.dump`` or builds a ``JSONEncoder``."""
    writers = {"dumps", "dump", "JSONEncoder"}
    found = []
    for module in sorted(PACKAGE.glob("*.py")):
        if module.name == "checks.py":
            continue
        for node in ast.walk(ast.parse(module.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr in writers and getattr(node.value, "id", None) == "json":
                found.append(f"{module.name}:{node.lineno} json.{node.attr}")
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "json":
                found += [f"{module.name}:{node.lineno} {a.name}" for a in node.names if a.name in writers]
            elif isinstance(node, ast.Name) and node.id == "JSONEncoder":
                found.append(f"{module.name}:{node.lineno} JSONEncoder")
    assert found == []


def stdlib_dumps(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def test_dumps_matches_the_stdlib_on_the_default_corpus():
    # The corpus of ``simulate``'s defaults: every log line, and every envelope
    # that the sessions send, parsed back and written again.
    model = default_model()
    plan = scenario.build_default_plan(scenario.valve_registry(model))
    profiles = scenario.default_profiles()
    lines = envelopes = 0
    for condition, count in ((scenario.Condition.TABLET, 19), (scenario.Condition.HMD, 20)):
        for i in range(count):
            seed = derive_seed(0, f"session:{condition.value}:{i}")
            log = scenario.run_session(plan, condition, profiles[condition], seed=seed, model=model)
            for line in scenario.session_log_to_jsonl(log).splitlines():
                doc = json.loads(line)
                assert checks.dumps(doc) == stdlib_dumps(doc) == line
                lines += 1
            for entry in log.transcript:
                doc = entry.to_dict()
                assert checks.dumps(doc) == stdlib_dumps(doc)
                envelopes += 1
    assert lines > 39 * 40 and envelopes > 39 * 30


@pytest.mark.parametrize("payload", [
    protocol.Avatar(protocol.AvatarState("op", Role.OPERATOR, Pose((0.1, 1.7, -0.2)), (0.0, 0.6, 0.8))),
    protocol.SyncReq(protocol.SyncRequest("op", Role.OPERATOR, 3, (
        SetValveState("1V1", ValveState.OPEN, Role.OPERATOR, 1), SetIndication("2V4", False, Role.OPERATOR, 2)))),
    protocol.SyncCommit((SetIndication("2V4", True, Role.EXPERT, 2),), 4),
    protocol.Instruction("set valve 1V1 to Open", "1V1", ValveState.OPEN),
    protocol.ReportTemperature(),
    protocol.StepDone(41.25),
    protocol.CallStart(),
    protocol.CallEnd(),
    protocol.MediaSignal(bytes(range(256))),
], ids=lambda payload: type(payload).__name__)
def test_dumps_matches_the_stdlib_on_each_payload_kind(payload):
    doc = envelope_to_dict(Envelope("op", 7, "room-\u00e9", payload, 9))
    assert checks.dumps(doc) == stdlib_dumps(doc)


def test_dumps_matches_the_stdlib_on_a_model_and_at_the_edges():
    model = default_model()
    assert canonical_json(model) == stdlib_dumps(json.loads(canonical_json(model)))
    edges = [math.nan, math.inf, -math.inf, -0.0, 1e300, 2**64, "", "caf\u00e9 \u2603 \U0001f600", "\"\\\n",
             {"b": [None, True, False, 1.5], "a": {"z": {}, "y": []}}, {3: "three", 1: "one"}]
    for value in edges:
        assert checks.dumps(value) == stdlib_dumps(value)
    assert checks.dumps([math.nan, "\u00e9"]) == '[NaN,"\\u00e9"]'  # NaN as before, non-ASCII escaped


def test_dumps_refuses_what_the_stdlib_refuses():
    with pytest.raises(TypeError) as ours:
        checks.dumps({"a": [object()]})
    with pytest.raises(TypeError) as theirs:
        stdlib_dumps({"a": [object()]})
    assert str(ours.value) == str(theirs.value) == "Object of type object is not JSON serializable"
    circular: list = []
    circular.append(circular)
    with pytest.raises(RecursionError):  # no cycle markers; json.dumps raises ValueError here
        checks.dumps(circular)


def test_dumps_falls_back_to_the_encoder_method_without_the_accelerator():
    probe = ("import json, json.encoder\njson.encoder.c_make_encoder = None\nfrom replicasim import checks\n"
             "assert checks.dumps.__func__ is json.JSONEncoder.encode\n"
             "print(checks.dumps({'b': [float('nan'), 'caf\\u00e9'], 'a': 1}))")
    proc = subprocess.run([sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == '{"a":1,"b":[NaN,"caf\\u00e9"]}\n'
