import ast
import importlib
import os
import re
import subprocess
import sys
import zipfile
from pathlib import Path

import replicasim
from replicasim.scenario import default_model

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
