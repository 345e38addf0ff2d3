import ast
import re
from pathlib import Path

import replicasim

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
