"""Line trace of the package under pytest: which lines of ``src/replicasim`` no test reached.

Usage: python3 scripts/linetrace.py [PYTEST ARGS...]

Runs pytest in this process with the arguments given, under a stdlib
``sys.settrace`` hook that records each line run in ``src/replicasim/*.py``.
Then it prints, as ``file:line`` relative to the checkout, every executable
line of those files that no test reached, and a count. A line is executable
when the compiled module's line table names it. Code the package compiles at
run time (``<codec …>``, ``<record …>``) has no file and is skipped; a function
copied from a source function keeps that function's lines. Lines run only in a
child process, as a test that starts the CLI as a subprocess does, are not
seen. The exit code is pytest's. The script takes no options of its own.
"""
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "replicasim"


def executable_lines(path: Path) -> set[int]:
    lines, codes = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        codes.extend(const for const in code.co_consts if hasattr(const, "co_lines"))
    return lines


def main(args: list[str]) -> int:
    files = {str(path): path for path in sorted(PACKAGE.glob("*.py"))}
    reached = {name: set() for name in files}

    def trace(frame, event, arg):
        lines = reached.get(frame.f_code.co_filename)
        if lines is None:  # not a package file: trace none of this frame's lines
            return None
        lines.add(frame.f_lineno)
        return trace

    sys.path.insert(0, str(PACKAGE.parent))
    sys.settrace(trace)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)

    missed = [(path, line) for name, path in files.items() for line in sorted(executable_lines(path) - reached[name])]
    for path, line in missed:
        print(f"{path.relative_to(ROOT)}:{line}")
    print(f"{len(missed)} executable lines of src/replicasim unreached")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
