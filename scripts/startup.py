"""Start-up A/B of two checkouts: ``simulate`` then ``analyze`` as fresh processes, and the same bytes.

Usage: python3 scripts/startup.py PARENT CHANGE [--pairs N]

PARENT and CHANGE are checkouts, each with its package in ``src/replicasim``.
Each pair runs ``python -m replicasim.cli simulate`` on the default corpus in
each tree, then ``analyze`` on the ``metrics.csv`` that tree wrote, each as a
fresh child with ``PYTHONDONTWRITEBYTECODE=1``, as the benchmark's cli-study
does. The tree that runs first alternates from pair to pair. This is what
``scripts/ab.py``, which imports both trees into one process, cannot see:
interpreter start, imports, and the peak memory of a whole command.

For each command and tree it prints the median and quartiles of the wall time
(ms) and of the child's ``ru_maxrss`` (MB), and in how many pairs CHANGE read
lower. On Linux a process's peak resident size starts at the peak of the
process it was exec'd from, so each child is started by a small launcher run
with ``-S -I``, not by this script. It prints that floor first, the peak of a
bare ``-S -I`` interpreter started the same way: a reading at the floor is not
the command's own. This script imports no ``replicasim``.

A tree's ``src/replicasim/__pycache__``, if any, is read as usual; the script
names such a tree, since cached bytecode moves both readings. The exit code is
0, 1 when the two trees write different files, or 2 when a tree holds no
``src/replicasim``.
"""
import argparse
import filecmp
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

COMMANDS = ("simulate", "analyze")
TIMEOUT_S = 120
# Spawns argv[1:] with its stdout discarded, waits, and prints exit code, wall seconds and peak KiB.
LAUNCHER = """import os, sys, time
start = time.perf_counter()
pid = os.posix_spawn(sys.executable, sys.argv[1:], os.environ,
                     file_actions=[(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)])
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), time.perf_counter() - start, usage.ru_maxrss)
"""


def launch(argv: list, cwd: Path = None, src: Path = None) -> tuple:
    """Wall ms and peak MB of ``python *argv``, on the package in ``src`` if given."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", **({"PYTHONPATH": str(src)} if src else {}))
    proc = subprocess.run([sys.executable, "-S", "-I", "-c", LAUNCHER, sys.executable, *argv],
                          cwd=cwd, env=env, stdout=subprocess.PIPE, text=True, timeout=TIMEOUT_S)
    code, wall_s, kib = proc.stdout.split()
    if proc.returncode or int(code):
        raise SystemExit(f"python {' '.join(argv[:3])} failed in {src} (exit {code})")
    return float(wall_s) * 1000, int(kib) / 1024


def cli(src: Path, cwd: Path, *argv: str) -> tuple:
    return launch(["-m", "replicasim.cli", *argv], cwd, src)


def same_files(a: Path, b: Path) -> bool:
    names = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    if names != sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file()):
        return False
    return all(filecmp.cmp(a / name, b / name, shallow=False) for name in names)


def spread(values: tuple) -> str:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return f"{median:.1f} [{q1:.1f}, {q3:.1f}]"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--pairs", type=int, default=5)
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    trees = {"parent": args.parent, "change": args.change}
    for name, tree in trees.items():
        if not (tree / "src" / "replicasim").is_dir():
            print(f"{name} {tree} holds no src/replicasim", file=sys.stderr)
            return 2
        if (tree / "src" / "replicasim" / "__pycache__").is_dir():
            print(f"note: {name} {tree} holds src/replicasim/__pycache__; its children read cached bytecode")
    srcs = {name: (tree / "src").resolve() for name, tree in trees.items()}
    print(f"floor: a bare interpreter started the same way peaks at {launch(['-S', '-I', '-c', 'pass'])[1]:.1f} MB")
    readings = {(command, name): [] for command in COMMANDS for name in trees}
    differ = []
    for pair in range(args.pairs):
        order = list(trees) if pair % 2 == 0 else list(trees)[::-1]
        with tempfile.TemporaryDirectory() as scratch:
            out = {name: Path(scratch) / name for name in trees}
            for name in order:
                out[name].mkdir()
                readings["simulate", name].append(cli(srcs[name], out[name], "simulate", "--out", "sim"))
            for name in order:
                argv = ("analyze", "sim/metrics.csv", "--out", "report")
                readings["analyze", name].append(cli(srcs[name], out[name], *argv))
            if not same_files(out["parent"], out["change"]):
                differ.append(pair)
    print(f"{'command':9} {'tree':7} {'wall ms':>22} {'peak MB':>20}  change lower (wall, peak)")
    for command in COMMANDS:
        for name in trees:
            walls, peaks = zip(*readings[command, name])
            lower = ""
            if name == "change":
                pairs = list(zip(readings[command, "parent"], readings[command, "change"]))
                lower = "  ".join(f"{sum(c[i] < p[i] for p, c in pairs)}/{len(pairs)}" for i in (0, 1))
            print(f"{command:9} {name:7} {spread(walls):>22} {spread(peaks):>20}  {lower}")
    print("outputs: " + (f"DIFFER in pairs {differ}" if differ else "same"))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
