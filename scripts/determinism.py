"""Same seed, same bytes: run one simulate/analyze pair under every local Python 3.

Usage: python3 scripts/determinism.py

For each ``python3.X`` with X >= 10 that ``PATH`` finds and that starts (a
pyenv shim starts any installed pyenv version that has it), and for each of two
``PYTHONHASHSEED`` values, it runs ``simulate --sessions 5:11 --seed 424242``
and then ``analyze --histograms`` on its ``metrics.csv``, each in a fresh
process, and digests the output tree. It prints one row per run, then the
interpreters it looked for and did not find. The exit code is 0 when every
run wrote the same tree, 1 when two trees differ or a command failed, and 2
when none was found. ``report.md`` and ``report.csv`` should match
criterion 9's ``ANALYZE_424242_DIGESTS["5:11"]`` in ``tests/test_acceptance.py``.
"""
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
MINORS = range(10, 15)  # requires-python >= 3.10, up to the newest release looked for
HASH_SEEDS = ("0", "987654")
SIMULATE = ["simulate", "--sessions", "5:11", "--seed", "424242"]


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def tree_digest(root: Path) -> str:
    """One sha256 over every file's relative path and content digest, in path order."""
    files = sorted(file for file in root.rglob("*") if file.is_file())
    lines = [f"{file.relative_to(root).as_posix()} {digest(file)}\n" for file in files]
    return hashlib.sha256("".join(lines).encode("utf-8")).hexdigest()


def run_pair(python: str, hash_seed: str, out: Path) -> str:
    """The pair of commands under ``python``; an error message, or '' when both exit 0."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=hash_seed)
    analyze = ["analyze", str(out / "metrics.csv"), "--out", str(out), "--histograms"]
    for argv in ([*SIMULATE, "--out", str(out)], analyze):
        proc = subprocess.run([python, "-m", "replicasim.cli", *argv], env=env, capture_output=True, text=True,
                              timeout=300)
        if proc.returncode != 0:
            return f"{argv[0]} exited {proc.returncode}: {proc.stderr.strip().splitlines()[-1:]}"
    return ""


def shim_env() -> dict:
    """The environment with every installed pyenv version active, so that a pyenv
    shim on PATH starts a python3.X of any of them, not only of the selected one."""
    env = dict(os.environ)
    if shutil.which("pyenv"):
        proc = subprocess.run(["pyenv", "versions", "--bare"], capture_output=True, text=True, timeout=60)
        versions = [v for v in proc.stdout.split() if v != "system"]
        if proc.returncode == 0 and versions:
            env["PYENV_VERSION"] = ":".join(versions)
    return env


def resolve(name: str, env: dict):
    """``(executable, version)`` of the first ``name`` on PATH that starts, or None."""
    probe = "import platform, sys; print(sys.executable); print(platform.python_version())"
    for directory in os.get_exec_path():
        path = os.path.join(directory, name)
        if os.path.isfile(path) and os.access(path, os.X_OK):
            proc = subprocess.run([path, "-c", probe], env=env, capture_output=True, text=True, timeout=60)
            if proc.returncode == 0:
                executable, release = proc.stdout.splitlines()
                return executable, release
    return None


def main() -> int:
    env = shim_env()
    found = {f"python3.{x}": resolve(f"python3.{x}", env) for x in MINORS}
    interpreters = {name: hit for name, hit in found.items() if hit}
    if not interpreters:
        print(f"no python3.X with X in {MINORS.start}..{MINORS.stop - 1} starts from PATH")
        return 2
    print(f"{'interpreter':<12} {'version':<8} {'hashseed':<8} {'tree':<16} {'report.md':<16} {'report.csv':<16}")
    trees, failed = set(), False
    with tempfile.TemporaryDirectory() as tmp:
        for name, (executable, release) in interpreters.items():
            for hash_seed in HASH_SEEDS:
                out = Path(tmp) / f"{name}-{hash_seed}"
                error = run_pair(executable, hash_seed, out)
                if error:
                    failed = True
                    print(f"{name:<12} {release:<8} {hash_seed:<8} FAILED {error}")
                    continue
                tree = tree_digest(out)
                trees.add(tree)
                print(f"{name:<12} {release:<8} {hash_seed:<8} {tree[:16]} "
                      f"{digest(out / 'report.md')[:16]} {digest(out / 'report.csv')[:16]}")
    for name, (executable, _) in interpreters.items():
        print(f"ran {name}: {executable}")
    missing = [name for name, hit in found.items() if not hit]
    print(f"not found on PATH: {', '.join(missing) if missing else 'none'}")
    runs = len(interpreters) * len(HASH_SEEDS)
    if failed or len(trees) > 1:
        print(f"DIFFER: {len(trees)} distinct trees over {runs} runs")
        return 1
    print(f"same bytes: {runs} runs on {len(interpreters)} interpreters wrote one tree")
    return 0


if __name__ == "__main__":
    sys.exit(main())
