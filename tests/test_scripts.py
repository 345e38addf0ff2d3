import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_ab_runs_one_round_with_this_checkout_on_both_sides():
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "ab.py"), str(ROOT), str(ROOT), "--rounds", "1"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split()[0] for line in lines[1:7]] == ["small", "large", "tablet", "hmd", "tablet-link", "hmd-link"]
    assert all(line.split()[-1] in ("0/1", "1/1") for line in lines[1:7])
    assert lines[-1] == "reports: same; session logs: same"


def test_ab_refuses_a_directory_without_sources(tmp_path):
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "ab.py"), str(tmp_path), str(ROOT)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2 and "holds no src/replicasim" in proc.stderr


def test_ab_exits_1_when_the_reports_differ(tmp_path):
    shutil.copytree(ROOT / "src" / "replicasim", tmp_path / "src" / "replicasim",
                    ignore=shutil.ignore_patterns("__pycache__"))
    report = tmp_path / "src" / "replicasim" / "report.py"
    report.write_text(report.read_text(encoding="utf-8").replace("# Session analysis", "# Analysis"), encoding="utf-8")
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "ab.py"), str(ROOT), str(tmp_path), "--rounds", "1"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout.splitlines()[-1] == "reports: DIFFER; session logs: same"


def test_startup_runs_one_pair_with_this_checkout_on_both_sides():
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "startup.py"), str(ROOT), str(ROOT), "--pairs", "1"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split()[:2] for line in lines if line.startswith(("simulate ", "analyze "))] == [
        ["simulate", "parent"], ["simulate", "change"], ["analyze", "parent"], ["analyze", "change"]]
    assert lines[-1] == "outputs: same"


def test_startup_refuses_a_directory_without_sources(tmp_path):
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "startup.py"), str(ROOT), str(tmp_path)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2 and "holds no src/replicasim" in proc.stderr


def test_startup_exits_1_when_the_outputs_differ(tmp_path):
    shutil.copytree(ROOT / "src" / "replicasim", tmp_path / "src" / "replicasim",
                    ignore=shutil.ignore_patterns("__pycache__"))
    report = tmp_path / "src" / "replicasim" / "report.py"
    report.write_text(report.read_text(encoding="utf-8").replace("# Session analysis", "# Analysis"), encoding="utf-8")
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "startup.py"), str(ROOT), str(tmp_path),
                           "--pairs", "1"], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout.splitlines()[-1] == "outputs: DIFFER in pairs [0]"
