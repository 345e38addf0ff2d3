import hashlib
import json
import os
from pathlib import Path

import pytest

from replicasim.cli import EXIT_CHECK_FAILED, EXIT_CONFIG, EXIT_OK, main
from replicasim.report import REFERENCE_CONSTANTS, read_metrics_csv, run_reference_checks


def run_cli(*args):
    return main(list(args))


def dir_digest(path: Path) -> dict:
    digests = {}
    for file in sorted(path.rglob("*")):
        if file.is_file():
            digests[str(file.relative_to(path))] = hashlib.sha256(file.read_bytes()).hexdigest()
    return digests


@pytest.fixture
def quick_profiles(tmp_path):
    profile = {
        "p_simple": 0.1,
        "p_critical": 0.02,
        "p_repeat": 0.01,
        "identify_latency_ms": [1500, 300],
        "manipulate_latency_1h_ms": [1200, 200],
        "manipulate_latency_2h_ms": [2000, 300],
        "describe_latency_ms": [3000, 500],
        "tablet_putdown_penalty_ms": 800,
    }
    fast_tablet = dict(profile)
    fast_hmd = dict(profile, p_simple=0.01, identify_latency_ms=[1000, 200], describe_latency_ms=[2500, 400])
    path = tmp_path / "profiles.json"
    path.write_text(json.dumps({"tablet": fast_tablet, "hmd": fast_hmd}), encoding="utf-8")
    return str(path)


class TestSimulate:
    def test_run_twice_byte_identical(self, tmp_path, quick_profiles):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            code = run_cli("simulate", "--sessions", "1", "--condition", "hmd", "--seed", "1",
                           "--profile", quick_profiles, "--out", str(out))
            assert code == EXIT_OK
        assert dir_digest(out1) == dir_digest(out2)

    def test_zero_sessions_is_config_error(self, tmp_path):
        code = run_cli("simulate", "--sessions", "0", "--out", str(tmp_path / "x"))
        assert code == EXIT_CONFIG

    def test_default_corpus_has_39_rows(self, tmp_path):
        out = tmp_path / "corpus"
        code = run_cli("simulate", "--seed", "7", "--out", str(out))
        assert code == EXIT_OK
        rows = read_metrics_csv(str(out / "metrics.csv"))
        assert len(rows) == 39
        assert sum(1 for r in rows if r["condition"] == "tablet") == 19
        assert sum(1 for r in rows if r["condition"] == "hmd") == 20
        assert len(list(out.glob("session_*.jsonl"))) == 39

    def test_split_session_counts(self, tmp_path, quick_profiles):
        out = tmp_path / "split"
        code = run_cli("simulate", "--sessions", "2:3", "--seed", "3",
                       "--profile", quick_profiles, "--out", str(out))
        assert code == EXIT_OK
        rows = read_metrics_csv(str(out / "metrics.csv"))
        assert sum(1 for r in rows if r["condition"] == "tablet") == 2
        assert sum(1 for r in rows if r["condition"] == "hmd") == 3

    def test_env_seed_fallback(self, tmp_path, quick_profiles, monkeypatch):
        out1, out2 = tmp_path / "env", tmp_path / "flag"
        monkeypatch.setenv("REPLICA_SYNC_SEED", "55")
        assert run_cli("simulate", "--sessions", "1", "--condition", "tablet",
                       "--profile", quick_profiles, "--out", str(out1)) == EXIT_OK
        monkeypatch.delenv("REPLICA_SYNC_SEED")
        assert run_cli("simulate", "--sessions", "1", "--condition", "tablet", "--seed", "55",
                       "--profile", quick_profiles, "--out", str(out2)) == EXIT_OK
        assert dir_digest(out1) == dir_digest(out2)

    def test_bad_plan_path(self, tmp_path):
        code = run_cli("simulate", "--plan", str(tmp_path / "missing.json"), "--out", str(tmp_path / "x"))
        assert code == EXIT_CONFIG


LOG_HEADER = '{"record":"session","condition":"hmd","seed":1}\n'


@pytest.mark.parametrize(
    "option, text",
    [
        ("--plan", "{not json"),
        ("--plan", '{"parts": [{"name": "inspect_system"}]}'),
        ("--plan", "[]"),
        ("--model", "{not json"),
        ("--routing", "{not json"),
        ("--routing", '{"rows": [{"exchanger": "Nope", "flow": "CounterFlow", "requires": {}, "effectiveness": 0.5}]}'),
        ("--profile", "{not json"),
        ("replay", LOG_HEADER + "{not json\n"),
        ("replay", LOG_HEADER + '{"record":"event","kind":"CallStart"}\n'),
    ],
    ids=["plan-json", "plan-missing-key", "plan-not-object", "model-json", "routing-json", "routing-enum",
         "profile-json", "replay-json", "replay-missing-key"],
)
def test_malformed_input_is_config_error(tmp_path, capsys, option, text):
    bad = tmp_path / "malformed_input.json"
    bad.write_text(text, encoding="utf-8")
    if option == "replay":
        code = run_cli("replay", str(bad))
    else:
        code = run_cli("simulate", "--sessions", "1", option, str(bad), "--out", str(tmp_path / "out"))
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert "Traceback" not in err
    assert bad.name in err


class TestAnalyze:
    def make_corpus(self, tmp_path, quick_profiles, sessions="4:4", seed="11"):
        out = tmp_path / "corpus"
        assert run_cli("simulate", "--sessions", sessions, "--seed", seed,
                       "--profile", quick_profiles, "--out", str(out)) == EXIT_OK
        return out

    def test_calibrated_corpus_flags_total_time(self, tmp_path):
        # Default profiles carry the study-sized effect; the pipeline must see it.
        out = tmp_path / "corpus"
        assert run_cli("simulate", "--seed", "13", "--out", str(out)) == EXIT_OK
        assert run_cli("analyze", str(out / "metrics.csv"), "--out", str(out)) == EXIT_OK
        report_csv = (out / "report.csv").read_text(encoding="utf-8").splitlines()
        header = report_csv[0].split(",")
        rows = {line.split(",")[0]: dict(zip(header, line.split(","))) for line in report_csv[1:]}
        assert float(rows["total_s"]["p_value"]) < 0.01

    def test_identical_groups_not_significant(self, tmp_path):
        header = "session_id,condition,seed,total_s,one_handed_s,two_handed_s,simple,critical,repetition,weighted_total"
        lines = [header]
        values = [700.0, 710.0, 695.0, 705.0, 720.0, 690.0, 700.5, 707.0]
        for cond in ("tablet", "hmd"):
            for i, v in enumerate(values):
                lines.append(f"{cond}-{i:03d},{cond},{i},{v},{v / 4},{v / 5},0,0,0,0")
        csv_path = tmp_path / "same.csv"
        csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert run_cli("analyze", str(csv_path), "--out", str(tmp_path)) == EXIT_OK
        report = (tmp_path / "report.md").read_text(encoding="utf-8")
        test_rows = [line for line in report.splitlines() if "| ANOVA |" in line or "| MWW |" in line]
        assert test_rows
        assert all(line.rstrip().endswith("no |") for line in test_rows)

    def test_single_condition_summary_only(self, tmp_path, quick_profiles):
        out = tmp_path / "single"
        assert run_cli("simulate", "--sessions", "3", "--condition", "hmd", "--seed", "5",
                       "--profile", quick_profiles, "--out", str(out)) == EXIT_OK
        assert run_cli("analyze", str(out / "metrics.csv"), "--out", str(out)) == EXIT_OK
        report = (out / "report.md").read_text(encoding="utf-8")
        assert "Group summaries" in report
        assert "Tests (" not in report  # no between-group section

    def test_malformed_row_names_line(self, tmp_path, capsys):
        csv_path = tmp_path / "bad.csv"
        csv_path.write_text(
            "session_id,condition,seed,total_s,one_handed_s,two_handed_s,simple,critical,repetition,weighted_total\n"
            "s1,tablet,1,700,150,120,0,0,0,0\n"
            "s2,tablet,1,not-a-number,150,120,0,0,0,0\n",
            encoding="utf-8",
        )
        assert run_cli("analyze", str(csv_path)) == EXIT_CONFIG
        assert "line 3" in capsys.readouterr().err

    def test_histograms_written(self, tmp_path, quick_profiles):
        out = self.make_corpus(tmp_path, quick_profiles)
        assert run_cli("analyze", str(out / "metrics.csv"), "--out", str(out), "--histograms") == EXIT_OK
        svgs = list(out.glob("hist_*.svg"))
        assert svgs and all(s.read_text(encoding="utf-8").startswith("<svg") for s in svgs)


class TestReplay:
    def test_replay_round_trip(self, tmp_path, quick_profiles, capsys):
        out = tmp_path / "corpus"
        assert run_cli("simulate", "--sessions", "1", "--condition", "hmd", "--seed", "2",
                       "--profile", quick_profiles, "--out", str(out)) == EXIT_OK
        log = next(out.glob("session_*.jsonl"))
        assert run_cli("replay", str(log)) == EXIT_OK
        printed = capsys.readouterr().out
        assert "condition=hmd" in printed and "errors:" in printed

    def test_malformed_log_rejected(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"record":"session","condition":"hmd","seed":1}\n'
                       '{"record":"event","t_ms":0,"kind":"Instruction"}\n', encoding="utf-8")
        assert run_cli("replay", str(bad)) == EXIT_CONFIG


class TestPaperCheck:
    def test_fresh_build_passes(self, capsys):
        assert run_cli("paper-check") == EXIT_OK
        out = capsys.readouterr().out
        assert "FAIL" not in out
        for token in ("36.6", "64", "18.35", "24.24", "27.84", "92.58", "93.88", "83.33"):
            assert token in out

    def test_tampered_constant_fails(self, tmp_path, capsys):
        tampered = json.loads(json.dumps(REFERENCE_CONSTANTS))
        tampered["weighted_totals"][0]["expected"] = 63
        path = tmp_path / "constants.json"
        path.write_text(json.dumps(tampered), encoding="utf-8")
        assert run_cli("paper-check", "--constants", str(path)) == EXIT_CHECK_FAILED
        assert "FAIL" in capsys.readouterr().out

    def test_reference_checks_cover_all_items(self):
        results = run_reference_checks()
        assert len(results) == 9
        assert all(r.passed for r in results)
