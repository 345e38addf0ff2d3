import csv
import hashlib
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
from importlib import resources
from pathlib import Path
from statistics import NormalDist

import pytest

from replicasim import ConfigError, checks, metrics, plant, scenario, stats
from replicasim.cli import EXIT_CHECK_FAILED, EXIT_CONFIG, EXIT_OK, main
from replicasim.report import (
    ALL_MEASURES,
    HISTOGRAM_BINS,
    REFERENCE_CONSTANTS,
    analyze_rows,
    read_metrics_csv,
    render_markdown,
    render_svg_histogram,
    run_reference_checks,
)
from replicasim.scenario import (
    Condition,
    build_default_plan,
    default_model,
    default_profiles,
    run_session,
    session_log_to_jsonl,
    valve_registry,
)
from replicasim.stats import _shapiro_wilk_weights


SRC = Path(__file__).resolve().parent.parent / "src"


LOG_HEADER = '{"record":"session","condition":"hmd","seed":1}\n'


def run_cli(*args):
    return main(list(args))


SIMULATOR = {f"replicasim.{m}" for m in ("scene", "replica", "protocol", "netsim", "plant", "scenario")}


def fresh_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def modules_after(code: str, *flags: str) -> set[str]:
    """Module names in sys.modules once ``code`` has run in a fresh interpreter started with ``flags``."""
    probe = code + "\nimport sys\nprint(' '.join(sorted(sys.modules)))"
    proc = subprocess.run([sys.executable, *flags, "-c", probe], env=fresh_env(), capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


def top_level(modules: set[str]) -> set[str]:
    return {m.split(".")[0] for m in modules}


def cli_process(*args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "replicasim.cli", *args], env=fresh_env(),
                          capture_output=True, text=True, timeout=120)


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


class TestStartupImports:
    """The CLI runs on the standard library; numpy and scipy are test-only oracles."""

    def test_import_cli_loads_no_numpy_or_scipy(self):
        assert not top_level(modules_after("import replicasim.cli")) & {"numpy", "scipy"}

    def test_simulate_and_analyze_load_no_numpy_or_scipy(self, tmp_path):
        out = str(tmp_path / "corpus")
        code = (
            "from replicasim.cli import main\n"
            f"assert main(['simulate', '--sessions', '3:3', '--seed', '1', '--out', {out!r}]) == 0\n"
            f"assert main(['analyze', '--histograms', {out + '/metrics.csv'!r}]) == 0"
        )
        assert not top_level(modules_after(code)) & {"numpy", "scipy"}


class TestCommandImports:
    """Each command loads only the layers it runs; counted in fresh interpreters, not timed."""

    @pytest.fixture(scope="class")
    def corpus(self, tmp_path_factory):
        # Written by a separate process, so the probes below load only what their command needs.
        out = tmp_path_factory.mktemp("corpus")
        proc = cli_process("simulate", "--sessions", "3:3", "--seed", "1", "--out", str(out))
        assert proc.returncode == EXIT_OK, proc.stderr
        return out

    def test_import_package_loads_no_submodule(self):
        assert not {m for m in modules_after("import replicasim") if m.startswith("replicasim.")}

    def test_analyze_loads_no_simulator(self, corpus, tmp_path):
        argv = ["analyze", "--histograms", str(corpus / "metrics.csv"), "--out", str(tmp_path)]
        loaded = modules_after(f"from replicasim.cli import main\nassert main({argv!r}) == 0")
        assert "replicasim.report" in loaded
        assert not loaded & SIMULATOR

    def test_paper_check_loads_no_simulator(self):
        loaded = modules_after("from replicasim.cli import main\nassert main(['paper-check']) == 0")
        assert "replicasim.report" in loaded
        assert not loaded & SIMULATOR

    def test_replay_loads_no_report_or_stats(self, corpus):
        log = str(sorted(corpus.glob("session_*.jsonl"))[0])
        loaded = modules_after(f"from replicasim.cli import main\nassert main(['replay', {log!r}]) == 0")
        assert "replicasim.metrics" in loaded
        assert not loaded & SIMULATOR
        assert not loaded & {"replicasim.report", "replicasim.stats"}

    def test_import_metrics_loads_only_checks_and_records(self):
        # The session-log format and the scores read from logs stand on the field checks alone.
        loaded = {m for m in modules_after("import replicasim.metrics") if m.startswith("replicasim.")}
        assert loaded == {"replicasim.metrics", "replicasim.checks", "replicasim.records"}

    def test_simulate_loads_no_report_or_stats(self, tmp_path):
        argv = ["simulate", "--sessions", "1", "--out", str(tmp_path)]
        loaded = modules_after(f"from replicasim.cli import main\nassert main({argv!r}) == 0")
        assert SIMULATOR <= loaded
        assert not loaded & {"replicasim.report", "replicasim.stats", "statistics", "dataclasses"}

    def test_simulate_reads_package_data_without_importlib_resources(self, tmp_path):
        # -S: without site, no .pth file can load importlib.resources first.
        argv = ["simulate", "--sessions", "1", "--out", str(tmp_path)]
        loaded = modules_after(f"from replicasim.cli import main\nassert main({argv!r}) == 0", "-S")
        assert "replicasim.scenario" in loaded
        assert "importlib.resources" not in loaded

    @pytest.mark.skipif(not any(map(importlib.util.find_spec, ("_sha2", "_sha256"))),
                        reason="no built-in SHA-256 module: netsim falls back to hashlib")
    def test_simulate_loads_no_openssl(self, tmp_path):
        # hashlib loads OpenSSL's _hashlib, about 2.5 MB of peak memory in a fresh process.
        argv = ["simulate", "--sessions", "1", "--out", str(tmp_path)]
        loaded = modules_after(f"from replicasim.cli import main\nassert main({argv!r}) == 0")
        assert "replicasim.netsim" in loaded
        assert not loaded & {"hashlib", "_hashlib"}

    def test_wire_codecs_compile_on_first_use(self):
        probe = (
            "import builtins\n"
            "names, _compile = [], builtins.compile\n"
            "def spy(source, filename, *args, **kwargs):\n"
            "    names.append(filename)\n"
            "    return _compile(source, filename, *args, **kwargs)\n"
            "builtins.compile = spy\n"
            "import replicasim.scenario\n"
            "from replicasim import protocol\n"
            "at_import = sum(name.startswith('<codec ') for name in names)\n"
            "protocol.encode_envelope(protocol.Envelope('a', 1, 'r', protocol.CallStart()))\n"
            "print(at_import, sum(name.startswith('<codec ') for name in names),\n"
            "      protocol.envelope_to_dict.__code__.co_filename)\n"
        )
        proc = subprocess.run([sys.executable, "-c", probe], env=fresh_env(), capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        at_import, after_encode, encoder_code = proc.stdout.strip().split(maxsplit=2)
        assert int(at_import) == 0
        assert int(after_encode) > 0
        # The encoder that protocol holds now runs the compiled body as its own code.
        assert encoder_code == "<codec Envelope>"

    @pytest.mark.parametrize(
        "option, text",
        [("--model", '{"nodes": [{"id": "V1", "kind": "Bogus"}]}'), ("replay", LOG_HEADER)],
        ids=["model-unknown-kind", "replay-header-only"],
    )
    def test_malformed_input_exits_2_in_fresh_process(self, tmp_path, option, text):
        # In process every layer is already imported. A fresh process checks that main
        # still recognises an error raised by a layer the command imports when it runs.
        bad = tmp_path / "malformed_input.json"
        bad.write_text(text, encoding="utf-8")
        if option == "replay":
            proc = cli_process("replay", str(bad))
        else:
            proc = cli_process("simulate", "--sessions", "1", option, str(bad), "--out", str(tmp_path / "out"))
        assert proc.returncode == EXIT_CONFIG
        assert "Traceback" not in proc.stderr
        assert bad.name in proc.stderr


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

    def test_bad_plan_path(self, tmp_path):
        code = run_cli("simulate", "--plan", str(tmp_path / "missing.json"), "--out", str(tmp_path / "x"))
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize(
        "option, value",
        [("--sessions", "١:٢"), ("--sessions", "+1:1_0"), ("--sessions", " 2"), ("--seed", "٣"), ("--seed", "1_0")],
        ids=["sessions-arabic-indic-digits", "sessions-plus-underscore", "sessions-space", "seed-arabic-indic-digit",
             "seed-underscore"],
    )
    def test_integer_outside_json_grammar_is_config_error(self, tmp_path, capsys, option, value):
        # int() takes each of these; the JSON integer grammar that the CSV reader uses takes none.
        argv = ["simulate", "--sessions", "1", option, value, "--out", str(tmp_path / "x")]
        try:
            code = run_cli(*argv)
        except SystemExit as exc:  # argparse refuses a --seed its type function rejects
            code = exc.code
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert option.lstrip("-") in err and "Traceback" not in err
        assert not (tmp_path / "x").exists()

    def test_negative_seed_simulates(self, tmp_path):
        assert run_cli("simulate", "--sessions", "1", "--condition", "tablet", "--seed", "-3",
                       "--out", str(tmp_path)) == EXIT_OK

    def test_corpus_validates_its_plan_once_and_each_log_once(self, tmp_path):
        # Call counts, not timings: the plan is validated where it is built,
        # once per corpus, and each session validates the log it makes.
        watched = {scenario.plan_from_dict.__code__: "plan_from_dict",
                   metrics.validate_session_log.__code__: "validate_session_log"}
        calls = {"plan_from_dict": 0, "validate_session_log": 0}

        def count(frame, event, arg):
            if event == "call" and frame.f_code in watched:
                calls[watched[frame.f_code]] += 1

        sys.setprofile(count)
        try:
            code = run_cli("simulate", "--sessions", "3:4", "--out", str(tmp_path))
        finally:
            sys.setprofile(None)
        assert code == EXIT_OK
        assert calls == {"plan_from_dict": 1, "validate_session_log": 7}  # 8 and 14 when sessions checked again


def shipped_with(name: str, mutate) -> str:
    """The text of a shipped data file after ``mutate`` changed one leaf of it."""
    doc = json.loads(resources.files("replicasim").joinpath(f"data/{name}").read_text(encoding="utf-8"))
    mutate(doc)
    return json.dumps(doc)


def simulated_log_with(mutate) -> str:
    """The JSONL of the default seed-0 hmd session after ``mutate`` changed one
    leaf of its list of records."""
    log = run_session(build_default_plan(valve_registry(default_model())), Condition.HMD,
                      default_profiles()[Condition.HMD], seed=0)
    records = [json.loads(line) for line in session_log_to_jsonl(log).splitlines()]
    mutate(records)
    return "".join(json.dumps(record) + "\n" for record in records)


@pytest.mark.parametrize(
    "option, text",
    [
        ("--plan", "{not json"),
        ("--plan", '{"parts": [{"name": "inspect_system"}]}'),
        ("--plan", "[]"),
        ("--model", "{not json"),
        ("--model", '{"nodes": [{"id": "V1", "kind": "Bogus"}]}'),
        ("--routing", "{not json"),
        ("--routing", '{"rows": [{"exchanger": "Nope", "flow": "CounterFlow", "requires": {}, "effectiveness": 0.5}]}'),
        ("--routing", '{"rows": [{"exchanger": "Plate", "flow": "Counter", "requires": {}, "effectiveness": 1.5}]}'),
        ("--routing", '{"rows": [], "hot_inlet_temp_c": NaN}'),
        ("--profile", "{not json"),
        ("--model", shipped_with("default_model.json",
                                 lambda d: next(n for n in d["nodes"] if n["id"] == "1V6").update(id=7))),
        ("--plan", shipped_with("default_plan.json", lambda d: d["parts"][0]["blocks"][0].update(id={}))),
        ("--profile", shipped_with("default_profiles.json",
                                   lambda d: d["tablet"].update(tablet_putdown_penalty_ms=math.inf))),
        ("replay", LOG_HEADER + "{not json\n"),
        ("replay", LOG_HEADER + '{"record":"event","kind":"CallStart"}\n'),
        ("replay", LOG_HEADER),
        ("replay", LOG_HEADER + '{"record":"event","t_ms":0,"kind":"CallStart"}\n'
                   '{"record":"event","t_ms":5,"kind":"Identify","data":{"correct":false}}\n'
                   '{"record":"event","t_ms":9,"kind":"CallEnd"}\n'),
        ("--plan", shipped_with("default_plan.json",
                                lambda d: d["parts"][0]["blocks"][1]["operations"][0].update(valve=[]))),
        ("--model", shipped_with("default_model.json",
                                 lambda d: next(n for n in d["nodes"] if n["id"] == "1V1").update(id="1V1x"))),
        ("--profile", shipped_with("default_profiles.json",
                                   lambda d: d["tablet"].update(identify_latency_ms=[1e308, 1e308]))),
        ("--profile", shipped_with("default_profiles.json",
                                   lambda d: d["tablet"].update(tablet_putdown_penalty_ms=10**400))),
        ("replay", simulated_log_with(lambda records: records[-1].update(t_ms=10**400))),
        ("--profile", shipped_with("default_profiles.json",
                                   lambda d: d["tablet"].update(tablet_putdown_penalty_ms=86_400_001))),
    ],
    ids=["plan-json", "plan-missing-key", "plan-not-object", "model-json", "model-unknown-kind", "routing-json",
         "routing-enum", "routing-effectiveness", "routing-nan-inlet", "profile-json", "model-numeric-valve-id",
         "plan-dict-block-id", "profile-infinite-putdown", "replay-json", "replay-missing-key",
         "replay-header-only", "replay-error-without-valve", "plan-list-valve", "model-renamed-valve",
         "profile-huge-latency", "profile-huge-putdown", "replay-huge-t-ms", "profile-putdown-past-a-day"],
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


METRICS_HEADER = b"session_id,condition,seed,total_s,one_handed_s,two_handed_s,simple,critical,repetition,weighted_total\n"


@pytest.mark.parametrize(
    "command, content, refusal",
    [
        ("analyze", METRICS_HEADER, "{path} contains no data rows"),
        ("analyze", b"session_id,condition,seed,total_s\ns1,tablet,1,700\n",
         "{path} is missing columns: ['critical', 'one_handed_s', 'repetition', 'simple', 'two_handed_s',"
         " 'weighted_total']"),
        ("analyze", METRICS_HEADER + b"s1,tablet,1,700,150,120,0,0,0,0\ns\xff,tablet,1,700,150,120,0,0,0,0\n",
         "cannot read {path}: 'utf-8' codec can't decode byte 0xff"),
        ("analyze", METRICS_HEADER + b"s" * 200_000 + b",tablet,1,700,150,120,0,0,0,0\n",
         "cannot read {path}: field larger than field limit (131072)"),
        ("replay", b"", "cannot load {path}: empty session log"),
    ],
    ids=["no-data-rows", "missing-columns", "undecodable-byte", "cell-past-field-limit", "empty-log"],
)
def test_file_level_refusal_exits_2_with_its_message(tmp_path, capsys, command, content, refusal):
    bad = tmp_path / "input.txt"
    bad.write_bytes(content)
    out = tmp_path / "out"
    argv = [command, str(bad), "--out", str(out)] if command == "analyze" else [command, str(bad)]
    assert run_cli(*argv) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err.startswith("error: " + refusal.format(path=repr(str(bad))))
    assert captured.err.count("\n") == 1
    assert captured.out == ""
    assert not out.exists()


def test_fault_in_a_reader_is_not_bad_input(tmp_path, monkeypatch):
    # A ValueError raised after the file was read and parsed is a program fault:
    # it leaves main with its traceback instead of exiting 2 as "cannot load".
    def fault(doc):
        raise ValueError("fault after parsing")

    monkeypatch.setattr(plant, "routing_table_from_dict", fault)
    shipped = resources.files("replicasim").joinpath("data/default_routing.json")
    with pytest.raises(ValueError, match="fault after parsing") as info:
        run_cli("simulate", "--sessions", "1:1", "--routing", str(shipped), "--out", str(tmp_path / "out"))
    assert type(info.value) is ValueError


def test_non_finite_profile_latency_is_config_error(tmp_path, quick_profiles, capsys):
    profiles = json.loads(Path(quick_profiles).read_text(encoding="utf-8"))
    profiles["hmd"]["identify_latency_ms"] = [math.nan, 200]
    path = tmp_path / "profiles_nan.json"
    path.write_text(json.dumps(profiles), encoding="utf-8")
    code = run_cli("simulate", "--sessions", "1:1", "--profile", str(path), "--out", str(tmp_path / "out"))
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert "Traceback" not in err
    assert path.name in err and "identify_latency_ms" in err


def test_routing_with_valve_missing_from_model_is_config_error(tmp_path, capsys):
    table = json.loads(resources.files("replicasim").joinpath("data/default_routing.json").read_text(encoding="utf-8"))
    table["rows"][0]["requires"]["ZZ9"] = "Open"
    path = tmp_path / "routing_zz9.json"
    path.write_text(json.dumps(table), encoding="utf-8")
    code = run_cli("simulate", "--sessions", "1", "--routing", str(path), "--out", str(tmp_path / "out"))
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert "Traceback" not in err
    assert path.name in err and "ZZ9" in err


class TestProfileMissingCondition:
    @pytest.fixture
    def tablet_only(self, tmp_path, quick_profiles):
        profiles = json.loads(Path(quick_profiles).read_text(encoding="utf-8"))
        path = tmp_path / "tablet_only.json"
        path.write_text(json.dumps({"tablet": profiles["tablet"]}), encoding="utf-8")
        return path

    def test_simulated_condition_without_profile_is_config_error(self, tmp_path, tablet_only, capsys):
        code = run_cli("simulate", "--sessions", "1", "--profile", str(tablet_only), "--out", str(tmp_path / "out"))
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert "Traceback" not in err
        assert tablet_only.name in err and "hmd" in err

    def test_only_profiled_condition_simulates(self, tmp_path, tablet_only):
        out = tmp_path / "out"
        assert run_cli("simulate", "--sessions", "1", "--condition", "tablet", "--profile", str(tablet_only),
                       "--out", str(out)) == EXIT_OK
        assert [r["condition"] for r in read_metrics_csv(str(out / "metrics.csv"))] == ["tablet"]


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

    def test_group_with_shapiro_wilk_w_of_one_is_analyzed(self, tmp_path, capsys):
        # The tablet times are the n = 7 Shapiro-Wilk coefficients shifted by
        # 100, so their W rounds to 1.0; its p approximation took log(0).
        header = "session_id,condition,seed,total_s,one_handed_s,two_handed_s,simple,critical,repetition,weighted_total"
        tablet = [a + 100.0 for a in _shapiro_wilk_weights(7)]
        hmd = [90.0, 97.5, 93.0, 99.0, 91.5, 95.0, 96.5]
        lines = [header]
        for cond, values in (("tablet", tablet), ("hmd", hmd)):
            lines += [f"{cond}-{i:03d},{cond},{i},{v!r},{v / 4!r},{v / 5!r},0,0,0,0" for i, v in enumerate(values)]
        csv_path = tmp_path / "w_one.csv"
        csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert run_cli("analyze", str(csv_path), "--out", str(tmp_path)) == EXIT_OK
        assert "Traceback" not in capsys.readouterr().err

    def test_shapiro_wilk_coefficients_computed_once_per_n(self, tmp_path):
        # A call count, not a timing: every group of the 8:8 corpus has n = 8,
        # so its analysis computes the n = 8 coefficients, 8 inverse normal
        # CDFs, once. Of its 14 Shapiro-Wilk calls, 3 meet a zero-variance group.
        # It builds one Sample and one summary per (measure, condition), 14 of
        # each, and each of its 3 ANOVAs summarises its two groups again.
        out = tmp_path / "corpus"
        assert run_cli("simulate", "--sessions", "8:8", "--seed", "424242", "--out", str(out)) == EXIT_OK
        watched = {NormalDist.inv_cdf.__code__: "inv_cdf", stats.shapiro_wilk.__code__: "shapiro_wilk",
                   stats.Sample.__new__.__code__: "Sample", stats.mean_sd.__code__: "mean_sd"}
        calls = {"inv_cdf": 0, "shapiro_wilk": 0, "Sample": 0, "mean_sd": 0}

        def count(frame, event, arg):
            if event == "call" and frame.f_code in watched:
                calls[watched[frame.f_code]] += 1

        _shapiro_wilk_weights.cache_clear()
        sys.setprofile(count)
        try:
            code = run_cli("analyze", str(out / "metrics.csv"), "--out", str(out))
        finally:
            sys.setprofile(None)
        assert code == EXIT_OK
        # 88 inverse CDFs when computed per call; 28 Samples and 28 summaries
        # when the comparisons built their own.
        assert calls == {"inv_cdf": 8, "shapiro_wilk": 14, "Sample": 14, "mean_sd": 20}

    def test_single_condition_summary_only(self, tmp_path, quick_profiles):
        out = tmp_path / "single"
        assert run_cli("simulate", "--sessions", "3", "--condition", "hmd", "--seed", "5",
                       "--profile", quick_profiles, "--out", str(out)) == EXIT_OK
        assert run_cli("analyze", str(out / "metrics.csv"), "--out", str(out)) == EXIT_OK
        report = (out / "report.md").read_text(encoding="utf-8")
        assert "Group summaries" in report
        assert "Tests (" not in report  # no between-group section

    def test_row_with_extra_cells_names_line(self, tmp_path, capsys):
        # A cell past the header's columns belongs to no column, so no field check would read it.
        out = tmp_path / "corpus"
        assert run_cli("simulate", "--sessions", "3:3", "--seed", "1", "--out", str(out)) == EXIT_OK
        csv_path = out / "metrics.csv"
        lines = csv_path.read_text(encoding="utf-8").splitlines()
        lines[2] += ",999,extra"
        csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert run_cli("analyze", str(csv_path), "--out", str(tmp_path / "report")) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "metrics.csv" in err and re.search(r"\bline 3\b", err)
        assert re.search(r"\b2 more cells than the header has columns\b", err)
        assert not (tmp_path / "report").exists()

    def test_malformed_row_names_the_line_it_starts_on(self, tmp_path, capsys):
        # A quoted cell may hold a newline, so a row is not always one file line.
        out = tmp_path / "corpus"
        assert run_cli("simulate", "--sessions", "3:3", "--seed", "1", "--out", str(out)) == EXIT_OK
        csv_path = out / "metrics.csv"
        with csv_path.open(newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        rows[0]["session_id"] = "s\n1"  # file lines 2-3
        rows[1]["total_s"] = "abc"  # file line 4
        with csv_path.open("w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
            writer.writeheader()
            writer.writerows(rows)
        assert csv_path.read_text(encoding="utf-8").splitlines()[3].split(",")[0] == rows[1]["session_id"]
        assert run_cli("analyze", str(csv_path), "--out", str(tmp_path / "report")) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "at line 4: total_s" in err

    def test_malformed_row_names_line(self, tmp_path, capsys):
        csv_path = tmp_path / "bad.csv"
        csv_path.write_text(
            "session_id,condition,seed,total_s,one_handed_s,two_handed_s,simple,critical,repetition,weighted_total\n"
            "s1,tablet,1,700,150,120,0,0,0,0\n"
            "s2,tablet,1,not-a-number,150,120,0,0,0,0\n",
            encoding="utf-8",
        )
        assert run_cli("analyze", str(csv_path)) == EXIT_CONFIG
        assert re.search(r"\bline 3\b", capsys.readouterr().err)

    def test_repeated_column_is_refused(self, tmp_path, capsys):
        # csv.DictReader keeps the last copy of a repeated column, which would
        # analyse every total_s as 1.
        header = "session_id,condition,seed,total_s,one_handed_s,two_handed_s,simple,critical,repetition,weighted_total"
        rows = [f"s{i},{cond},{i},{700 + i},150,120,0,0,0,0,1" for i, cond in enumerate(("tablet",) * 3 + ("hmd",) * 3)]
        csv_path = tmp_path / "repeated.csv"
        csv_path.write_text("\n".join([header + ",total_s"] + rows) + "\n", encoding="utf-8")
        assert run_cli("analyze", str(csv_path), "--out", str(tmp_path)) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "repeated.csv" in err and "'total_s'" in err

    @pytest.mark.parametrize(
        "row",
        ["s2,tablet,1,nan,150,120,0,0,0,0", "s2,tablet,1,700,150,120,-5,0,0,0", "s2,tablet,1,700,150,120,0,0,0,99",
         "s1,tablet,1,700,150,120,0,0,0,0", "s2,tablet,1,1e300,150,120,0,0,0,0",
         f"s2,tablet,1,700,150,120,{10**400},0,0,{10**400}", f"s2,tablet,{'1' * 5000},700,150,120,0,0,0,0"],
        ids=["non-finite-time", "negative-count", "inconsistent-weighted-total", "repeated-session-id",
             "huge-time", "huge-count", "seed-past-int-digit-limit"],
    )
    def test_out_of_range_value_names_line(self, tmp_path, capsys, row):
        csv_path = tmp_path / "bad.csv"
        csv_path.write_text(
            "session_id,condition,seed,total_s,one_handed_s,two_handed_s,simple,critical,repetition,weighted_total\n"
            "s1,tablet,1,700,150,120,0,0,0,0\n" + row + "\n",
            encoding="utf-8",
        )
        assert run_cli("analyze", str(csv_path)) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert re.search(r"\bline 3\b", err)
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "column, cell",
        [("seed", " 7 "), ("seed", "1_0"), ("seed", "٣"), ("seed", "+7"), ("total_s", "1_2.5"), ("total_s", " 12.5")],
        ids=["seed-spaces", "seed-underscore", "seed-arabic-indic-digit", "seed-plus", "time-underscore",
             "time-leading-space"],
    )
    def test_number_outside_json_grammar_names_line(self, tmp_path, capsys, column, cell):
        # int() and float() take each of these cells; the JSON number grammar takes none.
        header = "session_id,condition,seed,total_s,one_handed_s,two_handed_s,simple,critical,repetition,weighted_total"
        cells = dict(zip(header.split(","), "s2,tablet,1,700,150,120,0,0,0,0".split(",")), **{column: cell})
        csv_path = tmp_path / "bad.csv"
        csv_path.write_text(f"{header}\ns1,tablet,1,700,150,120,0,0,0,0\n{','.join(cells.values())}\n",
                            encoding="utf-8")
        assert run_cli("analyze", str(csv_path)) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert re.search(r"\bline 3\b", err)
        assert column in err

    def test_values_at_their_bounds_are_analyzed(self, tmp_path, capsys):
        # Each row is within the bounds, though the total of its counts is not.
        lines = ["session_id,condition,seed,total_s,one_handed_s,two_handed_s,simple,critical,repetition,weighted_total"]
        lines += [f"s{i},{cond},{i},{checks.MAX_SECONDS},{-checks.MAX_SECONDS},{i},{checks.MAX_COUNT},0,0,{checks.MAX_COUNT}"
                  for i, cond in enumerate(("tablet", "tablet", "hmd", "hmd"))]
        csv_path = tmp_path / "bounds.csv"
        csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert run_cli("analyze", str(csv_path), "--out", str(tmp_path), "--histograms") == EXIT_OK
        assert "Traceback" not in capsys.readouterr().err

    def test_one_session_per_condition_has_no_tests_section(self, tmp_path, capsys):
        out = tmp_path / "corpus"
        assert run_cli("simulate", "--sessions", "1:1", "--seed", "3", "--out", str(out)) == EXIT_OK
        assert run_cli("analyze", str(out / "metrics.csv"), "--out", str(out), "--histograms") == EXIT_OK
        assert "Traceback" not in capsys.readouterr().err
        report = (out / "report.md").read_text(encoding="utf-8")
        assert "## Group summaries" in report and "## Errors by type" in report
        assert "## Tests" not in report
        assert_histograms_of_every_group(out)

    def test_histograms_written(self, tmp_path, quick_profiles):
        out = self.make_corpus(tmp_path, quick_profiles)
        assert run_cli("analyze", str(out / "metrics.csv"), "--out", str(out), "--histograms") == EXIT_OK
        assert_histograms_of_every_group(out)


def spread(n, simple, critical, repetition):
    """The error counts of n sessions whose totals are the given ones, spread as evenly as they go."""
    return [tuple(total // n + (i < total % n) for total in (simple, critical, repetition)) for i in range(n)]


def metrics_rows(tablet, hmd):
    """Rows as ``read_metrics_csv`` returns them: one per (simple, critical, repetition) of each group,
    with times that differ from session to session."""
    rows = []
    for cond, counts, base in (("tablet", tablet, 760.0), ("hmd", hmd, 620.0)):
        for i, (simple, critical, repetition) in enumerate(counts):
            rows.append({"session_id": f"{cond}-{i:03d}", "condition": cond, "seed": i, "total_s": base + 3 * i,
                         "one_handed_s": base / 4 + i, "two_handed_s": base / 5 + 2 * i, "simple": simple,
                         "critical": critical, "repetition": repetition,
                         "weighted_total": simple + 2 * critical + repetition})
    return rows


@pytest.mark.parametrize(
    "tablet, hmd, present, absent",
    [
        # The paper's counts: 49, 6 and 3 errors over 19 tablet sessions, 3, 1 and 0 over 20 hmd
        # sessions. Per participant it compares the ponderated totals, 64/19 and 5/20.
        (spread(19, 49, 6, 3), spread(20, 3, 1, 0),
         ["- errors per participant: 92.58% lower", "- Simple errors: 93.88% lower", "- Critical errors: 83.33% lower"],
         ["higher"]),
        (spread(4, 4, 1, 0), spread(4, 2, 3, 0),
         ["- errors per participant: 33.33% higher", "- Simple errors: 50.00% lower",
          "- Critical errors: 200.00% higher"],
         ["-200"]),
        # Each total past 2**53 is exact, as a sum of floats would not be (...972).
        ([(checks.MAX_COUNT, 0, 0)] * 3, [(checks.MAX_COUNT, 0, 0)] * 2,
         ["| Simple (x1) | 27021597764222973 | 9007199254740991.00 | 18014398509481982 | 9007199254740991.00 |"],
         ["27021597764222972"]),
        (spread(3, 2, 0, 1), spread(3, 1, 1, 0), ["- Simple errors: 50.00% lower"], ["Critical errors"]),
        (spread(3, 0, 0, 0), spread(3, 0, 0, 0), ["- total completion time: 18.35% lower"],
         ["errors per participant", "Simple errors", "Critical errors"]),
        ([(1, 0, 0)], spread(3, 0, 0, 0),
         ["| type | total tablet | average tablet | total hmd | average hmd |", "| Simple (x1) | 1 | 1.00 | 0 | 0.00 |"],
         ["## Improvements"]),
    ],
    ids=["paper-counts", "more-critical-errors-with-hmd", "totals-past-2**53", "no-critical-errors-with-tablet",
         "no-errors", "one-tablet-session"],
)
def test_report_lines_of_each_shape(tablet, hmd, present, absent):
    markdown = render_markdown(analyze_rows(metrics_rows(tablet, hmd)))
    lines = markdown.splitlines()
    assert [line for line in present if line not in lines] == []
    assert [text for text in absent if text in markdown] == []


def assert_histograms_of_every_group(out):
    """One SVG per measure, each drawn from every (measure, condition) value list of the CSV's rows."""
    rows = read_metrics_csv(str(out / "metrics.csv"))
    conditions = sorted({r["condition"] for r in rows}, reverse=True)
    for measure in ALL_MEASURES:
        values = {cond: [float(r[measure]) for r in rows if r["condition"] == cond] for cond in conditions}
        svg = (out / f"hist_{measure}.svg").read_text(encoding="utf-8")
        assert svg.startswith("<svg") and svg == render_svg_histogram(values, measure)
    assert len(list(out.glob("hist_*.svg"))) == len(ALL_MEASURES)


BAR_COLORS = {"#c0504d": "tablet", "#4f81bd": "hmd"}


def histogram_bar_heights(svg: str) -> dict:
    """Each condition's bar heights, in bin order, as the SVG writes them (legend swatches have no opacity)."""
    bars = {}
    for height, fill in re.findall(r'<rect x="[^"]*" y="[^"]*" width="[^"]*" height="([^"]*)" fill="([^"]*)" opacity',
                                   svg):
        bars.setdefault(BAR_COLORS[fill], []).append(height)
    return bars


# Eight bins; on [0, 8] every edge is an integer. A bin holds its left edge, and the last one also the maximum.
@pytest.mark.parametrize("values, counts", [
    ({"tablet": (0.0, 4.0, 8.0)}, {"tablet": [1, 0, 0, 0, 1, 0, 0, 1]}),
    ({"tablet": (3.0, 3.0, 3.0)}, {"tablet": [3, 0, 0, 0, 0, 0, 0, 0]}),
    ({"tablet": (8.0, 0.0, 2.0, 8.0, 8.0), "hmd": (7.99, 1.5, 6.0, 8.0)},
     {"tablet": [1, 0, 1, 0, 0, 0, 0, 3], "hmd": [0, 1, 0, 0, 0, 0, 1, 2]}),
], ids=["maximum-and-inner-edge", "all-equal", "two-groups"])
def test_histogram_bins_hold_hand_counted_values(values, counts):
    assert HISTOGRAM_BINS == 8
    peak = max(max(c) for c in counts.values())
    expected = {cond: [f"{240 * c / peak:.1f}" for c in bins] for cond, bins in counts.items()}
    assert histogram_bar_heights(render_svg_histogram(values, "m")) == expected


class TestReplay:
    def test_replay_round_trip(self, tmp_path, quick_profiles, capsys):
        out = tmp_path / "corpus"
        assert run_cli("simulate", "--sessions", "1", "--condition", "hmd", "--seed", "2",
                       "--profile", quick_profiles, "--out", str(out)) == EXIT_OK
        log = next(out.glob("session_*.jsonl"))
        assert run_cli("replay", str(log)) == EXIT_OK
        printed = capsys.readouterr().out
        assert "condition=hmd" in printed and "errors:" in printed

    def test_unknown_event_kind_rejected(self, tmp_path, capsys):
        bad = tmp_path / "bogus.jsonl"
        bad.write_text(simulated_log_with(lambda records: records.insert(2, {"record": "event", "t_ms": 0,
                                                                              "kind": "Bogus"})), encoding="utf-8")
        assert run_cli("replay", str(bad)) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "bogus.jsonl" in err and "'Bogus'" in err and re.search(r"\bline 3\b", err)

    def test_refused_record_names_its_line(self, tmp_path, capsys):
        bad = tmp_path / "t_ms.jsonl"
        bad.write_text(simulated_log_with(lambda records: records[4].update(t_ms="x")), encoding="utf-8")
        assert run_cli("replay", str(bad)) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "t_ms.jsonl" in err and "t_ms must be an integer in [0, 9007199254740991], got 'x' at line 5" in err

    def test_unknown_event_kind_names_its_line_once(self):
        text = simulated_log_with(lambda records: records[2].update(kind="Bogus"))
        with pytest.raises(ConfigError) as info:
            metrics.session_log_from_jsonl(text)
        assert str(info.value) == "unknown event kind 'Bogus' at line 3"

    @pytest.mark.parametrize("kind, key, value, refusal", [
        ("TemperatureReport", "temperature_c", "hot", "must be a finite number, got 'hot'"),
        ("TemperatureReport", "temperature_c", math.nan, "must be a finite number, got nan"),
        ("Instruction", "text", 5, "must be a string, got 5"),
    ])
    def test_data_of_the_wrong_type_is_refused_with_its_line(self, tmp_path, capsys, kind, key, value, refusal):
        lines = []

        def mutate(records):
            index = next(i for i, record in enumerate(records) if record.get("kind") == kind)
            records[index]["data"][key] = value
            lines.append(index + 1)

        bad = tmp_path / "data.jsonl"
        bad.write_text(simulated_log_with(mutate), encoding="utf-8")
        assert run_cli("replay", str(bad)) == EXIT_CONFIG
        assert f"{kind} {key} {refusal} at line {lines[0]}" in capsys.readouterr().err

    def test_refused_header_names_its_line(self):
        # Blank lines before the header count.
        text = "\n \n" + simulated_log_with(lambda records: records[0].update(seed="x"))
        with pytest.raises(ConfigError) as info:
            metrics.session_log_from_jsonl(text)
        assert str(info.value) == "seed must be an integer, got 'x' at line 3"

    def test_refused_invariant_names_its_line(self, tmp_path, capsys):
        bad = tmp_path / "order.jsonl"
        bad.write_text(simulated_log_with(lambda records: records[6].update(t_ms=0)), encoding="utf-8")
        assert run_cli("replay", str(bad)) == EXIT_CONFIG
        assert "order.jsonl" in (err := capsys.readouterr().err)
        assert "timestamps decrease at Identify t=0 at line 7" in err

    @pytest.mark.parametrize("mutate, refusal", [
        (lambda records: records[1].update(kind="Instruction", data={"text": "hi"}),
         "log must start with CallStart at line 2"),
        (lambda records: records[-1].update(kind="Instruction", data={"text": "bye"}),
         "log must end with CallEnd at line 62"),
        (lambda records: records.insert(-1, {"record": "event", "t_ms": 655053, "kind": "Breakpoint"}),
         "breakpoint without block context at line 62"),
        (lambda records: records[-2].update(block_kind="Bogus"), "unknown block kind 'Bogus' at line 61"),
        (lambda records: records.pop(-2), "manipulation blocks without a closing breakpoint: ['p2-two-handed']"),
    ], ids=["start", "end", "breakpoint-block", "breakpoint-kind", "unclosed"])
    def test_each_invariant_refusal_names_the_line_of_its_event(self, mutate, refusal):
        # An unclosed block is no one event, so its refusal names no line.
        text = simulated_log_with(mutate)
        with pytest.raises(ConfigError) as info:
            metrics.session_log_from_jsonl(text)
        assert str(info.value) == refusal

    def test_the_simulator_validates_without_lines(self):
        log = run_session(build_default_plan(valve_registry(default_model())), Condition.HMD,
                          default_profiles()[Condition.HMD], seed=0)
        log.events[5] = metrics.LogEvent(0, log.events[5].kind, log.events[5].data)
        with pytest.raises(ConfigError) as info:
            metrics.validate_session_log(log)
        assert str(info.value) == "timestamps decrease at Identify t=0"
        assert info.value.event is log.events[5]

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

    def test_tampered_constant_fails(self, monkeypatch, capsys):
        tampered = json.loads(json.dumps(REFERENCE_CONSTANTS))
        tampered["weighted_totals"][0]["expected"] = 63
        monkeypatch.setattr("replicasim.report.REFERENCE_CONSTANTS", tampered)
        assert run_cli("paper-check") == EXIT_CHECK_FAILED
        assert "FAIL" in capsys.readouterr().out

    def test_reference_checks_cover_all_items(self):
        results = run_reference_checks()
        assert len(results) == 9
        assert all(r.passed for r in results)
