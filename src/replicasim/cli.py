"""Command-line entry point: simulate, analyze, replay, paper-check.

Exit codes: 0 success, 1 check failure, 2 usage error or bad input. Bad
input is a ``ConfigError``, reported with the file or option it came from;
any other exception is a program fault and ends in a traceback (exit 1).

Each command imports the layers it runs when it runs, so ``analyze``,
``replay`` and ``paper-check`` never load the simulator, and ``simulate`` never
loads the statistics.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from replicasim import ConfigError, checks

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2


def _parse_sessions(value: str) -> dict:
    """``N`` applies to both conditions; ``T:H`` sets tablet and hmd counts."""
    from replicasim.metrics import Condition

    try:
        numbers = [integer(part) for part in value.split(":")]
    except ConfigError:
        numbers = []
    if len(numbers) not in (1, 2):
        raise ConfigError(f"--sessions expects N or TABLET:HMD, got {value!r}")
    counts = {Condition.TABLET: numbers[0], Condition.HMD: numbers[-1]}
    if any(n < 1 for n in counts.values()):
        raise ConfigError("sessions per condition must be at least 1")
    return counts


def integer(text: str) -> int:
    """An integer option of either sign, in the JSON integer grammar of the metrics CSV."""
    return checks.numeral(text, "integer", int)


def _load(path: str, parse):
    """``parse`` applied to the text of an input file; a file that cannot be
    read, is not UTF-8 or is refused by ``parse`` is a config error that names
    the file."""
    try:
        return parse(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, ConfigError) as exc:
        raise ConfigError(f"cannot load {path!r}: {exc}") from None


def _load_json(path: str, build):
    return _load(path, lambda text: build(checks.loads(text)))


def cmd_simulate(args: argparse.Namespace) -> int:
    from replicasim.scenario import (
        build_default_plan,
        default_model,
        default_profiles,
        default_routing_table,
        plan_from_dict,
        profiles_from_dict,
        run_session,
        valve_registry,
    )
    from replicasim.scene import load_model
    from replicasim.plant import routing_table_from_dict
    from replicasim.netsim import derive_seed
    from replicasim.metrics import Condition, session_log_to_jsonl, session_row, write_metrics_csv

    counts = _parse_sessions(args.sessions)
    if args.condition != "both":
        only = Condition(args.condition)
        counts = {only: counts[only]}
    model = _load_json(args.model, load_model) if args.model else default_model()
    registry = valve_registry(model)
    routing = _load_json(args.routing, routing_table_from_dict) if args.routing else default_routing_table()
    if args.plan:
        plan = _load_json(args.plan, lambda doc: plan_from_dict(doc, registry))
    else:
        try:
            plan = build_default_plan(registry)
        except ConfigError as exc:  # only a --model can make the shipped plan fail
            raise ConfigError(f"the default plan does not fit {args.model!r}: {exc}") from None
    profiles = _load_json(args.profile, profiles_from_dict) if args.profile else default_profiles()
    unknown = sorted(routing.valves_referenced() - registry.keys())
    if unknown:
        source = repr(args.routing) if args.routing else "the default routing table"
        lacking = repr(args.model) if args.model else "the default model"
        raise ConfigError(f"{source} names valves {lacking} lacks: {', '.join(unknown)}")
    missing = sorted(c.value for c in counts if c not in profiles)
    if missing:
        raise ConfigError(f"{args.profile!r} has no profile for condition {', '.join(missing)}")

    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    rows = []
    for condition in (c for c in Condition if c in counts):  # in declaration order: tablet first
        profile = profiles[condition]
        for i in range(counts[condition]):
            session_seed = derive_seed(args.seed, f"session:{condition.value}:{i}")
            log = run_session(plan, condition, profile, seed=session_seed, model=model, routing=routing)
            session_id = f"{condition.value}-{i:03d}"
            (outdir / f"session_{session_id}.jsonl").write_text(session_log_to_jsonl(log), encoding="utf-8")
            rows.append(session_row(session_id, log))
    write_metrics_csv(str(outdir / "metrics.csv"), rows)
    print(f"wrote {len(rows)} session logs and metrics.csv to {outdir}")
    return EXIT_OK


def cmd_analyze(args: argparse.Namespace) -> int:
    from replicasim.metrics import ALL_MEASURES, read_metrics_csv
    from replicasim.report import analyze_rows, render_markdown, render_results_csv, render_svg_histogram

    rows = read_metrics_csv(args.csv)
    report = analyze_rows(rows)
    outdir = Path(args.out) if args.out else Path(args.csv).parent
    outdir.mkdir(parents=True, exist_ok=True)
    markdown = render_markdown(report)
    (outdir / "report.md").write_text(markdown, encoding="utf-8")
    (outdir / "report.csv").write_text(render_results_csv(report), encoding="utf-8")
    if args.histograms:
        for measure in ALL_MEASURES:
            values = {cond: report.samples[(measure, cond)].values for cond in report.conditions}
            (outdir / f"hist_{measure}.svg").write_text(render_svg_histogram(values, measure), encoding="utf-8")
    print(markdown)
    print(f"report written to {outdir}")
    return EXIT_OK


def _read_log(text: str):
    """A session log with its block timings and error counts; reading any of
    them can fail on a malformed log."""
    from replicasim.metrics import block_times, error_counts, session_log_from_jsonl

    log = session_log_from_jsonl(text)
    return log, block_times(log), error_counts(log)


def cmd_replay(args: argparse.Namespace) -> int:
    from replicasim.metrics import BLOCK_KINDS, weighted_total

    for path in args.logs:
        log, timing, counts = _load(path, _read_log)
        one_handed, two_handed, _ = (timing.totals_by_kind[kind] for kind in BLOCK_KINDS)
        print(f"{path}: condition={log.condition.value} seed={log.seed}")
        print(f"  total {timing.total_s:.1f}s | 1-handed {one_handed:.1f}s | 2-handed {two_handed:.1f}s")
        for b in timing.blocks:
            print(f"  block {b.block} ({b.kind}): {b.duration_s:.1f}s")
        print(f"  errors: simple={counts.simple} critical={counts.critical}"
              f" repetition={counts.repetition} weighted={weighted_total(counts)}")
    return EXIT_OK


def cmd_paper_check(args: argparse.Namespace) -> int:
    from replicasim.report import run_reference_checks

    results = run_reference_checks()
    failed = 0
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"{status}  {res.name}: {res.detail}")
        failed += 0 if res.passed else 1
    print(f"{len(results) - failed}/{len(results)} reference checks passed")
    return EXIT_OK if failed == 0 else EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="replicasim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run seeded sessions and write logs + metrics CSV")
    sim.add_argument("--condition", choices=["tablet", "hmd", "both"], default="both")
    sim.add_argument("--sessions", default="19:20", help="N per condition, or TABLET:HMD (default 19:20)")
    sim.add_argument("--seed", type=integer, default=0, help="master seed (default 0)")
    sim.add_argument("--plan", help="inspection plan JSON (default: built-in two-part plan)")
    sim.add_argument("--profile", help="operator profiles JSON (default: calibrated profiles)")
    sim.add_argument("--routing", help="routing/effectiveness table JSON")
    sim.add_argument("--model", help="scene model descriptor JSON")
    sim.add_argument("--out", default="out", help="output directory")
    sim.set_defaults(func=cmd_simulate)

    ana = sub.add_parser("analyze", help="analyze a metrics CSV and write a report")
    ana.add_argument("csv", help="metrics CSV produced by simulate")
    ana.add_argument("--out", help="report output directory (default: CSV directory)")
    ana.add_argument("--histograms", action="store_true", help="also write SVG histograms")
    ana.set_defaults(func=cmd_analyze)

    rep = sub.add_parser("replay", help="validate session logs and print timings/errors")
    rep.add_argument("logs", nargs="+", help="session JSONL log files")
    rep.set_defaults(func=cmd_replay)

    chk = sub.add_parser("paper-check", help="recompute embedded reference values; exit 0 iff all pass")
    chk.set_defaults(func=cmd_paper_check)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
