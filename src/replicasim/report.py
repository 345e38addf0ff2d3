"""Analysis reports over the per-session metrics CSV, plus reference self-checks.

The analysis mirrors the evaluation pipeline: Shapiro-Wilk per group and
measurement, then one-way ANOVA where both groups look normal and the
Mann-Whitney-Wilcoxon rank test otherwise. Reports render as markdown + CSV,
with optional SVG histograms.
"""
from __future__ import annotations

import csv
import io
import math
from operator import itemgetter

from replicasim import ConfigError, checks
# write_metrics_csv lives in metrics, beside CSV_COLUMNS, so that simulate loads no
# analysis code; report keeps the name, under which bench/tracer.py times it.
from replicasim.metrics import (
    CSV_COLUMNS,
    Condition,
    ErrorCounts,
    percent_improvement,
    weighted_total,
    write_metrics_csv,
)
from replicasim.records import field, record
from replicasim.stats import Comparison, GroupSummary, Sample, anova_oneway_summary, compare_groups, mean_sd

TIME_MEASURES = ("total_s", "one_handed_s", "two_handed_s")
ERROR_MEASURES = ("simple", "critical", "repetition", "weighted_total")
ALL_MEASURES = TIME_MEASURES + ERROR_MEASURES

HISTOGRAM_BINS = 8

BASELINE_CONDITION = Condition.TABLET.value
TREATMENT_CONDITION = Condition.HMD.value


def read_metrics_csv(path: str) -> list[dict]:
    """The rows of a metrics CSV; a malformed file raises a ConfigError naming it,
    and a malformed row the file line it starts on (a quoted cell may span lines)."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        records = []  # (line the row starts on, cells)
        try:
            header = next(reader, [])
            end = reader.line_num
            for cells in reader:
                if cells:  # a blank line is no row
                    records.append((end + 1, cells))
                end = reader.line_num
        except (UnicodeDecodeError, csv.Error) as exc:  # csv.Error: a field past the csv module's size limit
            raise ConfigError(f"cannot read {path!r}: {exc}") from None
    repeated = [name for i, name in enumerate(header) if name in header[:i]]
    if repeated:  # a row would keep the last copy's cells
        raise ConfigError(f"{path!r} repeats column {repeated[0]!r}")
    missing = set(CSV_COLUMNS) - set(header)
    if missing:
        raise ConfigError(f"{path!r} is missing columns: {sorted(missing)}")
    if not records:
        raise ConfigError(f"{path!r} contains no data rows")
    rows = []
    first_line = {}  # session_id -> line it first appears on
    for line, cells in records:
        try:
            if len(cells) > len(header):
                raise ConfigError(f"{len(cells) - len(header)} more cells than the header has columns")
            raw = dict.fromkeys(header, "")  # a short row reads as empty cells, which no check accepts
            raw.update(zip(header, cells))
            session_id = checks.ident(raw["session_id"], "session_id")
            if session_id in first_line:
                raise ConfigError(f"session_id {session_id!r} repeats line {first_line[session_id]}")
            first_line[session_id] = line
            condition = checks.member(raw["condition"], "condition", Condition)
            seed = checks.numeral(raw["seed"], "seed", int)
            row = {"session_id": session_id, "condition": condition.value, "seed": seed}
            row.update((key, checks.seconds(checks.numeral(raw[key], key, float), key)) for key in TIME_MEASURES)
            row.update((key, checks.count(checks.numeral(raw[key], key, int), key)) for key in ERROR_MEASURES)
            derived = weighted_total(ErrorCounts(row["simple"], row["critical"], row["repetition"]))
            if row["weighted_total"] != derived:
                raise ConfigError(f"weighted_total {row['weighted_total']} disagrees with the counts ({derived})")
        except ConfigError as exc:
            raise ConfigError(f"malformed row in {path!r} at line {line}: {exc}") from None
        rows.append(row)
    return rows


@record
class AnalysisReport:
    conditions: tuple[str, ...]
    samples: dict  # (measure, condition) -> Sample
    summaries: dict  # (measure, condition) -> GroupSummary, for groups of n >= 2
    comparisons: list[Comparison] = field(default_factory=list)
    error_totals: dict = field(default_factory=dict)  # condition -> ErrorCounts
    participants: dict = field(default_factory=dict)  # condition -> n
    improvements: dict = field(default_factory=dict)  # name -> fraction


def analyze_rows(rows: list[dict]) -> AnalysisReport:
    by_condition: dict[str, list[dict]] = {}
    for row in rows:
        by_condition.setdefault(row["condition"], []).append(row)
    conditions = tuple(c.value for c in Condition if c.value in by_condition)  # in declaration order: tablet first

    # One sample per (measure, condition): it gives the histograms and, for a
    # group of at least two sessions, the summary and, when both conditions
    # have one, the comparison.
    samples = {
        (measure, cond): Sample(tuple(map(float, map(itemgetter(measure), cond_rows))), label=f"{cond}:{measure}")
        for measure in ALL_MEASURES
        for cond, cond_rows in by_condition.items()
    }
    summaries = {key: mean_sd(sample) for key, sample in samples.items() if sample.n >= 2}

    error_totals = {
        cond: ErrorCounts(
            simple=sum(r["simple"] for r in cond_rows),
            critical=sum(r["critical"] for r in cond_rows),
            repetition=sum(r["repetition"] for r in cond_rows),
        )
        for cond, cond_rows in by_condition.items()
    }
    participants = {cond: len(cond_rows) for cond, cond_rows in by_condition.items()}

    report = AnalysisReport(
        conditions=conditions,
        samples=samples,
        summaries=summaries,
        error_totals=error_totals,
        participants=participants,
    )
    # Comparing needs a mean and SD per group, so at least two sessions in each.
    if participants.get(BASELINE_CONDITION, 0) >= 2 and participants.get(TREATMENT_CONDITION, 0) >= 2:
        for measure in ALL_MEASURES:
            a, b = samples[(measure, BASELINE_CONDITION)], samples[(measure, TREATMENT_CONDITION)]
            report.comparisons.append(compare_groups(a, b, measure=measure))
        report.improvements = _improvements(report)
    return report


def _improvements(report: AnalysisReport) -> dict:
    out = {}
    for measure in TIME_MEASURES:
        base = report.summaries.get((measure, BASELINE_CONDITION))
        treat = report.summaries.get((measure, TREATMENT_CONDITION))
        if base and treat and base.mean > 0:
            out[measure] = percent_improvement(base.mean, treat.mean)
    tablet, hmd = report.error_totals[BASELINE_CONDITION], report.error_totals[TREATMENT_CONDITION]
    n_tab, n_hmd = report.participants[BASELINE_CONDITION], report.participants[TREATMENT_CONDITION]
    avg_tab = (tablet.simple + tablet.critical + tablet.repetition) / n_tab
    avg_hmd = (hmd.simple + hmd.critical + hmd.repetition) / n_hmd
    if avg_tab > 0:
        out["errors_overall"] = percent_improvement(avg_tab, avg_hmd)
    if tablet.simple > 0:
        out["errors_simple"] = percent_improvement(tablet.simple, hmd.simple)
    if tablet.critical > 0:
        out["errors_critical"] = percent_improvement(tablet.critical, hmd.critical)
    return out


# --- Rendering -----------------------------------------------------------------------


def _fmt_p(p: float) -> str:
    if p < 1e-6:
        return "<1e-6"
    return f"{p:.4g}"


def render_markdown(report: AnalysisReport) -> str:
    out = io.StringIO()
    out.write("# Session analysis\n\n")
    out.write("## Group summaries\n\n")
    out.write("| measure | condition | n | mean | sd |\n|---|---|---|---|---|\n")
    for measure in ALL_MEASURES:
        for cond in report.conditions:
            s = report.summaries.get((measure, cond))
            if s:
                out.write(f"| {measure} | {cond} | {s.n} | {s.mean:.2f} | {s.sd:.2f} |\n")
    if report.comparisons:
        out.write("\n## Tests (Shapiro-Wilk branch, then ANOVA or MWW)\n\n")
        out.write("| measure | SW p (tablet) | SW p (hmd) | test | statistic | p | significant (0.05) |\n")
        out.write("|---|---|---|---|---|---|---|\n")
        for c in report.comparisons:
            sw = ["-" if r is None else _fmt_p(r.p_value) for r in c.shapiro]
            name = "ANOVA" if c.chosen == "anova" else "MWW"
            stat = f"{c.result.statistic_name}={c.result.statistic:.3f}"
            if c.result.df:
                stat += f", df={c.result.df}"
            sig = "yes" if c.result.p_value < 0.05 else "no"
            out.write(f"| {c.measure} | {sw[0]} | {sw[1]} | {name} | {stat} | {_fmt_p(c.result.p_value)} | {sig} |\n")
    out.write("\n## Errors by type\n\n")
    out.write("| type | " + " | ".join(f"total {c} | average {c}" for c in report.conditions) + " |\n")
    out.write("|---|" + "---|" * (2 * len(report.conditions)) + "\n")
    rows = [
        ("Simple (x1)", lambda e: e.simple),
        ("Critical (x2)", lambda e: e.critical),
        ("Repetition (x1)", lambda e: e.repetition),
        ("Total with ponderation", weighted_total),
    ]
    for label, get in rows:
        cells = []
        for cond in report.conditions:
            total = get(report.error_totals[cond])
            cells.append(f"{total} | {total / report.participants[cond]:.2f}")
        out.write(f"| {label} | " + " | ".join(cells) + " |\n")
    if report.improvements:
        out.write("\n## Improvements (tablet baseline vs hmd)\n\n")
        labels = {
            "total_s": "total completion time",
            "one_handed_s": "1-handed manipulation time",
            "two_handed_s": "2-handed manipulation time",
            "errors_overall": "errors per participant",
            "errors_simple": "Simple errors",
            "errors_critical": "Critical errors",
        }
        for key, frac in report.improvements.items():
            out.write(f"- {labels.get(key, key)}: {frac * 100.0:.2f}% lower\n")
    return out.getvalue()


def render_results_csv(report: AnalysisReport) -> str:
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["measure", "test", "statistic_name", "statistic", "df1", "df2", "p_value", "exact"])
    for c in report.comparisons:
        df1, df2 = c.result.df if c.result.df else ("", "")
        writer.writerow(
            [
                c.measure,
                c.chosen,
                c.result.statistic_name,
                f"{c.result.statistic:.6g}",
                df1,
                df2,
                f"{c.result.p_value:.6g}",
                int(c.result.exact),
            ]
        )
    return out.getvalue()


def render_svg_histogram(values_by_condition: dict[str, tuple[float, ...]], measure: str) -> str:
    """Small self-contained grouped histogram; deterministic output."""
    all_values = [v for vals in values_by_condition.values() for v in vals]
    lo, hi = min(all_values), max(all_values)
    if hi <= lo:
        hi = lo + 1.0
    width, height, margin = 640, 320, 40
    edges = [lo + (hi - lo) * i / HISTOGRAM_BINS for i in range(HISTOGRAM_BINS + 1)]
    conditions = [c.value for c in Condition if c.value in values_by_condition]
    counts = {
        cond: [
            sum(1 for v in vals if edges[i] <= v < edges[i + 1] or (i == HISTOGRAM_BINS - 1 and v == hi))
            for i in range(HISTOGRAM_BINS)
        ]
        for cond, vals in values_by_condition.items()
    }
    peak = max(max(c) for c in counts.values()) or 1
    colors = {"tablet": "#c0504d", "hmd": "#4f81bd"}
    bar_w = (width - 2 * margin) / HISTOGRAM_BINS / (len(conditions) + 0.5)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<text x="{width // 2}" y="16" text-anchor="middle" font-size="14">{measure}</text>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" y2="{height - margin}" stroke="#333"/>',
    ]
    for i in range(HISTOGRAM_BINS):
        x0 = margin + (width - 2 * margin) * i / HISTOGRAM_BINS
        for j, cond in enumerate(conditions):
            c = counts[cond][i]
            bar_h = (height - 2 * margin) * c / peak
            x = x0 + j * bar_w
            y = height - margin - bar_h
            parts.append(
                f'<rect x="{x:.1f}" y="{y:.1f}" width="{bar_w:.1f}" height="{bar_h:.1f}"'
                f' fill="{colors.get(cond, "#888")}" opacity="0.85"/>'
            )
        parts.append(
            f'<text x="{x0:.1f}" y="{height - margin + 14}" font-size="9">{edges[i]:.0f}</text>'
        )
    for j, cond in enumerate(conditions):
        parts.append(
            f'<rect x="{width - margin - 120}" y="{margin + 18 * j}" width="12" height="12"'
            f' fill="{colors.get(cond, "#888")}"/>'
            f'<text x="{width - margin - 102}" y="{margin + 10 + 18 * j}" font-size="11">{cond}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# --- Reference self-checks -------------------------------------------------------------

REFERENCE_CONSTANTS = {
    "anova_total_time": {
        "groups": [[19, 763.65, 76.80], [20, 623.55, 67.70]],
        "f_range": [36.3, 36.9],
        "df": [1, 37],
        "p_max": 1e-6,
    },
    "weighted_totals": [
        {"counts": [49, 6, 3], "expected": 64},
        {"counts": [3, 1, 0], "expected": 5},
    ],
    "improvements": [
        {"name": "total time", "baseline": 763.65, "treatment": 623.55, "expected_pct": 18.35},
        {"name": "1-handed time", "baseline": 193.26, "treatment": 146.43, "expected_pct": 24.24},
        {"name": "2-handed time", "baseline": 146.7, "treatment": 105.86, "expected_pct": 27.84},
        {"name": "errors per participant", "baseline": 3.37, "treatment": 0.25, "expected_pct": 92.58},
        {"name": "Simple errors", "baseline": 49, "treatment": 3, "expected_pct": 93.88},
        {"name": "Critical errors", "baseline": 6, "treatment": 1, "expected_pct": 83.33},
    ],
    "improvement_tolerance_pct": 0.01,
}


@record(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def run_reference_checks() -> list[CheckResult]:
    """Recompute every published reference value from embedded inputs."""
    results = []

    cfg = REFERENCE_CONSTANTS["anova_total_time"]
    groups = [GroupSummary(n=g[0], mean=g[1], sd=g[2]) for g in cfg["groups"]]
    res = anova_oneway_summary(groups)
    lo, hi = cfg["f_range"]
    ok = (
        lo <= res.statistic <= hi
        and res.df == tuple(cfg["df"])
        and res.p_value < cfg["p_max"]
    )
    results.append(
        CheckResult(
            "anova_total_time",
            ok,
            f"F={res.statistic:.2f} (expect [{lo}, {hi}]), df={res.df}, p={res.p_value:.2e}",
        )
    )

    for item in REFERENCE_CONSTANTS["weighted_totals"]:
        s, c, r = item["counts"]
        got = weighted_total(ErrorCounts(s, c, r))
        results.append(
            CheckResult(
                f"weighted_total({s},{c},{r})",
                got == item["expected"],
                f"got {got}, expect {item['expected']}",
            )
        )

    tol = REFERENCE_CONSTANTS["improvement_tolerance_pct"]
    for item in REFERENCE_CONSTANTS["improvements"]:
        got_pct = percent_improvement(item["baseline"], item["treatment"]) * 100.0
        ok = math.isclose(got_pct, item["expected_pct"], abs_tol=tol)
        results.append(
            CheckResult(
                f"improvement {item['name']}",
                ok,
                f"got {got_pct:.4f}%, expect {item['expected_pct']}% (+/-{tol} pp)",
            )
        )
    return results
