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
from dataclasses import dataclass, field
from typing import Optional

from replicasim.metrics import CSV_COLUMNS, ErrorCounts, percent_improvement, weighted_total
from replicasim.stats import Comparison, GroupSummary, Sample, anova_oneway_summary, compare_groups, mean_sd

TIME_MEASURES = ("total_s", "one_handed_s", "two_handed_s")
ERROR_MEASURES = ("simple", "critical", "repetition", "weighted_total")
ALL_MEASURES = TIME_MEASURES + ERROR_MEASURES

BASELINE_CONDITION = "tablet"
TREATMENT_CONDITION = "hmd"


class ReportError(Exception):
    pass


def read_metrics_csv(path: str) -> list[dict]:
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        missing = set(CSV_COLUMNS) - set(reader.fieldnames or ())
        if missing:
            raise ReportError(f"metrics CSV missing columns: {sorted(missing)}")
        for i, raw in enumerate(reader, start=2):
            try:
                row = {
                    "session_id": raw["session_id"],
                    "condition": raw["condition"],
                    "seed": int(raw["seed"]),
                }
                for key in TIME_MEASURES:
                    row[key] = float(raw[key])
                for key in ("simple", "critical", "repetition", "weighted_total"):
                    row[key] = int(raw[key])
            except (KeyError, TypeError, ValueError) as exc:
                raise ReportError(f"malformed CSV row at line {i}: {exc}") from None
            rows.append(row)
    if not rows:
        raise ReportError("metrics CSV contains no data rows")
    return rows


def write_metrics_csv(path: str, rows: list[dict]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: row[k] for k in CSV_COLUMNS})


@dataclass
class AnalysisReport:
    conditions: tuple[str, ...]
    summaries: dict  # (measure, condition) -> GroupSummary
    comparisons: list[Comparison] = field(default_factory=list)
    error_totals: dict = field(default_factory=dict)  # condition -> ErrorCounts
    participants: dict = field(default_factory=dict)  # condition -> n
    improvements: dict = field(default_factory=dict)  # name -> fraction


def analyze_rows(rows: list[dict]) -> AnalysisReport:
    by_condition: dict[str, list[dict]] = {}
    for row in rows:
        by_condition.setdefault(row["condition"], []).append(row)
    conditions = tuple(sorted(by_condition, reverse=True))  # tablet before hmd

    summaries = {}
    for measure in ALL_MEASURES:
        for cond, cond_rows in by_condition.items():
            values = tuple(float(r[measure]) for r in cond_rows)
            if len(values) >= 2:
                summaries[(measure, cond)] = mean_sd(Sample(values, label=f"{cond}:{measure}"))

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
        summaries=summaries,
        error_totals=error_totals,
        participants=participants,
    )
    if BASELINE_CONDITION in by_condition and TREATMENT_CONDITION in by_condition:
        for measure in ALL_MEASURES:
            a = Sample(tuple(float(r[measure]) for r in by_condition[BASELINE_CONDITION]), label=BASELINE_CONDITION)
            b = Sample(tuple(float(r[measure]) for r in by_condition[TREATMENT_CONDITION]), label=TREATMENT_CONDITION)
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
    ]
    for label, get in rows:
        cells = []
        for cond in report.conditions:
            total = get(report.error_totals[cond])
            cells.append(f"{total} | {total / report.participants[cond]:.2f}")
        out.write(f"| {label} | " + " | ".join(cells) + " |\n")
    cells = []
    for cond in report.conditions:
        wt = weighted_total(report.error_totals[cond])
        cells.append(f"{wt} | {wt / report.participants[cond]:.2f}")
    out.write("| Total with ponderation | " + " | ".join(cells) + " |\n")
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
                "anova" if c.chosen == "anova" else "mww",
                c.result.statistic_name,
                f"{c.result.statistic:.6g}",
                df1,
                df2,
                f"{c.result.p_value:.6g}",
                int(c.result.exact),
            ]
        )
    return out.getvalue()


def render_svg_histogram(values_by_condition: dict[str, list[float]], measure: str, bins: int = 8) -> str:
    """Small self-contained grouped histogram; deterministic output."""
    all_values = [v for vals in values_by_condition.values() for v in vals]
    lo, hi = min(all_values), max(all_values)
    if hi <= lo:
        hi = lo + 1.0
    width, height, margin = 640, 320, 40
    edges = [lo + (hi - lo) * i / bins for i in range(bins + 1)]
    conditions = sorted(values_by_condition, reverse=True)
    counts = {
        cond: [
            sum(1 for v in vals if edges[i] <= v < edges[i + 1] or (i == bins - 1 and v == hi))
            for i in range(bins)
        ]
        for cond, vals in values_by_condition.items()
    }
    peak = max(max(c) for c in counts.values()) or 1
    colors = {"tablet": "#c0504d", "hmd": "#4f81bd"}
    bar_w = (width - 2 * margin) / bins / (len(conditions) + 0.5)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<text x="{width // 2}" y="16" text-anchor="middle" font-size="14">{measure}</text>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" y2="{height - margin}" stroke="#333"/>',
    ]
    for i in range(bins):
        x0 = margin + (width - 2 * margin) * i / bins
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


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def run_reference_checks(constants: Optional[dict] = None) -> list[CheckResult]:
    """Recompute every published reference value from embedded inputs."""
    consts = constants or REFERENCE_CONSTANTS
    results = []

    cfg = consts["anova_total_time"]
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

    for item in consts["weighted_totals"]:
        s, c, r = item["counts"]
        got = weighted_total(ErrorCounts(s, c, r))
        results.append(
            CheckResult(
                f"weighted_total({s},{c},{r})",
                got == item["expected"],
                f"got {got}, expect {item['expected']}",
            )
        )

    tol = consts["improvement_tolerance_pct"]
    for item in consts["improvements"]:
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
