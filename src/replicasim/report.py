"""Analysis reports over the rows that ``metrics.read_metrics_csv`` reads, plus reference self-checks.

The analysis mirrors the evaluation pipeline: Shapiro-Wilk per group and
measurement, then one-way ANOVA where both groups look normal and the
Mann-Whitney-Wilcoxon rank test otherwise. Every figure a report prints is
read from one ``Sample`` per (measure, condition), from its summary, or from
its exact total, which the errors table and the reductions share.
``IMPROVEMENTS`` declares the paper's six headline reductions and
``reductions`` computes them; ``run_reference_checks`` feeds the same function
the paper's own figures, ``PAPER_GROUPS``. Reports render as markdown + CSV,
with optional SVG histograms.
"""
from __future__ import annotations

import csv
import io
import math
from operator import itemgetter

# read_metrics_csv and write_metrics_csv live in metrics, beside the CSV's columns;
# report binds them too, under the names that bench/tracer.py times.
from replicasim.metrics import (
    ALL_MEASURES,
    ERROR_MEASURES,
    TIME_MEASURES,
    Condition,
    ErrorCounts,
    percent_improvement,
    read_metrics_csv,
    weighted_total,
    write_metrics_csv,
)
from replicasim.records import field, record
from replicasim.stats import Comparison, GroupSummary, Sample, anova_oneway_summary, compare_groups, mean_sd

HISTOGRAM_BINS = 8

BASELINE_CONDITION = Condition.TABLET.value
TREATMENT_CONDITION = Condition.HMD.value


# Which figure of a group a headline compares: its mean, its exact total, or that total per session.
MEAN, TOTAL, PER_SESSION = "mean", "total", "total per session"

# The paper's six headline reductions, tablet baseline to hmd: (label, measure, figure, the paper's %).
IMPROVEMENTS = (
    ("total completion time", "total_s", MEAN, 18.35),
    ("1-handed manipulation time", "one_handed_s", MEAN, 24.24),
    ("2-handed manipulation time", "two_handed_s", MEAN, 27.84),
    ("errors per participant", "weighted_total", PER_SESSION, 92.58),
    ("Simple errors", "simple", TOTAL, 93.88),
    ("Critical errors", "critical", TOTAL, 83.33),
)


def reductions(means: dict, totals: dict, sizes: dict) -> dict[str, float]:
    """Each IMPROVEMENTS label -> (baseline - treatment) / baseline of the figure its row reads.

    ``means`` and ``totals`` are keyed by (measure, condition), ``sizes`` by condition.
    A row whose baseline figure is not positive is left out.
    """
    fractions = {}
    for label, measure, figure, _ in IMPROVEMENTS:
        base, treat = (
            means[measure, cond] if figure == MEAN
            else totals[measure, cond] if figure == TOTAL
            else totals[measure, cond] / sizes[cond]
            for cond in (BASELINE_CONDITION, TREATMENT_CONDITION)
        )
        if base > 0:
            fractions[label] = percent_improvement(base, treat)
    return fractions


@record
class AnalysisReport:
    conditions: tuple[str, ...]
    samples: dict  # (measure, condition) -> Sample
    summaries: dict  # (measure, condition) -> GroupSummary, for groups of n >= 2
    totals: dict  # (error measure, condition) -> exact total
    comparisons: list[Comparison] = field(default_factory=list)
    improvements: dict = field(default_factory=dict)  # label of IMPROVEMENTS -> fraction


def analyze_rows(rows: list[dict]) -> AnalysisReport:
    by_condition: dict[str, list[dict]] = {}
    for row in rows:
        by_condition.setdefault(row["condition"], []).append(row)
    conditions = tuple(c.value for c in Condition if c.value in by_condition)  # in declaration order: tablet first

    # One sample per (measure, condition): it gives the histograms and the errors
    # table and, for a group of at least two sessions, the summary and, when both
    # conditions have one, the comparison and the reductions.
    samples = {
        (measure, cond): Sample(tuple(map(float, map(itemgetter(measure), cond_rows))), label=f"{cond}:{measure}")
        for measure in ALL_MEASURES
        for cond, cond_rows in by_condition.items()
    }
    summaries = {key: mean_sd(sample) for key, sample in samples.items() if sample.n >= 2}
    # Exact: each count is an integer that a float holds, but a float sum past 2**53 rounds.
    totals = {(measure, cond): sum(map(int, samples[measure, cond].values))
              for measure in ERROR_MEASURES for cond in conditions}
    report = AnalysisReport(conditions=conditions, samples=samples, summaries=summaries, totals=totals)
    pairs = {measure: ((measure, BASELINE_CONDITION), (measure, TREATMENT_CONDITION)) for measure in ALL_MEASURES}
    if all(key in summaries for pair in pairs.values() for key in pair):  # comparing needs each group's mean and SD
        for measure, (a, b) in pairs.items():
            report.comparisons.append(compare_groups(samples[a], samples[b], measure=measure))
        means = {key: summary.mean for key, summary in summaries.items()}
        report.improvements = reductions(means, totals, {cond: len(group) for cond, group in by_condition.items()})
    return report


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
    type_labels = ("Simple (x1)", "Critical (x2)", "Repetition (x1)", "Total with ponderation")
    for measure, label in zip(ERROR_MEASURES, type_labels, strict=True):
        cells = []
        for cond in report.conditions:
            total = report.totals[measure, cond]
            cells.append(f"{total} | {total / report.samples[measure, cond].n:.2f}")
        out.write(f"| {label} | " + " | ".join(cells) + " |\n")
    if report.improvements:
        out.write("\n## Improvements (tablet baseline vs hmd)\n\n")
        for label, frac in report.improvements.items():
            out.write(f"- {label}: {abs(frac) * 100.0:.2f}% {'lower' if frac >= 0 else 'higher'}\n")
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

# The paper's figures per group: n, the mean of each time measure (total_s also with its sd),
# and the total of each error measure, weighted_total being the ponderated total of the other three.
PAPER_GROUPS = {
    BASELINE_CONDITION: {
        "n": 19, "total_s": 763.65, "total_s sd": 76.80, "one_handed_s": 193.26, "two_handed_s": 146.7,
        "simple": 49, "critical": 6, "repetition": 3, "weighted_total": 64,
    },
    TREATMENT_CONDITION: {
        "n": 20, "total_s": 623.55, "total_s sd": 67.70, "one_handed_s": 146.43, "two_handed_s": 105.86,
        "simple": 3, "critical": 1, "repetition": 0, "weighted_total": 5,
    },
}


@record(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def run_reference_checks() -> list[CheckResult]:
    """Recompute the paper's published values from its figures in PAPER_GROUPS."""
    groups = PAPER_GROUPS.values()
    res = anova_oneway_summary([GroupSummary(n=g["n"], mean=g["total_s"], sd=g["total_s sd"]) for g in groups])
    lo, hi = 36.3, 36.9
    ok = lo <= res.statistic <= hi and res.df == (1, 37) and res.p_value < 1e-6
    detail = f"F={res.statistic:.2f} (expect [{lo}, {hi}]), df={res.df}, p={res.p_value:.2e}"
    results = [CheckResult("anova_total_time", ok, detail)]

    for g in groups:
        s, c, r = g["simple"], g["critical"], g["repetition"]
        got = weighted_total(ErrorCounts(s, c, r))
        results.append(CheckResult(f"weighted_total({s},{c},{r})", got == g["weighted_total"],
                                   f"got {got}, expect {g['weighted_total']}"))

    # The same rows and reduction as analyze, fed the paper's figures in place of a corpus's.
    fractions = reductions(
        {(m, cond): g[m] for cond, g in PAPER_GROUPS.items() for m in TIME_MEASURES},
        {(m, cond): g[m] for cond, g in PAPER_GROUPS.items() for m in ERROR_MEASURES},
        {cond: g["n"] for cond, g in PAPER_GROUPS.items()},
    )
    tol = 0.01  # percentage points
    for label, _, _, paper_pct in IMPROVEMENTS:
        got_pct = fractions[label] * 100.0
        results.append(CheckResult(f"improvement {label}", math.isclose(got_pct, paper_pct, abs_tol=tol),
                                   f"got {got_pct:.4f}%, expect {paper_pct}% (+/-{tol} pp)"))
    return results
