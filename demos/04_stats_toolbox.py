"""
The statistics toolbox on its own
=================================

The three tests used by the analysis pipeline, exercised directly: normality
via Shapiro-Wilk (Royston's approximation), the exact small-sample
Mann-Whitney test, and one-way ANOVA from raw data or published summaries.
"""
import random

from replicasim.stats import (
    GroupSummary,
    Sample,
    anova_oneway_raw,
    anova_oneway_summary,
    compare_groups,
    mann_whitney,
    mean_sd,
    shapiro_wilk,
)

rng = random.Random(42)

# Normality: a Gaussian sample passes, a squared-exponential one does not.
gaussian = Sample(tuple(rng.gauss(10.0, 2.0) for _ in range(20)), label="gaussian")
skewed = Sample(tuple(rng.expovariate(1.0) ** 2 for _ in range(20)), label="skewed")
for sample in (gaussian, skewed):
    res = shapiro_wilk(sample)
    print(f"SW {sample.label:<9} W={res.statistic:.3f} p={res.p_value:.3f}")

# Exact Mann-Whitney on tiny samples: p counts every labeling of the pooled ranks.
res = mann_whitney(Sample((1.0, 2.0)), Sample((3.0, 4.0)))
print(f"\nMWW U={res.statistic} exact={res.exact} p={res.p_value:.4f} "
      f"(rank sum W={res.extra['rank_sum_w']})")

# ANOVA from raw groups, and rebuilt from (n, mean, sd) summaries alone.
a = Sample(tuple(rng.gauss(763.0, 75.0) for _ in range(19)))
b = Sample(tuple(rng.gauss(624.0, 68.0) for _ in range(20)))
raw = anova_oneway_raw([a, b])
print(f"\nANOVA raw: F={raw.statistic:.2f} df={raw.df} p={raw.p_value:.2e}")

summary = anova_oneway_summary([GroupSummary(19, 763.65, 76.80), GroupSummary(20, 623.55, 67.70)])
print(f"ANOVA from published summaries: F={summary.statistic:.2f} df={summary.df} "
      f"p={summary.p_value:.2e}")

# The branching pipeline in one call.
comparison = compare_groups(a, b, measure="total_s")
print(f"\npipeline chose {comparison.chosen.upper()}: p={comparison.result.p_value:.2e}")
for sample, group in zip((a, b), ("first", "second")):
    summary = mean_sd(sample)
    print(f"  {group}: n={summary.n} mean={summary.mean:.1f} sd={summary.sd:.1f}")
