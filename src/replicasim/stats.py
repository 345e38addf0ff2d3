"""Normality testing, rank comparison, and one-way ANOVA.

Shapiro-Wilk follows Royston's AS R94 polynomial approximations (valid for
3 <= n <= 50); its coefficients depend on n alone and are computed once per n.
Mann-Whitney uses midranks; for small samples its exact p-value counts all
labelings by a rank-sum recurrence, otherwise it takes the tie-corrected
normal approximation. One pass over the sorted pooled values gives both the
midranks and the tie term (Lehmann, *Nonparametrics*, 1975). The recurrence
packs the counts for each subset size into the base-2**b digits of one Python
integer, with b wide enough that no count spills into the next digit, so every
count stays an exact integer. A sample's mean and sum of squared deviations are
summed once, with ``math.fsum``, into slots of the ``Sample``, for ``mean_sd``,
``shapiro_wilk`` and ANOVA. Neither moves a bit: rank sums, tie terms and U are
exact integers or halves, and ``fsum`` is correctly rounded in any term order.
The deviations stay squared as ``(v - mean) ** 2``, which calls C ``pow``; a
``d * d`` may round differently in the last bit, which would move sd and W.
ANOVA computes F from (n, mean, sd) group summaries, which is how published
results are reconstructed; raw samples go through their summaries. The F
tail is a regularized incomplete beta function, evaluated by Lentz's
continued fraction (Press et al., *Numerical Recipes*, 3rd ed., 2007,
section 6.4). Everything here is standard library.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from statistics import NormalDist
from typing import Optional, Sequence

from replicasim import ConfigError, checks
from replicasim.records import record

_NORMAL = NormalDist()

DEFAULT_EXACT_THRESHOLD = 16
NORMALITY_ALPHA = 0.05


class StatsError(Exception):
    pass


class DegenerateSampleError(StatsError):
    pass


class _Moments:
    __slots__ = ("n", "_mean", "_ss")  # Sample's; a base class, so that its frozen twin has them too


@record(frozen=True)
class Sample(_Moments):
    """Finite values as a tuple of floats, and a label; ``n`` and the moments are filled once, when it is built."""

    values: tuple[float, ...]
    label: str = ""

    def __post_init__(self) -> None:
        n = len(self.values)
        if n < 1:
            raise StatsError("sample must contain at least one value")
        try:
            values = checks.vector(self.values, "sample values", n)
        except ConfigError as exc:
            raise StatsError(str(exc)) from None
        mean = math.fsum(values) / n
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_mean", mean)
        object.__setattr__(self, "_ss", math.fsum([(v - mean) ** 2 for v in values]))


@record(frozen=True)
class GroupSummary:
    n: int
    mean: float
    sd: float  # sample standard deviation, n-1 divisor
    label: str = ""

    def __post_init__(self) -> None:
        if self.n < 2:
            raise StatsError(f"group {self.label!r} needs n >= 2, got {self.n}")
        if self.sd < 0:
            raise StatsError("standard deviation must be non-negative")


@dataclass(frozen=True)
class TestResult:
    statistic: float
    statistic_name: str  # W_sw | U | W_ranksum | F
    p_value: float
    df: Optional[tuple[int, int]] = None
    exact: bool = False
    extra: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not 0.0 <= self.p_value <= 1.0:
            raise StatsError(f"p-value {self.p_value!r} outside [0, 1]")


def mean_sd(sample: Sample) -> GroupSummary:
    if sample.n < 2:
        raise StatsError("mean_sd needs at least two values")
    return GroupSummary(n=sample.n, mean=sample._mean, sd=math.sqrt(sample._ss / (sample.n - 1)), label=sample.label)


# --- Shapiro-Wilk ------------------------------------------------------------------


def _polyval(coeffs: Sequence[float], x: float) -> float:
    """Horner's rule, highest power first."""
    y = 0.0
    for c in coeffs:
        y = y * x + c
    return y


@functools.cache
def _shapiro_wilk_weights(n: int) -> tuple[float, ...]:
    """Royston's approximate coefficients against expected normal order statistics.

    A pure function of n, computed once per n: ``shapiro_wilk`` accepts
    3 <= n <= 50, so the cache holds at most 48 entries.
    """
    if n == 3:
        s = 1.0 / math.sqrt(2.0)
        return (-s, 0.0, s)
    m = [_NORMAL.inv_cdf((i - 0.375) / (n + 0.25)) for i in range(1, n + 1)]
    mm = math.fsum(v * v for v in m)
    rsn = 1.0 / math.sqrt(n)
    poly_an = [-2.706056, 4.434685, -2.071190, -0.147981, 0.221157, 0.0]
    poly_an1 = [-3.582633, 5.682633, -1.752461, -0.293762, 0.042981, 0.0]
    an = m[-1] / math.sqrt(mm) + _polyval(poly_an, rsn)
    if n > 5:
        an1 = m[-2] / math.sqrt(mm) + _polyval(poly_an1, rsn)
        phi = (mm - 2.0 * m[-1] ** 2 - 2.0 * m[-2] ** 2) / (1.0 - 2.0 * an**2 - 2.0 * an1**2)
        return (-an, -an1, *(v / math.sqrt(phi) for v in m[2:-2]), an1, an)
    phi = (mm - 2.0 * m[-1] ** 2) / (1.0 - 2.0 * an**2)
    return (-an, *(v / math.sqrt(phi) for v in m[1:-1]), an)


def _shapiro_wilk_pvalue(w: float, n: int) -> float:
    if n == 3:
        p = (6.0 / math.pi) * (math.asin(math.sqrt(w)) - math.asin(math.sqrt(0.75)))
        return min(max(p, 0.0), 1.0)
    if w >= 1.0:
        return 1.0  # as scipy.stats.shapiro; log(1 - w) below is undefined
    w1 = 1.0 - w
    if n <= 11:
        gamma = -2.273 + 0.459 * n
        # The log's argument is positive for every sample: gamma > 0 for n >= 5, and at n = 4 it needs
        # W > 0.354, where no 4 values have W below 0.6298, that of three equal values and one outlier.
        y = -math.log(gamma - math.log(w1))
        mu = 0.5440 - 0.39978 * n + 0.025054 * n**2 - 0.0006714 * n**3
        sigma = math.exp(1.3822 - 0.77857 * n + 0.062767 * n**2 - 0.0020322 * n**3)
    else:
        x = math.log(n)
        y = math.log(w1)
        mu = -1.5861 - 0.31082 * x - 0.083751 * x**2 + 0.0038915 * x**3
        sigma = math.exp(-0.4803 - 0.082676 * x + 0.0030302 * x**2)
    z = (y - mu) / sigma
    return min(max(1.0 - _NORMAL.cdf(z), 0.0), 1.0)


def shapiro_wilk(sample: Sample) -> TestResult:
    """Shapiro-Wilk W and its small-sample p approximation (3 <= n <= 50)."""
    n = sample.n
    if not 3 <= n <= 50:
        raise StatsError(f"shapiro_wilk supports 3 <= n <= 50, got n={n}")
    ss = sample._ss
    if ss <= 0.0:
        raise DegenerateSampleError("sample has zero variance")
    w = math.fsum([a * v for a, v in zip(_shapiro_wilk_weights(n), sorted(sample.values))]) ** 2 / ss
    w = min(w, 1.0)
    return TestResult(
        statistic=w,
        statistic_name="W_sw",
        p_value=_shapiro_wilk_pvalue(w, n),
        exact=n == 3,
    )


# --- Mann-Whitney-Wilcoxon ----------------------------------------------------------


def _doubled_midranks(values: Sequence[float]) -> tuple[dict[float, int], int]:
    """Twice each distinct value's midrank, and the tie term: c**3 - c summed over the runs of c tied values.

    Doubled midranks are integers. A dict of the sorted values keeps twice each
    value's last 1-based position: without ties that is its doubled rank; with
    them, a run of tied values spans the positions after the run before it up
    to there, and its doubled midrank is its first position plus its last.
    """
    ordered = sorted(values)
    n = len(ordered)
    last = dict(zip(ordered, range(2, 2 * n + 1, 2)))
    if len(last) == n:
        return last, 0
    ranks, tie_term, before = {}, 0, 0
    for value, end in last.items():
        ranks[value] = (before + end) // 2 + 1
        c = (end - before) // 2
        tie_term += c**3 - c
        before = end
    return ranks, tie_term


def _exact_two_sided_p(ranks2: list[int], n1: int) -> float:
    """Share of the C(n, n1) labelings whose |2U - n1*n2| is at least the observed one.

    Counts labelings instead of enumerating them (Mann & Whitney 1947; with
    ties, Streitberg & Roehmel 1986). Since 2U - n1*n2 = s - n1*(n + 1) for the
    first sample's doubled rank sum s, every comparison and count is an exact
    integer.

    The counts are packed into integers. Over the ranks in ascending order,
    ``counts[j]`` is the generating polynomial of the j-subsets of the ranks
    seen so far, evaluated at x = 2**b: its base-2**b digit e is the number of
    those subsets whose rank sum s is least_j + e * step. Here least_j is the
    sum of the j smallest ranks and step is the gcd of the differences between
    ranks, so s - least_j is a multiple of step. Adding one rank to every
    subset of size j - 1 is then one shift and one add.

    Digits cannot collide. A subset size j is kept only while its subsets can
    still grow to size n1, so they are drawn from at most j + n2 ranks, and
    there are at most C(j + n2, j) <= C(n, n1) < 2**(b - 1) of them. Each digit
    holds its count exactly, so the p-value is the same as from unpacked counts.
    """
    n = len(ranks2)
    total = math.comb(n, n1)
    centre = n1 * (n + 1)
    observed = abs(sum(ranks2[:n1]) - centre)
    if observed == 0:
        return 1.0
    ranks2 = sorted(ranks2)
    step = math.gcd(*(r - ranks2[0] for r in ranks2))
    b = total.bit_length() + 1
    counts = [1] + [0] * n1
    for seen, r in enumerate(ranks2):
        # With n - seen - 1 ranks left, sizes below n1 - (n - seen - 1) are dropped.
        for j in range(min(seen + 1, n1), max(n1 - n + seen, 0), -1):
            counts[j] += counts[j - 1] << (r - ranks2[j - 1]) // step * b
    # The tails are the digits at s <= centre - observed and at
    # s >= centre + observed: digits e up to the floor of
    # (centre - observed - least) / step and from the ceiling of
    # (centre + observed - least) / step. The digits of each tail sum to at
    # most C(n, n1) < 2**b - 1, so that sum is the tail's residue modulo
    # 2**b - 1, since 2**b = 1 there.
    least = sum(ranks2[:n1])
    low_top = (centre - observed - least) // step
    high_bottom = -((least - centre - observed) // step)
    digit_sum = (1 << b) - 1
    low = counts[n1] & ((1 << max(low_top + 1, 0) * b) - 1)
    high = counts[n1] >> high_bottom * b
    return (low % digit_sum + high % digit_sum) / total


def mann_whitney(a: Sample, b: Sample, exact_threshold: int = DEFAULT_EXACT_THRESHOLD) -> TestResult:
    """Two-sided Mann-Whitney-Wilcoxon test.

    Reports U for the first sample; the rank-sum W of the first sample rides
    along in ``extra`` since both conventions appear in the literature. When
    the pooled size is at most ``exact_threshold`` the p-value is exact: the
    share of all C(n1 + n2, n1) labelings at least as extreme, counted by a
    rank-sum recurrence rather than enumerated. The recurrence keeps the counts
    of each subset size as the digits of one integer, so it costs one shift
    and one add per rank and subset size. Every count is an exact integer, and
    so is the comparison with the observed statistic.
    """
    n1, n2 = a.n, b.n
    pooled = (*a.values, *b.values)
    midranks2, tie_term = _doubled_midranks(pooled)
    ranks2 = list(map(midranks2.__getitem__, pooled))
    rank_sum_a = sum(ranks2[:n1]) / 2.0
    u_a = rank_sum_a - n1 * (n1 + 1) / 2.0
    u_b = n1 * n2 - u_a
    mu = n1 * n2 / 2.0
    extra = {
        "rank_sum_w": rank_sum_a,
        "u_a": u_a,
        "u_b": u_b,
        "convention": "U is U_a for the first sample; W is the first sample's rank sum",
    }

    if n1 + n2 <= exact_threshold:
        p = _exact_two_sided_p(ranks2, n1)
        return TestResult(statistic=u_a, statistic_name="U", p_value=p, exact=True, extra=extra)

    size = n1 + n2
    var = (n1 * n2 / 12.0) * ((size + 1) - tie_term / (size * (size - 1)))
    if var <= 0.0:
        return TestResult(statistic=u_a, statistic_name="U", p_value=1.0, exact=False, extra=extra)
    z = (abs(u_a - mu) - 0.5) / math.sqrt(var)  # continuity-corrected
    p = 2.0 * (1.0 - _NORMAL.cdf(max(z, 0.0)))
    return TestResult(statistic=u_a, statistic_name="U", p_value=min(p, 1.0), exact=False, extra=extra)


# --- One-way ANOVA -------------------------------------------------------------------


_BETACF_EPS = 1e-15
_BETACF_MAX_ITER = 10_000
_BETACF_TINY = 1e-300


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for I_x(a, b), by the modified Lentz method (NR section 6.4)."""
    c = 1.0
    d = 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) >= _BETACF_TINY else _BETACF_TINY)
    h = d
    for m in range(1, _BETACF_MAX_ITER + 1):
        # Even step d_2m, then odd step d_2m+1, of the fraction's numerators.
        for aa in (
            m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0)),
        ):
            d = 1.0 + aa * d
            d = 1.0 / (d if abs(d) >= _BETACF_TINY else _BETACF_TINY)
            c = 1.0 + aa / c
            c = c if abs(c) >= _BETACF_TINY else _BETACF_TINY
            h *= d * c
        if abs(d * c - 1.0) < _BETACF_EPS:
            return h
    raise StatsError(f"incomplete beta I_{x!r}({a!r}, {b!r}) did not converge")


def _betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b) for a, b > 0 and 0 <= x <= 1."""
    if not 0.0 <= x <= 1.0:
        raise StatsError(f"incomplete beta needs 0 <= x <= 1, got {x!r}")
    if x in (0.0, 1.0):
        return x
    front = math.exp(
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b) + a * math.log(x) + b * math.log1p(-x)
    )
    # The fraction converges fast below the mean of the beta distribution;
    # above it, use I_x(a, b) = 1 - I_{1-x}(b, a).
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def _f_sf(f: float, df1: int, df2: int) -> float:
    if f <= 0.0:
        return 1.0
    x = df2 / (df2 + df1 * f)
    return _betainc(df2 / 2.0, df1 / 2.0, x)


def anova_oneway_raw(groups: list[Sample]) -> TestResult:
    """F statistic of raw samples, from their (n, mean, sd) summaries."""
    return anova_oneway_summary([mean_sd(g) for g in groups])


def anova_oneway_summary(groups: list[GroupSummary]) -> TestResult:
    """F statistic reconstructed from group (n, mean, sd) summaries."""
    if len(groups) < 2:
        raise StatsError("ANOVA needs at least two groups")
    total_n = sum(g.n for g in groups)
    grand = sum(g.n * g.mean for g in groups) / total_n
    ss_between = sum(g.n * (g.mean - grand) ** 2 for g in groups)
    ss_within = sum((g.n - 1) * g.sd**2 for g in groups)
    # Every group has n >= 2, so df2 >= len(groups) > 0.
    df1, df2 = len(groups) - 1, total_n - len(groups)
    ms_within = ss_within / df2
    if ms_within <= 0.0:
        if ss_between <= 0.0:
            raise DegenerateSampleError("all observations identical; F undefined")
        return TestResult(statistic=math.inf, statistic_name="F", p_value=0.0, df=(df1, df2))
    f = (ss_between / df1) / ms_within
    return TestResult(statistic=f, statistic_name="F", p_value=_f_sf(f, df1, df2), df=(df1, df2))


# --- Normality-branch pipeline --------------------------------------------------------


@dataclass(frozen=True)
class Comparison:
    """One measurement's full pipeline record: SW per group, branch, final test."""

    measure: str
    shapiro: tuple[Optional[TestResult], ...]
    chosen: str  # "anova" | "mww"
    result: TestResult


def compare_groups(a: Sample, b: Sample, measure: str = "") -> Comparison:
    """Shapiro-Wilk both groups; ANOVA when both look normal, MWW otherwise.

    A degenerate (zero-variance) group counts as non-normal, which routes the
    comparison to the rank test.
    """
    shapiro_results: list[Optional[TestResult]] = []
    normal = True
    for sample in (a, b):
        try:
            res = shapiro_wilk(sample)
            shapiro_results.append(res)
            normal = normal and res.p_value > NORMALITY_ALPHA
        except StatsError:
            shapiro_results.append(None)
            normal = False
    if normal:
        chosen = "anova"
        result = anova_oneway_raw([a, b])
    else:
        chosen = "mww"
        result = mann_whitney(a, b)
    return Comparison(
        measure=measure,
        shapiro=tuple(shapiro_results),
        chosen=chosen,
        result=result,
    )
