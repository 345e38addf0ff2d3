import copy
import dataclasses
import itertools
import math
import pickle
import random
from collections import Counter
from statistics import NormalDist

import numpy as np
import pytest
from scipy import special
from scipy import stats as scipy_stats

from replicasim import records, report, stats
from replicasim.stats import (
    DEFAULT_EXACT_THRESHOLD,
    DegenerateSampleError,
    GroupSummary,
    Sample,
    StatsError,
    anova_oneway_raw,
    anova_oneway_summary,
    compare_groups,
    mann_whitney,
    mean_sd,
    shapiro_wilk,
    _betainc,
    _doubled_midranks,
    _exact_two_sided_p,
    _f_sf,
    _shapiro_wilk_pvalue,
    _shapiro_wilk_weights,
)

# Monte-Carlo estimate of the expected standard-normal order statistics for
# n=20 (1e7 sorted draws; scripts/sw_order_stats_oracle.py, MC_SEED=977131).
MC_ORDER_STATS_N20 = [
    -1.867416557, -1.407512005, -1.130937393, -0.921032886, -0.745475022,
    -0.590395775, -0.448422102, -0.315070876, -0.187034713, -0.062088179,
    0.061929209, 0.186923817, 0.31491655, 0.448366902, 0.590356511,
    0.745473684, 0.921111779, 1.131117737, 1.407736569, 1.86756041,
]
SW_ORACLE_SAMPLE_SEED = 2024
SW_ORACLE_W = 0.936444249


def uniform_sample_n20():
    r = random.Random(SW_ORACLE_SAMPLE_SEED)
    return tuple(sorted(r.random() for _ in range(20)))


def oracle_weights_from_order_stats(m):
    """Weight construction written out independently, fed exact order stats (n >= 4)."""
    m = np.asarray(m)
    n = len(m)
    mm = float(m @ m)
    c = m / math.sqrt(mm)
    u = 1.0 / math.sqrt(n)
    a_n = c[-1] + 0.221157 * u - 0.147981 * u**2 - 2.071190 * u**3 + 4.434685 * u**4 - 2.706056 * u**5
    if n <= 5:
        phi = (mm - 2 * m[-1] ** 2) / (1 - 2 * a_n**2)
        a = m / math.sqrt(phi)
        a[-1], a[0] = a_n, -a_n
        return a
    a_n1 = c[-2] + 0.042981 * u - 0.293762 * u**2 - 1.752461 * u**3 + 5.682633 * u**4 - 3.582633 * u**5
    phi = (mm - 2 * m[-1] ** 2 - 2 * m[-2] ** 2) / (1 - 2 * a_n**2 - 2 * a_n1**2)
    a = m / math.sqrt(phi)
    a[-1], a[-2], a[0], a[1] = a_n, a_n1, -a_n, -a_n1
    return a


class TestShapiroWilk:
    def test_three_point_line_has_w_one(self):
        res = shapiro_wilk(Sample((1.0, 2.0, 3.0)))
        assert abs(res.statistic - 1.0) < 1e-9
        assert res.statistic_name == "W_sw"

    def test_location_scale_invariance(self):
        rng = random.Random(55)
        for n in (3, 7, 20, 50):
            x = tuple(rng.gauss(4.0, 2.0) for _ in range(n))
            w = shapiro_wilk(Sample(x)).statistic
            w_t = shapiro_wilk(Sample(tuple(7.3 * v - 20.0 for v in x))).statistic
            assert abs(w - w_t) < 1e-12

    def test_against_monte_carlo_order_statistics_oracle(self):
        sample = uniform_sample_n20()
        a = oracle_weights_from_order_stats(MC_ORDER_STATS_N20)
        x = np.array(sample)
        w_oracle = float((a @ x) ** 2 / ((x - x.mean()) ** 2).sum())
        assert abs(w_oracle - SW_ORACLE_W) < 1e-9  # pinned value still reproduces
        res = shapiro_wilk(Sample(sample))
        assert abs(res.statistic - SW_ORACLE_W) < 1e-3

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 20, 50])
    def test_weights_match_numpy_construction(self, n):
        m = [NormalDist().inv_cdf((i - 0.375) / (n + 0.25)) for i in range(1, n + 1)]
        expected = [-math.sqrt(0.5), 0.0, math.sqrt(0.5)] if n == 3 else oracle_weights_from_order_stats(m).tolist()
        assert _shapiro_wilk_weights(n) == pytest.approx(expected, rel=0.0, abs=1e-12)

    def test_bounds_and_errors(self):
        with pytest.raises(StatsError):
            shapiro_wilk(Sample((1.0, 2.0)))
        with pytest.raises(StatsError):
            shapiro_wilk(Sample(tuple(float(i) for i in range(51))))
        with pytest.raises(DegenerateSampleError):
            shapiro_wilk(Sample((5.0, 5.0, 5.0)))

    def test_w_in_unit_interval(self):
        rng = random.Random(2)
        for _ in range(50):
            n = rng.randrange(3, 51)
            x = tuple(rng.expovariate(1.0) for _ in range(n))
            res = shapiro_wilk(Sample(x))
            assert 0.0 < res.statistic <= 1.0
            assert 0.0 <= res.p_value <= 1.0

    def test_sample_of_the_weights_has_p_one(self):
        # W of such a sample is 1 up to rounding; where it rounds to 1.0, the
        # p approximation took log(1 - W) = log(0). scipy.stats.shapiro
        # reports p = 1 for each of these samples.
        for n in range(4, 51):
            res = shapiro_wilk(Sample(_shapiro_wilk_weights(n)))
            assert res.p_value == 1.0, n

    def test_matches_scipy_reference(self):
        rng = np.random.default_rng(11)
        for n in (4, 6, 11, 12, 20, 39, 50):
            x = tuple(rng.normal(3.0, 1.5, n).tolist())
            mine = shapiro_wilk(Sample(x))
            ref = scipy_stats.shapiro(np.asarray(x))
            assert abs(mine.statistic - ref.statistic) < 1e-6
            assert abs(mine.p_value - ref.pvalue) < 1e-6


def pairwise_u(a, b):
    """Independent U definition: pairwise wins plus half-ties."""
    return sum(1.0 if x > y else 0.5 if x == y else 0.0 for x in a for y in b)


def enumeration_p(a, b):
    """Two-sided exact p by brute force over every labeling of the pooled values."""
    pooled = list(a) + list(b)
    n1 = len(a)
    mu = n1 * len(b) / 2.0
    observed = abs(pairwise_u(a, b) - mu)
    hits = total = 0
    for idx in itertools.combinations(range(len(pooled)), n1):
        group_a = [pooled[i] for i in idx]
        group_b = [pooled[i] for i in range(len(pooled)) if i not in set(idx)]
        total += 1
        if abs(pairwise_u(group_a, group_b) - mu) >= observed - 1e-12:
            hits += 1
    return hits / total


def doubled_rank_enumeration_p(a, b):
    """Two-sided exact p by enumerating every labeling over integer doubled midranks.

    A value's doubled midrank is 2 * (values below it) + (values equal to it) + 1,
    and |2U - n1*n2| = |doubled rank sum - n1*(n + 1)|, so nothing is rounded.
    """
    pooled = list(a) + list(b)
    n1, n = len(a), len(pooled)
    doubled = [2 * sum(y < x for y in pooled) + sum(y == x for y in pooled) + 1 for x in pooled]
    centre = n1 * (n + 1)
    observed = abs(sum(doubled[:n1]) - centre)
    hits = sum(1 for pick in itertools.combinations(doubled, n1) if abs(sum(pick) - centre) >= observed)
    return hits / math.comb(n, n1)


class TestMannWhitney:
    def test_separated_pair(self):
        res = mann_whitney(Sample((1.0, 2.0)), Sample((3.0, 4.0)))
        assert res.statistic == 0.0
        assert abs(res.p_value - 2.0 / 6.0) < 1e-9
        assert res.exact

    def test_perfect_balance(self):
        res = mann_whitney(Sample((1.0, 4.0)), Sample((2.0, 3.0)))
        assert res.statistic == 2.0  # n1 * n2 / 2

    def test_identical_multisets_midranks(self):
        res = mann_whitney(Sample((1.0, 2.0, 3.0)), Sample((1.0, 2.0, 3.0)))
        assert res.statistic == 4.5  # n^2 / 2

    def test_u_complements_sum_to_product(self):
        rng = random.Random(8)
        for _ in range(50):
            n1, n2 = rng.randrange(2, 8), rng.randrange(2, 8)
            a = tuple(rng.random() for _ in range(n1))
            b = tuple(rng.random() for _ in range(n2))
            res = mann_whitney(Sample(a), Sample(b))
            assert abs(res.extra["u_a"] + res.extra["u_b"] - n1 * n2) < 1e-12

    def test_exact_p_equals_enumeration_oracle_exhaustively(self):
        # Every size pair with pooled size <= 10; values drawn with ties likely.
        rng = random.Random(14)
        for n1 in range(1, 10):
            for n2 in range(1, 11 - n1):
                for _ in range(3):
                    a = tuple(float(rng.randrange(6)) for _ in range(n1))
                    b = tuple(float(rng.randrange(6)) for _ in range(n2))
                    res = mann_whitney(Sample(a), Sample(b))
                    assert res.exact
                    assert abs(res.p_value - enumeration_p(a, b)) < 1e-12
                    assert abs(res.statistic - pairwise_u(a, b)) < 1e-9

    def test_exact_p_equals_doubled_rank_enumeration_for_every_size(self):
        # Every size pair up to the exact threshold, on heavily tied integer data;
        # both sides count labelings exactly, so the p-values must be equal.
        rng = random.Random(16)
        for n in range(2, DEFAULT_EXACT_THRESHOLD + 1):
            for n1 in range(1, n):
                for levels in (2, 3, 5):
                    a = tuple(float(rng.randrange(levels)) for _ in range(n1))
                    b = tuple(float(rng.randrange(levels)) for _ in range(n - n1))
                    res = mann_whitney(Sample(a), Sample(b))
                    assert res.exact
                    assert res.p_value == doubled_rank_enumeration_p(a, b), (a, b)
            # With n1 >= n - 3, C(n, n1) and so the packed digits are narrow,
            # though the pooled sample has many more subsets of middle size.
            # A two-level tie puts many of them on one rank sum; the all-tied
            # sample puts every subset on one.
            half = [0.0, 1.0] * (n // 2) + [1.0] * (n % 2)
            for n1 in range(max(n - 3, 1), n):
                for pooled in (half, half[::-1], sorted(half), [0.0] * n):
                    a, b = tuple(pooled[:n1]), tuple(pooled[n1:])
                    res = mann_whitney(Sample(a), Sample(b))
                    assert res.exact
                    assert res.p_value == doubled_rank_enumeration_p(a, b), (a, b)

    @pytest.mark.parametrize("n1, n2", [(8, 8), (5, 11), (19, 20)])
    def test_exact_p_matches_scipy_exact_without_ties(self, n1, n2):
        rng = random.Random(n1 * 100 + n2)
        for shift in (0.0, 0.3, 1.0):
            a = tuple(rng.random() + shift for _ in range(n1))
            b = tuple(rng.random() for _ in range(n2))
            res = mann_whitney(Sample(a), Sample(b), exact_threshold=n1 + n2)
            ref = scipy_stats.mannwhitneyu(a, b, alternative="two-sided", method="exact")
            assert res.exact
            assert res.statistic == ref.statistic
            assert abs(res.p_value - ref.pvalue) < 1e-12

    def test_all_values_tied_gives_p_one(self):
        for n1, n2 in ((1, 1), (3, 5), (8, 8)):
            res = mann_whitney(Sample((2.0,) * n1), Sample((2.0,) * n2))
            assert res.exact
            assert res.p_value == 1.0

    def test_zero_threshold_takes_normal_approximation(self):
        a, b = (1.0, 2.0, 3.0, 5.0), (4.0, 6.0, 7.0, 8.0)
        assert mann_whitney(Sample(a), Sample(b)).exact
        res = mann_whitney(Sample(a), Sample(b), exact_threshold=0)
        assert not res.exact
        ref = scipy_stats.mannwhitneyu(a, b, alternative="two-sided", use_continuity=True, method="asymptotic")
        assert abs(res.p_value - ref.pvalue) < 1e-12

    def test_approximate_path_reasonable(self):
        rng = np.random.default_rng(5)
        a = tuple(rng.normal(0.0, 1.0, 25).tolist())
        b = tuple((rng.normal(0.8, 1.0, 30)).tolist())
        res = mann_whitney(Sample(a), Sample(b))
        assert not res.exact
        ref = scipy_stats.mannwhitneyu(np.asarray(a), np.asarray(b), alternative="two-sided",
                                       use_continuity=True, method="asymptotic")
        assert abs(res.p_value - ref.pvalue) < 1e-9

    def test_rank_sum_reported(self):
        res = mann_whitney(Sample((1.0, 2.0)), Sample((3.0, 4.0)))
        assert res.extra["rank_sum_w"] == 3.0
        assert "convention" in res.extra


def moment_matched(n, mean, sd, rng):
    """Raw data with exactly the requested first two moments."""
    x = np.array([rng.gauss(0.0, 1.0) for _ in range(n)])
    x = x - x.mean()
    current = x.std(ddof=1)
    if current == 0.0:
        x = np.linspace(-1.0, 1.0, n)
        current = x.std(ddof=1)
    return tuple((x / current * sd + mean).tolist())


class TestAnova:
    def test_identical_groups(self):
        res = anova_oneway_raw([Sample((1.0, 2.0, 3.0)), Sample((1.0, 2.0, 3.0))])
        assert res.statistic == 0.0 and res.p_value == 1.0

    def test_hand_computed_example(self):
        res = anova_oneway_raw([Sample((1.0, 2.0, 3.0)), Sample((4.0, 5.0, 6.0))])
        assert abs(res.statistic - 13.5) < 1e-12
        assert res.df == (1, 4)

    def test_study_summary_reconstruction(self):
        res = anova_oneway_summary([GroupSummary(19, 763.65, 76.80), GroupSummary(20, 623.55, 67.70)])
        assert 36.3 <= res.statistic <= 36.9
        assert res.df == (1, 37)
        assert res.p_value < 1e-6

    def test_equal_means_give_zero_f(self):
        res = anova_oneway_summary([GroupSummary(10, 5.0, 1.0), GroupSummary(12, 5.0, 2.0)])
        assert res.statistic == 0.0

    def test_summary_equals_raw_on_moment_matched_data(self):
        rng = random.Random(21)
        for _ in range(100):
            groups = []
            raws = []
            for _ in range(rng.randrange(2, 5)):
                n = rng.randrange(3, 30)
                mean = rng.uniform(-50.0, 50.0)
                sd = rng.uniform(0.5, 20.0)
                raw = moment_matched(n, mean, sd, rng)
                raws.append(Sample(raw))
                groups.append(GroupSummary(n, mean, sd))
            f_raw = anova_oneway_raw(raws).statistic
            f_sum = anova_oneway_summary(groups).statistic
            assert abs(f_raw - f_sum) < 1e-9 * max(1.0, abs(f_raw))

    def test_scale_equivariance(self):
        rng = random.Random(3)
        groups = [Sample(tuple(rng.gauss(10, 2) for _ in range(12))) for _ in range(3)]
        f1 = anova_oneway_raw(groups).statistic
        scaled = [Sample(tuple(17.0 * v for v in g.values)) for g in groups]
        f2 = anova_oneway_raw(scaled).statistic
        assert abs(f1 - f2) < 1e-9 * max(1.0, f1)

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateSampleError):
            anova_oneway_raw([Sample((2.0, 2.0)), Sample((2.0, 2.0))])

    def test_matches_scipy(self):
        rng = np.random.default_rng(9)
        a = rng.normal(0, 1, 15)
        b = rng.normal(0.5, 1.2, 18)
        mine = anova_oneway_raw([Sample(tuple(a.tolist())), Sample(tuple(b.tolist()))])
        ref = scipy_stats.f_oneway(a, b)
        assert abs(mine.statistic - ref.statistic) < 1e-9
        assert abs(mine.p_value - ref.pvalue) < 1e-9


class TestIncompleteBeta:
    def test_f_tails_match_scipy_betainc(self):
        rng = random.Random(606)
        for i in range(2000):
            df1, df2 = rng.randint(1, 5), rng.randint(2, 400)
            f = 0.0 if i % 100 == 0 else 10.0 ** rng.uniform(-6.0, 4.0)
            ref = float(special.betainc(df2 / 2.0, df1 / 2.0, df2 / (df2 + df1 * f)))
            # Below 1e-300 both sides are subnormal or zero, and rounding there is not relative.
            assert _f_sf(f, df1, df2) == pytest.approx(ref, rel=1e-10, abs=1e-300), (f, df1, df2)

    def test_endpoints(self):
        for a, b in ((0.5, 0.5), (1.0, 2.5), (200.0, 2.5)):
            assert _betainc(a, b, 0.0) == 0.0
            assert _betainc(a, b, 1.0) == 1.0
        assert _f_sf(0.0, 1, 37) == 1.0

    def test_x_outside_unit_interval_raises(self):
        for x in (-0.1, 1.5, math.nan):
            with pytest.raises(StatsError):
                _betainc(2.0, 3.0, x)

    def test_no_convergence_raises(self, monkeypatch):
        monkeypatch.setattr(stats, "_BETACF_MAX_ITER", 2)
        with pytest.raises(StatsError, match="did not converge"):
            _betainc(200.0, 2.5, 0.98)


class TestMeanSd:
    def test_matches_numpy(self):
        rng = random.Random(78)
        for n in (2, 3, 19, 20, 60, 500):
            values = [rng.gauss(700.0, 80.0) for _ in range(n)]
            res = mean_sd(Sample(tuple(values)))
            assert res.mean == pytest.approx(float(np.mean(values)), rel=1e-12)
            assert res.sd == pytest.approx(float(np.std(values, ddof=1)), rel=1e-12)

    def test_two_values(self):
        res = mean_sd(Sample((2.0, 4.0)))
        assert res.mean == 3.0 and abs(res.sd - math.sqrt(2.0)) < 1e-12

    def test_constant_sample(self):
        assert mean_sd(Sample((5.0, 5.0, 5.0))).sd == 0.0

    def test_round_trip_with_generator(self):
        rng = random.Random(77)
        raw = moment_matched(25, 12.5, 3.25, rng)
        res = mean_sd(Sample(raw))
        assert abs(res.mean - 12.5) < 1e-9 and abs(res.sd - 3.25) < 1e-9

    def test_needs_two(self):
        with pytest.raises(StatsError):
            mean_sd(Sample((1.0,)))


class TestPipelineBranch:
    def test_normal_groups_use_anova(self):
        rng = np.random.default_rng(31)
        a = Sample(tuple(rng.normal(10, 2, 20).tolist()))
        b = Sample(tuple(rng.normal(11, 2, 20).tolist()))
        comparison = compare_groups(a, b, measure="total_s")
        assert comparison.chosen == "anova"
        assert all(r is not None and r.p_value > 0.05 for r in comparison.shapiro)

    def test_skewed_groups_use_mww(self):
        rng = np.random.default_rng(32)
        a = Sample(tuple((rng.exponential(1.0, 25) ** 2).tolist()))
        b = Sample(tuple((rng.exponential(2.0, 25) ** 2).tolist()))
        comparison = compare_groups(a, b)
        assert comparison.chosen == "mww"

    def test_degenerate_group_routes_to_mww(self):
        a = Sample((0.0,) * 12)
        b = Sample(tuple(float(i) for i in range(12)))
        comparison = compare_groups(a, b)
        assert comparison.chosen == "mww"
        assert comparison.shapiro[0] is None

    def test_comparison_and_its_result_take_dataclasses_replace(self):
        # bench/selftest.py perturbs them with dataclasses.replace, so they stay dataclasses (ROADMAP items 1, 12).
        comparison = compare_groups(Sample((1.0, 2.0, 3.5, 4.0)), Sample((2.0, 5.0, 6.0, 9.0)), measure="m")
        flipped = dataclasses.replace(comparison, chosen="anova",
                                      result=dataclasses.replace(comparison.result, p_value=0.5))
        assert (flipped.measure, flipped.chosen, flipped.result.p_value) == ("m", "anova", 0.5)
        assert flipped.result.statistic_name == comparison.result.statistic_name


# --- The one-pass ranks and the cached moments, against the formulas they replace ---------


def seeded_values(rng, n, shape):
    """n values: distinct, on 2-5 tie levels, all tied, or -0.0 beside 0.0 among other ties."""
    if shape == "distinct":
        return [rng.gauss(0.0, 1.0) for _ in range(n)]
    if shape == "levels":
        levels = rng.randrange(2, 6)
        return [float(rng.randrange(levels)) for _ in range(n)]
    if shape == "tied":
        return [3.5] * n
    return [rng.choice((-0.0, 0.0, 1.0, rng.random())) for _ in range(n)]


SHAPES = ("distinct", "levels", "tied", "signed_zero")


def argsort_doubled_midranks(values):
    """Twice each value's midrank, as the argsort and run scan computed them before the one-pass kernel."""
    order = sorted(range(len(values)), key=values.__getitem__)
    ranks = [0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        for k in order[i : j + 1]:
            ranks[k] = i + j + 2
        i = j + 1
    return ranks


def counter_tie_term(values):
    return sum(c**3 - c for c in Counter(values).values())


def reference_mann_whitney(a, b):
    n1, n2 = len(a), len(b)
    pooled = list(a) + list(b)
    ranks2 = argsort_doubled_midranks(pooled)
    rank_sum_a = sum(ranks2[:n1]) / 2.0
    u_a = rank_sum_a - n1 * (n1 + 1) / 2.0
    extra = {
        "rank_sum_w": rank_sum_a,
        "u_a": u_a,
        "u_b": n1 * n2 - u_a,
        "convention": "U is U_a for the first sample; W is the first sample's rank sum",
    }
    if n1 + n2 <= DEFAULT_EXACT_THRESHOLD:
        return stats.TestResult(u_a, "U", _exact_two_sided_p(ranks2, n1), exact=True, extra=extra)
    size = n1 + n2
    var = (n1 * n2 / 12.0) * ((size + 1) - counter_tie_term(pooled) / (size * (size - 1)))
    if var <= 0.0:
        return stats.TestResult(u_a, "U", 1.0, extra=extra)
    z = (abs(u_a - n1 * n2 / 2.0) - 0.5) / math.sqrt(var)
    return stats.TestResult(u_a, "U", min(2.0 * (1.0 - NormalDist().cdf(max(z, 0.0))), 1.0), extra=extra)


def reference_shapiro_wilk(values):
    """W and p with the moments summed over the sorted values; None where shapiro_wilk refuses."""
    n = len(values)
    if not 3 <= n <= 50:
        return None
    x = sorted(values)
    mean = math.fsum(x) / n
    ss = math.fsum((v - mean) ** 2 for v in x)
    if ss <= 0.0:
        return None
    w = min(math.fsum(a * v for a, v in zip(_shapiro_wilk_weights(n), x)) ** 2 / ss, 1.0)
    return stats.TestResult(w, "W_sw", _shapiro_wilk_pvalue(w, n), exact=n == 3)


def reference_summary(values):
    n = len(values)
    mean = math.fsum(values) / n
    return GroupSummary(n, mean, math.sqrt(math.fsum((v - mean) ** 2 for v in values) / (n - 1)))


def reference_comparison(a, b):
    shapiro = (reference_shapiro_wilk(a), reference_shapiro_wilk(b))
    if all(r is not None and r.p_value > stats.NORMALITY_ALPHA for r in shapiro):
        return shapiro, "anova", anova_oneway_summary([reference_summary(a), reference_summary(b)])
    return shapiro, "mww", reference_mann_whitney(a, b)


class TestOnePassRanksAndCachedMoments:
    def test_doubled_midranks_and_tie_term_match_rankdata_and_counter(self):
        rng = random.Random(2901)
        for n in range(1, 131):
            for shape in SHAPES:
                values = seeded_values(rng, n, shape)
                ranks2, tie_term = _doubled_midranks(values)
                assert [ranks2[v] for v in values] == [int(r) for r in 2 * scipy_stats.rankdata(values)], values
                assert tie_term == counter_tie_term(values), values

    @pytest.mark.parametrize("n1, n2", [(19, 20), (60, 60)])
    def test_normal_path_with_ties_matches_scipy_asymptotic(self, n1, n2):
        rng = random.Random(n1 * 1000 + n2)
        for levels in (2, 3, 5, 12):
            a = tuple(float(rng.randrange(levels)) for _ in range(n1))
            b = tuple(float(rng.randrange(levels) + rng.randrange(2)) for _ in range(n2))
            res = mann_whitney(Sample(a), Sample(b))
            ref = scipy_stats.mannwhitneyu(a, b, alternative="two-sided", use_continuity=True, method="asymptotic")
            assert not res.exact
            assert res.statistic == ref.statistic
            assert abs(res.p_value - ref.pvalue) < 1e-12

    def test_compare_groups_is_bit_identical_to_the_formulas_it_replaced(self):
        # Every field is compared by repr, which tells every float and -0.0 from 0.0.
        rng = random.Random(2902)
        for _ in range(1200):
            # Half of the sizes are small, so that pooled n <= 16 takes the exact path often.
            n1, n2 = (rng.choice((rng.randrange(2, 9), rng.randrange(2, 71))) for _ in range(2))
            shape = rng.choice(SHAPES + ("times",) * 4)
            if shape == "times":  # session times as the metrics CSV rounds them
                a = [round(rng.gauss(600.0, 80.0), 3) for _ in range(n1)]
                b = [round(rng.gauss(560.0, 60.0) ** 1.1 / 2.0, 3) for _ in range(n2)]
            else:
                a, b = seeded_values(rng, n1, shape), seeded_values(rng, n2, rng.choice(SHAPES))
            comparison = compare_groups(Sample(tuple(a)), Sample(tuple(b)), measure="m")
            shapiro, chosen, result = reference_comparison(a, b)
            assert repr((comparison.shapiro, comparison.chosen, comparison.result)) == repr((shapiro, chosen, result))
            assert [mean_sd(Sample(tuple(v))) for v in (a, b)] == [reference_summary(a), reference_summary(b)]

    def test_moments_read_first_by_either_test_give_the_same_results(self):
        rng = random.Random(2903)
        for n in (3, 7, 20, 50):
            values = tuple(round(rng.gauss(600.0, 80.0), 3) for _ in range(n))
            summary_first, shapiro_first = Sample(values), Sample(values)
            by_summary = (mean_sd(summary_first), shapiro_wilk(summary_first))
            w = shapiro_wilk(shapiro_first)
            assert repr(by_summary) == repr((mean_sd(shapiro_first), w))
            assert repr(anova_oneway_raw([summary_first, Sample(values[::-1])])) == repr(
                anova_oneway_raw([Sample(values), shapiro_first]))

    def test_squared_deviations_round_as_pow_rounds_them(self):
        # (v - mean) ** 2 calls C pow, which here rounds some squares otherwise
        # than d * d does. The summaries and W have always squared with pow, so
        # the moments must too. Where pow rounds as d * d does, the list is empty.
        rng = random.Random(2904)
        deviations = [d for d in (rng.uniform(0.0, 100.0) for _ in range(100_000)) if d**2 != d * d]
        for d in deviations:
            assert mean_sd(Sample((-d, d))).sd == math.sqrt(2.0 * d**2), d


# --- Statistics values as records, against the dataclasses they were -----------------


MOMENT_SAMPLES = {
    "one-value": (3.25,),
    "ties": (2.0, 2.0, 5.0, 5.0, 5.0, 7.5),
    "negatives": (-4.5, -0.1, -1e3, 2.0, -0.0),
    "sixty": tuple(round(random.Random(3201).gauss(600.0, 80.0), 3) for _ in range(60)),
}


def moment_bits(sample):
    return sample.n, sample._mean.hex(), sample._ss.hex()


def dataclass_twin(cls, frozen):
    """A dataclass of ``cls``'s name and fields, as the statistics values were built before."""
    return dataclasses.make_dataclass(cls.__name__, cls.__match_args__, frozen=frozen)


class TestValueRecords:
    @pytest.mark.parametrize("values", MOMENT_SAMPLES.values(), ids=MOMENT_SAMPLES)
    def test_moments_are_the_fsum_expressions_to_the_bit(self, values):
        mean = math.fsum(values) / len(values)
        ss = math.fsum([(v - mean) ** 2 for v in values])
        assert moment_bits(Sample(values)) == (len(values), mean.hex(), ss.hex())

    def test_sample_is_slotted_and_frozen(self):
        sample = Sample((1.0, 2.0, 4.0))
        assert not hasattr(sample, "__dict__")
        for name in ("n", "_mean", "_ss", "values", "label"):
            with pytest.raises(AttributeError):
                setattr(sample, name, 0)
        assert moment_bits(sample) == moment_bits(Sample((1.0, 2.0, 4.0)))

    @pytest.mark.parametrize("values", MOMENT_SAMPLES.values(), ids=MOMENT_SAMPLES)
    def test_copies_are_equal_with_the_same_moments(self, values):
        sample = Sample(values, label="x")
        for copied in (copy.copy(sample), copy.deepcopy(sample), pickle.loads(pickle.dumps(sample)),
                       records.replace(sample)):
            assert type(copied) is Sample and copied == sample
            assert moment_bits(copied) == moment_bits(sample)
        assert moment_bits(records.replace(sample, values=(1.0, 3.0))) == (2, (2.0).hex(), (2.0).hex())

    def test_eq_hash_and_repr_as_the_dataclasses_gave_them(self):
        cases = [
            (Sample, True, [((1.0, 2.0), "t"), ((1.0, 2.0), ""), ((2.0, 1.0), "t"), ((1.0, 2.0), "t")]),
            (GroupSummary, True, [(5, 1.5, 0.25, "a"), (5, 1.5, 0.25, ""), (6, 1.5, 0.25, "a"), (5, 1.5, 0.25, "a")]),
            (report.CheckResult, True, [("c", True, "ok"), ("c", False, "ok"), ("c", True, "ok")]),
            (report.AnalysisReport, False, [(("tablet",), {}, {}, [], {}, {"tablet": 2}, {}),
                                            (("tablet",), {}, {}, [], {}, {}, {}),
                                            (("tablet",), {}, {}, [], {}, {"tablet": 2}, {})]),
        ]
        for cls, frozen, arguments in cases:
            twin = dataclass_twin(cls, frozen)
            ours, theirs = [cls(*args) for args in arguments], [twin(*args) for args in arguments]
            assert list(map(repr, ours)) == list(map(repr, theirs))
            assert [[a == b for b in ours] for a in ours] == [[a == b for b in theirs] for a in theirs]
            if frozen:
                assert list(map(hash, ours)) == list(map(hash, theirs))
            else:
                for value in (ours[0], theirs[0]):
                    with pytest.raises(TypeError, match="unhashable"):
                        hash(value)
        assert repr(Sample((1.0, 2.0), label="t")) == "Sample(values=(1.0, 2.0), label='t')"
