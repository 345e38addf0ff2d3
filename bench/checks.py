"""Independent references the benchmark checks replicasim's outputs against.

The statistics references come from SciPy, which replicasim does not use for
these tests: ``shapiro``, ``f_oneway``, ``mannwhitneyu(method="asymptotic")``
and, for exact Mann-Whitney, a permutation test over |U - n1*n2/2| that
enumerates every labeling. Each p-value is checked against the reference for
the test the program chose, so the check stays valid when the program's choice
rules change; the choice itself is checked against rules that do not come from
the program's output: a Shapiro-Wilk result may be missing only where the test
is undefined, and a Mann-Whitney test on a small pooled sample must be exact.
"""
from __future__ import annotations

import numpy as np
from scipy import stats as sps

APPROX_TOL = 1e-8  # replicasim and SciPy agree to within 5e-9 on these tests
EXACT_TOL = 1e-12  # exact enumeration against exact permutation: identical counts
EXACT_POOLED_N = 16  # at or below this pooled size Mann-Whitney must be exact
SHAPIRO_N = (3, 50)  # outside this range a refused Shapiro-Wilk test is accepted


def _u_deviation(x, y, axis):
    n1, n2 = x.shape[axis], y.shape[axis]
    ranks = sps.rankdata(np.concatenate([x, y], axis=axis), axis=axis)
    rank_sum = np.take(ranks, np.arange(n1), axis=axis).sum(axis=axis)
    return np.abs(rank_sum - n1 * (n1 + 1) / 2.0 - n1 * n2 / 2.0)


def reference_p(chosen: str, exact: bool, a: list[float], b: list[float]) -> float:
    """The reference p-value for the test the program chose."""
    if chosen == "anova":
        return float(sps.f_oneway(a, b).pvalue)
    if not exact:
        return float(sps.mannwhitneyu(a, b, method="asymptotic").pvalue)
    res = sps.permutation_test(
        (np.asarray(a, dtype=float), np.asarray(b, dtype=float)),
        _u_deviation,
        permutation_type="independent",
        alternative="greater",
        vectorized=True,
        n_resamples=np.inf,
    )
    return float(res.pvalue)


def shapiro_may_refuse(values: list[float]) -> bool:
    """Whether Shapiro-Wilk is undefined here: n outside its range, or zero variance."""
    low, high = SHAPIRO_N
    return not low <= len(values) <= high or min(values) == max(values)


def comparison_errors(comparison, a: list[float], b: list[float], alpha: float) -> list[str]:
    """Mismatches between one replicasim Comparison and the SciPy references."""
    errors = []
    normal = True
    for label, result, values in zip(("a", "b"), comparison.shapiro, (a, b)):
        if result is None:
            if not shapiro_may_refuse(values):
                errors.append(f"{comparison.measure}: shapiro({label}) refused n={len(values)} with nonzero variance")
            normal = False
            continue
        ref = float(sps.shapiro(values).pvalue)
        if abs(result.p_value - ref) > APPROX_TOL:
            errors.append(f"{comparison.measure}: shapiro({label}) p {result.p_value!r} != {ref!r}")
        normal = normal and result.p_value > alpha
    expected = "anova" if normal else "mww"
    if comparison.chosen != expected:
        errors.append(f"{comparison.measure}: chose {comparison.chosen} but its Shapiro-Wilk results imply {expected}")
    exact = comparison.result.exact
    if comparison.chosen == "mww" and len(a) + len(b) <= EXACT_POOLED_N and not exact:
        errors.append(f"{comparison.measure}: mww on pooled n={len(a) + len(b)} was not exact")
    ref = reference_p(comparison.chosen, exact, a, b)
    tol = EXACT_TOL if comparison.chosen == "mww" and exact else APPROX_TOL
    if abs(comparison.result.p_value - ref) > tol:
        errors.append(f"{comparison.measure}: {comparison.chosen} p {comparison.result.p_value!r} != {ref!r}")
    return errors
