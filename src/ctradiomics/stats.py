"""Nonparametric group-difference testing for feature tables.

Per feature: Kruskal-Wallis omnibus (chi-square approximation with tie
correction), Dunn's pairwise z tests when the omnibus is significant, and
Benjamini-Hochberg adjustment of the pairwise p values.  The adjustment
family defaults to each feature's own pairwise set; a flag widens it to all
features jointly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dataio import Dataset
from .errors import DegenerateDataError


@dataclass
class PairwiseResult:
    group_i: int
    group_j: int
    z: float
    p_value: float
    p_adjusted: float | None = None
    rejected: bool | None = None


@dataclass
class TestResult:
    statistic: float
    p_value: float
    pairwise: list[PairwiseResult] = field(default_factory=list)


@dataclass
class FeatureTestRow:
    feature: str
    degenerate: bool
    result: TestResult | None
    per_class_median: dict[int, float]
    per_class_iqr: dict[int, float]


def _ranks_and_ties(groups) -> tuple[list[np.ndarray], float, int]:
    """Mid-ranks per group plus the tie-correction sum and total N."""
    pooled = np.concatenate(groups)
    # asking for first indices makes the sort stable: NaNs rank in input order
    _, _, tie_of, counts = np.unique(pooled, return_index=True, return_inverse=True, return_counts=True, equal_nan=False)
    # the t tied values at sorted 1-based ranks end - t + 1 .. end share their mean
    ranks = (np.cumsum(counts) - (counts - 1) / 2.0)[tie_of]
    tie_sum = float(np.sum(counts.astype(np.float64) ** 3 - counts))
    return np.split(ranks, np.cumsum([len(g) for g in groups[:-1]])), tie_sum, len(pooled)


def _check_groups(groups) -> list[np.ndarray]:
    groups = [np.asarray(g, dtype=np.float64).ravel() for g in groups]
    if len(groups) < 2:
        raise ValueError("need at least two groups")
    if any(len(g) == 0 for g in groups):
        raise ValueError("every group must be non-empty")
    total = sum(len(g) for g in groups)
    if total < 3:
        raise ValueError("need at least three observations in total")
    pooled = np.concatenate(groups)
    if np.all(pooled == pooled[0]):
        raise DegenerateDataError("all observations are identical")
    return groups


def chi_square_tail(x: float, df: int) -> float:
    """P(X >= x) for X chi-square with integer ``df`` >= 1: Q(df/2, x/2).

    Q(a + 1, y) = Q(a, y) + y^a e^-y / Gamma(a + 1) from Q(1, y) = e^-y or
    Q(1/2, y) = erfc(sqrt y); every term is positive, so nothing cancels.
    """
    y = x / 2.0
    if df % 2 == 0:
        a, q, term = 0.0, 0.0, math.exp(-y)
    else:
        a, q, term = 0.5, math.erfc(math.sqrt(y)), 2.0 * math.sqrt(y / math.pi) * math.exp(-y)
    while a < df / 2.0:
        q += term
        a += 1.0
        term *= y / a
    return q


def kruskal_wallis(groups) -> TestResult:
    """Kruskal-Wallis H with tie correction; p from the chi-square tail.

    H = [12/(N(N+1)) sum R_i^2/n_i - 3(N+1)] / (1 - sum(t^3-t)/(N^3-N)).
    """
    groups = _check_groups(groups)
    group_ranks, tie_sum, n = _ranks_and_ties(groups)
    h = 12.0 / (n * (n + 1)) * sum(r.sum() ** 2 / len(r) for r in group_ranks) - 3.0 * (n + 1)
    correction = 1.0 - tie_sum / (n**3 - n)
    if correction <= 0.0:
        raise DegenerateDataError("tie correction degenerates; all values identical")
    h /= correction
    df = len(groups) - 1
    p = chi_square_tail(max(h, 0.0), df)
    return TestResult(statistic=float(h), p_value=p)


def dunn_test(groups) -> list[PairwiseResult]:
    """Dunn's pairwise z statistics on the pooled mid-ranks, two-tailed p."""
    groups = _check_groups(groups)
    group_ranks, tie_sum, n = _ranks_and_ties(groups)
    variance = n * (n + 1) / 12.0 - tie_sum / (12.0 * (n - 1))
    if variance <= 0.0:
        raise DegenerateDataError("rank variance degenerates; all values identical")
    means = [r.mean() for r in group_ranks]
    sizes = [len(r) for r in group_ranks]
    out = []
    for i in range(len(groups)):
        for j in range(i + 1, len(groups)):
            se = math.sqrt(variance * (1.0 / sizes[i] + 1.0 / sizes[j]))
            z = (means[i] - means[j]) / se
            p = math.erfc(abs(z) / math.sqrt(2.0))  # two-tailed standard normal
            out.append(PairwiseResult(group_i=i, group_j=j, z=float(z), p_value=float(p)))
    return out


def benjamini_hochberg(p_values, q: float = 0.05) -> tuple[np.ndarray, np.ndarray]:
    """Step-up FDR control: adjusted p values and rejection flags.

    adjusted p_(i) = min over j >= i of min(1, m p_(j) / j); the hypotheses
    rejected are 1..i* for the largest i* with p_(i*) <= (i*/m) q.
    """
    p = np.asarray(p_values, dtype=np.float64)
    if p.size == 0:
        return np.array([]), np.array([], dtype=bool)
    if np.any((p < 0) | (p > 1)):
        raise ValueError("p values must lie in [0, 1]")
    m = len(p)
    order = np.argsort(p, kind="mergesort")
    ranked = p[order]
    adjusted_sorted = np.minimum.accumulate((m * ranked / np.arange(1, m + 1))[::-1])[::-1]
    adjusted_sorted = np.minimum(adjusted_sorted, 1.0)
    adjusted = np.empty(m)
    adjusted[order] = adjusted_sorted
    thresholds = np.arange(1, m + 1) / m * q
    passing = np.nonzero(ranked <= thresholds)[0]
    rejected = np.zeros(m, dtype=bool)
    if len(passing):
        rejected[order[: passing[-1] + 1]] = True
    return adjusted, rejected


def feature_group_report(
    dataset: Dataset,
    features=None,
    alpha: float = 0.05,
    q: float = 0.05,
    global_family: bool = False,
) -> list[FeatureTestRow]:
    """Per-feature omnibus + post-hoc table with per-class summary stats.

    Dunn tests run only where the omnibus p <= alpha.  BH adjustment spans
    each feature's own pairwise family unless ``global_family`` pools every
    pairwise p value across features.  Constant features are marked
    degenerate and excluded from the adjustment family.
    """
    if dataset.y is None:
        raise ValueError("group statistics need class labels")
    features = list(features) if features is not None else list(dataset.feature_names)
    classes = sorted(set(dataset.y.tolist()))
    if len(classes) < 2:
        raise ValueError("need at least two classes")
    col = {c: i for i, c in enumerate(dataset.feature_names)}
    rows: list[FeatureTestRow] = []
    families: list[list[PairwiseResult]] = []  # each feature's Dunn results, awaiting adjustment
    for feature in features:
        if feature not in col:
            raise ValueError(f"unknown feature {feature!r}")
        values = dataset.x[:, col[feature]]
        groups = [values[dataset.y == c] for c in classes]
        per_median = {c: float(np.median(g)) for c, g in zip(classes, groups)}
        per_iqr = {
            c: float(np.percentile(g, 75) - np.percentile(g, 25)) for c, g in zip(classes, groups)
        }
        try:
            omnibus = kruskal_wallis(groups)
        except DegenerateDataError:
            omnibus = None
        if omnibus is not None and omnibus.p_value <= alpha:
            pairwise = dunn_test(groups)
            for pr in pairwise:
                pr.group_i = classes[pr.group_i]
                pr.group_j = classes[pr.group_j]
            omnibus.pairwise = pairwise
            families.append(pairwise)
        rows.append(
            FeatureTestRow(
                feature=feature,
                degenerate=omnibus is None,
                result=omnibus,
                per_class_median=per_median,
                per_class_iqr=per_iqr,
            )
        )
    if global_family:
        families = [[pr for family in families for pr in family]]
    for family in families:
        adjusted, rejected = benjamini_hochberg([pr.p_value for pr in family], q)
        for pr, pa, rej in zip(family, adjusted, rejected):
            pr.p_adjusted = float(pa)
            pr.rejected = bool(rej)
    return rows
