"""Nonparametric group-difference testing for feature tables.

Per feature: Kruskal-Wallis omnibus (chi-square approximation with tie
correction), Dunn's pairwise z tests when the omnibus is significant, and
Benjamini-Hochberg adjustment of the pairwise p values.  The adjustment
family defaults to each feature's own pairwise set; a flag widens it to all
features jointly.  ``feature_group_report`` decides the layout of the
``stats`` table, header and cells, which the CLI writes as it is returned.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import combinations

import numpy as np

from .dataio import Dataset
from .errors import DegenerateDataError
from .features.firstorder import sorted_median, sorted_percentiles


def _ranks_and_ties(groups, pooled) -> tuple[list[np.ndarray], float, int]:
    """Mid-ranks per group plus the tie-correction sum and total N, ranking
    ``pooled``, the groups concatenated."""
    # asking for first indices makes the sort stable: NaNs rank in input order
    _, _, tie_of, counts = np.unique(pooled, return_index=True, return_inverse=True, return_counts=True, equal_nan=False)
    # the t tied values at sorted 1-based ranks end - t + 1 .. end share their mean
    ranks = (np.cumsum(counts) - (counts - 1) / 2.0)[tie_of]
    tie_sum = float(np.sum(counts.astype(np.float64) ** 3 - counts))
    return np.split(ranks, np.cumsum([len(g) for g in groups[:-1]])), tie_sum, len(pooled)


def _check_groups(groups) -> tuple[list[np.ndarray], np.ndarray]:
    """The groups as float arrays, and those arrays pooled in order.  The one
    degenerate-data check: past it the values form two or more tie groups, so
    sum(t^3 - t) < N^3 - N and both the KW tie correction and Dunn's rank
    variance are positive."""
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
    return groups, pooled


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


def kruskal_wallis(groups) -> tuple[float, float, list[tuple[float, float]]]:
    """(H, p, pairs): Kruskal-Wallis H with tie correction, p from the
    chi-square tail, and the (z, p) of Dunn's test on the same pooled
    mid-ranks (two-tailed p) for every pair of groups i < j, in
    ``itertools.combinations`` order.

    H = [12/(N(N+1)) sum R_i^2/n_i - 3(N+1)] / (1 - sum(t^3-t)/(N^3-N));
    z_ij = (mean R_i - mean R_j) / sqrt((N(N+1)/12 - sum(t^3-t)/(12(N-1))) (1/n_i + 1/n_j)).
    """
    groups, pooled = _check_groups(groups)
    group_ranks, tie_sum, n = _ranks_and_ties(groups, pooled)
    h = 12.0 / (n * (n + 1)) * sum(r.sum() ** 2 / len(r) for r in group_ranks) - 3.0 * (n + 1)
    h /= 1.0 - tie_sum / (n**3 - n)
    df = len(groups) - 1
    p = chi_square_tail(max(h, 0.0), df)
    variance = n * (n + 1) / 12.0 - tie_sum / (12.0 * (n - 1))
    means = [r.mean() for r in group_ranks]
    pairs = []
    for i, j in combinations(range(len(groups)), 2):
        z = float((means[i] - means[j]) / math.sqrt(variance * (1.0 / len(groups[i]) + 1.0 / len(groups[j]))))
        pairs.append((z, math.erfc(abs(z) / math.sqrt(2.0))))  # two-tailed standard normal
    return float(h), p, pairs


def benjamini_hochberg(p_values, q: float = 0.05) -> tuple[np.ndarray, np.ndarray]:
    """Step-up FDR control: adjusted p values and rejection flags.

    adjusted p_(i) = min over j >= i of min(1, m p_(j) / j); the hypotheses
    rejected are 1..i* for the largest i* with p_(i*) <= (i*/m) q.
    """
    p = np.asarray(p_values, dtype=np.float64)
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
    q: float = benjamini_hochberg.__defaults__[0],  # its own default FDR level
    global_family: bool = False,
) -> tuple[list[str], list[list]]:
    """The ``stats`` table as (header, rows): per feature, the omnibus, the
    post-hoc pairs and each class's median and IQR.

    Columns: feature, degenerate, H, p_value; z_, p_, p_adj_ and rejected_
    {a}v{b} for each class pair a < b; median_c{c} and iqr_c{c} per class.
    Dunn tests run only where the omnibus p <= alpha; a constant feature is
    degenerate, and every test cell it has is None.  BH adjustment spans each
    feature's own pairwise family unless ``global_family`` pools every
    pairwise p value across features.  A repeated feature (which would enter
    a family twice), an unknown one or an empty list raises ValueError.
    """
    if dataset.y is None:
        raise ValueError("group statistics need class labels")
    features = list(features) if features is not None else list(dataset.feature_names)
    if not features:
        raise ValueError("the feature list names no feature")
    repeated = [feature for feature, count in Counter(features).items() if count > 1]
    if repeated:
        raise ValueError(f"feature {repeated[0]!r} is listed more than once")
    classes = sorted(set(dataset.y.tolist()))
    if len(classes) < 2:
        raise ValueError("need at least two classes")
    col = {c: i for i, c in enumerate(dataset.feature_names)}
    unknown = [feature for feature in features if feature not in col]
    if unknown:
        raise ValueError(f"unknown feature {unknown[0]!r}")
    pairs = list(combinations(classes, 2))  # the order of kruskal_wallis' Dunn pairs
    header = ["feature", "degenerate", "H", "p_value"]
    header += [f"{cell}_{a}v{b}" for a, b in pairs for cell in ("z", "p", "p_adj", "rejected")]
    header += [f"{cell}_c{c}" for c in classes for cell in ("median", "iqr")]
    by_class = [dataset.x[dataset.y == c][:, [col[feature] for feature in features]] for c in classes]
    summaries = []  # median then IQR of each class, one value per feature
    for x_c in by_class:
        s = np.sort(x_c, axis=0)
        p75, p25 = sorted_percentiles(s, [75, 25])
        summaries += [sorted_median(s).tolist(), (p75 - p25).tolist()]
    rows: list[list] = []
    families: list[list[tuple[list, int]]] = []  # (row, index of its z cell) per Dunn pair
    for f, feature in enumerate(features):
        row = [feature, False] + [None] * (2 + 4 * len(pairs)) + [s[f] for s in summaries]
        rows.append(row)
        try:
            h, p, dunn = kruskal_wallis([x_c[:, f] for x_c in by_class])
        except DegenerateDataError:
            row[1] = True
            continue
        row[2:4] = h, p
        if p <= alpha:
            for k, z_p in enumerate(dunn):
                row[4 + 4 * k : 6 + 4 * k] = z_p
            families.append([(row, 4 + 4 * k) for k in range(len(pairs))])
    if global_family:
        families = [[cell for family in families for cell in family]]
    for family in families:
        adjusted, rejected = benjamini_hochberg([row[k + 1] for row, k in family], q)
        for (row, k), p_adj, rej in zip(family, adjusted.tolist(), rejected.tolist()):
            row[k + 2 : k + 4] = p_adj, rej
    return header, rows
