"""Gray-level co-occurrence features, averaged over the 13 distance-1 directions."""

from __future__ import annotations

import numpy as np

from .context import UNIQUE_DIRECTIONS, DiscretizedRegion

GLCM_NAMES = (
    "Autocorrelation",
    "ClusterProminence",
    "ClusterShade",
    "ClusterTendency",
    "Contrast",
    "Correlation",
    "DifferenceAverage",
    "DifferenceEntropy",
    "DifferenceVariance",
    "Id",
    "Idm",
    "Idmn",
    "Idn",
    "Imc1",
    "Imc2",
    "InverseVariance",
    "JointAverage",
    "JointEnergy",
    "JointEntropy",
    "MCC",
    "MaximumProbability",
    "SumEntropy",
    "SumSquares",
)


def _matrix_stack(d: DiscretizedRegion) -> tuple[tuple, np.ndarray]:
    """The directions with pairs and their (D, k, k) stack of normalized
    symmetric co-occurrence matrices over the k present levels ``d.gray``."""
    k = len(d.gray)
    nb = d.neighbours
    # one count per forward direction of pair code (rank(v), rank(v + d))
    # over the padded stack; rank 0 (outside the region) drops with column 0
    cells = (k + 1) ** 2
    pair_code = nb.level.astype(np.intp) * (k + 1)
    counts = np.stack([np.bincount(pair_code + row, minlength=cells) for row in nb.table[:13]])
    counts = counts.reshape(13, k + 1, k + 1)[:, 1:, 1:]
    present = counts.any(axis=(1, 2))
    counts = counts[present].astype(np.float64)
    counts = counts + counts.transpose(0, 2, 1)  # symmetric accumulation
    directions = tuple(direction for direction, keep in zip(UNIQUE_DIRECTIONS, present) if keep)
    return directions, counts / counts.sum(axis=(1, 2))[:, None, None]


def _mcc(p: np.ndarray, px: np.ndarray) -> np.ndarray:
    """Maximal correlation coefficient of each matrix in a (D, k, k) stack
    with row marginals ``px``.

    Q = Dx^-1 P Dx^-1 P (symmetric P, so py = px) is similar to S^2 with
    S = Dx^-1/2 P Dx^-1/2, so Q's eigenvalues are the squares of the
    symmetric S's.  Levels absent from a direction get zero rows in S, which
    only add zero eigenvalues; one present level leaves the second at 0.
    """
    if p.shape[-1] < 2:
        return np.zeros(len(p))
    inv_sqrt = np.divide(1.0, np.sqrt(px), out=np.zeros_like(px), where=px > 0)
    s = inv_sqrt[:, :, None] * p * inv_sqrt[:, None, :]
    second = np.sort(np.linalg.eigvalsh(s) ** 2, axis=1)[:, -2]
    return np.sqrt(second)


def _entropy2(p: np.ndarray) -> np.ndarray:
    """Base-2 entropy of each row of a 2-D stack of distributions."""
    logp = np.log2(np.where(p > 0, p, 1.0))
    return -(p * logp).sum(axis=1) + 0.0


def _bincount_rows(flat: np.ndarray, idx: np.ndarray, n: int) -> np.ndarray:
    """Row-wise ``np.bincount(idx, weights=row, minlength=n)`` of a 2-D array."""
    rows = len(flat)
    offset_idx = (np.arange(rows)[:, None] * n + idx).ravel()
    return np.bincount(offset_idx, weights=flat.ravel(), minlength=rows * n).reshape(rows, n)


def _features_from_stack(p: np.ndarray, levels: np.ndarray) -> dict[str, np.ndarray]:
    """All 23 features of each matrix in a (D, k, k) stack over the k ascending
    ``levels``, shape (D,) each; p_sum and p_diff span the distinct i + j and
    |i - j| of the stack's cells, and only Idmn and Idn read ng, the last level.

    Each P is symmetric, so rows and columns share one marginal px, with one
    mean, variance and entropy HX, and HXY1 = HXY2 = 2 HX.
    """
    n_dir, k, _ = p.shape
    ng = int(levels[-1])
    i = levels.astype(np.float64)
    ii, jj = np.meshgrid(i, i, indexing="ij")
    flat = p.reshape(n_dir, k * k)
    px = p.sum(axis=2)
    mu = (i * px).sum(axis=1)
    c = i - mu[:, None]  # the levels centred on each direction's mean
    var = (c**2 * px).sum(axis=1)

    sum_k, sum_index = np.unique((ii + jj).ravel(), return_inverse=True)
    diff_k, diff_index = np.unique(np.abs(ii - jj).ravel(), return_inverse=True)
    p_sum = _bincount_rows(flat, sum_index, len(sum_k))
    p_diff = _bincount_rows(flat, diff_index, len(diff_k))

    diff_avg = (diff_k * p_diff).sum(axis=1)
    h_xy = _entropy2(flat)
    h_x = _entropy2(px)
    h_xy1 = 2.0 * h_x  # = HXY2

    autocorr = (flat * (ii * jj).ravel()).sum(axis=1)
    covariance = ((p @ c[..., None])[..., 0] * c).sum(axis=1)  # sum of p (i - mu)(j - mu)
    correlation = np.divide(covariance, var, out=np.ones(n_dir), where=var > 0)  # 1 if flat
    imc1 = np.divide(h_xy - h_xy1, h_x, out=np.zeros(n_dir), where=h_x > 0)
    imc2 = np.sqrt(np.maximum(1.0 - np.exp(-2.0 * (h_xy1 - h_xy)), 0.0))

    # features of i+j and of |i-j| alone, summed over p_sum and p_diff
    centred = sum_k - 2.0 * mu[:, None]
    squared = centred * centred  # products, not pow
    inv_sq = np.divide(1.0, diff_k**2, out=np.zeros(len(diff_k)), where=diff_k > 0)

    def over_diff(w: np.ndarray) -> np.ndarray:
        return (p_diff * w).sum(axis=1)

    return {
        "Autocorrelation": autocorr,
        "ClusterProminence": (squared * squared * p_sum).sum(axis=1),
        "ClusterShade": (squared * centred * p_sum).sum(axis=1),
        "ClusterTendency": (squared * p_sum).sum(axis=1),
        "Contrast": over_diff(diff_k**2),
        "Correlation": correlation,
        "DifferenceAverage": diff_avg,
        "DifferenceEntropy": _entropy2(p_diff),
        "DifferenceVariance": ((diff_k - diff_avg[:, None]) ** 2 * p_diff).sum(axis=1),
        "Id": over_diff(1.0 / (1.0 + diff_k)),
        "Idm": over_diff(1.0 / (1.0 + diff_k**2)),
        "Idmn": over_diff(1.0 / (1.0 + diff_k**2 / ng**2)),
        "Idn": over_diff(1.0 / (1.0 + diff_k / ng)),
        "Imc1": imc1,
        "Imc2": imc2,
        "InverseVariance": over_diff(inv_sq),
        "JointAverage": mu,
        "JointEnergy": (flat**2).sum(axis=1),
        "JointEntropy": h_xy,
        "MCC": _mcc(p, px),
        "MaximumProbability": flat.max(axis=1),
        "SumEntropy": _entropy2(p_sum),
        "SumSquares": var,
    }


def glcm_features(d: DiscretizedRegion) -> dict[str, float]:
    """The 23 co-occurrence features, averaged over directions with pairs.

    All directions are computed together from one (D, k, k) stack over the
    k present levels.  When no direction yields a pair at all (isolated
    voxels), the histogram placed on the diagonal serves as the degenerate
    matrix so that every feature stays finite and deterministic.
    """
    p = _matrix_stack(d)[1]
    if not len(p):
        p = np.diag(d.histogram / len(d))[None]
    per_direction = _features_from_stack(p, d.gray)
    means = np.array([per_direction[name] for name in GLCM_NAMES]).mean(axis=1)
    return dict(zip(GLCM_NAMES, means.tolist()))
