"""Gray-level co-occurrence features, averaged over the 13 distance-1 directions."""

from __future__ import annotations

import numpy as np

from .context import UNIQUE_DIRECTIONS, DiscretizedRegion, batch_rows

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


def glcm_matrices(d: DiscretizedRegion) -> dict[tuple[int, int, int], np.ndarray]:
    """Normalized symmetric co-occurrence matrices keyed by direction.

    Counts accumulate only over voxel pairs that are both inside the region;
    directions without any pair are omitted.
    """
    directions, p = _matrix_stack(d)
    return dict(zip(directions, p))


def _matrix_stack(d: DiscretizedRegion) -> tuple[tuple, np.ndarray]:
    """The directions with pairs and their (D, ng, ng) stack of normalized
    symmetric co-occurrence matrices."""
    ng = d.n_levels
    nb = d.neighbours
    # pair code (direction, level(v), level(v + d)) over the padded levels
    # 0..ng; level 0 (outside the region) is dropped with column 0
    cells = (ng + 1) ** 2
    pair_code = nb.level.astype(np.intp) * (ng + 1)
    batch = batch_rows(len(pair_code))
    counts = np.empty(13 * cells, dtype=np.intp)
    for lo in range(0, 13, batch):
        rows = nb.table[lo : min(lo + batch, 13)]  # forward directions only
        codes = np.arange(len(rows))[:, None] * cells + pair_code + rows
        counts[lo * cells : (lo + len(rows)) * cells] = np.bincount(codes.ravel(), minlength=len(rows) * cells)
    counts = counts.reshape(13, ng + 1, ng + 1)[:, 1:, 1:]
    present = counts.any(axis=(1, 2))
    counts = counts[present].astype(np.float64)
    counts = counts + counts.transpose(0, 2, 1)  # symmetric accumulation
    directions = tuple(direction for direction, keep in zip(UNIQUE_DIRECTIONS, present) if keep)
    return directions, counts / counts.sum(axis=(1, 2))[:, None, None]


def _mcc(p: np.ndarray, px: np.ndarray) -> np.ndarray:
    """Maximal correlation coefficient of each matrix in a (D, ng, ng) stack
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


def _features_from_stack(p: np.ndarray) -> dict[str, np.ndarray]:
    """All 23 features of each matrix in a (D, ng, ng) stack, shape (D,) each.

    HXY1 = -sum p_ij log(px_i py_j) and HXY2 = -sum px_i py_j log(px_i py_j)
    both equal HX + HY, as the rows of P sum to px and its columns to py.
    The column marginal stays: P is symmetric, but py sums in another order
    than px, and Correlation's mean over directions nearly cancels on noisy
    lesions, so a last-bit change in mu_y moves it by up to 1e-11 relative.
    """
    n_dir, ng, _ = p.shape
    i = np.arange(1, ng + 1, dtype=np.float64)
    ii, jj = np.meshgrid(i, i, indexing="ij")
    flat = p.reshape(n_dir, ng * ng)
    px = p.sum(axis=2)
    py = p.sum(axis=1)
    mu_x = (i * px).sum(axis=1)
    mu_y = (i * py).sum(axis=1)
    var_x = ((i - mu_x[:, None]) ** 2 * px).sum(axis=1)
    var_y = ((i - mu_y[:, None]) ** 2 * py).sum(axis=1)

    # p_diff over |i-j| = 0..ng-1 and p_sum over i+j-2 = 0..2ng-2
    p_diff = _bincount_rows(flat, np.abs(ii - jj).astype(np.intp).ravel(), ng)
    p_sum = _bincount_rows(flat, (ii + jj - 2).astype(np.intp).ravel(), 2 * ng - 1)

    diff_k = np.arange(0, ng, dtype=np.float64)
    diff_avg = (diff_k * p_diff).sum(axis=1)
    h_xy = _entropy2(flat)
    h_x = _entropy2(px)
    h_y = _entropy2(py)
    h_xy1 = h_x + h_y  # = HXY2

    autocorr = (flat * (ii * jj).ravel()).sum(axis=1)
    correlation = np.divide(
        autocorr - mu_x * mu_y,
        np.sqrt(var_x * var_y),
        out=np.ones(n_dir),  # flat marginal fallback
        where=(var_x > 0) & (var_y > 0),
    )
    den = np.maximum(h_x, h_y)
    imc1 = np.divide(h_xy - h_xy1, den, out=np.zeros(n_dir), where=den > 0)
    imc2 = np.sqrt(np.maximum(1.0 - np.exp(-2.0 * (h_xy1 - h_xy)), 0.0))

    # features of i+j and of |i-j| alone, summed over p_sum and p_diff
    sum_k = np.arange(2, 2 * ng + 1, dtype=np.float64)
    centred = sum_k - mu_x[:, None] - mu_y[:, None]
    inv_sq = np.divide(1.0, diff_k**2, out=np.zeros(ng), where=diff_k > 0)

    def over_diff(w: np.ndarray) -> np.ndarray:
        return (p_diff * w).sum(axis=1)

    return {
        "Autocorrelation": autocorr,
        "ClusterProminence": (centred**4 * p_sum).sum(axis=1),
        "ClusterShade": (centred**3 * p_sum).sum(axis=1),
        "ClusterTendency": (centred**2 * p_sum).sum(axis=1),
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
        "JointAverage": mu_x,
        "JointEnergy": (flat**2).sum(axis=1),
        "JointEntropy": h_xy,
        "MCC": _mcc(p, px),
        "MaximumProbability": flat.max(axis=1),
        "SumEntropy": _entropy2(p_sum),
        "SumSquares": var_x,
    }


def glcm_features(d: DiscretizedRegion) -> dict[str, float]:
    """The 23 co-occurrence features, averaged over directions with pairs.

    All directions are computed together from one (D, ng, ng) stack.  When no
    direction yields a pair at all (isolated voxels), the level histogram
    placed on the diagonal serves as the degenerate matrix so that every
    feature stays finite and deterministic.
    """
    p = _matrix_stack(d)[1]
    if not len(p):
        p = np.diag(d.histogram / len(d))[None]
    per_direction = _features_from_stack(p)
    means = np.array([per_direction[name] for name in GLCM_NAMES]).mean(axis=1)
    return dict(zip(GLCM_NAMES, means.tolist()))
