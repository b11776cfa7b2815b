"""Neighbourhood gray-tone difference features (26-neighbourhood means).

Only voxels with at least one in-region neighbour enter the table; where none
qualifies (a single voxel, isolated voxels) it is all zeros, and the general
formulas give the degenerate values: Coarseness at its 1e6 cap, the rest 0.
"""

from __future__ import annotations

import numpy as np

from .context import DiscretizedRegion

NGTDM_NAMES = ("Coarseness", "Busyness", "Complexity", "Strength", "Contrast")

COARSENESS_CAP = 1e6


def ngtdm_table(d: DiscretizedRegion) -> tuple[np.ndarray, np.ndarray, int]:
    """(n_i, s_i) per present gray level ``d.gray`` plus the counted-voxel total.

    s_i sums |level - mean of in-region neighbours| over counted voxels of
    level i; n_i counts them.
    """
    nb = d.neighbours
    k = len(d.gray)
    level_of = np.append(0, d.gray)  # level 0 outside the region, so the sum needs no mask
    neighbour_sum = np.zeros(len(nb.index), dtype=np.int64)  # exact: discretize keeps levels below 2**53
    for row in nb.table:
        neighbour_sum += level_of.take(row)  # take: far cheaper than [] on uint8 indices
    neighbour_cnt = (nb.table > 0).sum(axis=0, dtype=np.uint8)
    counted = neighbour_cnt > 0
    index = nb.level[counted] - 1  # >= 0: every counted voxel is in the region
    diffs = np.abs(d.gray[index] - neighbour_sum[counted] / neighbour_cnt[counted])
    n_i = np.bincount(index, minlength=k).astype(np.float64)
    s_i = np.bincount(index, weights=diffs, minlength=k)
    return n_i, s_i, int(counted.sum())


def ngtdm_features(d: DiscretizedRegion) -> dict[str, float]:
    n_i, s_i, n_total = ngtdm_table(d)
    n_total = max(n_total, 1)  # an empty table divides zeros: every sum below is 0
    p_i = n_i / n_total
    present = p_i > 0
    levels = d.gray.astype(np.float64)
    ngp = int(present.sum())

    ps = float((p_i * s_i).sum())
    coarseness = 1.0 / ps if ps > 0 else COARSENESS_CAP

    ip, pp, sp = levels[present], p_i[present], s_i[present]
    di = ip[:, None] - ip[None, :]
    # with fewer than two present levels every pair term is 0, and so is the quotient
    pair_contrast = (pp[:, None] * pp[None, :] * di**2).sum() / max(ngp * (ngp - 1), 1)
    contrast = pair_contrast * (s_i.sum() / n_total)
    busy_den = float(np.abs(ip[:, None] * pp[:, None] - ip[None, :] * pp[None, :]).sum())
    # exactly 0 where every present level has one i * n_i, which rounded p_i can miss
    balanced = len({int(i) * int(n) for i, n in zip(d.gray[present], n_i[present])}) <= 1
    busyness = 0.0 if balanced else ps / busy_den
    complexity = (
        np.abs(di) * (pp[:, None] * sp[:, None] + pp[None, :] * sp[None, :]) / (pp[:, None] + pp[None, :])
    ).sum() / n_total
    s_sum = float(s_i.sum())
    strength = ((pp[:, None] + pp[None, :]) * di**2).sum() / s_sum if s_sum > 0 else 0.0

    return {
        "Coarseness": float(coarseness),
        "Busyness": float(busyness),
        "Complexity": float(complexity),
        "Strength": float(strength),
        "Contrast": float(contrast),
    }
