"""Neighbourhood gray-tone difference features (26-neighbourhood means).

Only voxels with at least one in-region neighbour enter the table; regions
where no voxel qualifies (e.g. a single voxel) fall back to the degenerate
values: Coarseness at its 1e6 cap, everything else 0.
"""

from __future__ import annotations

import numpy as np

from .context import DiscretizedRegion

NGTDM_NAMES = ("Coarseness", "Busyness", "Complexity", "Strength", "Contrast")

COARSENESS_CAP = 1e6


def ngtdm_table(d: DiscretizedRegion) -> tuple[np.ndarray, np.ndarray, int]:
    """(n_i, s_i) per gray level 1..Ng plus the counted-voxel total.

    s_i sums |level - mean of in-region neighbours| over counted voxels of
    level i; n_i counts them.
    """
    nb = d.neighbours
    ng = d.n_levels
    # levels are 0 outside the region, so the 26-neighbour level sum needs no mask
    neighbour_sum = nb.table.sum(axis=0, dtype=np.min_scalar_type(26 * ng))
    neighbour_cnt = (nb.table > 0).sum(axis=0, dtype=np.uint8)
    counted = neighbour_cnt > 0
    n_total = int(counted.sum())
    n_i = np.zeros(ng, dtype=np.float64)
    s_i = np.zeros(ng, dtype=np.float64)
    if n_total:
        levels = nb.level[counted]
        mean_nb = neighbour_sum[counted] / neighbour_cnt[counted]
        diffs = np.abs(levels - mean_nb)
        n_i = np.bincount(levels - 1, minlength=ng).astype(np.float64)
        s_i = np.bincount(levels - 1, weights=diffs, minlength=ng)
    return n_i, s_i, n_total


def ngtdm_features(d: DiscretizedRegion) -> dict[str, float]:
    n_i, s_i, n_total = ngtdm_table(d)
    if n_total == 0:
        return {"Coarseness": COARSENESS_CAP, "Busyness": 0.0, "Complexity": 0.0, "Strength": 0.0, "Contrast": 0.0}
    p_i = n_i / n_total
    present = p_i > 0
    levels = np.arange(1, d.n_levels + 1, dtype=np.float64)
    ngp = int(present.sum())

    ps = float((p_i * s_i).sum())
    coarseness = 1.0 / ps if ps > 0 else COARSENESS_CAP

    if ngp > 1:
        ip, pp, sp = levels[present], p_i[present], s_i[present]
        di = ip[:, None] - ip[None, :]
        contrast = float(
            (pp[:, None] * pp[None, :] * di**2).sum() / (ngp * (ngp - 1)) * (s_i.sum() / n_total)
        )
        busy_den = float(np.abs(ip[:, None] * pp[:, None] - ip[None, :] * pp[None, :]).sum())
        busyness = ps / busy_den if busy_den > 0 else 0.0
        complexity = float(
            (np.abs(di) * (pp[:, None] * sp[:, None] + pp[None, :] * sp[None, :]) / (pp[:, None] + pp[None, :])).sum()
            / n_total
        )
        s_sum = float(s_i.sum())
        strength = float(((pp[:, None] + pp[None, :]) * di**2).sum() / s_sum) if s_sum > 0 else 0.0
    else:
        contrast = 0.0
        busyness = 0.0
        complexity = 0.0
        strength = 0.0

    return {
        "Coarseness": float(coarseness),
        "Busyness": float(busyness),
        "Complexity": float(complexity),
        "Strength": float(strength),
        "Contrast": float(contrast),
    }
