"""Gray-level dependence features over the 26-connected neighbourhood.

A neighbour is *dependent* when its gray level equals the centre's
(dependence threshold 0); the dependence size of a voxel is the dependent
neighbour count plus one for the voxel itself, so every voxel contributes
one matrix entry and the matrix total equals the voxel count.
"""

from __future__ import annotations

import numpy as np

from .context import DiscretizedRegion

GLDM_NAMES = (
    "SmallDependenceEmphasis",
    "LargeDependenceEmphasis",
    "GrayLevelNonUniformity",
    "DependenceNonUniformity",
    "DependenceNonUniformityNormalized",
    "GrayLevelVariance",
    "DependenceVariance",
    "DependenceEntropy",
    "LowGrayLevelEmphasis",
    "HighGrayLevelEmphasis",
    "SmallDependenceLowGrayLevelEmphasis",
    "SmallDependenceHighGrayLevelEmphasis",
    "LargeDependenceLowGrayLevelEmphasis",
    "LargeDependenceHighGrayLevelEmphasis",
)


def gldm_matrix(d: DiscretizedRegion) -> np.ndarray:
    """Dependence counts, rows = gray level 1..Ng, columns = size 1..27."""
    nb = d.neighbours
    ng = d.n_levels
    max_size = 27
    dependents = (nb.table == nb.level).sum(axis=0)  # +1 for the voxel itself below, via indexing
    counts = np.bincount((nb.level.astype(np.intp) - 1) * max_size + dependents, minlength=ng * max_size)
    return counts.reshape(ng, max_size).astype(np.float64)


def gldm_features(d: DiscretizedRegion) -> dict[str, float]:
    """The shared table statistics of the dependence table, less GLNN (row 3)
    and the percentage (row 6): the table total is the voxel count, so the
    percentage is always 1 and GLNN is the first-order Uniformity."""
    rows = [0, 1, 2, 4, 5, 7, 8, 9, 10, 11, 12, 13, 14, 15]
    return dict(zip(GLDM_NAMES, d.table_statistics["gldm"][rows, 0].tolist()))
