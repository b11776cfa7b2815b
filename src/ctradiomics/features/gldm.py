"""Gray-level dependence features over the 26-connected neighbourhood.

A neighbour is *dependent* when its gray level equals the centre's
(dependence threshold 0); the dependence size of a voxel is the dependent
neighbour count plus one for the voxel itself, so every voxel contributes
one matrix entry and the matrix total equals the voxel count.
"""

from __future__ import annotations

import numpy as np

from .context import Cells, DiscretizedRegion, table_features

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


def gldm_cells(d: DiscretizedRegion) -> Cells:
    """Dependence counts by gray level rank and dependence size 1..27."""
    nb = d.neighbours
    k = len(d.gray)
    dependents = (nb.table == nb.level).sum(axis=0)  # the size less the voxel itself
    counts = np.bincount(dependents * k + nb.level - 1)
    code = np.flatnonzero(counts)
    return Cells.of_codes(code, counts[code], k)


def gldm_features(d: DiscretizedRegion) -> dict[str, float]:
    """The table statistics of the dependence table, less GLNN (row 3)
    and the percentage (row 6): the table total is the voxel count, so the
    percentage is always 1 and GLNN is the first-order Uniformity."""
    rows = [0, 1, 2, 4, 5, 7, 8, 9, 10, 11, 12, 13, 14, 15]
    return dict(zip(GLDM_NAMES, table_features([gldm_cells(d)], len(d), d.gray)[rows, 0].tolist()))
