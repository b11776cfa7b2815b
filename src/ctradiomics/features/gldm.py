"""Gray-level dependence features over the 26-connected neighbourhood.

A neighbour is *dependent* when its gray level equals the centre's
(dependence threshold 0); the dependence size of a voxel is the dependent
neighbour count plus one for the voxel itself, so every voxel contributes
one matrix entry and the matrix total equals the voxel count.
"""

from __future__ import annotations

import numpy as np

from .discretize import UNIQUE_DIRECTIONS, DiscretizedRegion, interior, shifted

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
    inner = interior(d.grid)
    in_region = inner > 0
    # dependent neighbours of v: v + d and v - d over the 13 directions
    dependents = np.zeros(inner.shape, dtype=np.uint8)
    for offset, same in zip(UNIQUE_DIRECTIONS, d.same):
        dependents += interior(same)
        dependents += shifted(same, tuple(-o for o in offset))
    ng = d.n_levels
    max_size = 27
    levels = inner[in_region].astype(np.intp) - 1
    sizes = dependents[in_region]  # dependent neighbours; +1 below via indexing
    counts = np.bincount(levels * max_size + sizes, minlength=ng * max_size)
    return counts.reshape(ng, max_size).astype(np.float64)


def gldm_features(d: DiscretizedRegion) -> dict[str, float]:
    m = gldm_matrix(d)
    ng, max_size = m.shape
    total = m.sum()
    i = np.arange(1, ng + 1, dtype=np.float64)[:, None]
    j = np.arange(1, max_size + 1, dtype=np.float64)[None, :]
    p = m / total
    row = m.sum(axis=1)
    col = m.sum(axis=0)
    mu_i = float((i * p).sum())
    mu_j = float((j * p).sum())
    return {
        "SmallDependenceEmphasis": float((m / j**2).sum() / total),
        "LargeDependenceEmphasis": float((m * j**2).sum() / total),
        "GrayLevelNonUniformity": float((row**2).sum() / total),
        "DependenceNonUniformity": float((col**2).sum() / total),
        "DependenceNonUniformityNormalized": float((col**2).sum() / total**2),
        "GrayLevelVariance": float((p * (i - mu_i) ** 2).sum()),
        "DependenceVariance": float((p * (j - mu_j) ** 2).sum()),
        "DependenceEntropy": float(-(p[p > 0] * np.log2(p[p > 0])).sum()) + 0.0,
        "LowGrayLevelEmphasis": float((m / i**2).sum() / total),
        "HighGrayLevelEmphasis": float((m * i**2).sum() / total),
        "SmallDependenceLowGrayLevelEmphasis": float((m / (i**2 * j**2)).sum() / total),
        "SmallDependenceHighGrayLevelEmphasis": float((m * i**2 / j**2).sum() / total),
        "LargeDependenceLowGrayLevelEmphasis": float((m * j**2 / i**2).sum() / total),
        "LargeDependenceHighGrayLevelEmphasis": float((m * i**2 * j**2).sum() / total),
    }
