"""Gray-level size-zone features; zones are 26-connected same-level components."""

from __future__ import annotations

import numpy as np

from .discretize import DiscretizedRegion, level_grid

GLSZM_NAMES = (
    "SmallAreaEmphasis",
    "LargeAreaEmphasis",
    "GrayLevelNonUniformity",
    "GrayLevelNonUniformityNormalized",
    "SizeZoneNonUniformity",
    "SizeZoneNonUniformityNormalized",
    "ZonePercentage",
    "GrayLevelVariance",
    "ZoneVariance",
    "ZoneEntropy",
    "LowGrayLevelZoneEmphasis",
    "HighGrayLevelZoneEmphasis",
    "SmallAreaLowGrayLevelEmphasis",
    "SmallAreaHighGrayLevelEmphasis",
    "LargeAreaLowGrayLevelEmphasis",
    "LargeAreaHighGrayLevelEmphasis",
)

_STRUCTURE = np.ones((3, 3, 3), dtype=int)


def glszm_matrix(d: DiscretizedRegion) -> np.ndarray:
    """Zone counts, rows = gray level 1..Ng, columns = zone size 1..max."""
    from scipy import ndimage

    grid = level_grid(d)
    ng = d.n_levels
    zones: list[tuple[int, int]] = []
    for level in np.unique(d.levels):
        labelled, n_comp = ndimage.label(grid == level, structure=_STRUCTURE)
        sizes = np.bincount(labelled.ravel())[1:]
        zones.extend((int(level), int(s)) for s in sizes)
    max_size = max(s for _, s in zones)
    m = np.zeros((ng, max_size), dtype=np.float64)
    for level, size in zones:
        m[level - 1, size - 1] += 1
    return m


def glszm_features(d: DiscretizedRegion) -> dict[str, float]:
    m = glszm_matrix(d)
    ng, max_size = m.shape
    nz = m.sum()
    n_voxels = len(d)
    i = np.arange(1, ng + 1, dtype=np.float64)[:, None]
    j = np.arange(1, max_size + 1, dtype=np.float64)[None, :]
    p = m / nz
    row = m.sum(axis=1)
    col = m.sum(axis=0)
    mu_i = float((i * p).sum())
    mu_j = float((j * p).sum())
    return {
        "SmallAreaEmphasis": float((m / j**2).sum() / nz),
        "LargeAreaEmphasis": float((m * j**2).sum() / nz),
        "GrayLevelNonUniformity": float((row**2).sum() / nz),
        "GrayLevelNonUniformityNormalized": float((row**2).sum() / nz**2),
        "SizeZoneNonUniformity": float((col**2).sum() / nz),
        "SizeZoneNonUniformityNormalized": float((col**2).sum() / nz**2),
        "ZonePercentage": float(nz / n_voxels),
        "GrayLevelVariance": float((p * (i - mu_i) ** 2).sum()),
        "ZoneVariance": float((p * (j - mu_j) ** 2).sum()),
        "ZoneEntropy": float(-(p[p > 0] * np.log2(p[p > 0])).sum()) + 0.0,
        "LowGrayLevelZoneEmphasis": float((m / i**2).sum() / nz),
        "HighGrayLevelZoneEmphasis": float((m * i**2).sum() / nz),
        "SmallAreaLowGrayLevelEmphasis": float((m / (i**2 * j**2)).sum() / nz),
        "SmallAreaHighGrayLevelEmphasis": float((m * i**2 / j**2).sum() / nz),
        "LargeAreaLowGrayLevelEmphasis": float((m * j**2 / i**2).sum() / nz),
        "LargeAreaHighGrayLevelEmphasis": float((m * i**2 * j**2).sum() / nz),
    }
