"""Gray-level size-zone features; zones are 26-connected same-level components."""

from __future__ import annotations

import numpy as np

from .discretize import UNIQUE_DIRECTIONS, DiscretizedRegion

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


def glszm_matrix(d: DiscretizedRegion) -> np.ndarray:
    """Zone counts, rows = gray level 1..Ng, columns = zone size 1..max.

    All levels are labelled in one pass over the flat padded grid.  The
    same-level runs along the last axis are the first labels; each of the
    other 12 directions then joins the labels its same-level pairs link.
    A union step sees only the pairs whose labels are still apart, so its
    edge lists stay short.
    """
    levels = d.grid.ravel()
    in_region = levels > 0
    # label k >= 1: the k-th same-level run along UNIQUE_DIRECTIONS[0] = (0, 0, 1)
    starts = in_region.copy()
    starts[1:] &= ~d.same[0].ravel()[:-1]
    labels = np.cumsum(starts, dtype=np.int32)
    root = np.arange(labels[-1] + 1, dtype=np.int32)
    steps = np.array(d.grid.strides) // d.grid.itemsize  # flat step per axis
    for k in range(1, len(UNIQUE_DIRECTIONS)):
        at = np.flatnonzero(d.same[k])
        source = root[labels[at]]
        target = root[labels[int(np.dot(UNIQUE_DIRECTIONS[k], steps)) :][at]]
        root = _joined(root, source, target)
    zone = root[labels[in_region]]
    sizes = np.bincount(zone)
    zone_level = np.zeros(len(sizes), dtype=np.intp)
    zone_level[zone] = levels[in_region]
    present = sizes > 0
    max_size = int(sizes.max())
    cells = (zone_level[present] - 1) * max_size + sizes[present] - 1
    # weighted, so the (possibly wide) matrix is built as float64 in one go
    counts = np.bincount(cells, weights=np.ones(len(cells)), minlength=d.n_levels * max_size)
    return counts.reshape(d.n_levels, max_size)


def _joined(root: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The root of every node once the roots a[e] and b[e] are joined, where
    ``root`` maps each node to its root (the smallest node of its tree).

    Union by hooking: every root on an edge between two trees hooks under
    the smallest root across its edges, then every node jumps to its root.
    Each round removes at least one root, and joined edges drop out.
    """
    apart = a != b
    a, b = a[apart], b[apart]
    if len(a):
        root = root.copy()
    while len(a):
        np.minimum.at(root, np.maximum(a, b), np.minimum(a, b))
        while True:
            grand = root[root]
            if (grand == root).all():
                break
            root = grand
        a, b = root[a], root[b]
        apart = a != b
        a, b = a[apart], b[apart]
    return root


def glszm_features(d: DiscretizedRegion) -> dict[str, float]:
    m = glszm_matrix(d)
    ng, max_size = m.shape
    nz = m.sum()
    n_voxels = len(d)
    i = np.arange(1, ng + 1, dtype=np.float64)[:, None]
    j = np.arange(1, max_size + 1, dtype=np.float64)[None, :]
    # the four cross-weighted sums go through one scratch matrix, before p
    # exists: a zone matrix can be wide, so no more than one matrix-sized
    # temporary lives beside m and p (same operations, same order)
    scratch = np.multiply(i**2, j**2)
    small_low = float(np.divide(m, scratch, out=scratch).sum() / nz)
    small_high = float(np.divide(np.multiply(m, i**2, out=scratch), j**2, out=scratch).sum() / nz)
    large_low = float(np.divide(np.multiply(m, j**2, out=scratch), i**2, out=scratch).sum() / nz)
    large_high = float(np.multiply(np.multiply(m, i**2, out=scratch), j**2, out=scratch).sum() / nz)
    del scratch
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
        "SmallAreaLowGrayLevelEmphasis": small_low,
        "SmallAreaHighGrayLevelEmphasis": small_high,
        "LargeAreaLowGrayLevelEmphasis": large_low,
        "LargeAreaHighGrayLevelEmphasis": large_high,
    }
