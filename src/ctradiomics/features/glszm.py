"""Gray-level size-zone features; zones are 26-connected same-level components."""

from __future__ import annotations

import numpy as np

from .context import DiscretizedRegion, table_features

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
    in_region = d.inside.ravel()
    # label k >= 1: the k-th same-level run along UNIQUE_DIRECTIONS[0] = (0, 0, 1)
    starts = in_region.copy()
    starts[1:] &= ~d.same[0].ravel()[:-1]
    labels = np.cumsum(starts, dtype=np.int32)
    root = np.arange(labels[-1] + 1, dtype=np.int32)
    for same, stride in zip(d.same[1:], d.strides[1:]):
        at = np.flatnonzero(same)
        source = root[labels[at]]
        target = root[labels[stride:][at]]
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
    """The 16 size-zone features of the lesion's one zone table."""
    return dict(zip(GLSZM_NAMES, table_features([glszm_matrix(d)], len(d))[:, 0].tolist()))
