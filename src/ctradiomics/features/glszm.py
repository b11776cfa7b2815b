"""Gray-level size-zone features; zones are 26-connected same-level components."""

from __future__ import annotations

import numpy as np

from .context import Cells, DiscretizedRegion, batch_rows, table_features

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


def glszm_cells(d: DiscretizedRegion) -> Cells:
    """Zone counts by gray level rank and zone size, from one code per zone.

    All levels are labelled in one pass over the voxels in flat grid order.
    The same-level runs along the last axis are the first labels; the
    same-level pairs of the other 12 directions then join the labels they
    link, all 12 directions in one union on a small lesion and a few at a
    time on a large one.
    """
    nb = d.neighbours
    # label k >= 1: the k-th same-level run along UNIQUE_DIRECTIONS[0] = (0, 0, 1)
    labels = np.cumsum(nb.table[13] != nb.level, dtype=np.int32)
    label_at = np.zeros(d.grid.size, dtype=np.int32)  # the labels on the flat grid
    label_at[nb.index] = labels
    root = np.arange(labels[-1] + 1, dtype=np.int32)
    strides = np.array(d.strides)[:, None]
    batch = batch_rows(len(nb.index))
    for lo in range(1, 13, batch):
        k = slice(lo, min(lo + batch, 13))
        at = np.flatnonzero(nb.table[k] == nb.level)  # same-level pairs, direction after direction
        target = label_at[(nb.index + strides[k]).ravel()[at]]
        root = _joined(root, root[labels[at % len(labels)]], root[target])
    zone = root[labels]
    sizes = np.bincount(zone)
    zone_level = np.zeros(len(sizes), dtype=np.intp)
    zone_level[zone] = nb.level
    k = len(d.gray)
    code, count = np.unique(((sizes - 1) * k + zone_level - 1)[sizes > 0], return_counts=True)
    return Cells.of_codes(code, count, k)


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
    return dict(zip(GLSZM_NAMES, table_features([glszm_cells(d)], len(d), d.gray)[:, 0].tolist()))
