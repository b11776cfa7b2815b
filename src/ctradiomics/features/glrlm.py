"""Gray-level run-length features, averaged over the 13 distance-1 directions."""

from __future__ import annotations

import numpy as np

from .context import Cells, DiscretizedRegion, table_features

GLRLM_NAMES = (
    "ShortRunEmphasis",
    "LongRunEmphasis",
    "GrayLevelNonUniformity",
    "GrayLevelNonUniformityNormalized",
    "RunLengthNonUniformity",
    "RunLengthNonUniformityNormalized",
    "RunPercentage",
    "GrayLevelVariance",
    "RunVariance",
    "RunEntropy",
    "LowGrayLevelRunEmphasis",
    "HighGrayLevelRunEmphasis",
    "ShortRunLowGrayLevelEmphasis",
    "ShortRunHighGrayLevelEmphasis",
    "LongRunLowGrayLevelEmphasis",
    "LongRunHighGrayLevelEmphasis",
)


def glrlm_cells(d: DiscretizedRegion) -> list[Cells]:
    """Run counts by gray level rank and run length, one table per UNIQUE_DIRECTIONS entry.

    Runs are maximal same-level segments of in-region voxels along a
    direction.  On the flat padded grid a step along a direction is a step
    of its stride s, so reading the grid as p, p + s, p + 2s, ... for each
    p < s walks every line of that direction in turn.  No region voxel
    touches the padded grid's faces, so each line starts and ends on a 0,
    and a run is a stretch of one nonzero level in that walk.
    """
    flat = d.grid.ravel()
    k = len(d.gray)
    tables = []
    for s in d.strides:
        walk = np.concatenate((flat, np.zeros(-flat.size % s, flat.dtype))).reshape(-1, s).T.ravel()
        edges = np.flatnonzero(walk[1:] != walk[:-1]) + 1  # where each stretch after the first starts
        rank = walk[edges[:-1]]  # the last stretch is the walk's closing 0s
        run = rank > 0
        counts = np.bincount((np.diff(edges)[run] - 1) * k + rank[run] - 1)
        code = np.flatnonzero(counts)
        tables.append(Cells.of_codes(code, counts[code], k))
    return tables


def glrlm_features(d: DiscretizedRegion) -> dict[str, float]:
    """The 16 run-length features, averaged over all 13 directions."""
    return dict(zip(GLRLM_NAMES, table_features(glrlm_cells(d), len(d), d.gray).mean(axis=1).tolist()))
