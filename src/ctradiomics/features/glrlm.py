"""Gray-level run-length features, averaged over the 13 distance-1 directions."""

from __future__ import annotations

import numpy as np

from .context import UNIQUE_DIRECTIONS, DiscretizedRegion, table_features

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


def glrlm_matrices(d: DiscretizedRegion) -> dict[tuple[int, int, int], np.ndarray]:
    """Run counts keyed by direction, rows = gray level, columns = run length.

    Runs are maximal same-level segments of in-region voxels along a
    direction.  On the flat padded grid a step along direction d is a step
    of stride s, so a run starts where v is in the region but not the same
    level as v - s and ends where it is not the same level as v + s.  In
    line order (by position mod s, then position) the starts and ends pair
    up, and a run's length is its end's index minus its start's plus one.
    """
    levels = d.grid.ravel()
    in_region = d.inside.ravel()
    ng = d.n_levels
    matrices = {}
    for direction, stride, same in zip(UNIQUE_DIRECTIONS, d.strides, d.same):
        same = same.ravel()
        starts = in_region.copy()
        starts[stride:] &= ~same[:-stride]
        first = _line_order(starts, stride)
        lengths = _line_order(in_region & ~same, stride) - first + 1
        lines = -(-levels.size // stride)
        run_levels = levels[(first % lines) * stride + first // lines].astype(np.intp)
        max_len = int(lengths.max())
        counts = np.bincount((run_levels - 1) * max_len + lengths - 1, minlength=ng * max_len)
        matrices[direction] = counts.reshape(ng, max_len).astype(np.float64)
    return matrices


def _line_order(mask: np.ndarray, stride: int) -> np.ndarray:
    """Indices of a flat mask's True entries in the line order of a stride:
    position p is listed at (p % stride) * lines + p // stride."""
    lines = -(-mask.size // stride)
    padded = np.zeros(lines * stride, dtype=bool)
    padded[: mask.size] = mask
    return np.flatnonzero(padded.reshape(lines, stride).T)


def glrlm_features(d: DiscretizedRegion) -> dict[str, float]:
    """The 16 run-length features, averaged over all 13 directions."""
    per_direction = table_features(list(glrlm_matrices(d).values()), len(d))
    return dict(zip(GLRLM_NAMES, per_direction.mean(axis=1).tolist()))
