"""Gray-level run-length features, averaged over the 13 distance-1 directions."""

from __future__ import annotations

import numpy as np

from .context import UNIQUE_DIRECTIONS, DiscretizedRegion, batch_rows

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
    of stride s, so a run starts at a voxel whose level differs from the one
    at v - s and ends at one whose level differs from the one at v + s.  In
    line order (by direction, then position mod s, then position) the starts
    and ends pair up, and a run's length is its end's key minus its start's
    plus one.
    """
    nb = d.neighbours
    ng = d.n_levels
    strides = np.array(d.strides)[:, None]
    lines = -(-d.grid.size // strides)
    shift = int((lines * strides).max()).bit_length()  # a direction's keys lie below 1 << shift
    bits = ng.bit_length()  # a start's level rides in the low bits of its key
    batch = batch_rows(len(nb.index))
    matrices = {}
    for lo in range(0, 13, batch):
        k = slice(lo, min(lo + batch, 13))
        # p // s through float64 division: exact, as the grid is far below 2**52 cells
        row = (nb.index / strides[k]).astype(np.int64)
        key = (np.arange(k.stop - lo)[:, None] << shift) + (nb.index - row * strides[k]) * lines[k] + row
        first = np.sort(((key << bits) | nb.level).ravel()[(nb.table[13:][k] != nb.level).ravel()])
        last = np.sort(key.ravel()[(nb.table[k] != nb.level).ravel()])
        run_level = first & ((1 << bits) - 1)
        first >>= bits
        lengths = last - first + 1
        in_batch = first >> shift  # each run's direction, counted from lo
        widths = np.maximum.reduceat(lengths, in_batch.searchsorted(np.arange(k.stop - lo)))
        cells = (in_batch * ng + run_level - 1) * widths.max() + lengths - 1
        counts = np.bincount(cells, minlength=(k.stop - lo) * ng * widths.max())
        counts = counts.reshape(-1, ng, widths.max()).astype(np.float64)
        matrices.update(zip(UNIQUE_DIRECTIONS[k], (m[:, :width] for m, width in zip(counts, widths))))
    return matrices


def glrlm_features(d: DiscretizedRegion) -> dict[str, float]:
    """The 16 run-length features, averaged over all 13 directions."""
    return dict(zip(GLRLM_NAMES, d.table_statistics["glrlm"].mean(axis=1).tolist()))
