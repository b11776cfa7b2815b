"""Gray-level run-length features, averaged over the 13 distance-1 directions."""

from __future__ import annotations

import numpy as np

from .discretize import UNIQUE_DIRECTIONS, DiscretizedRegion

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
    in_region = levels > 0
    ng = d.n_levels
    steps = np.array(d.grid.strides) // d.grid.itemsize  # flat step per axis
    matrices = {}
    for direction, same in zip(UNIQUE_DIRECTIONS, d.same):
        stride = int(np.dot(direction, steps))  # > 0: first nonzero component is +1
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


def _features_from_stack(m: np.ndarray, n_voxels: int) -> dict[str, np.ndarray]:
    """All 16 features of each run matrix in a (D, ng, L) stack, shape (D,) each."""
    _, ng, max_len = m.shape
    nr = m.sum(axis=(1, 2))
    i = np.arange(1, ng + 1, dtype=np.float64)[:, None]
    j = np.arange(1, max_len + 1, dtype=np.float64)[None, :]
    p = m / nr[:, None, None]
    row = m.sum(axis=2)
    col = m.sum(axis=1)
    mu_i = (i * p).sum(axis=(1, 2))
    mu_j = (j * p).sum(axis=(1, 2))
    logp = np.log2(np.where(p > 0, p, 1.0))

    def per_run(w: np.ndarray) -> np.ndarray:
        return w.sum(axis=(1, 2)) / nr

    return {
        "ShortRunEmphasis": per_run(m / j**2),
        "LongRunEmphasis": per_run(m * j**2),
        "GrayLevelNonUniformity": (row**2).sum(axis=1) / nr,
        "GrayLevelNonUniformityNormalized": (row**2).sum(axis=1) / nr**2,
        "RunLengthNonUniformity": (col**2).sum(axis=1) / nr,
        "RunLengthNonUniformityNormalized": (col**2).sum(axis=1) / nr**2,
        "RunPercentage": nr / n_voxels,
        "GrayLevelVariance": (p * (i - mu_i[:, None, None]) ** 2).sum(axis=(1, 2)),
        "RunVariance": (p * (j - mu_j[:, None, None]) ** 2).sum(axis=(1, 2)),
        "RunEntropy": -(p * logp).sum(axis=(1, 2)) + 0.0,
        "LowGrayLevelRunEmphasis": per_run(m / i**2),
        "HighGrayLevelRunEmphasis": per_run(m * i**2),
        "ShortRunLowGrayLevelEmphasis": per_run(m / (i**2 * j**2)),
        "ShortRunHighGrayLevelEmphasis": per_run(m * i**2 / j**2),
        "LongRunLowGrayLevelEmphasis": per_run(m * j**2 / i**2),
        "LongRunHighGrayLevelEmphasis": per_run(m * i**2 * j**2),
    }


def glrlm_features(d: DiscretizedRegion) -> dict[str, float]:
    """The 16 run-length features, averaged over all 13 directions.

    The direction matrices are zero-padded to one run length and the
    features of all directions come from one (13, ng, L) stack.
    """
    matrices = list(glrlm_matrices(d).values())
    stack = np.zeros((len(matrices), d.n_levels, max(m.shape[1] for m in matrices)))
    for k, m in enumerate(matrices):
        stack[k, :, : m.shape[1]] = m
    per_direction = _features_from_stack(stack, len(d))
    return {name: float(per_direction[name].mean()) for name in GLRLM_NAMES}
