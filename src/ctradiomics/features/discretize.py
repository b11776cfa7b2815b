"""Fixed-bin-width gray-level discretization shared by all texture families,
and the one neighbourhood context of a lesion that those families read."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..volume_io import LesionRegion

# 13 unique displacement directions at distance 1: one representative per
# +/- pair of the 26-neighbourhood (first nonzero component positive)
UNIQUE_DIRECTIONS: tuple[tuple[int, int, int], ...] = tuple(
    (dx, dy, dz)
    for dx in (-1, 0, 1)
    for dy in (-1, 0, 1)
    for dz in (-1, 0, 1)
    if (dx, dy, dz) > (0, 0, 0)
)


def shifted(padded: np.ndarray, offset) -> np.ndarray:
    """View of a grid padded by one voxel on every side, aligned with its
    interior: ``shifted(a, o)[v]`` is ``a[v + o]`` for interior voxel v."""
    return padded[tuple(slice(1 + o, n - 1 + o) for n, o in zip(padded.shape, offset))]


def interior(padded: np.ndarray) -> np.ndarray:
    """The unpadded bounding box of a padded grid, as a view."""
    return shifted(padded, (0, 0, 0))


@dataclass
class DiscretizedRegion:
    """A lesion region with intensities quantized to gray levels 1..n_levels.

    level(v) = floor((I(v) - min I) / bin_width) + 1, so the binning is
    anchored at the region minimum and shifting all intensities by a
    constant leaves the levels unchanged.

    ``grid`` and ``same`` are the neighbourhood context of the texture
    families, built on first use and then shared by all of them.
    """

    levels: np.ndarray  # (n,) integer gray levels, 1-based
    n_levels: int
    bin_width: float
    coordinates: np.ndarray  # (n, 3) voxel indices
    spacing: tuple[float, float, float]

    def __len__(self) -> int:
        return len(self.levels)

    @cached_property
    def grid(self) -> np.ndarray:
        """Bounding-box grid of gray levels padded by one voxel on every side,
        0 outside the region, in the smallest unsigned type holding n_levels."""
        lo = self.coordinates.min(axis=0) - 1
        shape = self.coordinates.max(axis=0) - lo + 2
        grid = np.zeros(tuple(shape), dtype=np.min_scalar_type(self.n_levels))
        idx = self.coordinates - lo
        grid[idx[:, 0], idx[:, 1], idx[:, 2]] = self.levels
        return grid

    @cached_property
    def same(self) -> tuple[np.ndarray, ...]:
        """Forward same-level masks over the padded grid, one per entry d of
        UNIQUE_DIRECTIONS: True at v when v and v + d are both in the region
        with equal levels.  The backward mask (v and v - d) is the view
        ``shifted(same[k], -d)``."""
        inner = interior(self.grid)
        inside = inner > 0
        masks = []
        for offset in UNIQUE_DIRECTIONS:
            mask = np.zeros(self.grid.shape, dtype=bool)
            np.logical_and(inner == shifted(self.grid, offset), inside, out=interior(mask))
            masks.append(mask)
        return tuple(masks)


def discretize(region: LesionRegion, bin_width: float) -> DiscretizedRegion:
    """Quantize region intensities into fixed-width bins (1-based levels)."""
    if bin_width <= 0:
        raise ValueError(f"bin width must be positive, got {bin_width}")
    shifted_intensities = region.intensities - region.intensities.min()
    levels = np.floor(shifted_intensities / bin_width).astype(np.int64) + 1
    return DiscretizedRegion(
        levels=levels,
        n_levels=int(levels.max()),
        bin_width=float(bin_width),
        coordinates=region.coordinates,
        spacing=region.spacing,
    )
