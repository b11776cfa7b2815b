"""The one per-lesion context that all seven feature families read: the
fixed-bin-width gray levels, their histogram, the padded level grid with its
occupancy and same-level neighbour masks, and the statistics that GLDM, GLRLM
and GLSZM share over their count tables."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..volume_io import LesionRegion

DEFAULT_BIN_WIDTH = 25.0  # HU

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

    ``extract_all`` builds one per lesion.  The cached properties are built
    on first use and then shared by every family that reads them.
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
    def histogram(self) -> np.ndarray:
        """Voxel count of each gray level 1..n_levels."""
        return np.bincount(self.levels, minlength=self.n_levels + 1)[1:]

    @cached_property
    def inside(self) -> np.ndarray:
        """The region's occupancy on the padded grid: ``grid > 0``."""
        return self.grid > 0

    @cached_property
    def strides(self) -> tuple[int, ...]:
        """Flat step on the padded grid of each entry of UNIQUE_DIRECTIONS;
        each is > 0, as the first nonzero component of a direction is +1."""
        steps = np.array(self.grid.strides) // self.grid.itemsize
        return tuple(int(np.dot(direction, steps)) for direction in UNIQUE_DIRECTIONS)

    @cached_property
    def same(self) -> tuple[np.ndarray, ...]:
        """Forward same-level masks over the padded grid, one per entry d of
        UNIQUE_DIRECTIONS: True at v when v and v + d are both in the region
        with equal levels.  The backward mask (v and v - d) is the view
        ``shifted(same[k], -d)``."""
        inner, inside = interior(self.grid), interior(self.inside)
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


def table_features(matrices, n_voxels: int) -> np.ndarray:
    """The 16 statistics of each (gray level x size) count table, shape (16, T)
    for T tables, in the order of ``GLRLM_NAMES`` and ``GLSZM_NAMES``.

    Run, zone and dependence tables share these IBSI definitions.  Only the
    nonzero cells (table, level, size, count) are read, so the cost follows
    the cells, not the table width; every table must hold a count.
    """
    first = np.cumsum([0] + [m.shape[1] for m in matrices[:-1]])  # each table's first row below
    columns = np.concatenate([m.T for m in matrices])  # size x level, table after table
    at, row = columns.nonzero()  # cells grouped by table, then by size
    count = columns[at, row]
    table = first.searchsorted(at, "right") - 1
    start = at.searchsorted(first)  # each table's first cell

    def per_table(values: np.ndarray) -> np.ndarray:
        return np.add.reduceat(values, start, axis=-1)

    i, j = row + 1.0, at - first[table] + 1.0
    i2, j2 = i * i, j * j
    sums = per_table(
        np.array(
            (count, count / j2, count * j2, count / i2, count * i2, count / (i2 * j2),
             count * i2 / j2, count * j2 / i2, count * i2 * j2, count * i, count * j)
        )
    )
    n = sums[0]
    emphasis = sums[1:9] / n
    mu_i, mu_j = sums[9:] / n
    p = count / n[table]
    gl_variance, size_variance, plogp = per_table(
        p * np.array(((i - mu_i[table]) ** 2, (j - mu_j[table]) ** 2, np.log2(p)))
    )
    # per (table, level) and per (table, size) totals, exact: they sum integers
    ng = columns.shape[1]
    gln = (np.bincount(table * ng + row, count, len(matrices) * ng).reshape(-1, ng) ** 2).sum(axis=1)
    szn = np.add.reduceat(np.bincount(at, count, len(columns)) ** 2, first)
    shared = (gln / n, gln / n**2, szn / n, szn / n**2, n / n_voxels, gl_variance, size_variance, -plogp + 0.0)
    return np.concatenate((emphasis[:2], shared, emphasis[2:]))
