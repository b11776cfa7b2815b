"""The one per-lesion context that all seven feature families read: the
fixed-bin-width gray levels, their histogram, the padded level grid with its
occupancy, the table of every voxel's 26 neighbour levels, and the statistics
that GLDM, GLRLM and GLSZM share over their count tables."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

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


def batch_rows(n: int) -> int:
    """Rows of n voxels each that fit 2 MiB of int64: a lesion-sized step
    works on this many directions at once."""
    return max(1, (1 << 18) // n)


class Neighbours(NamedTuple):
    """Every in-region voxel of a padded grid with the levels around it, the
    voxels in flat (C) order of the grid."""

    index: np.ndarray  # (n,) flat index of each voxel on the padded grid
    level: np.ndarray  # (n,) its gray level
    # (26, n) the level at index + s for each UNIQUE_DIRECTIONS stride s, then
    # at index - s in the same order; 0 outside the region
    table: np.ndarray


@dataclass
class DiscretizedRegion:
    """A lesion region with intensities quantized to gray levels 1..n_levels.

    ``discretize`` sets level(v) = floor((I(v) - min I) / bin_width) + 1,
    so the binning is anchored at the region minimum and shifting all
    intensities by a constant leaves the levels unchanged.

    ``extract_all`` builds one per lesion.  The cached properties are built
    on first use and then shared by every family that reads them.
    """

    levels: np.ndarray  # (n,) integer gray levels, 1-based
    n_levels: int
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
    def neighbours(self) -> Neighbours:
        """The 26 neighbour levels of every voxel, read once from the grid;
        GLCM, GLDM, GLSZM and NGTDM count their pairs, dependences, zones and
        neighbourhood sums from this table alone."""
        flat = self.grid.ravel()
        index = np.flatnonzero(flat)
        steps = np.array(self.strides + tuple(-s for s in self.strides))[:, None]
        table = np.empty((26, len(index)), dtype=flat.dtype)
        batch = batch_rows(len(index))
        for lo in range(0, 26, batch):
            table[lo : lo + batch] = flat[steps[lo : lo + batch] + index]
        return Neighbours(index, flat[index], table)

    @cached_property
    def table_statistics(self) -> dict[str, np.ndarray]:
        """``table_features`` of GLDM's dependence table, GLRLM's 13 run
        tables and GLSZM's zone table from one call, keyed by family, shape
        (16, tables) each."""
        # the table builders live with their families, which import this module
        from .gldm import gldm_matrix
        from .glrlm import glrlm_matrices
        from .glszm import glszm_matrix

        tables = [gldm_matrix(self), *glrlm_matrices(self).values(), glszm_matrix(self)]
        stats = table_features(tables, len(self))
        return {"gldm": stats[:, :1], "glrlm": stats[:, 1:14], "glszm": stats[:, 14:]}


def discretize(region: LesionRegion, bin_width: float) -> DiscretizedRegion:
    """Quantize region intensities into fixed-width bins (1-based levels)."""
    if not 0 < bin_width < np.inf:  # an infinite width would give one gray level
        raise ValueError(f"bin width must be positive and finite, got {bin_width}")
    shifted_intensities = region.intensities - region.intensities.min()
    levels = np.floor(shifted_intensities / bin_width).astype(np.int64) + 1
    return DiscretizedRegion(
        levels=levels,
        n_levels=int(levels.max()),
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
