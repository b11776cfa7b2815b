"""The one per-lesion context that all seven feature families read: the HU
values and their fixed-bin-width gray levels, the k levels present with
their histogram, each voxel's rank 1..k among them, the padded grid of ranks
with its occupancy, the table of every voxel's 26 neighbour ranks, and the
statistics that GLDM, GLRLM and GLSZM each compute over their own tables.
Grids and texture tables are indexed by rank, not by level, so one outlying
voxel sizes none of them."""

from __future__ import annotations

from dataclasses import dataclass, field
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


BUDGET_CELLS = 1 << 18  # 2 MiB of int64: the most cells one temporary may hold


def batch_rows(n: int) -> int:
    """Rows of n voxels each that fit ``BUDGET_CELLS``: a lesion-sized step
    works on this many directions at once."""
    return max(1, BUDGET_CELLS // n)


class Neighbours(NamedTuple):
    """Every in-region voxel of a padded grid with the levels around it, the
    voxels in flat (C) order of the grid."""

    index: np.ndarray  # (n,) flat index of each voxel on the padded grid
    level: np.ndarray  # (n,) its gray level rank 1..k
    # (26, n) the rank at index + s for each UNIQUE_DIRECTIONS stride s, then
    # at index - s in the same order; 0 outside the region
    table: np.ndarray


class Cells(NamedTuple):
    """The nonzero cells of one (gray level x size) count table in order of size,
    then level: GLDM's, GLRLM's and GLSZM's tables as ``table_features`` reads them."""

    level: np.ndarray  # gray level rank 1..k: the level is gray[rank - 1]
    size: np.ndarray  # dependence size, run length or zone size, 1-based
    count: np.ndarray  # > 0

    @classmethod
    def of_codes(cls, code: np.ndarray, count: np.ndarray, k: int) -> Cells:
        """The cells of codes (size - 1) * k + rank - 1, ascending."""
        size, level = np.divmod(code, k)
        return cls(level + 1, size + 1, count)


@dataclass
class DiscretizedRegion:
    """A lesion region with intensities quantized to gray levels 1, 2, ...

    ``discretize`` sets level(v) = floor((I(v) - min I) / bin_width) + 1,
    so the binning is anchored at the region minimum and shifting all
    intensities by a constant leaves the levels unchanged.

    Each voxel also has its rank 1..k among the k levels present, ``gray``.
    The grid and the neighbour table hold ranks, in the smallest unsigned
    type holding k; the texture families read the level values from ``gray``.

    ``extract_all`` builds one per lesion.  The cached properties are built
    on first use and then shared by every family that reads them.
    """

    levels: np.ndarray  # (n,) integer gray levels, 1-based
    intensities: np.ndarray  # (n,) the HU values binned into levels: the region's own array
    coordinates: np.ndarray  # (n, 3) voxel indices
    spacing: tuple[float, float, float]
    gray: np.ndarray = field(init=False)  # (k,) the levels present, ascending
    histogram: np.ndarray = field(init=False)  # (k,) voxel count of each
    rank: np.ndarray = field(init=False)  # (n,) each voxel's place 1..k in gray

    def __post_init__(self):
        self.gray, self.histogram = np.unique(self.levels, return_counts=True)
        self.rank = (np.searchsorted(self.gray, self.levels) + 1).astype(np.min_scalar_type(len(self.gray)))

    def __len__(self) -> int:
        return len(self.levels)

    @property
    def n_levels(self) -> int:
        """The highest level: the bins 1..n_levels span the intensities."""
        return int(self.gray[-1])

    @cached_property
    def grid(self) -> np.ndarray:
        """Bounding-box grid of gray level ranks padded by one voxel on every
        side, 0 outside the region."""
        lo = self.coordinates.min(axis=0) - 1
        shape = self.coordinates.max(axis=0) - lo + 2
        grid = np.zeros(tuple(shape), dtype=self.rank.dtype)
        idx = self.coordinates - lo
        grid[idx[:, 0], idx[:, 1], idx[:, 2]] = self.rank
        return grid

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
        """The 26 neighbour ranks of every voxel, read once from the grid;
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


def discretize(region: LesionRegion, bin_width: float) -> DiscretizedRegion:
    """Quantize region intensities into fixed-width bins (1-based levels)."""
    if not 0 < bin_width < np.inf:  # an infinite width would give one gray level
        raise ValueError(f"bin width must be positive and finite, got {bin_width}")
    shifted_intensities = region.intensities - region.intensities.min()
    span = shifted_intensities.max()
    # past 2**53 levels float64 holds no level exactly; span / 2**53 is exact and cannot overflow
    if span / 2**53 >= bin_width:
        raise ValueError(f"bin width {bin_width} splits the {span} HU span into 2**53 or more gray levels")
    levels = np.floor(shifted_intensities / bin_width).astype(np.int64) + 1
    return DiscretizedRegion(levels, region.intensities, region.coordinates, region.spacing)


def table_features(tables: list[Cells], n_voxels: int, gray: np.ndarray) -> np.ndarray:
    """The 16 statistics of each (level rank x size) count table over ``gray``,
    shape (16, T) for T tables, in the order of GLRLM_NAMES and GLSZM_NAMES.

    Run, zone and dependence tables share these IBSI definitions.  Each table
    comes as its nonzero cells, so the cost follows the cells, not k x the
    largest size; every table must hold a count.
    """
    level, size, count = (np.concatenate(column) for column in zip(*tables))
    table = np.repeat(np.arange(len(tables)), [len(t.count) for t in tables])
    start = np.flatnonzero(np.diff(table, prepend=-1))  # each table's first cell
    i, j = gray[level - 1].astype(np.float64), size.astype(np.float64)
    i2, j2 = i * i, j * j
    sums = np.add.reduceat(
        (count, count / j2, count * j2, count / i2, count * i2, count / (i2 * j2),
         count * i2 / j2, count * j2 / i2, count * i2 * j2, count * i, count * j), start, axis=-1
    )
    n = sums[0]
    emphasis = sums[1:9] / n
    mu_i, mu_j = sums[9:] / n
    p = count / n[table]
    gl_variance, size_variance, plogp = np.add.reduceat(
        p * np.array(((i - mu_i[table]) ** 2, (j - mu_j[table]) ** 2, np.log2(p))), start, axis=-1
    )
    # per (table, level) and per (table, size) totals, exact: they sum integers
    ng = len(gray)
    gln = (np.bincount(table * ng + level - 1, count, len(tables) * ng).reshape(-1, ng) ** 2).sum(axis=1)
    # the first cell of each (table, size): cells come in order of table, then size
    first = np.flatnonzero(np.diff(table * (int(size.max()) + 1) + size, prepend=-1))
    szn = np.bincount(table[first], np.add.reduceat(count, first) ** 2, len(tables))
    shared = (gln / n, gln / n**2, szn / n, szn / n**2, n / n_voxels, gl_variance, size_variance, -plogp + 0.0)
    return np.concatenate((emphasis[:2], shared, emphasis[2:]))
