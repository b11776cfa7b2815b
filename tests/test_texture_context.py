"""The per-lesion neighbourhood context against the brute-force oracle tables.

Every texture table built from ``DiscretizedRegion.grid`` and ``.neighbours`` must
equal the table its oracle counts voxel by voxel, exactly: GLCM pair counts,
the cells of GLDM dependence counts, of per-direction GLRLM run counts and
of GLSZM zones, and NGTDM n_i / s_i.  The GLRLM run cells must also equal,
bit for bit, the nonzero cells of the packed-key sort the run-length pass
replaced.
"""

import importlib
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

import oracles
from conftest import region_from_mask, spanning_cube_region
from ctradiomics.features import gldm_cells, gldm_features, glrlm_cells, glrlm_features, glszm_cells, glszm_features
from ctradiomics.features import ngtdm_table
from ctradiomics.features.context import UNIQUE_DIRECTIONS, Cells, DiscretizedRegion, discretize, table_features
from ctradiomics.features.glcm import _matrix_stack


def _region(coords, levels) -> DiscretizedRegion:
    coords = np.asarray(coords, dtype=np.intp).reshape(-1, 3)
    levels = np.asarray(levels, dtype=np.int64)
    return DiscretizedRegion(levels=levels, coordinates=coords, spacing=(1.0, 1.0, 1.0))


def _table(cells: Cells, gray: np.ndarray) -> dict:
    """The cells as a (level, size) -> count dict, their level ranks read
    through ``gray``, once they are checked to come in order of size, then
    rank, each once, with a positive count."""
    code = cells.size * (len(gray) + 1) + cells.level
    assert (np.diff(code) > 0).all() and (cells.count > 0).all()
    return dict(zip(zip(gray[cells.level - 1].tolist(), cells.size.tolist()), cells.count.tolist()))


def assert_matches_oracle_tables(d: DiscretizedRegion):
    pos = {tuple(int(x) for x in c): int(l) for c, l in zip(d.coordinates, d.levels)}

    # stack index i holds level gray[i], the i-th present level
    levels = d.gray
    glcm = dict(zip(*_matrix_stack(d)))
    expected_glcm = {}
    for direction in UNIQUE_DIRECTIONS:
        counts, n_pairs = oracles.glcm_pair_counts(pos, direction)
        if n_pairs:
            expected_glcm[direction] = {cell: count / (2 * n_pairs) for cell, count in counts.items()}
    assert glcm.keys() == expected_glcm.keys()
    for direction, p in expected_glcm.items():
        i, j = glcm[direction].nonzero()
        got = dict(zip(zip(levels[i].tolist(), levels[j].tolist()), glcm[direction][i, j].tolist()))
        assert got == p, f"GLCM {direction}"

    assert _table(gldm_cells(d), d.gray) == oracles.gldm_table(pos)

    assert_glrlm_equals_packed_keys(d)
    for direction, cells in zip(UNIQUE_DIRECTIONS, glrlm_cells(d), strict=True):
        assert _table(cells, d.gray) == oracles.glrlm_run_table(pos, direction), f"GLRLM {direction}"

    zones = {}
    for zone in oracles.glszm_zones(pos):
        zones[zone] = zones.get(zone, 0) + 1
    assert _table(glszm_cells(d), d.gray) == zones

    n_i, s_i, n_total = ngtdm_table(d)
    want_n, want_s, want_total = oracles.ngtdm_sums(pos)
    assert n_total == want_total
    assert np.array_equal(n_i, [want_n.get(level, 0) for level in d.gray.tolist()])
    assert np.array_equal(s_i, [want_s.get(level, 0.0) for level in d.gray.tolist()])


def assert_glrlm_equals_packed_keys(d: DiscretizedRegion):
    """The run cells equal the nonzero cells of the packed-key sort's
    tables, direction by direction, in order and bit for bit."""
    reference = oracles.glrlm_matrices_packed_keys(d)
    assert tuple(reference) == UNIQUE_DIRECTIONS
    for (direction, m), cells in zip(reference.items(), glrlm_cells(d), strict=True):
        size, level = m.T.nonzero()  # in order of size, then level
        assert np.array_equal(cells.level, level + 1), f"GLRLM {direction}"
        assert np.array_equal(cells.size, size + 1), f"GLRLM {direction}"
        assert np.array_equal(cells.count, m.T[size, level]), f"GLRLM {direction}"


@hs.composite
def _level_regions(draw):
    """A random region in a box of up to 6^3 voxels with 1 to 300 gray levels
    (past 255 present levels the grid needs a wider type), gaps between
    levels allowed; or in a long, thin box of up to 2 x 3 x 40 voxels, in
    any axis order, with 1 to 3 levels and mostly filled, so runs grow past
    6 voxels and lines leave through every face."""
    if draw(hs.booleans()):
        shape = draw(hs.tuples(*[hs.integers(1, 6)] * 3))
        top = draw(hs.sampled_from([1, 2, 3, 6, 40, 61, 300]))
        voxel = hs.booleans()
    else:
        shape = draw(hs.permutations([draw(hs.integers(1, 2)), draw(hs.integers(1, 3)), draw(hs.integers(7, 40))]))
        top = draw(hs.integers(1, 3))
        voxel = hs.sampled_from([True, True, True, False])
    n = shape[0] * shape[1] * shape[2]
    inside = draw(hs.lists(voxel, min_size=n, max_size=n))
    inside[draw(hs.integers(0, n - 1))] = True
    levels = draw(hs.lists(hs.integers(1, top), min_size=n, max_size=n))
    coords = np.argwhere(np.reshape(inside, shape))
    return coords, [levels[i] for i in np.flatnonzero(inside)]


@settings(max_examples=80, deadline=None)
@given(_level_regions())
def test_context_matrices_equal_oracle_tables(case):
    assert_matches_oracle_tables(_region(*case))


@pytest.mark.parametrize("axes", list(itertools.permutations(range(3))))
def test_long_runs_in_a_thin_box(axes):
    # a full 2 x 3 x 40 box: runs of 40 along its long axis, broken by one
    # level change and one hole, in each axis order
    box = np.ones((2, 3, 40), dtype=bool)
    box[1, 2, 30] = False
    coords = np.argwhere(box)
    levels = np.where(coords[:, 2] < 17, 1, 3)
    levels[(coords[:, 0] == 0) & (coords[:, 1] == 1)] = 2
    assert_matches_oracle_tables(_region(coords[:, axes], levels))


def _noisy_ball(radius, bin_width) -> DiscretizedRegion:
    axis = np.arange(-radius, radius + 1)
    gx, gy, gz = np.meshgrid(axis, axis, axis, indexing="ij")
    mask = gx**2 + gy**2 + gz**2 <= radius**2
    rng = np.random.default_rng(radius)
    return discretize(region_from_mask(mask, rng.normal(80.0, 20.0, mask.shape)), bin_width)


@pytest.mark.parametrize(
    "radius, voxels, bin_width, grid_type",
    [
        (12, 7_153, 25.0, np.uint8),
        (20, 33_401, 25.0, np.uint8),
        (35, 179_579, 25.0, np.uint8),
        (20, 33_401, 0.375, np.uint16),
    ],
    ids=["ct512_small", "ct512_medium", "ct512_large", "400_levels"],
)
def test_glrlm_equals_packed_keys_on_spheres(radius, voxels, bin_width, grid_type):
    # the three lesion sizes of the ct512 benchmark scan at 1 mm, and a ball
    # of 418 levels, 367 of them present, whose ranks need a uint16 grid
    d = _noisy_ball(radius, bin_width)
    assert len(d) == voxels and d.grid.dtype == grid_type
    assert_glrlm_equals_packed_keys(d)


def test_table_statistics_memory_follows_the_cells():
    # a 33,401-voxel ball at 0 HU with 1% of its voxels drawn from 0-800 HU,
    # at bin width 1: 799 gray levels and one 33,065-voxel zone, so a table
    # of n_levels x the largest zone would take 200 MiB
    axis = np.arange(-20, 21)
    gx, gy, gz = np.meshgrid(axis, axis, axis, indexing="ij")
    mask = gx**2 + gy**2 + gz**2 <= 20**2
    rng = np.random.default_rng(0)
    spikes = rng.random(mask.shape) < 0.01
    hu = np.zeros(mask.shape)
    hu[spikes] = rng.uniform(0.0, 800.0, int(spikes.sum()))
    region = region_from_mask(mask, hu)
    families = (gldm_features, glrlm_features, glszm_features)
    warm = discretize(region, 1.0)
    for family in families:  # imports
        family(warm)
    d = discretize(region, 1.0)
    assert (len(d), d.n_levels) == (33_401, 799)
    tracemalloc.start()
    try:
        for family in families:
            family(d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # measured 8.6 MiB with numpy 2.4, the neighbour table included; dense
    # tables peaked at 411 MiB
    assert peak <= 32 * 2**20, f"the table statistics peaked at {peak / 2**20:.1f} MiB"


def test_a_trillion_levels_in_a_cube():
    # 27 levels spread over 0..1e12: every table still equals its oracle's
    # exactly, the NGTDM sums of 26 such levels included
    d = discretize(spanning_cube_region(), 1e-10)
    assert len(d.gray) == 27 and d.n_levels > 10**12 - 10
    assert_matches_oracle_tables(d)


def test_many_levels_in_a_blob():
    rng = np.random.default_rng(5)
    coords = np.argwhere(rng.random((7, 6, 5)) < 0.6)
    levels = rng.integers(1, 48, len(coords))
    levels[0] = 47
    assert _region(coords, levels).n_levels >= 40
    assert_matches_oracle_tables(_region(coords, levels))


@pytest.mark.parametrize("direction", UNIQUE_DIRECTIONS)
@pytest.mark.parametrize("kind", ["one level", "alternating", "many levels"])
def test_one_voxel_lines_touch_the_box_faces(direction, kind):
    length = 5
    steps = np.arange(length)[:, None] * np.array(direction)
    coords = steps - steps.min(axis=0)  # the line spans its whole bounding box
    levels = {
        "one level": [3] * length,
        "alternating": [1, 2] * 2 + [1],
        "many levels": [44, 1, 17, 44, 30],
    }[kind]
    assert_matches_oracle_tables(_region(coords, levels))


def test_disconnected_zones_of_one_level():
    mask = np.zeros((7, 7, 3), dtype=bool)
    mask[0:2, 0:2, 0] = True  # level 5, 4 voxels
    mask[4:7, 0, 0:2] = True  # level 5, 6 voxels, disjoint
    mask[0, 5:7, 2] = True  # level 5, 2 voxels, disjoint
    mask[3, 3, 1] = True  # level 2 between them
    mask[4, 4, 2] = True  # level 5, meets (3, 3, 1) only across a corner
    coords = np.argwhere(mask)
    levels = [2 if tuple(c) == (3, 3, 1) else 5 for c in coords]
    assert_matches_oracle_tables(_region(coords, levels))


def test_zones_joined_only_across_corners():
    # one level on a body diagonal and its mirror: every link is a corner link
    coords = [(k, k, k) for k in range(4)] + [(3 - k, k, 4 + k) for k in range(4)]
    assert_matches_oracle_tables(_region(coords, [9] * len(coords)))


@pytest.mark.parametrize("level", [1, 7, 256])
def test_single_voxel(level):
    assert_matches_oracle_tables(_region([(2, 5, 1)], [level]))


def test_context_module_is_not_shadowed_by_discretize():
    # the package re-exports the function discretize; its module has another name
    from ctradiomics import features

    module = importlib.import_module("ctradiomics.features.context")
    assert module.table_features is table_features
    assert features.discretize is module.discretize


def test_context_histogram_and_occupancy():
    d = _region([(0, 0, 0), (2, 0, 0), (0, 2, 1), (1, 1, 1)], [3, 1, 3, 3])
    assert d.histogram.tolist() == [1, 3]
    assert d.gray.tolist() == [1, 3]
    assert np.array_equal(d.inside, d.grid > 0)
    assert d.inside.sum() == len(d)
    start = np.flatnonzero(d.inside)[0]
    for direction, stride in zip(UNIQUE_DIRECTIONS, d.strides):
        # a flat step of stride from a voxel lands on the voxel + direction
        v = np.array(np.unravel_index(start, d.grid.shape)) + direction
        assert np.ravel_multi_index(tuple(v), d.grid.shape) == start + stride


def test_isolated_voxels():
    assert_matches_oracle_tables(_region([(0, 0, 0), (2, 0, 0), (0, 2, 0), (2, 2, 2)], [1, 40, 40, 3]))
