"""Every feature family against its brute-force oracle on the standard regions."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hs

from ctradiomics.features import (
    discretize,
    first_order_features,
    glcm_features,
    gldm_features,
    glrlm_features,
    glszm_features,
    ngtdm_features,
    shape_features,
)
from ctradiomics.features.context import table_features
from ctradiomics.features.glrlm import GLRLM_NAMES

import oracles

REL_TOL = 1e-6


def _assert_close(computed: dict, expected: dict, label: str):
    assert set(computed) == set(expected)
    for name, want in expected.items():
        got = computed[name]
        assert got == pytest.approx(want, rel=REL_TOL, abs=1e-12), f"{label}:{name}"


@pytest.fixture(params=["constant_cube", "rod", "checkerboard", "two_blob", "random_blob"])
def named_region(request, oracle_regions):
    return request.param, oracle_regions[request.param]


def test_first_order_matches_oracle(named_region):
    label, region = named_region
    expected = oracles.fos_oracle(region.intensities, region.spacing)
    _assert_close(first_order_features(region, discretize(region, 25.0)), expected, label)


def test_glcm_matches_oracle(named_region):
    label, region = named_region
    d = discretize(region, 25.0)
    expected = oracles.glcm_oracle(d.coordinates, d.levels, d.n_levels)
    _assert_close(glcm_features(d), expected, label)


def test_gldm_matches_oracle(named_region):
    label, region = named_region
    d = discretize(region, 25.0)
    expected = oracles.gldm_oracle(d.coordinates, d.levels, d.n_levels)
    _assert_close(gldm_features(d), expected, label)


def test_glrlm_matches_oracle(named_region):
    label, region = named_region
    d = discretize(region, 25.0)
    expected = oracles.glrlm_oracle(d.coordinates, d.levels, d.n_levels)
    _assert_close(glrlm_features(d), expected, label)


def test_glszm_matches_oracle(named_region):
    label, region = named_region
    d = discretize(region, 25.0)
    expected = oracles.glszm_oracle(d.coordinates, d.levels, d.n_levels)
    _assert_close(glszm_features(d), expected, label)


def test_ngtdm_matches_oracle(named_region):
    label, region = named_region
    d = discretize(region, 25.0)
    expected = oracles.ngtdm_oracle(d.coordinates, d.levels, d.n_levels)
    _assert_close(ngtdm_features(d), expected, label)


def test_shape_matches_oracle(named_region):
    label, region = named_region
    expected = oracles.shape_oracle(region.coordinates, region.spacing)
    _assert_close(shape_features(discretize(region, 25.0)), expected, label)


def test_shape_matches_oracle_anisotropic():
    rng = np.random.default_rng(11)
    from conftest import region_from_mask

    mask = rng.random((5, 6, 4)) < 0.5
    region = region_from_mask(mask, rng.normal(40, 20, mask.shape), spacing=(0.7, 1.1, 1.6))
    expected = oracles.shape_oracle(region.coordinates, region.spacing)
    _assert_close(shape_features(discretize(region, 25.0)), expected, "anisotropic")


def test_texture_oracles_more_random_blobs(oracle_regions):
    from conftest import random_blob_region

    for seed in (1, 2, 3):
        region = random_blob_region(seed=seed, shape=(5, 5, 5))
        d = discretize(region, 25.0)
        _assert_close(
            glcm_features(d),
            oracles.glcm_oracle(d.coordinates, d.levels, d.n_levels),
            f"blob{seed}",
        )
        _assert_close(
            glrlm_features(d),
            oracles.glrlm_oracle(d.coordinates, d.levels, d.n_levels),
            f"blob{seed}",
        )


def test_isolated_voxels_use_the_same_fallbacks():
    # voxels farther than one step apart: no co-occurring pair anywhere and
    # no valid neighbourhood, exercising every degenerate code path
    from ctradiomics.volume_io import LesionRegion

    region = LesionRegion(
        coordinates=[[0, 0, 0], [3, 0, 0], [0, 3, 0], [0, 0, 3]],
        intensities=[0.0, 30.0, 60.0, 90.0],
        spacing=(1.0, 1.0, 1.0),
    )
    d = discretize(region, 25.0)
    _assert_close(
        glcm_features(d), oracles.glcm_oracle(d.coordinates, d.levels, d.n_levels), "isolated"
    )
    _assert_close(
        ngtdm_features(d), oracles.ngtdm_oracle(d.coordinates, d.levels, d.n_levels), "isolated"
    )
    _assert_close(
        gldm_features(d), oracles.gldm_oracle(d.coordinates, d.levels, d.n_levels), "isolated"
    )


@hs.composite
def _sparse_tables(draw):
    """(n_levels, [(width, {(level, size): count}), ...]) for 1 to 13 tables."""
    ng = draw(hs.integers(1, 6))
    tables = []
    for _ in range(draw(hs.integers(1, 13))):
        width = draw(hs.integers(1, 40))
        cells = hs.tuples(hs.integers(1, ng), hs.integers(1, width))
        tables.append((width, draw(hs.dictionaries(cells, hs.integers(1, 10_000), min_size=1, max_size=20))))
    return ng, tables


@settings(max_examples=80, deadline=None)
@given(_sparse_tables(), hs.integers(0, 1_000))
@example((3, [(3, {(2, 3): 5})]), 0)  # a single cell
@example((4, [(5, {(3, 1): 4, (3, 2): 7, (3, 5): 1})]), 3)  # a single gray level
@example((2, [(w, {(1, w): 1, (2, 1): w}) for w in range(1, 14)]), 0)  # 13 tables of different widths
@example((8, [(82_007, {(3, 82_007): 1, (1, 1): 40, (8, 2): 3})]), 82_009)  # a zone as wide as the big ball's
def test_table_features_match_the_oracle(case, extra_voxels):
    ng, tables = case
    matrices = []
    for width, table in tables:
        m = np.zeros((ng, width))
        for (level, size), count in table.items():
            m[level - 1, size - 1] = count
        matrices.append(m)
    n_voxels = max(sum(table.values()) for _, table in tables) + extra_voxels
    stats = table_features(matrices, n_voxels)
    assert stats.shape == (16, len(tables))
    for t, (_, table) in enumerate(tables):
        expected = oracles._run_table_features(table, n_voxels)
        for name, got in zip(GLRLM_NAMES, stats[:, t]):
            want = expected[name]  # exactly 0 for one gray level's variance
            assert got == pytest.approx(want, rel=1e-12, abs=0 if want else 1e-12), f"table {t}: {name}"


def _assert_glcm_matches_oracle(region, bin_width, label):
    d = discretize(region, bin_width)
    expected = oracles.glcm_oracle(d.coordinates, d.levels, d.n_levels)
    _assert_close(glcm_features(d), expected, label)
    return d


@pytest.mark.parametrize("seed,bin_width", [(1, 1.0), (2, 1.5), (3, 2.0)])
def test_glcm_matches_oracle_at_many_gray_levels(seed, bin_width):
    from conftest import random_blob_region

    region = random_blob_region(seed=seed, shape=(5, 5, 5), fill=0.6, sigma=30.0)
    d = _assert_glcm_matches_oracle(region, bin_width, f"blob{seed}@{bin_width}")
    assert d.n_levels >= 40


def test_glcm_matches_oracle_with_gray_level_gaps():
    # four levels spread over 1..61: most marginal rows are zero and every
    # direction's MCC support is a strict subset of the levels
    from conftest import region_from_mask

    rng = np.random.default_rng(5)
    mask = np.ones((4, 4, 3), dtype=bool)
    values = rng.choice([0.0, 1.0, 30.0, 60.0], size=mask.shape)
    d = _assert_glcm_matches_oracle(region_from_mask(mask, values), 1.0, "gaps")
    assert d.n_levels == 61
    assert len(np.unique(d.levels)) == 4


def test_glcm_matches_oracle_isolated_voxels_many_levels():
    # no co-occurring pair: the diagonal histogram fallback at ng >= 40
    from ctradiomics.volume_io import LesionRegion

    coords = [[2 * i, 2 * (i % 3), 2 * (i % 2)] for i in range(8)]
    region = LesionRegion(coordinates=coords, intensities=np.arange(8) * 13.0, spacing=(1, 1, 1))
    d = _assert_glcm_matches_oracle(region, 2.0, "isolated")
    assert d.n_levels >= 40
    assert glcm_features(d)["MCC"] == pytest.approx(1.0)


def test_glcm_matches_oracle_flat_marginal():
    # every pair joins two voxels of level 1, the far voxels add levels but no
    # pairs, so each direction's marginal is flat: Correlation falls back to 1
    from ctradiomics.volume_io import LesionRegion

    cube = [[x, y, z] for x in range(3) for y in range(3) for z in range(3)]
    coords = cube + [[9, 0, 0], [0, 9, 0], [0, 0, 9]]
    intensities = [0.0] * len(cube) + [40.0, 70.0, 95.0]
    region = LesionRegion(coordinates=coords, intensities=intensities, spacing=(1, 1, 1))
    d = _assert_glcm_matches_oracle(region, 2.0, "flat_marginal")
    assert d.n_levels >= 40
    f = glcm_features(d)
    assert f["Correlation"] == 1.0
    assert f["MCC"] == 0.0


def test_shape_cache_follows_spacing():
    # the per-spacing mesh constants are cached: alternating two anisotropic
    # spacings on one mask must give each spacing's own oracle values
    from conftest import region_from_mask

    rng = np.random.default_rng(12)
    mask = rng.random((5, 4, 4)) < 0.55
    intensities = rng.normal(40, 20, mask.shape)
    spacings = [(0.7, 1.1, 1.6), (1.6, 0.7, 1.1)]
    expected = [oracles.shape_oracle(np.argwhere(mask), spacing) for spacing in spacings]
    assert expected[0]["SurfaceArea"] != pytest.approx(expected[1]["SurfaceArea"])
    for k in (0, 1, 0, 1):
        region = region_from_mask(mask, intensities, spacing=spacings[k])
        _assert_close(shape_features(discretize(region, 25.0)), expected[k], f"spacing{k}")


def test_shape_single_slice_matches_oracle():
    # one voxel layer: the mesh still has thickness, so the one 3-D hull
    # serves all three 2-D diameters, including the in-slice one
    from conftest import region_from_mask

    mask = np.zeros((5, 6, 1), dtype=bool)
    mask[1:4, :, 0] = True
    mask[0, 2, 0] = True
    mask[4, 5, 0] = True
    region = region_from_mask(mask, np.zeros(mask.shape), spacing=(0.8, 1.0, 2.5))
    expected = oracles.shape_oracle(region.coordinates, region.spacing)
    _assert_close(shape_features(discretize(region, 25.0)), expected, "single_slice")


DIAMETER_NAMES = (
    "Maximum3DDiameter",
    "Maximum2DDiameterSlice",
    "Maximum2DDiameterColumn",
    "Maximum2DDiameterRow",
)


def _brute_force_diameters(vertices):
    """Largest distance over every pair of mesh vertices, in 3-D and in the
    slice, column and row planes, summed in pdist's order."""
    dx, dy, dz = ((c[:, None] - c[None, :]) ** 2 for c in vertices.T)
    plane = dx + dy
    return tuple(float(np.sqrt(s.max())) for s in (plane + dz, plane, dx + dz, dy + dz))


def _single_slice_scatter():
    rng = np.random.default_rng(3)
    mask = np.zeros((9, 7, 1), dtype=bool)
    mask[rng.integers(0, 9, 12), rng.integers(0, 7, 12), 0] = True
    return mask


@hs.composite
def _masks_and_spacings(draw):
    """A random mask in a box of up to 6^3 voxels at anisotropic spacing."""
    shape = draw(hs.tuples(*[hs.integers(1, 6)] * 3))
    n = shape[0] * shape[1] * shape[2]
    inside = draw(hs.lists(hs.booleans(), min_size=n, max_size=n))
    inside[draw(hs.integers(0, n - 1))] = True
    spacing = tuple(draw(hs.floats(0.3, 3.0)) for _ in range(3))
    return np.reshape(inside, shape), spacing


@settings(max_examples=80, deadline=None)
@given(_masks_and_spacings())
@example((np.ones((1, 1, 1), dtype=bool), (0.7, 1.1, 2.5)))
@example((np.ones((1, 1, 6), dtype=bool), (0.7, 1.1, 2.5)))
@example((np.ones((5, 1, 1), dtype=bool), (0.7, 1.1, 2.5)))
@example((np.ones((1, 4, 1), dtype=bool), (2.5, 0.7, 1.1)))
@example((np.ones((6, 5, 1), dtype=bool), (0.8, 1.0, 2.5)))
@example((_single_slice_scatter(), (0.8, 1.0, 2.5)))
def test_diameters_equal_the_brute_force_maxima(case):
    # exact, not approximate: the pruned vertex set keeps every hull vertex
    # and sums squares in the order the brute force does
    from conftest import region_from_mask

    mask, spacing = case
    region = region_from_mask(mask, np.zeros(mask.shape), spacing=spacing)
    features = shape_features(discretize(region, 25.0))
    # the brute force runs on the region's bounding box, as shape_features does
    coords = region.coordinates - region.coordinates.min(axis=0)
    box = np.zeros(tuple(coords.max(axis=0) + 1), dtype=bool)
    box[tuple(coords.T)] = True
    want = _brute_force_diameters(oracles.mesh_vertices(box, spacing))
    assert tuple(features[name] for name in DIAMETER_NAMES) == want


def _noisy_mask(side, seed):
    return np.random.default_rng(seed).random((side,) * 3) < 0.5


def _ball(radius):
    axis = np.arange(-radius, radius + 1)
    gx, gy, gz = np.meshgrid(axis, axis, axis, indexing="ij")
    return gx**2 + gy**2 + gz**2 <= radius**2


@pytest.mark.parametrize(
    "mask, spacing",
    [
        (_noisy_mask(20, 0), (1.0, 1.0, 1.0)),
        (_noisy_mask(30, 1), (0.7, 0.7, 2.5)),
        (_ball(12), (1.0, 1.0, 1.0)),
        (_ball(12), (0.7, 0.7, 2.5)),
    ],
    ids=["noisy20", "noisy30_aniso", "ball12", "ball12_aniso"],
)
def test_hull_candidates_stay_near_the_hull_vertex_count(mask, spacing):
    # pruning must leave a near-hull point set, or the pairwise maximum
    # grows with the square of the vertex count on noisy masks
    from scipy.spatial import ConvexHull

    from ctradiomics.features.shape import _hull_candidates

    spacing = np.asarray(spacing)
    candidates = _hull_candidates(np.pad(mask, 1), spacing)
    hull = ConvexHull(oracles.mesh_vertices(mask, spacing))
    assert len(candidates) <= 4 * len(hull.vertices)
    assert len(np.unique(candidates, axis=0)) == len(candidates)


@settings(max_examples=80, deadline=None)
@given(_masks_and_spacings())
@example((_noisy_mask(12, 2), (0.7, 0.9, 2.5)))
@example((_ball(6), (0.7, 0.9, 2.5)))
@example((_single_slice_scatter(), (0.8, 1.0, 2.5)))
def test_hull_candidates_equal_the_argmax_scan(case):
    # one sort per line axis finds the same first and last vertex of every
    # lattice line as an argmax over each crossing array: same points, same order
    from ctradiomics.features.shape import _hull_candidates

    mask, spacing = case
    padded, spacing = np.pad(mask, 1), np.asarray(spacing)
    got = _hull_candidates(padded, spacing)
    assert np.array_equal(got, oracles.hull_candidates_loop(padded, spacing))
