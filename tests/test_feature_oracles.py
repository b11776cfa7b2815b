"""Every feature family against its brute-force oracle on the standard regions."""

from fractions import Fraction

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
from ctradiomics.features.context import Cells, table_features
from ctradiomics.features.glcm import _features_from_stack, _matrix_stack
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
    cells = []
    for _, table in tables:
        keys = sorted(table, key=lambda cell: cell[::-1])  # by size, then level
        level, size = np.array(keys).T
        cells.append(Cells(level, size, np.array([table[key] for key in keys])))
    n_voxels = max(sum(table.values()) for _, table in tables) + extra_voxels
    stats = table_features(cells, n_voxels, np.arange(1, ng + 1))
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


def test_glcm_matches_oracle_past_the_stack_budget():
    # one slab, four directions with pairs: five levels spread over 1..150, of
    # which the stack holds only the present ones
    from conftest import region_from_mask

    rng = np.random.default_rng(6)
    values = rng.choice([0.0, 1.0, 30.0, 60.0], size=(4, 4, 1))
    values[1, 2, 0] = 149.0
    d = _assert_glcm_matches_oracle(region_from_mask(np.ones(values.shape), values), 1.0, "compact")
    assert d.n_levels == 150 and len(d.gray) == 5


def test_every_texture_family_matches_its_oracle_across_a_wide_level_gap():
    # four parallel rods of 40-90 HU, two voxels apart so that only their
    # axis has pairs (the GLCM oracle costs ng^2 per direction with pairs),
    # and one rod voxel at 1000 HU: 959 levels at bin width 1, 27 present
    from ctradiomics.volume_io import LesionRegion

    coords = np.array([[x, y, z] for x in (0, 2) for y in (0, 2) for z in range(10)])
    hu = np.random.default_rng(7).integers(40, 91, len(coords)).astype(np.float64)
    hu[13] = 1000.0
    d = discretize(LesionRegion(coordinates=coords, intensities=hu, spacing=(1, 1, 1)), 1.0)
    assert (d.n_levels, len(d.gray)) == (959, 27)
    families = {
        "glcm": (glcm_features, oracles.glcm_oracle),
        "gldm": (gldm_features, oracles.gldm_oracle),
        "glrlm": (glrlm_features, oracles.glrlm_oracle),
        "glszm": (glszm_features, oracles.glszm_oracle),
        "ngtdm": (ngtdm_features, oracles.ngtdm_oracle),
    }
    for family, (features, oracle) in families.items():
        _assert_close(features(d), oracle(d.coordinates, d.levels, d.n_levels), f"gap:{family}")


def test_glcm_compact_stack_equals_the_dense_stack():
    # a 74-voxel blob with 62 of its 314 levels present: the stack over the
    # present levels gives the dense stack's features
    from conftest import random_blob_region

    d = discretize(random_blob_region(seed=4, shape=(5, 5, 5), fill=0.6, sigma=60.0), 1.0)
    assert len(d.gray) < d.n_levels
    compact = _matrix_stack(d)[1]
    # the dense stack: the compact one's rows and columns placed at their levels
    dense = np.zeros((len(compact), d.n_levels, d.n_levels))
    dense[:, d.gray[:, None] - 1, d.gray - 1] = compact
    got = _features_from_stack(compact, d.gray)
    want = _features_from_stack(dense, np.arange(1, d.n_levels + 1))
    for name in want:
        assert got[name] == pytest.approx(want[name], rel=1e-12, abs=1e-15), name


def test_glcm_correlation_matches_exact_rationals():
    # a 12^3 cube at 399 HU with one voxel at 0 HU: 400 levels at bin width
    # 1, 2 present, so sigma^2 is small and autocorrelation - mu^2 cancels;
    # the mean over directions of the exact sum p (i - mu)(j - mu) / sigma^2
    from conftest import region_from_mask

    values = np.full((12, 12, 12), 399.0)
    values[5, 6, 7] = 0.0
    d = discretize(region_from_mask(np.ones(values.shape), values), 1.0)
    assert d.n_levels == 400 and len(np.unique(d.levels)) == 2
    pos = oracles._pos_map(d.coordinates, d.levels)
    exact = []
    for direction in oracles.DIRECTIONS:
        counts, n_pairs = oracles.glcm_pair_counts(pos, direction)
        p = {cell: Fraction(count, 2 * n_pairs) for cell, count in counts.items()}
        mu = sum(i * q for (i, _), q in p.items())
        var = sum((i - mu) ** 2 * q for (i, _), q in p.items())
        exact.append(sum((i - mu) * (j - mu) * q for (i, j), q in p.items()) / var)
    want = float(sum(exact) / len(exact))
    assert glcm_features(d)["Correlation"] == pytest.approx(want, rel=1e-13, abs=0)


def test_glcm_matches_oracle_isolated_voxels_many_levels():
    # no co-occurring pair: the diagonal histogram fallback at ng >= 40
    from ctradiomics.volume_io import LesionRegion

    coords = [[2 * i, 2 * (i % 3), 2 * (i % 2)] for i in range(8)]
    region = LesionRegion(coordinates=coords, intensities=np.arange(8) * 13.0, spacing=(1, 1, 1))
    for bin_width in (2.0, 0.5):  # 46 levels, then 183
        d = _assert_glcm_matches_oracle(region, bin_width, "isolated")
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
