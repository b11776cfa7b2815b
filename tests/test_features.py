"""Hand-worked feature examples, canonical ordering, and module invariants."""

import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from conftest import (
    checkerboard_region,
    constant_cube_region,
    random_blob_region,
    region_from_mask,
    rod_region,
    spanning_cube_region,
)
from ctradiomics.errors import FeatureRangeError
from ctradiomics.features import (
    FAMILY_NAMES,
    FEATURE_COLUMNS,
    FeatureVector,
    discretize,
    extract_all,
    family_of_column,
    first_order_features,
    glcm_features,
    gldm_cells,
    gldm_features,
    glrlm_cells,
    glrlm_features,
    glszm_cells,
    glszm_features,
    ngtdm_features,
    ngtdm_table,
    shape_features,
)
from ctradiomics.features.context import UNIQUE_DIRECTIONS
from ctradiomics.features.glcm import _matrix_stack
from ctradiomics.volume_io import LesionRegion


def glcm_matrices(d) -> dict:
    """Normalized symmetric co-occurrence matrices keyed by direction; a
    direction without any pair is omitted."""
    return dict(zip(*_matrix_stack(d)))


class TestDiscretize:
    def test_constant_region_is_single_level(self):
        region = constant_cube_region(side=2, value=42.0)
        d = discretize(region, 10.0)
        assert d.n_levels == 1
        assert set(d.levels.tolist()) == {1}

    def test_values_inside_first_bin(self):
        region = LesionRegion(
            coordinates=[[0, 0, 0], [1, 0, 0]], intensities=[0.0, 24.9], spacing=(1, 1, 1)
        )
        d = discretize(region, 25.0)
        assert d.levels.tolist() == [1, 1]

    def test_bin_boundaries(self):
        region = LesionRegion(
            coordinates=[[0, 0, 0], [1, 0, 0], [2, 0, 0]],
            intensities=[0.0, 25.0, 50.0],
            spacing=(1, 1, 1),
        )
        d = discretize(region, 25.0)
        assert d.levels.tolist() == [1, 2, 3]
        assert d.n_levels == 3

    def test_non_positive_width_rejected(self):
        for width in (0.0, -25.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="bin width"):
                discretize(constant_cube_region(), width)

    @pytest.mark.parametrize("width", [1e-16, 1e-300])
    def test_2_to_the_53_levels_rejected(self, width):
        # 100 HU at 1e-16 HU is 1e18 levels, past the integers float64 holds
        # exactly; at 1e-300 the levels overflowed int64 in their cast
        with pytest.raises(ValueError, match=f"bin width {width} splits the 100.0 HU span"):
            discretize(spanning_cube_region(), width)

    def test_neighbour_table_reads_each_direction_forward_then_backward(self):
        region = random_blob_region(seed=8)
        d = discretize(region, 10.0)
        nb = d.neighbours
        assert np.array_equal(nb.index, np.flatnonzero(d.grid))  # flat grid order
        assert np.array_equal(nb.level, d.grid.ravel()[nb.index])
        assert nb.table.shape == (26, len(d)) and nb.table.dtype == d.grid.dtype
        at = np.argwhere(d.grid)  # the voxels in the same order
        for k, direction in enumerate(UNIQUE_DIRECTIONS):
            for row, step in ((nb.table[k], direction), (nb.table[13 + k], np.negative(direction))):
                assert np.array_equal(row, d.grid[tuple((at + step).T)])


class TestFirstOrderExamples:
    def test_constant_region(self):
        region = constant_cube_region(side=2, value=5.0)  # 8 voxels
        f = first_order_features(region, discretize(region, 25.0))
        assert f["Mean"] == 5.0
        assert f["Variance"] == 0.0
        assert f["Entropy"] == 0.0
        assert f["Uniformity"] == 1.0
        assert f["Energy"] == 200.0
        assert f["Skewness"] == 0.0
        assert f["Kurtosis"] == 0.0

    def test_two_value_region(self):
        region = LesionRegion(
            coordinates=[[0, 0, 0], [1, 0, 0], [2, 0, 0], [3, 0, 0]],
            intensities=[0.0, 0.0, 4.0, 4.0],
            spacing=(1, 1, 1),
        )
        f = first_order_features(region, discretize(region, 25.0))
        assert f["Mean"] == 2.0
        assert f["Variance"] == 4.0
        assert f["Range"] == 4.0

    def test_total_energy_scales_with_voxel_volume(self):
        region = constant_cube_region(side=2, value=3.0)
        f1 = first_order_features(region, discretize(region, 25.0))
        assert f1["TotalEnergy"] == f1["Energy"]  # 1 mm isotropic
        region2 = constant_cube_region(side=2, value=3.0, spacing=(2.0, 1.0, 0.5))
        f2 = first_order_features(region2, discretize(region2, 25.0))
        assert f2["TotalEnergy"] == pytest.approx(f2["Energy"])


class TestGlcmExamples:
    def test_two_voxel_region(self):
        region = LesionRegion(
            coordinates=[[0, 0, 0], [1, 0, 0]], intensities=[0.0, 25.0], spacing=(1, 1, 1)
        )
        d = discretize(region, 25.0)
        mats = glcm_matrices(d)
        assert list(mats) == [(1, 0, 0)]  # only the x direction has a pair
        assert np.array_equal(mats[(1, 0, 0)], [[0.0, 0.5], [0.5, 0.0]])
        f = glcm_features(d)
        assert f["Contrast"] == 1.0
        assert f["JointEntropy"] == 1.0

    def test_checkerboard_axis_contrast(self):
        d = discretize(checkerboard_region(), 25.0)
        mats = glcm_matrices(d)
        for axis_dir in [(1, 0, 0), (0, 1, 0), (0, 0, 1)]:
            p = mats[axis_dir]
            contrast = sum(
                (i - j) ** 2 * p[i, j] for i in range(p.shape[0]) for j in range(p.shape[1])
            )
            assert contrast == pytest.approx(1.0)

    def test_matrices_are_normalized_and_symmetric(self):
        d = discretize(random_blob_region(seed=3), 25.0)
        for p in glcm_matrices(d).values():
            assert p.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.allclose(p, p.T)


def _listed(cells) -> tuple[list, list, list]:
    """A table's (level, size, count) cells as three lists."""
    return tuple(column.tolist() for column in cells)


class TestGldmExamples:
    def test_single_voxel(self):
        region = LesionRegion(coordinates=[[0, 0, 0]], intensities=[7.0], spacing=(1, 1, 1))
        d = discretize(region, 25.0)
        assert _listed(gldm_cells(d)) == ([1], [1], [1])  # one voxel of level 1, dependence size 1
        assert gldm_features(d)["SmallDependenceEmphasis"] == 1.0

    def test_constant_cube_centre_dependence(self):
        d = discretize(constant_cube_region(side=3), 25.0)
        cells = gldm_cells(d)
        assert (cells.size[-1], cells.count[-1]) == (27, 1)  # the centre voxel depends on all 26 neighbours
        assert cells.count.sum() == 27

    def test_gray_level_variance_zero_for_constant(self):
        d = discretize(constant_cube_region(side=3), 25.0)
        assert gldm_features(d)["GrayLevelVariance"] == 0.0


class TestGlrlmExamples:
    def test_constant_rod_z_direction(self):
        region = rod_region(length=4)
        d = discretize(region, 25.0)
        z = glrlm_cells(d)[UNIQUE_DIRECTIONS.index((0, 0, 1))]
        assert _listed(z) == ([1], [4], [1])  # one run of length 4
        sre_z = (z.count / z.size**2).sum() / z.count.sum()
        assert sre_z == pytest.approx(1.0 / 16.0)

    def test_alternating_levels_all_unit_runs(self):
        region = LesionRegion(
            coordinates=[[0, 0, k] for k in range(4)],
            intensities=[0.0, 25.0, 0.0, 25.0],
            spacing=(1, 1, 1),
        )
        d = discretize(region, 25.0)
        z = glrlm_cells(d)[UNIQUE_DIRECTIONS.index((0, 0, 1))]
        assert z.size.tolist() == [1, 1]  # no run longer than 1
        f = glrlm_features(d)
        assert f["ShortRunEmphasis"] == 1.0
        assert f["RunPercentage"] == 1.0


class TestGlszmExamples:
    def test_single_zone(self):
        region = constant_cube_region(side=2)
        d = discretize(region, 25.0)
        assert _listed(glszm_cells(d)) == ([1], [8], [1])
        assert glszm_features(d)["ZonePercentage"] == pytest.approx(1.0 / 8.0)

    def test_two_disjoint_blobs_same_level(self):
        mask = np.zeros((8, 1, 1), dtype=bool)
        mask[0:2] = True
        mask[5:8] = True
        region = region_from_mask(mask, np.zeros(mask.shape))
        d = discretize(region, 25.0)
        assert _listed(glszm_cells(d)) == ([1, 1], [2, 3], [1, 1])  # a size-2 and a size-3 zone

    def test_single_level_nonuniformity(self):
        d = discretize(constant_cube_region(side=3), 25.0)
        assert glszm_features(d)["GrayLevelNonUniformityNormalized"] == 1.0


class TestNgtdmExamples:
    def test_constant_region_fallbacks(self):
        d = discretize(constant_cube_region(side=3), 25.0)
        f = ngtdm_features(d)
        assert f["Coarseness"] == 1e6
        assert f["Busyness"] == 0.0
        assert f["Contrast"] == 0.0

    def test_two_voxel_hand_computation(self):
        region = LesionRegion(
            coordinates=[[0, 0, 0], [1, 0, 0]], intensities=[0.0, 25.0], spacing=(1, 1, 1)
        )
        d = discretize(region, 25.0)
        n_i, s_i, n_total = ngtdm_table(d)
        # each voxel's only neighbour is the other: s_i = |1-2| = 1 for both levels
        assert n_total == 2
        assert n_i.tolist() == [1.0, 1.0]
        assert s_i.tolist() == [1.0, 1.0]
        f = ngtdm_features(d)
        assert f["Coarseness"] == pytest.approx(1.0)  # 1 / (0.5*1 + 0.5*1)
        # pair term: (0.25 + 0.25) / (2*1) = 0.25; mean s term: (1+1)/2 = 1
        assert f["Contrast"] == pytest.approx(0.25)

    def test_contrast_zero_for_single_level(self):
        d = discretize(constant_cube_region(side=2), 25.0)
        assert ngtdm_features(d)["Contrast"] == 0.0


class TestShapeExamples:
    def test_cube_anchors(self):
        region = constant_cube_region(side=10)
        f = shape_features(discretize(region, 25.0))
        assert f["MeshVolume"] == pytest.approx(1000.0, rel=0.05)
        assert f["SurfaceArea"] == pytest.approx(600.0, rel=0.10)
        assert f["SurfaceVolumeRatio"] * f["MeshVolume"] == pytest.approx(f["SurfaceArea"], abs=1e-9)

    def test_ball_sphericity(self):
        x = np.arange(-24, 25)
        gx, gy, gz = np.meshgrid(x, x, x, indexing="ij")
        mask = gx**2 + gy**2 + gz**2 <= 400  # radius 20
        region = region_from_mask(mask, np.zeros(mask.shape))
        f = shape_features(discretize(region, 25.0))
        # binary marching cubes overestimates the area of oblique surfaces,
        # so a digital ball lands near 0.93, below the analytic bound of 1
        assert 0.90 < f["Sphericity"] < 1.0
        assert f["MeshVolume"] == pytest.approx(4 / 3 * math.pi * 20**3, rel=0.02)

    def test_rod_axes(self):
        region = rod_region(length=10)
        f = shape_features(discretize(region, 25.0))
        assert f["Elongation"] < 1.0
        assert f["Flatness"] < 1.0
        assert f["Maximum3DDiameter"] > 9.0
        assert f["MajorAxisLength"] > f["MinorAxisLength"] >= f["LeastAxisLength"]

    def test_sphericity_never_exceeds_one(self):
        for seed in range(8):
            region = random_blob_region(seed=seed, shape=(5, 6, 4))
            f = shape_features(discretize(region, 25.0))
            assert f["Sphericity"] <= 1.0 + 1e-9

    def test_single_voxel_is_finite(self):
        region = LesionRegion(coordinates=[[0, 0, 0]], intensities=[5.0], spacing=(1, 1, 1))
        f = shape_features(discretize(region, 25.0))
        assert all(np.isfinite(v) for v in f.values())
        assert f["MeshVolume"] == pytest.approx(1.0 / 6.0)
        assert f["SurfaceArea"] == pytest.approx(math.sqrt(3))

    @pytest.mark.parametrize(
        "mask_shape, spacing",
        [
            ((1, 1, 1), (1.0, 1.0, 1.0)),  # single voxel
            ((1, 1, 7), (0.7, 0.7, 2.5)),  # 1-voxel line
            ((1, 6, 1), (1.0, 1.0, 1.0)),
            ((5, 4, 1), (0.8, 1.3, 2.0)),  # single slice
            ((4, 1, 6), (1.0, 1.0, 1.0)),
        ],
    )
    def test_thin_regions_have_a_positive_mesh(self, mask_shape, spacing):
        # every non-empty mask's mesh encloses its voxels, so shape needs no
        # voxel-box fallback for area or volume
        from ctradiomics import mesh

        mask = np.ones(mask_shape, dtype=bool)
        area, volume = mesh.mesh_surface_and_volume(np.pad(mask, 1), np.asarray(spacing))
        assert area > 0.0 and volume > 0.0
        f = shape_features(discretize(region_from_mask(mask, np.zeros(mask_shape), spacing), 25.0))
        assert (f["SurfaceArea"], f["MeshVolume"]) == (area, volume)


class TestExtractAll:
    def test_exactly_105_finite_values(self):
        fv = extract_all(random_blob_region(seed=1))
        assert len(fv.values) == 105
        assert tuple(fv.values) == FEATURE_COLUMNS
        assert all(np.isfinite(v) for v in fv.values.values())
        assert "shape_VoxelVolume" not in FEATURE_COLUMNS  # MeshVolume is the volume feature

    def test_a_non_finite_value_names_its_column(self, monkeypatch):
        from ctradiomics import features

        ngtdm = features.ngtdm_features

        def busyness_nan(d):
            return {**ngtdm(d), "Busyness": float("nan")}

        monkeypatch.setattr(features, "ngtdm_features", busyness_nan)
        with pytest.raises(FeatureRangeError, match=r"non-finite feature values for \['ngtdm_Busyness'\]"):
            extract_all(random_blob_region(seed=1))

    def test_a_python_float_overflow_is_a_typed_error(self):
        # TotalEnergy's Python float product overflows to inf without raising
        cube = LesionRegion(np.argwhere(np.ones((4, 4, 4), dtype=bool)), np.full(64, 1e153), (3.0, 1.0, 1.0), label=3)
        for lesion_id, named in (("scan/3", "scan/3"), ("", "label 3")):
            with pytest.raises(FeatureRangeError) as info:
                extract_all(cube, lesion_id=lesion_id)
            assert str(info.value) == f"lesion {named}: non-finite feature values for ['fos_TotalEnergy']"

    @pytest.mark.parametrize("n", [2, 3])
    def test_a_line_too_thin_for_its_covariance_gets_the_compact_axes(self, n):
        # along z at 1e-162 mm the covariance underflows to zero, so the
        # axis lengths take the zero-covariance fallback
        line = LesionRegion([[0, 0, k] for k in range(n)], np.full(n, 50.0), (1.0, 1.0, 1e-162))
        values = extract_all(line).values
        assert values["shape_MajorAxisLength"] == 0.0
        assert values["shape_Elongation"] == values["shape_Flatness"] == 1.0

    @pytest.mark.parametrize(
        "hu, bin_width, spacing, cause_type, cause",
        [
            (1e200, 1e199, (1.0, 1.0, 1.0), FloatingPointError, "overflow"),  # first-order powers
            (50.0, 25.0, (1e120, 1e120, 1e120), FloatingPointError, "overflow"),  # mesh products
            (50.0, 25.0, (1e200, 1.0, 1.0), FloatingPointError, "overflow"),
            (50.0, 25.0, (1e-120, 1e-120, 1e-120), ZeroDivisionError, "division by zero"),  # the volume underflows
        ],
        ids=["1e200-HU", "1e120-mm", "1e200-mm-one-axis", "1e-120-mm"],
    )
    def test_arithmetic_outside_the_float_range_is_a_typed_error(self, hu, bin_width, spacing, cause_type, cause):
        cube = LesionRegion(np.argwhere(np.ones((4, 4, 4), dtype=bool)), np.full(64, hu), spacing, label=3)
        for lesion_id, named in (("scan/3", "scan/3"), ("", "label 3")):
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # no numpy warning leaks ahead of the error
                with pytest.raises(FeatureRangeError) as info:
                    extract_all(cube, bin_width, lesion_id=lesion_id)
            assert isinstance(info.value.__cause__, cause_type)
            assert str(info.value) == f"lesion {named}: arithmetic leaves the float64 range: {info.value.__cause__}"
            assert cause in str(info.value)

    def test_family_cardinalities(self):
        sizes = {fam: len(names) for fam, names in FAMILY_NAMES.items()}
        assert sizes == {
            "shape": 13,
            "fos": 18,
            "glcm": 23,
            "gldm": 14,
            "glrlm": 16,
            "glszm": 16,
            "ngtdm": 5,
        }
        assert sum(sizes.values()) == 105
        assert sizes["shape"] + sizes["fos"] == 31
        assert sum(sizes[f] for f in ("glcm", "gldm", "glrlm", "glszm", "ngtdm")) == 74

    def test_voxel_order_invariance(self):
        region = random_blob_region(seed=5)
        rng = np.random.default_rng(0)
        perm = rng.permutation(len(region))
        shuffled = LesionRegion(
            coordinates=region.coordinates[perm],
            intensities=region.intensities[perm],
            spacing=region.spacing,
        )
        a = extract_all(region).values
        b = extract_all(shuffled).values
        for k in a:
            assert a[k] == pytest.approx(b[k], rel=1e-12, abs=1e-12), k

    def test_deterministic(self):
        region = random_blob_region(seed=9)
        a = extract_all(region).values
        b = extract_all(region).values
        assert a == b

    def test_one_context_per_lesion(self, monkeypatch):
        # all seven families read the one DiscretizedRegion extract_all builds
        from ctradiomics.features import context

        built = []
        init = context.DiscretizedRegion.__init__

        def counted(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(context.DiscretizedRegion, "__init__", counted)
        for seed in range(3):
            extract_all(random_blob_region(seed=seed))
        assert len(built) == 3

    def test_memory_follows_the_lesion_on_a_large_sphere(self):
        # a 179,579-voxel ball (radius 35) of noisy HU, the size of a large CT
        # lesion at 1 mm: a few levels, short runs and zones up to 82,007 voxels
        axis = np.arange(-35, 36)
        gx, gy, gz = np.meshgrid(axis, axis, axis, indexing="ij")
        mask = gx**2 + gy**2 + gz**2 <= 35**2
        rng = np.random.default_rng(0)
        region = region_from_mask(mask, rng.normal(80.0, 20.0, mask.shape))
        assert len(region) == 179_579
        peak = extract_all_peak(region)
        # measured 14.4 MiB with numpy 2.4, most of it the context; a dense
        # 8 x 82,007 zone matrix made it 17.9 MiB
        assert peak <= 22 * 2**20, f"extract_all peaked at {peak / 2**20:.1f} MiB"


def extract_all_peak(region, bin_width=25.0) -> int:
    """``extract_all``'s tracemalloc peak in bytes, after one warm-up call for
    the imports and per-spacing caches."""
    extract_all(random_blob_region(seed=1))
    tracemalloc.start()
    try:
        extract_all(region, bin_width)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# extract_all's peak over a region whose gray levels span any CT range:
# PEAK_PER_VOXEL * voxels + PEAK_BASE.  The base once covered a dense GLCM
# stack of up to 141 levels (6.4 MiB measured with numpy 2.4); with GLCM over
# the present levels only, 150 random cases of up to 300 voxels in a 50-level
# band with outliers up to 4,096 levels away peaked at 1.1 MiB.
PEAK_PER_VOXEL, PEAK_BASE = 1024, 8 * 2**20


@hs.composite
def _band_with_outliers(draw):
    """Up to 300 voxels in a 7^3 box, their HU in a 50-level band at bin width
    1, with 1 to 3 of them moved anywhere in the CT range -1024..3071 HU."""
    rng = np.random.default_rng(draw(hs.integers(0, 2**32 - 1)))
    n = draw(hs.integers(2, 300))
    coords = np.argwhere(np.ones((7, 7, 7), dtype=bool))[rng.choice(343, n, replace=False)]
    hu = draw(hs.integers(-1024, 3071 - 49)) + rng.integers(0, 50, n).astype(np.float64)
    outliers = draw(hs.lists(hs.integers(-1024, 3071), min_size=1, max_size=min(3, n)))
    hu[: len(outliers)] = outliers
    return LesionRegion(coordinates=coords, intensities=hu, spacing=(1, 1, 1))


class TestGlcmStackLevels:
    def test_the_stack_holds_only_present_levels_past_the_budget(self):
        # on either side of the 141 levels a dense 2 MiB stack once held, the
        # stack holds only the two levels the region has
        for n_levels in (141, 142):
            coords, hu = [[0, 0, 0], [1, 0, 0], [3, 0, 0]], [0.0, 0.0, n_levels - 1.0]
            d = discretize(LesionRegion(coordinates=coords, intensities=hu, spacing=(1, 1, 1)), 1.0)
            assert d.n_levels == n_levels
            assert np.array_equal(d.gray, [1, n_levels])

    def test_a_bright_voxel_in_a_ball_costs_no_more_than_the_ball(self):
        # a 4,169-voxel ball of 40-90 HU with one voxel at 1000 HU: 961 levels
        # at bin width 1, of which 51 are present; the dense stack over all of
        # them peaked at 290 MiB, the stack over the present ones at 2.0 MiB
        axis = np.arange(-10, 11)
        gx, gy, gz = np.meshgrid(axis, axis, axis, indexing="ij")
        mask = gx**2 + gy**2 + gz**2 <= 10**2
        hu = np.random.default_rng(0).integers(40, 90, mask.shape).astype(np.float64)
        hu[10, 10, 10] = 1000.0
        region = region_from_mask(mask, hu)
        assert len(region) == 4_169 and discretize(region, 1.0).n_levels == 961
        peak = extract_all_peak(region, 1.0)
        assert peak <= PEAK_BASE, f"extract_all peaked at {peak / 2**20:.1f} MiB"
        # at 1e5 HU (a float image can hold it) p_sum and p_diff over all of
        # 1..n_levels peaked at 113 MiB; over the stack's cells GLCM takes 2.9 MiB
        hu[10, 10, 10] = 1e5
        d = discretize(region_from_mask(mask, hu), 1.0)
        assert d.n_levels == 99_961
        tracemalloc.start()
        try:
            glcm_features(d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= PEAK_BASE, f"glcm_features peaked at {peak / 2**20:.1f} MiB"
        # at 1e6 HU tables sized by n_levels made extract_all peak at 237 MiB;
        # over the 51 present levels it takes 2.5 MiB
        hu[10, 10, 10] = 1e6
        region = region_from_mask(mask, hu)
        assert discretize(region, 1.0).n_levels == 999_961
        peak = extract_all_peak(region, 1.0)
        assert peak <= PEAK_BASE, f"extract_all at 1e6 HU peaked at {peak / 2**20:.1f} MiB"

    @settings(max_examples=30, deadline=None)
    @given(_band_with_outliers())
    def test_memory_follows_the_voxels_whatever_the_range(self, region):
        peak = extract_all_peak(region, 1.0)
        limit = PEAK_PER_VOXEL * len(region) + PEAK_BASE
        assert peak <= limit, f"extract_all peaked at {peak / 2**20:.1f} MiB over {len(region)} voxels"


class TestRankGrid:
    """The grid and the neighbour table hold each voxel's rank among the k
    levels present, in the smallest type holding k, whatever the range."""

    def test_a_bright_voxel_leaves_the_grid_narrow(self):
        # the 33,401-voxel radius-20 ball at bin width 1 with one voxel at 1e6
        # HU: grids of level values went uint32 and extract_all peaked at
        # 13.0 MiB against 9.0 MiB for the ball alone
        axis = np.arange(-20, 21)
        gx, gy, gz = np.meshgrid(axis, axis, axis, indexing="ij")
        mask = gx**2 + gy**2 + gz**2 <= 20**2
        hu = np.random.default_rng(20).normal(80.0, 20.0, mask.shape)
        plain = region_from_mask(mask, hu)
        hu[20, 20, 20] = 1e6
        bright = region_from_mask(mask, hu)
        d = discretize(bright, 1.0)
        assert len(d) == 33_401 and d.n_levels > 999_000 and len(d.gray) < 256
        assert d.grid.dtype == d.neighbours.table.dtype == np.uint8
        assert np.array_equal(d.gray[d.rank - 1], d.levels)
        extra = extract_all_peak(bright, 1.0) - extract_all_peak(plain, 1.0)
        assert extra <= 2**20, f"one bright voxel added {extra / 2**20:.1f} MiB to extract_all's peak"

    def test_1e15_levels_extract_in_the_base_memory(self):
        # 100 HU at 1e-13 HU: the 27 present levels reach 1e15, for which a
        # table indexed by level asked for 909 TiB
        region = spanning_cube_region()
        d = discretize(region, 1e-13)
        assert len(d.gray) == 27 and d.n_levels > 10**15 - 10
        assert d.grid.dtype == np.uint8
        assert all(math.isfinite(v) for v in extract_all(region, 1e-13).values.values())
        peak = extract_all_peak(region, 1e-13)
        assert peak <= PEAK_BASE, f"extract_all peaked at {peak / 2**20:.1f} MiB"


TEXTURE_PREFIXES = ("glcm", "gldm", "glrlm", "glszm", "ngtdm")


class TestInvariances:
    def test_intensity_shift(self):
        region = random_blob_region(seed=4)
        shifted = LesionRegion(
            coordinates=region.coordinates,
            intensities=region.intensities + 211.5,
            spacing=region.spacing,
        )
        a = extract_all(region).values
        b = extract_all(shifted).values
        for k in a:
            fam = k.split("_", 1)[0]
            if fam in TEXTURE_PREFIXES or fam == "shape":
                assert a[k] == pytest.approx(b[k], rel=1e-12, abs=1e-12), k
        assert b["fos_Mean"] - a["fos_Mean"] == pytest.approx(211.5, abs=1e-9)
        assert b["fos_Variance"] == pytest.approx(a["fos_Variance"], rel=1e-9)

    def test_axis_permutation(self):
        # all 48 symmetries of the cube (6 axis permutations x 8 reflections),
        # with the spacing permuted with the axes: plane-bound diameters
        # permute with the axes; everything else is invariant
        diameter_of_plane = {
            frozenset({0, 1}): "shape_Maximum2DDiameterSlice",
            frozenset({0, 2}): "shape_Maximum2DDiameterColumn",
            frozenset({1, 2}): "shape_Maximum2DDiameterRow",
        }
        symmetries = list(itertools.product(itertools.permutations(range(3)), itertools.product((1, -1), repeat=3)))
        assert len(symmetries) == 48
        blob = random_blob_region(seed=6)
        for spacing in ((1.0, 1.0, 1.0), (0.7, 1.1, 2.5)):
            region = LesionRegion(coordinates=blob.coordinates, intensities=blob.intensities, spacing=spacing)
            base = extract_all(region).values
            for perm, signs in symmetries:
                moved = region.coordinates[:, perm] * signs
                permuted = LesionRegion(
                    coordinates=moved - moved.min(axis=0),
                    intensities=region.intensities,
                    spacing=tuple(spacing[a] for a in perm),
                )
                other = extract_all(permuted).values
                case = (spacing, perm, signs)
                for k, v in base.items():
                    if k in diameter_of_plane.values():
                        continue
                    assert other[k] == pytest.approx(v, rel=1e-9, abs=1e-9), (case, k)
                # a plane {a, b} of the original appears as plane {perm^-1} image
                inverse = {perm[i]: i for i in range(3)}
                for plane, name in diameter_of_plane.items():
                    image = frozenset(inverse[a] for a in plane)
                    assert other[diameter_of_plane[image]] == pytest.approx(base[name], rel=1e-9), (case, name)

    def test_probability_normalization(self):
        d = discretize(random_blob_region(seed=8), 25.0)
        for p in glcm_matrices(d).values():
            assert abs(p.sum() - 1.0) < 1e-12
        assert gldm_cells(d).count.sum() == len(d)
        for cells in glrlm_cells(d):
            assert cells.count.sum() > 0
        assert glszm_cells(d).count.sum() > 0
        n_i, _, n_total = ngtdm_table(d)
        assert abs(n_i.sum() / n_total - 1.0) < 1e-12


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: family_of_column("wavelet_Energy"), "unknown feature family in column 'wavelet_Energy'"),
        (
            lambda: FeatureVector(values={"fos_Mean": 0.0}),
            "feature vector keys must be the canonical 105 columns in order",
        ),
        (
            lambda: FeatureVector(values=dict.fromkeys(reversed(FEATURE_COLUMNS), 0.0)),
            "feature vector keys must be the canonical 105 columns in order",
        ),
    ],
    ids=["unknown family", "too few keys", "keys out of order"],
)
def test_each_rejected_input_names_its_fault(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()
