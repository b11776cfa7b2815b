"""Structural properties of the binary iso-surface mesher."""

import hashlib
import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hs

from ctradiomics import mesh

import oracles
from conftest import child_stdout


def _random_masks(n, shape=(6, 7, 5), fill=0.42, seed=1):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        m = rng.random(shape) < fill
        if m.any():
            out.append(m)
    return out


def test_loop_table_is_pinned():
    # every loop, its order and its starting edge: the mesh sums add in this order
    table = mesh.loop_table()
    assert (len(table), sum(len(loops) for loops in table)) == (256, 358)
    assert sum(len(loop) for loops in table for loop in loops) == 1536
    digest = hashlib.sha256(repr(table).encode()).hexdigest()
    assert digest == "25ddeb26998740cb2a51cb531a039bf9db8f73b2c871e9d5d0212a39957844da"


def test_faces_wind_counterclockwise_seen_from_outside():
    corners = np.array(mesh._CORNERS, dtype=float)
    assert sorted(c for face in mesh._FACES for c in face) == sorted(list(range(8)) * 3)
    for face in mesh._FACES:
        pts = corners[list(face)]
        assert (np.ptp(pts, axis=0) == 0).sum() == 1  # the corners span one side of the cube
        outward = pts.mean(axis=0) - 0.5
        for i in range(4):
            a, b, c = pts[i], pts[(i + 1) % 4], pts[(i + 2) % 4]
            assert np.cross(b - a, c - b) @ outward > 0


def test_single_voxel_octahedron():
    area, volume = mesh.mesh_surface_and_volume(np.pad(np.ones((1, 1, 1), bool), 1), (1.0, 1.0, 1.0))
    assert volume == pytest.approx(1.0 / 6.0)
    assert area == pytest.approx(math.sqrt(3.0))


def test_cube_anchors():
    area, volume = mesh.mesh_surface_and_volume(np.pad(np.ones((10, 10, 10), bool), 1), (1.0, 1.0, 1.0))
    assert volume == pytest.approx(1000.0, rel=0.05)
    assert area == pytest.approx(600.0, rel=0.10)


def test_anisotropic_box():
    area, volume = mesh.mesh_surface_and_volume(np.pad(np.ones((4, 4, 4), bool), 1), (1.0, 2.0, 3.0))
    assert volume < 4 * 8 * 12  # chamfered corners shave the full box
    assert volume == pytest.approx(4 * 8 * 12, rel=0.15)


def test_matches_naive_mesher():
    for m in _random_masks(10):
        area, volume = mesh.mesh_surface_and_volume(np.pad(m, 1), (1.0, 1.3, 0.7))
        oracle_area, oracle_volume = oracles.mesh_area_volume_oracle(m, (1.0, 1.3, 0.7))
        assert area == pytest.approx(oracle_area, rel=1e-9)
        assert volume == pytest.approx(oracle_volume, rel=1e-9)


def test_meshes_are_watertight():
    for m in _random_masks(6):
        tris = oracles.triangle_mesh(m, (1.0, 1.0, 1.0))
        edges = Counter()
        for tri in tris:
            pts = [tuple(np.round(p, 9)) for p in tri]
            for a, b in ((0, 1), (1, 2), (2, 0)):
                edges[frozenset((pts[a], pts[b]))] += 1
        assert all(count % 2 == 0 for count in edges.values())
        # closed surface: the signed area vectors cancel
        total = np.zeros(3)
        for tri in tris:
            total += np.cross(tri[1] - tri[0], tri[2] - tri[0]) / 2.0
        assert np.linalg.norm(total) < 1e-9


def test_axis_permutation_symmetry():
    # all 48 symmetries of the cube: 6 axis permutations x 8 reflections,
    # with the spacing permuted with the axes
    symmetries = list(itertools.product(itertools.permutations(range(3)), itertools.product((1, -1), repeat=3)))
    assert len(symmetries) == 48
    for spacing in ((1.0, 1.0, 1.0), (0.7, 1.1, 2.5)):
        for m in _random_masks(5, seed=3):
            area0, vol0 = mesh.mesh_surface_and_volume(np.pad(m, 1), spacing)
            for perm, signs in symmetries:
                moved = np.transpose(m, perm)[tuple(slice(None, None, sign) for sign in signs)]
                area1, vol1 = mesh.mesh_surface_and_volume(np.pad(moved, 1), [spacing[a] for a in perm])
                assert area1 == pytest.approx(area0, rel=1e-12), (spacing, perm, signs)
                assert vol1 == pytest.approx(vol0, rel=1e-12), (spacing, perm, signs)


def test_vertices_lie_on_crossing_edges():
    m = np.zeros((2, 2, 2), bool)
    m[0, 0, 0] = True
    verts = oracles.mesh_vertices(m, (1.0, 1.0, 1.0))
    assert len(verts) == 6  # octahedron corners
    centre = np.array([1.0, 1.0, 1.0])  # padded coords of the voxel centre
    assert np.allclose(np.linalg.norm(verts - centre, axis=1), 0.5)


def test_disjoint_components_add_up():
    m = np.zeros((5, 1, 1), bool)
    m[0] = m[4] = True
    area, volume = mesh.mesh_surface_and_volume(np.pad(m, 1), (1.0, 1.0, 1.0))
    assert volume == pytest.approx(2.0 / 6.0)
    assert area == pytest.approx(2.0 * math.sqrt(3.0))


@settings(max_examples=25, deadline=None)
@given(hs.tuples(*[hs.floats(0.05, 20.0, allow_nan=False, allow_infinity=False)] * 3))
@example((1.0, 1.0, 1.0))
@example((0.7, 0.7, 2.5))
@example((0.3, 1.7, 11.0))
def test_spacing_constants_match_the_numpy_loop_bitwise(spacing):
    # np.cross per triangle, and its squares added x, y, z as the package's sum(-1) adds them
    assert np.array_equal(mesh._spacing_constants.__wrapped__(spacing), oracles.spacing_constants_oracle(spacing))


def test_spacing_constants_hold_their_bytes_under_another_blas_kernel():
    # no BLAS call: OpenBLAS's oldest x86-64 kernel gives the default kernel's bytes
    spacings = [(1.0, 1.0, 1.0), (0.7, 0.7, 2.5), (0.3, 1.7, 11.0)]
    script = (
        "import sys\n"
        "from ctradiomics import mesh\n"
        f"for spacing in {spacings!r}:\n"
        "    sys.stdout.write(mesh._spacing_constants(spacing).tobytes().hex() + '\\n')\n"
    )
    stdout = child_stdout(script, OPENBLAS_CORETYPE="Prescott")
    assert stdout.split() == [mesh._spacing_constants(s).tobytes().hex() for s in spacings]


@settings(max_examples=30, deadline=None)
@given(hs.tuples(*[hs.integers(1, 7)] * 3), hs.integers(0, 2**32 - 1), hs.floats(0.0, 1.0))
@example((1, 1, 1), 0, 1.0)
@example((3, 4, 5), 1, 1.0)
def test_config_grid_equals_the_corner_loop_bitwise(shape, seed, fill):
    # the pad is a border of inside voxels as often as one of background ones
    mask = np.random.default_rng(seed).random(shape) < fill
    for border in (False, True):
        padded = np.pad(mask, 1, constant_values=border)
        cfg = mesh._config_grid(padded)
        assert cfg.dtype == np.uint8
        assert np.array_equal(cfg, oracles.config_grid_corners(padded))


@hs.composite
def _masks_and_spacings(draw):
    """A random mask in a box of up to 7^3 voxels at anisotropic spacing."""
    shape = draw(hs.tuples(*[hs.integers(1, 7)] * 3))
    n = shape[0] * shape[1] * shape[2]
    inside = draw(hs.lists(hs.booleans(), min_size=n, max_size=n))
    spacing = tuple(draw(hs.floats(0.3, 3.0)) for _ in range(3))
    return np.reshape(inside, shape), spacing


@settings(max_examples=30, deadline=None)
@given(_masks_and_spacings())
@example((np.zeros((2, 2, 2), bool), (1.0, 1.0, 1.0)))
@example((np.random.default_rng(0).random((9, 8, 7)) < 0.5, (0.7, 0.9, 2.5)))
def test_mesh_sums_equal_the_config_loop(case):
    # np.cumsum adds the per-config terms in the loop's order: equal bit for bit
    mask, spacing = case
    assert mesh.mesh_surface_and_volume(np.pad(mask, 1), spacing) == oracles.mesh_sums_loop(mask, spacing)


def test_loop_table_is_built_on_first_use():
    # commands that never mesh (experiments, stats, train) skip its cost
    script = (
        "import numpy as np\n"
        "from ctradiomics import cli, mesh\n"
        "print(mesh.loop_table.cache_info().currsize)\n"
        "mesh.mesh_surface_and_volume(np.pad(np.ones((1, 1, 1), bool), 1), (1.0, 1.0, 1.0))\n"
        "print(mesh.loop_table.cache_info().currsize)\n"
    )
    assert child_stdout(script).split() == ["0", "1"]
