"""Shared builders for hand-constructed lesion regions, and a child-process runner."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ctradiomics.volume_io import LesionRegion


def child_stdout(script: str, **env: str) -> str:
    """The stdout of ``script`` run by a fresh Python with ``env`` added to its
    environment and the package and these test helpers importable."""
    import ctradiomics

    paths = [str(Path(ctradiomics.__file__).resolve().parents[1]), str(Path(__file__).parent)]
    paths.append(os.environ.get("PYTHONPATH"))
    env = dict(os.environ, **env, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def region_from_mask(mask, intensities, spacing=(1.0, 1.0, 1.0)) -> LesionRegion:
    coords = np.argwhere(np.asarray(mask, dtype=bool))
    values = np.asarray(intensities, dtype=float)
    if values.ndim == 3:
        values = values[coords[:, 0], coords[:, 1], coords[:, 2]]
    return LesionRegion(coordinates=coords, intensities=values, spacing=spacing)


def constant_cube_region(side=3, value=5.0, spacing=(1.0, 1.0, 1.0)) -> LesionRegion:
    mask = np.ones((side, side, side), dtype=bool)
    return region_from_mask(mask, np.full(mask.shape, value), spacing)


def single_voxel_region(value=5.0) -> LesionRegion:
    return LesionRegion(coordinates=[[0, 0, 0]], intensities=[value], spacing=(1.0, 1.0, 1.0))


def isolated_voxels_region() -> LesionRegion:
    """Four voxels farther than one step apart, at four 25 HU gray levels: no
    co-occurring pair anywhere and no voxel with a neighbour."""
    return LesionRegion(
        coordinates=[[0, 0, 0], [3, 0, 0], [0, 3, 0], [0, 0, 3]],
        intensities=[0.0, 30.0, 60.0, 90.0],
        spacing=(1.0, 1.0, 1.0),
    )


def spanning_cube_region() -> LesionRegion:
    """A 3^3 cube whose 27 intensities span 0..100 HU evenly."""
    return region_from_mask(np.ones((3, 3, 3), dtype=bool), np.linspace(0.0, 100.0, 27).reshape(3, 3, 3))


def rod_region(length=8, value=10.0, spacing=(1.0, 1.0, 1.0)) -> LesionRegion:
    mask = np.zeros((1, 1, length), dtype=bool)
    mask[0, 0, :] = True
    return region_from_mask(mask, np.full(mask.shape, value), spacing)


def checkerboard_region(shape=(4, 4, 4), low=0.0, high=25.0) -> LesionRegion:
    idx = np.indices(shape).sum(axis=0)
    intensities = np.where(idx % 2 == 0, low, high)
    return region_from_mask(np.ones(shape, dtype=bool), intensities)


def two_blob_region() -> LesionRegion:
    mask = np.zeros((7, 3, 3), dtype=bool)
    mask[0:2, 0, 0] = True  # 2-voxel blob
    mask[5:7, 1:2, 0] = True
    mask[6, 2, 0] = True  # 3-voxel blob, disjoint from the first
    intensities = np.zeros(mask.shape)
    return region_from_mask(mask, intensities)


def random_blob_region(seed=0, shape=(6, 6, 6), fill=0.45, sigma=30.0) -> LesionRegion:
    rng = np.random.default_rng(seed)
    mask = rng.random(shape) < fill
    if not mask.any():
        mask[0, 0, 0] = True
    intensities = rng.normal(50.0, sigma, size=mask.shape)
    return region_from_mask(mask, intensities)


def oracle_regions() -> dict[str, LesionRegion]:
    """The standard hand-constructed regions for oracle comparisons."""
    return {
        "constant_cube": constant_cube_region(side=4),
        "rod": rod_region(length=9),
        "checkerboard": checkerboard_region(),
        "two_blob": two_blob_region(),
        "random_blob": random_blob_region(seed=7),
    }


@pytest.fixture(name="oracle_regions")
def oracle_regions_fixture():
    return oracle_regions()
