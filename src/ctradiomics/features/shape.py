"""Mesh- and PCA-based shape descriptors of a lesion's binary mask."""

from __future__ import annotations

import numpy as np

from .. import mesh
from ..volume_io import LesionRegion
from .discretize import UNIQUE_DIRECTIONS

SHAPE_NAMES = (
    "MeshVolume",
    "SurfaceArea",
    "SurfaceVolumeRatio",
    "Sphericity",
    "Maximum3DDiameter",
    "Maximum2DDiameterSlice",
    "Maximum2DDiameterColumn",
    "Maximum2DDiameterRow",
    "MajorAxisLength",
    "MinorAxisLength",
    "LeastAxisLength",
    "Elongation",
    "Flatness",
)

# _max_diameters' order; the 2-D ones lie in the (0, 1), (0, 2) and (1, 2) planes
_DIAMETER_NAMES = SHAPE_NAMES[4:8]


def _binary_grid(region: LesionRegion) -> np.ndarray:
    lo = region.coordinates.min(axis=0)
    shape = region.coordinates.max(axis=0) - lo + 1
    grid = np.zeros(tuple(shape), dtype=bool)
    idx = region.coordinates - lo
    grid[idx[:, 0], idx[:, 1], idx[:, 2]] = True
    return grid


def _hull_candidates(grid: np.ndarray, spacing: np.ndarray) -> np.ndarray:
    """Mesh cut vertices that may be convex-hull vertices, as (n, 3) points
    in the padded index x spacing frame.

    In doubled index coordinates every cut vertex is a lattice point.  One
    with other vertices on both sides of it along a lattice line lies inside
    a segment, so it is no hull vertex at any spacing.  Kept: the first and
    last vertex of each axis-parallel line, less those with vertices 1 or 2
    steps away on both sides along one of the 13 directions.
    """
    padded = np.pad(grid, 1)
    shape = tuple(2 * n + 3 for n in padded.shape)  # a margin of 2 for the steps
    strides = np.array([shape[1] * shape[2], shape[2], 1])
    lattice = np.zeros(np.prod(shape), dtype=bool)
    keys, kept = [], []
    for axis in range(3):
        crossing = np.diff(padded, axis=axis)  # the diff of booleans is !=
        points = np.argwhere(crossing)
        # a 2x axis line meets the crossings of one axis only
        extreme = np.ones(len(points), dtype=bool)
        for line in range(3):
            rest = tuple(points[:, a] for a in range(3) if a != line)
            first = crossing.argmax(axis=line)[rest]
            last = crossing.shape[line] - 1 - np.flip(crossing, line).argmax(axis=line)[rest]
            extreme &= (points[:, line] == first) | (points[:, line] == last)
        key = (2 * points + 2 + np.eye(3, dtype=np.intp)[axis]) @ strides
        keys.append(key)
        kept.append(key[extreme])
    lattice[np.concatenate(keys)] = True
    keep = np.concatenate(kept)
    steps = np.asarray(UNIQUE_DIRECTIONS) @ strides
    steps = np.concatenate([steps, 2 * steps])
    inside = (lattice[keep[:, None] + steps] & lattice[keep[:, None] - steps]).any(axis=1)
    # (2i + 1) * (s / 2) is exactly (i + 0.5) * s
    return (np.stack(np.unravel_index(keep[~inside], shape), axis=1) - 2) * (spacing / 2.0)


def _max_diameters(points: np.ndarray) -> tuple[float, float, float, float]:
    """Largest pairwise distance of the points in 3-D and in the slice,
    column and row planes, with squares summed as (dx^2 + dy^2) + dz^2."""
    x, y, z = np.ascontiguousarray(points.T)
    best = np.zeros(4)
    rows = max(1, 65536 // len(x))  # row blocks of about 64k pairs
    for lo in range(0, len(x), rows):
        dx, dy, dz = (np.square(c[lo : lo + rows, None] - c[None, lo:]) for c in (x, y, z))
        plane = dx + dy
        best = np.maximum(best, ((plane + dz).max(), plane.max(), (dx + dz).max(), (dy + dz).max()))
    return tuple(float(d) for d in np.sqrt(best))


def _axis_lengths(region: LesionRegion) -> tuple[float, float, float, float, float]:
    """Major/minor/least axis lengths plus elongation and flatness.

    Lengths are 4*sqrt(eigenvalue) of the physical-coordinate covariance.
    A region too small to span any direction gets zero lengths and the
    compact fallback elongation = flatness = 1.
    """
    coords = region.coordinates * np.asarray(region.spacing)
    if len(coords) < 2:
        return 0.0, 0.0, 0.0, 1.0, 1.0
    eigvals = np.linalg.eigvalsh(np.cov(coords, rowvar=False))
    eigvals = np.clip(eigvals, 0.0, None)  # clamp numerical negatives
    least, minor, major = float(eigvals[0]), float(eigvals[1]), float(eigvals[2])
    if major <= 0.0:
        return 0.0, 0.0, 0.0, 1.0, 1.0
    return (
        4.0 * np.sqrt(major),
        4.0 * np.sqrt(minor),
        4.0 * np.sqrt(least),
        float(np.sqrt(minor / major)),
        float(np.sqrt(least / major)),
    )


def voxel_volume(region: LesionRegion) -> float:
    """Voxel-count volume (n * voxel volume), a diagnostic outside the
    canonical feature set; MeshVolume is the reported shape feature."""
    return len(region) * float(np.prod(region.spacing))


def shape_features(region: LesionRegion) -> dict[str, float]:
    """The 13 shape descriptors from the mask's iso-surface mesh and PCA axes."""
    grid = _binary_grid(region)
    spacing = np.asarray(region.spacing, dtype=np.float64)
    # every non-empty mask's mesh encloses its voxels: area and volume are > 0
    area, volume = mesh.mesh_surface_and_volume(grid, spacing)
    diameters = _max_diameters(_hull_candidates(grid, spacing))
    out: dict[str, float] = {
        "MeshVolume": volume,
        "SurfaceArea": area,
        "SurfaceVolumeRatio": area / volume,
        "Sphericity": float((36.0 * np.pi * volume**2) ** (1.0 / 3.0) / area),
    }
    out.update(zip(_DIAMETER_NAMES, diameters))

    major, minor, least, elongation, flatness = _axis_lengths(region)
    out["MajorAxisLength"] = major
    out["MinorAxisLength"] = minor
    out["LeastAxisLength"] = least
    out["Elongation"] = elongation
    out["Flatness"] = flatness
    return out
