"""Mesh- and PCA-based shape descriptors of a lesion's binary mask."""

from __future__ import annotations

import numpy as np

from .. import mesh
from .context import UNIQUE_DIRECTIONS, DiscretizedRegion, interior

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


def _hull_candidates(padded: np.ndarray, spacing: np.ndarray) -> np.ndarray:
    """Mesh cut vertices of a mask padded by one voxel on every side that may
    be convex-hull vertices, as (n, 3) points in the padded index x spacing
    frame.

    In doubled index coordinates every cut vertex is a lattice point.  One
    with other vertices on both sides of it along a lattice line lies inside
    a segment, so it is no hull vertex at any spacing.  Kept: the first and
    last vertex of each axis-parallel line, less those with vertices 1 or 2
    steps away on both sides along one of the 13 directions.
    """
    shape = tuple(2 * n + 3 for n in padded.shape)  # a margin of 2 for the steps
    strides = np.array([shape[1] * shape[2], shape[2], 1])
    # every cut vertex, odd along the axis it crosses; the diff of booleans is !=
    points = np.concatenate(
        [2 * np.argwhere(np.diff(padded, axis=axis)) + 2 + np.eye(3, dtype=np.intp)[axis] for axis in range(3)]
    )
    keys = points @ strides
    extreme = np.ones(len(keys), dtype=bool)
    for line in range(3):
        # sorted by the line they lie on, then along it: a vertex with one
        # of its line's vertices on either side of it is no line end
        on_line = keys - points[:, line] * strides[line]
        order = np.argsort(on_line * shape[line] + points[:, line])
        ends = np.diff(on_line[order]) != 0
        extreme[order[1:-1][~(ends[:-1] | ends[1:])]] = False
    lattice = np.zeros(np.prod(shape), dtype=bool)
    lattice[keys] = True
    keep = keys[extreme]
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


def _axis_lengths(d: DiscretizedRegion) -> tuple[float, float, float, float, float]:
    """Major/minor/least axis lengths plus elongation and flatness.

    Lengths are 4*sqrt(eigenvalue) of the physical-coordinate covariance.
    A region too small to span any direction gets zero lengths and the
    compact fallback elongation = flatness = 1.
    """
    coords = d.coordinates * np.asarray(d.spacing)
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


def shape_features(d: DiscretizedRegion) -> dict[str, float]:
    """The 13 shape descriptors from the mask's iso-surface mesh and PCA axes."""
    spacing = np.asarray(d.spacing, dtype=np.float64)
    # every non-empty mask's mesh encloses its voxels: area and volume are > 0
    area, volume = mesh.mesh_surface_and_volume(interior(d.inside), spacing)
    diameters = _max_diameters(_hull_candidates(d.inside, spacing))
    out: dict[str, float] = {
        "MeshVolume": volume,
        "SurfaceArea": area,
        "SurfaceVolumeRatio": area / volume,
        "Sphericity": float((36.0 * np.pi * volume**2) ** (1.0 / 3.0) / area),
    }
    out.update(zip(_DIAMETER_NAMES, diameters))

    major, minor, least, elongation, flatness = _axis_lengths(d)
    out["MajorAxisLength"] = major
    out["MinorAxisLength"] = minor
    out["LeastAxisLength"] = least
    out["Elongation"] = elongation
    out["Flatness"] = flatness
    return out
