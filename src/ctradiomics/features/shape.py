"""Mesh- and PCA-based shape descriptors of a lesion's binary mask."""

from __future__ import annotations

import numpy as np

from .. import mesh
from ..volume_io import LesionRegion

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

# in-plane axes for the three 2D diameters (the remaining axis is ignored)
_PLANES = {
    "Maximum2DDiameterSlice": (0, 1),
    "Maximum2DDiameterColumn": (0, 2),
    "Maximum2DDiameterRow": (1, 2),
}


def _binary_grid(region: LesionRegion) -> np.ndarray:
    lo = region.coordinates.min(axis=0)
    shape = region.coordinates.max(axis=0) - lo + 1
    grid = np.zeros(tuple(shape), dtype=bool)
    idx = region.coordinates - lo
    grid[idx[:, 0], idx[:, 1], idx[:, 2]] = True
    return grid


def _hull_vertices(points: np.ndarray) -> np.ndarray:
    """The points' convex-hull vertices, or all points when the hull is flat.

    Every pairwise-distance extreme of the points, and of any projection of
    them, is attained on these vertices: the hull of a projection is the
    projection of the hull.
    """
    from scipy.spatial import ConvexHull, QhullError

    if len(points) > 4:
        try:
            return points[ConvexHull(points).vertices]
        except QhullError:
            pass  # degenerate (flat/collinear) sets are small enough directly
    return points


def _max_pairwise_distance(points: np.ndarray) -> float:
    """Largest pairwise Euclidean distance, 0 for fewer than two points."""
    from scipy.spatial.distance import pdist

    if len(points) < 2:
        return 0.0
    return float(pdist(points).max())


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
    area, volume = mesh.mesh_surface_and_volume(grid, spacing)
    if area <= 0.0 or volume <= 0.0:
        # degenerate mesh: fall back to the voxel-box surface and volume
        n = len(region)
        sx, sy, sz = spacing
        volume = n * sx * sy * sz
        area = 2.0 * n * (sx * sy + sy * sz + sx * sz)
        verts = region.coordinates * spacing
    else:
        verts = mesh.mesh_vertices(grid, spacing)

    hull = _hull_vertices(verts)
    out: dict[str, float] = {
        "MeshVolume": volume,
        "SurfaceArea": area,
        "SurfaceVolumeRatio": area / volume,
        "Sphericity": float((36.0 * np.pi * volume**2) ** (1.0 / 3.0) / area),
        "Maximum3DDiameter": _max_pairwise_distance(hull),
    }
    for name, axes in _PLANES.items():
        out[name] = _max_pairwise_distance(hull[:, axes])

    major, minor, least, elongation, flatness = _axis_lengths(region)
    out["MajorAxisLength"] = major
    out["MinorAxisLength"] = minor
    out["LeastAxisLength"] = least
    out["Elongation"] = elongation
    out["Flatness"] = flatness
    return out
