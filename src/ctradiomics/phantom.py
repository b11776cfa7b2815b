"""Synthetic lesion phantoms with controlled class differences.

Three lesion families are generated, one lesion per scan:

* class 1 - thin curved shells (spherical-cap sections): low sphericity,
  near-uniform intensity;
* class 2 - lens-shaped oblate blobs: high sphericity, moderate speckle;
* class 3 - spheroids with heavy voxel-wise speckle: high texture contrast
  and intensity variance.

Base intensity is drawn from the same range for every class so plain mean
intensity carries no class signal; the planted discriminators are shape
(class 1 vs. the rest) and texture (class 3 vs. the rest).  Everything is
deterministic for a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataio import Dataset
from .features import FEATURE_COLUMNS, extract_all
from .volume_io import LesionMask, VoxelVolume, extract_lesions

# features the construction drives hard; VIP selection is expected to keep them
PLANTED_FEATURES: tuple[str, ...] = ("shape_Sphericity", "glcm_Contrast", "fos_Variance")

SPACING = (1.0, 1.0, 1.0)
MARGIN = 6  # background voxels around the lesion on every side
BACKGROUND_MEAN, BACKGROUND_SIGMA = 25.0, 6.0
BASE_HU = (55.0, 75.0)
# (low, high) ranges drawn uniformly per lesion
SHELL_RADIUS = (9.0, 13.0)
SHELL_THICKNESS = (1.7, 2.6)
SHELL_CAP_HALF_ANGLE_DEG = (50.0, 75.0)
LENS_AXIS = (7.0, 10.0)
LENS_RATIO = (0.40, 0.55)
BLOB_AXIS = (6.5, 9.0)
BLOB_RATIO = (0.72, 1.0)
NOISE_SIGMA = {1: 2.0, 2: 11.0, 3: 26.0}  # per class: shell, lens, blob
MIN_VOXELS = 40


@dataclass
class PhantomScan:
    scan_id: str
    volume: VoxelVolume
    mask: LesionMask
    class_id: int


def _random_rotation(rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def _coordinate_grid(extent: float) -> np.ndarray:
    """Voxel-centre positions of a cube holding ``extent`` plus the margin on
    each side of its centre."""
    side = int(2 * (np.ceil(extent) + MARGIN) + 1)
    centre = (side - 1) / 2.0
    ax = [(np.arange(side) - centre) * s for s in SPACING]
    gx, gy, gz = np.meshgrid(*ax, indexing="ij")
    return np.stack([gx, gy, gz], axis=-1)


def _lesion_mask(class_id: int, rng: np.random.Generator) -> np.ndarray:
    """Binary lesion mask on a freshly sized cubic grid."""
    u = rng.uniform
    if class_id == 1:
        radius = u(*SHELL_RADIUS)
        thickness = u(*SHELL_THICKNESS)
        half_angle = np.deg2rad(u(*SHELL_CAP_HALF_ANGLE_DEG))
        axis = _random_rotation(rng)[:, 0]
        pos = _coordinate_grid(radius + thickness)
        r = np.linalg.norm(pos, axis=-1)
        with np.errstate(invalid="ignore", divide="ignore"):
            cos_angle = np.where(r > 0, (pos @ axis) / np.where(r > 0, r, 1.0), 1.0)
        return (np.abs(r - radius) <= thickness / 2.0) & (cos_angle >= np.cos(half_angle))
    if class_id == 2:
        a = u(*LENS_AXIS)
        c = a * u(*LENS_RATIO)
        semi = np.array([a, a, c])
    else:
        a = u(*BLOB_AXIS)
        semi = np.array([a, a * u(*BLOB_RATIO), a * u(*BLOB_RATIO)])
    rot = _random_rotation(rng)
    local = _coordinate_grid(semi.max()) @ rot  # rotate coordinates into the ellipsoid frame
    return ((local / semi) ** 2).sum(axis=-1) <= 1.0


def _make_scan(scan_id: str, class_id: int, rng: np.random.Generator) -> PhantomScan:
    mask = _lesion_mask(class_id, rng)
    while mask.sum() < MIN_VOXELS:
        mask = _lesion_mask(class_id, rng)
    data = rng.normal(BACKGROUND_MEAN, BACKGROUND_SIGMA, size=mask.shape)
    base = rng.uniform(*BASE_HU)
    data[mask] = base + rng.normal(0.0, NOISE_SIGMA[class_id], size=int(mask.sum()))
    volume = VoxelVolume(data=data, spacing=SPACING)
    lesion_mask = LesionMask(
        labels=mask.astype(np.int16),
        spacing=SPACING,
        class_of_label={1: class_id},
    )
    return PhantomScan(scan_id=scan_id, volume=volume, mask=lesion_mask, class_id=class_id)


def generate_phantom(n_per_class, seed: int) -> list[PhantomScan]:
    """Generate phantom scans, classes interleaved 1,2,3,1,2,3,...

    ``n_per_class`` is a single count or three per-class counts.
    """
    remaining = [n_per_class] * 3 if isinstance(n_per_class, int) else [int(c) for c in n_per_class]
    if len(remaining) != 3 or min(remaining) < 0 or sum(remaining) == 0:
        raise ValueError("n_per_class must be one count or three per-class counts, non-negative and not all zero")
    rng = np.random.default_rng(seed)
    scans = []
    while sum(remaining) > 0:
        for cls in (1, 2, 3):
            if remaining[cls - 1] > 0:
                remaining[cls - 1] -= 1
                scans.append(_make_scan(f"phantom_{len(scans):04d}", cls, rng))
    return scans


def generate_phantom_dataset(n_per_class, seed: int) -> Dataset:
    """Generate phantoms and extract their features at the default bin width
    and 1 mm spacing."""
    scans = generate_phantom(n_per_class, seed)
    rows = []
    y = []
    lesion_ids = []
    scan_ids = []
    for scan in scans:
        for region, class_id in extract_lesions(scan.volume, scan.mask, 1.0):
            lesion_id = f"{scan.scan_id}/{region.label}"
            fv = extract_all(region, lesion_id=lesion_id)
            rows.append(fv.as_array())
            y.append(class_id)
            lesion_ids.append(lesion_id)
            scan_ids.append(scan.scan_id)
    return Dataset(
        x=np.vstack(rows),
        y=np.array(y, dtype=int),
        feature_names=FEATURE_COLUMNS,
        lesion_ids=tuple(lesion_ids),
        scan_ids=tuple(scan_ids),
    )
