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

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .volume_io import LesionMask, VoxelVolume

# features the construction drives hard; VIP selection is expected to keep them
PLANTED_FEATURES: tuple[str, ...] = ("shape_Sphericity", "glcm_Contrast", "fos_Variance")

SPACING = (1.0, 1.0, 1.0)
IMAGE_DTYPE, LABEL_DTYPE = np.float32, np.uint8  # the files' dtypes; scans in memory hold these arrays
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


def _lesion_box(extent: float, half) -> tuple[tuple[slice, ...], list[np.ndarray], int]:
    """The box of ``half`` voxels each side of the centre of a cube holding
    ``extent`` plus the margin on each side, the box's three 1-D voxel-centre
    axes, and the cube's side."""
    centre = int(np.ceil(extent)) + MARGIN
    box = tuple(slice(centre - h, centre + h + 1) for h in half)
    return box, [(np.arange(b.start, b.stop) - centre) * s for b, s in zip(box, SPACING)], 2 * centre + 1


def _lesion_mask(class_id: int, rng: np.random.Generator) -> tuple[np.ndarray, tuple[slice, ...], int]:
    """Binary lesion mask on the box the lesion can occupy, that box in a
    freshly sized cubic grid, and the grid's side.

    The box reaches one voxel past the lesion, where the shape test misses by
    a margin no rounding closes, so the mask placed in the zero cube is the
    one the test evaluated on every voxel of the cube gives.
    """
    u = rng.uniform
    if class_id == 1:
        radius = u(*SHELL_RADIUS)
        thickness = u(*SHELL_THICKNESS)
        half_angle = np.deg2rad(u(*SHELL_CAP_HALF_ANGLE_DEG))
        axis = _random_rotation(rng)[:, 0]
        # the band |r - radius| <= thickness / 2 first, from the 1-D axes; the angle test on its voxels only
        box, ax, side = _lesion_box(radius + thickness, [int(radius + thickness / 2.0) + 1] * 3)
        sq = [a * a for a in ax]  # the sum np.linalg.norm(pos, axis=-1) takes, per axis
        r = np.sqrt((sq[0][:, None, None] + sq[1][:, None]) + sq[2])
        band = np.nonzero(np.abs(r - radius) <= thickness / 2.0)
        pos = np.stack([a[i] for a, i in zip(ax, band)], axis=1)
        mask = np.zeros(r.shape, dtype=bool)
        mask[band] = (pos @ axis) / r[band] >= np.cos(half_angle)  # r >= radius - thickness / 2 > 0 on the band
        return mask, box, side
    if class_id == 2:
        a = u(*LENS_AXIS)
        c = a * u(*LENS_RATIO)
        semi = np.array([a, a, c])
    else:
        a = u(*BLOB_AXIS)
        semi = np.array([a, a * u(*BLOB_RATIO), a * u(*BLOB_RATIO)])
    rot = _random_rotation(rng)
    # the rotated ellipsoid's half-widths; a voxel past them, q >= 1.2
    box, ax, side = _lesion_box(semi.max(), [int(h) + 1 for h in np.sqrt(((rot * semi) ** 2).sum(axis=1))])
    pos = np.empty((len(ax[0]), len(ax[1]), len(ax[2]), 3))
    pos[..., 0], pos[..., 1], pos[..., 2] = ax[0][:, None, None], ax[1][:, None], ax[2]
    # coordinates rotated into the ellipsoid frame, as one (N, 3) @ (3, 3) product
    q = (pos.reshape(-1, 3) @ rot / semi) ** 2
    return ((q[:, 0] + q[:, 1]) + q[:, 2] <= 1.0).reshape(pos.shape[:3]), box, side  # in .sum(axis=-1)'s order


def _make_scan(scan_id: str, class_id: int, rng: np.random.Generator) -> PhantomScan:
    lesion, box, side = _lesion_mask(class_id, rng)
    data = rng.normal(BACKGROUND_MEAN, BACKGROUND_SIGMA, size=(side,) * 3).astype(IMAGE_DTYPE)
    base = rng.uniform(*BASE_HU)
    # the box is a view in the cube's C order: the draws land on the voxels of the whole-cube mask
    data[box][lesion] = base + rng.normal(0.0, NOISE_SIGMA[class_id], size=int(lesion.sum()))
    volume = VoxelVolume(data=data, spacing=SPACING)
    labels = np.zeros(data.shape, dtype=LABEL_DTYPE)
    labels[box] = lesion
    inside = np.argwhere(lesion) + [b.start for b in box]  # found on the box, not the cube
    lesion_mask = LesionMask(
        labels=labels,
        spacing=SPACING,
        class_of_label={1: class_id},
        boxes={1: (inside.min(axis=0), inside.max(axis=0))},
    )
    return PhantomScan(scan_id=scan_id, volume=volume, mask=lesion_mask, class_id=class_id)


def generate_phantom(n_per_class, seed: int) -> Iterator[PhantomScan]:
    """Phantom scans, classes interleaved 1,2,3,1,2,3,..., each made only when
    the returned iterator is advanced.

    ``n_per_class`` is a single count or three per-class counts; it and the
    seed are checked here, before the first scan is asked for.
    """
    counts = [n_per_class] * 3 if isinstance(n_per_class, int) else [int(c) for c in n_per_class]
    if len(counts) != 3 or min(counts) < 0 or sum(counts) == 0:
        raise ValueError("n_per_class must be one count or three per-class counts, non-negative and not all zero")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    rng = np.random.default_rng(seed)
    classes = [c for k in range(max(counts)) for c in (1, 2, 3) if k < counts[c - 1]]
    return (_make_scan(f"phantom_{i:04d}", c, rng) for i, c in enumerate(classes))
