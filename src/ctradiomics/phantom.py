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
from .features import DEFAULT_BIN_WIDTH, FEATURE_COLUMNS, extract_all
from .volume_io import LesionMask, VoxelVolume, extract_lesions

# features the construction drives hard; VIP selection is expected to keep them
PLANTED_FEATURES: tuple[str, ...] = ("shape_Sphericity", "glcm_Contrast", "fos_Variance")


@dataclass
class PhantomConfig:
    spacing: tuple[float, float, float] = (1.0, 1.0, 1.0)
    margin: int = 6
    background_mean: float = 25.0
    background_sigma: float = 6.0
    base_hu: tuple[float, float] = (55.0, 75.0)
    shell_radius: tuple[float, float] = (9.0, 13.0)
    shell_thickness: tuple[float, float] = (1.7, 2.6)
    shell_cap_half_angle_deg: tuple[float, float] = (50.0, 75.0)
    shell_noise_sigma: float = 2.0
    lens_axis: tuple[float, float] = (7.0, 10.0)
    lens_ratio: tuple[float, float] = (0.40, 0.55)
    lens_noise_sigma: float = 11.0
    blob_axis: tuple[float, float] = (6.5, 9.0)
    blob_ratio: tuple[float, float] = (0.72, 1.0)
    blob_noise_sigma: float = 26.0
    min_voxels: int = 40


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


def _coordinate_grid(side: int, spacing) -> np.ndarray:
    centre = (side - 1) / 2.0
    ax = [(np.arange(side) - centre) * s for s in spacing]
    gx, gy, gz = np.meshgrid(*ax, indexing="ij")
    return np.stack([gx, gy, gz], axis=-1)


def _lesion_mask(class_id: int, cfg: PhantomConfig, rng: np.random.Generator) -> np.ndarray:
    """Binary lesion mask on a freshly sized cubic grid."""
    u = rng.uniform
    if class_id == 1:
        radius = u(*cfg.shell_radius)
        thickness = u(*cfg.shell_thickness)
        half_angle = np.deg2rad(u(*cfg.shell_cap_half_angle_deg))
        axis = _random_rotation(rng)[:, 0]
        extent = radius + thickness
        side = int(2 * (np.ceil(extent) + cfg.margin) + 1)
        pos = _coordinate_grid(side, cfg.spacing)
        r = np.linalg.norm(pos, axis=-1)
        with np.errstate(invalid="ignore", divide="ignore"):
            cos_angle = np.where(r > 0, (pos @ axis) / np.where(r > 0, r, 1.0), 1.0)
        return (np.abs(r - radius) <= thickness / 2.0) & (cos_angle >= np.cos(half_angle))
    if class_id == 2:
        a = u(*cfg.lens_axis)
        c = a * u(*cfg.lens_ratio)
        semi = np.array([a, a, c])
    else:
        a = u(*cfg.blob_axis)
        semi = np.array([a, a * u(*cfg.blob_ratio), a * u(*cfg.blob_ratio)])
    rot = _random_rotation(rng)
    extent = semi.max()
    side = int(2 * (np.ceil(extent) + cfg.margin) + 1)
    pos = _coordinate_grid(side, cfg.spacing)
    local = pos @ rot  # rotate coordinates into the ellipsoid frame
    return ((local / semi) ** 2).sum(axis=-1) <= 1.0


_NOISE_SIGMA = {1: "shell_noise_sigma", 2: "lens_noise_sigma", 3: "blob_noise_sigma"}


def _make_scan(scan_id: str, class_id: int, cfg: PhantomConfig, rng: np.random.Generator) -> PhantomScan:
    mask = _lesion_mask(class_id, cfg, rng)
    while mask.sum() < cfg.min_voxels:
        mask = _lesion_mask(class_id, cfg, rng)
    data = rng.normal(cfg.background_mean, cfg.background_sigma, size=mask.shape)
    base = rng.uniform(*cfg.base_hu)
    sigma = getattr(cfg, _NOISE_SIGMA[class_id])
    data[mask] = base + rng.normal(0.0, sigma, size=int(mask.sum()))
    volume = VoxelVolume(data=data, spacing=cfg.spacing)
    lesion_mask = LesionMask(
        labels=mask.astype(np.int16),
        spacing=cfg.spacing,
        class_of_label={1: class_id},
    )
    return PhantomScan(scan_id=scan_id, volume=volume, mask=lesion_mask, class_id=class_id)


def _per_class_counts(n_per_class) -> tuple[int, int, int]:
    if isinstance(n_per_class, int):
        return (n_per_class,) * 3
    counts = tuple(int(c) for c in n_per_class)
    if len(counts) != 3:
        raise ValueError("n_per_class must be an int or three per-class counts")
    return counts


def generate_phantom(n_per_class, seed: int, config: PhantomConfig | None = None) -> list[PhantomScan]:
    """Generate phantom scans, classes interleaved 1,2,3,1,2,3,...

    ``n_per_class`` is a single count or three per-class counts.
    """
    cfg = config or PhantomConfig()
    counts = list(_per_class_counts(n_per_class))
    if min(counts) < 0 or sum(counts) == 0:
        raise ValueError("per-class counts must be non-negative and not all zero")
    rng = np.random.default_rng(seed)
    scans = []
    remaining = counts[:]
    index = 0
    while sum(remaining) > 0:
        for cls in (1, 2, 3):
            if remaining[cls - 1] > 0:
                remaining[cls - 1] -= 1
                scans.append(_make_scan(f"phantom_{index:04d}", cls, cfg, rng))
                index += 1
    return scans


def generate_phantom_dataset(
    n_per_class,
    seed: int,
    config: PhantomConfig | None = None,
    bin_width: float = DEFAULT_BIN_WIDTH,
    target_spacing: float = 1.0,
) -> Dataset:
    """Generate phantoms and push them through resampling and extraction."""
    scans = generate_phantom(n_per_class, seed, config)
    rows = []
    y = []
    lesion_ids = []
    scan_ids = []
    for scan in scans:
        for region, class_id in extract_lesions(scan.volume, scan.mask, target_spacing):
            lesion_id = f"{scan.scan_id}/{region.label}"
            fv = extract_all(region, bin_width, lesion_id=lesion_id, class_id=class_id)
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
