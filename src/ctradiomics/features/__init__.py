"""The 105-descriptor radiomics vector: 13 shape, 18 first-order, 23 GLCM,
14 GLDM, 16 GLRLM, 16 GLSZM and 5 NGTDM features in a fixed canonical order.

Column names are ``family_FeatureName`` (e.g. ``shape_Sphericity``).  All
seven families read one per-lesion context (``context.DiscretizedRegion``):
the HU values, their fixed-bin-width gray levels and the padded level grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import FeatureRangeError
from ..volume_io import LesionRegion
from .context import DEFAULT_BIN_WIDTH, DiscretizedRegion, discretize
from .firstorder import FOS_NAMES, first_order_features
from .glcm import GLCM_NAMES, glcm_features
from .gldm import GLDM_NAMES, gldm_cells, gldm_features
from .glrlm import GLRLM_NAMES, glrlm_cells, glrlm_features
from .glszm import GLSZM_NAMES, glszm_cells, glszm_features
from .ngtdm import NGTDM_NAMES, ngtdm_features, ngtdm_table
from .shape import SHAPE_NAMES, shape_features

# the one ordered family registry; every other family list derives from it
FAMILY_NAMES: dict[str, tuple[str, ...]] = {
    "shape": SHAPE_NAMES,
    "fos": FOS_NAMES,
    "glcm": GLCM_NAMES,
    "gldm": GLDM_NAMES,
    "glrlm": GLRLM_NAMES,
    "glszm": GLSZM_NAMES,
    "ngtdm": NGTDM_NAMES,
}

FAMILIES: tuple[str, ...] = tuple(FAMILY_NAMES)

TEXTURE_FAMILIES: tuple[str, ...] = FAMILIES[2:]  # the gray-level texture families

FEATURE_COLUMNS: tuple[str, ...] = tuple(
    f"{family}_{name}" for family, names in FAMILY_NAMES.items() for name in names
)


def family_of_column(column: str) -> str:
    family = column.split("_", 1)[0]
    if family not in FAMILIES:
        raise ValueError(f"unknown feature family in column {column!r}")
    return family


def family_counts(columns) -> dict[str, int]:
    """Number of ``columns`` in each family, every family listed."""
    counts = dict.fromkeys(FAMILIES, 0)
    for column in columns:
        counts[family_of_column(column)] += 1
    return counts


@dataclass
class FeatureVector:
    """All 105 descriptors of one lesion, keyed by canonical column name."""

    values: dict[str, float]
    lesion_id: str = ""

    def __post_init__(self):
        if tuple(self.values) != FEATURE_COLUMNS:
            raise ValueError("feature vector keys must be the canonical 105 columns in order")


def extract_all(
    region: LesionRegion,
    bin_width: float = DEFAULT_BIN_WIDTH,
    lesion_id: str = "",
) -> FeatureVector:
    """Compute the full 105-feature vector for one lesion region.

    Deterministic for identical inputs and independent of the voxel list
    order; degenerate regions produce the documented fallback values, never
    non-finite entries.  Arithmetic that leaves the float64 range raises
    FeatureRangeError naming the lesion and the cause.
    """
    lesion = lesion_id or f"label {region.label}"
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            d = discretize(region, bin_width)
            # called by name, not from a table: perfbench/tracing.py wraps these attributes
            computed = (
                shape_features(d),
                first_order_features(d),
                glcm_features(d),
                gldm_features(d),
                glrlm_features(d),
                glszm_features(d),
                ngtdm_features(d),
            )
    except (FloatingPointError, ZeroDivisionError, OverflowError) as exc:
        raise FeatureRangeError(f"lesion {lesion}: arithmetic leaves the float64 range: {exc}") from exc
    values = {
        f"{family}_{name}": float(result[name])
        for (family, names), result in zip(FAMILY_NAMES.items(), computed)
        for name in names
    }
    bad = [k for k, v in values.items() if not math.isfinite(v)]
    if bad:  # a Python float product overflows to inf without raising
        raise FeatureRangeError(f"lesion {lesion}: non-finite feature values for {bad}")
    return FeatureVector(values=values, lesion_id=lesion_id)


__all__ = [
    "DEFAULT_BIN_WIDTH",
    "FAMILIES",
    "FAMILY_NAMES",
    "FEATURE_COLUMNS",
    "TEXTURE_FAMILIES",
    "DiscretizedRegion",
    "FeatureVector",
    "discretize",
    "extract_all",
    "family_counts",
    "family_of_column",
    "first_order_features",
    "glcm_features",
    "gldm_cells",
    "gldm_features",
    "glrlm_cells",
    "glrlm_features",
    "glszm_cells",
    "glszm_features",
    "ngtdm_features",
    "ngtdm_table",
    "shape_features",
]
