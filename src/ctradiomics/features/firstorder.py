"""First-order (histogram) intensity statistics of a lesion region."""

from __future__ import annotations

import numpy as np

from ..volume_io import LesionRegion
from .context import DiscretizedRegion

FOS_NAMES = (
    "Energy",
    "TotalEnergy",
    "Entropy",
    "Minimum",
    "10Percentile",
    "90Percentile",
    "Maximum",
    "Mean",
    "Median",
    "InterquartileRange",
    "Range",
    "MeanAbsoluteDeviation",
    "RobustMeanAbsoluteDeviation",
    "RootMeanSquared",
    "Skewness",
    "Kurtosis",
    "Variance",
    "Uniformity",
)


def first_order_features(region: LesionRegion, d: DiscretizedRegion) -> dict[str, float]:
    """The 18 first-order statistics of the region's intensities.

    Entropy and Uniformity are computed on the gray-level histogram of ``d``;
    Variance is the population (biased) variance and Kurtosis is not
    excess-corrected.  Skewness and Kurtosis fall back to 0 on constant
    regions.  Percentiles interpolate linearly between order statistics.
    """
    x = region.intensities
    n = len(x)
    voxel_volume = float(np.prod(region.spacing))
    mean = float(x.mean())
    centered = x - mean
    squared = centered * centered  # products, not pow: pow costs ~40x on a large region
    variance = float(np.mean(squared))
    energy = float(np.sum(x**2))

    p10, p25, p50, p75, p90 = np.percentile(x, [10, 25, 50, 75, 90])
    robust = x[(x >= p10) & (x <= p90)]
    rmad = float(np.abs(robust - robust.mean()).mean()) if len(robust) else 0.0

    if variance > 0.0:
        skewness = float(np.mean(squared * centered) / variance**1.5)
        kurtosis = float(np.mean(squared * squared) / variance**2)
    else:
        skewness = 0.0
        kurtosis = 0.0

    p = d.histogram / n  # the present levels only, so every p > 0
    entropy = float(-(p * np.log2(p)).sum()) + 0.0
    uniformity = float((p**2).sum())

    return {
        "Energy": energy,
        "TotalEnergy": voxel_volume * energy,
        "Entropy": entropy,
        "Minimum": float(x.min()),
        "10Percentile": float(p10),
        "90Percentile": float(p90),
        "Maximum": float(x.max()),
        "Mean": mean,
        "Median": float(p50),
        "InterquartileRange": float(p75 - p25),
        "Range": float(x.max() - x.min()),
        "MeanAbsoluteDeviation": float(np.abs(centered).mean()),
        "RobustMeanAbsoluteDeviation": rmad,
        "RootMeanSquared": float(np.sqrt(energy / n)),
        "Skewness": skewness,
        "Kurtosis": kurtosis,
        "Variance": variance,
        "Uniformity": uniformity,
    }
