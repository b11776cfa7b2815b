"""First-order (histogram) intensity statistics of a lesion region."""

from __future__ import annotations

import numpy as np

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


def sorted_percentiles(s: np.ndarray, q) -> np.ndarray:
    """np.percentile(s, q, axis=0) of ``s`` sorted along axis 0, bit for bit
    where no column holds both 0.0 and -0.0 (numpy's sign of zero there follows
    its partition's tie order): numpy's linear method, which interpolates down
    from the upper neighbour at a fraction of 0.5 or more.  np.percentile
    imports numpy.ma (about 12 ms) through np.unique; this imports nothing."""
    n = len(s)
    at = (n - 1) * (np.asarray(q) / 100)
    top = at >= n - 1  # numpy takes the last value twice there, at fraction at + 1
    below = np.where(top, -1, np.floor(at)).astype(np.intp)
    above = np.where(top, -1, below + 1)
    t = (at - below).reshape(-1, *(1,) * (s.ndim - 1))
    a, b = s[below], s[above]
    out = a + (b - a) * t
    np.subtract(b, (b - a) * (1 - t), out=out, where=t >= 0.5)
    return out


def sorted_median(s: np.ndarray) -> np.ndarray:
    """np.median(s, axis=0) of ``s`` sorted along axis 0, bit for bit: the mean
    of the middle value or two, a sum from 0.0, so -0.0 and -0.0 give 0.0."""
    return s[(len(s) - 1) // 2 : len(s) // 2 + 1].mean(axis=0)


def first_order_features(d: DiscretizedRegion) -> dict[str, float]:
    """The 18 first-order statistics of the region's HU values ``d.intensities``.

    Entropy and Uniformity are computed on the gray-level histogram of ``d``;
    Variance is the population (biased) variance and Kurtosis is not
    excess-corrected.  Skewness and Kurtosis fall back to 0 on constant
    regions.  Percentiles interpolate linearly between order statistics.
    """
    x = d.intensities
    n = len(x)
    voxel_volume = float(np.prod(d.spacing))
    mean = float(x.mean())
    centered = x - mean
    squared = centered * centered  # products, not pow: pow costs ~40x on a large region
    variance = float(np.mean(squared))
    energy = float(np.sum(x**2))

    s = np.sort(x)  # the percentiles, minimum and maximum, from one sorted copy
    p10, p25, p50, p75, p90 = sorted_percentiles(s, [10, 25, 50, 75, 90])
    robust = x[(x >= p10) & (x <= p90)]
    rmad = float(np.abs(robust - robust.mean()).mean()) if len(robust) else 0.0

    if s[0] < s[-1]:  # not the variance: a constant region's can read its rounding
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
        "Minimum": float(s[0]),
        "10Percentile": float(p10),
        "90Percentile": float(p90),
        "Maximum": float(s[-1]),
        "Mean": mean,
        "Median": float(p50),
        "InterquartileRange": float(p75 - p25),
        "Range": float(s[-1] - s[0]),
        "MeanAbsoluteDeviation": float(np.abs(centered).mean()),
        "RobustMeanAbsoluteDeviation": rmad,
        "RootMeanSquared": float(np.sqrt(energy / n)),
        "Skewness": skewness,
        "Kurtosis": kurtosis,
        "Variance": variance,
        "Uniformity": uniformity,
    }
