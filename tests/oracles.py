"""Brute-force reference implementations used as test oracles.

Everything here recomputes features directly from their definitions with
plain Python loops over voxel coordinate sets, independently of the
package's vectorized kernels.  numpy appears only for primitive linear
algebra (eigenvalues, matrix products) and array plumbing.  The helpers
that are not independent are ``triangle_mesh``, which assembles the
package's own mesher table so structural tests can inspect the surface it
describes; ``spacing_constants_oracle``, the plain numpy loop over that
table that ``mesh._spacing_constants`` must match bit for bit; and the three
loops the package's cell configs, mesh sum and hull scan replaced,
``config_grid_corners``, ``mesh_sums_loop`` and ``hull_candidates_loop``,
and the packed-key run finder the GLRLM run-length pass replaced,
``glrlm_matrices_packed_keys``, which they must match bit for bit; and the
phantom generator's whole-cube lesion mask, ``lesion_mask_whole_cube``,
which the mask it builds on the lesion's box must match bit for bit; the
per-sample fold loop ``stratified_kfold_loop``, which
``model_selection.stratified_kfold`` must match exactly; and
``coef_from_predict``, which reads the package's own ``pls.predict`` to
recover the coefficient matrix a model applies.
"""

from __future__ import annotations

import math
from itertools import combinations, product

import numpy as np

from ctradiomics import mesh, phantom, pls
from ctradiomics.features.context import batch_rows

DIRECTIONS = [
    (dx, dy, dz)
    for dx in (-1, 0, 1)
    for dy in (-1, 0, 1)
    for dz in (-1, 0, 1)
    if (dx, dy, dz) > (0, 0, 0)
]
NEIGHBOURS_26 = [
    (dx, dy, dz)
    for dx in (-1, 0, 1)
    for dy in (-1, 0, 1)
    for dz in (-1, 0, 1)
    if (dx, dy, dz) != (0, 0, 0)
]


def _pos_map(coords, levels):
    return {tuple(int(x) for x in c): int(l) for c, l in zip(coords, levels)}


def _add(c, d, scale=1):
    return (c[0] + scale * d[0], c[1] + scale * d[1], c[2] + scale * d[2])


# ---------------------------------------------------------------- first order


def _percentile(sorted_vals, q):
    n = len(sorted_vals)
    if n == 1:
        return sorted_vals[0]
    pos = q / 100.0 * (n - 1)
    lo = int(math.floor(pos))
    hi = min(lo + 1, n - 1)
    frac = pos - lo
    return sorted_vals[lo] + frac * (sorted_vals[hi] - sorted_vals[lo])


def fos_oracle(intensities, spacing, bin_width=25.0):
    x = [float(v) for v in intensities]
    n = len(x)
    s = sorted(x)
    mean = sum(x) / n
    var = sum((v - mean) ** 2 for v in x) / n
    energy = sum(v * v for v in x)
    p10 = _percentile(s, 10)
    p25 = _percentile(s, 25)
    p50 = _percentile(s, 50)
    p75 = _percentile(s, 75)
    p90 = _percentile(s, 90)
    robust = [v for v in x if p10 <= v <= p90]
    rmean = sum(robust) / len(robust)
    rmad = sum(abs(v - rmean) for v in robust) / len(robust)
    if var > 0:
        skew = sum((v - mean) ** 3 for v in x) / n / var**1.5
        kurt = sum((v - mean) ** 4 for v in x) / n / var**2
    else:
        skew = 0.0
        kurt = 0.0
    lo = min(x)
    counts = {}
    for v in x:
        lvl = int(math.floor((v - lo) / bin_width)) + 1
        counts[lvl] = counts.get(lvl, 0) + 1
    probs = [c / n for c in counts.values()]
    entropy = -sum(p * math.log2(p) for p in probs if p > 0) + 0.0
    return {
        "Energy": energy,
        "TotalEnergy": spacing[0] * spacing[1] * spacing[2] * energy,
        "Entropy": entropy,
        "Minimum": min(x),
        "10Percentile": p10,
        "90Percentile": p90,
        "Maximum": max(x),
        "Mean": mean,
        "Median": p50,
        "InterquartileRange": p75 - p25,
        "Range": max(x) - min(x),
        "MeanAbsoluteDeviation": sum(abs(v - mean) for v in x) / n,
        "RobustMeanAbsoluteDeviation": rmad,
        "RootMeanSquared": math.sqrt(energy / n),
        "Skewness": skew,
        "Kurtosis": kurt,
        "Variance": var,
        "Uniformity": sum(p * p for p in probs),
    }


# ----------------------------------------------------------------------- GLCM


def _glcm_from_matrix(p, ng):
    rng = range(ng)
    px = [sum(p[i][j] for j in rng) for i in rng]
    py = [sum(p[i][j] for i in rng) for j in rng]
    mu_x = sum((i + 1) * px[i] for i in rng)
    mu_y = sum((j + 1) * py[j] for j in rng)
    var_x = sum((i + 1 - mu_x) ** 2 * px[i] for i in rng)
    var_y = sum((j + 1 - mu_y) ** 2 * py[j] for j in rng)
    p_diff = [0.0] * ng
    p_sum = [0.0] * (2 * ng - 1)  # indexed by i+j-2
    for i in rng:
        for j in rng:
            p_diff[abs(i - j)] += p[i][j]
            p_sum[i + j] += p[i][j]
    diff_avg = sum(k * p_diff[k] for k in range(ng))
    h = lambda probs: -sum(q * math.log2(q) for q in probs if q > 0) + 0.0
    h_xy = h([p[i][j] for i in rng for j in rng])
    h_x = h(px)
    h_y = h(py)
    h_xy1 = -sum(
        p[i][j] * math.log2(px[i] * py[j])
        for i in rng
        for j in rng
        if p[i][j] > 0 and px[i] * py[j] > 0
    )
    h_xy2 = -sum(
        px[i] * py[j] * math.log2(px[i] * py[j]) for i in rng for j in rng if px[i] * py[j] > 0
    )
    autocorr = sum((i + 1) * (j + 1) * p[i][j] for i in rng for j in rng)
    corr = (autocorr - mu_x * mu_y) / math.sqrt(var_x * var_y) if var_x > 0 and var_y > 0 else 1.0
    den = max(h_x, h_y)
    imc1 = (h_xy - h_xy1) / den if den > 0 else 0.0
    imc2 = math.sqrt(max(1.0 - math.exp(-2.0 * (h_xy2 - h_xy)), 0.0))
    support = [i for i in rng if px[i] > 0]
    if len(support) < 2:
        mcc = 0.0
    else:
        q = [
            [
                sum(p[i][k] * p[j][k] / (px[i] * py[k]) for k in rng if py[k] > 0)
                for j in support
            ]
            for i in support
        ]
        eig = sorted(np.real(np.linalg.eigvals(np.array(q))))
        mcc = math.sqrt(max(eig[-2], 0.0))
    return {
        "Autocorrelation": autocorr,
        "ClusterProminence": sum(
            (i + 1 + j + 1 - mu_x - mu_y) ** 4 * p[i][j] for i in rng for j in rng
        ),
        "ClusterShade": sum((i + 1 + j + 1 - mu_x - mu_y) ** 3 * p[i][j] for i in rng for j in rng),
        "ClusterTendency": sum(
            (i + 1 + j + 1 - mu_x - mu_y) ** 2 * p[i][j] for i in rng for j in rng
        ),
        "Contrast": sum((i - j) ** 2 * p[i][j] for i in rng for j in rng),
        "Correlation": corr,
        "DifferenceAverage": diff_avg,
        "DifferenceEntropy": h(p_diff),
        "DifferenceVariance": sum((k - diff_avg) ** 2 * p_diff[k] for k in range(ng)),
        "Id": sum(p[i][j] / (1 + abs(i - j)) for i in rng for j in rng),
        "Idm": sum(p[i][j] / (1 + (i - j) ** 2) for i in rng for j in rng),
        "Idmn": sum(p[i][j] / (1 + (i - j) ** 2 / ng**2) for i in rng for j in rng),
        "Idn": sum(p[i][j] / (1 + abs(i - j) / ng) for i in rng for j in rng),
        "Imc1": imc1,
        "Imc2": imc2,
        "InverseVariance": sum(p[i][j] / (i - j) ** 2 for i in rng for j in rng if i != j),
        "JointAverage": mu_x,
        "JointEnergy": sum(p[i][j] ** 2 for i in rng for j in rng),
        "JointEntropy": h_xy,
        "MCC": mcc,
        "MaximumProbability": max(p[i][j] for i in rng for j in rng),
        "SumEntropy": h(p_sum),
        "SumSquares": var_x,
    }


def glcm_pair_counts(pos, d):
    """Symmetric (level_i, level_j) -> count over in-region pairs (v, v + d),
    plus the number of pairs."""
    counts = {}
    n_pairs = 0
    for c, li in pos.items():
        nb = _add(c, d)
        if nb in pos:
            lj = pos[nb]
            counts[(li, lj)] = counts.get((li, lj), 0) + 1
            counts[(lj, li)] = counts.get((lj, li), 0) + 1
            n_pairs += 1
    return counts, n_pairs


def glcm_oracle(coords, levels, ng):
    pos = _pos_map(coords, levels)
    per_dir = []
    for d in DIRECTIONS:
        counts, n_pairs = glcm_pair_counts(pos, d)
        if n_pairs == 0:
            continue
        p = [[counts.get((i + 1, j + 1), 0) / (2 * n_pairs) for j in range(ng)] for i in range(ng)]
        per_dir.append(_glcm_from_matrix(p, ng))
    if not per_dir:
        hist = [0.0] * ng
        for l in pos.values():
            hist[l - 1] += 1.0 / len(pos)
        p = [[hist[i] if i == j else 0.0 for j in range(ng)] for i in range(ng)]
        per_dir.append(_glcm_from_matrix(p, ng))
    return {k: sum(f[k] for f in per_dir) / len(per_dir) for k in per_dir[0]}


# ----------------------------------------------------------------------- GLDM


def gldm_table(pos):
    """(level, dependence size) -> voxel count; the size counts the voxel itself."""
    table = {}
    for c, l in pos.items():
        dep = sum(1 for d in NEIGHBOURS_26 if pos.get(_add(c, d)) == l)
        key = (l, dep + 1)
        table[key] = table.get(key, 0) + 1
    return table


def gldm_oracle(coords, levels, ng):
    table = gldm_table(_pos_map(coords, levels))
    total = sum(table.values())
    mu_i = sum(l * v for (l, j), v in table.items()) / total
    mu_j = sum(j * v for (l, j), v in table.items()) / total
    row = {}
    col = {}
    for (l, j), v in table.items():
        row[l] = row.get(l, 0) + v
        col[j] = col.get(j, 0) + v
    return {
        "SmallDependenceEmphasis": sum(v / j**2 for (l, j), v in table.items()) / total,
        "LargeDependenceEmphasis": sum(v * j**2 for (l, j), v in table.items()) / total,
        "GrayLevelNonUniformity": sum(v**2 for v in row.values()) / total,
        "DependenceNonUniformity": sum(v**2 for v in col.values()) / total,
        "DependenceNonUniformityNormalized": sum(v**2 for v in col.values()) / total**2,
        "GrayLevelVariance": sum((l - mu_i) ** 2 * v for (l, j), v in table.items()) / total,
        "DependenceVariance": sum((j - mu_j) ** 2 * v for (l, j), v in table.items()) / total,
        "DependenceEntropy": -sum(
            (v / total) * math.log2(v / total) for v in table.values() if v > 0
        )
        + 0.0,
        "LowGrayLevelEmphasis": sum(v / l**2 for (l, j), v in table.items()) / total,
        "HighGrayLevelEmphasis": sum(v * l**2 for (l, j), v in table.items()) / total,
        "SmallDependenceLowGrayLevelEmphasis": sum(
            v / (l**2 * j**2) for (l, j), v in table.items()
        )
        / total,
        "SmallDependenceHighGrayLevelEmphasis": sum(
            v * l**2 / j**2 for (l, j), v in table.items()
        )
        / total,
        "LargeDependenceLowGrayLevelEmphasis": sum(
            v * j**2 / l**2 for (l, j), v in table.items()
        )
        / total,
        "LargeDependenceHighGrayLevelEmphasis": sum(
            v * l**2 * j**2 for (l, j), v in table.items()
        )
        / total,
    }


# ---------------------------------------------------------------------- GLRLM


def _run_table_features(table, n_voxels):
    nr = sum(table.values())
    mu_i = sum(l * v for (l, j), v in table.items()) / nr
    mu_j = sum(j * v for (l, j), v in table.items()) / nr
    row = {}
    col = {}
    for (l, j), v in table.items():
        row[l] = row.get(l, 0) + v
        col[j] = col.get(j, 0) + v
    return {
        "ShortRunEmphasis": sum(v / j**2 for (l, j), v in table.items()) / nr,
        "LongRunEmphasis": sum(v * j**2 for (l, j), v in table.items()) / nr,
        "GrayLevelNonUniformity": sum(v**2 for v in row.values()) / nr,
        "GrayLevelNonUniformityNormalized": sum(v**2 for v in row.values()) / nr**2,
        "RunLengthNonUniformity": sum(v**2 for v in col.values()) / nr,
        "RunLengthNonUniformityNormalized": sum(v**2 for v in col.values()) / nr**2,
        "RunPercentage": nr / n_voxels,
        "GrayLevelVariance": sum((l - mu_i) ** 2 * v for (l, j), v in table.items()) / nr,
        "RunVariance": sum((j - mu_j) ** 2 * v for (l, j), v in table.items()) / nr,
        "RunEntropy": -sum((v / nr) * math.log2(v / nr) for v in table.values() if v > 0) + 0.0,
        "LowGrayLevelRunEmphasis": sum(v / l**2 for (l, j), v in table.items()) / nr,
        "HighGrayLevelRunEmphasis": sum(v * l**2 for (l, j), v in table.items()) / nr,
        "ShortRunLowGrayLevelEmphasis": sum(v / (l**2 * j**2) for (l, j), v in table.items()) / nr,
        "ShortRunHighGrayLevelEmphasis": sum(v * l**2 / j**2 for (l, j), v in table.items()) / nr,
        "LongRunLowGrayLevelEmphasis": sum(v * j**2 / l**2 for (l, j), v in table.items()) / nr,
        "LongRunHighGrayLevelEmphasis": sum(v * l**2 * j**2 for (l, j), v in table.items()) / nr,
    }


def glrlm_run_table(pos, direction):
    """(level, run length) -> count of maximal runs along one direction."""
    table = {}
    for c, l in pos.items():
        prev = _add(c, direction, -1)
        if pos.get(prev) == l:
            continue  # not the start of a run
        length = 1
        cur = c
        while pos.get(_add(cur, direction)) == l:
            cur = _add(cur, direction)
            length += 1
        key = (l, length)
        table[key] = table.get(key, 0) + 1
    return table


def glrlm_matrices_packed_keys(d):
    """The run tables of a ``DiscretizedRegion``, dense (level rank x run length)
    float64 keyed by direction, by the packed-key sort that the run-length
    pass of ``glrlm_cells`` replaced: each run start and end on the neighbour
    table gets an int64 key (direction, position mod stride, position //
    stride), starts carry their rank in the low bits, and after sorting both
    lists the i-th start and the i-th end bound the same run."""
    nb = d.neighbours
    ng = len(d.gray)
    strides = np.array(d.strides)[:, None]
    lines = -(-d.grid.size // strides)
    shift = int((lines * strides).max()).bit_length()  # a direction's keys lie below 1 << shift
    bits = ng.bit_length()  # a start's rank rides in the low bits of its key
    batch = batch_rows(len(nb.index))
    matrices = {}
    for lo in range(0, 13, batch):
        k = slice(lo, min(lo + batch, 13))
        # p // s through float64 division: exact, as the grid is far below 2**52 cells
        row = (nb.index / strides[k]).astype(np.int64)
        key = (np.arange(k.stop - lo)[:, None] << shift) + (nb.index - row * strides[k]) * lines[k] + row
        first = np.sort(((key << bits) | nb.level).ravel()[(nb.table[13:][k] != nb.level).ravel()])
        last = np.sort(key.ravel()[(nb.table[k] != nb.level).ravel()])
        run_level = first & ((1 << bits) - 1)
        first >>= bits
        lengths = last - first + 1
        in_batch = first >> shift  # each run's direction, counted from lo
        widths = np.maximum.reduceat(lengths, in_batch.searchsorted(np.arange(k.stop - lo)))
        cells = (in_batch * ng + run_level - 1) * widths.max() + lengths - 1
        counts = np.bincount(cells, minlength=(k.stop - lo) * ng * widths.max())
        counts = counts.reshape(-1, ng, widths.max()).astype(np.float64)
        matrices.update(zip(DIRECTIONS[k], (m[:, :width] for m, width in zip(counts, widths))))
    return matrices


def glrlm_oracle(coords, levels, ng):
    pos = _pos_map(coords, levels)
    per_dir = [_run_table_features(glrlm_run_table(pos, d), len(pos)) for d in DIRECTIONS]
    return {k: sum(f[k] for f in per_dir) / len(per_dir) for k in per_dir[0]}


# ---------------------------------------------------------------------- GLSZM


def glszm_zones(pos):
    """(level, size) zone list via flood fill over the 26-neighbourhood."""
    seen = set()
    zones = []
    for start in sorted(pos):
        if start in seen:
            continue
        level = pos[start]
        stack = [start]
        seen.add(start)
        size = 0
        while stack:
            cur = stack.pop()
            size += 1
            for d in NEIGHBOURS_26:
                nb = _add(cur, d)
                if nb not in seen and pos.get(nb) == level:
                    seen.add(nb)
                    stack.append(nb)
        zones.append((level, size))
    return zones


def glszm_oracle(coords, levels, ng):
    pos = _pos_map(coords, levels)
    zones = glszm_zones(pos)
    table = {}
    for key in zones:
        table[key] = table.get(key, 0) + 1
    nz = sum(table.values())
    n_voxels = len(pos)
    feats = _run_table_features(table, n_voxels)
    return {
        "SmallAreaEmphasis": feats["ShortRunEmphasis"],
        "LargeAreaEmphasis": feats["LongRunEmphasis"],
        "GrayLevelNonUniformity": feats["GrayLevelNonUniformity"],
        "GrayLevelNonUniformityNormalized": feats["GrayLevelNonUniformityNormalized"],
        "SizeZoneNonUniformity": feats["RunLengthNonUniformity"],
        "SizeZoneNonUniformityNormalized": feats["RunLengthNonUniformityNormalized"],
        "ZonePercentage": nz / n_voxels,
        "GrayLevelVariance": feats["GrayLevelVariance"],
        "ZoneVariance": feats["RunVariance"],
        "ZoneEntropy": feats["RunEntropy"],
        "LowGrayLevelZoneEmphasis": feats["LowGrayLevelRunEmphasis"],
        "HighGrayLevelZoneEmphasis": feats["HighGrayLevelRunEmphasis"],
        "SmallAreaLowGrayLevelEmphasis": feats["ShortRunLowGrayLevelEmphasis"],
        "SmallAreaHighGrayLevelEmphasis": feats["ShortRunHighGrayLevelEmphasis"],
        "LargeAreaLowGrayLevelEmphasis": feats["LongRunLowGrayLevelEmphasis"],
        "LargeAreaHighGrayLevelEmphasis": feats["LongRunHighGrayLevelEmphasis"],
    }


# ---------------------------------------------------------------------- NGTDM


def ngtdm_sums(pos):
    """(n_i, s_i, n_total) over the voxels with an in-region neighbour.

    s_i accumulates |level - neighbour mean| one voxel at a time in
    ascending coordinate order, so the float sums have one defined order.
    """
    n_i = {}
    s_i = {}
    n_total = 0
    for c in sorted(pos):
        l = pos[c]
        nb_levels = [pos[_add(c, d)] for d in NEIGHBOURS_26 if _add(c, d) in pos]
        if not nb_levels:
            continue
        n_total += 1
        n_i[l] = n_i.get(l, 0) + 1
        s_i[l] = s_i.get(l, 0.0) + abs(l - sum(nb_levels) / len(nb_levels))
    return n_i, s_i, n_total


def ngtdm_oracle(coords, levels, ng):
    n_i, s_i, n_total = ngtdm_sums(_pos_map(coords, levels))
    if n_total == 0:
        return {"Coarseness": 1e6, "Busyness": 0.0, "Complexity": 0.0, "Strength": 0.0, "Contrast": 0.0}
    p_i = {l: n / n_total for l, n in n_i.items()}
    present = sorted(p_i)
    ngp = len(present)
    ps = sum(p_i[l] * s_i[l] for l in present)
    coarseness = 1.0 / ps if ps > 0 else 1e6
    if ngp > 1:
        contrast = (
            sum(p_i[a] * p_i[b] * (a - b) ** 2 for a in present for b in present)
            / (ngp * (ngp - 1))
            * (sum(s_i.values()) / n_total)
        )
        busy_den = sum(abs(a * p_i[a] - b * p_i[b]) for a in present for b in present)
        busyness = ps / busy_den if busy_den > 0 else 0.0
        complexity = (
            sum(
                abs(a - b) * (p_i[a] * s_i[a] + p_i[b] * s_i[b]) / (p_i[a] + p_i[b])
                for a in present
                for b in present
            )
            / n_total
        )
        s_sum = sum(s_i.values())
        strength = (
            sum((p_i[a] + p_i[b]) * (a - b) ** 2 for a in present for b in present) / s_sum
            if s_sum > 0
            else 0.0
        )
    else:
        contrast = busyness = complexity = strength = 0.0
    return {
        "Coarseness": coarseness,
        "Busyness": busyness,
        "Complexity": complexity,
        "Strength": strength,
        "Contrast": contrast,
    }


# ------------------------------------------------------------- mesh and shape


def _face_frames_oracle():
    frames = []
    for axis in range(3):
        others = [a for a in range(3) if a != axis]
        for side in (0, 1):
            outward = 1 if side else -1
            u_ax, v_ax = others
            sign = 1 if (u_ax, v_ax, axis) in {(0, 1, 2), (1, 2, 0), (2, 0, 1)} else -1
            if sign != outward:
                u_ax, v_ax = v_ax, u_ax
            frames.append((axis, side, u_ax, v_ax))
    return frames


_FRAMES = _face_frames_oracle()


def _square_segments(flags):
    """Directed segments for one face; inside region on the left."""
    corners = [(0, 0), (1, 0), (1, 1), (0, 1)]
    inside = [c for c in corners if flags[c]]
    n = len(inside)
    if n in (0, 4):
        return []

    def mids(corner):
        u, v = corner
        return (0.5, float(v)), (float(u), 0.5)

    def orient(p, q, ref):
        left = (-(q[1] - p[1]), q[0] - p[0])
        mid = ((p[0] + q[0]) / 2, (p[1] + q[1]) / 2)
        if (ref[0] - mid[0]) * left[0] + (ref[1] - mid[1]) * left[1] > 0:
            return p, q
        return q, p

    if n == 1:
        (c,) = inside
        return [orient(*mids(c), c)]
    if n == 3:
        (c,) = [c for c in corners if not flags[c]]
        return [orient(*mids(c), (0.5, 0.5))]
    a, b = inside
    if abs(a[0] - b[0]) + abs(a[1] - b[1]) == 1:
        cut = []
        for c in (a, b):
            u, v = c
            for mid, other in zip(mids(c), [(1 - u, v), (u, 1 - v)]):
                if not flags[other]:
                    cut.append(mid)
        return [orient(cut[0], cut[1], ((a[0] + b[0]) / 2, (a[1] + b[1]) / 2))]
    return [orient(*mids(a), a), orient(*mids(b), b)]


def naive_mesh(mask, spacing):
    """Explicit triangle list [(v0, v1, v2)] built cell by cell."""
    mask = np.asarray(mask, dtype=bool)
    padded = np.pad(mask, 1)
    sx, sy, sz = spacing
    triangles = []
    nx, ny, nz = padded.shape
    for ci in range(nx - 1):
        for cj in range(ny - 1):
            for ck in range(nz - 1):
                cell = {
                    (a, b, c): bool(padded[ci + a, cj + b, ck + c])
                    for a in (0, 1)
                    for b in (0, 1)
                    for c in (0, 1)
                }
                if not any(cell.values()) or all(cell.values()):
                    continue
                segments = {}
                for axis, side, u_ax, v_ax in _FRAMES:

                    def to3d(u, v):
                        out = [0.0, 0.0, 0.0]
                        out[axis] = float(side)
                        out[u_ax] = u
                        out[v_ax] = v
                        return tuple(out)

                    flags = {}
                    for u in (0, 1):
                        for v in (0, 1):
                            p = to3d(u, v)
                            flags[(u, v)] = cell[(int(p[0]), int(p[1]), int(p[2]))]
                    for p2, q2 in _square_segments(flags):
                        segments[to3d(*p2)] = to3d(*q2)
                while segments:
                    start = min(segments)
                    loop = [start]
                    nxt = segments.pop(start)
                    while nxt != start:
                        loop.append(nxt)
                        nxt = segments.pop(nxt)
                    pts = [
                        ((ci + p[0]) * sx, (cj + p[1]) * sy, (ck + p[2]) * sz) for p in loop
                    ]
                    cx = sum(p[0] for p in pts) / len(pts)
                    cy = sum(p[1] for p in pts) / len(pts)
                    cz = sum(p[2] for p in pts) / len(pts)
                    centroid = (cx, cy, cz)
                    for t in range(len(pts)):
                        triangles.append((centroid, pts[t], pts[(t + 1) % len(pts)]))
    return triangles


def config_grid_corners(padded):
    """``mesh._config_grid`` as one shifted OR per cell corner: corner
    (cx, cy, cz) sets bit cx + 2*cy + 4*cz of every cell it lies in."""
    padded = np.asarray(padded, dtype=bool).astype(np.uint16)
    nx, ny, nz = padded.shape
    cfg = np.zeros((nx - 1, ny - 1, nz - 1), dtype=np.uint16)
    for cid, (cx, cy, cz) in enumerate(mesh._CORNERS):
        cfg |= padded[cx : cx + nx - 1, cy : cy + ny - 1, cz : cz + nz - 1] << cid
    return cfg


def triangle_mesh(mask, spacing):
    """Explicit (n, 3, 3) triangle array of the package mesher's iso-surface.

    Assembled cell by cell from ``mesh.loop_table()``, so structural tests
    (watertightness, winding) exercise the table the package itself uses.
    """
    spacing = np.asarray(spacing, dtype=np.float64)
    cfg = config_grid_corners(np.pad(np.asarray(mask, dtype=bool), 1))
    tris = []
    for i, j, k in np.argwhere((cfg != 0) & (cfg != 255)):
        origin = np.array([i, j, k], dtype=np.float64)
        for loop in mesh.loop_table()[cfg[i, j, k]]:
            pts = (mesh.EDGE_MIDPOINTS[list(loop)] + origin) * spacing
            centroid = pts.mean(axis=0)
            for t in range(len(pts)):
                tris.append([centroid, pts[t], pts[(t + 1) % len(pts)]])
    if not tris:
        return np.zeros((0, 3, 3))
    return np.asarray(tris)


def spacing_constants_oracle(spacing):
    """(surface area, z-flux coefficient, z-flux offset) of every cell config,
    one ``np.cross`` and one square root of its squares, added x, y, z, per
    fan triangle."""
    sx, sy, sz = spacing
    constants = []
    for loops in mesh.loop_table():
        area = 0.0
        k1 = 0.0
        k2 = 0.0
        for loop in loops:
            pts = mesh.EDGE_MIDPOINTS[list(loop)] * (sx, sy, sz)
            centroid = pts.mean(axis=0)
            for i in range(len(pts)):
                b = pts[i]
                c = pts[(i + 1) % len(pts)]
                n = np.cross(b - centroid, c - centroid)
                area += math.sqrt(n[0] * n[0] + n[1] * n[1] + n[2] * n[2]) / 2.0
                az = float(n[2]) / 2.0
                k1 += az
                k2 += az * (centroid[2] + b[2] + c[2]) / 3.0
        constants.append((area, k1, k2))
    return tuple(constants)


def mesh_area_volume_oracle(mask, spacing):
    triangles = naive_mesh(mask, spacing)
    area = 0.0
    signed_volume = 0.0
    for a, b, c in triangles:
        ab = tuple(b[i] - a[i] for i in range(3))
        ac = tuple(c[i] - a[i] for i in range(3))
        cross = (
            ab[1] * ac[2] - ab[2] * ac[1],
            ab[2] * ac[0] - ab[0] * ac[2],
            ab[0] * ac[1] - ab[1] * ac[0],
        )
        area += math.sqrt(cross[0] ** 2 + cross[1] ** 2 + cross[2] ** 2) / 2.0
        signed_volume += (
            a[0] * (b[1] * c[2] - b[2] * c[1])
            - a[1] * (b[0] * c[2] - b[2] * c[0])
            + a[2] * (b[0] * c[1] - b[1] * c[0])
        ) / 6.0
    return area, abs(signed_volume)


def mesh_sums_loop(mask, spacing):
    """Area and volume of ``mesh.mesh_surface_and_volume``, accumulated by a
    Python loop over the cell configs present, in config order."""
    constants = mesh._spacing_constants(tuple(float(s) for s in spacing))
    cfg = config_grid_corners(np.pad(np.asarray(mask, dtype=bool), 1))
    flat = cfg.ravel()
    counts = np.bincount(flat, minlength=256)
    nz_cell = np.broadcast_to(np.arange(cfg.shape[2], dtype=np.float64) * spacing[2], cfg.shape).ravel()
    zsum = np.bincount(flat, weights=nz_cell, minlength=256)
    area_total = 0.0
    volume_total = 0.0
    for config in np.nonzero(counts)[0]:
        if config == 0 or config == 255:
            continue
        area, k1, k2 = constants[config]
        area_total += area * counts[config]
        volume_total += k1 * zsum[config] + k2 * counts[config]
    return float(area_total), abs(float(volume_total))


def hull_candidates_loop(padded, spacing):
    """``shape._hull_candidates`` with the first and last vertex of every
    axis-parallel lattice line found by ``argmax`` over each crossing array."""
    shape = tuple(2 * n + 3 for n in padded.shape)
    strides = np.array([shape[1] * shape[2], shape[2], 1])
    lattice = np.zeros(np.prod(shape), dtype=bool)
    keys, kept = [], []
    for axis in range(3):
        crossing = np.diff(padded, axis=axis)
        points = np.argwhere(crossing)
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
    steps = np.asarray(DIRECTIONS) @ strides
    steps = np.concatenate([steps, 2 * steps])
    inside = (lattice[keep[:, None] + steps] & lattice[keep[:, None] - steps]).any(axis=1)
    return (np.stack(np.unravel_index(keep[~inside], shape), axis=1) - 2) * (spacing / 2.0)


def mesh_vertices(mask, spacing):
    """Cut-vertex coordinates of the mesh (edge midpoints between in/out voxels).

    Fan centroids are convex combinations of these points, so pairwise
    distance extremes over the full mesh are attained on this set.
    Coordinates are padded index x spacing, the package's frame.
    """
    padded = np.pad(np.asarray(mask, dtype=bool), 1)
    out = []
    for axis in range(3):
        lo = [slice(None)] * 3
        hi = [slice(None)] * 3
        lo[axis] = slice(0, -1)
        hi[axis] = slice(1, None)
        crossing = padded[tuple(lo)] != padded[tuple(hi)]
        pts = np.argwhere(crossing).astype(np.float64)
        pts[:, axis] += 0.5
        out.append(pts)
    verts = np.vstack(out)
    return verts * np.asarray(spacing, dtype=np.float64)

def _max_dist(points):
    if len(points) < 2:
        return 0.0
    best = 0.0
    for p, q in combinations(points, 2):
        best = max(best, math.dist(p, q))
    return best


def shape_oracle(coords, spacing):
    """All 13 shape features from the naive mesh and literal covariance."""
    coords = np.asarray(coords)
    lo = coords.min(axis=0)
    shape = coords.max(axis=0) - lo + 1
    mask = np.zeros(tuple(shape), dtype=bool)
    for c in coords - lo:
        mask[tuple(c)] = True

    triangles = naive_mesh(mask, spacing)
    area, volume = mesh_area_volume_oracle(mask, spacing)
    vertices = sorted({p for tri in triangles for p in tri})

    n = len(coords)
    phys = [[(c[a]) * spacing[a] for a in range(3)] for c in coords]
    means = [sum(p[a] for p in phys) / n for a in range(3)]
    if n >= 2:
        cov = [
            [
                sum((p[a] - means[a]) * (p[b] - means[b]) for p in phys) / (n - 1)
                for b in range(3)
            ]
            for a in range(3)
        ]
        eig = sorted(max(v, 0.0) for v in np.linalg.eigvalsh(np.array(cov)))
    else:
        eig = [0.0, 0.0, 0.0]
    least, minor, major = eig
    if major > 0:
        lengths = (4 * math.sqrt(major), 4 * math.sqrt(minor), 4 * math.sqrt(least))
        elongation = math.sqrt(minor / major)
        flatness = math.sqrt(least / major)
    else:
        lengths = (0.0, 0.0, 0.0)
        elongation = 1.0
        flatness = 1.0
    return {
        "MeshVolume": volume,
        "SurfaceArea": area,
        "SurfaceVolumeRatio": area / volume,
        "Sphericity": (36 * math.pi * volume**2) ** (1 / 3) / area,
        "Maximum3DDiameter": _max_dist(vertices),
        "Maximum2DDiameterSlice": _max_dist(sorted({(p[0], p[1]) for p in vertices})),
        "Maximum2DDiameterColumn": _max_dist(sorted({(p[0], p[2]) for p in vertices})),
        "Maximum2DDiameterRow": _max_dist(sorted({(p[1], p[2]) for p in vertices})),
        "MajorAxisLength": lengths[0],
        "MinorAxisLength": lengths[1],
        "LeastAxisLength": lengths[2],
        "Elongation": elongation,
        "Flatness": flatness,
    }


# ------------------------------------------------------------------ resample


def trilinear_oracle(data, spacing, target):
    """Literal per-voxel trilinear resample of a 3D array."""
    data = np.asarray(data, dtype=float)
    dims = data.shape
    out_dims = [int(math.ceil(d * (s / target))) for d, s in zip(dims, spacing)]
    out = np.zeros(out_dims)
    for i in range(out_dims[0]):
        for j in range(out_dims[1]):
            for k in range(out_dims[2]):
                val = 0.0
                pos = []
                for o, d, s in zip((i, j, k), dims, spacing):
                    x = min(max(o * (target / s), 0.0), d - 1)
                    pos.append(x)
                x0 = [int(math.floor(x)) for x in pos]
                x1 = [min(v + 1, d - 1) for v, d in zip(x0, dims)]
                f = [x - v for x, v in zip(pos, x0)]
                for bx, by, bz in product((0, 1), repeat=3):
                    w = (
                        (f[0] if bx else 1 - f[0])
                        * (f[1] if by else 1 - f[1])
                        * (f[2] if bz else 1 - f[2])
                    )
                    val += w * data[
                        x1[0] if bx else x0[0],
                        x1[1] if by else x0[1],
                        x1[2] if bz else x0[2],
                    ]
                out[i, j, k] = val
    return out


def nearest_oracle(labels, spacing, target):
    labels = np.asarray(labels)
    dims = labels.shape
    out_dims = [int(math.ceil(d * (s / target))) for d, s in zip(dims, spacing)]
    out = np.zeros(out_dims, dtype=labels.dtype)
    for i in range(out_dims[0]):
        for j in range(out_dims[1]):
            for k in range(out_dims[2]):
                idx = []
                for o, d, s in zip((i, j, k), dims, spacing):
                    x = min(max(o * (target / s), 0.0), d - 1)
                    idx.append(min(int(math.floor(x + 0.5)), d - 1))
                out[i, j, k] = labels[tuple(idx)]
    return out


# -------------------------------------------------------------- phantom masks


def _coordinate_grid(extent):
    """Voxel-centre positions of a cube holding ``extent`` plus the margin on
    each side of its centre, and the three 1-D axes they are broadcast from."""
    side = int(2 * (np.ceil(extent) + phantom.MARGIN) + 1)
    centre = (side - 1) / 2.0
    ax = [(np.arange(side) - centre) * s for s in phantom.SPACING]
    pos = np.empty((side, side, side, 3))
    pos[..., 0], pos[..., 1], pos[..., 2] = ax[0][:, None, None], ax[1][:, None], ax[2]
    return pos, ax


def lesion_mask_whole_cube(class_id, rng):
    """The phantom lesion mask evaluated on every voxel of its cube: the
    generator's mask before it was built on the lesion's box, kept verbatim
    so the box-built mask can be checked against it bit for bit."""
    u = rng.uniform
    if class_id == 1:
        radius = u(*phantom.SHELL_RADIUS)
        thickness = u(*phantom.SHELL_THICKNESS)
        half_angle = np.deg2rad(u(*phantom.SHELL_CAP_HALF_ANGLE_DEG))
        axis = phantom._random_rotation(rng)[:, 0]
        pos, ax = _coordinate_grid(radius + thickness)
        sq = [a * a for a in ax]  # the sum np.linalg.norm(pos, axis=-1) takes, per axis
        r = np.sqrt((sq[0][:, None, None] + sq[1][:, None]) + sq[2])
        with np.errstate(invalid="ignore", divide="ignore"):
            cos_angle = np.where(r > 0, (pos @ axis) / np.where(r > 0, r, 1.0), 1.0)
        return (np.abs(r - radius) <= thickness / 2.0) & (cos_angle >= np.cos(half_angle))
    if class_id == 2:
        a = u(*phantom.LENS_AXIS)
        c = a * u(*phantom.LENS_RATIO)
        semi = np.array([a, a, c])
    else:
        a = u(*phantom.BLOB_AXIS)
        semi = np.array([a, a * u(*phantom.BLOB_RATIO), a * u(*phantom.BLOB_RATIO)])
    rot = phantom._random_rotation(rng)
    pos, _ = _coordinate_grid(semi.max())
    # coordinates rotated into the ellipsoid frame, as one (N, 3) @ (3, 3) product
    q = (pos.reshape(-1, 3) @ rot / semi) ** 2
    return ((q[:, 0] + q[:, 1]) + q[:, 2] <= 1.0).reshape(pos.shape[:3])  # added in .sum(axis=-1)'s order


# ------------------------------------------------------------------------ PLS


def nipals_pls2(xs, y_dummy, n_components, tol=1e-12, max_iter=10_000):
    """PLS2 by the NIPALS inner iteration, run per component to convergence.

    Starts u from the centred response column with the most variance and
    iterates w ~ X'u (unit norm, largest-magnitude entry positive), t = Xw,
    q ~ Y't, u = Yq until w moves by less than ``tol``; then deflates X by
    t p'.  Returns (W, T, P, Q) with one column per component and fails
    loudly if an inner loop has not converged after ``max_iter`` steps.
    """
    x = np.array(xs, dtype=np.float64)
    yc = y_dummy - y_dummy.mean(axis=0)
    columns = []
    for _ in range(n_components):
        u = yc[:, int(np.argmax(yc.var(axis=0)))].copy()
        w = np.zeros(x.shape[1])
        for _ in range(max_iter):
            w_new = x.T @ u
            w_new = w_new / np.linalg.norm(w_new)
            if w_new[int(np.argmax(np.abs(w_new)))] < 0:
                w_new = -w_new
            t = x @ w_new
            q = yc.T @ t / (t @ t)
            u = yc @ (q / np.linalg.norm(q))
            step = np.linalg.norm(w_new - w)
            w = w_new
            if step < tol:
                break
        else:
            raise AssertionError(f"NIPALS did not converge in {max_iter} iterations")
        t = x @ w
        tt = t @ t
        p = x.T @ t / tt
        q = yc.T @ t / tt
        x = x - np.outer(t, p)
        columns.append((w, t, p, q))
    return tuple(np.column_stack(c) for c in zip(*columns))


def coef_from_predict(model):
    """B, (p, m): the coefficients ``pls.predict`` applies to autoscaled rows,
    recovered from its responses at the probe rows ``mean`` and
    ``mean + scale * e_j``, whose autoscaled forms are 0 and e_j.  Row j is
    the response's move from the first probe to the (j+1)-th."""
    probes = model.mean + np.vstack([np.zeros(model.n_features), np.diag(model.scale)])
    y_hat, _ = pls.predict(model, probes)
    return y_hat[1:] - y_hat[0]


def stratified_kfold_loop(y, k, seed):
    """Stratified folds as the per-sample loop built them: each class's
    members, shuffled by one seeded generator in class order, are dealt to
    the folds in turn, and each fold is sorted."""
    y = np.asarray(y, dtype=int)
    classes, counts = np.unique(y, return_counts=True)
    k_eff = min(k, int(counts.min()))
    rng = np.random.default_rng(seed)
    folds = [[] for _ in range(k_eff)]
    for cls in classes:
        idx = np.nonzero(y == cls)[0]
        rng.shuffle(idx)
        for pos, sample in enumerate(idx):
            folds[pos % k_eff].append(int(sample))
    return [np.sort(np.array(f, dtype=int)) for f in folds]


def evaluate_loop(labels, y, pred) -> dict:
    """``evaluate``'s metrics as the per-row and per-class loops built them:
    the confusion matrix one row at a time, then each class's one-vs-rest
    rates, 0.0 where a rate has nothing to count."""
    m = len(labels)
    index = {c: i for i, c in enumerate(labels)}
    confusion = np.zeros((m, m), dtype=int)
    for truth, guess in zip(y, pred):
        confusion[index[int(truth)], index[int(guess)]] += 1
    total = confusion.sum()
    sensitivity, specificity = {}, {}
    for c, i in index.items():
        tp = confusion[i, i]
        fn = confusion[i].sum() - tp
        fp = confusion[:, i].sum() - tp
        tn = total - tp - fn - fp
        sensitivity[c] = float(tp / (tp + fn)) if tp + fn else 0.0
        specificity[c] = float(tn / (tn + fp)) if tn + fp else 0.0
    return {
        "accuracy": float(np.trace(confusion) / total),
        "class_labels": list(labels),
        "confusion": confusion.tolist(),
        "sensitivity": sensitivity,
        "specificity": specificity,
    }
