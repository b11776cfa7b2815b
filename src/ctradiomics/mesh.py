"""Closed triangle meshes of binary voxel masks at the 0.5 iso-level.

A marching-cubes style mesher specialised to 0/1 grids: cut vertices sit at
the midpoints of grid edges joining an inside and an outside voxel, the
contour on every cell face follows the marching-squares rule with diagonal
(ambiguous) faces always resolved as *separated*, and each closed contour
loop inside a cell is triangulated as a fan around its centroid.

The separated-diagonal rule depends only on the face's corner pattern and the
centroid fan is equivariant, so the mesh geometry is exactly symmetric under
axis permutations and reflections, and adjacent cells always agree on the
shared face contour, making every produced surface watertight.  All
arithmetic is float64.

The per-configuration contour loops are generated from the face rule on
first use (``loop_table``); no hand-written case table is involved.
"""

from __future__ import annotations

import functools
import math

import numpy as np

# cell corner id = cx + 2*cy + 4*cz
_CORNERS = [(cid & 1, (cid >> 1) & 1, (cid >> 2) & 1) for cid in range(8)]

# the 12 cell edges as corner-id pairs, and their midpoints in cell coords
_EDGES: list[tuple[int, int]] = []
for a in range(8):
    for b in range(a + 1, 8):
        if bin(a ^ b).count("1") == 1:
            _EDGES.append((a, b))
_EDGE_OF_MIDPOINT = {}
EDGE_MIDPOINTS = np.zeros((len(_EDGES), 3))
for eid, (a, b) in enumerate(_EDGES):
    mid = tuple((ca + cb) / 2.0 for ca, cb in zip(_CORNERS[a], _CORNERS[b]))
    EDGE_MIDPOINTS[eid] = mid
    _EDGE_OF_MIDPOINT[mid] = eid


def _face_frames():
    """(axis, side, u_axis, v_axis) for each cell face, e_u x e_v = outward normal."""
    frames = []
    for axis in range(3):
        others = [a for a in range(3) if a != axis]
        for side in (0, 1):
            outward = 1 if side == 1 else -1
            u_ax, v_ax = others
            # sign of e_u x e_v along `axis` for the natural ordering
            perm = {(0, 1, 2): 1, (1, 2, 0): 1, (2, 0, 1): 1}
            natural = 1 if (u_ax, v_ax, axis) in perm else -1
            if natural != outward:
                u_ax, v_ax = v_ax, u_ax
            frames.append((axis, side, u_ax, v_ax))
    return frames


def _incident_midpoints(corner):
    """Midpoints of the two face edges meeting at a face corner."""
    u, v = corner
    return ((0.5, float(v)), (float(u), 0.5))


def _incident_corners(corner):
    """The two face corners adjacent to a face corner (same order as midpoints)."""
    u, v = corner
    return ((1 - u, v), (u, 1 - v))


def _orient(p, q, ref):
    """Direct segment p->q so that `ref` lies on its left; swap otherwise."""
    left = (-(q[1] - p[1]), q[0] - p[0])
    mid = ((p[0] + q[0]) / 2.0, (p[1] + q[1]) / 2.0)
    dot = (ref[0] - mid[0]) * left[0] + (ref[1] - mid[1]) * left[1]
    return (p, q) if dot > 0 else (q, p)


def _face_segments(inside_uv):
    """Directed marching-squares segments for one face, inside kept on the left.

    ``inside_uv`` maps (u, v) in {0,1}^2 to the inside flag.  Diagonal
    patterns produce two segments, each cutting off one inside corner.
    Returns segments as ((u,v) start, (u,v) end) pairs of edge midpoints.
    """
    corners = [(0, 0), (1, 0), (1, 1), (0, 1)]
    n_in = sum(inside_uv[c] for c in corners)
    if n_in in (0, 4):
        return []
    ins = [c for c in corners if inside_uv[c]]
    outs = [c for c in corners if not inside_uv[c]]
    if n_in == 1:
        return [_orient(*_incident_midpoints(ins[0]), ins[0])]
    if n_in == 3:
        # segment around the single outside corner; inside is everything else
        return [_orient(*_incident_midpoints(outs[0]), (0.5, 0.5))]
    a, b = ins
    if abs(a[0] - b[0]) + abs(a[1] - b[1]) == 1:  # adjacent pair: one segment
        mids = []
        for c_in in (a, b):
            for mid, other in zip(_incident_midpoints(c_in), _incident_corners(c_in)):
                if not inside_uv[other]:
                    mids.append(mid)
        ref = ((a[0] + b[0]) / 2.0, (a[1] + b[1]) / 2.0)
        return [_orient(mids[0], mids[1], ref)]
    # diagonal pair: separated rule, one segment per inside corner
    return [
        _orient(*_incident_midpoints(a), a),
        _orient(*_incident_midpoints(b), b),
    ]


@functools.cache
def loop_table() -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Contour loops (as tuples of edge ids) for each of the 256 cell configs.

    Built once per process, when a mesh is first asked for, so the commands
    that never mesh do not pay for it.
    """
    frames = _face_frames()
    table: list[tuple[tuple[int, ...], ...]] = []
    for config in range(256):
        inside = [(config >> cid) & 1 == 1 for cid in range(8)]
        successor: dict[int, int] = {}
        for axis, side, u_ax, v_ax in frames:

            def to3d(u, v):
                pos = [0.0, 0.0, 0.0]
                pos[axis] = float(side)
                pos[u_ax] = u
                pos[v_ax] = v
                return tuple(pos)

            inside_uv = {}
            for u in (0, 1):
                for v in (0, 1):
                    pos = to3d(u, v)
                    cid = int(pos[0]) + 2 * int(pos[1]) + 4 * int(pos[2])
                    inside_uv[(u, v)] = inside[cid]
            for (p, q) in _face_segments(inside_uv):
                e_from = _EDGE_OF_MIDPOINT[to3d(*p)]
                e_to = _EDGE_OF_MIDPOINT[to3d(*q)]
                assert e_from not in successor
                successor[e_from] = e_to
        # chain directed segments into closed loops
        loops = []
        remaining = set(successor)
        while remaining:
            start = min(remaining)
            loop = [start]
            nxt = successor[start]
            while nxt != start:
                loop.append(nxt)
                nxt = successor[nxt]
            remaining.difference_update(loop)
            assert len(loop) >= 3
            loops.append(tuple(loop))
        table.append(tuple(loops))

    # fix the global winding so triangle normals point away from the inside
    loop = table[1][0]  # single inside corner at the origin
    pts = EDGE_MIDPOINTS[list(loop)]
    normal = np.cross(pts[1] - pts[0], pts[2] - pts[0])
    if float(normal @ (pts.mean(axis=0) - np.zeros(3))) < 0:
        table = [tuple(loop[::-1] for loop in loops) for loops in table]
    return tuple(table)


def _config_grid(mask: np.ndarray) -> np.ndarray:
    padded = np.pad(np.asarray(mask, dtype=bool), 1).astype(np.uint16)
    nx, ny, nz = padded.shape
    cfg = np.zeros((nx - 1, ny - 1, nz - 1), dtype=np.uint16)
    for cid, (cx, cy, cz) in enumerate(_CORNERS):
        cfg |= padded[cx : cx + nx - 1, cy : cy + ny - 1, cz : cz + nz - 1] << cid
    return cfg


@functools.lru_cache
def _spacing_constants(spacing: tuple[float, float, float]) -> np.ndarray:
    """(surface area, z-flux coefficient, z-flux offset) of every cell config,
    a read-only (256, 3) array.

    They depend only on the spacing, so each spacing is computed once per
    process; the key is a tuple of Python floats.
    """
    constants = []
    for loops in loop_table():
        area = 0.0
        k1 = 0.0
        k2 = 0.0
        for loop in loops:
            pts = EDGE_MIDPOINTS[list(loop)] * spacing
            cx, cy, cz = pts.mean(axis=0).tolist()
            pts = pts.tolist()
            for i, (bx, by, bz) in enumerate(pts):
                c = pts[(i + 1) % len(pts)]
                ux, uy, uz = bx - cx, by - cy, bz - cz
                vx, vy, vz = c[0] - cx, c[1] - cy, c[2] - cz
                # np.cross's products, in Python floats; the norm goes through np.dot, as in
                # np.linalg.norm, because a plain sum of squares rounds differently
                n = np.array((uy * vz - uz * vy, uz * vx - ux * vz, ux * vy - uy * vx))
                area += math.sqrt(float(np.dot(n, n))) / 2.0
                az = float(n[2]) / 2.0
                k1 += az
                k2 += az * (cz + bz + c[2]) / 3.0
        constants.append((area, k1, k2))
    table = np.array(constants)
    table.flags.writeable = False
    return table


def mesh_surface_and_volume(mask: np.ndarray, spacing) -> tuple[float, float]:
    """Total surface area and enclosed volume of the mask's iso-surface mesh.

    Each cell config present adds its constants times its cell count (and
    its cells' z sum); ``np.cumsum`` adds those terms one after another in
    config order, so the totals round as a plain loop over the configs does.
    """
    constants = _spacing_constants(tuple(float(s) for s in spacing))
    cfg = _config_grid(mask)
    flat = cfg.ravel()
    counts = np.bincount(flat, minlength=256)
    nz_cell = np.broadcast_to(
        np.arange(cfg.shape[2], dtype=np.float64) * spacing[2], cfg.shape
    ).ravel()
    zsum = np.bincount(flat, weights=nz_cell, minlength=256)
    used = np.flatnonzero(counts[1:255]) + 1  # configs 0 and 255 hold no surface
    area, k1, k2 = constants[used].T
    n = counts[used]
    # the leading 0.0 is a loop's starting total, and an empty mask's totals
    area_total = np.cumsum(np.append(0.0, area * n))[-1]
    volume_total = np.cumsum(np.append(0.0, k1 * zsum[used] + k2 * n))[-1]
    return float(area_total), abs(float(volume_total))
