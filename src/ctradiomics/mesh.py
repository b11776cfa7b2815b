"""Closed triangle meshes of binary voxel masks at the 0.5 iso-level.

A marching-cubes style mesher specialised to 0/1 grids: cut vertices sit at
the midpoints of grid edges joining an inside and an outside voxel, the
contour on every cell face follows one rule -- one segment per run of inside
corners around a face; a diagonal pair is two runs (the *separated*
resolution of the ambiguous face) -- and each closed contour loop inside a
cell is triangulated as a fan around its centroid.

The face rule depends only on the face's corner pattern and the centroid fan
is equivariant, so the mesh geometry is exactly symmetric under axis
permutations and reflections, and adjacent cells always agree on the shared
face contour, making every produced surface watertight.  All arithmetic is
float64.

The per-configuration contour loops are generated from the face rule on
first use (``loop_table``); no hand-written case table is involved.
"""

from __future__ import annotations

import functools

import numpy as np

# cell corner id = cx + 2*cy + 4*cz
_CORNERS = [(cid & 1, (cid >> 1) & 1, (cid >> 2) & 1) for cid in range(8)]

# the 12 cell edges as corner-id pairs, and their midpoints in cell coords
_EDGES = [(a, b) for a in range(8) for b in range(a + 1, 8) if bin(a ^ b).count("1") == 1]
_EDGE_ID = {edge: eid for eid, edge in enumerate(_EDGES)}
EDGE_MIDPOINTS = np.array([[(p + q) / 2.0 for p, q in zip(_CORNERS[a], _CORNERS[b])] for a, b in _EDGES])

# each cell face as its 4 corner ids, counterclockwise seen from outside the cell
_FACES = ((0, 4, 6, 2), (1, 3, 7, 5), (0, 1, 5, 4), (2, 6, 7, 3), (0, 2, 3, 1), (4, 5, 7, 6))


def _edge(a: int, b: int) -> int:
    return _EDGE_ID[min(a, b), max(a, b)]


@functools.cache
def loop_table() -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Contour loops (as tuples of edge ids) for each of the 256 cell configs.

    Built once per process, when a mesh is first asked for, so the commands
    that never mesh do not pay for it.
    """
    table: list[tuple[tuple[int, ...], ...]] = []
    for config in range(256):
        inside = [(config >> cid) & 1 == 1 for cid in range(8)]
        # one segment per run of inside corners around a face, from the edge
        # the run is left by to the edge it is entered by (inside on the left)
        successor: dict[int, int] = {}
        for face in _FACES:
            for i in range(4):
                a, b = face[i], face[(i + 1) % 4]
                if inside[a] and not inside[b]:
                    j = i  # walk back to the run's first corner; face[-1] wraps
                    while inside[face[j - 1]]:
                        j -= 1
                    successor[_edge(a, b)] = _edge(face[j - 1], face[j])
        # chain the segments into closed loops, reversed to wind outward
        loops = []
        remaining = set(successor)
        while remaining:
            loop = [min(remaining)]
            while successor[loop[-1]] != loop[0]:
                loop.append(successor[loop[-1]])
            remaining.difference_update(loop)
            loops.append(tuple(loop[::-1]))
        table.append(tuple(loops))
    return tuple(table)


def _config_grid(padded: np.ndarray) -> np.ndarray:
    padded = np.asarray(padded, dtype=bool).astype(np.uint16)
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
    process; the key is a tuple of Python floats.  The fan triangles take
    ``np.cross``'s products and ``np.linalg.norm``'s dot product (a stacked
    ``matmul``), and ``np.cumsum`` adds each config's terms one after another,
    so the totals round as a loop over the triangles does.
    """
    table = loop_table()
    loops = [loop for loops in table for loop in loops]
    config, slot = np.array([(k, j) for k, loops in enumerate(table) for j in range(len(loops))]).T
    width = max(map(len, loops))
    # each loop's fan (b, c) in a row padded to the widest, where +0.0 terms change no sum
    pts = EDGE_MIDPOINTS[[[loop[i % len(loop)] for i in range(width + 1)] for loop in loops]] * spacing
    b, c = pts[:, :-1], pts[:, 1:]
    live = (np.arange(width) < np.array([len(loop) for loop in loops])[:, None])[..., None]
    centre = np.where(live, b, 0.0).sum(axis=1, keepdims=True) / live.sum(axis=1, keepdims=True)
    n = np.cross(b - centre, c - centre)
    area = np.sqrt(n[..., None, :] @ n[..., :, None])[..., 0, 0] / 2.0
    az = n[..., 2] / 2.0
    terms = np.where(live, np.stack((area, az, az * (centre[..., 2] + b[..., 2] + c[..., 2]) / 3.0), -1), 0.0)
    # one row per config: its loops' fans end to end, each after a 0.0 (a loop's starting total)
    rows = np.zeros((256, slot.max() + 1, width + 1, 3))
    rows[config, slot, 1:] = terms
    constants = np.cumsum(rows.reshape(256, -1, 3), axis=1)[:, -1]
    constants.flags.writeable = False
    return constants


def mesh_surface_and_volume(padded: np.ndarray, spacing) -> tuple[float, float]:
    """Total surface area and enclosed volume of the iso-surface mesh of a
    mask already padded by one background voxel on every side, as
    ``DiscretizedRegion.inside`` is; a mask touching its border meshes open.

    Each cell config present adds its constants times its cell count (and
    its cells' z sum); ``np.cumsum`` adds those terms one after another in
    config order, so the totals round as a plain loop over the configs does.
    """
    constants = _spacing_constants(tuple(float(s) for s in spacing))
    cfg = _config_grid(padded)
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
