"""Seeded benchmark inputs, written as OFF files.

The generators live here rather than in `singlestrip.generators` so that a
change to the program cannot change what the benchmark feeds it. Every mesh
is a `(vertices, triangles)` pair of plain lists with counter-clockwise
triangles; `perturb` then applies the seeded relabelling that real files
have (vertex ids, triangle order and each triangle's starting vertex are
arbitrary) and, for closed meshes, centroid splits that create degree-3
vertices.
"""

from __future__ import annotations

import math
import random
from pathlib import Path


def torus(p: int, q: int):
    """Genus-1 torus on a wrapped p x q vertex grid: 2pq triangles."""
    vertices = []
    for i in range(p):
        theta = 2.0 * math.pi * i / p
        for j in range(q):
            phi = 2.0 * math.pi * j / q
            ring = 2.0 + 0.75 * math.cos(phi)
            vertices.append((ring * math.cos(theta), ring * math.sin(theta), 0.75 * math.sin(phi)))
    triangles = []
    for i in range(p):
        for j in range(q):
            v00 = i * q + j
            v10 = ((i + 1) % p) * q + j
            v11 = ((i + 1) % p) * q + (j + 1) % q
            v01 = i * q + (j + 1) % q
            triangles.append((v00, v10, v11))
            triangles.append((v00, v11, v01))
    return vertices, triangles


def icosphere(s: int):
    """Icosahedron subdivided s times onto the unit sphere: 20 * 4^s triangles."""
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    raw = [
        (-1, phi, 0), (1, phi, 0), (-1, -phi, 0), (1, -phi, 0),
        (0, -1, phi), (0, 1, phi), (0, -1, -phi), (0, 1, -phi),
        (phi, 0, -1), (phi, 0, 1), (-phi, 0, -1), (-phi, 0, 1),
    ]
    vertices = [_unit(p) for p in raw]
    triangles = [
        (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
        (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
        (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
        (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
    ]
    for _ in range(s):
        mids: dict[tuple[int, int], int] = {}

        def mid(i: int, j: int) -> int:
            key = (min(i, j), max(i, j))
            if key not in mids:
                p, q = vertices[i], vertices[j]
                vertices.append(_unit(((p[0] + q[0]) / 2, (p[1] + q[1]) / 2, (p[2] + q[2]) / 2)))
                mids[key] = len(vertices) - 1
            return mids[key]

        nxt = []
        for a, b, c in triangles:
            ab, bc, ca = mid(a, b), mid(b, c), mid(c, a)
            nxt += [(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)]
        triangles = nxt
    return vertices, triangles


def _unit(p):
    n = math.sqrt(p[0] * p[0] + p[1] * p[1] + p[2] * p[2])
    return (p[0] / n, p[1] / n, p[2] / n)


def grid(w: int, h: int, hole: int = 0, period: int = 0):
    """Planar w x h grid of cells, two triangles per cell.

    With `hole` and `period` set, a `hole` x `hole` block of cells is left
    out at every `period` cells in both directions, starting `period - hole`
    cells in, so holes are interior and separated by solid bands.
    """

    def cut(i: int, n: int) -> bool:
        return hole > 0 and i % period >= period - hole and i - i % period + period < n

    vertices = [(float(x), float(y), 0.0) for y in range(h + 1) for x in range(w + 1)]
    triangles = []
    for y in range(h):
        for x in range(w):
            if cut(x, w) and cut(y, h):
                continue
            v00 = y * (w + 1) + x
            v10, v01, v11 = v00 + 1, v00 + w + 1, v00 + w + 2
            triangles.append((v00, v10, v11))
            triangles.append((v00, v11, v01))
    return vertices, triangles


def mk(k: int):
    """The paper's lower-bound family M_k: a (3 * 2^k)-gon peeled by ears.

    3 * (2^k - 1) + 1 triangles whose dual is a tree with longest path 2k,
    so any single strip needs exactly 3n - 2 - 4k triangles.
    """
    n_gon = 3 * 2**k
    vertices = [
        (math.cos(2.0 * math.pi * i / n_gon), math.sin(2.0 * math.pi * i / n_gon), 0.0)
        for i in range(n_gon)
    ]
    triangles = []
    ring = list(range(n_gon))
    while len(ring) > 3:
        m = len(ring)
        triangles += [(ring[i], ring[i + 1], ring[(i + 2) % m]) for i in range(0, m, 2)]
        ring = ring[::2]
    triangles.append((ring[0], ring[1], ring[2]))
    return vertices, triangles


def fan(m: int):
    """Half-disc fan of m triangles around one hub; its dual is a path."""
    vertices = [(0.0, 0.0, 0.0)] + [
        (math.cos(math.pi * i / m), math.sin(math.pi * i / m), 0.0) for i in range(m + 1)
    ]
    return vertices, [(0, i + 1, i + 2) for i in range(m)]


def perturb(mesh, rng: random.Random, split_frac: float = 0.0):
    """Seeded copy of a mesh as a real file would arrive.

    Splits `split_frac` of the triangles at their centroid, then shuffles
    vertex ids, the triangle order and each triangle's starting vertex
    (a rotation, so the winding is kept). Unused vertices are dropped.
    """
    vertices, triangles = list(mesh[0]), list(mesh[1])
    for t in sorted(rng.sample(range(len(triangles)), round(split_frac * len(triangles)))):
        a, b, c = triangles[t]
        pa, pb, pc = vertices[a], vertices[b], vertices[c]
        vertices.append(tuple((pa[i] + pb[i] + pc[i]) / 3.0 for i in range(3)))
        g = len(vertices) - 1
        triangles[t] = (a, b, g)
        triangles += [(b, c, g), (c, a, g)]
    used = sorted({v for tri in triangles for v in tri})
    new_id = list(range(len(used)))
    rng.shuffle(new_id)
    relabel = dict(zip(used, new_id))
    out_vertices = [None] * len(used)
    for old, new in relabel.items():
        out_vertices[new] = vertices[old]
    out_triangles = []
    for tri in triangles:
        r = rng.randrange(3)
        out_triangles.append(tuple(relabel[tri[(r + i) % 3]] for i in range(3)))
    rng.shuffle(out_triangles)
    return out_vertices, out_triangles


def rotate(mesh, rng: random.Random):
    """Seeded rigid rotation about the z axis; ids and triangle order are kept."""
    angle = rng.uniform(0.0, 2.0 * math.pi)
    c, s = math.cos(angle), math.sin(angle)
    return [(c * x - s * y, s * x + c * y, z) for x, y, z in mesh[0]], list(mesh[1])


def write_off(mesh, path: Path) -> None:
    vertices, triangles = mesh
    lines = ["OFF", f"{len(vertices)} {len(triangles)} 0"]
    lines += [f"{x!r} {y!r} {z!r}" for x, y, z in vertices]
    lines += [f"3 {a} {b} {c}" for a, b, c in triangles]
    Path(path).write_text("\n".join(lines) + "\n")
