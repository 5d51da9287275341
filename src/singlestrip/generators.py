"""Deterministic test-mesh generators: closed tori and icospheres, the
platonic seeds, open fans, and the recursive polygon family."""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .mesh import Mesh


@dataclass(frozen=True)
class GenSpec:
    kind: str
    args: tuple[int, ...] = ()

    def __str__(self) -> str:
        if not self.args:
            return self.kind
        return f"{self.kind}({','.join(str(a) for a in self.args)})"


# The most triangles `torus` and `fan` build: above torus(600,320)'s 384k,
# and refused before any allocation, so that a typo such as
# torus(100000,100000) ends in a ValueError rather than in memory exhaustion.
MAX_TRIANGLES = 1 << 20

_SPEC_RE = re.compile(r"^\s*([a-z_]+)\s*(?:\(\s*([0-9,\s]*)\s*\))?\s*$")

_ARITY = {
    "tetrahedron": 0,
    "octahedron": 0,
    "icosphere": 1,
    "torus": 2,
    "fan": 1,
    "mk": 1,
}


def parse_spec(text: str) -> GenSpec:
    """Parse 'torus(20,10)', 'icosphere(2)', 'tetrahedron', ..."""
    m = _SPEC_RE.match(text.lower())
    if not m:
        raise ValueError(f"cannot parse generator spec {text!r}")
    kind = m.group(1)
    raw = m.group(2)
    args = tuple(int(x) for x in raw.split(",")) if raw else ()
    if kind not in _ARITY:
        raise ValueError(f"unknown generator {kind!r} (have {sorted(_ARITY)})")
    if len(args) != _ARITY[kind]:
        raise ValueError(f"{kind} takes {_ARITY[kind]} parameter(s), got {len(args)}")
    return GenSpec(kind=kind, args=args)


def generate(spec: GenSpec | str) -> Mesh:
    if isinstance(spec, str):
        spec = parse_spec(spec)
    if spec.kind == "tetrahedron":
        return tetrahedron()
    if spec.kind == "octahedron":
        return octahedron()
    if spec.kind == "icosphere":
        return icosphere(*spec.args)
    if spec.kind == "torus":
        return torus(*spec.args)
    if spec.kind == "fan":
        return fan(*spec.args)
    if spec.kind == "mk":
        return gen_mk(*spec.args)
    raise ValueError(f"unknown generator {spec.kind!r}")


def tetrahedron() -> Mesh:
    """Regular tetrahedron: 4 vertices, 4 faces, outward CCW."""
    vertices = [(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)]
    triangles = [(0, 1, 2), (0, 3, 1), (0, 2, 3), (1, 3, 2)]
    return Mesh(vertices, triangles)


def octahedron() -> Mesh:
    """Regular octahedron: 6 vertices, 8 faces; its dual is the cube graph."""
    vertices = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
    triangles = [
        (0, 2, 4),
        (2, 1, 4),
        (1, 3, 4),
        (3, 0, 4),
        (2, 0, 5),
        (1, 2, 5),
        (3, 1, 5),
        (0, 3, 5),
    ]
    return Mesh(vertices, triangles)


def icosphere(s: int) -> Mesh:
    """Icosahedron subdivided s times, vertices projected to the unit sphere.

    20 * 4^s triangles, genus 0.
    """
    if s < 0:
        raise ValueError("subdivision level must be >= 0")
    if s > 7:
        raise ValueError("subdivision level > 7 exceeds 300k triangles")
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    raw = [
        (-1, phi, 0), (1, phi, 0), (-1, -phi, 0), (1, -phi, 0),
        (0, -1, phi), (0, 1, phi), (0, -1, -phi), (0, 1, -phi),
        (phi, 0, -1), (phi, 0, 1), (-phi, 0, -1), (-phi, 0, 1),
    ]
    vertices = [_normalize(p) for p in raw]
    triangles = [
        (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
        (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
        (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
        (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
    ]
    for _ in range(s):
        cache: dict[tuple[int, int], int] = {}
        next_tris = []

        def midpoint(i: int, j: int) -> int:
            key = (i, j) if i < j else (j, i)
            if key in cache:
                return cache[key]
            p, q = vertices[i], vertices[j]
            vertices.append(
                _normalize(((p[0] + q[0]) / 2, (p[1] + q[1]) / 2, (p[2] + q[2]) / 2))
            )
            cache[key] = len(vertices) - 1
            return cache[key]

        for a, b, c in triangles:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            next_tris.extend([(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)])
        triangles = next_tris
    return Mesh(vertices, triangles)


def _normalize(p) -> tuple[float, float, float]:
    n = math.sqrt(p[0] * p[0] + p[1] * p[1] + p[2] * p[2])
    return (p[0] / n, p[1] / n, p[2] / n)


def torus(p: int, q: int) -> Mesh:
    """Genus-1 torus on a p x q wrapped vertex grid, 2pq triangles.

    Quads are split along a consistent diagonal; p, q >= 3 keeps the
    triangulation simple (smaller wraps create doubled edges). More than
    MAX_TRIANGLES triangles raise ValueError.
    """
    if p < 3 or q < 3:
        raise ValueError("torus needs p >= 3 and q >= 3")
    if 2 * p * q > MAX_TRIANGLES:
        raise ValueError(f"torus({p},{q}) would have {2 * p * q} triangles, over {MAX_TRIANGLES}")
    major, minor = 2.0, 0.75
    vertices = []
    for i in range(p):
        theta = 2.0 * math.pi * i / p
        for j in range(q):
            phi = 2.0 * math.pi * j / q
            ring = major + minor * math.cos(phi)
            vertices.append(
                (ring * math.cos(theta), ring * math.sin(theta), minor * math.sin(phi))
            )
    triangles = []
    for i in range(p):
        for j in range(q):
            v00 = i * q + j
            v10 = ((i + 1) % p) * q + j
            v11 = ((i + 1) % p) * q + (j + 1) % q
            v01 = i * q + (j + 1) % q
            triangles.append((v00, v10, v11))
            triangles.append((v00, v11, v01))
    return Mesh(vertices, triangles)


def fan(m: int) -> Mesh:
    """Open fan of m triangles around one hub vertex; its dual is a path.
    More than MAX_TRIANGLES triangles raise ValueError."""
    if m < 1:
        raise ValueError("fan needs at least 1 triangle")
    if m > MAX_TRIANGLES:
        raise ValueError(f"fan({m}) would have {m} triangles, over {MAX_TRIANGLES}")
    vertices = [(0.0, 0.0, 0.0)]
    for i in range(m + 1):
        angle = math.pi * i / m
        vertices.append((math.cos(angle), math.sin(angle), 0.0))
    triangles = [(0, i + 1, i + 2) for i in range(m)]
    return Mesh(vertices, triangles)


def gen_mk(k: int) -> Mesh:
    """Recursive triangulation of a regular (3 * 2^k)-gon.

    Ear triangles on alternating vertices peel the polygon down to a single
    central triangle, giving 3 * (2^k - 1) + 1 triangles whose dual is a tree
    with longest path 2k. Any single strip on this family needs at least
    3n - 2 - 4k triangles, which the Euler construction meets exactly.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if k > 16:
        raise ValueError("k > 16 would generate more than 196k triangles")
    n_gon = 3 * (2**k)
    vertices = [
        (math.cos(2.0 * math.pi * i / n_gon), math.sin(2.0 * math.pi * i / n_gon), 0.0)
        for i in range(n_gon)
    ]
    triangles = []
    ring = list(range(n_gon))
    while len(ring) > 3:
        m = len(ring)
        for i in range(0, m, 2):
            triangles.append((ring[i], ring[i + 1], ring[(i + 2) % m]))
        ring = ring[::2]
    triangles.append((ring[0], ring[1], ring[2]))
    return Mesh(vertices, triangles)
