"""Triangle mesh core: indexed storage with stable triangle ids, manifold
validation, the triangle-adjacency (dual) graph, and midpoint splitting.

Triangle ids are never reused. Removing a triangle leaves a dead slot and
subdivision appends fresh ids, so records built by the pipeline (matchings,
split records, removed configurations) stay valid across edits.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from math import isfinite

import numpy as np


class MeshError(Exception):
    """Structurally invalid mesh data or an illegal mesh edit."""


class ValidationError(Exception):
    """A pipeline precondition failed; carries the validation report."""

    def __init__(self, report: "ValidationReport"):
        super().__init__(str(report))
        self.report = report


def edge_key(a: int, b: int) -> tuple[int, int]:
    """Canonical undirected edge id: the vertex pair ordered ascending."""
    return (a, b) if a < b else (b, a)


def _tri_key(a: int, b: int, c: int) -> tuple[int, int, int]:
    """Duplicate-detection key of a triangle with distinct vertices: the
    vertex triple sorted ascending."""
    if a > b:
        a, b = b, a
    if b > c:
        b, c = c, b
        if a > b:
            a, b = b, a
    return (a, b, c)


def _rotate_to(tri: tuple[int, int, int], v: int) -> tuple[int, int, int]:
    """Cyclic rotation of a triangle tuple so it starts at vertex v."""
    i = tri.index(v)
    return (tri[i], tri[(i + 1) % 3], tri[(i + 2) % 3])


class Mesh:
    """Indexed triangle mesh with an unordered-edge incidence map.

    `triangles[t]` keeps its vertex triple even after t is removed; `alive[t]`
    says whether the slot is live. `edge_map` indexes live triangles only.
    Vertex triples are stored counter-clockwise with respect to a consistent
    surface orientation (checked by `validate`, not by the constructor). The
    constructor rejects non-finite coordinates and triangles that are out of
    range, repeat a vertex or duplicate an earlier triangle.
    """

    def __init__(self, vertices, triangles):
        verts = [(float(p[0]), float(p[1]), float(p[2])) for p in vertices]
        for vid, (x, y, z) in enumerate(verts):
            if not (isfinite(x) and isfinite(y) and isfinite(z)):
                raise MeshError(f"vertex {vid} has a non-finite coordinate: {(x, y, z)}")
        n = len(verts)
        tris: list[tuple[int, int, int]] = []
        edge_map: dict[tuple[int, int], list[int]] = {}
        live_sets: set[tuple[int, int, int]] = set()
        get = edge_map.get
        for tri in triangles:
            a, b, c = (int(tri[0]), int(tri[1]), int(tri[2]))
            if not (0 <= a < n and 0 <= b < n and 0 <= c < n):
                raise MeshError(f"triangle {(a, b, c)} references a vertex out of range (have {n})")
            if a == b or b == c or a == c:
                raise MeshError(f"degenerate triangle with repeated vertex: {(a, b, c)}")
            key = _tri_key(a, b, c)
            if key in live_sets:
                raise MeshError(f"duplicate triangle {(a, b, c)}")
            live_sets.add(key)
            tid = len(tris)
            tris.append((a, b, c))
            for e in (
                (a, b) if a < b else (b, a),
                (b, c) if b < c else (c, b),
                (c, a) if c < a else (a, c),
            ):
                incid = get(e)
                if incid is None:
                    edge_map[e] = [tid]
                else:
                    incid.append(tid)
        self.vertices: list[tuple[float, float, float]] = verts
        self.triangles: list[tuple[int, int, int]] = tris
        self.alive: list[bool] = [True] * len(tris)
        self.edge_map: dict[tuple[int, int], list[int]] = edge_map
        self._live_sets: set[tuple[int, int, int]] = live_sets
        self._n_alive = len(tris)

    # -- counts ----------------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_triangles(self) -> int:
        """Number of live triangles."""
        return self._n_alive

    def alive_ids(self) -> list[int]:
        return [t for t, a in enumerate(self.alive) if a]

    # -- edits -----------------------------------------------------------

    def add_vertex(self, point) -> int:
        self.vertices.append((float(point[0]), float(point[1]), float(point[2])))
        return len(self.vertices) - 1

    def add_triangle(self, tri) -> int:
        a, b, c = (int(tri[0]), int(tri[1]), int(tri[2]))
        n = len(self.vertices)
        if not (0 <= a < n and 0 <= b < n and 0 <= c < n):
            raise MeshError(f"triangle {(a, b, c)} references a vertex out of range (have {n})")
        if a == b or b == c or a == c:
            raise MeshError(f"degenerate triangle with repeated vertex: {(a, b, c)}")
        key = _tri_key(a, b, c)
        if key in self._live_sets:
            raise MeshError(f"duplicate triangle {(a, b, c)}")
        tid = len(self.triangles)
        self.triangles.append((a, b, c))
        self.alive.append(True)
        self._live_sets.add(key)
        self._n_alive += 1
        for e in self.triangle_edges(tid):
            self.edge_map.setdefault(e, []).append(tid)
        return tid

    def kill_triangle(self, tid: int) -> None:
        if not self.alive[tid]:
            raise MeshError(f"triangle {tid} is already dead")
        for e in self.triangle_edges(tid):
            incid = self.edge_map[e]
            incid.remove(tid)
            if not incid:
                del self.edge_map[e]
        self.alive[tid] = False
        self._live_sets.discard(_tri_key(*self.triangles[tid]))
        self._n_alive -= 1

    def revive_triangle(self, tid: int) -> None:
        if self.alive[tid]:
            raise MeshError(f"triangle {tid} is already alive")
        key = _tri_key(*self.triangles[tid])
        if key in self._live_sets:
            raise MeshError(f"reviving {tid} would duplicate a live triangle")
        self.alive[tid] = True
        self._live_sets.add(key)
        self._n_alive += 1
        for e in self.triangle_edges(tid):
            self.edge_map.setdefault(e, []).append(tid)

    # -- queries ---------------------------------------------------------

    def triangle_edges(self, tid: int) -> tuple[tuple[int, int], ...]:
        a, b, c = self.triangles[tid]
        return (edge_key(a, b), edge_key(b, c), edge_key(c, a))

    def edge_triangles(self, e: tuple[int, int]) -> list[int]:
        return self.edge_map.get(e, [])

    def other_triangle(self, e: tuple[int, int], tid: int) -> int | None:
        """The live triangle across edge e from tid, or None on a boundary."""
        for t in self.edge_map.get(e, ()):
            if t != tid:
                return t
        return None

    def boundary_edges(self) -> list[tuple[int, int]]:
        return [e for e, ts in self.edge_map.items() if len(ts) == 1]

    def vertex_triangles(self) -> dict[int, set[int]]:
        """Vertex id -> set of live triangles incident on it."""
        incid: dict[int, set[int]] = {}
        for t in self.alive_ids():
            for v in self.triangles[t]:
                incid.setdefault(v, set()).add(t)
        return incid

    # -- geometry --------------------------------------------------------

    def triangle_points(self, tid: int) -> np.ndarray:
        return np.array([self.vertices[v] for v in self.triangles[tid]], dtype=float)

    def triangle_area(self, tid: int) -> float:
        p = self.triangle_points(tid)
        return 0.5 * float(np.linalg.norm(np.cross(p[1] - p[0], p[2] - p[0])))

    def triangle_diameter(self, tid: int) -> float:
        p = self.triangle_points(tid)
        return max(
            float(np.linalg.norm(p[0] - p[1])),
            float(np.linalg.norm(p[1] - p[2])),
            float(np.linalg.norm(p[2] - p[0])),
        )

    def plane_distance(self, tid: int, point) -> float:
        """Unsigned distance of a point from the triangle's supporting plane."""
        p = self.triangle_points(tid)
        n = np.cross(p[1] - p[0], p[2] - p[0])
        norm = float(np.linalg.norm(n))
        if norm == 0.0:
            raise MeshError(f"triangle {tid} has zero area")
        return abs(float(np.dot(np.asarray(point, dtype=float) - p[0], n))) / norm

    # -- structure -------------------------------------------------------

    def copy(self) -> "Mesh":
        """Deep copy preserving triangle ids and dead slots."""
        m = Mesh.__new__(Mesh)
        m.vertices = list(self.vertices)
        m.triangles = list(self.triangles)
        m.alive = list(self.alive)
        m.edge_map = {e: list(ts) for e, ts in self.edge_map.items()}
        m._live_sets = set(self._live_sets)
        m._n_alive = self._n_alive
        return m

    def compact(self) -> tuple["Mesh", dict[int, int]]:
        """Fresh mesh holding only live triangles, plus the old->new id map."""
        ids = self.alive_ids()
        remap = {old: new for new, old in enumerate(ids)}
        return Mesh(self.vertices, [self.triangles[t] for t in ids]), remap


@dataclass(frozen=True)
class SplitRecord:
    """One midpoint split of an interior edge: two parents become four children.

    `children[0:2]` replace `parents[0]` and `children[2:4]` replace
    `parents[1]`; every child lies in its parent's supporting plane because
    its vertices are two parent vertices plus the edge midpoint.
    """

    edge: tuple[int, int]
    midpoint: int
    parents: tuple[int, int]
    children: tuple[int, int, int, int]


def split_pair(mesh: Mesh, e: tuple[int, int]) -> SplitRecord:
    """Split both triangles incident to edge e at its midpoint.

    Each parent (x, y, w), with {x, y} = e, becomes (x, m, w) and (m, y, w),
    preserving winding. The mesh gains one vertex and a net two triangles.
    """
    incident = list(mesh.edge_triangles(e))
    if len(incident) != 2:
        raise MeshError(
            f"edge {e} is incident to {len(incident)} triangle(s); need exactly 2 to split"
        )
    a, b = e
    pa = mesh.vertices[a]
    pb = mesh.vertices[b]
    mid = mesh.add_vertex(((pa[0] + pb[0]) / 2.0, (pa[1] + pb[1]) / 2.0, (pa[2] + pb[2]) / 2.0))
    children: list[int] = []
    for tid in incident:
        tri = mesh.triangles[tid]
        # rotate so the split edge is (tri[0], tri[1])
        for shift in range(3):
            if edge_key(tri[shift], tri[(shift + 1) % 3]) == e:
                x, y, w = tri[shift], tri[(shift + 1) % 3], tri[(shift + 2) % 3]
                break
        else:
            raise MeshError(f"edge {e} not found in triangle {tid}")
        mesh.kill_triangle(tid)
        children.append(mesh.add_triangle((x, mid, w)))
        children.append(mesh.add_triangle((mid, y, w)))
    return SplitRecord(
        edge=e,
        midpoint=mid,
        parents=(incident[0], incident[1]),
        children=(children[0], children[1], children[2], children[3]),
    )


def insert_centroid(mesh: Mesh, tid: int) -> tuple[int, tuple[int, int, int]]:
    """Fan-split a triangle at its centroid, creating a degree-3 vertex.

    Used to manufacture three-cycle configurations for tests and experiments.
    """
    a, b, c = mesh.triangles[tid]
    pa, pb, pc = mesh.vertices[a], mesh.vertices[b], mesh.vertices[c]
    g = mesh.add_vertex(
        (
            (pa[0] + pb[0] + pc[0]) / 3.0,
            (pa[1] + pb[1] + pc[1]) / 3.0,
            (pa[2] + pb[2] + pc[2]) / 3.0,
        )
    )
    mesh.kill_triangle(tid)
    t0 = mesh.add_triangle((a, b, g))
    t1 = mesh.add_triangle((b, c, g))
    t2 = mesh.add_triangle((c, a, g))
    return g, (t0, t1, t2)


# -- validation ------------------------------------------------------------


@dataclass
class ValidationReport:
    """Accumulated structural violations; empty means valid."""

    mode: str
    violations: list[tuple[str, str]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, code: str, detail: str) -> None:
        self.violations.append((code, detail))

    def count(self, code: str) -> int:
        return sum(1 for c, _ in self.violations if c == code)

    def __str__(self) -> str:
        if self.ok:
            return f"valid ({self.mode})"
        head = f"{len(self.violations)} violation(s) in {self.mode} mode"
        lines = [f"  [{code}] {detail}" for code, detail in self.violations[:12]]
        if len(self.violations) > 12:
            lines.append(f"  ... {len(self.violations) - 12} more")
        return "\n".join([head] + lines)


def validate(mesh: Mesh, mode: str = "closed") -> ValidationReport:
    """Check manifoldness, orientation consistency, and dual connectivity.

    `closed` mode additionally flags boundary (1-incident) edges. Degenerate
    and duplicate triangles are rejected at construction, not here.

    Vertex links are not checked, since that would cost every mesh a pass
    over its vertex fans: a pinched vertex, whose incident triangles form
    several fans, is accepted. `stripify` still returns a verified cycle for
    such a mesh; `merge_nodal` never toggles around that vertex, because
    `_fan_order` finds no single closed fan there.
    """
    if mode not in ("closed", "with_boundary"):
        raise ValueError(f"unknown validation mode {mode!r}")
    report = ValidationReport(mode=mode)
    if mesh.n_triangles == 0:
        report.add("empty", "mesh has no triangles")
        return report

    shared_pairs: dict[tuple[int, int], int] = {}
    for e, tris in mesh.edge_map.items():
        if len(tris) > 2:
            report.add("non_manifold", f"edge {e} has {len(tris)} incident triangles")
            continue
        if len(tris) == 1:
            if mode == "closed":
                report.add("open_edge", f"edge {e} is incident to only triangle {tris[0]}")
            continue
        t1, t2 = tris
        pair = (t1, t2) if t1 < t2 else (t2, t1)
        shared_pairs[pair] = shared_pairs.get(pair, 0) + 1
        # consistent orientation: the shared edge must run in opposite
        # directions in its two triangles
        a, b = e
        d1 = _edge_direction(mesh.triangles[t1], a, b)
        d2 = _edge_direction(mesh.triangles[t2], a, b)
        if d1 == d2:
            report.add("orientation", f"edge {e} has the same winding in triangles {t1} and {t2}")

    for (t1, t2), shared in shared_pairs.items():
        if shared > 1:
            report.add("double_adjacency", f"triangles {t1} and {t2} share {shared} edges")

    alive = mesh.alive_ids()
    seen = {alive[0]}
    queue = deque([alive[0]])
    while queue:
        t = queue.popleft()
        for e in mesh.triangle_edges(t):
            o = mesh.other_triangle(e, t)
            if o is not None and o not in seen:
                seen.add(o)
                queue.append(o)
    if len(seen) != len(alive):
        report.add(
            "disconnected_dual",
            f"dual graph has {len(alive) - len(seen)} triangle(s) unreachable from {alive[0]}",
        )
    return report


def _edge_direction(tri: tuple[int, int, int], a: int, b: int) -> int:
    """+1 if the triangle traverses a->b, -1 for b->a."""
    for i in range(3):
        if tri[i] == a and tri[(i + 1) % 3] == b:
            return 1
        if tri[i] == b and tri[(i + 1) % 3] == a:
            return -1
    raise MeshError(f"edge ({a}, {b}) not in triangle {tri}")


# -- dual graph -------------------------------------------------------------


@dataclass
class DualGraph:
    """Triangle adjacency graph: one node per live triangle, one edge per
    interior mesh edge, labelled with the shared edge key."""

    adjacency: dict[int, list[tuple[int, tuple[int, int]]]]

    @property
    def n(self) -> int:
        return len(self.adjacency)

    def nodes(self) -> list[int]:
        return list(self.adjacency)

    def degree(self, t: int) -> int:
        return len(self.adjacency[t])

    def neighbors(self, t: int) -> list[int]:
        return [n for n, _ in self.adjacency[t]]

    def edges(self) -> list[tuple[int, int, tuple[int, int]]]:
        """Each dual edge once, as (u, v, shared mesh edge) with u < v."""
        out = []
        for u, nbrs in self.adjacency.items():
            for v, e in nbrs:
                if u < v:
                    out.append((u, v, e))
        return out


def build_dual(mesh: Mesh) -> DualGraph:
    adjacency: dict[int, list[tuple[int, tuple[int, int]]]] = {}
    for t in mesh.alive_ids():
        nbrs = []
        for e in mesh.triangle_edges(t):
            o = mesh.other_triangle(e, t)
            if o is not None:
                nbrs.append((o, e))
        adjacency[t] = nbrs
    return DualGraph(adjacency=adjacency)
