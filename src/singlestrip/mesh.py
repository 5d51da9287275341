"""Triangle mesh core: indexed storage with stable triangle ids, a
dual-neighbour table, manifold validation, and midpoint splitting.

The table is the mesh's one adjacency: `build_dual` reads the dual graph
(triangle -> neighbouring triangles) straight off its rows, and
`shared_edge` recovers the mesh edge between two neighbours from a row.

Triangle ids are never reused. Removing a triangle leaves a dead slot and
subdivision appends fresh ids, so records built by the pipeline (matchings,
split records, removed configurations) stay valid across edits. The mesh is
edited only by row edits of the neighbour table: three-cycle elimination
and restoration, and `split_pair` on a pair its caller names.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from itertools import chain
from typing import NamedTuple

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


def _slot(tri: tuple[int, int, int], u: int, v: int) -> int:
    """The i with {tri[i], tri[i + 1 mod 3]} = {u, v}, or -1."""
    a, b, c = tri
    for i, (p, q) in enumerate(((a, b), (b, c), (c, a))):
        if (p == u and q == v) or (p == v and q == u):
            return i
    return -1


# -- array checks and the edge sort -------------------------------------------


def _point_array(vertices) -> np.ndarray:
    try:
        pts = np.asarray(vertices, dtype=float)
    except (TypeError, ValueError) as exc:
        raise MeshError("vertices must be (x, y, z) triples") from exc
    if pts.size == 0:
        return pts.reshape(0, 3)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise MeshError("vertices must be (x, y, z) triples")
    return pts


def _index_array(triangles, n: int) -> np.ndarray:
    """Triangles as an (m, 3) int64 array. An index is an integer (a Python
    or numpy int, or a bool) or a float with an integral value; a
    fractional, non-finite or non-numeric index, such as 2.7 or "2", is a
    MeshError. An integer array is cast as a whole. Indices beyond int64 are
    clipped to -1 or n: they are out of range either way, and the checks
    name the triangle from the caller's own values."""
    try:
        tri = np.asarray(triangles)
    except (TypeError, ValueError) as exc:
        raise MeshError("triangles must be vertex index triples") from exc
    if tri.size == 0:
        return np.zeros((0, 3), dtype=np.int64)
    if tri.ndim != 2 or tri.shape[1] != 3:
        raise MeshError("triangles must be vertex index triples")
    if tri.dtype.kind in "iub":
        return tri.astype(np.int64, copy=False)
    # floats, big ints (object or float arrays) and strings, one by one
    return np.array([[_index(v, n) for v in t] for t in triangles], dtype=np.int64)


def _index(v, n: int) -> int:
    """One vertex index given as any type, clipped to [-1, n]."""
    if isinstance(v, (float, np.floating)) and float(v).is_integer():
        v = int(v)
    try:
        i = operator.index(v)
    except TypeError:
        raise MeshError(f"vertex index {v!r} is not an integer") from None
    return min(max(i, -1), n)


def _check_triangles(tri: np.ndarray, n: int, source=None) -> None:
    """Raise MeshError for the first triangle that is out of range, repeats
    a vertex or has the vertex set of an earlier triangle, checked in that
    order. Duplicates are found by a lexicographic sort of the sorted
    triples, which no vertex count can overflow. `source` holds the
    caller's own triangles, for the message (default: `tri`)."""
    if not len(tri):
        return
    # each row in ascending order, by a three-element sorting network
    a, b, c = tri.T
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    s0, s1, s2 = np.minimum(lo, c), np.maximum(lo, np.minimum(hi, c)), np.maximum(hi, c)
    out = (s0 < 0) | (s2 >= n)
    repeated = (s0 == s1) | (s1 == s2)
    order = np.lexsort((s2, s1, s0))
    later, earlier = order[1:], order[:-1]
    same = (s0[later] == s0[earlier]) & (s1[later] == s1[earlier]) & (s2[later] == s2[earlier])
    duplicate = np.zeros(len(tri), dtype=bool)
    duplicate[later[same]] = True
    bad = out | repeated | duplicate
    if not bad.any():
        return
    i = int(bad.argmax())
    abc = tuple(int(v) for v in (tri if source is None else source)[i])
    if out[i]:
        raise MeshError(f"triangle {abc} references a vertex out of range (have {n})")
    if repeated[i]:
        raise MeshError(f"degenerate triangle with repeated vertex: {abc}")
    raise MeshError(f"duplicate triangle {abc}")


def _triangle_array(mesh: "Mesh", ids: list[int]) -> np.ndarray:
    tris = mesh.triangles
    flat = chain.from_iterable(tris[t] for t in ids)
    return np.fromiter(flat, dtype=np.int64, count=3 * len(ids)).reshape(-1, 3)


def _edge_sort(tri: np.ndarray, n: int):
    """Sort the 3m edge slots of an (m, 3) triangle array by undirected edge.

    Slot 3r + i is edge (tri[r, i], tri[r, i + 1 mod 3]). Returns (order,
    start, size, lo, hi): `order` lists the slots grouped by edge, each
    group in row order; group g occupies order[start[g] : start[g] +
    size[g]]; `lo` and `hi` are each slot's edge endpoints. The packed key
    lo * n + hi fits in int64 for any vertex count below 3e9.
    """
    u = tri.ravel()
    v = tri[:, [1, 2, 0]].ravel()
    lo = np.minimum(u, v)
    hi = np.maximum(u, v)
    order = np.argsort(lo * max(n, 1) + hi, kind="stable")
    ko_lo, ko_hi = lo[order], hi[order]
    head = np.ones(len(order), dtype=bool)
    head[1:] = (ko_lo[1:] != ko_lo[:-1]) | (ko_hi[1:] != ko_hi[:-1])
    start = np.flatnonzero(head)
    size = np.diff(np.append(start, len(order)))
    return order, start, size, lo, hi


def _first_others(order: np.ndarray, start: np.ndarray, size: np.ndarray) -> np.ndarray:
    """Per slot, the row across its edge: the group's first-listed row, or
    for that one the second, or -1 when it is alone."""
    first = np.repeat(start, size)
    pos = np.arange(len(order))
    other = np.where(pos == first, first + 1, first)
    across = order[np.minimum(other, len(order) - 1)] // 3
    across[np.repeat(size == 1, size)] = -1
    table = np.empty(len(order), dtype=np.int64)
    table[order] = across
    return table


class Mesh:
    """Indexed triangle mesh with a dual-neighbour table.

    `triangles[t]` keeps its vertex triple even after t is removed; `alive[t]`
    says whether the slot is live. `neighbours` is the dual-neighbour table,
    an (n, 3) table kept flat: `neighbours[3 * t + i]` is the live triangle
    across edge (tri[i], tri[i + 1 mod 3]) of live triangle t, or -1 on the
    boundary. Where more than two triangles share an edge, each lists the
    first of them, and the first lists the second, in the order they were
    last added or revived (the constructor adds in id order). Rows of dead
    triangles are stale. The edits assume that no edge they touch has more
    than two triangles.

    Vertex triples are stored counter-clockwise with respect to a consistent
    surface orientation (checked by `validate`, not by the constructor). The
    constructor rejects non-finite coordinates and triangles that are out of
    range, repeat a vertex or duplicate an earlier triangle; it builds the
    table with one sort of the edge slots. `vertices` and `triangles` may be
    sequences or arrays: a float64 vertex array and an integer triangle
    array (as the OFF/OBJ readers pass them) are checked and sorted as they
    are, without a round trip through Python lists. `neighbours`, when
    given, is taken as that table instead (as `compact` passes it) and is
    not checked.

    Edits go through `_append`, `_retire`, `_reinstate` and `_repoint`; each
    caller rewrites the rows on both sides of the edges it changes.
    """

    def __init__(self, vertices, triangles, neighbours=None):
        pts = _point_array(vertices)
        bad = ~np.isfinite(pts).all(axis=1)
        if bad.any():
            vid = int(bad.argmax())
            raise MeshError(f"vertex {vid} has a non-finite coordinate: {tuple(pts[vid].tolist())}")
        n = len(pts)
        if not isinstance(triangles, np.ndarray):
            triangles = list(triangles)
        tri = _index_array(triangles, n)
        _check_triangles(tri, n, triangles)
        m = len(tri)
        if neighbours is None:
            neighbours = _first_others(*_edge_sort(tri, n)[:3]).tolist()
        self.vertices: list[tuple[float, float, float]] = list(map(tuple, pts.tolist()))
        self.triangles: list[tuple[int, int, int]] = list(map(tuple, tri.tolist()))
        self.alive: list[bool] = [True] * m
        self.neighbours: list[int] = neighbours
        self._stamp: list[int] = list(range(m))  # when each triangle was last added or revived
        self._clock = m
        self._n_alive = m

    # -- counts ----------------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_triangles(self) -> int:
        """Number of live triangles."""
        return self._n_alive

    @property
    def n_edges(self) -> int:
        """Number of distinct edges of the live triangles."""
        ids = self.alive_ids()
        if not ids:
            return 0
        _order, start, *_ = _edge_sort(_triangle_array(self, ids), self.n_vertices)
        return len(start)

    def alive_ids(self) -> list[int]:
        return [t for t, a in enumerate(self.alive) if a]

    # -- edits -----------------------------------------------------------

    def add_vertex(self, point) -> int:
        self.vertices.append((float(point[0]), float(point[1]), float(point[2])))
        return len(self.vertices) - 1

    def _append(self, tri: tuple[int, int, int], row: list[int]) -> int:
        tid = len(self.triangles)
        self.triangles.append(tri)
        self.alive.append(True)
        self.neighbours += row
        self._stamp.append(self._clock)
        self._clock += 1
        self._n_alive += 1
        return tid

    def _retire(self, tid: int) -> None:
        self.alive[tid] = False
        self._n_alive -= 1

    def _reinstate(self, tid: int) -> None:
        self.alive[tid] = True
        self._stamp[tid] = self._clock
        self._clock += 1
        self._n_alive += 1

    def _repoint(self, tid: int, old: int, new: int) -> None:
        """In tid's row, replace neighbour `old` by `new`; -1 is left alone."""
        if tid >= 0:
            nb = self.neighbours
            nb[nb.index(old, 3 * tid, 3 * tid + 3)] = new

    # -- queries ---------------------------------------------------------

    def listing_order(self, tids) -> list[int]:
        """Triangle ids in the order they were last added or revived: the
        order in which an edge lists its triangles."""
        return sorted(tids, key=self._stamp.__getitem__)

    def boundary_edges(self) -> list[tuple[int, int]]:
        """Edges with one live triangle, by triangle id and then slot."""
        out = []
        nb, tris = self.neighbours, self.triangles
        for t in self.alive_ids():
            if -1 in nb[3 * t : 3 * t + 3]:
                a, b, c = tris[t]
                for i, e in enumerate(((a, b), (b, c), (c, a))):
                    if nb[3 * t + i] < 0:
                        out.append(edge_key(*e))
        return out

    # -- structure -------------------------------------------------------

    def copy(self) -> "Mesh":
        """Deep copy preserving triangle ids, dead slots and the table."""
        m = Mesh.__new__(Mesh)
        m.vertices = list(self.vertices)
        m.triangles = list(self.triangles)
        m.alive = list(self.alive)
        m.neighbours = list(self.neighbours)
        m._stamp = list(self._stamp)
        m._clock = self._clock
        m._n_alive = self._n_alive
        return m

    def compact(self) -> tuple["Mesh", dict[int, int]]:
        """Fresh mesh holding only live triangles, plus the old->new id map.
        The table's rows are renumbered, not rebuilt."""
        ids = self.alive_ids()
        renumber = np.full(len(self.triangles) + 1, -1)  # the last entry maps -1 to -1
        renumber[ids] = np.arange(len(ids))
        table = np.fromiter(self.neighbours, dtype=np.int64, count=len(self.neighbours))
        rows = renumber[table.reshape(-1, 3)[ids]].ravel().tolist()
        mesh = Mesh(self.vertices, [self.triangles[t] for t in ids], neighbours=rows)
        return mesh, {old: new for new, old in enumerate(ids)}


class SplitRecord(NamedTuple):
    """One midpoint split of an interior edge: two parents become four children.

    `children[0:2]` replace `parents[0]` and `children[2:4]` replace
    `parents[1]`; every child lies in its parent's supporting plane because
    its vertices are two parent vertices plus the edge midpoint.
    """

    edge: tuple[int, int]
    midpoint: int
    parents: tuple[int, int]
    children: tuple[int, int, int, int]


def split_pair(mesh: Mesh, e: tuple[int, int], pair: tuple[int, int]) -> SplitRecord:
    """Split the two triangles `pair` on edge e at its midpoint.

    Each parent (x, y, w), with {x, y} = e, becomes (x, m, w) and (m, y, w),
    preserving winding. The mesh gains one vertex and a net two triangles.
    The parents are taken in listing order. The children's rows are built
    from the parents' rows, and the parents' outer neighbours re-pointed, so
    no edge of either parent may have more than two triangles. A parent
    without edge e is rejected before the mesh is touched.
    """
    parents = mesh.listing_order(pair)
    a, b = e
    nb = mesh.neighbours
    halves = []
    for tid in parents:
        tri = mesh.triangles[tid]
        # rotate so the split edge is (tri[s], tri[s + 1])
        s = _slot(tri, a, b)
        if s < 0:
            raise MeshError(f"edge {e} not found in triangle {tid}")
        halves.append((tri[s], tri[(s + 1) % 3], tri[(s + 2) % 3],
                       nb[3 * tid + (s + 1) % 3], nb[3 * tid + (s + 2) % 3]))
    pa = mesh.vertices[a]
    pb = mesh.vertices[b]
    mid = mesh.add_vertex(((pa[0] + pb[0]) / 2.0, (pa[1] + pb[1]) / 2.0, (pa[2] + pb[2]) / 2.0))
    first = len(mesh.triangles)
    children = (first, first + 1, first + 2, first + 3)
    for k, (tid, (x, y, w, n_yw, n_wx)) in enumerate(zip(parents, halves)):
        mesh._retire(tid)
        c0, c1 = children[2 * k], children[2 * k + 1]
        # the other parent's child on the half-edge (x, m) is the one holding x
        ox = halves[1 - k][0]
        across_x, across_y = (children[2 - 2 * k], children[3 - 2 * k])
        if ox != x:
            across_x, across_y = across_y, across_x
        mesh._append((x, mid, w), [across_x, c1, n_wx])
        mesh._append((mid, y, w), [across_y, n_yw, c0])
        mesh._repoint(n_wx, tid, c0)
        mesh._repoint(n_yw, tid, c1)
    return SplitRecord(edge=e, midpoint=mid, parents=(parents[0], parents[1]), children=children)


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

    One sort of the live triangles' edge slots groups them by edge. Edges
    are reported in the order of their first slot, by triangle id and then
    position in the triangle, and the triangles on an edge in listing order.
    Connectivity is a search over the rows of the neighbour table from the
    smallest live id. No two triangles can share two edges, as they would
    share all three vertices: the constructor rejects duplicates; split
    children hold a fresh midpoint; and an elimination ring (a, b, c) could
    only duplicate a live triangle on the tetrahedron, whose four triangles
    elimination never reduces.

    Vertex links are not checked, since that would cost every mesh a pass
    over its vertex fans: a pinched vertex, whose incident triangles form
    several fans, is accepted. `stripify` still returns a verified cycle for
    such a mesh; `merge_nodal` never toggles around that vertex, because the
    fan walk from its smallest triangle closes before it has met every
    triangle on the vertex.
    """
    if mode not in ("closed", "with_boundary"):
        raise ValueError(f"unknown validation mode {mode!r}")
    report = ValidationReport(mode=mode)
    live = mesh.alive_ids()
    if not live:
        report.add("empty", "mesh has no triangles")
        return report

    rows = np.array(mesh.listing_order(live))
    tri = _triangle_array(mesh, rows.tolist())
    order, start, size, lo, hi = _edge_sort(tri, mesh.n_vertices)
    member = rows[order // 3]
    # each group's rank: its first slot by triangle id, then position
    id_slot = 3 * member + order % 3
    groups = np.argsort(np.minimum.reduceat(id_slot, start))
    second = np.minimum(start + 1, len(order) - 1)  # read only where size > 1
    t1, t2 = member[start], member[second]
    forward = tri.ravel() < tri[:, [1, 2, 0]].ravel()  # slot runs from lo to hi
    same_winding = (size == 2) & (forward[order[start]] == forward[order[second]])
    flagged = (size > 2) | same_winding | ((size == 1) & (mode == "closed"))
    for g in groups[flagged[groups]].tolist():
        s = order[start[g]]
        e = (int(lo[s]), int(hi[s]))
        if size[g] > 2:
            report.add("non_manifold", f"edge {e} has {size[g]} incident triangles")
        elif size[g] == 1:
            report.add("open_edge", f"edge {e} is incident to only triangle {t1[g]}")
        else:
            report.add("orientation", f"edge {e} has the same winding in triangles {t1[g]} and {t2[g]}")

    nb = mesh.neighbours
    seen = bytearray(len(mesh.triangles) + 1)
    seen[-1] = 1  # a boundary slot's -1 reads as seen
    seen[live[0]] = 1
    stack = [live[0]]
    while stack:
        t = 3 * stack.pop()
        for o in (nb[t], nb[t + 1], nb[t + 2]):
            if not seen[o]:
                seen[o] = 1
                stack.append(o)
    reached = sum(seen) - 1
    if reached != len(live):
        report.add(
            "disconnected_dual",
            f"dual graph has {len(live) - reached} triangle(s) unreachable from {live[0]}",
        )
    return report


# -- dual graph -------------------------------------------------------------


def build_dual(mesh: Mesh) -> dict[int, list[int]]:
    """The dual graph read off the neighbour table: each live triangle maps
    to its live neighbours in slot order, one per interior edge. The mapping
    is symmetric; `shared_edge` names the mesh edge behind a dual edge."""
    nb = mesh.neighbours
    dual = {}
    for t in mesh.alive_ids():
        row = nb[3 * t : 3 * t + 3]
        if -1 in row:
            row = [o for o in row if o >= 0]
        dual[t] = row
    return dual


def shared_edge(mesh: Mesh, t: int, u: int) -> tuple[int, int]:
    """Key of the edge of live triangle t across which u lies in t's row."""
    i = mesh.neighbours.index(u, 3 * t, 3 * t + 3) - 3 * t
    tri = mesh.triangles[t]
    return edge_key(tri[i], tri[(i + 1) % 3])
