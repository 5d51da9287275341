"""Triangle mesh core: indexed storage with stable triangle ids, a
dual-neighbour table, manifold validation, and midpoint splitting.

The table is the mesh's one adjacency: the open path's tree, the closed
path's blossom and its seed check, and the cycle walks read its rows in
place, and `shared_edge` recovers the mesh edge between two neighbours from
a row. `build_dual` copies the rows into the neighbour sets that the greedy
phase of matching consumes, its one reader, filling each set in slot order.
The constructor's one sort of the edge slots builds the table and also
flags the edges that `check_edges` reports, so a mesh as loaded is
validated without a second sort.

Triangle ids are never reused. Removing a triangle leaves a dead slot and
subdivision appends fresh ids, so ids the pipeline holds (the matching's
partner list, indexed by triangle id, removed configurations, split pairs)
stay valid across edits. The mesh is edited only by row edits of the
neighbour table: three-cycle elimination and restoration, and `split_pair`
on a pair its caller names.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from itertools import chain, compress

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
    triples, which no vertex count can overflow. That sort runs only when a
    sort of the triples packed into one int64 each finds two equal: equal
    triples pack alike, even where the packing wraps, and below 2**21
    vertices distinct ones never do. `source` holds the caller's own
    triangles, for the message (default: `tri`)."""
    if not len(tri):
        return
    # each row in ascending order, by a three-element sorting network
    a, b, c = tri.T
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    s0, s1, s2 = np.minimum(lo, c), np.maximum(lo, np.minimum(hi, c)), np.maximum(hi, c)
    out = (s0 < 0) | (s2 >= n)
    repeated = (s0 == s1) | (s1 == s2)
    duplicate = np.zeros(len(tri), dtype=bool)
    packed = np.sort((s0 * n + s1) * n + s2)
    if (packed[1:] == packed[:-1]).any():
        order = np.lexsort((s2, s1, s0))
        later, earlier = order[1:], order[:-1]
        same = (s0[later] == s0[earlier]) & (s1[later] == s1[earlier]) & (s2[later] == s2[earlier])
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


def _ints(values: list[int]) -> np.ndarray:
    """A list of ints as an int64 array, read by numpy's iterator reader,
    which is faster on a list than `np.array`."""
    return np.fromiter(values, dtype=np.int64, count=len(values))


def _flags(values: list[bool]) -> np.ndarray:
    """A list of bools as a read-only bool array, by one copy of its bytes."""
    return np.frombuffer(bytes(values), dtype=bool)


def _triangle_array(triangles, m: int) -> np.ndarray:
    """The first m vertex triples that `triangles` yields, as an (m, 3)
    array."""
    flat = chain.from_iterable(triangles)
    return np.fromiter(flat, dtype=np.int64, count=3 * m).reshape(-1, 3)


def _live_triangles(mesh: "Mesh") -> np.ndarray:
    """The live triangles' vertex triples as an array, in id order."""
    return _triangle_array(compress(mesh.triangles, mesh.alive), mesh.n_triangles)


def _slot_edges(tri: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per edge slot of an (m, 3) triangle array, slot 3r + i being edge
    (tri[r, i], tri[r, i + 1 mod 3]): its endpoints lo < hi. The packed key
    lo * n + hi fits in int64 for any vertex count n below 3e9."""
    u = tri.ravel()
    v = tri[:, [1, 2, 0]].ravel()
    return np.minimum(u, v), np.maximum(u, v)


def _edge_sort(tri: np.ndarray, n: int):
    """Sort the 3m edge slots of an (m, 3) triangle array by undirected edge.

    Slot 3r + i is edge (tri[r, i], tri[r, i + 1 mod 3]). Returns (order,
    start, size, lo, hi): `order` lists the slots grouped by edge, each
    group in row order; group g occupies order[start[g] : start[g] +
    size[g]]; `lo` and `hi` are `_slot_edges`' endpoints of each slot.

    The packed keys are sorted by numpy's unstable sort, about twice as fast
    as the stable sort here, and each group's slots are then put back in
    slot order: a pair by one swap, a larger group by a sort of its slots.
    The result is the stable sort's.
    """
    lo, hi = _slot_edges(tri)
    order = np.argsort(lo * max(n, 1) + hi)
    ko_lo, ko_hi = lo[order], hi[order]
    head = np.ones(len(order), dtype=bool)
    head[1:] = (ko_lo[1:] != ko_lo[:-1]) | (ko_hi[1:] != ko_hi[:-1])
    start = np.flatnonzero(head)
    size = np.diff(np.append(start, len(order)))
    pair = start[size == 2]
    a, b = order[pair], order[pair + 1]
    swap = a > b
    order[pair[swap]], order[pair[swap] + 1] = b[swap], a[swap]
    big = np.flatnonzero(size > 2)
    if len(big):
        n_big = size[big]
        at = np.repeat(start[big] - np.cumsum(n_big) + n_big, n_big) + np.arange(n_big.sum())
        slots = order[at]
        order[at] = slots[np.lexsort((slots, np.repeat(big, n_big)))]
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


def _flag_edges(tri: np.ndarray, order, start, size, lo, hi):
    """The edge groups of `_edge_sort(tri, n)` that validation flags: more
    than two triangles, two triangles that wind the edge the same way, and
    one triangle (an open edge, an error only in `closed` mode).

    Returns arrays (size, lo, hi, r1, r2) with one entry per flagged group,
    in the order of the group's first slot: its size, its edge, and the
    rows of its first two slots (r2 means something only where size is 2).
    """
    second = np.minimum(start + 1, len(order) - 1)  # read only where size > 1
    first_slot, second_slot = order[start], order[second]
    forward = tri.ravel() < tri[:, [1, 2, 0]].ravel()  # slot runs from lo to hi
    same_winding = (size == 2) & (forward[first_slot] == forward[second_slot])
    groups = np.flatnonzero((size != 2) | same_winding)
    groups = groups[np.argsort(first_slot[groups])]
    s = first_slot[groups]
    return size[groups], lo[s], hi[s], s // 3, second_slot[groups] // 3


def _table(tri: np.ndarray, n: int):
    """The dual-neighbour table of an (m, 3) all-live triangle array, and
    the groups `_flag_edges` flags, from one sort of its edge slots."""
    order, start, size, lo, hi = _edge_sort(tri, n)
    return _first_others(order, start, size).tolist(), _flag_edges(tri, order, start, size, lo, hi)


class Mesh:
    """Indexed triangle mesh with a dual-neighbour table.

    `triangles[t]` keeps its vertex triple even after t is removed; `alive[t]`
    says whether the slot is live. `neighbours` is the dual-neighbour table,
    an (n, 3) table kept flat: `neighbours[3 * t + i]` is the live triangle
    across edge (tri[i], tri[i + 1 mod 3]) of live triangle t, or -1 on the
    boundary. Where more than two triangles share an edge, each lists the
    first of them by id, and the first lists the second. Rows of dead
    triangles are stale. The edits assume that no edge they touch has more
    than two triangles.

    Vertex triples are stored counter-clockwise with respect to a consistent
    surface orientation (checked by `validate`, not by the constructor). The
    constructor rejects non-finite coordinates and triangles that are out of
    range, repeat a vertex or duplicate an earlier triangle. One sort of the
    edge slots builds both the table and the edge checks: the constructor
    keeps the edge groups `check_edges` may report (open, non-manifold and
    same-winding edges) and not the sort. `vertices` and `triangles` may be
    sequences or arrays: a float64 vertex array and an integer triangle
    array (as the OFF/OBJ readers pass them) are checked and sorted as they
    are, without a round trip through Python lists.

    The constructor is for data from outside: readers, generators and
    callers. Lists the pipeline made itself (`compact`, `euler_strip`) go
    through `_built`, which checks nothing and converts nothing, and whose
    table is sorted on the first read of `neighbours`.

    Edits go through `_append`, `_retire`, `_reinstate` and `_repoint`; each
    caller rewrites the rows on both sides of the edges it changes. Each of
    them drops the kept edge groups, as does `copy`, and a `_built` mesh
    holds none, so `check_edges` sorts such a mesh's live triangles again.
    """

    def __init__(self, vertices, triangles):
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
        table, flagged = _table(tri, n)
        self._fill(list(map(tuple, pts.tolist())), list(map(tuple, tri.tolist())), table)
        self._flagged = flagged

    @classmethod
    def _built(cls, vertices, triangles) -> "Mesh":
        """A mesh of all-live triangles that holds the given lists as they
        are, with no checks and no round trip through numpy. Only for lists
        the pipeline made itself: `vertices` as tuples of floats, and
        `triangles` as tuples of in-range ids, no vertex repeated and no
        triangle duplicated. Its table is sorted on the first read of
        `neighbours`, as the constructor sorts it."""
        mesh = cls.__new__(cls)
        mesh._fill(vertices, triangles, None)
        return mesh

    def _fill(self, vertices, triangles, neighbours) -> None:
        m = len(triangles)
        self.vertices: list[tuple[float, float, float]] = vertices
        self.triangles: list[tuple[int, int, int]] = triangles
        self.alive: list[bool] = [True] * m
        self._neighbours: list[int] | None = neighbours  # None: not sorted yet
        self._n_alive = m
        # `_flag_edges`' groups of the triangles as constructed; None once
        # edited, and on copies and `_built` meshes
        self._flagged = None

    @property
    def neighbours(self) -> list[int]:
        """The dual-neighbour table. A `_built` mesh sorts it on the first
        read, from its triangles as built: until then no edit may change
        `triangles`, and `_append` reads the table before it appends."""
        if self._neighbours is None:
            tri = _triangle_array(self.triangles, len(self.triangles))
            self._neighbours = _table(tri, self.n_vertices)[0]
        return self._neighbours

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
        """Number of distinct edges of the live triangles. Once the table is
        sorted, these are the live slots across which it holds -1 or a
        larger id: of the triangles on an edge only the first by id lists a
        larger one. A `_built` mesh whose table is not sorted yet counts the
        distinct edge keys of its live triangles instead, by one sort (here
        several times faster than `np.unique`), and leaves the table
        unsorted."""
        if self._neighbours is None:
            lo, hi = _slot_edges(_live_triangles(self))
            key = np.sort(lo * max(self.n_vertices, 1) + hi)
            return int(np.count_nonzero(key[1:] != key[:-1])) + (len(key) > 0)
        nb = _ints(self._neighbours).reshape(-1, 3)
        first = (nb < 0) | (nb > np.arange(len(nb))[:, None])
        return int(np.count_nonzero(first[_flags(self.alive)]))

    def alive_ids(self) -> list[int]:
        return list(compress(range(len(self.alive)), self.alive))

    # -- edits -----------------------------------------------------------

    def add_vertex(self, point) -> int:
        self.vertices.append((float(point[0]), float(point[1]), float(point[2])))
        return len(self.vertices) - 1

    def _append(self, tri: tuple[int, int, int], row: list[int]) -> int:
        nb = self.neighbours
        tid = len(self.triangles)
        self.triangles.append(tri)
        self.alive.append(True)
        nb += row
        self._n_alive += 1
        self._flagged = None
        return tid

    def _retire(self, tid: int) -> None:
        self.alive[tid] = False
        self._n_alive -= 1
        self._flagged = None

    def _reinstate(self, tid: int) -> None:
        self.alive[tid] = True
        self._n_alive += 1
        self._flagged = None

    def _repoint(self, tid: int, old: int, new: int) -> None:
        """In tid's row, replace neighbour `old` by `new`; -1 is left alone."""
        self._flagged = None
        if tid >= 0:
            nb = self.neighbours
            nb[nb.index(old, 3 * tid, 3 * tid + 3)] = new

    # -- queries ---------------------------------------------------------

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
        m._neighbours = list(self.neighbours)
        m._n_alive = self._n_alive
        m._flagged = None
        return m

    def compact(self) -> tuple["Mesh", dict[int, int]]:
        """Fresh mesh holding only live triangles, plus the old->new id map.
        Its table is sorted on its first read."""
        ids = self.alive_ids()
        mesh = Mesh._built(list(self.vertices), list(compress(self.triangles, self.alive)))
        return mesh, dict(zip(ids, range(len(ids))))


def split_pair(mesh: Mesh, e: tuple[int, int], pair: tuple[int, int]) -> tuple[int, int, int, int]:
    """Split the two triangles `pair` on edge e at its midpoint, appended as
    the mesh's last vertex; returns the four children's ids.

    Each parent (x, y, w), with {x, y} = e, becomes (x, m, w) and (m, y, w),
    preserving winding, so every child lies in its parent's plane. The mesh
    gains one vertex and a net two triangles. The parents are taken in id
    order: children[0:2] replace the first and children[2:4] the second.
    The children's rows are built from the parents' rows, and the parents'
    outer neighbours re-pointed, so no edge of either parent may have more
    than two triangles. A parent without edge e is rejected before the mesh
    is touched.
    """
    parents = sorted(pair)
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
    return children


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
    """Check manifoldness, orientation consistency, and dual connectivity:
    the report of `check_edges` (no sort on a mesh as constructed, one on an
    edited mesh), plus a `disconnected_dual` violation when a non-empty
    mesh's dual is not connected, found by a search over the table rows.

    `closed` mode additionally flags boundary (1-incident) edges. Degenerate
    and duplicate triangles are rejected at construction, not here.

    Vertex links are not checked, since that would cost every mesh a pass
    over its vertex fans: a pinched vertex, whose incident triangles form
    several fans, is accepted. `stripify` still returns a verified cycle for
    such a mesh; `merge_nodal` never toggles around that vertex, because the
    fan walk from its smallest triangle closes before it has met every
    triangle on the vertex.
    """
    report = check_edges(mesh, mode)
    if not mesh.n_triangles:
        return report

    # Connectivity is a search over the rows of the neighbour table from the
    # smallest live id. No two triangles can share two edges, as they would
    # share all three vertices: the constructor rejects duplicates; split
    # children hold a fresh midpoint; and an elimination ring (a, b, c) could
    # only duplicate a live triangle on the tetrahedron, whose four triangles
    # elimination never reduces.
    nb = mesh.neighbours
    first = mesh.alive.index(True)
    seen = bytearray(len(mesh.triangles) + 1)
    seen[-1] = 1  # a boundary slot's -1 reads as seen
    seen[first] = 1
    stack = [first]
    while stack:
        t = 3 * stack.pop()
        for o in (nb[t], nb[t + 1], nb[t + 2]):
            if not seen[o]:
                seen[o] = 1
                stack.append(o)
    reached = sum(seen) - 1
    if reached != mesh.n_triangles:
        report.add(
            "disconnected_dual",
            f"dual graph has {mesh.n_triangles - reached} triangle(s) unreachable from {first}",
        )
    return report


def check_edges(mesh: Mesh, mode: str) -> ValidationReport:
    """`validate`'s report without the connectivity check: an empty mesh,
    edges with more than two triangles, edges wound the same way by both
    of theirs and, in `closed` mode, boundary edges.

    A mesh as constructed is reported from the edge groups its
    constructor's sort flagged, with no sort here; an edited mesh, a copy
    or a `_built` mesh gets one sort of its live triangles' edge slots.
    Edges are reported in the order of their first slot, by triangle id and
    then position in the triangle, and the triangles on an edge by id.
    """
    if mode not in ("closed", "with_boundary"):
        raise ValueError(f"unknown validation mode {mode!r}")
    report = ValidationReport(mode=mode)
    if not mesh.n_triangles:
        report.add("empty", "mesh has no triangles")
        return report

    flagged = mesh._flagged
    if flagged is None:
        tri = _live_triangles(mesh)
        size, lo, hi, r1, r2 = _flag_edges(tri, *_edge_sort(tri, mesh.n_vertices))
        rows = np.flatnonzero(_flags(mesh.alive))
        flagged = size, lo, hi, rows[r1], rows[r2]
    if mode != "closed":
        keep = flagged[0] != 1
        flagged = [x[keep] for x in flagged]
    for k, a, b, t1, t2 in zip(*(x.tolist() for x in flagged)):
        e = (a, b)
        if k > 2:
            report.add("non_manifold", f"edge {e} has {k} incident triangles")
        elif k == 1:
            report.add("open_edge", f"edge {e} is incident to only triangle {t1}")
        else:
            report.add("orientation", f"edge {e} has the same winding in triangles {t1} and {t2}")
    return report


# -- dual graph -------------------------------------------------------------


def build_dual(mesh: Mesh) -> dict[int, set[int]]:
    """The dual graph read off the neighbour table: each live triangle maps
    to the set of its live neighbours, one per interior edge. The mapping is
    symmetric; `shared_edge` names the mesh edge behind a dual edge. Its one
    reader, the greedy phase of matching, consumes it.

    Each set is filled in its row's slot order, and that order is part of
    the greedy's output: CPython iterates a set of ints in an order that
    depends on the order they went in, and the reductions queue nodes in the
    order they iterate these sets. Sets filled from sorted rows give another
    matching on larger meshes, such as torus(300,160). The rows are read as
    triples off one iterator of the table, the live ones picked by `alive`,
    so no slice of the table is made. A row holding -1 gets the set of its
    other entries, -1 never inserted: a set that held -1 would keep the
    other entries where the -1 had pushed them.
    """
    it = iter(mesh.neighbours)
    rows = compress(zip(it, it, it), mesh.alive)
    return {
        t: {o for o in row if o >= 0} if -1 in row else set(row)
        for t, row in zip(mesh.alive_ids(), rows)
    }


def shared_edge(mesh: Mesh, t: int, u: int) -> tuple[int, int]:
    """Key of the edge of live triangle t across which u lies in t's row."""
    i = mesh.neighbours.index(u, 3 * t, 3 * t + 3) - 3 * t
    tri = mesh.triangles[t]
    return edge_key(tri[i], tri[(i + 1) % 3])
