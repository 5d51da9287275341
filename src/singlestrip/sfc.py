"""Space-filling curves over a directed Hamiltonian triangle cycle.

Each triangle is entered and left at the midpoints of its strip edges. At
depth 0 the curve visits the centroid between them; deeper levels split every
cell at its edge midpoints into four half-size cells and thread them so that
consecutive cells connect at the midpoint of a shared edge, or at a shared
vertex where two corner cells meet only in a point. Every depth-d cell
contributes its centroid, so the curve comes within one cell diameter (2^-d
of the triangle's) of every surface point.

A cell (a, b, c) has six boundary labels: the corners a, b, c and the edge
midpoints ab, bc, ca. How a cell is threaded depends only on its state, the
pair (entry label, exit label), because midpoint subdivision is affine: which
sub-cells touch, and where, is the same in every non-degenerate triangle.
The threading table is derived once, at import, on integer positions of a
reference triangle. For each of the 30 states it holds the order of the four
sub-cells and their four states. `generate_curve` then subdivides the cells
of all triangles at once, one level at a time, with numpy. The children of a
cell stay contiguous, so the flat cell array is always in depth-first curve
order. The float steps are those of a per-cell recursion: midpoints as
(p + q) / 2, centroids as (a + b + c) / 3, and each exit point read off its
leaf cell by its label.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import permutations
from pathlib import Path

import numpy as np

from .mesh import Mesh, edge_key

MAX_DEPTH = 12
# Largest curve generate_curve will build: 2**23 points are 192 MiB as float64
# and several times that as the tuples of CurvePolyline.points.
MAX_POINTS = 1 << 23

Point = tuple[float, float, float]


class CurveError(Exception):
    """Invalid directed cycle or curve request."""


@dataclass
class DirectedCycle:
    """Per-triangle (entry edge, exit edge) chain along the cycle direction."""

    triangles: list[int]
    entry: list[tuple[int, int]]
    exit: list[tuple[int, int]]

    def __len__(self) -> int:
        return len(self.triangles)

    def reversed(self) -> "DirectedCycle":
        ids = [self.triangles[0]] + self.triangles[:0:-1]
        ent = [self.exit[0]] + self.exit[:0:-1]
        ext = [self.entry[0]] + self.entry[:0:-1]
        return DirectedCycle(triangles=ids, entry=ent, exit=ext)


@dataclass
class CurvePolyline:
    points: list[Point]
    closed: bool


def direct_cycle(mesh: Mesh, cycle: list[int]) -> DirectedCycle:
    """Chain the cycle's shared edges into per-triangle entry/exit pairs."""
    k = len(cycle)
    if k < 3:
        raise CurveError(f"cycle of {k} triangles cannot be directed")
    shared = []
    for i in range(k):
        t1, t2 = cycle[i], cycle[(i + 1) % k]
        common = set(mesh.triangles[t1]) & set(mesh.triangles[t2])
        if len(common) != 2:
            raise CurveError(f"consecutive triangles {t1} and {t2} share no edge")
        a, b = common
        shared.append(edge_key(a, b))
    entry = [shared[i - 1] for i in range(k)]
    for i in range(k):
        if entry[i] == shared[i]:
            raise CurveError(f"triangle {cycle[i]} enters and exits by the same edge")
    return DirectedCycle(triangles=list(cycle), entry=entry, exit=shared)


# boundary labels of a cell (a, b, c): corners a, b, c, then midpoints ab, bc,
# ca; each label is the midpoint of two cell vertices (a corner of itself)
_LABEL_ENDS = ((0, 0), (1, 1), (2, 2), (0, 1), (1, 2), (2, 0))
# a cell's state: (entry label, exit label)
STATES = tuple((i, o) for i in range(6) for o in range(6) if i != o)
_STATE_INDEX = {s: k for k, s in enumerate(STATES)}
# the four sub-cells as vertex triples of parent labels: the corner cells at
# a, b and c, then the centre cell
_CHILDREN = ((0, 3, 5), (1, 4, 3), (2, 5, 4), (3, 4, 5))
# try corner, center, corner, corner threadings first: that is the regular
# pattern; other orders only occur where a connector would degenerate
_PERM_ORDER = sorted(permutations(range(4)), key=lambda p: (p.index(3) != 1, p))


def _threading_table() -> tuple[np.ndarray, np.ndarray]:
    """Per state, the sub-cell order and the sub-cell states, shape (30, 4) each.

    Positions are integer barycentric coordinates on a reference triangle
    scaled by 4, so every label of every sub-cell is exact. Per state the
    first order in `_PERM_ORDER` wins whose first cell holds the entry point,
    whose last cell holds the exit point, and whose waypoints (entry, the
    three connectors, exit) are five distinct points.
    """

    def mid(p, q):
        return tuple((x + y) // 2 for x, y in zip(p, q))

    def labels(cell):
        return [mid(cell[u], cell[v]) for u, v in _LABEL_ENDS]

    def touch(c1, c2):
        # every two sub-cells touch: the centre and a corner cell in an
        # edge, two corner cells in a vertex
        common = [p for p in c1 if p in c2]
        return mid(*common) if len(common) == 2 else common[0]

    parent = labels(((4, 0, 0), (0, 4, 0), (0, 0, 4)))
    cells = [tuple(parent[i] for i in child) for child in _CHILDREN]
    order, child_states = [], []
    for entry, exit_ in STATES:
        for perm in _PERM_ORDER:
            seq = [cells[i] for i in perm]
            seq_labels = [labels(cell) for cell in seq]
            if parent[entry] not in seq_labels[0] or parent[exit_] not in seq_labels[3]:
                continue
            waypoints = [parent[entry], *(touch(seq[k], seq[k + 1]) for k in range(3)), parent[exit_]]
            if len(set(waypoints)) == 5:
                break
        else:
            raise AssertionError(f"state {(entry, exit_)} has no threading")
        order.append(perm)
        child_states.append(
            [
                _STATE_INDEX[seq_labels[k].index(waypoints[k]), seq_labels[k].index(waypoints[k + 1])]
                for k in range(4)
            ]
        )
    return np.array(order), np.array(child_states)


_ORDER, _CHILD_STATE = _threading_table()
# per state, the parent labels of its children's vertices in curve order
_CHILD_VERTICES = np.array(_CHILDREN)[_ORDER]
_EXIT_ENDS = np.array([_LABEL_ENDS[o] for _, o in STATES])


def _edge_label(tri: tuple[int, int, int], e: tuple[int, int]) -> int | None:
    a, b, c = tri
    return {frozenset((a, b)): 3, frozenset((b, c)): 4, frozenset((c, a)): 5}.get(frozenset(e))


def _curve_points(cells: np.ndarray, states: np.ndarray, depth: int) -> np.ndarray:
    """Curve points of cells (m, 3, 3) in given states, shape (2 * m * 4**depth, 3).

    Per leaf cell, in curve order: its centroid, then its exit point.
    """
    for _ in range(depth):
        a, b, c = cells[:, 0], cells[:, 1], cells[:, 2]
        points = np.stack((a, b, c, (a + b) / 2, (b + c) / 2, (c + a) / 2), axis=1)
        rows = np.arange(len(cells))[:, None, None]
        cells = points[rows, _CHILD_VERTICES[states]].reshape(-1, 3, 3)
        states = _CHILD_STATE[states].ravel()
    rows = np.arange(len(cells))
    ends = _EXIT_ENDS[states]
    p, q = cells[rows, ends[:, 0]], cells[rows, ends[:, 1]]
    out = np.empty((len(cells), 2, 3))
    out[:, 0] = (cells[:, 0] + cells[:, 1] + cells[:, 2]) / 3
    out[:, 1] = np.where((ends[:, 0] == ends[:, 1])[:, None], p, (p + q) / 2)
    return out.reshape(-1, 3)


def generate_curve(mesh: Mesh, dc: DirectedCycle, depth: int) -> CurvePolyline:
    """Closed polyline threading every triangle of the directed cycle.

    Point count is exactly len(dc) * 2 * 4**depth: each depth-`depth` cell
    contributes its centroid and its exit connector, entries being shared.
    """
    if depth < 0:
        raise CurveError("depth must be >= 0")
    if depth > MAX_DEPTH:
        raise CurveError(f"depth {depth} exceeds the guard of {MAX_DEPTH}")
    n_points = len(dc) * 2 * 4**depth
    if n_points > MAX_POINTS:
        raise CurveError(
            f"a depth-{depth} curve through {len(dc)} triangles needs {n_points} points,"
            f" over the budget of {MAX_POINTS}"
        )
    tris = [mesh.triangles[t] for t in dc.triangles]
    states = []
    for t, tri, e_in, e_out in zip(dc.triangles, tris, dc.entry, dc.exit):
        entry, exit_ = _edge_label(tri, e_in), _edge_label(tri, e_out)
        if entry is None or exit_ is None:
            raise CurveError(f"entry {e_in} or exit {e_out} is not an edge of triangle {t}")
        if entry == exit_:
            raise CurveError(f"triangle {t} enters and exits by the same edge")
        states.append(_STATE_INDEX[entry, exit_])
    cells = np.asarray(mesh.vertices, dtype=float)[np.array(tris, dtype=np.intp).reshape(-1, 3)]
    pts = _curve_points(cells, np.array(states, dtype=np.intp), depth)
    return CurvePolyline(points=list(zip(*(pts[:, k].tolist() for k in range(3)))), closed=True)


# -- export -------------------------------------------------------------------

_CHUNK = 1 << 15


def _export_points(curve: CurvePolyline) -> list[Point]:
    points = _dedupe(curve.points)
    if not points:
        raise CurveError("cannot export an empty curve")
    return points


def _obj_chunks(points: list[Point], closed: bool):
    """OBJ text in pieces: one vertex line per point, then one line element."""
    for i in range(0, len(points), _CHUNK):
        yield "".join([f"v {x!r} {y!r} {z!r}\n" for x, y, z in points[i : i + _CHUNK]])
    n = len(points)
    for i in range(1, n + 1, _CHUNK):
        yield ("l " if i == 1 else " ") + " ".join(map(str, range(i, min(i + _CHUNK, n + 1))))
    yield " 1\n" if closed else "\n"


def dumps_curve_obj(curve: CurvePolyline) -> str:
    return "".join(_obj_chunks(_export_points(curve), curve.closed))


def dumps_curve_json(curve: CurvePolyline) -> str:
    points = _export_points(curve)
    return json.dumps({"closed": curve.closed, "points": [list(p) for p in points]})


def export_curve(curve: CurvePolyline, path, fmt: str | None = None) -> None:
    """Write the polyline as an OBJ line element or a JSON point array."""
    path = Path(path)
    if fmt is None:
        fmt = path.suffix.lstrip(".").lower()
    fmt = fmt.lower()
    if fmt == "obj":
        points = _export_points(curve)
        with path.open("w") as f:
            f.writelines(_obj_chunks(points, curve.closed))
    elif fmt == "json":
        path.write_text(dumps_curve_json(curve))
    else:
        raise CurveError(f"unknown curve format {fmt!r}")


def load_curve_json(path) -> CurvePolyline:
    data = json.loads(Path(path).read_text())
    return CurvePolyline(points=[tuple(p) for p in data["points"]], closed=data["closed"])


def _dedupe(points: list[Point]) -> list[Point]:
    out: list[Point] = []
    for p in points:
        if not out or out[-1] != p:
            out.append(p)
    return out
