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
of consecutive triangles in batches of about `_LEAF_BATCH` leaf cells, one
level at a time, with numpy, and writes each batch's points into its slice
of one preallocated array. The children of a cell stay contiguous, so the
flat cell array is always in depth-first curve order. The float steps are
those of a per-cell recursion: midpoints as (p + q) / 2, centroids as
(a + b + c) / 3, and each exit point read off its leaf cell by its label, so
no point depends on its batch. Deeper than one batch per triangle, the top
levels of all triangles are subdivided first and their cells are batched
the same way. The points stay one (N, 3) float64 array from
`generate_curve` through export, which copies it only to drop repeated
points and writes its vertex text with `fileio._vertex_lines`, in chunks that
format each distinct coordinate once. The OBJ line element's indices are
written as ASCII digits from fixed-width numpy blocks, one block per run of
indices with the same number of digits.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import permutations
from pathlib import Path

import numpy as np

from .fileio import _vertex_lines
from .mesh import Mesh, _slot, edge_key

MAX_DEPTH = 12
# Largest curve generate_curve will build: 2**23 points are 192 MiB as the
# float64 array of CurvePolyline.points. The generation's temporaries are
# bounded by one batch of _LEAF_BATCH leaf cells, not by this.
MAX_POINTS = 1 << 23
# Leaf cells subdivided per batch. A batch's temporaries are a few hundred
# bytes per leaf cell, so they stay the same at every depth.
_LEAF_BATCH = 1 << 12


class CurveError(Exception):
    """Invalid directed cycle or curve request; `stage` names the stage it
    failed in, once it has left a `StageTimer` block."""

    stage: str | None = None


@dataclass
class DirectedCycle:
    """Per-triangle (entry edge, exit edge) chain along the cycle direction."""

    triangles: list[int]
    entry: list[tuple[int, int]]
    exit: list[tuple[int, int]]

    def __len__(self) -> int:
        return len(self.triangles)


@dataclass
class CurvePolyline:
    points: np.ndarray  # (N, 3) float64, in curve order
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
    s = _slot(tri, *e)
    return None if s < 0 else 3 + s


def _subdivide(cells: np.ndarray, states: np.ndarray, levels: int) -> tuple[np.ndarray, np.ndarray]:
    """The sub-cells (m * 4**levels, 3, 3) of cells (m, 3, 3) in given states,
    `levels` levels down, in curve order, with their states."""
    for _ in range(levels):
        a, b, c = cells[:, 0], cells[:, 1], cells[:, 2]
        points = np.stack((a, b, c, (a + b) / 2, (b + c) / 2, (c + a) / 2), axis=1)
        rows = np.arange(len(cells))[:, None, None]
        cells = points[rows, _CHILD_VERTICES[states]].reshape(-1, 3, 3)
        states = _CHILD_STATE[states].ravel()
    return cells, states


def _curve_points(cells: np.ndarray, states: np.ndarray, depth: int) -> np.ndarray:
    """Curve points of cells (m, 3, 3) in given states, shape (2 * m * 4**depth, 3).

    Per leaf cell, in curve order: its centroid, then its exit point.
    """
    cells, states = _subdivide(cells, states, depth)
    rows = np.arange(len(cells))
    ends = _EXIT_ENDS[states]
    p, q = cells[rows, ends[:, 0]], cells[rows, ends[:, 1]]
    out = np.empty((len(cells), 2, 3))
    out[:, 0] = (cells[:, 0] + cells[:, 1] + cells[:, 2]) / 3
    out[:, 1] = np.where((ends[:, 0] == ends[:, 1])[:, None], p, (p + q) / 2)
    return out.reshape(-1, 3)


def generate_curve(mesh: Mesh, dc: DirectedCycle, depth: int) -> CurvePolyline:
    """Closed polyline threading every triangle of the directed cycle, its
    points one C-contiguous (N, 3) float64 array.

    Point count is exactly len(dc) * 2 * 4**depth: each depth-`depth` cell
    contributes its centroid and its exit connector, entries being shared.
    The array is allocated once. Where a triangle holds more than
    `_LEAF_BATCH` leaf cells, the top levels of all triangles are subdivided
    first, until each cell holds at most that many. The cells are then
    subdivided in batches of at most `_LEAF_BATCH` leaf cells, and each
    batch is written into its slice, so the temporaries beside the result
    do not grow with depth.
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
    states = np.array(states, dtype=np.intp)
    below = depth
    while 4**below > _LEAF_BATCH:
        below -= 1
    cells, states = _subdivide(cells, states, depth - below)
    points = np.empty((n_points, 3))
    per_cell = 2 * 4**below
    step = max(1, _LEAF_BATCH // 4**below)
    for i in range(0, len(cells), step):
        batch = _curve_points(cells[i : i + step], states[i : i + step], below)
        points[i * per_cell : i * per_cell + len(batch)] = batch
    return CurvePolyline(points, closed=True)


# -- export -------------------------------------------------------------------

# Indices per piece of the OBJ line element.
_CHUNK = 1 << 15


def _export_points(curve: CurvePolyline) -> np.ndarray:
    """The curve's points as an (N, 3) float array without consecutive
    repeats: a row is dropped when it equals the row before it. Without
    repeats this is the curve's own array, not a copy."""
    points = np.asarray(curve.points, dtype=float).reshape(-1, 3)
    if not len(points):
        raise CurveError("cannot export an empty curve")
    keep = np.ones(len(points), dtype=bool)
    keep[1:] = (points[1:] != points[:-1]).any(axis=1)
    return points if keep.all() else points[keep]


def _index_text(lo: int, hi: int) -> str:
    """The non-negative indices lo, ..., hi - 1 as decimal text, one space
    apart, without a Python `str` per index: the range is cut at powers of
    ten, each piece is written as one (count, digits + 1) uint8 array of
    ASCII digits and a trailing space, and the final space is dropped."""
    blocks = []
    d = len(str(lo))
    while lo < hi:
        top = min(hi, 10**d)
        block = np.empty((top - lo, d + 1), np.uint8)
        block[:, d] = ord(" ")
        n = np.arange(lo, top, dtype=np.uint32)
        for k in range(d - 1, -1, -1):
            block[:, k] = n % 10 + ord("0")
            n //= 10
        blocks.append(block.tobytes().decode("ascii"))
        lo, d = top, d + 1
    return "".join(blocks)[:-1]


def _obj_chunks(points: np.ndarray, closed: bool):
    """OBJ text in pieces: the vertex lines in `_vertex_lines`' chunks, each
    coordinate as its shortest `repr`, then one line element cut every
    `_CHUNK` indices, each piece written by `_index_text` from numpy digit
    blocks."""
    yield from _vertex_lines(points, "v ")
    n = len(points)
    for i in range(1, n + 1, _CHUNK):
        yield ("l " if i == 1 else " ") + _index_text(i, min(i + _CHUNK, n + 1))
    yield " 1\n" if closed else "\n"


def dumps_curve_obj(curve: CurvePolyline) -> str:
    return "".join(_obj_chunks(_export_points(curve), curve.closed))


def dumps_curve_json(curve: CurvePolyline) -> str:
    return json.dumps({"closed": curve.closed, "points": _export_points(curve).tolist()})


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

