"""Single open-strip construction for meshes with boundary.

A spanning tree of the dual is split by a balance edge, the spine path joins
the two farthest leaves through it, every non-spine tree edge is doubled by
inserting a midpoint, and the resulting Euler path is realized as a triangle
strip: the strip enters each doubled subtree, sweeps it, and returns through
the other half of the doubled edge. Output size is exactly
n + 2 * (non-spine tree edges) = 3n - 2 - 2|P|.

The paper's bound holds for any spanning tree, so the tree is grown
depth-first by Warnsdorff's rule: it is deep, its spine covers most of a
grid-like mesh, and few edges are doubled. A 200 x 200 grid grows by 0.5%,
against 198% on a BFS tree.

`euler_strip` edits no mesh. Each doubled edge's midpoint and children get
ids in closed form, so one pass over arrays replays every midpoint split,
and one iterative walk over the splits' records lists the strip's cell ids.
The output mesh reuses the input's surviving triangles, appends the live
children, and is built by `Mesh._built` with no checks; only pipeline-made
lists may go that way. Its neighbour table is sorted only if it is read.

The tree passes hold lists indexed by triangle id, not dicts: each list has
a slot for every id up to the largest tree node, and a slot off the tree (a
dead triangle) holds None, [] or 0.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from itertools import chain, compress

import numpy as np

from .mesh import (
    Mesh,
    SplitRecord,
    ValidationError,
    ValidationReport,
    build_dual,
    validate,
)
# Unused here, but perfbench/test_perfbench.py checks that its tracer
# wraps this module's binding of split_pair.
from .mesh import split_pair  # noqa: F401
from .striploop import PipelineError, StageTimer, StripResult, verify_order


# -- the M_k lower-bound family ------------------------------------------------


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


def mk_triangle_count(k: int) -> int:
    return 3 * (2**k - 1) + 1


# -- spanning tree, balance edge, spine -----------------------------------------


@dataclass
class DualSpanningTree:
    """Depth-first spanning tree of the dual (see `dual_spanning_tree`).

    `parent`, `children` and `subtree` are lists indexed by triangle id, up
    to the largest id in the tree. Off the tree (dead or missing ids) a slot
    holds None, [] and 0, as the root's `parent` holds None. `children`
    lists each node's children in visiting order, and `order` the tree's
    nodes in preorder, root first, so a parent comes before its children.
    The rest of the construction takes any spanning tree in this form.
    """

    parent: list[int | None]
    children: list[list[int]]
    subtree: list[int]
    order: list[int]

    @property
    def n(self) -> int:
        return len(self.order)

    def tree_edges(self) -> list[tuple[int, int]]:
        """Each edge as (child, parent), in preorder of the child."""
        parent = self.parent
        return [(t, parent[t]) for t in self.order[1:]]


def dual_spanning_tree(dual: dict[int, list[int]]) -> DualSpanningTree:
    """Depth-first tree of a node -> neighbours mapping such as
    `build_dual`'s, grown by Warnsdorff's rule so that it is deep.

    The root is the smallest node of least degree. From the top of the
    stack the search steps to the unvisited neighbour with the fewest
    unvisited neighbours, ties to the earlier one in the row, and pops the
    top once it has none.
    """
    size = max(dual) + 1
    free = [0] * size  # per node, its unvisited neighbours
    for t, row in dual.items():
        free[t] = len(row)
    root = min(dual, key=lambda t: (free[t], t))
    parent: list[int | None] = [None] * size
    children: list[list[int]] = [[] for _ in range(size)]
    seen = bytearray(size)
    seen[root] = 1
    for u in dual[root]:
        free[u] -= 1
    order = [root]
    stack = [root]
    while stack:
        t = stack[-1]
        best, low = -1, size
        for u in dual[t]:
            if not seen[u] and free[u] < low:
                best, low = u, free[u]
        if best < 0:
            stack.pop()
            continue
        seen[best] = 1
        for u in dual[best]:
            free[u] -= 1
        parent[best] = t
        children[t].append(best)
        order.append(best)
        stack.append(best)
    if len(order) != len(dual):
        raise PipelineError("dual graph is disconnected")
    subtree = [0] * size
    for t in reversed(order):
        subtree[t] += 1
        p = parent[t]
        if p is not None:
            subtree[p] += subtree[t]
    return DualSpanningTree(parent=parent, children=children, subtree=subtree, order=order)


def balance_edge(tree: DualSpanningTree) -> tuple[int, int]:
    """The tree edge whose removal best balances the two sides.

    Returns (child, parent) maximizing the smaller side, ties broken by the
    smaller child id. On a max-degree-3 tree the smaller side is at least
    floor(n/3); n/3 exactly is not always attainable (a 4-node star splits
    1/3 at best), so the optimum is taken over all n-1 edges directly.
    """
    n = tree.n
    if n < 3:
        raise ValueError("balance edge needs at least 3 tree nodes")
    subtree = tree.subtree
    best_low, best = -1, -1
    for t in tree.order[1:]:
        low = min(subtree[t], n - subtree[t])
        if low > best_low or (low == best_low and t < best):
            best_low, best = low, t
    return best, tree.parent[best]


def _farthest_from(tree: DualSpanningTree, start: int, blocked: int) -> list[int]:
    """Path from start to the farthest node on start's side of the cut.

    The cut edge is (start, blocked) or (blocked, start); BFS runs on tree
    edges only, never crossing to `blocked`. Ties go to the smallest id.
    """
    parent, children = tree.parent, tree.children
    pred = [-1] * len(parent)  # -1: not reached
    pred[start] = start
    pred[blocked] = blocked
    level = [start]
    while True:
        nxt = []
        for t in level:
            p = parent[t]
            for u in children[t] if p is None else (*children[t], p):
                if pred[u] < 0:
                    pred[u] = t
                    nxt.append(u)
        if not nxt:
            break
        level = nxt
    node = min(level)
    path = [node]
    while node != start:
        node = pred[node]
        path.append(node)
    path.reverse()  # start ... farthest
    return path


def spine_path(tree: DualSpanningTree, e: tuple[int, int]) -> list[int]:
    """Leaf-to-leaf node path through the balance edge.

    Each end is the leaf farthest (by tree-edge count) from the cut on its
    own side.
    """
    child, parent = e
    side_a = _farthest_from(tree, child, parent)  # child ... leafA
    side_b = _farthest_from(tree, parent, child)  # parent ... leafB
    return list(reversed(side_a)) + side_b


# -- Euler strip ----------------------------------------------------------------


def euler_strip(
    mesh: Mesh, tree: DualSpanningTree, spine: list[int]
) -> tuple[list[int], list[SplitRecord], Mesh]:
    """Subdivide every non-spine tree edge and assemble the open strip.

    Leaves `mesh` untouched. With m triangle slots and V vertices in
    `mesh`, doubled edge j (in the order of `_doubled_edges`) gets midpoint
    V + j and children m + 4j ... m + 4j + 3, the ids `split_pair` would
    assign on a copy of `mesh`, which takes the parents in id order. Every
    cell is split at most once: a doubled edge's child triangle is still
    whole when its edge comes up, and the anchor's cell on it is the anchor
    itself (on the spine) or the half of the anchor's own earlier split that
    holds the edge. `_replay` makes all the splits in one pass over arrays.

    The strip is one depth-first walk down the spine. Per cell it reads one
    index into the splits' flat `(x, cx, across, y, w)` records: the split
    vertex x, the child cx at x (cx + 1 is the child at the edge's other
    end y), the tree child across the edge or -1 for the child's own cell,
    and the apex w. A tree triangle entered at vertex v of its doubled
    parent edge yields its half at v, then its half at the apex; an
    anchor's split cell entered at v yields its child at v, the subtree
    across its edge entered at v, then its other child.

    Returns (strip, records, out): `out` holds the live cells in id order,
    as `Mesh.compact` would number them, the input's surviving triangles
    first, and `strip` indexes it.
    """
    doubled = _doubled_edges(tree, spine)
    m, v0, n = len(mesh.triangles), len(mesh.vertices), len(doubled)
    fields, mids, kept, rows, at, walk, rank = _replay(mesh, doubled)
    # one int object per vertex id, shared by the records and the triangles
    vid = list(range(v0 + n)).__getitem__
    records = list(
        map(
            SplitRecord,
            zip(map(vid, fields[0::4]), map(vid, fields[1::4])),
            map(vid, range(v0, v0 + n)),
            zip(fields[2::4], fields[3::4]),
            zip(*(range(m + k, m + 4 * n, 4) for k in range(4))),
        )
    )
    del fields

    tris = mesh.triangles
    stack: list[tuple[int, int]] = []  # (cell, the vertex it is entered at)
    for i in range(len(spine) - 1, 0, -1):
        s = spine[i]
        r = at[s]
        v = -1
        if r >= 0:
            # enter at the end of s's doubled edge that its predecessor holds
            v = walk[r] if walk[r] in tris[spine[i - 1]] else walk[r + 3]
        stack.append((s, v))
    stack.append((spine[0], -1))
    strip: list[int] = []
    push, pop, out = stack.append, stack.pop, strip.append
    while stack:
        t, v = pop()
        r = at[t]
        if r < 0:
            out(rank[t])
            continue
        cx = walk[r + 1]  # the child at x; cx + 1 is the child at y
        if walk[r] == v:
            near, far = cx, cx + 1
        else:
            near, far = cx + 1, cx
        across = walk[r + 2]
        if across < 0:
            # a tree triangle entered across its doubled parent edge: its half
            # at v, then its half at the apex
            push((far, walk[r + 4]))
            push((near, v))
        else:
            # the anchor's children are never split again
            out(rank[near])
            push((far, -1))
            push((across, v))
    del at, walk, rank

    vertices = list(mesh.vertices)
    vertices += zip(mids[0::3], mids[1::3], mids[2::3])
    triangles = list(compress(tris, kept))
    triangles += zip(map(vid, rows[0::3]), map(vid, rows[1::3]), map(vid, rows[2::3]))
    return strip, records, Mesh._built(vertices, triangles)


def _replay(mesh: Mesh, doubled: list[tuple[int, int]]):
    """The midpoint splits of `doubled` on `mesh`, in one pass over arrays.

    Returns flat buffers, so that no array outlives the call:
    - `fields`: per split, its edge (lo, hi) and its parents, 4 per split;
    - `mids`: the midpoints' coordinates, 3 per split;
    - `kept`: per input slot, 1 if it is live and not split;
    - `rows`: the live children's vertex triples, 3 per child, in id order;
    - `at`: per cell (input slots, then children), the index of its record
      in `walk`, or -1 if it is not split;
    - `walk`: per split, its parents' `(x, cx, across, y, w)` records;
    - `rank`: per cell, its id among the live cells.
    Each split's parents are in id order, as `split_pair` takes them: a
    cell that is a half of an earlier split comes after the child, as its
    id is above every input triangle's.
    """
    m, v0, n = len(mesh.triangles), len(mesh.vertices), len(doubled)
    pair = np.fromiter(chain.from_iterable(doubled), dtype=np.int64, count=2 * n)
    anchor, child = pair[0::2], pair[1::2]
    j = np.arange(n)
    (ax, ay, aw), (cx, cy, cw) = _rotations(mesh, anchor, child)
    # off the spine an anchor is the child of an earlier split: its cell is
    # that split's half at x if it holds x, else the half at y, and either
    # half winds the edge as the anchor did, with the midpoint as its apex
    made = np.full(m, -1, dtype=np.int64)
    made[child] = j
    earlier = made[anchor]
    off = earlier >= 0
    child_first = off | (child < anchor)
    cell, apex = anchor.copy(), aw.copy()
    e = earlier[off]
    at_y = (ax[off] != cx[e]) & (ay[off] != cx[e])
    cell[off] = m + 4 * e + 2 * ~child_first[e] + at_y
    apex[off] = v0 + e

    first = np.where(child_first, child, cell)
    second = np.where(child_first, cell, child)
    child_xyw, cell_xyw = np.stack([cx, cy, cw]), np.stack([ax, ay, apex])
    x0, y0, w0 = np.where(child_first, child_xyw, cell_xyw)
    x1, y1, w1 = np.where(child_first, cell_xyw, child_xyw)
    mid = v0 + j
    alive = np.ones(m + 4 * n, dtype=bool)
    alive[:m] = mesh.alive
    alive[first] = False
    alive[second] = False
    at = np.full(m + 4 * n, -1, dtype=np.int64)
    at[first] = 10 * j
    at[second] = 10 * j + 5
    lo, hi = np.minimum(ax, ay), np.maximum(ax, ay)
    # each buffer made from a temporary that dies with its conversion
    return (
        _flat("q", np.stack([lo, hi, first, second], axis=1)),
        _midpoints(mesh, lo, hi),
        alive[:m].tobytes(),
        _flat(
            "q",
            np.stack([x0, mid, w0, mid, y0, w0, x1, mid, w1, mid, y1, w1], axis=1)
            .reshape(4 * n, 3)[alive[m:]],
        ),
        _flat("q", at),
        _flat(
            "q",
            np.stack(
                [
                    x0, m + 4 * j, np.where(child_first, -1, child), y0, w0,
                    x1, m + 4 * j + 2, np.where(child_first, child, -1), y1, w1,
                ],
                axis=1,
            ),
        ),
        _flat("q", np.cumsum(alive) - 1),
    )


def _rotations(mesh: Mesh, anchor: np.ndarray, child: np.ndarray):
    """Per doubled edge, the anchor's and the child's (x, y, w): the edge's
    ends as the triangle winds them, then its apex."""
    m = len(mesh.triangles)
    tri = np.fromiter(chain.from_iterable(mesh.triangles), dtype=np.int64, count=3 * m)
    tri = tri.reshape(m, 3)
    nb = np.fromiter(mesh.neighbours, dtype=np.int64, count=3 * m).reshape(m, 3)
    # the anchor's slot across which the child lies
    i = (nb[anchor] == child[:, None]).argmax(axis=1)
    ax, ay, aw = tri[anchor, i], tri[anchor, (i + 1) % 3], tri[anchor, (i + 2) % 3]
    # the child's apex is its one vertex off the edge
    ct = tri[child]
    k = ((ct != ax[:, None]) & (ct != ay[:, None])).argmax(axis=1)
    j = np.arange(len(child))
    return (ax, ay, aw), (ct[j, (k + 1) % 3], ct[j, (k + 2) % 3], ct[j, k])


def _midpoints(mesh: Mesh, lo: np.ndarray, hi: np.ndarray) -> array:
    """(P[lo] + P[hi]) / 2.0 per edge, flat: the same float sums as
    `split_pair`'s."""
    v0 = len(mesh.vertices)
    pts = np.fromiter(chain.from_iterable(mesh.vertices), dtype=np.float64, count=3 * v0)
    pts = pts.reshape(v0, 3)
    return _flat("d", (pts[lo] + pts[hi]) / 2.0)


def _flat(typecode: str, a: np.ndarray) -> array:
    """An int64 or float64 array's values as a flat array of `typecode`,
    copied once."""
    out = array(typecode)
    out.frombytes(np.ascontiguousarray(a).reshape(-1).view(np.uint8))
    return out


def _doubled_edges(tree: DualSpanningTree, spine: list[int]) -> list[tuple[int, int]]:
    """Every non-spine tree edge as (anchor, child), the anchor nearer the
    spine, sorted by the anchor's distance from the spine, then anchor, then
    child. Only interior spine triangles may anchor one, at most one each."""
    parent, children = tree.parent, tree.children
    ends = (spine[0], spine[-1])
    reached = bytearray(len(parent))
    for s in spine:
        reached[s] = 1
    doubled: list[tuple[int, int]] = []
    level = sorted(spine)
    on_spine = True
    while level:
        nxt: list[int] = []
        for a in level:
            kids = [c for c in children[a] if not reached[c]]
            p = parent[a]
            if p is not None and not reached[p]:
                kids.append(p)
            if not kids:
                continue
            if on_spine:
                if a in ends:
                    raise PipelineError(f"spine end {a} unexpectedly has a doubled child")
                if len(kids) > 1:
                    raise PipelineError(
                        f"spine triangle {a} has {len(kids)} doubled children (max 1)"
                    )
            kids.sort()
            for c in kids:
                reached[c] = 1
            doubled += [(a, c) for c in kids]
            nxt += kids
        nxt.sort()
        level = nxt
        on_spine = False
    return doubled


# -- orchestrator -----------------------------------------------------------------


def strip_with_boundary(mesh: Mesh) -> StripResult:
    """Full open-strip pipeline for a connected mesh with boundary edges; the
    input mesh is left untouched."""
    timer = StageTimer()
    with timer("validate"):
        report = validate(mesh, "with_boundary")
        if not report.ok:
            raise ValidationError(report)
        nb = mesh.neighbours  # stop at the first live row with a boundary slot
        if not any(a and -1 in nb[3 * t : 3 * t + 3] for t, a in enumerate(mesh.alive)):
            raise ValidationError(_closed_report(mesh))
        n_input = mesh.n_triangles

    with timer("strip"):
        records: list[SplitRecord] = []
        if n_input <= 2:
            out = Mesh._built(list(mesh.vertices), [mesh.triangles[t] for t in mesh.alive_ids()])
            strip = list(range(n_input))
            spine_len = n_input - 1
        else:
            dual = build_dual(mesh)
            tree = dual_spanning_tree(dual)
            e = balance_edge(tree)
            spine = spine_path(tree, e)
            spine_len = len(spine) - 1
            strip, records, out = euler_strip(mesh, tree, spine)

    with timer("verify"):
        ok, why = verify_order(out, strip, closed=False)
        if not ok:
            raise PipelineError(f"open strip failed verification: {why}")
        if len(strip) != n_input + 2 * len(records):
            raise PipelineError(
                f"strip length {len(strip)} != {n_input} + 2*{len(records)} splits"
            )

    n_output = out.n_triangles
    bound = 3 * n_input - 4 * math.log2(n_input) if n_input > 0 else 0.0
    stats = {
        "input_triangles": n_input,
        "output_triangles": n_output,
        "percent_increase": round(100.0 * (n_output - n_input) / n_input, 2),
        "cycles_initial": None,
        "cycles_after_nodal": None,
        "splits": len(records),
        "spine_edges": spine_len,
        "bound_3n_minus_4log2n": round(bound, 3),
        "bound_gap": round(n_output - bound, 3),
        "verified": True,
        "elapsed_ms": timer.ms,
    }
    return StripResult(mesh=out, order=strip, closed=False, splits=records, stats=stats)


def _closed_report(mesh: Mesh) -> ValidationReport:
    report = ValidationReport(mode="with_boundary")
    report.add("closed_mesh", "mesh has no boundary edges; use the closed-manifold pipeline")
    return report
