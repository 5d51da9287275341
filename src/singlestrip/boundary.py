"""Single open-strip construction for meshes with boundary.

A spanning tree of the dual is split by a balance edge, the spine path joins
the two farthest leaves through it, every non-spine tree edge is doubled by
inserting a midpoint, and the resulting Euler path is realized as a triangle
strip: the strip enters each doubled subtree, sweeps it, and returns through
the other half of the doubled edge. Output size is exactly
n + 2 * (non-spine tree edges) = 3n - 2 - 2|P|.

`euler_strip` edits no mesh: one replay of the midpoint splits on plain
lists records each split cell's children, and one iterative walk over those
records lists the strip's cell ids. The replay made every output cell
itself, so the output mesh is built from its lists by `Mesh._built`, with
no checks; only pipeline-made lists may go that way.

The tree passes hold lists indexed by triangle id, not dicts: each list has
a slot for every id up to the largest tree node, and a slot off the tree (a
dead triangle) holds None, [] or 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress

import numpy as np

from .mesh import (
    Mesh,
    SplitRecord,
    ValidationError,
    ValidationReport,
    build_dual,
    edge_key,
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
    """BFS spanning tree of the dual, rooted at the smallest triangle id.

    `parent`, `children` and `subtree` are lists indexed by triangle id, up
    to the largest id in the tree. Off the tree (dead or missing ids) a slot
    holds None, [] and 0, as the root's `parent` holds None. `order` lists
    the tree's nodes in BFS order, root first.
    """

    parent: list[int | None]
    children: list[list[int]]
    subtree: list[int]
    order: list[int]

    @property
    def n(self) -> int:
        return len(self.order)

    def tree_edges(self) -> list[tuple[int, int]]:
        """Each edge as (child, parent), in BFS order of the child."""
        parent = self.parent
        return [(t, parent[t]) for t in self.order[1:]]


def dual_spanning_tree(dual: dict[int, list[int]]) -> DualSpanningTree:
    """BFS tree of a node -> neighbours mapping such as `build_dual`'s,
    visiting each node's neighbours in list order."""
    root = min(dual)
    size = max(dual) + 1
    parent: list[int | None] = [None] * size
    children: list[list[int]] = [[] for _ in range(size)]
    seen = bytearray(size)
    seen[root] = 1
    order = [root]
    for t in order:  # grows as it is read: a FIFO queue
        kids = children[t]
        for u in dual[t]:
            if not seen[u]:
                seen[u] = 1
                parent[u] = t
                kids.append(u)
                order.append(u)
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

    Leaves `mesh` untouched. The doubled edges are split, in the order of
    `_doubled_edges`, by one replay of `split_pair` on copies of the mesh
    lists. Every cell is split at most once: a doubled edge's child triangle
    is still whole when its edge comes up, and the anchor's cell on it is
    the anchor or the anchor's half that holds the edge. So each split cell
    keeps one record: its split vertex x, its children holding x and the
    edge's other end, and the tree child across the edge if the cell is an
    anchor's.

    The strip is one depth-first walk over those records, down the spine.
    A tree triangle entered at vertex v of its doubled parent edge yields
    its half at v, then its half at the apex; an anchor's split cell entered
    at v yields its child at v, the subtree across its edge entered at v,
    then its other child. Returns (strip, records, out): `out` holds the
    live cells in id order, as `Mesh.compact` would number them, and
    `strip` indexes it. Triangle ids in the records are those `split_pair`
    would assign on a copy of `mesh`.
    """
    doubled = _doubled_edges(tree, spine)
    nb, stamp = mesh.neighbours, mesh._stamp
    vertices = list(mesh.vertices)
    triangles = list(mesh.triangles)
    alive = list(mesh.alive)
    n_cells = len(triangles) + 4 * len(doubled)
    # per split cell: (split vertex x, child holding x, child holding the
    # other end y, tree child across the edge or -1 for the child's own cell)
    split: list[tuple[int, int, int, int] | None] = [None] * n_cells
    records: list[SplitRecord] = []
    for anchor, child in doubled:
        # the edge across which the child lies in the anchor's row
        i = nb.index(child, 3 * anchor, 3 * anchor + 3) - 3 * anchor
        tri = triangles[anchor]
        e = edge_key(tri[i], tri[(i + 1) % 3])
        a, b = e
        cell = anchor
        rec = split[anchor]
        if rec is not None:
            x, cx, cy, _ = rec
            cell = cx if x == a or x == b else cy
            parents = (child, cell)  # a split child is listed after every original
        elif stamp[child] < stamp[anchor]:  # listing order
            parents = (child, anchor)
        else:
            parents = (anchor, child)
        pa = vertices[a]
        pb = vertices[b]
        mid = len(vertices)
        vertices.append(((pa[0] + pb[0]) / 2.0, (pa[1] + pb[1]) / 2.0, (pa[2] + pb[2]) / 2.0))
        first = len(triangles)
        for tid in parents:
            # rotate so the split edge is (x, y)
            p, q, r = triangles[tid]
            if r != a and r != b:
                x, y, w = p, q, r
            elif p != a and p != b:
                x, y, w = q, r, p
            else:
                x, y, w = r, p, q
            alive[tid] = False
            c0 = len(triangles)
            triangles.append((x, mid, w))
            triangles.append((mid, y, w))
            split[tid] = (x, c0, c0 + 1, child if tid == cell else -1)
        alive += (True, True, True, True)
        children = (first, first + 1, first + 2, first + 3)
        records.append(SplitRecord(edge=e, midpoint=mid, parents=parents, children=children))

    stack: list[tuple[int, int]] = []  # (cell, the vertex it is entered at)
    for i in range(len(spine) - 1, 0, -1):
        s = spine[i]
        rec = split[s]
        v = -1
        if rec is not None:
            # enter at the end of s's doubled edge that its predecessor holds
            v = rec[0] if rec[0] in triangles[spine[i - 1]] else triangles[rec[2]][1]
        stack.append((s, v))
    stack.append((spine[0], -1))
    cells: list[int] = []
    while stack:
        t, v = stack.pop()
        rec = split[t]
        if rec is None:
            cells.append(t)
            continue
        x, cx, cy, across = rec
        if x != v:
            cx, cy = cy, cx
        if across < 0:
            # a tree triangle entered across its doubled parent edge: its half
            # at v, then its half at the apex, which both children hold last
            stack.append((cy, triangles[cx][2]))
            stack.append((cx, v))
        else:
            # the anchor's children are never split again
            cells.append(cx)
            stack.append((cy, -1))
            stack.append((across, v))
    rank = np.cumsum(alive) - 1  # rank[t] is t's id among the live cells
    strip = rank[cells].tolist()
    del doubled, split, cells, rank
    live = list(compress(triangles, alive))
    del triangles, alive
    return strip, records, Mesh._built(vertices, live)


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
