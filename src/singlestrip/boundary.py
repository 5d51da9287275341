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

The tree reads the dual off the rows of the mesh's neighbour table, and it
is also the open path's connectivity check, so the dual is walked once:
only `check_edges` runs before it, and a dual the tree does not span is
reported with `validate`'s own report. On a mesh as loaded, `check_edges`
reads the edges its constructor's sort flagged, so the open path sorts the
edge slots once, to build the table.

`euler_strip` edits no mesh. Each doubled edge's midpoint and children get
ids in closed form, so one plain loop over the doubled edges replays every
midpoint split, with a record per split cell in a list indexed by cell id,
and one iterative walk over those records lists the strip's cell ids. The
loop's cost is per doubled edge, and the depth-first tree leaves few. The
output mesh reuses the input's surviving triangles, appends the live
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
from itertools import accumulate, compress

from .mesh import (
    Mesh,
    ValidationError,
    ValidationReport,
    check_edges,
    validate,
)
# Unused here, but perfbench/test_perfbench.py checks that its tracer
# wraps this module's binding of split_pair.
from .mesh import split_pair  # noqa: F401
from .striploop import PipelineError, StageTimer, StripResult, verify_order


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


def dual_spanning_tree(nb: list[int], alive: list[bool]) -> DualSpanningTree:
    """Depth-first tree of the dual, grown by Warnsdorff's rule so that it
    is deep.

    The dual is read off a flat table of 3-slot rows and live flags, as
    `Mesh.neighbours` and `Mesh.alive` hold it: a live node's neighbours
    are its row's entries other than -1, live and listed both ways. The
    root is the smallest live node of least degree. From the top of the
    stack the search steps to the unvisited neighbour with the fewest
    unvisited neighbours, ties to the earlier one in the row. `free[t]`
    counts t's unvisited neighbours, so a top whose count is 0 pops without
    a scan of its row; a -1 slot reads as seen through a sentinel slot at
    the end of `seen` and `free`. The search reaches every live node of a
    connected dual and nothing else, so it is `strip_with_boundary`'s
    connectivity check: a dual it does not span raises PipelineError.
    """
    size = len(alive) - alive[::-1].index(True)  # up to the largest live id
    # per node, its unvisited neighbours
    it = iter(nb)
    free = [3 - (a < 0) - (b < 0) - (c < 0) for a, b, c in zip(it, it, it)]
    del free[size:]
    root = min(compress(range(size), alive), key=free.__getitem__)
    free.append(0)  # the sentinel, counted down freely
    parent: list[int | None] = [None] * size
    children: list[list[int]] = [[] for _ in range(size)]
    seen = bytearray(size + 1)
    seen[-1] = 1
    seen[root] = 1
    i = 3 * root
    free[nb[i]] -= 1
    free[nb[i + 1]] -= 1
    free[nb[i + 2]] -= 1
    order = [root]
    stack = [root]
    while stack:
        t = stack[-1]
        if not free[t]:
            stack.pop()
            continue
        best, low = -1, 4
        i = 3 * t
        for u in (nb[i], nb[i + 1], nb[i + 2]):
            if not seen[u] and free[u] < low:
                best, low = u, free[u]
        seen[best] = 1
        i = 3 * best
        free[nb[i]] -= 1
        free[nb[i + 1]] -= 1
        free[nb[i + 2]] -= 1
        parent[best] = t
        children[t].append(best)
        order.append(best)
        stack.append(best)
    if len(order) != alive.count(True):
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
) -> tuple[list[int], list[tuple[int, int]], Mesh]:
    """Subdivide every non-spine tree edge and assemble the open strip.

    Leaves `mesh` untouched. With m triangle slots and V vertices in
    `mesh`, doubled edge j (in the order of `_doubled_edges`) gets midpoint
    V + j and children m + 4j ... m + 4j + 3, the ids `split_pair` would
    assign on a copy of `mesh`, and takes its parents in id order as
    `split_pair` does. Every cell is split at most once: a doubled edge's
    child triangle is still whole when its edge comes up, and the anchor's
    cell on it is the anchor itself (on the spine) or the half of the
    anchor's own earlier split that holds the edge, whose apex is that
    split's midpoint.

    Each split cell gets a record `(x, cx, across, y, w)`, in a list indexed
    by cell id: the split vertex x, the child cx at x (cx + 1 is the child
    at the edge's other end y), the tree child across the edge or -1 for the
    child's own cell, and the apex w. The strip is one depth-first walk down
    the spine. A tree triangle entered at vertex v of its doubled parent
    edge yields its half at v, then its half at the apex; an anchor's split
    cell entered at v yields its child at v, the subtree across its edge
    entered at v, then its other child.

    Returns (strip, doubled, out): `doubled` lists the doubled edges as
    (anchor, child) in split order, `out` holds the live cells in id order,
    as `Mesh.compact` would number them, the input's surviving triangles
    first, and `strip` indexes it.
    """
    doubled = _doubled_edges(tree, spine)
    tris, nb, points = mesh.triangles, mesh.neighbours, mesh.vertices
    m, v0 = len(tris), len(points)
    alive = bytearray(mesh.alive) + b"\x01" * (4 * len(doubled))
    split: list[tuple[int, int, int, int, int] | None] = [None] * len(alive)
    midpoints: list[tuple[float, float, float]] = []
    children: list[tuple[int, int, int]] = []
    for j, (anchor, child) in enumerate(doubled):
        # the anchor's edge to the child is (x, y), its apex w
        p, q, r = tris[anchor]
        i = nb.index(child, 3 * anchor, 3 * anchor + 3) - 3 * anchor
        if i == 0:
            x, y, w = p, q, r
        elif i == 1:
            x, y, w = q, r, p
        else:
            x, y, w = r, p, q
        cell = anchor
        rec = split[anchor]
        if rec is not None:
            # off the spine: the half of the anchor's split that holds the
            # edge winds it as the anchor did, with that split's midpoint
            half = rec[1]
            cell = half if rec[0] == x or rec[0] == y else half + 1
            w = v0 + (half - m) // 4
        # the child's own (x, y, w)
        p, q, r = tris[child]
        if p != x and p != y:
            kx, ky, kw = q, r, p
        elif q != x and q != y:
            kx, ky, kw = r, p, q
        else:
            kx, ky, kw = p, q, r
        mid, c0 = v0 + j, m + 4 * j
        if child < cell:
            split[child] = (kx, c0, -1, ky, kw)
            split[cell] = (x, c0 + 2, child, y, w)
            children += ((kx, mid, kw), (mid, ky, kw), (x, mid, w), (mid, y, w))
        else:
            split[cell] = (x, c0, child, y, w)
            split[child] = (kx, c0 + 2, -1, ky, kw)
            children += ((x, mid, w), (mid, y, w), (kx, mid, kw), (mid, ky, kw))
        alive[cell] = alive[child] = 0
        pa, pb = points[x], points[y]
        midpoints.append(
            ((pa[0] + pb[0]) / 2.0, (pa[1] + pb[1]) / 2.0, (pa[2] + pb[2]) / 2.0)
        )
    # per cell, its id among the live cells
    rank = array("q", accumulate(alive, initial=0))

    stack: list[tuple[int, int]] = []  # (cell, the vertex it is entered at)
    for i in range(len(spine) - 1, 0, -1):
        s = spine[i]
        rec = split[s]
        v = -1
        if rec is not None:
            # enter at the end of s's doubled edge that its predecessor holds
            v = rec[0] if rec[0] in tris[spine[i - 1]] else rec[3]
        stack.append((s, v))
    stack.append((spine[0], -1))
    strip: list[int] = []
    push, pop, out = stack.append, stack.pop, strip.append
    while stack:
        t, v = pop()
        rec = split[t]
        if rec is None:
            out(rank[t])
            continue
        x, cx, across, _, w = rec
        near, far = (cx, cx + 1) if x == v else (cx + 1, cx)
        if across < 0:
            # a tree triangle entered across its doubled parent edge: its half
            # at v, then its half at the apex
            push((far, w))
            push((near, v))
        else:
            # the anchor's children are never split again
            out(rank[near])
            push((far, -1))
            push((across, v))
    del split, rank

    triangles = list(compress(tris, alive))
    triangles += compress(children, alive[m:])
    return strip, doubled, Mesh._built(points + midpoints, triangles)


def _doubled_edges(tree: DualSpanningTree, spine: list[int]) -> list[tuple[int, int]]:
    """Every non-spine tree edge as (anchor, child), the anchor nearer the
    spine, sorted by the anchor's distance from the spine, then anchor, then
    child. Only interior spine triangles may anchor one, at most one each.

    Only the spine triangles with more tree edges than spine edges are
    expanded, so past one read of the spine the work is per doubled edge."""
    parent, children = tree.parent, tree.children
    ends = (spine[0], spine[-1])
    reached = bytearray(len(parent))
    for s in spine:
        reached[s] = 1
    last = len(spine) - 1
    level = sorted(
        s
        for i, s in enumerate(spine)
        if len(children[s]) + (parent[s] is not None) > (i > 0) + (i < last)
    )
    doubled: list[tuple[int, int]] = []
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
    input mesh is left untouched.

    The checks run in this order: `check_edges`, the spanning tree (the
    connectivity check), then the boundary check, so that a disconnected
    closed mesh reads as disconnected. A mesh that fails either of the
    first two raises `validate`'s own report. A mesh as constructed costs
    no sort here: `check_edges` reads its constructor's flagged edges, and
    the tree reads its table rows.
    """
    timer = StageTimer()
    with timer("validate"):
        if not check_edges(mesh, "with_boundary").ok:
            raise ValidationError(validate(mesh, "with_boundary"))
        n_input = mesh.n_triangles

    with timer("strip"):
        try:
            tree = dual_spanning_tree(mesh.neighbours, mesh.alive)
        except PipelineError:  # the dual is disconnected
            raise ValidationError(validate(mesh, "with_boundary")) from None
        nb = mesh.neighbours  # stop at the first live row with a boundary slot
        if not any(a and -1 in nb[3 * t : 3 * t + 3] for t, a in enumerate(mesh.alive)):
            raise ValidationError(_closed_report(mesh))
        doubled: list[tuple[int, int]] = []
        if n_input <= 2:
            out = Mesh._built(list(mesh.vertices), [mesh.triangles[t] for t in mesh.alive_ids()])
            strip = list(range(n_input))
            spine_len = n_input - 1
        else:
            e = balance_edge(tree)
            spine = spine_path(tree, e)
            spine_len = len(spine) - 1
            strip, doubled, out = euler_strip(mesh, tree, spine)

    # the result is made inside the last stage, so the stages cover the call
    with timer("verify"):
        ok, why = verify_order(out, strip, closed=False)
        if not ok:
            raise PipelineError(f"open strip failed verification: {why}")
        if len(strip) != n_input + 2 * len(doubled):
            raise PipelineError(
                f"strip length {len(strip)} != {n_input} + 2*{len(doubled)} splits"
            )
        n_output = out.n_triangles
        bound = 3 * n_input - 4 * math.log2(n_input) if n_input > 0 else 0.0
        stats = {
            "input_triangles": n_input,
            "output_triangles": n_output,
            "percent_increase": round(100.0 * (n_output - n_input) / n_input, 2),
            "cycles_initial": None,
            "cycles_after_nodal": None,
            "splits": len(doubled),
            "spine_edges": spine_len,
            "bound_3n_minus_4log2n": round(bound, 3),
            "bound_gap": round(n_output - bound, 3),
            "verified": True,
            "elapsed_ms": timer.ms,
        }
        result = StripResult(mesh=out, order=strip, closed=False, stats=stats)
    return result


def _closed_report(mesh: Mesh) -> ValidationReport:
    report = ValidationReport(mode="with_boundary")
    report.add("closed_mesh", "mesh has no boundary edges; use the closed-manifold pipeline")
    return report
