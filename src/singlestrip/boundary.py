"""Single open-strip construction for meshes with boundary.

A spanning tree of the dual is split by a balance edge, the spine path joins
the two farthest leaves through it, every non-spine tree edge is doubled by
inserting a midpoint, and the resulting Euler path is realized as a triangle
strip: the strip enters each doubled subtree, sweeps it, and returns through
the other half of the doubled edge. Output size is exactly
n + 2 * (non-spine tree edges) = 3n - 2 - 2|P|.
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass

from .mesh import (
    DualGraph,
    Mesh,
    MeshError,
    SplitRecord,
    ValidationError,
    build_dual,
    edge_key,
    validate,
)
# Unused here, but perfbench/test_perfbench.py checks that its tracer
# wraps this module's binding of split_pair.
from .mesh import split_pair  # noqa: F401
from .striploop import PipelineError, StripResult, verify_order


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
    """BFS spanning tree of the dual, rooted at the smallest triangle id."""

    root: int
    parent: dict[int, int | None]
    parent_edge: dict[int, tuple[int, int]]
    children: dict[int, list[int]]
    order: list[int]
    subtree: dict[int, int]

    @property
    def n(self) -> int:
        return len(self.parent)

    def tree_edges(self) -> list[tuple[int, int]]:
        """Each edge as (child, parent)."""
        return [(t, p) for t, p in self.parent.items() if p is not None]


def dual_spanning_tree(dual: DualGraph) -> DualSpanningTree:
    root = min(dual.adjacency)
    parent: dict[int, int | None] = {root: None}
    parent_edge: dict[int, tuple[int, int]] = {}
    children: dict[int, list[int]] = {t: [] for t in dual.adjacency}
    order = [root]
    queue = deque([root])
    while queue:
        t = queue.popleft()
        for nb, e in dual.adjacency[t]:
            if nb not in parent:
                parent[nb] = t
                parent_edge[nb] = e
                children[t].append(nb)
                order.append(nb)
                queue.append(nb)
    if len(parent) != dual.n:
        raise PipelineError("dual graph is disconnected")
    subtree = {t: 1 for t in parent}
    for t in reversed(order):
        p = parent[t]
        if p is not None:
            subtree[p] += subtree[t]
    return DualSpanningTree(
        root=root,
        parent=parent,
        parent_edge=parent_edge,
        children=children,
        order=order,
        subtree=subtree,
    )


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
    best = None
    for child, parent in tree.tree_edges():
        low = min(tree.subtree[child], n - tree.subtree[child])
        key = (-low, child)
        if best is None or key < best[0]:
            best = (key, (child, parent))
    return best[1]


def _farthest_from(tree: DualSpanningTree, start: int, blocked: int) -> list[int]:
    """Path from start to the farthest node on start's side of the cut.

    The cut edge is (start, blocked) or (blocked, start); BFS runs on tree
    edges only, never crossing to `blocked`. Ties go to the smallest id.
    """
    pred = {start: None}
    frontier = [start]
    farthest = start
    while frontier:
        nxt = []
        for t in sorted(frontier):
            for nb in _tree_neighbors(tree, t):
                if nb == blocked or nb in pred:
                    continue
                pred[nb] = t
                nxt.append(nb)
        if nxt:
            farthest = min(nxt)
        frontier = nxt
    path = []
    node = farthest
    while node is not None:
        path.append(node)
        node = pred[node]
    path.reverse()  # start ... farthest
    return path


def _tree_neighbors(tree: DualSpanningTree, t: int) -> list[int]:
    nbrs = list(tree.children[t])
    if tree.parent[t] is not None:
        nbrs.append(tree.parent[t])
    return nbrs


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

    Leaves `mesh` untouched. Each doubled edge gets a midpoint; a triangle
    with d incident doubled edges becomes 1 + d cells, fanned around its
    parent-edge midpoint. The strip enters a subtree across one half of its
    doubled edge, sweeps it depth-first in fan order, and exits across the
    other half. Returns (strip, records, out): `out` holds the live cells in
    id order, as `Mesh.compact` would number them, and `strip` indexes it.
    Triangle ids in the records are those `split_pair` would assign on a
    copy of `mesh`.
    """
    doubled: list[tuple[int, int]] = []  # (anchor, child) with anchor nearer the spine
    depth = {s: 0 for s in spine}
    queue = deque(spine)
    tree_adj = {t: _tree_neighbors(tree, t) for t in tree.parent}
    while queue:
        t = queue.popleft()
        for nb in tree_adj[t]:
            if nb in depth:
                continue
            depth[nb] = depth[t] + 1
            doubled.append((t, nb))
            queue.append(nb)
    doubled.sort(key=lambda pair: (depth[pair[0]], pair[0], pair[1]))

    shared_edge: dict[tuple[int, int], tuple[int, int]] = {}
    for anchor, child in doubled:
        e = tree.parent_edge[child] if tree.parent[child] == anchor else tree.parent_edge[anchor]
        shared_edge[(anchor, child)] = e
    spine_keys = [
        _shared_tree_edge(tree, spine[i], spine[i + 1]) for i in range(len(spine) - 1)
    ]

    child_edges: dict[int, dict[tuple[int, int], int]] = {}
    for anchor, child in doubled:
        child_edges.setdefault(anchor, {})[shared_edge[(anchor, child)]] = child

    records, vertices, triangles, alive = _split_edges(
        mesh, [shared_edge[pair] for pair in doubled]
    )
    midpoint = {rec.edge: rec.midpoint for rec in records}

    def subtree_crossings(t: int, pkey: tuple[int, int], enter_v: int, out: list) -> None:
        """Append the crossing sequence through t's fan, from half (enter_v, m)
        around to the other half, descending into doubled children on the way.

        Iterative, so that deep dual trees do not exhaust the call stack: each
        stack frame is [t, m, exit_v, walk, i], with i the next walk step.
        """

        def enter(t, pkey, enter_v):
            m = midpoint[pkey]
            exit_v = pkey[0] if pkey[1] == enter_v else pkey[1]
            apex = next(x for x in mesh.triangles[t] if x not in pkey)
            walk: list[tuple[str, int, tuple[int, int] | None]] = [("v", enter_v, None)]
            for a, b in ((enter_v, apex), (apex, exit_v)):
                ek = edge_key(a, b)
                if ek in child_edges.get(t, ()):
                    walk.append(("m", midpoint[ek], ek))
                walk.append(("v", b, None))
            out.append(edge_key(enter_v, m))
            return [t, m, exit_v, walk, 1]

        stack = [enter(t, pkey, enter_v)]
        while stack:
            frame = stack[-1]
            t, m, exit_v, walk, i = frame
            if i == len(walk):
                out.append(edge_key(m, exit_v))
                stack.pop()
                continue
            frame[4] = i + 1
            kind, point, ek = walk[i]
            if kind == "m":
                stack.append(enter(child_edges[t][ek], ek, walk[i - 1][1]))
            elif i < len(walk) - 1:
                out.append(edge_key(m, point))

    crossings: list[tuple[int, int]] = []
    for i in range(1, len(spine)):
        crossings.append(spine_keys[i - 1])
        s = spine[i]
        kids = child_edges.get(s)
        if not kids or i == len(spine) - 1:
            if kids and i == len(spine) - 1:
                raise PipelineError(f"spine end {s} unexpectedly has a doubled child")
            continue
        if len(kids) != 1:
            raise PipelineError(f"spine triangle {s} has {len(kids)} doubled children (max 1)")
        ckey, child = next(iter(kids.items()))
        prev_key = spine_keys[i - 1]
        shared = set(prev_key) & set(ckey)
        if len(shared) != 1:
            raise PipelineError(f"spine edge {prev_key} and child edge {ckey} share {len(shared)} vertices")
        subtree_crossings(child, ckey, shared.pop(), crossings)

    out = Mesh(vertices, [tri for tri, live in zip(triangles, alive) if live])
    # spine[0] is a leaf whose one tree edge is on the spine, so it is never
    # split; its id in `out` is the number of live cells before it
    cur = sum(alive[: spine[0]])
    strip = [cur]
    for e in crossings:
        nxt = out.other_triangle(e, cur)
        if nxt is None:
            raise PipelineError(f"strip crossing {e} from {cur} hits a boundary")
        strip.append(nxt)
        cur = nxt
    return strip, records, out


def _split_edges(mesh: Mesh, edges: list[tuple[int, int]]):
    """Replay `split_pair` on each edge in turn, on copies of the mesh lists.

    Returns (records, vertices, triangles, alive) exactly as that many
    `split_pair` calls would leave them on a copy of `mesh`. Only the
    incidence lists of edges still to be split are tracked: a cell
    (x, y, w) split on (x, y) hands edge (w, x) to its child (x, m, w) and
    edge (y, w) to its child (m, y, w), removed and appended in the order
    `kill_triangle` and `add_triangle` use, so later splits list their
    parents in the same order.
    """
    vertices = list(mesh.vertices)
    triangles = list(mesh.triangles)
    alive = list(mesh.alive)
    incident = {e: list(mesh.edge_triangles(e)) for e in edges}
    records: list[SplitRecord] = []
    for e in edges:
        cells = incident.pop(e)
        if len(cells) != 2:
            raise MeshError(
                f"edge {e} is incident to {len(cells)} triangle(s); need exactly 2 to split"
            )
        a, b = e
        pa = vertices[a]
        pb = vertices[b]
        mid = len(vertices)
        vertices.append(((pa[0] + pb[0]) / 2.0, (pa[1] + pb[1]) / 2.0, (pa[2] + pb[2]) / 2.0))
        children: list[int] = []
        for tid in cells:
            x, y, w = triangles[tid]
            # rotate so the split edge is (x, y)
            if edge_key(x, y) != e:
                x, y, w = (y, w, x) if edge_key(y, w) == e else (w, x, y)
                if edge_key(x, y) != e:
                    raise MeshError(f"edge {e} not found in triangle {tid}")
            alive[tid] = False
            first = len(triangles)
            triangles.append((x, mid, w))
            triangles.append((mid, y, w))
            alive += (True, True)
            for edge, child in ((edge_key(w, x), first), (edge_key(y, w), first + 1)):
                incid = incident.get(edge)
                if incid is not None:
                    incid.remove(tid)
                    incid.append(child)
            children += (first, first + 1)
        records.append(
            SplitRecord(edge=e, midpoint=mid, parents=(cells[0], cells[1]), children=tuple(children))
        )
    return records, vertices, triangles, alive


def _shared_tree_edge(tree: DualSpanningTree, a: int, b: int) -> tuple[int, int]:
    if tree.parent[a] == b:
        return tree.parent_edge[a]
    if tree.parent[b] == a:
        return tree.parent_edge[b]
    raise PipelineError(f"{a} and {b} are not tree-adjacent")


# -- orchestrator -----------------------------------------------------------------


def strip_with_boundary(mesh: Mesh) -> StripResult:
    """Full open-strip pipeline for a connected mesh with boundary edges; the
    input mesh is left untouched."""
    timings: dict[str, float] = {}

    def tick(stage, t0):
        timings[stage] = round((time.perf_counter() - t0) * 1000.0, 3)
        return time.perf_counter()

    t0 = time.perf_counter()
    report = validate(mesh, "with_boundary")
    if not report.ok:
        raise ValidationError(report)
    if not mesh.boundary_edges():
        raise ValidationError(_closed_report(mesh))
    n_input = mesh.n_triangles
    t0 = tick("validate", t0)

    records: list[SplitRecord] = []
    if n_input <= 2:
        out = Mesh(mesh.vertices, [mesh.triangles[t] for t in mesh.alive_ids()])
        strip = list(range(n_input))
        spine_len = n_input - 1
    else:
        dual = build_dual(mesh)
        tree = dual_spanning_tree(dual)
        e = balance_edge(tree)
        spine = spine_path(tree, e)
        spine_len = len(spine) - 1
        strip, records, out = euler_strip(mesh, tree, spine)
    t0 = tick("strip", t0)

    ok, why = verify_order(out, strip, closed=False)
    if not ok:
        raise PipelineError(f"open strip failed verification: {why}")
    if len(strip) != n_input + 2 * len(records):
        raise PipelineError(
            f"strip length {len(strip)} != {n_input} + 2*{len(records)} splits"
        )
    t0 = tick("verify", t0)

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
        "elapsed_ms": timings,
    }
    return StripResult(mesh=out, order=strip, closed=False, splits=records, stats=stats)


def _closed_report(mesh: Mesh):
    from .mesh import ValidationReport

    report = ValidationReport(mode="with_boundary")
    report.add("closed_mesh", "mesh has no boundary edges; use the closed-manifold pipeline")
    return report
