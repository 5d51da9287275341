"""Independent brute-force oracles used to freeze expected values.

Nothing here shares code with the library's own traversal/matching paths:
adjacency comes from pairwise vertex-set comparisons, matchings from
exhaustive search, tree statistics from per-edge BFS. The former library
paths kept here as references (the recursive curve search, the point-by-
point repeat filter, the set-based order check, the Euler strip by mesh
edits, the set-based three-cycle elimination, the full-sweep nodal merge,
the dict-based mesh, the heap greedy and its frozenset replay, the blossom
with a base map, and the cycle walk with a dict) share only the primitives
they were built on. The test
helpers (`relabel`, `cycle_lengths`, `mesh_edges`, `vertex_triangles`,
`greedy_reduce`, the forced reductions on their own, the stats and JSON
curve readers, and the mesh geometry, edge scans, table reads and edits) are
not oracles: only tests use them, so they live here rather than in the
library.
"""

from __future__ import annotations

import itertools
import json
from collections import deque
from functools import lru_cache
from pathlib import Path

import numpy as np


def dual_by_shared_vertices(mesh) -> dict[int, set[int]]:
    """Triangle adjacency computed O(n^2) from raw tuples: two triangles are
    adjacent iff they share exactly two vertices."""
    ids = mesh.alive_ids()
    adj: dict[int, set[int]] = {t: set() for t in ids}
    for t1, t2 in itertools.combinations(ids, 2):
        if len(set(mesh.triangles[t1]) & set(mesh.triangles[t2])) == 2:
            adj[t1].add(t2)
            adj[t2].add(t1)
    return adj


def max_matching_size(adj: dict[int, set[int]]) -> int:
    """Exhaustive maximum matching size; fine up to ~16 nodes."""
    nodes = sorted(adj)
    neighbor = {v: frozenset(adj[v]) for v in nodes}

    @lru_cache(maxsize=None)
    def rec(avail: frozenset) -> int:
        if not avail:
            return 0
        v = min(avail)
        rest = avail - {v}
        best = rec(rest)
        for u in sorted(neighbor[v] & rest):
            best = max(best, 1 + rec(rest - {u}))
        return best

    return rec(frozenset(nodes))


def all_perfect_matchings(adj: dict[int, set[int]]) -> list[dict[int, int]]:
    """Every perfect matching, as partner dicts; exhaustive."""
    nodes = sorted(adj)
    out: list[dict[int, int]] = []

    def rec(remaining: list[int], partner: dict[int, int]):
        if not remaining:
            out.append(dict(partner))
            return
        v = remaining[0]
        for u in sorted(adj[v]):
            if u in remaining[1:]:
                partner[v] = u
                partner[u] = v
                rec([x for x in remaining[1:] if x != u], partner)
                del partner[v]
                del partner[u]

    rec(nodes, {})
    return out


def unmatched_cycles(adj: dict[int, set[int]], partner: dict[int, int]) -> list[list[int]]:
    """Connected components of non-matching edges, walked independently."""
    unmatched = {
        v: sorted(u for u in adj[v] if partner.get(v) != u) for v in adj
    }
    seen: set[int] = set()
    cycles = []
    for start in sorted(adj):
        if start in seen:
            continue
        cycle = []
        prev, cur = None, start
        while True:
            cycle.append(cur)
            seen.add(cur)
            nbrs = unmatched[cur]
            assert len(nbrs) == 2, f"node {cur} has {len(nbrs)} unmatched edges"
            nxt = nbrs[0] if nbrs[0] != prev else nbrs[1]
            prev, cur = cur, nxt
            if cur == start:
                break
        cycles.append(cycle)
    return cycles


def is_bipartite(adj: dict[int, set[int]]) -> bool:
    color: dict[int, int] = {}
    for start in adj:
        if start in color:
            continue
        color[start] = 0
        stack = [start]
        while stack:
            v = stack.pop()
            for u in adj[v]:
                if u not in color:
                    color[u] = 1 - color[v]
                    stack.append(u)
                elif color[u] == color[v]:
                    return False
    return True


def girth(adj: dict[int, set[int]]) -> int:
    """Shortest cycle length by BFS from every node."""
    import collections

    best = float("inf")
    for root in adj:
        dist = {root: 0}
        parent = {root: None}
        q = collections.deque([root])
        while q:
            v = q.popleft()
            for u in adj[v]:
                if u not in dist:
                    dist[u] = dist[v] + 1
                    parent[u] = v
                    q.append(u)
                elif parent[v] != u:
                    best = min(best, dist[v] + dist[u] + 1)
        if best == 3:
            break
    return int(best)


def tree_edge_splits(adj: dict[int, set[int]]) -> list[tuple[int, int, int]]:
    """For every edge of a tree: (u, v, size of u's side after removal)."""
    out = []
    n = len(adj)
    for u in sorted(adj):
        for v in sorted(adj[u]):
            if u > v:
                continue
            seen = {u}
            stack = [u]
            while stack:
                x = stack.pop()
                for y in adj[x]:
                    if (x, y) == (u, v):
                        continue
                    if y not in seen:
                        seen.add(y)
                        stack.append(y)
            side = len(seen)
            assert 1 <= side < n
            out.append((u, v, side))
    return out


def longest_path_in_tree(adj: dict[int, set[int]]) -> int:
    """Diameter of a tree in edges (double BFS)."""
    import collections

    def bfs(start):
        dist = {start: 0}
        q = collections.deque([start])
        far = start
        while q:
            v = q.popleft()
            for u in adj[v]:
                if u not in dist:
                    dist[u] = dist[v] + 1
                    if dist[u] > dist[far]:
                        far = u
                    q.append(u)
        return far, dist[far]

    a, _ = bfs(min(adj))
    _, d = bfs(a)
    return d


def prufer_tree(seq: tuple[int, ...]) -> dict[int, set[int]]:
    """Labeled tree on len(seq)+2 nodes from its Pruefer sequence."""
    n = len(seq) + 2
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    adj: dict[int, set[int]] = {i: set() for i in range(n)}
    import heapq

    leaves = [i for i in range(n) if degree[i] == 1]
    heapq.heapify(leaves)
    for x in seq:
        leaf = heapq.heappop(leaves)
        adj[leaf].add(x)
        adj[x].add(leaf)
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    adj[u].add(v)
    adj[v].add(u)
    return adj


def petersen_graph() -> dict[int, set[int]]:
    adj: dict[int, set[int]] = {i: set() for i in range(10)}
    for i in range(5):
        for j in ((i + 1) % 5, (i - 1) % 5):
            adj[i].add(j)
            adj[j].add(i)
        adj[i].add(i + 5)
        adj[i + 5].add(i)
        for j in (5 + (i + 2) % 5, 5 + (i - 2) % 5):
            adj[i + 5].add(j)
            adj[j].add(i + 5)
    return adj


def complete_graph(n: int) -> dict[int, set[int]]:
    return {i: {j for j in range(n) if j != i} for i in range(n)}


def cube_graph() -> dict[int, set[int]]:
    """Q3: vertices are 3-bit strings, edges flip one bit."""
    adj: dict[int, set[int]] = {i: set() for i in range(8)}
    for i in range(8):
        for b in range(3):
            adj[i].add(i ^ (1 << b))
    return adj


def path_graph(n: int) -> dict[int, set[int]]:
    adj: dict[int, set[int]] = {i: set() for i in range(n)}
    for i in range(n - 1):
        adj[i].add(i + 1)
        adj[i + 1].add(i)
    return adj


def graphs_isomorphic_small(a: dict[int, set[int]], b: dict[int, set[int]]) -> bool:
    """Exhaustive isomorphism test for graphs up to ~8 nodes."""
    na, nb = sorted(a), sorted(b)
    if len(na) != len(nb):
        return False
    if sorted(len(a[v]) for v in na) != sorted(len(b[v]) for v in nb):
        return False
    for perm in itertools.permutations(nb):
        mapping = dict(zip(na, perm))
        if all(
            {mapping[u] for u in a[v]} == b[mapping[v]] for v in na
        ):
            return True
    return False


# -- recursive space-filling-curve search ---------------------------------------
#
# The per-cell search the library used before its threading table: at every
# cell and depth, try the four sub-cells in each of the 24 orders and keep the
# first whose connectors (shared-edge midpoints or shared vertices, compared
# as floats) give five distinct waypoints from the entry to the exit point.


def _sfc_mid(p, q):
    return ((p[0] + q[0]) / 2.0, (p[1] + q[1]) / 2.0, (p[2] + q[2]) / 2.0)


def _sfc_boundary_points(cell) -> set:
    a, b, c = cell
    return {a, b, c, _sfc_mid(a, b), _sfc_mid(b, c), _sfc_mid(c, a)}


def _sfc_touch_point(c1, c2):
    common = [p for p in c1 if p in c2]
    if len(common) == 2:
        return _sfc_mid(common[0], common[1])
    if len(common) == 1:
        return common[0]
    return None


SFC_PERM_ORDER = sorted(itertools.permutations(range(4)), key=lambda p: (p.index(3) != 1, p))


def sfc_subcurve(cell, p_in, p_out, depth: int, out: list) -> None:
    """Append the cell's curve points (centroid and exit per leaf cell)."""
    a, b, c = cell
    if depth == 0:
        out.append(((a[0] + b[0] + c[0]) / 3.0, (a[1] + b[1] + c[1]) / 3.0, (a[2] + b[2] + c[2]) / 3.0))
        out.append(p_out)
        return
    mab, mbc, mca = _sfc_mid(a, b), _sfc_mid(b, c), _sfc_mid(c, a)
    cells = [(a, mab, mca), (b, mbc, mab), (c, mca, mbc), (mab, mbc, mca)]
    for perm in SFC_PERM_ORDER:
        seq = [cells[i] for i in perm]
        if p_in not in _sfc_boundary_points(seq[0]) or p_out not in _sfc_boundary_points(seq[-1]):
            continue
        conns = []
        for i in range(3):
            touch = _sfc_touch_point(seq[i], seq[i + 1])
            if touch is None:
                break
            conns.append(touch)
        else:
            waypoints = [p_in, *conns, p_out]
            if len(set(waypoints)) == 5:
                for i in range(4):
                    sfc_subcurve(seq[i], waypoints[i], waypoints[i + 1], depth - 1, out)
                return
    raise ValueError("no valid traversal of the four sub-cells")


def sfc_curve_points(mesh, dc, depth: int) -> list:
    """The curve through a directed cycle, one recursive search per triangle."""
    out: list = []
    for t, e_in, e_out in zip(dc.triangles, dc.entry, dc.exit):
        cell = tuple(mesh.vertices[v] for v in mesh.triangles[t])
        p_in = _sfc_mid(mesh.vertices[e_in[0]], mesh.vertices[e_in[1]])
        p_out = _sfc_mid(mesh.vertices[e_out[0]], mesh.vertices[e_out[1]])
        sfc_subcurve(cell, p_in, p_out, depth, out)
    return out


def dedupe_points(points: list) -> list:
    """Point tuples without consecutive repeats, compared as tuples: the
    filter the curve exporters ran before they masked array rows."""
    out: list = []
    for p in points:
        if not out or out[-1] != p:
            out.append(p)
    return out


def verify_order_by_sets(mesh, order, closed: bool):
    """`verify_order` as it was first written, with a set of seen ids, the
    live ids listed, and two sets intersected per consecutive pair: the same
    checks in the same order, so the same (ok, message) on every input."""
    alive = mesh.alive_ids()
    if len(order) != len(alive):
        return False, f"order lists {len(order)} triangles, mesh has {len(alive)}"
    seen = set()
    for t in order:
        if t < 0 or t >= len(mesh.triangles) or not mesh.alive[t]:
            return False, f"triangle {t} is not a live triangle"
        if t in seen:
            return False, f"triangle {t} appears more than once"
        seen.add(t)
    pairs = len(order) if closed else len(order) - 1
    for i in range(pairs):
        t1 = order[i]
        t2 = order[(i + 1) % len(order)]
        if len(set(mesh.triangles[t1]) & set(mesh.triangles[t2])) != 2:
            return False, f"consecutive triangles {t1} and {t2} do not share an edge"
    return True, None


# -- Euler strip by mesh edits --------------------------------------------------
#
# The open-strip construction as the library ran it before it replayed the
# subdivision on plain lists: one `split_pair` edit of a copy of the mesh per
# doubled tree edge, on the two triangles `edge_triangles` finds on it in the
# copy, the crossing walk on that edited copy, then `compact`.


def euler_strip_by_splits(mesh, tree, spine):
    """(strip, records, out) of the Euler construction, by mesh edits."""
    from singlestrip.mesh import edge_key, split_pair

    def shared_tree_edge(a, b):
        # the raw vertex intersection, not the library's `shared_edge`
        common = set(mesh.triangles[a]) & set(mesh.triangles[b])
        assert len(common) == 2, (a, b, common)
        return edge_key(*common)

    work = mesh.copy()
    doubled = []  # (anchor, child) with anchor nearer the spine
    depth = {s: 0 for s in spine}
    queue = deque(spine)
    while queue:
        t = queue.popleft()
        nbrs = list(tree.children[t]) + ([tree.parent[t]] if tree.parent[t] is not None else [])
        for nb in nbrs:
            if nb not in depth:
                depth[nb] = depth[t] + 1
                doubled.append((t, nb))
                queue.append(nb)
    doubled.sort(key=lambda pair: (depth[pair[0]], pair[0], pair[1]))
    child_edges = {}
    for anchor, child in doubled:
        child_edges.setdefault(anchor, {})[shared_tree_edge(anchor, child)] = child

    records = []
    for anchor, child in doubled:
        e = shared_tree_edge(anchor, child)
        records.append(split_pair(work, e, edge_triangles(work, e)))
    midpoint = {rec.edge: rec.midpoint for rec in records}

    def sweep(t, pkey, enter_v, out):
        m = midpoint[pkey]
        exit_v = pkey[0] if pkey[1] == enter_v else pkey[1]
        apex = next(x for x in work.triangles[t] if x not in pkey)
        out.append(edge_key(enter_v, m))
        for a, b in ((enter_v, apex), (apex, exit_v)):
            ek = edge_key(a, b)
            if ek in child_edges.get(t, ()):
                sweep(child_edges[t][ek], ek, a, out)
            out.append(edge_key(m, b))

    crossings = []
    for i in range(1, len(spine)):
        crossings.append(shared_tree_edge(spine[i - 1], spine[i]))
        kids = child_edges.get(spine[i])
        if kids:
            assert i < len(spine) - 1 and len(kids) == 1
            ckey, child = next(iter(kids.items()))
            (v,) = set(shared_tree_edge(spine[i - 1], spine[i])) & set(ckey)
            sweep(child, ckey, v, crossings)

    strip = [spine[0]]
    for e in crossings:
        strip.append(other_triangle(work, e, strip[-1]))
    out, remap = work.compact()
    return [remap[t] for t in strip], records, out


# -- test meshes and former library helpers -------------------------------------


def relabel(mesh, rng):
    """The same surface with shuffled vertex ids, triangle order and
    starting corners; orientation is kept."""
    from singlestrip.mesh import Mesh

    ids = list(range(mesh.n_vertices))
    rng.shuffle(ids)
    vertices = [None] * len(ids)
    for old, new in enumerate(ids):
        vertices[new] = mesh.vertices[old]
    triangles = []
    for t in mesh.alive_ids():
        a, b, c = (ids[v] for v in mesh.triangles[t])
        triangles.append([(a, b, c), (b, c, a), (c, a, b)][rng.randrange(3)])
    rng.shuffle(triangles)
    return Mesh(vertices, triangles)


def cycle_lengths(cycleset) -> list[int]:
    """Length of each cycle of a `CycleSet`, in cycle order."""
    return [len(c) for c in cycleset.cycles]


def violation_count(report, code: str) -> int:
    """Violations of one kind in a `ValidationReport`."""
    return sum(1 for c, _ in report.violations if c == code)


def greedy_reduce(graph):
    """Forced reductions only: returns (reduced adjacency, partner map, log).

    The reduced graph has minimum degree >= 3 or is empty; replaying the log
    in reverse lifts any matching of the reduced graph to the input graph.
    """
    from singlestrip.matching import _adjacency, _apply_reductions

    adj = _adjacency(graph)
    partner: dict[int, int] = {}
    log: list[tuple] = []
    _apply_reductions(adj, partner, log, deque(sorted(v for v in adj if len(adj[v]) <= 2)))
    return adj, partner, log


def read_stats(path) -> dict:
    """The stats JSON the CLI writes next to its outputs."""
    return json.loads(Path(path).read_text())


def load_curve_json(path):
    """A curve `export_curve` wrote as JSON, as a `CurvePolyline` whose
    points are an (N, 3) float array."""
    from singlestrip.sfc import CurvePolyline

    data = json.loads(Path(path).read_text())
    points = np.asarray(data["points"], dtype=float).reshape(-1, 3)
    return CurvePolyline(points=points, closed=data["closed"])


def reversed_cycle(dc):
    """A `DirectedCycle` walked the other way round from the same first
    triangle: each triangle's entry and exit edges swap."""
    from singlestrip.sfc import DirectedCycle

    return DirectedCycle(
        triangles=[dc.triangles[0]] + dc.triangles[:0:-1],
        entry=[dc.exit[0]] + dc.exit[:0:-1],
        exit=[dc.entry[0]] + dc.entry[:0:-1],
    )


# -- mesh geometry, edge scans and edits that only tests use --------------------
#
# Functions of a library `Mesh` and a triangle id. `edge_triangles` scans the
# raw triangles, sharing nothing with the neighbour table. `insert_centroid`
# and `punch_holes` edit the table by the row edits the pipeline uses:
# `_retire`, `_append` and `_repoint`. Both assume that no edge of the
# triangles they edit has more than two triangles.


def triangle_points(mesh, tid: int) -> np.ndarray:
    return np.array([mesh.vertices[v] for v in mesh.triangles[tid]], dtype=float)


def triangle_area(mesh, tid: int) -> float:
    p = triangle_points(mesh, tid)
    return 0.5 * float(np.linalg.norm(np.cross(p[1] - p[0], p[2] - p[0])))


def triangle_diameter(mesh, tid: int) -> float:
    p = triangle_points(mesh, tid)
    return max(
        float(np.linalg.norm(p[0] - p[1])),
        float(np.linalg.norm(p[1] - p[2])),
        float(np.linalg.norm(p[2] - p[0])),
    )


def plane_distance(mesh, tid: int, point) -> float:
    """Unsigned distance of a point from the triangle's supporting plane."""
    p = triangle_points(mesh, tid)
    n = np.cross(p[1] - p[0], p[2] - p[0])
    norm = float(np.linalg.norm(n))
    assert norm > 0.0, f"triangle {tid} has zero area"
    return abs(float(np.dot(np.asarray(point, dtype=float) - p[0], n))) / norm


def triangle_edges(mesh, tid: int) -> tuple[tuple[int, int], ...]:
    from singlestrip.mesh import edge_key

    a, b, c = mesh.triangles[tid]
    return (edge_key(a, b), edge_key(b, c), edge_key(c, a))


def edge_triangles(mesh, e: tuple[int, int]) -> list[int]:
    """The live triangles on edge e, in listing order: the pair to hand
    `split_pair` for a split of e."""
    u, v = e
    tris = mesh.triangles
    return mesh.listing_order(t for t in mesh.alive_ids() if u in tris[t] and v in tris[t])


def other_triangle(mesh, e: tuple[int, int], tid: int) -> int | None:
    """The live triangle across edge e from live triangle tid, read off the
    neighbour table, or None on a boundary (or if e is not an edge of tid)."""
    tri = mesh.triangles[tid]
    for i in range(3):
        if {tri[i], tri[(i + 1) % 3]} == set(e):
            o = mesh.neighbours[3 * tid + i]
            return o if o >= 0 else None
    return None


def add_centroid(mesh, tid: int) -> int:
    """Append the centroid of triangle tid as a new vertex; returns its id."""
    a, b, c = mesh.triangles[tid]
    pa, pb, pc = mesh.vertices[a], mesh.vertices[b], mesh.vertices[c]
    return mesh.add_vertex(
        (
            (pa[0] + pb[0] + pc[0]) / 3.0,
            (pa[1] + pb[1] + pc[1]) / 3.0,
            (pa[2] + pb[2] + pc[2]) / 3.0,
        )
    )


def insert_centroid(mesh, tid: int) -> tuple[int, tuple[int, int, int]]:
    """Fan-split a triangle at its centroid, creating a degree-3 vertex: the
    inverse of one three-cycle elimination. Returns (vertex, fan ids)."""
    a, b, c = mesh.triangles[tid]
    g = add_centroid(mesh, tid)
    outer = mesh.neighbours[3 * tid : 3 * tid + 3]  # across (a, b), (b, c), (c, a)
    mesh._retire(tid)
    t0 = len(mesh.triangles)
    fan = (t0, t0 + 1, t0 + 2)
    for k, tri in enumerate(((a, b, g), (b, c, g), (c, a, g))):
        # the fan triangle after this one shares (tri[1], g), the one before (g, tri[0])
        mesh._append(tri, [outer[k], fan[(k + 1) % 3], fan[(k + 2) % 3]])
        mesh._repoint(outer[k], tid, fan[k])
    return g, fan


def punch_holes(mesh, tids) -> None:
    """Remove live triangles, leaving boundary edges across them: the
    triangles' slots stay dead and their neighbours' rows read -1 there."""
    for t in tids:
        mesh._retire(t)
        for o in mesh.neighbours[3 * t : 3 * t + 3]:
            mesh._repoint(o, t, -1)


# -- vertex fans from raw triangle tuples ----------------------------------------


def vertex_triangles(mesh) -> dict[int, set[int]]:
    """Vertex id -> set of live triangles incident on it."""
    incid: dict[int, set[int]] = {}
    for t in mesh.alive_ids():
        for v in mesh.triangles[t]:
            incid.setdefault(v, set()).add(t)
    return incid


def fan_by_shared_edges(mesh, v: int, fan: set[int]) -> list[int] | None:
    """The triangles of `fan` around v in cyclic order from the smallest,
    chained through the edges (v, w) they share, from the raw vertex triples
    alone; or None when the chain does not close over the whole fan. A
    triangle (v, w, x), as wound, is followed by the one holding the edge
    (v, x) wound as (v, x, y)."""

    def from_v(t):
        a, b, c = mesh.triangles[t]
        return (a, b, c) if a == v else (b, c, a) if b == v else (c, a, b)

    holding = {}  # w -> the fan triangle wound (v, w, .)
    for t in fan:
        w = from_v(t)[1]
        if w in holding:
            return None
        holding[w] = t
    t0 = min(fan)
    ordered = [t0]
    while True:
        t = holding.get(from_v(ordered[-1])[2])
        if t == t0:
            return ordered if len(ordered) == len(fan) else None
        if t is None or len(ordered) == len(fan):
            return None
        ordered.append(t)


# -- three-cycle elimination on incidence sets ----------------------------------
#
# `eliminate_three_cycles` as the library ran it before it counted fans on
# plain lists: a dict of per-vertex incidence sets, kept up to date as fans
# are replaced, and a hand-rolled walk around each three-triangle fan.


def eliminate_three_cycles_by_sets(mesh):
    """The removal stack of the set-based elimination; mutates the mesh."""
    from singlestrip.striploop import MIN_TRIANGLES, PipelineError, RemovedConfig

    nb, tris = mesh.neighbours, mesh.triangles
    incid = vertex_triangles(mesh)
    queue = deque(sorted(v for v, ts in incid.items() if len(ts) == 3))
    stack = []
    while queue:
        v = queue.popleft()
        if len(incid.get(v, ())) != 3:
            continue
        if mesh.n_triangles - 2 < MIN_TRIANGLES:
            break
        t0 = min(incid[v])
        i0 = tris[t0].index(v)
        a, b = tris[t0][(i0 + 1) % 3], tris[t0][(i0 + 2) % 3]
        t1 = nb[3 * t0 + (i0 + 2) % 3]  # across (b, v)
        if t1 < 0 or t1 not in incid[v]:
            raise PipelineError(f"vertex {v} has 3 triangles but no closed fan")
        i1 = tris[t1].index(v)
        b2, c = tris[t1][(i1 + 1) % 3], tris[t1][(i1 + 2) % 3]
        if b2 != b:
            raise PipelineError(f"inconsistent winding around vertex {v}")
        t2 = (incid[v] - {t0, t1}).pop()
        i2 = tris[t2].index(v)
        c2, a2 = tris[t2][(i2 + 1) % 3], tris[t2][(i2 + 2) % 3]
        if c2 != c or a2 != a:
            raise PipelineError(f"fan around vertex {v} does not close on ring ({a},{b},{c})")

        # the ring edges (a, b), (b, c), (c, a) follow v in t0, t1, t2
        outer = [nb[3 * t + (i + 1) % 3] for t, i in ((t0, i0), (t1, i1), (t2, i2))]
        for t in (t0, t1, t2):
            mesh._retire(t)
        replacement = mesh._append((a, b, c), outer)
        for x, t in zip(outer, (t0, t1, t2)):
            mesh._repoint(x, t, replacement)
        stack.append(RemovedConfig(vertex=v, parents=(t0, t1, t2), replacement=replacement))
        del incid[v]
        for ring, dead in ((a, (t0, t2)), (b, (t0, t1)), (c, (t1, t2))):
            incid[ring].difference_update(dead)
            incid[ring].add(replacement)
            if len(incid[ring]) == 3:
                queue.append(ring)
    return stack


# -- nodal merging by full sweeps -------------------------------------------------
#
# `merge_nodal` as the library ran it before its worklist: every vertex is
# tried in ascending id, pass after pass, until a whole pass accepts no
# toggle, with cycle membership kept by a union-find over triangle ids. Its
# fans come from the raw triangle tuples, not from the neighbour table.


def merge_nodal_full_sweep(mesh, partner, cycleset) -> list[tuple[int, int]]:
    """The (vertex, m) merges of the full-sweep nodal merge; mutates partner."""
    from singlestrip.unionfind import UnionFind

    uf = UnionFind()
    for cycle in cycleset.cycles:
        for t in cycle:
            uf.union(cycle[0], t)
    incid = vertex_triangles(mesh)
    merges: list[tuple[int, int]] = []
    changed = True
    while changed:
        changed = False
        for v in sorted(incid):
            fan = incid[v]
            k = len(fan)
            if k < 4 or k % 2 != 0:
                continue
            ordered = fan_by_shared_edges(mesh, v, fan)
            if ordered is None:
                continue
            flags = [partner.get(ordered[i]) == ordered[(i + 1) % k] for i in range(k)]
            if sum(flags) != k // 2:
                continue
            if any(flags[i] == flags[(i + 1) % k] for i in range(k)):
                continue
            m = k // 2
            roots = {uf.find(ordered[i]) for i in range(k) if not flags[i]}
            if len(roots) != m:
                continue
            for i in range(k):
                if not flags[i]:
                    s, t = ordered[i], ordered[(i + 1) % k]
                    partner[s] = t
                    partner[t] = s
            root_iter = iter(roots)
            first = next(root_iter)
            for other in root_iter:
                uf.union(first, other)
            merges.append((v, m))
            changed = True
    return merges


# -- the dict-based mesh -------------------------------------------------------
#
# `Mesh` as the library kept it before its dual-neighbour table: an edge-key
# -> incidence-list map, updated by every edit, with duplicates tracked in a
# set of sorted vertex triples. Each incidence list holds its live triangles
# in the order they were last added or revived; the map keeps edges in the
# order they were last created. `dict_validate`, `dict_neighbours` and
# `dict_split_pair` are the library's former `validate`, `build_dual`
# (neighbour lists only) and `split_pair` on it, and `dict_insert_centroid`
# its former `insert_centroid`.


class DictMesh:
    """Indexed triangle mesh with an unordered-edge incidence map."""

    def __init__(self, vertices, triangles):
        from math import isfinite

        from singlestrip.mesh import MeshError

        verts = [(float(p[0]), float(p[1]), float(p[2])) for p in vertices]
        for vid, (x, y, z) in enumerate(verts):
            if not (isfinite(x) and isfinite(y) and isfinite(z)):
                raise MeshError(f"vertex {vid} has a non-finite coordinate: {(x, y, z)}")
        self.vertices = verts
        self.triangles: list[tuple[int, int, int]] = []
        self.alive: list[bool] = []
        self.edge_map: dict[tuple[int, int], list[int]] = {}
        self._live_sets: set[tuple[int, int, int]] = set()
        for tri in triangles:
            self.add_triangle(tri)

    @property
    def n_triangles(self) -> int:
        return sum(self.alive)

    def alive_ids(self) -> list[int]:
        return [t for t, a in enumerate(self.alive) if a]

    def add_vertex(self, point) -> int:
        self.vertices.append((float(point[0]), float(point[1]), float(point[2])))
        return len(self.vertices) - 1

    def add_triangle(self, tri) -> int:
        from singlestrip.mesh import MeshError

        a, b, c = (int(tri[0]), int(tri[1]), int(tri[2]))
        n = len(self.vertices)
        if not (0 <= a < n and 0 <= b < n and 0 <= c < n):
            raise MeshError(f"triangle {(a, b, c)} references a vertex out of range (have {n})")
        if a == b or b == c or a == c:
            raise MeshError(f"degenerate triangle with repeated vertex: {(a, b, c)}")
        key = tuple(sorted((a, b, c)))
        if key in self._live_sets:
            raise MeshError(f"duplicate triangle {(a, b, c)}")
        tid = len(self.triangles)
        self.triangles.append((a, b, c))
        self.alive.append(True)
        self._live_sets.add(key)
        for e in triangle_edges(self, tid):
            self.edge_map.setdefault(e, []).append(tid)
        return tid

    def kill_triangle(self, tid: int) -> None:
        from singlestrip.mesh import MeshError

        if not self.alive[tid]:
            raise MeshError(f"triangle {tid} is already dead")
        for e in triangle_edges(self, tid):
            incid = self.edge_map[e]
            incid.remove(tid)
            if not incid:
                del self.edge_map[e]
        self.alive[tid] = False
        self._live_sets.discard(tuple(sorted(self.triangles[tid])))

    def revive_triangle(self, tid: int) -> None:
        from singlestrip.mesh import MeshError

        if self.alive[tid]:
            raise MeshError(f"triangle {tid} is already alive")
        key = tuple(sorted(self.triangles[tid]))
        if key in self._live_sets:
            raise MeshError(f"reviving {tid} would duplicate a live triangle")
        self.alive[tid] = True
        self._live_sets.add(key)
        for e in triangle_edges(self, tid):
            self.edge_map.setdefault(e, []).append(tid)

    def edge_triangles(self, e: tuple[int, int]) -> list[int]:
        return self.edge_map.get(e, [])

    def other_triangle(self, e: tuple[int, int], tid: int) -> int | None:
        for t in self.edge_map.get(e, ()):
            if t != tid:
                return t
        return None

    def boundary_edges(self) -> list[tuple[int, int]]:
        return [e for e, ts in self.edge_map.items() if len(ts) == 1]


def dict_neighbours(mesh) -> dict[int, list[int]]:
    """Per live triangle, the triangles across its edges in slot order."""
    out = {}
    for t in mesh.alive_ids():
        out[t] = [o for e in triangle_edges(mesh, t) if (o := mesh.other_triangle(e, t)) is not None]
    return out


def dict_split_pair(mesh, e):
    """(edge, midpoint, parents, children) of a split on the dict mesh."""
    from singlestrip.mesh import MeshError, edge_key

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
        for shift in range(3):
            if edge_key(tri[shift], tri[(shift + 1) % 3]) == e:
                x, y, w = tri[shift], tri[(shift + 1) % 3], tri[(shift + 2) % 3]
                break
        else:
            raise MeshError(f"edge {e} not found in triangle {tid}")
        mesh.kill_triangle(tid)
        children.append(mesh.add_triangle((x, mid, w)))
        children.append(mesh.add_triangle((mid, y, w)))
    return e, mid, (incident[0], incident[1]), tuple(children)


def dict_insert_centroid(mesh, tid):
    """`insert_centroid` on the dict mesh, by one kill and three adds."""
    a, b, c = mesh.triangles[tid]
    g = add_centroid(mesh, tid)
    mesh.kill_triangle(tid)
    return g, tuple(mesh.add_triangle(tri) for tri in ((a, b, g), (b, c, g), (c, a, g)))


def dict_validate(mesh, mode: str = "closed") -> list[tuple[str, str]]:
    """The violations `validate` reported on the dict mesh, in order."""
    violations: list[tuple[str, str]] = []
    alive = mesh.alive_ids()
    if not alive:
        return [("empty", "mesh has no triangles")]

    def direction(tri, a, b):
        for i in range(3):
            if tri[i] == a and tri[(i + 1) % 3] == b:
                return 1
            if tri[i] == b and tri[(i + 1) % 3] == a:
                return -1

    shared_pairs: dict[tuple[int, int], int] = {}
    for e, tris in mesh.edge_map.items():
        if len(tris) > 2:
            violations.append(("non_manifold", f"edge {e} has {len(tris)} incident triangles"))
            continue
        if len(tris) == 1:
            if mode == "closed":
                violations.append(("open_edge", f"edge {e} is incident to only triangle {tris[0]}"))
            continue
        t1, t2 = tris
        pair = (t1, t2) if t1 < t2 else (t2, t1)
        shared_pairs[pair] = shared_pairs.get(pair, 0) + 1
        if direction(mesh.triangles[t1], *e) == direction(mesh.triangles[t2], *e):
            violations.append(
                ("orientation", f"edge {e} has the same winding in triangles {t1} and {t2}")
            )
    for (t1, t2), shared in shared_pairs.items():
        if shared > 1:
            violations.append(("double_adjacency", f"triangles {t1} and {t2} share {shared} edges"))

    seen = {alive[0]}
    queue = deque([alive[0]])
    while queue:
        t = queue.popleft()
        for e in triangle_edges(mesh, t):
            o = mesh.other_triangle(e, t)
            if o is not None and o not in seen:
                seen.add(o)
                queue.append(o)
    if len(seen) != len(alive):
        violations.append(
            ("disconnected_dual",
             f"dual graph has {len(alive) - len(seen)} triangle(s) unreachable from {alive[0]}")
        )
    return violations


def mesh_edges(mesh) -> list[tuple[int, int]]:
    """The distinct edges of the live triangles, by triangle id and slot."""
    return list(dict.fromkeys(e for t in mesh.alive_ids() for e in triangle_edges(mesh, t)))


# -- the matching phases as first written --------------------------------------
#
# The greedy phase with a pick heap and a contraction log of tagged tuples
# holding frozensets, and its replay; the blossom phase with every row sorted
# up front and blossom bases kept in a map beside a `UnionFind`. The library
# replaced both with leaner loops that must give the same partner maps, pick
# counts and matchings.


def greedy_consume_by_heap(adj):
    """(partner, log, picks) of the greedy phase as first written; consumes
    the node -> neighbour-set mapping `adj`."""
    import heapq

    partner: dict[int, int] = {}
    log: list[tuple] = []
    picks = 0
    heap = sorted(adj)
    _reductions_by_frozensets(adj, partner, log)
    while adj:
        while heap and heap[0] not in adj:
            heapq.heappop(heap)
        if not heap:
            break
        v = heapq.heappop(heap)
        u = min(adj[v])
        partner[v] = u
        partner[u] = v
        picks += 1
        seeds: list[int] = []
        adj[v].discard(u)
        adj[u].discard(v)
        for node in (v, u):
            for x in adj[node]:
                adj[x].discard(node)
                if len(adj[x]) <= 2:
                    seeds.append(x)
            del adj[node]
        _reductions_by_frozensets(adj, partner, log, seeds=seeds)
    return partner, log, picks


def _reductions_by_frozensets(adj, partner, log, seeds=None) -> None:
    if seeds is None:
        queue = deque(sorted(v for v in adj if len(adj[v]) <= 2))
    else:
        queue = deque(seeds)

    def detach(v: int) -> None:
        for x in adj[v]:
            adj[x].discard(v)
            if len(adj[x]) <= 2:
                queue.append(x)
        del adj[v]

    while queue:
        v = queue.popleft()
        if v not in adj:
            continue
        deg = len(adj[v])
        if deg == 0:
            del adj[v]
        elif deg == 1:
            u = next(iter(adj[v]))
            partner[v] = u
            partner[u] = v
            log.append(("leaf", v, u))
            del adj[v]
            adj[u].discard(v)
            detach(u)
        elif deg == 2:
            u, w = sorted(adj[v])
            log.append(
                ("contract", v, u, w, frozenset(adj[u] - {v, w}), frozenset(adj[w] - {v, u}))
            )
            adj[u].discard(v)
            adj[w].discard(v)
            del adj[v]
            for x in adj[w]:
                if x == u:
                    continue
                adj[x].discard(w)
                if u in adj[x]:
                    if len(adj[x]) <= 2:
                        queue.append(x)
                else:
                    adj[x].add(u)
                    adj[u].add(x)
            del adj[w]
            adj[u].discard(w)
            if len(adj[u]) <= 2:
                queue.append(u)


def replay_reductions_by_frozensets(partner, log):
    """`replay_reductions` on a `greedy_consume_by_heap` log."""
    from singlestrip.matching import MatchingError

    partner = dict(partner)
    for entry in reversed(log):
        if entry[0] != "contract":
            continue
        _, v, u, w, adj_u, adj_w = entry
        x = partner.get(u)
        if x is None:
            partner[u] = v
            partner[v] = u
        elif x in adj_u:
            partner[v] = w
            partner[w] = v
        else:
            if x not in adj_w:
                raise MatchingError(f"contraction replay: {u}'s partner {x} fits neither side")
            partner[w] = x
            partner[x] = w
            partner[u] = v
            partner[v] = u
    return partner


def blossom_by_base_map(graph, seed=None):
    """`blossom_maximum_matching` as first written."""
    from singlestrip.matching import validate_matching

    adj = {v: sorted(ns) for v, ns in graph.items()}
    match: dict[int, int] = {}
    if seed:
        validate_matching(graph, seed)
        match.update(seed)
    for root in sorted(adj):
        if root not in match:
            _augment_by_base_map(adj, match, root)
    return match


def _augment_by_base_map(adj, match, root) -> bool:
    from singlestrip.unionfind import UnionFind

    parent: dict[int, int] = {}
    uf = UnionFind()
    in_blossom = uf.parent
    base_of: dict = {}
    used = {root}
    queue = deque([root])

    def fbase(x):
        if x not in in_blossom:
            return x
        r = uf.find(x)
        return base_of.get(r, r)

    def lca(a, b):
        seen = set()
        x = fbase(a)
        while True:
            seen.add(x)
            mx = match.get(x)
            if mx is None:
                break
            x = fbase(parent[mx])
        y = fbase(b)
        while y not in seen:
            y = fbase(parent[match[y]])
        return y

    def mark_path(v, b, child, marked):
        while fbase(v) != b:
            marked.append(fbase(v))
            marked.append(fbase(match[v]))
            parent[v] = child
            child = match[v]
            v = parent[match[v]]

    while queue:
        v = queue.popleft()
        for to in adj[v]:
            if fbase(v) == fbase(to) or match.get(v) == to:
                continue
            if to == root or (match.get(to) is not None and match[to] in parent):
                b = lca(v, to)
                marked: list = []
                mark_path(v, b, to, marked)
                mark_path(to, b, v, marked)
                for node in marked:
                    uf.union(node, b)
                    if node not in used:
                        used.add(node)
                        queue.append(node)
                base_of[uf.find(b)] = b
            elif to not in parent:
                parent[to] = v
                partner = match.get(to)
                if partner is None:
                    node = to
                    while node is not None:
                        prev = parent[node]
                        nxt = match.get(prev)
                        match[node] = prev
                        match[prev] = node
                        node = nxt
                    return True
                used.add(partner)
                queue.append(partner)
    return False


# -- the cycle walk as first written ----------------------------------------------


def extract_cycles_by_dict(mesh, partner):
    """(cycles, cycle_of) of `extract_cycles` as first written: each row
    copied and the partner removed from it, `cycle_of` a dict over the live
    triangles. Raises the library's `PipelineError` with the same messages."""
    from singlestrip.striploop import PipelineError

    nb = mesh.neighbours
    n = mesh.n_triangles
    cycles: list[list[int]] = []
    cycle_of: dict[int, int] = {}
    for start in mesh.alive_ids():
        if start in cycle_of:
            continue
        idx = len(cycles)
        cycle = []
        prev, cur = None, start
        while True:
            free = nb[3 * cur : 3 * cur + 3]
            p = partner.get(cur)
            if p in free:
                free.remove(p)
            if len(free) != 2 or -1 in free:
                hint = "; matching is not perfect on a 3-regular dual" if cur == start else ""
                raise PipelineError(
                    f"triangle {cur} has {sum(o >= 0 for o in free)} unmatched dual edges "
                    f"(need 2){hint}"
                )
            cycle.append(cur)
            cycle_of[cur] = idx
            prev, cur = cur, free[0] if free[0] != prev else free[1]
            if cur == start:
                break
            if len(cycle) > n:
                raise PipelineError("unmatched-edge walk does not close")
        cycles.append(cycle)
    return cycles, cycle_of
