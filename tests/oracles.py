"""Independent brute-force oracles used to freeze expected values.

Nothing here shares code with the library's own traversal/matching paths:
adjacency comes from pairwise vertex-set comparisons, matchings from
exhaustive search, tree statistics from per-edge BFS. The former library
paths kept here as references (the recursive curve search, the Euler strip
by mesh edits and the full-sweep nodal merge) share only the primitives
they were built on. The test helpers at the end (`relabel`, `cycle_lengths`
and `greedy_reduce`, the forced reductions on their own) are not oracles:
only tests use them, so they live here rather than in the library.
"""

from __future__ import annotations

import itertools
from collections import deque
from functools import lru_cache


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


# -- Euler strip by mesh edits --------------------------------------------------
#
# The open-strip construction as the library ran it before it replayed the
# subdivision on plain lists: one `split_pair` edit of a copy of the mesh per
# doubled tree edge, the crossing walk on that edited copy, then `compact`.


def euler_strip_by_splits(mesh, tree, spine):
    """(strip, records, out) of the Euler construction, by mesh edits."""
    from singlestrip.mesh import edge_key, split_pair

    def shared_tree_edge(a, b):
        return tree.parent_edge[a] if tree.parent[a] == b else tree.parent_edge[b]

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

    records = [split_pair(work, shared_tree_edge(anchor, child)) for anchor, child in doubled]
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
        strip.append(work.other_triangle(e, strip[-1]))
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


def greedy_reduce(graph):
    """Forced reductions only: returns (reduced adjacency, partner map, log).

    The reduced graph has minimum degree >= 3 or is empty; replaying the log
    in reverse lifts any matching of the reduced graph to the input graph.
    """
    from singlestrip.matching import _adjacency, _apply_reductions

    adj = _adjacency(graph)
    partner: dict[int, int] = {}
    log: list[tuple] = []
    _apply_reductions(adj, partner, log)
    return adj, partner, log


# -- nodal merging by full sweeps -------------------------------------------------
#
# `merge_nodal` as the library ran it before its worklist: every vertex is
# tried in ascending id, pass after pass, until a whole pass accepts no
# toggle, with cycle membership kept by a union-find over triangle ids.


def merge_nodal_full_sweep(mesh, partner, cycleset) -> list[tuple[int, int]]:
    """The (vertex, m) merges of the full-sweep nodal merge; mutates partner."""
    from singlestrip.striploop import _fan_order
    from singlestrip.unionfind import UnionFind

    uf = UnionFind()
    for cycle in cycleset.cycles:
        for t in cycle:
            uf.union(cycle[0], t)
    incid = mesh.vertex_triangles()
    merges: list[tuple[int, int]] = []
    changed = True
    while changed:
        changed = False
        for v in sorted(incid):
            fan = incid[v]
            k = len(fan)
            if k < 4 or k % 2 != 0:
                continue
            result = _fan_order(mesh, v, fan)
            if result is None:
                continue
            ordered, _links = result
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
