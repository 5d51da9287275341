"""Closed-manifold single-cycle pipeline.

Degree-3 vertex configurations are removed so no unmatched three-cycle can
occur, the simplified dual is perfectly matched, the configurations are
restored, the unmatched edges are walked into disjoint triangle cycles,
cycles around nodal vertices are merged by toggling their fans, and the
remaining cycles are merged by splitting the matched pairs on a spanning
tree of the cycle graph, leaving a single Hamiltonian triangle cycle.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field

from .matching import MatchingError, MatchState, perfect_match_dual
from .mesh import (
    DualGraph,
    Mesh,
    SplitRecord,
    ValidationError,
    build_dual,
    edge_key,
    split_pair,
    validate,
    _rotate_to,
)
from .unionfind import UnionFind


class PipelineError(Exception):
    """An internal pipeline invariant failed."""


# -- three-cycle elimination --------------------------------------------------


@dataclass(frozen=True)
class RemovedConfig:
    """A removed degree-3 vertex: three fan triangles replaced by their ring.

    `edge_owner` maps each ring edge to the fan triangle that contained it,
    which is what restoration needs to re-route the replacement's match.
    """

    vertex: int
    parents: tuple[int, int, int]
    replacement: int
    edge_owner: dict[tuple[int, int], int]


def eliminate_three_cycles(mesh: Mesh, min_triangles: int = 4) -> list[RemovedConfig]:
    """Remove every interior vertex with exactly three incident triangles.

    Mutates the mesh in place and returns the removal stack (LIFO order for
    restoration). Removal cascades: replacing a fan can drop a ring vertex's
    incidence count to three. Stops rather than shrink the mesh to fewer
    than `min_triangles` triangles (a tetrahedron remains matchable as K4).
    """
    incid = mesh.vertex_triangles()
    queue = deque(sorted(v for v, ts in incid.items() if len(ts) == 3))
    stack: list[RemovedConfig] = []
    while queue:
        v = queue.popleft()
        if len(incid.get(v, ())) != 3:
            continue
        if mesh.n_triangles - 2 < min_triangles:
            break
        t0 = min(incid[v])
        _, a, b = _rotate_to(mesh.triangles[t0], v)
        t1 = mesh.other_triangle(edge_key(v, b), t0)
        if t1 is None or t1 not in incid[v]:
            raise PipelineError(f"vertex {v} has 3 triangles but no closed fan")
        _, b2, c = _rotate_to(mesh.triangles[t1], v)
        if b2 != b:
            raise PipelineError(f"inconsistent winding around vertex {v}")
        t2 = (incid[v] - {t0, t1}).pop()
        _, c2, a2 = _rotate_to(mesh.triangles[t2], v)
        if c2 != c or a2 != a:
            raise PipelineError(f"fan around vertex {v} does not close on ring ({a},{b},{c})")

        mesh.kill_triangle(t0)
        mesh.kill_triangle(t1)
        mesh.kill_triangle(t2)
        replacement = mesh.add_triangle((a, b, c))
        stack.append(
            RemovedConfig(
                vertex=v,
                parents=(t0, t1, t2),
                replacement=replacement,
                edge_owner={
                    edge_key(a, b): t0,
                    edge_key(b, c): t1,
                    edge_key(c, a): t2,
                },
            )
        )
        del incid[v]
        for ring, dead in ((a, (t0, t2)), (b, (t0, t1)), (c, (t1, t2))):
            incid[ring].difference_update(dead)
            incid[ring].add(replacement)
            if len(incid[ring]) == 3:
                queue.append(ring)
    return stack


def restore_three_cycles(
    mesh: Mesh, partner: dict[int, int], stack: list[RemovedConfig]
) -> dict[int, int]:
    """Re-insert removed configurations, keeping the matching perfect.

    The fan triangle owning the edge across which the replacement was matched
    inherits that match; the other two fan triangles are matched together, so
    no unmatched three-cycle appears. Mutates mesh and partner in place.
    """
    for cfg in reversed(stack):
        r = cfg.replacement
        x = partner.pop(r, None)
        if x is None:
            raise PipelineError(f"replacement triangle {r} is unmatched; matching not perfect")
        matched_edge = None
        for e in mesh.triangle_edges(r):
            if mesh.other_triangle(e, r) == x:
                matched_edge = e
                break
        if matched_edge is None:
            raise PipelineError(f"replacement {r} is matched to non-neighbor {x}")
        owner = cfg.edge_owner[matched_edge]
        mesh.kill_triangle(r)
        for t in cfg.parents:
            mesh.revive_triangle(t)
        partner[owner] = x
        partner[x] = owner
        rest = [t for t in cfg.parents if t != owner]
        partner[rest[0]] = rest[1]
        partner[rest[1]] = rest[0]
    return partner


# -- cycle extraction ---------------------------------------------------------


@dataclass
class CycleSet:
    """Disjoint unmatched-edge cycles partitioning the triangles.

    ``cycles[i]`` starts at its smallest triangle id and cycles are listed
    in ascending order of that id; ``cycle_of`` maps each triangle to the
    index of its cycle.
    """

    cycles: list[list[int]]
    cycle_of: dict[int, int]

    @property
    def count(self) -> int:
        return len(self.cycles)


def _unmatched_neighbors(dual: DualGraph, partner: dict[int, int], t: int) -> list[int]:
    return [n for n, _ in dual.adjacency[t] if partner.get(t) != n]


def extract_cycles(dual: DualGraph, partner: dict[int, int]) -> CycleSet:
    """Partition triangles into cycles by walking unmatched dual edges."""
    cycles: list[list[int]] = []
    cycle_of: dict[int, int] = {}
    for start in sorted(dual.adjacency):
        if start in cycle_of:
            continue
        nbrs = _unmatched_neighbors(dual, partner, start)
        if len(nbrs) != 2:
            raise PipelineError(
                f"triangle {start} has {len(nbrs)} unmatched dual edges (need 2); "
                "matching is not perfect on a 3-regular dual"
            )
        idx = len(cycles)
        cycle = []
        prev, cur = None, start
        while True:
            cycle.append(cur)
            cycle_of[cur] = idx
            nbrs = _unmatched_neighbors(dual, partner, cur)
            if len(nbrs) != 2:
                raise PipelineError(
                    f"triangle {cur} has {len(nbrs)} unmatched dual edges (need 2)"
                )
            nxt = nbrs[0] if nbrs[0] != prev else nbrs[1]
            prev, cur = cur, nxt
            if cur == start:
                break
            if len(cycle) > dual.n:
                raise PipelineError("unmatched-edge walk does not close")
        cycles.append(cycle)
    return CycleSet(cycles=cycles, cycle_of=cycle_of)


# -- nodal merging ------------------------------------------------------------


def _fan_order(mesh: Mesh, v: int, fan: set[int]):
    """Incident triangles of v in cyclic fan order, with the linking edges.

    Returns (ordered, links) where links[i] is the mesh edge shared by
    ordered[i] and ordered[(i+1) % len], or None if the fan does not close
    over exactly the incident set (boundary or non-manifold neighborhood).
    """
    t0 = min(fan)
    _, _, far = _rotate_to(mesh.triangles[t0], v)
    ordered = [t0]
    links = []
    cur = t0
    while True:
        e = edge_key(v, far)
        nxt = mesh.other_triangle(e, cur)
        if nxt is None:
            return None
        links.append(e)
        if nxt == t0:
            break
        if nxt not in fan or len(ordered) > len(fan):
            return None
        ordered.append(nxt)
        _, near, far = _rotate_to(mesh.triangles[nxt], v)
        if near != links[-1][0] and near != links[-1][1]:
            return None
        cur = nxt
    if len(ordered) != len(fan):
        return None
    return ordered, links


def merge_nodal(
    mesh: Mesh, dual: DualGraph, partner: dict[int, int], cycleset: CycleSet
) -> tuple[CycleSet, list[tuple[int, int]]]:
    """Toggle matched/unmatched fan edges around every nodal vertex.

    A vertex with 2m incident triangles qualifies when its fan edges
    alternate matched/unmatched and the m unmatched pairs lie on m distinct
    cycles; toggling then merges those cycles into one without any split.
    Vertices are tried once each, in ascending id. Trying them again, pass
    after pass, would accept nothing more: a toggle at u leaves every vertex
    w of u's fan rejected, because the two fan triangles on edge uw are
    either now unmatched, with partners outside w's fan, or matched to each
    other, leaving two unmatched pairs of w's fan on the one merged cycle;
    and only such toggles change a partner in w's fan. A vertex whose link
    is several fans (a pinched vertex) never qualifies, as `_fan_order`
    finds no single closed fan. Returns the rebuilt cycle set and the
    (vertex, m) merges.
    """
    incid = mesh.vertex_triangles()
    cycle_of = cycleset.cycle_of
    uf = UnionFind()  # over cycle indices
    merges: list[tuple[int, int]] = []
    expected = cycleset.count
    for v in sorted(incid):
        fan = incid[v]
        k = len(fan)
        if k < 4 or k % 2 != 0:
            continue
        # alternation matches every fan triangle inside the fan
        if any(partner.get(t) not in fan for t in fan):
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
        roots = {uf.find(cycle_of[ordered[i]]) for i in range(k) if not flags[i]}
        if len(roots) != m:
            continue
        # toggle: previously unmatched fan pairs become the new matches
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
        expected -= m - 1
    rebuilt = extract_cycles(dual, partner)
    if rebuilt.count != expected:
        raise PipelineError(
            f"nodal merging bookkeeping is off: expected {expected} cycles, "
            f"found {rebuilt.count}"
        )
    return rebuilt, merges


# -- spanning-tree splits ------------------------------------------------------


def spanning_tree_splits(
    mesh: Mesh, dual: DualGraph, partner: dict[int, int], cycleset: CycleSet
) -> list[SplitRecord]:
    """Split the matched pairs on a spanning tree of the cycle graph.

    Each split re-matches the four children in sibling pairs and frees the
    two halves of the split edge, routing one cycle through the other; k
    cycles need exactly k-1 splits. Mutates mesh and partner in place.
    """
    if cycleset.count <= 1:
        return []
    cycles, cycle_of = cycleset.cycles, cycleset.cycle_of
    # edges sort by their mesh edge, which is unique, so the tree does not
    # depend on how cycles are numbered
    graph: list[list[tuple[tuple[int, int], int, int, int]]] = [[] for _ in cycles]
    for t in sorted(dual.adjacency):
        u = partner.get(t)
        if u is None or u < t:
            continue
        e = next(e for n, e in dual.adjacency[t] if n == u)
        ct, cu = cycle_of[t], cycle_of[u]
        if ct == cu:
            continue
        graph[ct].append((e, cu, t, u))
        graph[cu].append((e, ct, t, u))
    for edges in graph:
        edges.sort()

    # the longest cycle; ties go to the one holding the smallest triangle id
    start = max(range(len(cycles)), key=lambda i: (len(cycles[i]), -cycles[i][0]))
    visited = {start}
    queue = deque([start])
    tree: list[tuple[tuple[int, int], int, int]] = []
    while queue:
        c = queue.popleft()
        for e, nb, t, u in graph[c]:
            if nb not in visited:
                visited.add(nb)
                queue.append(nb)
                tree.append((e, t, u))
    if len(tree) != cycleset.count - 1:
        raise PipelineError(
            f"cycle graph is disconnected: spanning tree has {len(tree)} edges "
            f"for {cycleset.count} cycles"
        )

    records = []
    for e, t, u in tree:
        rec = split_pair(mesh, e)
        del partner[t]
        del partner[u]
        c0, c1, c2, c3 = rec.children
        partner[c0] = c1
        partner[c1] = c0
        partner[c2] = c3
        partner[c3] = c2
        records.append(rec)
    return records


# -- assembly and verification -------------------------------------------------


def assemble_cycle(mesh: Mesh, partner: dict[int, int]) -> list[int]:
    """Walk the single unmatched-edge cycle over all live triangles."""
    n = mesh.n_triangles
    start = min(mesh.alive_ids())
    order = [start]
    enter = None
    cur = start
    while True:
        step = None
        for e in mesh.triangle_edges(cur):
            if e == enter:
                continue
            o = mesh.other_triangle(e, cur)
            if o is None or partner.get(cur) == o:
                continue
            step = (e, o)
            break
        if step is None:
            raise PipelineError(f"triangle {cur} has no unmatched exit edge")
        enter, cur = step
        if cur == start:
            break
        order.append(cur)
        if len(order) > n:
            raise PipelineError("cycle walk revisits a triangle")
    if len(order) != n:
        raise PipelineError(
            f"unmatched edges form more than one cycle ({len(order)} of {n} triangles reached)"
        )
    return order


def verify_order(mesh: Mesh, order: list[int], closed: bool) -> tuple[bool, str | None]:
    """Independent checker: exact-once coverage and edge adjacency.

    Works from raw triangle tuples only, sharing no traversal state with the
    pipeline. Returns (ok, first violation or None).
    """
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


def verify_cycle(mesh: Mesh, cycle: list[int]) -> tuple[bool, str | None]:
    return verify_order(mesh, cycle, closed=True)


# -- orchestrator ---------------------------------------------------------------


@dataclass
class StripResult:
    """Pipeline output: the subdivided mesh and the triangle order over it.

    ``match_state`` is a snapshot of the matching stage's output: the perfect
    matching of the dual after three-cycle elimination, with its greedy and
    augmentation counters. Restoration, nodal merging and splits work on a
    copy of its partner map, so no later stage touches it.

    ``work_mesh`` is the closed pipeline's working mesh, with its dead slots,
    on whose ids ``splits`` are numbered. The open pipeline never builds one
    and leaves it ``None``: its ``splits`` are numbered as `split_pair` would
    number them on a copy of the input mesh.
    """

    mesh: Mesh
    order: list[int]
    closed: bool
    splits: list[SplitRecord]
    stats: dict
    work_mesh: Mesh = field(repr=False, default=None)
    match_state: MatchState = field(repr=False, default=None)


def stripify(mesh: Mesh) -> StripResult:
    """Full closed-manifold pipeline; the input mesh is left untouched."""
    timings: dict[str, float] = {}

    def tick(stage, t0):
        timings[stage] = round((time.perf_counter() - t0) * 1000.0, 3)
        return time.perf_counter()

    t0 = time.perf_counter()
    report = validate(mesh, "closed")
    if not report.ok:
        raise ValidationError(report)
    n_input = mesh.n_triangles
    work = mesh.copy()
    t0 = tick("validate", t0)

    # a tetrahedron would be consumed by elimination; its K4 dual already
    # yields a single 4-cycle, so skip straight to matching
    stack = [] if n_input == 4 else eliminate_three_cycles(work)
    t0 = tick("eliminate", t0)

    dual = build_dual(work)
    n_matched_dual = dual.n
    match_state = perfect_match_dual(dual)
    # the later stages rewrite the working map; match_state keeps the matching
    partner = dict(match_state.partner)
    t0 = tick("match", t0)

    restore_three_cycles(work, partner, stack)
    if stack:
        dual = build_dual(work)
    t0 = tick("restore", t0)

    cycleset = extract_cycles(dual, partner)
    cycles_initial = cycleset.count
    if any(len(c) == 3 for c in cycleset.cycles):
        raise PipelineError("an unmatched three-cycle survived elimination")
    t0 = tick("cycles", t0)

    cycleset, merges = merge_nodal(work, dual, partner, cycleset)
    cycles_after = cycleset.count
    t0 = tick("nodal", t0)

    records = spanning_tree_splits(work, dual, partner, cycleset)
    t0 = tick("splits", t0)

    order = assemble_cycle(work, partner)
    ok, why = verify_cycle(work, order)
    if not ok:
        raise PipelineError(f"assembled cycle failed verification: {why}")
    t0 = tick("assemble", t0)

    final, remap = work.compact()
    n_output = final.n_triangles
    stats = {
        "input_triangles": n_input,
        "output_triangles": n_output,
        "percent_increase": round(100.0 * (n_output - n_input) / n_input, 2),
        "cycles_initial": cycles_initial,
        "cycles_after_nodal": cycles_after,
        "splits": len(records),
        "nodal_merges": len(merges),
        "greedy_matched": match_state.greedy_matched,
        "greedy_coverage": round(match_state.greedy_matched / max(1, n_matched_dual), 4),
        "greedy_picks": match_state.greedy_picks,
        "augmentations": match_state.augmentations,
        "verified": True,
        "elapsed_ms": timings,
    }
    return StripResult(
        mesh=final,
        order=[remap[t] for t in order],
        closed=True,
        splits=records,
        stats=stats,
        work_mesh=work,
        match_state=match_state,
    )
