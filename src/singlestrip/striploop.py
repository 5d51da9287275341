"""Closed-manifold single-cycle pipeline.

Degree-3 vertex configurations are removed so no unmatched three-cycle can
occur, the simplified dual is perfectly matched, the configurations are
restored, the unmatched edges are walked into disjoint triangle cycles,
cycles around nodal vertices are merged by toggling their fans, and the
remaining cycles are merged by splitting the matched pairs of a spanning
tree that Kruskal's rule picks, leaving a single Hamiltonian triangle cycle.
Both merges join cycles in one union-find over the walked cycles, which are
not walked again. The matching is one partner list indexed by triangle id
(-1: unmatched), which every stage after matching edits in place.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .matching import perfect_match_dual
from .mesh import (
    Mesh,
    ValidationError,
    _flags,
    _ints,
    _live_triangles,
    shared_edge,
    split_pair,
    validate,
)


class PipelineError(Exception):
    """An internal pipeline invariant failed; `stage` names the stage it
    failed in, once it has left a `StageTimer` block, and `triangles` holds
    the ids of the triangles involved, where the raise knows them."""

    stage: str | None = None

    def __init__(self, message: str, triangles=()):
        super().__init__(message)
        self.triangles = tuple(triangles)


# -- three-cycle elimination --------------------------------------------------

# Elimination never shrinks the mesh below this many triangles: a
# tetrahedron's K4 dual already yields a single 4-cycle.
MIN_TRIANGLES = 4


@dataclass(frozen=True)
class RemovedConfig:
    """A removed degree-3 vertex: three fan triangles replaced by their ring.

    `parents[j]` held the replacement's ring edge j, from its vertex j to
    vertex j + 1, which is what restoration needs to re-route the
    replacement's match.
    """

    vertex: int
    parents: tuple[int, int, int]
    replacement: int


def _vertex_fans(mesh: Mesh) -> tuple[list[int], list[int]]:
    """Per vertex id, the number of live triangles on it and the smallest of
    them (-1 where there is none): the fan size and the anchor that
    `_fan_order` walks from. Both come from one array of the live rows, by
    a count and a minimum per vertex. Restoration brings back the live set
    that elimination started from, so `stripify` takes these once, before
    elimination, for both elimination and nodal merging."""
    n = mesh.n_vertices
    corners = _live_triangles(mesh).ravel()
    count = np.bincount(corners, minlength=n)
    anchor = np.full(n, len(mesh.triangles), dtype=np.int64)
    np.minimum.at(anchor, corners, np.repeat(np.flatnonzero(_flags(mesh.alive)), 3))
    anchor[count == 0] = -1
    return count.tolist(), anchor.tolist()


def _fan_order(mesh: Mesh, v: int, t0: int, k: int) -> list[int] | None:
    """The live triangles around v in cyclic fan order from t0, read off the
    neighbour table, or None unless the walk returns to t0 over exactly k
    triangles (a boundary, or a pinched vertex whose link is several fans).
    Each triangle is followed by the one across its edge (w, v)."""
    nb, tris = mesh.neighbours, mesh.triangles
    ordered = [t0]
    t = t0
    while True:
        tri = tris[t]
        t = nb[3 * t + (tri.index(v) + 2) % 3]
        if t == t0:
            return ordered if len(ordered) == k else None
        if t < 0 or len(ordered) == k:
            return None
        ordered.append(t)


def eliminate_three_cycles(
    mesh: Mesh, fans: tuple[list[int], list[int]]
) -> list[RemovedConfig]:
    """Remove every interior vertex with exactly three incident triangles.

    Mutates the mesh in place and returns the removal stack (LIFO order for
    restoration). Vertices are taken in ascending id, each fan from its
    smallest triangle; the replacement's row takes the fan's outer
    neighbours, which are re-pointed to it. Removal cascades: replacing a
    fan drops each ring vertex's triangle count by one, and a ring vertex
    left with three is queued. Stops rather than shrink the mesh below
    `MIN_TRIANGLES`, so a tetrahedron is left as it is. `fans` is the
    mesh's `_vertex_fans`; they are edited in a copy.
    """
    nb, tris = mesh.neighbours, mesh.triangles
    count, anchor = (f.copy() for f in fans)
    queue = deque(np.flatnonzero(_ints(count) == 3).tolist())
    stack: list[RemovedConfig] = []
    while queue:
        v = queue.popleft()
        if count[v] != 3:
            continue
        if mesh.n_triangles - 2 < MIN_TRIANGLES:
            break
        fan = _fan_order(mesh, v, anchor[v], 3)
        if fan is None:
            raise PipelineError(f"vertex {v} has 3 triangles but no closed fan", (anchor[v],))
        j = fan.index(min(fan))
        t0, t1, t2 = fan[j:] + fan[:j]
        # the ring edges (a, b), (b, c), (c, a) follow v in t0, t1, t2
        ring = []
        outer = []
        for t in (t0, t1, t2):
            i = tris[t].index(v)
            ring.append(tris[t][(i + 1) % 3])
            outer.append(nb[3 * t + (i + 1) % 3])
            mesh._retire(t)
        replacement = mesh._append(tuple(ring), outer)
        for x, t in zip(outer, (t0, t1, t2)):
            mesh._repoint(x, t, replacement)
        stack.append(RemovedConfig(vertex=v, parents=(t0, t1, t2), replacement=replacement))
        count[v] = 0
        for w in ring:
            count[w] -= 1
            anchor[w] = replacement
            if count[w] == 3:
                queue.append(w)
    return stack


def restore_three_cycles(mesh: Mesh, partner: list[int], stack: list[RemovedConfig]) -> None:
    """Re-insert removed configurations, keeping the matching perfect.

    The fan triangle owning the edge across which the replacement was matched
    inherits that match; the other two fan triangles are matched together, so
    no unmatched three-cycle appears. Each fan triangle gets back the
    replacement's neighbour across its ring edge, which is re-pointed to it.
    Mutates mesh and partner in place; the retired replacement is unmatched.
    """
    nb, tris = mesh.neighbours, mesh.triangles
    for cfg in reversed(stack):
        r = cfg.replacement
        x = partner[r]
        partner[r] = -1
        if x < 0:
            raise PipelineError(
                f"replacement triangle {r} is unmatched; matching not perfect", (r,)
            )
        outer = nb[3 * r : 3 * r + 3]
        if x not in outer:
            raise PipelineError(f"replacement {r} is matched to non-neighbor {x}", (r, x))
        owner = cfg.parents[outer.index(x)]
        mesh._retire(r)
        for t, o in zip(cfg.parents, outer):
            nb[3 * t + (tris[t].index(cfg.vertex) + 1) % 3] = o
            mesh._repoint(o, r, t)
            mesh._reinstate(t)
        partner[owner] = x
        partner[x] = owner
        rest = [t for t in cfg.parents if t != owner]
        partner[rest[0]] = rest[1]
        partner[rest[1]] = rest[0]


# -- cycle extraction ---------------------------------------------------------


def find(root: list[int], i: int) -> int:
    """The root of i in the union-find `root`, halving the path to it."""
    while root[i] != i:
        root[i] = i = root[root[i]]
    return i


@dataclass
class CycleSet:
    """Disjoint unmatched-edge cycles partitioning the triangles.

    ``cycles[i]`` is in walk order from its smallest triangle id, and cycles
    are listed in ascending order of that id; ``cycle_of[t]`` is the index
    of triangle t's cycle, indexed by triangle id, -1 for a dead slot.
    ``root`` is a union-find over the indices, the identity from
    `extract_cycles`: ``find(root, i)`` is the smallest index of the merged
    cycle that cycle i is part of, and ``count`` is the number of merged cycles.
    """

    cycles: list[list[int]]
    cycle_of: list[int]
    root: list[int]

    @property
    def count(self) -> int:
        return sum(r == i for i, r in enumerate(self.root))


def extract_cycles(mesh: Mesh, partner: list[int]) -> CycleSet:
    """Partition the live triangles into cycles by walking unmatched dual
    edges, read off the mesh's neighbour table. Each cycle is walked from
    its smallest id, first to the triangle in the earlier unmatched slot.
    A triangle whose partner is not in its row (an unmatched one's -1
    included, which no boundary slot's -1 matches), or that has a boundary
    slot among its unmatched ones, raises `PipelineError` naming it."""
    nb = mesh.neighbours
    n = mesh.n_triangles
    cycles: list[list[int]] = []
    cycle_of = [-1] * len(mesh.triangles)
    for start in mesh.alive_ids():
        if cycle_of[start] >= 0:
            continue
        idx = len(cycles)
        cycle = []
        prev, cur = None, start
        for _ in range(n + 1):  # a closed walk has at most n triangles
            i = 3 * cur
            a, b, c = nb[i], nb[i + 1], nb[i + 2]
            p = partner[cur]
            # x and y: cur's unmatched neighbours, the earlier slot first
            if p < 0:
                x = None
            elif p == a:
                x, y = b, c
            elif p == b:
                x, y = a, c
            elif p == c:
                x, y = a, b
            else:
                x = None
            if x is None or x == -1 or y == -1:
                free = (a, b, c) if x is None else (x, y)
                hint = "; matching is not perfect on a 3-regular dual" if cur == start else ""
                raise PipelineError(
                    f"triangle {cur} has {sum(o >= 0 for o in free)} unmatched dual edges "
                    f"(need 2){hint}",
                    (cur,),
                )
            cycle.append(cur)
            cycle_of[cur] = idx
            prev, cur = cur, x if x != prev else y
            if cur == start:
                break
        else:
            raise PipelineError("unmatched-edge walk does not close", (start,))
        cycles.append(cycle)
    return CycleSet(cycles=cycles, cycle_of=cycle_of, root=list(range(len(cycles))))


# -- nodal merging ------------------------------------------------------------


def merge_nodal(
    mesh: Mesh, partner: list[int], cycleset: CycleSet, fans: tuple[list[int], list[int]]
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
    and only such toggles change a partner in w's fan.

    Only candidates are walked: vertices with an even k >= 4 on which no
    live triangle has its matched edge opposite the vertex. One array pass
    before the loop takes each live row's matched slot, the vertex opposite
    it, and from those a flag per vertex. The walk would reject a flagged
    vertex anyway: the triangle matched across the edge opposite it has
    both of its fan edges unmatched, which breaks the alternation, unless
    the fan closes before reaching it, which rejects the vertex too. The
    flags stay valid while the loop toggles: a toggle changes partners only
    inside the toggled fan, so only the vertices of that fan can change
    their flag, and those are rejected after the toggle, as proved above.

    Each fan is walked off the neighbour table, as `_fan_order` walks it,
    from the vertex's smallest triangle, and the walk stops at the first
    step that leaves the fan, breaks the alternation or meets a cycle that
    an earlier unmatched pair of the fan is on. A vertex whose link is
    several fans (a pinched vertex) never qualifies, as its walk closes
    before it has met every triangle on it.

    `fans` is the mesh's `_vertex_fans`, or those taken before elimination
    once restoration has brought back that live set; they are only read.
    Returns the cycle set with each toggle's cycles joined in a copy of its
    union-find, none walked again, and the (vertex, m) merges.
    """
    nb, tris = mesh.neighbours, mesh.triangles
    count, anchor = fans
    cycle_of = cycleset.cycle_of
    root = cycleset.root.copy()
    merges: list[tuple[int, int]] = []
    # the vertex opposite each live triangle's matched edge is no candidate;
    # slot i holds edge (c_i, c_i+1), so the vertex opposite it is c_i+2
    live = np.flatnonzero(_flags(mesh.alive))
    row = _ints(nb).reshape(-1, 3)[live]
    c0, c1, c2 = _live_triangles(mesh).T
    p = _ints(partner)[live]
    size = _ints(count)
    excluded = np.zeros(len(size), dtype=bool)
    for slot, opposite in ((0, c2), (1, c0), (2, c1)):
        excluded[opposite[row[:, slot] == p]] = True
    for v in np.flatnonzero((size >= 4) & (size % 2 == 0) & ~excluded).tolist():
        k = count[v]
        t0 = anchor[v]
        # step i goes from the fan's i-th triangle t to the next one, s, and
        # must close the fan at t0 on step k - 1 and not before
        last = k - 1
        flag = None  # whether the previous step's pair is matched
        pairs = []  # the fan's unmatched pairs
        roots = set()  # the cycles they are on
        t = t0
        for i in range(k):
            s = nb[3 * t + (tris[t].index(v) + 2) % 3]
            if s < 0 or (s == t0) != (i == last):
                break
            matched = partner[t] == s
            if matched == flag:
                break
            flag = matched
            if not matched:
                r = find(root, cycle_of[t])
                if r in roots:
                    break
                roots.add(r)
                pairs.append((t, s))
            t = s
        else:
            # toggle: the unmatched fan pairs become the new matches
            for t, s in pairs:
                partner[t] = s
                partner[s] = t
            first = min(roots)
            for other in roots:
                root[other] = first
            merges.append((v, k // 2))
    return CycleSet(cycleset.cycles, cycle_of, root), merges


# -- spanning-tree splits ------------------------------------------------------


def spanning_tree_splits(
    mesh: Mesh, partner: list[int], cycleset: CycleSet
) -> list[tuple[tuple[int, int], int, int]]:
    """Split the matched pairs on a spanning tree of the merged cycles.

    Each split re-matches the four children in sibling pairs and frees the
    two halves of the split edge, routing one cycle through the other; k
    cycles need exactly k-1 splits. Kruskal's rule picks them on a copy of
    the union-find: a pair is split when it still joins two merged cycles,
    pairs taken by their shared mesh edge, which is unique, so the tree does
    not depend on how cycles are numbered. Raises `PipelineError` naming the
    smallest id of each merged cycle left unjoined when the pairs cannot join
    them all. Mutates mesh and partner in place: the parents are unmatched,
    and the children's entries are appended, as `split_pair` appends the
    children, so `partner` must hold one entry per triangle slot of the mesh
    (`ValueError` otherwise). Returns the split pairs as (edge, t, u), in
    the order they were split.
    """
    if len(partner) != len(mesh.triangles):
        raise ValueError(
            f"partner list has {len(partner)} entries for {len(mesh.triangles)} triangle slots"
        )
    if cycleset.count <= 1:
        return []
    cycle_of = cycleset.cycle_of
    root = cycleset.root.copy()
    # the matched pairs t < u across two merged cycles, picked by arrays
    merged = _ints([find(root, i) for i in range(len(root))])
    first = np.flatnonzero(_flags(mesh.alive))
    second = _ints(partner)[first]
    keep = first < second
    first, second = first[keep], second[keep]
    on = _ints(cycle_of)
    keep = merged[on[first]] != merged[on[second]]
    pairs = zip(first[keep].tolist(), second[keep].tolist())
    across = [(shared_edge(mesh, t, u), t, u) for t, u in pairs]
    across.sort()
    tree: list[tuple[tuple[int, int], int, int]] = []
    for e, t, u in across:
        a, b = find(root, cycle_of[t]), find(root, cycle_of[u])
        if a != b:
            root[max(a, b)] = min(a, b)
            tree.append((e, t, u))
    if len(tree) != cycleset.count - 1:
        raise PipelineError(
            f"cycle graph is disconnected: spanning tree has {len(tree)} edges "
            f"for {cycleset.count} cycles",
            [c[0] for i, c in enumerate(cycleset.cycles) if root[i] == i],
        )

    for e, t, u in tree:
        c0, c1, c2, c3 = split_pair(mesh, e, (t, u))
        partner[t] = partner[u] = -1
        partner += (c1, c0, c3, c2)
    return tree


# -- assembly and verification -------------------------------------------------


def assemble_cycle(mesh: Mesh, partner: list[int]) -> list[int]:
    """The single unmatched-edge cycle over all live triangles: the one
    cycle of `extract_cycles`, from the smallest live id. Raises
    `PipelineError` when the unmatched edges form more than one cycle, with
    each cycle's smallest id in its `triangles`."""
    cycles = extract_cycles(mesh, partner).cycles
    if len(cycles) != 1:
        raise PipelineError(
            f"unmatched edges form {len(cycles)} cycles, not one", [c[0] for c in cycles]
        )
    return cycles[0]


def _held(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per row, which distinct vertices of row a the row b holds: a (3, rows)
    mask over a's positions, a repeated vertex counted at its first."""
    (a0, a1, a2), (b0, b1, b2) = a.T, b.T
    return np.stack([
        (a0 == b0) | (a0 == b1) | (a0 == b2),
        ((a1 == b0) | (a1 == b1) | (a1 == b2)) & (a1 != a0),
        ((a2 == b0) | (a2 == b1) | (a2 == b2)) & (a2 != a0) & (a2 != a1),
    ])


def verify_order(mesh: Mesh, order: list[int], closed: bool) -> tuple[bool, str | None]:
    """Independent checker: exact-once coverage and edge adjacency.

    Works from the raw triangle tuples and `alive` flags only, sharing no
    traversal state with the pipeline. Every id must name a live triangle,
    once; consecutive triangles (the last and the first too, when `closed`)
    must share exactly two distinct vertices; and no triangle may be entered
    and left by the same edge. The checks run on arrays; the first violation
    in the order is reported, with the caller's own ids. Returns (ok, first
    violation or None).
    """
    tris, alive = mesh.triangles, mesh.alive
    n_alive = alive.count(True)
    if len(order) != n_alive:
        return False, f"order lists {len(order)} triangles, mesh has {n_alive}"
    n = len(tris)
    try:
        ids = np.array(order, dtype=np.int64)
    except OverflowError:
        ids = np.array([min(max(t, -1), n) for t in order], dtype=np.int64)
    # ids out of range read the dead slot n
    ids[(ids < 0) | (ids >= n)] = n
    live = np.zeros(n + 1, dtype=bool)
    live[:n] = alive
    dead = ~live[ids]
    seen = np.zeros(n + 1, dtype=bool)
    seen[ids] = True
    if dead.any() or np.count_nonzero(seen) < len(ids):
        repeated = np.ones(len(ids), dtype=bool)
        repeated[np.unique(ids, return_index=True)[1]] = False
        # an id first repeated here was live where it first appeared
        i = int((dead | repeated).argmax())
        if dead[i]:
            return False, f"triangle {order[i]} is not a live triangle"
        return False, f"triangle {order[i]} appears more than once"
    # the table of all rows is freed once the listed ones are gathered
    a = np.fromiter(chain.from_iterable(tris), dtype=np.int64, count=3 * n).reshape(-1, 3)[ids]
    b = np.roll(a, -1, axis=0) if closed else a[1:]
    if not closed:
        a = a[:-1]
    left = _held(a, b)  # per row, the edge it is left by
    bad = left.sum(axis=0) != 2
    if bad.any():
        i = int(bad.argmax())
        t1, t2 = order[i], order[(i + 1) % len(order)]
        return False, f"consecutive triangles {t1} and {t2} do not share an edge"
    entered = _held(b, a)  # per next row, the edge it is entered by
    if closed:
        same, first = (np.roll(entered, 1, axis=1) == left).all(axis=0), 0
    else:
        same, first = (entered[:, :-1] == left[:, 1:]).all(axis=0), 1
    if same.any():
        t = order[int(same.argmax()) + first]
        return False, f"triangle {t} enters and exits by the same edge"
    return True, None


# -- orchestrator ---------------------------------------------------------------


class StageTimer:
    """Wall time of each pipeline stage: the block under
    `with timer("match"):` is recorded, in milliseconds, as `timer.ms["match"]`.

    The call reads the clock before it creates any object that the cyclic
    collector tracks, so the `with` statement's own set-up and `__enter__`
    fall inside the stage, and no collection the timer starts lands between
    two stages. Blocks nest; each exit closes the innermost open stage.

    An exception leaving the block whose class declares a `stage` attribute
    (`PipelineError`, `MatchingError`, `CurveError`) is tagged with the
    stage's name, unless an inner block already tagged it.
    """

    def __init__(self):
        self.ms: dict[str, float] = {}
        self._open: list[tuple[str, float]] = []  # (stage, start), innermost last

    def __call__(self, stage: str) -> "StageTimer":
        t0 = time.perf_counter()
        self._open.append((stage, t0))
        return self

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type, exc, tb) -> None:
        t1 = time.perf_counter()
        stage, t0 = self._open.pop()
        if exc is None:
            self.ms[stage] = round((t1 - t0) * 1000.0, 3)
        elif hasattr(type(exc), "stage") and exc.stage is None:
            exc.stage = stage


@dataclass
class StripResult:
    """Pipeline output: the subdivided mesh and the triangle order over it.

    ``mesh`` is built once, unchecked (``Mesh._built``), from the live
    triangles in id order, by the closed pipeline's ``compact`` or by the
    open pipeline's ``euler_strip``. Its neighbour table is sorted on the
    first read of ``mesh.neighbours``; ``mesh.n_edges``, which the OFF
    writer prints, counts its edges without the table, and the OBJ writer
    and ``verify_order`` read only its vertices, triangles and ``alive``.

    ``stats["elapsed_ms"]`` holds each stage's wall time; the stages cover
    the whole call. The matching itself, a partner list over the working
    mesh's ids, is not kept, as the later stages edit it in place;
    ``stats`` keeps its greedy and augmentation counters.
    """

    mesh: Mesh
    order: list[int]
    closed: bool
    stats: dict


def stripify(mesh: Mesh) -> StripResult:
    """Full closed-manifold pipeline; the input mesh is left untouched.

    Every stage after validation works on one copy of the mesh and edits its
    neighbour table in place. The matching is one partner list that the
    later stages edit in place. Besides the table, the match stage builds
    one adjacency, `build_dual`'s neighbour sets, which its greedy phase
    consumes. The vertex fans are taken once, before elimination, and read
    again by nodal merging.

    The scans over every vertex or table row are numpy passes or C-level
    iterators: the fan counts, the nodal candidates, the seed check, the
    pairs the splits may take and the dual's sets. Python runs only the
    walks: the fan and cycle walks, the greedy and the blossom searches.
    """
    timer = StageTimer()
    with timer("validate"):
        report = validate(mesh, "closed")
        if not report.ok:
            raise ValidationError(report)
        n_input = mesh.n_triangles
        work = mesh.copy()

    with timer("eliminate"):
        fans = _vertex_fans(work)
        stack = eliminate_three_cycles(work, fans)

    with timer("match"):
        n_matched_dual = work.n_triangles
        match_state = perfect_match_dual(work)
        partner = match_state.partner  # restore, nodal and splits edit it in place

    with timer("restore"):
        restore_three_cycles(work, partner, stack)

    with timer("cycles"):
        cycleset = extract_cycles(work, partner)
        cycles_initial = cycleset.count
        three = next((c for c in cycleset.cycles if len(c) == 3), None)
        if three is not None:
            raise PipelineError("an unmatched three-cycle survived elimination", three)

    with timer("nodal"):
        cycleset, merges = merge_nodal(work, partner, cycleset, fans)
        cycles_after = cycleset.count

    with timer("splits"):
        splits = spanning_tree_splits(work, partner, cycleset)

    with timer("assemble"):
        order = assemble_cycle(work, partner)
        ok, why = verify_order(work, order, closed=True)
        if not ok:
            raise PipelineError(f"assembled cycle failed verification: {why}")

    # the stats hold timer.ms itself, so "output" appears once the block ends
    with timer("output"):
        final, remap = work.compact()
        n_output = final.n_triangles
        stats = {
            "input_triangles": n_input,
            "output_triangles": n_output,
            "percent_increase": round(100.0 * (n_output - n_input) / n_input, 2),
            "cycles_initial": cycles_initial,
            "cycles_after_nodal": cycles_after,
            "splits": len(splits),
            "nodal_merges": len(merges),
            "greedy_matched": match_state.greedy_matched,
            "greedy_coverage": round(match_state.greedy_matched / max(1, n_matched_dual), 4),
            "greedy_picks": match_state.greedy_picks,
            "augmentations": match_state.augmentations,
            "augment_nodes": match_state.augment_nodes,
            "verified": True,
            "elapsed_ms": timer.ms,
        }
        result = StripResult(
            mesh=final,
            order=list(map(remap.__getitem__, order)),
            closed=True,
            stats=stats,
        )
    return result
