"""Maximum/perfect matching on the dual graph.

A matching is one flat partner list indexed by triangle id: `partner[t]` is
t's matched neighbour, or -1 where t is unmatched or a dead slot.

A greedy phase applies the forced degree-1 and degree-2 reductions (pendant
match, neighbor contraction) plus a deterministic smallest-id edge pick when
neither applies, consuming the whole graph: the neighbour sets that
`build_dual` fills from the table, in slot order. Replaying the
contraction log turns that into a maximal matching of the input.
`blossom_maximum_matching` checks that seed with `validate_matching` and
grows it in place in an augmentation phase (alternating BFS forest with
union-find blossom bases) that finishes the job; both read the mesh's
neighbour table rows in place. On cubic bridgeless duals the result is
perfect.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .mesh import Mesh, _flags, _ints, build_dual


class MatchingError(Exception):
    """Matching invariant violated, or a perfect matching does not exist.
    `stage` names the pipeline stage it failed in, once a `StageTimer` block
    has seen it."""

    stage: str | None = None

    def __init__(self, message: str, unmatched=()):
        super().__init__(message)
        self.unmatched = sorted(unmatched)


@dataclass
class MatchState:
    """`perfect_match_dual`'s result: the matching as a symmetric partner
    list (-1: dead slot), with phase statistics.

    `augment_nodes` counts the nodes labelled by all augmenting searches of
    the blossom phase (see `_augment_from`); it is 0 when the replayed
    greedy seed is already perfect."""

    partner: list[int]
    greedy_matched: int
    greedy_picks: int
    augmentations: int
    augment_nodes: int


def validate_matching(nb: list[int], alive: list[bool], partner: list[int]) -> None:
    """Raise unless `partner` matches only live neighbours, both ways, in
    the flat neighbour table `nb` with live flags `alive`. A dead slot's row
    is stale and may still list its old neighbours, so liveness is checked
    on both ends of a pair.

    One array pass finds the first triangle v whose entry fails; its checks
    are then made in order, to name the failure: v is dead, its partner is
    not in its row, its partner is dead, its partner's entry is not v. The
    partners are read as int64, so one beyond int32 is still a non-edge."""
    u, live = _ints(partner), _flags(alive)
    v = np.arange(len(u))
    row = _ints(nb).reshape(-1, 3)
    edge = (row[:, 0] == u) | (row[:, 1] == u) | (row[:, 2] == u)
    w = np.where(edge, u, v)  # the partner where it is in v's row
    ok = (u < 0) | (live & edge & live[w] & (u[w] == v))
    if ok.all():
        return
    v = int(ok.argmin())
    u = partner[v]
    if not alive[v]:
        raise MatchingError(f"retired triangle {v} is matched to {u}")
    if u not in nb[3 * v : 3 * v + 3]:
        raise MatchingError(f"matched pair ({v}, {u}) is not an edge")
    if not alive[u]:
        raise MatchingError(f"triangle {v} is matched to retired triangle {u}")
    raise MatchingError(f"matching is not symmetric at {v}<->{u}")


# -- greedy phase ------------------------------------------------------------


def _apply_reductions(adj, partner, log, queue: deque) -> None:
    """Run forced degree<=2 reductions to exhaustion, from the nodes in
    `queue`; a node whose degree drops to 2 or less is queued again.
    Mutates all arguments.

    A degree-1 node is matched to its neighbour, and both leave the graph.
    A degree-2 node v with neighbours u < w is contracted: v leaves, w is
    merged into u, and `log` gets (v, u, w, u's neighbours, w's neighbours),
    the two neighbourhoods as tuples taken before the contraction, so that
    `replay_reductions` can undo it.
    """
    pop, push, get, record = queue.popleft, queue.append, adj.get, log.append
    while queue:
        v = pop()
        nv = get(v)
        if nv is None:
            continue
        deg = len(nv)
        if deg == 2:
            u, w = nv
            if w < u:
                u, w = w, u
            au = adj[u]
            aw = adj.pop(w)
            record((v, u, w, tuple(au), tuple(aw)))
            au.discard(v)
            del adj[v]
            for x in aw:
                if x == u or x == v:
                    continue
                ax = adj[x]
                ax.discard(w)
                if u in ax:
                    # parallel edge collapses; x lost a neighbor
                    if len(ax) <= 2:
                        push(x)
                else:
                    ax.add(u)
                    au.add(x)
            au.discard(w)
            if len(au) <= 2:
                push(u)
        elif deg == 1:
            (u,) = nv
            partner[v] = u
            partner[u] = v
            del adj[v]
            au = adj.pop(u)
            au.discard(v)
            for x in au:
                ax = adj[x]
                ax.discard(u)
                if len(ax) <= 2:
                    push(x)
        elif deg == 0:
            del adj[v]
        # deg >= 3: stale entry, skip


def _greedy_consume(adj, partner: list[int]) -> tuple[list[tuple], int]:
    """Forced reductions with a deterministic fallback until the graph is gone.

    When no node has degree <= 2, the smallest remaining node is matched to
    its smallest neighbor (Karp-Sipser's arbitrary pick, made deterministic).
    Which nodes the reductions queue, and in what order, follows the
    iteration order of the sets in `adj`, which depends on how they were
    filled (see `build_dual`). `adj` is emptied. The matches go into
    `partner`, a list of -1 with a slot per node id. Returns (log, picks).
    """
    log: list[tuple] = []
    picks = 0
    order = sorted(adj)
    _apply_reductions(adj, partner, log, deque(v for v in order if len(adj[v]) <= 2))
    i = 0  # nodes never come back, so the smallest remaining one is never behind i
    while adj:
        while order[i] not in adj:
            i += 1
        v = order[i]
        av = adj[v]
        u = min(av)
        picks += 1
        # drop v's other edges, then match v as a pendant node on u
        queue = deque([v])
        for x in av:
            if x != u:
                ax = adj[x]
                ax.discard(v)
                if len(ax) <= 2:
                    queue.append(x)
        adj[v] = {u}
        _apply_reductions(adj, partner, log, queue)
    return log, picks


def replay_reductions(partner: list[int], log: list[tuple]) -> None:
    """Undo degree-2 contractions (in reverse) on a matching of the reduced
    graph, in place. When u's partner x was u's own neighbour, v matches w;
    otherwise x came from w, so w takes x and v takes u. At that point
    neither v nor w is in the graph, so x is neither, and testing x against
    the logged neighbourhoods, which still hold v and w, is exact."""
    for v, u, w, adj_u, adj_w in reversed(log):
        x = partner[u]
        if x < 0:
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


# -- blossom phase -----------------------------------------------------------


def blossom_maximum_matching(nb: list[int], alive: list[bool], partner: list[int]) -> int:
    """Edmonds' blossom algorithm: grow the seed matching to maximum size.

    The graph is the flat neighbour table `nb`, 3-slot rows padded with -1,
    over the nodes that `alive` flags. The seed `partner`, a partner list
    with a slot per node id such as `perfect_match_dual`'s replayed greedy
    seed, is checked against the table and grown in place. One alternating
    BFS forest is grown per exposed node, in ascending id, and each search
    reads a node's row in ascending id. Odd cycles are contracted on the fly
    through a union-find that tracks blossom bases. The searches share one
    set of per-node arrays, and each search resets only the entries of the
    nodes it labelled, so it costs what it labels. Returns the number of
    nodes all searches labelled.
    """
    validate_matching(nb, alive, partner)
    m = len(partner)
    parent = [-1] * m
    up = [-1] * m
    used = bytearray(m)
    labelled = 0
    # a search never unmatches a node, so only nodes the seed leaves exposed are roots
    roots = np.flatnonzero((_ints(partner) < 0) & _flags(alive)).tolist()
    for root in roots:
        if partner[root] < 0:
            reached = _augment_from(nb, partner, root, parent, up, used)
            labelled += len(reached)
            for x in reached:
                parent[x] = up[x] = -1
                used[x] = 0
    return labelled


def _augment_from(nb, match, root, parent, up, used) -> list[int]:
    """One alternating BFS from the exposed `root`. Flips the first
    augmenting path it finds and stops there, or gives up once no even node
    is left to scan. Returns the nodes the search labelled, each once as it
    is first labelled: the root, each odd node it reached, and the partner
    it queued with it. A blossom makes even only nodes already labelled.

    The arrays come in at their rest values and the search sets entries of
    labelled nodes alone. `parent` holds each reached node's tree parent, -1
    for none; `up` is a union-find over the nodes put in blossoms, each set
    rooted at its blossom's base, -1 for a node that is its own base;
    `used` flags the queued nodes.
    """
    used[root] = 1
    reached = [root]
    queue = deque(reached)
    pop, push = queue.popleft, queue.append

    def base(x):
        r = up[x]
        if r < 0:
            return x
        while up[r] != r:
            r = up[r]
        while x != r:
            up[x], x = r, up[x]
        return r

    def lca(a, b):
        seen = set()
        x = base(a)
        while True:
            seen.add(x)
            mx = match[x]
            if mx < 0:
                break
            x = base(parent[mx])
        y = base(b)
        while y not in seen:
            y = base(parent[match[y]])
        return y

    def mark_path(v, b, child, marked):
        bv = base(v)
        while bv != b:
            mv = match[v]
            marked += (bv, base(mv))
            parent[v] = child
            child, v = mv, parent[mv]
            bv = base(v)

    while queue:
        v = pop()
        mv = match[v]
        bv = base(v)
        i = 3 * v
        # the row in ascending id; a -1 slot sorts first
        s0, s1, s2 = nb[i], nb[i + 1], nb[i + 2]
        if s0 > s1:
            s0, s1 = s1, s0
        if s1 > s2:
            s1, s2 = s2, s1
            if s0 > s1:
                s0, s1 = s1, s0
        for to in (s0, s1, s2):
            if to < 0 or to == mv or to == bv or (up[to] >= 0 and base(to) == bv):
                continue
            mt = match[to]
            if to == root or (mt >= 0 and parent[mt] >= 0):
                # even node reached: an odd cycle closes, contract the blossom
                b = lca(v, to)
                marked: list = []
                mark_path(v, b, to, marked)
                mark_path(to, b, v, marked)
                # every marked node is a base, so the root of its set
                up[b] = b
                for node in marked:
                    up[node] = b
                    if not used[node]:
                        used[node] = 1
                        push(node)
                bv = base(v)
            elif parent[to] < 0:
                parent[to] = v
                if mt < 0:
                    # augmenting path: flip matched/unmatched along it
                    node = to
                    while node >= 0:
                        prev = parent[node]
                        nxt = match[prev]
                        match[node] = prev
                        match[prev] = node
                        node = nxt
                    reached.append(to)
                    return reached
                used[mt] = 1
                push(mt)
                reached += (to, mt)
    return reached


# -- full pipeline -----------------------------------------------------------


def perfect_match_dual(mesh: Mesh) -> MatchState:
    """Greedy phase, contraction replay, then blossom augmentation.

    The greedy consumes `build_dual`'s neighbour sets, the one mapping the
    match stage builds; its log goes before the blossom phase grows the
    replayed seed in place. The matching covers the mesh's live triangles,
    as a partner list with a slot per triangle id. Raises MatchingError
    (with the unmatched node set) if the result is not perfect, which
    signals a violated precondition: the dual must be 3-regular and
    bridgeless.
    """
    partner = [-1] * len(mesh.triangles)
    log, picks = _greedy_consume(build_dual(mesh), partner)
    greedy_matched = len(partner) - partner.count(-1) + 2 * len(log)
    replay_reductions(partner, log)
    del log
    labelled = blossom_maximum_matching(mesh.neighbours, mesh.alive, partner)
    matched = len(partner) - partner.count(-1)
    if matched < mesh.n_triangles:
        unmatched = [v for v in mesh.alive_ids() if partner[v] < 0]
        raise MatchingError(
            f"no perfect matching: {len(unmatched)} node(s) left unmatched "
            f"(dual not 3-regular/bridgeless?)",
            unmatched=unmatched,
        )
    augmentations = (matched - greedy_matched) // 2
    return MatchState(partner, greedy_matched, picks, augmentations, labelled)
