"""Maximum/perfect matching on the dual graph.

A greedy phase applies the forced degree-1 and degree-2 reductions (pendant
match, neighbor contraction) plus a deterministic smallest-id edge pick when
neither applies, consuming the whole graph. Replaying the contraction log
turns that into a maximal matching of the input. `blossom_maximum_matching`
checks that seed with `validate_matching` and grows it in an augmentation
phase (alternating BFS forest with union-find blossom bases) that finishes
the job. On cubic bridgeless duals the result is perfect.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass


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
    """A matching as a symmetric partner map, with phase statistics.

    `augment_nodes` counts the nodes labelled by all augmenting searches of
    the blossom phase (see `_augment_from`); it is 0 when the replayed
    greedy seed is already perfect."""

    partner: dict[int, int]
    greedy_matched: int = 0
    greedy_picks: int = 0
    augmentations: int = 0
    augment_nodes: int = 0


def _adjacency(graph) -> dict[int, set[int]]:
    """A node -> neighbours mapping as sets, for the greedy phase to consume.

    Every graph here is symmetric (u lists v whenever v lists u), as
    `build_dual` returns it; no missing reverse edge is filled in.

    Each set is filled in its row's order, and that order is part of the
    greedy's output: CPython iterates a set of ints in an order that
    depends on the order they went in, and the reductions queue nodes in
    the order they iterate these sets. `build_dual`'s slot-order rows give
    the matching that the golden hashes pin; sets filled from sorted rows
    give another one.
    """
    return {v: set(ns) for v, ns in graph.items()}


def validate_matching(graph, partner: dict[int, int]) -> None:
    """Raise unless partner is symmetric and matches only adjacent nodes of
    the node -> neighbours mapping `graph`."""
    get, row = partner.get, graph.get
    for v, u in partner.items():
        if get(u) != v:
            raise MatchingError(f"matching is not symmetric at {v}<->{u}")
        if u not in row(v, ()):
            raise MatchingError(f"matched pair ({v}, {u}) is not an edge")


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


def _greedy_consume(adj) -> tuple[dict[int, int], list[tuple], int]:
    """Forced reductions with a deterministic fallback until the graph is gone.

    When no node has degree <= 2, the smallest remaining node is matched to
    its smallest neighbor (Karp-Sipser's arbitrary pick, made deterministic).
    Which nodes the reductions queue, and in what order, follows the
    iteration order of the sets in `adj`, which depends on how they were
    filled (see `_adjacency`). Returns (partner, log, picks).
    """
    partner: dict[int, int] = {}
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
    return partner, log, picks


def replay_reductions(partner: dict[int, int], log: list[tuple]) -> dict[int, int]:
    """Undo degree-2 contractions (in reverse) on a matching of the reduced
    graph. When u's partner x was u's own neighbour, v matches w; otherwise
    x came from w, so w takes x and v takes u. At that point neither v nor
    w is in the graph, so x is neither, and testing x against the logged
    neighbourhoods, which still hold v and w, is exact."""
    partner = dict(partner)
    get = partner.get
    for v, u, w, adj_u, adj_w in reversed(log):
        x = get(u)
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


# -- blossom phase -----------------------------------------------------------


def blossom_maximum_matching(
    graph, seed: dict[int, int] | None = None, state: MatchState | None = None
) -> dict[int, int]:
    """Edmonds' blossom algorithm: grow the seed matching to maximum size.

    `graph` is a symmetric node -> neighbours mapping. The seed, such as
    `perfect_match_dual`'s replayed greedy seed, is checked against `graph`
    and left as it is; a copy of it is grown and returned. One alternating
    BFS forest is grown per exposed node, in ascending id, and each search
    reads a node's neighbours in ascending id; the rows are sorted once,
    and only when the seed leaves a node exposed. Odd cycles are contracted
    on the fly through a union-find that tracks blossom bases. When `state`
    is given, its `augment_nodes` gains the nodes each search labelled.
    """
    if seed:
        validate_matching(graph, seed)
    match = dict(seed or ())
    del seed  # a caller that passes its only reference frees it here
    labelled = 0
    # a search never unmatches a node, so only nodes the seed leaves exposed are roots
    roots = sorted(set(graph).difference(match))
    adj = {v: sorted(ns) for v, ns in graph.items()} if roots else {}
    for root in roots:
        if root not in match:
            labelled += _augment_from(adj, match, root)
    if state is not None:
        state.augment_nodes += labelled
    return match


def _augment_from(adj, match, root) -> int:
    """One alternating BFS from the exposed `root`. Flips the first
    augmenting path it finds and stops there, or gives up once no even node
    is left to scan. Returns how many nodes the search labelled: the even
    nodes it queued (the root, partners of reached nodes, and nodes a
    blossom made even) and the odd nodes it reached.

    `parent` holds each reached node's tree parent; `up` is a union-find
    over the nodes put in blossoms, each set rooted at its blossom's base,
    so a node that is not a key of `up` is its own base.
    """
    parent: dict[int, int] = {}
    up: dict[int, int] = {}
    used = {root}
    queue = deque([root])
    pop, push = queue.popleft, queue.append
    get = match.get

    def base(x):
        if x not in up:
            return x
        r = up[x]
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
            mx = get(x)
            if mx is None:
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
        mv = get(v)
        bv = base(v) if v in up else v
        for to in adj[v]:
            if to == mv or to == bv or (to in up and base(to) == bv):
                continue
            mt = get(to)
            if to == root or (mt is not None and mt in parent):
                # even node reached: an odd cycle closes, contract the blossom
                b = lca(v, to)
                marked: list = []
                mark_path(v, b, to, marked)
                mark_path(to, b, v, marked)
                # every marked node is a base, so the root of its set
                up[b] = b
                for node in marked:
                    up[node] = b
                    if node not in used:
                        used.add(node)
                        push(node)
                bv = base(v)
            elif to not in parent:
                parent[to] = v
                if mt is None:
                    # augmenting path: flip matched/unmatched along it
                    labelled = len(used.union(parent))
                    node = to
                    while node is not None:
                        prev = parent[node]
                        nxt = get(prev)
                        match[node] = prev
                        match[prev] = node
                        node = nxt
                    return labelled
                used.add(mt)
                push(mt)
    return len(used.union(parent))


# -- full pipeline -----------------------------------------------------------


def _greedy_seed(dual, state: MatchState) -> dict[int, int]:
    """The greedy phase's matching of `dual`, replayed, with its counts put
    in `state`; its own matching and log go before the blossom phase."""
    partner, log, state.greedy_picks = _greedy_consume(_adjacency(dual))
    state.greedy_matched = len(partner) + 2 * len(log)
    return replay_reductions(partner, log)


def perfect_match_dual(dual: dict[int, list[int]]) -> MatchState:
    """Greedy phase, contraction replay, then blossom augmentation.

    `dual` is `build_dual`'s mapping. The replayed seed goes to
    `blossom_maximum_matching` with no other reference, so the copy that
    it grows replaces it. Raises MatchingError (with the unmatched node
    set) if the result is not perfect, which signals a violated
    precondition: the dual must be 3-regular and bridgeless.
    """
    state = MatchState({})
    state.partner = partner = blossom_maximum_matching(dual, _greedy_seed(dual, state), state)
    if len(partner) < len(dual):
        unmatched = [v for v in sorted(dual) if v not in partner]
        raise MatchingError(
            f"no perfect matching: {len(unmatched)} node(s) left unmatched "
            f"(dual not 3-regular/bridgeless?)",
            unmatched=unmatched,
        )
    state.augmentations = (len(partner) - state.greedy_matched) // 2
    return state
