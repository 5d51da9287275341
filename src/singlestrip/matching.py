"""Maximum/perfect matching on the dual graph.

A greedy phase applies the forced degree-1 and degree-2 reductions (pendant
match, neighbor contraction) plus a deterministic smallest-id edge pick when
neither applies, consuming the whole graph. Replaying the contraction log
turns that into a maximal matching of the input, which seeds a blossom
(alternating BFS forest with union-find blossom bases) augmentation phase
that finishes the job. On cubic bridgeless duals the result is perfect.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass

from .unionfind import UnionFind


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
    """A matching as a symmetric partner map, with phase statistics."""

    partner: dict[int, int]
    greedy_matched: int = 0
    greedy_picks: int = 0
    augmentations: int = 0

    @property
    def size(self) -> int:
        return len(self.partner) // 2


def _adjacency(graph) -> dict[int, set[int]]:
    """A node -> neighbours mapping as sets, for the greedy phase to consume.

    Every graph here is symmetric (u lists v whenever v lists u), as
    `build_dual` returns it; no missing reverse edge is filled in.
    """
    return {v: set(ns) for v, ns in graph.items()}


def validate_matching(graph, partner: dict[int, int]) -> None:
    """Raise unless partner is symmetric and matches only adjacent nodes of
    the node -> neighbours mapping `graph`."""
    for v, u in partner.items():
        if partner.get(u) != v:
            raise MatchingError(f"matching is not symmetric at {v}<->{u}")
        if u not in graph.get(v, ()):
            raise MatchingError(f"matched pair ({v}, {u}) is not an edge")


# -- greedy phase ------------------------------------------------------------


def _apply_reductions(adj, partner, log, seeds=None) -> None:
    """Run forced degree<=2 reductions to exhaustion. Mutates all arguments.

    Degree-2 contraction merges w into u and logs the pre-contraction
    neighborhoods so the move can be undone on replay.
    """
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
                    # parallel edge collapses; x lost a neighbor
                    if len(adj[x]) <= 2:
                        queue.append(x)
                else:
                    adj[x].add(u)
                    adj[u].add(x)
            del adj[w]
            adj[u].discard(w)
            if len(adj[u]) <= 2:
                queue.append(u)
        # deg >= 3: stale entry, skip


def _greedy_consume(adj) -> tuple[dict[int, int], list[tuple], int]:
    """Forced reductions with a deterministic fallback until the graph is gone.

    When no node has degree <= 2, the smallest remaining node is matched to
    its smallest neighbor (Karp-Sipser's arbitrary pick, made deterministic).
    Returns (partner, log, picks).
    """
    partner: dict[int, int] = {}
    log: list[tuple] = []
    picks = 0
    heap = sorted(adj)
    _apply_reductions(adj, partner, log)
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
        _apply_reductions(adj, partner, log, seeds=seeds)
    return partner, log, picks


def replay_reductions(partner: dict[int, int], log: list[tuple]) -> dict[int, int]:
    """Undo degree-2 contractions (in reverse) on a matching of the reduced graph."""
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


# -- blossom phase -----------------------------------------------------------


def blossom_maximum_matching(graph, seed: dict[int, int] | None = None) -> dict[int, int]:
    """Edmonds' blossom algorithm: grow the seed matching to maximum size.

    `graph` is a symmetric node -> neighbours mapping. One alternating BFS
    forest is grown per exposed node; odd cycles are contracted on the fly
    through a union-find that tracks blossom bases.
    """
    adj = {v: sorted(ns) for v, ns in graph.items()}
    match: dict[int, int] = {}
    if seed:
        validate_matching(graph, seed)
        match.update(seed)
    for root in sorted(adj):
        if root not in match:
            _augment_from(adj, match, root)
    return match


def _augment_from(adj, match, root) -> bool:
    parent: dict[int, int] = {}
    uf = UnionFind()
    in_blossom = uf.parent
    base_of: dict = {}
    used = {root}
    queue = deque([root])

    def fbase(x):
        # base_of is keyed by union-find roots, so a node never put in a
        # blossom is its own base
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
                # even node reached: an odd cycle closes, contract the blossom
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
                    # augmenting path: flip matched/unmatched along it
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


# -- full pipeline -----------------------------------------------------------


def perfect_match_dual(dual: dict[int, list[int]]) -> MatchState:
    """Greedy phase, contraction replay, then blossom augmentation.

    `dual` is `build_dual`'s mapping. The greedy phase consumes a set copy
    of it; the blossom phase reads the dual itself and checks the replayed
    seed against it before it augments. Raises MatchingError (with the
    unmatched node set) if the result is not perfect, which signals a
    violated precondition: the dual must be 3-regular and bridgeless.
    """
    partner, log, picks = _greedy_consume(_adjacency(dual))
    partner = replay_reductions(partner, log)
    greedy_matched = len(partner)
    match = blossom_maximum_matching(dual, partner)
    augmentations = (len(match) - greedy_matched) // 2
    unmatched = [v for v in sorted(dual) if v not in match]
    if unmatched:
        raise MatchingError(
            f"no perfect matching: {len(unmatched)} node(s) left unmatched "
            f"(dual not 3-regular/bridgeless?)",
            unmatched=unmatched,
        )
    return MatchState(
        partner=match,
        greedy_matched=greedy_matched,
        greedy_picks=picks,
        augmentations=augmentations,
    )
