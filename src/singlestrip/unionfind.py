"""Disjoint-set forest with union by size and path compression."""

from __future__ import annotations


class UnionFind:
    """Union-find over arbitrary hashable keys.

    Unknown keys are treated as singletons and materialized on first use.
    """

    def __init__(self, items=()):
        self.parent: dict = {}
        self.size: dict = {}
        for item in items:
            self.add(item)

    def add(self, x) -> None:
        if x not in self.parent:
            self.parent[x] = x
            self.size[x] = 1

    def find(self, x):
        self.add(x)
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a, b):
        """Merge the sets of a and b; returns the surviving root."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return ra
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        return ra
