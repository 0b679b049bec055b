"""Tiny undirected multigraph on vertices 0..n-1 with edge multiplicities.

Just enough surface for the solver: union of a cycle, a forest, and a
matching, and edge removal during the repair.  Vertex v's neighbors live
in the ascending list ``_adj[v]``, one entry per edge copy, its only
state: a multiplicity is a count, a degree a length, and the smallest
neighbor the list's head.  The shortcut stages read these lists directly
in their inner loops and change a graph through its methods, except the
ring overlay, which inserts into a fresh copy's lists, and the Euler
tour, which empties the graph it walks.
"""

from __future__ import annotations

from bisect import insort
from itertools import groupby

from .errors import ContractViolationError

__all__ = ["MultiGraph"]


class MultiGraph:
    def __init__(self, n: int):
        if n < 1:
            raise ContractViolationError(f"n must be >= 1, got {n}")
        self.n = n
        self._adj: list[list[int]] = [[] for _ in range(n)]

    def add_edge(self, u: int, v: int) -> None:
        if u == v:
            raise ContractViolationError(f"self-loop at {u}")
        insort(self._adj[u], v)
        insort(self._adj[v], u)

    def remove_edge(self, u: int, v: int) -> None:
        """Remove one copy of (u, v)."""
        if v not in self._adj[u]:
            raise ContractViolationError(f"edge ({u}, {v}) not present")
        self._adj[u].remove(v)
        self._adj[v].remove(u)

    def neighbors(self, v: int) -> list[int]:
        """Distinct neighbors, ascending."""
        return sorted(set(self._adj[v]))

    def edges(self) -> list[tuple[int, int, int]]:
        """All distinct edges as (u, v, multiplicity) with u < v, sorted."""
        return [
            (u, v, len(list(run)))
            for u, nbrs in enumerate(self._adj)
            for v, run in groupby(nbrs)
            if u < v
        ]

    @property
    def edge_count(self) -> int:
        """Total number of edge copies."""
        return sum(map(len, self._adj)) // 2

    def copy(self) -> "MultiGraph":
        # skips __init__, whose empty adjacency lists would be replaced
        g = MultiGraph.__new__(MultiGraph)
        g.n = self.n
        g._adj = [nbrs[:] for nbrs in self._adj]
        return g
