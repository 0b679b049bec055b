"""Tiny undirected multigraph on vertices 0..n-1 with edge multiplicities.

Just enough surface for the solver: union of a cycle, a forest, and a
matching, and edge removal during the repair.  Vertex v's neighbors and
multiplicities live in the dict ``_adj[v]``, its only state.  The
shortcut stages read these dicts directly in their inner loops and change
a graph through its methods, except the ring overlay, which writes into a
fresh copy's dicts, and the Euler tour, which empties the graph it walks.
"""

from __future__ import annotations

from .errors import ContractViolationError

__all__ = ["MultiGraph"]


class MultiGraph:
    def __init__(self, n: int):
        if n < 1:
            raise ContractViolationError(f"n must be >= 1, got {n}")
        self.n = n
        self._adj: list[dict[int, int]] = [{} for _ in range(n)]

    def add_edge(self, u: int, v: int, mult: int = 1) -> None:
        if u == v:
            raise ContractViolationError(f"self-loop at {u}")
        if mult < 1:
            raise ContractViolationError(f"multiplicity must be >= 1, got {mult}")
        self._adj[u][v] = self._adj[u].get(v, 0) + mult
        self._adj[v][u] = self._adj[v].get(u, 0) + mult

    def remove_edge(self, u: int, v: int) -> None:
        """Remove one copy of (u, v)."""
        m = self._adj[u].get(v, 0)
        if m == 0:
            raise ContractViolationError(f"edge ({u}, {v}) not present")
        if m == 1:
            del self._adj[u][v]
            del self._adj[v][u]
        else:
            self._adj[u][v] = m - 1
            self._adj[v][u] = m - 1

    def neighbors(self, v: int) -> list[int]:
        """Distinct neighbors, ascending."""
        return sorted(self._adj[v])

    def edges(self) -> list[tuple[int, int, int]]:
        """All distinct edges as (u, v, multiplicity) with u < v, sorted."""
        out = []
        for u in range(self.n):
            for v, m in self._adj[u].items():
                if u < v:
                    out.append((u, v, m))
        out.sort()
        return out

    @property
    def edge_count(self) -> int:
        """Total number of edge copies."""
        return sum(sum(d.values()) for d in self._adj) // 2

    def copy(self) -> "MultiGraph":
        # skips __init__, whose empty adjacency maps would be replaced
        g = MultiGraph.__new__(MultiGraph)
        g.n = self.n
        g._adj = [d.copy() for d in self._adj]
        return g
