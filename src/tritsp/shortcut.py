"""From bad cycle + forest + matching to a Hamiltonian cycle.

Stages: union the forest and the matching into a checked good skeleton
(once per distinct rooted forest), add a bad cycle's edges to a copy of
it to get an Eulerian multigraph, reroute doubled bad-bad edges through
good neighbors (only ring edges can be doubled, and the overlay says
whether one was), extract an Euler tour (which consumes that copy), then
splice out repeated bad vertices (most negative cost delta first, only
at occurrences whose removal is provably cost-safe) and finally repeated
good vertices (keep first occurrence; always safe since every triangle
with a good vertex is metric).

Each mutating stage can append the cost after every step to a
caller-supplied list, which must end with the current cost; each step
appends that value plus its delta.  Every step is a triangle inequality
through a good vertex or an identity, so the trace never rises; the
repair and the bad splice raise ContractViolationError where they find
no such step, which their preconditions rule out.  If every vertex has
an edge, the walk ends Hamiltonian: euler_tour takes every edge or
raises, then splice_bad and splice_good leave each vertex once.

The stages work on a MultiGraph, a tiny undirected multigraph on vertices
0..n-1.  Vertex v's neighbors live in the ascending list ``_adj[v]``, one
entry per edge copy, its only state: a multiplicity is a count, a degree
a length, and the smallest neighbor the list's head.  The stages read
these lists directly in their inner loops and change a graph through its
methods, except the ring overlay, which inserts into a fresh copy's
lists, and the Euler tour, which empties the graph it walks.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from itertools import groupby

from .errors import ContractViolationError
from .forest import RootedForest
from .instance import Instance, TriangleAudit
from .matching import Matching

__all__ = [
    "MultiGraph",
    "Tour",
    "walk_cost",
    "graph_cost",
    "canonical_rotation",
    "assemble_skeleton",
    "assemble_eulerian",
    "repair_double_bad_edges",
    "euler_tour",
    "splice_bad",
    "splice_good",
]


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

    def edges(self) -> list[tuple[int, int, int]]:
        """All distinct edges as (u, v, multiplicity) with u < v, sorted."""
        return [
            (u, v, len(list(run)))
            for u, nbrs in enumerate(self._adj)
            for v, run in groupby(nbrs)
            if u < v
        ]

    def copy(self) -> "MultiGraph":
        # skips __init__, whose empty adjacency lists would be replaced
        g = MultiGraph.__new__(MultiGraph)
        g.n = self.n
        g._adj = [nbrs[:] for nbrs in self._adj]
        return g


@dataclass(frozen=True)
class Tour:
    order: tuple[int, ...]
    cost: int
    layout_id: str


def walk_cost(inst: Instance, seq) -> int:
    """Cost of the closed walk seq (wrap edge included)."""
    c = inst.cost
    n = len(seq)
    return sum(c[seq[i]][seq[(i + 1) % n]] for i in range(n))


def graph_cost(inst: Instance, g: MultiGraph) -> int:
    c = inst.cost
    return sum(m * c[u][v] for u, v, m in g.edges())


def canonical_rotation(order) -> tuple[int, ...]:
    """Rotate a cyclic vertex sequence so its smallest element comes first."""
    i = order.index(min(order))
    return tuple(order[i:]) + tuple(order[:i])


def assemble_skeleton(
    n: int, forest: RootedForest, matching: Matching, good
) -> MultiGraph:
    """Union of the forest and the matching on n vertices, checked: every
    degree is even, every vertex of `good` reaches a root of the forest,
    and no edge between two other vertices is doubled (a tree has one root;
    matched pairs are distinct).  A cycle through all forest roots then
    makes the union Eulerian and connected on every vertex it touches."""
    h = MultiGraph(n)
    for a, b in forest.edges:
        h.add_edge(a, b)
    for a, b in matching.pairs:
        h.add_edge(a, b)
    adj = h._adj
    good_set = set(good)
    for v, nbrs in enumerate(adj):
        if len(nbrs) % 2 == 1:
            raise ContractViolationError(
                f"vertex {v} has odd degree {len(nbrs)} after matching union"
            )
        if v not in good_set and any(
            x == y and x not in good_set for x, y in zip(nbrs, nbrs[1:])
        ):
            raise ContractViolationError(f"a bad-bad edge at {v} is doubled in the skeleton")
    seen = set(forest.roots)
    frontier = list(seen)
    while frontier:
        for y in adj[frontier.pop()]:
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    for v in good:
        if v not in seen:
            raise ContractViolationError(
                f"good vertex {v} disconnected from the forest roots"
            )
    return h


def assemble_eulerian(order, skeleton: MultiGraph, inst: Instance):
    """(graph, cost, doubled): a copy of the checked skeleton with the ring
    through `order` (a layout's vertices, at least 3) added, the ring's
    cost, and whether it doubled an edge.  A ring through every root of the
    skeleton's forest keeps all degrees even and joins the trees;
    euler_tour's closing check confirms the connection."""
    if len(order) < 3 or min(order) < 0 or max(order) >= inst.n:
        raise ContractViolationError(f"ring {order} too short or out of range for n={inst.n}")
    h = skeleton.copy()
    adj, c = h._adj, inst.cost
    cost, doubled, u = 0, False, order[-1]
    for v in order:
        au = adj[u]
        doubled = doubled or v in au
        insort(au, v)
        insort(adj[v], u)
        cost += c[u][v]
        u = v
    return h, cost, doubled


def repair_double_bad_edges(
    h: MultiGraph, audit: TriangleAudit, inst: Instance, trace: list | None = None
) -> None:
    """Reroute doubled bad-bad edges in place: for each doubled pair (u, v),
    u < v, in ascending order, drop one copy of (u, v) and replace the edge
    from u to its smallest good neighbor g by (g, v).  Safe by the metric
    triangle through g; parity and connectivity are preserved.

    Precondition: each doubled pair has multiplicity 2 and u has a good
    neighbor.  A chains-regime ring over a skeleton meets it: b >= 3, so the
    ring is a simple cycle, and the skeleton holds each bad-bad edge once
    (assemble_skeleton), as a matching edge, since the forest joins no two
    roots.  So a doubled pair is a ring edge matched once more, and u, being
    matched, has odd forest degree, so a forest edge to a good vertex.
    Each end has one partner, so the pairs are disjoint.  Raises
    ContractViolationError if a pair has another multiplicity or u has no
    good neighbor.
    `trace`, if given, must end with the cost of h; each reroute appends
    the new cost."""
    bad = audit.bad_set
    adj = h._adj
    c = inst.cost
    doubled = sorted({
        (u, v) for u in bad for v, w in zip(adj[u], adj[u][1:]) if v == w and u < v and v in bad
    })
    for u, v in doubled:
        if adj[u].count(v) != 2:
            raise ContractViolationError(f"bad-bad edge ({u}, {v}) is not doubled exactly")
        g = next((x for x in adj[u] if x not in bad), None)
        if g is None:
            raise ContractViolationError(
                f"doubled bad-bad edge ({u}, {v}): {u} has no good neighbor"
            )
        h.remove_edge(u, v)
        h.remove_edge(u, g)
        h.add_edge(g, v)
        if trace is not None:
            trace.append(trace[-1] + c[g][v] - c[u][v] - c[u][g])


def euler_tour(h: MultiGraph) -> list[int]:
    """Closed walk using every edge exactly once, starting at the smallest
    vertex of nonzero degree, always following the smallest available
    neighbor.  The walk consumes h, removing each edge as it takes it: h
    ends empty, or the walk raises.  Pass a copy to keep the graph.

    Every trail the walk extends from a vertex t must close at t; one that
    halts elsewhere does so at a vertex of odd degree.  Once every trail
    closed, the edges reached form an Eulerian component, so a walk that
    misses edges means the multigraph is disconnected over its edges."""
    adj = h._adj
    start = next((v for v in range(h.n) if adj[v]), None)
    if start is None:
        raise ContractViolationError("no edges to tour")
    stack = [start]
    out: list[int] = []
    while stack:
        v = t = stack[-1]
        nv = adj[v]
        while nv:
            u = nv.pop(0)
            adj[u].remove(v)
            stack.append(u)
            v = u
            nv = adj[u]
        if v != t:
            raise ContractViolationError(f"vertex {v} has odd degree")
        out.append(stack.pop())
    if any(adj):
        raise ContractViolationError("multigraph is not connected over its edges")
    # the pop order is the circuit traversed backwards, itself a valid
    # closed walk in an undirected multigraph
    return out[:-1]


def splice_bad(
    s, audit: TriangleAudit, inst: Instance, trace: list | None = None
) -> list[int]:
    """Remove repeated bad-vertex occurrences one at a time until every bad
    vertex is unique.  Each round removes the occurrence with the most
    negative delta c(x,y) - c(x,b) - c(b,y) among those provably safe to
    cut: a good cyclic neighbor (metric triangle), equal neighbors, or an
    adjacent duplicate (both identities).

    Precondition: every round finds a safe occurrence.  The Euler tour of a
    repaired chains-regime graph meets it: a repeated bad vertex is a chain
    end, and at most 3 of its edge-ends lead to bad vertices (2 ring edges,
    at most 1 matching edge; its forest edges and the repair's go to good
    vertices), so of its r >= 2 occurrences at most one has two bad
    neighbors.  No round removes a good vertex, so an occurrence next to one
    stays safe until it is cut itself.  Raises ContractViolationError when
    a round finds no safe occurrence.  `trace`, if given, must end with the
    cost of s; each cut appends the new cost."""
    bad = audit.bad_set
    good = audit.good_set
    c = inst.cost
    s = list(s)
    counts: dict[int, int] = {}
    for v in s:
        if v in bad:
            counts[v] = counts.get(v, 0) + 1
    repeated = {v for v, cnt in counts.items() if cnt > 1}
    while repeated:
        length = len(s)
        best = None
        for pos in range(length):
            v = s[pos]
            if v not in repeated:
                continue
            x = s[pos - 1]
            y = s[(pos + 1) % length]
            if x in good or y in good or x == y or x == v or y == v:
                cand = (c[x][y] - c[x][v] - c[v][y], pos)
                if best is None or cand < best:
                    best = cand
        if best is None:
            raise ContractViolationError(
                f"no occurrence of the repeated bad vertices {sorted(repeated)} "
                "is safe to cut"
            )
        v = s.pop(best[1])
        counts[v] -= 1
        if counts[v] == 1:
            repeated.discard(v)
        if trace is not None:
            trace.append(trace[-1] + best[0])
    return s


def splice_good(
    s, audit: TriangleAudit, inst: Instance, trace: list | None = None
) -> list[int]:
    """Drop every repeated good-vertex occurrence after its first.  All bad
    vertices must already be unique.  `trace`, if given, must end with the
    cost of s; each drop appends the new cost."""
    good = audit.good_set
    c = inst.cost
    out: list[int] = []
    seen: set[int] = set()
    for i, v in enumerate(s):
        if v in good and v in seen:
            # the walk left of i is `out`, right of it still untouched
            if trace is not None:
                x, y = out[-1], s[(i + 1) % len(s)]
                trace.append(trace[-1] + c[x][y] - c[x][v] - c[v][y])
            continue
        seen.add(v)
        out.append(v)
    return out
