"""From bad cycle + forest + matching to a Hamiltonian cycle.

Stages: union the forest and the matching into a checked good skeleton
(once per chain-end set), overlay a bad cycle on a copy of it to get an
Eulerian multigraph, reroute doubled bad-bad edges through good neighbors,
extract an Euler tour, then splice out repeated bad vertices (most
negative cost delta first, only at occurrences whose removal is provably
cost-safe) and finally repeated good vertices (keep first occurrence;
always safe since every triangle with a good vertex is metric).

Each mutating stage can append the walk/multiset cost after every
individual step to a caller-supplied list, so tests can assert that cost
never increases; the list must already end with the current cost, and
each step appends that value plus the step's cost delta.  "Justified"
return flags report whether every step was covered by a
triangle-inequality argument (degenerate layouts may need the defensive
fallbacks, which still terminate but void the certificate).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ContractViolationError
from .forest import RootedForest
from .instance import Instance, TriangleAudit
from .matching import Matching
from .multigraph import MultiGraph

__all__ = [
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
    degree is even, and every vertex of `good` is connected to a root of
    the forest.  A cycle through all forest roots then makes the union
    Eulerian and connected on every vertex it touches."""
    h = MultiGraph(n)
    for a, b in forest.edges:
        h.add_edge(a, b)
    for a, b in matching.pairs:
        h.add_edge(a, b)
    adj = h._adj
    for v, nbrs in enumerate(adj):
        d = sum(nbrs.values())
        if d % 2 == 1:
            raise ContractViolationError(
                f"vertex {v} has odd degree {d} after matching union"
            )
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


def assemble_eulerian(cycle: MultiGraph, skeleton: MultiGraph) -> MultiGraph:
    """A copy of the checked skeleton with every edge of the bad cycle
    added.  A cycle through every root of the skeleton's forest keeps all
    degrees even and joins the trees; euler_tour's closing check confirms
    that the union is connected."""
    h = skeleton.copy()
    h.add_graph(cycle)
    return h


def repair_double_bad_edges(
    h: MultiGraph, audit: TriangleAudit, inst: Instance, trace: list | None = None
) -> bool:
    """Reroute doubled bad-bad edges in place: drop one copy of (u, v),
    replace an edge from u (or v) to a good neighbor g by (g, v) (resp.
    (g, u)).  Safe by the metric triangle through g; parity and connectivity
    are preserved.  Returns False if some doubled bad-bad edge survives
    because neither endpoint ever had a good neighbor (degenerate layouts).

    Pairs are scanned in ascending (u, v) order, the order of h.edges(),
    and the scan restarts after every reroute.  `trace`, if given, must end
    with the cost of h; each reroute appends the new cost."""
    bad = set(audit.bad)
    adj = h._adj
    c = inst.cost
    while True:
        progressed = False
        stuck = False
        doubled = [
            (u, v)
            for u in bad
            for v, mult in adj[u].items()
            if mult > 1 and u < v and v in bad
        ]
        doubled.sort()
        for u, v in doubled:
            g = next((x for x in h.neighbors(u) if x not in bad), None)
            if g is not None:
                h.remove_edge(u, v)
                h.remove_edge(u, g)
                h.add_edge(g, v)
                delta = c[g][v] - c[u][v] - c[u][g]
            else:
                g = next((x for x in h.neighbors(v) if x not in bad), None)
                if g is None:
                    stuck = True
                    continue
                h.remove_edge(u, v)
                h.remove_edge(v, g)
                h.add_edge(g, u)
                delta = c[g][u] - c[u][v] - c[v][g]
            progressed = True
            if trace is not None:
                trace.append(trace[-1] + delta)
            break  # re-scan: adjacency changed
        if not progressed:
            return not stuck


def euler_tour(h: MultiGraph) -> list[int]:
    """Closed walk using every edge exactly once, starting at the smallest
    vertex of nonzero degree, always following the smallest available
    neighbor.  The input graph is not modified.

    Every trail the walk extends from a vertex t must close at t; one that
    gets stuck elsewhere ends at a vertex of odd degree.  Once every trail
    closed, the edges reached form an Eulerian component, so a walk that
    misses edges means the multigraph is disconnected over its edges."""
    # the walk consumes copies of h's adjacency maps
    adj = [dict(nbrs) for nbrs in h._adj]
    start = next((v for v in range(h.n) if adj[v]), None)
    if start is None:
        raise ContractViolationError("no edges to tour")
    stack = [start]
    out: list[int] = []
    while stack:
        v = t = stack[-1]
        nv = adj[v]
        while nv:
            u = min(nv)
            m = nv[u]
            if m == 1:
                del nv[u]
                del adj[u][v]
            else:
                nv[u] = adj[u][v] = m - 1
            stack.append(u)
            v = u
            nv = adj[u]
        if v != t:
            raise ContractViolationError(f"vertex {v} has odd degree")
        out.append(stack.pop())
    # the pop order is the circuit traversed backwards, itself a valid
    # closed walk in an undirected multigraph
    if len(out) != h.edge_count + 1:
        raise ContractViolationError("multigraph is not connected over its edges")
    return out[:-1]


def splice_bad(
    s, audit: TriangleAudit, inst: Instance, trace: list | None = None
) -> tuple[list[int], bool]:
    """Remove repeated bad-vertex occurrences one at a time until every bad
    vertex is unique.  Each round removes the occurrence with the most
    negative delta c(x,y) - c(x,b) - c(b,y) among those provably safe to
    cut: a good cyclic neighbor (metric triangle), equal neighbors, or an
    adjacent duplicate (both identities).  If a round finds no safe
    occurrence the minimum-delta one is cut anyway and the walk is flagged
    unjustified.  `trace`, if given, must end with the cost of s; each cut
    appends the new cost."""
    bad = set(audit.bad)
    good = set(audit.good)
    c = inst.cost
    s = list(s)
    justified = True
    counts: dict[int, int] = {}
    for v in s:
        if v in bad:
            counts[v] = counts.get(v, 0) + 1
    repeated = {v for v, cnt in counts.items() if cnt > 1}
    while repeated:
        length = len(s)
        best = None
        fallback = None
        for pos in range(length):
            v = s[pos]
            if v not in repeated:
                continue
            x = s[pos - 1]
            y = s[(pos + 1) % length]
            delta = c[x][y] - c[x][v] - c[v][y]
            cand = (delta, pos)
            if x in good or y in good or x == y or x == v or y == v:
                if best is None or cand < best:
                    best = cand
            if fallback is None or cand < fallback:
                fallback = cand
        if best is None:
            justified = False
            best = fallback
        v = s.pop(best[1])
        counts[v] -= 1
        if counts[v] == 1:
            repeated.discard(v)
        if trace is not None:
            trace.append(trace[-1] + best[0])
    return s, justified


def splice_good(
    s, audit: TriangleAudit, inst: Instance, trace: list | None = None
) -> list[int]:
    """Drop every repeated good-vertex occurrence after its first.  All bad
    vertices must already be unique.  `trace`, if given, must end with the
    cost of s; each drop appends the new cost."""
    good = set(audit.good)
    c = inst.cost
    s = list(s)
    seen: set[int] = set()
    i = 0
    while i < len(s):
        v = s[i]
        if v in good and v in seen:
            x = s[i - 1]
            y = s[(i + 1) % len(s)]
            del s[i]
            if trace is not None:
                trace.append(trace[-1] + c[x][y] - c[x][v] - c[v][y])
            continue
        seen.add(v)
        i += 1
    return s
