"""Tour construction parameterized by the number of bad vertices.

Every chain layout of the bad vertices is evaluated: bad cycle, rooted
spanning forest over the good vertices, parity matching, then the
shortcut pipeline.  The bad cycle gives every vertex even degree, so the
forest (rooted at the chain ends E) and its odd-degree set, and with them
the matching, depend on E alone, and in fact on E's forest alone: an end
the forest leaves bare has only ring edges, like an inner chain vertex.
One Prim per solve builds the good-vertex MST, and each end set's forest
is one Kruskal from it (`forests_from_mst`).  End sets are grouped by
their forest's edges, and each group's "good skeleton" (forest, matching
and their union multigraph, whose parity, reach to the roots and single
bad-bad edges are checked there) is built once, shared by the group's
layouts and dropped.  Distinct forests often leave the same odd set, so a
solve keeps each odd set's matching and matches each one once.  Every
matching is proved minimum when it is built, as the 2·M <= OPT step of
the guarantee needs: an odd set of at most 8 vertices whose least
matching is unique by listing every perfect matching, any other by its
LP certificate; there is no unchecked configuration.  Each undirected
ring runs once per group that holds a layout of it (`_evaluate_shard`),
and the layouts are counted by formula, not walked (`_layout_count`).
Per ring only the overlay and the walk run (`_run_ring`), on one copy of
the skeleton: the overlay adds the ring's edges and sums their cost in
one pass, the repair runs only where it doubled an edge, the Euler tour
consumes the copy and the splices follow, each step's cost traced as a
delta.  Every walk is Hamiltonian and no step raises its cost, by proof
(`_run_ring`), so the report checks both on the winner, the only ring
cut into a ChainLayout.  The cheapest resulting tour wins; ties break on
the lexicographically smallest rotation, then on the first layout in
enumeration order.

Under --jobs the forest groups are dealt out largest first, by their
exact ring evaluations, each to the shard with the fewest so far
(`_shards`); each worker evaluates only its groups and returns its own
winner; it keeps its own matchings, so two workers may each match one odd
set.  A serial solve is the same evaluation run on the only shard, so both
return the same report.

From 16 vertices on a solve converts its cost matrix to numpy once
(`instance.dense_cost`): the triangle audit searches it, Prim reads its
rows, and in the metric regime the matching takes its odd set's rows and
columns from it.  The shards match on Python lists, and the array is
dropped before they run.

Special regimes short-circuit the enumeration: n <= 3 has a unique tour,
instances with no violating triangle go through the tree-plus-matching
1.5-approximation (the good skeleton of the end set {0}, since every
vertex is good there), and instances where every vertex is bad take the
optimal tour of held_karp (n <= 18, whatever max_bad is), which is the
bad cycle of the best of their (n-1)! single-chain layouts.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
from dataclasses import dataclass, field

from .errors import ContractViolationError, SizeRefusalError
from .forest import RootedForest, forests_from_mst, rooted_msf
from .instance import Instance, TriangleAudit, audit_triangles, dense_cost, int_array
from .layouts import ChainLayout, cut_chains, end_sets
# unused here; perfbench/measure.py wraps them by these names
from .layouts import build_bad_cycle, enumerate_layouts
from .matching import Matching, min_cost_perfect_matching
from .multigraph import MultiGraph
from .shortcut import (
    Tour,
    assemble_eulerian,
    assemble_skeleton,
    canonical_rotation,
    euler_tour,
    graph_cost,  # unused here; perfbench/measure.py wraps it by this name
    repair_double_bad_edges,
    splice_bad,
    splice_good,
    walk_cost,
)

__all__ = [
    "SolveOptions",
    "LayoutResult",
    "SolveReport",
    "evaluate_layout",
    "christofides",
    "held_karp",
    "solve",
]

# a pool pays off only past this many ring evaluations (_rings_bound, the
# exact count): on planted instances two workers took 1.1-2.2x one
# worker's time at 450-720 rings, 0.85-1.7x at 780-870 and 0.79-1.4x at
# 1134-1896, on a 2-vCPU host whose second vCPU was contended (README)
_SERIAL_MAX = 800
_HK_MAX = 18


@dataclass(frozen=True)
class SolveOptions:
    max_bad: int = 9
    jobs: int = 1


@dataclass(frozen=True)
class LayoutResult:
    layout_id: str
    order: tuple[int, ...]
    cost: int
    certified: bool
    cycle_cost: int
    forest_cost: int
    matching_cost: int
    step_costs: tuple[int, ...]

    @property
    def steps_monotone(self) -> bool:
        return sorted(self.step_costs, reverse=True) == list(self.step_costs)


@dataclass(frozen=True)
class SolveReport:
    tour: Tour
    k: int
    k_t: int
    regime: str
    layouts: int = 0
    # equals layouts: every shortcut step is proved safe (shortcut.py)
    certified: int = 0
    # the winner's steps never raise its cost, and its tour is a permutation
    # of the vertices: both hold on every layout by proof (_run_ring)
    steps_monotone: bool = True
    tours_hamiltonian: bool = True
    best: LayoutResult | None = field(default=None, compare=False)


def _odd_vertices(n: int, edges) -> tuple[int, ...]:
    """The vertices of odd degree in the multigraph of `edges`, ascending."""
    odd = [False] * n
    for a, b in edges:
        odd[a] = not odd[a]
        odd[b] = not odd[b]
    return tuple(v for v in range(n) if odd[v])


def _good_skeleton(
    inst: Instance,
    audit: TriangleAudit,
    ends: frozenset[int],
    matchings: dict[tuple[int, ...], Matching],
    forest: RootedForest | None = None,
    dense=None,
) -> tuple[RootedForest, Matching, MultiGraph]:
    """Forest over the good vertices rooted at the chain ends (`forest`,
    or else rooted_msf's), the matching on its odd-degree vertices, and
    their checked union.  The bad cycle has even degree everywhere, so
    odd(cycle + forest) = odd(forest).  On a metric instance every vertex
    is good, and ends {0} give the spanning tree and parity matching of
    Christofides.  `matchings` maps each odd set met so far to its
    matching, which was proved minimum when it was built and depends on
    nothing else, so each distinct odd set is matched once per dict.
    `dense` is the solve's numpy cost matrix (instance.dense_cost) or None;
    Prim and the matching read it."""
    if forest is None:
        forest = rooted_msf(inst, audit.good_set | ends, ends, _dense=dense)
    odd = _odd_vertices(inst.n, forest.edges)
    matching = matchings.get(odd)
    if matching is None:
        matching = matchings[odd] = min_cost_perfect_matching(inst, odd, _dense=dense)
    skeleton = assemble_skeleton(inst.n, forest, matching, audit.good)
    return forest, matching, skeleton


def _run_ring(inst, audit, order, skeleton):
    """Run the ring through `order` (a layout's vertices, at least 3) over
    its forest's skeleton: overlay, repair, Euler tour, both splices, each
    step proved cost-safe or refused with ContractViolationError by the
    stage (shortcut.py), so every LayoutResult is certified.  Returns (walk,
    ring): ring is (cycle_cost, forest_cost, matching_cost, step_costs),
    LayoutResult's fields after certified; the last step is the walk's
    cost.  The walk is Hamiltonian by shortcut.py's argument, since every
    vertex has an edge: a bad one on the ring, a good one on its checked
    path to a root, and a reroute leaves u a copy of (u, v).  So solve
    checks that, and that step_costs never rises, on the winner alone."""
    forest, matching, union = skeleton
    h, cycle_cost, doubled = assemble_eulerian(order, union, inst)
    steps = [cycle_cost + forest.cost + matching.cost]
    # the skeleton doubles no bad-bad edge (assemble_skeleton), so the
    # repair has work only where the overlay doubled a ring edge
    if doubled:
        repair_double_bad_edges(h, audit, inst, steps)
    walk = euler_tour(h)
    walk = splice_bad(walk, audit, inst, steps)
    walk = splice_good(walk, audit, inst, steps)
    return walk, (cycle_cost, forest.cost, matching.cost, tuple(steps))


def evaluate_layout(
    inst: Instance, audit: TriangleAudit, layout: ChainLayout
) -> LayoutResult:
    """Run one chain layout, which must chain exactly the bad vertices (at
    least 3, as every violating triangle has), through the whole pipeline
    on its own skeleton."""
    if set(layout.vertices) != audit.bad_set or len(audit.bad) < 3:
        raise ContractViolationError(
            f"layout {layout.layout_id} does not chain exactly the bad "
            f"vertices {audit.bad}, at least 3 of them"
        )
    skeleton = _good_skeleton(inst, audit, frozenset(layout.ends), {})
    walk, ring = _run_ring(inst, audit, layout.vertices, skeleton)
    return LayoutResult(layout.layout_id, canonical_rotation(walk), ring[-1][-1], True, *ring)


def _forest_groups(inst, audit, dense=None):
    """The ranked end sets grouped by their rooted forest: a list, in
    order of first rank, of (forest, [(rank, ends), ...]) with ranks
    ascending.  Every forest comes from one good-vertex MST, whose Prim
    reads `dense` (instance.dense_cost) when it is given."""
    mst = rooted_msf(inst, audit.good, audit.good[:1], _dense=dense)
    forest_of = forests_from_mst(inst, mst)
    groups = {}
    for rank, ends in enumerate(end_sets(audit, len(audit.good))):
        forest = forest_of(ends)
        groups.setdefault(forest.edges, (forest, []))[1].append((rank, ends))
    return list(groups.values())


def _group_rings(audit, members) -> int:
    """How many rings a forest group with the end sets `members` evaluates
    (_evaluate_shard): the (b-3)! rings (s, p, ..., q) of each pair p < q
    of bad vertices other than s, the smallest, that one of its end sets
    touches: every pair but those of two vertices that no end set holds."""
    rest = audit.bad[1:]
    untouched = len(set(rest).difference(*(ends for _, ends in members)))
    pairs = math.comb(len(rest), 2) - math.comb(untouched, 2)
    return pairs * math.factorial(len(rest) - 2)


def _rings_bound(audit, groups) -> int:
    """How many rings a solve evaluates."""
    return sum(_group_rings(audit, members) for _, members in groups)


def _shards(audit, groups, jobs):
    """The forest groups split into `jobs` shards of about equal ring
    evaluations (`_group_rings`), which take most of a shard's time: the
    largest group first (ties in group order), each to the shard with the
    fewest so far (ties to the lowest shard).  Each shard keeps its groups
    in group order; the report does not depend on the split, since the
    best key carries the global end-set rank."""
    sizes = [_group_rings(audit, members) for _, members in groups]
    load = [0] * jobs
    taken = [[] for _ in range(jobs)]
    for i in sorted(range(len(groups)), key=lambda i: -sizes[i]):
        shard = load.index(min(load))
        load[shard] += sizes[i]
        taken[shard].append(i)
    return [[groups[i] for i in sorted(ids)] for ids in taken]


def _layout_count(audit, groups) -> int:
    """How many layouts the forest groups hold: (b-2)! per end set E and
    last vertex in E - {s}, s the smallest bad vertex (layout_orders)."""
    s = audit.bad[0]
    lasts = sum(len(ends - {s}) for _, members in groups for _, ends in members)
    return math.factorial(len(audit.bad) - 2) * lasts


def _evaluate_shard(inst, audit, groups):
    """Evaluate the layouts of the forest groups (`_forest_groups`, or one
    shard of them from `_shards`), building each group's skeleton once,
    matching each distinct odd set once and running each undirected ring
    once per group that holds a layout of it.  Returns ((cost, rotation,
    rank), LayoutResult) of the cheapest layout, or None for an empty shard.

    The ring (s, p, ..., q), s the smallest bad vertex and p < q, is the
    layout of end set E ending at q if q is in E, and reversed, ending at
    p, if p is.  It competes on (cost, rotation, rank, last, order) of its
    first layout in enumeration order: in member min(first[p], first[q])
    (first[v]: the first member holding v; len(members), and the ring is
    skipped, if none), ending at p if it can (lasts ascend), so a tie keeps
    the layout a serial run meets first.  Only the winner gets its
    ChainLayout and its LayoutResult.
    """
    # the (b-1)!/2 rings; b >= 3: a violating triangle has three
    s, *rest = audit.bad
    rings = [(s, *mid) for mid in itertools.permutations(rest) if mid[0] < mid[-1]]
    best = None
    matchings = {}
    for forest, members in groups:
        # a root the forest leaves bare has only ring edges, like an
        # inner chain vertex: the group's end sets share every stage
        skeleton = _good_skeleton(inst, audit, members[0][1], matchings, forest)
        first = [len(members)] * inst.n
        for i, (_, ends) in enumerate(members):
            for v in ends:
                first[v] = min(first[v], i)
        for order in rings:
            p, q = order[1], order[-1]
            i = min(first[p], first[q])
            if i == len(members):
                continue
            # one orientation serves all: the result depends on the edge
            # multiset (sorted repair pairs, euler_tour takes the min)
            walk, ring = _run_ring(inst, audit, order, skeleton)
            cost = ring[-1][-1]
            # a costlier ring loses on the key's first field
            if best is None or cost <= best[0][0]:
                rank, ends = members[i]
                oriented = order[:1] + order[:0:-1] if p in ends else order
                key = (cost, canonical_rotation(walk), rank, oriented[-1], oriented)
                if best is None or key < best[0]:
                    best = (key, ends, ring)
    if best is not None:
        key, ends, ring = best
        layout = cut_chains(key[-1], ends)
        best = (key[:3], LayoutResult(layout.layout_id, key[1], key[0], True, *ring))
    return best


def _trivial_tour(inst: Instance) -> Tour:
    order = tuple(range(inst.n))
    return Tour(order, walk_cost(inst, order), "trivial")


def christofides(
    inst: Instance, audit: TriangleAudit | None = None, _dense=None
) -> Tour:
    """Tree + matching 1.5-approximation; the cost matrix must be metric.
    `_dense` is instance.dense_cost(inst), from a caller that built it
    already (solve); without it, a call builds it as solve does."""
    if _dense is None:
        _dense = dense_cost(inst)
    if audit is None:
        audit = audit_triangles(inst, _dense)
    if audit.k != 0:
        raise ContractViolationError("christofides needs a metric instance")
    if inst.n <= 3:
        return _trivial_tour(inst)
    # a spanning tree plus its parity matching is already Eulerian
    _, _, h = _good_skeleton(inst, audit, frozenset({0}), {}, None, _dense)
    walk = euler_tour(h)
    walk = splice_good(walk, audit, inst)
    return Tour(canonical_rotation(walk), walk_cost(inst, walk), "christofides")


def held_karp(inst: Instance) -> Tour:
    """Exact minimum tour by dynamic programming over vertex subsets.

    dp[S, j] is the cheapest path from vertex 0 through exactly the
    vertices of S (bit j <-> vertex j + 1) ending at j.  Each subset-size
    layer pulls from the one below, one numpy min per (size, j), exactly
    at any cost.  The tour is rebuilt backwards, from the first j of least
    dp[full, j] + c[j, 0] through each state's first predecessor that
    attains its minimum.  Costs are symmetric, so read from 0 in that
    order, each vertex is the smallest that still extends to an optimal
    tour: the tour is the lexicographically smallest optimal one from 0.
    Memory is O(2^n * n), so n is capped at 18.
    """
    import numpy as np  # loaded on first use: importing tritsp stays light

    n = inst.n
    if n > _HK_MAX:
        raise SizeRefusalError(f"held_karp handles up to n={_HK_MAX}, got {n}")
    if n == 1:
        return Tour((0,), 0, "held-karp")
    m = n - 1  # vertices 1..n-1, bit i <-> vertex i+1
    top = inst.max_cost
    inf = n * top + 1  # above every path sum
    c = int_array(inst.cost, inf + top)  # an unreached state plus one edge
    inner = c[1:, 1:]
    full = 1 << m
    dp = np.full_like(c, inf, shape=(full, m))
    for j in range(m):
        dp[1 << j, j] = c[0, j + 1]

    masks = np.arange(full, dtype=np.int64)
    pop = np.zeros(full, dtype=np.int64)
    for b in range(m):
        pop += (masks >> b) & 1
    for size in range(2, m + 1):
        layer = masks[pop == size]
        for j in range(m):
            rows = layer[(layer >> j) & 1 == 1]
            # dp[prev, j] is inf (j is not in prev), so j never wins
            dp[rows, j] = (dp[rows ^ (1 << j)] + inner[:, j]).min(axis=1)

    closing = dp[full - 1] + c[1:, 0]
    j = int(np.argmin(closing))
    cost = int(closing[j])
    mask = full - 1
    tail = [j + 1]
    while mask != 1 << j:
        prev = mask ^ (1 << j)
        sums = dp[prev] + inner[:, j]
        i = int(np.argmin(sums))
        if sums[i] != dp[mask, j]:
            raise ContractViolationError("tour reconstruction lost its path")
        mask, j = prev, i
        tail.append(j + 1)
    return Tour((0, *tail), cost, "held-karp")


def solve(inst: Instance, opts: SolveOptions | None = None) -> SolveReport:
    opts = opts or SolveOptions()
    # one numpy cost matrix (None for small n) serves the audit, Prim and
    # the metric regime's matching
    dense = dense_cost(inst)
    audit = audit_triangles(inst, dense)
    n = inst.n

    if n <= 3:
        return SolveReport(_trivial_tour(inst), audit.k, audit.k_t, "trivial")

    if audit.k == 0:
        tour = christofides(inst, audit, dense)
        return SolveReport(tour, 0, 0, "metric")

    if not audit.good:
        # the best single-chain ring is held_karp's tour, the smallest
        # optimal order from 0
        opt = held_karp(inst)
        tour = Tour(opt.order, opt.cost, ",".join(map(str, opt.order)))
        count = math.factorial(n - 1)
        return SolveReport(tour, audit.k, audit.k_t, "all-bad", count, count)

    if audit.k_t > opts.max_bad:
        raise SizeRefusalError(
            f"{audit.k_t} bad vertices exceeds the limit of {opts.max_bad}"
        )

    groups = _forest_groups(inst, audit, dense)
    del dense  # the shards match on Python lists
    jobs = min(opts.jobs, os.cpu_count() or 1)
    if jobs <= 1 or _rings_bound(audit, groups) <= _SERIAL_MAX:
        parts = [_evaluate_shard(inst, audit, groups)]
    else:
        # loaded on first use: serial solves never load the pool's modules
        from concurrent.futures import ProcessPoolExecutor

        shard = functools.partial(_evaluate_shard, inst, audit)
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            parts = list(pool.map(shard, _shards(audit, groups, jobs)))

    found = [b for b in parts if b is not None]
    if not found:
        raise ContractViolationError("no layout produced a tour")
    _, best = min(found, key=lambda b: b[0])
    tour = Tour(best.order, best.cost, best.layout_id)
    layouts = _layout_count(audit, groups)
    return SolveReport(
        tour,
        audit.k,
        audit.k_t,
        "chains",
        layouts,
        layouts,
        best.steps_monotone,
        sorted(best.order) == list(range(n)),
        best,
    )
