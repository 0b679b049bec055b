"""Tour construction parameterized by the number of bad vertices.

Every chain layout of the bad vertices is evaluated: bad cycle, rooted
spanning forest over the good vertices, parity matching, then the
shortcut pipeline.  The bad cycle gives every vertex even degree, so the
forest (rooted at the chain ends E) and its odd-degree set, and with them
the matching, depend on E alone.  This "good skeleton" (forest, matching
and their union multigraph, whose parity and reach to E are checked
there) is built once per end set and shared by every layout with that
end set.  Per layout only the overlay and the walk run: a copy of the
skeleton gets the bad cycle's edges, then the repair, the Euler tour and
the splices, each step's cost traced as a delta.  The cheapest resulting
tour wins; ties break on the lexicographically smallest rotation, then on
the first layout in enumeration order.

Under --jobs the end sets are split into shards, one per worker: each
worker enumerates every layout, keeps those whose end set falls in its
shard and builds their skeletons itself.  A serial solve is the same
evaluation run on the only shard, so both return the same report.

Special regimes short-circuit the enumeration: n <= 3 has a unique tour,
instances with no violating triangle go through the tree-plus-matching
1.5-approximation, and instances where every vertex is bad reduce to
exact search over the (m-1)! single-chain layouts, whose bad cycle
already is a Hamiltonian cycle.
"""

from __future__ import annotations

import functools
import itertools
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from .errors import ContractViolationError, SizeRefusalError
from .forest import RootedForest, rooted_msf
from .instance import Instance, TriangleAudit, audit_triangles
from .layouts import ChainLayout, build_bad_cycle, enumerate_layouts
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
    "solve",
]

# a pool pays off only past this many layouts: on planted instances, two
# workers broke even with one at 360-384 layouts and won from 720 on
_SERIAL_MAX = 400


@dataclass(frozen=True)
class SolveOptions:
    max_bad: int = 9
    jobs: int = 1
    verify_matchings: bool = False


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
        sc = self.step_costs
        return all(sc[i + 1] <= sc[i] for i in range(len(sc) - 1))


@dataclass(frozen=True)
class SolveReport:
    tour: Tour
    k: int
    k_t: int
    regime: str
    layouts: int = 0
    certified: int = 0
    # AND over certified layouts of per-step cost monotonicity, and over
    # all layouts of "output is a permutation of the vertices"
    steps_monotone: bool = True
    tours_hamiltonian: bool = True
    best: LayoutResult | None = field(default=None, compare=False)


def _odd_vertices(n: int, edges) -> list[int]:
    """The vertices of odd degree in the multigraph of `edges`, ascending."""
    odd = [False] * n
    for a, b in edges:
        odd[a] = not odd[a]
        odd[b] = not odd[b]
    return [v for v in range(n) if odd[v]]


def _good_skeleton(
    inst: Instance, audit: TriangleAudit, ends: frozenset[int], verify: bool
) -> tuple[RootedForest, Matching, MultiGraph]:
    """Forest over the good vertices rooted at the chain ends, the matching
    on its odd-degree vertices, and their checked union.  The bad cycle
    has even degree everywhere, so odd(cycle + forest) = odd(forest)."""
    forest = rooted_msf(inst, set(audit.good) | ends, ends)
    odd_vertices = _odd_vertices(inst.n, forest.edges)
    matching = min_cost_perfect_matching(inst, odd_vertices, verify=verify)
    skeleton = assemble_skeleton(inst.n, forest, matching, audit.good)
    return forest, matching, skeleton


def evaluate_layout(
    inst: Instance,
    audit: TriangleAudit,
    layout: ChainLayout,
    verify: bool = False,
    keep_graph: bool = False,
    skeletons: dict | None = None,
):
    """Run one chain layout through the whole pipeline.

    Returns a LayoutResult, or a (LayoutResult, repaired multigraph) pair
    when keep_graph is set (the bound checks need the post-repair graph).
    `skeletons` maps an end set to its (forest, matching, union); pass one
    dict for all layouts of one instance to build each skeleton once.
    """
    cycle = build_bad_cycle(layout, inst)
    ends = frozenset(layout.ends)
    if skeletons is None:
        skeletons = {}
    if ends not in skeletons:
        skeletons[ends] = _good_skeleton(inst, audit, ends, verify)
    forest, matching, skeleton = skeletons[ends]
    h = assemble_eulerian(cycle, skeleton)
    # the bad cycle is the closed walk over the layout's vertex order
    cycle_cost = walk_cost(inst, layout.vertices)
    steps = [cycle_cost + forest.cost + matching.cost]
    repaired = repair_double_bad_edges(h, audit, inst, steps)
    walk = euler_tour(h)
    walk, spliced = splice_bad(walk, audit, inst, steps)
    walk = splice_good(walk, audit, inst, steps)
    result = LayoutResult(
        layout_id=layout.layout_id,
        order=canonical_rotation(walk),
        cost=walk_cost(inst, walk),
        certified=repaired and spliced,
        cycle_cost=cycle_cost,
        forest_cost=forest.cost,
        matching_cost=matching.cost,
        step_costs=tuple(steps),
    )
    if keep_graph:
        return result, h
    return result


def _evaluate_shard(inst, audit, verify, shard=0, jobs=1, layouts=None):
    """Evaluate the layouts whose end set lies in shard `shard` of `jobs`
    and return their partial aggregate (best, layouts, certified,
    monotone, hamiltonian); best is ((cost, order, enumeration index),
    LayoutResult) of the cheapest layout, or None for an empty shard.

    An end set's shard is its first-seen rank in the enumeration modulo
    `jobs`.  The enumeration is deterministic, so every worker derives the
    same shards and each skeleton is built by one worker only; the index
    in the key makes equal (cost, order) keep the layout a serial run
    keeps.  `layouts` defaults to a fresh enumeration.
    """
    if layouts is None:
        layouts = enumerate_layouts(audit, len(audit.good))
    expected = tuple(range(inst.n))
    ranks: dict = {}
    skeletons: dict = {}
    best = None
    count = certified = 0
    monotone = hamiltonian = True
    for index, lay in enumerate(layouts):
        if ranks.setdefault(frozenset(lay.ends), len(ranks)) % jobs != shard:
            continue
        res = evaluate_layout(inst, audit, lay, verify, skeletons=skeletons)
        count += 1
        if res.certified:
            certified += 1
            monotone = monotone and res.steps_monotone
        hamiltonian = hamiltonian and tuple(sorted(res.order)) == expected
        key = (res.cost, res.order, index)
        if best is None or key < best[0]:
            best = (key, res)
    return best, count, certified, monotone, hamiltonian


def _trivial_tour(inst: Instance) -> Tour:
    order = tuple(range(inst.n))
    return Tour(order, walk_cost(inst, order), "trivial")


def christofides(inst: Instance, audit: TriangleAudit | None = None) -> Tour:
    """Tree + matching 1.5-approximation; the cost matrix must be metric."""
    if audit is None:
        audit = audit_triangles(inst)
    if audit.k != 0:
        raise ContractViolationError("christofides needs a metric instance")
    n = inst.n
    if n <= 3:
        return _trivial_tour(inst)
    forest = rooted_msf(inst, range(n), {0})
    matching = min_cost_perfect_matching(inst, _odd_vertices(n, forest.edges))
    # a spanning tree plus its parity matching is already Eulerian
    h = assemble_skeleton(n, forest, matching, range(n))
    walk = euler_tour(h)
    walk = splice_good(walk, audit, inst)
    return Tour(canonical_rotation(walk), walk_cost(inst, walk), "christofides")


def solve(inst: Instance, opts: SolveOptions | None = None) -> SolveReport:
    opts = opts or SolveOptions()
    audit = audit_triangles(inst)
    n = inst.n

    if n <= 3:
        return SolveReport(_trivial_tour(inst), audit.k, audit.k_t, "trivial")

    if audit.k == 0:
        tour = christofides(inst, audit)
        return SolveReport(tour, 0, 0, "metric")

    if audit.k_t > opts.max_bad:
        raise SizeRefusalError(
            f"{audit.k_t} bad vertices exceeds the limit of {opts.max_bad}"
        )

    if not audit.good:
        # every layout's bad cycle is already a Hamiltonian cycle; the
        # single-chain layouts alone cover all of them up to rotation
        best = None
        count = 0
        for lay in enumerate_layouts(audit, good_count=1):
            count += 1
            order = canonical_rotation(lay.vertices)
            key = (walk_cost(inst, order), order)
            if best is None or key < best:
                best = key
                best_id = lay.layout_id
        tour = Tour(best[1], best[0], best_id)
        return SolveReport(tour, audit.k, audit.k_t, "all-bad", count, count)

    layouts = enumerate_layouts(audit, len(audit.good))
    # peek one layout past _SERIAL_MAX to know whether a pool pays off
    head = list(itertools.islice(layouts, _SERIAL_MAX + 1))
    jobs = min(opts.jobs, os.cpu_count() or 1)
    if jobs <= 1 or len(head) <= _SERIAL_MAX:
        layouts = itertools.chain(head, layouts)
        parts = [_evaluate_shard(inst, audit, opts.verify_matchings, layouts=layouts)]
    else:
        shard = functools.partial(
            _evaluate_shard, inst, audit, opts.verify_matchings, jobs=jobs
        )
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            parts = list(pool.map(shard, range(jobs)))

    bests, counts, certified, monotone, hamiltonian = zip(*parts)
    found = [b for b in bests if b is not None]
    if not found:
        raise ContractViolationError("no layout produced a tour")
    _, best = min(found, key=lambda b: b[0])
    tour = Tour(best.order, best.cost, best.layout_id)
    return SolveReport(
        tour,
        audit.k,
        audit.k_t,
        "chains",
        sum(counts),
        sum(certified),
        all(monotone),
        all(hamiltonian),
        best,
    )
