"""Exact references the approximation pipeline is checked against in tests.

No production path imports this module.  brute_msf_cost values every
labeled spanning tree of the root-contracted graph; brute_matching is a
bitmask DP over vertex subsets; oracle_bounds extracts the chain layout
an optimal tour induces (the optimum from solver.held_karp unless given)
and reports whether each of the intermediate cost bounds behind the 2.5
guarantee holds on it, with the witnessing numbers.  The report never
raises on a failed bound: callers decide what a failure means.
"""

from __future__ import annotations

import bisect
import itertools
from collections import Counter
from dataclasses import dataclass

from .errors import ContractViolationError, SizeRefusalError
from .instance import Instance, TriangleAudit, audit_triangles
from .matching import Matching, _checked_vertices
from .shortcut import Tour, assemble_eulerian, repair_double_bad_edges
from .solver import (
    ChainLayout,
    LayoutResult,
    _good_skeleton,
    cut_chains,
    evaluate_layout,
    held_karp,
)

__all__ = [
    "held_karp",
    "extract_layout",
    "brute_msf_cost",
    "brute_matching",
    "BoundCheck",
    "BoundReport",
    "oracle_bounds",
]

_MSF_MAX = 8


def extract_layout(order, audit: TriangleAudit) -> ChainLayout:
    """Chain layout the cyclic order induces on the bad vertices: rotate so
    the smallest bad vertex comes first, keep the bad vertices in that
    order and cut after the last vertex of each bad run.  A run wrapping
    past the rotation point is split there."""
    if not audit.good:
        raise ContractViolationError("layout extraction needs a good vertex")
    bad = audit.bad_set
    pivot = order.index(audit.bad[0])
    rot = tuple(order[pivot:]) + tuple(order[:pivot])
    chained = tuple(v for v in rot if v in bad)
    ends = {v for v, w in zip(rot, rot[1:]) if v in bad and w not in bad}
    ends.add(chained[-1])
    return cut_chains(chained, frozenset(ends))


def brute_msf_cost(inst: Instance, vertices, roots) -> int:
    """Minimum spanning forest cost by enumerating every labeled tree of
    the graph with all roots contracted to one node (Pruefer sequences)."""
    rts = sorted(set(roots))
    verts = sorted(set(vertices))
    others = [v for v in verts if v not in set(rts)]
    nc = len(others) + 1
    if nc > _MSF_MAX:
        raise SizeRefusalError(f"brute_msf_cost handles up to {_MSF_MAX} contracted nodes")
    if nc == 1:
        return 0
    c = inst.cost
    w = [[0] * nc for _ in range(nc)]
    for i, u in enumerate(others, start=1):
        w[0][i] = w[i][0] = min(c[r][u] for r in rts)
        for j, v in enumerate(others, start=1):
            if i < j:
                w[i][j] = w[j][i] = c[u][v]
    best = None
    for seq in itertools.product(range(nc), repeat=nc - 2):
        deg = [1] * nc
        for x in seq:
            deg[x] += 1
        avail = sorted(i for i in range(nc) if deg[i] == 1)
        total = 0
        for x in seq:
            leaf = avail.pop(0)
            total += w[leaf][x]
            deg[x] -= 1
            if deg[x] == 1:
                bisect.insort(avail, x)
        total += w[avail[0]][avail[1]]
        if best is None or total < best:
            best = total
    return best


def brute_matching(inst: Instance, odd) -> Matching:
    """Bitmask-DP exact minimum perfect matching (testing oracle)."""
    verts = _checked_vertices(inst, odd)
    m = len(verts)
    if m > 16:
        raise SizeRefusalError(f"brute_matching supports at most 16 vertices, got {m}")
    if m == 0:
        return Matching((), 0)
    c = inst.cost
    full = 1 << m
    # dp[mask] = min cost to perfectly match the vertex set mask; the lowest
    # set bit must pair with someone, so minimizing over its partner is
    # complete and every even-popcount mask gets a value
    dp = [None] * full
    dp[0] = 0
    for mask in range(1, full):
        if bin(mask).count("1") % 2 == 1:
            continue
        i = 0
        while not mask >> i & 1:
            i += 1
        best = None
        for j in range(i + 1, m):
            if not mask >> j & 1:
                continue
            cand = dp[mask ^ 1 << i ^ 1 << j] + c[verts[i]][verts[j]]
            if best is None or cand < best:
                best = cand
        dp[mask] = best
    pairs = []
    mask = full - 1
    while mask:
        i = 0
        while not mask >> i & 1:
            i += 1
        for j in range(i + 1, m):
            if not mask >> j & 1:
                continue
            prev = mask ^ 1 << i ^ 1 << j
            if dp[prev] + c[verts[i]][verts[j]] == dp[mask]:
                pairs.append((verts[i], verts[j]))
                mask = prev
                break
        else:
            raise ContractViolationError("matching DP reconstruction failed")
    pairs.sort()
    return Matching(tuple(pairs), dp[full - 1])


@dataclass(frozen=True)
class BoundCheck:
    name: str
    passed: bool
    lhs: int
    rhs: int


@dataclass(frozen=True)
class BoundReport:
    instance: str
    opt_cost: int
    layout_id: str
    direction: str
    certified: bool
    checks: tuple[BoundCheck, ...]

    @property
    def passed(self) -> bool:
        return all(ch.passed for ch in self.checks)

    def failures(self) -> tuple[BoundCheck, ...]:
        return tuple(ch for ch in self.checks if not ch.passed)


def _bound_checks(inst, audit, res: LayoutResult, h, opt_cost: int):
    checks = [
        BoundCheck("cycle_le_opt", res.cycle_cost <= opt_cost, res.cycle_cost, opt_cost),
        BoundCheck("forest_le_opt", res.forest_cost <= opt_cost, res.forest_cost, opt_cost),
        BoundCheck(
            "twice_matching_le_opt",
            2 * res.matching_cost <= opt_cost,
            2 * res.matching_cost,
            opt_cost,
        ),
    ]
    bad = set(audit.bad)
    bad_edges = [(u, v, m) for u, v, m in h.edges() if u in bad and v in bad]
    worst = max(Counter(x for u, v, _ in bad_edges for x in (u, v)).values(), default=0)
    adjacency_ok = worst <= 3 and all(m == 1 for _, _, m in bad_edges)
    # the structural claim, proved for every repaired layout
    checks.append(BoundCheck("bad_adjacency", adjacency_ok, worst, 3))
    checks.append(
        BoundCheck(
            "tour_within_5_halves_opt",
            2 * res.cost <= 5 * opt_cost,
            2 * res.cost,
            5 * opt_cost,
        )
    )
    return checks


def oracle_bounds(inst: Instance, opt_tour: Tour | None = None) -> BoundReport:
    """Evaluate the layouts an optimal tour induces (both traversal
    directions) and report the intermediate bounds on the better one."""
    audit = audit_triangles(inst)
    if audit.k == 0:
        raise ContractViolationError("bound checks need at least one bad triangle")
    if not audit.good:
        raise ContractViolationError("bound checks need at least one good vertex")
    opt = opt_tour if opt_tour is not None else held_karp(inst)

    candidates = []
    for direction, order in (("forward", opt.order), ("reverse", opt.order[::-1])):
        layout = extract_layout(order, audit)
        res = evaluate_layout(inst, audit, layout)
        # the graph evaluate_layout's Euler tour consumed: every stage is
        # deterministic, so rebuilding it gives the same graph
        _, _, union = _good_skeleton(inst, audit, frozenset(layout.ends), {})
        h, _, _ = assemble_eulerian(layout.vertices, union, inst)
        repair_double_bad_edges(h, audit, inst)
        checks = _bound_checks(inst, audit, res, h, opt.cost)
        fails = sum(not ch.passed for ch in checks)
        candidates.append((fails, direction == "reverse", direction, layout, res, checks))
    candidates.sort(key=lambda t: t[:2])
    _, _, direction, layout, res, checks = candidates[0]
    return BoundReport(
        instance=inst.name,
        opt_cost=opt.cost,
        layout_id=layout.layout_id,
        direction=direction,
        certified=res.certified,
        checks=tuple(checks),
    )
