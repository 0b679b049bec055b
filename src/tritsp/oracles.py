"""Exact references the approximation pipeline is checked against.

held_karp gives the optimal tour for small n; brute_msf_cost values every
labeled spanning tree of the root-contracted graph; oracle_bounds extracts
the chain layout an optimal tour induces and reports whether each of the
intermediate cost bounds behind the 2.5 guarantee holds on it, with the
witnessing numbers.  The report never raises on a failed bound: callers
decide what a failure means.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass

from .errors import ContractViolationError, SizeRefusalError
from .instance import Instance, TriangleAudit, audit_triangles, int_array
from .layouts import ChainLayout
from .shortcut import Tour
from .solver import LayoutResult, evaluate_layout

__all__ = [
    "held_karp",
    "extract_layout",
    "brute_msf_cost",
    "BoundCheck",
    "BoundReport",
    "oracle_bounds",
]

_HK_MAX = 18
_MSF_MAX = 8


def held_karp(inst: Instance) -> Tour:
    """Exact minimum tour by dynamic programming over vertex subsets.

    States are (visited subset of 1..n-1, last vertex); transitions are
    batched with numpy per (subset size, from, to) triple, exactly at any
    cost.  Memory is O(2^n * n), so n is capped at 18.
    """
    import numpy as np  # loaded on first use: importing tritsp stays light

    n = inst.n
    if n > _HK_MAX:
        raise SizeRefusalError(f"held_karp handles up to n={_HK_MAX}, got {n}")
    if n == 1:
        return Tour((0,), 0, "held-karp")
    m = n - 1  # vertices 1..n-1, bit i <-> vertex i+1
    inf = n * max(map(max, inst.cost)) + 1  # above every path sum
    c = int_array(inst.cost, inf)
    full = 1 << m
    dp = np.full_like(c, inf, shape=(full, m))
    parent = np.full((full, m), -1, dtype=np.int8)
    for j in range(m):
        dp[1 << j, j] = c[0, j + 1]

    masks = np.arange(full, dtype=np.int64)
    pop = np.zeros(full, dtype=np.int64)
    for b in range(m):
        pop += (masks >> b) & 1
    by_size = [masks[pop == s] for s in range(m + 1)]

    for size in range(1, m):
        layer = by_size[size]
        for i in range(m):
            rows = layer[(layer >> i) & 1 == 1]
            if rows.size == 0:
                continue
            base = dp[rows, i]
            live = base < inf
            rows = rows[live]
            if rows.size == 0:
                continue
            base = base[live]
            for j in range(m):
                if j == i:
                    continue
                sel = (rows >> j) & 1 == 0
                tgt = rows[sel] | (1 << j)
                cand = base[sel] + c[i + 1, j + 1]
                cur = dp[tgt, j]
                win = cand < cur
                if win.any():
                    dp[tgt[win], j] = cand[win]
                    parent[tgt[win], j] = i

    closing = dp[full - 1] + c[1:, 0]
    j = int(np.argmin(closing))
    cost = int(closing[j])
    mask = full - 1
    tail: list[int] = []
    while mask:
        tail.append(j + 1)
        i = int(parent[mask, j])
        mask ^= 1 << j
        if i < 0:
            if mask != 0:
                raise ContractViolationError("tour reconstruction lost its path")
            break
        j = i
    tail.reverse()
    order = (0, *tail)
    rev = (0, *tail[::-1])  # same cycle walked backwards, also rooted at 0
    return Tour(min(order, rev), cost, "held-karp")


def extract_layout(order, audit: TriangleAudit) -> ChainLayout:
    """Chain layout the cyclic order induces on the bad vertices: rotate so
    the smallest bad vertex comes first, then group consecutive bad runs.
    A run wrapping past the rotation point is split there."""
    if not audit.good:
        raise ContractViolationError("layout extraction needs a good vertex")
    bad = set(audit.bad)
    pivot = order.index(audit.bad[0])
    rot = list(order[pivot:]) + list(order[:pivot])
    chains: list[tuple[int, ...]] = []
    run: list[int] = []
    for v in rot:
        if v in bad:
            run.append(v)
        elif run:
            chains.append(tuple(run))
            run = []
    if run:
        chains.append(tuple(run))
    return ChainLayout(tuple(chains))


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
    adjacency_ok = True
    worst = 0
    for b in bad:
        nbrs = [x for x in h.neighbors(b) if x in bad]
        doubled = any(h.multiplicity(b, x) > 1 for x in nbrs)
        worst = max(worst, len(nbrs))
        if len(nbrs) > 3 or doubled:
            adjacency_ok = False
    # the structural claim is proved for certified layouts only
    checks.append(
        BoundCheck("bad_adjacency", adjacency_ok or not res.certified, worst, 3)
    )
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
        res, h = evaluate_layout(inst, audit, layout, keep_graph=True)
        checks = _bound_checks(inst, audit, res, h, opt.cost)
        fails = sum(not ch.passed for ch in checks)
        candidates.append(
            (fails, not res.certified, direction == "reverse", direction, layout, res, checks)
        )
    candidates.sort(key=lambda t: t[:3])
    _, _, _, direction, layout, res, checks = candidates[0]
    return BoundReport(
        instance=inst.name,
        opt_cost=opt.cost,
        layout_id=layout.layout_id,
        direction=direction,
        certified=res.certified,
        checks=tuple(checks),
    )
