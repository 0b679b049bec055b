"""Reference values and output checks that share no code with tritsp.

Everything here reads plain cost matrices (lists of lists of ints) and
numpy arrays, never a tritsp object, so a fault in the solver cannot also
hide in its check:

- ``held_karp_cost``: exact optimum by a pull-style subset DP (n <= 18);
- ``mst_cost``: minimum spanning tree weight by dense Prim;
- ``is_metric``: full triangle-inequality scan over every vertex triple;
- ``check_tour``: the checks one solve must pass against those values.
"""

from __future__ import annotations

import numpy as np

HK_MAX = 18


def held_karp_cost(cost) -> int:
    """Optimal tour cost.  dp[S, j] is the cheapest path that starts at
    vertex 0, visits exactly the vertices of S (bit j <-> vertex j + 1) and
    ends at j; each subset-size layer pulls from the layer below it."""
    c = np.asarray(cost, dtype=np.int64)
    n = len(c)
    if n > HK_MAX:
        raise ValueError(f"held_karp_cost handles n <= {HK_MAX}, got {n}")
    if n <= 3:
        return int(sum(c[i, (i + 1) % n] for i in range(n)))
    m = n - 1
    full = 1 << m
    # large enough to lose every min, small enough that adding one edge
    # cost never overflows int64
    inf = np.int64(1) << 60
    dp = np.full((full, m), inf, dtype=np.int64)
    for j in range(m):
        dp[1 << j, j] = c[0, j + 1]
    masks = np.arange(full, dtype=np.int64)
    pop = np.zeros(full, dtype=np.int64)
    for b in range(m):
        pop += (masks >> b) & 1
    inner = c[1:, 1:]
    for size in range(2, m + 1):
        layer = masks[pop == size]
        for j in range(m):
            rows = layer[(layer >> j) & 1 == 1]
            prev = rows ^ (1 << j)
            # dp[prev, j] is inf (j is not in prev), so k = j never wins
            dp[rows, j] = (dp[prev] + inner[:, j]).min(axis=1)
    return int((dp[full - 1] + c[1:, 0]).min())


def mst_cost(cost) -> int:
    """Weight of a minimum spanning tree of the complete graph."""
    c = np.asarray(cost, dtype=np.int64)
    n = len(c)
    if n <= 1:
        return 0
    in_tree = np.zeros(n, dtype=bool)
    in_tree[0] = True
    best = c[0].copy()
    total = 0
    for _ in range(n - 1):
        cand = np.where(in_tree, np.iinfo(np.int64).max, best)
        v = int(np.argmin(cand))
        total += int(cand[v])
        in_tree[v] = True
        best = np.minimum(best, c[v])
    return total


def is_metric(cost) -> bool:
    """True when c[i][j] <= c[i][k] + c[k][j] for every triple."""
    c = np.asarray(cost, dtype=np.int64)
    for k in range(len(c)):
        if (c > c[:, k : k + 1] + c[k : k + 1, :]).any():
            return False
    return True


def reference_for(cost) -> dict:
    """The reference a solve of this matrix is checked against: the exact
    optimum where Held-Karp reaches, else the MST bound and the metric
    verdict (the MST bounds only hold on metric costs)."""
    if len(cost) <= HK_MAX:
        return {"opt": held_karp_cost(cost)}
    return {"mst": mst_cost(cost), "metric": is_metric(cost)}


def tour_cost(cost, order) -> int:
    n = len(order)
    return sum(cost[order[i]][order[(i + 1) % n]] for i in range(n))


def check_tour(cost, order, reported: int, ref: dict) -> list[str]:
    """Every check the tour fails, as messages; empty when it passes.

    - ``order`` is a permutation of 0..n-1;
    - its cost, recomputed from the matrix, equals ``reported``;
    - with an exact optimum: OPT <= cost and 2 * cost <= 5 * OPT;
    - with an MST bound: the matrix is metric and MST <= cost <= 3 * MST
      (Christofides gives 1.5 * OPT and OPT <= 2 * MST on metric costs).
    """
    n = len(cost)
    if sorted(order) != list(range(n)):
        return [f"tour is not a permutation of 0..{n - 1}"]
    fails = []
    actual = tour_cost(cost, order)
    if actual != reported:
        fails.append(f"reported cost {reported} != recomputed {actual}")
    if "opt" in ref:
        opt = ref["opt"]
        if actual < opt:
            fails.append(f"cost {actual} below the optimum {opt}")
        if 2 * actual > 5 * opt:
            fails.append(f"cost {actual} above 2.5 x optimum {opt}")
    if "mst" in ref:
        mst = ref["mst"]
        if not ref["metric"]:
            fails.append("instance is not metric")
        if not mst <= actual <= 3 * mst:
            fails.append(f"cost {actual} outside [MST, 3 MST] with MST {mst}")
    return fails


def reference_value(ref: dict) -> int:
    """The denominator of tour_cost_ratio for one instance."""
    return ref["opt"] if "opt" in ref else ref["mst"]
