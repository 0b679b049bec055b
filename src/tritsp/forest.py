"""Minimum spanning forests with prescribed roots, one root per tree.

Computed by contracting all roots into a single super-vertex and running
dense Prim on the contracted complete graph; the super-edge to a non-root v
costs min over roots r of c(r, v).  Re-expanding assigns every tree to the
root its super-edge used, so components never share a root.

Edges compare by the strict key (cost, (min endpoint, max endpoint)), so
the contracted MSF is unique.  From _FOREST_NUMPY_MIN vertices on, Prim
scans its rows in numpy on the key encoded as the integer cost * n**2 +
min * n + max, which orders edges the same way; every step then picks the
vertex the Python loop picks, and edges, cost and component_of are equal.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ContractViolationError
from .instance import Instance, int_array

__all__ = ["RootedForest", "rooted_msf"]

# from this many vertices on, Prim's scans in numpy beat the Python loop
# (measured crossover on CEIL_2D: 20 to 24); smaller forests leave numpy
# unloaded
_FOREST_NUMPY_MIN = 24


@dataclass(frozen=True)
class RootedForest:
    edges: tuple[tuple[int, int], ...]
    roots: tuple[int, ...]
    cost: int
    component_of: dict[int, int]


def rooted_msf(inst: Instance, vertices, roots) -> RootedForest:
    verts = sorted(set(vertices))
    rts = sorted(set(roots))
    if not rts:
        raise ContractViolationError("at least one root required")
    if not set(rts) <= set(verts):
        raise ContractViolationError(f"roots {rts} not a subset of vertices")
    if verts and not (0 <= verts[0] and verts[-1] < inst.n):
        raise ContractViolationError(f"vertices {verts} out of range for n={inst.n}")

    c = inst.cost
    if len(verts) >= _FOREST_NUMPY_MIN:
        edges, comp = _prim_numpy(c, inst.n, verts, rts)
    else:
        edges, comp = _prim_python(c, verts, rts)
    edges.sort()
    total = sum(c[a][b] for a, b in edges)
    return RootedForest(tuple(edges), tuple(rts), total, comp)


def _prim_python(c, verts, rts):
    """(edges in selection order, component_of) of the rooted MSF."""
    root_set = set(rts)
    nonroots = [v for v in verts if v not in root_set]
    comp = {r: r for r in rts}
    edges: list[tuple[int, int]] = []
    if nonroots:
        # Prim from the contracted super-vertex; ties resolved by the
        # lexicographically smallest (min endpoint, max endpoint) pair
        best: dict[int, tuple[int, tuple[int, int], int]] = {}
        for v in nonroots:
            key = min((c[r][v], (min(r, v), max(r, v)), r) for r in rts)
            best[v] = key
        out = set(nonroots)
        while out:
            v = min(out, key=lambda x: (best[x][0], best[x][1]))
            out.remove(v)
            cost_v, pair, attach = best[v]
            edges.append(pair)
            comp[v] = comp[attach]
            for u in out:
                cand = (c[v][u], (min(v, u), max(v, u)), v)
                if (cand[0], cand[1]) < (best[u][0], best[u][1]):
                    best[u] = cand
    return edges, comp


def _prim_numpy(c, n, verts, rts):
    """_prim_python with each (cost, (min, max)) key encoded as cost * n**2
    + min * n + max, which orders edges the same way.  Keys are distinct,
    so every step picks the vertex the Python loop picks."""
    import numpy as np  # loaded on first use: small forests never load it

    rows = [c[v] for v in verts]
    n2 = n * n
    never = (max(map(max, rows)) + 1) * n2  # above every key
    cost = int_array(rows, never)
    if len(verts) < n:
        cost = cost[:, verts]
    cost *= n2
    vs = int_array(verts, never)
    vn = vs * n
    key = np.full(len(verts), never, dtype=cost.dtype)
    attach = np.zeros(len(verts), dtype=np.int64)
    out = np.ones(len(verts), dtype=bool)
    comp = {r: r for r in rts}
    edges: list[tuple[int, int]] = []

    def relax(i):
        x = verts[i]
        # min * n + max is the smaller of v * n + x and x * n + v
        row = cost[i] + np.minimum(vn + x, vs + x * n)
        better = (row < key) & out
        np.putmask(key, better, row)
        np.putmask(attach, better, i)

    root_set = set(rts)
    root_at = [i for i, v in enumerate(verts) if v in root_set]
    out[root_at] = False
    for i in root_at:
        relax(i)
    for _ in range(len(verts) - len(rts)):
        i = int(key.argmin())
        lo, hi = divmod(int(key[i]) % n2, n)
        edges.append((lo, hi))
        comp[verts[i]] = comp[verts[attach[i]]]
        out[i] = False
        key[i] = never
        relax(i)
    return edges, comp
