"""Minimum spanning forests with prescribed roots, one root per tree.

Such a forest is a minimum spanning forest (MSF) of the complete graph
with all roots contracted into a single super-vertex; re-expanding gives
every tree the root its edge into the super-vertex used, so components
never share a root.

Edges compare by the integer key cost * n**2 + min * n + max (n the
instance's size, min and max the edge's endpoints), which orders them as
(cost, (min, max)) tuples do, and decode as divmod(key % n**2, n).  Keys
are distinct, so the contracted MSF is unique, and every exact algorithm
returns its edges.  Below _FOREST_NUMPY_MIN vertices `_kruskal` finds it
on the keys of every vertex pair: joining the roots into one component
before its scan contracts them.  From there on a dense Prim on the
contracted graph scans its rows in numpy, forming each row's keys when it
moves the row's vertex in, from the solve's one numpy cost matrix when it
has one.

`forests_from_mst` gives the same forests for many root sets E over one
fixed vertex set G (E outside G) from a single MST of G.  A G-edge off
that tree is the largest key on a cycle inside G, so it is in no
contracted MSF either; `_kruskal` over the tree's edges plus each
vertex's cheapest keyed edge into E therefore finds the unique contracted
MSF, the forest rooted_msf(G | E, E) returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import ContractViolationError
from .instance import Instance, int_array

__all__ = ["RootedForest", "rooted_msf", "forests_from_mst"]

# from this many vertices on, the forest is a Prim scanning in numpy;
# smaller forests run the pure-Python Kruskal and leave numpy unloaded
# (complete CEIL_2D sets, one root, the solve's matrix given: Kruskal 54,
# 101, 158, 239, 451 us against Prim 131, 174, 214, 255, 345 us at n = 24,
# 32, 40, 48, 64)
_FOREST_NUMPY_MIN = 48


@dataclass(frozen=True)
class RootedForest:
    edges: tuple[tuple[int, int], ...]
    roots: tuple[int, ...]
    cost: int


def rooted_msf(inst: Instance, vertices, roots, _dense=None) -> RootedForest:
    """The MSF of `vertices` in which each tree holds exactly one of
    `roots`.  `_dense` is instance.dense_cost(inst), from a caller that
    built it already; the numpy Prim reads its rows."""
    verts = sorted(set(vertices))
    rts = sorted(set(roots))
    if not rts:
        raise ContractViolationError("at least one root required")
    if not set(rts) <= set(verts):
        raise ContractViolationError(f"roots {rts} not a subset of vertices")
    if verts and not (0 <= verts[0] and verts[-1] < inst.n):
        raise ContractViolationError(f"vertices {verts} out of range for n={inst.n}")

    c, n = inst.cost, inst.n
    if len(verts) >= _FOREST_NUMPY_MIN:
        edges = _prim_numpy(c, n, verts, rts, inst.max_cost, _dense)
    else:
        keys = [c[a][b] * n * n + a * n + b for a, b in combinations(verts, 2)]
        edges, _ = _kruskal(keys, n, rts, len(verts) - len(rts))
    edges.sort()
    total = sum(c[a][b] for a, b in edges)
    return RootedForest(tuple(edges), tuple(rts), total)


def _prim_numpy(c, n, verts, rts, top, dense=None):
    """Edges of the rooted MSF in selection order, by Prim on the contracted
    graph with its keys in a numpy array, relaxed a cost row at a time.
    `top` is the largest cost of `c`; `dense`, when given, is `c` as
    one n x n array, whose rows are widened to the keys' dtype one at a
    time, so no n x n array of keys is ever formed."""
    import numpy as np  # loaded on first use: small forests never load it

    n2 = n * n
    never = (top + 1) * n2  # above every key
    vs = int_array(verts, never)
    vn = vs * n
    if dense is None:  # a standalone call converts only the rows it scans
        dense, at = int_array([c[v] for v in verts], never), range(len(verts))
    else:
        at = verts
    cols = slice(None) if len(verts) == n else np.array(verts)
    key = np.full(len(verts), never, dtype=vs.dtype)
    out = np.ones(len(verts), dtype=bool)
    edges: list[tuple[int, int]] = []

    def relax(i):
        x = verts[i]
        row = np.multiply(dense[at[i], cols], n2, dtype=key.dtype)
        # min * n + max is the smaller of v * n + x and x * n + v
        row += np.minimum(vn + x, vs + x * n)
        np.minimum(key, row, out=key, where=out)

    root_set = set(rts)
    root_at = [i for i, v in enumerate(verts) if v in root_set]
    out[root_at] = False
    for i in root_at:
        relax(i)
    for _ in range(len(verts) - len(rts)):
        i = int(key.argmin())
        edges.append(divmod(int(key[i]) % n2, n))
        out[i] = False
        key[i] = never
        relax(i)
    return edges


def forests_from_mst(inst: Instance, mst: RootedForest):
    """A function from a root set E, disjoint from the vertices of `mst`
    (a spanning tree of its vertex set G, as rooted_msf(G, [one of G])
    returns it), to rooted_msf(inst, G | E, E).  Each call is one Kruskal
    over the tree's |G| - 1 edges and |G| edges into E."""
    n = inst.n
    n2 = n * n
    c = inst.cost
    good = sorted({v for e in mst.edges for v in e} | set(mst.roots))
    tree = [c[a][b] * n2 + a * n + b for a, b in mst.edges]
    # each vertex outside the tree -> the keys of its edges into the tree
    into = {
        r: [c[r][v] * n2 + (r * n + v if r < v else v * n + r) for v in good]
        for r in set(range(n)).difference(good)
    }

    def forest(roots) -> RootedForest:
        rts = sorted(roots)
        if not rts or not into.keys() >= set(rts):
            raise ContractViolationError(f"roots {rts} are not a set outside the tree")
        keys = tree + [min(k) for k in zip(*(into[r] for r in rts))]
        edges, total = _kruskal(keys, n, rts, len(good))
        edges.sort()
        return RootedForest(tuple(edges), tuple(rts), total)

    return forest


def _kruskal(keys, n, roots, count):
    """(edges, cost): Kruskal over the integer edge keys `keys` on vertices
    0..n-1, with every one of `roots` joined into one component first.
    The edges that join two components come out ascending, and the scan
    stops at the `count`th of them; cost is their summed cost."""
    n2 = n * n
    up = list(range(n))  # union-find; every root stands for roots[0]
    for r in roots:
        up[r] = roots[0]
    edges = []
    total = 0
    for k in sorted(keys):
        a, b = edge = divmod(k % n2, n)
        while up[a] != a:
            up[a] = a = up[up[a]]
        while up[b] != b:
            up[b] = b = up[up[b]]
        if a != b:
            up[a] = b
            edges.append(edge)
            total += k // n2
            if len(edges) == count:
                break
    return edges, total
