"""Chain layouts over the bad-vertex set and the cycle they induce.

A layout is an ordered partition of the bad vertices into non-empty chains.
Enumeration is canonical: the smallest bad vertex leads the first chain
(rotating the chain list never changes the induced cycle or the chain-end
set, so each equivalence class is emitted once), and layouts needing more
chains than there are good vertices are pruned.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator

from .errors import ContractViolationError
from .instance import Instance, TriangleAudit
from .multigraph import MultiGraph

__all__ = ["ChainLayout", "enumerate_layouts", "build_bad_cycle"]


@dataclass(frozen=True)
class ChainLayout:
    """Ordered chains (each a non-empty ordered tuple of bad vertices).

    `vertices` (all bad vertices in chain order, the underlying
    permutation), `starts` and `ends` are derived once, on construction;
    they take no part in equality, hashing or repr."""

    chains: tuple[tuple[int, ...], ...]
    vertices: tuple[int, ...] = field(init=False, repr=False, compare=False)
    starts: tuple[int, ...] = field(init=False, repr=False, compare=False)
    ends: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.chains or any(not c for c in self.chains):
            raise ContractViolationError("chains must be non-empty")
        flat = tuple(itertools.chain.from_iterable(self.chains))
        if len(set(flat)) != len(flat):
            raise ContractViolationError(f"chains overlap: {self.chains}")
        object.__setattr__(self, "vertices", flat)
        object.__setattr__(self, "starts", tuple(c[0] for c in self.chains))
        object.__setattr__(self, "ends", tuple(c[-1] for c in self.chains))

    @property
    def t(self) -> int:
        return len(self.chains)

    @property
    def layout_id(self) -> str:
        return "|".join(",".join(map(str, c)) for c in self.chains)


def enumerate_layouts(
    audit: TriangleAudit, good_count: int
) -> Iterator[ChainLayout]:
    """Yield every canonical layout of audit.bad once, deterministically:
    permutations with the smallest bad vertex first, crossed with all
    2^(m-1) cut masks; layouts with more chains than good_count are skipped
    (a layout mirroring an optimal tour needs a good vertex between
    consecutive chains)."""
    bad = audit.bad
    if not bad:
        raise ContractViolationError("no bad vertices to lay out")
    m = len(bad)
    first = bad[0]
    rest = bad[1:]
    for perm in itertools.permutations(rest):
        order = (first,) + perm
        for mask in range(1 << (m - 1)):
            t = bin(mask).count("1") + 1
            if t > good_count:
                continue
            chains: list[tuple[int, ...]] = []
            begin = 0
            for i in range(m - 1):
                if mask >> i & 1:
                    chains.append(order[begin : i + 1])
                    begin = i + 1
            chains.append(order[begin:])
            yield ChainLayout(tuple(chains))


def build_bad_cycle(layout: ChainLayout, inst: Instance) -> MultiGraph:
    """Cycle through all bad vertices: intra-chain edges plus a closing edge
    from each chain's end to the next chain's start (cyclically).  One bad
    vertex gives an empty graph; two give the connecting edge doubled."""
    verts = layout.vertices
    if min(verts) < 0 or max(verts) >= inst.n:
        raise ContractViolationError(
            f"layout vertices {verts} out of range for n={inst.n}"
        )
    g = MultiGraph(inst.n)
    if len(verts) == 1:
        return g
    # intra-chain edges and closing edges end(q_i) -> start(q_{i+1})
    # together trace the concatenated permutation cyclically
    for a, b in zip(verts, verts[1:] + verts[:1]):
        g.add_edge(a, b)
    return g
