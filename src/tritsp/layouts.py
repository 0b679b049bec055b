"""Chain layouts over the bad-vertex set and the cycle they induce.

A layout is an ordered partition of the bad vertices into non-empty chains.
Its chain ends (its end set) alone fix the solver's good skeleton, so the
layouts come end set by end set (`end_sets`, `enumerate_layouts`).  The
smallest bad vertex leads the first chain (rotating the chains changes
neither the induced cycle nor the end set, so each class is emitted once),
and end sets larger than the number of good vertices are pruned whole.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterator

from .errors import ContractViolationError
from .instance import Instance, TriangleAudit

__all__ = [
    "ChainLayout", "end_sets", "count_layouts", "enumerate_layouts", "build_bad_cycle"
]


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


def end_sets(audit: TriangleAudit, good_count: int) -> Iterator[frozenset[int]]:
    """Yield the end sets of the canonical layouts, by size and then
    lexicographically: every set of bad vertices but the smallest alone,
    which never ends the last chain.  Sets of more than good_count are
    skipped: a layout mirroring an optimal tour needs a good vertex
    between consecutive chains."""
    bad = audit.bad
    if len(bad) < 2:
        raise ContractViolationError(f"layouts need 2 bad vertices, got {len(bad)}")
    for size in range(1, min(len(bad), good_count) + 1):
        for ends in itertools.combinations(bad, size):
            if ends != bad[:1]:
                yield frozenset(ends)


def count_layouts(audit: TriangleAudit, good_count: int) -> int:
    """How many layouts enumerate_layouts yields: (m-2)! for each choice
    of an end set and its last vertex, which is not the smallest."""
    lasts = sum(len(ends - {audit.bad[0]}) for ends in end_sets(audit, good_count))
    return lasts * math.factorial(len(audit.bad) - 2)


def enumerate_layouts(
    audit: TriangleAudit, good_count: int, ends: frozenset[int] | None = None
) -> Iterator[ChainLayout]:
    """Yield every canonical layout of audit.bad once, deterministically,
    end set by end set in `end_sets` order, or only the layouts of `ends`.
    The layouts of an end set E are the permutations that start with the
    smallest bad vertex and end in E, by last vertex and then
    lexicographically, each cut after every member of E."""
    bad = audit.bad
    for ends in end_sets(audit, good_count) if ends is None else (ends,):
        for last in sorted(ends - {bad[0]}):
            for middle in itertools.permutations(v for v in bad[1:] if v != last):
                order = (bad[0], *middle, last)
                chains, begin = [], 0
                for i, v in enumerate(order, 1):
                    if v in ends:
                        chains.append(order[begin:i])
                        begin = i
                yield ChainLayout(tuple(chains))


def build_bad_cycle(layout: ChainLayout, inst: Instance) -> list[tuple[int, int]]:
    """The b edges of the closed ring through all bad vertices, as vertex
    pairs: intra-chain edges plus a closing edge from each chain's end to
    the next chain's start (cyclically).  One bad vertex gives no edge;
    two give their pair twice."""
    verts = layout.vertices
    if min(verts) < 0 or max(verts) >= inst.n:
        raise ContractViolationError(
            f"layout vertices {verts} out of range for n={inst.n}"
        )
    if len(verts) == 1:
        return []
    # intra-chain edges and closing edges end(q_i) -> start(q_{i+1})
    # together trace the concatenated permutation cyclically
    return list(zip(verts, verts[1:] + verts[:1]))
