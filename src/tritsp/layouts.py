"""Chain layouts over the bad-vertex set and the cycle they induce.

A layout is an ordered partition of the bad vertices into non-empty chains.
Its chain ends (its end set) alone fix the solver's good skeleton, so the
layouts come end set by end set (`end_sets`, `enumerate_layouts`); each
is a vertex order (`layout_orders`) cut after every end (`cut_chains`).  The
smallest bad vertex leads the first chain (rotating the chains changes
neither the induced cycle nor the end set, so each class is emitted once),
and end sets larger than the number of good vertices are pruned whole.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator

from .errors import ContractViolationError
from .instance import Instance, TriangleAudit

__all__ = [
    "ChainLayout", "end_sets", "layout_orders", "cut_chains",
    "enumerate_layouts", "build_bad_cycle",
]


@dataclass(frozen=True)
class ChainLayout:
    """Ordered chains (each a non-empty ordered tuple of bad vertices).

    `vertices` (all bad vertices in chain order, the underlying
    permutation) and `ends` are derived once, on construction; they take
    no part in equality, hashing or repr."""

    chains: tuple[tuple[int, ...], ...]
    vertices: tuple[int, ...] = field(init=False, repr=False, compare=False)
    ends: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.chains or any(not c for c in self.chains):
            raise ContractViolationError("chains must be non-empty")
        flat = tuple(itertools.chain.from_iterable(self.chains))
        if len(set(flat)) != len(flat):
            raise ContractViolationError(f"chains overlap: {self.chains}")
        object.__setattr__(self, "vertices", flat)
        object.__setattr__(self, "ends", tuple(c[-1] for c in self.chains))

    @property
    def layout_id(self) -> str:
        return "|".join(",".join(map(str, c)) for c in self.chains)


def end_sets(audit: TriangleAudit, good_count: int) -> Iterator[frozenset[int]]:
    """Yield the end sets of the canonical layouts of audit.bad (at least 3
    vertices), by size and then lexicographically: every set of bad vertices
    but the smallest alone, which never ends the last chain.  Sets of more
    than good_count are skipped: a layout mirroring an optimal tour needs a
    good vertex between consecutive chains."""
    bad = audit.bad
    if len(bad) < 3:
        raise ContractViolationError(f"layouts need 3 bad vertices, got {len(bad)}")
    for size in range(1, min(len(bad), good_count) + 1):
        for ends in itertools.combinations(bad, size):
            if ends != bad[:1]:
                yield frozenset(ends)


def layout_orders(
    audit: TriangleAudit, ends: frozenset[int]
) -> Iterator[tuple[int, ...]]:
    """The vertex orders of end set `ends`'s layouts: the permutations of
    audit.bad that start with the smallest bad vertex and end in `ends`, by
    last vertex and then lexicographically."""
    bad = audit.bad
    for last in sorted(ends - {bad[0]}):
        for middle in itertools.permutations(v for v in bad[1:] if v != last):
            yield (bad[0], *middle, last)


def cut_chains(order: tuple[int, ...], ends: frozenset[int]) -> ChainLayout:
    """The layout of `order` cut after every member of `ends`."""
    chains, begin = [], 0
    for i, v in enumerate(order, 1):
        if v in ends:
            chains.append(order[begin:i])
            begin = i
    return ChainLayout(tuple(chains))


def enumerate_layouts(
    audit: TriangleAudit, good_count: int, ends: frozenset[int] | None = None
) -> Iterator[ChainLayout]:
    """Yield every canonical layout of audit.bad once, deterministically,
    end set by end set in `end_sets` order, or only the layouts of `ends`:
    each order of `layout_orders`, cut after every member of its end set."""
    for ends in end_sets(audit, good_count) if ends is None else (ends,):
        for order in layout_orders(audit, ends):
            yield cut_chains(order, ends)


def build_bad_cycle(order: tuple[int, ...], inst: Instance) -> list[tuple[int, int]]:
    """The b edges of the closed ring through all bad vertices in `order`
    (a layout's vertices), as vertex pairs: each chain's own edges plus a
    closing edge from each chain's end to the next chain's start
    (cyclically).  One bad vertex gives no edge; two give their pair
    twice."""
    if min(order) < 0 or max(order) >= inst.n:
        raise ContractViolationError(
            f"layout vertices {order} out of range for n={inst.n}"
        )
    if len(order) == 1:
        return []
    return list(zip(order, order[1:] + order[:1]))
