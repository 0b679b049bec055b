"""The layout space by its definition: every ordered partition of the bad
vertices into at most |good| chains, each run through evaluate_layout.

The reference below builds that space from permutations and cut points
alone, with none of the solver's enumeration (end_sets, layout_orders,
enumerate_layouts), so it checks that enumeration from outside.  The
solver searches part of the space, so its tour costs at least the
reference's minimum.  Today it misses the layouts in which the smallest
bad vertex sits inside a chain (ROADMAP item 1), and the two pinned
instances show the cost of that: the fix inverts their pin."""

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tritsp.instance import Instance, audit_triangles, gen_planted, load_instance
from tritsp.layouts import ChainLayout
from tritsp.oracles import held_karp
from tritsp.solver import evaluate_layout, solve


def all_layouts(bad, most):
    """Every ordered partition of `bad` into 1..`most` non-empty chains:
    each permutation cut at each set of cut points."""
    b = len(bad)
    for order in itertools.permutations(bad):
        for chains in range(1, min(b, most) + 1):
            for cuts in itertools.combinations(range(1, b), chains - 1):
                bounds = (0, *cuts, b)
                yield ChainLayout(tuple(order[i:j] for i, j in zip(bounds, bounds[1:])))


def reference_cost(inst):
    """The least tour cost of evaluate_layout over all_layouts."""
    audit = audit_triangles(inst)
    layouts = all_layouts(audit.bad, len(audit.good))
    return min(evaluate_layout(inst, audit, layout).cost for layout in layouts)


def test_all_layouts_counts_ordered_partitions():
    # b! orders times C(b - 1, c - 1) cut sets for c chains, none repeated
    for b, most in ((3, 3), (4, 2), (5, 1), (5, 5)):
        got = list(all_layouts(tuple(range(b)), most))
        expect = sum(math.factorial(b) * math.comb(b - 1, c - 1) for c in range(1, most + 1))
        assert len(got) == len(set(got)) == expect


@pytest.mark.parametrize("bad", [3, 4, 5])
def test_solve_is_no_cheaper_on_planted(bad):
    for seed in range(8):
        inst = gen_planted(bad + 2 + seed % 3, bad, seed)
        assert len(audit_triangles(inst).bad) == bad
        ref = reference_cost(inst)
        assert held_karp(inst).cost <= ref <= solve(inst).tour.cost, seed


@given(st.integers(0, 10**6))
@settings(max_examples=150)
def test_solve_is_no_cheaper_on_arbitrary_instances(seed):
    # matrices drawn as in test_solver.TestGuarantee
    rng = random.Random(seed)
    n = rng.randint(4, 7)
    hi = rng.choice([3, 10, 100])
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = rng.randint(0, hi)
    inst = Instance(f"fz{seed}", tuple(tuple(r) for r in rows))
    audit = audit_triangles(inst)
    if not audit.bad or not audit.good:  # no layouts: metric, or every vertex bad
        return
    ref = reference_cost(inst)
    assert held_karp(inst).cost <= ref <= solve(inst).tour.cost


@pytest.mark.parametrize(
    "name, solved, optimum",
    [("defect7", 143308, 92453), ("defect8", 206014, 113823)],
)
def test_known_defect_is_pinned(data_dir, name, solved, optimum):
    # a known defect, pinned as it stands: OPT's layout puts the smallest
    # bad vertex inside a chain, which the solver never evaluates, so its
    # tour costs more than the reference's, which is the optimum
    inst = load_instance(f"{data_dir}/{name}.json")
    assert solve(inst).tour.cost == solved
    assert reference_cost(inst) == held_karp(inst).cost == optimum
