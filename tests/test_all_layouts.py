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

import pytest
from conftest import scattered_instance

from tritsp.instance import audit_triangles, gen_planted, load_instance
from tritsp.oracles import held_karp
from tritsp.solver import ChainLayout, evaluate_layout, solve


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


def test_solve_is_no_cheaper_on_arbitrary_instances():
    # matrices drawn as in test_solver.TestGuarantee; the reference runs
    # where the layout space is small (b <= 4)
    chains = 0
    for seed in range(300):
        inst = scattered_instance(seed)
        audit = audit_triangles(inst)
        if not audit.bad or not audit.good:  # no layouts: metric, or every vertex bad
            continue
        chains += 1
        if len(audit.bad) <= 4:
            ref = reference_cost(inst)
            assert held_karp(inst).cost <= ref <= solve(inst).tour.cost, seed
    assert chains >= 0.85 * 300


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
