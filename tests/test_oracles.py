import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tritsp.errors import ContractViolationError, SizeRefusalError
from tritsp.instance import Instance, audit_triangles, gen_planted
from tritsp.layouts import ChainLayout
from tritsp.oracles import (
    brute_msf_cost,
    extract_layout,
    held_karp,
    oracle_bounds,
)
from tritsp.shortcut import walk_cost
from tritsp.solver import solve

# 5-vertex instance where the matching-cost bound genuinely fails on the
# layout extracted from the unique optimal tour, while the end-to-end
# guarantee still holds (the solver even lands on the optimum)
ADV5 = Instance(
    "adv5",
    (
        (0, 10, 10, 30, 30),
        (10, 0, 59, 30, 40),
        (10, 59, 0, 40, 30),
        (30, 30, 40, 0, 35),
        (30, 40, 30, 35, 0),
    ),
)


class TestHeldKarp:
    def test_inst4(self, inst4):
        tour = held_karp(inst4)
        assert tour.order == (0, 2, 1, 3)
        assert tour.cost == 13

    def test_single_vertex(self):
        inst = Instance("one", ((0,),))
        assert held_karp(inst).order == (0,)
        assert held_karp(inst).cost == 0

    def test_two_vertices(self):
        inst = Instance.from_rows("two", [[0, 7], [7, 0]])
        tour = held_karp(inst)
        assert tour.order == (0, 1)
        assert tour.cost == 14

    def test_refuses_large(self):
        n = 19
        rows = [[0 if i == j else 1 for j in range(n)] for i in range(n)]
        with pytest.raises(SizeRefusalError):
            held_karp(Instance.from_rows("big", rows))

    def test_canonical_direction(self, inst4):
        # of the two traversals of the optimal cycle rooted at 0, the
        # lexicographically smaller one is returned
        tour = held_karp(inst4)
        assert tour.order <= (0,) + tour.order[1:][::-1]

    @given(st.integers(0, 10000))
    @settings(max_examples=60)
    def test_matches_exhaustive_search(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 7)
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                rows[i][j] = rows[j][i] = rng.randint(0, 50)
        inst = Instance(f"hk{seed}", tuple(tuple(r) for r in rows))
        tour = held_karp(inst)
        best = min(
            walk_cost(inst, (0,) + p)
            for p in itertools.permutations(range(1, n))
        )
        assert tour.cost == best
        assert walk_cost(inst, tour.order) == tour.cost
        assert sorted(tour.order) == list(range(n))

    @pytest.mark.parametrize("big", [2**59, 2**60, 2**62, 2**63, 2**70])
    def test_matches_exhaustive_search_at_large_costs(self, big):
        # path sums reach past 2**62 and 2**63: the DP's sentinel and dtype
        # follow the costs, so the tour stays exact
        rng = random.Random(big.bit_length())
        for n in range(4, 9):
            rows = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    rows[i][j] = rows[j][i] = big + rng.randint(-3, 3)
            inst = Instance.from_rows(f"hk{n}", rows)
            tour = held_karp(inst)
            best = min(
                walk_cost(inst, (0,) + p)
                for p in itertools.permutations(range(1, n))
            )
            assert tour.cost == best
            assert walk_cost(inst, tour.order) == tour.cost
            assert sorted(tour.order) == list(range(n))
            assert type(tour.cost) is int


class TestExtractLayout:
    def test_single_run(self, inst4):
        audit = audit_triangles(inst4)
        lay = extract_layout((0, 2, 1, 3), audit)
        assert lay.chains == ((0, 2, 1),)

    def test_two_runs(self, inst4):
        audit = audit_triangles(inst4)
        lay = extract_layout((0, 3, 1, 2), audit)
        assert lay.chains == ((0,), (1, 2))

    def test_wrapped_run_splits_at_smallest_bad(self, inst4):
        audit = audit_triangles(inst4)
        # cyclic order 2,0,1,3: the bad run 2-0-1 wraps past vertex 0
        lay = extract_layout((2, 0, 1, 3), audit)
        assert lay.chains == ((0, 1), (2,))

    def test_rotation_invariance_of_input(self, inst4):
        audit = audit_triangles(inst4)
        a = extract_layout((0, 2, 1, 3), audit)
        b = extract_layout((1, 3, 0, 2), audit)
        assert a.chains == b.chains

    def test_requires_good_vertex(self):
        from tritsp.instance import TriangleAudit

        all_bad_audit = TriangleAudit(((0, 1, 2),), (0, 1, 2), ())
        with pytest.raises(ContractViolationError):
            extract_layout((0, 1, 2), all_bad_audit)


class TestBruteMsf:
    def test_single_root_line(self):
        rows = [[0, 1, 9], [1, 0, 1], [9, 1, 0]]
        inst = Instance.from_rows("line", rows)
        assert brute_msf_cost(inst, range(3), {0}) == 2

    def test_contracted_roots(self):
        rows = [[0, 5, 2], [5, 0, 7], [2, 7, 0]]
        inst = Instance.from_rows("two-roots", rows)
        # vertex 2 attaches to the cheaper of the two roots
        assert brute_msf_cost(inst, range(3), {0, 1}) == 2

    def test_refuses_large(self):
        n = 12
        rows = [[0 if i == j else 1 for j in range(n)] for i in range(n)]
        inst = Instance.from_rows("wide", rows)
        with pytest.raises(SizeRefusalError):
            brute_msf_cost(inst, range(n), {0})


class TestOracleBounds:
    def test_inst4_all_pass(self, inst4):
        report = oracle_bounds(inst4)
        assert report.passed
        assert report.opt_cost == 13
        names = [c.name for c in report.checks]
        assert names == [
            "cycle_le_opt",
            "forest_le_opt",
            "twice_matching_le_opt",
            "bad_adjacency",
            "tour_within_5_halves_opt",
        ]

    def test_rejects_metric_instance(self, sq4):
        with pytest.raises(ContractViolationError):
            oracle_bounds(sq4)

    def test_planted_sample(self):
        for seed in range(10):
            inst = gen_planted(9, 3, seed=seed)
            report = oracle_bounds(inst)
            assert report.passed, (seed, report.failures())
            assert report.certified

    def test_matching_bound_can_fail_on_extracted_layout(self):
        # the unique optimum is 0-2-4-3-1, whose bad run wraps around
        # vertex 0; the induced layout in either direction forces chain
        # ends whose matching costs more than OPT/2
        opt = held_karp(ADV5)
        assert opt.cost == 115
        report = oracle_bounds(ADV5, opt)
        failed = {c.name for c in report.failures()}
        assert failed == {"twice_matching_le_opt"}
        twice = next(c for c in report.checks if c.name == "twice_matching_le_opt")
        assert twice.lhs == 120 and twice.rhs == 115
        # the guarantee itself is untouched: the solver minimizes over all
        # layouts and here reaches the optimum exactly
        rep = solve(ADV5)
        assert rep.tour.cost == 115
        end_to_end = next(
            c for c in report.checks if c.name == "tour_within_5_halves_opt"
        )
        assert end_to_end.passed
