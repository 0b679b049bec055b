import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tritsp.errors import ContractViolationError, SizeRefusalError
from tritsp.forest import RootedForest
from tritsp.instance import Instance, audit_triangles, gen_metric, gen_planted
from tritsp.layouts import ChainLayout, enumerate_layouts
from tritsp.matching import Matching
from tritsp.oracles import held_karp
from tritsp.shortcut import walk_cost
import tritsp.solver
from tritsp.solver import SolveOptions, christofides, evaluate_layout, solve


class _NoPool:
    def __init__(self, *args, **kwargs):
        raise AssertionError("no process pool expected")


class _InlinePool:
    """Runs a pooled solve's shards one after another in this process."""

    def __init__(self, max_workers):
        self.max_workers = max_workers

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        self.results = list(map(fn, *iterables))
        return self.results


class TestSolveRegimes:
    def test_inst4(self, inst4):
        rep = solve(inst4)
        assert rep.tour.order == (0, 2, 1, 3)
        assert rep.tour.cost == 13
        assert rep.tour.layout_id == "0,2,1"
        assert rep.regime == "chains"
        assert rep.layouts == 2
        assert rep.certified == 2
        assert rep.k == 1 and rep.k_t == 3

    def test_metric_square(self, sq4):
        rep = solve(sq4)
        assert rep.tour.cost == 8
        assert rep.regime == "metric"

    def test_trivial_sizes(self):
        for n in (1, 2, 3):
            rows = [[0 if i == j else 5 for j in range(n)] for i in range(n)]
            rep = solve(Instance.from_rows(f"t{n}", rows))
            assert rep.regime == "trivial"
            assert rep.tour.order == tuple(range(n))

    def test_all_bad_is_exact(self):
        rng = random.Random(2)
        found = 0
        for _ in range(60):
            n = rng.randint(4, 6)
            rows = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    rows[i][j] = rows[j][i] = rng.choice([1, 1, 1, 30])
            inst = Instance(f"ab{n}", tuple(tuple(r) for r in rows))
            audit = audit_triangles(inst)
            if audit.good or audit.k == 0:
                continue
            found += 1
            rep = solve(inst)
            assert rep.regime == "all-bad"
            assert rep.tour.cost == held_karp(inst).cost
        assert found >= 5

    def test_max_bad_refusal(self, inst4):
        with pytest.raises(SizeRefusalError):
            solve(inst4, SolveOptions(max_bad=2))

    def test_jobs_equivalence(self):
        inst = gen_planted(10, 4, seed=123)
        seq = solve(inst)
        par = solve(inst, SolveOptions(jobs=2))
        assert seq.tour == par.tour
        assert seq.layouts == par.layouts
        assert seq.certified == par.certified

    def test_jobs_equivalence_through_pool(self, monkeypatch):
        # 4! * 2^4 = 384 layouts, a tie-prone instance; a lower _SERIAL_MAX
        # makes jobs=2 pool it
        monkeypatch.setattr(tritsp.solver, "_SERIAL_MAX", 64)
        started = []

        class SpyPool(tritsp.solver.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                started.append(kwargs)
                super().__init__(*args, **kwargs)

        inst = gen_planted(11, 5, seed=7)
        seq = solve(inst)
        assert seq.layouts == 384
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(tritsp.solver, "ProcessPoolExecutor", SpyPool)
        par = solve(inst, SolveOptions(jobs=2))
        assert started == [{"max_workers": 2}]
        assert seq.tour == par.tour
        assert seq.layouts == par.layouts
        assert seq.certified == par.certified
        # shards finish in any order; ties must still keep the serial pick
        assert seq == par and seq.best == par.best

    def test_few_layouts_run_serially(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(tritsp.solver, "ProcessPoolExecutor", _NoPool)
        # 48 layouts, and 384: the most a planted b = 5 instance has
        for n, bad, seed in ((10, 4, 123), (11, 5, 7)):
            inst = gen_planted(n, bad, seed=seed)
            seq = solve(inst)
            assert seq.layouts <= tritsp.solver._SERIAL_MAX
            assert solve(inst, SolveOptions(jobs=2)) == seq

    def test_many_layouts_start_a_pool(self, monkeypatch):
        # 5! * (1 + 5) = 720 layouts: more than _SERIAL_MAX
        inst = gen_planted(8, 6, seed=1)
        seq = solve(inst)
        assert seq.layouts == 720 > tritsp.solver._SERIAL_MAX
        pools = []

        def inline_pool(max_workers):
            pools.append(_InlinePool(max_workers))
            return pools[-1]

        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(tritsp.solver, "ProcessPoolExecutor", inline_pool)
        par = solve(inst, SolveOptions(jobs=2))
        assert [pool.max_workers for pool in pools] == [2]
        assert par == seq and par.best == seq.best

    def test_shards_split_end_sets(self, monkeypatch):
        # every end set's skeleton is built once over all shards, and the
        # merged shards report exactly what the serial solve reports
        monkeypatch.setattr(tritsp.solver, "_SERIAL_MAX", 64)
        inst = gen_planted(11, 5, seed=7)
        audit = audit_triangles(inst)
        end_sets = {
            frozenset(lay.ends) for lay in enumerate_layouts(audit, len(audit.good))
        }
        seq = solve(inst)
        assert seq.layouts > tritsp.solver._SERIAL_MAX
        forests = []
        real_msf = tritsp.solver.rooted_msf

        def counting_msf(inst, vertices, roots):
            forests.append(frozenset(roots))
            return real_msf(inst, vertices, roots)

        pools = []

        def inline_pool(max_workers):
            pools.append(_InlinePool(max_workers))
            return pools[-1]

        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(tritsp.solver, "ProcessPoolExecutor", inline_pool)
        monkeypatch.setattr(tritsp.solver, "rooted_msf", counting_msf)
        par = solve(inst, SolveOptions(jobs=2))
        assert sorted(forests, key=sorted) == sorted(end_sets, key=sorted)
        # both shards got layouts to evaluate
        (pool,) = pools
        assert [layouts > 0 for _, layouts, *_ in pool.results] == [True, True]
        assert par == seq and par.best == seq.best

    def test_jobs_clamped_to_cpu_count(self, monkeypatch):
        inst = gen_planted(11, 5, seed=7)
        seq = solve(inst)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        monkeypatch.setattr(tritsp.solver, "ProcessPoolExecutor", _NoPool)
        assert solve(inst, SolveOptions(jobs=8)) == seq

    def test_result_is_reproducible(self):
        inst = gen_planted(11, 5, seed=321)
        assert solve(inst) == solve(inst)


class TestEvaluateLayout:
    def test_winning_inst4_layout(self, inst4):
        audit = audit_triangles(inst4)
        res = evaluate_layout(inst4, audit, ChainLayout(((0, 2, 1),)))
        assert res.cost == 13
        assert res.order == (0, 2, 1, 3)
        assert res.certified
        assert res.cycle_cost == 12
        assert res.forest_cost == 6
        assert res.matching_cost == 6
        assert res.step_costs[0] == 24
        assert res.steps_monotone

    def test_losing_inst4_layout(self, inst4):
        audit = audit_triangles(inst4)
        res = evaluate_layout(inst4, audit, ChainLayout(((0, 1, 2),)))
        assert res.cost == 21
        assert res.step_costs == (22, 21)

    def test_keep_graph(self, inst4):
        audit = audit_triangles(inst4)
        res, h = evaluate_layout(
            inst4, audit, ChainLayout(((0, 2, 1),)), keep_graph=True
        )
        assert res.cost == 13
        assert h.multiplicity(1, 3) == 2


def _uncached_report(inst):
    """What solve reports, from uncached evaluate_layout on every layout."""
    audit = audit_triangles(inst)
    results = [
        evaluate_layout(inst, audit, lay)
        for lay in enumerate_layouts(audit, len(audit.good))
    ]
    best = min(results, key=lambda r: (r.cost, r.order))
    certified = [r for r in results if r.certified]
    return best, len(results), len(certified), all(
        r.steps_monotone for r in certified
    )


class TestSkeletonCache:
    CASES = [(9, 4, 11), (10, 5, 12), (12, 6, 13)]

    @pytest.mark.parametrize("n,bad,seed", CASES)
    def test_matches_uncached_layouts(self, n, bad, seed):
        inst = gen_planted(n, bad, seed=seed)
        rep = solve(inst)
        best, layouts, certified, monotone = _uncached_report(inst)
        assert rep.tour.order == best.order
        assert rep.tour.cost == best.cost
        assert rep.tour.layout_id == best.layout_id
        assert rep.best == best
        assert (rep.layouts, rep.certified) == (layouts, certified)
        assert rep.steps_monotone == monotone

    @pytest.mark.parametrize("verify", [False, True])
    def test_one_skeleton_per_end_set(self, monkeypatch, verify):
        forests = []
        matchings = []
        real_msf = tritsp.solver.rooted_msf
        real_matching = tritsp.solver.min_cost_perfect_matching

        def counting_msf(inst, vertices, roots):
            forests.append(frozenset(roots))
            return real_msf(inst, vertices, roots)

        def counting_matching(inst, odd, verify=False):
            matchings.append(verify)
            return real_matching(inst, odd, verify=verify)

        monkeypatch.setattr(tritsp.solver, "rooted_msf", counting_msf)
        monkeypatch.setattr(
            tritsp.solver, "min_cost_perfect_matching", counting_matching
        )
        for n, bad, seed in self.CASES:
            inst = gen_planted(n, bad, seed=seed)
            audit = audit_triangles(inst)
            end_sets = {
                frozenset(lay.ends)
                for lay in enumerate_layouts(audit, len(audit.good))
            }
            forests.clear()
            matchings.clear()
            rep = solve(inst, SolveOptions(verify_matchings=verify))
            assert rep.layouts > len(end_sets)
            assert len(forests) == len(end_sets)
            assert set(forests) == end_sets
            assert matchings == [verify] * len(end_sets)


class TestSkeletonChecks:
    """The skeleton's parity and reach checks run once per end set."""

    def test_checked_once_per_end_set(self, monkeypatch):
        checked = []
        real = tritsp.solver.assemble_skeleton

        def counting(n, forest, matching, good):
            checked.append(frozenset(forest.roots))
            return real(n, forest, matching, good)

        monkeypatch.setattr(tritsp.solver, "assemble_skeleton", counting)
        inst = gen_planted(11, 5, seed=7)
        audit = audit_triangles(inst)
        end_sets = {
            frozenset(lay.ends) for lay in enumerate_layouts(audit, len(audit.good))
        }
        rep = solve(inst)
        assert rep.layouts > len(end_sets)
        assert sorted(checked, key=sorted) == sorted(end_sets, key=sorted)

    def test_odd_degree_skeleton_raises(self, monkeypatch, inst4):
        # a matching that leaves the forest's odd vertices unmatched
        monkeypatch.setattr(
            tritsp.solver,
            "min_cost_perfect_matching",
            lambda inst, odd, verify=False: Matching((), 0),
        )
        audit = audit_triangles(inst4)
        with pytest.raises(ContractViolationError, match="odd degree"):
            evaluate_layout(inst4, audit, ChainLayout(((0, 2, 1),)))
        with pytest.raises(ContractViolationError, match="odd degree"):
            solve(inst4)

    def test_good_vertex_reaching_no_end_raises(self, monkeypatch):
        # a forest that drops every edge of one good vertex; the matching,
        # built on the forest's odd vertices, keeps all degrees even
        inst = gen_planted(9, 4, seed=11)
        audit = audit_triangles(inst)
        lost = audit.good[-1]
        real_msf = tritsp.solver.rooted_msf

        def broken_msf(inst, vertices, roots):
            forest = real_msf(inst, vertices, roots)
            edges = tuple(e for e in forest.edges if lost not in e)
            return RootedForest(edges, forest.roots, forest.cost, forest.component_of)

        monkeypatch.setattr(tritsp.solver, "rooted_msf", broken_msf)
        layout = next(enumerate_layouts(audit, len(audit.good)))
        with pytest.raises(ContractViolationError, match="good vertex .* disconnected"):
            evaluate_layout(inst, audit, layout)


class TestChristofides:
    def test_square(self, sq4):
        tour = christofides(sq4)
        assert tour.cost == 8
        assert sorted(tour.order) == [0, 1, 2, 3]

    def test_rejects_nonmetric(self, inst4):
        with pytest.raises(ContractViolationError):
            christofides(inst4)

    def test_two_vertices(self):
        inst = Instance.from_rows("pair", [[0, 3], [3, 0]])
        tour = christofides(inst)
        assert tour.order == (0, 1) and tour.cost == 6

    def test_ratio_on_generated_metrics(self):
        for seed in range(15):
            inst = gen_metric(9, seed=seed)
            tour = christofides(inst)
            opt = held_karp(inst)
            assert sorted(tour.order) == list(range(9))
            assert 2 * tour.cost <= 3 * opt.cost


class TestGuarantee:
    @given(st.integers(0, 10**6))
    @settings(max_examples=150)
    def test_five_halves_on_arbitrary_instances(self, seed):
        rng = random.Random(seed)
        n = rng.randint(4, 7)
        hi = rng.choice([3, 10, 100])
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                rows[i][j] = rows[j][i] = rng.randint(0, hi)
        inst = Instance(f"fz{seed}", tuple(tuple(r) for r in rows))
        rep = solve(inst)
        opt = held_karp(inst)
        assert sorted(rep.tour.order) == list(range(n))
        assert walk_cost(inst, rep.tour.order) == rep.tour.cost
        assert opt.cost <= rep.tour.cost
        assert 2 * rep.tour.cost <= 5 * opt.cost

    def test_planted_sample_certified(self):
        for seed in range(8):
            inst = gen_planted(10, 4, seed=seed)
            rep = solve(inst)
            assert rep.certified == rep.layouts
            assert rep.steps_monotone
            assert rep.tours_hamiltonian
