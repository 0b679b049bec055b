import collections
import concurrent.futures
import dataclasses
import itertools
import math
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tritsp.errors import ContractViolationError, SizeRefusalError
from tritsp.forest import RootedForest, rooted_msf
from tritsp.instance import Instance, TriangleAudit, audit_triangles, gen_metric, gen_planted
from tritsp.layouts import ChainLayout, cut_chains, end_sets, enumerate_layouts, layout_orders
from tritsp.matching import Matching, verify_matching_certificate
from tritsp.multigraph import MultiGraph
from tritsp.oracles import held_karp
from tritsp.shortcut import canonical_rotation, walk_cost
import tritsp.forest
import tritsp.instance
import tritsp.matching
import tritsp.solver
from tritsp.solver import LayoutResult, SolveOptions, christofides, evaluate_layout, solve


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


def _forest_groups(inst):
    """The ranked end sets grouped by rooted_msf(good | E, E).edges, in
    order of first rank: [(forest, [(rank, ends), ...]), ...]."""
    audit = audit_triangles(inst)
    groups = {}
    for rank, ends in enumerate(end_sets(audit, len(audit.good))):
        forest = rooted_msf(inst, audit.good_set | ends, ends)
        groups.setdefault(forest.edges, (forest, []))[1].append((rank, ends))
    return list(groups.values())


def _group_rings(inst, members):
    """How many rings a forest group evaluates: the distinct undirected
    rings among its layouts, each read from the smallest bad vertex in the
    direction of the smaller second vertex."""
    audit = audit_triangles(inst)
    return len({
        min(order, order[:1] + order[:0:-1])
        for _, ends in members
        for order in layout_orders(audit, ends)
    })


def _rings_bound(inst):
    audit = audit_triangles(inst)
    return tritsp.solver._rings_bound(audit, tritsp.solver._forest_groups(inst, audit))


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

    @staticmethod
    def _exhaustive(inst):
        """(cost, order) of the cheapest tour, ties broken on the smallest
        order from 0, by trying every order from 0."""
        return min(
            (walk_cost(inst, t), t)
            for t in ((0, *p) for p in itertools.permutations(range(1, inst.n)))
        )

    @staticmethod
    def _all_bad(rng, n):
        """A random instance of n vertices, all of them bad."""
        while True:
            rows = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    rows[i][j] = rows[j][i] = rng.choice([1, 1, 1, 30])
            inst = Instance(f"ab{n}", tuple(tuple(r) for r in rows))
            if not audit_triangles(inst).good:
                return inst

    def test_all_bad_is_exact(self):
        # the single-chain ring of the smallest optimal order from 0, with
        # the (n-1)! single-chain layouts counted, all certified
        rng = random.Random(2)
        for _ in range(12):
            inst = self._all_bad(rng, rng.randint(4, 6))
            rep = solve(inst)
            cost, order = self._exhaustive(inst)
            assert rep.regime == "all-bad"
            assert (rep.tour.order, rep.tour.cost) == (order, cost)
            assert rep.tour.layout_id == ",".join(map(str, order))
            assert rep.layouts == rep.certified == math.factorial(inst.n - 1)

    def test_all_bad_past_max_bad(self):
        # ten bad vertices exceed the default max_bad of 9, but an all-bad
        # instance needs no layouts: it is solved exactly
        inst = self._all_bad(random.Random(10), 10)
        assert audit_triangles(inst).k_t == 10 > SolveOptions().max_bad
        rep = solve(inst)
        assert rep.regime == "all-bad"
        assert (rep.tour.cost, rep.tour.order) == self._exhaustive(inst)
        assert rep.layouts == rep.certified == math.factorial(9)

    def test_all_bad_refused_past_held_karp(self):
        n = 19
        # every ring edge (i, i + 1) costs 3 against 1 + 1 through any
        # third vertex, so every vertex is bad
        rows = [[0 if i == j else 1 for j in range(n)] for i in range(n)]
        for i in range(n):
            rows[i][(i + 1) % n] = rows[(i + 1) % n][i] = 3
        inst = Instance.from_rows("ring19", rows)
        assert not audit_triangles(inst).good
        with pytest.raises(SizeRefusalError, match="up to n=18, got 19"):
            solve(inst)

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

        class SpyPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                started.append(kwargs)
                super().__init__(*args, **kwargs)

        inst = gen_planted(11, 5, seed=7)
        seq = solve(inst)
        assert seq.layouts == 384
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SpyPool)
        par = solve(inst, SolveOptions(jobs=2))
        assert started == [{"max_workers": 2}]
        assert seq.tour == par.tour
        assert seq.layouts == par.layouts
        assert seq.certified == par.certified
        # shards finish in any order; ties must still keep the serial pick
        assert seq == par and seq.best == par.best

    def test_few_layouts_run_serially(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _NoPool)
        # 48 layouts, 384 (the most a planted b = 5 instance has) and 720,
        # with 23, 180 and 606 ring evaluations
        for n, bad, seed in ((10, 4, 123), (11, 5, 7), (8, 6, 1)):
            inst = gen_planted(n, bad, seed=seed)
            seq = solve(inst)
            assert _rings_bound(inst) <= tritsp.solver._SERIAL_MAX
            assert solve(inst, SolveOptions(jobs=2)) == seq

    def test_many_layouts_start_a_pool(self, monkeypatch):
        # 3840 layouts in 26 forest groups: 1140 ring evaluations, more
        # than _SERIAL_MAX
        inst = gen_planted(12, 6, seed=2)
        seq = solve(inst)
        assert seq.layouts == 3840
        assert _rings_bound(inst) == 1140 > tritsp.solver._SERIAL_MAX
        pools = []

        def inline_pool(max_workers):
            pools.append(_InlinePool(max_workers))
            return pools[-1]

        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", inline_pool)
        par = solve(inst, SolveOptions(jobs=2))
        assert [pool.max_workers for pool in pools] == [2]
        assert par == seq and par.best == seq.best

    def test_shards_split_end_sets(self, monkeypatch):
        # the shards split the forest groups, largest first by their
        # bound on ring evaluations, each to the shard with the smaller
        # bound so far: each distinct forest's skeleton is built once over
        # all shards, the one Prim is the good-vertex MST, and the merged
        # shards report exactly what the serial solve reports
        monkeypatch.setattr(tritsp.solver, "_SERIAL_MAX", 64)
        inst = gen_planted(11, 5, seed=7)
        groups = _forest_groups(inst)
        assert len(groups) == 20
        seq = solve(inst)
        assert _rings_bound(inst) > tritsp.solver._SERIAL_MAX
        forests, prims = [], []
        real_msf = tritsp.solver.rooted_msf
        real_skeleton = tritsp.solver.assemble_skeleton

        def counting_msf(inst, vertices, roots, **kw):
            prims.append((tuple(vertices), tuple(roots)))
            return real_msf(inst, vertices, roots, **kw)

        def counting_skeleton(n, forest, matching, good):
            forests.append(forest.edges)
            return real_skeleton(n, forest, matching, good)

        pools = []

        def inline_pool(max_workers):
            pools.append(_InlinePool(max_workers))
            return pools[-1]

        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", inline_pool)
        monkeypatch.setattr(tritsp.solver, "rooted_msf", counting_msf)
        monkeypatch.setattr(tritsp.solver, "assemble_skeleton", counting_skeleton)
        par = solve(inst, SolveOptions(jobs=2))
        assert sorted(forests) == sorted(forest.edges for forest, _ in groups)
        audit = audit_triangles(inst)
        assert prims == [(audit.good, audit.good[:1])]
        # both shards returned a best, and ring evaluations that differ
        # by at most the largest group's bound
        (pool,) = pools
        assert [best is not None for best in pool.results] == [True, True]
        runs = [0, 0]
        for shard, part in enumerate(tritsp.solver._shards(audit, groups, 2)):
            runs[shard] = sum(_group_rings(inst, members) for _, members in part)
        assert abs(runs[0] - runs[1]) <= max(_group_rings(inst, m) for _, m in groups)
        assert par == seq and par.best == seq.best

    def test_workers_enumerate_only_their_end_sets(self, monkeypatch):
        # each shard receives the end sets of its own forest groups: the
        # groups dealt to it largest first by their bound on ring
        # evaluations, each to the shard with the smaller bound so far
        # (ties to the lower index), in order of first rank, each group's
        # sets by rank
        monkeypatch.setattr(tritsp.solver, "_SERIAL_MAX", 64)
        inst = gen_planted(11, 5, seed=7)
        audit = audit_triangles(inst)
        groups = _forest_groups(inst)
        ranked = [[ends for _, ends in members] for _, members in groups]
        sizes = [_group_rings(inst, members) for _, members in groups]
        dealt, load = [[], []], [0, 0]
        for i in sorted(range(len(groups)), key=lambda i: (-sizes[i], i)):
            shard = 0 if load[0] <= load[1] else 1
            load[shard] += sizes[i]
            dealt[shard].append(i)
        asked = []
        real_shard = tritsp.solver._evaluate_shard

        def spy_shard(inst, audit, groups):
            asked.append([ends for _, members in groups for _, ends in members])
            return real_shard(inst, audit, groups)

        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InlinePool)
        monkeypatch.setattr(tritsp.solver, "_evaluate_shard", spy_shard)
        rep = solve(inst, SolveOptions(jobs=2))
        assert asked == [
            list(itertools.chain(*(ranked[i] for i in sorted(ids)))) for ids in dealt
        ]
        assert all(dealt) and abs(load[0] - load[1]) < max(sizes)
        assert rep.layouts == sum(1 for _ in enumerate_layouts(audit, len(audit.good)))

    def test_shards_balance_a_lopsided_instance(self):
        # one forest group of gen_planted(20, 7, 3) holds 26880 of its
        # 46080 layouts but 360 of its ring evaluations; shards by index
        # modulo 2 ran 2256 and 1512 rings, shards by layout count 360
        # and 3408, shards by the older bound min((b-1)!/2, layouts) 1824
        # and 1944 for bounds of 2280 each
        inst = gen_planted(20, 7, seed=3)
        audit = audit_triangles(inst)
        groups = tritsp.solver._forest_groups(inst, audit)
        shards = tritsp.solver._shards(audit, groups, 2)
        bounds = [sum(_group_rings(inst, m) for _, m in shard) for shard in shards]
        runs = [0, 0]
        real_run = tritsp.solver._run_ring
        for shard, part in enumerate(shards):
            def counting(*args, shard=shard):
                runs[shard] += 1
                return real_run(*args)

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(tritsp.solver, "_run_ring", counting)
                tritsp.solver._evaluate_shard(inst, audit, part)
        assert bounds == runs == [1944, 1824]
        assert sorted(f.edges for shard in shards for f, _ in shard) == sorted(
            f.edges for f, _ in groups
        )
        # each shard keeps its groups in order of first rank
        assert all(
            [members[0][0] for _, members in shard]
            == sorted(members[0][0] for _, members in shard)
            for shard in shards
        )

    @pytest.mark.parametrize(
        "args, rings",
        [((20, 7, 2), 9144), ((20, 7, 3), 3768), ((12, 6, 1), 282), ((12, 5, 3), 168)],
    )
    def test_rings_bound_counts_the_ring_runs(self, monkeypatch, args, rings):
        # the pool gate reads the rings a serial solve runs, not a bound
        # above them (the older min((b-1)!/2, layouts) per forest group
        # read 10320, 4560, 324 and 180 here)
        inst = gen_planted(*args)
        runs = []
        real_run = tritsp.solver._run_ring

        def counting(*call):
            runs.append(1)
            return real_run(*call)

        monkeypatch.setattr(tritsp.solver, "_run_ring", counting)
        solve(inst)
        assert _rings_bound(inst) == len(runs) == rings

    def test_only_the_winner_gets_its_layout_objects(self, monkeypatch):
        # rings are evaluated on bare vertex orders: a serial solve builds
        # one ChainLayout and one LayoutResult, for its winner, and a pooled
        # solve at most one of each per shard
        built = collections.Counter()
        real_post_init = ChainLayout.__post_init__
        real_result_init = LayoutResult.__init__

        def counting_post_init(self):
            built[ChainLayout] += 1
            real_post_init(self)

        def counting_result_init(self, *args, **kwargs):
            built[LayoutResult] += 1
            real_result_init(self, *args, **kwargs)

        monkeypatch.setattr(ChainLayout, "__post_init__", counting_post_init)
        monkeypatch.setattr(LayoutResult, "__init__", counting_result_init)
        inst = gen_planted(12, 6, seed=1)
        seq = solve(inst)
        assert seq.layouts == 3840
        assert built == {ChainLayout: 1, LayoutResult: 1}
        assert seq.best.layout_id == seq.tour.layout_id
        built.clear()
        pools = []

        def inline_pool(max_workers):
            pools.append(_InlinePool(max_workers))
            return pools[-1]

        # its 6 forest groups run 282 rings: a lower _SERIAL_MAX
        # makes jobs=2 pool it
        monkeypatch.setattr(tritsp.solver, "_SERIAL_MAX", 64)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", inline_pool)
        par = solve(inst, SolveOptions(jobs=2))
        (pool,) = pools
        assert [best is not None for best in pool.results] == [True, True]
        assert built == {ChainLayout: 2, LayoutResult: 2}
        assert par == seq and par.best == seq.best

    def test_jobs_clamped_to_cpu_count(self, monkeypatch):
        inst = gen_planted(11, 5, seed=7)
        seq = solve(inst)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _NoPool)
        assert solve(inst, SolveOptions(jobs=8)) == seq

    def test_result_is_reproducible(self):
        inst = gen_planted(11, 5, seed=321)
        assert solve(inst) == solve(inst)

    def test_serial_solve_leaves_the_pool_unloaded(self):
        # only a pooled solve imports the process pool's modules: not one
        # with jobs=1, nor one with jobs=2 and at most _SERIAL_MAX rings
        code = """
import sys
from tritsp import SolveOptions, gen_planted, solve
assert solve(gen_planted(8, 6, 1)).layouts == 720
assert solve(gen_planted(11, 5, 7), SolveOptions(jobs=2)).layouts == 384
print(sorted(m for m in sys.modules if m.startswith(("concurrent", "multiprocessing"))))
"""
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        assert out.stdout == "[]\n"

    def test_no_production_path_loads_the_oracles(self):
        # tritsp.oracles holds test references only: importing the package,
        # its CLI and bench, and solving in the all-bad and chains regimes
        # (Held-Karp included) never load it
        code = """
import sys
import tritsp, tritsp.bench, tritsp.cli
from tritsp import Instance, gen_planted, held_karp, solve
rows = [[0, 1, 1, 9], [1, 0, 9, 1], [1, 9, 0, 1], [9, 1, 1, 0]]
assert solve(Instance.from_rows("allbad4", rows)).regime == "all-bad"
assert solve(gen_planted(9, 4, 2)).regime == "chains"
held_karp(gen_planted(9, 4, 2))
print("tritsp.oracles" in sys.modules)
"""
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        assert out.stdout == "False\n"


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

    def test_layout_must_chain_every_bad_vertex(self):
        # bad vertices 4-7; a caller's layout that skips 6 and 7 would give
        # a tour of 6 of the 8 vertices, so it is refused before any work
        inst = gen_planted(8, 4, seed=1)
        audit = audit_triangles(inst)
        assert audit.bad == (4, 5, 6, 7)
        for chains in (((4, 5),), ((4, 5, 6, 7, 0),), ((4, 5), (6,))):
            with pytest.raises(ContractViolationError, match="bad vertices"):
                evaluate_layout(inst, audit, ChainLayout(chains))
        res = evaluate_layout(inst, audit, ChainLayout(((4, 5), (6, 7))))
        assert sorted(res.order) == list(range(8))

    def test_fewer_than_three_bad_vertices_refused(self):
        # two bad vertices make a doubled ring edge, which a matching edge
        # can triple; every audit with a violating triangle has three
        inst = gen_planted(6, 3, seed=3)
        audit = audit_triangles(inst)
        two = TriangleAudit(audit.violating, (0, 3), (1, 2, 4, 5))
        for chains in (((0, 3),), ((0,), (3,))):
            with pytest.raises(ContractViolationError, match="at least 3 of them"):
                evaluate_layout(inst, two, ChainLayout(chains))


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


def _ring(order):
    """The undirected edges of the closed walk over order."""
    return frozenset(frozenset(e) for e in zip(order, order[1:] + order[:1]))


def _reversed_twin(lay):
    """(s, v1, ..., last) as (s, last, ..., v1), cut after the same ends."""
    s, *rest = lay.vertices
    ends = set(lay.ends)
    chains, chain = [], []
    for v in (s, *reversed(rest)):
        chain.append(v)
        if v in ends:
            chains.append(tuple(chain))
            chain = []
    return ChainLayout(tuple(chains))


class TestReversedTwins:
    """A layout whose second vertex is a chain end has a reversed twin in
    its end set's block, with the same result: the solver evaluates one of
    the two and counts both."""

    @pytest.mark.parametrize(
        "n,bad,seed", [(7, 3, 1), (9, 4, 2), (10, 5, 3), (11, 6, 4)]
    )
    def test_twins_give_one_result(self, n, bad, seed):
        inst = gen_planted(n, bad, seed=seed)
        audit = audit_triangles(inst)
        assert len(audit.bad) == bad
        good_count = len(audit.good)
        twinned = 0
        for ends in end_sets(audit, good_count):
            block = list(enumerate_layouts(audit, good_count, ends))
            for lay in block:
                if lay.vertices[1] not in ends:
                    continue
                twin = _reversed_twin(lay)
                assert twin != lay and twin in block
                assert frozenset(twin.ends) == ends
                assert _ring(twin.vertices) == _ring(lay.vertices)
                res = evaluate_layout(inst, audit, lay)
                twin_res = evaluate_layout(inst, audit, twin)
                assert res.layout_id != twin_res.layout_id
                assert dataclasses.replace(twin_res, layout_id=res.layout_id) == res
                twinned += 1
        assert twinned > 0


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
        assert monotone is True

    def test_one_skeleton_per_forest(self, monkeypatch):
        # one Prim per solve (the good-vertex MST), one skeleton per
        # distinct forest of the end sets, and one matching per distinct odd
        # set of those forests: forests that share an odd set share it
        prims, forests, matchings = [], [], []
        real_msf = tritsp.solver.rooted_msf
        real_skeleton = tritsp.solver.assemble_skeleton
        real_matching = tritsp.solver.min_cost_perfect_matching

        def counting_msf(inst, vertices, roots, **kw):
            prims.append(roots)
            return real_msf(inst, vertices, roots, **kw)

        def counting_skeleton(n, forest, matching, good):
            forests.append(forest)
            return real_skeleton(n, forest, matching, good)

        def counting_matching(inst, odd, **kw):
            matchings.append(odd)
            return real_matching(inst, odd, **kw)

        monkeypatch.setattr(tritsp.solver, "rooted_msf", counting_msf)
        monkeypatch.setattr(tritsp.solver, "assemble_skeleton", counting_skeleton)
        monkeypatch.setattr(
            tritsp.solver, "min_cost_perfect_matching", counting_matching
        )
        for n, bad, seed in self.CASES:
            inst = gen_planted(n, bad, seed=seed)
            groups = _forest_groups(inst)
            prims.clear()
            forests.clear()
            matchings.clear()
            rep = solve(inst)
            assert rep.layouts > len(groups) and len(prims) == 1
            # each group's skeleton carries the forest of its first end set
            assert forests == [forest for forest, _ in groups]
            odd_sets = set()
            for forest in forests:
                degree = collections.Counter(itertools.chain(*forest.edges))
                odd_sets.add(tuple(sorted(v for v, d in degree.items() if d % 2)))
            assert len(matchings) == len(odd_sets)
            assert set(map(tuple, matchings)) == odd_sets

    def test_one_graph_per_forest_and_one_copy_per_ring(self, monkeypatch):
        # a forest's skeleton is the only multigraph built, and each
        # evaluated ring works on one copy of it: the bad cycle is a list
        # of pairs and the Euler tour walks the copy itself.  End sets with
        # one forest share their rings' results, and a layout and its
        # reversed twin share one ring, so the copies count the distinct
        # (undirected ring, forest) pairs
        built = copies = 0
        real_init, real_copy = MultiGraph.__init__, MultiGraph.copy

        def counting_init(self, n):
            nonlocal built
            built += 1
            real_init(self, n)

        def counting_copy(self):
            nonlocal copies
            copies += 1
            return real_copy(self)

        monkeypatch.setattr(MultiGraph, "__init__", counting_init)
        monkeypatch.setattr(MultiGraph, "copy", counting_copy)
        inst = gen_planted(12, 6, seed=1)
        audit = audit_triangles(inst)
        rep = solve(inst)
        assert rep.regime == "chains"
        groups = _forest_groups(inst)
        assert built == len(groups) == 6
        rings = {
            (_ring(order), forest.edges)
            for forest, members in groups
            for _, ends in members
            for order in layout_orders(audit, ends)
        }
        assert rep.layouts == 3840
        assert copies == len(rings) == 282

    def test_ring_tables_stay_within_one_group(self, monkeypatch):
        # between two skeletons every ring run is a new undirected ring, at
        # most (b - 1)!/2 of them: one group's table is live at a time
        runs = []
        real_skeleton = tritsp.solver.assemble_skeleton
        real_run = tritsp.solver._run_ring

        def counting_skeleton(n, forest, matching, good):
            runs.append([])
            return real_skeleton(n, forest, matching, good)

        def counting_run(inst, audit, order, skeleton):
            runs[-1].append(_ring(order))
            return real_run(inst, audit, order, skeleton)

        monkeypatch.setattr(tritsp.solver, "assemble_skeleton", counting_skeleton)
        monkeypatch.setattr(tritsp.solver, "_run_ring", counting_run)
        for n, bad, seed in [(12, 6, 1), *self.CASES]:
            runs.clear()
            rep = solve(gen_planted(n, bad, seed=seed))
            assert all(len(set(group)) == len(group) for group in runs)
            assert max(map(len, runs)) <= math.factorial(bad - 1) // 2
            if (n, bad, seed) == (12, 6, 1):
                # 6 skeletons and 282 rings for 3840 layouts
                assert (len(runs), sum(map(len, runs)), rep.layouts) == (6, 282, 3840)

    @pytest.mark.parametrize("n,bad,seed", [(12, 6, 1), (10, 5, 12), (11, 5, 7)])
    def test_end_sets_of_one_forest_give_one_result(self, n, bad, seed):
        # one ring under two end sets whose forests have equal edges: the
        # whole pipeline gives one result, whatever the bare roots
        inst = gen_planted(n, bad, seed=seed)
        audit = audit_triangles(inst)
        compared = 0
        for _, members in _forest_groups(inst):
            for (_, first), (_, other) in itertools.pairwise(members):
                for order in layout_orders(audit, first):
                    if order[-1] not in other:
                        continue
                    res = evaluate_layout(inst, audit, cut_chains(order, first))
                    res2 = evaluate_layout(inst, audit, cut_chains(order, other))
                    assert dataclasses.replace(res2, layout_id=res.layout_id) == res
                    compared += 1
        assert compared > 0


class TestReportFields:
    """steps_monotone and tours_hamiltonian hold on every ring by proof
    (_run_ring), so solve checks them on the winner only: a fault there
    reaches the report, a losing ring's does not."""

    @staticmethod
    def _fault(monkeypatch, inst, fault, on_winner=True):
        # apply fault(walk, ring) to the runs of the clean winner's ring, or
        # else to every run of a costlier ring
        won = solve(inst).best
        target = (won.cycle_cost, won.forest_cost, won.matching_cost, won.step_costs)
        real = tritsp.solver._run_ring

        def faulty(*args):
            walk, ring = real(*args)
            if on_winner:
                hit = ring == target and canonical_rotation(walk) == won.order
            else:
                hit = ring[-1][-1] > won.cost
            return fault(walk, ring) if hit else (walk, ring)

        monkeypatch.setattr(tritsp.solver, "_run_ring", faulty)
        return won

    @staticmethod
    def _drop_last(walk, ring):
        # the rotation loses its last vertex, so it stays the least
        return list(canonical_rotation(walk)[:-1]), ring

    @staticmethod
    def _rise(walk, ring):
        # a first step that rises, same last step: same cost
        steps = ring[-1]
        return walk, (*ring[:-1], (steps[0] - 1, *steps))

    def test_winner_missing_a_vertex(self, monkeypatch):
        inst = gen_planted(12, 6, seed=1)
        won = self._fault(monkeypatch, inst, self._drop_last)
        rep = solve(inst)
        assert rep.tour.cost == won.cost and rep.tour.order == won.order[:-1]
        assert rep.tours_hamiltonian is False
        assert rep.steps_monotone is True

    def test_winner_trace_rising(self, monkeypatch):
        inst = gen_planted(12, 6, seed=1)
        won = self._fault(monkeypatch, inst, self._rise)
        rep = solve(inst)
        assert (rep.tour.cost, rep.tour.order) == (won.cost, won.order)
        assert rep.steps_monotone is False
        assert rep.tours_hamiltonian is True

    def test_losing_rings_not_checked(self, monkeypatch):
        inst = gen_planted(12, 6, seed=1)
        clean = solve(inst)
        self._fault(monkeypatch, inst, lambda w, r: self._rise(*self._drop_last(w, r)), False)
        rep = solve(inst)
        assert rep == clean and rep.best == clean.best
        assert rep.steps_monotone is rep.tours_hamiltonian is True


class TestSkeletonChecks:
    """The skeleton's parity and reach checks run once per distinct forest."""

    def test_checked_once_per_forest(self, monkeypatch):
        checked = []
        real = tritsp.solver.assemble_skeleton

        def counting(n, forest, matching, good):
            checked.append(forest.edges)
            return real(n, forest, matching, good)

        monkeypatch.setattr(tritsp.solver, "assemble_skeleton", counting)
        inst = gen_planted(11, 5, seed=7)
        groups = _forest_groups(inst)
        rep = solve(inst)
        assert rep.layouts > len(groups) and len(checked) == len(set(checked))
        assert sorted(checked) == sorted(forest.edges for forest, _ in groups)

    def test_odd_degree_skeleton_raises(self, monkeypatch, inst4):
        # a matching that leaves the forest's odd vertices unmatched
        monkeypatch.setattr(
            tritsp.solver,
            "min_cost_perfect_matching",
            lambda inst, odd, **kw: Matching((), 0),
        )
        audit = audit_triangles(inst4)
        with pytest.raises(ContractViolationError, match="odd degree"):
            evaluate_layout(inst4, audit, ChainLayout(((0, 2, 1),)))
        with pytest.raises(ContractViolationError, match="odd degree"):
            solve(inst4)

    def test_doubled_bad_bad_skeleton_edge_raises(self, monkeypatch):
        # a matching that pairs two bad vertices twice keeps every degree
        # even, but leaves a doubled bad-bad edge no ring put there
        inst = gen_planted(9, 4, seed=2)
        a, b = audit_triangles(inst).bad[:2]
        real = tritsp.solver.min_cost_perfect_matching

        def doubling(inst, odd, **kw):
            matching = real(inst, odd, **kw)
            pairs = matching.pairs + ((a, b), (a, b))
            return Matching(pairs, matching.cost + 2 * inst.cost[a][b])

        monkeypatch.setattr(tritsp.solver, "min_cost_perfect_matching", doubling)
        with pytest.raises(ContractViolationError, match="doubled in the skeleton"):
            solve(inst)

    def test_good_vertex_reaching_no_end_raises(self, monkeypatch):
        # a forest that drops every edge of one good vertex; the matching,
        # built on the forest's odd vertices, keeps all degrees even
        inst = gen_planted(9, 4, seed=11)
        audit = audit_triangles(inst)
        lost = audit.good[-1]

        def broken(forest):
            edges = tuple(e for e in forest.edges if lost not in e)
            return RootedForest(edges, forest.roots, forest.cost)

        with monkeypatch.context() as m:
            real_msf = tritsp.solver.rooted_msf
            m.setattr(
                tritsp.solver, "rooted_msf", lambda *args, **kw: broken(real_msf(*args, **kw))
            )
            layout = next(enumerate_layouts(audit, len(audit.good)))
            with pytest.raises(ContractViolationError, match="good vertex .* disconnected"):
                evaluate_layout(inst, audit, layout)
        # a solve takes its forests from the good-vertex MST's source
        real_source = tritsp.solver.forests_from_mst

        def broken_source(inst, mst):
            forest_of = real_source(inst, mst)
            return lambda ends: broken(forest_of(ends))

        monkeypatch.setattr(tritsp.solver, "forests_from_mst", broken_source)
        with pytest.raises(ContractViolationError, match="good vertex .* disconnected"):
            solve(inst)


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

    def test_verify_checks_the_certificate(self, monkeypatch):
        # a plain solve of a metric instance whose odd set has more than
        # EXHAUSTIVE vertices checks its matching's certificate (a scan that
        # finds no negative pair), and so does a direct christofides call
        checked = []
        scan = tritsp.matching._certificate_scan

        def spy(w, *rest):
            checked.append((len(w), scan(w, *rest)))
            return checked[-1][1]

        monkeypatch.setattr(tritsp.matching, "_certificate_scan", spy)
        inst = gen_metric(16, seed=2)
        rep = solve(inst)
        assert len(checked) == 1 and checked[0][1] == []
        assert checked[0][0] > tritsp.matching.EXHAUSTIVE
        assert christofides(inst) == rep.tour
        assert len(checked) == 2 and checked[1] == checked[0]

    @staticmethod
    def _spy_rounds(monkeypatch):
        """Lists that fill with each search round's result, each certificate
        scan's (w, (mate, y2, blossoms), returned negative pairs, numpy
        array or None) and each matching christofides gets."""
        rounds, scans, matchings = [], [], []
        search = tritsp.matching._blossom_search
        scan = tritsp.matching._certificate_scan
        match = tritsp.solver.min_cost_perfect_matching

        def search_spy(w, *rest):
            rounds.append(search(w, *rest))
            return rounds[-1]

        def scan_spy(w, mate, y2, blossoms, negative, sub=None):
            out = scan(w, mate, y2, blossoms, negative, sub)
            scans.append((w, (mate, y2, blossoms), out, sub))
            return out

        def match_spy(inst, odd, **kw):
            matchings.append(match(inst, odd, **kw))
            return matchings[-1]

        monkeypatch.setattr(tritsp.matching, "_blossom_search", search_spy)
        monkeypatch.setattr(tritsp.matching, "_certificate_scan", scan_spy)
        monkeypatch.setattr(tritsp.solver, "min_cost_perfect_matching", match_spy)
        return rounds, scans, matchings

    def test_one_certificate_scan_per_search_round(self, monkeypatch):
        # 24 odd vertices, searched on candidate lists: the certificate's
        # scan of each round's result is the round's only pair scan, and
        # it runs on the solve's numpy cost matrix, in a solve and in a
        # direct christofides call alike
        rounds, scans, _ = self._spy_rounds(monkeypatch)
        inst = gen_metric(50, seed=2)
        rep = solve(inst)
        assert christofides(inst) == rep.tour
        assert len(rounds) == len(scans) >= 2
        for result, (w, scanned, _, sub) in zip(rounds, scans):
            assert len(w) > tritsp.matching.CANDIDATES + 1
            assert sub is not None and sub.shape == (len(w), len(w))
            assert all(a is b for a, b in zip(result, scanned))

    def test_last_scan_passes_on_the_returned_matching(self, monkeypatch):
        _, scans, matchings = self._spy_rounds(monkeypatch)
        christofides(gen_metric(50, seed=2))
        w, (mate, y2, blossoms), negative, _ = scans[-1]
        assert negative == [] and len(matchings) == 1
        verify_matching_certificate(w, mate, y2, blossoms)
        assert 2 * matchings[0].cost == sum(w[u][mate[u]] for u in range(len(w)))

    def test_builds_the_skeleton_of_end_zero(self, monkeypatch):
        # the metric regime reuses the chain regime's skeleton builder:
        # every vertex is good, and the single end is vertex 0
        built = []
        real = tritsp.solver._good_skeleton

        def spy(inst, audit, ends, matchings, *rest):
            built.append((audit.good, ends, dict(matchings)))
            return real(inst, audit, ends, matchings, *rest)

        monkeypatch.setattr(tritsp.solver, "_good_skeleton", spy)
        inst = gen_metric(12, seed=4)
        tour = christofides(inst)
        assert built == [(tuple(range(12)), frozenset({0}), {})]
        assert sorted(tour.order) == list(range(12))

    def test_ratio_on_generated_metrics(self):
        for seed in range(15):
            inst = gen_metric(9, seed=seed)
            tour = christofides(inst)
            opt = held_karp(inst)
            assert sorted(tour.order) == list(range(9))
            assert 2 * tour.cost <= 3 * opt.cost


class TestOneConversion:
    """From 16 vertices on, a solve converts its cost matrix to numpy once,
    and the audit, Prim and the matching all read that one array."""

    @staticmethod
    def _recorded(monkeypatch):
        made = []
        real = tritsp.instance.int_array

        def recording(rows, largest):
            arr = real(rows, largest)
            made.append(arr.shape)
            return arr

        for module in (tritsp.instance, tritsp.forest, tritsp.matching, tritsp.solver):
            monkeypatch.setattr(module, "int_array", recording)
        return made

    @pytest.mark.parametrize(
        "inst",
        [gen_metric(16, 3), gen_metric(50, 2), gen_planted(30, 6, 1)],
        ids=["metric-16", "metric-50", "planted-30"],
    )
    def test_one_matrix_per_solve(self, monkeypatch, inst):
        made = self._recorded(monkeypatch)
        solve(inst)
        # every other conversion is a vector: Prim's vertices, scan duals
        assert [shape for shape in made if len(shape) > 1] == [(inst.n, inst.n)]

    def test_standalone_christofides_converts_once(self, monkeypatch):
        inst = gen_metric(50, 2)
        made = self._recorded(monkeypatch)
        tour = christofides(inst)
        assert [shape for shape in made if len(shape) > 1] == [(inst.n, inst.n)]
        assert tour == solve(inst).tour

    def test_small_solve_converts_nothing(self, monkeypatch):
        made = self._recorded(monkeypatch)
        for inst in (gen_metric(15, 1), gen_planted(12, 5, 1)):
            solve(inst)
        assert made == []


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


class TestCertifiedMatchings:
    """Every solve proves each matching minimum: a search that returns
    feasible duals which do not certify its matching makes solve raise.
    Odd sets of more than EXHAUSTIVE vertices are always searched."""

    @staticmethod
    def _perturbed_search(monkeypatch):
        searched = []
        search = tritsp.matching._blossom_search

        def perturbed(w, *rest):
            mate, y2, blossoms = search(w, *rest)
            searched.append(len(w))
            y2 = list(y2)
            y2[0] -= 2  # every slack stays >= 0, the matched edge's is 2
            return mate, y2, blossoms

        monkeypatch.setattr(tritsp.matching, "_blossom_search", perturbed)
        return searched

    def test_metric_solve_raises(self, monkeypatch):
        searched = self._perturbed_search(monkeypatch)
        with pytest.raises(ContractViolationError, match="matched edge"):
            solve(gen_metric(16, seed=2))
        assert searched and searched[0] > tritsp.matching.EXHAUSTIVE

    def test_candidate_path_solve_raises(self, monkeypatch):
        # 24 odd vertices: the search runs on candidate lists and the
        # lowered dual prices no pair negative, so only the certificate
        # stands between the search and the tour
        searched = self._perturbed_search(monkeypatch)
        with pytest.raises(ContractViolationError, match="matched edge"):
            solve(gen_metric(50, seed=2))
        assert searched and searched[0] >= 20 > tritsp.matching.CANDIDATES + 1

    def test_planted_solve_raises(self, monkeypatch):
        searched = self._perturbed_search(monkeypatch)
        inst = gen_planted(12, 4, seed=2)
        with pytest.raises(ContractViolationError, match="matched edge"):
            solve(inst)
        assert audit_triangles(inst).k > 0
        assert searched and searched[0] > tritsp.matching.EXHAUSTIVE


class TestExhaustiveMatchings:
    """Listing every matching of a small odd set changes no report."""

    @staticmethod
    def _tie_heavy(rng, name):
        # costs in [lo, 2 lo + 2]: metric or a few bad vertices, with many
        # matchings of equal cost
        n, lo, extra = rng.randint(5, 8), rng.randint(1, 4), rng.randint(0, 2)
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                rows[i][j] = rows[j][i] = rng.randint(lo, 2 * lo + extra)
        return Instance.from_rows(name, rows)

    def test_search_everywhere_gives_equal_reports(self, monkeypatch):
        rng = random.Random(26)
        insts = [
            gen_planted(rng.randint(6, 14), rng.randint(3, 5), rng.randrange(10**6))
            for _ in range(40)
        ] + [self._tie_heavy(rng, f"tie{k}") for k in range(40)]
        least = tritsp.matching._unique_least_pairing
        found = []

        def spy(w):
            found.append(least(w))
            return found[-1]

        monkeypatch.setattr(tritsp.matching, "_unique_least_pairing", spy)
        reports = [solve(inst) for inst in insts]
        # the listing path carried most sets, and some ties took the search
        assert sum(f is not None for f in found) > len(insts) and None in found
        monkeypatch.setattr(tritsp.matching, "EXHAUSTIVE", 0)
        for inst, rep in zip(insts, reports):
            searched = solve(inst)
            assert searched == rep and searched.best == rep.best, inst.name
