"""The ring-major shard walk against a per-layout reference walk.

`_reference_shard` walks every layout order of every end set, as the
solver once did: a layout whose reversed twin is in the same end set is
counted with it, and each undirected ring runs once per forest group.  Its
rings run through `_reference_ring`: the bad cycle as pairs added edge by
edge, the ring cost by walk_cost and the repair on every ring.  It asserts
that every ring's walk is Hamiltonian and its step trace never rises,
which the solver holds by proof and checks on the winner only.
`_evaluate_shard` must return the same best on any groups, and the
layouts the reference walk counts must equal the formula `solve` reports
them by (`_layout_count`).
"""

import concurrent.futures
import hashlib
import os

from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_layouts import fake_audit

import tritsp.solver
from tritsp.instance import Instance, audit_triangles, gen_planted
from tritsp.layouts import (
    build_bad_cycle,
    cut_chains,
    end_sets,
    enumerate_layouts,
    layout_orders,
)
from tritsp.shortcut import (
    canonical_rotation,
    euler_tour,
    repair_double_bad_edges,
    splice_bad,
    splice_good,
    walk_cost,
)
from tritsp.solver import LayoutResult, SolveOptions, solve


def _reference_ring(inst, audit, order, skeleton):
    forest, matching, union = skeleton
    h = union.copy()
    for a, b in build_bad_cycle(order, inst):
        h.add_edge(a, b)
    cycle_cost = walk_cost(inst, order)
    steps = [cycle_cost + forest.cost + matching.cost]
    repair_double_bad_edges(h, audit, inst, steps)
    walk = euler_tour(h)
    walk = splice_bad(walk, audit, inst, steps)
    walk = splice_good(walk, audit, inst, steps)
    return walk, (cycle_cost, forest.cost, matching.cost, tuple(steps))


def _reference_shard(inst, audit, groups):
    """(best, layouts) from a walk over every layout order, asserting on
    every ring what the solver proves: best is _evaluate_shard's, and
    layouts counts the layouts one by one."""
    expected = list(range(inst.n))
    best = None
    count = 0
    matchings = {}
    for forest, members in groups:
        skeleton = tritsp.solver._good_skeleton(inst, audit, members[0][1], matchings, forest)
        rings = {}
        for rank, ends in members:
            for order in layout_orders(audit, ends):
                # (s, v1, ..., last) with v1 in E has its reversed twin in
                # E's block; the one with the smaller last comes first and
                # counts for both
                twins = 1
                if order[1] in ends:
                    if order[1] < order[-1]:
                        continue
                    twins = 2
                ring_key = order if order[1] < order[-1] else order[:1] + order[:0:-1]
                entry = rings.get(ring_key)
                if entry is None:
                    walk, ring = _reference_ring(inst, audit, order, skeleton)
                    entry = rings[ring_key] = (ring[-1][-1], walk, ring)
                    steps = list(ring[-1])
                    assert sorted(walk) == expected, f"ring {order} is not Hamiltonian"
                    assert sorted(steps, reverse=True) == steps, f"ring {order} rises"
                cost, walk, ring = entry
                count += twins
                key = (cost, canonical_rotation(walk), rank)
                if best is None or key < best[0]:
                    best = (key, ends, order, ring)
    if best is not None:
        key, ends, order, ring = best
        layout = cut_chains(order, ends)
        best = (key, LayoutResult(layout.layout_id, key[1], key[0], True, *ring))
    return best, count


def _assert_walks_agree(inst):
    """The shard walk's best is the reference walk's, on all the groups and
    on each of two shards, and so is the layout count of solve and of
    `_layout_count` on each shard."""
    audit = audit_triangles(inst)
    groups = tritsp.solver._forest_groups(inst, audit)
    whole = _reference_shard(inst, audit, groups)
    assert tritsp.solver._evaluate_shard(inst, audit, groups) == whole[0]
    assert solve(inst).layouts == whole[1]
    for part in tritsp.solver._shards(audit, groups, 2):
        best, layouts = _reference_shard(inst, audit, part)
        assert tritsp.solver._evaluate_shard(inst, audit, part) == best
        assert tritsp.solver._layout_count(audit, part) == layouts
    return whole


class TestRingMajorWalk:
    def test_planted_b3_to_b7(self):
        for n, bad, seed in [(7, 3, 1), (9, 4, 2), (11, 5, 7), (10, 6, 3), (12, 7, 1)]:
            inst = gen_planted(n, bad, seed=seed)
            assert len(audit_triangles(inst).bad) == bad
            best, layouts = _assert_walks_agree(inst)
            assert best is not None and layouts > 0
            if (n, bad, seed) == (12, 7, 1):
                assert layouts == 41040

    @given(st.data())
    @settings(max_examples=150)
    def test_tie_heavy_matrices(self, data):
        # costs 1-4 leave many rings of equal cost and rotation, so the
        # (rank, last, order) tie-break decides the layout
        n = data.draw(st.integers(5, 8))
        m = n * (n - 1) // 2
        costs = iter(data.draw(st.lists(st.integers(1, 4), min_size=m, max_size=m)))
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                rows[i][j] = rows[j][i] = next(costs)
        inst = Instance.from_rows(f"tie{n}", rows)
        audit = audit_triangles(inst)
        assume(audit.k > 0 and audit.good)
        _assert_walks_agree(inst)


class TestLayoutCount:
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_formula_counts_the_enumeration(self, data):
        # any bad labels, b 3-7, any good count from 1 to b, and the ranked
        # end sets dealt over 1-3 groups, as the forest grouping splits them
        b = data.draw(st.integers(3, 7))
        audit = fake_audit(data.draw(st.sets(st.integers(0, 20), min_size=b, max_size=b)))
        g = data.draw(st.integers(1, b))
        k = data.draw(st.integers(1, 3))
        ranked = list(enumerate(end_sets(audit, g)))
        groups = [(None, ranked[i::k]) for i in range(k) if ranked[i::k]]
        count = sum(1 for _ in enumerate_layouts(audit, g))
        assert tritsp.solver._layout_count(audit, groups) == count


def _report_sha(rep):
    return hashlib.sha256((repr(rep) + repr(rep.best)).encode()).hexdigest()


class TestPinnedChains:
    # recorded from the per-layout walk, before the ring-major one
    B7_SHA = "af4788f6131733a9e9cef01862d0a7b53115e4212881ac3189870f3b3e23721c"

    def test_b7_report_serial_and_pooled(self, monkeypatch):
        inst = gen_planted(12, 7, seed=1)
        rep = solve(inst)
        assert (rep.layouts, rep.certified) == (41040, 41040)
        assert _report_sha(rep) == self.B7_SHA
        started = []

        class SpyPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                started.append(kwargs)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(tritsp.solver, "_SERIAL_MAX", 0)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SpyPool)
        pooled = solve(inst, SolveOptions(jobs=2))
        assert started == [{"max_workers": 2}]
        assert _report_sha(pooled) == self.B7_SHA


class TestRepairGate:
    def test_repair_runs_exactly_where_the_overlay_doubled(self, monkeypatch):
        # per ring: did the overlay double an edge, and did the repair run
        rings = []
        overlay = tritsp.solver.assemble_eulerian
        repair = tritsp.solver.repair_double_bad_edges

        def overlay_spy(order, skeleton, inst):
            h, cost, doubled = overlay(order, skeleton, inst)
            pairs = zip(order, order[1:] + order[:1])
            assert doubled == any(h._adj[a].count(b) > 1 for a, b in pairs)
            rings.append([doubled, False])
            return h, cost, doubled

        def repair_spy(*args):
            rings[-1][1] = True
            return repair(*args)

        monkeypatch.setattr(tritsp.solver, "assemble_eulerian", overlay_spy)
        monkeypatch.setattr(tritsp.solver, "repair_double_bad_edges", repair_spy)
        # (rings, rings whose overlay doubled an edge), as the per-layout
        # walk, which repaired every ring, found them
        for args, counts in [((12, 6, 1), (282, 0)), ((12, 6, 2), (1140, 140)),
                             ((11, 5, 7), (180, 30))]:
            rings.clear()
            solve(gen_planted(*args))
            assert all(doubled == repaired for doubled, repaired in rings)
            assert (len(rings), sum(doubled for doubled, _ in rings)) == counts
