import random
from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from conftest import degree, multiplicity

from tritsp.errors import ContractViolationError
from tritsp.forest import RootedForest, rooted_msf
from tritsp.instance import Instance, TriangleAudit, audit_triangles, gen_planted
from tritsp.matching import Matching, min_cost_perfect_matching
from tritsp.shortcut import (
    MultiGraph,
    assemble_eulerian,
    assemble_skeleton,
    canonical_rotation,
    euler_tour,
    graph_cost,
    repair_double_bad_edges,
    splice_bad,
    splice_good,
    walk_cost,
)
from tritsp.solver import ChainLayout, _good_skeleton, build_bad_cycle, enumerate_layouts


def inst4_h(inst4, chains):
    """Combined multigraph for an INST4 layout."""
    audit = audit_triangles(inst4)
    lay = ChainLayout(chains)
    cyc = build_bad_cycle(lay.vertices, inst4)
    forest = rooted_msf(inst4, set(audit.good) | set(lay.ends), set(lay.ends))
    g1 = MultiGraph(4)
    for a, b in cyc + list(forest.edges):
        g1.add_edge(a, b)
    odd = [v for v in range(4) if degree(g1, v) % 2]
    matching = min_cost_perfect_matching(inst4, odd)
    skeleton = assemble_skeleton(4, forest, matching, audit.good)
    h, cycle_cost, _ = assemble_eulerian(lay.vertices, skeleton, inst4)
    assert cycle_cost == sum(inst4.cost[a][b] for a, b in cyc)
    return h, audit


class TestCostHelpers:
    def test_walk_cost_wraps(self, inst4):
        assert walk_cost(inst4, [0, 2, 1, 3]) == 1 + 1 + 6 + 5

    def test_canonical_rotation(self):
        assert canonical_rotation((2, 3, 0, 1)) == (0, 1, 2, 3)
        assert canonical_rotation((0, 2, 1)) == (0, 2, 1)


class TestAssemble:
    def test_assembles_inst4(self, inst4):
        h, _ = inst4_h(inst4, ((0, 1, 2),))
        assert graph_cost(inst4, h) == 22
        assert multiplicity(h, 2, 3) == 2

    def test_skeleton_is_forest_plus_matching(self, inst4):
        forest = rooted_msf(inst4, (2, 3), (2,))
        h = assemble_skeleton(4, forest, Matching(((2, 3),), 5), (3,))
        assert h.edges() == [(2, 3, 2)]
        # vertices 0 and 1 stay isolated until a bad cycle is overlaid
        assert degree(h, 0) == degree(h, 1) == 0

    def test_parity_violation_raises(self, inst4):
        # a matching that misses the forest's odd vertices 1 and 3
        forest = RootedForest(edges=((1, 2), (2, 3)), roots=(1,), cost=6)
        with pytest.raises(ContractViolationError, match="odd degree"):
            assemble_skeleton(4, forest, Matching((), 0), (2, 3))

    def test_isolated_vertex_raises(self, inst4):
        # vertex 3 has no edge at all, so it reaches no root
        forest = RootedForest(((0, 2),), (0,), 1)
        with pytest.raises(ContractViolationError, match="good vertex 3 disconnected"):
            assemble_skeleton(4, forest, Matching(((0, 2),), 1), (2, 3))

    def test_rootless_component_raises(self, inst4):
        # even everywhere, but the component {2, 3} holds no root
        forest = RootedForest(((0, 1), (2, 3)), (0,), 15)
        matching = Matching(((0, 1), (2, 3)), 15)
        with pytest.raises(ContractViolationError, match="good vertex 2 disconnected"):
            assemble_skeleton(4, forest, matching, (1, 2, 3))

    def test_doubled_bad_bad_edge_raises(self, inst4):
        # bad vertices 0 and 1 matched twice: even, connected, but doubled
        forest = RootedForest(((1, 3), (2, 3)), (1, 2), 11)
        matching = Matching(((0, 1), (0, 1)), 20)
        with pytest.raises(ContractViolationError, match="edge at 0 is doubled"):
            assemble_skeleton(4, forest, matching, (3,))
        # a doubled edge with a good end is allowed
        h = assemble_skeleton(4, RootedForest(((2, 3),), (2,), 5), Matching(((2, 3),), 5), (3,))
        assert multiplicity(h, 2, 3) == 2

    def test_overlay_of_one_and_two_vertices(self, inst4):
        # a ring needs 3 vertices, as every layout of a violating triangle has
        skeleton = MultiGraph(4)
        for order in ((2,), (0, 1)):
            with pytest.raises(ContractViolationError, match="too short"):
                assemble_eulerian(order, skeleton, inst4)
        assert skeleton.edges() == []

    def test_overlay_doubles_a_skeleton_edge(self, inst4):
        skeleton = MultiGraph(4)
        skeleton.add_edge(0, 1)
        skeleton.add_edge(0, 3)
        skeleton.add_edge(1, 3)
        h, cost, doubled = assemble_eulerian((0, 1, 2), skeleton, inst4)
        assert (multiplicity(h, 0, 1), cost, doubled) == (2, 12, True)

    def test_overlay_rejects_out_of_range_vertices(self, inst4):
        with pytest.raises(ContractViolationError, match="out of range"):
            assemble_eulerian((0, 4), MultiGraph(4), inst4)

    def test_overlay_leaves_skeleton_unchanged(self, inst4):
        skeleton = MultiGraph(4)
        skeleton.add_edge(2, 3)
        skeleton.add_edge(2, 3)
        h, cycle_cost, doubled = assemble_eulerian((0, 1, 2), skeleton, inst4)
        assert h.edges() == [(0, 1, 1), (0, 2, 1), (1, 2, 1), (2, 3, 2)]
        assert sum(degree(h, v) for v in range(4)) == 2 * 5
        assert (cycle_cost, doubled) == (12, False)
        assert skeleton.edges() == [(2, 3, 2)]


class TestRepair:
    def test_reroutes_through_good_neighbor(self, inst4):
        h, audit = inst4_h(inst4, ((0, 1, 2),))
        # (2,3) is doubled but 2-3 is bad-good, so nothing to repair
        assert repair_double_bad_edges(h, audit, inst4) is None
        assert multiplicity(h, 2, 3) == 2

    def test_doubled_bad_bad_edge(self):
        # ring 0-2-1-3 plus a doubled bad-bad edge (0,1); vertex 2 is the
        # smallest good neighbor of 0, so one copy reroutes to (2,1)
        rows = [[0, 8, 2, 3], [8, 0, 2, 3], [2, 2, 0, 3], [3, 3, 3, 0]]
        inst = Instance.from_rows("dbl", rows)
        h = MultiGraph(4)
        for a, b in ((0, 1), (0, 1), (0, 2), (2, 1), (1, 3), (3, 0)):
            h.add_edge(a, b)
        audit = TriangleAudit(((0, 1, 2),), (0, 1), (2, 3))
        before = graph_cost(inst, h)
        trace = [before]
        assert repair_double_bad_edges(h, audit, inst, trace) is None
        assert multiplicity(h, 0, 1) == 1
        assert multiplicity(h, 1, 2) == 2  # rerouted copy
        assert multiplicity(h, 0, 2) == 0
        assert trace[-1] == graph_cost(inst, h) <= before
        assert all(degree(h, v) % 2 == 0 for v in range(4))

    def test_doubled_pairs_repaired_in_edge_order(self):
        # (0, 1) is rerouted through 4 before (2, 3) through 5, as h.edges()
        # lists them; the trace shows the order
        rows = [[0 if i == j else (i + 1) * (j + 1) for j in range(6)] for i in range(6)]
        inst = Instance.from_rows("two", rows)
        h = MultiGraph(6)
        for a, b in ((2, 3), (2, 3), (2, 5), (0, 1), (0, 1), (0, 4)):
            h.add_edge(a, b)
        audit = TriangleAudit((), (0, 1, 2, 3), (4, 5))
        trace = [graph_cost(inst, h)]
        assert repair_double_bad_edges(h, audit, inst, trace) is None
        assert trace == [trace[0], trace[0] + 10 - 2 - 5, trace[0] + 3 + 24 - 12 - 18]
        assert h.edges() == [(0, 1, 1), (1, 4, 1), (2, 3, 1), (3, 5, 1)]

    def test_no_good_neighbor_raises(self):
        rows = [[0, 5, 5], [5, 0, 5], [5, 5, 0]]
        inst = Instance.from_rows("stuck", rows)
        h = MultiGraph(3)
        h.add_edge(0, 1)
        h.add_edge(0, 1)
        audit = TriangleAudit(((0, 1, 2),), (0, 1, 2), ())
        with pytest.raises(ContractViolationError, match="0 has no good neighbor"):
            repair_double_bad_edges(h, audit, inst)
        assert multiplicity(h, 0, 1) == 2  # left in place
        # a good neighbor of v alone does not help: no chains-regime graph
        # doubles (u, v) with u bare of good neighbors
        h.add_edge(1, 2)
        h.add_edge(1, 2)
        audit = TriangleAudit(((0, 1, 2),), (0, 1), (2,))
        with pytest.raises(ContractViolationError, match="0 has no good neighbor"):
            repair_double_bad_edges(h, audit, inst)

    def test_tripled_pair_raises(self):
        # rerouting one copy of a tripled pair would leave it doubled, so
        # multiplicity 3 breaks the precondition and nothing is changed
        rows = [[0, 8, 2, 3], [8, 0, 2, 3], [2, 2, 0, 3], [3, 3, 3, 0]]
        inst = Instance.from_rows("tri", rows)
        h = MultiGraph(4)
        for a, b in ((0, 1), (0, 1), (0, 1), (0, 2), (2, 1)):
            h.add_edge(a, b)
        audit = TriangleAudit(((0, 1, 2),), (0, 1), (2, 3))
        with pytest.raises(ContractViolationError, match=r"\(0, 1\) is not doubled exactly"):
            repair_double_bad_edges(h, audit, inst)
        assert h.edges() == [(0, 1, 3), (0, 2, 1), (1, 2, 1)]


def _dict_euler_tour(edges, n):
    """The walk on multiplicity dicts, as MultiGraph once stored its
    adjacency: from the smallest vertex with an edge, always to the
    smallest neighbor.  The reference euler_tour must reproduce."""
    adj = [{} for _ in range(n)]
    for u, v, m in edges:
        adj[u][v] = adj[v][u] = m
    stack = [next(v for v in range(n) if adj[v])]
    out = []
    while stack:
        v = stack[-1]
        nv = adj[v]
        while nv:
            u = min(nv)
            m = nv[u]
            if m == 1:
                del nv[u]
                del adj[u][v]
            else:
                nv[u] = adj[u][v] = m - 1
            stack.append(u)
            v = u
            nv = adj[u]
        out.append(stack.pop())
    return out[:-1]


@st.composite
def _eulerian_multigraphs(draw):
    """A union of random closed walks through vertex 0 on at most 10
    vertices: connected over its edges, every degree even, and doubled
    edges wherever a walk goes back or two walks share an edge."""
    n = draw(st.integers(2, 10))
    vertex = st.integers(0, n - 1)
    walks = draw(st.lists(st.lists(vertex, min_size=1, max_size=8), min_size=1, max_size=4))
    h = MultiGraph(n)
    for walk in walks:
        ring = [0] + walk
        for a, b in zip(ring, ring[1:] + ring[:1]):
            if a != b:
                h.add_edge(a, b)
    assume(any(degree(h, v) for v in range(n)))
    return h


class TestEulerTour:
    @given(_eulerian_multigraphs())
    @settings(max_examples=300)
    def test_walk_matches_the_dict_reference(self, h):
        expected = _dict_euler_tour(h.edges(), h.n)
        assert euler_tour(h) == expected
        assert sum(degree(h, v) for v in range(h.n)) == 0

    def test_inst4_single_chain_walk(self, inst4):
        h, _ = inst4_h(inst4, ((0, 1, 2),))
        assert euler_tour(h) == [0, 2, 3, 2, 1]

    def test_inst4_other_chain_walk(self, inst4):
        h, _ = inst4_h(inst4, ((0, 2, 1),))
        assert euler_tour(h) == [0, 2, 1, 3, 1]

    def test_rejects_odd_degree(self):
        h = MultiGraph(3)
        h.add_edge(0, 1)
        with pytest.raises(ContractViolationError):
            euler_tour(h)

    def test_rejects_odd_degree_behind_a_closed_trail(self):
        # triangle 0-1-2 plus a pendant edge 1-3: the first trail closes at
        # 0 and uses every edge but (1, 3), which then ends at vertex 3
        h = MultiGraph(4)
        for a, b in ((0, 1), (1, 2), (2, 0), (1, 3)):
            h.add_edge(a, b)
        with pytest.raises(ContractViolationError, match="vertex 3 has odd degree"):
            euler_tour(h)

    def test_rejects_disconnected_edges(self):
        h = MultiGraph(4)
        for a, b in ((0, 1), (0, 1), (2, 3), (2, 3)):
            h.add_edge(a, b)
        with pytest.raises(ContractViolationError, match="not connected"):
            euler_tour(h)

    def test_rejects_disjoint_triangles(self):
        # every degree is even, but the walk from 0 never reaches 3-4-5,
        # whose edges are left in the graph
        h = MultiGraph(6)
        for a, b in ((0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)):
            h.add_edge(a, b)
        with pytest.raises(ContractViolationError, match="not connected"):
            euler_tour(h)
        assert h.edges() == [(3, 4, 1), (3, 5, 1), (4, 5, 1)]

    def test_rejects_triangle_plus_doubled_edge(self):
        h = MultiGraph(6)
        for a, b in ((1, 2), (2, 3), (3, 1), (4, 5), (4, 5)):
            h.add_edge(a, b)
        with pytest.raises(ContractViolationError, match="not connected"):
            euler_tour(h)
        assert h.edges() == [(4, 5, 2)]
        assert sum(degree(h, v) for v in range(6)) == 2 * 2

    def test_uses_every_edge_once(self):
        rng = random.Random(4)
        exercised = 0
        for _ in range(40):
            n = rng.randint(2, 8)
            h = MultiGraph(n)
            # random connected even multigraph: overlay a few closed rings
            for _ in range(rng.randint(1, 3)):
                ring = list(range(n))
                rng.shuffle(ring)
                cut = rng.randint(2, n) if n > 2 else 2
                ring = ring[:cut]
                for i in range(len(ring)):
                    a, b = ring[i], ring[(i + 1) % len(ring)]
                    if a != b:
                        h.add_edge(a, b)
            if not all(degree(h, v) > 0 for v in range(n)):
                continue
            reach = {0}
            frontier = [0]
            while frontier:
                x = frontier.pop()
                for y in h._adj[x]:
                    if y not in reach:
                        reach.add(y)
                        frontier.append(y)
            if len(reach) != n:
                continue
            edges = h.edges()
            walk = euler_tour(h)
            assert sum(degree(h, v) for v in range(n)) == 0
            exercised += 1
            used = Counter()
            for i in range(len(walk)):
                a, b = walk[i], walk[(i + 1) % len(walk)]
                used[(min(a, b), max(a, b))] += 1
            assert used == Counter({(u, v): m for u, v, m in edges})
        assert exercised >= 10


def _random_matrix(rng, n, hi, low=1):
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = rng.randint(low, hi)
    return Instance.from_rows(f"r{n}", rows)


def _repaired_tour(inst, audit, layout):
    """The Euler tour of the layout's ring over its skeleton, repaired."""
    _, _, skeleton = _good_skeleton(inst, audit, frozenset(layout.ends), {})
    h, _, _ = assemble_eulerian(layout.vertices, skeleton, inst)
    repair_double_bad_edges(h, audit, inst)
    return euler_tour(h)


def _assert_bad_unique(out, walk, audit):
    bad_counts = Counter(v for v in out if v in audit.bad_set)
    assert all(c == 1 for c in bad_counts.values())
    assert set(out) == set(walk)


class TestSpliceBad:
    def test_inst4_most_negative_delta(self, inst4):
        audit = audit_triangles(inst4)
        walk = splice_bad([0, 2, 1, 3, 1], audit, inst4)
        assert walk == [0, 2, 1, 3]

    def test_inst4_single_chain(self, inst4):
        audit = audit_triangles(inst4)
        trace = [walk_cost(inst4, [0, 2, 3, 2, 1])]
        walk = splice_bad([0, 2, 3, 2, 1], audit, inst4, trace)
        assert walk == [0, 3, 2, 1]
        assert trace == [22, 21]

    def test_position_tie_break(self):
        # every delta ties at -4, so the earliest safe occurrence goes first
        rows = [[0, 4, 4, 4], [4, 0, 4, 4], [4, 4, 0, 4], [4, 4, 4, 0]]
        inst = Instance.from_rows("tie", rows)
        audit = TriangleAudit(((0, 1, 2),), (0, 1, 2), (3,))
        walk = splice_bad([0, 1, 0, 2, 3, 2], audit, inst)
        assert walk == [0, 1, 3, 2]

    def test_adjacent_duplicate_is_free(self, inst4):
        audit = audit_triangles(inst4)
        walk = splice_bad([0, 0, 2, 1, 3], audit, inst4)
        assert walk == [0, 2, 1, 3]

    def test_no_bad_repeats_is_noop(self, inst4):
        audit = audit_triangles(inst4)
        walk = splice_bad([0, 2, 1, 3], audit, inst4)
        assert walk == [0, 2, 1, 3]

    def test_no_safe_occurrence_raises(self):
        # 0 is repeated, and each of its occurrences sits between two
        # other bad vertices: no good, equal or duplicate neighbor
        rows = [[0 if i == j else 5 for j in range(5)] for i in range(5)]
        inst = Instance.from_rows("unsafe", rows)
        audit = TriangleAudit(((0, 1, 2),), (0, 1, 2, 3), (4,))
        with pytest.raises(ContractViolationError, match=r"bad vertices \[0\]"):
            splice_bad([0, 1, 0, 2, 4, 3], audit, inst)

    @given(st.integers(0, 5000))
    @settings(max_examples=80)
    def test_arbitrary_walk_raises_or_has_unique_bad(self, seed):
        rng = random.Random(seed)
        inst = _random_matrix(rng, rng.randint(4, 8), 9, low=0)
        audit = audit_triangles(inst)
        if not audit.bad:
            return
        walk = list(range(inst.n)) + rng.choices(list(audit.bad), k=rng.randint(1, 4))
        rng.shuffle(walk)
        try:
            out = splice_bad(walk, audit, inst)
        except ContractViolationError:
            return
        _assert_bad_unique(out, walk, audit)
        # every cut was a safe one
        assert walk_cost(inst, out) <= walk_cost(inst, walk)

    @given(st.integers(0, 10**6), st.booleans())
    @settings(max_examples=40)
    def test_pipeline_walks_splice_safely(self, seed, planted):
        # Euler tours of repaired chains-regime graphs meet splice_bad's
        # precondition: it never raises and never raises the cost
        rng = random.Random(seed)
        if planted:
            inst = gen_planted(rng.randint(6, 9), rng.choice([3, 4, 5]), seed=seed)
        else:
            n, hi = rng.randint(5, 8), rng.choice([4, 10, 100])
            inst = _random_matrix(rng, n, hi)
            while not (audit_triangles(inst).bad and audit_triangles(inst).good):
                inst = _random_matrix(rng, n, hi)
        audit = audit_triangles(inst)
        layouts = list(enumerate_layouts(audit, len(audit.good)))
        for layout in rng.sample(layouts, min(len(layouts), 30)):
            walk = _repaired_tour(inst, audit, layout)
            trace = [walk_cost(inst, walk)]
            out = splice_bad(walk, audit, inst, trace)
            _assert_bad_unique(out, walk, audit)
            assert all(trace[i + 1] <= trace[i] for i in range(len(trace) - 1))
            assert trace[-1] == walk_cost(inst, out)


class TestSpliceGood:
    def test_keeps_first_occurrence(self, inst4):
        audit = audit_triangles(inst4)
        assert splice_good([0, 3, 2, 3, 1, 3], audit, inst4) == [0, 3, 2, 1]

    def test_cost_never_increases_stepwise(self):
        # entries in [8, 15] can never violate a triangle (15 <= 8 + 8)
        rng = random.Random(12)
        for _ in range(30):
            n = rng.randint(4, 8)
            inst = Instance(
                f"g{n}",
                tuple(
                    tuple(
                        0 if i == j else 8 + (((i + j) * 7 + i * j * 3) % 8)
                        for j in range(n)
                    )
                    for i in range(n)
                ),
            )
            audit = audit_triangles(inst)
            assert not audit.bad
            walk = list(range(n)) + rng.choices(range(n), k=3)
            rng.shuffle(walk)
            trace = [walk_cost(inst, walk)]
            out = splice_good(walk, audit, inst, trace)
            assert sorted(out) == sorted(set(walk))
            assert all(trace[i + 1] <= trace[i] for i in range(len(trace) - 1))


class _Recounted(list):
    """A step trace that checks every appended value against `recount()`,
    the cost of the current state computed from scratch."""

    def __init__(self, recount):
        super().__init__([recount()])
        self.recount = recount

    def append(self, value):
        assert value == self.recount()
        super().append(value)


def _splice_bad_by_recount(s, audit, inst):
    """splice_bad's rounds with walk_cost recomputed after every cut."""
    bad, good, c = set(audit.bad), set(audit.good), inst.cost
    s = list(s)
    trace = [walk_cost(inst, s)]
    while True:
        counts = Counter(v for v in s if v in bad)
        repeated = {v for v, cnt in counts.items() if cnt > 1}
        if not repeated:
            return s, trace
        safe = None
        for pos, v in enumerate(s):
            if v not in repeated:
                continue
            x, y = s[pos - 1], s[(pos + 1) % len(s)]
            if x in good or y in good or x == y or x == v or y == v:
                cand = (c[x][y] - c[x][v] - c[v][y], pos)
                safe = cand if safe is None else min(safe, cand)
        del s[safe[1]]
        trace.append(walk_cost(inst, s))


def _splice_good_by_recount(s, audit, inst):
    """splice_good's drops with walk_cost recomputed after every drop."""
    good = set(audit.good)
    out = list(s)
    trace = [walk_cost(inst, out)]
    seen = set()
    i = 0
    while i < len(out):
        if out[i] in good and out[i] in seen:
            del out[i]
            trace.append(walk_cost(inst, out))
            continue
        seen.add(out[i])
        i += 1
    return out, trace


class TestDeltaTraces:
    """Each traced step equals the cost recomputed from scratch."""

    @given(
        st.integers(0, 10**6),
        st.integers(6, 9),
        st.sampled_from([3, 4, 5]),
        st.integers(0, 10**6),
    )
    @settings(max_examples=60)
    def test_traces_equal_recounts(self, seed, n, b, pick):
        from tritsp.solver import evaluate_layout

        inst = gen_planted(n, b, seed=seed)
        audit = audit_triangles(inst)
        layouts = list(enumerate_layouts(audit, len(audit.good)))
        layout = layouts[pick % len(layouts)]
        ends = frozenset(layout.ends)
        forest, matching, skeleton = _good_skeleton(inst, audit, ends, {})
        h, _, _ = assemble_eulerian(layout.vertices, skeleton, inst)

        # step 0: ring cost + forest + matching is the cost of the union
        res = evaluate_layout(inst, audit, layout)
        assert res.step_costs[0] == graph_cost(inst, h)

        trace = _Recounted(lambda: graph_cost(inst, h))
        repair_double_bad_edges(h, audit, inst, trace)
        walk = euler_tour(h)
        assert walk_cost(inst, walk) == trace[-1]

        bad_trace = [walk_cost(inst, walk)]
        spliced = splice_bad(walk, audit, inst, bad_trace)
        assert (spliced, bad_trace) == _splice_bad_by_recount(walk, audit, inst)

        good_trace = [walk_cost(inst, spliced)]
        final = splice_good(spliced, audit, inst, good_trace)
        assert (final, good_trace) == _splice_good_by_recount(spliced, audit, inst)

        assert res.step_costs == tuple(trace) + tuple(bad_trace[1:]) + tuple(
            good_trace[1:]
        )
        assert res.step_costs[-1] == res.cost == walk_cost(inst, final)

    def test_trace_continues_from_its_last_value(self, inst4):
        # a trace holds deltas on top of its last entry, whatever it is
        audit = audit_triangles(inst4)
        trace = [100]
        splice_bad([0, 2, 3, 2, 1], audit, inst4, trace)
        assert trace == [100, 99]
