import itertools
import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tritsp.errors import ContractViolationError
from tritsp.instance import Instance, TriangleAudit, audit_triangles
from tritsp.layouts import (
    ChainLayout,
    build_bad_cycle,
    end_sets,
    enumerate_layouts,
)


def fake_audit(bad):
    bad = tuple(sorted(bad))
    return TriangleAudit((bad[:3],), bad, ())


class TestChainLayout:
    def test_layout_id(self):
        assert ChainLayout(((0, 2, 1),)).layout_id == "0,2,1"
        assert ChainLayout(((0, 1), (2,))).layout_id == "0,1|2"

    def test_accessors(self):
        lay = ChainLayout(((0, 4), (2, 3)))
        assert lay.vertices == (0, 4, 2, 3)
        assert lay.ends == (4, 3)

    def test_rejects_empty_chain(self):
        with pytest.raises(ContractViolationError):
            ChainLayout(((0, 1), ()))

    def test_rejects_repeats(self):
        with pytest.raises(ContractViolationError):
            ChainLayout(((0, 1), (1, 2)))


class TestEnumeration:
    @pytest.mark.parametrize("m", [3, 4, 5, 6])
    def test_unpruned_count(self, m):
        audit = fake_audit(range(m))
        layouts = list(enumerate_layouts(audit, good_count=m))
        assert len(layouts) == math.factorial(m - 1) * 2 ** (m - 1)
        assert len({l.layout_id for l in layouts}) == len(layouts)

    def test_every_layout_partitions_bad(self):
        audit = fake_audit([1, 4, 6, 7])
        for lay in enumerate_layouts(audit, good_count=4):
            assert tuple(sorted(lay.vertices)) == (1, 4, 6, 7)
            assert lay.chains[0][0] == 1  # smallest bad vertex leads

    def test_pruning_respects_good_count(self):
        audit = fake_audit(range(5))
        for g in range(1, 5):
            layouts = list(enumerate_layouts(audit, good_count=g))
            assert all(len(l.chains) <= g for l in layouts)
            expected = sum(
                math.comb(4, t - 1) * math.factorial(4) for t in range(1, g + 1)
            )
            assert len(layouts) == expected

    @given(st.integers(3, 6), st.integers(1, 6))
    @settings(max_examples=30)
    def test_matches_reference_enumeration(self, m, good_count):
        audit = fake_audit(range(m))
        got = {l.chains for l in enumerate_layouts(audit, good_count)}
        ref = set()
        for perm in itertools.permutations(range(1, m)):
            order = (0,) + perm
            for mask in range(1 << (m - 1)):
                chains = [[order[0]]]
                for i in range(1, m):
                    if mask >> (i - 1) & 1:
                        chains.append([])
                    chains[-1].append(order[i])
                if len(chains) <= good_count:
                    ref.add(tuple(tuple(ch) for ch in chains))
        assert got == ref


class TestEndSetOrder:
    """Layouts come end set by end set, in `end_sets` order."""

    @pytest.mark.parametrize("m", [3, 4, 5, 6])
    def test_end_sets_are_contiguous_blocks(self, m):
        audit = fake_audit(range(10, 10 + m))
        for g in range(1, m + 1):
            blocks = [
                ends
                for ends, _ in itertools.groupby(
                    frozenset(lay.ends) for lay in enumerate_layouts(audit, g)
                )
            ]
            assert blocks == list(end_sets(audit, g))

    def test_end_set_order(self):
        audit = fake_audit([1, 4, 6])
        assert [sorted(e) for e in end_sets(audit, 3)] == [
            [4], [6], [1, 4], [1, 6], [4, 6], [1, 4, 6]
        ]
        assert [sorted(e) for e in end_sets(audit, 1)] == [[4], [6]]

    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_one_end_set_equals_filtered_enumeration(self, m):
        audit = fake_audit(range(m))
        for g in range(1, m + 1):
            full = list(enumerate_layouts(audit, g))
            for ends in end_sets(audit, g):
                got = list(enumerate_layouts(audit, g, ends))
                assert got == [l for l in full if frozenset(l.ends) == ends]

    @pytest.mark.parametrize("m", [3, 4, 5, 6, 7])
    def test_count_formula(self, m):
        audit = fake_audit(range(m))
        for g in range(1, m + 1):
            count = sum(1 for _ in enumerate_layouts(audit, g))
            assert count == math.factorial(m - 2) * sum(
                len(ends - {0}) for ends in end_sets(audit, g)
            )

    def test_too_few_bad_vertices(self):
        for bad in ([3], [1, 3]):
            with pytest.raises(ContractViolationError, match="need 3 bad vertices"):
                list(end_sets(fake_audit(bad), 2))


def endpoint_counts(cycle):
    return Counter(v for pair in cycle for v in pair)


def pairs_cost(inst, cycle):
    return sum(inst.cost[a][b] for a, b in cycle)


class TestBadCycle:
    def test_inst4_single_chain(self, inst4):
        audit = audit_triangles(inst4)
        cyc = build_bad_cycle(ChainLayout(((0, 1, 2),)).vertices, inst4)
        assert cyc == [(0, 1), (1, 2), (2, 0)]
        assert pairs_cost(inst4, cyc) == 12
        assert audit.bad == (0, 1, 2)

    def test_inst4_two_chains(self, inst4):
        cyc = build_bad_cycle(ChainLayout(((0, 1), (2,))).vertices, inst4)
        # chain edge (0,1) plus closing edges 1->2 and 2->0
        assert cyc == [(0, 1), (1, 2), (2, 0)]

    def test_two_vertex_cycle_doubles_the_edge(self, inst4):
        cyc = build_bad_cycle(ChainLayout(((0,), (1,))).vertices, inst4)
        assert [tuple(sorted(pair)) for pair in cyc] == [(0, 1), (0, 1)]
        assert all(d % 2 == 0 for d in endpoint_counts(cyc).values())

    def test_single_vertex_cycle_is_empty(self, inst4):
        cyc = build_bad_cycle(ChainLayout(((2,),)).vertices, inst4)
        assert cyc == []

    def test_every_vertex_has_even_degree(self, inst4):
        audit = audit_triangles(inst4)
        for lay in enumerate_layouts(audit, good_count=3):
            cyc = build_bad_cycle(lay.vertices, inst4)
            assert len(cyc) == len(lay.vertices)
            assert all(d % 2 == 0 for d in endpoint_counts(cyc).values())

    def test_cycle_cost_is_layout_ring_cost(self):
        # for any layout the bad cycle is the Hamiltonian ring over its
        # concatenated vertex order
        rows = [[0, 3, 9, 4], [3, 0, 2, 8], [9, 2, 0, 7], [4, 8, 7, 0]]
        inst = Instance.from_rows("ring", rows)
        lay = ChainLayout(((0, 2), (1, 3)))
        cyc = build_bad_cycle(lay.vertices, inst)
        ring = (0, 2, 1, 3)
        expected = sum(
            inst.cost[ring[i]][ring[(i + 1) % 4]] for i in range(4)
        )
        assert pairs_cost(inst, cyc) == expected
