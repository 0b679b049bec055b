import pytest
from conftest import degree, multiplicity
from hypothesis import given, settings
from hypothesis import strategies as st

from tritsp.errors import ContractViolationError
from tritsp.multigraph import MultiGraph


def test_add_and_remove():
    g = MultiGraph(4)
    g.add_edge(0, 1)
    g.add_edge(1, 0)
    assert multiplicity(g, 0, 1) == 2
    assert degree(g, 0) == 2
    g.remove_edge(0, 1)
    assert multiplicity(g, 0, 1) == 1
    g.remove_edge(1, 0)
    assert multiplicity(g, 0, 1) == 0
    assert g.edge_count == 0


def test_remove_absent_edge_raises():
    g = MultiGraph(3)
    with pytest.raises(ContractViolationError):
        g.remove_edge(0, 1)


def test_rejects_self_loop():
    g = MultiGraph(3)
    with pytest.raises(ContractViolationError):
        g.add_edge(1, 1)


def test_neighbors_sorted_distinct():
    g = MultiGraph(5)
    g.add_edge(2, 4, 3)
    g.add_edge(2, 0)
    assert g.neighbors(2) == [0, 4]
    assert degree(g, 2) == 4


def test_edges_listing():
    g = MultiGraph(4)
    g.add_edge(3, 1, 2)
    g.add_edge(0, 2)
    assert g.edges() == [(0, 2, 1), (1, 3, 2)]
    assert g.edge_count == 3


def test_copy_is_independent():
    g = MultiGraph(3)
    g.add_edge(0, 1)
    h = g.copy()
    h.add_edge(1, 2)
    assert multiplicity(g, 1, 2) == 0
    assert multiplicity(h, 1, 2) == 1


@given(st.lists(st.tuples(st.sampled_from("arc"), st.integers(0, 4), st.integers(0, 4),
                          st.integers(1, 3)), max_size=40))
@settings(max_examples=200)
def test_edge_count_equals_a_recount(ops):
    # edge_count is derived from the adjacency maps: after any sequence of
    # adds, removes and copies it equals the sum of the listed multiplicities
    g = MultiGraph(5)
    for op, u, v, mult in ops:
        if op == "a" and u != v:
            g.add_edge(u, v, mult)
        elif op == "r" and multiplicity(g, u, v) > 0:
            g.remove_edge(u, v)
        elif op == "c":
            g = g.copy()
        assert g.edge_count == sum(m for _, _, m in g.edges())
