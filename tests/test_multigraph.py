import pytest

from tritsp.errors import ContractViolationError
from tritsp.multigraph import MultiGraph


def test_add_and_remove():
    g = MultiGraph(4)
    g.add_edge(0, 1)
    g.add_edge(1, 0)
    assert g.multiplicity(0, 1) == 2
    assert g.degree(0) == 2
    g.remove_edge(0, 1)
    assert g.multiplicity(0, 1) == 1
    g.remove_edge(1, 0)
    assert g.multiplicity(0, 1) == 0
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
    assert g.degree(2) == 4


def test_edges_listing():
    g = MultiGraph(4)
    g.add_edge(3, 1, 2)
    g.add_edge(0, 2)
    assert g.edges() == [(0, 2, 1), (1, 3, 2)]
    assert g.edge_count == 3


def test_odd_vertices():
    g = MultiGraph(4)
    g.add_edge(0, 1)
    g.add_edge(1, 2, 2)
    assert g.odd_vertices() == [0, 1]


def test_copy_is_independent():
    g = MultiGraph(3)
    g.add_edge(0, 1)
    h = g.copy()
    h.add_edge(1, 2)
    assert g.multiplicity(1, 2) == 0
    assert h.multiplicity(1, 2) == 1


def test_add_graph_adds_every_copy():
    g = MultiGraph(4)
    g.add_edge(0, 1)
    other = MultiGraph(4)
    other.add_edge(0, 1, 2)
    other.add_edge(2, 3)
    g.add_graph(other)
    assert g.edges() == [(0, 1, 3), (2, 3, 1)]
    assert g.edge_count == 4
    assert other.edges() == [(0, 1, 2), (2, 3, 1)]


def test_add_graph_rejects_other_vertex_count():
    with pytest.raises(ContractViolationError):
        MultiGraph(3).add_graph(MultiGraph(4))
