from collections import Counter

import pytest
from conftest import degree, multiplicity
from hypothesis import given, settings
from hypothesis import strategies as st

from tritsp.errors import ContractViolationError
from tritsp.shortcut import MultiGraph


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
    assert sum(degree(g, v) for v in range(4)) == 0


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
    for v in (4, 0, 4, 4):
        g.add_edge(2, v)
    assert [v for v in range(5) if multiplicity(g, 2, v)] == [0, 4]
    assert degree(g, 2) == 4


def test_edges_listing():
    g = MultiGraph(4)
    for a, b in ((3, 1), (0, 2), (1, 3)):
        g.add_edge(a, b)
    assert g.edges() == [(0, 2, 1), (1, 3, 2)]
    assert sum(degree(g, v) for v in range(4)) == 2 * 3


def test_copy_is_independent():
    g = MultiGraph(3)
    g.add_edge(0, 1)
    h = g.copy()
    h.add_edge(1, 2)
    assert multiplicity(g, 1, 2) == 0
    assert multiplicity(h, 1, 2) == 1


def test_add_edge_takes_no_multiplicity():
    with pytest.raises(TypeError):
        MultiGraph(3).add_edge(0, 1, 2)


@given(st.lists(st.tuples(st.sampled_from("arc"), st.integers(0, 4), st.integers(0, 4),
                          st.integers(1, 3)), max_size=40))
@settings(max_examples=200)
def test_edge_count_equals_a_recount(ops):
    # a model test: after any sequence of adds (each repeated 1-3 times),
    # removes and copies, the graph lists what a Counter of sorted pairs
    # holds, every adjacency list is ascending, and a copy is independent
    g, model = MultiGraph(5), Counter()

    def assert_matches(g):
        model_edges = sorted((a, b, m) for (a, b), m in model.items() if m)
        assert g.edges() == model_edges
        assert sum(degree(g, x) for x in range(5)) == 2 * sum(model.values())
        for x in range(5):
            assert g._adj[x] == sorted(g._adj[x])
            distinct = [y for y in range(5) if multiplicity(g, x, y)]
            assert distinct == sorted({a + b - x for a, b, _ in model_edges if x in (a, b)})

    for op, u, v, repeat in ops:
        key = (min(u, v), max(u, v))
        if op == "a" and u != v:
            for _ in range(repeat):
                g.add_edge(u, v)
            model[key] += repeat
        elif op == "r" and model[key] > 0:
            g.remove_edge(u, v)
            model[key] -= 1
        elif op == "c":
            h = g.copy()
            h.add_edge(0, 1)
            assert_matches(g)
            h.remove_edge(0, 1)
            g = h
        assert_matches(g)
