import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tritsp.forest
from tritsp.errors import ContractViolationError
from tritsp.forest import rooted_msf
from tritsp.instance import Instance, int_array
from tritsp.oracles import brute_msf_cost


def random_instance(rng, n, hi=40):
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = rng.randint(0, hi)
    return Instance(f"r{n}", tuple(tuple(r) for r in rows))


class TestRootedMsf:
    def test_single_root_is_mst(self, inst4):
        f = rooted_msf(inst4, range(4), {0})
        assert f.cost == 7  # edges (0,2), (1,2), (0,3)
        assert len(f.edges) == 3

    def test_roots_only_yields_empty_forest(self, inst4):
        f = rooted_msf(inst4, {1, 3}, {1, 3})
        assert f.edges == ()
        assert f.cost == 0
        assert f.component_of == {1: 1, 3: 3}

    def test_component_tracking(self, inst4):
        f = rooted_msf(inst4, {0, 1, 2, 3}, {0, 1})
        for v, root in f.component_of.items():
            assert root in {0, 1}
        # every root is its own component
        assert f.component_of[0] == 0
        assert f.component_of[1] == 1

    def test_edge_count(self, inst4):
        f = rooted_msf(inst4, range(4), {0, 2})
        assert len(f.edges) == 2  # n - t

    def test_rejects_root_outside_vertices(self, inst4):
        with pytest.raises(ContractViolationError):
            rooted_msf(inst4, {0, 1}, {2})

    def test_rejects_empty_roots(self, inst4):
        with pytest.raises(ContractViolationError):
            rooted_msf(inst4, {0, 1}, set())

    def test_deterministic(self):
        rng = random.Random(3)
        inst = random_instance(rng, 7)
        a = rooted_msf(inst, range(7), {1, 5})
        b = rooted_msf(inst, range(7), {1, 5})
        assert a == b

    def test_forest_structure(self):
        rng = random.Random(9)
        for _ in range(30):
            n = rng.randint(3, 9)
            inst = random_instance(rng, n)
            roots = set(rng.sample(range(n), rng.randint(1, min(3, n))))
            f = rooted_msf(inst, range(n), roots)
            # acyclic and spanning: n - |roots| edges, every vertex reaches
            # its recorded root without passing through another root
            assert len(f.edges) == n - len(roots)
            adj = {v: [] for v in range(n)}
            for a, b in f.edges:
                adj[a].append(b)
                adj[b].append(a)
            for r in roots:
                seen = {r}
                frontier = [r]
                while frontier:
                    x = frontier.pop()
                    for y in adj[x]:
                        if y not in seen and y not in roots:
                            seen.add(y)
                            frontier.append(y)
                for v in seen:
                    assert f.component_of[v] == r

    @given(st.integers(0, 1000))
    @settings(max_examples=60)
    def test_matches_brute_force(self, seed):
        rng = random.Random(seed)
        n = rng.randint(3, 8)
        inst = random_instance(rng, n, hi=25)
        roots = set(rng.sample(range(n), rng.randint(1, 3)))
        f = rooted_msf(inst, range(n), roots)
        assert f.cost == brute_msf_cost(inst, range(n), roots)
        assert f.cost == sum(inst.cost[a][b] for a, b in f.edges)


class TestNumpyPrim:
    """From _FOREST_NUMPY_MIN vertices on, Prim runs in numpy on integer
    keys; the forest, component_of included, must equal the Python loop's."""

    @staticmethod
    def both_paths(monkeypatch, inst, verts, roots):
        out = []
        for lo in (0, 10**9):
            monkeypatch.setattr(tritsp.forest, "_FOREST_NUMPY_MIN", lo)
            out.append(rooted_msf(inst, verts, roots))
        return out

    @given(st.integers(0, 10**6))
    @settings(max_examples=150)
    def test_matches_python_prim(self, seed):
        # small cost ranges tie many edges; random vertex and root subsets
        rng = random.Random(seed)
        n = rng.randint(2, 2 * tritsp.forest._FOREST_NUMPY_MIN)
        inst = random_instance(rng, n, hi=rng.choice([0, 1, 2, 5, 1000]))
        verts = rng.sample(range(n), rng.randint(1, n))
        roots = rng.sample(verts, rng.randint(1, min(len(verts), 4)))
        with pytest.MonkeyPatch.context() as mp:
            fast, slow = self.both_paths(mp, inst, verts, roots)
        assert fast == slow
        assert list(fast.component_of.items()) == list(slow.component_of.items())
        # the default threshold picks one of the two: the same forest
        assert rooted_msf(inst, verts, roots) == slow

    def test_costs_past_int64_keys(self, monkeypatch):
        # keys cost * n**2 + pair fit int64 up to 2**50 here; past that the
        # numpy path runs on exact Python int keys (dtype=object)
        made = []

        def recording(rows, largest):
            arr = int_array(rows, largest)
            made.append(arr.dtype)
            return arr

        monkeypatch.setattr(tritsp.forest, "int_array", recording)
        rng = random.Random(2)
        n = 40
        for hi, dtype in ((2**50, np.int64), (2**57, object), (2**62, object), (2**70, object)):
            rows = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    rows[i][j] = rows[j][i] = hi - rng.randint(0, 3)
            inst = Instance.from_rows("huge", rows)
            made.clear()
            fast, slow = self.both_paths(monkeypatch, inst, range(n), {0, 7})
            assert set(made) == {np.dtype(dtype)}
            assert fast == slow
            assert list(fast.component_of.items()) == list(slow.component_of.items())
            assert fast.cost == sum(inst.cost[a][b] for a, b in fast.edges)
