import hashlib
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tritsp.forest
from tritsp.errors import ContractViolationError
from tritsp.forest import _kruskal, forests_from_mst, rooted_msf
from tritsp.instance import Instance, int_array
from tritsp.oracles import brute_msf_cost

# rooted_msf's output when its pure-Python path was a Prim comparing
# (cost, (min, max), root) tuples; the integer key, and the Kruskal that
# replaced that Prim, must give the same forests
FORESTS_DIGEST = "f984c647df8895dbe6083324b75dce64950c777df4e4d5c2d5f9c97838efc5a7"


def _prim_python(c, n, verts, rts):
    """Edges of the rooted MSF in selection order."""
    n2 = n * n
    root_set = set(rts)
    key = {
        v: min(c[r][v] * n2 + min(r, v) * n + max(r, v) for r in rts)
        for v in verts
        if v not in root_set
    }
    edges: list[tuple[int, int]] = []
    while key:
        v = min(key, key=key.__getitem__)
        edges.append(divmod(key.pop(v) % n2, n))
        cv = c[v]
        for u, k in key.items():
            cand = cv[u] * n2 + (v * n + u if v < u else u * n + v)
            if cand < k:
                key[u] = cand
    return edges


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
        assert f.roots == (1, 3)

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
            # the trees grown from the roots partition the vertices with one
            # root each; with n - |roots| edges over |roots| trees the
            # forest is also acyclic
            assert len(f.edges) == n - len(roots)
            adj = {v: [] for v in range(n)}
            for a, b in f.edges:
                adj[a].append(b)
                adj[b].append(a)
            tree_of = {}
            for r in sorted(roots):
                assert r not in tree_of  # no tree holds two roots
                tree_of[r] = r
                frontier = [r]
                while frontier:
                    x = frontier.pop()
                    for y in adj[x]:
                        if y not in tree_of:
                            tree_of[y] = r
                            frontier.append(y)
            assert sorted(tree_of) == list(range(n))

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


class TestPythonKruskal:
    """Below _FOREST_NUMPY_MIN vertices rooted_msf is one _kruskal over the
    keys of every vertex pair; the contracted Prim it replaced
    (_prim_python above) is the reference."""

    @given(st.integers(0, 10**6))
    @settings(max_examples=150)
    def test_matches_the_prim_reference(self, seed):
        # small cost ranges tie many edges, large ones pass int64 keys;
        # random vertex and root subsets
        rng = random.Random(seed)
        n = rng.randint(2, 48)
        inst = random_instance(rng, n, hi=rng.choice([0, 1, 2, 5, 1000, 2**70]))
        verts = sorted(rng.sample(range(n), rng.randint(1, n)))
        roots = sorted(rng.sample(verts, rng.randint(1, min(len(verts), 4))))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tritsp.forest, "_FOREST_NUMPY_MIN", 10**9)
            got = rooted_msf(inst, verts, roots)
        edges = sorted(_prim_python(inst.cost, n, verts, roots))
        assert got.edges == tuple(edges)
        assert got.cost == sum(inst.cost[a][b] for a, b in edges)

    @staticmethod
    def keys(n, edges):
        # (cost, a, b) triples, a < b, as the integer keys _kruskal sorts
        return [c * n * n + a * n + b for c, a, b in edges]

    def test_roots_are_one_component(self):
        # the free root-root pair would join two components of plain
        # Kruskal; with the roots joined first it closes a cycle
        keys = self.keys(5, [(0, 0, 4), (3, 1, 4), (2, 1, 2), (7, 0, 3), (5, 3, 4)])
        assert _kruskal(keys, 5, [0, 4], 3) == ([(1, 2), (1, 4), (3, 4)], 10)

    def test_stops_at_count(self):
        keys = self.keys(6, [(1, 0, 1), (2, 1, 2), (3, 2, 3), (4, 3, 4), (5, 4, 5)])
        for count in range(1, 6):
            edges, cost = _kruskal(keys, 6, [0], count)
            assert edges == [(i, i + 1) for i in range(count)]
            assert cost == sum(range(1, count + 1))

    @given(st.integers(0, 10**6))
    @settings(max_examples=60)
    def test_ascending_and_costed(self, seed):
        # edges leave in key order, and the cost is their decoded costs' sum
        rng = random.Random(seed)
        n = rng.randint(2, 12)
        inst = random_instance(rng, n, hi=rng.choice([1, 3, 2**70]))
        roots = sorted(rng.sample(range(n), rng.randint(1, n)))
        keys = [
            inst.cost[a][b] * n * n + a * n + b for a in range(n) for b in range(a + 1, n)
        ]
        edges, cost = _kruskal(keys, n, roots, n - len(roots))
        assert len(edges) == n - len(roots)
        got = [inst.cost[a][b] * n * n + a * n + b for a, b in edges]
        assert got == sorted(got)
        assert cost == sum(inst.cost[a][b] for a, b in edges)


class TestNumpyPrim:
    """From _FOREST_NUMPY_MIN vertices on, Prim runs in numpy on integer
    keys; the forest must equal the pure-Python Kruskal's."""

    @staticmethod
    def both_paths(monkeypatch, inst, verts, roots):
        out = []
        for lo in (0, 10**9):
            monkeypatch.setattr(tritsp.forest, "_FOREST_NUMPY_MIN", lo)
            out.append(rooted_msf(inst, verts, roots))
        return out

    @given(st.integers(0, 10**6))
    @settings(max_examples=150)
    def test_matches_python_kruskal(self, seed):
        # small cost ranges tie many edges; random vertex and root subsets
        rng = random.Random(seed)
        n = rng.randint(2, 48)
        inst = random_instance(rng, n, hi=rng.choice([0, 1, 2, 5, 1000]))
        verts = rng.sample(range(n), rng.randint(1, n))
        roots = rng.sample(verts, rng.randint(1, min(len(verts), 4)))
        with pytest.MonkeyPatch.context() as mp:
            fast, slow = self.both_paths(mp, inst, verts, roots)
        assert fast == slow
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
            assert fast.cost == sum(inst.cost[a][b] for a, b in fast.edges)

    def test_forests_pinned(self, monkeypatch):
        # tie-heavy costs, random vertex and root subsets: edges, roots and
        # cost of both paths
        rng = random.Random(14)
        most = 48  # both_paths patches it
        lines = []
        for _ in range(300):
            n = rng.randint(2, most)
            inst = random_instance(rng, n, hi=rng.choice([0, 1, 2, 3, 9]))
            verts = rng.sample(range(n), rng.randint(1, n))
            roots = rng.sample(verts, rng.randint(1, min(len(verts), 4)))
            for f in self.both_paths(monkeypatch, inst, verts, roots):
                lines.append(repr((f.edges, f.roots, f.cost)))
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == FORESTS_DIGEST


class TestForestsFromMst:
    """Kruskal over one MST of the tree vertices G plus each vertex's
    cheapest edge into E gives rooted_msf(G | E, E) for every E."""

    @given(st.integers(0, 10**6))
    @settings(max_examples=150)
    def test_equals_rooted_msf(self, seed):
        # costs 1-3 tie most edges; random G, random end sets outside it
        rng = random.Random(seed)
        n = rng.randint(2, 30)
        rows = [[0] * n for _ in range(n)]
        lo, hi = rng.choice([(1, 3), (1, 3), (0, 40), (0, 2**40)])
        for i in range(n):
            for j in range(i + 1, n):
                rows[i][j] = rows[j][i] = rng.randint(lo, hi)
        inst = Instance.from_rows("r", rows)
        order = rng.sample(range(n), n)
        cut = rng.randint(1, n - 1)
        good, rest = order[:cut], order[cut:]
        mst = rooted_msf(inst, good, good[:1])
        forest_of = forests_from_mst(inst, mst)
        for _ in range(4):
            ends = rng.sample(rest, rng.randint(1, len(rest)))
            expected = rooted_msf(inst, set(good) | set(ends), ends)
            assert forest_of(frozenset(ends)) == expected
            assert expected.cost == sum(inst.cost[a][b] for a, b in expected.edges)

    def test_rejects_roots_inside_the_tree(self, inst4):
        forest_of = forests_from_mst(inst4, rooted_msf(inst4, (0, 1), (0,)))
        for roots in ((1,), (2, 0), ()):
            with pytest.raises(ContractViolationError):
                forest_of(frozenset(roots))
        assert forest_of(frozenset({2, 3})) == rooted_msf(inst4, range(4), (2, 3))
