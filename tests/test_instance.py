import json
import random
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tritsp.errors import (
    AsymmetricCostError,
    DimensionMismatchError,
    NegativeCostError,
    ParseError,
)
import tritsp.instance as instance_module
from tritsp.instance import (
    Instance,
    _violations_by_blocks,
    audit_triangles,
    gen_metric,
    gen_planted,
    int_array,
    load_instance,
    planted_corpus,
    save_instance,
)


@st.composite
def symmetric_matrix(draw, n_min=3, n_max=8, hi=50, scale=1):
    """Costs x * scale + y with x in [0, hi] and y in [0, scale)."""
    n = draw(st.integers(n_min, n_max))
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            x = draw(st.integers(0, hi)) * scale
            if scale > 1:
                x += draw(st.integers(0, scale - 1))
            rows[i][j] = rows[j][i] = x
    return Instance("h", tuple(tuple(r) for r in rows))


def audit_by_loops(inst):
    """Reference audit: every triple in lexicographic order, Python ints."""
    n, c = inst.n, inst.cost
    violating = []
    for u in range(n):
        for v in range(u + 1, n):
            for w in range(v + 1, n):
                a, b, d = c[u][v], c[u][w], c[v][w]
                if 2 * max(a, b, d) > a + b + d:
                    violating.append((u, v, w))
    bad = sorted({x for t in violating for x in t})
    good = [x for x in range(n) if x not in bad]
    return tuple(violating), tuple(bad), tuple(good)


def validate_by_loops(cost):
    """Reference validation: every cell in row-major order, then symmetry."""
    n = len(cost)
    if n == 0:
        raise DimensionMismatchError("empty cost matrix")
    for i, row in enumerate(cost):
        if len(row) != n:
            raise DimensionMismatchError(
                f"row {i} has {len(row)} entries, expected {n}"
            )
        for j, x in enumerate(row):
            if not (isinstance(x, int) and not isinstance(x, bool)):
                raise ParseError(f"cost[{i}][{j}] is not an integer")
            if x < 0:
                raise NegativeCostError(f"cost[{i}][{j}] = {x} is negative")
        if row[i] != 0:
            raise NegativeCostError(f"diagonal cost[{i}][{i}] = {row[i]} != 0")
    for i in range(n):
        for j in range(i + 1, n):
            if cost[i][j] != cost[j][i]:
                raise AsymmetricCostError(
                    f"cost[{i}][{j}] = {cost[i][j]} != "
                    f"cost[{j}][{i}] = {cost[j][i]}"
                )


def _outcome(fn, cost):
    try:
        fn(cost)
    except Exception as e:  # the class and message are what is compared
        return type(e), str(e)
    return None


# one defect each: a cell value, a row length, or the container types
_DEFECTS = (
    "negative",
    "diagonal",
    "asymmetric",
    "float",
    "bool",
    "string",
    "none",
    "big",
    "short_row",
    "long_row",
    "list_row",
    "list_matrix",
    "int_subclass",
)


class _Cost(int):
    pass


class _ListRow(list):
    """Marks a row that stays a list."""


@st.composite
def defective_matrix(draw):
    """A random symmetric matrix with 0-3 planted defects."""
    n = draw(st.integers(1, 7))
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = draw(st.integers(0, 9))
    outer = tuple
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(_DEFECTS))
        i = draw(st.integers(0, n - 1))
        j = draw(st.integers(0, n - 1))
        if kind == "negative":
            rows[i][j] = -draw(st.integers(1, 5))
        elif kind == "diagonal":
            rows[i][i] = draw(st.integers(1, 5))
        elif kind == "asymmetric" and i != j:
            rows[i][j] += draw(st.integers(1, 5))
        elif kind == "float":
            rows[i][j] = float(rows[i][j])
        elif kind == "bool":
            rows[i][j] = bool(rows[i][j])
        elif kind == "string":
            rows[i][j] = str(rows[i][j])
        elif kind == "none":
            rows[i][j] = None
        elif kind == "big":
            rows[i][j] = rows[j][i] = 2**70 + i + j
        elif kind == "short_row":
            rows[i] = rows[i][:-1]
        elif kind == "long_row":
            rows[i] = rows[i] + [0]
        elif kind == "list_row":
            rows[i] = _ListRow(rows[i])
        elif kind == "list_matrix":
            outer = list
        elif kind == "int_subclass":
            rows[i][j] = _Cost(rows[i][j])
    return outer(r if isinstance(r, _ListRow) else tuple(r) for r in rows)


class TestValidation:
    @given(defective_matrix())
    @settings(max_examples=400)
    def test_same_error_as_cell_loop(self, cost):
        def build(c):
            Instance("d", c)

        assert _outcome(build, cost) == _outcome(validate_by_loops, cost)

    @given(symmetric_matrix(n_min=1, hi=10**6))
    @settings(max_examples=50)
    def test_well_formed_matrices_skip_the_cell_loop(self, inst):
        assert instance_module._well_formed(inst.cost)

    def test_rejects_empty(self):
        with pytest.raises(DimensionMismatchError, match="empty cost matrix"):
            Instance("x", ())

    def test_accepts_list_rows_and_int_subclasses(self):
        inst = Instance("x", [[0, _Cost(3)], (3, 0)])
        assert inst.cost[0][1] == 3

    def test_rejects_asymmetric(self):
        with pytest.raises(AsymmetricCostError):
            Instance("x", ((0, 1), (2, 0)))

    def test_rejects_negative(self):
        with pytest.raises(NegativeCostError):
            Instance("x", ((0, -1), (-1, 0)))

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(NegativeCostError):
            Instance("x", ((1, 2), (2, 0)))

    def test_rejects_ragged(self):
        with pytest.raises(DimensionMismatchError):
            Instance("x", ((0, 1), (1, 0, 2)))

    def test_rejects_bool_entries(self):
        with pytest.raises(ParseError):
            Instance("x", ((0, True), (True, 0)))

    def test_from_rows(self):
        inst = Instance.from_rows("y", [[0, 3], [3, 0]])
        assert inst.n == 2 and inst.cost[0][1] == 3


class TestAudit:
    def test_inst4(self, inst4):
        audit = audit_triangles(inst4)
        assert audit.k == 1
        assert audit.k_t == 3
        assert audit.violating == ((0, 1, 2),)
        assert audit.bad == (0, 1, 2)
        assert audit.good == (3,)

    def test_metric_square(self, sq4):
        audit = audit_triangles(sq4)
        assert audit.k == 0
        assert audit.bad == ()
        assert audit.good == (0, 1, 2, 3)

    def test_strictness(self):
        # 2*max == sum exactly: not a violation
        inst = Instance.from_rows("tight", [[0, 1, 1], [1, 0, 2], [1, 2, 0]])
        assert audit_triangles(inst).k == 0

    @given(symmetric_matrix())
    @settings(max_examples=120)
    def test_triangles_with_good_vertex_are_metric(self, inst):
        audit = audit_triangles(inst)
        good = set(audit.good)
        n = inst.n
        c = inst.cost
        for u in range(n):
            for v in range(u + 1, n):
                for w in range(v + 1, n):
                    if u in good or v in good or w in good:
                        a, b, d = c[u][v], c[u][w], c[v][w]
                        assert 2 * max(a, b, d) <= a + b + d

    @given(symmetric_matrix(n_min=1, n_max=12))
    @settings(max_examples=150)
    def test_matches_triple_loop(self, inst):
        # small n takes the loops; the numpy test is checked directly
        ref = audit_by_loops(inst)
        audit = audit_triangles(inst)
        assert (audit.violating, audit.bad, audit.good) == ref
        assert tuple(_violations_by_blocks(inst.cost)) == ref[0]

    @given(symmetric_matrix(n_min=1, n_max=9, scale=2**62))
    @settings(max_examples=60)
    def test_matches_triple_loop_beyond_int64(self, inst):
        # sums of two costs pass 2**63: the exact-int (object) numpy path
        ref = audit_by_loops(inst)
        audit = audit_triangles(inst)
        assert (audit.violating, audit.bad, audit.good) == ref
        blocks = _violations_by_blocks(inst.cost)
        assert tuple(blocks) == ref[0]
        assert all(type(x) is int for t in blocks for x in t)

    @pytest.mark.parametrize("big", [2**30, 2**62])
    @pytest.mark.parametrize("slack", [-1, 1])
    def test_dtype_boundaries(self, big, slack):
        # duv + a = 2 * big passes 2**31 (or 2**63): a wrapped sum would
        # flip the verdict on b = 2 * big + slack
        b = 2 * big + slack
        inst = Instance.from_rows("wrap", [[0, big, big], [big, 0, b], [big, b, 0]])
        ref = audit_by_loops(inst)
        assert ref[0] == (((0, 1, 2),) if slack > 0 else ())
        assert tuple(_violations_by_blocks(inst.cost)) == ref[0]

    def test_matches_triple_loop_across_blocks(self):
        # n = 90 spans several blocks of pairs, and the blocks split rows
        rng = random.Random(4)
        n = 90
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                rows[i][j] = rows[j][i] = rng.randint(1, 40)
        inst = Instance.from_rows("blocks", rows)
        audit = audit_triangles(inst)
        assert audit.k > 1000
        assert (audit.violating, audit.bad, audit.good) == audit_by_loops(inst)

    @given(symmetric_matrix())
    @settings(max_examples=60)
    def test_bad_set_is_union_of_violations(self, inst):
        audit = audit_triangles(inst)
        from_triples = set()
        for t in audit.violating:
            from_triples.update(t)
        assert set(audit.bad) == from_triples
        assert set(audit.bad) | set(audit.good) == set(range(inst.n))
        assert audit.k == len(audit.violating)
        assert audit.k_t == len(audit.bad)



class TestIntArray:
    @pytest.mark.parametrize(
        "largest, element",
        [
            (2**31 - 1, np.int32),
            (2**31, np.int64),
            (2**63 - 1, np.int64),
            (2**63, int),
        ],
    )
    def test_narrowest_dtype_at_the_boundaries(self, largest, element):
        rows = [[largest, -largest], [0, 1]]
        arr = int_array(rows, largest)
        assert arr.dtype == np.dtype(object if element is int else element)
        assert all(type(x) is element for x in arr.flat)
        assert arr.tolist() == rows


def shortcut_pairs(inst):
    """Every pair x < y with some w giving c(x, w) + c(w, y) < c(x, y)."""
    n, c = inst.n, inst.cost
    return [
        (x, y)
        for x in range(n)
        for y in range(x + 1, n)
        if any(c[x][w] + c[w][y] < c[x][y] for w in range(n))
    ]


class TestShortcutSearch:
    """From _AUDIT_NUMPY_MIN vertices on, the audit finds the shortcut pairs
    by a min-plus search and lists each one's witnesses."""

    @pytest.mark.parametrize("hi", [3, 1000])
    @given(data=st.data())
    @settings(max_examples=40)
    def test_matches_triple_loop_past_the_crossover(self, hi, data):
        # costs 0-3 make zero costs and ties common
        inst = data.draw(symmetric_matrix(n_min=16, n_max=40, hi=hi))
        audit = audit_triangles(inst)
        assert (audit.violating, audit.bad, audit.good) == audit_by_loops(inst)

    @given(symmetric_matrix(n_min=16, n_max=24, scale=2**62))
    @settings(max_examples=20)
    def test_matches_triple_loop_beyond_int64_past_the_crossover(self, inst):
        audit = audit_triangles(inst)
        assert (audit.violating, audit.bad, audit.good) == audit_by_loops(inst)
        assert all(type(x) is int for t in audit.violating for x in t)

    def test_sparse_violations_in_a_metric_instance(self):
        # three CEIL_2D edges inflated past their shortest detours, each
        # with a few witnesses
        rows = [list(r) for r in gen_metric(120, seed=3).cost]
        for u, v in ((5, 77), (40, 41), (90, 12)):
            detour = min(rows[u][w] + rows[w][v] for w in range(120) if w not in (u, v))
            rows[u][v] = rows[v][u] = detour + 500
        inst = Instance.from_rows("inflated", rows)
        audit = audit_triangles(inst)
        assert 3 < audit.k < 50
        assert (audit.violating, audit.bad, audit.good) == audit_by_loops(inst)

    @pytest.mark.parametrize("block", [1, 64, 700])
    def test_rows_span_several_blocks(self, monkeypatch, block):
        # a tiny block splits every row into many column blocks and the
        # witness search into many blocks of pairs
        monkeypatch.setattr(instance_module, "_AUDIT_BLOCK", block)
        rng = random.Random(block)
        n = 30
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                rows[i][j] = rows[j][i] = rng.randint(0, 25)
        inst = Instance.from_rows("tiny-blocks", rows)
        audit = audit_triangles(inst)
        assert audit.k > 100
        assert (audit.violating, audit.bad, audit.good) == audit_by_loops(inst)

    @given(symmetric_matrix(hi=12))
    @settings(max_examples=120)
    def test_each_violation_has_one_shortcut_side(self, inst):
        c = inst.cost
        for u, v, w in audit_triangles(inst).violating:
            sides = ((u, v, w), (u, w, v), (v, w, u))
            shortcuts = [s for x, y, s in sides if c[x][s] + c[s][y] < c[x][y]]
            assert len(shortcuts) == 1

    @given(symmetric_matrix(hi=12))
    @settings(max_examples=120)
    def test_shortcut_pair_endpoints_are_bad(self, inst):
        bad = set(audit_triangles(inst).bad)
        assert all(x in bad and y in bad for x, y in shortcut_pairs(inst))

    def test_small_audits_leave_numpy_unloaded(self):
        # every corpus instance (n <= 12) takes the triple loop
        code = (
            "import sys; from tritsp.instance import audit_triangles, gen_planted;"
            "assert audit_triangles(gen_planted(12, 5, 1)).k;"
            "assert 'numpy' not in sys.modules"
        )
        subprocess.run([sys.executable, "-c", code], check=True)


class TestFormats:
    def test_roundtrip(self, inst4):
        assert load_instance(save_instance(inst4)) == inst4

    def test_json_bytes_are_stable(self, inst4):
        assert save_instance(inst4) == save_instance(inst4)
        assert save_instance(inst4).endswith(b"\n")

    def test_load_json_file(self, data_dir, inst4):
        assert load_instance(f"{data_dir}/inst4.json") == inst4

    def test_unknown_key_rejected(self):
        blob = json.dumps({"name": "x", "n": 2, "cost": [[0, 1], [1, 0]], "extra": 1})
        with pytest.raises(ParseError):
            load_instance(blob.encode())

    def test_dimension_mismatch(self):
        blob = json.dumps({"name": "x", "n": 3, "cost": [[0, 1], [1, 0]]})
        with pytest.raises(DimensionMismatchError):
            load_instance(blob.encode())

    def test_tsplib_full_matrix(self, data_dir, sq4):
        inst = load_instance(f"{data_dir}/sq4.tsp")
        assert inst.cost == sq4.cost
        assert inst.name == "SQ4"

    def test_tsplib_euc2d(self):
        lines = [
            "NAME: tri",
            "TYPE: TSP",
            "DIMENSION: 3",
            "EDGE_WEIGHT_TYPE: EUC_2D",
            "NODE_COORD_SECTION",
            "1 0 0",
            "2 3 0",
            "3 0 4",
            "EOF",
        ]
        inst = load_instance("\n".join(lines).encode())
        assert inst.cost[0][1] == 3
        assert inst.cost[0][2] == 4
        assert inst.cost[1][2] == 5

    def test_tsplib_reports_line(self):
        lines = ["NAME: bad", "DIMENSION: 2", "EDGE_WEIGHT_TYPE: EUC_2D",
                 "NODE_COORD_SECTION", "1 0 0", "2 oops 0", "EOF"]
        with pytest.raises(ParseError, match="line 6"):
            load_instance("\n".join(lines).encode())


class TestGenerators:
    def test_metric_contract(self):
        for seed in range(40):
            inst = gen_metric(8, seed=seed)
            assert inst.n == 8
            assert audit_triangles(inst).k == 0

    def test_metric_deterministic(self):
        assert gen_metric(9, seed=5) == gen_metric(9, seed=5)

    @pytest.mark.parametrize("n", [50, 60, 200])
    def test_metric_at_scale(self, n):
        # CEIL_2D rounding stays metric where nearest-integer rounding broke
        for seed in (1, 2, 3):
            inst = gen_metric(n, seed=seed)
            assert inst.n == n
            assert audit_triangles(inst).k == 0

    def test_planted_contract(self):
        for seed in range(100):
            inst = gen_planted(9, 4, seed=seed)
            audit = audit_triangles(inst)
            assert audit.k >= 1
            assert audit.k_t == 4, f"seed {seed}: bad set {audit.bad}"

    def test_planted_odd_bad_count(self):
        for seed in range(40):
            audit = audit_triangles(gen_planted(10, 5, seed=seed))
            assert audit.k_t == 5, f"seed {seed}"

    def test_planted_deterministic(self):
        assert gen_planted(10, 3, seed=77) == gen_planted(10, 3, seed=77)

    def test_planted_rejects_tiny(self):
        with pytest.raises(DimensionMismatchError):
            gen_planted(4, 4, seed=1)

    def test_planted_corpus_order(self):
        # smallest b first; n cycles 4, 5, 6 and skips n <= b; one seed each
        corpus = planted_corpus({4: 2, 3: 3}, (4, 5, 6), seed0=20)
        assert [inst.name for inst in corpus] == [
            "planted-n4-b3-s20",
            "planted-n5-b3-s21",
            "planted-n6-b3-s22",
            "planted-n5-b4-s23",
            "planted-n6-b4-s24",
        ]
        assert corpus[3] == gen_planted(5, 4, seed=23)

    def test_planted_corpus_rejects_sizes_without_good_vertex(self):
        with pytest.raises(DimensionMismatchError):
            planted_corpus({5: 1}, (4, 5), seed0=1)
