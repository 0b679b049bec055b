import hashlib
import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tritsp.matching
from tritsp.errors import ContractViolationError, SizeRefusalError
from tritsp.forest import rooted_msf
from tritsp.instance import Instance
from tritsp.matching import (
    brute_matching,
    min_cost_perfect_matching,
    verify_matching_certificate,
)
from tritsp.solver import christofides


def random_instance(rng, n, hi=60):
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = rng.randint(0, hi)
    return Instance(f"m{n}", tuple(tuple(r) for r in rows))


class TestBlossom:
    def test_k4_example(self):
        rows = [
            [0, 1, 10, 10],
            [1, 0, 10, 10],
            [10, 10, 0, 1],
            [10, 10, 1, 0],
        ]
        inst = Instance.from_rows("k4", rows)
        m = min_cost_perfect_matching(inst, [0, 1, 2, 3])
        assert m.pairs == ((0, 1), (2, 3))
        assert m.cost == 2

    def test_empty(self, inst4):
        m = min_cost_perfect_matching(inst4, [])
        assert m.pairs == () and m.cost == 0

    def test_two_vertices(self, inst4):
        m = min_cost_perfect_matching(inst4, [1, 3])
        assert m.pairs == ((1, 3),) and m.cost == 6

    def test_two_vertices_skip_search(self, monkeypatch):
        # a pair has one matching: no search runs, and the certificate the
        # search would have returned is still checked
        search = tritsp.matching._blossom_search
        verify = tritsp.matching.verify_matching_certificate
        checked = []

        def no_search(w):
            raise AssertionError("search ran on two vertices")

        def spy(w, mate, y2, blossoms):
            checked.append((w, mate, y2, blossoms))
            verify(w, mate, y2, blossoms)

        monkeypatch.setattr(tritsp.matching, "_blossom_search", no_search)
        monkeypatch.setattr(tritsp.matching, "verify_matching_certificate", spy)
        rng = random.Random(4)
        for _ in range(40):
            inst = random_instance(rng, 6, rng.choice([0, 1, 50, 2**70]))
            a, b = sorted(rng.sample(range(6), 2))
            m = min_cost_perfect_matching(inst, [b, a])
            assert m == brute_matching(inst, [a, b])
            w, mate, y2, blossoms = checked[-1]
            assert (mate, y2, blossoms) == search(w)

    @pytest.mark.parametrize("sift_min", [0, 10**9])
    @pytest.mark.parametrize(
        "w, y2",
        [
            # two mutually nearest pairs: every dual is the pair's cost
            ([[0, 3, 20, 20], [3, 0, 20, 20], [20, 20, 0, 5], [20, 20, 5, 0]],
             [3, 3, 5, 5]),
            # 1's nearest is 2: 0 raises to 2 * 4 - 2 and takes 1; 2's
            # least slack leads to the matched 1, so 2 stays free until 3
            # raises to 2 * 3 - 2 and takes it
            ([[0, 4, 10, 10], [4, 0, 2, 10], [10, 2, 0, 3], [10, 10, 3, 0]],
             [6, 2, 2, 4]),
        ],
    )
    def test_perfect_greedy_start_is_the_result(self, monkeypatch, sift_min, w, y2):
        # the greedy start matches every vertex, so no stage runs: the
        # start's duals come back as they are, odd ones unrounded
        monkeypatch.setattr(tritsp.matching, "SIFT_MIN", sift_min)
        assert tritsp.matching._blossom_search(w) == ([1, 0, 3, 2], y2, [])

    @given(st.integers(0, 100000))
    @settings(max_examples=150)
    def test_zero_one_costs_match_brute_force(self, seed):
        # costs 0-1, mostly 1: a free vertex's least slack often leads to a
        # matched vertex of dual 1 and raises its own dual to 2 * 1 - 1, so
        # the start rounds odd free duals down to even
        rng = random.Random(seed)
        n = rng.randint(4, 14)
        odd = rng.sample(range(n), 2 * rng.randint(2, n // 2))
        zeros = rng.choice([0.02, 0.05, 0.1, 0.2, 0.5])
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                rows[i][j] = rows[j][i] = int(rng.random() >= zeros)
        inst = Instance.from_rows(f"zo{seed}", rows)
        expect = brute_matching(inst, odd).cost
        saved = tritsp.matching.SIFT_MIN
        try:
            for sift_min in (0, 10**9):
                tritsp.matching.SIFT_MIN = sift_min
                assert min_cost_perfect_matching(inst, odd).cost == expect
        finally:
            tritsp.matching.SIFT_MIN = saved

    def test_forces_blossom(self):
        # triangle of cheap edges plus three satellites: any perfect
        # matching must leave the odd cycle, exercising blossom handling
        rows = [[0] * 6 for _ in range(6)]
        cheap = {(0, 1): 1, (1, 2): 1, (0, 2): 1, (0, 3): 2, (1, 4): 2, (2, 5): 2}
        for (i, j), w in cheap.items():
            rows[i][j] = rows[j][i] = w
        for i in range(6):
            for j in range(i + 1, 6):
                if rows[i][j] == 0 and i != j:
                    rows[i][j] = rows[j][i] = 50
        inst = Instance.from_rows("blossom", rows)
        m = min_cost_perfect_matching(inst, range(6))
        assert m.cost == brute_matching(inst, range(6)).cost == 6

    def test_rejects_odd_count(self, inst4):
        with pytest.raises(ContractViolationError):
            min_cost_perfect_matching(inst4, [0, 1, 2])

    def test_rejects_duplicates(self, inst4):
        with pytest.raises(ContractViolationError):
            min_cost_perfect_matching(inst4, [0, 0])

    def test_pairs_are_sorted_and_disjoint(self):
        rng = random.Random(8)
        inst = random_instance(rng, 10)
        m = min_cost_perfect_matching(inst, range(10))
        seen = set()
        for a, b in m.pairs:
            assert a < b
            assert not {a, b} & seen
            seen.update((a, b))
        assert seen == set(range(10))

    @given(st.integers(0, 100000))
    @settings(max_examples=200)
    def test_matches_brute_force(self, seed):
        rng = random.Random(seed)
        n = rng.randint(4, 12)
        odd = rng.sample(range(n), 2 * rng.randint(1, n // 2))
        hi = rng.choice([1, 3, 10, 100])
        inst = random_instance(rng, n, hi)
        m = min_cost_perfect_matching(inst, odd)
        assert m.cost == brute_matching(inst, odd).cost
        assert m.cost == sum(inst.cost[a][b] for a, b in m.pairs)


class TestBruteMatching:
    def test_small(self, inst4):
        m = brute_matching(inst4, [0, 1, 2, 3])
        # pairs (0,2)+(1,3) = 1+6 = 7 beats (0,1)+(2,3) = 15 and (0,3)+(1,2) = 6
        assert m.cost == 6

    def test_refuses_large(self):
        rng = random.Random(0)
        inst = random_instance(rng, 18)
        with pytest.raises(SizeRefusalError):
            brute_matching(inst, range(18))


def _cert_with_blossom():
    """A valid search certificate (w, mate, y2, blossoms) on 8 vertices
    with a positive-dual blossom."""
    rng = random.Random(1)
    while True:
        w = [list(row) for row in random_instance(rng, 8).cost]
        mate, y2, blossoms = tritsp.matching._blossom_search(w)
        if any(z > 0 for _, z in blossoms):
            return w, mate, y2, blossoms


def _negative_dual(w, mate, y2, blossoms):
    blossoms[0] = (blossoms[0][0], -1)


def _even_blossom(w, mate, y2, blossoms):
    blossoms.append(((0, 1, 2, 3), 0))


def _self_mate(w, mate, y2, blossoms):
    mate[0] = 0


def _negative_slack(w, mate, y2, blossoms):
    v = next(v for v in range(1, 8) if v != mate[0])
    w[0][v] = w[v][0] = -(10**6)


def _matched_slack(w, mate, y2, blossoms):
    v = mate[0]
    w[0][v] += 1
    w[v][0] += 1


def _open_blossom(w, mate, y2, blossoms):
    # one vertex of each of three matched pairs: no pair inside is matched,
    # and its dual only adds slack
    inside, seen = [], set()
    for u in range(8):
        if u not in seen and len(inside) < 3:
            inside.append(u)
            seen.update((u, mate[u]))
    blossoms.append((tuple(inside), 1))


def _asymmetric_cost(w, mate, y2, blossoms):
    # given the other clauses, primal = dual follows for a symmetric w; the
    # slack scan reads w[u][v] for u < v only, the primal both entries
    u = 0
    w[max(u, mate[u])][min(u, mate[u])] += 1


class TestCertificateChecks:
    """Each clause of verify_matching_certificate rejects a certificate
    that breaks it alone."""

    def test_search_certificate_passes(self):
        verify_matching_certificate(*_cert_with_blossom())

    @pytest.mark.parametrize(
        "mutate,message",
        [
            (_negative_dual, "negative blossom dual -1"),
            (_even_blossom, r"blossom over non-odd set \(0, 1, 2, 3\)"),
            (_self_mate, "mate array is not a perfect matching"),
            (_negative_slack, r"negative reduced slack -\d+ on \(0,"),
            (_matched_slack, r"matched edge \(0,\d\) has slack 2"),
            (_open_blossom, "positive-dual blossom is not fully matched inside"),
            (_asymmetric_cost, r"primal 2\*cost \d+ != dual objective \d+"),
        ],
    )
    def test_rejects_broken_clause(self, mutate, message):
        w, mate, y2, blossoms = _cert_with_blossom()
        mutate(w, mate, y2, blossoms)
        with pytest.raises(ContractViolationError, match=message):
            verify_matching_certificate(w, mate, y2, blossoms)


def ceil2d_instance(n, seed):
    """Random points in a 100000 x 100000 square, distances rounded up."""
    rng = random.Random(seed)
    pts = [(rng.randrange(100_000), rng.randrange(100_000)) for _ in range(n)]
    rows = [[0] * n for _ in range(n)]
    for a in range(n):
        xa, ya = pts[a]
        for b in range(a + 1, n):
            d2 = (xa - pts[b][0]) ** 2 + (ya - pts[b][1]) ** 2
            r = math.isqrt(d2)
            rows[a][b] = rows[b][a] = r + (r * r < d2)
    return Instance.from_rows(f"ceil2d-n{n}-s{seed}", rows)


class TestSiftedScan:
    """Large searches scan their queued rows in numpy batches between
    events; the results must equal those of the full per-edge scan."""

    def test_fingerprint_at_scale(self, monkeypatch):
        # the odd-degree vertices of a spanning tree of n = 400, as christofides
        # matches them; the fingerprint is that of the full per-edge scan
        inst = ceil2d_instance(400, 7)
        deg = Counter(v for e in rooted_msf(inst, range(inst.n), {0}).edges for v in e)
        odd = [v for v in range(inst.n) if deg[v] % 2]
        assert len(odd) == 180 >= tritsp.matching.SIFT_MIN
        for sift_min in (tritsp.matching.SIFT_MIN, len(odd) + 1):
            monkeypatch.setattr(tritsp.matching, "SIFT_MIN", sift_min)
            m = min_cost_perfect_matching(inst, odd)
            digest = hashlib.sha256(repr(m.pairs).encode()).hexdigest()[:16]
            assert (len(m.pairs), m.cost, digest) == (90, 474287, "468eb9182607ce16")

    @given(st.integers(0, 100000))
    @settings(max_examples=150)
    def test_sifted_matches_brute_force(self, seed):
        rng = random.Random(seed)
        n = rng.randint(4, 12)
        odd = rng.sample(range(n), 2 * rng.randint(1, n // 2))
        inst = random_instance(rng, n, rng.choice([1, 3, 10, 100]))
        saved = tritsp.matching.SIFT_MIN
        tritsp.matching.SIFT_MIN = 0
        try:
            m = min_cost_perfect_matching(inst, odd)
        finally:
            tritsp.matching.SIFT_MIN = saved
        assert m.cost == brute_matching(inst, odd).cost

    def test_sifted_equals_full_scan_with_ties(self, monkeypatch):
        # small cost ranges make many equal slacks, where the order of the
        # per-edge updates decides which least-slack edge is kept
        rng = random.Random(5)
        for trial in range(300):
            m = 2 * rng.randint(2, 20)
            w = [[0] * m for _ in range(m)]
            hi = rng.choice([1, 2, 3, 5, 20])
            for i in range(m):
                for j in range(i + 1, m):
                    w[i][j] = w[j][i] = rng.randint(0, hi)
            runs = []
            for sift_min in (0, 10**9):
                monkeypatch.setattr(tritsp.matching, "SIFT_MIN", sift_min)
                runs.append(tritsp.matching._blossom_search(w))
            assert runs[0] == runs[1], trial

    @pytest.mark.parametrize("sift_min", [0, 10**9])
    def test_costs_beyond_int64(self, monkeypatch, sift_min):
        # costs of 2**62 and more overflow int64 sums: the exact-int path
        monkeypatch.setattr(tritsp.matching, "SIFT_MIN", sift_min)
        rng = random.Random(11)
        for _ in range(30):
            n = rng.randint(4, 12)
            rows = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    x = rng.randint(1, 40) * 2**62 + rng.randrange(2**62)
                    rows[i][j] = rows[j][i] = x
            inst = Instance.from_rows("huge", rows)
            odd = rng.sample(range(n), 2 * rng.randint(1, n // 2))
            m = min_cost_perfect_matching(inst, odd)
            assert m.cost == brute_matching(inst, odd).cost
            assert all(type(x) is int for pair in m.pairs for x in pair)

    @pytest.mark.parametrize("scale", [2**22, 2**24, 2**28, 2**62])
    def test_batched_matches_full_scan_at_each_dtype(self, monkeypatch, scale):
        # never = 8 * top + 1 below 2**31, below 2**63 and past it: int32,
        # int64, object; at 2**24 every doubled cost fits int32 but never
        # does not, and a start dual can reach 2 * top
        rng = random.Random(scale.bit_length())
        for trial in range(10):
            m = 2 * rng.randint(2, 14)
            w = [[0] * m for _ in range(m)]
            for i in range(m):
                for j in range(i + 1, m):
                    w[i][j] = w[j][i] = rng.randint(1, 40) * scale + rng.randrange(scale)
            runs = []
            for sift_min in (0, 10**9):
                monkeypatch.setattr(tritsp.matching, "SIFT_MIN", sift_min)
                runs.append(tritsp.matching._blossom_search(w))
            assert runs[0] == runs[1], trial

    def test_batched_any_batch_size(self, monkeypatch):
        # one row per batch, and batches an event interrupts early or late
        rng = random.Random(6)
        for trial in range(60):
            m = 2 * rng.randint(2, 16)
            w = [[0] * m for _ in range(m)]
            hi = rng.choice([1, 2, 5, 20])
            for i in range(m):
                for j in range(i + 1, m):
                    w[i][j] = w[j][i] = rng.randint(0, hi)
            monkeypatch.setattr(tritsp.matching, "SIFT_MIN", 10**9)
            full = tritsp.matching._blossom_search(w)
            monkeypatch.setattr(tritsp.matching, "SIFT_MIN", 0)
            for rows in (1, 2, 5, 64):
                monkeypatch.setattr(tritsp.matching, "BATCH_ROWS", rows)
                assert tritsp.matching._blossom_search(w) == full, (trial, rows)

    @pytest.mark.parametrize(
        "seed, cost, digest",
        [(1, 1654143, "703cdec68e7d59d0"), (2, 1665574, "5aa23b9d13893caa")],
    )
    def test_christofides_fingerprint(self, seed, cost, digest):
        # the whole metric regime at n = 400: forest, batched matching, tour
        tour = christofides(ceil2d_instance(400, seed))
        got = hashlib.sha256(repr(tour.order).encode()).hexdigest()[:16]
        assert (tour.cost, got) == (cost, digest)
