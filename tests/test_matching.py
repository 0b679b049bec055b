import gc
import hashlib
import math
import random
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tritsp.matching
from tritsp.errors import ContractViolationError, SizeRefusalError
from tritsp.forest import rooted_msf
from tritsp.instance import Instance, dense_cost, int_array
from tritsp.matching import min_cost_perfect_matching, verify_matching_certificate
from tritsp.oracles import brute_matching
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

    def test_two_vertices_skip_the_search(self, monkeypatch):
        # a pair has one perfect matching, so listing it proves it least:
        # the exhaustive path returns it, and neither the search nor its
        # certificate scan runs
        least = tritsp.matching._unique_least_pairing
        listed = []

        def least_spy(w):
            listed.append(least(w))
            return listed[-1]

        def no_search(*args):
            raise AssertionError("a pair runs no search")

        monkeypatch.setattr(tritsp.matching, "_unique_least_pairing", least_spy)
        monkeypatch.setattr(tritsp.matching, "_blossom_search", no_search)
        monkeypatch.setattr(tritsp.matching, "_certificate_scan", no_search)
        rng = random.Random(4)
        for trial in range(1, 41):
            inst = random_instance(rng, 6, rng.choice([0, 1, 50, 2**70]))
            a, b = sorted(rng.sample(range(6), 2))
            m = min_cost_perfect_matching(inst, [b, a])
            assert m == brute_matching(inst, [a, b])
            assert listed == [((0, 1),)] * trial

    @pytest.mark.parametrize("candidates", [0, 10**9])
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
    def test_perfect_greedy_start_is_the_result(self, monkeypatch, candidates, w, y2):
        # the greedy start matches every vertex, so no stage runs: the
        # start's duals come back as they are, odd ones unrounded.  The
        # start reads whole rows, so lists of the pairs (2i, 2i + 1) alone
        # give the same start as lists of every partner.
        monkeypatch.setattr(tritsp.matching, "CANDIDATES", candidates)
        cand = tritsp.matching._candidate_lists(w)
        assert tritsp.matching._blossom_search(w, cand) == ([1, 0, 3, 2], y2, [])

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
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tritsp.matching, "EXHAUSTIVE", 0)  # search every set
            assert min_cost_perfect_matching(inst, odd).cost == brute_matching(inst, odd).cost

    def test_forces_blossom(self, monkeypatch):
        # triangle of cheap edges plus three satellites: any perfect
        # matching must leave the odd cycle, exercising blossom handling
        # in a search that six vertices would otherwise skip
        monkeypatch.setattr(tritsp.matching, "EXHAUSTIVE", 0)
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


def _without_pair(inst, a, b):
    """`inst` with the pair (a, b) dearer than any matching without it."""
    rows = [list(row) for row in inst.cost]
    rows[a][b] = rows[b][a] = sum(map(sum, rows)) + 1
    return Instance.from_rows(inst.name, rows)


class TestExhaustive:
    """Odd sets of at most EXHAUSTIVE vertices list every perfect matching:
    a unique least one is returned with no search, a tie takes the search."""

    def test_tables_list_every_matching(self):
        assert tritsp.matching.EXHAUSTIVE == 8
        for m, count in [(2, 1), (4, 3), (6, 15), (8, 105)]:
            table, columns = tritsp.matching._table(m)
            assert len(table) == count and len(columns) == m // 2
            assert tritsp.matching._table(m)[0] is table  # built once

    @pytest.mark.parametrize("m", [4, 6, 8])
    def test_table_check_rejects_a_bad_table(self, m):
        table = tritsp.matching._table(m)[0]
        check = tritsp.matching._checked_table
        assert check(m, table) is table
        with pytest.raises(ContractViolationError, match="misses"):
            check(m, table[1:])
        with pytest.raises(ContractViolationError, match="repeats"):
            check(m, table[:-1] + table[:1])
        # the first matching again, its pairs reversed, in place of the last
        # one: distinct tuples, the right count, one matching twice
        with pytest.raises(ContractViolationError, match="in order"):
            check(m, table[:-1] + (table[0][::-1],))
        with pytest.raises(ContractViolationError, match="not a perfect matching"):
            check(m, (((0, 1), (1, 2)) + table[0][2:],) + table[1:])

    @given(st.integers(0, 100000))
    @settings(max_examples=200)
    def test_equals_brute_force(self, seed):
        # sets of 2-8 vertices, 0-1 tie-heavy costs among them: a least
        # matching that every matching leaving out one of its pairs costs
        # more than is unique, is brute_matching's and takes no search; a
        # tied one takes one search
        rng = random.Random(seed)
        m = 2 * rng.randint(1, tritsp.matching.EXHAUSTIVE // 2)
        n = rng.randint(m, m + 3)
        odd = rng.sample(range(n), m)
        if rng.random() < 0.3:
            zeros = rng.choice([0.05, 0.2, 0.5])
            rows = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    rows[i][j] = rows[j][i] = int(rng.random() >= zeros)
            inst = Instance.from_rows(f"zo{seed}", rows)
        else:
            inst = random_instance(rng, n, rng.choice([1, 3, 10, 100, 2**70]))
        search = tritsp.matching._priced_search
        searched = []

        def spy(w, sub=None):
            searched.append(len(w))
            return search(w, sub)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tritsp.matching, "_priced_search", spy)
            got = min_cost_perfect_matching(inst, odd)
        best = brute_matching(inst, odd)
        runner_up = min(brute_matching(_without_pair(inst, a, b), odd).cost for a, b in best.pairs)
        assert got.cost == best.cost <= runner_up
        if runner_up > best.cost:
            assert got == best and searched == []
        else:
            assert searched == [m]

    def test_a_tie_returns_the_search_result(self, monkeypatch):
        # every pair costs 7, so all 15 matchings of six vertices are
        # least: one search runs, and its matching is the one returned
        search = tritsp.matching._priced_search
        results = []

        def spy(w, sub=None):
            results.append(search(w, sub))
            return results[-1]

        monkeypatch.setattr(tritsp.matching, "_priced_search", spy)
        inst = Instance.from_rows("flat", [[7 * (i != j) for j in range(8)] for i in range(8)])
        odd = [1, 2, 4, 5, 6, 7]
        m = min_cost_perfect_matching(inst, odd)
        assert len(results) == 1
        mate = results[0][0]
        assert m.pairs == tuple((odd[i], odd[mate[i]]) for i in range(6) if i < mate[i])
        assert m.cost == 21

    def test_ten_vertices_take_the_search(self, monkeypatch):
        least = tritsp.matching._unique_least_pairing
        search = tritsp.matching._priced_search
        listed, searched = [], []

        def least_spy(w):
            listed.append(len(w))
            return least(w)

        def search_spy(w, sub=None):
            searched.append(len(w))
            return search(w, sub)

        monkeypatch.setattr(tritsp.matching, "_unique_least_pairing", least_spy)
        monkeypatch.setattr(tritsp.matching, "_priced_search", search_spy)
        rng = random.Random(10)
        inst = random_instance(rng, 12)
        assert min_cost_perfect_matching(inst, range(8)).cost == brute_matching(inst, range(8)).cost
        assert listed == [8]
        m = min_cost_perfect_matching(inst, range(10))
        assert m.cost == brute_matching(inst, range(10)).cost
        assert listed == [8] and searched[-1] == 10


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
        mate, y2, blossoms = tritsp.matching._blossom_search(w, [range(8)] * 8)
        if any(z > 0 for _, z in blossoms):
            return w, mate, y2, blossoms


def _negative_dual(w, mate, y2, blossoms):
    blossoms[0] = (blossoms[0][0], -1)


def _even_blossom(w, mate, y2, blossoms):
    blossoms.append(((0, 1, 2, 3), 0))


def _self_mate(w, mate, y2, blossoms):
    mate[0] = 0


def _mate_beyond_m(w, mate, y2, blossoms):
    # vertex 0 is checked before its partner, so its own entry is read first
    mate[0] = 8


def _short_mate(w, mate, y2, blossoms):
    mate.pop()


def _short_duals(w, mate, y2, blossoms):
    y2.pop()


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


def _member_beyond_m(w, mate, y2, blossoms):
    blossoms.append(((0, 1, 8), 0))


def _negative_member(w, mate, y2, blossoms):
    # -1 indexes vertex 7 from the end of a list
    blossoms.append(((-1, 0, 1), 0))


def _repeated_member(w, mate, y2, blossoms):
    # three entries, two vertices: odd in length only
    blossoms.append(((0, 0, 1), 0))


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
            (_mate_beyond_m, "mate array is not a perfect matching"),
            (_short_mate, "mate and y2 need 8 entries, one per vertex"),
            (_short_duals, "mate and y2 need 8 entries, one per vertex"),
            (_member_beyond_m, r"blossom \(0, 1, 8\) has a member outside 0..7"),
            (_negative_member, r"blossom \(-1, 0, 1\) has a member outside 0..7"),
            (_repeated_member, r"blossom \(0, 0, 1\) repeats a member"),
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


def _symmetric(m, draw):
    w = [[0] * m for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            w[i][j] = w[j][i] = draw()
    return w


def tie_matrices(seed, trials, half_max, his):
    """Small cost ranges make many equal slacks, where the order of the
    per-edge updates decides which least-slack edge is kept."""
    rng = random.Random(seed)
    out = []
    for _ in range(trials):
        m = 2 * rng.randint(2, half_max)
        hi = rng.choice(his)
        out.append(_symmetric(m, lambda: rng.randint(0, hi)))
    return out


def scaled_matrices(scale):
    """Costs of 40 magnitudes of `scale`; at 2**62 they are exact ints
    past int64."""
    rng = random.Random(scale.bit_length())
    out = []
    for _ in range(10):
        m = 2 * rng.randint(2, 14)
        out.append(_symmetric(m, lambda: rng.randint(1, 40) * scale + rng.randrange(scale)))
    return out


def full_and_sifted(monkeypatch, ws, candidates):
    """Each matrix's full-list search and the certified cost of its search
    on candidate lists of `candidates` partners, checked equal to the full
    search's cost; the full results are returned."""
    full = [tritsp.matching._blossom_search(w, [range(len(w))] * len(w)) for w in ws]
    monkeypatch.setattr(tritsp.matching, "CANDIDATES", candidates)
    for trial, (w, (mate, _, _)) in enumerate(zip(ws, full)):
        sifted = tritsp.matching._priced_search(w)
        verify_matching_certificate(w, *sifted)
        cost = sum(w[i][mate[i]] for i in range(len(w)))
        assert sum(w[i][sifted[0][i]] for i in range(len(w))) == cost, (trial, candidates)
        if len(w) - 1 <= candidates:
            # every pair is a candidate: the full search itself
            assert sifted == full[trial], (trial, candidates)
    return full


def results_digest(results):
    return hashlib.sha256(repr(results).encode()).hexdigest()[:16]


def two_clusters():
    """Two clusters of 17 vertices, 1 apart inside and 100 across, except
    one pair 50 apart: every vertex's 15 cheapest partners lie in its own
    cluster, so the candidate lists cross only at the pair (16, 17), while
    the minimum matching crosses at the cheap pair (0, 33)."""
    m = 34
    rows = [[0 if i == j else 1 if (i < 17) == (j < 17) else 100 for j in range(m)]
            for i in range(m)]
    rows[0][33] = rows[33][0] = 50
    return Instance.from_rows("two-clusters", rows)


class TestSiftedScan:
    """Odd sets of more than CANDIDATES + 1 vertices are searched on sifted
    candidate lists, then every pair is priced against the duals and the
    negative ones join the lists for another search; smaller ones scan
    every edge."""

    def test_fingerprint_at_scale(self):
        # the odd-degree vertices of a spanning tree of n = 400, as christofides
        # matches them; the fingerprint was recorded from the full per-edge
        # scan, and the candidate lists need one round to reproduce it
        inst = ceil2d_instance(400, 7)
        deg = Counter(v for e in rooted_msf(inst, range(inst.n), {0}).edges for v in e)
        odd = [v for v in range(inst.n) if deg[v] % 2]
        assert len(odd) == 180 > tritsp.matching.CANDIDATES + 1
        m = min_cost_perfect_matching(inst, odd)
        digest = hashlib.sha256(repr(m.pairs).encode()).hexdigest()[:16]
        assert (len(m.pairs), m.cost, digest) == (90, 474287, "468eb9182607ce16")

    @given(st.integers(0, 100000))
    @settings(max_examples=150)
    def test_sifted_matches_brute_force(self, seed):
        # lists of 1, 2 or 4 partners leave out most pairs, so pricing
        # rounds repair what the first search missed
        rng = random.Random(seed)
        n = rng.randint(4, 14)
        odd = rng.sample(range(n), 2 * rng.randint(1, n // 2))
        inst = random_instance(rng, n, rng.choice([1, 3, 10, 100]))
        expect = brute_matching(inst, odd).cost
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tritsp.matching, "EXHAUSTIVE", 0)  # search every set
            for candidates in (1, 2, 4):
                mp.setattr(tritsp.matching, "CANDIDATES", candidates)
                assert min_cost_perfect_matching(inst, odd).cost == expect

    # Full lists, where every vertex scans every partner, are the per-edge
    # search trajectory for trajectory: each digest of (mate, y2, blossoms)
    # below was recorded from the per-edge search (and equals that of the
    # numpy batched scan it once shared the work with).

    def test_sifted_equals_full_scan_with_ties(self, monkeypatch):
        ws = tie_matrices(5, 300, 20, [1, 2, 3, 5, 20])
        for candidates in (2, tritsp.matching.CANDIDATES):
            full = full_and_sifted(monkeypatch, ws, candidates)
        assert results_digest(full) == "0e6b10a39afa8f39"

    @pytest.mark.parametrize("scale", [2**22, 2**24, 2**28, 2**62])
    def test_batched_matches_full_scan_at_each_dtype(self, monkeypatch, scale):
        # scales whose doubled costs, sums and duals fit int32, fit int64
        # and pass it: every search stays in exact ints
        ws = scaled_matrices(scale)
        for candidates in (0, 4):
            full = full_and_sifted(monkeypatch, ws, candidates)
        assert all(type(y) is int for _, y2, _ in full for y in y2)
        digest = {
            2**22: "84fcb535044d45fa",
            2**24: "cddfff3de3e1eb5d",
            2**28: "d22bc6e01c3a8e6e",
            2**62: "1338a1583ddd3eb2",
        }[scale]
        assert results_digest(full) == digest

    def test_batched_any_batch_size(self, monkeypatch):
        # lists of one partner, of a few, and of every partner
        ws = tie_matrices(6, 60, 16, [1, 2, 5, 20])
        for candidates in (1, 2, 5, 64):
            full = full_and_sifted(monkeypatch, ws, candidates)
        assert results_digest(full) == "9ea57f287b866b6e"

    @pytest.mark.parametrize("candidates", [0, 10**9])
    def test_costs_beyond_int64(self, monkeypatch, candidates):
        # costs of 2**62 and more are exact ints, on lists of the pairs
        # (2i, 2i + 1) alone, repaired by pricing, and on full lists, in a
        # search of every set
        monkeypatch.setattr(tritsp.matching, "CANDIDATES", candidates)
        monkeypatch.setattr(tritsp.matching, "EXHAUSTIVE", 0)
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

    def test_second_pricing_round(self, monkeypatch):
        # the first search's duals price the pair (0, 33) negative; the
        # second search, with it on the lists, finds the minimum.  The
        # matching runs as a solve runs it, on the numpy cost matrix
        search = tritsp.matching._blossom_search
        lists = []

        def spy(w, cand, sub=None):
            assert sub is not None  # the dense path
            lists.append([list(vs) for vs in cand])
            return search(w, cand, sub)

        monkeypatch.setattr(tritsp.matching, "_blossom_search", spy)
        inst = two_clusters()
        m = min_cost_perfect_matching(inst, range(inst.n), _dense=dense_cost(inst))
        assert m.cost == 16 * 1 + 50 and (0, 33) in m.pairs
        assert len(lists) == 2
        assert 33 not in lists[0][0] and 33 in lists[1][0]

    def test_one_certificate_scan_per_round(self, monkeypatch):
        # pricing is the certificate's scan: two rounds, two scans, the
        # first returning (0, 33) and the last none
        search = tritsp.matching._blossom_search
        scan = tritsp.matching._certificate_scan
        rounds, found = [], []

        def search_spy(w, cand, sub=None):
            rounds.append(search(w, cand, sub))
            return rounds[-1]

        def scan_spy(w, mate, y2, blossoms, negative, sub=None):
            found.append(scan(w, mate, y2, blossoms, negative, sub))
            dense.append(sub is not None)
            return found[-1]

        monkeypatch.setattr(tritsp.matching, "_blossom_search", search_spy)
        monkeypatch.setattr(tritsp.matching, "_certificate_scan", scan_spy)
        inst = two_clusters()
        dense = []
        m = min_cost_perfect_matching(inst, range(inst.n), _dense=dense_cost(inst))
        assert dense == [True, True]  # both scans on the array, as in a solve
        assert len(rounds) == len(found) == 2
        assert (0, 33) in found[0] and found[1] == []
        assert m.cost == 16 * 1 + 50
        verify_matching_certificate([list(row) for row in inst.cost], *rounds[1])

    def test_negative_candidate_pair_raises(self, monkeypatch):
        # a search whose duals leave a pair it scanned negative broke its
        # own invariant: pricing raises before adding it to the lists
        search = tritsp.matching._blossom_search

        def raised(w, cand, *rest):
            mate, y2, blossoms = search(w, cand, *rest)
            y2[0] += 10**6
            return mate, y2, blossoms

        monkeypatch.setattr(tritsp.matching, "_blossom_search", raised)
        inst = ceil2d_instance(40, 3)
        # on Python lists and on the numpy cost matrix
        for dense in (None, dense_cost(inst)):
            with pytest.raises(ContractViolationError, match=r"candidate pair \(0,\d+\) prices negative"):
                min_cost_perfect_matching(inst, range(40), _dense=dense)

    @pytest.mark.parametrize(
        "seed, cost, digest",
        [(1, 1654143, "703cdec68e7d59d0"), (2, 1665574, "5aa23b9d13893caa")],
    )
    def test_christofides_fingerprint(self, seed, cost, digest):
        # the whole metric regime at n = 400: forest, priced matching, tour
        tour = christofides(ceil2d_instance(400, seed))
        got = hashlib.sha256(repr(tour.order).encode()).hexdigest()[:16]
        assert (tour.cost, got) == (cost, digest)


def dense_and_pure(monkeypatch, ws, candidates):
    """Each matrix's priced search on Python lists and on its numpy array
    (int_array of twice the largest cost, as dense_cost converts it), with
    every search round and certificate scan of both recorded; checked
    equal, round by round.  Returns the dtypes of the arrays."""
    monkeypatch.setattr(tritsp.matching, "CANDIDATES", candidates)
    search = tritsp.matching._blossom_search
    scan = tritsp.matching._certificate_scan
    seen = []

    def search_spy(w, cand, sub=None):
        seen.append((sub is not None, "search", search(w, cand, sub)))
        return seen[-1][-1]

    def scan_spy(w, mate, y2, blossoms, negative, sub=None):
        seen.append((sub is not None, "scan", scan(w, mate, y2, blossoms, negative, sub)))
        return seen[-1][-1]

    monkeypatch.setattr(tritsp.matching, "_blossom_search", search_spy)
    monkeypatch.setattr(tritsp.matching, "_certificate_scan", scan_spy)
    dtypes = set()
    for trial, w in enumerate(ws):
        sub = int_array(w, 2 * max(map(max, w)))
        dtypes.add(sub.dtype)
        seen.clear()
        pure = tritsp.matching._priced_search(w)
        pure_steps = [step for _, *step in seen]
        seen.clear()
        dense = tritsp.matching._priced_search(w, sub)
        if len(w) > candidates + 1:
            assert all(on_array for on_array, *_ in seen), trial
        assert dense == pure, (trial, candidates)
        assert [step for _, *step in seen] == pure_steps, (trial, candidates)
    return dtypes


class TestDenseSteps:
    """From a solve's numpy cost matrix, an odd set of more than CANDIDATES
    + 1 vertices takes its candidate lists, jump start and pricing scans
    from the array; every round gives what the Python lists give."""

    def test_equal_with_ties(self, monkeypatch):
        ws = tie_matrices(5, 300, 20, [1, 2, 3, 5, 20])
        for candidates in (0, 2, tritsp.matching.CANDIDATES):
            dense_and_pure(monkeypatch, ws, candidates)

    @pytest.mark.parametrize(
        "scale, dtype",
        [(2**22, np.int32), (2**24, np.int32), (2**28, np.int64), (2**62, object)],
    )
    def test_equal_at_each_dtype(self, monkeypatch, scale, dtype):
        for candidates in (0, 4):
            dtypes = dense_and_pure(monkeypatch, scaled_matrices(scale), candidates)
            assert dtypes == {np.dtype(dtype)}

    def test_equal_over_two_pricing_rounds(self, monkeypatch):
        # two_clusters needs a second round: the dense path prices (0, 33)
        # negative in the same first scan and repeats the same second search
        w = [list(row) for row in two_clusters().cost]
        scans = []
        scan = tritsp.matching._certificate_scan

        def counting(w, mate, y2, blossoms, negative, sub=None):
            scans.append(scan(w, mate, y2, blossoms, negative, sub))
            return scans[-1]

        monkeypatch.setattr(tritsp.matching, "_certificate_scan", counting)
        dense_and_pure(monkeypatch, [w], tritsp.matching.CANDIDATES)
        assert len(scans) == 4 and scans[0] == scans[2] and (0, 33) in scans[2]

    def test_scan_raises_as_the_python_scan(self):
        # broken duals: the array scan lists the same negative pairs and
        # raises the same first violation, listing or not
        rng = random.Random(8)
        kinds = set()
        for trial in range(60):
            hi = rng.choice([3, 50])
            w = _symmetric(2 * rng.randint(9, 14), lambda: rng.randint(0, hi))
            sub = int_array(w, 2 * max(map(max, w)))
            mate, y2, blossoms = tritsp.matching._priced_search(w, sub)
            y2 = list(y2)
            y2[rng.randrange(len(w))] += rng.choice([-4, -2, 2, 6, 40])
            for listing in (False, True):
                got = []
                for arr in (None, sub):
                    try:
                        negative = [] if listing else None
                        got.append(tritsp.matching._certificate_scan(
                            w, mate, y2, blossoms, negative, arr))
                    except ContractViolationError as exc:
                        got.append(str(exc))
                assert got[0] == got[1], (trial, listing)
                if isinstance(got[0], list):
                    kinds.add("listed" if got[0] else "passed")
                else:
                    kinds.add(got[0].split()[0])
        assert {"listed", "matched", "negative"} <= kinds


def test_search_leaves_no_cyclic_garbage():
    # the search's state is freed when it returns, so a run's peak memory
    # does not wait on the cyclic garbage collector
    inst = ceil2d_instance(60, 1)
    gc.collect()
    gc.disable()
    try:
        min_cost_perfect_matching(inst, range(60))
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_numpy_stays_unloaded():
    # a candidate-list matching and small planted and metric solves (n <
    # 16, below the numpy audit) run in pure Python
    code = """
import random, sys
from tritsp.instance import Instance, gen_metric, gen_planted
from tritsp.matching import CANDIDATES, min_cost_perfect_matching
from tritsp.solver import solve
rng = random.Random(2)
rows = [[0] * 40 for _ in range(40)]
for i in range(40):
    for j in range(i + 1, 40):
        rows[i][j] = rows[j][i] = rng.randint(1, 1000)
assert 40 - 1 > CANDIDATES
min_cost_perfect_matching(Instance.from_rows("r40", rows), range(40))
solve(gen_planted(12, 5, 1))
assert solve(gen_metric(12, 1)).regime == "metric"
print("numpy" in sys.modules)
"""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout == "False\n"
