"""Self-tests of the benchmark's checkers against brute-force enumeration on
instances with n <= 8.  Run with ``python3 -m pytest perfbench``."""

import itertools
import random

import pytest

from reference import check_tour, held_karp_cost, is_metric, mst_cost, tour_cost
from workloads import ceil2d_matrix


def random_matrix(n, rng, hi=100):
    c = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            c[i][j] = c[j][i] = rng.randint(1, hi)
    return c


def brute_opt(c):
    n = len(c)
    return min(
        tour_cost(c, (0,) + perm) for perm in itertools.permutations(range(1, n))
    )


def brute_mst(c):
    n = len(c)
    edges = list(itertools.combinations(range(n), 2))
    best = None
    for tree in itertools.combinations(edges, n - 1):
        comp = list(range(n))

        def find(x):
            while comp[x] != x:
                x = comp[x]
            return x

        ok = True
        for a, b in tree:
            ra, rb = find(a), find(b)
            if ra == rb:
                ok = False
                break
            comp[ra] = rb
        if ok:
            w = sum(c[a][b] for a, b in tree)
            best = w if best is None else min(best, w)
    return best


def brute_metric(c):
    n = len(c)
    return all(
        c[i][j] <= c[i][k] + c[k][j]
        for i in range(n)
        for j in range(n)
        for k in range(n)
    )


@pytest.mark.parametrize("n", range(2, 9))
def test_held_karp_matches_enumeration(n):
    rng = random.Random(n)
    for _ in range(5):
        c = random_matrix(n, rng)
        assert held_karp_cost(c) == brute_opt(c)


@pytest.mark.parametrize("n", range(2, 8))
def test_mst_matches_enumeration(n):
    rng = random.Random(100 + n)
    for _ in range(3):
        c = random_matrix(n, rng)
        assert mst_cost(c) == brute_mst(c)


@pytest.mark.parametrize("n", range(3, 9))
def test_metric_scan_matches_enumeration(n):
    rng = random.Random(200 + n)
    for hi in (3, 100):
        for _ in range(10):
            c = random_matrix(n, rng, hi)
            assert is_metric(c) == brute_metric(c)


def test_ceil2d_is_metric():
    for seed in range(5):
        assert brute_metric(ceil2d_matrix(8, seed))
        assert is_metric(ceil2d_matrix(60, seed))


def test_check_tour_verdicts():
    rng = random.Random(7)
    c = random_matrix(7, rng)
    opt = brute_opt(c)
    ref = {"opt": opt}
    tours = [(0,) + p for p in itertools.permutations(range(1, 7))]
    for t in tours[:200]:
        cost = tour_cost(c, t)
        fails = check_tour(c, t, cost, ref)
        assert (fails == []) == (2 * cost <= 5 * opt)
    best = min(tours, key=lambda t: tour_cost(c, t))
    assert check_tour(c, best, opt, ref) == []
    assert check_tour(c, best, opt + 1, ref)
    assert check_tour(c, best[:-1], opt, ref)
    assert check_tour(c, best[:-1] + (0,), opt, ref)
    assert check_tour(c, best, opt, {"opt": opt + 1})


def test_check_tour_mst_bound():
    c = ceil2d_matrix(8, 3)
    mst = brute_mst(c)
    best = min(
        ((0,) + p for p in itertools.permutations(range(1, 8))),
        key=lambda t: tour_cost(c, t),
    )
    cost = tour_cost(c, best)
    assert check_tour(c, best, cost, {"mst": mst, "metric": True}) == []
    assert check_tour(c, best, cost, {"mst": mst, "metric": False})
    assert check_tour(c, best, cost, {"mst": cost + 1, "metric": True})
