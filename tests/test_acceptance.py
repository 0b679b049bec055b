"""End-to-end acceptance: every release-gating property in one place.

Each test prints one PASS line with the measured numbers so a full run
reads as a checklist.  The planted corpus (300 instances, bad-set sizes
3..6, n between 6 and 12) is built once per session and shared.
"""

import hashlib
import json
import random
import subprocess
import sys
import time

from tritsp.forest import rooted_msf
from tritsp.instance import Instance, audit_triangles, gen_metric, gen_planted
from tritsp.matching import min_cost_perfect_matching
from tritsp.oracles import brute_matching, brute_msf_cost, held_karp, oracle_bounds
from tritsp.solver import SolveOptions, _forest_groups, christofides, solve

from test_ring_walk import _reference_shard


def _announce(label, detail):
    print(f"\nPASS {label}: {detail}")


def test_corpus_guarantee(solved_corpus, corpus_mix):
    """2 * c(solve) <= 5 * c(opt) exactly, across the whole corpus."""
    assert len(solved_corpus) >= 300
    sizes = {inst.n for inst, _, _ in solved_corpus}
    assert sizes <= set(range(6, 13))
    by_bad = {}
    worst = 0.0
    for inst, rep, opt in solved_corpus:
        assert 2 * rep.tour.cost <= 5 * opt.cost, inst.name
        by_bad[rep.k_t] = by_bad.get(rep.k_t, 0) + 1
        if opt.cost:
            worst = max(worst, rep.tour.cost / opt.cost)
    assert by_bad == corpus_mix
    assert solved_corpus.seconds < 600
    _announce(
        "approximation guarantee",
        f"{len(solved_corpus)} planted instances, mix {by_bad}, "
        f"worst ratio {worst:.4f}, solved+verified in {solved_corpus.seconds:.1f}s",
    )


def test_corpus_reports_fingerprint(solved_corpus):
    """Every corpus report, best layout included, hashes to the recorded
    digest: a change meant to keep the solver's output keeps it, and a
    deliberate output change records a new one."""
    digest = hashlib.sha256()
    for _, rep, _ in solved_corpus:
        digest.update((repr(rep) + repr(rep.best)).encode())
    assert digest.hexdigest() == (
        "f6e0b886a407f7f1d496de97dc549da656b9c3c0edfb29e5b322d90232a9bd2e"
    )
    _announce("report fingerprint", f"{len(solved_corpus)} reports, sha256 unchanged")


def test_corpus_bounds(solved_corpus):
    """Intermediate cost bounds hold on the layout extracted from OPT, and
    every report, witness numbers included, hashes to the recorded digest."""
    failures = []
    digest = hashlib.sha256()
    for inst, _, opt in solved_corpus:
        report = oracle_bounds(inst, opt)
        digest.update(repr(report).encode())
        if not report.passed:
            failures.append((inst.name, report.failures()))
    assert not failures, failures
    assert digest.hexdigest() == (
        "ddd863e66517e1701dfad50427026330ceecf37f6b02780f2302d72c3a038b24"
    )
    _announce(
        "optimal-layout bounds",
        f"{len(solved_corpus)} instances, 0 failures, sha256 unchanged",
    )


def test_matching_against_brute_force():
    """Blossom matching equals the subset-DP optimum on random graphs."""
    rng = random.Random(90125)
    checked = 0
    for _ in range(500):
        n = rng.randint(4, 14)
        odd = rng.sample(range(n), 2 * rng.randint(1, min(6, n // 2)))
        hi = rng.choice([1, 5, 50, 10**5])
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                rows[i][j] = rows[j][i] = rng.randint(0, hi)
        inst = Instance(f"pm{checked}", tuple(tuple(r) for r in rows))
        got = min_cost_perfect_matching(inst, odd)
        assert got.cost == brute_matching(inst, odd).cost
        checked += 1
    _announce("matching oracle", f"{checked} random graphs, |odd| <= 12")


def test_forest_against_brute_force():
    """Rooted forest equals exhaustive tree enumeration after contraction."""
    rng = random.Random(80111)
    checked = 0
    while checked < 200:
        n = rng.randint(3, 8)
        roots = set(rng.sample(range(n), rng.randint(1, 3)))
        if n - len(roots) + 1 > 8:
            continue
        hi = rng.choice([3, 20, 10**4])
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                rows[i][j] = rows[j][i] = rng.randint(0, hi)
        inst = Instance(f"fm{checked}", tuple(tuple(r) for r in rows))
        f = rooted_msf(inst, range(n), roots)
        assert f.cost == brute_msf_cost(inst, range(n), roots)
        checked += 1
    _announce("forest oracle", f"{checked} random graphs, 1-3 roots")


def test_shortcut_safety(solved_corpus):
    """On every ring of every solve the walk cost never increases step to
    step and the final walk is a permutation of the vertices: the solver
    proves both and checks its winner, and the test-side reference walk
    (`test_ring_walk._reference_shard`) re-runs and checks every ring.  The
    layouts that walk counts one by one check the formula solve reports."""
    for inst, rep, _ in solved_corpus:
        assert rep.certified == rep.layouts, inst.name
        assert rep.steps_monotone, inst.name
        assert rep.tours_hamiltonian, inst.name
        audit = audit_triangles(inst)
        best, layouts = _reference_shard(inst, audit, _forest_groups(inst, audit))
        assert (best[1], layouts) == (rep.best, rep.layouts), inst.name
    _announce(
        "shortcut safety",
        f"{sum(r.layouts for _, r, _ in solved_corpus)} certified layout "
        "evaluations, every ring re-run and checked cost-monotone and Hamiltonian",
    )


def test_metric_baseline():
    """Tree-plus-matching stays within 1.5x of optimum on metric inputs."""
    checked = 0
    for seed in range(100):
        n = 6 + seed % 9  # 6..14
        inst = gen_metric(n, seed=seed)
        tour = christofides(inst)
        opt = held_karp(inst)
        assert sorted(tour.order) == list(range(n))
        assert 2 * tour.cost <= 3 * opt.cost, seed
        checked += 1
    _announce("metric baseline", f"{checked} generated metrics, n up to 14")


def test_cli_contract(data_dir, tmp_path):
    """Frozen outputs for the two reference instances; byte-stable stdout."""

    def run(*args):
        return subprocess.run(
            [sys.executable, "-m", "tritsp", *args], capture_output=True, text=True
        )

    first = run("solve", f"{data_dir}/inst4.json")
    second = run("solve", f"{data_dir}/inst4.json")
    assert first.returncode == 0
    assert first.stdout == second.stdout
    payload = json.loads(first.stdout)
    assert payload["cost"] == 13
    assert payload["tour"] == [0, 2, 1, 3]

    sq = run("solve", f"{data_dir}/sq4.json")
    assert json.loads(sq.stdout)["cost"] == 8

    exact = run("exact", f"{data_dir}/inst4.json")
    assert json.loads(exact.stdout)["cost"] == 13
    _announce("cli contract", "INST4 cost 13, SQ4 cost 8, stdout byte-stable")


def _report_sha(rep) -> str:
    return hashlib.sha256((repr(rep) + repr(rep.best)).encode()).hexdigest()


def test_metric_n60_report_pinned():
    """gen_metric(60, 1) goes through the numpy audit, the numpy Prim and a
    matching of more than 16 odd vertices on the solve's one array."""
    rep = solve(gen_metric(60, 1), SolveOptions(jobs=1))
    assert (rep.regime, rep.tour.cost) == ("metric", 749998)
    assert _report_sha(rep) == (
        "62d4ed9e866bce60eaad1c186d7d9743fa43a444d79f2e54c93de8a4b8d71c07"
    )


def test_runtime_budget():
    """A 30-vertex instance with six bad vertices solves in under a minute
    single-threaded (3840 layouts)."""
    inst = gen_planted(30, 6, seed=900)
    audit = audit_triangles(inst)
    assert audit.k_t == 6
    t0 = time.perf_counter()
    rep = solve(inst, SolveOptions(jobs=1))
    elapsed = time.perf_counter() - t0
    assert rep.layouts == 3840
    assert elapsed < 60
    assert rep.tour.cost > 0
    # the chains regime through the numpy audit and Prim (n >= 24), pinned
    # whole: report and winning layout
    assert _report_sha(rep) == (
        "b730ea9b14dafe4f19681003a29d4af88138c402a61329e347acba1972567573"
    )
    _announce(
        "runtime budget",
        f"n=30, 3840 layouts in {elapsed:.1f}s, cost {rep.tour.cost}",
    )
