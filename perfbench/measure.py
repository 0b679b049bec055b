"""Measuring process for one workload run, driven by run.py.

    python3 perfbench/measure.py <inputs>

It loads every instance of the workload directory and says so in one JSON
line on stdout, then reads one command per stdin line and answers each with
one JSON line:

- ``pass``: solve every instance once, serially, through ``tritsp.solve``;
  the answer holds the pass time, each solve's time and each tour;
- ``trace``: one pass with a process pool, then one serial pass with the
  public functions bound in ``tritsp.solver`` wrapped; the answer holds both
  passes' tours and the per-layer figures;
- ``end``: the answer holds the peak RSS; then the process exits.

A tour is ``[order, cost]``, or null for a solve that raised.  Nothing is
checked here: the tours go back to run.py, which holds the matrices and the
references, so this process's peak RSS (and its pool workers') is the
solver's alone.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import traceback
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

from setup_probe import ROOT, input_files

sys.path.insert(0, str(ROOT / "src"))

# names bound in tritsp.solver, wrapped and timed as one layer each
TIMED = {
    "audit_triangles": "instance.audit_triangles",
    "build_bad_cycle": "layouts.build_bad_cycle",
    "rooted_msf": "forest.rooted_msf",
    "min_cost_perfect_matching": "matching.min_cost_perfect_matching",
    "assemble_eulerian": "shortcut.assemble_eulerian",
    "repair_double_bad_edges": "shortcut.repair_double_bad_edges",
    "euler_tour": "shortcut.euler_tour",
    "splice_bad": "shortcut.splice_bad",
    "splice_good": "shortcut.splice_good",
    "graph_cost": "shortcut.cost_eval",
    "walk_cost": "shortcut.cost_eval",
}
COUNTED_METHODS = ("edges", "copy")
# pool size of the traced run's pooled pass: the cores of a 2-core machine
POOL_JOBS = 2


class Tracer:
    """Seconds and call counts per layer, collected by wrappers installed
    around the callees of tritsp.solver; spans are timed from outside, so
    a layer's time includes everything it calls."""

    def __init__(self):
        self.seconds: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.odd_vertices = 0
        self.layouts = 0
        self.end_sets = 0

    def _timed(self, key, fn):
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.seconds[key] += perf_counter() - t0
                self.calls[key] += 1

        return wrapper

    def _odd_counted(self, fn):
        def wrapper(inst, odd, *args, **kwargs):
            self.odd_vertices += len(odd)
            return fn(inst, odd, *args, **kwargs)

        return wrapper

    def _enumerate(self, fn):
        """enumerate_layouts returns a generator, so its time is the time
        spent inside each step of it."""
        key = "layouts.enumerate_layouts"

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            ends = set()

            def steps():
                try:
                    while True:
                        t0 = perf_counter()
                        try:
                            lay = next(it)
                        except StopIteration:
                            return
                        finally:
                            self.seconds[key] += perf_counter() - t0
                        self.layouts += 1
                        ends.add(frozenset(lay.ends))
                        yield lay
                finally:
                    self.end_sets += len(ends)

            return steps()

        return wrapper

    def _counted(self, key, fn):
        def wrapper(*args, **kwargs):
            self.calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextmanager
    def installed(self, solver_module, multigraph_cls):
        saved = {name: getattr(solver_module, name) for name in TIMED}
        saved["enumerate_layouts"] = solver_module.enumerate_layouts
        methods = {m: getattr(multigraph_cls, m) for m in COUNTED_METHODS}
        try:
            for name, key in TIMED.items():
                setattr(solver_module, name, self._timed(key, saved[name]))
            solver_module.min_cost_perfect_matching = self._odd_counted(
                solver_module.min_cost_perfect_matching
            )
            solver_module.enumerate_layouts = self._enumerate(saved["enumerate_layouts"])
            for m, fn in methods.items():
                setattr(multigraph_cls, m, self._counted(f"multigraph.{m}", fn))
            yield self
        finally:
            for name, fn in saved.items():
                setattr(solver_module, name, fn)
            for m, fn in methods.items():
                setattr(multigraph_cls, m, fn)


def solve_pass(tritsp, insts, jobs):
    """One solve of every instance: (wall seconds, per-solve seconds,
    reports with None for a solve that raised)."""
    opts = tritsp.SolveOptions(jobs=jobs)
    times, reps = [], []
    t_pass = perf_counter()
    for inst in insts:
        t0 = perf_counter()
        try:
            rep = tritsp.solve(inst, opts)
        except Exception:  # counted as a failed solve; the run goes on
            traceback.print_exc()
            rep = None
        times.append(perf_counter() - t0)
        reps.append(rep)
    return perf_counter() - t_pass, times, reps


def peak_rss_mb() -> float:
    kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kb / 1024


def tours(reps) -> list:
    return [rep and [list(rep.tour.order), rep.tour.cost] for rep in reps]


def traced(tritsp, files, insts, wall_s) -> dict:
    """One pooled pass, then one serial pass with the layers wrapped; their
    tours and the per-layer figures (``wall_s`` is the untraced median)."""
    import tritsp.solver
    from tritsp import MultiGraph

    pooled_s, _, pooled = solve_pass(tritsp, insts, POOL_JOBS)
    tracer = Tracer()
    load_s = 0.0
    for f in files:
        t0 = perf_counter()
        tritsp.load_instance(f)
        load_s += perf_counter() - t0
    with tracer.installed(tritsp.solver, MultiGraph):
        traced_s, traced_times, reps = solve_pass(tritsp, insts, 1)
    ok = [rep for rep in reps if rep is not None]
    layouts = sum(rep.layouts for rep in ok)
    certified = sum(rep.certified for rep in ok)

    sec, calls = tracer.seconds, tracer.calls
    match_calls = calls["matching.min_cost_perfect_matching"]
    metrics = {
        "instance.load_instance.ms": 1000 * load_s,
        "layouts.enumerate_layouts.ms": 1000 * sec["layouts.enumerate_layouts"],
        "layouts.enumerate_layouts.count": tracer.layouts,
        "layouts.end_sets": tracer.end_sets,
        "layouts.layouts_per_end_set": (
            tracer.layouts / tracer.end_sets if tracer.end_sets else 0.0
        ),
        "forest.rooted_msf.calls": calls["forest.rooted_msf"],
        "matching.min_cost_perfect_matching.calls": match_calls,
        "matching.min_cost_perfect_matching.odd_vertices_mean": (
            tracer.odd_vertices / match_calls if match_calls else 0.0
        ),
        "multigraph.edges.calls": calls["multigraph.edges"],
        "multigraph.copy.calls": calls["multigraph.copy"],
        "solver.self.ms": 1000 * (sum(traced_times) - sum(sec.values())),
        "solver.ms_per_layout": 1000 * wall_s / layouts if layouts else 0.0,
        "solver.certified_per_layout": certified / layouts if layouts else 0.0,
        "solver.pool_efficiency": wall_s / (POOL_JOBS * pooled_s),
        "trace.overhead": traced_s / wall_s,
    }
    for key in set(TIMED.values()):
        metrics[f"{key}.ms"] = 1000 * sec[key]
    return {"pooled": tours(pooled), "traced": tours(reps), "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("inputs", type=Path)
    args = parser.parse_args(argv)
    # answers go to the real stdout; anything else printed goes to stderr
    out, sys.stdout = sys.stdout, sys.stderr

    import tritsp

    files = input_files(args.inputs)
    insts = [tritsp.load_instance(f) for f in files]
    print(json.dumps({"loaded": len(insts)}), file=out, flush=True)
    walls = []
    for line in sys.stdin:
        cmd = line.strip()
        if cmd == "pass":
            wall, times, reps = solve_pass(tritsp, insts, 1)
            walls.append(wall)
            answer = {"wall_s": wall, "solve_s": times, "tours": tours(reps)}
        elif cmd == "trace":
            answer = traced(tritsp, files, insts, statistics.median(walls))
        elif cmd == "end":
            answer = {"peak_rss_mb": peak_rss_mb()}
        else:
            raise ValueError(f"unknown command {cmd!r}")
        print(json.dumps(answer), file=out, flush=True)
        if cmd == "end":
            break
    return 0


if __name__ == "__main__":
    sys.exit(main())
