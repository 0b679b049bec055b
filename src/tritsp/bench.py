"""Corpus benchmarking: solve + exact per instance, CSV rows, aggregates.

Rows carry exact integer costs and the gcd-reduced ratio so the CSV stays
reproducible byte for byte apart from the time_ms column; aggregation
groups by (n, k) and raises if any row with a known optimum breaks the
2.5 guarantee.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import astuple, dataclass
from fractions import Fraction
from pathlib import Path

from .errors import ContractViolationError
from .instance import Instance, load_instance
from .solver import _HK_MAX, SolveOptions, held_karp, solve

__all__ = [
    "ROW_FIELDS",
    "BenchRow",
    "bench_instance",
    "run_bench",
    "aggregate",
    "format_summary",
    "format_worst",
]

ROW_FIELDS = [
    "instance",
    "n",
    "k",
    "k_T",
    "alg_cost",
    "opt_cost",
    "ratio_num",
    "ratio_den",
    "layouts",
    "certified",
    "time_ms",
    "seed",
]

@dataclass(frozen=True)
class BenchRow:
    instance: str
    n: int
    k: int
    k_t: int
    alg_cost: int
    opt_cost: int | None
    ratio_num: int | None
    ratio_den: int | None
    layouts: int
    certified: int
    time_ms: int
    seed: str

    def as_record(self) -> dict[str, str]:
        """The CSV row: ROW_FIELDS lists the fields in declaration order."""
        return {
            key: "" if x is None else str(x)
            for key, x in zip(ROW_FIELDS, astuple(self))
        }


def bench_instance(
    inst: Instance, seed: str = "", opts: SolveOptions | None = None
) -> BenchRow:
    t0 = time.perf_counter()
    report = solve(inst, opts)
    elapsed = int(round((time.perf_counter() - t0) * 1000))
    opt = ratio_num = ratio_den = None
    if inst.n <= _HK_MAX:
        opt = held_karp(inst).cost
        if opt > 0:
            g = math.gcd(report.tour.cost, opt)
            ratio_num, ratio_den = report.tour.cost // g, opt // g
        elif report.tour.cost == 0:
            ratio_num, ratio_den = 0, 1
    return BenchRow(
        instance=inst.name,
        n=inst.n,
        k=report.k,
        k_t=report.k_t,
        alg_cost=report.tour.cost,
        opt_cost=opt,
        ratio_num=ratio_num,
        ratio_den=ratio_den,
        layouts=report.layouts,
        certified=report.certified,
        time_ms=elapsed,
        seed=seed,
    )


def _seed_from_name(name: str) -> str:
    # corpus files are named <stem>-s<seed>.json by the generator CLI
    stem = name.rsplit(".", 1)[0]
    tail = stem.rsplit("-s", 1)
    if len(tail) == 2 and tail[1].isdigit():
        return tail[1]
    return ""


def run_bench(
    corpus_dir, out_path, opts: SolveOptions | None = None
) -> list[BenchRow]:
    corpus = sorted(Path(corpus_dir).glob("*.json")) + sorted(
        Path(corpus_dir).glob("*.tsp")
    )
    if not corpus:
        raise ContractViolationError(f"no instances found under {corpus_dir}")
    rows = []
    for path in corpus:
        inst = load_instance(path)
        rows.append(bench_instance(inst, _seed_from_name(path.name), opts))
    with open(out_path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=ROW_FIELDS, lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow(row.as_record())
    return rows


def _percentile(sorted_vals, q: float):
    if not sorted_vals:
        return None
    idx = min(len(sorted_vals) - 1, int(math.ceil(q * len(sorted_vals))) - 1)
    return sorted_vals[max(idx, 0)]


def aggregate(rows) -> dict:
    """Group by (n, k): mean/max ratio where the optimum is known, runtime
    percentiles overall.  Raises if any row certifiably breaks 2.5x."""
    for row in rows:
        if row.opt_cost is not None and 2 * row.alg_cost > 5 * row.opt_cost:
            raise ContractViolationError(
                f"{row.instance}: 2*{row.alg_cost} > 5*{row.opt_cost}"
            )
    groups: dict[tuple[int, int], list[BenchRow]] = {}
    for row in rows:
        groups.setdefault((row.n, row.k), []).append(row)
    table = []
    for (n, k) in sorted(groups):
        rs = groups[(n, k)]
        ratios = [
            (r.alg_cost, r.opt_cost) for r in rs if r.opt_cost not in (None, 0)
        ]
        mean_ratio = max_ratio = None
        if ratios:
            mean_ratio = sum(a / o for a, o in ratios) / len(ratios)
            max_ratio = max(a / o for a, o in ratios)
        table.append(
            {
                "n": n,
                "k": k,
                "count": len(rs),
                "mean_ratio": mean_ratio,
                "max_ratio": max_ratio,
            }
        )
    times = sorted(r.time_ms for r in rows)
    return {
        "groups": table,
        "instances": len(rows),
        "time_p50_ms": _percentile(times, 0.50),
        "time_p90_ms": _percentile(times, 0.90),
        "time_max_ms": times[-1] if times else None,
    }


def format_summary(summary: dict) -> str:
    lines = [f"{'n':>4} {'k':>4} {'count':>6} {'mean_ratio':>11} {'max_ratio':>10}"]
    for g in summary["groups"]:
        mean = "-" if g["mean_ratio"] is None else f"{g['mean_ratio']:.4f}"
        mx = "-" if g["max_ratio"] is None else f"{g['max_ratio']:.4f}"
        lines.append(f"{g['n']:>4} {g['k']:>4} {g['count']:>6} {mean:>11} {mx:>10}")
    lines.append(f"instances={summary['instances']}")
    return "\n".join(lines)


def format_worst(rows, top: int) -> str:
    """The `top` rows with the largest alg/opt ratio, largest first (ties
    in row order); rows without a positive optimum are left out."""
    with_opt = [r for r in rows if r.opt_cost]
    with_opt.sort(key=lambda r: Fraction(r.alg_cost, r.opt_cost), reverse=True)
    lines = [f"worst {min(top, len(with_opt))} ratios:"]
    for r in with_opt[:top]:
        lines.append(
            f"  {r.instance}: {r.alg_cost}/{r.opt_cost} "
            f"= {r.alg_cost / r.opt_cost:.4f} (n={r.n}, k={r.k})"
        )
    return "\n".join(lines)
