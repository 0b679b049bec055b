"""Command line front end.

Subcommands: audit, solve, exact, gen, bench.  Results go to stdout as
single-line JSON (stable across runs); timing and progress notes go to
stderr.  Exit codes: 0 success, 1 bad input or usage, 2 instance too
large for the requested computation.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .bench import aggregate, format_summary, format_worst, run_bench
from .errors import SizeRefusalError, TritspError
from .instance import (
    audit_triangles,
    gen_metric,
    gen_planted,
    load_instance,
    save_instance,
)
from .solver import SolveOptions, held_karp, solve


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _at_least(low: int):
    """An argparse type: an int of at least `low`, else a usage error."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in a non-int's error
    return parse


def _build_parser() -> _Parser:
    parser = _Parser(prog="tritsp")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("audit", help="list violating triangles and the bad set")
    p.add_argument("file")

    p = sub.add_parser("solve", help="approximate tour via chain layouts")
    p.add_argument("file")
    p.add_argument("--max-bad", type=_at_least(0), default=SolveOptions.max_bad, metavar="N")
    p.add_argument("--jobs", type=_at_least(1), default=SolveOptions.jobs, metavar="J")

    p = sub.add_parser("exact", help="optimal tour by dynamic programming")
    p.add_argument("file")

    p = sub.add_parser("gen", help="write a generated instance")
    kind = p.add_mutually_exclusive_group(required=True)
    kind.add_argument("--metric", action="store_true")
    kind.add_argument("--planted", action="store_true")
    p.add_argument("--bad", type=int, metavar="B",
                   help="planted bad-set size (planted only)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("-o", "--output", required=True)

    p = sub.add_parser("bench", help="solve + exact over a corpus directory")
    p.add_argument("--dir", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--max-bad", type=_at_least(0), default=SolveOptions.max_bad, metavar="N")
    p.add_argument("--jobs", type=_at_least(1), default=SolveOptions.jobs, metavar="J")
    p.add_argument("--top", type=_at_least(0), default=0, metavar="K",
                   help="also list the K instances with the worst ratio")
    return parser


def _emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, separators=(",", ":")) + "\n")


def _cmd_audit(args) -> int:
    inst = load_instance(args.file)
    audit = audit_triangles(inst)
    _emit(
        {
            "name": inst.name,
            "n": inst.n,
            "k": audit.k,
            "k_T": audit.k_t,
            "bad": list(audit.bad),
            "good": list(audit.good),
            "violating": [list(t) for t in audit.violating],
        }
    )
    return 0


def _cmd_solve(args) -> int:
    inst = load_instance(args.file)
    opts = SolveOptions(max_bad=args.max_bad, jobs=args.jobs)
    t0 = time.perf_counter()
    report = solve(inst, opts)
    elapsed = (time.perf_counter() - t0) * 1000
    _emit(
        {
            "name": inst.name,
            "n": inst.n,
            "k": report.k,
            "k_T": report.k_t,
            "cost": report.tour.cost,
            "tour": list(report.tour.order),
            "regime": report.regime,
            "layouts": report.layouts,
            "certified": report.certified,
        }
    )
    print(f"solve time: {elapsed:.1f} ms", file=sys.stderr)
    return 0


def _cmd_exact(args) -> int:
    inst = load_instance(args.file)
    t0 = time.perf_counter()
    tour = held_karp(inst)
    elapsed = (time.perf_counter() - t0) * 1000
    _emit(
        {
            "name": inst.name,
            "n": inst.n,
            "cost": tour.cost,
            "tour": list(tour.order),
        }
    )
    print(f"exact time: {elapsed:.1f} ms", file=sys.stderr)
    return 0


def _cmd_gen(args, parser: _Parser) -> int:
    if args.planted:
        if args.bad is None:
            parser.error("--planted requires --bad")
        inst = gen_planted(args.n, args.bad, args.seed)
    else:
        if args.bad is not None:
            parser.error("--bad only applies to --planted")
        inst = gen_metric(args.n, args.seed)
    data = save_instance(inst)
    with open(args.output, "wb") as fh:
        fh.write(data)
    audit = audit_triangles(inst)
    print(
        f"wrote {args.output} (n={inst.n}, k={audit.k}, bad={len(audit.bad)})",
        file=sys.stderr,
    )
    return 0


def _cmd_bench(args) -> int:
    opts = SolveOptions(max_bad=args.max_bad, jobs=args.jobs)
    rows = run_bench(args.dir, args.out, opts)
    summary = aggregate(rows)
    print(format_summary(summary))
    if args.top:
        print()
        print(format_worst(rows, args.top))
    print(
        f"time_ms p50={summary['time_p50_ms']} "
        f"p90={summary['time_p90_ms']} max={summary['time_max_ms']}",
        file=sys.stderr,
    )
    print(f"csv written to {args.out}", file=sys.stderr)
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "audit":
            return _cmd_audit(args)
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "exact":
            return _cmd_exact(args)
        if args.command == "gen":
            return _cmd_gen(args, parser)
        if args.command == "bench":
            return _cmd_bench(args)
        parser.error(f"unknown command {args.command!r}")
    except SizeRefusalError as exc:
        print(f"tritsp: {exc}", file=sys.stderr)
        return 2
    except (TritspError, OSError) as exc:
        print(f"tritsp: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
