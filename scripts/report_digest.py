#!/usr/bin/env python3
"""Print a digest of everything tritsp computes for each instance.

    PYTHONPATH=<tree>/src python3 scripts/report_digest.py FILE|DIR... \
        [--jobs J] [--force-pool]

One line per instance file (a directory stands for its *.json and *.tsp
files, sorted): the instance name, then sha256 digests of

- solve: repr of the SolveReport and of its `.best` layout result (which
  the report's equality leaves out), or of the exception solve raised;
- audit: repr of the TriangleAudit;
- exact: repr of the Held-Karp tour, or "-" beyond n = 18;
- saved: the native JSON bytes of the loaded instance (save_instance), so
  the digest covers loading too.

tritsp is imported from PYTHONPATH, so one copy of this script checks any
tree: run it against two trees on the same inputs and diff the outputs.
--force-pool sends every chain-regime solve with J > 1 through the
process pool, however few rings it runs.
"""

import argparse
import hashlib
import sys
from pathlib import Path

import tritsp.solver
from tritsp.instance import audit_triangles, load_instance, save_instance
from tritsp.solver import _HK_MAX, SolveOptions, held_karp, solve


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _instance_files(args):
    for arg in args:
        path = Path(arg)
        if path.is_dir():
            yield from sorted(path.glob("*.json")) + sorted(path.glob("*.tsp"))
        else:
            yield path


def digest_line(inst, opts: SolveOptions) -> str:
    try:
        report = solve(inst, opts)
        solved = repr(report) + repr(report.best)
    except Exception as exc:  # a refusal or a failed check is a result too
        solved = repr(exc)
    audit = repr(audit_triangles(inst))
    exact = repr(held_karp(inst)) if inst.n <= _HK_MAX else None
    fields = [inst.name, _digest(solved), _digest(audit)]
    fields.append("-" if exact is None else _digest(exact))
    fields.append(_digest(save_instance(inst).decode()))
    return " ".join(fields)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("inputs", nargs="+", metavar="FILE|DIR")
    parser.add_argument("--jobs", type=int, default=SolveOptions.jobs, metavar="J")
    parser.add_argument("--force-pool", action="store_true",
                        help="pool every chain-regime solve with J > 1")
    args = parser.parse_args(argv)
    if args.force_pool:
        tritsp.solver._SERIAL_MAX = 0
    opts = SolveOptions(jobs=args.jobs)
    for path in _instance_files(args.inputs):
        print(digest_line(load_instance(path), opts), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
