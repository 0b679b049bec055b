"""tritsp benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Writes the workload's inputs for the seed under perfbench/.work/ and
computes their references, then drives a separate measuring process
(measure.py) through whole solve passes for about S seconds.  After every
pass it times set-up (import tritsp + load every input) in fresh
interpreters (setup_probe.py), so set-up samples spread over the same
window as the passes.  Every returned tour is checked here (reference.py).
The last stdout line holds ``correct``, ``attempted``, ``failed`` and the
end-to-end metrics of BENCHMARK.json (or its per-layer ones with
--trace 1), each with its unit.  See README.md for what each number means.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS_PER_PASS = 3
# a run must end within 180 s; a traced metric-ceil-n400 run is the longest
# (untraced rounds, a jobs=2 pass, a traced pass): about 100 s on 2 cores
MEASURE_TIMEOUT_S = 165
SETUP_TIMEOUT_S = 30


class Measurer:
    """The measuring process: one command per line in, one JSON line out.
    It is killed when MEASURE_TIMEOUT_S runs out or the run ends early."""

    def __init__(self, inputs: Path):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "measure.py"), str(inputs)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        self.watchdog = threading.Timer(MEASURE_TIMEOUT_S, self.proc.kill)
        self.watchdog.daemon = True
        self.watchdog.start()
        try:
            self.read("start")
        except BaseException:
            self.close()
            raise

    def read(self, cmd: str) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"measuring process ended during {cmd!r}")
        return json.loads(line)

    def ask(self, cmd: str) -> dict:
        self.proc.stdin.write(cmd + "\n")
        self.proc.stdin.flush()
        return self.read(cmd)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def close(self):
        self.watchdog.cancel()
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()


class Tally:
    """Solves attempted and failed: a solve fails when it raised or its tour
    fails a check; every failure is reported on stderr."""

    def __init__(self, cases, check_tour):
        self.cases = cases
        self.check_tour = check_tour
        self.attempted = 0
        self.failed = 0

    def account(self, tours, expect=None):
        """Check one pass's tours; ``expect`` holds the tours the pass must
        return (the ones of the first untraced serial pass)."""
        for i, (tour, (rows, ref)) in enumerate(zip(tours, self.cases)):
            self.attempted += 1
            if tour is None:
                fails = ["solve raised"]
            else:
                fails = self.check_tour(rows, tour[0], tour[1], ref)
                if expect is not None and expect[i] != tour:
                    fails.append("tour differs from the untraced serial pass")
            if fails:
                self.failed += 1
                print(f"instance {i}: " + "; ".join(fails), file=sys.stderr)


def setup_seconds(inputs: Path) -> float:
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), str(inputs)],
        stdout=subprocess.PIPE,
        text=True,
        timeout=SETUP_TIMEOUT_S,
        check=True,
    )
    return float(proc.stdout.split()[-1])


def main(argv=None) -> int:
    # turn SIGTERM into SystemExit, so the measuring process and any set-up
    # probe are killed and reaped instead of left running
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.path.insert(0, str(HERE))
    from reference import check_tour, reference_value
    from workloads import WORKLOADS, write_inputs

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "tritsp" / "__init__.py").is_file():
        print(f"no tritsp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    inputs = HERE / ".work" / f"{args.workload}-s{args.seed}"
    cases = write_inputs(args.workload, args.seed, inputs)
    tally = Tally(cases, check_tour)

    walls, solve_times, setups, first = [], [], [], None
    with Measurer(inputs) as measurer:
        # whole rounds (a pass, then its set-ups) while at least half of the
        # next one is expected to fit in --seconds, so that a run measures
        # --seconds give or take half a round
        t_start = perf_counter()
        last = 0.0
        while first is None or perf_counter() - t_start + last / 2 <= args.seconds:
            t0 = perf_counter()
            out = measurer.ask("pass")
            walls.append(out["wall_s"])
            solve_times += out["solve_s"]
            tally.account(out["tours"])
            first = first or out["tours"]
            if not args.trace:
                setups += [setup_seconds(inputs) for _ in range(SETUPS_PER_PASS)]
            last = perf_counter() - t0
        if args.trace:
            out = measurer.ask("trace")
            tally.account(out["pooled"], first)
            tally.account(out["traced"], first)
            values = out["metrics"]
        peak_rss_mb = measurer.ask("end")["peak_rss_mb"]

    if not args.trace:
        done = [i for i, tour in enumerate(first) if tour is not None]
        cost = sum(first[i][1] for i in done)
        ref = sum(reference_value(cases[i][1]) for i in done)
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(walls),
            "solve_ms_p50": 1000 * statistics.median(solve_times),
            "tour_cost_ratio": cost / ref if ref else 0.0,
            "peak_rss_mb": peak_rss_mb,
        }
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        print(f"metrics not measured: {missing}", file=sys.stderr)
        return 1
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
