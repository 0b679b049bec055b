"""Workload definitions and their inputs, made from the run's seed.

Each workload is a list of instances written as native tritsp JSON; the
independent reference of every instance is computed beside it.  The same
seed always gives the same files.
"""

from __future__ import annotations

import json
import math
import random
import shutil
from pathlib import Path

from reference import reference_for

# acceptance-corpus mix without b = 6: bad-set size -> instance count
CORPUS_MIX = {3: 100, 4: 90, 5: 70}
CORPUS_SIZES = (6, 7, 8, 9, 10, 11, 12)
# the metric workload solves instances from seeds S, S + SEED_STEP, ...: the
# matching time differs by instance, and more draws per pass make a pass
# depend less on any one of them
METRIC_COPIES = 4
SEED_STEP = 1_000_000
BOX = 100_000
WORKLOADS = ("metric-ceil-n400", "corpus-b3-5")


def ceil2d_matrix(n: int, seed: int) -> list[list[int]]:
    """Random integer points in a BOX x BOX square with TSPLIB CEIL_2D costs
    (Euclidean distance rounded up), which are metric by construction:
    c <= a + b implies ceil(c) <= ceil(a) + ceil(b)."""
    rng = random.Random(seed)
    pts = [(rng.randrange(BOX), rng.randrange(BOX)) for _ in range(n)]
    rows = [[0] * n for _ in range(n)]
    for a in range(n):
        xa, ya = pts[a]
        for b in range(a + 1, n):
            d2 = (xa - pts[b][0]) ** 2 + (ya - pts[b][1]) ** 2
            r = math.isqrt(d2)
            rows[a][b] = rows[b][a] = r + (r * r < d2)
    return rows


def _planted(n: int, bad: int, seed: int):
    from tritsp import gen_planted

    inst = gen_planted(n, bad, seed=seed)
    return inst.name, [list(r) for r in inst.cost]


def _instances(workload: str, seed: int):
    """(name, cost matrix) for every instance of the workload."""
    if workload == "metric-ceil-n400":
        return [
            (f"ceil2d-n400-s{s}", ceil2d_matrix(400, s))
            for s in range(seed, seed + METRIC_COPIES * SEED_STEP, SEED_STEP)
        ]
    if workload == "corpus-b3-5":
        # the acceptance corpus loop: n cycles through CORPUS_SIZES, skipping
        # sizes that leave no good vertex; seed 1 gives its b = 3..5 part
        out = []
        gen_seed = 1000 * seed
        size_idx = 0
        for bad, count in sorted(CORPUS_MIX.items()):
            made = 0
            while made < count:
                n = CORPUS_SIZES[size_idx % len(CORPUS_SIZES)]
                size_idx += 1
                if n <= bad:
                    continue
                out.append(_planted(n, bad, gen_seed))
                gen_seed += 1
                made += 1
        return out
    raise KeyError(workload)


def write_inputs(workload: str, seed: int, out: Path) -> list[tuple[list, dict]]:
    """Write the workload's instance files into ``out``, replacing whatever
    it held; return each instance's (cost matrix, reference) in file
    order."""
    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)
    cases = []
    for i, (name, rows) in enumerate(_instances(workload, seed)):
        obj = {"name": name, "n": len(rows), "cost": rows}
        text = json.dumps(obj, separators=(",", ":")) + "\n"
        (out / f"{i:04d}-{name}.json").write_text(text)
        cases.append((rows, reference_for(rows)))
    return cases
