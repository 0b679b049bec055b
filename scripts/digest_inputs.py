#!/usr/bin/env python3
"""Write the inputs of the digest-identity check into one directory.

    PYTHONPATH=<tree>/src python3 scripts/digest_inputs.py OUT

The check runs report_digest.py on these inputs against two trees and
diffs the outputs.  OUT receives:

- tests/data's files, copied as they are;
- gen_planted (12, 6, 1), (12, 7, 1), (20, 7, 2) and (30, 8, 1);
- chains solves whose odd sets reach 18-24 vertices, past the matching's
  pure-Python lists: gen_planted (36, 4, 1), (36, 4, 2), (40, 4, 1),
  (40, 4, 3), (40, 6, 1), (44, 5, 3), (48, 3, 2) and (48, 3, 3);
- the benchmark's corpus-b3-5 inputs of seeds 1 and 2:
  planted_corpus({3: 100, 4: 90, 5: 70}, range(6, 13), 1000 * seed);
- the benchmark's metric-ceil-n400 inputs of seeds 1 and 2:
  gen_metric(400, seed + k * 10**6) for k = 0..3.

Every generated instance is written as <name>.json (save_instance).  The
same tree always writes the same bytes.
"""

import argparse
import shutil
import sys
from pathlib import Path

from tritsp.instance import gen_metric, gen_planted, planted_corpus, save_instance

DATA = Path(__file__).resolve().parent.parent / "tests" / "data"
PLANTED = [
    (12, 6, 1), (12, 7, 1), (20, 7, 2), (30, 8, 1),
    (36, 4, 1), (36, 4, 2), (40, 4, 1), (40, 4, 3),
    (40, 6, 1), (44, 5, 3), (48, 3, 2), (48, 3, 3),
]
SEEDS = (1, 2)


def instances():
    yield from (gen_planted(*args) for args in PLANTED)
    for seed in SEEDS:
        yield from planted_corpus({3: 100, 4: 90, 5: 70}, range(6, 13), 1000 * seed)
    for seed in SEEDS:
        yield from (gen_metric(400, seed + k * 10**6) for k in range(4))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", metavar="OUT", help="target directory")
    out = Path(parser.parse_args(argv).out)
    out.mkdir(parents=True, exist_ok=True)
    files = sorted(DATA.iterdir())
    for path in files:
        shutil.copyfile(path, out / path.name)
    made = list(instances())
    for inst in made:
        (out / f"{inst.name}.json").write_bytes(save_instance(inst))
    print(f"wrote {len(files) + len(made)} files to {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
