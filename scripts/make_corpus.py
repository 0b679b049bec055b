#!/usr/bin/env python3
"""Generate a planted-violation benchmark corpus.

Writes <out>/planted-n{n}-b{bad}-s{seed}.json files cycling n over a range
for each requested bad-set size.  The bench subcommand picks the seed back
up from the filename.
"""

import argparse
import sys
from pathlib import Path

from tritsp.instance import planted_corpus, save_instance


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", required=True, help="target directory")
    parser.add_argument(
        "--mix",
        default="3:100,4:90,5:70,6:40",
        help="bad-set size to instance count, e.g. 3:100,4:90",
    )
    parser.add_argument("--n-min", type=int, default=6)
    parser.add_argument("--n-max", type=int, default=12)
    parser.add_argument("--seed0", type=int, default=1000,
                        help="first seed; increments per instance")
    args = parser.parse_args(argv)

    mix = {}
    for part in args.mix.split(","):
        bad, count = part.split(":")
        mix[int(bad)] = int(count)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    sizes = range(args.n_min, args.n_max + 1)
    corpus = planted_corpus(mix, sizes, args.seed0)
    for inst in corpus:
        (out / f"{inst.name}.json").write_bytes(save_instance(inst))
    print(f"wrote {len(corpus)} instances to {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
