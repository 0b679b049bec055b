#!/usr/bin/env python3
"""Check that two tritsp trees compute the same results: the digest identity.

    python3 scripts/compare_digests.py OLD_SRC NEW_SRC [FILE|DIR...]

OLD_SRC and NEW_SRC are the `src` directories of the two trees.  With no
inputs, digest_inputs.py (run under NEW_SRC) writes its set into a
temporary directory, which is removed afterwards.  report_digest.py runs
on every input under each tree, once with --jobs 1 and once with
--jobs 2 --force-pool.  Each input whose digest line differs is printed
with the mode; the exit status is 1 if any differs, else 0.
"""

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent
MODES = (("--jobs", "1"), ("--jobs", "2", "--force-pool"))


def run(src, script, *args) -> str:
    """stdout of scripts/`script` run with tritsp imported from `src`."""
    env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()))
    return subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args],
        env=env, capture_output=True, text=True, check=True,
    ).stdout


def instance_files(inputs) -> list[str]:
    """Each input file, and each directory's *.json then *.tsp files, sorted."""
    files = []
    for arg in map(Path, inputs):
        if arg.is_dir():
            files += sorted(arg.glob("*.json")) + sorted(arg.glob("*.tsp"))
        else:
            files.append(arg)
    return list(map(str, files))


def differences(old_src, new_src, files) -> list[str]:
    """One "mode<TAB>file" line per input and mode whose digests differ."""
    out = []
    for mode in MODES:
        old = run(old_src, "report_digest.py", *files, *mode).splitlines()
        new = run(new_src, "report_digest.py", *files, *mode).splitlines()
        if len(old) != len(files) or len(new) != len(files):
            raise RuntimeError(f"{len(files)} inputs gave {len(old)} and {len(new)} lines")
        out += [f"{' '.join(mode)}\t{f}" for f, a, b in zip(files, old, new) if a != b]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_src", metavar="OLD_SRC")
    parser.add_argument("new_src", metavar="NEW_SRC")
    parser.add_argument("inputs", nargs="*", metavar="FILE|DIR")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        inputs = args.inputs
        if not inputs:
            run(args.new_src, "digest_inputs.py", tmp)
            inputs = [tmp]
        files = instance_files(inputs)
        diff = differences(args.old_src, args.new_src, files)
    for line in diff:
        print(line)
    lines = len(files) * len(MODES)
    print(f"{len(diff)} of {lines} lines differ ({len(files)} inputs, {len(MODES)} modes)",
          file=sys.stderr)
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
