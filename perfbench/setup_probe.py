"""Time one set-up: ``import tritsp`` plus ``load_instance`` on every input
file of a workload directory, in a fresh interpreter.

    python3 perfbench/setup_probe.py <inputs>

Prints the seconds.  This module imports nothing heavy, so nothing that
tritsp itself imports (numpy) is loaded before the timer starts.
"""

import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent


def input_files(inputs: Path) -> list[Path]:
    """The instance files of a workload directory, in solve order."""
    return sorted(inputs.glob("[0-9]*.json"))


def main() -> int:
    files = input_files(Path(sys.argv[1]))
    sys.path.insert(0, str(ROOT / "src"))
    t0 = perf_counter()
    import tritsp

    for f in files:
        tritsp.load_instance(f)
    print(perf_counter() - t0)
    return 0


if __name__ == "__main__":
    sys.exit(main())
