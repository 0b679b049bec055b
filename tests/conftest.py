import os
from pathlib import Path

import pytest
from hypothesis import settings

from tritsp.instance import Instance, planted_corpus

settings.register_profile("suite", deadline=None, derandomize=True)
settings.load_profile("suite")

DATA = __file__.rsplit("/", 1)[0] + "/data"

# the CLI tests' `python -m tritsp` subprocesses import the tree under test,
# as pytest itself does through `pythonpath` in pyproject.toml
SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [SRC, os.environ.get("PYTHONPATH")])
)

# per bad-set size: how many corpus instances to plant
CORPUS_MIX = {3: 100, 4: 90, 5: 70, 6: 40}
CORPUS_SIZES = (6, 7, 8, 9, 10, 11, 12)


def multiplicity(g, u, v) -> int:
    """Copies of edge (u, v) in the multigraph g."""
    return g._adj[u].count(v)


def degree(g, v) -> int:
    """Edge copies at vertex v of the multigraph g."""
    return len(g._adj[v])


@pytest.fixture
def inst4():
    return Instance("INST4", ((0, 10, 1, 5), (10, 0, 1, 6), (1, 1, 0, 5), (5, 6, 5, 0)))


@pytest.fixture
def sq4():
    return Instance("SQ4", ((0, 2, 3, 2), (2, 0, 2, 3), (3, 2, 0, 2), (2, 3, 2, 0)))


@pytest.fixture
def data_dir():
    return DATA


@pytest.fixture(scope="session")
def corpus():
    return planted_corpus(CORPUS_MIX, CORPUS_SIZES, seed0=1000)


class SolvedCorpus:
    def __init__(self, items, seconds):
        self.items = items
        self.seconds = seconds

    def __iter__(self):
        return iter(self.items)

    def __len__(self):
        return len(self.items)


@pytest.fixture(scope="session")
def solved_corpus(corpus):
    """(instance, solve report, optimal tour) for the whole corpus; shared by
    the acceptance tests so the heavy solves run once."""
    import time

    from tritsp.oracles import held_karp
    from tritsp.solver import solve

    t0 = time.perf_counter()
    items = [(inst, solve(inst), held_karp(inst)) for inst in corpus]
    return SolvedCorpus(items, time.perf_counter() - t0)


@pytest.fixture(scope="session")
def corpus_mix():
    return dict(CORPUS_MIX)
