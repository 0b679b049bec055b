"""Instance model: symmetric integer cost matrices, triangle audits, file IO,
and the two instance generators (uniform metric, planted violations).

All costs are plain Python ints and every downstream computation stays in
exact integer arithmetic.  An Instance holds one int object per unordered
pair: cost[j][i] is cost[i][j], whatever matrix the caller passed, so a
matrix parsed from JSON keeps n(n-1)/2 off-diagonal ints, not n(n-1).
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

from .errors import (
    AsymmetricCostError,
    ContractViolationError,
    DimensionMismatchError,
    GenerationRetryError,
    NegativeCostError,
    ParseError,
)

__all__ = [
    "Instance",
    "TriangleAudit",
    "audit_triangles",
    "load_instance",
    "save_instance",
    "gen_metric",
    "gen_planted",
    "planted_corpus",
    "int_array",
]


def int_array(rows, largest: int):
    """`rows` as a numpy array of the narrowest of int32, int64 and exact
    Python ints (dtype=object) that holds every value of magnitude up to
    `largest`.  Each numpy kernel passes the largest value it forms:
    dense_cost (twice the largest cost, for the triangle audit and the
    matching's dense steps), Prim's edge keys (forest._prim_numpy) and
    Held-Karp (solver.held_karp)."""
    import numpy as np  # loaded on first use: importing tritsp stays light

    dtype = np.int32 if largest < 2**31 else np.int64 if largest < 2**63 else object
    return np.array(rows, dtype=dtype)


def _check_int(x: object) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _well_formed(cost) -> tuple[tuple[int, ...], ...] | None:
    """The matrix `cost` as Instance stores it (_one_per_pair) when `cost`
    is a non-empty square tuple of int tuples with non-negative entries, a
    zero diagonal and symmetry, else None; checked by C-level passes."""
    n = len(cost)
    if n == 0 or set(map(type, cost)) != {tuple} or set(map(len, cost)) != {n}:
        return None
    if set(map(type, itertools.chain.from_iterable(cost))) != {int}:
        return None
    if min(map(min, cost)) < 0 or any(row[i] for i, row in enumerate(cost)):
        return None
    shared = _one_per_pair(cost)
    # equal to cost exactly when cost is symmetric; the cells on and above
    # the diagonal are cost's own objects, which compare by identity
    return shared if shared == cost else None


def _one_per_pair(rows):
    """The tuple of tuples `rows` with each cell below the diagonal taken
    from its mirror above it: cost[j][i] is cost[i][j], and the caller's
    lower-triangle objects can be freed.  Equal to `rows` when `rows` is
    symmetric."""
    cols = tuple(zip(*rows))
    return tuple(cols[i][:i] + row[i:] for i, row in enumerate(rows))


def _scan_cells(cost) -> None:
    """Raise for the first defect of `cost` in row-major order."""
    n = len(cost)
    if n == 0:
        raise DimensionMismatchError("empty cost matrix")
    for i, row in enumerate(cost):
        if len(row) != n:
            raise DimensionMismatchError(
                f"row {i} has {len(row)} entries, expected {n}"
            )
        for j, x in enumerate(row):
            if not _check_int(x):
                raise ParseError(f"cost[{i}][{j}] is not an integer")
            if x < 0:
                raise NegativeCostError(f"cost[{i}][{j}] = {x} is negative")
        if row[i] != 0:
            raise NegativeCostError(f"diagonal cost[{i}][{i}] = {row[i]} != 0")
    for i in range(n):
        for j in range(i + 1, n):
            if cost[i][j] != cost[j][i]:
                raise AsymmetricCostError(
                    f"cost[{i}][{j}] = {cost[i][j]} != "
                    f"cost[{j}][{i}] = {cost[j][i]}"
                )


@dataclass(frozen=True)
class Instance:
    """A complete undirected graph given by name and symmetric cost matrix.

    The matrix is validated as given, then stored as a tuple of int tuples
    that holds one int object per unordered pair: cost[j][i] is cost[i][j],
    the caller's object above the diagonal.  Equality and repr see the same
    values, and later changes to the caller's rows do not reach it."""

    name: str
    cost: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        # the C-level test accepts every well-formed matrix of tuples of
        # ints; anything else goes through the cell-by-cell scan, which
        # raises on the first defect it meets
        shared = _well_formed(self.cost)
        if shared is None:
            _scan_cells(self.cost)
            shared = _one_per_pair(tuple(map(tuple, self.cost)))
        object.__setattr__(self, "cost", shared)

    def __reduce__(self):
        # pickle writes ints by value; rebuilding through the constructor
        # shares them again, so a pool worker holds one triangle
        return type(self), (self.name, self.cost)

    @property
    def n(self) -> int:
        return len(self.cost)

    @cached_property
    def max_cost(self) -> int:
        """The largest cost, scanned for once per instance; the numpy
        kernels size their dtypes from it."""
        return max(map(max, self.cost))

    @classmethod
    def from_rows(cls, name: str, rows) -> "Instance":
        return cls(name, tuple(tuple(row) for row in rows))


@dataclass(frozen=True)
class TriangleAudit:
    """Result of scanning all vertex triples for triangle-inequality breaks.

    A triple violates when its largest side strictly exceeds the sum of the
    other two.  A vertex is bad when it sits in at least one violating triple,
    good otherwise.
    """

    violating: tuple[tuple[int, int, int], ...]
    bad: tuple[int, ...]
    good: tuple[int, ...]

    @property
    def k(self) -> int:
        return len(self.violating)

    @property
    def k_t(self) -> int:
        return len(self.bad)

    # membership sets, built once per audit for the per-layout shortcut
    # stages; not fields, so equality and repr see only the tuples
    @cached_property
    def bad_set(self) -> frozenset[int]:
        return frozenset(self.bad)

    @cached_property
    def good_set(self) -> frozenset[int]:
        return frozenset(self.good)


# from this many vertices on, the numpy search is faster than the triple
# loop (measured crossover: 13-15 on CEIL_2D, 15-17 on planted inputs);
# smaller audits leave numpy unloaded
_AUDIT_NUMPY_MIN = 16
# cells per numpy block: about a megabyte of temporaries whatever n is
_AUDIT_BLOCK = 1 << 18


def dense_cost(inst: Instance):
    """The cost matrix as one numpy array (int_array of twice the largest
    cost) from _AUDIT_NUMPY_MIN vertices on, else None.  A solve converts
    it once and shares it: the audit's search, Prim's rows and the
    matching's dense steps all read it."""
    if inst.n < _AUDIT_NUMPY_MIN:
        return None
    return int_array(inst.cost, 2 * inst.max_cost)


def audit_triangles(inst: Instance, _dense=None) -> TriangleAudit:
    """Enumerate every violating triple of `inst` and classify vertices.

    A triple violates when its largest side is strictly longer than the
    other two combined, i.e. has a strict shortcut through the third vertex.
    Triples come out in (u, v, w) lexicographic order, from a triple loop
    below _AUDIT_NUMPY_MIN vertices and from a numpy search above, on
    `_dense` (dense_cost(inst), from a caller that built it already).
    """
    if inst.n < _AUDIT_NUMPY_MIN:
        violating = _violations_by_loops(inst.cost)
    else:
        violating = _violations_by_blocks(inst.cost, inst.max_cost, _dense)
    bad = set(itertools.chain.from_iterable(violating))
    good = tuple(v for v in range(inst.n) if v not in bad)
    return TriangleAudit(tuple(violating), tuple(sorted(bad)), good)


def _violations_by_loops(c) -> list[tuple[int, int, int]]:
    n = len(c)
    violating = []
    for u in range(n - 2):
        cu = c[u]
        for v in range(u + 1, n - 1):
            cv = c[v]
            duv = cu[v]
            for w in range(v + 1, n):
                a = cu[w]
                b = cv[w]
                big = duv if duv >= a else a
                if b > big:
                    big = b
                # strict violation: the max side exceeds the other two combined
                if 2 * big > duv + a + b:
                    violating.append((u, v, w))
    return violating


def _violations_by_blocks(c, top: int, cost=None) -> list[tuple[int, int, int]]:
    """(x, y) is a shortcut pair when some w gives c(x, w) + c(w, y) < c(x, y).
    A violating triple's largest side is unique (two tied largest sides
    leave the third below 0) and is its only side with a strict shortcut
    through the third vertex, so each violating triple is listed once, as
    a shortcut pair and one witness.  Step 1 finds the shortcut pairs by a
    row-by-row min-plus search, which ends a metric audit; step 2 lists
    their witnesses in blocks of pairs and sorts the triples.  No value
    formed exceeds twice `top`, the largest cost; `cost`, when given, is
    `c` converted as dense_cost does."""
    import numpy as np

    n = len(c)
    if cost is None:
        cost = int_array(c, 2 * top)
    # hop: least two-hop cost (w = u gives c itself), by blocks of whole rows
    # while they fit, else of a row's columns; triu keeps the pairs u < v
    per_block = max(1, _AUDIT_BLOCK // n)
    rows = max(1, per_block // n)
    cols = max(1, per_block // rows)
    hop = cost.copy()
    for u in range(0, n - 1, rows):
        for lo in range(u + 1, n, cols):
            block = cost[u : u + rows, None] + cost[lo : lo + cols]
            np.minimum.reduce(block, axis=2, out=hop[u : u + rows, lo : lo + cols])
    xs, ys = np.nonzero(np.triu(hop < cost))
    if not len(xs):
        return []
    keys = []
    for lo in range(0, len(xs), per_block):
        x, y = xs[lo : lo + per_block], ys[lo : lo + per_block]
        p, w = np.nonzero(cost[x] + cost[y] < cost[x, y][:, None])
        x, y = x[p], y[p]
        first, last = np.minimum(x, w), np.maximum(y, w)  # as x < y
        keys.append((first * n + x + y + w - first - last) * n + last)
    first, rest = np.divmod(np.sort(np.concatenate(keys)), n * n)
    return list(zip(first.tolist(), *(a.tolist() for a in np.divmod(rest, n))))


# ---------------------------------------------------------------------------
# File formats: native JSON and a small TSPLIB subset.

def save_instance(inst: Instance) -> bytes:
    """Serialize to the native JSON format (round-trips with load_instance)."""
    obj = {"name": inst.name, "n": inst.n, "cost": [list(r) for r in inst.cost]}
    return (json.dumps(obj, separators=(",", ":")) + "\n").encode("ascii")


def load_instance(source) -> Instance:
    """Parse an instance from a file path or raw bytes.  JSON if the payload
    starts with '{', otherwise the TSPLIB subset (EXPLICIT FULL_MATRIX or
    EUC_2D)."""
    if isinstance(source, bytes):
        text = source.decode("utf-8", errors="replace")
    else:
        text = Path(source).read_text(encoding="utf-8", errors="replace")
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return _load_json(text)
    return _load_tsplib(text)


def _load_json(text: str) -> Instance:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON: {e.msg}", line=e.lineno) from None
    if not isinstance(obj, dict):
        raise ParseError("top-level JSON value must be an object")
    extra = set(obj) - {"name", "n", "cost"}
    if extra:
        raise ParseError(f"unknown keys: {sorted(extra)}")
    for key in ("name", "n", "cost"):
        if key not in obj:
            raise ParseError(f"missing key {key!r}")
    if not isinstance(obj["name"], str):
        raise ParseError("name must be a string")
    if not _check_int(obj["n"]) or obj["n"] < 1:
        raise ParseError("n must be a positive integer")
    if not isinstance(obj["cost"], list) or not all(
        isinstance(r, list) for r in obj["cost"]
    ):
        raise ParseError("cost must be a list of lists")
    if len(obj["cost"]) != obj["n"]:
        raise DimensionMismatchError(
            f"declared n={obj['n']} but cost has {len(obj['cost'])} rows"
        )
    return Instance.from_rows(obj["name"], obj["cost"])


_TSPLIB_KEYS = {
    "NAME",
    "COMMENT",
    "TYPE",
    "DIMENSION",
    "EDGE_WEIGHT_TYPE",
    "EDGE_WEIGHT_FORMAT",
}


def _load_tsplib(text: str) -> Instance:
    lines = text.splitlines()
    fields: dict[str, str] = {}
    field_lines: dict[str, int] = {}
    name = "tsplib"
    i = 0
    section = None
    section_line = 0
    while i < len(lines):
        raw = lines[i].strip()
        i += 1
        if not raw:
            continue
        if raw == "EOF":
            break
        if raw in ("NODE_COORD_SECTION", "EDGE_WEIGHT_SECTION"):
            section = raw
            section_line = i
            break
        if ":" in raw:
            key, _, val = raw.partition(":")
            key = key.strip().upper()
            val = val.strip()
            if key not in _TSPLIB_KEYS:
                raise ParseError(f"unsupported keyword {key!r}", line=i)
            fields[key] = val
            field_lines[key] = i
            if key == "NAME":
                name = val
        else:
            raise ParseError(f"unrecognized line {raw!r}", line=i)

    if fields.get("TYPE", "TSP").split()[:1] != ["TSP"]:
        raise ParseError(
            f"unsupported TYPE {fields['TYPE']!r}", line=field_lines["TYPE"]
        )
    if "DIMENSION" not in fields:
        raise ParseError("missing DIMENSION")
    try:
        n = int(fields["DIMENSION"])
    except ValueError:
        raise ParseError(f"bad DIMENSION {fields['DIMENSION']!r}") from None
    if n < 1:
        raise DimensionMismatchError(f"DIMENSION must be >= 1, got {n}")
    ewt = fields.get("EDGE_WEIGHT_TYPE")
    if section is None:
        raise ParseError("missing data section")

    body: list[str] = []
    while i < len(lines):
        raw = lines[i].strip()
        i += 1
        if raw == "EOF" or not raw:
            continue
        body.append(raw)

    if ewt == "EXPLICIT":
        if fields.get("EDGE_WEIGHT_FORMAT") != "FULL_MATRIX":
            raise ParseError(
                f"unsupported EDGE_WEIGHT_FORMAT {fields.get('EDGE_WEIGHT_FORMAT')!r}"
            )
        if section != "EDGE_WEIGHT_SECTION":
            raise ParseError("EXPLICIT weights need EDGE_WEIGHT_SECTION", line=section_line)
        vals: list[int] = []
        for off, raw in enumerate(body):
            for tok in raw.split():
                try:
                    vals.append(int(tok))
                except ValueError:
                    raise ParseError(
                        f"non-integer weight {tok!r}", line=section_line + 1 + off
                    ) from None
        if len(vals) != n * n:
            raise DimensionMismatchError(
                f"expected {n * n} weights, got {len(vals)}"
            )
        rows = [vals[r * n : (r + 1) * n] for r in range(n)]
        return Instance.from_rows(name, rows)

    if ewt == "EUC_2D":
        if section != "NODE_COORD_SECTION":
            raise ParseError("EUC_2D needs NODE_COORD_SECTION", line=section_line)
        coords: dict[int, tuple[float, float]] = {}
        coord_lines: dict[int, int] = {}
        for off, raw in enumerate(body):
            line = section_line + 1 + off
            toks = raw.split()
            if len(toks) != 3:
                raise ParseError(f"coord line needs 'id x y', got {raw!r}", line=line)
            try:
                idx = int(toks[0])
                x = float(toks[1])
                y = float(toks[2])
            except ValueError:
                raise ParseError(f"bad coord line {raw!r}", line=line) from None
            if not (math.isfinite(x) and math.isfinite(y)):
                raise ParseError(f"non-finite coordinate in {raw!r}", line=line)
            coords[idx] = (x, y)
            coord_lines[idx] = line
        # the count first: a huge DIMENSION must not build a huge id list
        if len(coords) != n or sorted(coords) != list(range(1, n + 1)):
            raise DimensionMismatchError(
                f"need coords for ids 1..{n}, got {sorted(coords)}"
            )
        pts = [coords[i_ + 1] for i_ in range(n)]
        rows = [[0] * n for _ in range(n)]
        for a in range(n):
            for b in range(a + 1, n):
                dx = pts[a][0] - pts[b][0]
                dy = pts[a][1] - pts[b][1]
                try:
                    d = int(math.sqrt(dx * dx + dy * dy) + 0.5)  # TSPLIB nint
                except OverflowError:
                    raise ParseError(
                        f"distance from node {a + 1} to node {b + 1} overflows",
                        line=coord_lines[b + 1],
                    ) from None
                rows[a][b] = rows[b][a] = d
        return Instance.from_rows(name, rows)

    raise ParseError(f"unsupported EDGE_WEIGHT_TYPE {ewt!r}")


# ---------------------------------------------------------------------------
# Generators.  Both are deterministic in (n, seed) and re-audit their output.
# gen_metric rounds distances up (metric by construction); gen_planted keeps
# nearest-integer rounding, retrying when it breaks a triangle.

_BOX = 100_000
_CLUSTER_RADIUS = 150
_CLEARANCE = 25_000
_ATTEMPTS = 64


def _nint_isqrt(x: int) -> int:
    """Nearest integer to sqrt(x), exactly (no floats)."""
    d = math.isqrt(x)
    return d + 1 if x - d * d > d else d


def _ceil_isqrt(x: int) -> int:
    """Smallest integer >= sqrt(x), exactly (no floats)."""
    d = math.isqrt(x)
    return d + (d * d < x)


def _dist(p: tuple[int, int], q: tuple[int, int], root=_nint_isqrt) -> int:
    dx = p[0] - q[0]
    dy = p[1] - q[1]
    return root(dx * dx + dy * dy)


def _points_instance(
    name: str, pts: list[tuple[int, int]], root=_nint_isqrt
) -> Instance:
    n = len(pts)
    rows = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            d = _dist(pts[a], pts[b], root)
            rows[a][b] = rows[b][a] = d
    return Instance.from_rows(name, rows)


def gen_metric(n: int, seed: int) -> Instance:
    """Random planar points with Euclidean costs rounded up (TSPLIB CEIL_2D),
    which are metric by construction: c <= a + b gives ceil(c) <=
    ceil(a) + ceil(b).  The audit re-checks every output."""
    if n < 1:
        raise DimensionMismatchError(f"n must be >= 1, got {n}")
    rng = random.Random(seed)
    pts = [(rng.randrange(_BOX), rng.randrange(_BOX)) for _ in range(n)]
    inst = _points_instance(f"metric-n{n}-s{seed}", pts, _ceil_isqrt)
    if audit_triangles(inst).violating:
        raise ContractViolationError(f"gen_metric({n}, {seed}): CEIL_2D costs violate")
    return inst


def gen_planted(n: int, target_bad: int, seed: int) -> Instance:
    """Metric base with one tight cluster of `target_bad` points, then selected
    in-cluster edges are inflated just past a triangle bound so violations stay
    confined to the cluster.  Every non-cluster vertex keeps all its triangles
    metric by construction (inflated edges stay below the cheapest two-hop
    route through any outside vertex).  Retries until the audited bad set is
    exactly the planted cluster.
    """
    if n < 4:
        raise DimensionMismatchError(f"n must be >= 4, got {n}")
    if not 3 <= target_bad <= n - 1:
        raise DimensionMismatchError(
            f"target_bad must be in [3, n-1], got {target_bad} for n={n}"
        )
    rng = random.Random(seed)
    name = f"planted-n{n}-b{target_bad}-s{seed}"
    for _ in range(_ATTEMPTS):
        cx = rng.randrange(30_000, 70_000)
        cy = rng.randrange(30_000, 70_000)
        labels = list(range(n))
        rng.shuffle(labels)
        chosen = sorted(labels[:target_bad])
        chosen_set = set(chosen)
        pts: list[tuple[int, int]] = [(0, 0)] * n
        for v in range(n):
            if v in chosen_set:
                pts[v] = (
                    cx + rng.randrange(-_CLUSTER_RADIUS, _CLUSTER_RADIUS + 1),
                    cy + rng.randrange(-_CLUSTER_RADIUS, _CLUSTER_RADIUS + 1),
                )
            else:
                while True:
                    p = (rng.randrange(_BOX), rng.randrange(_BOX))
                    if _dist(p, (cx, cy)) >= _CLEARANCE:
                        pts[v] = p
                        break
        base = _points_instance(name, pts)
        if audit_triangles(base).violating:
            continue

        rows = [list(r) for r in base.cost]
        outside = [x for x in range(n) if x not in chosen_set]
        order = list(chosen)
        rng.shuffle(order)
        pairs = [(order[i], order[i + 1]) for i in range(0, len(order) - 1, 2)]
        if len(order) % 2 == 1:
            pairs.append((order[-1], order[0]))
        applied = 0
        for u, v in pairs:
            inside = min(
                rows[u][w] + rows[v][w] for w in chosen if w != u and w != v
            )
            cap = min(rows[u][x] + rows[v][x] for x in outside) - 1
            new = inside + rng.randint(5, 60)
            if new > cap or new <= rows[u][v]:
                continue
            rows[u][v] = rows[v][u] = new
            applied += 1
        if applied == 0:
            continue
        inst = Instance.from_rows(name, rows)
        audit = audit_triangles(inst)
        if audit.k >= 1 and set(audit.bad) == chosen_set:
            return inst
    raise GenerationRetryError(
        f"gen_planted({n}, {target_bad}, {seed}): retries exhausted"
    )


def planted_corpus(mix: dict[int, int], sizes, seed0: int) -> list[Instance]:
    """`mix[b]` planted instances for each bad-set size b, smallest b first.
    n cycles through `sizes`, skipping sizes that leave no good vertex
    (n <= b); seeds count up from `seed0`, one per instance."""
    if any(bad >= max(sizes) for bad in mix):
        raise DimensionMismatchError(f"no size in {sizes} exceeds every bad-set size")
    corpus: list[Instance] = []
    cycle = itertools.cycle(sizes)
    for bad in sorted(mix):
        for _ in range(mix[bad]):
            n = next(n for n in cycle if n > bad)
            corpus.append(gen_planted(n, bad, seed0 + len(corpus)))
    return corpus
