"""Exact minimum-cost perfect matching on complete graphs.

Primal-dual blossom search specialized to dense inputs.  Vertex duals are
stored doubled so every delta stays integral (the roots, the unmatched
vertices, share one parity, tree paths are tight, hence S-S slacks stay
even); blossom duals are stored plain.  Slacks are only evaluated between
different top-level blossoms, where no common blossom dual contributes.

The search starts warm, as production blossom codes do (Cook and Rohe,
INFORMS J. Comput. 1999; Kolmogorov's Blossom V, 2009): each vertex's dual
is its cheapest edge, then a greedy pass raises free vertices to a tight
edge and matches the free pairs it finds, and the free duals are rounded
down to even.  The stages then only match what the greedy pass left free:
about a fifth of the vertices on CEIL_2D odd-degree sets.

Two deliberate simplifications versus the classic bookkeeping, both simple
rather than asymptotically best:
  - per-blossom least-slack edges are revalidated lazily and rebuilt by a
    local rescan when a merge invalidated them;
  - expanding a T-blossom mid-stage relabels the whole stage from scratch
    instead of surgically relabeling the expanded path.

Odd-degree sets are not small: a metric instance of n = 400 gives about 170
vertices.  Production codes do not search the complete graph (Cook and
Rohe; Blossom V), and neither does this one: each vertex scans a candidate
list, its CANDIDATES cheapest partners, made symmetric, plus the pairs
(2i, 2i + 1), so that the candidate graph has a perfect matching.  The
search's duals are then feasible on candidate pairs only.  Pricing is the
LP certificate's scan (verify_matching_certificate), which computes every
pair's reduced slack, blossom duals included: the pairs that price
negative join the lists and the search runs again from the jump start,
and a scan that finds none has certified the result.  An odd set of at
most CANDIDATES + 1 vertices lists every partner, so its first scan
certifies it.  The scan of a new S-vertex, the search's inner loop,
compares each edge's slack with stored numbers only: tight edges are
those of slack 0, and least-slack edges keep their slacks in a frame that
dual updates leave unchanged.

Odd-set size alone picks the steps.  An odd set of at most CANDIDATES + 1
vertices runs in pure Python on full lists, so numpy stays unloaded.  A
larger one runs its O(m^2) steps on its costs as a numpy array: the
candidate lists (a stable argsort keeps the (cost, index) order), the jump
start (a row at a time, in index order) and the pricing scans (every
slack at once, in a dtype that holds them, negative pairs in row-major
order).  It takes the array's rows and columns from the solve's cost
matrix (instance.dense_cost) when the solve passes it, and otherwise
converts its own costs, in the dtype dense_cost would give.  The blossom
stages run in Python on lists of exact ints either way.

An odd set of at most EXHAUSTIVE (8) vertices is not searched at all when
its least perfect matching is unique: the costs of all (m - 1)!! <= 105
perfect matchings are listed, which proves that one minimal.  A set whose
least cost is tied takes the search, so it keeps the search's choice.
Every other matching is checked against its LP certificate before it is
returned.  Either way a matching that is not minimum cannot be returned,
and the 2·M <= OPT bound behind the 2.5 guarantee rests on a proof: an
external checker (ROADMAP item 8) can re-prove a small set by listing its
matchings and a larger one from its certificate.  In tests both paths are
checked against a bitmask-DP reference, oracles.brute_matching.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import chain
from math import inf, prod
from operator import add, itemgetter, sub

from .errors import ContractViolationError
from .instance import Instance, int_array

__all__ = [
    "Matching",
    "min_cost_perfect_matching",
    "verify_matching_certificate",
]


@dataclass(frozen=True)
class Matching:
    pairs: tuple[tuple[int, int], ...]
    cost: int


def _checked_vertices(inst: Instance, odd) -> list[int]:
    verts = sorted(odd)
    if len(set(verts)) != len(verts):
        raise ContractViolationError("odd set contains duplicates")
    if len(verts) % 2 == 1:
        raise ContractViolationError(
            f"odd-degree set has odd size {len(verts)}; upstream parity bug"
        )
    if verts and not (0 <= verts[0] and verts[-1] < inst.n):
        raise ContractViolationError(f"odd set {verts} out of range for n={inst.n}")
    return verts


def min_cost_perfect_matching(inst: Instance, odd, _dense=None) -> Matching:
    """Minimum-cost perfect matching on the subgraph induced by `odd`,
    using original instance costs.  Every matching returned is proved
    minimum: a set of at most EXHAUSTIVE vertices with a unique least
    matching by listing all its matchings, any other by the search's dual
    certificate, checked before it returns (raises on any violation).
    An odd set of more than CANDIDATES + 1 vertices runs its O(m^2) steps
    in numpy, on the rows and columns of `_dense` (instance.dense_cost(inst),
    from a caller that built it already) or else on its own costs."""
    verts = _checked_vertices(inst, odd)
    m = len(verts)
    if m == 0:
        return Matching((), 0)
    pick = itemgetter(*verts)  # m >= 2: picks a tuple
    w = [pick(inst.cost[a]) for a in verts]
    least = _unique_least_pairing(w) if m <= EXHAUSTIVE else None
    if least is None:
        sub = None
        if m > CANDIDATES + 1:
            if _dense is None:
                sub = int_array(w, 2 * inst.max_cost)  # dense_cost's dtype
            else:
                import numpy as np  # loaded already: the caller built `_dense`

                sub = _dense[np.ix_(verts, verts)]
        mate = _priced_search(w, sub)[0]  # its last certificate scan passed
        least = [(i, mate[i]) for i in range(m) if i < mate[i]]
    pairs = tuple((verts[i], verts[j]) for i, j in least)
    return Matching(pairs, sum(inst.cost[a][b] for a, b in pairs))


# partners per vertex in a search's candidate graph: on CEIL_2D odd-degree
# sets of 166-186 vertices, 15 needed one pricing round on every set
# measured, 10 and 6 needed a second round on some, and 25 was slower
CANDIDATES = 15

# odd sets of at most this many vertices list every perfect matching first:
# per call on random Euclidean sets, 0.6-29 us against the search's 8-65 us
# for m = 2-8; at m = 10 (945 matchings) a bitmask DP is slower than the search
EXHAUSTIVE = 8


def _pairings(vs):
    """Every perfect matching of the tuple `vs`, each as a tuple of pairs:
    the first vertex of `vs` with each later one in turn, then a matching
    of the rest."""
    if not vs:
        yield ()
        return
    for k in range(1, len(vs)):
        for rest in _pairings(vs[1:k] + vs[k + 1 :]):
            yield ((vs[0], vs[k]), *rest)


def _checked_table(m, table):
    """`table` if it lists every perfect matching of range(m) once: each
    entry pairs every vertex, as pairs (a, b), a < b, in order of a, so
    that distinct entries are distinct matchings, and there are (m - 1)!!
    distinct entries.  Raises ContractViolationError otherwise."""
    for pairs in table:
        if (
            sorted(chain.from_iterable(pairs)) != list(range(m))
            or list(pairs) != sorted(pairs)
            or any(a > b for a, b in pairs)
        ):
            raise ContractViolationError(
                f"{pairs} is not a perfect matching of range({m}) in order"
            )
    if len(set(table)) != len(table):
        raise ContractViolationError(f"the table of {m} vertices repeats a matching")
    if len(table) != prod(range(m - 1, 0, -2)):
        raise ContractViolationError(f"the table of {m} vertices misses a matching")
    return table


@functools.cache
def _table(m):
    """(every perfect matching of range(m), checked, and its pairs by
    position: the first pair of every matching, then the second...)."""
    table = _checked_table(m, tuple(_pairings(tuple(range(m)))))
    return table, tuple(zip(*table))


def _unique_least_pairing(w):
    """The least perfect matching of the cost rows `w` (even length, at
    least 2) as pairs (i, j), i < j, in order, or None when another matching
    costs as little."""
    table, columns = _table(len(w))
    costs = [w[a][b] for a, b in columns[0]]
    for column in columns[1:]:
        costs = list(map(add, costs, [w[a][b] for a, b in column]))
    least = min(costs)
    return table[costs.index(least)] if costs.count(least) == 1 else None


def _priced_search(w, sub=None):
    """_blossom_search on candidate lists, then the certificate scan, which
    prices every pair against the search's duals; the pairs that price
    negative join the lists and the search runs again from the jump start,
    until none does.  A negative pair that is a candidate already breaks
    the search's invariant and raises.  `sub` is `w` as a numpy array or
    None: with it the lists, the jump start and the scan run on it; without
    it every vertex lists every partner, so the first scan certifies."""
    m = len(w)
    cand = [range(m)] * m if sub is None else _candidate_lists(sub)
    while True:
        mate, y2, blossoms = _blossom_search(w, cand, sub)
        negative = _certificate_scan(w, mate, y2, blossoms, [], sub)
        if not negative:
            return mate, y2, blossoms
        for u, v in negative:
            if v in cand[u]:
                raise ContractViolationError(
                    f"candidate pair ({u},{v}) prices negative after the search"
                )
            cand[u].append(v)
            cand[v].append(u)
        for row in cand:
            row.sort()


def _candidate_lists(sub):
    """Each vertex's CANDIDATES cheapest partners by (cost, index), made
    symmetric, plus the pairs (2i, 2i + 1), so that the lists hold a
    perfect matching; each list in index order.  `sub` is the costs as a
    numpy array, taken as one boolean matrix: a stable argsort keeps the
    (cost, index) order of each row."""
    import numpy as np  # loaded already: `sub` is an array

    m = len(sub)
    best = sub.argsort(axis=1, kind="stable")[:, : CANDIDATES + 1]
    us = np.arange(m)
    near = np.zeros((m, m), dtype=bool)
    near[us[:, None], best] = True
    # a row that does not list u itself among its first CANDIDATES + 1
    # keeps the first CANDIDATES of them
    other = ~near[us, us]
    near[us[other], best[other, -1]] = False
    near[us, us] = False
    near |= near.T
    near[us, us ^ 1] = True
    partners = np.nonzero(near)[1].tolist()
    ends = np.cumsum(near.sum(axis=1)).tolist()
    return [partners[a:b] for a, b in zip([0, *ends], ends)]


def _jump_start(w, w2):
    """(mate, y2) of the jump start (see _blossom_search) in pure Python."""
    m = len(w)
    y2 = [min(row[:v] + row[v + 1 :]) for v, row in enumerate(w)]
    mate = [-1] * m
    for v in range(m):
        if mate[v] == -1:
            reduced = list(map(sub, w2[v], y2))
            del reduced[v]
            s = min(reduced)
            u = reduced.index(s)
            u += u >= v
            y2[v] = s
            if mate[u] == -1:
                mate[u], mate[v] = v, u
    return mate, y2


def _dense_jump_start(d):
    """_jump_start on `d`, the doubled costs as a numpy array, whose
    diagonal it overwrites.  Every dual stays in 0..max(d) (a raise keeps
    each slack >= 0), so every reduced cost of another vertex does too,
    and a vertex's own cell, set one above, never wins argmin, which
    takes the least index of a tie as list.index does."""
    m = len(d)
    above = d.max() + 1
    d.flat[:: m + 1] = above
    y = d.min(axis=1) // 2  # the cheapest edge: an even number halved
    mate = [-1] * m
    for v in range(m):
        if mate[v] == -1:
            reduced = d[v] - y
            reduced[v] = above
            u = int(reduced.argmin())
            y[v] = reduced[u]
            if mate[u] == -1:
                mate[u], mate[v] = v, u
    return mate, y.tolist()


def _blossom_search(w, cand, sub=None):
    """Returns (mate, y2, blossoms) over internal indices 0..m-1:
    mate[i] = matched partner; y2[i] = doubled vertex dual; blossoms =
    [(sorted member tuple, dual)] for every blossom alive at termination.
    `cand[u]` lists the partners u scans (symmetric, with a perfect
    matching among them; [range(m)] * m scans every pair).  The duals are
    feasible on the pairs scanned.  `sub` is `w` as a numpy array, given
    for a set of more than CANDIDATES + 1 vertices, or None; with it the
    jump start runs in numpy, the stages do not."""
    m = len(w)

    # Jump start: every vertex's doubled dual is its cheapest edge, which is
    # feasible; then each vertex still free, in index order, raises its
    # dual by its least slack, which makes its least (slack, index) edge
    # tight, and takes that edge if the other end is free too.  Each free
    # vertex's dual is then rounded down to even: lowering a dual keeps
    # every slack >= 0, and the roots of every stage share one parity, so
    # S-S slacks stay even and every delta integral.
    if sub is None:
        w2 = [[2 * x for x in row] for row in w]
        mate, y2 = _jump_start(w, w2)
    else:
        d = sub * 2  # fits: dense_cost sizes its dtype for twice the costs
        w2 = d.tolist()
        mate, y2 = _dense_jump_start(d)
        del d
    for v in range(m):
        if mate[v] == -1:
            y2[v] -= y2[v] % 2
    if -1 not in mate:  # a perfect jump start leaves no stage to run
        return mate, y2, []
    # ids m..2m-1 name non-trivial blossoms; a live id has childs != None
    inblossom = list(range(m)) + [-1] * m
    parent = [-1] * (2 * m)
    base = list(range(m)) + [-1] * m
    childs: list = [None] * (2 * m)
    cyc: list = [None] * (2 * m)  # cyc[b][i] joins childs[b][i] to childs[b][i+1]
    zdual = [0] * (2 * m)
    free_ids = list(range(2 * m - 1, m - 1, -1))

    label = [0] * (2 * m)  # 0 free, 1 S, 2 T (top-level ids only)
    tree_edge: list = [None] * (2 * m)  # (vertex on parent side, vertex inside)
    queue: list[int] = []
    # Least-slack edges per top: free edge of b from an S-vertex into free
    # top b, ss edge of b from S top b to another S top.  Their slacks are
    # kept in a frame that dual updates leave alone: a delta lowers every
    # S-free slack by delta and every S-S slack by 2 * delta, so slack +
    # shift and slack + 2 * shift stay fixed, shift being the sum of all
    # deltas so far.  An edge (u, v), u the S-vertex it was scanned from, is
    # stored as the key u * m + v, so keys order edges as (u, v) tuples do.
    # A frame value of `never` (infinity, above every real one) means no
    # edge; an ss_frame of -1 marks a stale S top, whose edge is rebuilt by
    # a rescan when next asked for, and which no scan updates.
    shift = 0
    never = inf
    free_frame = [never] * (2 * m)
    ss_frame = [never] * (2 * m)
    free_key = [0] * (2 * m)
    ss_key = [0] * (2 * m)

    def members(b):
        if b < m:
            return [b]
        out = []
        stack = [b]
        while stack:
            x = stack.pop()
            if x < m:
                out.append(x)
            else:
                stack.extend(childs[x])
        return out

    def assign_s(b, te):
        if label[b] != 0:
            raise ContractViolationError("S-label on a labeled top")
        label[b] = 1
        tree_edge[b] = te
        free_frame[b] = never
        queue.extend(members(b))

    def assign_t(b, te):
        label[b] = 2
        tree_edge[b] = te
        free_frame[b] = never
        bb = base[b]
        partner = mate[bb]
        if partner == -1:
            raise ContractViolationError("free top with unmatched base")
        assign_s(inblossom[partner], (bb, partner))

    def restart_stage():
        for i in range(2 * m):
            label[i] = 0
            tree_edge[i] = None
        queue.clear()
        free_frame[:] = [never] * (2 * m)
        ss_frame[:] = [never] * (2 * m)
        for v in range(m):
            if mate[v] == -1 and label[inblossom[v]] == 0:
                assign_s(inblossom[v], None)

    def scan_blossom(u, v):
        """Common ancestor base vertex of u's and v's tree paths, or -1."""
        path = []
        found = -1
        a, b_side = u, v
        while a != -1 or b_side != -1:
            if a == -1:
                a, b_side = b_side, -1
            b = inblossom[a]
            if label[b] & 4:
                found = base[b]
                break
            path.append(b)
            label[b] |= 4
            if tree_edge[b] is None:
                a = -1
            else:
                a = tree_edge[b][0]  # into the parent T-top
                a = tree_edge[inblossom[a]][0]  # and up to the next S-top
            if b_side != -1:
                a, b_side = b_side, a
        for b in path:
            label[b] &= ~4
        return found

    def add_blossom(base_v, u, v):
        bb = inblossom[base_v]
        kids = [bb]
        edges = []
        up = []
        x = u
        bx = inblossom[x]
        while bx != bb:
            up.append((bx, tree_edge[bx]))
            x = tree_edge[bx][0]
            bx = inblossom[x]
        for child, te in reversed(up):
            edges.append(te)  # parent side first: joins kids[i] to kids[i+1]
            kids.append(child)
        edges.append((u, v))
        x = v
        bx = inblossom[x]
        while bx != bb:
            kids.append(bx)
            te = tree_edge[bx]
            edges.append((te[1], te[0]))
            x = te[0]
            bx = inblossom[x]
        nb = free_ids.pop()
        base[nb] = base[bb]
        parent[nb] = -1
        childs[nb] = tuple(kids)
        cyc[nb] = tuple(edges)
        zdual[nb] = 0
        label[nb] = 1
        tree_edge[nb] = tree_edge[bb]
        for c in kids:
            parent[c] = nb
            free_frame[c] = ss_frame[c] = never
            if label[c] == 2:
                queue.extend(members(c))  # former T-vertices turn S
            label[c] = 0
        for t in members(nb):
            inblossom[t] = nb
        ss_frame[nb] = -1

    def expand_blossom(b, endstage):
        for c in childs[b]:
            parent[c] = -1
            if c < m:
                inblossom[c] = c
            elif endstage and zdual[c] == 0:
                expand_blossom(c, True)
            else:
                for t in members(c):
                    inblossom[t] = c
        childs[b] = None
        cyc[b] = None
        base[b] = -1
        label[b] = 0
        tree_edge[b] = None
        inblossom[b] = -1
        free_frame[b] = ss_frame[b] = never
        free_ids.append(b)

    def augment_blossom(b, v):
        """Rotate b (recursively) so that v becomes its base, re-pairing the
        other children along the cycle."""
        t = v
        while parent[t] != b:
            t = parent[t]
        if t >= m:
            augment_blossom(t, v)
        kids = list(childs[b])
        edges = list(cyc[b])
        i = kids.index(t)
        kids = kids[i:] + kids[:i]
        edges = edges[i:] + edges[:i]
        childs[b] = tuple(kids)
        cyc[b] = tuple(edges)
        base[b] = v
        for j in range(1, len(kids) - 1, 2):
            x, yv = edges[j]
            if kids[j] >= m:
                augment_blossom(kids[j], x)
            if kids[j + 1] >= m:
                augment_blossom(kids[j + 1], yv)
            mate[x] = yv
            mate[yv] = x

    def augment_matching(u, v):
        for s, p in ((u, v), (v, u)):
            cur, partner = s, p
            while True:
                bs = inblossom[cur]
                if label[bs] != 1:
                    raise ContractViolationError("augmenting through non-S top")
                if bs >= m:
                    augment_blossom(bs, cur)
                mate[cur] = partner
                te = tree_edge[bs]
                if te is None:
                    break
                bt = inblossom[te[0]]
                if label[bt] != 2:
                    raise ContractViolationError("augmenting through non-T top")
                x, yv = tree_edge[bt]
                if bt >= m:
                    augment_blossom(bt, yv)
                mate[yv] = x
                cur, partner = x, yv

    def grow(u, v, lv):
        """Act on the tight edge from S-vertex u to v, whose top has label
        lv (free or S): label it T, or merge or augment.  True when the
        matching grew."""
        if lv == 0:
            assign_t(inblossom[v], (u, v))
            return False
        stem = scan_blossom(u, v)
        if stem == -1:
            augment_matching(u, v)
            return True
        add_blossom(stem, u, v)
        return False

    def scan_queue():
        """Scan queued S-vertices edge by edge until the queue is empty
        (False) or the matching grew (True)."""
        while queue:
            u = queue.pop()
            bu = inblossom[u]
            if label[bu] != 1:
                continue
            w2u = w2[u]
            yu = y2[u]
            for v in cand[u]:
                bv = inblossom[v]
                if bv == bu:
                    continue
                s = w2u[v] - yu - y2[v]
                lv = label[bv]
                if s == 0:
                    if lv != 2:
                        if grow(u, v, lv):
                            return True
                        bu = inblossom[u]
                elif lv == 0:
                    f = s + shift
                    cut = free_frame[bv]
                    if f < cut or (f == cut and u * m + v < free_key[bv]):
                        free_frame[bv] = f
                        free_key[bv] = u * m + v
                elif lv == 1:
                    f = s + 2 * shift
                    for side in (bu, bv):
                        # a stale side's -1 is below every f: its rescan
                        # covers this edge
                        cut = ss_frame[side]
                        if f < cut or (f == cut and u * m + v < ss_key[side]):
                            ss_frame[side] = f
                            ss_key[side] = u * m + v
        return False

    def best_ss_edge(b):
        if ss_frame[b] == -1:
            found = None
            for t in members(b):
                for o in cand[t]:
                    ob = inblossom[o]
                    if ob == b or label[ob] != 1:
                        continue
                    s = w2[t][o] - y2[t] - y2[o]
                    if found is None or s < found[0] or (s == found[0] and t * m + o < found[1]):
                        found = (s, t * m + o)
            if found is None:
                ss_frame[b] = never
            else:
                ss_frame[b] = found[0] + 2 * shift
                ss_key[b] = found[1]
        if ss_frame[b] == never:
            return None
        e = divmod(ss_key[b], m)
        if inblossom[e[0]] == inblossom[e[1]]:
            ss_frame[b] = -1  # merge made it internal; rebuild
            return best_ss_edge(b)
        return e

    def least_delta(tops):
        """(delta, kind, edge or blossom) of the next dual update; kind 2
        is an S-free edge, 3 an S-S edge, 4 a T-blossom whose dual runs
        out.  Ties go to the lowest top.  Each edge's slack is its frame
        value less shift (S-free) or 2 * shift (S-S); a free top's edge is
        decoded only when chosen."""
        delta = never
        kind = -1
        dedge = None
        for b in tops:
            lb = label[b]
            if lb == 0:
                d = free_frame[b] - shift  # never when b has no edge
                if d < delta:
                    delta, kind, dedge = d, 2, b
            elif lb == 1:
                e = best_ss_edge(b)
                if e is not None:
                    s = ss_frame[b] - 2 * shift
                    if s % 2 != 0:
                        raise ContractViolationError(
                            "odd S-S slack; dual parity invariant broken"
                        )
                    if s // 2 < delta:
                        delta, kind, dedge = s // 2, 3, e
            elif lb == 2 and b >= m:
                if zdual[b] < delta:
                    delta, kind, dedge = zdual[b], 4, b
        if kind == -1:
            raise ContractViolationError("no dual adjustment available")
        if kind == 2:
            dedge = divmod(free_key[dedge], m)
        return delta, kind, dedge

    def update_duals():
        nonlocal shift
        tops = sorted(set(inblossom[:m]))  # every top holds a vertex
        delta, kind, dedge = least_delta(tops)
        if delta < 0:
            raise ContractViolationError("negative dual adjustment")
        shift += delta
        for t in range(m):
            lt = label[inblossom[t]]
            if lt == 1:
                y2[t] += delta
            elif lt == 2:
                y2[t] -= delta
        for b in tops:
            if b >= m:
                if label[b] == 1:
                    zdual[b] += delta
                elif label[b] == 2:
                    zdual[b] -= delta
        if kind == 4:
            expand_blossom(dedge, False)
            restart_stage()
        else:
            queue.append(dedge[0])  # rescanned at once: the edge is tight

    for _stage in range(mate.count(-1) // 2):
        restart_stage()
        guard = 0
        while not scan_queue():
            guard += 1
            if guard > 50 * m * m + 100:
                raise ContractViolationError("matching search stalled")
            update_duals()
        for b in range(m, 2 * m):
            if (
                childs[b] is not None
                and parent[b] == -1
                and label[b] == 1
                and zdual[b] == 0
            ):
                expand_blossom(b, True)

    for v in range(m):
        if mate[v] == -1 or mate[mate[v]] != v:
            raise ContractViolationError("search ended without a perfect matching")
    blossoms = [
        (tuple(sorted(members(b))), zdual[b])
        for b in range(m, 2 * m)
        if childs[b] is not None
    ]
    # the recursive helpers hold the search's state in reference cycles:
    # unlinked, it is freed now, not at the next cyclic garbage collection
    del expand_blossom, augment_blossom, best_ss_edge
    return mate, y2, blossoms


def verify_matching_certificate(w, mate, y2, blossoms) -> None:
    """LP optimality certificate: reduced slacks non-negative everywhere,
    zero on matched edges; blossom duals non-negative on odd sets; every
    positive-dual blossom fully matched inside; primal cost equals the dual
    objective.  Raises ContractViolationError on the first violation."""
    _certificate_scan(w, mate, y2, blossoms, None)


def _certificate_scan(w, mate, y2, blossoms, negative, sub=None):
    """verify_matching_certificate's checks, except when `negative` is a
    list: then each pair (u, v), u < v, of negative reduced slack is
    appended to it in scan order instead of raising, and the list is
    returned, after the pair scan if it is not empty (the search runs
    again, and its next scan checks the rest).  The search prices its
    candidate lists this way.  `sub`, when given, is `w` as a numpy array,
    on which the pair scan runs."""
    m = len(w)
    if len(mate) != m or len(y2) != m:
        raise ContractViolationError(f"mate and y2 need {m} entries, one per vertex")
    for mem, z in blossoms:
        if z < 0:
            raise ContractViolationError(f"negative blossom dual {z}")
        if not all(0 <= x < m for x in mem):
            raise ContractViolationError(f"blossom {mem} has a member outside 0..{m - 1}")
        if len(set(mem)) != len(mem):
            raise ContractViolationError(f"blossom {mem} repeats a member")
        if len(mem) < 3 or len(mem) % 2 == 0:
            raise ContractViolationError(f"blossom over non-odd set {mem}")
    for u in range(m):
        if not 0 <= mate[u] < m or mate[mate[u]] != u or mate[u] == u:
            raise ContractViolationError("mate array is not a perfect matching")
    if sub is None:
        below, loose = _pair_scan(w, mate, y2, blossoms)
    else:
        below, loose = _dense_pair_scan(sub, mate, y2, blossoms)
    # the first violation in scan order raises, and a loose matched edge
    # raises even where negative pairs are listed
    if loose and (negative is not None or not below or loose[0] < below[0]):
        u, v, s = loose[0]
        raise ContractViolationError(f"matched edge ({u},{v}) has slack {s}")
    if below:
        if negative is None:
            u, v, s = below[0]
            raise ContractViolationError(f"negative reduced slack {s} on ({u},{v})")
        negative.extend((u, v) for u, v, _ in below)
        return negative
    for mem, z in blossoms:
        if z > 0:
            mem_set = set(mem)
            inside = sum(1 for x in mem if mate[x] in mem_set)
            if inside != len(mem) - 1:
                raise ContractViolationError(
                    "positive-dual blossom is not fully matched inside"
                )
    cost = sum(w[u][mate[u]] for u in range(m))  # each pair counted twice
    dual = sum(y2) - 2 * sum(z * (len(mem) // 2) for mem, z in blossoms)
    if cost != dual:
        raise ContractViolationError(
            f"primal 2*cost {cost} != dual objective {dual}"
        )
    return negative


def _pair_scan(w, mate, y2, blossoms):
    """(below, loose): the pairs (u, v), u < v, of negative reduced slack,
    and the matched ones of positive slack, each in row-major order as
    (u, v, s), s the pair's doubled reduced slack; each blossom of positive
    dual adds it to the pairs inside, as in _dense_pair_scan."""
    m = len(w)
    z2 = [[0] * m for _ in range(m)]
    for mem, z in blossoms:
        if z:
            for u in mem:
                row = z2[u]
                for v in mem:
                    row[v] += 2 * z
    below, loose = [], []
    for u in range(m):
        wu, yu, zu, mu = w[u], y2[u], z2[u], mate[u]
        for v in range(u + 1, m):
            s = 2 * wu[v] - yu - y2[v] + zu[v]
            if s < 0:
                below.append((u, v, s))
            elif mu == v and s != 0:
                loose.append((u, v, s))
    return below, loose


def _dense_pair_scan(sub, mate, y2, blossoms):
    """_pair_scan on `sub`, every slack at once, in a dtype that holds
    every term and partial sum of them; each blossom of positive dual
    adds it to the pairs inside."""
    import numpy as np  # loaded already: `sub` is an array

    m = len(sub)
    zsum = sum(z for _, z in blossoms)
    bound = 2 * int(sub.max()) + 2 * max(map(abs, y2)) + 2 * zsum
    y = int_array(y2, bound)
    s = sub.astype(y.dtype)
    s *= 2
    s -= y[:, None]
    s -= y
    for mem, z in blossoms:
        if z:
            s[np.ix_(mem, mem)] += 2 * z
    at = np.nonzero(np.triu(s < 0, 1))
    below = list(zip(*(a.tolist() for a in at), s[at].tolist()))
    us = [u for u in range(m) if u < mate[u]]
    vs = [mate[u] for u in us]
    loose = [(u, v, x) for u, v, x in zip(us, vs, s[us, vs].tolist()) if x > 0]
    return below, loose
