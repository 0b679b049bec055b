"""Exact minimum-cost perfect matching on complete graphs.

Primal-dual blossom search specialized to dense inputs.  Vertex duals are
stored doubled so every delta stays integral (all unmatched vertices keep
equal duals, tree paths are tight, hence S-S slacks stay even); blossom
duals are stored plain.  Slacks are only evaluated between different
top-level blossoms, where no common blossom dual contributes.

Two deliberate simplifications versus the classic bookkeeping, both simple
rather than asymptotically best:
  - per-blossom least-slack edges are revalidated lazily and rebuilt by a
    local rescan when a merge invalidated them;
  - expanding a T-blossom mid-stage relabels the whole stage from scratch
    instead of surgically relabeling the expanded path.

Odd-degree sets are not small: a metric instance of n = 400 gives about 170
vertices.  So the scan of a new S-vertex, the search's inner loop, compares
each edge's slack with stored numbers only: least-slack edges keep their
slacks in a frame that dual updates leave unchanged.  From SIFT_MIN
vertices on, the scan also computes its slack row with numpy and runs the
per-edge bookkeeping only on the edges that can change a label, the allowed
set or a stored least-slack edge.

A bitmask-DP oracle (brute_matching) and an LP-certificate check
(verify_matching_certificate) keep the search honest in tests.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ContractViolationError, SizeRefusalError
from .instance import Instance

__all__ = [
    "Matching",
    "min_cost_perfect_matching",
    "brute_matching",
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


def min_cost_perfect_matching(inst: Instance, odd, verify: bool = False) -> Matching:
    """Minimum-cost perfect matching on the subgraph induced by `odd`,
    using original instance costs.  With verify=True the dual certificate
    is checked before returning (raises on any violation)."""
    verts = _checked_vertices(inst, odd)
    m = len(verts)
    if m == 0:
        return Matching((), 0)
    w = [[inst.cost[a][b] for b in verts] for a in verts]
    mate, y2, blossoms = _blossom_search(w)
    if verify:
        verify_matching_certificate(w, mate, y2, blossoms)
    pairs = tuple(
        (verts[i], verts[mate[i]]) for i in range(m) if i < mate[i]
    )
    return Matching(pairs, sum(inst.cost[a][b] for a, b in pairs))


# odd-set size from which sifting a scan with numpy saves more Python work
# than its per-call cost (measured crossover on CEIL_2D odd-degree sets:
# between 132 and 170 vertices)
SIFT_MIN = 150


def _blossom_search(w):
    """Returns (mate, y2, blossoms) over internal indices 0..m-1:
    mate[i] = matched partner; y2[i] = doubled vertex dual; blossoms =
    [(sorted member tuple, dual)] for every blossom alive at termination."""
    m = len(w)
    w2 = [[2 * x for x in row] for row in w]
    minw = min(w[u][v] for u in range(m) for v in range(u + 1, m))
    top = max(map(max, w))
    # Bounds, with top the largest cost: every delta raises the duals of all
    # free vertices, which stay S and equal, and two of them always sit in
    # different top blossoms, where y2 + y2 <= 2 * top.  So the deltas sum to
    # at most top - minw and every |y2| <= top; slacks between tops lie in
    # [0, 4 * top] and the frame values below in [0, 6 * top].  int64 holds
    # all of them when 8 * top < 2**63; larger costs use exact Python ints.
    #
    # Sifted scans keep their per-edge inputs in numpy; smaller searches
    # keep the same state in lists, scan every edge and leave numpy unloaded.
    sift = m >= SIFT_MIN
    if sift:
        import numpy as np

        dtype = np.int64 if top < 1 << 60 else object

    def state(values):
        return np.array(values, dtype=dtype) if sift else values

    w2a = state(w2)
    y2 = [minw] * m
    y2a = state(list(y2))
    mate = [-1] * m

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
    allowed: list = []  # symmetric 0/1 rows, one bytearray per vertex
    # Least-slack edges per top: free_edge[b] from an S-vertex into free top
    # b, ss_edge[b] from S top b to another S top.  Their slacks are kept in
    # a frame that dual updates leave alone: a delta lowers every S-free
    # slack by delta and every S-S slack by 2 * delta, so slack + shift and
    # slack + 2 * shift stay fixed, shift being the sum of all deltas so far.
    # A frame value of `never` (above every real one) means no edge; an
    # ss_frame of -1 marks a stale S top, whose edge is rebuilt by a rescan
    # when next asked for, and whose side scans skip.
    shift = 0
    never = 8 * top + 1
    free_frame = state([never] * (2 * m))
    ss_frame = state([never] * (2 * m))
    free_edge: list = [None] * (2 * m)
    ss_edge: list = [None] * (2 * m)
    # numpy copy of inblossom[:m] and masks of the vertices in free, S and
    # T tops, made on demand; every change of a label or a blossom clears it
    tops_now: list = [None]

    def slack2(u, v):
        return w2[u][v] - y2[u] - y2[v]

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
        tops_now[0] = None
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
        tops_now[0] = None
        for i in range(2 * m):
            label[i] = 0
            tree_edge[i] = None
        queue.clear()
        allowed[:] = [bytearray(m) for _ in range(m)]
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
        tops_now[0] = None
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
        tops_now[0] = None
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

    def best_ss_edge(b):
        if ss_frame[b] == -1:
            found = None
            for t in members(b):
                for o in range(m):
                    ob = inblossom[o]
                    if ob == b or label[ob] != 1:
                        continue
                    s = slack2(t, o)
                    if found is None or s < found[0] or (s == found[0] and (t, o) < found[1]):
                        found = (s, (t, o))
            if found is None:
                ss_frame[b] = never
            else:
                ss_frame[b] = found[0] + 2 * shift
                ss_edge[b] = found[1]
        if ss_frame[b] == never:
            return None
        e = ss_edge[b]
        if inblossom[e[0]] == inblossom[e[1]]:
            ss_frame[b] = -1  # merge made it internal; rebuild
            return best_ss_edge(b)
        return e

    def update_duals():
        nonlocal shift
        delta = None
        dtype = -1
        dedge = None
        dblossom = -1
        tops = [
            b
            for b in range(2 * m)
            if parent[b] == -1 and (b < m or childs[b] is not None)
        ]
        for b in tops:
            lb = label[b]
            if lb == 0:
                if free_frame[b] != never:
                    e = free_edge[b]
                    d = slack2(*e)
                    if delta is None or d < delta:
                        delta, dtype, dedge = d, 2, e
            elif lb == 1:
                e = best_ss_edge(b)
                if e is not None:
                    s = slack2(*e)
                    if s % 2 != 0:
                        raise ContractViolationError(
                            "odd S-S slack; dual parity invariant broken"
                        )
                    if delta is None or s // 2 < delta:
                        delta, dtype, dedge = s // 2, 3, e
            elif lb == 2 and b >= m:
                if delta is None or zdual[b] < delta:
                    delta, dtype, dblossom = zdual[b], 4, b
        if dtype == -1:
            raise ContractViolationError("no dual adjustment available")
        if delta < 0:
            raise ContractViolationError("negative dual adjustment")
        shift += delta
        for t in range(m):
            lt = label[inblossom[t]]
            if lt == 1:
                y2[t] += delta
            elif lt == 2:
                y2[t] -= delta
        y2a[:] = y2
        for b in tops:
            if b >= m:
                if label[b] == 1:
                    zdual[b] += delta
                elif label[b] == 2:
                    zdual[b] -= delta
        if dtype == 4:
            expand_blossom(dblossom, False)
            restart_stage()
        else:
            u, v = dedge
            allowed[u][v] = allowed[v][u] = 1
            queue.append(u)

    def pending(u, bu, row, first):
        """The vertices v >= first, ascending, on which the scan of S-vertex
        u in top bu would act now (row holds the slacks of u's edges):
        tight or allowed edges that can label or merge something, and other
        edges whose slack may lower a stored least-slack edge."""
        if tops_now[0] is None:
            ib = np.array(inblossom[:m])
            lv = np.array(label)[ib]
            tops_now[0] = (ib, lv == 0, lv == 1, lv == 2)
        ib, free, s_top, t_top = (a[first:] for a in tops_now[0])
        s = row[first:]
        al = np.frombuffer(allowed[u], dtype=bool)[first:]
        cross = ib != bu
        quiet = ~(al | (s == 0))  # the body only compares these
        # the slack below which an edge replaces the stored edge of v's top
        cut = np.where(free, free_frame[ib] - shift, ss_frame[ib] - 2 * shift)
        gain = quiet & ~t_top & (s <= cut)
        # on bu's side an edge can only win where it ties or lowers the
        # running minimum, since among equal slacks the earlier (u, v) wins
        ss = cross & quiet & s_top
        g = np.where(ss, s, never)
        gain |= ss & (g == np.minimum.accumulate(g)) & (g <= ss_frame[bu] - 2 * shift)
        act = cross & (gain | ~quiet & ~(t_top & al))
        return (np.flatnonzero(act) + first).tolist()

    for _stage in range(m // 2):
        restart_stage()
        augmented = False
        guard = 0
        while not augmented:
            while queue and not augmented:
                u = queue.pop()
                bu = inblossom[u]
                if label[bu] != 1:
                    continue
                w2u = w2[u]
                yu = y2[u]
                if sift:
                    row = w2a[u] - yu - y2a
                first = 0
                while first < m:
                    todo = pending(u, bu, row, first) if sift else range(first, m)
                    first = m
                    for v in todo:
                        bv = inblossom[v]
                        if bv == bu:
                            continue
                        s = w2u[v] - yu - y2[v]
                        if s == 0 and not allowed[u][v]:
                            allowed[u][v] = allowed[v][u] = 1
                        if allowed[u][v]:
                            lv = label[bv]
                            if lv == 0:
                                assign_t(bv, (u, v))
                            elif lv == 1:
                                stem = scan_blossom(u, v)
                                if stem == -1:
                                    augment_matching(u, v)
                                    augmented = True
                                    break
                                add_blossom(stem, u, v)
                            bu = inblossom[u]
                            if lv != 2:
                                # labels or blossoms changed: select again
                                first = v + 1
                                break
                        else:
                            lv = label[bv]
                            if lv == 0:
                                f = s + shift
                                cut = free_frame[bv]
                                if f < cut or (f == cut and (u, v) < free_edge[bv]):
                                    free_frame[bv] = f
                                    free_edge[bv] = (u, v)
                            elif lv == 1:
                                f = s + 2 * shift
                                for side in (bu, bv):
                                    cut = ss_frame[side]
                                    if cut == -1:
                                        continue  # stale: its rescan covers this edge
                                    if f < cut or (f == cut and (u, v) < ss_edge[side]):
                                        ss_frame[side] = f
                                        ss_edge[side] = (u, v)
            if augmented:
                break
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
    return mate, y2, blossoms


def verify_matching_certificate(w, mate, y2, blossoms) -> None:
    """LP optimality certificate: reduced slacks non-negative everywhere,
    zero on matched edges; blossom duals non-negative on odd sets; every
    positive-dual blossom fully matched inside; primal cost equals the dual
    objective.  Raises ContractViolationError on the first violation."""
    m = len(w)
    for mem, z in blossoms:
        if z < 0:
            raise ContractViolationError(f"negative blossom dual {z}")
        if len(mem) < 3 or len(mem) % 2 == 0:
            raise ContractViolationError(f"blossom over non-odd set {mem}")
    for u in range(m):
        if mate[u] == -1 or mate[mate[u]] != u or mate[u] == u:
            raise ContractViolationError("mate array is not a perfect matching")
    for u in range(m):
        for v in range(u + 1, m):
            zsum = sum(z for mem, z in blossoms if u in mem and v in mem)
            s = 2 * w[u][v] - y2[u] - y2[v] + 2 * zsum
            if s < 0:
                raise ContractViolationError(
                    f"negative reduced slack {s} on ({u},{v})"
                )
            if mate[u] == v and s != 0:
                raise ContractViolationError(
                    f"matched edge ({u},{v}) has slack {s}"
                )
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


def brute_matching(inst: Instance, odd) -> Matching:
    """Bitmask-DP exact minimum perfect matching (testing oracle)."""
    verts = _checked_vertices(inst, odd)
    m = len(verts)
    if m > 16:
        raise SizeRefusalError(f"brute_matching supports at most 16 vertices, got {m}")
    if m == 0:
        return Matching((), 0)
    c = inst.cost
    full = 1 << m
    # dp[mask] = min cost to perfectly match the vertex set mask; the lowest
    # set bit must pair with someone, so minimizing over its partner is
    # complete and every even-popcount mask gets a value
    dp = [None] * full
    dp[0] = 0
    for mask in range(1, full):
        if bin(mask).count("1") % 2 == 1:
            continue
        i = 0
        while not mask >> i & 1:
            i += 1
        best = None
        for j in range(i + 1, m):
            if not mask >> j & 1:
                continue
            cand = dp[mask ^ 1 << i ^ 1 << j] + c[verts[i]][verts[j]]
            if best is None or cand < best:
                best = cand
        dp[mask] = best
    pairs = []
    mask = full - 1
    while mask:
        i = 0
        while not mask >> i & 1:
            i += 1
        for j in range(i + 1, m):
            if not mask >> j & 1:
                continue
            prev = mask ^ 1 << i ^ 1 << j
            if dp[prev] + c[verts[i]][verts[j]] == dp[mask]:
                pairs.append((verts[i], verts[j]))
                mask = prev
                break
        else:
            raise ContractViolationError("matching DP reconstruction failed")
    pairs.sort()
    return Matching(tuple(pairs), dp[full - 1])
