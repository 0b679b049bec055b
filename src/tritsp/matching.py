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
slacks in a frame that dual updates leave unchanged.

From SIFT_MIN vertices on, scans run in numpy batches (Galil's dense
primal-dual search, ACM Comput. Surv. 1986, with bookkeeping vectorized as
Blossom V does in C, Kolmogorov 2009).  A search makes thousands of row
scans but only hundreds of events (a T-label, a blossom, an augmentation,
a dual update).  Between two events labels, blossoms, duals and the pop
order of the queue stay fixed, and every other edge only lowers a stored
least-slack edge or marks a tight edge allowed; those updates commute.  So
a batch takes the next queued rows in pop order, finds the first edge that
acts in numpy, and runs the per-edge event code on it alone; the updates
of the edges before it wait until the duals next move and then run as one
grouped min-reduction (apply_quiet).  Dual updates pick their delta from
the stored frames in numpy.  The (mate, y2, blossoms) result is the full
per-edge scan's, which stays as the path for smaller searches and as the
reference in tests.

A bitmask-DP oracle (brute_matching) and an LP-certificate check
(verify_matching_certificate) keep the search honest in tests.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ContractViolationError, SizeRefusalError
from .instance import Instance, int_array

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
    if m == 2:
        # one possible matching; both duals at the edge's cost certify it
        mate, y2, blossoms = [1, 0], [w[0][1]] * 2, []
    else:
        mate, y2, blossoms = _blossom_search(w)
    if verify:
        verify_matching_certificate(w, mate, y2, blossoms)
    pairs = tuple(
        (verts[i], verts[mate[i]]) for i in range(m) if i < mate[i]
    )
    return Matching(pairs, sum(inst.cost[a][b] for a, b in pairs))


# odd-set size from which batched numpy scans beat the per-edge scan
# (measured crossover on CEIL_2D odd-degree sets: 62 to 66 vertices)
SIFT_MIN = 64
# queued rows a batched scan examines at once; an event ends a batch early
# and returns the unexamined rows to the queue (at n = 400, batches of 8
# and of 32 rows were both slower)
BATCH_ROWS = 16


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
    # [0, 4 * top] and the frame values below in [0, 6 * top], all below
    # `never`; the edge keys stay below m * m.
    #
    # Batched searches keep their per-edge state in numpy; smaller searches
    # keep it in lists, scan every edge and leave numpy unloaded.
    batched = m >= SIFT_MIN

    y2 = [minw] * m
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
    allowed: list = []  # symmetric 0/1 rows, one per vertex
    # Least-slack edges per top: free edge of b from an S-vertex into free
    # top b, ss edge of b from S top b to another S top.  Their slacks are
    # kept in a frame that dual updates leave alone: a delta lowers every
    # S-free slack by delta and every S-S slack by 2 * delta, so slack +
    # shift and slack + 2 * shift stay fixed, shift being the sum of all
    # deltas so far.  An edge (u, v), u the S-vertex it was scanned from, is
    # stored as the key u * m + v, so keys order edges as (u, v) tuples do.
    # A frame value of `never` (above every real one) means no edge; an
    # ss_frame of -1 marks a stale S top, whose edge is rebuilt by a rescan
    # when next asked for, and which no scan updates.
    shift = 0
    never = 8 * top + 1
    if batched:
        import numpy as np

        w2a = int_array(w2, max(never, m * m))
        y2a = np.full_like(w2a, minw, shape=m)
        # free tops' entries first, then S tops': apply_quiet lowers both
        frames = np.full_like(w2a, never, shape=4 * m)
        keys = np.zeros_like(frames)
        free_frame, ss_frame = frames[: 2 * m], frames[2 * m :]
        free_key, ss_key = keys[: 2 * m], keys[2 * m :]
    else:
        free_frame = [never] * (2 * m)
        ss_frame = [never] * (2 * m)
        free_key = [0] * (2 * m)
        ss_key = [0] * (2 * m)
    # batched searches keep every slack, and which edges are tight or
    # allowed, from one dual update to the next (refresh)
    slacks = open_edges = None
    # the scanned rows whose quiet updates wait for apply_quiet: (rows,
    # live edges, tops and top labels as scanned, row count)
    quiet: list = []
    # numpy copies of inblossom[:m] and of the label of each vertex's top,
    # made on demand; every change of a label or a blossom clears them
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
        nonlocal allowed
        tops_now[0] = None
        for i in range(2 * m):
            label[i] = 0
            tree_edge[i] = None
        queue.clear()
        quiet.clear()
        if batched:
            allowed = np.zeros((m, m), dtype=bool)
        else:
            allowed = [bytearray(m) for _ in range(m)]
        free_frame[:] = [never] * (2 * m)
        ss_frame[:] = [never] * (2 * m)
        for v in range(m):
            if mate[v] == -1 and label[inblossom[v]] == 0:
                assign_s(inblossom[v], None)
        if batched:
            refresh()

    def refresh():
        """Recompute the slacks after the duals moved, and the edges that
        are tight or allowed: within a scan only tight edges turn allowed,
        so this set stays fixed until the next dual update."""
        nonlocal slacks, open_edges
        slacks = w2a - y2a[:, None] - y2a
        open_edges = (slacks == 0) | allowed

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

    def grow(u, v, lv):
        """Act on the allowed edge from S-vertex u to v, whose top has label
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
            al = allowed[u]
            for v in range(m):
                bv = inblossom[v]
                if bv == bu:
                    continue
                s = w2u[v] - yu - y2[v]
                if s == 0 and not al[v]:
                    al[v] = allowed[v][u] = 1
                lv = label[bv]
                if al[v]:
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

    def tops_arrays():
        if tops_now[0] is None:
            ib = np.array(inblossom[:m])
            tops_now[0] = (ib, np.array(label)[ib])
        return tops_now[0]

    def apply_quiet():
        """Apply the quiet updates of the batches scanned since the last
        dual update, as one grouped min-reduction.

        A quiet edge's update commutes with every other until the duals
        move, except that labeling a free top or merging a top resets its
        stored edge.  So an update counts only if its top is the same top,
        with the same label, now: a free top still free, an S top not yet
        merged (a new blossom is stale and rescans its own edges)."""
        if not quiet:
            return
        us, live, ibs, lts, counts = zip(*quiet)
        quiet.clear()
        us = np.concatenate(us)
        s = slacks[us]
        live = np.concatenate(live)
        scanned_ib = np.repeat(np.stack(ibs), counts, axis=0)
        scanned_lt = np.repeat(np.stack(lts), counts, axis=0)
        ib, lt = tops_arrays()
        # tight S-T edges become allowed
        ri, vi = np.nonzero(live & (s == 0))
        allowed[us[ri], vi] = allowed[vi, us[ri]] = True
        cols = np.arange(m)
        s_edge = live & (scanned_lt == 1)
        same = scanned_ib == ib
        same_u = same[np.arange(len(us)), us]
        # per group, the least (slack, key) among its edges: a column's
        # least slack over the rows with the least u, for free and S tops
        # on v's side; a row's least slack with the least v, on u's side
        parts = []
        for side, valid in ((0, live & (scanned_lt == 0) & (lt == 0)), (1, s_edge & same)):
            x = np.where(valid, s, never)
            least = x.min(axis=0)
            u = np.where(x == least, us[:, None], m).min(axis=0)
            at = least < never
            parts.append((ib[at] + 2 * m * side, least[at] + shift * (1 + side), u[at] * m + cols[at]))
        x = np.where(s_edge & same_u[:, None], s, never)
        least = x.min(axis=1)
        v = np.where(x == least[:, None], cols, m).min(axis=1)
        at = least < never
        parts.append((ib[us[at]] + 2 * m, least[at] + 2 * shift, us[at] * m + v[at]))
        groups, f, k = (np.concatenate(p) for p in zip(*parts))
        fmin = np.full_like(frames, never)
        np.minimum.at(fmin, groups, f)
        tie = f == fmin[groups]
        kmin = np.full_like(frames, m * m)
        np.minimum.at(kmin, groups[tie], k[tie])
        # a stale S top's -1 is below every f: its rescan covers these edges
        better = (fmin < frames) | ((fmin == frames) & (kmin < keys))
        frames[better] = fmin[better]
        keys[better] = kmin[better]

    def scan_queue_batched():
        """scan_queue in batches of rows between events, same trajectory.

        Between two events labels, blossoms, duals and the pop order stay
        fixed, and every other edge only lowers stored least-slack edges or
        marks a tight S-T edge allowed: updates that commute.  So a batch
        takes the next queued rows in pop order, finds the first edge that
        acts (an allowed edge into a free or S top), keeps the edges before
        it for apply_quiet, and runs the per-edge event code on it."""
        row, first = -1, 0  # the row an event interrupted, resumed at first
        while row != -1 or queue:
            ib, lt = tops_arrays()
            popped = queue[-BATCH_ROWS:]
            del queue[-BATCH_ROWS:]
            popped.reverse()
            rows = [row] if row != -1 else []
            taken = [-1] * len(rows)  # each row's position in popped
            for i, x in enumerate(popped):
                if lt[x] == 1:
                    rows.append(x)
                    taken.append(i)
            if not rows:
                continue
            us = np.array(rows)
            live = ib != ib[us, None]
            live[0, :first] = False
            acts = live & open_edges[us] & (lt != 2)
            at = int(acts.argmax())
            event = bool(acts.flat[at])
            if event:
                live.flat[at:] = False
            quiet.append((us, live, ib, lt, len(rows)))
            row, first = -1, 0
            if not event:
                continue
            r, v = divmod(at, m)
            u = rows[r]
            rest = popped[taken[r] + 1 :]
            rest.reverse()
            queue.extend(rest)  # unexamined rows go back in pop order
            if slacks[u, v] == 0:
                allowed[u][v] = allowed[v][u] = 1
            if grow(u, v, label[inblossom[v]]):
                return True
            if v + 1 < m:
                row, first = u, v + 1
        return False

    def best_ss_edge(b):
        if ss_frame[b] == -1:
            found = None
            for t in members(b):
                for o in range(m):
                    ob = inblossom[o]
                    if ob == b or label[ob] != 1:
                        continue
                    s = slack2(t, o)
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
        out.  Ties go to the lowest top."""
        delta = None
        kind = -1
        dedge = None
        for b in tops:
            lb = label[b]
            if lb == 0:
                if free_frame[b] != never:
                    e = divmod(free_key[b], m)
                    d = slack2(*e)
                    if delta is None or d < delta:
                        delta, kind, dedge = d, 2, e
            elif lb == 1:
                e = best_ss_edge(b)
                if e is not None:
                    s = slack2(*e)
                    if s % 2 != 0:
                        raise ContractViolationError(
                            "odd S-S slack; dual parity invariant broken"
                        )
                    if delta is None or s // 2 < delta:
                        delta, kind, dedge = s // 2, 3, e
            elif lb == 2 and b >= m:
                if delta is None or zdual[b] < delta:
                    delta, kind, dedge = zdual[b], 4, b
        if kind == -1:
            raise ContractViolationError("no dual adjustment available")
        return delta, kind, dedge

    def least_delta_batched(tops):
        """least_delta from the stored frames in numpy; stale S tops are
        rescanned a whole member block at a time."""
        ib, lt = tops_arrays()
        ta = np.array(tops)
        lab = np.array(label)[ta]
        # an S top whose edge a merge made internal is stale as well
        s_tops = ta[lab == 1]
        kept = s_tops[(ss_frame[s_tops] != -1) & (ss_frame[s_tops] != never)]
        key = ss_key[kept].astype(np.int64)
        ss_frame[kept[ib[key // m] == ib[key % m]]] = -1
        for b in s_tops[ss_frame[s_tops] == -1].tolist():
            cols = np.flatnonzero((ib != b) & (lt == 1))
            if not cols.size:
                ss_frame[b] = never
                continue
            mem = np.array(members(b))
            s = slacks[np.ix_(mem, cols)]
            smin = s.min()
            ri, ci = np.nonzero(s == smin)
            ss_frame[b] = smin + 2 * shift
            ss_key[b] = (mem[ri] * m + cols[ci]).min()
        value = np.full_like(frames, never, shape=len(tops))
        free = (lab == 0) & (free_frame[ta] != never)
        value[free] = free_frame[ta[free]] - shift
        ss = (lab == 1) & (ss_frame[ta] != never)
        s = ss_frame[ta[ss]] - 2 * shift
        if (s % 2 != 0).any():
            raise ContractViolationError("odd S-S slack; dual parity invariant broken")
        value[ss] = s // 2
        tb = (lab == 2) & (ta >= m)
        value[tb] = [zdual[b] for b in ta[tb].tolist()]
        i = int(value.argmin())
        if value[i] == never:
            raise ContractViolationError("no dual adjustment available")
        b = int(ta[i])
        kind = 2 if lab[i] == 0 else 3 if lab[i] == 1 else 4
        if kind == 4:
            return zdual[b], 4, b
        e = divmod(int((free_key if kind == 2 else ss_key)[b]), m)
        return int(value[i]), kind, e

    def update_duals():
        nonlocal shift
        tops = sorted(set(inblossom[:m]))  # every top holds a vertex
        if batched:
            apply_quiet()
        delta, kind, dedge = (least_delta_batched if batched else least_delta)(tops)
        if delta < 0:
            raise ContractViolationError("negative dual adjustment")
        shift += delta
        if batched:
            ib, lt = tops_arrays()
            y2a[lt == 1] += delta
            y2a[lt == 2] -= delta
            y2[:] = y2a.tolist()
        else:
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
            u, v = dedge
            allowed[u][v] = allowed[v][u] = 1
            queue.append(u)
            if batched:
                refresh()

    scan = scan_queue_batched if batched else scan_queue
    for _stage in range(m // 2):
        restart_stage()
        guard = 0
        while not scan():
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
    # zsum[u][v], u < v: the summed duals of the blossoms holding u and v
    zsum = [[0] * m for _ in range(m)]
    for mem, z in blossoms:
        members = sorted(set(mem))
        for i, u in enumerate(members):
            row = zsum[u]
            for v in members[i + 1 :]:
                row[v] += z
    for u in range(m):
        for v in range(u + 1, m):
            s = 2 * w[u][v] - y2[u] - y2[v] + 2 * zsum[u][v]
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
