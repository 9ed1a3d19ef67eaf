"""Vectorized kernels behind the sorted 1D clustering core.

Neighborhood bounds come from ``np.searchsorted``, corrected to the exact
float predicate of the paper's pointer sweep, so they run in O(N log N)
after the sort, in fixed-size blocks that keep scratch memory small.
Labels and cluster ranges then follow from chains of linked cores.  Both
are bit-identical to the paper's counted O(N) sweep, which the tests keep
as the reference.

The paper's operation counts follow from the same bounds and chains:
:func:`sweep_steps` and :func:`sweep_touches` give the pointer steps and
expansion touches that sweep would make on them.  They describe the
paper's algorithm; the work done here is what wall-clock time measures.

The linear bounds also serve many independent groups in one pass, each
sorted on its own (stage 2 of the scan segmentation): searches then run
on (group, value) keys, so no bound leaves its group, and the values and
the float predicate stay exactly those of one call per group.

Every function returns its arrays and leaves its inputs unchanged.  The
border policy comes as its :class:`scanseg.dbscan1d.BorderPolicy` value
("first", "all" or "noise").  Label conventions shared with
:mod:`scanseg.dbscan1d`: -1 means noise, cluster ids start at 1, and a
cluster range starts in [0, n), running past n - 1 when it crosses the
seam of a ring.
"""

import numpy as np

NOISE = -1


# Bounds: a searchsorted guess per point, corrected to the exact predicate
# the sweep evaluates.  Labels: in one dimension two consecutive cores
# share a cluster exactly when the later one lies inside the earlier one's
# upper bound, and a non-core point can only be reached by the cluster of
# its previous core and that of its next core, so whole clusters follow
# from their first and last cores.  Work runs in blocks of VEC_BLOCK
# points: besides the bounds and labels, every array scales with the block
# or with the number of clusters.

VEC_BLOCK = 1 << 15


def _blocks(n):
    return ((a, min(a + VEC_BLOCK, n)) for a in range(0, n, VEC_BLOCK))


def _last_fit(s, idx, fits):
    """Move candidates ``idx`` (in place) to the last index that fits.

    ``fits(j, k)`` evaluates the predicate at indices j for entries k of idx
    (an index array or a full slice); it must hold on a prefix of the
    candidate's group and fail after it.  -1 means that no index fits.
    ``s`` holds the search keys of the values (see :func:`linear_bounds`),
    equal exactly where both group and value are.  The predicate depends
    on the value only, so each correction step passes a whole run of equal
    keys: long runs of equal values cost one step, not one per index.
    """
    n = s.shape[0]
    k = np.flatnonzero((idx >= 0) & ~fits(np.maximum(idx, 0), slice(None)))
    while k.size:
        idx[k] = np.searchsorted(s, s[idx[k]], "left") - 1
        k = k[idx[k] >= 0]
        k = k[~fits(idx[k], k)]
    k = np.flatnonzero((idx < n - 1) & fits(np.minimum(idx + 1, n - 1), slice(None)))
    while k.size:
        idx[k] = np.searchsorted(s, s[idx[k] + 1], "right") - 1
        k = k[idx[k] < n - 1]
        k = k[fits(idx[k] + 1, k)]


def _block_bounds(x, s, eps, a, b, lower, upper, top):
    """Linear bounds of points a..b-1, exactly as the sweep's.

    Needs upper[:a] filled.  The upper bounds come from a search corrected
    to the sweep's predicate.  Points j <= i are neighbors exactly when
    upper[j] >= i, the same float test, so lower[i] is then a count: the
    number of points whose upper bound lies below i.
    """
    xi = x[a:b]
    if s is x:
        key = xi + eps

        def fits(j, k):
            return x[j] - xi[k] <= eps

    else:
        # x + eps searched within the point's group, and a neighbor must
        # not pass the group's last index
        key = s[a:b] + 1j * eps
        last = top[a:b]

        def fits(j, k):
            return (x[j] - xi[k] <= eps) & (j <= last[k])

    # the guesses of the block lie between those of its end points, so
    # searching that window alone gives the same answers, faster
    end = int(np.searchsorted(s, key[-1], "right"))
    up = np.searchsorted(s[a:end], key, "right")
    up += a - 1
    _last_fit(s, up, fits)
    upper[a:b] = up
    start, stop = (int(j) for j in np.searchsorted(upper[:b], (a, b), "left"))
    counts = np.zeros(b - a, np.int64)
    for c in range(start, stop, VEC_BLOCK):
        counts += np.bincount(upper[c : min(c + VEC_BLOCK, stop)] - a, minlength=b - a)
    lower[a] = start
    np.cumsum(counts[:-1], out=lower[a + 1 : b])
    lower[a + 1 : b] += start


def linear_bounds(x, eps, group=None):
    """Per-point neighborhood bounds ``(lower, upper)`` of sorted values.

    upper[i] is the largest j with x[j] - x[i] <= eps, lower[i] the smallest
    j with x[i] - x[j] <= eps.  ``group``, a non-decreasing integer id per
    point, splits x into groups that are each sorted and clustered on their
    own: neighbors are sought within the point's group only, so no bound
    leaves it and upper stays non-decreasing across the groups.  Without
    it, x is one group.
    """
    n = x.shape[0]
    s, top = x, None
    if group is not None:
        # complex numbers order by real part first, so (group, value)
        # keys sort the whole array while the values stay exact
        s = np.empty(n, np.complex128)
        s.real = group
        s.imag = x
        top = np.searchsorted(group, group, "right") - 1
    lower = np.empty(n, np.int64)
    upper = np.empty(n, np.int64)
    for a, b in _blocks(n):
        _block_bounds(x, s, eps, a, b, lower, upper, top)
    return lower, upper


def circular_bounds(x, eps, period):
    """Neighborhood bounds ``(lower, upper)`` on a circle of the given period.

    Values live in [0, period) and eps must be below period / 2.  Bounds are
    unwrapped indices: upper[i] may reach len(x) + i - 1 and lower[i] may go
    negative, where index j refers to x[j mod n] shifted by a full period.
    The wrapped distance is evaluated as period - (hi - lo) with hi and lo
    the raw stored values, matching the min(d, period - d) form used by the
    brute-force reference, so both sides make identical float decisions.
    A point continues past the seam only when its linear bound already
    reaches the array end; there the wrapped predicate picks up the values
    from the other end.
    """
    n = x.shape[0]
    lower, upper = linear_bounds(x, eps)
    for a, b in _blocks(n):
        xi, lo, up = x[a:b], lower[a:b], upper[a:b]
        t = np.flatnonzero(up == n - 1)
        if t.size:
            xt = xi[t]
            j = np.searchsorted(x, (xt + eps) - period, "right")
            j -= 1
            _last_fit(x, j, lambda i, k: period - (xt[k] - x[i]) <= eps)
            up[t] += j + 1
        h = np.flatnonzero(lo == 0)
        if h.size:
            xh = xi[h]
            # the last value still out of reach across the seam; all values
            # above it are neighbors
            j = np.searchsorted(x, (xh - eps) + period, "left")
            j -= 1
            _last_fit(x, j, lambda i, k: period - (x[i] - xh[k]) > eps)
            lo[h] = j + 1 - n
    return lower, upper


def core_chains(lower, upper, min_points):
    """First and last core of each run of linked cores, and the core count.

    Cores c < c' that are consecutive among the cores belong to one chain
    exactly when c' <= upper[c]; chains come back in index order.
    """
    firsts, lasts = [], []
    cores = 0
    prev_core, prev_reach = -1, -1
    for a, b in _blocks(upper.shape[0]):
        up = upper[a:b]
        core = np.flatnonzero(up - lower[a:b] >= min_points - 1)
        if not core.size:
            continue
        cores += core.size
        reach = up[core]
        core += a
        starts = np.empty(core.size, np.bool_)
        starts[0] = core[0] > prev_reach
        np.greater(core[1:], reach[:-1], out=starts[1:])
        if starts[0] and prev_core >= 0:
            lasts.append(np.array([prev_core], np.int64))
        lasts.append(core[:-1][starts[1:]])
        firsts.append(core[starts])
        prev_core, prev_reach = int(core[-1]), int(reach[-1])
    if prev_core >= 0:
        lasts.append(np.array([prev_core], np.int64))
    if not firsts:
        return np.empty(0, np.int64), np.empty(0, np.int64), 0
    return np.concatenate(firsts), np.concatenate(lasts), cores


def _fill(n, start, end, ids):
    """Labels: ids over the closed segments [start, end], NOISE elsewhere.

    Segments are unwrapped (start may be negative, end may pass n - 1) and
    must be disjoint modulo n.  Works by adding steps and one cumsum.
    """
    start = start.copy()
    end = end.copy()
    neg = start < 0
    start[neg] += n
    end[neg] += n
    over = end >= n
    if over.any():
        start = np.concatenate((start, np.zeros(int(over.sum()), np.int64)))
        end = np.concatenate((np.where(over, n - 1, end), end[over] - n))
        ids = np.concatenate((ids, ids[over]))
    labels = np.zeros(n, np.int64)
    labels[0] = NOISE
    labels[start] += ids - NOISE
    stop = end < n - 1
    labels[end[stop] + 1] -= ids[stop] - NOISE
    return np.cumsum(labels, out=labels)


def label_clusters(lower, upper, chains, min_points, policy, circular):
    """Label every point from its bounds; returns ``(labels, lo, hi)``.

    ``chains`` is core_chains() of the same bounds and ``policy`` a border
    policy value: "first", "all" or "noise".  Gives the labels and ranges
    of the paper's sweep on these bounds, including its order of
    discovery: clusters are numbered by the first core an ascending sweep
    meets, so on a ring the chain through index 0 is cluster 1 and takes
    in the chain that closes on it across the seam.
    Under FIRST_CLUSTER a border point goes to the smaller of the (at most
    two) cluster ids that reach it, under ALL_CLUSTERS to the larger.
    The closed ranges lo[c]..hi[c] come back normalized: every lo lies in
    [0, n), and a range across the seam runs hi past n - 1.
    """
    n = upper.shape[0]
    first, last, cores = chains
    if not cores:
        return np.full(n, NOISE, np.int64), first, last
    seed = first[:1]
    if circular and first.size > 1 and first[0] + n <= upper[last[-1]]:
        # the last chain closes on the first one across the seam
        first = np.concatenate(([first[-1] - n], first[1:-1]))
        last = last[:-1]
    k = first.size
    ids = np.arange(1, k + 1, dtype=np.int64)
    shift = np.where(first < 0, -n, 0)
    reach_lo = lower[first - shift] + shift
    reach_hi = upper[last]
    if k == 1 and circular and (
        cores == n if policy == "noise" else reach_hi[0] - reach_lo[0] + 1 >= n
    ):
        # every point is absorbed: the whole ring, from the seed
        labels = np.ones(n, np.int64)
        lo, hi = seed, seed + n - 1
    elif policy == "noise":
        labels = _fill(n, first, last, ids)
        for a, b in _blocks(n):
            labels[a:b][upper[a:b] - lower[a:b] < min_points - 1] = NOISE
        lo, hi = first, last
    elif policy == "first":
        # each cluster keeps what it reaches before the next one can
        lo = reach_lo.copy()
        np.maximum(reach_lo[1:], reach_hi[:-1] + 1, out=lo[1:])
        hi = reach_hi.copy()
        if circular and k > 1:
            hi[-1] = min(hi[-1], reach_lo[0] + n - 1)
        labels = _fill(n, lo, hi, ids)
    else:
        # ALL_CLUSTERS: ranges are the full reach, labels go to the last
        # claimant
        seg_lo = reach_lo.copy()
        seg_hi = reach_hi.copy()
        np.minimum(reach_hi[:-1], reach_lo[1:] - 1, out=seg_hi[:-1])
        if circular and k > 1:
            seg_lo[0] = max(seg_lo[0], reach_hi[-1] - n + 1)
        labels = _fill(n, seg_lo, seg_hi, ids)
        lo, hi = reach_lo, reach_hi
    if circular:
        # a range that starts below index 0 is reported one turn up
        turn = np.where(lo < 0, n, 0)
        lo, hi = lo + turn, hi + turn
    return labels, lo, hi


def sweep_steps(lower, upper):
    """Pointer steps the paper's bound sweep makes to find these bounds.

    Its forward pointer ends one past upper[n-1] and its backward pointer
    one before lower[0], each moving one index per step: exactly 2N on a
    line, at most 4N - 2 on a ring.
    """
    n = upper.shape[0]
    return int(upper[-1]) + 1 + n - int(lower[0]) if n else 0


def sweep_touches(lower, upper, chains, policy, circular):
    """Points the paper's cluster expansion examines on these bounds.

    The expansion seeded at a chain's first core f scans up to the reach of
    its last core l and down to the reach of f, so on a line it touches
    upper[l] - lower[f] points.  On a ring only cluster 1 needs more care:
    its upward scan stops one turn from the seed, its downward scan runs
    on through the last chain when that chain closes on it across the seam,
    and it stops once the cluster holds all N points.  That caps it at
    N - 1 touches whenever every touched point is absorbed: always, except
    under AS_NOISE with a non-core point.  No other chain reaches a full
    turn, since it would then link to the next chain or close on chain 1.
    """
    first, last, cores = chains
    if not cores:
        return 0
    reach = upper[last] - lower[first]
    if not circular:
        return int(reach.sum())
    n = upper.shape[0]
    f = int(first[0])
    low = int(lower[f])
    if first.size > 1 and f + n <= upper[last[-1]]:
        low = min(low, int(lower[first[-1]]) - n)
        reach = reach[:-1]
    touches = min(int(upper[last[0]]), f + n - 1) - low
    if policy != "noise" or cores == n:
        touches = min(touches, n - 1)
    return touches + int(reach[1:].sum())


def warmup():
    """Run the bounds and the labels once on a tiny input, linear (one
    group and two) and circular, so that a benchmark's first timed call
    pays no one-time costs."""
    x = np.array([0.0, 0.05, 0.2, 5.0])
    for circular, (lower, upper) in (
        (False, linear_bounds(x, 0.1)),
        (False, linear_bounds(x, 0.1, np.array([0, 0, 1, 1]))),
        (True, circular_bounds(x, 0.1, 2.0 * np.pi)),
    ):
        label_clusters(lower, upper, core_chains(lower, upper, 2), 2, "first", circular)
