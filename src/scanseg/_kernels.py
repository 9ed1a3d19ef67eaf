"""Vectorized kernels behind the sorted 1D clustering core.

Upper neighborhood bounds come from ``np.searchsorted``, corrected to the
exact float predicate of the paper's pointer sweep.  They run in blocks of
``VEC_BLOCK`` points that keep scratch memory small, each searching a
window of the block plus one neighborhood, so after the sort they cost
O(N log VEC_BLOCK) while neighborhoods stay under a block, and O(N log N)
only when one neighborhood spans the array.  Lower bounds follow from
the upper ones by one rule: lower[i] is the first point whose upper bound
reaches i, and across the seam of a ring the first point whose bound
reaches n + i, less n.  On a line that is a running count of the upper
bounds, taken block by block; for the head of a ring, a search of them.
Cluster ranges then follow from chains of linked cores, and labels from
the ranges alone, by one rule under every border policy: a point that
two ranges share goes to the later range.  All are bit-identical to the
paper's counted O(N) sweep, which the tests keep as the reference.

Besides its input, a clustering run holds two arrays of N int64 at a
time: upper and lower while they are found and read, then the labels,
which :func:`fill_labels` fills from the ranges alone, after the
bounds are gone.  Under AS_NOISE one bool per point, from
:func:`noncores`, marks the non-cores across that switch.  A run that
lists only each cluster's members, ``dbscan1d._members`` (one per stage
of the scan segmentation), fills no labels: the members are the
positions of the ranges, less the non-cores under AS_NOISE.  After the
bounds it holds two N-arrays, the positions and the cluster of each;
under AS_NOISE the mask and the kept copies of both come on top.  The
grouped search keys (below) take 16 bytes a point and go before lower
comes.  Every other array scales with a block or with the number of
clusters.

The paper's operation counts follow from the same arrays: the pointer
steps that sweep would make from the bounds (:func:`sweep_steps`), its
expansion touches from the reach of each cluster that
:func:`cluster_ranges` gives (:func:`sweep_touches`), which alone closes a
ring across its seam.  They describe the paper's algorithm; the work done
here is what wall-clock time measures.

The linear bounds also serve many independent groups in one pass, each
sorted on its own (stage 2 of the scan segmentation): searches then run
on (group, value) keys and a neighbor must carry the point's group id, so
no bound leaves its group, and the values and the float predicate stay
exactly those of one call per group.

Every public function returns its arrays and leaves its inputs
unchanged.  The border policy comes as its
:class:`scanseg.dbscan1d.BorderPolicy` value ("first", "all" or
"noise").  Label conventions shared with :mod:`scanseg.dbscan1d`: -1
means noise, cluster ids start at 1, and a cluster range starts in
[0, n), running past n - 1 when it crosses the seam of a ring.
"""

import numpy as np

NOISE = -1


# Upper bounds: a searchsorted guess per point, corrected to the exact
# predicate the sweep evaluates.  Labels: in one dimension two consecutive
# cores share a cluster exactly when the later one lies inside the earlier
# one's upper bound, and a non-core point can only be reached by the
# cluster of its previous core and that of its next core, so whole
# clusters follow from their first and last cores.  Work runs in blocks of
# VEC_BLOCK points, the count of upper bounds that gives lower too, in
# pieces of at most a block: only the bounds, the grouped search keys, the
# labels or member lists and the non-core mask scale with N.

VEC_BLOCK = 1 << 15


def _blocks(n):
    return [(a, a + VEC_BLOCK if a + VEC_BLOCK < n else n) for a in range(0, n, VEC_BLOCK)]


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
    # at -1 the predicate reads the last value; drop those
    k = (~fits(idx, slice(None)) & (idx >= 0)).nonzero()[0]
    while k.size:
        idx[k] = s.searchsorted(s[idx[k]], "left") - 1
        k = k[idx[k] >= 0]
        k = k[~fits(idx[k], k)]
    k = ((idx < n - 1) & fits(np.minimum(idx + 1, n - 1), slice(None))).nonzero()[0]
    while k.size:
        idx[k] = s.searchsorted(s[idx[k] + 1], "right") - 1
        k = k[idx[k] < n - 1]
        k = k[fits(idx[k] + 1, k)]


def _block_upper(x, s, eps, a, b, group):
    """Upper bounds of points a..b-1, exactly as the sweep's.

    A search, corrected to the sweep's predicate.  No bound lies below its
    own point: x + eps is never below x.
    """
    xi = x[a:b]
    if s is x:
        key = xi + eps

        def fits(j, k):
            return x[j] - xi[k] <= eps

    else:
        # x + eps searched within the point's group, and a neighbor must
        # carry the point's group id
        key = s[a:b] + 1j * eps
        g = group[a:b]

        def fits(j, k):
            return (x[j] - xi[k] <= eps) & (group[j] == g[k])

    # the guesses of the block lie between those of its end points, so
    # searching that window alone gives the same answers, faster
    end = int(s.searchsorted(key[-1], "right"))
    up = s[a:end].searchsorted(key, "right")
    up += a - 1
    _last_fit(s, up, fits)
    return up


def _block_lower(upper, j, a, b, out):
    """Write the lower bounds of points a..b-1 into ``out``.

    ``j`` is the number of points whose upper bound lies below a; returns
    that number for b.  Upper never decreases, so the points whose bound
    lies in [a, b) come next, j..k-1, and lower[i] is j plus the number of
    them whose bound lies below i: a running count.  A bound below b
    belongs to a point before b, so k is found among the bounds of those
    points.  The count runs in pieces of at most a block: in a dense block
    the points that reach it from before can far outnumber it.
    """
    n = upper.shape[0]
    k = n if b == n else j + upper[j:b].searchsorted(b, "left")
    run = upper[j:k]
    # block 0 needs no shift, and its run, of points before b, fits one piece
    counts = np.bincount(run[:VEC_BLOCK] - a if a else run, minlength=b - a)
    p = VEC_BLOCK
    while p < run.shape[0]:
        counts += np.bincount(run[p : p + VEC_BLOCK] - a, minlength=b - a)
        p += VEC_BLOCK
    out[0] = j
    counts[0] += j
    np.cumsum(counts[:-1], out=out[1:])
    return k


# a key x + eps past the float max is inf and searches to the array end,
# where the exact predicate corrects it: an overflow that must not warn
@np.errstate(over="ignore")
def linear_bounds(x, eps, group=None):
    """Per-point neighborhood bounds ``(lower, upper)`` of sorted values.

    upper[i] is the largest j with x[j] - x[i] <= eps, lower[i] the smallest
    j with x[i] - x[j] <= eps.  ``group``, a non-decreasing integer id per
    point, splits x into groups that are each sorted and clustered on their
    own: neighbors are sought within the point's group only, so no bound
    leaves it and upper stays non-decreasing across the groups: a
    candidate, never before the point, must carry the point's group id.
    Without it, x is one group.

    Points j <= i are neighbors exactly when upper[j] >= i, the same float
    test, so lower[i] is a count: the number of points whose upper bound
    lies below i.
    """
    n = x.shape[0]
    s = x
    if group is not None:
        # complex numbers order by real part first, so (group, value)
        # keys sort the whole array while the values stay exact
        s = np.empty(n, np.complex128)
        s.real = group
        s.imag = x
    blocks = _blocks(n)
    upper = np.empty(n, np.int64)
    for a, b in blocks:
        upper[a:b] = _block_upper(x, s, eps, a, b, group)
    # the grouped keys, 16 bytes a point, go before lower comes
    del s
    lower = np.empty(n, np.int64)
    j = 0
    for a, b in blocks:
        j = _block_lower(upper, j, a, b, lower[a:b])
    return lower, upper


@np.errstate(over="ignore")  # the tail keys, as in linear_bounds
def circular_bounds(x, eps, period):
    """Neighborhood bounds ``(lower, upper)`` on a circle of the given period.

    Values live in [0, period) and eps must be below period / 2.  Bounds are
    unwrapped indices: upper[i] may reach len(x) + i - 1 and lower[i] may go
    negative, where index j refers to x[j mod n] shifted by a full period.
    The wrapped distance is evaluated as period - (hi - lo) with hi and lo
    the raw stored values, matching the min(d, period - d) form used by the
    brute-force reference, so both sides make identical float decisions.
    A point continues past the seam only when its linear upper bound
    already reaches the array end; there the wrapped predicate picks up the
    values from the other end.  Lower bounds then follow from the upper
    ones, across the seam too, as on a line.
    """
    n = x.shape[0]
    lower, upper = linear_bounds(x, eps)
    # linear bounds never decrease, so the points whose upper bound reaches
    # the array end form a tail
    tail = int(upper.searchsorted(n - 1, "left"))
    for a in range(tail, n, VEC_BLOCK):
        xt = x[a : a + VEC_BLOCK]
        j = x.searchsorted((xt + eps) - period, "right")
        j -= 1
        _last_fit(x, j, lambda i, k: period - (xt[k] - x[i]) <= eps)
        j += 1
        upper[a : a + VEC_BLOCK] += j
    # Lower bounds across the seam follow from upper, as on a line: a head
    # point i < head, reached by the last point, has for lower bound the
    # first point whose upper bound reaches n + i, less n.  This is exact
    # for two reasons.  Across the seam two points are neighbors by one
    # float expression, period - (x_tail - x_head) <= eps, the same from
    # either side, and the tail pass above evaluated it.  And rounding is
    # monotone, so a point that does not reach x[n-1] on the line does not
    # reach across the seam either: only tail points can, and upper never
    # decreases, so searching all of it finds them.
    head = int(upper[-1]) - (n - 1) if n else 0
    for a, b in _blocks(head):
        lower[a:b] = upper.searchsorted(np.arange(n + a, n + b), "left") - n
    return lower, upper


def core_chains(lower, upper, min_points):
    """First and last core of each run of linked cores, and the core count.

    Cores c < c' that are consecutive among the cores belong to one chain
    exactly when c' <= upper[c]; chains come back in index order.
    """
    firsts, lasts = [], []
    cores, prev_reach = 0, -1
    for a in range(0, upper.shape[0], VEC_BLOCK):
        up = upper[a : a + VEC_BLOCK]
        core = (up - lower[a : a + VEC_BLOCK] >= min_points - 1).nonzero()[0]
        if not core.size:
            continue
        cores += core.size
        reach = up[core]
        if a:
            core += a
        # edges[i] says that core i starts a chain, edges[i + 1] that it
        # ends one: a chain ends where the next one starts, or at the
        # block's last core unless the next block goes on with it
        edges = np.empty(core.size + 1, np.bool_)
        edges[0] = core[0] > prev_reach
        np.greater(core[1:], reach[:-1], out=edges[1:-1])
        edges[-1] = True
        if not edges[0]:
            lasts[-1] = lasts[-1][:-1]  # the chain goes on from the last block
        firsts.append(core[edges[:-1]])
        lasts.append(core[edges[1:]])
        prev_reach = int(reach[-1])
    if len(firsts) == 1:
        return firsts[0], lasts[0], cores
    if not firsts:
        return np.empty(0, np.int64), np.empty(0, np.int64), 0
    return np.concatenate(firsts), np.concatenate(lasts), cores


def cluster_ranges(lower, upper, chains, policy, circular):
    """Cluster ranges from the bounds; returns ``(raw, lo, hi, reach)``.

    ``chains`` is core_chains() of the same bounds and ``policy`` a border
    policy value: "first", "all" or "noise".  Gives the ranges of the
    paper's sweep on these bounds, including its order of discovery:
    clusters are numbered by the first core an ascending sweep meets, so
    on a ring the chain through index 0 is cluster 1 and takes in the
    chain that closes on it across the seam.  Under FIRST_CLUSTER a
    border point goes to the smaller of the (at most two) cluster ids
    that reach it, so the ranges are disjoint; under ALL_CLUSTERS a
    range is the full reach of its chains, and ranges may overlap; under
    AS_NOISE a range spans its chain's cores.
    The closed ranges lo[c]..hi[c] come back normalized: every lo lies in
    [0, n), and a range across the seam runs hi past n - 1.  ``raw``, a
    pair of arrays, holds the same ranges before that move, ascending,
    where only the first may start below 0: fill_labels() labels them.
    ``reach``, a pair of arrays too, holds the unwrapped reach of each
    cluster's chains: from the lower bound of its first core to the upper
    bound of its last (cluster 1's starts one turn down when a chain
    closes on it).  Every array scales with the number of clusters, so
    the bounds can go before the labels come.
    """
    n = upper.shape[0]
    first, last, cores = chains
    if not cores:
        return (first, last), first, last, (first, last)
    seed = first[:1]
    if circular and first.size > 1 and first[0] + n <= upper[last[-1]]:
        # the last chain closes on the first one across the seam
        first = np.concatenate(([first[-1] - n], first[1:-1]))
        last = last[:-1]
    # a chain closed across the seam starts one turn down, at a negative
    # index that reads its place one turn up
    reach_lo = lower[first]
    if first[0] < 0:
        reach_lo[0] -= n
    reach_hi = upper[last]
    if first.size == 1 and circular and (
        cores == n if policy == "noise" else reach_hi[0] - reach_lo[0] + 1 >= n
    ):
        # every point is absorbed: the whole ring, from the seed
        lo, hi = seed, seed + n - 1
    elif policy == "noise":
        lo, hi = first, last
    elif policy == "first":
        # each cluster keeps what it reaches before the next one can
        lo = reach_lo.copy()
        np.maximum(reach_lo[1:], reach_hi[:-1] + 1, out=lo[1:])
        hi = reach_hi.copy()
        if circular:
            hi[-1] = min(hi[-1], reach_lo[0] + n - 1)
    else:
        # ALL_CLUSTERS: each range is its chains' full reach
        lo, hi = reach_lo, reach_hi
    raw = lo, hi
    if lo[0] < 0:
        # a range that starts below index 0 (only the first can) is
        # reported one turn up
        lo, hi = lo.copy(), hi.copy()
        lo[0] += n
        hi[0] += n
    return raw, lo, hi, (reach_lo, reach_hi)


def noncores(lower, upper, min_points):
    """One bool per point, true where it is not a core: AS_NOISE's noise
    inside a cluster's segment."""
    n = upper.shape[0]
    mask = np.empty(n, np.bool_)
    for a, b in _blocks(n):
        mask[a:b] = upper[a:b] - lower[a:b] < min_points - 1
    return mask


def fill_labels(n, ranges, noncore):
    """Labels of n points: cluster ids over the ``ranges`` that
    cluster_ranges() gives as ``raw``, NOISE elsewhere and where
    ``noncore`` (of noncores(), under AS_NOISE; None under the other
    policies) is true.

    Range c, the closed range ranges[0][c]..ranges[1][c], takes id c + 1.
    Ranges are unwrapped, ascending and each at most n long; a point two
    ranges share goes to the later one (the last claimant, under
    ALL_CLUSTERS; the ranges of the other policies are disjoint).  Works
    by adding steps at each range's ends, taken modulo n, and one cumsum,
    so the labels are the one N-array it makes.
    """
    lo, hi = ranges
    if not lo.size:
        return np.full(n, NOISE, np.int64)
    start = lo % n
    end = hi.copy()
    np.minimum(hi[:-1], lo[1:] - 1, out=end[:-1])
    # across the seam of a ring the first range yields to the last; on a
    # line hi[-1] - n + 1 <= 0 <= lo[0]
    start[0] = max(lo[0], hi[-1] - n + 1) % n
    end %= n
    step = np.arange(1 - NOISE, lo.size + 1 - NOISE, dtype=np.int64)
    labels = np.zeros(n, np.int64)
    # a range that crosses the seam also runs from index 0 to its end
    labels[0] = NOISE + step[start > end].sum()
    labels[start] += step
    stop = end < n - 1
    labels[end[stop] + 1] -= step[stop]
    np.cumsum(labels, out=labels)
    if noncore is not None:
        labels[noncore] = NOISE
    return labels


def sweep_steps(lower, upper):
    """Pointer steps the paper's bound sweep makes to find these bounds.

    Its forward pointer ends one past upper[n-1] and its backward pointer
    one before lower[0], each moving one index per step: exactly 2N on a
    line, at most 4N - 2 on a ring.
    """
    n = upper.shape[0]
    return int(upper[-1]) + 1 + n - int(lower[0]) if n else 0


def sweep_touches(reach, chains, n, policy, circular):
    """Points the paper's cluster expansion examines, from the ``reach``
    that cluster_ranges() gives for ``chains`` of n points.

    The expansion of a cluster scans its reach: reach_hi - reach_lo points.
    On a ring, cluster 1 has the two caps of the paper's sweep: its upward
    scan stops one turn from the seed, and it stops at N - 1 touches when
    every touched point is absorbed, as always but under AS_NOISE with a
    non-core point.  No other cluster reaches a full turn: its chain would
    then link to the next one or close on chain 1.
    """
    first, _, cores = chains
    reach_lo, reach_hi = reach
    touches = reach_hi - reach_lo
    if circular and cores:
        one = min(reach_hi[0], first[0] + n - 1) - reach_lo[0]
        touches[0] = min(one, n - 1) if policy != "noise" or cores == n else one
    return int(touches.sum())


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
        chains = core_chains(lower, upper, 2)
        raw = cluster_ranges(lower, upper, chains, "first", circular)[0]
        fill_labels(x.shape[0], raw, None)
