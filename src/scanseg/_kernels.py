"""Hot loops behind the sweep clustering core.

Two implementations of the same clustering live here, and both give
bit-identical labels and cluster ranges:

* The vectorized NumPy path (``*_vec`` functions) is what every call gets
  by default.  It finds neighborhood bounds with ``np.searchsorted`` and
  then corrects them to the kernels' exact float predicate, so it runs in
  O(N log N) after the sort, in fixed-size blocks that keep its scratch
  memory small.
* The counted sweep (``linear_bounds``, ``circular_bounds``,
  ``expand_*``, ``dbscan_sweep``) is the paper's O(N) reference: two
  monotone pointers and one expanding scan, with every step counted.
  :mod:`scanseg.dbscan1d` runs it whenever a caller passes ``counters=``.
  The ``2N`` / ``4N-2`` step bounds, the ``<= 2N`` touch bound, the
  ``scanseg bench`` CSV timings and acceptance criteria 3 and 4 all come
  from this path.

The counted sweep is written so that numba can compile it in nopython
mode.  numba is an optional extra (``pip install scanseg[jit]``); when it
is installed and ``SCANSEG_NO_JIT`` is unset it compiles the counted sweep
only, and that combination is not measured by this project's benchmark.
Without numba the same functions run under the plain interpreter, with
identical semantics.

Label conventions shared with :mod:`scanseg.dbscan1d`: 0 means not yet
visited, -1 means noise, cluster ids start at 1.
"""

import os

import numpy as np

if os.environ.get("SCANSEG_NO_JIT"):
    njit = None
else:
    try:
        from numba import njit
    except ImportError:  # pragma: no cover
        njit = None

if njit is None:  # pragma: no cover
    def njit(*args, **kwargs):
        if args and callable(args[0]):
            return args[0]

        def wrap(func):
            return func

        return wrap


NOT_VISITED = 0
NOISE = -1

POLICY_FIRST = 0
POLICY_ALL = 1
POLICY_AS_NOISE = 2


@njit(cache=True)
def linear_bounds(x, eps, lower, upper):
    """Fill per-point neighborhood bounds for sorted values, return step count.

    upper[i] is the largest j with x[j] - x[i] <= eps, lower[i] the smallest
    j with x[i] - x[j] <= eps.  Both pointers only ever move forward, so the
    total number of inner advances is exactly 2 * len(x).
    """
    n = x.shape[0]
    steps = 0
    u = 0
    for i in range(n):
        while u < n and x[u] - x[i] <= eps:
            u += 1
            steps += 1
        upper[i] = u - 1
    l = n - 1
    for i in range(n - 1, -1, -1):
        while l >= 0 and x[i] - x[l] <= eps:
            l -= 1
            steps += 1
        lower[i] = l + 1
    return steps


@njit(cache=True)
def circular_bounds(x, eps, period, lower, upper):
    """Neighborhood bounds on a circle of the given period.

    Values live in [0, period) and eps must be below period / 2.  Bounds are
    unwrapped indices: upper[i] may reach len(x) + i - 1 and lower[i] may go
    negative, where index j refers to x[j mod n] shifted by a full period.
    The wrapped distance is evaluated as period - (hi - lo) with hi and lo
    the raw stored values, matching the min(d, period - d) form used by the
    brute-force reference, so both sides make identical float decisions.
    """
    n = x.shape[0]
    steps = 0
    u = 0
    for i in range(n):
        while u < i + n:
            if u < n:
                delta = x[u] - x[i]
            else:
                delta = period - (x[i] - x[u - n])
            if delta <= eps:
                u += 1
                steps += 1
            else:
                break
        upper[i] = u - 1
    l = n - 1
    for i in range(n - 1, -1, -1):
        while l > i - n:
            if l >= 0:
                delta = x[i] - x[l]
            else:
                delta = period - (x[l + n] - x[i])
            if delta <= eps:
                l -= 1
                steps += 1
            else:
                break
        lower[i] = l + 1
    return steps


@njit(cache=True)
def expand_linear(lower, upper, labels, p, cluster_id, min_points, policy):
    """Grow cluster ``cluster_id`` outward from the core point p.

    Scans the moving neighborhood target upward then downward, relabeling
    unvisited points (and, depending on policy, previously noise-labeled or
    foreign border points).  Returns (lo, hi, touches) where [lo, hi] spans
    exactly the points absorbed into this cluster and touches counts every
    point examined.
    """
    n = labels.shape[0]
    labels[p] = cluster_id
    lo = p
    hi = p
    touches = 0
    u = upper[p]
    i = p + 1
    while i < n and i <= u:
        touches += 1
        lab = labels[i]
        if lab != cluster_id:
            if policy == POLICY_AS_NOISE:
                if lab == NOT_VISITED:
                    if upper[i] - lower[i] + 1 >= min_points:
                        labels[i] = cluster_id
                        hi = i
                        if upper[i] > u:
                            u = upper[i]
                    else:
                        labels[i] = NOISE
            elif lab == NOT_VISITED or lab == NOISE or policy == POLICY_ALL:
                grew = lab == NOT_VISITED or policy == POLICY_ALL
                labels[i] = cluster_id
                hi = i
                if grew and upper[i] - lower[i] + 1 >= min_points:
                    if upper[i] > u:
                        u = upper[i]
        i += 1
    l = lower[p]
    i = p - 1
    while i >= 0 and i >= l:
        touches += 1
        lab = labels[i]
        if lab != cluster_id:
            if policy == POLICY_AS_NOISE:
                if lab == NOT_VISITED:
                    if upper[i] - lower[i] + 1 >= min_points:
                        labels[i] = cluster_id
                        lo = i
                        if lower[i] < l:
                            l = lower[i]
                    else:
                        labels[i] = NOISE
            elif lab == NOT_VISITED or lab == NOISE or policy == POLICY_ALL:
                grew = lab == NOT_VISITED or policy == POLICY_ALL
                labels[i] = cluster_id
                lo = i
                if grew and upper[i] - lower[i] + 1 >= min_points:
                    if lower[i] < l:
                        l = lower[i]
        i -= 1
    return lo, hi, touches


@njit(cache=True)
def expand_circular(lower, upper, labels, p, cluster_id, min_points, policy):
    """Circular variant of expand_linear working on unwrapped bound tables.

    The scan is capped at one full turn in each direction and stops early
    once every point has been absorbed; a chain that closes the circle is
    reported as the canonical range (p, p + n - 1).  Returned lo may be
    negative and hi may exceed n - 1, both meaning the range wraps.
    """
    n = labels.shape[0]
    labels[p] = cluster_id
    lo = p
    hi = p
    absorbed = 1
    touches = 0
    u = upper[p]
    i = p + 1
    while i <= u and i <= p + n - 1:
        touches += 1
        j = i % n
        shift = (i // n) * n
        lab = labels[j]
        if lab != cluster_id:
            if policy == POLICY_AS_NOISE:
                if lab == NOT_VISITED:
                    if upper[j] - lower[j] + 1 >= min_points:
                        labels[j] = cluster_id
                        hi = i
                        absorbed += 1
                        if upper[j] + shift > u:
                            u = upper[j] + shift
                    else:
                        labels[j] = NOISE
            elif lab == NOT_VISITED or lab == NOISE or policy == POLICY_ALL:
                grew = lab == NOT_VISITED or policy == POLICY_ALL
                labels[j] = cluster_id
                hi = i
                absorbed += 1
                if grew and upper[j] - lower[j] + 1 >= min_points:
                    if upper[j] + shift > u:
                        u = upper[j] + shift
        i += 1
    l = lower[p]
    i = p - 1
    while i >= l and i >= p - n + 1 and absorbed < n:
        touches += 1
        j = i % n
        shift = (i // n) * n
        lab = labels[j]
        if lab != cluster_id:
            if policy == POLICY_AS_NOISE:
                if lab == NOT_VISITED:
                    if upper[j] - lower[j] + 1 >= min_points:
                        labels[j] = cluster_id
                        lo = i
                        absorbed += 1
                        if lower[j] + shift < l:
                            l = lower[j] + shift
                    else:
                        labels[j] = NOISE
            elif lab == NOT_VISITED or lab == NOISE or policy == POLICY_ALL:
                grew = lab == NOT_VISITED or policy == POLICY_ALL
                labels[j] = cluster_id
                lo = i
                absorbed += 1
                if grew and upper[j] - lower[j] + 1 >= min_points:
                    if lower[j] + shift < l:
                        l = lower[j] + shift
        i -= 1
    if absorbed >= n:
        return p, p + n - 1, touches
    return lo, hi, touches


@njit(cache=True)
def dbscan_sweep(lower, upper, min_points, policy, labels, out_lo, out_hi, circular):
    """Single ascending scan assigning every point to a cluster or noise.

    Writes cluster ranges into out_lo/out_hi and returns
    (cluster_count, expand_touches).
    """
    n = labels.shape[0]
    count = 0
    touches = 0
    for i in range(n):
        if labels[i] != NOT_VISITED:
            continue
        if upper[i] - lower[i] + 1 < min_points:
            labels[i] = NOISE
            continue
        if circular:
            lo, hi, t = expand_circular(
                lower, upper, labels, i, count + 1, min_points, policy
            )
        else:
            lo, hi, t = expand_linear(
                lower, upper, labels, i, count + 1, min_points, policy
            )
        out_lo[count] = lo
        out_hi[count] = hi
        count += 1
        touches += t
    return count, touches


# -- vectorized NumPy path -------------------------------------------------
#
# The functions below reproduce the counted sweep's results without its
# pointer loops.  Bounds: a searchsorted guess per point, corrected to the
# exact predicate the sweep evaluates.  Labels: in one dimension two
# consecutive cores share a cluster exactly when the later one lies inside
# the earlier one's upper bound, and a non-core point can only be reached
# by the cluster of its previous core and that of its next core, so whole
# clusters follow from their first and last cores.  Work runs in blocks of
# VEC_BLOCK points: besides the caller's bounds and labels, every array
# scales with the block or with the number of clusters.

VEC_BLOCK = 1 << 15


def _blocks(n):
    return ((a, min(a + VEC_BLOCK, n)) for a in range(0, n, VEC_BLOCK))


def _last_fit(x, idx, fits):
    """Move candidates ``idx`` (in place) to the last index whose value fits.

    ``fits(values, k)`` evaluates the predicate for entries ``k`` of idx
    (an index array or a full slice); it must hold on a prefix of x and fail
    after it.  -1 means that no index fits.  The predicate sees values only,
    so each correction step passes a whole run of equal values.
    """
    n = x.shape[0]
    k = np.flatnonzero((idx >= 0) & ~fits(x[np.maximum(idx, 0)], slice(None)))
    while k.size:
        idx[k] = np.searchsorted(x, x[idx[k]], "left") - 1
        k = k[idx[k] >= 0]
        k = k[~fits(x[idx[k]], k)]
    k = np.flatnonzero((idx < n - 1) & fits(x[np.minimum(idx + 1, n - 1)], slice(None)))
    while k.size:
        idx[k] = np.searchsorted(x, x[idx[k] + 1], "right") - 1
        k = k[idx[k] < n - 1]
        k = k[fits(x[idx[k] + 1], k)]


def _block_bounds(x, eps, a, b, lower, upper):
    """Linear bounds of points a..b-1, exactly as linear_bounds.

    Needs upper[:a] filled.  The upper bounds come from a search corrected
    to the sweep's predicate.  Points j <= i are neighbors exactly when
    upper[j] >= i, the same float test, so lower[i] is then a count: the
    number of points whose upper bound lies below i.
    """
    xi = x[a:b]
    key = xi + eps
    # the guesses of the block lie between those of its end points, so
    # searching that window alone gives the same answers, faster
    end = int(np.searchsorted(x, key[-1], "right"))
    up = np.searchsorted(x[a:end], key, "right")
    up += a - 1
    _last_fit(x, up, lambda v, k: v - xi[k] <= eps)
    upper[a:b] = up
    start, stop = (int(j) for j in np.searchsorted(upper[:b], (a, b), "left"))
    counts = np.zeros(b - a, np.int64)
    for c in range(start, stop, VEC_BLOCK):
        counts += np.bincount(upper[c : min(c + VEC_BLOCK, stop)] - a, minlength=b - a)
    lower[a] = start
    np.cumsum(counts[:-1], out=lower[a + 1 : b])
    lower[a + 1 : b] += start


def linear_bounds_vec(x, eps, lower, upper):
    """Fill the same bounds as linear_bounds, without counting steps."""
    for a, b in _blocks(x.shape[0]):
        _block_bounds(x, eps, a, b, lower, upper)


def circular_bounds_vec(x, eps, period, lower, upper):
    """Fill the same unwrapped bounds as circular_bounds.

    A point continues past the seam only when its linear bound already
    reaches the array end; there the wrapped predicate, in the sweep's
    ``period - (hi - lo)`` form, picks up the values from the other end.
    """
    n = x.shape[0]
    for a, b in _blocks(n):
        _block_bounds(x, eps, a, b, lower, upper)
        xi, lo, up = x[a:b], lower[a:b], upper[a:b]
        t = np.flatnonzero(up == n - 1)
        if t.size:
            xt = xi[t]
            j = np.searchsorted(x, (xt + eps) - period, "right")
            j -= 1
            _last_fit(x, j, lambda v, k: period - (xt[k] - v) <= eps)
            up[t] += j + 1
        h = np.flatnonzero(lo == 0)
        if h.size:
            xh = xi[h]
            # the last value still out of reach across the seam; all values
            # above it are neighbors
            j = np.searchsorted(x, (xh - eps) + period, "left")
            j -= 1
            _last_fit(x, j, lambda v, k: period - (v - xh[k]) > eps)
            lo[h] = j + 1 - n


def _chains(lower, upper, min_points):
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


def _fill(labels, start, end, ids):
    """labels = ids over the closed segments [start, end], NOISE elsewhere.

    Segments are unwrapped (start may be negative, end may pass n - 1) and
    must be disjoint modulo n.  Works by adding steps and one cumsum.
    """
    n = labels.shape[0]
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
    labels[:] = 0
    labels[0] = NOISE
    labels[start] += ids - NOISE
    stop = end < n - 1
    labels[end[stop] + 1] -= ids[stop] - NOISE
    np.cumsum(labels, out=labels)


def dbscan_vec(lower, upper, min_points, policy, labels, circular):
    """Label every point from its bounds; returns the raw (lo, hi) ranges.

    Gives the labels and ranges dbscan_sweep gives on the same bounds,
    including its order of discovery: clusters are numbered by the first
    core the ascending sweep meets, so on a ring the chain through index 0
    is cluster 1 and takes in the chain that closes on it across the seam.
    Under FIRST_CLUSTER a border point goes to the smaller of the (at most
    two) cluster ids that reach it, under ALL_CLUSTERS to the larger.
    """
    n = labels.shape[0]
    first, last, cores = _chains(lower, upper, min_points)
    if not cores:
        labels[:] = NOISE
        return first, last
    seed = first[:1].copy()
    if circular and first[0] + n <= upper[last[-1]]:
        if first.size > 1:
            # the last chain closes on the first one across the seam
            first = np.concatenate(([first[-1] - n], first[1:-1]))
            last = last[:-1]
    k = first.size
    ids = np.arange(1, k + 1, dtype=np.int64)
    shift = np.where(first < 0, -n, 0)
    reach_lo = lower[first - shift] + shift
    reach_hi = upper[last]
    if k == 1 and circular and (
        cores == n if policy == POLICY_AS_NOISE else reach_hi[0] - reach_lo[0] + 1 >= n
    ):
        # every point is absorbed: the whole ring, from the seed
        labels[:] = 1
        return seed, seed + n - 1
    if policy == POLICY_AS_NOISE:
        _fill(labels, first, last, ids)
        for a, b in _blocks(n):
            labels[a:b][upper[a:b] - lower[a:b] < min_points - 1] = NOISE
        return first, last
    if policy == POLICY_FIRST:
        # each cluster keeps what it reaches before the next one can
        lo = reach_lo.copy()
        np.maximum(reach_lo[1:], reach_hi[:-1] + 1, out=lo[1:])
        hi = reach_hi.copy()
        if circular and k > 1:
            hi[-1] = min(hi[-1], reach_lo[0] + n - 1)
        _fill(labels, lo, hi, ids)
        return lo, hi
    # ALL_CLUSTERS: ranges are the full reach, labels go to the last claimant
    seg_lo = reach_lo.copy()
    seg_hi = reach_hi.copy()
    np.minimum(reach_hi[:-1], reach_lo[1:] - 1, out=seg_hi[:-1])
    if circular and k > 1:
        seg_lo[0] = max(seg_lo[0], reach_hi[-1] - n + 1)
    _fill(labels, seg_lo, seg_hi, ids)
    return reach_lo, reach_hi


def warmup():
    """Trigger compilation of every kernel on a tiny input."""
    x = np.array([0.0, 0.05, 0.2, 5.0])
    lower = np.empty(4, np.int64)
    upper = np.empty(4, np.int64)
    labels = np.zeros(4, np.int64)
    lo = np.empty(4, np.int64)
    hi = np.empty(4, np.int64)
    linear_bounds(x, 0.1, lower, upper)
    dbscan_sweep(lower, upper, 2, POLICY_FIRST, labels, lo, hi, False)
    labels[:] = NOT_VISITED
    circular_bounds(x, 0.1, 2.0 * np.pi, lower, upper)
    dbscan_sweep(lower, upper, 2, POLICY_FIRST, labels, lo, hi, True)
