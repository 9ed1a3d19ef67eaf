"""The paper's counted O(N) sweep: the reference for the clustering core.

Two monotone pointers find every neighborhood bound and one expanding
scan per cluster labels the points, with every pointer step and every
examined point counted.  The package's vectorized path must reproduce
this sweep's bounds, labels and cluster ranges bit for bit, and its
derived ``OpCounters`` must equal the counts kept here.  Plain Python
and NumPy, so it is slow: keep the inputs small, except in the timing of
acceptance criterion 4.

Label conventions: 0 means not yet visited, -1 means noise, cluster ids
start at 1.
"""

import numpy as np

NOT_VISITED = 0
NOISE = -1

POLICY_FIRST = 0
POLICY_ALL = 1
POLICY_AS_NOISE = 2

# BorderPolicy values to the codes above
POLICY_CODE = {"first": POLICY_FIRST, "all": POLICY_ALL, "noise": POLICY_AS_NOISE}


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


def run_sweep(x, eps, min_points, policy, period=None):
    """Cluster sorted ``x`` with the sweep; ``policy`` is a ``BorderPolicy``.

    Returns ``(lower, upper, labels, lo, hi, steps, touches)``, the cluster
    ranges normalized as the package reports them: a range that wraps
    below 0 is shifted up by N.
    """
    n = x.shape[0]
    lower = np.empty(n, np.int64)
    upper = np.empty(n, np.int64)
    if period is None:
        steps = linear_bounds(x, eps, lower, upper)
    else:
        steps = circular_bounds(x, eps, period, lower, upper)
    labels = np.zeros(n, np.int64)
    lo = np.empty(n, np.int64)
    hi = np.empty(n, np.int64)
    policy_code = POLICY_CODE[policy.value]
    circular = period is not None
    count, touches = dbscan_sweep(
        lower, upper, min_points, policy_code, labels, lo, hi, circular
    )
    lo, hi = lo[:count], hi[:count]
    wrapped = lo < 0
    lo[wrapped] += n
    hi[wrapped] += n
    return lower, upper, labels, lo, hi, steps, touches

