"""Density clustering of already-sorted one-dimensional data.

On sorted input every epsilon-neighborhood is a contiguous index range, so
the usual density clustering definitions (core points, border points,
noise) reduce to interval bookkeeping.  Two monotone sweep pointers find
all neighborhood bounds in linear time and cluster expansion touches each
point at most twice, which keeps the whole pass at O(N) after the sort.

Every function here has two paths with bit-identical results.  A call
that passes ``counters=`` runs that counted O(N) sweep and adds its work
to the counters.  Any other call runs the vectorized NumPy path of
:mod:`scanseg._kernels`, which is O(N log N) but far faster in practice.

Neighborhoods are closed: a point at distance exactly ``epsilon`` counts.
A circular variant treats values as positions on a ring of a given period,
with neighborhood ranges allowed to wrap around the seam.
"""

from __future__ import annotations

import enum
import itertools
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import _kernels as _k

NOT_VISITED = _k.NOT_VISITED
NOISE = _k.NOISE


class BorderPolicy(enum.Enum):
    """Assignment rule for points density-reachable from several clusters."""

    FIRST_CLUSTER = "first"
    ALL_CLUSTERS = "all"
    AS_NOISE = "noise"


_POLICY_CODE = {
    BorderPolicy.FIRST_CLUSTER: _k.POLICY_FIRST,
    BorderPolicy.ALL_CLUSTERS: _k.POLICY_ALL,
    BorderPolicy.AS_NOISE: _k.POLICY_AS_NOISE,
}


class UnsortedInputError(ValueError):
    """Input values were not in ascending order."""


@dataclass(frozen=True)
class DbscanParams:
    """Clustering parameters.

    Parameters
    ----------
    epsilon:
        Neighborhood radius, >= 0.  Zero means only exact duplicates are
        neighbors, which is occasionally useful for duplicate detection.
    min_points:
        Minimum neighborhood size (self included) for a core point, >= 1.
    border_policy:
        What to do with border points reachable from more than one
        cluster.  FIRST_CLUSTER keeps them in the cluster discovered
        first, ALL_CLUSTERS lets later clusters claim them too (their
        label reflects the last claimant, ranges may overlap), AS_NOISE
        restricts clusters to core points only.
    """

    epsilon: float
    min_points: int
    border_policy: BorderPolicy = BorderPolicy.FIRST_CLUSTER

    def __post_init__(self):
        if not np.isfinite(self.epsilon) or self.epsilon < 0.0:
            raise ValueError(f"epsilon must be finite and >= 0, got {self.epsilon}")
        if int(self.min_points) != self.min_points or self.min_points < 1:
            raise ValueError(f"min_points must be an integer >= 1, got {self.min_points}")


@dataclass(frozen=True)
class CircularDomain:
    """Value domain [0, period) with wrap-around distance."""

    period: float

    def __post_init__(self):
        if not np.isfinite(self.period) or self.period <= 0.0:
            raise ValueError(f"period must be finite and > 0, got {self.period}")


@dataclass
class OpCounters:
    """Work counters accumulated across calls.

    ``neighborhood_steps`` counts inner pointer advances while computing
    neighborhood bounds; the linear sweep performs exactly 2 * N of them
    per call and the circular sweep at most 4 * N - 2.  ``expand_touches``
    counts points examined during cluster expansion, at most 2 * N per
    call under every border policy.
    """

    neighborhood_steps: int = 0
    expand_touches: int = 0

    def reset(self) -> None:
        self.neighborhood_steps = 0
        self.expand_touches = 0

    @property
    def total(self) -> int:
        return self.neighborhood_steps + self.expand_touches


@dataclass(frozen=True)
class NeighborhoodTable:
    """Per-point neighborhood bounds over a sorted array.

    For point ``i`` the closed index range ``lower[i] .. upper[i]`` holds
    exactly the points within epsilon.  In the circular case the range is
    unwrapped: entries below 0 or at/above N refer to the value at the
    index modulo N, shifted by a whole period.  ``period`` is None for
    the linear variant.
    """

    lower: np.ndarray
    upper: np.ndarray
    period: float | None = None

    def size(self, index: int) -> int:
        """Neighborhood cardinality of one point, self included."""
        return int(self.upper[index] - self.lower[index] + 1)


class Cluster1D(NamedTuple):
    """One cluster reported as a closed index range over the sorted input.

    Circular clusters that cross the seam keep ``lower`` in [0, N) and
    let ``upper`` run past N - 1; ``indices`` maps back through modulo.
    Under AS_NOISE the range spans the absorbed cores and the label array
    stays authoritative for membership, because a non-core point can sit
    strictly between two cores of the same cluster without joining it.
    Likewise under ALL_CLUSTERS overlapping ranges make labels, not
    ranges, the record of final (last-claimant) assignment.
    """

    id: int
    lower: int
    upper: int

    @property
    def size(self) -> int:
        return self.upper - self.lower + 1

    def indices(self, n: int) -> np.ndarray:
        """Spanned positions in input coordinates (wrapped if needed)."""
        return np.arange(self.lower, self.upper + 1, dtype=np.int64) % n


class ClusterSequence(Sequence):
    """Immutable sequence of :class:`Cluster1D`, materialized on access.

    A run can legitimately produce tens of thousands of clusters; keeping
    the ranges as two flat arrays means the clustering call stays cheap no
    matter how fragmented the output is, and ``len()`` is O(1).  Ids are
    positional: cluster ``k`` has id ``k + 1`` (discovery order).
    """

    __slots__ = ("_lo", "_hi")

    def __init__(self, lo: np.ndarray, hi: np.ndarray):
        self._lo = lo
        self._hi = hi

    def __len__(self) -> int:
        return self._lo.shape[0]

    def __getitem__(self, key):
        if isinstance(key, slice):
            ids = range(1, len(self) + 1)[key]
            los = self._lo[key].tolist()
            his = self._hi[key].tolist()
            return [Cluster1D(i, lo, hi) for i, lo, hi in zip(ids, los, his)]
        index = operator.index(key)
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError("cluster index out of range")
        return Cluster1D(index + 1, int(self._lo[index]), int(self._hi[index]))

    def __iter__(self):
        return map(Cluster1D, itertools.count(1), self._lo.tolist(), self._hi.tolist())

    def __eq__(self, other) -> bool:
        if isinstance(other, ClusterSequence):
            return np.array_equal(self._lo, other._lo) and np.array_equal(
                self._hi, other._hi
            )
        if isinstance(other, (list, tuple)):
            return len(self) == len(other) and all(
                mine == theirs for mine, theirs in zip(self, other)
            )
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        if len(self) <= 6:
            return f"ClusterSequence({list(self)!r})"
        return f"ClusterSequence(<{len(self)} clusters>)"


class DbscanScratch:
    """Reusable work arrays so repeated runs skip reallocation."""

    def __init__(self, capacity: int = 0):
        self._alloc(max(int(capacity), 1))

    def _alloc(self, n: int) -> None:
        self.lower = np.empty(n, np.int64)
        self.upper = np.empty(n, np.int64)
        self.range_lo = np.empty(n, np.int64)
        self.range_hi = np.empty(n, np.int64)

    def reserve(self, n: int) -> None:
        if self.lower.shape[0] < n:
            self._alloc(n)


def _checked_values(values) -> np.ndarray:
    x = np.ascontiguousarray(values, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"values must be one-dimensional, got shape {x.shape}")
    if x.size and not np.isfinite(x).all():
        raise ValueError("values must be finite")
    if x.size > 1 and np.any(x[1:] < x[:-1]):
        raise UnsortedInputError("values must be sorted in ascending order")
    return x


def _checked_epsilon(epsilon: float) -> float:
    epsilon = float(epsilon)
    if not np.isfinite(epsilon) or epsilon < 0.0:
        raise ValueError(f"epsilon must be finite and >= 0, got {epsilon}")
    return epsilon


def _checked_circular(x: np.ndarray, epsilon: float, domain: CircularDomain) -> None:
    if x.size and (x[0] < 0.0 or x[-1] >= domain.period):
        raise ValueError(f"values must lie in [0, {domain.period}) for circular runs")
    if epsilon >= domain.period / 2.0:
        raise ValueError(
            f"circular epsilon must be below period / 2 = {domain.period / 2.0!r}, "
            f"got {epsilon!r}"
        )


def calculate_neighborhood(
    values, epsilon: float, *, counters: OpCounters | None = None
) -> NeighborhoodTable:
    """Compute all epsilon-neighborhood bounds of a sorted array.

    Returns a table whose closed range ``lower[i] .. upper[i]`` holds the
    neighbors of point ``i``.  With ``counters`` it runs one forward and
    one backward pointer sweep, exactly 2 * N counted steps.
    """
    x = _checked_values(values)
    epsilon = _checked_epsilon(epsilon)
    lower = np.empty(x.size, np.int64)
    upper = np.empty(x.size, np.int64)
    if counters is None:
        _k.linear_bounds_vec(x, epsilon, lower, upper)
    else:
        steps = _k.linear_bounds(x, epsilon, lower, upper)
        counters.neighborhood_steps += int(steps)
    return NeighborhoodTable(lower, upper)


def calculate_neighborhood_circular(
    values,
    epsilon: float,
    domain: CircularDomain,
    *,
    counters: OpCounters | None = None,
) -> NeighborhoodTable:
    """Neighborhood bounds with wrap-around distance on ``domain``.

    Values must lie in [0, period) and epsilon below period / 2 so that a
    neighborhood never covers more than the whole ring.  Bounds are
    unwrapped indices (possibly < 0 or >= N).
    """
    x = _checked_values(values)
    epsilon = _checked_epsilon(epsilon)
    _checked_circular(x, epsilon, domain)
    lower = np.empty(x.size, np.int64)
    upper = np.empty(x.size, np.int64)
    if counters is None:
        _k.circular_bounds_vec(x, epsilon, domain.period, lower, upper)
    else:
        steps = _k.circular_bounds(x, epsilon, domain.period, lower, upper)
        counters.neighborhood_steps += int(steps)
    return NeighborhoodTable(lower, upper, domain.period)


def expand_cluster(
    p: int,
    table: NeighborhoodTable,
    labels: np.ndarray,
    cluster_id: int,
    params: DbscanParams,
    *,
    counters: OpCounters | None = None,
) -> Cluster1D:
    """Grow one cluster outward from core seed ``p``, mutating ``labels``.

    The seed must be an unvisited core point.  The scan target index moves
    to the furthest bound of each absorbed core, so the reported range end
    is the last index actually absorbed, not the last one looked at.
    """
    n = labels.shape[0]
    if labels[p] != NOT_VISITED:
        raise ValueError(f"seed {p} was already visited (label {int(labels[p])})")
    if table.size(p) < params.min_points:
        raise ValueError(f"seed {p} is not a core point")
    policy = _POLICY_CODE[params.border_policy]
    if table.period is not None:
        lo, hi, touches = _k.expand_circular(
            table.lower, table.upper, labels, p, cluster_id, params.min_points, policy
        )
        if lo < 0:
            lo += n
            hi += n
    else:
        lo, hi, touches = _k.expand_linear(
            table.lower, table.upper, labels, p, cluster_id, params.min_points, policy
        )
    if counters is not None:
        counters.expand_touches += int(touches)
    return Cluster1D(cluster_id, int(lo), int(hi))


def _run(
    x: np.ndarray,
    params: DbscanParams,
    domain: CircularDomain | None,
    scratch: DbscanScratch | None,
    counters: OpCounters | None,
    out_labels: np.ndarray | None = None,
) -> tuple[np.ndarray, ClusterSequence]:
    n = x.size
    labels = np.empty(n, np.int64) if out_labels is None else out_labels
    if counters is None:
        lo, hi = _run_vec(x, params, domain, scratch, labels)
    else:
        lo, hi = _run_counted(x, params, domain, scratch, counters, labels)
    if domain is not None and lo.size:
        wrapped = lo < 0
        if wrapped.any():
            lo[wrapped] += n
            hi[wrapped] += n
    return labels, ClusterSequence(lo, hi)


def _run_vec(x, params, domain, scratch, labels):
    n = x.size
    if scratch is None:
        # only the bounds: the vector path needs no n-sized range scratch
        lower = np.empty(n, np.int64)
        upper = np.empty(n, np.int64)
    else:
        scratch.reserve(n)
        lower = scratch.lower[:n]
        upper = scratch.upper[:n]
    if domain is None:
        _k.linear_bounds_vec(x, params.epsilon, lower, upper)
    else:
        _k.circular_bounds_vec(x, params.epsilon, domain.period, lower, upper)
    return _k.dbscan_vec(
        lower,
        upper,
        params.min_points,
        _POLICY_CODE[params.border_policy],
        labels,
        domain is not None,
    )


def _run_counted(x, params, domain, scratch, counters, labels):
    n = x.size
    if scratch is None:
        scratch = DbscanScratch(n)
    else:
        scratch.reserve(n)
    lower = scratch.lower[:n]
    upper = scratch.upper[:n]
    if domain is None:
        steps = _k.linear_bounds(x, params.epsilon, lower, upper)
    else:
        steps = _k.circular_bounds(x, params.epsilon, domain.period, lower, upper)
    labels[:] = NOT_VISITED
    count, touches = _k.dbscan_sweep(
        lower,
        upper,
        params.min_points,
        _POLICY_CODE[params.border_policy],
        labels,
        scratch.range_lo,
        scratch.range_hi,
        domain is not None,
    )
    counters.neighborhood_steps += int(steps)
    counters.expand_touches += int(touches)
    return scratch.range_lo[:count].copy(), scratch.range_hi[:count].copy()


def dbscan_1d(
    values,
    params: DbscanParams,
    *,
    scratch: DbscanScratch | None = None,
    counters: OpCounters | None = None,
) -> tuple[np.ndarray, ClusterSequence]:
    """Cluster sorted values (in linear time on the counted path).

    Returns ``(labels, clusters)``: labels holds -1 for noise and 1-based
    cluster ids for members, clusters the absorbed index ranges in
    discovery (ascending seed) order.
    """
    x = _checked_values(values)
    return _run(x, params, None, scratch, counters)


def dbscan_1d_circular(
    values,
    params: DbscanParams,
    domain: CircularDomain,
    *,
    scratch: DbscanScratch | None = None,
    counters: OpCounters | None = None,
) -> tuple[np.ndarray, ClusterSequence]:
    """Cluster sorted values living on a ring of ``domain.period``.

    A chain of cores that closes the full circle comes back as a single
    cluster spanning all N points.  Cluster ranges may be unwrapped; see
    :class:`Cluster1D`.
    """
    x = _checked_values(values)
    _checked_circular(x, params.epsilon, domain)
    return _run(x, params, domain, scratch, counters)


def recluster_subrange(
    values: np.ndarray,
    params: DbscanParams,
    *,
    scratch: DbscanScratch,
    counters: OpCounters | None = None,
    out_labels: np.ndarray,
) -> ClusterSequence:
    """Linear clustering into caller-owned buffers, for tight inner loops.

    ``values`` must already be a sorted float64 array; ``out_labels`` (same
    length) receives the labels.  Used by the scan segmentation stage that
    reclusters each angular group by distance without reallocating.
    """
    if out_labels.shape != values.shape or out_labels.dtype != np.int64:
        raise ValueError("out_labels must be an int64 array matching values")
    _, clusters = _run(values, params, None, scratch, counters, out_labels=out_labels)
    return clusters
