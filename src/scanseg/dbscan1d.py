"""Density clustering of already-sorted one-dimensional data.

On sorted input every epsilon-neighborhood is a contiguous index range, so
the usual density clustering definitions (core points, border points,
noise) reduce to interval bookkeeping.  In the paper two monotone sweep
pointers find all neighborhood bounds in linear time and cluster
expansion touches each point at most twice, which keeps the whole pass at
O(N) after the sort.

The work itself runs in the vectorized NumPy kernels of
:mod:`scanseg._kernels`, far faster in practice and bit-identical to that
sweep in bounds, labels and cluster ranges.  Their bounds cost
O(N log VEC_BLOCK) while neighborhoods stay under one block of
``_kernels.VEC_BLOCK`` points, and O(N log N) only when one neighborhood
spans the array.  Each call makes the same kernel calls in turn, each
returning its arrays: neighborhood bounds, chains of linked cores,
cluster ranges, then the labels, filled once the bounds are dropped.  A
call that passes ``counters=`` adds to them the steps and touches the
paper's sweep would make on those bounds and chains.  Each stage of the
scan segmentation makes one ``_members`` call, which stops at the ranges
and lists each cluster's members from its range, with no label per point.

Neighborhoods are closed: a point at distance exactly ``epsilon`` counts.
A circular variant treats values as positions on a ring of a given period,
with neighborhood ranges allowed to wrap around the seam.
"""

from __future__ import annotations

import enum
import itertools
import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import _kernels as _k

NOISE = _k.NOISE


class BorderPolicy(enum.Enum):
    """Assignment rule for points density-reachable from several clusters."""

    FIRST_CLUSTER = "first"
    ALL_CLUSTERS = "all"
    AS_NOISE = "noise"


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
        _checked_epsilon(self.epsilon)
        _check_min_points(self.min_points)
        _check_border_policy(self.border_policy)


def _real(value, name: str) -> float:
    """``value`` by its ``__float__``, which NumPy scalars and 0-d arrays
    have and strings and None lack; ValueError naming ``name`` if none."""
    try:
        return value.__float__()
    except OverflowError:  # an int past the float range
        return math.inf
    except (AttributeError, TypeError):  # TypeError: an array of many values
        raise ValueError(f"{name} must be a number, got {value!r}") from None


def _checked_epsilon(epsilon) -> float:
    """``epsilon`` as a float; ValueError unless it is finite and >= 0."""
    value = _real(epsilon, "epsilon")
    if not math.isfinite(value) or value < 0.0:
        raise ValueError(f"epsilon must be finite and >= 0, got {epsilon}")
    return value


def _check_border_policy(policy) -> None:
    """Raise ValueError unless ``policy`` is a :class:`BorderPolicy`."""
    if not isinstance(policy, BorderPolicy):
        raise ValueError(f"border_policy must be a BorderPolicy, got {policy!r}")


def _check_min_points(min_points) -> None:
    """Raise ValueError unless ``min_points`` is a whole number >= 1."""
    try:
        whole = int(min_points) == min_points
    except (OverflowError, ValueError):  # +-inf, NaN
        whole = False
    if not whole or min_points < 1:
        raise ValueError(f"min_points must be an integer >= 1, got {min_points}")


@dataclass(frozen=True)
class CircularDomain:
    """Value domain [0, period) with wrap-around distance."""

    period: float

    def __post_init__(self):
        period = _real(self.period, "period")
        if not math.isfinite(period) or period <= 0.0:
            raise ValueError(f"period must be finite and > 0, got {self.period}")


@dataclass
class OpCounters:
    """Work counters of the paper's sweep, accumulated across calls.

    The counts state what the paper's O(N) sweep would do on the bounds
    and chains a call computes; they are derived from those arrays, not
    measured, and wall-clock time carries the cost of the code that
    actually runs: bounds in O(N log VEC_BLOCK) while neighborhoods stay
    under a block, O(N log N) only when one neighborhood spans the array.
    ``neighborhood_steps`` counts inner pointer advances while computing
    neighborhood bounds: exactly 2 * N per linear call, at most 4 * N - 2
    per circular one.  ``expand_touches`` counts points examined during
    cluster expansion, at most 2 * N per call under every border policy.
    """

    neighborhood_steps: int = 0
    expand_touches: int = 0

    def reset(self) -> None:
        self.neighborhood_steps = 0
        self.expand_touches = 0

    @property
    def total(self) -> int:
        return self.neighborhood_steps + self.expand_touches


class Cluster1D(NamedTuple):
    """One cluster reported as a closed index range over the sorted input.

    Circular clusters that cross the seam keep ``lower`` in [0, N) and
    let ``upper`` run past N - 1; ``indices`` maps back through modulo.
    A cluster's members are the positions of its range, so the labels
    are not needed to list them, except under AS_NOISE: there the range
    spans the absorbed cores, and a non-core point between them is
    noise.  Under ALL_CLUSTERS ranges may overlap, and labels record
    only the last claimant.
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


def _checked_values(values, group=None) -> np.ndarray:
    x = np.ascontiguousarray(values, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"values must be one-dimensional, got shape {x.shape}")
    if group is None:
        # sorted values with finite ends are finite throughout, and a NaN
        # fails the comparison, so valid input costs one pass
        ok = not x.size or (
            math.isfinite(x[0]) and math.isfinite(x[-1]) and (x[1:] >= x[:-1]).all()
        )
    else:
        # sorted within each group: a group may start below the last end
        ok = np.isfinite(x).all() and ((x[1:] >= x[:-1]) | (group[1:] != group[:-1])).all()
    if not ok:
        if not np.isfinite(x).all():
            raise ValueError("values must be finite")
        raise UnsortedInputError("values must be sorted in ascending order")
    return x


def _checked_circular(x: np.ndarray, epsilon: float, domain: CircularDomain) -> None:
    if x.size and (x[0] < 0.0 or x[-1] >= domain.period):
        raise ValueError(f"values must lie in [0, {domain.period}) for circular runs")
    if epsilon >= domain.period / 2.0:
        raise ValueError(
            f"circular epsilon must be below period / 2 = {domain.period / 2.0!r}, "
            f"got {epsilon!r}"
        )


def calculate_neighborhood(values, epsilon: float) -> tuple[np.ndarray, np.ndarray]:
    """Compute all epsilon-neighborhood bounds of a sorted array.

    Returns ``(lower, upper)``: the closed index range ``lower[i] ..
    upper[i]`` holds the neighbors of point ``i``.  The paper sweep's
    pointer steps on them are ``_kernels.sweep_steps(lower, upper)``,
    exactly 2 * N.
    """
    x = _checked_values(values)
    return _k.linear_bounds(x, _checked_epsilon(epsilon))


def calculate_neighborhood_circular(
    values, epsilon: float, domain: CircularDomain
) -> tuple[np.ndarray, np.ndarray]:
    """Neighborhood bounds with wrap-around distance on ``domain``.

    Values must lie in [0, period) and epsilon below period / 2 so that a
    neighborhood never covers more than the whole ring.  Bounds are
    unwrapped indices: entries below 0 or at/above N refer to the value
    at the index modulo N, shifted by a whole period.
    """
    x = _checked_values(values)
    epsilon = _checked_epsilon(epsilon)
    _checked_circular(x, epsilon, domain)
    return _k.circular_bounds(x, epsilon, domain.period)


def _ranges(
    values,
    params: DbscanParams,
    domain: CircularDomain | None,
    counters: OpCounters | None,
    group: np.ndarray | None = None,
) -> tuple[int, tuple[np.ndarray, np.ndarray], np.ndarray, np.ndarray, np.ndarray | None]:
    """The first half of a clustering run, on values checked as the public
    calls check them: ``(n, raw, lo, hi, noncore)``.

    Finds the bounds, the chains and the cluster ranges ``lo[c]..hi[c]``,
    adds the sweep's counts to ``counters`` if given, and under AS_NOISE
    marks the non-cores (``noncore`` is None under the other policies).
    ``raw`` holds the same ranges before the first one is moved one turn
    up, from which :func:`_kernels.fill_labels`, the second half, labels
    the points.  The bounds go before this returns, so the labels never
    meet them.  ``group`` is that of :func:`_members`.
    """
    x = _checked_values(values, group)
    circular = domain is not None
    if circular:
        _checked_circular(x, params.epsilon, domain)
        lower, upper = _k.circular_bounds(x, params.epsilon, domain.period)
    else:
        lower, upper = _k.linear_bounds(x, params.epsilon, group)
    policy = params.border_policy.value
    chains = _k.core_chains(lower, upper, params.min_points)
    raw, lo, hi, reach = _k.cluster_ranges(lower, upper, chains, policy, circular)
    if counters is not None:
        counters.neighborhood_steps += _k.sweep_steps(lower, upper)
        counters.expand_touches += _k.sweep_touches(
            reach, chains, x.shape[0], policy, circular
        )
    noncore = _k.noncores(lower, upper, params.min_points) if policy == "noise" else None
    return x.shape[0], raw, lo, hi, noncore


def _run(
    values,
    params: DbscanParams,
    domain: CircularDomain | None,
    counters: OpCounters | None,
) -> tuple[np.ndarray, ClusterSequence]:
    """Both halves of a clustering run: ``(labels, clusters)``."""
    n, raw, lo, hi, noncore = _ranges(values, params, domain, counters)
    return _k.fill_labels(n, raw, noncore), ClusterSequence(lo, hi)


def _members(
    values,
    params: DbscanParams,
    domain: CircularDomain | None,
    counters: OpCounters | None,
    group: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A clustering run that fills no labels: ``(pos, cluster, lo)``, the
    member positions of all clusters in cluster order, the 0-based cluster
    of each, and each cluster's first range position.

    A cluster's members are the positions of its range, wrapped across the
    seam and ascending, less the non-cores under AS_NOISE: FIRST_CLUSTER
    labels each range whole, ALL_CLUSTERS gives each the chain's full
    reach, none of it noise, and under AS_NOISE a range spans its chain's
    cores, and only the non-cores between them are noise.

    With ``group``, a non-decreasing integer id per value, values sorted
    within each group, the clusters and counters are those of one
    ``dbscan_1d`` call per group in turn: no range leaves its group.
    """
    n, _, lo, hi, noncore = _ranges(values, params, domain, counters, group)
    sizes = hi - lo + 1
    starts = sizes.cumsum() - sizes
    pos = (lo - starts).repeat(sizes)
    pos += np.arange(pos.shape[0])
    cluster = np.arange(sizes.shape[0]).repeat(sizes)
    # only a ring has ranges past n - 1; wrapped, such a run ascends once sorted
    for c in (hi >= n).nonzero()[0].tolist():
        run = pos[starts[c] : starts[c] + sizes[c]]
        run %= n
        run.sort()
    if noncore is None:
        return pos, cluster, lo
    keep = ~noncore[pos]
    return pos[keep], cluster[keep], lo


def dbscan_1d(
    values,
    params: DbscanParams,
    *,
    counters: OpCounters | None = None,
) -> tuple[np.ndarray, ClusterSequence]:
    """Cluster sorted values.

    Returns ``(labels, clusters)``: labels holds -1 for noise and 1-based
    cluster ids for members, clusters the absorbed index ranges in
    discovery (ascending seed) order.
    """
    return _run(values, params, None, counters)


def dbscan_1d_circular(
    values,
    params: DbscanParams,
    domain: CircularDomain,
    *,
    counters: OpCounters | None = None,
) -> tuple[np.ndarray, ClusterSequence]:
    """Cluster sorted values living on a ring of ``domain.period``.

    A chain of cores that closes the full circle comes back as a single
    cluster spanning all N points.  Cluster ranges may be unwrapped; see
    :class:`Cluster1D`.
    """
    return _run(values, params, domain, counters)

