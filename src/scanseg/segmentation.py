"""Two-stage extraction of line-like point clusters from a range scan.

Stage 1 estimates a local direction for every valid point and clusters
those directions on the half-circle (period pi, so nearly-opposite
directions like 179 and 1 degree chain as they should).  Stage 2 takes
each angular cluster, projects its members onto the mean-direction
normal, and reclusters by that signed distance, which separates parallel
features that agree in angle but lie on different lines.

Points that survive neither stage are noise.  Stage 2 runs as one
clustering pass per scan: the distances of all angular clusters go into
one array, each cluster's run sorted on its own, and the clustering
kernel keeps every neighborhood inside its run.

Both stages sort with NumPy's default argsort of their key, a SIMD
quicksort where the CPU has one, and stage 2 then takes a stable pass by
angular cluster (_order).  Equal keys come out in no set order, and no
result can tell: the bounds, cores, chains and ranges of the clustering
depend on the key values alone, so every cluster is a union of whole
runs of equal keys; each sum over a cluster's members meets the same
values in the same order; and the members of each final cluster come out
ascending from one sort of unique integer keys.  The one tie of unequal
bits would be a signed zero: theta is never -0.0, and a -0.0 distance
passes every neighborhood check as 0.0 does and is never output.

The circular means and the TLS fits take the sums of all clusters at
once, from geometry's kernels that circular_mean and tls_fit run on one.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .dbscan1d import (
    BorderPolicy,
    CircularDomain,
    DbscanParams,
    OpCounters,
    _members,
    _real,
)
# not called here: perfbench/tracing.py wraps this name of this module
from .dbscan1d import dbscan_1d_circular  # noqa: F401
from .geometry import (
    DegenerateFitError,
    InsufficientDataError,
    OrientationUndefinedError,
    PolarLine,
    UndefinedMeanError,
    _check_line_size,
    _circular_sums,
    _line_from_moments,
    _mean_from_sums,
    _moments,
    estimate_local_angles,
    wrap_angle,
)
# not called here: perfbench/tracing.py wraps these names of this module
from .geometry import circular_mean, tls_fit  # noqa: F401
from .scan import Scan

# Cluster members whose coordinates fit_cluster_lines gathers at once.
_FIT_BLOCK = 4096

# Stage 1's domain: directions on the half-circle.
_HALF_TURN = CircularDomain(math.pi)


@dataclass(frozen=True)
class SegmentationParams:
    """Knobs of the two-stage pipeline.

    epsilon_theta is the angular chain radius in radians and must stay
    below pi / 2 (the circular-domain precondition at period pi);
    epsilon_dist the distance chain radius in meters.  min_points is
    shared by both stages.
    """

    epsilon_theta: float
    epsilon_dist: float
    min_points: int
    border_policy: BorderPolicy = BorderPolicy.FIRST_CLUSTER
    # the clustering parameters of stage 1 and stage 2, built once from
    # the checked fields
    _stages: tuple[DbscanParams, DbscanParams] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0.0 < _real(self.epsilon_theta, "epsilon_theta") < 0.5 * math.pi:
            raise ValueError(
                f"epsilon_theta must lie in (0, pi/2), got {self.epsilon_theta}"
            )
        epsilon_dist = _real(self.epsilon_dist, "epsilon_dist")
        if not math.isfinite(epsilon_dist) or epsilon_dist <= 0.0:
            raise ValueError(f"epsilon_dist must be > 0, got {self.epsilon_dist}")
        stages = (
            DbscanParams(self.epsilon_theta, self.min_points, self.border_policy),
            DbscanParams(self.epsilon_dist, self.min_points, self.border_policy),
        )
        object.__setattr__(self, "_stages", stages)


@dataclass
class FeatureCluster:
    """One extracted line-like cluster.

    point_indices are original scan indices, sorted ascending.
    mean_theta is the circular mean direction (period pi) of the parent
    angular cluster, i.e. the direction whose normal defined the stage-2
    distance split; mean_theta_fallback records that the mean was
    degenerate and the median member's angle stood in for it.
    fitted_line / fit_error are filled by fit_cluster_lines.
    """

    id: int
    point_indices: np.ndarray
    mean_theta: float
    mean_theta_fallback: bool = False
    fitted_line: PolarLine | None = None
    fit_error: str | None = None

    @property
    def size(self) -> int:
        return self.point_indices.size


def angular_segmentation(
    scan: Scan, params: SegmentationParams, *, counters: OpCounters | None = None
) -> list[FeatureCluster]:
    """Split a scan into clusters of points lying along common lines.

    The scan is only read.  Returns clusters of original point indices,
    ids numbered from 1 in discovery order; every cluster has at least
    min_points members.  Raises InsufficientDataError when fewer than
    min_points valid points exist.
    """
    valid_count = int(scan.valid.sum())
    if valid_count < params.min_points:
        raise InsufficientDataError(
            f"need at least {params.min_points} valid points, scan has {valid_count}"
        )
    theta = estimate_local_angles(scan.x, scan.y, scan.valid, scan.full_circle)
    # every invalid beam's angle is NaN, so each finite angle is valid
    orig = np.flatnonzero(np.isfinite(theta)).astype(np.int64)

    # stage 1: cluster by direction on the half-circle
    perm = orig[_order(theta[orig])]
    theta_sorted = theta[perm]
    # free megabytes on a large scan before the clustering adds its own
    del theta, orig
    stage1, stage2 = params._stages
    # each stage makes one clustering run, its input checked as the public
    # calls check theirs, and lists the members from the ranges: no label
    # per point
    pos, group, _ = _members(theta_sorted, stage1, _HALF_TURN, counters)

    # stage 2: within each angular cluster, recluster by signed distance
    # to the through-origin line at the mean direction; all clusters in one
    # pass, each sorted by distance in its own run
    if not pos.size:
        return []
    member_theta = theta_sorted[pos]
    member_orig = perm[pos]
    del perm, theta_sorted, pos
    means = _cluster_means(member_theta, [0, *np.bincount(group).cumsum().tolist()])
    normals = [wrap_angle(mean + 0.5 * math.pi) for mean, _ in means]
    # the products of signed_distance_to_origin_line, for all members at once
    unit = np.array([(math.cos(t), math.sin(t)) for t in normals])[group]
    dist = scan.x[member_orig] * unit[:, 0] + scan.y[member_orig] * unit[:, 1]
    del member_theta, unit
    # group is already ascending, so each cluster keeps its run; dist is
    # finite, as _order needs, since the overflow check of
    # estimate_local_angles keeps the coordinates of every point with an
    # angle below about 6e307
    order = _order(dist, group)
    sub_orig = member_orig[order]
    dist = dist[order]
    del member_orig, order
    spos, sub, sub_lo = _members(dist, stage2, None, counters, group)
    # each subcluster's members ascending, subclusters in order: unique keys
    member_orig = np.sort(sub * scan.beams + sub_orig[spos]) % scan.beams
    out: list[FeatureCluster] = []
    ends = [0, *np.bincount(sub).cumsum().tolist()]
    # the angular cluster of each subcluster, whose run holds its range
    parents = group[sub_lo].tolist()
    for parent, a, b in zip(parents, ends, ends[1:]):
        # a border-stealing earlier cluster can push a late cluster
        # below the floor; such remnants count as noise
        if b - a >= params.min_points:
            out.append(FeatureCluster(len(out) + 1, member_orig[a:b], *means[parent]))
    return out


def _order(key: np.ndarray, group: np.ndarray | None = None) -> np.ndarray:
    """An order that sorts key, within runs of group if given.

    NumPy's default argsort of key, a SIMD quicksort where the CPU has
    one, then a stable pass by group.  Entries with equal (group, key)
    come out in no set order, which no result of angular_segmentation
    can see (see the module docstring).  key must hold no NaN.
    """
    order = np.argsort(key)
    if group is not None:
        order = order[np.argsort(group[order], kind="stable")]
    return order


def _cluster_means(theta: np.ndarray, ends: list[int]) -> list[tuple[float, bool]]:
    """(circular mean on the half-circle, fallback) of each theta[a:b].

    a and b are consecutive entries of ends.  Each mean is decided once,
    from the cluster's sums, as circular_mean decides it; where it is
    undefined, the median member's angle stands in (fallback True).
    """
    means = []
    for (c, s), a, b in zip(_circular_sums(theta, ends, math.pi), ends, ends[1:]):
        try:
            means.append((_mean_from_sums(c, s, b - a, math.pi), False))
        except UndefinedMeanError:
            means.append((float(theta[(a + b) // 2]), True))
    return means


def fit_cluster_lines(scan: Scan, clusters: list[FeatureCluster]) -> list[FeatureCluster]:
    """Fit a total least squares line to each cluster's member points.

    Mutates the clusters: fitted_line on success, fit_error (cluster
    retained, no line) where tls_fit on the cluster's points, in the
    order of its point_indices, would raise InsufficientDataError,
    DegenerateFitError or OrientationUndefinedError; each line and error
    text is the one tls_fit gives.  Raises tls_fit's ValueError when the
    moments overflow float64.  Consecutive clusters are fitted together,
    up to _FIT_BLOCK members at a time (a larger cluster alone).
    """
    lo = size = 0
    for hi, c in enumerate(clusters):
        if size + c.size > _FIT_BLOCK and hi > lo:
            _fit_block(scan, clusters[lo:hi])
            lo, size = hi, 0
        size += c.size
    if clusters:
        _fit_block(scan, clusters[lo:])
    return clusters


def _fit_block(scan: Scan, block: list[FeatureCluster]) -> None:
    """fit_cluster_lines for clusters whose members are gathered at once.

    The first two rows of one (3, m) array take the members' coordinates,
    each cluster in its own columns, for geometry._moments.  Each line or
    error is decided once, by tls_fit's size check and then from the
    cluster's moments.
    """
    # one cluster's indices are used as they are, so that a cluster above
    # _FIT_BLOCK members costs no more memory than tls_fit on its points
    idx = block[0].point_indices
    if len(block) > 1:
        idx = np.concatenate([c.point_indices for c in block])
    w = np.empty((3, idx.size))
    w[0] = scan.x[idx]
    w[1] = scan.y[idx]
    del idx
    ends = [0, *itertools.accumulate(c.size for c in block)]
    for c, moments in zip(block, _moments(w, ends)):
        try:
            _check_line_size(c.size)
            c.fitted_line = _line_from_moments(*moments)
        except (DegenerateFitError, OrientationUndefinedError, InsufficientDataError) as e:
            c.fit_error = str(e)
