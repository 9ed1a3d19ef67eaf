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

Stage 1 sorts by (direction, original index) and stage 2 by (angular
cluster, distance, original index), both exactly as np.lexsort would.
Each takes NumPy's default argsort of its key, a SIMD quicksort where
the CPU has one, which leaves equal keys in no set order, and then sorts
only the entries of tied runs again (_order); ties are rare, but every
run end shares its neighbor's direction.  The members of each final
cluster come out ascending from one sort of unique integer keys.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dbscan1d import (
    BorderPolicy,
    CircularDomain,
    DbscanParams,
    OpCounters,
    _check_border_policy,
    _check_min_points,
    _dbscan_1d_groups,
    _members,
    _real,
    dbscan_1d_circular,
)
from .geometry import (
    DegenerateFitError,
    InsufficientDataError,
    OrientationUndefinedError,
    PolarLine,
    UndefinedMeanError,
    circular_mean,
    estimate_local_angles,
    tls_fit,
    wrap_angle,
)
from .scan import Scan


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

    def __post_init__(self):
        if not 0.0 < _real(self.epsilon_theta, "epsilon_theta") < 0.5 * math.pi:
            raise ValueError(
                f"epsilon_theta must lie in (0, pi/2), got {self.epsilon_theta}"
            )
        epsilon_dist = _real(self.epsilon_dist, "epsilon_dist")
        if not math.isfinite(epsilon_dist) or epsilon_dist <= 0.0:
            raise ValueError(f"epsilon_dist must be > 0, got {self.epsilon_dist}")
        _check_min_points(self.min_points)
        _check_border_policy(self.border_policy)


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
    if orig.size < params.min_points:
        return []

    # stage 1: cluster by direction on the half-circle, sorted by (theta,
    # original index)
    perm = orig[_order(orig, theta[orig])]
    theta_sorted = theta[perm]
    stage1 = DbscanParams(params.epsilon_theta, params.min_points, params.border_policy)
    labels1, angular_clusters = dbscan_1d_circular(
        theta_sorted, stage1, CircularDomain(math.pi), counters=counters
    )

    # stage 2: within each angular cluster, recluster by signed distance
    # to the through-origin line at the mean direction; all clusters in one
    # pass, each sorted by (distance, original index) in its own run
    if not angular_clusters:
        return []
    pos, group = _members(labels1, angular_clusters)
    member_theta = theta_sorted[pos]
    member_orig = perm[pos]
    # free megabytes on a large scan before the steps below add their own
    del theta, orig, perm, theta_sorted, labels1, pos
    means, normals = [], []
    ends = [0, *np.bincount(group).cumsum().tolist()]
    for a, b in zip(ends, ends[1:]):
        try:
            means.append((circular_mean(member_theta[a:b], math.pi), False))
        except UndefinedMeanError:
            means.append((float(member_theta[(a + b) // 2]), True))
        normal = wrap_angle(means[-1][0] + 0.5 * math.pi)
        normals.append((math.cos(normal), math.sin(normal)))
    # the products of signed_distance_to_origin_line, for all members at once
    unit = np.array(normals)[group]
    dist = scan.x[member_orig] * unit[:, 0] + scan.y[member_orig] * unit[:, 1]
    del member_theta, unit
    # group is the first sort key and already ascending, so it keeps its
    # order; dist is finite, as _order needs, since the overflow check of
    # estimate_local_angles keeps the coordinates of every point with an
    # angle below about 6e307
    order = _order(member_orig, dist, group)
    sub_orig = member_orig[order]
    dist = dist[order]
    del member_orig, order
    stage2 = DbscanParams(params.epsilon_dist, params.min_points, params.border_policy)
    labels2, subclusters = _dbscan_1d_groups(dist, group, stage2, counters=counters)
    spos, sub = _members(labels2, subclusters)
    # each subcluster's members ascending, subclusters in order: unique keys
    member_orig = np.sort(sub * scan.beams + sub_orig[spos]) % scan.beams
    out: list[FeatureCluster] = []
    ends = [0, *np.bincount(sub).cumsum().tolist()]
    for sc, a, b in zip(subclusters, ends, ends[1:]):
        # a border-stealing earlier cluster can push a late cluster
        # below the floor; such remnants count as noise
        if b - a >= params.min_points:
            out.append(FeatureCluster(len(out) + 1, member_orig[a:b], *means[group[sc.lower]]))
    return out


def _order(tiebreak: np.ndarray, key: np.ndarray, group: np.ndarray | None = None) -> np.ndarray:
    """np.lexsort((tiebreak, key)), or np.lexsort((tiebreak, key, group)).

    NumPy's default argsort of key, then a stable pass by group if given,
    puts every entry in place but for the order within runs of tied
    (group, key), which it leaves arbitrary.  Ties are rare, so only the
    entries of such runs are sorted again, by the same keys, the tiebreak
    and last their index, as lexsort's stability has it; they stay in
    their runs' places.  key must hold no NaN, which is not equal to
    itself.
    """
    order = np.argsort(key)
    if group is not None:
        order = order[np.argsort(group[order], kind="stable")]
    k = key[order]
    tied = k[1:] == k[:-1]
    if group is not None:
        g = group[order]
        tied &= g[1:] == g[:-1]
    if tied.any():
        run = np.zeros(order.size, dtype=bool)
        run[1:] = tied
        run[:-1] |= tied
        sub = order[run]
        keys = [sub, tiebreak[sub], key[sub]] + ([] if group is None else [group[sub]])
        order[run] = sub[np.lexsort(keys)]
    return order


def fit_cluster_lines(scan: Scan, clusters: list[FeatureCluster]) -> list[FeatureCluster]:
    """Fit a total least squares line to each cluster's member points.

    Mutates the clusters: fitted_line on success, fit_error (cluster
    retained, no line) when the member geometry is degenerate.
    """
    for c in clusters:
        pts = np.empty((c.size, 2))
        pts[:, 0] = scan.x[c.point_indices]
        pts[:, 1] = scan.y[c.point_indices]
        try:
            c.fitted_line = tls_fit(pts)
        except (DegenerateFitError, OrientationUndefinedError, InsufficientDataError) as e:
            c.fit_error = str(e)
    return clusters
