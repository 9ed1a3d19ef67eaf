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
    _check_min_points,
    _dbscan_1d_groups,
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
    signed_distance_to_origin_line,
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
        if not np.isfinite(self.epsilon_theta) or not 0.0 < self.epsilon_theta < 0.5 * math.pi:
            raise ValueError(
                f"epsilon_theta must lie in (0, pi/2), got {self.epsilon_theta}"
            )
        if not np.isfinite(self.epsilon_dist) or self.epsilon_dist <= 0.0:
            raise ValueError(f"epsilon_dist must be > 0, got {self.epsilon_dist}")
        _check_min_points(self.min_points)


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


def _member_positions(labels: np.ndarray, cluster, n: int, all_policy: bool) -> np.ndarray:
    # under ALL_CLUSTERS labels are last-claimant, so membership comes
    # from the (possibly overlapping) range instead
    if all_policy:
        return np.unique(cluster.indices(n))
    return np.flatnonzero(labels == cluster.id)


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
    orig = np.flatnonzero(scan.valid & np.isfinite(theta)).astype(np.int64)
    m = orig.size
    if m < params.min_points:
        return []

    # stage 1: cluster by direction on the half-circle; stable sort keyed
    # by (theta, original index) since orig is already ascending
    order = np.argsort(theta[orig], kind="stable")
    perm = orig[order]
    theta_sorted = np.ascontiguousarray(theta[perm])
    stage1 = DbscanParams(params.epsilon_theta, params.min_points, params.border_policy)
    labels1, angular_clusters = dbscan_1d_circular(
        theta_sorted, stage1, CircularDomain(math.pi), counters=counters
    )

    # stage 2: within each angular cluster, recluster by signed distance
    # to the through-origin line at the mean direction; all clusters in one
    # pass, each sorted by (distance, original index) in its own run
    all_policy = params.border_policy is BorderPolicy.ALL_CLUSTERS
    means, members, dists = [], [], []
    for ac in angular_clusters:
        pos = _member_positions(labels1, ac, m, all_policy)
        try:
            mean_theta = circular_mean(theta_sorted[pos], math.pi)
            fallback = False
        except UndefinedMeanError:
            mean_theta = float(theta_sorted[pos[pos.size // 2]])
            fallback = True
        normal = wrap_angle(mean_theta + 0.5 * math.pi)
        member_orig = perm[pos]
        means.append((mean_theta, fallback))
        members.append(member_orig)
        dists.append(
            signed_distance_to_origin_line(scan.x[member_orig], scan.y[member_orig], normal)
        )
    if not members:
        return []
    group = np.repeat(np.arange(len(members)), [p.size for p in members])
    member_orig = np.concatenate(members)
    dist = np.concatenate(dists)
    # on a large scan these hold megabytes that the one pass below would
    # otherwise add to its own
    del theta, orig, perm, theta_sorted, labels1, members, dists
    # group is the first sort key and already ascending, so it keeps its order
    order = np.lexsort((member_orig, dist, group))
    sub_orig = member_orig[order]
    dist = dist[order]
    del member_orig, order
    stage2 = DbscanParams(params.epsilon_dist, params.min_points, params.border_policy)
    labels2, subclusters = _dbscan_1d_groups(dist, group, stage2, counters=counters)
    out: list[FeatureCluster] = []
    for sc in subclusters:
        spos = _member_positions(labels2, sc, sub_orig.size, all_policy)
        # a border-stealing earlier cluster can push a late cluster
        # below the floor; such remnants count as noise
        if spos.size < params.min_points:
            continue
        mean_theta, fallback = means[group[sc.lower]]
        out.append(
            FeatureCluster(
                id=len(out) + 1,
                point_indices=np.sort(sub_orig[spos]),
                mean_theta=mean_theta,
                mean_theta_fallback=fallback,
            )
        )
    return out


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
