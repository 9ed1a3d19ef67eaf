"""Two-stage extraction of line-like point clusters from a range scan.

Stage 1 estimates a local direction for every valid point and clusters
those directions on the half-circle (period pi, so nearly-opposite
directions like 179 and 1 degree chain as they should).  Stage 2 takes
each angular cluster, projects its members onto the mean-direction
normal, and reclusters by that signed distance, which separates parallel
features that agree in angle but lie on different lines.

Points that survive neither stage are noise.  Stage 2 writes the labels
of every angular cluster into one buffer sized by the per-scan point
count, which is known up front.
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
    dbscan_1d_circular,
    recluster_subrange,
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
    # to the through-origin line at the mean direction
    stage2 = DbscanParams(params.epsilon_dist, params.min_points, params.border_policy)
    labels2 = np.empty(m, np.int64)
    all_policy = params.border_policy is BorderPolicy.ALL_CLUSTERS
    out: list[FeatureCluster] = []
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
        dist = signed_distance_to_origin_line(
            scan.x[member_orig], scan.y[member_orig], normal
        )
        suborder = np.lexsort((member_orig, dist))
        dist_sorted = np.ascontiguousarray(dist[suborder])
        sub_orig = member_orig[suborder]
        sub_labels = labels2[: pos.size]
        subclusters = recluster_subrange(
            dist_sorted, stage2, counters=counters, out_labels=sub_labels
        )
        for sc in subclusters:
            spos = _member_positions(sub_labels, sc, dist_sorted.size, all_policy)
            # a border-stealing earlier cluster can push a late cluster
            # below the floor; such remnants count as noise
            if spos.size < params.min_points:
                continue
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
        pts = np.column_stack((scan.x[c.point_indices], scan.y[c.point_indices]))
        try:
            c.fitted_line = tls_fit(pts)
        except (DegenerateFitError, OrientationUndefinedError, InsufficientDataError) as e:
            c.fit_error = str(e)
    return clusters
