"""Brute-force reference implementations.

Everything here is simple and definitional: quadratic pairwise
neighborhoods (each one row of distances to all values), set-based
reachability closures, and an eigendecomposition route to the total
least squares line.  None of it shares code with the linear-time sweep
in :mod:`scanseg.dbscan1d` or the closed-form fit in
:mod:`scanseg.geometry`, which is the point: the two routes must agree
on the same inputs, and the tests hold them to that.

Distances follow the same closed comparison (<= epsilon) and, in the
circular case, the same ``min(d, period - d)`` evaluation as the fast
path, so both make identical floating-point decisions.
"""

from __future__ import annotations

import math

import numpy as np

from .dbscan1d import NOISE, BorderPolicy
from .geometry import (
    ISO_TOL,
    DegenerateFitError,
    OrientationUndefinedError,
    PolarLine,
    canonical_polar,
)

NOT_VISITED = 0


def naive_neighborhood(values, index: int, epsilon: float, period: float | None = None):
    """Indices within epsilon of ``values[index]``, by pairwise distances."""
    x = np.ascontiguousarray(values, dtype=np.float64)
    d = np.abs(x[index] - x)
    if period is not None:
        d = np.minimum(d, period - d)
    return np.flatnonzero(d <= epsilon)


def _closure(nbrs, seed: int, min_points: int):
    """``(members, cores)`` reachable from core ``seed``; ``nbrs[i]`` is i's neighborhood."""
    cores = {seed}
    queue = [seed]
    members = set()
    while queue:
        c = queue.pop()
        for j in nbrs[c]:
            j = int(j)
            members.add(j)
            if nbrs[j].size >= min_points and j not in cores:
                cores.add(j)
                queue.append(j)
    return np.array(sorted(members), np.int64), np.array(sorted(cores), np.int64)


def density_reachable_closure(
    values, seed: int, epsilon: float, min_points: int, period: float | None = None
):
    """All points density-reachable from a core seed.

    Returns ``(members, cores)`` as sorted index arrays: the union of the
    epsilon-neighborhoods of every core connected to the seed through
    cores, and those cores themselves.
    """
    x = np.ascontiguousarray(values, dtype=np.float64)
    nbrs = [naive_neighborhood(x, i, epsilon, period) for i in range(x.size)]
    if nbrs[seed].size < min_points:
        raise ValueError(f"seed {seed} is not a core point")
    return _closure(nbrs, seed, min_points)


def naive_dbscan(
    values,
    epsilon: float,
    min_points: int,
    period: float | None = None,
    border_policy: BorderPolicy = BorderPolicy.FIRST_CLUSTER,
):
    """Quadratic density clustering over sorted or unsorted values.

    Clusters are discovered by ascending seed index and grown to their
    full reachability closure before moving on, mirroring the assignment
    order of the sweep implementation.  Returns the label array (-1
    noise, ids from 1).
    """
    x = np.ascontiguousarray(values, dtype=np.float64)
    n = x.size
    nbrs = [naive_neighborhood(x, i, epsilon, period) for i in range(n)]
    is_core = np.array([nb.size >= min_points for nb in nbrs], dtype=bool)
    labels = np.full(n, NOT_VISITED, dtype=np.int64)
    cid = 0
    for i in range(n):
        if labels[i] != NOT_VISITED:
            continue
        if not is_core[i]:
            labels[i] = NOISE
            continue
        cid += 1
        members, _ = _closure(nbrs, i, min_points)
        for j in members:
            if border_policy is BorderPolicy.AS_NOISE:
                if is_core[j]:
                    labels[j] = cid
                elif labels[j] == NOT_VISITED:
                    labels[j] = NOISE
            elif border_policy is BorderPolicy.ALL_CLUSTERS:
                labels[j] = cid
            else:
                if labels[j] == NOT_VISITED or labels[j] == NOISE:
                    labels[j] = cid
    return labels


def eigen_tls(points) -> PolarLine:
    """Total least squares line via the scatter matrix eigendecomposition.

    The normal is the eigenvector of the smaller eigenvalue of the
    centered 2x2 scatter; degeneracy thresholds match
    :func:`scanseg.geometry.tls_fit` (the eigenvalue gap equals the
    moment gap ``hypot(2 Sxy, Syy - Sxx)`` identically).
    """
    pts = np.ascontiguousarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 2:
        raise ValueError("need at least two points of shape (n, 2)")
    centroid = pts.mean(axis=0)
    centered = pts - centroid
    scatter = centered.T @ centered
    w, v = np.linalg.eigh(scatter)
    spread = float(w[0] + w[1])
    if spread <= 0.0:
        raise DegenerateFitError("all points coincide")
    if float(w[1] - w[0]) <= ISO_TOL * spread:
        raise OrientationUndefinedError("point scatter is isotropic")
    normal = v[:, 0]
    theta = math.atan2(float(normal[1]), float(normal[0]))
    return canonical_polar(float(centroid @ normal), theta)
