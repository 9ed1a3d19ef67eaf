"""Sweep the whole-scan cluster tail against the earlier per-cluster fit and mean.

    PYTHONPATH=src python -W error::RuntimeWarning tests/fit_sweep.py --count 20000 --seed 1

tls_fit and circular_mean run the kernels under test, so the expected
outcomes come from their earlier forms (``geometry_reference.py``).
Each case is one seeded random scan cut into clusters and one array of
directions cut into runs.  The clusters hold 1-300 points each: random
scatters, collinear runs, coincident points, square corners and regular
polygons, scaled from 1e-3 to 1e140 and shifted by up to 1e150, their
points spread over the scan in random order; one case in 20 scales one
cluster to 1e160, where the moments overflow unless its points coincide.
``fit_cluster_lines`` gathers the members of up to ``_FIT_BLOCK`` of
them at once (here also 1 to 600, so that blocks end inside and between
clusters) and must give every cluster the bits the reference gives for
its points, or its error text, and raise tls_fit's overflow error where
the reference's NumPy sums or products overflow.  The runs hold 1-300
directions in [0, pi): uniform, tight bundles (some across the seam),
antipodal pairs, evenly spread sets and one repeated value;
``segmentation._cluster_means`` must give each run the bits of the
reference mean, or its median member when the mean is undefined.  Exits
1 at the first difference.  Tier-1 runs a sample
(``test_segmentation.py``).
"""

from __future__ import annotations

import argparse
import collections
import math
import sys
import time

import numpy as np

from scanseg import (
    DegenerateFitError,
    FeatureCluster,
    InsufficientDataError,
    OrientationUndefinedError,
    Scan,
    UndefinedMeanError,
    fit_cluster_lines,
)
from scanseg import segmentation
from geometry_reference import reference_circular_mean, reference_tls_fit

TWO_PI = 2.0 * math.pi
FIT_KINDS = ("random", "collinear", "coincident", "square", "polygon")
MEAN_KINDS = ("uniform", "bundle", "antipodal", "spread", "constant")
OFFSETS = (0.0, 1.0, -3e9, 1e150, -1e150)
SCALES = (1e-3, 1.0, 1e5, 1e140)
# squares of differences of this scale overflow float64
HUGE = 1e160
OVERFLOW = (ValueError, "line fit overflows float64: points too large or too far apart")
# the errors fit_cluster_lines keeps as a cluster's fit_error
KEPT = (DegenerateFitError, OrientationUndefinedError, InsufficientDataError)


def cluster_points(rng: np.random.Generator, kind: str, n: int, offset: float, scale: float):
    """(x, y) of one cluster of n points."""
    if kind == "random":
        xy = rng.normal(size=(2, n))
    elif kind == "collinear":
        t = rng.uniform(-1.0, 1.0, n)
        phi = rng.uniform(0.0, TWO_PI)
        xy = np.array([t * math.cos(phi), t * math.sin(phi)])
    elif kind == "coincident":
        xy = np.repeat(rng.normal(size=(2, 1)), n, axis=1)
    elif kind == "square":
        corners = np.array([[1.0, -1.0, -1.0, 1.0], [1.0, 1.0, -1.0, -1.0]])
        xy = corners[:, np.arange(n) % 4]
    else:
        k = int(rng.integers(3, 13))
        phi = TWO_PI * np.arange(n) / k + rng.uniform(0.0, TWO_PI)
        xy = np.array([np.cos(phi), np.sin(phi)])
    return xy[0] * scale + offset, xy[1] * scale + offset


def partition_scan(rng: np.random.Generator, specs) -> tuple[Scan, list[FeatureCluster]]:
    """A scan of the clusters (kind, n, offset, scale) in specs, their
    points at random beams, and the clusters with those beams as members
    (sorted, or in random order)."""
    parts = [cluster_points(rng, *spec) for spec in specs]
    x = np.concatenate([p[0] for p in parts])
    y = np.concatenate([p[1] for p in parts])
    beam = rng.permutation(x.size)
    scan = Scan.from_xy(*_placed(x, y, beam))
    clusters, start = [], 0
    for k, (_, n, _, _) in enumerate(specs):
        members = beam[start : start + n]
        start += n
        if rng.random() < 0.5:
            members = np.sort(members)
        clusters.append(FeatureCluster(k + 1, members, 0.0))
    return scan, clusters


def _placed(x, y, beam):
    """x and y moved so that point i sits at beam[i]."""
    px, py = np.empty_like(x), np.empty_like(y)
    px[beam], py[beam] = x, y
    return px, py


def fit_outcome(scan: Scan, cluster: FeatureCluster):
    """What fit_cluster_lines should leave on a cluster: the bits of the
    reference line, or the text of the error the reference raises, kept
    or (type, text) raised.  Where a NumPy operation of the reference
    overflows, the outcome is tls_fit's overflow error.  (No point set of
    the sweep overflows in the reference's Python arithmetic alone, the
    spread or the offset, which the errstate cannot see.)"""
    idx = cluster.point_indices
    try:
        with np.errstate(over="raise"):
            line = reference_tls_fit(np.column_stack((scan.x[idx], scan.y[idx])))
    except FloatingPointError:
        return OVERFLOW
    except KEPT as e:
        return str(e)
    except ValueError as e:
        return type(e), str(e)
    return line.d.hex(), line.theta.hex()


def fit_mismatch(scan: Scan, clusters: list[FeatureCluster]) -> str | None:
    """How fit_cluster_lines differs from the reference per cluster, or
    None.  Where it raises, the clusters before the first the reference
    raises for are compared."""
    want = [fit_outcome(scan, c) for c in clusters]
    raised = next((w for w in want if isinstance(w, tuple) and isinstance(w[0], type)), None)
    try:
        fit_cluster_lines(scan, clusters)
    except ValueError as e:
        if (type(e), str(e)) != raised:
            return f"raised {type(e).__name__}: {e}, the reference gives {want}"
        want = want[: want.index(raised)]
    else:
        if raised is not None:
            return f"returned, the reference raises {raised}"
    got = [
        (c.fitted_line.d.hex(), c.fitted_line.theta.hex()) if c.fitted_line else c.fit_error
        for c in clusters[: len(want)]
    ]
    if got != want:
        bad = next(k for k, (g, w) in enumerate(zip(got, want)) if g != w)
        sizes = [c.size for c in clusters]
        return f"cluster {bad} of sizes {sizes}: {got[bad]} against {want[bad]}"
    return None


def direction_run(rng: np.random.Generator, kind: str, n: int) -> np.ndarray:
    """n directions in [0, pi)."""
    if kind == "uniform":
        theta = rng.uniform(0.0, math.pi, n)
    elif kind == "bundle":
        center = rng.choice([0.0, rng.uniform(0.0, math.pi)])
        theta = (rng.uniform(-0.05, 0.05, n) + center) % math.pi
    elif kind == "antipodal":
        a = rng.uniform(0.0, 0.5 * math.pi)
        theta = np.where(np.arange(n) % 2 == 0, a, a + 0.5 * math.pi)
    elif kind == "spread":
        theta = (math.pi * np.arange(n) / n + rng.uniform(0.0, math.pi)) % math.pi
    else:
        theta = np.full(n, rng.uniform(0.0, math.pi))
    # % can round a value just below 0 up to pi itself
    theta[theta >= math.pi] = 0.0
    return theta


def mean_mismatch(theta: np.ndarray, ends: list[int]) -> str | None:
    """How _cluster_means differs from the reference mean per run, or None."""
    want = []
    for a, b in zip(ends, ends[1:]):
        try:
            want.append((reference_circular_mean(theta[a:b], math.pi).hex(), False))
        except UndefinedMeanError:
            want.append((float(theta[(a + b) // 2]).hex(), True))
    got = [(mean.hex(), fallback) for mean, fallback in segmentation._cluster_means(theta, ends)]
    if got != want:
        bad = next(k for k, (g, w) in enumerate(zip(got, want)) if g != w)
        return f"run {bad} of ends {ends}: {got[bad]} against {want[bad]}"
    return None


def case(rng: np.random.Generator) -> tuple[str | None, list, list]:
    """(first mismatch or None, fit outcomes, mean fallbacks) of one case."""
    specs = [
        (
            FIT_KINDS[rng.integers(len(FIT_KINDS))],
            int(rng.integers(1, 301)),
            OFFSETS[rng.integers(len(OFFSETS))],
            SCALES[rng.integers(len(SCALES))],
        )
        for _ in range(rng.integers(1, 21))
    ]
    if rng.random() < 0.05:
        k = rng.integers(len(specs))
        specs[k] = (*specs[k][:3], HUGE)
    scan, clusters = partition_scan(rng, specs)
    block = segmentation._FIT_BLOCK
    if rng.random() < 0.5:
        segmentation._FIT_BLOCK = int(rng.integers(1, 601))
    try:
        bad = fit_mismatch(scan, clusters)
    finally:
        segmentation._FIT_BLOCK = block
    fits = [c.fit_error or "fitted" for c in clusters if c.fit_error or c.fitted_line]
    if len(fits) < len(clusters):  # raised, as the reference has it
        fits.append(OVERFLOW[1])
    if bad is not None:
        return bad, fits, []
    runs = [
        direction_run(rng, MEAN_KINDS[rng.integers(len(MEAN_KINDS))], int(rng.integers(1, 301)))
        for _ in range(rng.integers(1, 21))
    ]
    ends = [0, *np.cumsum([r.size for r in runs]).tolist()]
    theta = np.concatenate(runs)
    bad = mean_mismatch(theta, ends)
    return bad, fits, [f for _, f in segmentation._cluster_means(theta, ends)]


def sweep(count: int, seed: int) -> tuple[collections.Counter, str | None]:
    """(outcomes of the clusters and runs compared, first mismatch or None)."""
    rng = np.random.Generator(np.random.Philox(seed))
    seen = collections.Counter()
    for _ in range(count):
        bad, fits, fallbacks = case(rng)
        if bad is not None:
            return seen, bad
        seen.update(fits)
        seen.update("mean fallback" if f else "mean" for f in fallbacks)
    return seen, None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=20_000, help="random cases")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    start = time.perf_counter()
    seen, bad = sweep(args.count, args.seed)
    seconds = time.perf_counter() - start
    if bad is not None:
        print(f"mismatch: {bad}")
        return 1
    print(f"{args.count} cases as the reference fit and mean give them, in {seconds:.1f} s")
    for text, n in seen.most_common():
        print(f"  {n:9d}  {text}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
