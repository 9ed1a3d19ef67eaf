"""Microbenchmarks for the clustering core.

Two experiments: total (sort + cluster) time as input size grows, and
cluster-phase cost across an epsilon sweep at fixed size.  Both time the
default clustering path.  The operation counters in each row are the
paper's O(N) sweep's steps and touches, derived from the bounds and
chains that path computes, so they are deterministic and carry the
complexity claims; wall times carry the real (O(N log N)) cost and are
only ever checked with loose tolerances, since clocks are machine noise.

The data generator makes k = ceil(sqrt(N)) uniform clusters of width w
separated by 10 w gaps, so for the paired epsilon choice the average
neighborhood stays near log N.  The exact generator constants are a
documented choice; only the qualitative regime (small neighborhoods,
well-separated clusters) matters for the claims.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .dbscan1d import DbscanParams, DbscanScratch, OpCounters, dbscan_1d
from .scan_io import _maybe_open

CSV_COLUMNS = (
    "N",
    "epsilon",
    "minPoints",
    "sortTimeNs",
    "clusterTimeNs",
    "neighborhoodSteps",
    "expandTouches",
    "clusterCount",
)

DEFAULT_MIN_POINTS = 4


@dataclass(frozen=True)
class BenchRow:
    n: int
    epsilon: float
    min_points: int
    sort_time_ns: int
    cluster_time_ns: int
    neighborhood_steps: int
    expand_touches: int
    cluster_count: int


@dataclass(frozen=True)
class BenchResult:
    experiment: str
    rows: list[BenchRow]


def write_csv(result: BenchResult, sink) -> None:
    """Write rows in the fixed CSV_COLUMNS order; sink is a path or file."""
    with _maybe_open(sink, "w") as f:
        f.write(",".join(CSV_COLUMNS) + "\n")
        for r in result.rows:
            f.write(
                f"{r.n},{float(r.epsilon)!r},{r.min_points},{r.sort_time_ns},"
                f"{r.cluster_time_ns},{r.neighborhood_steps},{r.expand_touches},"
                f"{r.cluster_count}\n"
            )


def _ceil_sqrt(n: int) -> int:
    return math.isqrt(n - 1) + 1 if n > 0 else 1


def generate_separated_clusters(n: int, rng: np.random.Generator, width: float = 1.0):
    """n points in ceil(sqrt(n)) uniform clusters with 10-width gaps, shuffled."""
    k = _ceil_sqrt(n)
    base, rem = divmod(n, k)
    parts = []
    for j in range(k):
        size = base + (1 if j < rem else 0)
        parts.append(11.0 * width * j + width * rng.random(size))
    return rng.permutation(np.concatenate(parts))


def scaling_epsilon(n: int, width: float = 1.0) -> float:
    """Epsilon giving about log N expected neighbors per point here.

    Each cluster holds m = n / k points uniform over width w, so a +-eps
    window catches m * 2 eps / w of them on average; solving for log n
    gives eps = w log(n) / (2 m).
    """
    m = n / _ceil_sqrt(n)
    return width * math.log(n) / (2.0 * m)


def bench_scaling(sizes, trials: int = 3, seed: int = 0) -> BenchResult:
    """Time sort and cluster phases separately across ascending sizes.

    One row per size with phase means over ``trials`` runs; counters are
    per-run values and deterministic under the seed.  The epsilon for
    each size comes from scaling_epsilon, keeping neighborhoods near
    log N so density grows mildly instead of staying fixed per point.
    """
    sizes = [int(s) for s in sizes]
    if sizes != sorted(sizes) or not sizes:
        raise ValueError("sizes must be a non-empty ascending list")
    if sizes[0] < 1:
        raise ValueError("sizes must be >= 1")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    _kernels.warmup()
    rng = np.random.Generator(np.random.Philox(seed))
    scratch = DbscanScratch(max(sizes))
    rows = []
    for n in sizes:
        data = generate_separated_clusters(n, rng)
        eps = scaling_epsilon(n)
        params = DbscanParams(eps, DEFAULT_MIN_POINTS)
        sort_ns = 0
        cluster_ns = 0
        counters = OpCounters()
        clusters: list = []
        for _ in range(trials):
            counters.reset()
            work = data.copy()
            t0 = time.perf_counter_ns()
            work.sort()
            t1 = time.perf_counter_ns()
            _, clusters = dbscan_1d(work, params, scratch=scratch, counters=counters)
            t2 = time.perf_counter_ns()
            sort_ns += t1 - t0
            cluster_ns += t2 - t1
        rows.append(
            BenchRow(
                n,
                eps,
                DEFAULT_MIN_POINTS,
                sort_ns // trials,
                cluster_ns // trials,
                counters.neighborhood_steps,
                counters.expand_touches,
                len(clusters),
            )
        )
    return BenchResult("scaling", rows)


def bench_epsilon_sweep(
    n: int, epsilons, trials: int = 3, seed: int = 0, min_points: int = DEFAULT_MIN_POINTS
) -> BenchResult:
    """Cluster-phase cost on one uniform dataset across epsilon values.

    The data is drawn and sorted once (that sort time is reported on
    every row); each epsilon then gets ``trials`` timed cluster runs.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    epsilons = [float(e) for e in epsilons]
    if not epsilons:
        raise ValueError("need at least one epsilon")
    _kernels.warmup()
    rng = np.random.Generator(np.random.Philox(seed))
    data = rng.random(n)
    t0 = time.perf_counter_ns()
    data.sort()
    sort_ns = time.perf_counter_ns() - t0
    scratch = DbscanScratch(n)
    rows = []
    for eps in epsilons:
        params = DbscanParams(eps, min_points)
        cluster_ns = 0
        counters = OpCounters()
        clusters: list = []
        for _ in range(trials):
            counters.reset()
            t1 = time.perf_counter_ns()
            _, clusters = dbscan_1d(data, params, scratch=scratch, counters=counters)
            t2 = time.perf_counter_ns()
            cluster_ns += t2 - t1
        rows.append(
            BenchRow(
                n,
                eps,
                min_points,
                sort_ns,
                cluster_ns // trials,
                counters.neighborhood_steps,
                counters.expand_touches,
                len(clusters),
            )
        )
    return BenchResult("epsilon-sweep", rows)
