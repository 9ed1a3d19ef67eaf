"""Microbenchmarks for the clustering core.

Two experiments: total (sort + cluster) time as input size grows, and
cluster-phase cost across an epsilon sweep at fixed size.  Both time the
default clustering path.  The operation counters in each row are the
paper's O(N) sweep's steps and touches, derived from the bounds and
chains that path computes, so they are deterministic and carry the
complexity claims.  Wall times carry the real cost, with bounds in
O(N log VEC_BLOCK) while neighborhoods stay under a block and O(N log N)
only when one neighborhood spans the array; they are only ever checked
with loose tolerances, since clocks are machine noise.

The data generator makes k = ceil(sqrt(N)) uniform clusters of width 1
separated by gaps of 10, so for the paired epsilon choice the average
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
from .dbscan1d import DbscanParams, OpCounters, dbscan_1d
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


def write_csv(rows: list[BenchRow], sink) -> None:
    """Write rows in the fixed CSV_COLUMNS order; sink is a path or file."""
    with _maybe_open(sink, "w") as f:
        f.write(",".join(CSV_COLUMNS) + "\n")
        for r in rows:
            f.write(
                f"{r.n},{float(r.epsilon)!r},{r.min_points},{r.sort_time_ns},"
                f"{r.cluster_time_ns},{r.neighborhood_steps},{r.expand_touches},"
                f"{r.cluster_count}\n"
            )


def _ceil_sqrt(n: int) -> int:
    return math.isqrt(n - 1) + 1 if n > 0 else 1


def generate_separated_clusters(n: int, rng: np.random.Generator):
    """n points in ceil(sqrt(n)) uniform clusters of width 1, gaps of 10, shuffled."""
    k = _ceil_sqrt(n)
    base, rem = divmod(n, k)
    sizes = np.where(np.arange(k) < rem, base + 1, base)
    return rng.permutation(np.repeat(11.0 * np.arange(k), sizes) + rng.random(n))


def scaling_epsilon(n: int) -> float:
    """Epsilon giving about log N expected neighbors per point here.

    Each cluster holds m = n / k points uniform over width 1, so a +-eps
    window catches 2 m eps of them on average; solving for log n gives
    eps = log(n) / (2 m).
    """
    m = n / _ceil_sqrt(n)
    return math.log(n) / (2.0 * m)


def _timed_rows(data, epsilons, sort_trials: int, trials: int) -> list[BenchRow]:
    """One row per epsilon on a sorted copy of ``data``.

    The sort time is the mean over ``sort_trials`` sorts of fresh copies
    and is shared by every row; each epsilon then gets ``trials`` timed,
    counted cluster runs, whose mean time and per-run counters it reports.
    """
    sort_ns = 0
    for _ in range(sort_trials):
        work = data.copy()
        t0 = time.perf_counter_ns()
        work.sort()
        sort_ns += time.perf_counter_ns() - t0
    rows = []
    for eps in epsilons:
        params = DbscanParams(eps, DEFAULT_MIN_POINTS)
        counters = OpCounters()
        cluster_ns = 0
        for _ in range(trials):
            counters.reset()
            t0 = time.perf_counter_ns()
            _, clusters = dbscan_1d(work, params, counters=counters)
            cluster_ns += time.perf_counter_ns() - t0
        rows.append(
            BenchRow(
                data.size,
                eps,
                DEFAULT_MIN_POINTS,
                sort_ns // sort_trials,
                cluster_ns // trials,
                counters.neighborhood_steps,
                counters.expand_touches,
                len(clusters),
            )
        )
    return rows


def bench_scaling(sizes, trials: int = 3, seed: int = 0) -> list[BenchRow]:
    """Time sort and cluster phases separately across ascending sizes.

    Returns one row per size with phase means over ``trials`` sorts and
    ``trials`` cluster runs; counters are per-run values and deterministic
    under the seed.  The epsilon for each size comes from scaling_epsilon,
    keeping neighborhoods near log N so density grows mildly instead of
    staying fixed per point.
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
    rows = []
    for n in sizes:
        data = generate_separated_clusters(n, rng)
        rows += _timed_rows(data, [scaling_epsilon(n)], trials, trials)
    return rows


def bench_epsilon_sweep(n: int, epsilons, trials: int = 3, seed: int = 0) -> list[BenchRow]:
    """Cluster-phase cost on one uniform dataset across epsilon values.

    Returns one row per epsilon.  The data is drawn and sorted once (that
    sort time is reported on every row); each epsilon then gets
    ``trials`` timed cluster runs.
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
    return _timed_rows(rng.random(n), epsilons, 1, trials)
