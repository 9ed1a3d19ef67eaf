#!/usr/bin/env python3
"""Measure how clustering cost moves with input size and with epsilon.

    python3 demos/demo_benchmark.py

Timings wobble with the machine; the operation counters do not, which
is the point of printing both.  The counters are those of the paper's
O(N) sweep, derived from the bounds the vectorized code computes; the
timings are of that O(N log N) code.
"""

import io

from scanseg.bench import bench_epsilon_sweep, bench_scaling, write_csv


def main():
    sizes = [50_000, 100_000, 200_000, 400_000]
    rows = bench_scaling(sizes, trials=3, seed=0)

    buf = io.StringIO()
    write_csv(rows, buf)
    print(buf.getvalue().rstrip())

    print("\nper doubling of N:")
    for prev, cur in zip(rows, rows[1:]):
        print(f"  {prev.n:>7} -> {cur.n:>7}: "
              f"steps x{cur.neighborhood_steps / prev.neighborhood_steps:.3f}, "
              f"cluster time x{cur.cluster_time_ns / prev.cluster_time_ns:.2f}")
    print("steps double exactly because the paper's sweep always does 2N of them")

    # Same dataset, epsilon varied over four orders of magnitude. The
    # paper's sweep walks each pointer once regardless, so the counters
    # stay flat; time moves a little with the cluster count.
    n = 200_000
    sweep = bench_epsilon_sweep(n, [1e-6, 1e-5, 1e-4, 1e-3], trials=3, seed=1)
    print(f"\nepsilon sweep at N={n}:")
    for r in sweep:
        print(f"  eps={r.epsilon:8.1e}: {r.cluster_count:6d} clusters, "
              f"steps={r.neighborhood_steps}, "
              f"cluster time {r.cluster_time_ns / 1e6:.2f} ms")


if __name__ == "__main__":
    main()
