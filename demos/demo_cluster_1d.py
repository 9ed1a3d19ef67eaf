#!/usr/bin/env python3
"""Cluster a sorted 1D sample and look at what the sweep actually did.

Run it from the repo root:

    python3 demos/demo_cluster_1d.py
"""

import numpy as np

from scanseg import BorderPolicy, DbscanParams, OpCounters, dbscan_1d


def show(labels, clusters, values):
    for c in clusters:
        members = values[c.lower : c.upper + 1]
        print(f"  cluster {c.id}: rows {c.lower}..{c.upper} "
              f"({c.size} points, span {members[-1] - members[0]:.3f})")
    noise = np.flatnonzero(labels == -1)
    print(f"  noise rows: {noise.tolist()}")


def main():
    rng = np.random.default_rng(7)

    # Three well separated blobs plus a handful of stragglers. The
    # clusterer requires sorted input, so sort once up front.
    values = np.sort(np.concatenate([
        rng.normal(0.0, 0.05, 40),
        rng.normal(3.0, 0.08, 25),
        rng.normal(7.5, 0.04, 35),
        rng.uniform(0.0, 8.0, 5),
    ]))

    params = DbscanParams(epsilon=0.15, min_points=5)
    counters = OpCounters()
    labels, clusters = dbscan_1d(values, params, counters=counters)

    print(f"{values.size} points, epsilon={params.epsilon}, "
          f"min_points={params.min_points}")
    show(labels, clusters, values)

    # The paper's neighborhood pass is two monotone pointer sweeps, so its
    # step counter lands on exactly 2N no matter how the data looks.
    print(f"  neighborhood steps: {counters.neighborhood_steps} "
          f"(always 2N = {2 * values.size})")
    print(f"  expansion touches:  {counters.expand_touches} (at most 2N)")

    # Border points sit within epsilon of a core point without being
    # cores themselves. When two clusters can both reach one, the
    # policy decides who keeps it.
    print("\nborder policies on a contested point:")
    x = np.array([0.0, 0.05, 0.1, 0.2, 0.45, 0.7, 0.8, 0.85, 0.9])
    for policy in BorderPolicy:
        p = DbscanParams(epsilon=0.25, min_points=4, border_policy=policy)
        lab, _ = dbscan_1d(x, p)
        print(f"  {policy.value:>6}: labels {lab.tolist()}")
    print("the middle point at 0.45 is reachable from both sides; "
          "'first' keeps it left,\n'all' lets the later cluster relabel it, "
          "'noise' strips every non-core point")


if __name__ == "__main__":
    main()
