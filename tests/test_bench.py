"""Benchmark harness: data generation, counters, CSV output."""

import csv
import io
import math

import numpy as np
import pytest

from scanseg import DbscanParams, dbscan_1d
from scanseg.bench import (
    CSV_COLUMNS,
    bench_epsilon_sweep,
    bench_scaling,
    generate_separated_clusters,
    scaling_epsilon,
    write_csv,
)


class TestDataGeneration:
    def test_cluster_layout(self):
        rng = np.random.default_rng(0)
        n = 1000
        data = generate_separated_clusters(n, rng)
        assert data.size == n
        x = np.sort(data)
        gaps = np.diff(x)
        k = math.isqrt(n - 1) + 1
        # exactly k-1 separating gaps an order wider than the clusters
        assert int(np.sum(gaps > 5.0)) == k - 1
        assert gaps[gaps > 5.0].min() >= 10.0

    def test_population_split(self):
        rng = np.random.default_rng(1)
        data = np.sort(generate_separated_clusters(500, rng))
        labels, clusters = dbscan_1d(data, DbscanParams(1.0, 1))
        k = math.isqrt(499) + 1
        assert len(clusters) == k
        sizes = sorted(c.size for c in clusters)
        lo, rem = divmod(500, k)
        assert sizes == [lo] * (k - rem) + [lo + 1] * rem

    def test_permuted_not_sorted(self):
        rng = np.random.default_rng(2)
        data = generate_separated_clusters(2000, rng)
        assert np.any(np.diff(data) < 0)

    def test_scaling_epsilon_shrinks_with_n(self):
        values = [scaling_epsilon(n) for n in (1000, 10_000, 100_000)]
        assert all(v > 0 for v in values)
        assert values == sorted(values, reverse=True)


class TestScalingBench:
    def test_rows_and_counters(self, warmed):
        result = bench_scaling([1000, 2000, 4000], trials=2, seed=0)
        assert [r.n for r in result] == [1000, 2000, 4000]
        for row in result:
            assert row.neighborhood_steps == 2 * row.n
            assert 0 < row.expand_touches <= 2 * row.n
            assert row.cluster_count > 0
            assert row.sort_time_ns > 0 and row.cluster_time_ns > 0

    def test_counter_doubling(self, warmed):
        result = bench_scaling([2000, 4000], trials=1, seed=3)
        a, b = result
        ratio = (b.neighborhood_steps + b.expand_touches) / (
            a.neighborhood_steps + a.expand_touches
        )
        assert 1.9 <= ratio <= 2.1

    def test_single_trial_deterministic(self, warmed):
        one = bench_scaling([1000, 2000], trials=1, seed=9)
        two = bench_scaling([1000, 2000], trials=1, seed=9)
        for x, y in zip(one, two):
            assert x.neighborhood_steps == y.neighborhood_steps
            assert x.expand_touches == y.expand_touches
            assert x.cluster_count == y.cluster_count

    def test_sizes_must_ascend(self):
        with pytest.raises(ValueError):
            bench_scaling([2000, 1000])
        with pytest.raises(ValueError):
            bench_scaling([])


class TestEpsilonSweep:
    def test_work_tracks_counters(self, warmed):
        result = bench_epsilon_sweep(
            20_000, [1e-7, 1e-6, 1e-5, 1e-4, 1e-3], trials=2, seed=1
        )
        totals = [r.neighborhood_steps + r.expand_touches for r in result]
        assert max(totals) <= 2 * min(totals)
        # one dataset, one sort: every row reports the same sort cost
        assert len({r.sort_time_ns for r in result}) == 1
        assert [r.epsilon for r in result] == [1e-7, 1e-6, 1e-5, 1e-4, 1e-3]

    def test_vanishing_epsilon_all_noise(self, warmed):
        result = bench_epsilon_sweep(5000, [1e-15], trials=1, seed=2)
        assert result[0].cluster_count == 0

    def test_epsilons_required(self):
        with pytest.raises(ValueError):
            bench_epsilon_sweep(1000, [])


class TestGoldenCounts:
    """Count columns of fixed runs, so that a change to the timing loop or
    to the data recipe that moves any of them shows; times are noise."""

    @staticmethod
    def counts(rows):
        return [
            (r.n, r.epsilon, r.min_points, r.neighborhood_steps, r.expand_touches,
             r.cluster_count)
            for r in rows
        ]

    def test_scaling(self, warmed):
        rows = bench_scaling([1, 2, 3, 1000, 10_000, 100_000], trials=1, seed=0)
        assert self.counts(rows) == [
            (1, 0.0, 4, 2, 0, 0),
            (2, 0.34657359027997264, 4, 4, 0, 0),
            (3, 0.3662040962227033, 4, 6, 0, 0),
            (1000, 0.11052408446371419, 4, 2000, 937, 56),
            (10000, 0.04605170185988092, 4, 20000, 9789, 182),
            (100000, 0.018247986861977813, 4, 200000, 99379, 618),
        ]

    def test_epsilon_sweep(self, warmed):
        rows = bench_epsilon_sweep(
            200_000, [1e-7, 1e-6, 1e-5, 1e-4, 1e-3], trials=1, seed=1
        )
        assert self.counts(rows) == [
            (200000, 1e-07, 4, 400000, 6, 2),
            (200000, 1e-06, 4, 400000, 2346, 733),
            (200000, 1e-05, 4, 400000, 158686, 18717),
            (200000, 0.0001, 4, 400000, 199999, 1),
            (200000, 0.001, 4, 400000, 199999, 1),
        ]
        assert len({r.sort_time_ns for r in rows}) == 1


class TestCsv:
    def test_schema(self):
        assert CSV_COLUMNS == (
            "N",
            "epsilon",
            "minPoints",
            "sortTimeNs",
            "clusterTimeNs",
            "neighborhoodSteps",
            "expandTouches",
            "clusterCount",
        )

    def test_round_trip(self, warmed, tmp_path):
        result = bench_scaling([1000], trials=1, seed=5)
        path = tmp_path / "bench.csv"
        write_csv(result, path)
        with open(path, newline="") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 1
        row = rows[0]
        assert set(row) == set(CSV_COLUMNS)
        assert int(row["N"]) == 1000
        assert int(row["neighborhoodSteps"]) == 2000
        assert float(row["epsilon"]) == result[0].epsilon

    def test_file_object_target(self, warmed):
        result = bench_epsilon_sweep(1000, [0.5], trials=1, seed=0)
        buf = io.StringIO()
        write_csv(result, buf)
        text = buf.getvalue()
        assert text.splitlines()[0] == ",".join(CSV_COLUMNS)
        assert len(text.splitlines()) == 2


def test_scaling_needs_a_trial():
    with pytest.raises(ValueError, match=r"^trials must be >= 1$"):
        bench_scaling([10], trials=0)


def test_epsilon_sweep_needs_a_point():
    with pytest.raises(ValueError, match=r"^n must be >= 1$"):
        bench_epsilon_sweep(0, [0.1])


def test_epsilon_sweep_needs_a_trial():
    with pytest.raises(ValueError, match=r"^trials must be >= 1$"):
        bench_epsilon_sweep(10, [0.1], trials=0)
