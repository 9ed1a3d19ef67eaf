"""Two-stage scan segmentation: angle clustering then distance splitting."""

import numpy as np
import pytest

from scanseg import (
    FeatureCluster,
    InsufficientDataError,
    OpCounters,
    Scan,
    SegmentationParams,
    angular_segmentation,
    fit_cluster_lines,
    generate_scan,
    signed_distance_to_origin_line,
    wrap_angle,
)

PARAMS = SegmentationParams(0.1, 0.2, 16)


def square_scan(beams=360, noise=None):
    from scanseg import RoomModel

    room = RoomModel(
        np.array([[-2.0, -2.0], [2.0, -2.0], [2.0, 2.0], [-2.0, 2.0]]),
        (0.0, 0.0, 0.0),
    )
    return generate_scan(room, beams, noise)


def one_wall_with_outliers():
    """50 returns on one wall plus five isolated returns between dropouts."""
    n = 50
    xw = np.linspace(-1.5, 1.5, n)
    X = list(xw) + [0.0]
    Y = [2.0] * n + [0.0]
    V = [True] * n + [False]
    for ox, oy in [(5.0, -3.0), (-5.0, -3.5), (6.0, -4.0), (-6.0, -4.5), (7.0, -5.0)]:
        X += [ox, 0.0]
        Y += [oy, 0.0]
        V += [True, False]
    return Scan.from_xy(np.array(X), np.array(Y), np.array(V), full_circle=False)


class TestSquareRoom:
    def test_four_walls_noise_free(self):
        scan, wall_ids = square_scan()
        clusters = angular_segmentation(scan, PARAMS)
        assert len(clusters) == 4
        assert sorted(c.size for c in clusters) == [89, 89, 89, 89]
        # every cluster maps onto exactly one physical wall
        walls_seen = set()
        for cluster in clusters:
            walls = set(wall_ids[cluster.point_indices].tolist())
            assert len(walls) == 1
            walls_seen |= walls
        assert walls_seen == {0, 1, 2, 3}

    def test_wall_lines_recovered_exactly(self):
        scan, _ = square_scan()
        clusters = angular_segmentation(scan, PARAMS)
        fit_cluster_lines(scan, clusters)
        fitted = {
            (round(c.fitted_line.d, 9), round(c.fitted_line.theta, 9))
            for c in clusters
        }
        expected = {
            (2.0, 0.0),
            (2.0, round(np.pi / 2, 9)),
            (2.0, round(np.pi, 9)),
            (2.0, round(3 * np.pi / 2, 9)),
        }
        assert fitted == expected
        for cluster in clusters:
            assert cluster.fit_error is None
            assert not cluster.mean_theta_fallback

    def test_opposite_walls_have_opposite_signs(self):
        scan, _ = square_scan()
        clusters = angular_segmentation(scan, PARAMS)
        by_theta = {}
        for cluster in clusters:
            normal = wrap_angle(cluster.mean_theta + np.pi / 2)
            d = signed_distance_to_origin_line(
                scan.x[cluster.point_indices], scan.y[cluster.point_indices], normal
            )
            assert np.all(d > 0) or np.all(d < 0)
            by_theta.setdefault(round(cluster.mean_theta, 6), []).append(
                float(np.sign(d[0]))
            )
        for signs in by_theta.values():
            assert sorted(signs) == [-1.0, 1.0]

    def test_members_disjoint_and_sorted(self):
        scan, _ = square_scan()
        clusters = angular_segmentation(scan, PARAMS)
        seen = np.concatenate([c.point_indices for c in clusters])
        assert seen.size == np.unique(seen).size
        for cluster in clusters:
            assert np.all(np.diff(cluster.point_indices) > 0)
            assert cluster.size >= PARAMS.min_points

    def test_deterministic(self):
        scan, _ = square_scan(noise=__import__("scanseg").NoiseModel(0.01, 0.05, 3))
        a = angular_segmentation(scan, PARAMS)
        b = angular_segmentation(scan, PARAMS)
        assert [(c.id, c.point_indices.tolist()) for c in a] == [
            (c.id, c.point_indices.tolist()) for c in b
        ]

    def test_counters_accumulate(self):
        scan, _ = square_scan()
        counters = OpCounters()
        angular_segmentation(scan, PARAMS, counters=counters)
        assert counters.neighborhood_steps > 0
        assert counters.total < 20 * scan.beams  # both stages stay linear-ish


class TestDegenerateInputs:
    def test_all_faulty_rejected(self):
        scan = Scan(
            np.linspace(0, 2 * np.pi, 20, endpoint=False),
            np.ones(20),
            np.zeros(20, bool),
            True,
        )
        with pytest.raises(InsufficientDataError):
            angular_segmentation(scan, PARAMS)

    def test_too_few_valid_rejected(self):
        scan = Scan(
            np.linspace(0, 1, 10),
            np.ones(10),
            np.array([True] * 5 + [False] * 5),
            False,
        )
        with pytest.raises(InsufficientDataError):
            angular_segmentation(scan, SegmentationParams(0.1, 0.2, 6))

    def test_no_participating_points_yields_empty(self):
        # valid points exist but every run is shorter than the window
        x = np.array([0.0, 1.0, 2.0, 3.0, 4.0, 5.0])
        y = np.zeros(6)
        valid = np.array([True, False, True, False, True, False])
        scan = Scan.from_xy(x + 1, y + 1, valid, full_circle=False)
        assert angular_segmentation(scan, SegmentationParams(0.1, 0.2, 2)) == []

    def test_param_validation(self):
        with pytest.raises(ValueError):
            SegmentationParams(0.0, 0.2, 4)
        with pytest.raises(ValueError):
            SegmentationParams(np.pi / 2, 0.2, 4)  # must stay below pi/2
        with pytest.raises(ValueError):
            SegmentationParams(0.1, 0.0, 4)
        with pytest.raises(ValueError):
            SegmentationParams(0.1, 0.2, 0)
        for bad in (np.inf, -np.inf, np.nan):
            with pytest.raises(ValueError, match="min_points must be an integer >= 1"):
                SegmentationParams(0.1, 0.2, bad)


class TestIsolation:
    def test_single_wall_with_isolated_outliers(self):
        scan = one_wall_with_outliers()
        clusters = angular_segmentation(scan, PARAMS)
        assert len(clusters) == 1
        assert clusters[0].point_indices.tolist() == list(range(50))

    def test_parallel_walls_split_by_distance(self):
        n = 50
        xw = np.linspace(-1.5, 1.5, n)
        X = np.concatenate([xw, [0.0], xw[::-1]])
        Y = np.concatenate([np.full(n, 2.0), [0.0], np.full(n, -2.0)])
        V = np.ones(2 * n + 1, bool)
        V[n] = False
        scan = Scan.from_xy(X, Y, V, full_circle=False)
        clusters = angular_segmentation(scan, PARAMS)
        fit_cluster_lines(scan, clusters)
        assert len(clusters) == 2
        assert {c.size for c in clusters} == {50}
        lines = sorted((c.fitted_line.d, c.fitted_line.theta) for c in clusters)
        assert lines[0][0] == pytest.approx(2.0, abs=1e-9)
        assert lines[1][0] == pytest.approx(2.0, abs=1e-9)
        assert {round(t, 9) for _, t in lines} == {
            round(np.pi / 2, 9),
            round(3 * np.pi / 2, 9),
        }


class TestMeanFallback:
    def test_circle_scan_trips_fallback(self):
        """Tangents of a full circle cover the direction ring uniformly, so
        the angular mean is undefined and the median member steps in."""
        t = np.arange(24) * (2 * np.pi / 24)
        scan = Scan.from_xy(
            3 * np.cos(t), 3 * np.sin(t), np.ones(24, bool), full_circle=True
        )
        clusters = angular_segmentation(scan, SegmentationParams(0.5, 1.0, 4))
        assert len(clusters) == 1
        assert clusters[0].mean_theta_fallback
        assert 0.0 <= clusters[0].mean_theta < np.pi


class TestRotationEquivariance:
    def test_rotating_scene_rotates_lines(self):
        scan, _ = square_scan()
        base = angular_segmentation(scan, PARAMS)
        fit_cluster_lines(scan, base)
        phi = 0.7
        c, s = np.cos(phi), np.sin(phi)
        turned_scan = Scan.from_xy(
            c * scan.x - s * scan.y,
            s * scan.x + c * scan.y,
            scan.valid,
            full_circle=True,
        )
        turned = angular_segmentation(turned_scan, PARAMS)
        fit_cluster_lines(turned_scan, turned)
        assert len(turned) == len(base)
        base_lines = sorted(
            (round(cl.fitted_line.d, 9), round(wrap_angle(cl.fitted_line.theta + phi), 9))
            for cl in base
        )
        turned_lines = sorted(
            (round(cl.fitted_line.d, 9), round(cl.fitted_line.theta, 9))
            for cl in turned
        )
        for (bd, bt), (td, tt) in zip(base_lines, turned_lines):
            assert bd == pytest.approx(td, abs=1e-9)
            diff = abs(bt - tt) % (2 * np.pi)
            assert min(diff, 2 * np.pi - diff) < 1e-9


class TestLineFitting:
    def test_two_point_cluster_exact(self):
        scan = Scan.from_xy(
            np.array([0.0, 1.0]), np.array([1.0, 2.0]), np.ones(2, bool), False
        )
        cluster = FeatureCluster(1, np.array([0, 1]), mean_theta=np.pi / 4)
        fit_cluster_lines(scan, [cluster])
        assert cluster.fitted_line.d == pytest.approx(np.sqrt(2) / 2, rel=1e-12)
        assert cluster.fitted_line.theta == pytest.approx(3 * np.pi / 4, rel=1e-12)

    def test_degenerate_cluster_keeps_error(self):
        scan = Scan(
            np.array([0.1, 0.1, 0.1]), np.array([2.0, 2.0, 2.0]), np.ones(3, bool), False
        )
        cluster = FeatureCluster(1, np.array([0, 1, 2]), mean_theta=0.0)
        fit_cluster_lines(scan, [cluster])
        assert cluster.fitted_line is None
        assert cluster.fit_error is not None

    def test_single_point_cluster_keeps_error(self):
        scan = Scan(np.array([0.0]), np.array([1.0]), np.ones(1, bool), False)
        cluster = FeatureCluster(1, np.array([0]), mean_theta=0.0)
        fit_cluster_lines(scan, [cluster])
        assert cluster.fitted_line is None
        assert "point" in cluster.fit_error
