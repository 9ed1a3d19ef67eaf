"""Two-stage scan segmentation: angle clustering then distance splitting."""

import collections
import dis
import hashlib
import math
import os
import sys
import tracemalloc
import unittest.mock
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scanseg import (
    BorderPolicy,
    CircularDomain,
    DbscanParams,
    DegenerateFitError,
    FeatureCluster,
    InsufficientDataError,
    NoiseModel,
    OpCounters,
    OrientationUndefinedError,
    RoomModel,
    Scan,
    SegmentationParams,
    UndefinedMeanError,
    angular_segmentation,
    dbscan_1d,
    dbscan_1d_circular,
    estimate_local_angles,
    fit_cluster_lines,
    generate_scan,
    signed_distance_to_origin_line,
    wrap_angle,
)
import scanseg
from scanseg import segmentation
from scanseg.segmentation import _order
from geometry_reference import reference_circular_mean, reference_tls_fit
import fit_sweep

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

    @pytest.mark.parametrize(
        "x, y",
        [
            (np.full(40, 1.6e308), np.arange(40.0)),  # window sums overflow
            (1e200 * np.arange(40.0), 1e200 * np.arange(40.0)),  # spreads overflow
        ],
        ids=["huge-coordinates", "huge-spacing"],
    )
    def test_overflowing_windows_rejected(self, x, y):
        scan = Scan.from_xy(x, y)
        with pytest.raises(ValueError, match="overflow float64"):
            angular_segmentation(scan, SegmentationParams(0.1, 0.2, 4))

    def test_overflowing_fit_raises(self):
        # a straight wall 4e154 long: its local angles are fine, its
        # squared spread is not, and no warning may leak
        scan = Scan.from_xy((np.arange(40.0) - 20.0) * 1e153, np.full(40, 1e153))
        clusters = angular_segmentation(scan, SegmentationParams(0.1, 1e154, 4))
        assert [c.size for c in clusters] == [40]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^line fit overflows float64"):
                fit_cluster_lines(scan, clusters)

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
        with pytest.raises(ValueError, match=r"^epsilon_theta must be a number, got '0\.1'$"):
            SegmentationParams("0.1", 0.2, 3)
        with pytest.raises(ValueError, match=r"^epsilon_dist must be a number, got '0\.2'$"):
            SegmentationParams(0.1, "0.2", 3)
        SegmentationParams(np.float64(0.1), np.array(0.2), 3)

    def test_infinite_epsilon_dist_is_named(self):
        with pytest.raises(ValueError, match=r"^epsilon_dist must be > 0, got inf$"):
            SegmentationParams(0.1, math.inf, 3)

    def test_border_policy_validation(self):
        with pytest.raises(ValueError, match=r"^border_policy must be a BorderPolicy, got 'all'$"):
            SegmentationParams(0.1, 0.2, 4, "all")


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


# -- the whole-scan cluster tail -------------------------------------------
#
# angular_segmentation takes every circular mean, and fit_cluster_lines
# every line, from sums over one array of all members (per block of
# clusters for the fits).  circular_mean and tls_fit run the same sum
# kernels on one cluster, so each mean and line is held to the bits of
# their earlier forms (geometry_reference.py).  Each mean and fit is
# decided once, from the sums; a failure shows only in the returned
# cluster (mean_theta_fallback, fit_error).


@st.composite
def fit_partitions(draw):
    """(scan, clusters): clusters of 1-300 points of every fit_sweep kind
    at every offset and scale, their points at random beams."""
    spec = st.tuples(
        st.sampled_from(fit_sweep.FIT_KINDS),
        st.integers(1, 300),
        st.sampled_from(fit_sweep.OFFSETS),
        st.sampled_from(fit_sweep.SCALES),
    )
    specs = draw(st.lists(spec, min_size=1, max_size=12))
    rng = np.random.Generator(np.random.Philox(draw(st.integers(0, 2**32 - 1))))
    return fit_sweep.partition_scan(rng, specs)


@st.composite
def direction_runs(draw):
    """(theta, ends): runs of 1-300 directions of every fit_sweep kind."""
    run = st.tuples(st.sampled_from(fit_sweep.MEAN_KINDS), st.integers(1, 300))
    runs = draw(st.lists(run, min_size=1, max_size=12))
    rng = np.random.Generator(np.random.Philox(draw(st.integers(0, 2**32 - 1))))
    theta = np.concatenate([fit_sweep.direction_run(rng, kind, n) for kind, n in runs])
    return theta, [0, *np.cumsum([n for _, n in runs]).tolist()]


class TestWholeScanTail:
    # blocks of one member put each cluster in a block of its own
    @pytest.mark.parametrize("block", [1, 64, segmentation._FIT_BLOCK])
    @settings(max_examples=60)
    @given(case=fit_partitions())
    def test_fits_match_tls_fit(self, block, case):
        with unittest.mock.patch.object(segmentation, "_FIT_BLOCK", block):
            assert fit_sweep.fit_mismatch(*case) is None

    def test_empty_cluster_keeps_tls_fit_error(self):
        scan = Scan.from_xy(np.array([1.0, 2.0, 3.0]), np.array([0.5, 0.5, 0.5]))
        members = ([0, 1, 2], [], [2])
        clusters = [FeatureCluster(k, np.array(i, np.int64), 0.0) for k, i in enumerate(members)]
        fit_cluster_lines(scan, clusters)
        assert clusters[0].fitted_line is not None
        assert [c.fit_error for c in clusters[1:]] == ["line fit needs at least 2 points"] * 2

    @settings(max_examples=200)
    @given(direction_runs())
    def test_means_match_circular_mean(self, case):
        assert fit_sweep.mean_mismatch(*case) is None

    def test_median_fallback(self):
        # 0 and pi / 2 are opposite on the full circle (scale 2)
        theta = np.array([0.3, 0.0, 0.5 * math.pi, 1.0, 1.0])
        means = segmentation._cluster_means(theta, [0, 1, 3, 5])
        assert means == [(0.3, False), (0.5 * math.pi, True), (1.0, False)]

    def test_failure_outcomes(self):
        """Each failed mean falls back to the median member, and each
        failed fit keeps tls_fit's error text."""
        theta = np.array([0.0, 0.5 * math.pi, 1.0, 1.0, 0.2, 0.2 + 0.5 * math.pi])
        means = segmentation._cluster_means(theta, [0, 2, 4, 6])
        assert [f for _, f in means] == [True, False, True]
        # coincident, fitted, square corners (isotropic), one point
        scan = Scan.from_xy(
            np.array([1.0, 1.0, 2.0, 3.0, 1.0, -1.0, -1.0, 1.0]),
            np.array([1.0, 1.0, 0.0, 1.0, 1.0, 1.0, -1.0, -1.0]),
        )
        members = ([0, 1], [1, 2, 3], [4, 5, 6, 7], [3])
        clusters = [FeatureCluster(k, np.array(idx), 0.0) for k, idx in enumerate(members)]
        fit_cluster_lines(scan, clusters)
        assert [c.fit_error for c in clusters] == [
            "all points coincide",
            None,
            "point scatter is isotropic",
            "line fit needs at least 2 points",
        ]

    def test_mean_count_is_the_cluster_size(self):
        """The second cluster's resultant lies between RESULTANT_TOL * n and
        RESULTANT_TOL * (n + 2a), so its mean is defined only for the
        count b - a."""
        theta = np.array([1.0] * 10 + [0.3, 0.3 + 0.5 * math.pi + 5e-9])
        means = segmentation._cluster_means(theta, [0, 10, 12])
        assert means[1] == (2.6561944960181862, False)

    def test_numpy_row_reduction_is_per_row_pairwise_sum(self):
        """The bits of every whole-scan mean and fit rest on two NumPy
        identities, pinned here so that a NumPy that breaks them fails by
        name: np.add.reduce over axis 1 of a C-contiguous (k, m) slice sums
        each row as np.add.reduce sums it alone, contiguous or strided (the
        columns of tls_fit's (n, 2) points); and np.cos and np.sin of a
        slice give the bits of the same slice of the whole result.
        (np.add.reduceat would not do: it sums each segment in sequence,
        not pairwise.)"""
        rng = np.random.Generator(np.random.Philox(43))
        for n in (1, 2, 7, 8, 9, 127, 128, 129, 1000, 8191, 8192, 8193, 30000):
            w = rng.normal(size=(3, n + 10)) * 10.0 ** rng.integers(-5, 6, (3, 1))
            for a in (0, 3):
                rows = np.add.reduce(w[:, a : a + n], axis=1)
                pts = np.ascontiguousarray(w[:2, a : a + n].T)
                for r in range(3):
                    assert rows[r] == np.add.reduce(w[r, a : a + n].copy())
                for r in range(2):
                    assert rows[r] == np.add.reduce(pts[:, r])
            t = rng.uniform(0.0, 2.0 * math.pi, n + 10)
            for f in (np.cos, np.sin):
                assert f(t)[3 : 3 + n].tobytes() == f(t[3 : 3 + n]).tobytes()

    def test_fit_sweep_sample(self):
        """A sample of the large sweep CI runs (tests/fit_sweep.py)."""
        seen, bad = fit_sweep.sweep(300, seed=19)
        assert bad is None
        # the sample reaches every fit outcome, the overflow and the mean
        # fallback
        assert len(seen) == 7


def test_large_scan_peak_memory():
    """On the 1e5-beam scan of the first seed-1 cli-roundtrip operation,
    the tracemalloc peaks stay at most those of per-cluster fits and stage
    sorts with a tie pass: 7.16 MB for angular_segmentation (now 7.06,
    in stage 2's clustering) and 1.16 MB for fit_cluster_lines (now 0.92,
    a cluster above _FIT_BLOCK members gathered alone)."""
    noise = NoiseModel(1e-6, 0.02, 1_000_003)
    scan, _ = generate_scan(RoomModel(GOLDEN_ROOMS[1]), 100_000, noise)
    params = SegmentationParams(0.1, 0.05, 16)
    clusters = angular_segmentation(scan, params)
    assert max(c.size for c in clusters) > segmentation._FIT_BLOCK
    for fn, bound in (
        (lambda: angular_segmentation(scan, params), 7_160_000),
        (lambda: fit_cluster_lines(scan, clusters), 1_160_000),
    ):
        tracemalloc.start()
        try:
            fn()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound


# -- the per-cluster stage 2 as reference ---------------------------------
#
# angular_segmentation used to run stage 2 as one clustering call per
# angular cluster.  That loop is kept here, with dbscan_1d in place of the
# per-call entry point it used, as the reference for the one-pass stage 2.
# It finds members with one boolean scan per cluster and takes circular
# means in their earlier form, so it also pins the one-sort membership
# and the faster circular_mean.


def _member_positions(labels, cluster, n, all_policy):
    if all_policy:
        return np.unique(cluster.indices(n))
    return np.flatnonzero(labels == cluster.id)


def reference_angular_segmentation(scan, params, *, counters=None):
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

    order = np.argsort(theta[orig], kind="stable")
    perm = orig[order]
    theta_sorted = np.ascontiguousarray(theta[perm])
    stage1 = DbscanParams(params.epsilon_theta, params.min_points, params.border_policy)
    labels1, angular_clusters = dbscan_1d_circular(
        theta_sorted, stage1, CircularDomain(math.pi), counters=counters
    )

    stage2 = DbscanParams(params.epsilon_dist, params.min_points, params.border_policy)
    all_policy = params.border_policy is BorderPolicy.ALL_CLUSTERS
    out = []
    for ac in angular_clusters:
        pos = _member_positions(labels1, ac, m, all_policy)
        try:
            mean_theta = reference_circular_mean(theta_sorted[pos], math.pi)
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
        sub_labels, subclusters = dbscan_1d(dist_sorted, stage2, counters=counters)
        for sc in subclusters:
            spos = _member_positions(sub_labels, sc, dist_sorted.size, all_policy)
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


def exact_scan(x, y, valid, full_circle=False):
    """A scan whose cartesian returns are exactly x and y (from_xy would
    round them through polar form)."""
    scan = Scan.from_xy(x, y, valid, full_circle=full_circle)
    object.__setattr__(scan, "x", np.asarray(x, dtype=np.float64))
    object.__setattr__(scan, "y", np.asarray(y, dtype=np.float64))
    return scan


# distance radius of the segment scans: a power of two, so lattice offsets
# one step apart are exactly epsilon_dist apart
SEGMENT_EPS = 0.125


@st.composite
def segment_scans(draw):
    """Runs of beams along short segments, one dropped beam between runs.

    Horizontal runs have direction exactly 0 and vertical ones exactly
    pi / 2, and their coordinates are binary fractions small enough that
    the stage-2 distances come out as the lattice offsets themselves:
    duplicates, gaps of exactly SEGMENT_EPS, and equal values at the end of
    the horizontal group and the start of the vertical one.  Runs at other
    directions ("fan") and three-point runs make angular clusters that
    border stealing can leave below min_points.
    """
    step = draw(st.sampled_from([SEGMENT_EPS / 2, SEGMENT_EPS, 2 * SEGMENT_EPS]))
    runs = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["h", "v", "fan"]), st.integers(0, 7), st.integers(3, 7)
            ),
            min_size=1,
            max_size=8,
        )
    )
    xs, ys, valid = [], [], []
    for kind, k, size in runs:
        offset = 1.0 + step * k
        start = draw(st.integers(-12, 4)) / 16.0
        along = start + np.arange(size) / 16.0
        if kind == "h":
            x, y = along, np.full(size, offset)
        elif kind == "v":
            x, y = np.full(size, -offset), along
        else:
            a = 0.3 + 0.05 * draw(st.integers(0, 4))
            x = offset * math.cos(a) + along * math.sin(a)
            y = offset * math.sin(a) - along * math.cos(a)
        xs += [*x, 0.0]
        ys += [*y, 0.0]
        valid += [True] * size + [False]
    return exact_scan(xs, ys, valid)


@st.composite
def room_scans(draw):
    """Noisy square-room scans, partly dropped, with random parameters."""
    heading = draw(st.floats(0.0, 2 * math.pi, exclude_max=True))
    room = RoomModel(
        np.array([[-2.0, -2.0], [2.0, -2.0], [2.0, 2.0], [-2.0, 2.0]]), (0.1, -0.2, heading)
    )
    noise = NoiseModel(draw(st.sampled_from([0.0, 0.01, 0.05])), 0.05, draw(st.integers(0, 2**32)))
    return generate_scan(room, draw(st.sampled_from([36, 120, 360])), noise)[0]


def assert_same_as_reference(scan, params):
    counters = OpCounters()
    want_counters = OpCounters()
    try:
        want = reference_angular_segmentation(scan, params, counters=want_counters)
    except InsufficientDataError:
        with pytest.raises(InsufficientDataError):
            angular_segmentation(scan, params, counters=counters)
        return
    got = angular_segmentation(scan, params, counters=counters)
    assert [(c.id, c.point_indices.tolist(), c.mean_theta, c.mean_theta_fallback) for c in got] == [
        (c.id, c.point_indices.tolist(), c.mean_theta, c.mean_theta_fallback) for c in want
    ]
    assert counters == want_counters
    fit_cluster_lines(scan, got)
    assert [fitted(c) for c in got] == [reference_fit(scan, c) for c in want]


def fitted(cluster):
    """The bits of a cluster's fitted line, or its fit error."""
    if cluster.fitted_line is None:
        return cluster.fit_error
    return cluster.fitted_line.d.hex(), cluster.fitted_line.theta.hex()


def reference_fit(scan, cluster):
    """fitted() as fit_cluster_lines gives it, with the earlier centroid form."""
    pts = np.column_stack((scan.x[cluster.point_indices], scan.y[cluster.point_indices]))
    try:
        line = reference_tls_fit(pts)
    except (DegenerateFitError, OrientationUndefinedError, InsufficientDataError) as e:
        return str(e)
    return line.d.hex(), line.theta.hex()


class TestStage2MatchesReference:
    @settings(max_examples=200)
    @given(
        segment_scans(),
        st.sampled_from(list(BorderPolicy)),
        st.sampled_from([0.04, 0.1, 0.3]),
        st.sampled_from([1, 2, 3, 4, 6, 9]),
    )
    def test_segment_scans(self, scan, policy, eps_theta, min_points):
        params = SegmentationParams(eps_theta, SEGMENT_EPS, min_points, policy)
        assert_same_as_reference(scan, params)

    @settings(max_examples=60)
    @given(
        room_scans(),
        st.sampled_from(list(BorderPolicy)),
        st.sampled_from([0.05, 0.1, 0.3]),
        st.sampled_from([0.02, 0.2, 1.0]),
        st.sampled_from([2, 4, 16]),
    )
    def test_room_scans(self, scan, policy, eps_theta, eps_dist, min_points):
        assert_same_as_reference(scan, SegmentationParams(eps_theta, eps_dist, min_points, policy))

    @pytest.mark.parametrize("policy", list(BorderPolicy))
    def test_named_cases(self, policy):
        """Each case the one-pass stage 2 must get right, built explicitly,
        with a check that its distances really show the case."""
        def runs(*specs):
            xs, ys, valid = [], [], []
            for kind, offset, along in specs:
                along = np.asarray(along, dtype=np.float64)
                if kind == "h":
                    x, y = along, np.full(along.size, offset)
                else:
                    x, y = np.full(along.size, -offset), along
                xs += [*x, 0.0]
                ys += [*y, 0.0]
                valid += [True] * along.size + [False]
            return exact_scan(xs, ys, valid)

        line = np.arange(4) / 16.0
        # duplicate offsets and gaps of exactly epsilon_dist in one group;
        # the horizontal group ends on the value the vertical group starts on
        boundary = runs(
            ("h", 1.0, line), ("h", 1.0, line + 0.5), ("h", 1.125, line), ("h", 1.25, line),
            ("v", 1.25, line), ("v", 1.375, line), ("v", 1.625, line),
        )
        # a single angular cluster on a lattice of offsets
        single = runs(*(("h", 1.0 + 0.125 * k, line) for k in (0, 1, 1, 2, 4, 5)))
        for scan, min_points in ((boundary, 4), (boundary, 8), (single, 4), (single, 9)):
            assert_same_as_reference(scan, SegmentationParams(0.1, SEGMENT_EPS, min_points, policy))
        h, v = boundary.valid.copy(), boundary.valid.copy()
        h[boundary.x < 0] = v[boundary.x >= 0] = False
        horizontal = np.sort(signed_distance_to_origin_line(boundary.x[h], boundary.y[h], 0.5 * math.pi))
        vertical = np.sort(signed_distance_to_origin_line(boundary.x[v], boundary.y[v], math.pi))
        assert horizontal[-1] == vertical[0] == 1.25
        assert set(np.diff(horizontal)) == {0.0, SEGMENT_EPS}
        theta = estimate_local_angles(single.x, single.y, single.valid)
        _, stage1 = dbscan_1d_circular(
            np.sort(theta[single.valid]), DbscanParams(0.1, 4, policy), CircularDomain(math.pi)
        )
        assert len(stage1) == 1

    @pytest.mark.parametrize("full_circle", [True, False])
    @pytest.mark.parametrize("step", [1e-3, 1e-2])
    @pytest.mark.parametrize("policy", list(BorderPolicy))
    def test_rounded_scans(self, monkeypatch, policy, step, full_circle):
        """Square-room scans as a sensor that reports whole millimetres or
        centimetres gives them, so that keys tie.  Rounding the ranges of
        noisy scans ties only local angles (a run end shares its
        neighbour's); rounding the coordinates of noise-free scans in the
        axis-aligned room puts each wall's points on one grid line, and so
        ties stage-2 distances too."""
        ties = {"angle": 0, "distance": 0}

        def counting_order(key, group=None):
            order = _order(key, group)
            tied = tied_neighbours(order, key, group)
            ties["angle" if group is None else "distance"] += int(tied.sum())
            return order

        monkeypatch.setattr(segmentation, "_order", counting_order)
        params = SegmentationParams(0.1, 0.2, 16, policy)
        for scan in rounded_scans(step, full_circle):
            assert_same_as_reference(scan, params)
        assert ties["angle"] > 0 and ties["distance"] > 0

    def test_group_below_min_points(self):
        """Under AS_NOISE an angular cluster can hold fewer than min_points
        points: three runs at directions 0.05 apart, where only the middle
        run's points are cores."""
        xs, ys, valid = [], [], []
        for a in (0.3, 0.35, 0.4):
            t = np.arange(3) / 16.0
            xs += [*(1.5 * math.cos(a) + t * math.sin(a)), 0.0]
            ys += [*(1.5 * math.sin(a) - t * math.cos(a)), 0.0]
            valid += [True] * 3 + [False]
        scan = exact_scan(xs, ys, valid)
        for policy in BorderPolicy:
            params = SegmentationParams(0.06, SEGMENT_EPS, 7, policy)
            assert_same_as_reference(scan, params)
        theta = estimate_local_angles(scan.x, scan.y, scan.valid)
        _, stage1 = dbscan_1d_circular(
            np.sort(theta[scan.valid]),
            DbscanParams(0.06, 7, BorderPolicy.AS_NOISE),
            CircularDomain(math.pi),
        )
        assert [c.size for c in stage1] == [3]


# the acceptance square, and a non-convex room with an alcove, no two
# walls on one line
GOLDEN_ROOMS = (
    np.array([[-2.0, -2.0], [2.0, -2.0], [2.0, 2.0], [-2.0, 2.0]]),
    np.array([[-4.0, -3.0], [4.0, -3.0], [4.0, 3.0], [1.0, 3.0],
              [1.0, 5.0], [-1.0, 5.0], [-1.0, 2.5], [-4.0, 2.5]]),
)
# sha256 of golden_segmentation_text: a change to it is a change of what
# angular_segmentation and fit_cluster_lines compute
GOLDEN_SEGMENTATION = "359406f3b1a6f3ad15ba6d33c5259c9d13247cb44e721a5651e5e7dd3612c270"


def golden_segmentation_text():
    """Clusters and lines of 61 scans under every policy, as text.

    60 seeded scans alternate between the two rooms, with noise, dropout
    and three parameter sets.  The last scan sees a 36-gon from its
    center, whose directions cover the half-circle evenly, so mean
    directions fall back to the median member.  Ids, indices and fallback
    flags are written exactly; mean_theta and the fitted d and theta pass
    through numpy's trig functions, whose last bit depends on the SIMD
    target, so they are written at ten significant digits.
    """
    rng = np.random.Generator(np.random.Philox(13))
    param_sets = [(0.1, 0.2, 16), (0.05, 0.05, 3), (0.3, 0.1, 8)]
    cases = []
    for k in range(60):
        sensor = (*rng.uniform(-0.5, 0.5, 2), rng.uniform(0.0, 2.0 * math.pi))
        noise = NoiseModel(0.01, rng.choice([0.0, 0.05, 0.3]), int(rng.integers(2**63)))
        scan, _ = generate_scan(RoomModel(GOLDEN_ROOMS[k % 2], sensor), 360, noise)
        cases.append((scan, param_sets[k // 2 % 3]))
    t = np.arange(36) * (2.0 * math.pi / 36)
    polygon, _ = generate_scan(RoomModel(3.0 * np.column_stack((np.cos(t), np.sin(t)))), 360)
    cases.append((polygon, param_sets[2]))
    rows = []
    for k, (scan, (eps_theta, eps_dist, min_points)) in enumerate(cases):
        for policy in BorderPolicy:
            params = SegmentationParams(eps_theta, eps_dist, min_points, policy)
            rows.append(f"scan {k} {policy.value}")
            for c in fit_cluster_lines(scan, angular_segmentation(scan, params)):
                line = c.fitted_line
                fit = f"{line.d:.9e} {line.theta:.9e}" if line else c.fit_error
                rows.append(
                    f"{c.id} {c.point_indices.tolist()} {c.mean_theta:.9e} "
                    f"{c.mean_theta_fallback} {fit}"
                )
    return "\n".join(rows)


def test_golden_segmentation():
    text = golden_segmentation_text()
    assert " True " in text
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_SEGMENTATION


def rounded_scans(step, full_circle):
    """Square-room scans with ranges (noisy scans) or coordinates
    (noise-free ones) rounded to a grid of step, as in test_rounded_scans."""
    rng = np.random.Generator(np.random.Philox(31))
    for k in range(4):
        # a sensor on the centimetre grid keeps the walls on grid lines
        sensor = (*(rng.integers(-50, 51, 2) / 100.0), rng.uniform(0.0, 2.0 * math.pi))
        room = RoomModel(GOLDEN_ROOMS[0], sensor)
        noisy, _ = generate_scan(room, 360, NoiseModel(0.01, 0.05, k))
        ranges = np.round(noisy.ranges / step) * step
        yield Scan(noisy.beam_angles, ranges, noisy.valid, full_circle)
        clean, _ = generate_scan(room, 360, NoiseModel(0.0, 0.05, k))
        x, y = (np.round(c / step) * step for c in (clean.x, clean.y))
        yield exact_scan(x, y, clean.valid, full_circle)


def tied_neighbours(order, key, group=None):
    """tied[i]: entries i and i + 1 of the order have equal (group, key)."""
    k = key[order]
    tied = k[1:] == k[:-1]
    if group is not None:
        tied &= group[order][1:] == group[order][:-1]
    return tied


# -- the stage orders ------------------------------------------------------
#
# Both stages take NumPy's default argsort of their key (a SIMD quicksort
# where the CPU has one), which leaves equal keys in no set order.  No
# result may depend on that order: every cluster range is a union of whole
# runs of equal keys, each cluster sum sees the same values, and the final
# sort of unique (subcluster, index) keys restores the member order.  The
# one tie a value cannot tell apart is a signed zero: theta is never -0.0,
# and a -0.0 distance passes every bound check as 0.0 does.


def tie_reordered(how, rng, seen):
    """segmentation._order with the entries of each tied run reversed or
    shuffled; seen counts the tied runs and stage-2 runs of -0.0 and 0.0."""

    def order_fn(key, group=None):
        order = _order(key, group)
        starts = np.flatnonzero(~np.concatenate(([False], tied_neighbours(order, key, group))))
        for a, b in zip(starts, [*starts[1:], order.size]):
            if b - a > 1:
                run = order[a:b]
                order[a:b] = run[::-1] if how == "reverse" else rng.permutation(run)
                seen["ties"] += 1
                signs = np.signbit(key[run])
                if group is not None and key[run[0]] == 0.0 and signs.any() and not signs.all():
                    seen["signed zeros"] += 1
        return order

    return order_fn


def segmentation_result(scan, params):
    """ids, members, mean bits, fallbacks and fit bits or errors."""
    clusters = fit_cluster_lines(scan, angular_segmentation(scan, params))
    return [
        (c.id, c.point_indices.tolist(), c.mean_theta.hex(), c.mean_theta_fallback, fitted(c))
        for c in clusters
    ]


def signed_zero_scan():
    """A vertical run through the sensor beside a parallel one: the run's
    two points at the origin, (0.0, -0.0) and (0.0, 0.0), have stage-2
    distances -0.0 and 0.0 in one group.  The normal is pi, so a distance
    is x * cos(pi) + y * sin(pi); at x = 0.0 the first product is -0.0,
    and the sum is the zero y * sin(pi), of the sign of y."""
    along = np.arange(1, 6) / 16.0
    y = np.concatenate((-along[::-1], [-0.0, 0.0], along))
    run = np.zeros(y.size)
    return exact_scan(
        np.concatenate((run, [0.0], run + 1.0)),
        np.concatenate((y, [0.0], y)),
        np.concatenate((np.ones(y.size, bool), [False], np.ones(y.size, bool))),
    )


class TestTieOrder:
    @pytest.mark.parametrize("full_circle", [True, False])
    @pytest.mark.parametrize("policy", list(BorderPolicy))
    def test_rounded_scans_do_not_hang_on_tie_order(self, monkeypatch, policy, full_circle):
        params = SegmentationParams(0.1, 0.2, 16, policy)
        scans = [scan for step in (1e-3, 1e-2) for scan in rounded_scans(step, full_circle)]
        want = [segmentation_result(scan, params) for scan in scans]
        seen = collections.Counter()
        rng = np.random.Generator(np.random.Philox(37))
        for how in ("reverse", "shuffle"):
            monkeypatch.setattr(segmentation, "_order", tie_reordered(how, rng, seen))
            assert [segmentation_result(scan, params) for scan in scans] == want
        assert seen["ties"] > 0

    @pytest.mark.parametrize("policy", list(BorderPolicy))
    def test_signed_zero_distances(self, monkeypatch, policy):
        scan = signed_zero_scan()
        params = SegmentationParams(0.1, 0.2, 4, policy)
        want = segmentation_result(scan, params)
        assert any(row[1][:12] == list(range(12)) for row in want)
        seen = collections.Counter()
        rng = np.random.Generator(np.random.Philox(41))
        for how in ("reverse", "shuffle"):
            monkeypatch.setattr(segmentation, "_order", tie_reordered(how, rng, seen))
            assert segmentation_result(scan, params) == want
        assert seen["signed zeros"] == 2


# -- per-call cost ---------------------------------------------------------
#
# A 360-beam operation costs about as much per call as per value, so its
# calls out of the package are pinned here, the way the tracemalloc bounds
# pin memory: a change may lower the bound, never raise it.  The count
# reads the package's own bytecode: each call instruction that one of its
# frames runs counts, unless it enters a Python function of the package.
# What the callee does counts no further, so NumPy's internals do not move
# the number.  (sys.setprofile events would: NumPy's array-function
# dispatch raises two "call" events for np.argsort, and a ufunc none.)

_PACKAGE = os.path.dirname(scanseg.__file__) + os.sep
_CALL_OPS = {
    dis.opmap[name]
    for name in ("CALL", "CALL_FUNCTION", "CALL_FUNCTION_KW", "CALL_FUNCTION_EX", "CALL_METHOD")
    if name in dis.opmap
}
# calls out of the package by 20 seed-1 scans-360 operations
SCANS_360_OUTSIDE_CALLS = 4505


def outside_calls(fn) -> int:
    """Call instructions that package frames run while fn runs, less
    those that enter a Python function of the package."""
    calls = 0
    caller = None  # the package frame whose call instruction just ran

    def local(frame, event, arg):
        nonlocal calls, caller
        if event == "opcode":
            caller = None
            if frame.f_code.co_code[frame.f_lasti] in _CALL_OPS:
                calls += 1
                caller = frame
        return local

    def start(frame, event, arg):
        nonlocal calls, caller
        inside = frame.f_code.co_filename.startswith(_PACKAGE)
        if inside and frame.f_back is caller:
            calls -= 1
        caller = None
        if inside:
            frame.f_trace_opcodes = True
            return local
        return None

    previous = sys.gettrace()
    sys.settrace(start)
    try:
        fn()
    finally:
        sys.settrace(previous)
    return calls


def scans_360(seed, count):
    """The first scans of the scans-360 benchmark workload for a seed."""
    rng = np.random.Generator(np.random.Philox(key=[seed, 2]))
    scans = []
    for _ in range(count):
        phi = rng.uniform(0.0, 0.5 * math.pi)
        c, s = math.cos(phi), math.sin(phi)
        verts = GOLDEN_ROOMS[0] @ np.array([[c, s], [-s, c]])
        px, py = rng.uniform(-0.5, 0.5, 2)
        heading = rng.uniform(0.0, 2.0 * math.pi)
        noise = NoiseModel(0.01, 0.05, int(rng.integers(2**63)))
        scans.append(generate_scan(RoomModel(verts, (px, py, heading)), 360, noise)[0])
    return scans


def test_scans_360_outside_calls():
    scans = scans_360(1, 20)

    def run():
        for scan in scans:
            fit_cluster_lines(scan, angular_segmentation(scan, PARAMS))

    run()
    calls = outside_calls(run)
    assert calls == outside_calls(run)
    assert calls <= SCANS_360_OUTSIDE_CALLS
