"""Two-stage scan segmentation: angle clustering then distance splitting."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scanseg import (
    BorderPolicy,
    CircularDomain,
    DbscanParams,
    FeatureCluster,
    InsufficientDataError,
    NoiseModel,
    OpCounters,
    RoomModel,
    Scan,
    SegmentationParams,
    UndefinedMeanError,
    angular_segmentation,
    circular_mean,
    dbscan_1d,
    dbscan_1d_circular,
    estimate_local_angles,
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


# -- the per-cluster stage 2 as reference ---------------------------------
#
# angular_segmentation used to run stage 2 as one clustering call per
# angular cluster.  That loop is kept here, with dbscan_1d in place of the
# per-call entry point it used, as the reference for the one-pass stage 2.


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


def exact_scan(x, y, valid):
    """A scan whose cartesian returns are exactly x and y (from_xy would
    round them through polar form)."""
    scan = Scan.from_xy(x, y, valid, full_circle=False)
    scan.x = np.asarray(x, dtype=np.float64)
    scan.y = np.asarray(y, dtype=np.float64)
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
