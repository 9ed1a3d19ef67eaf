"""Line fitting, polar normal form, circular means, local angle estimation."""

import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import scanseg
from scanseg import (
    DegenerateFitError,
    InsufficientDataError,
    NoiseModel,
    OrientationUndefinedError,
    PolarLine,
    RoomModel,
    UndefinedMeanError,
    canonical_polar,
    circular_mean,
    estimate_local_angles,
    generate_scan,
    signed_distance_to_origin_line,
    tls_fit,
    wrap_angle,
)
from scanseg.geometry import _ANGLE_BLOCK, _principal_directions
from scanseg.oracle import eigen_tls
from geometry_reference import outcome, reference_circular_mean, reference_tls_fit

TWO_PI = 2.0 * np.pi

# the cli-roundtrip benchmark room: a rectangle with an alcove
ROOM8 = np.array(
    [[-4.0, -3.0], [4.0, -3.0], [4.0, 3.0], [1.0, 3.0],
     [1.0, 5.0], [-1.0, 5.0], [-1.0, 2.5], [-4.0, 2.5]]
)


# seeded noisy lines of 12.5k to 100k points, each fit printed by repr
BLAS_FITS = """
import numpy as np
from scanseg import tls_fit
rng = np.random.default_rng(12)
for n in (12_500, 20_000, 50_000, 100_000):
    for _ in range(4):
        t = rng.uniform(-5.0, 5.0, n)
        line = tls_fit(np.column_stack((t, 0.3 * t + 1.0 + rng.normal(0.0, 0.05, n))))
        print(repr(line.d), repr(line.theta))
"""


def _cpu_flags() -> set[str]:
    """The CPU's feature flags, or none where /proc/cpuinfo is missing."""
    try:
        with open("/proc/cpuinfo") as f:
            return {word for line in f if line.startswith("flags") for word in line.split()}
    except OSError:
        return set()


def angular_distance(a, b, period=TWO_PI):
    d = np.abs(np.asarray(a) - np.asarray(b)) % period
    return np.minimum(d, period - d)


def residual_ss(points, d, theta):
    return float(np.sum((points[:, 0] * np.cos(theta) + points[:, 1] * np.sin(theta) - d) ** 2))


class TestPolarForm:
    def test_negative_distance_flips_normal(self):
        line = canonical_polar(-2.0, 0.0)
        assert line.d == 2.0
        assert line.theta == pytest.approx(np.pi)

    def test_through_origin_uses_half_range(self):
        line = canonical_polar(0.0, 1.5 * np.pi)
        assert line.d == 0.0
        assert 0.0 <= line.theta < np.pi

    def test_polar_line_validation(self):
        with pytest.raises(ValueError):
            PolarLine(-1.0, 0.0)
        with pytest.raises(ValueError):
            PolarLine(1.0, TWO_PI + 0.1)
        for d, theta in ((np.nan, 0.0), (1.0, np.inf)):
            with pytest.raises(ValueError, match="d and theta must be finite"):
                PolarLine(d, theta)

    def test_direction_is_normal_rotated(self):
        line = PolarLine(2.0, 0.0)
        assert line.direction == pytest.approx(np.pi / 2)


class TestTlsFit:
    def test_horizontal_exact(self):
        pts = np.array([[0.0, 2.0], [1.0, 2.0], [2.0, 2.0], [3.0, 2.0]])
        line = tls_fit(pts)
        assert line.d == 2.0
        assert line.theta == pytest.approx(np.pi / 2, abs=0)

    def test_vertical_exact(self):
        pts = np.array([[3.0, 0.0], [3.0, 1.0], [3.0, 5.0]])
        line = tls_fit(pts)
        assert line.d == 3.0
        assert line.theta == 0.0

    def test_two_points_exact(self):
        line = tls_fit(np.array([[0.0, 1.0], [1.0, 2.0]]))
        assert line.d == pytest.approx(np.sqrt(2) / 2, rel=1e-15)
        assert line.theta == pytest.approx(3 * np.pi / 4, rel=1e-15)

    def test_agrees_with_eigen_solver(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            n = int(rng.integers(2, 60))
            t = rng.random(n) * 10
            slope, icept = rng.normal(0, 2), rng.normal(0, 3)
            pts = np.column_stack([t, slope * t + icept])
            pts += rng.normal(0, 0.05, pts.shape)
            try:
                mine = tls_fit(pts)
            except (DegenerateFitError, OrientationUndefinedError):
                continue
            ref = eigen_tls(pts)
            assert abs(mine.d - ref.d) < 1e-9
            assert angular_distance(mine.theta, ref.theta) < 1e-9

    def test_insufficient_points(self):
        with pytest.raises(InsufficientDataError):
            tls_fit(np.array([[1.0, 1.0]]))
        with pytest.raises(InsufficientDataError):
            tls_fit(np.empty((0, 2)))

    def test_coincident_points_degenerate(self):
        with pytest.raises(DegenerateFitError):
            tls_fit(np.array([[1.0, 1.0], [1.0, 1.0], [1.0, 1.0]]))

    def test_isotropic_scatter_has_no_orientation(self):
        square = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
        with pytest.raises(OrientationUndefinedError):
            tls_fit(square)

    @pytest.mark.parametrize(
        "pts",
        [
            [[1e200, 0.0], [-1e200, 1.0]],  # squared spread overflows
            [[1e200, 1e200], [-1e200, -1e200]],  # so does the cross product
            [[1.6e308, 0.0], [1.6e308, 1.0]],  # the centroid's sum overflows
        ],
    )
    def test_overflowing_moments_raise(self, pts):
        # an inf spread must not read as an isotropic scatter, and NumPy
        # must not warn
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^line fit overflows float64"):
                tls_fit(np.array(pts))

    def test_fits_do_not_depend_on_blas(self):
        # OpenBLAS splits dot products of more than 10k values across its
        # threads, and picks its kernel by CPU; neither may change a bit
        setups = [{"OPENBLAS_NUM_THREADS": "1"}, {"OPENBLAS_NUM_THREADS": "2"}]
        flags = _cpu_flags()
        for core, flag in (("Haswell", "avx2"), ("Sandybridge", "avx")):
            if flag in flags:
                setups.append({"OPENBLAS_NUM_THREADS": "1", "OPENBLAS_CORETYPE": core})
        src = os.path.dirname(os.path.dirname(scanseg.__file__))
        outputs = []
        for setting in setups:
            env = {**os.environ, **setting, "PYTHONPATH": src}
            run = subprocess.run(
                [sys.executable, "-c", BLAS_FITS], env=env, capture_output=True, text=True, check=True
            )
            outputs.append(run.stdout)
        assert outputs[0].count("\n") == 16
        for setting, out in zip(setups[1:], outputs[1:]):
            assert out == outputs[0], setting

    @given(
        st.floats(0.2, 5.0),
        st.floats(0.0, TWO_PI, exclude_max=True),
        st.floats(-np.pi, np.pi),
        st.integers(3, 40),
    )
    def test_rotation_equivariance(self, d, theta, phi, n):
        # points spread along a line at distance d, normal angle theta
        offsets = np.linspace(-3.0, 3.0, n)
        nx, ny = np.cos(theta), np.sin(theta)
        pts = np.column_stack([d * nx - offsets * ny, d * ny + offsets * nx])
        rot = np.array([[np.cos(phi), -np.sin(phi)], [np.sin(phi), np.cos(phi)]])
        base = tls_fit(pts)
        turned = tls_fit(pts @ rot.T)
        assert abs(turned.d - base.d) < 1e-9
        assert angular_distance(turned.theta, wrap_angle(base.theta + phi)) < 1e-9

    def test_fit_minimizes_residual(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            n = int(rng.integers(3, 30))
            pts = rng.normal(0, 1, (n, 2)) * np.array([3.0, 0.3]) + rng.normal(0, 2, 2)
            try:
                line = tls_fit(pts)
            except (DegenerateFitError, OrientationUndefinedError):
                continue
            best = residual_ss(pts, line.d, line.theta)
            for _ in range(20):
                dd = line.d + rng.uniform(-0.3, 0.3)
                dt = line.theta + rng.uniform(-0.3, 0.3)
                assert best <= residual_ss(pts, dd, dt) + 1e-9


@st.composite
def fit_point_sets(draw):
    """Point sets for tls_fit: random, two points, collinear, coincident and
    isotropic ones (regular polygons), shifted and scaled by powers of ten
    from tiny (squares underflow) to huge (sums near overflow)."""
    kind = draw(st.sampled_from(["random", "two", "collinear", "coincident", "isotropic"]))
    coord = st.floats(-10.0, 10.0)
    n = 2 if kind == "two" else draw(st.integers(2, 40))
    if kind in ("random", "two"):
        pts = np.array(draw(st.lists(st.tuples(coord, coord), min_size=n, max_size=n)))
    elif kind == "collinear":
        t = np.array(draw(st.lists(coord, min_size=n, max_size=n)))
        phi = draw(st.floats(0.0, TWO_PI))
        pts = np.array(draw(st.tuples(coord, coord))) + np.outer(t, [np.cos(phi), np.sin(phi)])
    elif kind == "coincident":
        pts = np.tile(draw(st.tuples(coord, coord)), (n, 1))
    else:
        k = draw(st.integers(3, 12))
        phi = TWO_PI * np.arange(k) / k + draw(st.floats(0.0, TWO_PI))
        radius = draw(st.floats(0.1, 10.0))
        pts = np.array(draw(st.tuples(coord, coord))) + radius * np.column_stack(
            [np.cos(phi), np.sin(phi)]
        )
    pts = pts + draw(st.sampled_from([0.0, 1e6, -3e9, 1e15]))
    return pts * 10.0 ** draw(st.sampled_from([0, 0, -3, 5, -200, -160, 120, 150]))


@st.composite
def angle_sets(draw):
    """(angles, period) for circular_mean: clean sets, tight bundles and
    antipodal pairs, sets holding NaN, infinities, negative values or values
    at or past the period, and now and then a period that is no period."""
    if draw(st.integers(0, 9)) == 0:
        period = draw(st.sampled_from([0.0, -1.0, np.inf, -np.inf, np.nan]))
        inside = st.floats(0.0, 10.0)
    else:
        period = draw(st.sampled_from([np.pi, TWO_PI, 1.0, 360.0]))
        inside = st.floats(0.0, period, exclude_max=True)
    kind = draw(st.sampled_from(["clean", "bundle", "antipodal", "bad", "empty"]))
    if kind == "empty":
        return np.array([]), period
    angles = draw(st.lists(inside, min_size=1, max_size=30))
    if kind == "bundle":
        angles = [a % 0.01 for a in angles]
    elif kind == "antipodal":
        angles = [angles[0], (angles[0] + period / 2.0) % period]
    elif kind == "bad":
        specials = [np.nan, np.inf, -np.inf, -1.0, -5e-324, period, np.nextafter(period, np.inf), 2 * period]
        for _ in range(draw(st.integers(1, 3))):
            at = draw(st.integers(0, len(angles)))
            angles.insert(at, draw(st.sampled_from(specials)))
    return np.array(angles), period


class TestAgainstEarlierForms:
    """tls_fit and circular_mean save per-call overhead; they must still
    give the floats and the exceptions of the forms they replaced."""

    @settings(max_examples=400)
    @given(fit_point_sets())
    def test_tls_fit_bit_for_bit(self, pts):
        assert outcome(tls_fit, pts) == outcome(reference_tls_fit, pts)

    def test_tls_fit_named_sets(self):
        for pts in (
            [[0.0, 1.0], [1.0, 2.0]],
            [[1.0, 1.0]] * 3,
            [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]],
            [[1e150, 2e150], [3e150, -1e150], [5e150, 7e150]],
            [[1e-200, 0.0], [3e-200, 1e-200], [0.0, 0.0]],
            [[1.0, np.nan], [2.0, 3.0]],
            [[np.inf, 0.0], [2.0, 3.0]],
            [[1.0, 1.0]],
        ):
            pts = np.array(pts)
            assert outcome(tls_fit, pts) == outcome(reference_tls_fit, pts)

    @settings(max_examples=400)
    @given(angle_sets())
    def test_circular_mean_bit_for_bit(self, case):
        angles, period = case
        got = outcome(circular_mean, angles, period)
        assert got == outcome(reference_circular_mean, angles, period)

    @pytest.mark.parametrize(
        "angles, message",
        [
            ([0.5, np.nan], "angles must be finite"),
            ([np.inf, 0.5], "angles must be finite"),
            ([-np.inf], "angles must be finite"),
            ([0.5, -1e-300], "angles must lie in"),
            ([np.pi, 0.5], "angles must lie in"),
            ([4.0], "angles must lie in"),
        ],
    )
    def test_circular_mean_errors(self, angles, message):
        with pytest.raises(ValueError, match=message):
            circular_mean(np.array(angles), np.pi)
        assert outcome(circular_mean, angles, np.pi) == outcome(
            reference_circular_mean, angles, np.pi
        )


class TestSignedDistance:
    def test_worked_values(self):
        assert signed_distance_to_origin_line(1.0, 0.0, 0.0) == 1.0
        assert signed_distance_to_origin_line(0.0, 0.0, 0.7) == 0.0
        assert signed_distance_to_origin_line(1.0, 1.0, np.pi / 2) == 1.0

    def test_sign_tracks_side_of_origin(self):
        theta = 0.3
        nx, ny = np.cos(theta), np.sin(theta)
        assert signed_distance_to_origin_line(2 * nx, 2 * ny, theta) == pytest.approx(2.0)
        assert signed_distance_to_origin_line(-2 * nx, -2 * ny, theta) == pytest.approx(-2.0)

    def test_vectorized(self):
        x = np.array([1.0, -1.0])
        y = np.zeros(2)
        out = signed_distance_to_origin_line(x, y, 0.0)
        np.testing.assert_allclose(out, [1.0, -1.0])


class TestCircularMean:
    def test_single_angle_identity(self):
        assert circular_mean(np.array([0.5]), TWO_PI) == pytest.approx(0.5, rel=1e-12)

    def test_two_angles(self):
        mean = circular_mean(np.array([0.1, 0.3]), TWO_PI)
        assert mean == pytest.approx(0.2, rel=1e-12)

    def test_wraps_across_seam(self):
        mean = circular_mean(np.array([0.05, np.pi - 0.05]), np.pi)
        assert min(mean, np.pi - mean) < 1e-12

    def test_antipodal_undefined(self):
        with pytest.raises(UndefinedMeanError):
            circular_mean(np.array([np.pi / 2, 3 * np.pi / 2]), TWO_PI)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            circular_mean(np.array([]), TWO_PI)

    def test_domain_enforced(self):
        with pytest.raises(ValueError):
            circular_mean(np.array([3.5]), np.pi)

    @given(
        st.lists(st.floats(0.0, 0.8), min_size=1, max_size=20),
        st.floats(0.0, TWO_PI, exclude_max=True),
    )
    def test_rotation_equivariance(self, angles, shift):
        # a tight bundle keeps the resultant far from zero for any shift
        base = np.asarray(angles)
        shifted = (base + shift) % TWO_PI
        expected = wrap_angle(circular_mean(base, TWO_PI) + shift)
        got = circular_mean(shifted, TWO_PI)
        assert angular_distance(got, expected) < 1e-9


class TestLocalAngles:
    def test_horizontal_points(self):
        x = np.linspace(0, 9, 10)
        y = np.full(10, 2.0)
        angles = estimate_local_angles(x, y, np.ones(10, bool))
        np.testing.assert_array_equal(angles, np.zeros(10))

    def test_vertical_points(self):
        x = np.full(10, 3.0)
        y = np.linspace(0, 9, 10)
        angles = estimate_local_angles(x, y, np.ones(10, bool))
        np.testing.assert_allclose(angles, np.pi / 2, rtol=0, atol=1e-12)

    def test_corner_polyline_two_plateaus(self):
        x = np.concatenate([np.arange(0, 4.001, 0.5), np.full(8, 4.0)])
        y = np.concatenate([np.zeros(9), np.arange(0.5, 4.001, 0.5)])
        angles = estimate_local_angles(x, y, np.ones(x.size, bool))
        np.testing.assert_allclose(angles[:8], 0.0, atol=1e-12)
        np.testing.assert_allclose(angles[9:], np.pi / 2, atol=1e-12)
        # the corner triplet straddles both walls symmetrically
        assert angles[8] == pytest.approx(np.pi / 4, abs=1e-12)

    def test_run_shorter_than_window_is_nan(self):
        x = np.array([0.0, 1.0, 5.0, 6.0, 7.0])
        y = np.zeros(5)
        valid = np.array([True, True, False, True, True])
        angles = estimate_local_angles(x, y, valid)
        assert np.isnan(angles[:2]).all()
        assert np.isnan(angles[2])
        assert np.isnan(angles[3:]).all()

    def test_endpoints_copy_interior(self):
        x = np.array([0.0, 1.0, 2.0, 3.0])
        y = np.array([0.0, 0.1, 0.2, 0.3])
        angles = estimate_local_angles(x, y, np.ones(4, bool))
        assert angles[0] == angles[1]
        assert angles[3] == angles[2]

    def test_full_circle_run_merges_across_seam(self):
        t = np.arange(8) * (np.pi / 4)
        valid = np.ones(8, bool)
        valid[3] = False
        angles = estimate_local_angles(np.cos(t), np.sin(t), valid, full_circle=True)
        assert np.isnan(angles[3])
        # the wrapped run 4..7,0..2 gets true triplet values at its ends
        assert angles[0] == pytest.approx(np.pi / 2, abs=1e-12)
        assert angles[7] == pytest.approx(np.pi / 4, abs=1e-12)

    def test_closed_ring_all_valid(self):
        t = np.arange(16) * (TWO_PI / 16)
        angles = estimate_local_angles(np.cos(t), np.sin(t), np.ones(16, bool), full_circle=True)
        assert np.isfinite(angles).all()
        # tangent of a circle advances with the polar angle (mod pi)
        expected = (t + np.pi / 2) % np.pi
        assert np.max(angular_distance(angles, expected, period=np.pi)) < 1e-9

    def test_all_invalid(self):
        angles = estimate_local_angles(np.zeros(4), np.zeros(4), np.zeros(4, bool))
        assert np.isnan(angles).all()

    @given(st.floats(-np.pi, np.pi), st.integers(8, 30))
    def test_rotation_equivariance_mod_pi(self, phi, n):
        t = np.linspace(0.0, 2.0, n)
        x = t
        y = 0.4 * t * t  # gentle parabola, no degenerate triplets
        base = estimate_local_angles(x, y, np.ones(n, bool))
        c, s = np.cos(phi), np.sin(phi)
        turned = estimate_local_angles(c * x - s * y, s * x + c * y, np.ones(n, bool))
        assume(np.isfinite(base).all() and np.isfinite(turned).all())
        shift = angular_distance(turned, (base + phi) % np.pi, period=np.pi)
        assert np.max(shift) < 1e-9


class TestWrapAngle:
    def test_basic(self):
        assert wrap_angle(TWO_PI + 0.25) == pytest.approx(0.25, rel=1e-12)
        assert wrap_angle(-0.25) == pytest.approx(TWO_PI - 0.25, rel=1e-12)
        assert wrap_angle(0.0) == 0.0

    def test_custom_period(self):
        assert wrap_angle(np.pi + 0.1, period=np.pi) == pytest.approx(0.1, rel=1e-9)

    def test_result_always_in_domain(self):
        for value in np.linspace(-50, 50, 1001):
            wrapped = wrap_angle(float(value))
            assert 0.0 <= wrapped < TWO_PI


# Reference for estimate_local_angles: split the scan into runs of
# consecutive valid beams and take the triplet directions of each run on
# its own.  The vectorized estimate must match it bit for bit, since
# every value depends only on its own (prev, self, next) triplet.


def _triplet_directions(px, py, ring):
    if ring:
        x0, y0 = np.roll(px, 1), np.roll(py, 1)
        x1, y1 = px, py
        x2, y2 = np.roll(px, -1), np.roll(py, -1)
    else:
        x0, y0 = px[:-2], py[:-2]
        x1, y1 = px[1:-1], py[1:-1]
        x2, y2 = px[2:], py[2:]
    cx = (x0 + x1 + x2) / 3.0
    cy = (y0 + y1 + y2) / 3.0
    d0x, d1x, d2x = x0 - cx, x1 - cx, x2 - cx
    d0y, d1y, d2y = y0 - cy, y1 - cy, y2 - cy
    sxx = d0x * d0x + d1x * d1x + d2x * d2x
    syy = d0y * d0y + d1y * d1y + d2y * d2y
    sxy = d0x * d0y + d1x * d1y + d2x * d2y
    return _principal_directions(sxx, syy, sxy)


def _valid_runs(valid, full_circle):
    n = valid.size
    if n == 0:
        return [], False
    if valid.all():
        return [np.arange(n, dtype=np.int64)], bool(full_circle)
    edges = np.diff(np.concatenate(([False], valid, [False])).astype(np.int8))
    starts = np.flatnonzero(edges == 1)
    stops = np.flatnonzero(edges == -1)
    runs = [np.arange(s, e, dtype=np.int64) for s, e in zip(starts, stops)]
    if full_circle and len(runs) > 1 and valid[0] and valid[-1]:
        head = runs.pop(0)
        tail = runs.pop()
        runs.append(np.concatenate((tail, head)))
    return runs, False


def reference_local_angles(x, y, valid, full_circle=False):
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    valid = np.asarray(valid, dtype=bool)
    out = np.full(x.size, np.nan)
    runs, ring = _valid_runs(valid, full_circle)
    for idx in runs:
        if idx.size < 3:
            continue
        if ring:
            out[idx] = _triplet_directions(x[idx], y[idx], ring=True)
        else:
            out[idx[1:-1]] = _triplet_directions(x[idx], y[idx], ring=False)
            out[idx[0]] = out[idx[1]]
            out[idx[-1]] = out[idx[-2]]
    return out


@st.composite
def run_masks(draw, n):
    """Masks built from runs of 1, 2, 3 or more valid beams between gaps,
    rotated so that runs can touch index 0, index n - 1 or both."""
    mask = []
    while len(mask) < n:
        mask += [True] * draw(st.sampled_from([1, 2, 3, 4, 7]))
        mask += [False] * draw(st.integers(1, 3))
    return np.roll(np.array(mask[:n], dtype=bool), draw(st.integers(0, n)))


@st.composite
def local_angle_cases(draw):
    n = draw(st.one_of(st.integers(0, 5), st.integers(6, 60)))
    kind = draw(st.sampled_from(["all", "none", "random", "runs"]))
    if kind == "all" or n == 0:
        valid = np.ones(n, dtype=bool)
    elif kind == "none":
        valid = np.zeros(n, dtype=bool)
    elif kind == "random":
        valid = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
    else:
        valid = draw(run_masks(n))
    shape = draw(st.sampled_from(["grid", "floats", "triangle", "line"]))
    if shape == "grid":
        # small integers: coincident points and collinear triplets abound
        coords = st.lists(st.integers(-2, 2), min_size=n, max_size=n)
        x = np.array(draw(coords), dtype=np.float64)
        y = np.array(draw(coords), dtype=np.float64)
    elif shape == "floats":
        coords = st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n)
        x = np.array(draw(coords), dtype=np.float64)
        y = np.array(draw(coords), dtype=np.float64)
    elif shape == "triangle":
        # every three consecutive points form an equilateral triangle,
        # an isotropic scatter whose direction is NaN
        t = np.arange(n) * (TWO_PI / 3.0)
        x, y = np.cos(t), np.sin(t)
    else:
        t = np.arange(n, dtype=np.float64)
        x, y = t, draw(st.floats(-2.0, 2.0)) * t
    return x, y, valid, draw(st.booleans())


def assert_same_as_reference(x, y, valid, full_circle):
    got = estimate_local_angles(x, y, valid, full_circle)
    want = reference_local_angles(x, y, valid, full_circle)
    assert got.tobytes() == want.tobytes()


class TestLocalAnglesMatchReference:
    @settings(max_examples=600)
    @given(local_angle_cases())
    def test_random_cases(self, case):
        assert_same_as_reference(*case)

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
    @pytest.mark.parametrize("full_circle", [False, True])
    def test_every_mask_of_short_scans(self, n, full_circle):
        rng = np.random.default_rng(n)
        x, y = rng.normal(size=n), rng.normal(size=n)
        for bits in range(2**n):
            valid = np.array([(bits >> k) & 1 for k in range(n)], dtype=bool)
            assert_same_as_reference(x, y, valid, full_circle)

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
    @pytest.mark.parametrize("full_circle", [False, True])
    # with blocks of one interior beam, each run endpoint is written by a
    # block that holds only its neighbor
    @pytest.mark.parametrize("block", [1, 2])
    def test_every_mask_of_short_scans_in_small_blocks(
        self, n, full_circle, block, monkeypatch
    ):
        monkeypatch.setattr(scanseg.geometry, "_ANGLE_BLOCK", block)
        rng = np.random.default_rng(n)
        x, y = rng.normal(size=n), rng.normal(size=n)
        for bits in range(2**n):
            valid = np.array([(bits >> k) & 1 for k in range(n)], dtype=bool)
            assert_same_as_reference(x, y, valid, full_circle)

    @settings(max_examples=40)
    @given(
        st.sampled_from(["square", "room8"]),
        st.floats(0.0, TWO_PI, exclude_max=True),
        st.sampled_from([0.0, 0.05, 0.3]),
        st.integers(0, 2**32),
    )
    def test_generated_rooms(self, shape, heading, dropout, seed):
        vertices = np.array([[-2.0, -2.0], [2.0, -2.0], [2.0, 2.0], [-2.0, 2.0]])
        if shape == "room8":
            vertices = ROOM8
        room = RoomModel(vertices, (0.1, -0.2, heading))
        scan, _ = generate_scan(room, 360, NoiseModel(0.01, dropout, seed))
        for full_circle in (True, False):
            assert_same_as_reference(scan.x, scan.y, scan.valid, full_circle)

    @pytest.mark.parametrize("dropout", [0.0, 0.02, 0.5])
    def test_several_blocks(self, dropout):
        # long enough to cross block boundaries, with the seam in the last one
        n = 2 * _ANGLE_BLOCK + 37
        rng = np.random.default_rng(7)
        t = np.arange(n) * (TWO_PI / n)
        r = 3.0 + rng.normal(0.0, 0.01, n)
        valid = rng.random(n) >= dropout
        for full_circle in (True, False):
            assert_same_as_reference(r * np.cos(t), r * np.sin(t), valid, full_circle)


def test_local_angles_peak_memory_bounded_by_block():
    """The windows are gathered per block of interior points, so the
    temporaries do not grow with the scan: 3.5 MB at 1e5 beams, of which
    the output and the interior index list take most, while gathering all
    windows at once peaks near 21 MB."""
    scan, _ = generate_scan(RoomModel(ROOM8), 100_000, NoiseModel(1e-6, 0.02, 5))
    estimate_local_angles(scan.x, scan.y, scan.valid, scan.full_circle)
    tracemalloc.start()
    try:
        estimate_local_angles(scan.x, scan.y, scan.valid, scan.full_circle)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5_000_000


def test_tls_fit_rejects_three_columns():
    with pytest.raises(ValueError, match=r"^points must have shape \(n, 2\), got \(4, 3\)$"):
        tls_fit(np.zeros((4, 3)))


def test_tls_fit_rejects_one_dimension():
    with pytest.raises(ValueError, match=r"^points must have shape \(n, 2\), got \(4,\)$"):
        tls_fit(np.zeros(4))


def test_circular_mean_rejects_two_dimensions():
    with pytest.raises(ValueError, match=r"^angles must be one-dimensional, got shape \(2, 2\)$"):
        circular_mean(np.zeros((2, 2)))


def test_circular_mean_period_must_be_a_number():
    with pytest.raises(ValueError, match=r"^period must be a number, got 'x'$"):
        circular_mean([0.1], "x")


def test_circular_mean_refuses_a_period_whose_full_turn_scale_overflows():
    # 2 pi / 5e-324 is inf, which would leave the mean NaN
    message = r"^period too small: 2 pi / period overflows float64, got 5e-324$"
    with pytest.raises(ValueError, match=message):
        circular_mean([0.0], 5e-324)
    # a NumPy scalar period gives the bits of the float
    assert circular_mean([0.3, 3.0], np.float64(np.pi)) == circular_mean([0.3, 3.0], np.pi)


def test_local_angles_reject_unequal_lengths():
    with pytest.raises(ValueError, match=r"^x, y, valid must be one-dimensional and equally long$"):
        estimate_local_angles(np.zeros(4), np.zeros(3), np.ones(4, bool))


@pytest.mark.parametrize(
    "x, valid",
    [(np.zeros((2, 3)), np.ones((2, 3), bool)), (np.zeros(4), np.ones(5, bool))],
)
def test_local_angles_reject_other_shapes(x, valid):
    # equal 2-D shapes, and a valid mask of another length
    with pytest.raises(ValueError, match=r"^x, y, valid must be one-dimensional and equally long$"):
        estimate_local_angles(x, x, valid)


def test_line_through_origin_needs_a_half_turn_normal():
    with pytest.raises(ValueError, match=r"^a line through the origin needs theta in \[0, pi\)$"):
        PolarLine(0.0, 4.0)
