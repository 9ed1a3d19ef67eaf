"""Scan container, file formats, room models, and the synthetic generator."""

import io
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scanseg import (
    BorderPolicy,
    NoiseModel,
    RoomModel,
    Scan,
    ScanFormatError,
    SegmentationParams,
    angular_segmentation,
    fit_cluster_lines,
    generate_scan,
    load_points,
    load_scan,
    save_scan,
)
from scanseg.scan_io import _BEAM_BLOCK, _cast_rays, _vertex_hit

TWO_PI = 2.0 * math.pi

# the cli-roundtrip benchmark room: a rectangle with an alcove
ROOM8 = np.array(
    [[-4.0, -3.0], [4.0, -3.0], [4.0, 3.0], [1.0, 3.0],
     [1.0, 5.0], [-1.0, 5.0], [-1.0, 2.5], [-4.0, 2.5]]
)


def square_room(side=4.0, sensor=(0.0, 0.0, 0.0)):
    h = side / 2.0
    return RoomModel(np.array([[-h, -h], [h, -h], [h, h], [-h, h]]), sensor)


class TestScan:
    def test_cartesian_projection(self):
        scan = Scan(np.array([0.0]), np.array([2.0]), np.array([True]), False)
        assert scan.x[0] == 2.0
        assert scan.y[0] == 0.0

    def test_from_xy_round_trip(self):
        rng = np.random.default_rng(2)
        x = rng.normal(0, 3, 40)
        y = rng.normal(0, 3, 40)
        scan = Scan.from_xy(x, y, np.ones(40, bool), full_circle=False)
        np.testing.assert_allclose(scan.x, x, atol=1e-12)
        np.testing.assert_allclose(scan.y, y, atol=1e-12)
        assert ((scan.beam_angles >= 0) & (scan.beam_angles < 2 * np.pi)).all()

    def test_from_xy_rejects_mismatched_shapes(self):
        # numpy would broadcast y across x and invent returns
        with pytest.raises(ValueError, match="equal shapes"):
            Scan.from_xy(np.array([1.0, 2.0, 3.0]), np.array([0.5]))
        with pytest.raises(ValueError, match="equal shapes"):
            Scan.from_xy(np.ones(3), np.ones(4))

    def test_owns_read_only_arrays(self):
        angles = np.array([0.0, 1.0, 2.0])
        ranges = np.array([1.0, 2.0, 0.0])
        valid = np.array([True, True, False])
        scan = Scan(angles, ranges, valid)
        before = {k: v.copy() for k, v in vars(scan).items() if isinstance(v, np.ndarray)}
        assert set(before) == {"beam_angles", "ranges", "valid", "x", "y"}
        angles[:] = 3.0
        ranges[:] = -5.0
        valid[:] = True
        for name, array in before.items():
            np.testing.assert_array_equal(getattr(scan, name), array)
            with pytest.raises(ValueError, match="read-only"):
                getattr(scan, name)[0] = 0

    @pytest.mark.parametrize("policy", list(BorderPolicy))
    def test_segmentation_leaves_scan_unchanged(self, policy):
        # the pipeline keeps its intermediates to itself: every array of
        # the scan reads byte for byte the same after segmenting and fitting
        scan, _ = generate_scan(square_room(), 360, NoiseModel(0.01, 0.05, 4))
        before = {k: v.tobytes() for k, v in vars(scan).items() if isinstance(v, np.ndarray)}
        assert set(before) == {"beam_angles", "ranges", "valid", "x", "y"}
        params = SegmentationParams(0.1, 0.2, 16, policy)
        clusters = fit_cluster_lines(scan, angular_segmentation(scan, params))
        assert len(clusters) == 4
        after = {k: v.tobytes() for k, v in vars(scan).items() if isinstance(v, np.ndarray)}
        assert after == before
        assert scan.beams == 360

    def test_validation(self):
        with pytest.raises(ValueError):
            Scan(np.array([0.0]), np.array([1.0, 2.0]), np.ones(1, bool), False)
        with pytest.raises(ValueError):
            Scan(np.array([0.0]), np.array([-1.0]), np.ones(1, bool), False)
        with pytest.raises(ValueError):
            Scan(np.array([np.nan]), np.array([1.0]), np.ones(1, bool), False)


class TestScanFile:
    def test_round_trip_identity(self, tmp_path):
        scan = Scan(
            np.array([0.0, 0.1, 5.75]),
            np.array([2.0, 0.0, 13.25]),
            np.array([True, False, True]),
            True,
        )
        path = tmp_path / "scan.txt"
        save_scan(scan, path)
        back = load_scan(path)
        np.testing.assert_array_equal(back.beam_angles, scan.beam_angles)
        np.testing.assert_array_equal(back.ranges, scan.ranges)
        np.testing.assert_array_equal(back.valid, scan.valid)
        assert back.full_circle == scan.full_circle

    def test_round_trip_preserves_generated_bits(self, tmp_path):
        scan, _ = generate_scan(square_room(), 90, NoiseModel(0.02, 0.1, 4))
        path = tmp_path / "gen.txt"
        save_scan(scan, path)
        back = load_scan(path)
        assert np.array_equal(back.beam_angles, scan.beam_angles)
        assert np.array_equal(back.ranges, scan.ranges)
        assert np.array_equal(back.valid, scan.valid)

    def test_file_object_round_trip(self):
        scan = Scan(np.array([1.0]), np.array([3.5]), np.array([True]), False)
        buf = io.StringIO()
        save_scan(scan, buf)
        buf.seek(0)
        back = load_scan(buf)
        assert back.ranges[0] == 3.5

    def test_header_errors(self):
        with pytest.raises(ScanFormatError, match="line 1"):
            load_scan(io.StringIO("beams=x full_circle=1\n"))
        with pytest.raises(ScanFormatError):
            load_scan(io.StringIO(""))

    def test_record_errors(self):
        good = "beams=2 full_circle=0\n0.0 1.0 1\n"
        with pytest.raises(ScanFormatError, match="line 3"):
            load_scan(io.StringIO(good + "0.1 nope 1\n"))
        with pytest.raises(ScanFormatError, match="line 3"):
            load_scan(io.StringIO(good + "0.1 1.0 2\n"))
        with pytest.raises(ScanFormatError, match="line 3"):
            load_scan(io.StringIO(good + "0.1 nan 1\n"))

    @pytest.mark.parametrize(
        "data, line",
        [
            (b"beams=1 full_circle=0\n0.0 1.0\xff 1\n", "line 2"),
            (b"beams=2 full_circle=0\n0.0 1.0 1\n0.1 1.0 1\xff\n", "line 3"),
            (b"beams=1\xff full_circle=0\n0.0 1.0 1\n", "line 1"),
            # text from a file object: float() reads non-ASCII digits and
            # split() non-ASCII spaces
            ("beams=1 full_circle=0\n\u0661 1.0 1\n", "line 2"),
            ("beams=2 full_circle=0\n0.0 1.0 1\n0.1\u3000 1.0 1\n", "line 3"),
            ("beams=\u0661 full_circle=0\n0.0 1.0 1\n", "line 1"),
        ],
    )
    def test_non_ascii_byte_reports_its_line(self, tmp_path, data, line):
        path = tmp_path / "scan.txt"
        if isinstance(data, str):
            path = io.StringIO(data)
        else:
            path.write_bytes(data)
        with pytest.raises(ScanFormatError, match=f"^{line}: "):
            load_scan(path)

    @pytest.mark.parametrize("brk", list("\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"))
    def test_stray_line_break_reports_its_line(self, brk):
        # str.splitlines() broke such a record in two, so the error was a
        # record count mismatch with no line number
        with pytest.raises(ScanFormatError, match="^line 2: expected 'angle range valid'"):
            load_scan(io.StringIO(f"beams=1 full_circle=0\n0.0{brk}1.0 1\n"))
        text = f"beams=3 full_circle=0\n0.0 1.0 1\n0.1 1.0 1\n0.2{brk}1.0 1\n"
        with pytest.raises(ScanFormatError, match="^line 4: "):
            load_scan(io.StringIO(text))
        # an earlier bad record is still the one reported
        with pytest.raises(ScanFormatError, match="^line 2: bad number"):
            load_scan(io.StringIO(text.replace("0.0 1.0", "0.0 x")))

    def test_stray_line_break_in_a_file(self, tmp_path):
        path = tmp_path / "scan.txt"
        path.write_bytes(b"beams=1 full_circle=0\n0.0\x0c1.0 1\n")
        with pytest.raises(ScanFormatError, match="^line 2: "):
            load_scan(path)

    def test_record_count_mismatch(self):
        with pytest.raises(ScanFormatError, match="declares 2"):
            load_scan(io.StringIO("beams=2 full_circle=0\n0.0 1.0 1\n"))

    def test_negative_range_on_valid_beam(self):
        with pytest.raises(ScanFormatError):
            load_scan(io.StringIO("beams=1 full_circle=0\n0.0 -1.0 1\n"))


class TestPointsFile:
    def test_round_trip(self, tmp_path):
        values = np.array([0.0, 0.4, 0.8, 5.0, 5.3, 5.6, 0.1 + 0.2])
        path = tmp_path / "pts.txt"
        path.write_text("".join(f"{v!r}\n" for v in values.tolist()))
        back, period = load_points(path)
        np.testing.assert_array_equal(back, values)
        assert period is None

    def test_period_header(self, tmp_path):
        path = tmp_path / "circ.txt"
        path.write_text(f"# circular period={2 * np.pi!r}\n0.1\n3.0\n")
        back, period = load_points(path)
        assert period == 2 * np.pi
        assert back.tolist() == [0.1, 3.0]

    def test_comments_and_blanks_skipped(self):
        text = "# a comment\n\n1.5\n# another\n2.5\n\n"
        values, period = load_points(io.StringIO(text))
        assert values.tolist() == [1.5, 2.5]
        assert period is None

    def test_bad_value_reports_line(self):
        with pytest.raises(ScanFormatError, match="line 2"):
            load_points(io.StringIO("1.0\nzap\n"))
        with pytest.raises(ScanFormatError):
            load_points(io.StringIO("inf\n"))


    @pytest.mark.parametrize(
        "data, line",
        [
            (b"1.0\n2.\xe9\n", "line 2"),
            (b"# caf\xe9\n1.0\n", "line 1"),
            (b"1.0\n# circular period=6.28\xe9\n", "line 2"),
            # text from a file object: float() and strip() read non-ASCII
            # digits and spaces
            ("1.0\n\u0661\n", "line 2"),
            ("1.0\n2.0\u3000\n", "line 2"),
            ("\u3000\n1.0\n", "line 1"),
            ("# c\u3000\n1.0\n", "line 1"),
        ],
    )
    def test_non_ascii_byte_reports_its_line(self, tmp_path, data, line):
        path = tmp_path / "pts.txt"
        if isinstance(data, str):
            path = io.StringIO(data)
        else:
            path.write_bytes(data)
        with pytest.raises(ScanFormatError, match=f"^{line}: "):
            load_points(path)


class TestRoomModel:
    def test_simple_polygon_accepted(self):
        square_room()

    def test_too_few_vertices(self):
        with pytest.raises(ValueError):
            RoomModel(np.array([[0.0, 0.0], [1.0, 0.0]]), (0.5, 0.1, 0.0))

    def test_zero_length_edge(self):
        with pytest.raises(ValueError):
            RoomModel(
                np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]]), (0.5, 0.5, 0.0)
            )

    def test_self_intersection_rejected(self):
        bowtie = np.array([[0.0, 0.0], [2.0, 2.0], [2.0, 0.0], [0.0, 2.0]])
        with pytest.raises(ValueError, match="simple"):
            RoomModel(bowtie, (1.0, 0.5, 0.0))

    def test_sensor_must_be_strictly_inside(self):
        verts = np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])
        with pytest.raises(ValueError):
            RoomModel(verts, (2.0, 0.0, 0.0))
        with pytest.raises(ValueError):
            RoomModel(verts, (1.0, 0.0, 0.0))  # on the boundary

    def test_noise_model_validation(self):
        with pytest.raises(ValueError):
            NoiseModel(-0.1, 0.0)
        with pytest.raises(ValueError):
            NoiseModel(0.0, 1.5)


class TestGenerator:
    def test_unit_square_four_beams(self):
        scan, _ = generate_scan(square_room(side=1.0), 4)
        np.testing.assert_allclose(scan.ranges, 0.5, rtol=0, atol=1e-15)
        assert scan.valid.all()
        assert scan.full_circle

    def test_axis_beam_hits_wall_exactly(self):
        scan, _ = generate_scan(square_room(), 4)
        np.testing.assert_array_equal(scan.ranges, [2.0, 2.0, 2.0, 2.0])

    def test_ranges_match_analytic_square(self):
        scan, _ = generate_scan(square_room(), 360)
        a = scan.beam_angles
        expected = 2.0 / np.maximum(np.abs(np.cos(a)), np.abs(np.sin(a)))
        np.testing.assert_allclose(scan.ranges, expected, rtol=1e-12)

    def test_corner_tie_takes_lowest_wall(self):
        scan, wall_ids = generate_scan(square_room(), 8)
        # diagonal beams hit corners shared by two edges
        assert wall_ids.tolist() == [1, 1, 2, 2, 3, 3, 0, 0]
        assert scan.ranges[1] == pytest.approx(2 * np.sqrt(2), rel=1e-15)

    def test_offset_sensor(self):
        room = square_room(sensor=(1.0, -0.5, 0.3))
        scan, _ = generate_scan(room, 4)
        # first beam leaves at the heading itself and meets the right wall
        assert scan.beam_angles[0] == pytest.approx(0.3)
        assert scan.ranges[0] == pytest.approx(1.0 / np.cos(0.3), rel=1e-12)

    def test_heading_only_rotates_beam_grid(self):
        plain, _ = generate_scan(square_room(), 16)
        turned, _ = generate_scan(square_room(sensor=(0.0, 0.0, 2 * np.pi)), 16)
        np.testing.assert_allclose(turned.beam_angles, plain.beam_angles, atol=1e-9)

    def test_fixed_seed_reproducible(self):
        room = square_room()
        noise = NoiseModel(0.02, 0.1, seed=7)
        a, ids_a = generate_scan(room, 180, noise)
        b, ids_b = generate_scan(room, 180, noise)
        assert np.array_equal(a.ranges, b.ranges)
        assert np.array_equal(a.valid, b.valid)
        assert np.array_equal(ids_a, ids_b)

    def test_different_seeds_differ(self):
        room = square_room()
        a, _ = generate_scan(room, 180, NoiseModel(0.02, 0.1, seed=1))
        b, _ = generate_scan(room, 180, NoiseModel(0.02, 0.1, seed=2))
        assert not np.array_equal(a.ranges, b.ranges)

    def test_noise_free_model_is_exact(self):
        room = square_room()
        plain, _ = generate_scan(room, 90)
        modeled, _ = generate_scan(room, 90, NoiseModel(0.0, 0.0, seed=3))
        assert np.array_equal(plain.ranges, modeled.ranges)
        assert modeled.valid.all()

    def test_dropped_beams_have_zero_range(self):
        scan, wall_ids = generate_scan(square_room(), 360, NoiseModel(0.0, 0.5, seed=5))
        dropped = ~scan.valid
        assert dropped.any()
        assert (scan.ranges[dropped] == 0.0).all()
        # wall attribution is geometric, independent of dropout
        assert ((wall_ids >= 0) & (wall_ids < 4)).all()

    def test_noise_is_multiplicative(self):
        room = square_room()
        clean, _ = generate_scan(room, 64)
        noisy, _ = generate_scan(room, 64, NoiseModel(0.01, 0.0, seed=11))
        factors = noisy.ranges / clean.ranges
        assert np.abs(factors - 1.0).max() < 0.01 * 6  # 6 sigma
        assert not np.allclose(factors, 1.0)

    def test_extreme_noise_clamped_nonnegative(self):
        scan, _ = generate_scan(square_room(), 720, NoiseModel(5.0, 0.0, seed=13))
        assert (scan.ranges >= 0.0).all()
        assert (scan.ranges == 0.0).any()  # clamp engaged somewhere

    def test_dropout_rate_statistics(self):
        """Mean invalid count over many seeds lands on beams * probability."""
        room = square_room()
        beams, prob, seeds = 360, 0.05, 1000
        total = 0
        for seed in range(seeds):
            scan, _ = generate_scan(room, beams, NoiseModel(0.01, prob, seed))
            total += int((~scan.valid).sum())
        mean = total / seeds
        sigma = np.sqrt(beams * prob * (1 - prob) / seeds)
        assert abs(mean - beams * prob) <= 3 * sigma


def reference_cast_ray(vertices, px, py, angle):
    """One beam against every edge in turn, keeping the strictly nearest hit.

    The scalar cast the block-broadcast simulator must match bit for bit.
    """
    ux = math.cos(angle)
    uy = math.sin(angle)
    nv = vertices.shape[0]
    best_t = math.inf
    best_edge = -1
    for i in range(nv):
        ax, ay = vertices[i]
        bx, by = vertices[(i + 1) % nv]
        ex = bx - ax
        ey = by - ay
        denom = ux * ey - uy * ex
        if denom == 0.0:
            continue
        apx = ax - px
        apy = ay - py
        t = (apx * ey - apy * ex) / denom
        s = (apx * uy - apy * ux) / denom
        if t > 0.0 and 0.0 <= s <= 1.0 and t < best_t:
            best_t = t
            best_edge = i
    if best_edge < 0:
        return _vertex_hit(vertices, px, py, ux, uy)
    return best_t, best_edge


def assert_matches_reference(room, angles, ranges, walls):
    hits = [reference_cast_ray(room.vertices, *room.sensor[:2], a) for a in angles.tolist()]
    assert ranges.tobytes() == np.array([h[0] for h in hits]).tobytes()
    assert walls.tolist() == [h[1] for h in hits]


@st.composite
def star_rooms(draw):
    """Star-shaped rooms of 3-12 vertices around a sensor at the origin.

    Vertices go round in angular order with every angular gap below pi,
    so the polygon is simple and holds the origin strictly inside.
    """
    nv = draw(st.integers(3, 12))
    gaps = np.array(draw(st.lists(st.floats(1.0, 1.8), min_size=nv, max_size=nv)))
    radii = np.array(draw(st.lists(st.floats(0.5, 5.0), min_size=nv, max_size=nv)))
    start = draw(st.floats(0.0, TWO_PI))
    heading = draw(st.floats(-10.0, 10.0))
    directions = start + TWO_PI * np.cumsum(gaps) / gaps.sum()
    vertices = np.column_stack((radii * np.cos(directions), radii * np.sin(directions)))
    return RoomModel(vertices, (0.0, 0.0, heading))


def beam_angles(room, beams):
    """Each vertex's exact direction, then a grid rotated by the heading."""
    v = room.vertices
    exact = np.arctan2(v[:, 1], v[:, 0]) % TWO_PI
    m = max(beams - exact.size, 0)
    grid = (room.sensor[2] + TWO_PI * np.arange(m) / max(m, 1)) % TWO_PI
    return np.concatenate([exact, grid])[:beams]


class TestRayCastEquivalence:
    @pytest.mark.parametrize(
        "beams", [1, _BEAM_BLOCK - 1, _BEAM_BLOCK, _BEAM_BLOCK + 1, 3 * _BEAM_BLOCK + 17]
    )
    @settings(max_examples=10)
    @given(room=star_rooms())
    def test_block_edges_match_scalar_cast(self, room, beams):
        angles = beam_angles(room, beams)
        assert_matches_reference(room, angles, *_cast_rays(room.vertices, 0.0, 0.0, angles))

    @settings(max_examples=300)
    @given(room=star_rooms(), beams=st.integers(1, 90))
    def test_star_rooms_match_scalar_cast(self, room, beams):
        angles = beam_angles(room, beams)
        assert_matches_reference(room, angles, *_cast_rays(room.vertices, 0.0, 0.0, angles))

    @settings(max_examples=50)
    @given(room=star_rooms(), beams=st.integers(1, 720))
    def test_generated_scan_matches_scalar_cast(self, room, beams):
        scan, wall_ids = generate_scan(room, beams)
        assert_matches_reference(room, scan.beam_angles, scan.ranges, wall_ids)

    def test_offset_sensor_matches_scalar_cast(self):
        room = RoomModel(ROOM8, (0.3, -1.7, 0.9))
        scan, wall_ids = generate_scan(room, _BEAM_BLOCK + 5)
        assert_matches_reference(room, scan.beam_angles, scan.ranges, wall_ids)

    @pytest.mark.parametrize("heading", [5e-324, 2.2e-308, -5e-324])
    def test_subnormal_heading_matches_scalar_cast(self, heading):
        # beam 0 runs a subnormal angle off the horizontal walls, so its
        # t overflows there; that used to warn, which tier-1 turns into
        # an error
        room = RoomModel(ROOM8, (0.1, -0.2, heading))
        scan, wall_ids = generate_scan(room, 360)
        with np.errstate(over="ignore"):  # the reference overflows alike
            assert_matches_reference(room, scan.beam_angles, scan.ranges, wall_ids)


def test_generate_peak_memory_bounded_by_block():
    """Temporaries scale with the beam block, not the beam count: the
    arrays of the scan itself take about 8.1 MB at 1e5 beams, while one
    broadcast of all beams against all walls peaks near 34 MB."""
    room = RoomModel(ROOM8)
    noise = NoiseModel(1e-6, 0.02, 5)
    generate_scan(room, 100_000, noise)
    tracemalloc.start()
    try:
        generate_scan(room, 100_000, noise)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 9_000_000
