"""Scan container, file formats, room models, and the synthetic generator."""

import dataclasses
import io
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import read_reference
import read_sweep
import room_reference
import room_sweep
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
from scanseg import scan_io
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
    def test_non_finite_range_rejected(self):
        with pytest.raises(ValueError, match=r"^ranges must be finite$"):
            Scan(np.array([0.0]), np.array([np.inf]), np.array([True]), False)

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

    @pytest.mark.parametrize("name", ["beam_angles", "ranges", "valid", "full_circle", "x", "y"])
    def test_fields_cannot_be_reassigned(self, name):
        scan = Scan(np.array([0.0, 1.0]), np.array([1.0, 2.0]), np.array([True, True]))
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(scan, name, getattr(scan, name))

    def test_replace_recomputes_cartesian(self):
        scan = Scan(np.array([0.0, 1.0]), np.array([1.0, 2.0]), np.array([True, True]), True)
        moved = dataclasses.replace(scan, ranges=np.array([5.0, 5.0]))
        np.testing.assert_array_equal(moved.x, 5.0 * np.cos([0.0, 1.0]))
        np.testing.assert_array_equal(moved.y, 5.0 * np.sin([0.0, 1.0]))
        assert moved.full_circle is True and not moved.ranges.flags.writeable
        np.testing.assert_array_equal(scan.ranges, [1.0, 2.0])

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

    def test_stray_line_break_reports_its_line(self, tmp_path):
        # strip() took these for whitespace at a line's ends, and comments
        # were never checked, so this read as [1.0, 2.0]
        with pytest.raises(ScanFormatError, match="^line 1: line break character"):
            load_points(io.StringIO("1.0\x0c\n\x0b2.0\n# c\x1c\n"))
        for brk in "\x0b\x0c\x1c\x1d\x1e":
            for text, line in [
                (f"1.0\n{brk}2.0\n", 2),
                (f"1.0\n2.0{brk}\n", 2),
                (f"1.0\n{brk}\n2.0\n", 2),
                (f"# circular period=6.0{brk}\n1.0\n", 1),
                (f"1.0\n# a{brk}b\n", 2),
            ]:
                path = tmp_path / "pts.txt"
                path.write_text(text)
                for source in (path, io.StringIO(text)):
                    with pytest.raises(ScanFormatError, match=f"^line {line}: line break"):
                        load_points(source)

    def test_lone_carriage_returns_end_lines_from_any_source(self, tmp_path):
        # a file object used to pass the joined line to float() whole
        text = "# circular period=6.0\r1.5\r\r2.5\r\n3.5\r"
        path = tmp_path / "pts.txt"
        path.write_bytes(text.encode())
        by_path = load_points(path)
        assert by_path[0].tolist() == [1.5, 2.5, 3.5] and by_path[1] == 6.0
        with open(path, newline="") as f:
            from_file = load_points(f)
        from_string = load_points(io.StringIO(text))
        for values, period in (from_file, from_string):
            assert values.tobytes() == by_path[0].tobytes() and period == by_path[1]
        with pytest.raises(ScanFormatError, match="^line 3: not a number"):
            load_points(io.StringIO("1.5\r2.5\rx\r"))


@pytest.mark.parametrize("period", ["0", "inf"])
def test_period_must_be_finite_and_positive(period):
    text = f"# circular period={period}\n1.0\n"
    with pytest.raises(ScanFormatError, match=r"^line 1: period must be finite and > 0$"):
        load_points(io.StringIO(text))


class TestRoomModel:
    def test_simple_polygon_accepted(self):
        square_room()

    def test_too_few_vertices(self):
        with pytest.raises(ValueError):
            RoomModel(np.array([[0.0, 0.0], [1.0, 0.0]]), (0.5, 0.1, 0.0))

    @pytest.mark.parametrize("vertices", [np.zeros(6), np.zeros((4, 3)), np.zeros((2, 2))])
    def test_vertices_must_be_a_polygon_array(self, vertices):
        shape = re.escape(str(vertices.shape))
        with pytest.raises(ValueError, match=rf"^vertices must have shape \(V >= 3, 2\), got {shape}$"):
            RoomModel(vertices)

    @pytest.mark.parametrize("sensor", [(0.0, 0.0), (0.0, 0.0, 0.0, 0.0)])
    def test_sensor_must_be_a_triple(self, sensor):
        verts = np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])
        with pytest.raises(ValueError, match=r"^sensor must be a finite \(x, y, heading\) triple$"):
            RoomModel(verts, sensor)

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

    # each case reaches one rule of the validation first, and the earlier
    # validation (room_reference) gives the same message
    @pytest.mark.parametrize(
        "vertices, sensor, message",
        [
            pytest.param(
                [(0, 0), (4, 0), (4, 3), (2, 0), (0, 3)], (1, 1),
                "polygon is not simple: edges 0 and 2 intersect", id="vertex-on-edge",
            ),
            pytest.param(
                [(1, 0), (3, 0), (2, 3), (4, 0), (0, 0), (2, -2)], (2, 1),
                "polygon is not simple: edges 0 and 3 intersect", id="collinear-overlap",
            ),
            pytest.param(
                [(0, 0), (2, 2), (4, 0), (4, 4), (2, 2), (0, 4)], (1, 2),
                "polygon is not simple: edges 0 and 3 intersect", id="repeated-vertex",
            ),
            pytest.param(
                [(2, 0), (4, 0), (0, 0), (2, 3)], (2, 1),
                "polygon folds back on itself", id="fold-back-onto-next-edge",
            ),
            pytest.param(
                [(0, 0), (4, 0), (2, 0), (2, 3)], (2, 1),
                "polygon folds back on itself", id="fold-back-onto-previous-edge",
            ),
            pytest.param(
                [(0, 0), (2, 0), (2, 3), (4, 0)], (2, 1),
                "polygon folds back on itself", id="fold-back-wrap",
            ),
            pytest.param(
                [(-1, -1), (1, -1), (1, 1), (-1, 1)], (-1, -1),
                "sensor must be strictly inside the polygon", id="sensor-on-vertex",
            ),
            pytest.param(
                [(-1, -1), (1, -1), (1, 1), (-1, 1)], (-1, 0),
                "sensor must be strictly inside the polygon", id="sensor-on-edge",
            ),
            pytest.param(
                [(0, 0), (1, 0), (0, math.inf)], (0.1, 0.1),
                "vertices must be finite", id="infinite-vertex",
            ),
            pytest.param(
                [(0, 0), (1, 0), (0, 1)], (0.1, math.nan),
                "sensor must be a finite (x, y, heading) triple", id="nan-sensor",
            ),
        ],
    )
    def test_each_rule_names_its_fault(self, vertices, sensor, message):
        vertices = np.array(vertices, dtype=np.float64)
        sensor = (*sensor, 0.0)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            RoomModel(vertices, sensor)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            room_reference.validate(vertices, sensor)

    @pytest.mark.parametrize(
        "p1, p2, p3, p4",
        [
            ((1, 0), (1, 2), (0, 0), (2, 0)),  # only p1 lies on p3p4
            ((1, 2), (1, 0), (0, 0), (2, 0)),  # only p2 lies on p3p4
            ((0, 0), (2, 0), (1, 0), (1, 2)),  # only p3 lies on p1p2
            ((0, 0), (2, 0), (1, 2), (1, 0)),  # only p4 lies on p1p2
        ],
        ids=["p1", "p2", "p3", "p4"],
    )
    def test_each_collinear_touch_crosses(self, p1, p2, p3, p4):
        points = [tuple(map(float, p)) for p in (p1, p2, p3, p4)]
        assert scan_io._segments_cross(*points)
        assert room_reference._segments_cross(*points)
        # the same touch one unit away is no crossing
        points[0], points[1] = (p1[0] + 5.0, p1[1]), (p2[0] + 5.0, p2[1])
        assert not scan_io._segments_cross(*points)

    def test_huge_room_is_refused_by_name(self):
        triangle = np.array([[1.5, 2.0], [2.0, 1.0], [0.0, 3.5]])
        with pytest.raises(ValueError, match="^sensor must be strictly inside"):
            RoomModel(triangle, (2.0, 2.0, 0.0))
        # the same room scaled by 2**530: its orientation products overflow,
        # and the earlier validation accepted it with the sensor outside
        scale = 2.0**530
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^room edge tests overflow float64"):
                RoomModel(triangle * scale, (2.0 * scale, 2.0 * scale, 0.0))

    def test_noise_model_validation(self):
        with pytest.raises(ValueError):
            NoiseModel(-0.1, 0.0)
        with pytest.raises(ValueError):
            NoiseModel(0.0, 1.5)
        with pytest.raises(ValueError, match=r"^range_noise_sigma must be a number, got '0\.1'$"):
            NoiseModel("0.1")
        with pytest.raises(ValueError, match=r"^dropout_probability must be a number, got '0\.5'$"):
            NoiseModel(0.0, "0.5")
        NoiseModel(np.float64(0.1), np.array(0.5))

    def test_noise_model_rejects_infinite_sigma(self):
        with pytest.raises(ValueError, match=r"^sigma must be >= 0, got inf$"):
            NoiseModel(range_noise_sigma=math.inf)

    @pytest.mark.parametrize("seed", [-1, 1.5])
    def test_noise_model_rejects_bad_seed(self, seed):
        # caught when the model is made, not inside numpy's generator
        with pytest.raises(ValueError, match=r"seed must be an integer >= 0, got"):
            NoiseModel(0.01, 0.0, seed)


class TestGenerator:
    def test_needs_a_beam(self):
        with pytest.raises(ValueError, match=r"^beams must be >= 1, got 0$"):
            generate_scan(square_room(), 0)

    def test_needs_a_whole_beam_count(self):
        # refused before any ray is cast; a NumPy integer is a count
        with pytest.raises(ValueError, match=r"^beams must be an integer, got 2\.5$"):
            generate_scan(square_room(), 2.5)
        scan, _ = generate_scan(square_room(), np.int64(3))
        assert scan.beam_angles.shape == (3,)

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
    @pytest.mark.parametrize("vertex, wall", [(0, 0), (2, 1)])
    def test_vertex_hit_names_the_lower_edge(self, vertex, wall):
        """A beam through vertex i hits edge i - 1, which that vertex closes,
        except through vertex 0, where edge 0 is the lowest it touches."""
        verts = np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])
        u = math.sqrt(0.5) * verts[vertex]
        assert _vertex_hit(verts, 0.0, 0.0, *u) == (math.sqrt(2.0), wall)

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


# Block parsing.  A block of scan records has one accepting parser, and
# a point-list block takes the NumPy path only when its lines cast; every
# other point-list block goes line by line.  The reference reads the whole
# text line by line with the earlier per-record parser
# (tests/read_reference.py): results and errors must not depend on the
# block size or on how the source was opened.

# tokens NumPy must parse as float() does, or refuse as it does: the block
# parser relies on this, so a NumPy release that changes it fails here
PARSE_CASES = [
    "1_0", "infinity", "inF", "nan", "1e400", "1e-400", "4.9e-324", "-0.0",
    "+.5", "0x1p3", ".", "1e", "1.7976931348623159e308", "1" * 40 + ".5",
    "1\x00", "", "|", "-", "1e+", "_1", "1__0", "2.5e-08",
]


def parse_bits(token):
    """(numpy's bits or ValueError, float()'s bits or ValueError)."""
    out = []
    for parse in (lambda t: np.array([t], np.float64)[0], float):
        try:
            out.append(np.float64(parse(token)).tobytes())
        except ValueError:
            out.append(ValueError)
    return tuple(out)


@pytest.mark.parametrize("token", PARSE_CASES)
def test_numpy_parses_text_as_float_does(token):
    numpy_bits, float_bits = parse_bits(token)
    assert numpy_bits == float_bits


ASCII_TOKENS = st.one_of(
    st.text(st.characters(codec="ascii"), max_size=12),
    st.from_regex(r"[+-]?[0-9_]*\.?[0-9_]*([eE][+-]?[0-9]{0,4})?", fullmatch=True),
    st.floats().map(repr),
    st.floats(allow_nan=False).map(lambda v: f"{v:.25e}"),
)

# a point-list block casts whole lines, so the spaces around a number too
ASCII_LINES = st.tuples(
    st.text(" \t", max_size=3), ASCII_TOKENS, st.text(" \t", max_size=3)
).map("".join)


@settings(max_examples=60)
@given(st.lists(ASCII_TOKENS | ASCII_LINES, min_size=1, max_size=8))
def test_numpy_parses_any_ascii_token_as_float_does(tokens):
    for token in tokens:
        numpy_bits, float_bits = parse_bits(token)
        assert numpy_bits == float_bits
    # a whole column at once, as the block parser casts it
    column, each = [], []
    for out, parse in ((column, lambda: np.array(tokens, np.float64)),
                       (each, lambda: np.array([float(t) for t in tokens]))):
        try:
            out.append(parse().tobytes())
        except ValueError:
            out.append(ValueError)
    assert column == each


def outcome(load, source):
    """What a load gives: the bytes of its arrays, or its error."""
    try:
        result = load(source)
    except ScanFormatError as e:
        return "error", str(e)
    if isinstance(result, Scan):
        arrays = (result.beam_angles, result.ranges, result.valid)
        return tuple(a.tobytes() for a in arrays), result.full_circle
    values, period = result
    assert values.dtype == np.float64 and values.ndim == 1
    return values.tobytes(), period


def outcomes(load, path, text):
    """Outcomes from a StringIO and, when the text encodes, by path and
    through open() in three newline modes."""
    out = [outcome(load, io.StringIO(text))]
    if path is not None:
        out.append(outcome(load, path))
        for newline in (None, "", "\r"):
            with open(path, encoding="ascii", errors="surrogateescape", newline=newline) as f:
                out.append(outcome(load, f))
    return out


# a read hint of a few lines, so that small files span many blocks
SMALL_BLOCK = 50


# each loader's line-by-line reference
REFERENCE = {load_scan: read_reference.load_scan, load_points: read_reference.load_points}


def assert_same_in_any_blocks(monkeypatch, tmp_path, load, text, sizes=(1, SMALL_BLOCK, None)):
    """The outcome of every source at every block size is the reference's.

    A non-ASCII byte read by path decodes to a lone surrogate, so a text
    holding other non-ASCII characters is read from a StringIO only.
    """
    path = tmp_path / "input.txt"
    try:
        path.write_bytes(text.encode("ascii", "surrogateescape"))
    except UnicodeEncodeError:
        path = None
    expected = outcome(REFERENCE[load], io.StringIO(text))
    for size in sizes:
        with monkeypatch.context() as m:
            if size is not None:
                m.setattr(scan_io, "_READ_BLOCK", size)
            got = outcomes(load, path, text)
        assert got == [expected] * len(got)
    return expected


def scan_text(beams, seed=0):
    scan, _ = generate_scan(square_room(), beams, NoiseModel(0.01, 0.2, seed))
    buf = io.StringIO()
    save_scan(scan, buf)
    return buf.getvalue()


def points_text(n, seed=0, period=True):
    values = np.random.default_rng(seed).uniform(0.0, TWO_PI, n)
    head = f"# circular period={TWO_PI!r}\n" if period else ""
    return head + "".join(f"{v!r}\n" for v in values.tolist())


def block_starts(text):
    """Line numbers that open a block of SMALL_BLOCK-character reads."""
    lines = text.splitlines(keepends=True)
    starts, lineno = [], 1
    f = io.StringIO(text)
    while block := f.readlines(SMALL_BLOCK):
        starts.append(lineno)
        lineno += len(block)
    assert lineno == len(lines) + 1
    return starts


def corrupt(text, lineno, bad):
    lines = text.split("\n")
    lines[lineno - 1] = bad(lines[lineno - 1])
    return "\n".join(lines)


SCAN = scan_text(40)
POINTS = points_text(60)

HEAD, RECORDS = SCAN.split("\n", 1)

VALID_SCANS = [
    SCAN,
    HEAD + "\n" + RECORDS.replace(" ", "\t"),
    HEAD + "\n" + RECORDS.replace(" ", "   "),
    HEAD + "\n " + RECORDS.replace("\n", " \n"),
    SCAN.rstrip("\n"),
    SCAN.replace("\n", "\r\n"),
    SCAN.replace("\n", "\r"),
    "beams=0 full_circle=1\n",
    "beams=0 full_circle=0",
    "beams=1 full_circle=0\n1_0 +.5 1\n",
    "beams=2 full_circle=1\n1e-400 -0.0 1\n-1.5 -2.0 0\n",
]

VALID_POINTS = [
    POINTS,
    points_text(60, period=False),
    POINTS.replace("\n", "\n\n"),
    POINTS.replace("\n", " \t\n  "),
    POINTS.rstrip("\n"),
    POINTS.replace("\n", "\r\n"),
    POINTS.replace("\n", "\r"),
    corrupt(POINTS, 30, lambda line: "# a comment\n" + line),
    corrupt(POINTS, 45, lambda line: f"# circular period=3.0\n{line}"),
    "# only a comment\n",
    "",
    "\n\n",
    "1_0\n+.5\n1e-400\n-0.0\n",
]


@pytest.mark.parametrize("text", VALID_SCANS, ids=range(len(VALID_SCANS)))
def test_valid_scans_parse_as_line_by_line(monkeypatch, tmp_path, text):
    arrays, _ = assert_same_in_any_blocks(monkeypatch, tmp_path, load_scan, text)
    assert len(arrays[0]) == 8 * int(text.split()[0][6:])


@pytest.mark.parametrize("text", VALID_POINTS, ids=range(len(VALID_POINTS)))
def test_valid_point_lists_parse_as_line_by_line(monkeypatch, tmp_path, text):
    values, _ = assert_same_in_any_blocks(monkeypatch, tmp_path, load_points, text)
    assert values != "error"


def scan_corruptions():
    """Seeded corruptions of SCAN in the first block, on both sides of a
    block boundary and in the last block, plus whole-file cases."""
    rng = np.random.default_rng(14)
    bad = [
        lambda r: r.replace(" ", " x", 1),
        lambda r: r[:-1] + "2",
        lambda r: r.rsplit(" ", 1)[0],
        lambda r: r + " 1",
        lambda r: "nan " + r.split(" ", 1)[1],
        lambda r: r.split(" ")[0] + " -1.5 1",
        lambda r: r.replace(" ", "\x0c", 1),
        lambda r: r.replace(" ", " \udce9", 1),
        lambda r: "١" + r[1:],
        lambda r: "",
        lambda r: r.replace(" ", "|", 1),
        lambda r: r + " |",
    ]
    starts = block_starts(SCAN)
    lines = [3, starts[4] - 1, starts[4], SCAN.count("\n")]
    for lineno in lines:
        for k in rng.permutation(len(bad))[:6].tolist():
            yield corrupt(SCAN, lineno, bad[k])
    last = SCAN.count("\n")
    yield SCAN[: SCAN.rindex(" ")]  # truncated final record
    yield SCAN + "\n"  # a trailing blank line is a record
    yield corrupt(SCAN, 12, lambda r: r + " 1") + "0.1 1.0 1\n"  # the count wins
    yield corrupt(SCAN, last, lambda r: "x").replace("beams=40", "beams=41")
    yield corrupt(SCAN, 1, lambda r: "beams=40 full_circle=2")
    yield SCAN.replace("\n", "\n\n", 1)
    yield SCAN.replace("beams=40", "beams=41") + "  "  # a last record of spaces
    # two records on one line, joined by a token where a marker would go
    yield corrupt(SCAN, 7, lambda r: r + " 5 " + r).replace("beams=40", "beams=41")


def point_corruptions():
    rng = np.random.default_rng(41)
    bad = [
        lambda v: v + "x",
        lambda v: v + " 1",
        lambda v: "inf",
        lambda v: "-nan",
        lambda v: v + "\x0b",
        lambda v: "\x1e" + v,
        lambda v: v + "\udce9",
        lambda v: "١" + v[1:],
        lambda v: "|",
        lambda v: v + " |",
        lambda v: "# circular period=x",
        lambda v: "# circular period=0",
    ]
    starts = block_starts(POINTS)
    for lineno in [2, starts[5] - 1, starts[5], POINTS.count("\n")]:
        for k in rng.permutation(len(bad))[:6].tolist():
            yield corrupt(POINTS, lineno, bad[k])
    yield POINTS[:-3] + " x"  # truncated final value
    yield corrupt(POINTS, 33, lambda v: v + " 1\n")  # two values, then a blank line
    yield corrupt(POINTS, 33, lambda v: v + " x " + v)  # two values and a token between
    yield corrupt(POINTS, 20, lambda v: v + "x").replace("\n", "\r", 10)


SCAN_ERRORS = list(scan_corruptions())
POINT_ERRORS = list(point_corruptions())


@pytest.mark.parametrize("text", SCAN_ERRORS, ids=range(len(SCAN_ERRORS)))
def test_scan_errors_do_not_depend_on_blocks(monkeypatch, tmp_path, text):
    kind, _ = assert_same_in_any_blocks(monkeypatch, tmp_path, load_scan, text)
    assert kind == "error"


@pytest.mark.parametrize("text", POINT_ERRORS, ids=range(len(POINT_ERRORS)))
def test_point_errors_do_not_depend_on_blocks(monkeypatch, tmp_path, text):
    kind, _ = assert_same_in_any_blocks(monkeypatch, tmp_path, load_points, text)
    assert kind == "error"


def per_line_blocks(monkeypatch):
    """The non-empty blocks handed to the per-line parsers, by name."""
    seen = {"_scan_error": [], "_point_lines": []}
    for name, blocks in seen.items():

        def spy(block, *args, parse=getattr(scan_io, name), blocks=blocks):
            if block:
                blocks.append(block)
            return parse(block, *args)

        monkeypatch.setattr(scan_io, name, spy)
    return seen


def test_plain_files_take_the_block_path(monkeypatch, tmp_path):
    # a plain scan names no error, and only a point list's leading
    # comment goes line by line
    seen = per_line_blocks(monkeypatch)
    monkeypatch.setattr(scan_io, "_READ_BLOCK", SMALL_BLOCK)
    path = tmp_path / "input.txt"
    for load, text in ((load_scan, SCAN), (load_points, POINTS)):
        path.write_text(text)
        load(path)
    assert seen == {"_scan_error": [], "_point_lines": [POINTS.split("\n")[0] + "\n"]}


@pytest.mark.parametrize("size", [1, SMALL_BLOCK, None])
def test_unended_last_line_takes_the_block_path(monkeypatch, size):
    # the last block gets the missing "\n", so it casts as any other
    seen = per_line_blocks(monkeypatch)
    if size is not None:
        monkeypatch.setattr(scan_io, "_READ_BLOCK", size)
    for load, text in ((load_scan, SCAN), (load_points, POINTS)):
        ended = outcome(load, io.StringIO(text))
        assert outcome(load, io.StringIO(text.rstrip("\n"))) == ended
        assert ended[0] != "error"
    assert seen["_scan_error"] == []
    assert set(seen["_point_lines"]) == {POINTS.split("\n")[0] + "\n"}


def test_record_count_is_reported_before_a_bad_record():
    bad = corrupt(SCAN, 3, lambda r: "x")
    for text in (bad + "0.0 1.0 1\n", bad.rsplit("\n", 2)[0] + "\n"):
        with pytest.raises(ScanFormatError, match="^header declares 40 beams but file has"):
            load_scan(io.StringIO(text))
    with pytest.raises(ScanFormatError, match="^line 3: expected"):
        load_scan(io.StringIO(bad))


ANGLES = st.floats(allow_nan=False, allow_infinity=False).map(repr) | st.sampled_from(
    read_sweep.NUMBERS
)
RANGES = st.floats(0.0, 1e6).map(repr) | st.sampled_from(read_sweep.NUMBERS)


@st.composite
def record_blocks(draw):
    """1-8 lines, each ending in "\\n": most hold three tokens between
    spaces, tabs or "\\x1f"; some hold any tokens (none makes a blank
    line) between any separators, stray line breaks too."""
    lines = []
    for _ in range(draw(st.integers(1, 8))):
        seps = read_sweep.SEPARATORS
        if draw(st.integers(0, 7)):
            fields = [draw(ANGLES), draw(RANGES), draw(st.sampled_from(read_sweep.FLAGS))]
        else:
            fields = draw(st.lists(st.sampled_from(read_sweep.TOKENS) | RANGES, max_size=5))
            seps = seps + read_sweep.ODD_SEPARATORS
        n = len(fields) + 1
        seps = draw(st.lists(st.sampled_from(seps), min_size=n, max_size=n))
        lines.append(seps[0] + "".join(f + s for f, s in zip(fields, seps[1:])) + "\n")
    return "".join(lines)


@settings(max_examples=200)
@given(record_blocks(), st.integers(2, 10**6))
def test_block_parser_accepts_what_the_reference_accepts(block, lineno):
    # same bits when both accept, else the reference's message and line
    assert read_sweep.mismatch(block, lineno) is None


def test_room_sweep_sample():
    """A sample of the large sweep CI runs (tests/room_sweep.py)."""
    seen, bad = room_sweep.sweep(4_000, seed=18)
    assert bad is None
    # the sample reaches every outcome
    assert len(seen) == 5 and sum(seen.values()) == 4_000


def test_read_sweep_sample():
    """A sample of the large sweep CI runs (tests/read_sweep.py)."""
    assert read_sweep.sweep(40_000, seed=16) == (40_000, None)


@pytest.fixture(scope="module")
def large_files(tmp_path_factory):
    """A 1e5-beam scan and a 2e5-value point list, many blocks each."""
    d = tmp_path_factory.mktemp("large")
    scan, _ = generate_scan(RoomModel(ROOM8), 100_000, NoiseModel(1e-6, 0.02, 5))
    save_scan(scan, d / "scan.txt")
    (d / "points.txt").write_text(points_text(200_000, seed=3))
    return d / "scan.txt", d / "points.txt"


def test_large_scan_parses_as_line_by_line(large_files):
    scan_path = large_files[0]
    with open(scan_path) as f:
        assert outcome(load_scan, scan_path) == outcome(read_reference.load_scan, f)
    # a bad record in the last block, with the right record count
    text = scan_path.read_text()
    cut = text.rindex("\n", 0, -1) + 1
    with pytest.raises(ScanFormatError, match="^line 100001: bad number in 'x 1.0 1'"):
        load_scan(io.StringIO(text[:cut] + "x 1.0 1\n"))


@pytest.mark.parametrize("which, bound", [(0, 6_000_000), (1, 4_000_000)])
def test_parse_peak_allocation_stays_bounded(large_files, which, bound):
    """The parse holds one block of text at a time.  Reading whole files,
    the 1e5-beam scan peaked at 12.7 MB and the 2e5-value list at 7.6 MB;
    the scan's own five arrays take 4.1 MB and the list's values 1.6 MB."""
    load = (load_scan, load_points)[which]
    path = large_files[which]
    load(path)
    tracemalloc.start()
    try:
        load(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound


@pytest.mark.parametrize("which", ["save_scan", "cluster labels"])
def test_write_peak_allocation_stays_bounded(tmp_path, which):
    """The writer holds one block of rows at a time.  Formatted by ``%``,
    a 1e5-beam save_scan peaked at 1.45 MB and these 2e5 "%r\\t%d" rows
    at 1.04 MB; the byte matrix, the float kernel's temporaries and the
    text of one block must stay under 2 MB."""
    if which == "save_scan":
        scan, _ = generate_scan(RoomModel(ROOM8), 100_000, NoiseModel(1e-6, 0.02, 5))
        write = lambda: save_scan(scan, tmp_path / "scan.txt")
    else:
        rng = np.random.default_rng(3)
        values = rng.uniform(0.0, TWO_PI, 200_000)
        labels = rng.integers(-1, 400, 200_000)

        def write():
            with open(tmp_path / "labels.txt", "w") as f:
                scan_io._write_rows(f, "%r\t%d\n", values, labels)

    write()
    tracemalloc.start()
    try:
        write()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2_000_000
