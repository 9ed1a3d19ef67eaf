"""Command line interface, driven in-process through main()."""

import hashlib
import os
import subprocess
import sys
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scanseg
from scanseg import (
    BorderPolicy,
    CircularDomain,
    DbscanParams,
    Scan,
    dbscan_1d,
    dbscan_1d_circular,
    load_points,
    load_scan,
    save_scan,
)
from scanseg import scan_io
from scanseg.cli import main

SRC = os.path.dirname(os.path.dirname(scanseg.__file__))

# (-a, 1), (0, 1), (a, 1), an invalid beam, (a, -1), (0, -1), (-a, -1)
# with a = sqrt(1.5), so that the x and y spreads match
ISOTROPIC_SCAN = """beams=7 full_circle=0
2.4568734505875103 1.5811388300841895 1
1.5707963267948966 1.0 1
0.684719203002283 1.5811388300841895 1
0.0 0.0 0
5.598466104177303 1.5811388300841895 1
4.71238898038469 1.0 1
3.826311856592076 1.5811388300841895 1
"""


def write(path, text):
    path.write_text(text)
    return str(path)


@pytest.fixture
def points_file(tmp_path):
    return write(tmp_path / "pts.txt", "0.0\n0.4\n0.8\n5.0\n5.3\n5.6\n")


class TestCluster:
    def test_two_clusters(self, points_file, capsys):
        assert main(["cluster", points_file, "--epsilon", "0.5", "--min-points", "3"]) == 0
        out = capsys.readouterr()
        lines = out.out.splitlines()
        labeled = [l for l in lines if not l.startswith("#")]
        assert labeled == ["0.0\t1", "0.4\t1", "0.8\t1", "5.0\t2", "5.3\t2", "5.6\t2"]
        summaries = [l for l in lines if l.startswith("# cluster")]
        assert summaries == [
            "# cluster id=1 lower=0 upper=2 size=3",
            "# cluster id=2 lower=3 upper=5 size=3",
        ]
        assert "load_ns=" in out.err and "sort_ns=" in out.err and "cluster_ns=" in out.err
        assert "write_ns=" in out.err

    def test_unsorted_input_is_sorted_for_clustering(self, tmp_path, capsys):
        # labels come back in the file's own line order
        path = write(tmp_path / "shuffled.txt", "5.3\n0.0\n5.0\n0.4\n5.6\n0.8\n")
        assert main(["cluster", path, "--epsilon", "0.5", "--min-points", "3"]) == 0
        out = capsys.readouterr().out
        labels = [line.split("\t")[1] for line in out.splitlines() if "\t" in line]
        assert labels == ["2", "1", "2", "1", "2", "1"]

    def test_empty_file(self, tmp_path, capsys):
        path = write(tmp_path / "empty.txt", "")
        assert main(["cluster", path, "--epsilon", "1", "--min-points", "2"]) == 0
        assert capsys.readouterr().out == ""

    def test_zero_epsilon_groups_duplicates(self, tmp_path, capsys):
        path = write(tmp_path / "dup.txt", "1.0\n1.0\n2.5\n")
        assert main(["cluster", path, "--epsilon", "0", "--min-points", "2"]) == 0
        out = capsys.readouterr().out
        labels = [line.split("\t")[1] for line in out.splitlines() if "\t" in line]
        assert labels == ["1", "1", "-1"]

    def test_circular_period_flag(self, tmp_path, capsys):
        path = write(tmp_path / "circ.txt", "0.1\n0.2\n3.0\n6.2\n")
        code = main(
            [
                "cluster",
                path,
                "--epsilon",
                "0.3",
                "--min-points",
                "2",
                "--circular-period",
                str(2 * np.pi),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        labels = [line.split("\t")[1] for line in out.splitlines() if "\t" in line]
        assert labels == ["1", "1", "-1", "1"]

    def test_period_comment_in_file(self, tmp_path, capsys):
        path = write(
            tmp_path / "hdr.txt", f"# circular period={2 * np.pi!r}\n0.1\n0.2\n3.0\n6.2\n"
        )
        assert main(["cluster", path, "--epsilon", "0.3", "--min-points", "2"]) == 0
        out = capsys.readouterr().out
        labels = [line.split("\t")[1] for line in out.splitlines() if "\t" in line]
        assert labels == ["1", "1", "-1", "1"]

    def test_border_policy_flag(self, points_file, capsys):
        code = main(
            [
                "cluster",
                points_file,
                "--epsilon",
                "0.5",
                "--min-points",
                "3",
                "--border-policy",
                "noise",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        labels = [line.split("\t")[1] for line in out.splitlines() if "\t" in line]
        assert labels == ["-1", "1", "-1", "-1", "2", "-1"]

    def test_output_file(self, points_file, tmp_path, capsys):
        target = tmp_path / "labels.txt"
        code = main(
            [
                "cluster",
                points_file,
                "--epsilon",
                "0.5",
                "--min-points",
                "3",
                "--output",
                str(target),
            ]
        )
        assert code == 0
        assert capsys.readouterr().out == ""
        assert "0.0\t1" in target.read_text()

    def test_missing_file_fails(self, capsys):
        assert main(["cluster", "/nonexistent.txt", "--epsilon", "1", "--min-points", "2"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_value_fails(self, tmp_path, capsys):
        path = write(tmp_path / "bad.txt", "1.0\nzap\n")
        assert main(["cluster", path, "--epsilon", "1", "--min-points", "2"]) == 2
        assert "line 2" in capsys.readouterr().err


# sha256 of the outputs of test_golden_bytes: a change to any of them is
# a change of the output formats
GOLDEN = {
    "generate": "d5d9bb76c85dd5aa48679529be197a4eda211aca3963b2e7c8b96a390d993763",
    "segment labels": "57ff75b57e7a0810499b8577eb8fa3344f65f9ae4c3444eaed450d1a390ca561",
    "segment lines": "425bc3276aa587acd5a9591a80f3f9e68a39b61db516ad4b9cbfeb429945be05",
    "cluster": "57a1eed0275be132e969922cd4d691929ecac385ebd2ca5443deee3c94d9c74c",
}


def test_golden_bytes(tmp_path, capsys):
    """generate, then segment and a circular ALL_CLUSTERS cluster, byte for byte.

    segment's stdout passes through numpy's sin, cos and arctan2, whose last
    bit depends on the SIMD target, so its floats are pinned at ten
    significant digits and checked to be written as repr; every other
    output is pinned byte for byte.
    """
    room = "-4,-3;4,-3;4,3;1,3;1,5;-1,5;-1,2.5;-4,2.5"
    scan_path = tmp_path / "scan.txt"
    generate = ["generate", f"--room={room}", "--beams", "720", "--noise-sigma", "0.001",
                "--dropout", "0.05", "--seed", "11"]
    assert main(generate + ["--output", str(scan_path)]) == 0
    assert main(generate) == 0
    assert capsys.readouterr().out.encode() == scan_path.read_bytes()

    labels_path = tmp_path / "labels.txt"
    assert main(["segment", str(scan_path), "--eps-theta", "0.1", "--eps-dist", "0.05",
                 "--min-points", "8", "--output", str(labels_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert len(rows) >= 8
    for row in rows:
        assert all(repr(float(tok)) == tok for tok in row[2:])
    lines = "\n".join(
        " ".join(row[:2] + [f"{float(tok):.9e}" for tok in row[2:]]) for row in rows
    )

    # quantized bearings: duplicate runs, a group across the seam, noise
    rng = np.random.Generator(np.random.Philox(5))
    centers = np.array([0.0, 0.9, 1.7, 2.95, 4.1, 5.3])
    groups = centers[:, None] + 0.02 * (2.0 * rng.random((6, 50)) - 1.0)
    values = np.concatenate((groups.ravel(), 2.0 * np.pi * rng.random(60)))
    values = np.floor(rng.permutation(values % (2.0 * np.pi)) / 1e-3) * 1e-3
    points_path = write(
        tmp_path / "bearings.txt",
        f"# circular period={2.0 * np.pi!r}\n" + "".join(f"{v!r}\n" for v in values.tolist()),
    )
    assert main(["cluster", points_path, "--epsilon", "0.004", "--min-points", "4",
                 "--border-policy", "all"]) == 0
    cluster = capsys.readouterr().out

    got = {
        "generate": scan_path.read_bytes(),
        "segment labels": labels_path.read_bytes(),
        "segment lines": lines.encode(),
        "cluster": cluster.encode(),
    }
    assert {k: hashlib.sha256(v).hexdigest() for k, v in got.items()} == GOLDEN


def stable_cluster_text(values, epsilon, min_points, policy, period):
    """What scanseg cluster writes, from a sort that keeps equal values in
    file order."""
    order = np.argsort(values, kind="stable")
    params = DbscanParams(epsilon, min_points, BorderPolicy(policy))
    if period is None:
        labels, clusters = dbscan_1d(values[order], params)
    else:
        labels, clusters = dbscan_1d_circular(values[order], params, CircularDomain(period))
    original = np.empty_like(labels)
    original[order] = labels
    rows = [f"{v!r}\t{label}\n" for v, label in zip(values.tolist(), original.tolist())]
    rows += [f"# cluster id={c.id} lower={c.lower} upper={c.upper} size={c.size}\n" for c in clusters]
    return "".join(rows)


@pytest.mark.parametrize("period", [None, 1.0])
def test_cluster_bytes_do_not_hang_on_tie_order(tmp_path, capsys, period):
    """scanseg cluster sorts without keeping equal values in order: on
    long duplicate runs, a mix of -0.0 and 0.0 and a border run contested
    by two clusters, every policy writes the bytes of a stable sort."""
    q = 2.0**-10  # a grid step that makes every value and epsilon exact
    rng = np.random.Generator(np.random.Philox(29))
    # runs on random grid points away from the seam and from 502 q, then
    # 40 zeros, a run at 1023 q that the ring chains to them across the
    # seam, and a border run at 502 q that two clusters contest: 500 q and
    # 504 q are cores, 502 q sees 5 < min_points values
    grid = np.concatenate((np.arange(8, 470), np.arange(540, 1010)))
    steps = [*rng.choice(grid, 150, replace=False), 0, 1023, 496, 498, 500, 502, 504, 506, 508]
    counts = [*rng.integers(1, 60, 150), 40, 30, 10, 10, 1, 3, 1, 10, 10]
    values = np.repeat(q * np.array(steps, dtype=np.float64), counts)
    zeros = values == 0.0
    values[zeros] *= rng.choice([-1.0, 1.0], int(zeros.sum()))
    values = rng.permutation(values)
    path = write(tmp_path / "points.txt", "".join(f"{v!r}\n" for v in values.tolist()))
    # the sort really leaves ties in another order than the stable one
    assert not np.array_equal(np.argsort(values), np.argsort(values, kind="stable"))

    args = ["cluster", path, "--epsilon", repr(2 * q), "--min-points", "6"]
    if period is not None:
        args += ["--circular-period", repr(period)]
    texts = set()
    for policy in BorderPolicy:
        assert main([*args, "--border-policy", policy.value]) == 0
        text = capsys.readouterr().out
        assert text == stable_cluster_text(values, 2 * q, 6, policy.value, period)
        texts.add(text)
    assert len(texts) == 3
    assert "\n-0.0\t" in text and "\n0.0\t" in text


def cluster_file_text(path, epsilon, min_points, policy, period):
    """What scanseg cluster writes for the point list at ``path``."""
    output = os.path.join(os.path.dirname(path), "clusters.txt")
    args = ["cluster", path, "--epsilon", repr(epsilon), "--min-points", str(min_points),
            "--border-policy", policy, "--output", output]
    if period is not None:
        args += ["--circular-period", repr(period)]
    assert main(args) == 0
    with open(output, encoding="ascii") as f:
        return f.read()


def point_file(directory, values):
    path = os.path.join(directory, "points.txt")
    with open(path, "w", encoding="ascii") as f:
        f.write("".join(f"{v!r}\n" for v in values.tolist()))
    return path


_RNG = np.random.Generator(np.random.Philox(31))
# each row of the cluster output is formatted once per distinct (value,
# label) and gathered in file order: runs longer than a write block,
# signed zeros side by side in the sort, no run longer than one row, one
# row and none
CLUSTER_INPUTS = {
    "long run": _RNG.permutation(np.repeat([0.1, 0.25, 0.9], [3, 2 * scan_io._WRITE_BLOCK + 5, 20])),
    "signed zeros": np.concatenate((np.tile([-0.0, 0.0], 150), np.full(5, 2.0**-12))),
    "all distinct": _RNG.uniform(0.0, 1.0, 10_000),
    "one value": np.array([0.5]),
    "empty": np.empty(0),
}


@pytest.mark.parametrize("period", [None, 1.0])
@pytest.mark.parametrize("name", list(CLUSTER_INPUTS))
def test_cluster_bytes_match_stable_text(tmp_path, name, period):
    values = CLUSTER_INPUTS[name]
    path = point_file(tmp_path, values)
    for policy in BorderPolicy:
        text = cluster_file_text(path, 2e-4, 4, policy.value, period)
        assert text == stable_cluster_text(values, 2e-4, 4, policy.value, period)


Q = 2.0**-4  # a lattice step that makes every value and epsilon exact
LATTICE = st.lists(st.sampled_from([-0.0, *(Q * k for k in range(16))]), max_size=80)


@settings(max_examples=150)
@given(
    values=LATTICE,
    epsilon=st.sampled_from([0.0, Q, 2 * Q]),
    min_points=st.integers(1, 6),
    policy=st.sampled_from([p.value for p in BorderPolicy]),
    period=st.sampled_from([None, 1.0]),
)
def test_cluster_bytes_across_write_blocks(values, epsilon, min_points, policy, period):
    """Many repeats on a small lattice (one that chains across the ring's
    seam), written in blocks of 7 rows, so that runs of equal rows and the
    gathers of their text cross block edges."""
    values = np.array(values, np.float64)
    with tempfile.TemporaryDirectory() as d, pytest.MonkeyPatch.context() as m:
        m.setattr(scan_io, "_WRITE_BLOCK", 7)
        text = cluster_file_text(point_file(d, values), epsilon, min_points, policy, period)
    assert text == stable_cluster_text(values, epsilon, min_points, policy, period)


def cluster_peak(directory, values):
    """tracemalloc's peak over a second scanseg cluster run on ``values``
    on a ring, after one that warms every lazy import and table."""
    path = os.path.join(directory, "bearings.txt")
    with open(path, "w", encoding="ascii") as f:
        f.write(f"# circular period={2.0 * np.pi!r}\n" + "".join(f"{v!r}\n" for v in values.tolist()))
    args = ["cluster", path, "--epsilon", "3e-4", "--min-points", "16", "--border-policy", "all",
            "--output", os.path.join(directory, "clusters.txt")]
    assert main(args) == 0
    tracemalloc.start()
    try:
        assert main(args) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def quantized_bearings(n, rng):
    """n bearings in 24 dense groups quantized to 1e-4 rad, as encoder
    bearings are: about 5e3 distinct values."""
    centers = 2.0 * np.pi * np.arange(24) / 24
    values = rng.choice(centers, n) + rng.uniform(-0.01, 0.01, n)
    return np.floor((values % (2.0 * np.pi)) / 1e-4) * 1e-4


@pytest.mark.parametrize("kind, bound", [("quantized", 8_880_000), ("distinct", 14_000_000)])
def test_cluster_peak_allocation_stays_bounded(tmp_path, kind, bound):
    """Formatting every row, the command peaked at 9.35 MB on 2e5
    quantized bearings and at 9.37 MB on 2e5 distinct ones.  The table of
    distinct rows is small on the first, which must not peak higher than
    8.88 MB; on the second it holds every row, 40 bytes each, and the
    peak must stay within 1.5 times that of formatting every row."""
    rng = np.random.Generator(np.random.Philox(7))
    if kind == "quantized":
        values = quantized_bearings(200_000, rng)
    else:
        values = rng.uniform(0.0, 2.0 * np.pi, 200_000)
    assert cluster_peak(tmp_path, values) <= bound


class TestSegment:
    def run_generate(self, tmp_path, **kw):
        scan_path = tmp_path / "scan.txt"
        args = ["generate", "--room", "square", "--beams", "360", "--output", str(scan_path)]
        for key, val in kw.items():
            args += [f"--{key.replace('_', '-')}", str(val)]
        assert main(args) == 0
        return scan_path

    def test_square_scan_yields_four_lines(self, tmp_path, capsys):
        scan_path = self.run_generate(tmp_path)
        label_path = tmp_path / "labels.txt"
        code = main(
            [
                "segment",
                str(scan_path),
                "--eps-theta",
                "0.1",
                "--eps-dist",
                "0.2",
                "--min-points",
                "16",
                "--output",
                str(label_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr()
        report = [line.split() for line in out.out.splitlines()]
        assert len(report) == 4
        for row in report:
            assert len(row) == 5
            assert int(row[1]) == 89
            assert float(row[3]) == pytest.approx(2.0, abs=1e-9)
        assert "load_ns=" in out.err and "segmentation_ns=" in out.err and "fitting_ns=" in out.err
        assert "write_ns=" in out.err
        labels = np.loadtxt(label_path, dtype=np.int64)
        assert labels.size == 360
        assert set(np.unique(labels)) == {-1, 1, 2, 3, 4}
        counts = {cid: int(np.sum(labels == cid)) for cid in (1, 2, 3, 4)}
        assert all(v == 89 for v in counts.values())

    def test_all_faulty_scan_fails(self, tmp_path, capsys):
        body = "".join(f"{k * 0.1} 0.0 0\n" for k in range(8))
        scan_path = write(tmp_path / "faulty.txt", "beams=8 full_circle=0\n" + body)
        code = main(
            [
                "segment",
                str(scan_path),
                "--eps-theta",
                "0.1",
                "--eps-dist",
                "0.2",
                "--min-points",
                "2",
                "--output",
                str(tmp_path / "x.txt"),
            ]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "record",
        ["{k:.3f} 1.6e308 1\n", "0.0 {k}e200 1\n"],
        ids=["huge-coordinates", "huge-spacing"],
    )
    def test_overflowing_scan_fails(self, tmp_path, capsys, record):
        body = "".join(record.format(k=k) for k in range(40))
        scan_path = write(tmp_path / "huge.txt", "beams=40 full_circle=0\n" + body)
        argv = ["segment", str(scan_path), "--eps-theta", "0.1", "--eps-dist", "0.2",
                "--min-points", "4", "--output", str(tmp_path / "x.txt")]
        assert main(argv) == 2
        assert "error: local angle windows overflow float64" in capsys.readouterr().err

    def test_overflowing_fit_fails(self, tmp_path, capsys):
        # one straight wall 4e154 long, whose line fit overflows float64
        scan = Scan.from_xy((np.arange(40.0) - 20.0) * 1e153, np.full(40, 1e153))
        save_scan(scan, tmp_path / "wall.txt")
        argv = ["segment", str(tmp_path / "wall.txt"), "--eps-theta", "0.1", "--eps-dist",
                "1e154", "--min-points", "4", "--output", str(tmp_path / "x.txt")]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "error: line fit overflows float64: points too large or too far apart\n"
        )

    def test_non_ascii_byte_names_its_line(self, tmp_path, capsys):
        scan_path = tmp_path / "scan.txt"
        scan_path.write_bytes(b"beams=2 full_circle=0\n0.0 1.0 1\n0.1 1.\xff0 1\n")
        argv = ["segment", str(scan_path), "--eps-theta", "0.1", "--eps-dist", "0.2",
                "--min-points", "2", "--output", str(tmp_path / "x.txt")]
        assert main(argv) == 2
        assert "error: line 3:" in capsys.readouterr().err

    def test_failed_fit_prints_nan(self, tmp_path, capsys):
        # two parallel runs of three points, one cluster under a wide
        # distance radius, whose scatter is isotropic: no line fits
        scan_path = write(tmp_path / "iso.txt", ISOTROPIC_SCAN)
        argv = ["segment", scan_path, "--eps-theta", "0.1", "--eps-dist", "5",
                "--min-points", "3", "--output", str(tmp_path / "x.txt")]
        assert main(argv) == 0
        assert capsys.readouterr().out == "1 6 3.1415926535897927 nan nan\n"

    def test_single_wall_line_recovered(self, tmp_path, capsys):
        # a square seen with so few beams that only wall output matters is
        # overkill here; instead segment a clean square and check every
        # reported line is one of the four walls
        scan_path = self.run_generate(tmp_path, seed=0)
        code = main(
            [
                "segment",
                str(scan_path),
                "--eps-theta",
                "0.1",
                "--eps-dist",
                "0.2",
                "--min-points",
                "16",
                "--output",
                str(tmp_path / "l.txt"),
            ]
        )
        assert code == 0
        report = [line.split() for line in capsys.readouterr().out.splitlines()]
        thetas = sorted(float(r[4]) for r in report)
        expected = [0.0, np.pi / 2, np.pi, 3 * np.pi / 2]
        for got, want in zip(thetas, expected):
            assert got == pytest.approx(want, abs=1e-9)


class TestGenerate:
    def test_stdout_scan(self, capsys):
        assert main(["generate", "--room", "square:1", "--beams", "4"]) == 0
        out = capsys.readouterr()
        assert "generate_ns=" in out.err and "write_ns=" in out.err
        lines = out.out.splitlines()
        assert lines[0] == "beams=4 full_circle=1"
        ranges = [float(line.split()[1]) for line in lines[1:]]
        assert ranges == [0.5, 0.5, 0.5, 0.5]

    def test_seed_reproducible_bytes(self, tmp_path):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        for target in (a, b):
            code = main(
                [
                    "generate",
                    "--room",
                    "square",
                    "--beams",
                    "180",
                    "--noise-sigma",
                    "0.01",
                    "--dropout",
                    "0.05",
                    "--seed",
                    "42",
                    "--output",
                    str(target),
                ]
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_custom_polygon(self, tmp_path):
        target = tmp_path / "tri.txt"
        code = main(
            [
                "generate",
                "--room=-4,-2;4,-2;0,5",
                "--beams",
                "90",
                "--output",
                str(target),
            ]
        )
        assert code == 0
        scan = load_scan(target)
        assert scan.beams == 90
        assert (scan.ranges > 0).all()

    def test_bad_room_spec(self, capsys):
        assert main(["generate", "--room", "pentagon"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_square_side_must_be_positive(self, capsys):
        assert main(["generate", "--room", "square:0"]) == 2
        assert capsys.readouterr().err == "error: square side must be > 0, got 0.0\n"

    def test_huge_room_is_refused_without_a_warning(self):
        # its orientation products overflow float64; numpy must not warn
        room = "1e160,1e160;2e160,1e160;1e160,2e160"
        run = subprocess.run(
            [sys.executable, "-m", "scanseg", "generate", f"--room={room}", "--beams", "8"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC},
        )
        assert run.returncode == 2
        assert run.stderr == (
            "error: room edge tests overflow float64: coordinates too large or too far apart\n"
        )

    def test_negative_seed_is_a_usage_error(self, capsys):
        assert main(["generate", "--room", "square", "--beams", "8", "--seed", "-1"]) == 2
        assert "seed" in capsys.readouterr().err

    def test_generated_file_loads_back(self, tmp_path):
        target = tmp_path / "s.txt"
        main(["generate", "--room", "square", "--beams", "16", "--output", str(target)])
        scan = load_scan(target)
        assert scan.full_circle
        assert scan.beams == 16

    def test_beam_through_vertex(self, capsys):
        # beam 22 points exactly at the first vertex, and rounding puts its
        # hit just outside both edges that meet there
        room = (
            "1.1929359681354252,-1.7282661183766799;"
            "1.013336302429576,2.394399619566115;"
            "-1.767276605285984,-0.2843121531149318"
        )
        assert main(["generate", f"--room={room}", "--beams", "26"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "beams=26 full_circle=1"
        assert len(lines) == 27
        angle, distance, valid = lines[1 + 22].split()
        vertex = (1.1929359681354252, -1.7282661183766799)
        assert float(angle) == pytest.approx(np.arctan2(vertex[1], vertex[0]) % (2 * np.pi))
        assert float(distance) == np.hypot(*vertex)
        assert valid == "1"


class TestBench:
    def test_scaling_csv(self, warmed, tmp_path, capsys):
        out = tmp_path / "b.csv"
        code = main(
            [
                "bench",
                "--experiment",
                "scaling",
                "--sizes",
                "1000,2000",
                "--trials",
                "1",
                "--output",
                str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "N,epsilon,minPoints,sortTimeNs,clusterTimeNs,neighborhoodSteps,expandTouches,clusterCount"
        assert len(lines) == 3
        assert lines[1].startswith("1000,")
        assert lines[2].startswith("2000,")

    def test_sweep_to_stdout(self, warmed, capsys):
        code = main(
            [
                "bench",
                "--experiment",
                "epsilon-sweep",
                "--n",
                "2000",
                "--epsilons",
                "0.001,0.01",
                "--trials",
                "1",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3
        assert lines[1].split(",")[0] == "2000"

    def test_bad_sizes(self, capsys):
        assert main(["bench", "--experiment", "scaling", "--sizes", "nope"]) == 2

    @pytest.mark.parametrize("sizes", ["0", "-5,10", "0,1000"])
    def test_sizes_below_one_rejected(self, sizes, capsys):
        # used to reach math.log(0) and print only "math domain error"
        assert main(["bench", "--experiment", "scaling", f"--sizes={sizes}"]) == 2
        assert capsys.readouterr().err == "error: sizes must be >= 1\n"


def test_module_entry_point():
    # python3 -m scanseg must route into the same parser.
    out = subprocess.run(
        [sys.executable, "-m", "scanseg", "--help"],
        capture_output=True, text=True, check=True,
    )
    assert "cluster" in out.stdout and "bench" in out.stdout
