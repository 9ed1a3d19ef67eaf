"""Command line interface, driven in-process through main()."""

import subprocess
import sys

import numpy as np
import pytest

from scanseg import load_points, load_scan
from scanseg.cli import main


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
        assert "sort_ns=" in out.err and "cluster_ns=" in out.err

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
        assert "segmentation_ns=" in out.err and "fitting_ns=" in out.err
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
        lines = capsys.readouterr().out.splitlines()
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
