"""The three benchmark workloads: inputs from a seed, one operation, its checks.

Each workload builds its inputs in ``setup`` from the seed alone, runs one
closed-loop operation in ``op`` (the timed part), and checks that
operation's output in ``check`` (untimed).  ``count_pass`` runs a fixed,
seed-determined slice of the work once more for the traced run's counters;
it never depends on how many operations fit in the timed window, so its
counts repeat exactly for a given seed.

The package is reached only through module attributes
(``dbscan1d.dbscan_1d``, ``segmentation.angular_segmentation``,
``cli.main``, ...), looked up at call time, so the tracer can wrap them.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from scanseg import cli, dbscan1d, oracle, scan_io, segmentation
from scanseg import _kernels

ROOT = Path(__file__).resolve().parent.parent
TWO_PI = 2.0 * math.pi
ANGLE_TOL = math.radians(2.0)  # acceptance criterion 6 tolerances
DIST_TOL = 0.02


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=[seed, stream]))


def same_partition(a: np.ndarray, b: np.ndarray) -> bool:
    """Label arrays agree up to renumbering, noise (-1) kept as noise."""
    if a.shape != b.shape or not np.array_equal(a == -1, b == -1):
        return False
    pairs = set(zip(a[a != -1].tolist(), b[b != -1].tolist()))
    return len(pairs) == len({p for p, _ in pairs}) == len({q for _, q in pairs})


def wall_lines(vertices: np.ndarray, sensor_xy) -> list[tuple[float, float]]:
    """Polar (d, theta) of every polygon edge, in the sensor-centred frame."""
    rel = np.asarray(vertices, dtype=np.float64) - np.asarray(sensor_xy, dtype=np.float64)
    lines = []
    for a, b in zip(rel, np.roll(rel, -1, axis=0)):
        ux, uy = (b - a) / math.hypot(*(b - a))
        nx, ny = -uy, ux
        d = nx * a[0] + ny * a[1]
        theta = math.atan2(ny, nx)
        if d < 0.0:
            d, theta = -d, theta + math.pi
        lines.append((d, theta % TWO_PI))
    return lines


def walls_match(fitted, walls) -> bool:
    """Fitted (d, theta) lines match the walls one-to-one within tolerance."""
    if len(fitted) != len(walls):
        return False
    used = set()
    for d, theta in fitted:
        if not (math.isfinite(d) and math.isfinite(theta)):
            return False
        hits = [
            k
            for k, (wd, wt) in enumerate(walls)
            if abs((theta - wt + math.pi) % TWO_PI - math.pi) <= ANGLE_TOL
            and abs(d - wd) <= DIST_TOL * wd
        ]
        if len(hits) != 1 or hits[0] in used:
            return False
        used.add(hits[0])
    return True


class Workload:
    """Interface shared by the workloads; see the module docstring."""

    setup_repeats = 3

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        raise NotImplementedError

    def op(self, i: int, span):
        raise NotImplementedError

    def check(self, i: int, out) -> tuple[bool, bool]:
        """(output correct, quality target met) for operation i."""
        raise NotImplementedError

    def count_pass(self) -> dict:
        raise NotImplementedError

    def parsed_bytes(self) -> int:
        """Bytes of input files one operation parses."""
        return 0

    def input_of(self, i: int) -> int:
        """The input operation i ran on; the latency tail is taken over inputs."""
        return i

    def close(self) -> None:
        pass


class Linear1M(Workload):
    """Copy, sort and linear-cluster one million separated-cluster values."""

    name = "linear-1m"
    setup_repeats = 15
    N = 1_000_000
    MIN_POINTS = 4
    WINDOWS_PER_OP = 3

    def setup(self):
        # the separated-cluster recipe of scanseg.bench, copied so that
        # edits to the package cannot change the inputs: ceil(sqrt(N))
        # uniform clusters of width 1 at pitch 11, eps for ~log N neighbours
        rng = _rng(self.seed, 1)
        n = self.N
        k = math.isqrt(n - 1) + 1
        base, rem = divmod(n, k)
        parts = [11.0 * j + rng.random(base + (1 if j < rem else 0)) for j in range(k)]
        self.values = rng.permutation(np.concatenate(parts))
        self.eps = math.log(n) / (2.0 * (n / k))
        self.params = dbscan1d.DbscanParams(
            self.eps, self.MIN_POINTS, dbscan1d.BorderPolicy.FIRST_CLUSTER
        )
        # oracle windows: runs of <= 200 sorted points between gaps > eps,
        # so each clusters exactly as it does inside the full array
        x = np.sort(self.values)
        cuts = np.concatenate(([0], np.flatnonzero(np.diff(x) > self.eps) + 1, [n]))
        size = np.diff(cuts)
        pick = np.flatnonzero((size >= 20) & (size <= 200))
        if pick.size == 0:
            raise RuntimeError("no oracle window of 20..200 points in this input")
        self.windows = [(int(cuts[j]), int(cuts[j + 1])) for j in rng.permutation(pick)]
        _kernels.warmup()

    def op(self, i, span):
        with span("sort"):
            x = np.sort(self.values)
        labels, clusters = dbscan1d.dbscan_1d(x, self.params)
        return x, labels, clusters

    def check(self, i, out):
        x, labels, clusters = out
        k = len(clusters)
        if labels.shape != (self.N,) or k == 0:
            return False, False
        if labels.min() < -1 or labels.max() > k or np.any(labels == 0):
            return False, False
        for w in range(self.WINDOWS_PER_OP):
            a, b = self.windows[(i * self.WINDOWS_PER_OP + w) % len(self.windows)]
            part = x[a:b]
            ref = oracle.naive_dbscan(part, self.eps, self.MIN_POINTS)
            counters = dbscan1d.OpCounters()
            alone, _ = dbscan1d.dbscan_1d(part, self.params, counters=counters)
            n = b - a
            if not (same_partition(labels[a:b], ref) and same_partition(alone, ref)):
                return False, False
            if counters.neighborhood_steps != 2 * n or counters.expand_touches > 2 * n:
                return False, False
        return True, True

    def count_pass(self):
        x = np.sort(self.values)
        dbscan1d.dbscan_1d(x, self.params)
        return {}


SQUARE = np.array([[-2.0, -2.0], [2.0, -2.0], [2.0, 2.0], [-2.0, 2.0]])


class Scans360(Workload):
    """Segment and fit one 360-beam scan of the acceptance square room."""

    name = "scans-360"
    SCANS = 1000
    COUNT_SCANS = 200
    PARAMS = segmentation.SegmentationParams(0.1, 0.2, 16)

    def setup(self):
        # one room family: the acceptance square, rotated so wall
        # directions sweep across the stage-1 seam at 0 = pi, seen from
        # varied sensor positions and headings
        rng = _rng(self.seed, 2)
        self.scans = []
        self.walls = []
        for _ in range(self.SCANS):
            phi = rng.uniform(0.0, 0.5 * math.pi)
            c, s = math.cos(phi), math.sin(phi)
            verts = SQUARE @ np.array([[c, s], [-s, c]])
            px, py = rng.uniform(-0.5, 0.5, 2)
            heading = rng.uniform(0.0, TWO_PI)
            noise = scan_io.NoiseModel(0.01, 0.05, int(rng.integers(2**63)))
            room = scan_io.RoomModel(verts, (px, py, heading))
            scan, _ = scan_io.generate_scan(room, 360, noise)
            self.scans.append(scan)
            self.walls.append(wall_lines(verts, (px, py)))
        _kernels.warmup()

    def op(self, i, span):
        scan = self.scans[i % self.SCANS]
        clusters = segmentation.angular_segmentation(scan, self.PARAMS)
        segmentation.fit_cluster_lines(scan, clusters)
        return clusters

    def check(self, i, clusters):
        scan = self.scans[i % self.SCANS]
        seen = np.zeros(scan.beams, dtype=bool)
        for c in clusters:
            idx = c.point_indices
            if idx.size < self.PARAMS.min_points or not scan.valid[idx].all() or seen[idx].any():
                return False, False
            seen[idx] = True
        fitted = [
            (c.fitted_line.d, c.fitted_line.theta) if c.fitted_line else (math.nan, math.nan)
            for c in clusters
        ]
        return True, walls_match(fitted, self.walls[i % self.SCANS])

    def input_of(self, i):
        return i % self.SCANS

    def count_pass(self):
        for scan in self.scans[: self.COUNT_SCANS]:
            clusters = segmentation.angular_segmentation(scan, self.PARAMS)
            segmentation.fit_cluster_lines(scan, clusters)
        return {}


# non-convex 8-vertex room: an alcove on top, no two walls on one line,
# every wall visible from the sensor at the origin
ROOM8 = np.array(
    [[-4.0, -3.0], [4.0, -3.0], [4.0, 3.0], [1.0, 3.0],
     [1.0, 5.0], [-1.0, 5.0], [-1.0, 2.5], [-4.0, 2.5]]
)


class CliRoundtrip(Workload):
    """generate, segment and cluster through scanseg.cli.main, file to file."""

    name = "cli-roundtrip"
    setup_repeats = 7
    BEAMS = 100_000
    GROUPS = 24
    GROUP_POINTS = 8_200
    GROUP_HALF_WIDTH = 0.01
    QUANTUM = 1e-4
    EPSILON = 3e-4
    SEGMENT_ARGS = ["--eps-theta", "0.1", "--eps-dist", "0.05", "--min-points", "16"]

    def setup(self):
        if not hasattr(self, "_tmp"):
            self._tmp = tempfile.TemporaryDirectory(prefix=".perfbench-work-", dir=ROOT)
        d = self._tmp.name
        self.scan_path = os.path.join(d, "scan.txt")
        self.labels_path = os.path.join(d, "labels.txt")
        self.bearings_path = os.path.join(d, "bearings.txt")
        self.cluster_path = os.path.join(d, "clusters.txt")
        self.room = ";".join(f"{x!r},{y!r}" for x, y in ROOM8.tolist())
        self.walls = wall_lines(ROOM8, (0.0, 0.0))

        # planted bearings: dense quantized groups (duplicate runs, one
        # straddling the seam) and isolated noise kept away from them
        rng = _rng(self.seed, 3)
        q, w = self.QUANTUM, self.GROUP_HALF_WIDTH
        centers = TWO_PI * np.arange(self.GROUPS) / self.GROUPS
        centers[1:] += rng.uniform(-0.05, 0.05, self.GROUPS - 1)
        vals = [c + rng.uniform(-w, w, self.GROUP_POINTS) for c in centers]
        member = [np.full(self.GROUP_POINTS, g) for g in range(self.GROUPS)]
        grid = np.arange(0.0, TWO_PI - 2.5e-3, 2.5e-3) + rng.uniform(-5e-4, 5e-4)
        gap = np.abs((grid[:, None] - centers[None, :] + math.pi) % TWO_PI - math.pi)
        noise = grid[(gap > w + 2e-3).all(axis=1)]
        vals.append(noise)
        member.append(np.full(noise.size, -1))
        order = rng.permutation(self.GROUPS * self.GROUP_POINTS + noise.size)
        values = np.floor((np.concatenate(vals) % TWO_PI) / q)[order] * q
        self.member = np.concatenate(member)[order]
        self.bearings = values
        with open(self.bearings_path, "w", encoding="ascii") as f:
            f.write(f"# circular period={TWO_PI!r}\n")
            f.write("\n".join(map(repr, values.tolist())))
            f.write("\n")
        # seam window for the circular oracle check: the smallest and
        # largest sorted bearings, all in the group that straddles 0
        self.sorted_bearings = np.sort(values)
        _kernels.warmup()

    def _main(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
        if rc != 0:
            print(f"perfbench: scanseg {argv[0]} exited {rc}: {err.getvalue()}", file=sys.stderr)
        return rc, out.getvalue()

    def _commands(self, i):
        return [
            ["generate", f"--room={self.room}", "--beams", str(self.BEAMS),
             "--noise-sigma", "1e-6", "--dropout", "0.02",
             "--seed", str(self.seed * 1_000_003 + i), "--output", self.scan_path],
            ["segment", self.scan_path, *self.SEGMENT_ARGS, "--output", self.labels_path],
            ["cluster", self.bearings_path, "--epsilon", repr(self.EPSILON),
             "--min-points", "16", "--border-policy", "all", "--output", self.cluster_path],
        ]

    def op(self, i, span):
        results = []
        for argv in self._commands(i):
            t0 = time.perf_counter_ns()
            rc, stdout = self._main(argv)
            results.append((rc, stdout, time.perf_counter_ns() - t0))
        return results

    def command_seconds(self, out):
        return [t / 1e9 for _, _, t in out]

    def check(self, i, out):
        if any(rc != 0 for rc, _, _ in out):
            return False, False
        with open(self.scan_path, encoding="ascii") as f:
            scan_lines = f.read().splitlines()
        if len(scan_lines) != self.BEAMS + 1 or scan_lines[0] != f"beams={self.BEAMS} full_circle=1":
            return False, False

        labels = np.loadtxt(self.labels_path, dtype=np.int64, ndmin=1)
        rows = [line.split() for line in out[1][1].splitlines()]
        if labels.shape != (self.BEAMS,) or any(len(r) != 5 for r in rows):
            return False, False
        sizes = np.bincount(labels[labels > 0], minlength=len(rows) + 1)[1:]
        if sizes.size != len(rows) or any(int(r[1]) != s for r, s in zip(rows, sizes)):
            return False, False
        walls_ok = walls_match([(float(r[3]), float(r[4])) for r in rows], self.walls)

        with open(self.cluster_path, encoding="ascii") as f:
            lines = f.read().splitlines()
        n = self.bearings.size
        if len(lines) != n + self.GROUPS or not all(s.startswith("# cluster ") for s in lines[n:]):
            return False, False
        got = np.array([int(s.rpartition("\t")[2]) for s in lines[:n]])
        if np.any(got[self.member == -1] != -1):
            return False, False
        group_labels = set()
        for g in range(self.GROUPS):
            labs = np.unique(got[self.member == g])
            if labs.size != 1 or labs[0] == -1:
                return False, False
            group_labels.add(int(labs[0]))
        if len(group_labels) != self.GROUPS:
            return False, False
        return self._seam_oracle_ok(i), walls_ok

    def _seam_oracle_ok(self, i):
        """Circular sweep on 200 bearings around the seam matches the oracle."""
        a = 20 + (i * 37) % 160
        part = np.concatenate((self.sorted_bearings[:a], self.sorted_bearings[a - 200:]))
        params = dbscan1d.DbscanParams(self.EPSILON, 16, dbscan1d.BorderPolicy.ALL_CLUSTERS)
        counters = dbscan1d.OpCounters()
        labels, _ = dbscan1d.dbscan_1d_circular(
            part, params, dbscan1d.CircularDomain(TWO_PI), counters=counters
        )
        ref = oracle.naive_dbscan(
            part, self.EPSILON, 16, TWO_PI, dbscan1d.BorderPolicy.ALL_CLUSTERS
        )
        n = part.size
        return (
            same_partition(labels, ref)
            and counters.neighborhood_steps <= 4 * n - 2
            and counters.expand_touches <= 2 * n
        )

    def parsed_bytes(self):
        return os.path.getsize(self.scan_path) + os.path.getsize(self.bearings_path)

    def count_pass(self):
        out = self.op(0, None)
        files = (self.scan_path, self.labels_path, self.cluster_path)
        written = sum(os.path.getsize(p) for p in files)
        return {"cli.output_bytes": written + sum(len(s) for _, s, _ in out)}

    def close(self):
        if hasattr(self, "_tmp"):
            self._tmp.cleanup()


WORKLOADS = {w.name: w for w in (Linear1M, Scans360, CliRoundtrip)}
