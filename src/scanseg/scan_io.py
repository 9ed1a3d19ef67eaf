"""Scan serialization and a synthetic lidar generator for ground truth.

Two line-oriented text formats, both diff-able and full precision:

* scan files: header ``beams=<int> full_circle=<0|1>``, then one record
  per beam, ``<angle> <range> <0|1>`` (radians, meters, validity flag);
* 1D point lists: one scalar per line, optionally preceded by a
  ``# circular period=<real>`` comment declaring a circular domain.

Both are ASCII: a line holding any other byte raises ScanFormatError
naming that line.  Floats are written with repr, which round-trips every
finite double exactly, by one block row writer that the scanseg command
uses for its label columns too.

The generator ray-casts beams from a sensor pose inside a simple polygon
and perturbs ranges with seeded multiplicative Gaussian noise; the RNG
is the 64-bit counter-based Philox generator, so streams are
reproducible bit for bit across platforms.  Beams are cast in fixed-size
blocks, each broadcast against all walls, with directions taken from
math.cos/math.sin one beam at a time; scans are bit-identical to those
of the earlier one-beam-at-a-time cast.
"""

from __future__ import annotations

import math
import re
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .geometry import TWO_PI
from .scan import Scan


class ScanFormatError(ValueError):
    """Malformed scan or point-list file."""


@contextmanager
def _maybe_open(source, mode: str):
    """A path opened as ASCII text, or an open file passed through.

    A non-ASCII byte read from a path decodes to a lone surrogate, so the
    parsers reject the line that holds it.
    """
    if isinstance(source, (str, bytes)) or hasattr(source, "__fspath__"):
        with open(source, mode, encoding="ascii", errors="surrogateescape") as f:
            yield f
    else:
        yield source


# rows formatted per write: one join per block keeps the per-row cost low
# without building a whole output file in memory
_WRITE_BLOCK = 8192


def _write_rows(f, line: str, *columns) -> None:
    """Write ``line % row`` for each row of the equal-length columns.

    A block is formatted by one ``%`` of the line repeated once per row
    over the block's values, row by row.
    """
    width = len(columns)
    for start in range(0, len(columns[0]), _WRITE_BLOCK):
        block = [c[start : start + _WRITE_BLOCK].tolist() for c in columns]
        rows = len(block[0])
        values = [None] * (width * rows)
        for i, column in enumerate(block):
            values[i::width] = column
        f.write(line * rows % tuple(values))


def save_scan(scan: Scan, sink) -> None:
    """Write a scan in the text format; sink is a path or writable file."""
    with _maybe_open(sink, "w") as f:
        f.write(f"beams={scan.beams} full_circle={1 if scan.full_circle else 0}\n")
        _write_rows(f, "%r %r %d\n", scan.beam_angles, scan.ranges, scan.valid)


def _parse_header(line: str) -> tuple[int, bool]:
    m = re.fullmatch(r"beams=(\d+) full_circle=([01])", line.strip())
    if not m:
        raise ScanFormatError(f"line 1: bad header {line.strip()!r}")
    return int(m.group(1)), m.group(2) == "1"


# line breaks of str.splitlines() other than "\n" and "\r"; str.split()
# takes them for whitespace, so a record holding one is rejected by name
_STRAY_BREAKS = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


def load_scan(source) -> Scan:
    """Read a scan file; raises ScanFormatError with the offending line.

    Lines end at "\n", "\r\n" or "\r", as a file opened by path reads.
    """
    with _maybe_open(source, "r") as f:
        text = f.read()
    if "\r" in text:  # only a file object passed in can still hold one
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    stray = any(c in text for c in _STRAY_BREAKS)
    lines = text.split("\n")
    del text  # not kept alive next to its lines while the records parse
    if lines[-1] == "":  # a final newline ends the last line
        lines.pop()
    if not lines:
        raise ScanFormatError("line 1: missing header")
    beams, full_circle = _parse_header(lines[0])
    records = lines[1:]
    if len(records) != beams:
        raise ScanFormatError(
            f"header declares {beams} beams but file has {len(records)} records"
        )
    angles = np.empty(beams)
    ranges = np.empty(beams)
    valid = np.empty(beams, dtype=bool)
    for i, rec in enumerate(records):
        lineno = i + 2
        parts = rec.split()
        if len(parts) != 3 or stray and any(c in rec for c in _STRAY_BREAKS):
            raise ScanFormatError(f"line {lineno}: expected 'angle range valid', got {rec!r}")
        try:
            a = float(parts[0])
            r = float(parts[1])
        except ValueError:
            raise ScanFormatError(f"line {lineno}: bad number in {rec!r}") from None
        if not (math.isfinite(a) and math.isfinite(r)):
            raise ScanFormatError(f"line {lineno}: non-finite value")
        if parts[2] not in ("0", "1"):
            raise ScanFormatError(f"line {lineno}: valid flag must be 0 or 1, got {parts[2]!r}")
        v = parts[2] == "1"
        if v and r < 0.0:
            raise ScanFormatError(f"line {lineno}: negative range on a valid beam")
        angles[i] = a
        ranges[i] = r
        valid[i] = v
    return Scan(angles, ranges, valid, full_circle)


def load_points(source) -> tuple[np.ndarray, float | None]:
    """Read a 1D point list; returns (values, period-or-None).

    Blank lines and comments are skipped; a ``# circular period=<real>``
    comment switches downstream clustering to the circular metric.
    """
    period = None
    vals = []
    with _maybe_open(source, "r") as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                if not line.isascii():
                    raise ScanFormatError(f"line {lineno}: non-ASCII character in comment")
                m = re.match(r"#\s*circular\s+period=(\S+)$", line)
                if m:
                    try:
                        period = float(m.group(1))
                    except ValueError:
                        raise ScanFormatError(f"line {lineno}: bad period") from None
                    if not math.isfinite(period) or period <= 0.0:
                        raise ScanFormatError(f"line {lineno}: period must be finite and > 0")
                continue
            try:
                v = float(line)
            except ValueError:
                raise ScanFormatError(f"line {lineno}: not a number: {line!r}") from None
            if not math.isfinite(v):
                raise ScanFormatError(f"line {lineno}: non-finite value")
            vals.append(v)
    return np.array(vals, dtype=np.float64), period


def _orientation(ox, oy, ax, ay, bx, by) -> float:
    return (ax - ox) * (by - oy) - (ay - oy) * (bx - ox)


def _on_segment(ax, ay, bx, by, px, py) -> bool:
    # collinearity assumed; checks the bounding box only
    return min(ax, bx) <= px <= max(ax, bx) and min(ay, by) <= py <= max(ay, by)


def _segments_cross(p1, p2, p3, p4) -> bool:
    """True if closed segments p1p2 and p3p4 share any point."""
    d1 = _orientation(*p3, *p4, *p1)
    d2 = _orientation(*p3, *p4, *p2)
    d3 = _orientation(*p1, *p2, *p3)
    d4 = _orientation(*p1, *p2, *p4)
    if ((d1 > 0) != (d2 > 0)) and d1 != 0 and d2 != 0 and ((d3 > 0) != (d4 > 0)) and d3 != 0 and d4 != 0:
        return True
    if d1 == 0 and _on_segment(*p3, *p4, *p1):
        return True
    if d2 == 0 and _on_segment(*p3, *p4, *p2):
        return True
    if d3 == 0 and _on_segment(*p1, *p2, *p3):
        return True
    if d4 == 0 and _on_segment(*p1, *p2, *p4):
        return True
    return False


@dataclass(frozen=True, eq=False)
class RoomModel:
    """A simple polygon room and the sensor pose strictly inside it.

    vertices is an ordered (V, 2) array (either winding); sensor is
    (x, y, heading).  Construction rejects self-intersecting polygons,
    degenerate edges, and sensor positions outside or on the boundary.
    """

    vertices: np.ndarray
    sensor: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def __post_init__(self):
        v = np.ascontiguousarray(self.vertices, dtype=np.float64)
        if v.ndim != 2 or v.shape[1] != 2 or v.shape[0] < 3:
            raise ValueError(f"vertices must have shape (V >= 3, 2), got {v.shape}")
        if not np.isfinite(v).all():
            raise ValueError("vertices must be finite")
        sensor = tuple(float(c) for c in self.sensor)
        if len(sensor) != 3 or not all(math.isfinite(c) for c in sensor):
            raise ValueError("sensor must be a finite (x, y, heading) triple")
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "sensor", sensor)
        nv = v.shape[0]
        edges = [(tuple(v[i]), tuple(v[(i + 1) % nv])) for i in range(nv)]
        for a, b in edges:
            if a == b:
                raise ValueError("polygon has a zero-length edge")
        for i in range(nv):
            for j in range(i + 1, nv):
                adjacent = j == i + 1 or (i == 0 and j == nv - 1)
                if adjacent:
                    # consecutive edges may only meet at the shared vertex
                    shared = edges[i][1] if j == i + 1 else edges[i][0]
                    others = [p for p in (*edges[i], *edges[j]) if p != shared]
                    for p in others:
                        seg = edges[j] if p in edges[i] else edges[i]
                        if _orientation(*seg[0], *seg[1], *p) == 0 and _on_segment(
                            *seg[0], *seg[1], *p
                        ):
                            raise ValueError("polygon folds back on itself")
                elif _segments_cross(*edges[i], *edges[j]):
                    raise ValueError(
                        f"polygon is not simple: edges {i} and {j} intersect"
                    )
        if not self._strictly_inside(sensor[0], sensor[1]):
            raise ValueError("sensor must be strictly inside the polygon")

    def _strictly_inside(self, px: float, py: float) -> bool:
        v = self.vertices
        nv = v.shape[0]
        for i in range(nv):
            ax, ay = v[i]
            bx, by = v[(i + 1) % nv]
            if _orientation(ax, ay, bx, by, px, py) == 0.0 and _on_segment(
                ax, ay, bx, by, px, py
            ):
                return False
        inside = False
        j = nv - 1
        for i in range(nv):
            if (v[i, 1] > py) != (v[j, 1] > py):
                xint = v[i, 0] + (py - v[i, 1]) * (v[j, 0] - v[i, 0]) / (v[j, 1] - v[i, 1])
                if px < xint:
                    inside = not inside
            j = i
        return inside


@dataclass(frozen=True)
class NoiseModel:
    """Multiplicative range noise and beam dropout, seeded."""

    range_noise_sigma: float = 0.0
    dropout_probability: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not np.isfinite(self.range_noise_sigma) or self.range_noise_sigma < 0.0:
            raise ValueError(f"sigma must be >= 0, got {self.range_noise_sigma}")
        if not 0.0 <= self.dropout_probability <= 1.0:
            raise ValueError(f"dropout must be in [0, 1], got {self.dropout_probability}")


# beams per broadcast block: bounds the (block, V) temporaries, so peak
# memory does not grow with the beam count
_BEAM_BLOCK = 4096


def _cast_rays(
    vertices: np.ndarray, px: float, py: float, angles: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Distance and edge index of the nearest wall hit of every beam.

    Beams go in blocks of _BEAM_BLOCK, each broadcast against all edges
    with the float expressions of a one-beam-at-a-time cast, in the same
    operand order, so every range is bit-identical to it.  Directions
    come from math.cos/math.sin per beam, which may differ from numpy's
    vectorized ones in the last ulp.  Ties pick the lowest edge.
    """
    ax = vertices[:, 0]
    ay = vertices[:, 1]
    ex = np.roll(ax, -1) - ax
    ey = np.roll(ay, -1) - ay
    apx = ax - px
    apy = ay - py
    t_num = apx * ey - apy * ex
    ranges = np.empty(angles.size)
    walls = np.empty(angles.size, dtype=np.int64)
    # a beam a subnormal angle off a wall's direction gives a subnormal
    # denom and overflows t to +-inf, which t > 0 drops or any finite hit
    # beats, as in the scalar cast
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for start in range(0, angles.size, _BEAM_BLOCK):
            rows = slice(start, start + _BEAM_BLOCK)
            block = angles[rows].tolist()
            ux = np.array([math.cos(a) for a in block])[:, None]
            uy = np.array([math.sin(a) for a in block])[:, None]
            denom = ux * ey - uy * ex
            t = t_num / denom
            s = (apx * uy - apy * ux) / denom
            # a zero denom leaves s infinite or NaN, so the s test drops it
            t[~((t > 0.0) & (s >= 0.0) & (s <= 1.0))] = np.inf
            ranges[rows] = t.min(axis=1)
            walls[rows] = t.argmin(axis=1)
    for k in np.flatnonzero(ranges == np.inf).tolist():
        # the beam runs through a vertex and rounding put its hit just
        # outside both edges that meet there: the vertex is the hit
        a = float(angles[k])
        ranges[k], walls[k] = _vertex_hit(vertices, px, py, math.cos(a), math.sin(a))
    return ranges, walls


def _vertex_hit(
    vertices: np.ndarray, px: float, py: float, ux: float, uy: float
) -> tuple[float, int]:
    """Distance to the vertex nearest the beam direction, and its lower edge."""
    dx = vertices[:, 0] - px
    dy = vertices[:, 1] - py
    dist = np.hypot(dx, dy)
    ahead = ux * dx + uy * dy > 0.0
    offset = np.where(ahead, np.abs(ux * dy - uy * dx) / dist, np.inf)
    i = int(np.argmin(offset))
    # vertex i closes edge i - 1 and opens edge i; ties pick the lowest edge
    return float(dist[i]), (i - 1 if i else 0)


def generate_scan(
    room: RoomModel, beams: int, noise: NoiseModel | None = None
) -> tuple[Scan, np.ndarray]:
    """Simulate one full-circle scan; returns (scan, per-beam wall id).

    Beam k points at heading + 2 pi k / beams.  Ranges are the exact
    ray-cast distances times (1 + sigma * g) with g standard normal,
    clamped at zero; dropped beams are flagged invalid with range 0.
    Wall ids are the polygon edge indices the beams geometrically hit,
    regardless of dropout.  Fixed seeds give identical scans.
    """
    if beams < 1:
        raise ValueError(f"beams must be >= 1, got {beams}")
    noise = noise if noise is not None else NoiseModel()
    px, py, heading = room.sensor
    angles = (heading + TWO_PI * np.arange(beams) / beams) % TWO_PI
    angles[angles >= TWO_PI] = 0.0
    true_ranges, wall_ids = _cast_rays(room.vertices, px, py, angles)
    rng = np.random.Generator(np.random.Philox(noise.seed))
    gauss = rng.standard_normal(beams)
    uniform = rng.random(beams)
    ranges = true_ranges * (1.0 + noise.range_noise_sigma * gauss)
    np.maximum(ranges, 0.0, out=ranges)
    valid = uniform >= noise.dropout_probability
    ranges[~valid] = 0.0
    return Scan(angles, ranges, valid, full_circle=True), wall_ids
