"""Scan serialization and a synthetic lidar generator for ground truth.

Two line-oriented text formats, both diff-able and full precision:

* scan files: header ``beams=<int> full_circle=<0|1>``, then one record
  per beam, ``<angle> <range> <0|1>`` (radians, meters, validity flag);
* 1D point lists: one scalar per line, optionally preceded by a
  ``# circular period=<real>`` comment declaring a circular domain.

Both are ASCII: a line holding any other byte, or any other character
read from a file object, raises ScanFormatError naming that line, and
so does a line holding a line break other than "\n", "\r\n" or "\r".
Floats are written as repr writes them, which round-trips every finite
double exactly, by one block row writer, which ``scanseg segment`` uses
for its label column too: a vectorized shortest round-trip kernel
(Schubfach, in scanseg._text) formats each block of rows as one word
matrix.  ``scanseg cluster`` formats through the same kernel, each
distinct row once, and gathers its rows from that table in blocks of
_WRITE_BLOCK.

Files are read in blocks of whole lines of bounded size, each a
fixed-size read plus the rest of the line it ends in, and each ending in
"\n".  A block of scan records has one accepting parser: it is split
once and each of its columns converted by one NumPy cast, which calls
float() on each token and so gives the same bits.  A block it refuses
holds a bad record, and a per-record loop only names the first one and
its line.  A block of a point list casts its lines at once, float()
taking the spaces around each number.  A block with blank lines or with
comments after its leading ones goes line by line, as does one the cast
refuses: the per-line parser also accepts text (str.strip() takes a
"\x1f" at a line's end, which float() refuses) and names the first bad
line.

A room is a simple polygon with the sensor strictly inside.  Its
validation is CLRS's SEGMENTS-INTERSECT (Cormen et al., section 33.1):
every pair of edges, in order, with one exact orientation test per
endpoint, and one on-edge predicate wherever a point may lie on a closed
edge: a touch or collinear overlap of two edges, a far endpoint on its
neighbour edge (a fold-back), the sensor on the boundary.  Coordinates so
large that an orientation product overflows float64 (differences of
about 1e154) are refused by name, since an inf or NaN there would judge
the room wrongly.

The generator ray-casts beams from a sensor pose inside a simple polygon
and perturbs ranges with seeded multiplicative Gaussian noise; the RNG
is the 64-bit counter-based Philox generator, so streams are
reproducible bit for bit across platforms.  Beams are cast in fixed-size
blocks, each broadcast against all walls edge-major, one row per wall,
so that the nearest hit is a reduction along the contiguous beam axis;
directions are taken from math.cos/math.sin one beam at a time, and
scans are bit-identical to those of the earlier one-beam-at-a-time cast.
"""

from __future__ import annotations

import io
import itertools
import math
import re
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from ._text import rows
from .dbscan1d import _real
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


# rows formatted per write: one byte matrix per block keeps the per-row
# cost low without building a whole output file in memory
_WRITE_BLOCK = 4096


def _write_rows(f, line: str, *columns) -> None:
    """Write ``line % row`` for each row of the equal-length columns.

    ``line`` holds ``%r`` for each float column and ``%d`` for each
    integer or bool column; a block of rows is formatted at once by
    :func:`scanseg._text.rows`, with the same text as ``%``.
    """
    for start in range(0, len(columns[0]), _WRITE_BLOCK):
        f.write(rows(line, [c[start : start + _WRITE_BLOCK] for c in columns]))


def save_scan(scan: Scan, sink) -> None:
    """Write a scan in the text format; sink is a path or writable file."""
    with _maybe_open(sink, "w") as f:
        f.write(f"beams={scan.beams} full_circle={1 if scan.full_circle else 0}\n")
        _write_rows(f, "%r %r %d\n", scan.beam_angles, scan.ranges, scan.valid)


def _parse_header(line: str) -> tuple[int, bool]:
    m = re.fullmatch(r"beams=(\d+) full_circle=([01])", line.strip())
    if not m or not line.isascii():
        raise ScanFormatError(f"line 1: bad header {line.strip()!r}")
    return int(m.group(1)), m.group(2) == "1"


# line breaks of str.splitlines() other than "\n" and "\r"; str.split()
# and str.strip() take them for whitespace, so a line holding one is
# rejected by name
_STRAY_BREAKS = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"

# characters per read (about 1.7k scan records): each column of a block
# converts with one NumPy cast, and no whole file is held in memory
_READ_BLOCK = 1 << 16


def _read_blocks(f):
    """Whole lines of f in blocks of about _READ_BLOCK characters, each
    ending in "\n".

    Each read's text up to its last line end goes out with the line
    carried from earlier reads; the rest is carried on.  "\r\n" and a
    lone "\r" become "\n", as a file opened by path reads, by the
    standard library's newline decoder, which holds back a "\r" that ends
    a read until the next.  A last line with no line end gets a "\n".
    """
    newlines = io.IncrementalNewlineDecoder(None, translate=True)
    carried = []  # the start of a line no read has ended yet
    while chunk := f.read(_READ_BLOCK):
        chunk = newlines.decode(chunk)
        end = chunk.rfind("\n") + 1
        if end:
            yield "".join(carried) + chunk[:end]
            carried = []
        carried.append(chunk[end:])
    # a "\r" held back at the end decodes to the last line's end
    last = "".join(carried)
    if last or newlines.decode("", final=True):
        yield last + "\n"


def _lines(block: str) -> list[str]:
    return block.split("\n")[:-1]


def _scan_block(block: str):
    """(angles, ranges, valid) of a block of well-formed records, or None.

    The block is split once, with a "|" marker after each line's tokens.
    That is sound because float() and the flag check reject "|" in each
    value column: so when there are four tokens per line, the markers
    fill the marker column, one slot per line, and every line holds
    exactly three tokens.
    """
    if not block.isascii() or any(c in block for c in _STRAY_BREAKS):
        return None
    lines = block.count("\n")
    tokens = block.replace("\n", " | ").split()
    if len(tokens) != 4 * lines:
        return None
    flags = "".join(tokens[2::4])
    if len(flags) != lines or flags.count("0") + flags.count("1") != lines:
        return None
    try:
        # float() of each token, so the same text parses to the same bits
        angles = np.array(tokens[0::4], np.float64)
        ranges = np.array(tokens[1::4], np.float64)
    except ValueError:
        return None
    valid = np.frombuffer(flags.encode(), np.uint8) == ord("1")
    if not (np.isfinite(angles).all() and np.isfinite(ranges).all()):
        return None
    if (ranges[valid] < 0.0).any():
        return None
    return angles, ranges, valid


def _scan_error(block: str, lineno: int) -> ScanFormatError:
    """The error of the first bad record of a block that _scan_block
    refused, counting lines from ``lineno``."""
    for lineno, rec in enumerate(_lines(block), start=lineno):
        parts = rec.split()
        if len(parts) != 3 or any(c in rec for c in _STRAY_BREAKS):
            return ScanFormatError(f"line {lineno}: expected 'angle range valid', got {rec!r}")
        try:
            a = float(parts[0])
            r = float(parts[1])
        except ValueError:
            return ScanFormatError(f"line {lineno}: bad number in {rec!r}")
        if not (math.isfinite(a) and math.isfinite(r)):
            return ScanFormatError(f"line {lineno}: non-finite value")
        if parts[2] not in ("0", "1"):
            return ScanFormatError(f"line {lineno}: valid flag must be 0 or 1, got {parts[2]!r}")
        if parts[2] == "1" and r < 0.0:
            return ScanFormatError(f"line {lineno}: negative range on a valid beam")
        # float() and str.split() also take non-ASCII digits and spaces
        if not rec.isascii():
            return ScanFormatError(f"line {lineno}: non-ASCII character in {rec!r}")
    raise AssertionError("_scan_block refused a block of well-formed records")


def load_scan(source) -> Scan:
    """Read a scan file; raises ScanFormatError with the offending line.

    Lines end at "\n", "\r\n" or "\r", as a file opened by path reads.
    A wrong record count is reported before any bad record.
    """
    parts = []
    records = 0
    error = None
    with _maybe_open(source, "r") as f:
        blocks = _read_blocks(f)
        first = next(blocks, None)
        if first is None:
            raise ScanFormatError("line 1: missing header")
        header, _, first = first.partition("\n")
        beams, full_circle = _parse_header(header)
        for block in itertools.chain([first] if first else [], blocks):
            if error is None:
                columns = _scan_block(block)
                if columns is None:  # raised once the records are counted
                    error = _scan_error(block, records + 2)
                else:
                    parts.append(columns)
            records += block.count("\n")
    if records != beams:
        raise ScanFormatError(f"header declares {beams} beams but file has {records} records")
    if error is not None:
        raise error
    columns = [np.concatenate(c) for c in zip(*parts)] if parts else [np.empty(0)] * 3
    del parts  # freed before the scan copies its arrays
    return Scan(*columns, full_circle)


# leading comment lines of a point list, where its period comment sits
_HEAD_COMMENTS = re.compile(r"(?:#.*\n)*")


def _point_block(block: str):
    """The values of a block of one finite number per line, or None."""
    if not block.isascii() or any(c in block for c in _STRAY_BREAKS):
        return None
    try:
        # float() of each line, which takes the spaces around its number
        values = np.array(_lines(block), np.float64)
    except ValueError:
        return None
    return values if np.isfinite(values).all() else None


def _point_lines(block: str, lineno: int, period: float | None):
    """(values, period) of a block that failed the block checks, line by
    line from line ``lineno``; raises ScanFormatError naming the first bad
    line.  ``period`` is the one declared by earlier lines."""
    vals = []
    for lineno, raw in enumerate(_lines(block), start=lineno):
        line = raw.strip()
        if line.startswith("#"):
            if not raw.isascii():
                raise ScanFormatError(f"line {lineno}: non-ASCII character in comment")
            m = re.match(r"#\s*circular\s+period=(\S+)$", line)
            if m:
                try:
                    period = float(m.group(1))
                except ValueError:
                    raise ScanFormatError(f"line {lineno}: bad period") from None
                if not math.isfinite(period) or period <= 0.0:
                    raise ScanFormatError(f"line {lineno}: period must be finite and > 0")
        else:
            if line:
                try:
                    v = float(line)
                except ValueError:
                    raise ScanFormatError(f"line {lineno}: not a number: {line!r}") from None
                if not math.isfinite(v):
                    raise ScanFormatError(f"line {lineno}: non-finite value")
                vals.append(v)
            # float() and strip() also take non-ASCII digits and spaces
            if not raw.isascii():
                raise ScanFormatError(f"line {lineno}: non-ASCII character in {line!r}")
        if any(c in raw for c in _STRAY_BREAKS):
            raise ScanFormatError(f"line {lineno}: line break character in {raw!r}")
    return np.array(vals, dtype=np.float64), period


def load_points(source) -> tuple[np.ndarray, float | None]:
    """Read a 1D point list; returns (values, period-or-None).

    Blank lines and comments are skipped; a ``# circular period=<real>``
    comment switches downstream clustering to the circular metric.
    Lines end as in load_scan.
    """
    period = None
    parts = []
    lineno = 1
    with _maybe_open(source, "r") as f:
        for block in _read_blocks(f):
            head = _HEAD_COMMENTS.match(block).end()
            values = _point_block(block[head:])
            if values is None:
                head = len(block)
            head_values, period = _point_lines(block[:head], lineno, period)
            parts.append(head_values)
            if values is not None:
                parts.append(values)
            lineno += block.count("\n")
    return (np.concatenate(parts) if parts else np.empty(0)), period


def _orientation(ox, oy, ax, ay, bx, by) -> float:
    return (ax - ox) * (by - oy) - (ay - oy) * (bx - ox)


def _on_edge(a, b, p) -> bool:
    """True if point p lies on the closed segment ab."""
    (ax, ay), (bx, by), (px, py) = a, b, p
    on_line = _orientation(ax, ay, bx, by, px, py) == 0
    return on_line and min(ax, bx) <= px <= max(ax, bx) and min(ay, by) <= py <= max(ay, by)


def _segments_cross(p1, p2, p3, p4) -> bool:
    """True if closed segments p1p2 and p3p4 share any point."""
    d1 = _orientation(*p3, *p4, *p1)
    d2 = _orientation(*p3, *p4, *p2)
    d3 = _orientation(*p1, *p2, *p3)
    d4 = _orientation(*p1, *p2, *p4)
    if d1 and d2 and d3 and d4:  # no three endpoints collinear
        return (d1 > 0) != (d2 > 0) and (d3 > 0) != (d4 > 0)
    return _on_edge(p3, p4, p1) or _on_edge(p3, p4, p2) or _on_edge(p1, p2, p3) or _on_edge(p1, p2, p4)


@dataclass(frozen=True, eq=False)
class RoomModel:
    """A simple polygon room and the sensor pose strictly inside it.

    vertices is an ordered (V, 2) array (either winding); sensor is
    (x, y, heading).  Construction rejects self-intersecting polygons,
    degenerate edges, and sensor positions outside or on the boundary,
    and refuses coordinates so large that its edge tests overflow.
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
        # huge coordinates overflow the orientation products, and an inf
        # or NaN there would misjudge the room
        try:
            with np.errstate(over="raise", invalid="raise"):
                self._check_polygon()
        except FloatingPointError:
            raise ValueError(
                "room edge tests overflow float64: coordinates too large or too far apart"
            ) from None

    def _check_polygon(self) -> None:
        v = self.vertices
        nv = v.shape[0]
        edges = [(tuple(v[i]), tuple(v[(i + 1) % nv])) for i in range(nv)]
        for a, b in edges:
            if a == b:
                raise ValueError("polygon has a zero-length edge")
        for i in range(nv):
            for j in range(i + 1, nv):
                if j == i + 1 or (i == 0 and j == nv - 1):
                    # consecutive edges may only meet at the shared vertex,
                    # so neither far endpoint may lie on the other edge
                    (a, b), (c, d) = edges[i], edges[j]
                    far_i, far_j = (a, d) if j == i + 1 else (b, c)
                    if _on_edge(c, d, far_i) or _on_edge(a, b, far_j):
                        raise ValueError("polygon folds back on itself")
                elif _segments_cross(*edges[i], *edges[j]):
                    raise ValueError(
                        f"polygon is not simple: edges {i} and {j} intersect"
                    )
        if not self._strictly_inside(*self.sensor[:2]):
            raise ValueError("sensor must be strictly inside the polygon")

    def _strictly_inside(self, px: float, py: float) -> bool:
        v = self.vertices
        nv = v.shape[0]
        if any(_on_edge(v[i], v[(i + 1) % nv], (px, py)) for i in range(nv)):
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
        sigma = _real(self.range_noise_sigma, "range_noise_sigma")
        if not math.isfinite(sigma) or sigma < 0.0:
            raise ValueError(f"sigma must be >= 0, got {self.range_noise_sigma}")
        if not 0.0 <= _real(self.dropout_probability, "dropout_probability") <= 1.0:
            raise ValueError(f"dropout must be in [0, 1], got {self.dropout_probability}")
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise ValueError(f"seed must be an integer >= 0, got {self.seed!r}")


# beams per broadcast block: bounds the (V, block) temporaries, so peak
# memory does not grow with the beam count
_BEAM_BLOCK = 4096


def _cast_rays(
    vertices: np.ndarray, px: float, py: float, angles: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Distance and edge index of the nearest wall hit of every beam.

    Beams go in blocks of _BEAM_BLOCK, each broadcast against all edges
    as a (V, block) array, edge-major, with the float expressions of a
    one-beam-at-a-time cast, in the same operand order, so every range is
    bit-identical to it.  The nearest hit and its edge are reductions over
    the edge rows, which run along the contiguous beam axis.  Directions
    come from math.cos/math.sin per beam, which may differ from numpy's
    vectorized ones in the last ulp.  Ties pick the lowest edge.
    """
    # (V, 1) columns, so that a block of beams broadcasts to (V, block)
    ax = vertices[:, :1]
    ay = vertices[:, 1:]
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
            ux = np.fromiter(map(math.cos, block), np.float64, len(block))
            uy = np.fromiter(map(math.sin, block), np.float64, len(block))
            denom = ux * ey - uy * ex
            t = t_num / denom
            s = (apx * uy - apy * ux) / denom
            # a zero denom leaves s infinite or NaN, so the s test drops it
            t[~((t > 0.0) & (s >= 0.0) & (s <= 1.0))] = np.inf
            r = t.min(axis=0)
            ranges[rows] = r
            # the first edge at the minimum, as argmin picks it
            walls[rows] = (t == r).argmax(axis=0)
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
    if not isinstance(beams, (int, np.integer)):
        raise ValueError(f"beams must be an integer, got {beams!r}")
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
