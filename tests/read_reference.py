"""The earlier per-record scan parser and line-by-line loaders: the reference.

The package parses a block of scan records with one split and one NumPy
cast per column, and its per-record loop only names the first bad
record.  ``_scan_lines`` is the accepting per-record parser it replaced,
kept verbatim.  ``load_scan`` and ``load_points`` read a whole text at
once and go line by line, so their values, errors and line numbers are
what the block loaders must give at any read size.
"""

from __future__ import annotations

import math

import numpy as np

from scanseg import Scan
from scanseg.scan_io import _STRAY_BREAKS, ScanFormatError, _parse_header, _point_lines


def _lines(block: str) -> list[str]:
    lines = block.split("\n")
    if lines[-1] == "":  # a final newline ends the last line
        lines.pop()
    return lines


def _scan_lines(block: str, lineno: int):
    """(angles, ranges, valid) of a block that failed the block checks,
    record by record from line ``lineno``; raises ScanFormatError naming
    the first bad line."""
    records = _lines(block)
    angles = np.empty(len(records))
    ranges = np.empty(len(records))
    valid = np.empty(len(records), dtype=bool)
    for i, rec in enumerate(records):
        parts = rec.split()
        if len(parts) != 3 or any(c in rec for c in _STRAY_BREAKS):
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
        # float() and str.split() also take non-ASCII digits and spaces
        if not rec.isascii():
            raise ScanFormatError(f"line {lineno}: non-ASCII character in {rec!r}")
        angles[i] = a
        ranges[i] = r
        valid[i] = v
        lineno += 1
    return angles, ranges, valid


def _whole_text(f) -> str:
    """The whole text of an open file, every line ending in "\\n"."""
    text = f.read().replace("\r\n", "\n").replace("\r", "\n")
    return text if text.endswith("\n") or not text else text + "\n"


def load_scan(f) -> Scan:
    """A scan read from an open file, record by record; a wrong record
    count is reported before any bad record."""
    text = _whole_text(f)
    if not text:
        raise ScanFormatError("line 1: missing header")
    header, _, body = text.partition("\n")
    beams, full_circle = _parse_header(header)
    records = len(_lines(body))
    if records != beams:
        raise ScanFormatError(f"header declares {beams} beams but file has {records} records")
    return Scan(*_scan_lines(body, 2), full_circle)


def load_points(f) -> tuple[np.ndarray, float | None]:
    """A point list read from an open file, line by line."""
    return _point_lines(_whole_text(f), 1, None)
