"""Container for one 2D range scan in the sensor frame."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import TWO_PI


@dataclass(eq=False)
class Scan:
    """A polar range scan plus the derived cartesian returns.

    ``beam_angles`` holds absolute beam directions, ``ranges`` the
    measured distances (conventionally 0.0 for dropped beams), ``valid``
    marks usable returns.  ``full_circle`` declares that the beams cover
    one whole turn in index order, so downstream steps may treat beam
    adjacency as circular across the first/last index.

    ``x``/``y`` are computed at construction; the segmentation pipeline
    only reads a scan and keeps its intermediates to itself.
    """

    beam_angles: np.ndarray
    ranges: np.ndarray
    valid: np.ndarray
    full_circle: bool = False
    x: np.ndarray = field(init=False, repr=False)
    y: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        angles = np.ascontiguousarray(self.beam_angles, dtype=np.float64)
        ranges = np.ascontiguousarray(self.ranges, dtype=np.float64)
        valid = np.ascontiguousarray(self.valid, dtype=bool)
        if angles.ndim != 1 or angles.shape != ranges.shape or angles.shape != valid.shape:
            raise ValueError("beam_angles, ranges, valid must be 1-d and equally long")
        if angles.size and not np.isfinite(angles).all():
            raise ValueError("beam_angles must be finite")
        if ranges.size and not np.isfinite(ranges).all():
            raise ValueError("ranges must be finite")
        if np.any(ranges[valid] < 0.0):
            raise ValueError("valid ranges must be >= 0")
        self.beam_angles = angles
        self.ranges = ranges
        self.valid = valid
        self.full_circle = bool(self.full_circle)
        self.x = ranges * np.cos(angles)
        self.y = ranges * np.sin(angles)

    @property
    def beams(self) -> int:
        return self.beam_angles.size

    @classmethod
    def from_xy(cls, x, y, valid=None, full_circle: bool = False) -> "Scan":
        """Build a scan from cartesian returns (sensor at the origin)."""
        x = np.ascontiguousarray(x, dtype=np.float64)
        y = np.ascontiguousarray(y, dtype=np.float64)
        angles = np.arctan2(y, x) % TWO_PI
        angles[angles >= TWO_PI] = 0.0
        if valid is None:
            valid = np.ones(x.size, dtype=bool)
        return cls(angles, np.hypot(x, y), valid, full_circle)
