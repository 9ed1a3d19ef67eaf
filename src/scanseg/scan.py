"""Container for one 2D range scan in the sensor frame."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import TWO_PI


@dataclass(frozen=True, eq=False)
class Scan:
    """A polar range scan plus the derived cartesian returns.

    ``beam_angles`` holds absolute beam directions, ``ranges`` the
    measured distances (conventionally 0.0 for dropped beams), ``valid``
    marks usable returns.  ``full_circle`` declares that the beams cover
    one whole turn in index order, so downstream steps may treat beam
    adjacency as circular across the first/last index.

    ``x``/``y`` are computed at construction.  The scan is frozen and
    owns read-only copies of its inputs, so ``x``/``y`` always match
    ``ranges``; ``dataclasses.replace`` makes a changed copy.
    """

    beam_angles: np.ndarray
    ranges: np.ndarray
    valid: np.ndarray
    full_circle: bool = False
    x: np.ndarray = field(init=False, repr=False)
    y: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        angles = np.array(self.beam_angles, dtype=np.float64)
        ranges = np.array(self.ranges, dtype=np.float64)
        valid = np.array(self.valid, dtype=bool)
        if angles.ndim != 1 or angles.shape != ranges.shape or angles.shape != valid.shape:
            raise ValueError("beam_angles, ranges, valid must be 1-d and equally long")
        if angles.size and not np.isfinite(angles).all():
            raise ValueError("beam_angles must be finite")
        if ranges.size and not np.isfinite(ranges).all():
            raise ValueError("ranges must be finite")
        if np.any(ranges[valid] < 0.0):
            raise ValueError("valid ranges must be >= 0")
        x, y = ranges * np.cos(angles), ranges * np.sin(angles)
        for a in (angles, ranges, valid, x, y):
            a.flags.writeable = False
        owned = dict(
            beam_angles=angles, ranges=ranges, valid=valid, full_circle=bool(self.full_circle), x=x, y=y
        )
        for name, value in owned.items():
            object.__setattr__(self, name, value)

    @property
    def beams(self) -> int:
        return self.beam_angles.size

    @classmethod
    def from_xy(cls, x, y, valid=None, full_circle: bool = False) -> "Scan":
        """Build a scan from cartesian returns (sensor at the origin)."""
        x = np.ascontiguousarray(x, dtype=np.float64)
        y = np.ascontiguousarray(y, dtype=np.float64)
        if x.shape != y.shape:
            raise ValueError(f"x and y must have equal shapes, got {x.shape} and {y.shape}")
        angles = np.arctan2(y, x) % TWO_PI
        angles[angles >= TWO_PI] = 0.0
        if valid is None:
            valid = np.ones(x.size, dtype=bool)
        return cls(angles, np.hypot(x, y), valid, full_circle)
