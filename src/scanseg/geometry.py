"""Line fitting and angle arithmetic for planar scan processing.

Lines are kept in the polar normal form ``x cos(theta) + y sin(theta) = d``
with d >= 0 and theta in [0, 2 pi).  A line through the origin has two
equally valid antipodal normals, so its theta is reduced to [0, pi).
Directions (as opposed to normals) are axial quantities and live in
[0, pi) throughout.  The local direction at a scan point is the
principal axis of its three-beam window; estimate_local_angles computes
all windows of a scan in one vectorized pass, block by block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi

# Relative eigen-gap below which a scatter has no usable principal
# direction, and relative resultant length below which a set of angles
# has no usable circular mean.
ISO_TOL = 1e-12
RESULTANT_TOL = 1e-9

# Interior points whose windows estimate_local_angles gathers at once.
_ANGLE_BLOCK = 8192


class DegenerateFitError(ValueError):
    """All points coincide, so no line fit exists."""


class OrientationUndefinedError(ValueError):
    """Point scatter is isotropic, leaving the fitted direction arbitrary."""


class UndefinedMeanError(ValueError):
    """Angles cancel out, leaving no circular mean."""


class InsufficientDataError(ValueError):
    """Fewer data points than the operation needs."""


def wrap_angle(angle: float, period: float = TWO_PI) -> float:
    """Reduce a scalar angle to [0, period)."""
    a = angle % period
    # fmod of a tiny negative can round up to the period itself
    if a >= period or a < 0.0:
        a = 0.0
    return a


@dataclass(frozen=True)
class PolarLine:
    """Line in polar normal form ``x cos(theta) + y sin(theta) = d``.

    ``d`` is the origin distance, never negative; ``theta`` is the
    direction of the normal from the origin toward the line.
    """

    d: float
    theta: float

    def __post_init__(self):
        if not (np.isfinite(self.d) and np.isfinite(self.theta)):
            raise ValueError("d and theta must be finite")
        if self.d < 0.0:
            raise ValueError(f"d must be >= 0, got {self.d}")
        if not 0.0 <= self.theta < TWO_PI:
            raise ValueError(f"theta must lie in [0, 2*pi), got {self.theta}")
        if self.d == 0.0 and self.theta >= math.pi:
            raise ValueError("a line through the origin needs theta in [0, pi)")

    @property
    def direction(self) -> float:
        """Direction the line runs along, reduced to [0, pi)."""
        return wrap_angle(self.theta + 0.5 * math.pi, math.pi)


def canonical_polar(d: float, theta: float) -> PolarLine:
    """Canonicalize an unrestricted (d, theta) pair into a PolarLine.

    Negative d flips the normal to the antipode; theta is wrapped to
    [0, 2 pi), and for d == 0 further down to [0, pi).
    """
    d = float(d)
    theta = float(theta)
    if d < 0.0:
        d = -d
        theta += math.pi
    theta = wrap_angle(theta)
    if d == 0.0 and theta >= math.pi:
        theta -= math.pi
    return PolarLine(d, theta)


def tls_fit(points) -> PolarLine:
    """Total least squares line through a 2D point set.

    Minimizes the summed squared orthogonal distances.  The optimal normal
    angle is ``0.5 * atan2(-2 Sxy, Syy - Sxx)`` from the centered second
    moments, the optimal offset the centroid projection onto that normal.

    Raises InsufficientDataError below 2 points, DegenerateFitError when
    every point coincides, and OrientationUndefinedError when the scatter
    is isotropic (relative moment gap under ISO_TOL) so that no direction
    beats any other.
    """
    pts = np.ascontiguousarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f"points must have shape (n, 2), got {pts.shape}")
    if pts.shape[0] < 2:
        raise InsufficientDataError("line fit needs at least 2 points")
    if not np.isfinite(pts).all():
        raise ValueError("points must be finite")
    cx = pts[:, 0].mean()
    cy = pts[:, 1].mean()
    dx = pts[:, 0] - cx
    dy = pts[:, 1] - cy
    sxx = float(dx @ dx)
    syy = float(dy @ dy)
    sxy = float(dx @ dy)
    spread = sxx + syy
    if spread <= 0.0:
        raise DegenerateFitError("all points coincide")
    num = -2.0 * sxy
    den = syy - sxx
    if math.hypot(num, den) <= ISO_TOL * spread:
        raise OrientationUndefinedError("point scatter is isotropic")
    theta = 0.5 * math.atan2(num, den)
    return canonical_polar(cx * math.cos(theta) + cy * math.sin(theta), theta)


def signed_distance_to_origin_line(x, y, theta: float):
    """Signed distances from the origin line whose normal is ``theta``.

    The projection ``x cos(theta) + y sin(theta)``; positive on the side
    the normal points into.  Broadcasts over array x, y.
    """
    return x * math.cos(theta) + y * math.sin(theta)


def circular_mean(angles, period: float = TWO_PI) -> float:
    """Mean direction of angles on a circle with the given period.

    Angles must lie in [0, period).  The computation rescales to the full
    circle, averages unit vectors, and maps the resultant angle back.
    When the resultant nearly vanishes (relative length under
    RESULTANT_TOL, e.g. two angles half a period apart) the mean carries
    no information and UndefinedMeanError is raised.
    """
    a = np.ascontiguousarray(angles, dtype=np.float64)
    if a.ndim != 1:
        raise ValueError(f"angles must be one-dimensional, got shape {a.shape}")
    if a.size == 0:
        raise InsufficientDataError("circular mean of an empty set")
    if not np.isfinite(a).all():
        raise ValueError("angles must be finite")
    if not np.isfinite(period) or period <= 0.0:
        raise ValueError(f"period must be finite and > 0, got {period}")
    if a.min() < 0.0 or a.max() >= period:
        raise ValueError(f"angles must lie in [0, {period!r})")
    scale = TWO_PI / period
    c = float(np.cos(a * scale).sum())
    s = float(np.sin(a * scale).sum())
    if math.hypot(c, s) <= RESULTANT_TOL * a.size:
        raise UndefinedMeanError("resultant vanishes, circular mean undefined")
    return wrap_angle(math.atan2(s, c) / scale, period)


def _principal_directions(sxx, syy, sxy) -> np.ndarray:
    """Major-axis angles in [0, pi) of centered scatters, NaN if isotropic."""
    spread = sxx + syy
    num = 2.0 * sxy
    den = sxx - syy
    gap = np.hypot(num, den)
    ang = 0.5 * np.arctan2(num, den)
    ang = ang % math.pi
    ang[ang == math.pi] = 0.0
    ang[(spread <= 0.0) | (gap <= ISO_TOL * spread)] = np.nan
    return ang


def _neighbors(mask: np.ndarray, wrap: bool) -> tuple[np.ndarray, np.ndarray]:
    """The mask at each index's previous and next index (False off the ends)."""
    prev = np.empty_like(mask)
    nxt = np.empty_like(mask)
    prev[1:] = mask[:-1]
    nxt[:-1] = mask[1:]
    prev[0] = mask[-1] if wrap else False
    nxt[-1] = mask[0] if wrap else False
    return prev, nxt


def estimate_local_angles(x, y, valid, full_circle: bool = False) -> np.ndarray:
    """Local line direction at every scan point, in [0, pi); NaN if unknown.

    A point whose neighbors on both sides are valid too is interior and
    gets the principal direction of its three-point window (previous,
    self, next).  Run endpoints borrow the estimate of their neighbor one
    step inside; runs shorter than three points stay NaN, as do invalid
    points and degenerate (coincident or isotropic) triplets.  With
    ``full_circle`` the index space wraps, so runs join across the seam
    and a fully valid scan forms a closed ring with no endpoints at all.
    The windows are gathered in blocks of _ANGLE_BLOCK interior points,
    so the temporaries stay bounded however long the scan is.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    y = np.ascontiguousarray(y, dtype=np.float64)
    valid = np.ascontiguousarray(valid, dtype=bool)
    if x.ndim != 1 or x.shape != y.shape or x.shape != valid.shape:
        raise ValueError("x, y, valid must be one-dimensional and equally long")
    n = x.size
    out = np.full(n, np.nan)
    # below three beams a full circle has prev == next and a line no interior
    if n < 3:
        return out
    prev_ok, next_ok = _neighbors(valid, full_circle)
    interior = valid & prev_ok & next_ok
    center = np.flatnonzero(interior)
    for lo in range(0, center.size, _ANGLE_BLOCK):
        i1 = center[lo : lo + _ANGLE_BLOCK]
        i0 = i1 - 1  # index -1 is the last beam, the seam neighbor of beam 0
        i2 = i1 + 1
        i2[i2 == n] = 0
        x0, x1, x2 = x[i0], x[i1], x[i2]
        y0, y1, y2 = y[i0], y[i1], y[i2]
        cx = (x0 + x1 + x2) / 3.0
        cy = (y0 + y1 + y2) / 3.0
        d0x, d1x, d2x = x0 - cx, x1 - cx, x2 - cx
        d0y, d1y, d2y = y0 - cy, y1 - cy, y2 - cy
        sxx = d0x * d0x + d1x * d1x + d2x * d2x
        syy = d0y * d0y + d1y * d1y + d2y * d2y
        sxy = d0x * d0y + d1x * d1y + d2x * d2y
        out[i1] = _principal_directions(sxx, syy, sxy)
    # run endpoints are the non-interior points next to an interior one;
    # a point with interior neighbors on both sides is interior itself
    prev_in, next_in = _neighbors(interior, full_circle)
    head = np.flatnonzero(next_in & ~interior)
    tail = np.flatnonzero(prev_in & ~interior)
    out[head] = out[(head + 1) % n]
    out[tail] = out[tail - 1]
    return out
