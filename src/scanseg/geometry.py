"""Line fitting and angle arithmetic for planar scan processing.

Lines are kept in the polar normal form ``x cos(theta) + y sin(theta) = d``
with d >= 0 and theta in [0, 2 pi).  A line through the origin has two
equally valid antipodal normals, so its theta is reduced to [0, pi).
Directions (as opposed to normals) are axial quantities and live in
[0, pi) throughout.  The local direction at a scan point is the
principal axis of its three-beam window; estimate_local_angles takes
each block of windows as one (3, m) index array, one gather per coordinate.

_moments and _circular_sums take the sums of tls_fit and circular_mean
for ranges of columns of one array, which lets segmentation sum all its
clusters at once: a row reduction is NumPy's pairwise sum, whose bits do
not depend on where the range sits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dbscan1d import _real

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
    # a tiny negative can round up to the period itself; a is never below
    # 0, as Python's % takes the sign of the (positive) period
    if a >= period:
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
        if not (math.isfinite(self.d) and math.isfinite(self.theta)):
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
    every point coincides, OrientationUndefinedError when the scatter is
    isotropic (relative moment gap under ISO_TOL) so that no direction
    beats any other, and ValueError when the moments or the offset
    overflow float64 (coordinates of about 1e308 in size or 1e154 apart).
    """
    pts = np.ascontiguousarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f"points must have shape (n, 2), got {pts.shape}")
    _check_line_size(pts.shape[0])
    if not np.isfinite(pts).all():
        raise ValueError("points must be finite")
    w = np.empty((3, pts.shape[0]))
    w[:2] = pts.T
    return _line_from_moments(*_moments(w, [0, pts.shape[0]])[0])


def _check_line_size(n: int) -> None:
    """tls_fit's InsufficientDataError for a fit of n < 2 points."""
    if n < 2:
        raise InsufficientDataError("line fit needs at least 2 points")


# as a decorator, errstate costs about half of what a with block does
@np.errstate(over="ignore", invalid="ignore")
def _moments(w: np.ndarray, ends: list[int]) -> list[tuple[float, float, float, float, float]]:
    """(cx, cy, sxx, syy, sxy) of the points w[:2, a:b], for consecutive a, b in ends.

    w is a (3, m) work array; its rows become dx * dx, dy * dy and dx * dy.
    An empty range's moments are all 0; an overflow leaves inf or NaN.
    """
    centers = []
    for a, b in zip(ends, ends[1:]):
        sx, sy = np.add.reduce(w[:2, a:b], axis=1).tolist()
        n = b - a or 1
        cx, cy = sx / n, sy / n
        w[0, a:b] -= cx
        w[1, a:b] -= cy
        centers.append((cx, cy))
    np.multiply(w[0], w[1], out=w[2])
    np.multiply(w[:2], w[:2], out=w[:2])
    return [
        (cx, cy, *np.add.reduce(w[:, a:b], axis=1).tolist())
        for (cx, cy), a, b in zip(centers, ends, ends[1:])
    ]


def _line_from_moments(cx: float, cy: float, sxx: float, syy: float, sxy: float) -> PolarLine:
    """tls_fit's line, and its errors, from the centroid and the centered second moments."""
    spread = sxx + syy
    num = -2.0 * sxy
    den = syy - sxx
    theta = 0.5 * math.atan2(num, den)
    d = cx * math.cos(theta) + cy * math.sin(theta)
    # a centroid that is not finite leaves d not finite, and an sxy that
    # is not finite the spread, as |dx dy| <= (dx dx + dy dy) / 2; chained
    # comparisons, unlike math.isfinite, cost no call
    if not (spread < math.inf and -math.inf < d < math.inf):
        raise ValueError("line fit overflows float64: points too large or too far apart")
    if spread <= 0.0:
        raise DegenerateFitError("all points coincide")
    if math.hypot(num, den) <= ISO_TOL * spread:
        raise OrientationUndefinedError("point scatter is isotropic")
    return canonical_polar(d, theta)


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
    no information and UndefinedMeanError is raised.  The period must be
    a number, finite and > 0, and large enough that 2 pi / period is
    finite; ValueError otherwise.
    """
    a = np.ascontiguousarray(angles, dtype=np.float64)
    if a.ndim != 1:
        raise ValueError(f"angles must be one-dimensional, got shape {a.shape}")
    if a.size == 0:
        raise InsufficientDataError("circular mean of an empty set")
    period = _real(period, "period")
    if not np.isfinite(a).all():
        raise ValueError("angles must be finite")
    if not 0.0 < period < math.inf:
        raise ValueError(f"period must be finite and > 0, got {period}")
    if TWO_PI / period == math.inf:
        raise ValueError(f"period too small: 2 pi / period overflows float64, got {period!r}")
    if not (0.0 <= a.min() and a.max() < period):
        raise ValueError(f"angles must lie in [0, {period!r})")
    return _mean_from_sums(*_circular_sums(a, [0, a.size], period)[0], a.size, period)


def _circular_sums(theta: np.ndarray, ends: list[int], period: float) -> list[list[float]]:
    """[cos sum, sin sum] of theta[a:b] * (2 pi / period), for consecutive a, b in ends."""
    cs = np.empty((2, theta.size))
    np.multiply(theta, TWO_PI / period, out=cs[0])
    np.sin(cs[0], out=cs[1])
    np.cos(cs[0], out=cs[0])
    return [np.add.reduce(cs[:, a:b], axis=1).tolist() for a, b in zip(ends, ends[1:])]


def _mean_from_sums(c: float, s: float, n: int, period: float) -> float:
    """circular_mean's result, or its error, from the _circular_sums of n angles."""
    if math.hypot(c, s) <= RESULTANT_TOL * n:
        raise UndefinedMeanError("resultant vanishes, circular mean undefined")
    return wrap_angle(math.atan2(s, c) / (TWO_PI / period), period)


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


@np.errstate(over="raise")  # a decorator, as on _moments
def _window_directions(wx: np.ndarray, wy: np.ndarray) -> np.ndarray:
    """_principal_directions of the three points in each column of wx, wy.

    A sum over the three rows adds them in order, (a + b) + c.  An
    overflow in the sums or the squared spreads raises FloatingPointError.
    """
    dx = wx - wx.sum(axis=0) / 3.0
    dy = wy - wy.sum(axis=0) / 3.0
    return _principal_directions(
        (dx * dx).sum(axis=0), (dy * dy).sum(axis=0), (dx * dy).sum(axis=0)
    )


def estimate_local_angles(x, y, valid, full_circle: bool = False) -> np.ndarray:
    """Local line direction at every scan point, in [0, pi); NaN if unknown.

    A point whose neighbors on both sides are valid too is interior and
    gets the principal direction of its three-point window (previous,
    self, next).  Run endpoints borrow the estimate of their neighbor one
    step inside; runs shorter than three points stay NaN, as do invalid
    points and degenerate (coincident or isotropic) triplets.  With
    ``full_circle`` the index space wraps, so runs join across the seam
    and a fully valid scan forms a closed ring with no endpoints at all.
    The windows are gathered in blocks of _ANGLE_BLOCK interior points:
    each block is one (3, m) index array (previous, own and next beam of
    every interior point) and one gather per coordinate, and it also
    writes the run endpoints its windows reach, so the temporaries stay
    bounded however long the scan is.  Raises ValueError when a window's
    sums or squared spreads overflow float64 (coordinates of about 6e307
    in size or 1e154 apart).
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
    interior = valid.copy()
    interior[1:] &= valid[:-1]
    interior[:-1] &= valid[1:]
    interior[0] &= full_circle and valid[-1]
    interior[-1] &= full_circle and valid[0]
    center = np.flatnonzero(interior)
    for lo in range(0, center.size, _ANGLE_BLOCK):
        # index -1 is the last beam, the seam neighbor of beam 0
        w = center[lo : lo + _ANGLE_BLOCK] + np.arange(-1, 2)[:, None]
        w[2, w[2] == n] = 0
        # an overflow would leave the window's spread non-finite and its
        # direction NaN, indistinguishable from a degenerate window
        try:
            ang = _window_directions(x[w], y[w])
        except FloatingPointError:
            raise ValueError(
                "local angle windows overflow float64: "
                "scan coordinates too large or too far apart"
            ) from None
        out[w[1]] = ang
        # a window's outer beam that is not interior is a run endpoint; it
        # cannot neighbor two interior beams, or it would be interior too
        for side in (w[0], w[2]):
            end = ~interior[side]
            out[side[end]] = ang[end]
    return out
