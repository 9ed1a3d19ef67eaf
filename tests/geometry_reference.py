"""Earlier forms of ``tls_fit`` and ``circular_mean``: the bit-for-bit references.

The package computes the TLS centroid as ``np.add.reduce`` over ``n`` and
checks the circular-mean range before any finiteness scan, to save
per-call overhead.  These are the forms they replaced, kept verbatim
(``.mean()`` centroids; finiteness, period and range checked in that
order), so the tests can hold the fast forms to the same floats and the
same exceptions.  ``reference_tls_fit`` takes its second moments as the
package does, by ``np.add.reduce``: the earlier ``@`` dot products gave
bits that hung on the BLAS kernel and its thread count.
"""

import math

import numpy as np

from scanseg import (
    DegenerateFitError,
    InsufficientDataError,
    OrientationUndefinedError,
    UndefinedMeanError,
    canonical_polar,
    wrap_angle,
)
from scanseg.geometry import ISO_TOL, RESULTANT_TOL, TWO_PI


def reference_tls_fit(points):
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
    sxx = float(np.add.reduce(dx * dx))
    syy = float(np.add.reduce(dy * dy))
    sxy = float(np.add.reduce(dx * dy))
    spread = sxx + syy
    if spread <= 0.0:
        raise DegenerateFitError("all points coincide")
    num = -2.0 * sxy
    den = syy - sxx
    if math.hypot(num, den) <= ISO_TOL * spread:
        raise OrientationUndefinedError("point scatter is isotropic")
    theta = 0.5 * math.atan2(num, den)
    return canonical_polar(cx * math.cos(theta) + cy * math.sin(theta), theta)


def reference_circular_mean(angles, period=TWO_PI):
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


def outcome(fn, *args):
    """What a call gives: the bits of each float it returns, or the type
    and message of the exception it raises."""
    try:
        got = fn(*args)
    except Exception as e:  # noqa: BLE001 - the exception is the outcome
        return type(e), str(e)
    if isinstance(got, float):
        return got.hex()
    return type(got), got.d.hex(), got.theta.hex()
