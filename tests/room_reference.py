"""The earlier room validation of ``scan_io.RoomModel``: the reference.

The package tests "p lies on the closed segment ab" with one predicate,
``_on_edge``, at every site.  This is the validation it replaced, kept
verbatim: CLRS's SEGMENTS-INTERSECT (Cormen et al., *Introduction to
Algorithms*, section 33.1) with an orientation test and a bounding-box
test at each site, a fold-back test through the vertex the two edges
share, and a boundary test before the even-odd rule.  ``validate``
raises the ValueError the room model raised for the same input, or
returns None for a room it accepted.
"""

from __future__ import annotations

import math

import numpy as np


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


def validate(vertices, sensor) -> None:
    """``RoomModel.__post_init__`` without the attribute writes."""
    v = np.ascontiguousarray(vertices, dtype=np.float64)
    if v.ndim != 2 or v.shape[1] != 2 or v.shape[0] < 3:
        raise ValueError(f"vertices must have shape (V >= 3, 2), got {v.shape}")
    if not np.isfinite(v).all():
        raise ValueError("vertices must be finite")
    sensor = tuple(float(c) for c in sensor)
    if len(sensor) != 3 or not all(math.isfinite(c) for c in sensor):
        raise ValueError("sensor must be a finite (x, y, heading) triple")
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
    if not _strictly_inside(v, sensor[0], sensor[1]):
        raise ValueError("sensor must be strictly inside the polygon")


def _strictly_inside(v, px: float, py: float) -> bool:
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
