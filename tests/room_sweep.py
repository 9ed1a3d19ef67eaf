"""Sweep the room model's validation against the earlier one.

    PYTHONPATH=src python tests/room_sweep.py --count 200000 --seed 1

Builds ``--count`` seeded random rooms on a lattice: 3-7 vertices and
the sensor on a 0.5 grid over [0, 4.5]^2 (or the sensor on a vertex or
the middle of an edge), so that repeated vertices, zero-length edges,
collinear overlaps, vertices on other edges, edges folding back and
sensors on the boundary are common rather than measure-zero.
``scan_io.RoomModel`` must accept a room exactly when the earlier
validation (``room_reference.validate``) does, and otherwise raise its
message.  Exits 1 at the first difference.  Tier-1 runs a sample
(``test_scan_io.py``).
"""

from __future__ import annotations

import argparse
import collections
import math
import random
import sys
import time

import numpy as np

import room_reference
from scanseg.scan_io import RoomModel

GRID = 0.5
CELLS = 10  # coordinates 0, 0.5, ..., 4.5


def point(rng: random.Random) -> list[float]:
    return [GRID * rng.randrange(CELLS), GRID * rng.randrange(CELLS)]


def room(rng: random.Random) -> tuple[np.ndarray, tuple[float, float, float]]:
    """(vertices, sensor) of one lattice room.

    A third of the rooms go round their centroid, so many are simple; a
    fifth repeat a vertex; a fifth put the sensor on a vertex or on the
    middle of an edge.
    """
    nv = rng.randint(3, 7)
    vertices = [point(rng) for _ in range(nv)]
    if rng.random() < 1 / 3:
        cx = sum(x for x, _ in vertices) / nv
        cy = sum(y for _, y in vertices) / nv
        vertices.sort(key=lambda p: math.atan2(p[1] - cy, p[0] - cx))
    if rng.random() < 0.2:
        vertices.insert(rng.randrange(nv + 1), list(rng.choice(vertices)))
    sensor = point(rng)
    if rng.random() < 0.2:
        i = rng.randrange(len(vertices))
        a, b = vertices[i], vertices[(i + 1) % len(vertices)]
        sensor = a if rng.random() < 0.5 else [(a[0] + b[0]) / 2, (a[1] + b[1]) / 2]
    return np.array(vertices), (*sensor, 0.0)


def outcome(build) -> str:
    """The text of the ValueError the build raised, or "accepted"."""
    try:
        build()
    except ValueError as e:
        return str(e)
    return "accepted"


def mismatch(vertices: np.ndarray, sensor) -> tuple[str, str | None]:
    """(the reference's outcome, how the room model differs from it or None)."""
    want = outcome(lambda: room_reference.validate(vertices, sensor))
    got = outcome(lambda: RoomModel(vertices, sensor))
    if got == want:
        return want, None
    return want, f"{vertices.tolist()} sensor {sensor}: room model {got!r}, reference {want!r}"


def sweep(count: int, seed: int) -> tuple[collections.Counter, str | None]:
    """(outcomes of the rooms compared, first mismatch or None)."""
    rng = random.Random(seed)
    seen = collections.Counter()
    for _ in range(count):
        want, bad = mismatch(*room(rng))
        if bad is not None:
            return seen, bad
        seen[want.partition(":")[0]] += 1
    return seen, None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=200_000, help="random rooms")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    start = time.perf_counter()
    seen, bad = sweep(args.count, args.seed)
    seconds = time.perf_counter() - start
    done = sum(seen.values())
    if bad is not None:
        print(f"mismatch after {done} rooms: {bad}")
        return 1
    print(f"{done} rooms judged as the earlier validation judges them, in {seconds:.1f} s")
    for text, n in seen.most_common():
        print(f"  {n / done:6.1%}  {text}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
