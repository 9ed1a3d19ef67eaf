"""Sweep the float text kernel against repr over millions of doubles.

    PYTHONPATH=src python tests/format_sweep.py --count 10000000 --seed 1

Writes each double through ``scanseg._text.rows("%r\\n", ...)`` and
through ``repr`` and exits 1 at the first difference.  The doubles are
``--count`` seeded random bit patterns (every sign, exponent, NaN
payload and subnormal alike), and with both signs: every power of two
and the doubles one ulp either side of it, where the gap below a double
halves; every subnormal with a significand below 4096, whose shortest
decimals have the fewest digits (one for 5e-324, where the JDK keeps
two); and the 17 doubles within 8 ulps of each power of ten from 1e-323
to 1e308.  Tier-1 runs a sample of the random patterns
(``test_text.py``).
"""

from __future__ import annotations

import argparse
import math
import sys
import time

import numpy as np

from scanseg._text import rows

CHUNK = 1 << 16


def edge_values() -> np.ndarray:
    """Every power of two and its neighbours, the least subnormals and
    the doubles near every power of ten, with both signs."""
    twos = np.array([math.ldexp(1.0, e) for e in range(-1074, 1024)]).view(np.int64)
    tens = np.array([float(f"1e{k}") for k in range(-323, 309)]).view(np.int64)
    near = np.concatenate(((twos[:, None] + np.arange(-1, 2)).ravel(), np.arange(4096)))
    near = np.concatenate((near, (tens[:, None] + np.arange(-8, 9)).ravel()))
    values = near[near >= 0].view(np.float64)
    return np.concatenate((values, -values))


def chunks(count: int, seed: int):
    yield edge_values()
    rng = np.random.default_rng(seed)
    for start in range(0, count, CHUNK):
        size = min(CHUNK, count - start)
        yield rng.integers(0, 2**64, size, dtype=np.uint64).view(np.float64)


def first_mismatch(values: np.ndarray) -> tuple[float, str, str] | None:
    """(value, kernel text, repr) of the first value written differently."""
    got = rows("%r\n", [values])
    want = "".join(f"{v!r}\n" for v in values.tolist())
    if got == want:
        return None
    for v, g, w in zip(values.tolist(), got.split("\n"), want.split("\n")):
        if g != w:
            return v, g, w
    raise AssertionError("the texts differ in length only")


def sweep(count: int, seed: int) -> tuple[int, tuple[float, str, str] | None]:
    """(doubles compared, first mismatch or None)."""
    done = 0
    for values in chunks(count, seed):
        bad = first_mismatch(values)
        if bad is not None:
            return done, bad
        done += values.size
    return done, None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=10_000_000, help="random bit patterns")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    start = time.perf_counter()
    done, bad = sweep(args.count, args.seed)
    seconds = time.perf_counter() - start
    if bad is not None:
        value, got, want = bad
        print(f"mismatch after {done} doubles: {value!r} written as {got!r}, repr {want!r}")
        return 1
    print(f"{done} doubles written as repr writes them, in {seconds:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
