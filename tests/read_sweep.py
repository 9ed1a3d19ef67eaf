"""Sweep the scan record block parser against the per-record reference.

    PYTHONPATH=src python tests/read_sweep.py --count 1000000 --seed 1

Builds ``--count`` seeded random scan records, mostly valid and some
with missing or extra tokens, tabs, "\\x1f" and stray line breaks between
tokens, "|" tokens, odd flags, underscores, non-finite and non-ASCII
numbers, negative ranges and blank lines.  They go in blocks of 1-8
lines, each ending in "\\n" as ``scan_io._read_blocks`` hands them out.
``scan_io._scan_block`` must accept a block exactly when the earlier
per-record parser (``read_reference._scan_lines``) does, with the same
bits, and otherwise ``scan_io._scan_error`` must give the reference's
message and line.  Exits 1 at the first difference.  Tier-1 runs a
sample (``test_scan_io.py``).
"""

from __future__ import annotations

import argparse
import random
import sys
import time

import read_reference
from scanseg.scan_io import ScanFormatError, _scan_block, _scan_error

# tokens a record draws its numbers from besides repr of random doubles:
# ones float(), NumPy and the flag check must take or refuse alike
NUMBERS = ["0", "-0.0", "1_0", "+.5", "1e-400", "2.5E-08", "-1.5", "7."]
ODD_TOKENS = [
    "nan", "-inf", "inf", "1e400", "x", "|", "1__0", "_1", "", "\u0661", "0x1p3", "1.0\udce9",
]
FLAGS = ["0", "1"]
ODD_FLAGS = ["01", "1.0", "+1", "2", "|", "00", "-0", "1_0"]
SEPARATORS = [" ", " ", " ", "\t", "\x1f", "  ", " \t "]
ODD_SEPARATORS = ["\x0c", "\x0b", "\x1c", "\x85", "\u3000"]
TOKENS = NUMBERS + ODD_TOKENS + FLAGS + ODD_FLAGS


def number(rng: random.Random) -> str:
    if rng.random() < 0.1:
        return rng.choice(NUMBERS)
    return repr(rng.uniform(-1.0, 7.0) * 10.0 ** rng.randint(-5, 5))


def record(rng: random.Random) -> str:
    """One line of a scan file, valid about nine times in ten."""
    fields = [number(rng), number(rng), rng.choice(FLAGS)]
    if rng.random() < 0.02:
        fields = []  # a blank line
    for _ in range(3):
        if rng.random() < 0.01:
            fields.insert(rng.randrange(len(fields) + 1), rng.choice(TOKENS))
        if fields and rng.random() < 0.01:
            del fields[rng.randrange(len(fields))]
    if len(fields) == 3 and rng.random() < 0.02:
        fields[2] = rng.choice(ODD_FLAGS)
    seps = [rng.choice(SEPARATORS) for _ in range(len(fields) + 1)]
    if rng.random() < 0.9:  # no spaces before the first token or after the last
        seps[0] = seps[-1] = ""
    if rng.random() < 0.005:
        seps[rng.randrange(len(seps))] = rng.choice(ODD_SEPARATORS)
    return seps[0] + "".join(f + s for f, s in zip(fields, seps[1:]))


def outcome(parse):
    """The parse's arrays as (dtype, bytes) pairs, or its error text."""
    try:
        columns = parse()
    except ScanFormatError as e:
        return str(e)
    except AssertionError as e:
        return f"AssertionError: {e}"
    return tuple((c.dtype.str, c.tobytes()) for c in columns)


def mismatch(block: str, lineno: int) -> str | None:
    """How the block parser and the reference differ on a block whose
    first line is line ``lineno``, or None."""
    want = outcome(lambda: read_reference._scan_lines(block, lineno))

    def parse():
        columns = _scan_block(block)
        if columns is None:
            raise _scan_error(block, lineno)
        return columns

    got = outcome(parse)
    if got == want:
        return None
    return f"{block!r} from line {lineno}: block parser {got!r}, reference {want!r}"


def blocks(count: int, seed: int):
    """(block, first line number) of ``count`` records in all."""
    rng = random.Random(seed)
    done = 0
    while done < count:
        lines = min(rng.randint(1, 8), count - done)
        yield "".join(record(rng) + "\n" for _ in range(lines)), rng.randint(2, 10**6)
        done += lines


def sweep(count: int, seed: int) -> tuple[int, str | None]:
    """(records compared, first mismatch or None)."""
    done = 0
    for block, lineno in blocks(count, seed):
        bad = mismatch(block, lineno)
        if bad is not None:
            return done, bad
        done += block.count("\n")
    return done, None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=1_000_000, help="random records")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    start = time.perf_counter()
    done, bad = sweep(args.count, args.seed)
    seconds = time.perf_counter() - start
    if bad is not None:
        print(f"mismatch after {done} records: {bad}")
        return 1
    print(f"{done} records parsed as the per-record reference parses them, in {seconds:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
