"""The block row writer against the earlier ``%`` writer, byte for byte.

``scan_io._write_rows`` formats floats with a vectorized shortest
round-trip kernel (``scanseg._text``); ``write_reference._write_rows`` is
the ``%`` form it replaced.  Every template the package writes must give
the same text for every double, integer and flag.
"""

import io
import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import format_sweep
import write_reference
from scanseg import scan_io
from scanseg._text import rows
from scanseg.scan_io import _write_rows

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1


def from_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


# 2.598865464936007e16: its interval's lower end is exact and decides
# its last digit
FINITE = [
    0.0, 5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
    1.7976931348623157e308, 1e-4, 9.999999999999999e-05, 1e-5, 1e15,
    9999999999999998.0, 1e16, 2.0**53 - 1, 2.0**53, 2.0**53 + 2, 1e22, 1e23,
    0.1, 0.3, 5e-310, 2.598865464936007e16,
    # a decimal one digit shorter is inside the interval: s // 10 (3.5),
    # the one after it (4.6)
    3.5, 4.6,
    # of s and s + 1 only one is inside
    0.6043392097476641,
    # both are inside and s + 1 is the nearer
    1.5e-323,
    # both are inside and equally near: the even one, s (...64.12) and
    # s + 1 (...64.38)
    70368744177664.125, 70368744177664.375,
]
EDGES = (
    FINITE
    + [-v for v in FINITE]
    + [math.inf, -math.inf, math.nan, from_bits(0xFFF8000000000000)]
    + [from_bits(0x7FF0000000000001), from_bits(0xFFFFFFFFFFFFFFFF)]
    + [math.ldexp(1.0, e) for e in range(-1074, 1024)]
)

DOUBLES = (st.one_of(st.integers(0, 2**64 - 1).map(from_bits), st.floats()), np.float64)
INT64 = (st.integers(INT64_MIN, INT64_MAX), np.int64)
FLAGS = (st.booleans(), bool)

# each template the package writes, with the values of its columns
TEMPLATES = {
    "%r %r %d\n": (DOUBLES, DOUBLES, FLAGS),
    "%d\n": (INT64,),
    "%r\t%d\n": (DOUBLES, INT64),
}


def written(write, line, *columns):
    f = io.StringIO()
    write(f, line, *columns)
    return f.getvalue()


def assert_same_text(line, *columns):
    got = written(_write_rows, line, *columns)
    assert got == written(write_reference._write_rows, line, *columns)
    return got


@st.composite
def table(draw, line):
    n = draw(st.integers(0, 40))
    return [
        np.array(draw(st.lists(values, min_size=n, max_size=n)), dtype)
        for values, dtype in TEMPLATES[line]
    ]


@pytest.mark.parametrize("line", list(TEMPLATES))
@settings(max_examples=60)
@given(data=st.data())
def test_templates_match_reference(line, data):
    assert_same_text(line, *data.draw(table(line)))


@pytest.mark.parametrize("line", list(TEMPLATES))
@settings(max_examples=20)
@given(data=st.data())
def test_blocks_do_not_change_the_text(line, data):
    columns = data.draw(table(line))
    with pytest.MonkeyPatch.context() as m:
        m.setattr(scan_io, "_WRITE_BLOCK", 7)
        assert_same_text(line, *columns)


@settings(max_examples=100)
@given(st.lists(INT64[0], max_size=30))
@example([INT64_MIN, INT64_MAX, 0, -1, 1, -(10**18), 10**18, -(10**8), 10**8 - 1])
def test_integers_match_percent_d(values):
    labels = np.array(values, np.int64)
    assert_same_text("%d\n", labels)
    assert_same_text("%r\t%d\n", np.zeros(len(values)), labels)


@pytest.mark.parametrize("line", list(TEMPLATES))
def test_empty_columns_write_nothing(line):
    columns = [np.empty(0, np.float64) for _ in TEMPLATES[line]]
    assert assert_same_text(line, *columns) == ""


def test_edge_doubles_match_repr():
    values = np.array(EDGES)
    text = assert_same_text("%r\t%d\n", values, np.arange(len(EDGES)))
    assert text.splitlines()[:2] == ["0.0\t0", "5e-324\t1"]
    flags = np.arange(len(EDGES)) % 3 == 0
    assert_same_text("%r %r %d\n", values, values[::-1].copy(), flags)


def test_numpy_integer_dtypes_and_flags():
    for dtype in (np.int8, np.int16, np.int32, np.uint8, np.uint32, np.int64):
        values = np.array([0, 1, 7, 100, 127], dtype)
        assert rows("%d\n", [values]) == "0\n1\n7\n100\n127\n"
    assert rows("%d %d\n", [np.array([True, False]), np.array([-5, 5])]) == "1 -5\n0 5\n"


def test_other_separators():
    x = np.array([0.5, -1e-7, math.nan])
    k = np.array([3, -40, INT64_MIN])
    for line in ("%r, %d;\n", "%r%d", "%r | %d |\n", "%d%r%d"):
        columns = [x, k] if line.count("%") == 2 else [k, x, k]
        expected = "".join(line % row for row in zip(*(c.tolist() for c in columns)))
        assert rows(line, columns) == expected


def test_unsupported_templates_are_refused():
    for line in ("%s\n", "%r %% %d\n", "%r\n", "<%r>\t%d\n", "%r, and %d\n"):
        with pytest.raises(ValueError, match="unsupported row template"):
            rows(line, [np.zeros(2), np.zeros(2)])


def test_sweep_sample():
    """A sample of the large sweep CI runs (tests/format_sweep.py):
    every power of two, the doubles near every power of ten, and 200k
    random bit patterns."""
    done, bad = format_sweep.sweep(200_000, seed=15)
    assert bad is None
    assert done > 200_000
