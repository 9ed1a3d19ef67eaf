"""Text of float and integer columns, one byte matrix per block of rows.

A float is written as ``repr`` writes it: the shortest decimal that reads
back to the same double, the nearest such when there are several, laid
out by CPython's rule.  The digits come from Schubfach (R. Giulietti,
"The Schubfach way to render doubles", 2020), a port of the JDK's
``DoubleToDecimal.toDecimal`` to uint64 arrays.  One table holds 10**-k
to 126 bits for every decimal exponent k, exact from Python ints at
import.  The value and the ends of its rounding interval are scaled by
it with 64x64-bit high products built from 32-bit halves, rounded to
odd, and the digits are the one candidate inside the interval of at
most four: one digit shorter, or the two around the value, the nearer
when both are inside, ties to the even digit.  The JDK keeps at least
two digits (4.9E-324), so its guard on the shorter candidate, its
scaling of the least significands by 10 and its shortcut for small
integers are left out; repr takes one digit (5e-324).  Trailing zeros
are dropped in greedy steps of 16, 8, 4, 2 and 1, each dividing by a
scalar power of ten.  An integer is written as ``%d`` writes it.

A set of rows is one matrix of little-endian uint64 words, a fixed run
of words per field, formatted a block of rows at a time (_table).
Digits go eight to a word by SWAR arithmetic (each byte of a word a
lane), so every step works on whole columns; bytes a value does not use
hold 0, and one ``bytes.translate`` of the matrix's bytes drops them
(_text).
``rows`` is the two in turn.  A caller that writes many equal rows can
instead format each distinct row once and take the text of gathers of
that table's rows.
"""

from __future__ import annotations

import re

import numpy as np

_U64 = np.uint64
_M32 = _U64(0xFFFFFFFF)
_M63 = _U64((1 << 63) - 1)
_POW10 = np.array([10**k for k in range(20)], np.uint64)
_STEPS = (16, 8, 4, 2, 1)  # zeros dropped per greedy step, at most 31 in all


def _log2_pow10(e):
    """floor(e * log2(10)), exact for |e| <= 1233."""
    return (e * 913124641741) >> 38


def _g(k: int) -> int:
    """floor(10**-k / 2**r) + 1 with r = _log2_pow10(-k) - 125, so that
    2**125 <= g < 2**126: 10**-k to 126 bits, rounded up."""
    r = _log2_pow10(-k) - 125
    num, den = (10**-k, 1) if k <= 0 else (1, 10**k)
    return (num << max(-r, 0)) // (den << max(r, 0)) + 1


# the one table, g(k) for every decimal exponent k a scale can take, exact
# from Python ints, in 63-bit limbs
_K_MIN = -324
_G1, _G0 = np.array([divmod(_g(k), 2**63) for k in range(_K_MIN, 293)], np.uint64).T


def _mul_high(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The high word of each 128-bit product a * b, from 32-bit halves."""
    a0, a1 = a & _M32, a >> _U64(32)
    b0, b1 = b & _M32, b >> _U64(32)
    p01, p10 = a0 * b1, a1 * b0
    mid = ((a0 * b0) >> _U64(32)) + (p01 & _M32) + (p10 & _M32)
    return a1 * b1 + (p01 >> _U64(32)) + (p10 >> _U64(32)) + (mid >> _U64(32))


def _rop(g1: np.ndarray, g0: np.ndarray, cp: np.ndarray) -> np.ndarray:
    """g * cp / 2**127 rounded to odd, g = g1 * 2**63 + g0 and cp < 2**63:
    its floor, with the lowest bit set when the quotient is not whole."""
    z = ((g1 * cp) >> _U64(1)) + _mul_high(g0, cp)
    return (_mul_high(g1, cp) + (z >> _U64(63))) | (((z & _M63) + _M63) >> _U64(63))


def _shortest(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(digits, exponent) with digits * 10**exponent the shortest decimal
    that rounds to each positive finite double of ``bits``, the nearest
    such, and digits never ending in 0."""
    fraction = bits & _U64((1 << 52) - 1)
    b = (bits >> _U64(52)).astype(np.int64)
    q = np.maximum(b, 1) - 1075
    c = fraction | ((b != 0).astype(np.uint64) << _U64(52))
    # the gap below a normal power of two is half the gap above
    irregular = (fraction == 0) & (b > 1)
    # 10**k <= the width of the rounding interval < 10**(k + 1)
    k = (q * 661971961083 - irregular * 274743187321) >> 41
    h = (q + _log2_pow10(-k) + 2).astype(np.uint64)
    g1, g0 = np.take(_G1, k - _K_MIN), np.take(_G0, k - _K_MIN)
    # the value and its interval's ends, times 4 / 10**k, rounded to odd
    cb = c << _U64(2)
    vb = _rop(g1, g0, cb << h)
    vbl = _rop(g1, g0, (cb - _U64(2) + irregular) << h)
    vbr = _rop(g1, g0, (cb + _U64(2)) << h)
    odd = c & _U64(1)  # an odd significand leaves the ends out
    s = vb >> _U64(2)
    # the interval holds at most one multiple of 10**(k + 1): sp or sp + 1
    sp = s // _U64(10)
    upin = vbl + odd <= _U64(40) * sp
    wpin = _U64(40) * sp + _U64(40) + odd <= vbr
    # and at least one of s and s + 1: the one inside, else the nearer to
    # vb, ties to the even one
    uin = vbl + odd <= s << _U64(2)
    win = (s << _U64(2)) + _U64(4) + odd <= vbr
    mid = (s << _U64(2)) + _U64(2)
    up = np.where(uin != win, win, (vb > mid) | ((vb == mid) & (s & _U64(1) == 1)))
    shorter = upin != wpin
    digits = np.where(shorter, sp + wpin, s + up)
    exponent = k + shorter
    # drop the zeros the digits end in
    z = np.flatnonzero(digits % _U64(10) == 0)
    if z.size:
        v, e = digits[z], exponent[z]
        for step in _STEPS:
            take = v % _POW10[step] == 0
            v = np.where(take, v // _POW10[step], v)
            e += take * step
        digits[z], exponent[z] = v, e
    return digits, exponent


def _digit_table() -> np.ndarray:
    """What turns the raw digits of a 3-word string into text, as 3 rows
    of words indexed by (minus * 25 + start) * 20 + after: "0" added from
    byte ``start`` on (the first digit), "." added at byte 23 - after
    when 1 <= after <= 16 (a 0 digit is there), "-" at byte start - 1."""
    table = np.zeros((2, 25, 20, 24), np.uint8)
    for start in range(25):
        table[:, start, :, start:] = ord("0")
        if start:
            table[1, start, :, start - 1] = ord("-")
    for after in range(1, 17):
        table[:, :, after, 23 - after] = ord(".")
    return np.ascontiguousarray(table.reshape(-1, 24).view("<u8").T, np.uint64)


_DIGIT_BYTES = _digit_table()
_NO_DOT = 19  # an `after` that puts no "."; 10**19 exceeds every digit string


def _word(text: bytes) -> int:
    return int.from_bytes(text.ljust(8, b"\0"), "little")


_EXP_MIN = -324  # the least decimal exponent of a double, as e-324
# a float's first word: [minus] "0." and up to three zeros, indexed
# 5 * minus + zeros + 1, 5 * minus when the value is not below 1
_HEADS = np.array(
    [_word(s + h) for s in (b"", b"-") for h in (b"", b"0.", b"0.0", b"0.00", b"0.000")], np.uint64
)
# its last word: nothing, ".0" for a whole value, or "e%+03d" at
# 2 + e - _EXP_MIN; room for 3 bytes of the literal after it
_TAILS = np.array(
    [_word(b""), _word(b".0")] + [_word(b"e%+03d" % e) for e in range(_EXP_MIN, 309)], np.uint64
)
_SPECIALS = np.array([_word(t) for t in (b"inf", b"-inf", b"nan", b"nan")], np.uint64)
_SEPARATOR = 3  # bytes after a field, which its last word holds


def _swar8(x: np.ndarray) -> np.ndarray:
    """The 8 decimal digits of each x < 10**8 as bytes 0 to 9, most
    significant first, in a little-endian word."""
    a = x // _U64(10000)
    v = a | ((x - a * _U64(10000)) << _U64(32))
    h = ((v * _U64(10486)) >> _U64(20)) & _U64(0x0000007F0000007F)  # lane // 100
    v = h | ((v - h * _U64(100)) << _U64(16))
    t = ((v * _U64(103)) >> _U64(10)) & _U64(0x000F000F000F000F)  # lane // 10
    return t | ((v - t * _U64(10)) << _U64(8))


def _digit_words(v: np.ndarray, code: np.ndarray, size: int) -> np.ndarray:
    """v < 10**(8 * size) right-aligned in the last ``size`` words of a
    3-word string, as (size, n) words, made text by _DIGIT_BYTES[code]."""
    chunks = np.empty((size, v.size), np.uint64)
    for i in range(size - 1, 0, -1):
        q = v // _U64(10**8)
        chunks[i] = v - q * _U64(10**8)
        v = q
    chunks[0] = v
    return _swar8(chunks) + np.take(_DIGIT_BYTES[3 - size :], code, axis=1)


def _put_floats(out: np.ndarray, x: np.ndarray, separator: bytes) -> None:
    """repr of each double and ``separator`` into the 4 words of each row
    of ``out``."""
    bits = np.ascontiguousarray(x, np.float64).view(np.uint64)
    minus = (bits >> _U64(63)).astype(np.intp)
    magnitude = bits & _U64((1 << 63) - 1)
    finite = magnitude < _U64(0x7FF << 52)
    zero = magnitude == 0
    digits, exponent = _shortest(np.where(finite & ~zero, magnitude, _U64(0x3FF << 52)))
    digits[zero] = 0
    exponent[zero] = 0
    length = _lengths(digits)
    point = exponent + length  # digits before the decimal point
    sci = (point <= -4) | (point > 16)
    below_one = ~sci & (point <= 0)
    whole = ~sci & (point >= length)
    # a whole value is written with its zeros, then ".0"; otherwise a "."
    # may fall before the last `after` digits: the string of digits
    # gets a 0 digit there, for _DIGIT_BYTES to make a "."
    zeros = np.where(whole, point - length, 0)
    after = np.where(sci, length - 1, np.where(whole | below_one, 0, length - point))
    after[after == 0] = _NO_DOT
    p = np.take(_POW10, after)
    n = digits * np.take(_POW10, zeros) + _U64(9) * (digits // p) * p
    start = 24 - length - zeros - (after != _NO_DOT)
    words = _digit_words(n, start * 20 + after, 3)
    words[0] |= np.take(_HEADS, 5 * minus + np.where(below_one, 1 - point, 0))
    out[:, :3] = words.T
    separator = _U64(int.from_bytes(separator, "little") << 8 * (8 - len(separator)))
    out[:, 3] = np.take(_TAILS, np.where(sci, 1 - _EXP_MIN + point, whole)) | separator
    special = np.flatnonzero(~finite)
    if special.size:
        nan = (magnitude[special] > _U64(0x7FF << 52)).astype(np.intp)
        out[special, 0] = _SPECIALS[2 * nan + minus[special]]
        out[special, 1:3] = 0
        out[special, 3] = separator


def _int_size(x: np.ndarray, separator: bytes) -> int:
    """Words for %d of the integers of x and ``separator``: the digits of
    the largest magnitude, a sign and the separator."""
    top = np.abs(np.asarray(x).astype(np.int64)).view(np.uint64).max(initial=0)
    return -(-(1 + int(_lengths(top)) + len(separator)) // 8)


def _put_ints(out: np.ndarray, x: np.ndarray, separator: bytes) -> None:
    """%d of each integer and ``separator``, right-aligned in the words
    of each row of ``out``."""
    v = np.asarray(x).astype(np.int64)
    minus = v < 0
    magnitude = np.where(minus, -v.view(np.uint64), v.view(np.uint64))
    code = (minus * 25 + 24 - _lengths(magnitude)) * 20 + _NO_DOT
    words = _digit_words(magnitude, code, out.shape[1])
    if separator:
        b = _U64(8 * len(separator))
        shifted = words >> b
        shifted[:-1] |= words[1:] << (_U64(64) - b)
        shifted[-1] |= _U64(int.from_bytes(separator, "little") << 64 - b)
        words = shifted
    out[:] = words.T


def _lengths(v: np.ndarray) -> np.ndarray:
    """Decimal digit count of each uint64, 1 for 0."""
    return np.searchsorted(_POW10[1:], v, side="right") + 1


_FIELD = re.compile(r"%([rd])")


def _table(line: str, columns, block: int) -> np.ndarray:
    """The word matrix of ``line % row`` for each row of the equal-length
    columns, one row of words per row, formatted ``block`` rows at a time
    so that the kernels' temporaries are those of one block.

    ``line`` is a ``%r`` for each float column or a ``%d`` for each
    column of bools or of integers within int64, each followed by up to
    _SEPARATOR ASCII characters, which share the field's last word.
    """
    parts = _FIELD.split(line)
    kinds, separators = parts[1::2], [t.encode("ascii") for t in parts[2::2]]
    if parts[0] or len(kinds) != len(columns) or any(
        len(t) > _SEPARATOR or b"%" in t or b"\0" in t for t in separators
    ):
        raise ValueError(f"unsupported row template {line!r}")
    sizes = [4 if k == "r" else _int_size(c, t) for k, c, t in zip(kinds, columns, separators)]
    n = len(columns[0]) if columns else 0
    table = np.empty((n, sum(sizes)), "<u8")
    for start in range(0, n, block):
        at = 0
        for kind, column, separator, size in zip(kinds, columns, separators, sizes):
            put = _put_floats if kind == "r" else _put_ints
            put(table[start : start + block, at : at + size], column[start : start + block], separator)
            at += size
    return table


def _text(table: np.ndarray) -> str:
    """The rows of a word matrix as text: its bytes without the zeros."""
    return table.tobytes().translate(None, b"\0").decode("ascii")


def rows(line: str, columns) -> str:
    """``line % row`` for each row of the equal-length columns, joined,
    with ``line`` as in _table."""
    return _text(_table(line, columns, max(len(columns[0]) if columns else 0, 1)))
