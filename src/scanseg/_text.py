"""Text of float and integer columns, one byte matrix per block of rows.

A float is written as ``repr`` writes it: the shortest decimal that reads
back to the same double, the nearest such when there are several, laid
out by CPython's rule.  The digits come from Ryu (Adams, "Ryu: fast
float-to-string conversion", PLDI 2018), ported to uint64 arrays: the
128-bit products are built from 32-bit pieces, and the digits to drop
are found in greedy steps of 16, 8, 4, 2 and 1, each dividing by a
scalar power of ten.  An integer is written as ``%d`` writes it.

A block of rows is one matrix of little-endian uint64 words, a fixed
run of words per field.  Digits go eight to a word by SWAR arithmetic
(each byte of a word a lane), so every step works on whole columns;
bytes a value does not use hold 0, and one mask over the matrix's bytes
drops them.
"""

from __future__ import annotations

import re

import numpy as np

_U64 = np.uint64
_M32 = _U64(0xFFFFFFFF)
_POW10 = np.array([10**k for k in range(20)], np.uint64)
_STEPS = (16, 8, 4, 2, 1)  # digits dropped per greedy step, at most 31 in all


def _pow5_125(i: int) -> int:
    """5**i scaled to 125 bits, rounded down."""
    p = 5**i
    shift = p.bit_length() - 125
    return p >> shift if shift >= 0 else p << -shift


# Ryu's two 125-bit tables, exact from Python ints: 2**k / 5**q rounded up
# for binary exponents >= 0 (q < 342), 5**i for those below (i < 326)
_POW5_INV = [(1 << (5**q).bit_length() - 1 + 125) // 5**q + 1 for q in range(342)]
_POW5_SCALED = [_pow5_125(i) for i in range(326)]


def _exponent_rows():
    """Everything of Ryu's step 3 that depends only on the biased exponent
    b of a double, one row per b: the decimal exponent e10, the table
    entry's 32-bit quarters, the shift past 64 bits, the mask whose bits
    of 4 * m2 must all be 0 for vr to be exact (0 where vr and vm are
    exact outright, binary exponents -4 to -1), and the q of 5**q that
    decides exactness (binary exponents 0 to 73; -1 elsewhere)."""
    for b in range(2047):
        e2 = max(b, 1) - 1077  # of 4 * m2, m2 the mantissa with its hidden bit
        pow5_q = -1
        if e2 >= 0:
            q = (e2 * 78913 >> 18) - (e2 > 3)
            mul = _POW5_INV[q]
            shift = -e2 + q + 124 + (5**q).bit_length()
            e10, trail = q, ~0
            if q <= 21:
                pow5_q = q
        else:
            q = (-e2 * 732923 >> 20) - (-e2 > 1)
            i = -e2 - q
            mul = _POW5_SCALED[i]
            shift = q - (5**i).bit_length() + 125
            e10 = q + e2
            trail = 0 if q <= 1 else (1 << q) - 1 if q < 63 else ~0
        quarters = [mul >> 32 * k & 0xFFFFFFFF for k in range(4)]
        yield e10, *quarters, shift - 64, trail & (2**64 - 1), pow5_q


_POW5 = np.array([5**q for q in range(22)], np.uint64)
_E10, _MUL0, _MUL1, _MUL2, _MUL3, _DIST, _TRAIL, _POW5_Q = (
    np.array(column, dtype)
    for column, dtype in zip(zip(*_exponent_rows()), [np.int64] + [np.uint64] * 6 + [np.int64])
)


def _mul_shift(m: np.ndarray, mul: list[np.ndarray], dist: np.ndarray) -> np.ndarray:
    """floor(m * mul / 2**(64 + dist)) for m below 2**55, ``mul`` a
    128-bit number in 32-bit quarters, least first, and 0 < dist < 64."""
    m0 = m & _M32
    m1 = m >> _U64(32)
    a0, a1, a2, a3 = mul
    # h0: the high word of m * (a1:a0)
    p = m1 * a0
    mid = ((m0 * a0) >> _U64(32)) + (p & _M32) + m0 * a1
    h0 = m1 * a1 + (p >> _U64(32)) + (mid >> _U64(32))
    # (h1, l1) = m * (a3:a2)
    low = m0 * a2
    p = m1 * a2
    mid = (low >> _U64(32)) + (p & _M32) + m0 * a3
    h1 = m1 * a3 + (p >> _U64(32)) + (mid >> _U64(32))
    l1 = (mid << _U64(32)) | (low & _M32)
    s = h0 + l1
    h1 += s < h0
    return (h1 << (_U64(64) - dist)) | (s >> dist)


def _interval(bits: np.ndarray):
    """Ryu's steps 1 to 3 for positive finite doubles: vr, vp and vm, the
    value and the ends of its rounding interval as decimals with e10 as
    exponent; whether vr and vm are exact, and whether the ends are in
    the interval (the mantissa is even)."""
    fraction = bits & _U64((1 << 52) - 1)
    b = (bits >> _U64(52)).astype(np.intp)
    mm_shift = (fraction != 0) | (b <= 1)  # False: the gap below is half the gap above
    in_bounds = (fraction & _U64(1)) == 0
    mv = (fraction | ((b != 0).astype(np.uint64) << _U64(52))) << _U64(2)
    e10 = np.take(_E10, b)
    trail = np.take(_TRAIL, b)
    vr_exact = (mv & trail) == 0
    exact = trail == 0
    pow5_q = np.take(_POW5_Q, b)
    pow5 = np.flatnonzero(pow5_q >= 0)
    mul = [np.take(t, b) for t in (_MUL0, _MUL1, _MUL2, _MUL3)]
    dist = np.take(_DIST, b)
    vr = _mul_shift(mv, mul, dist)
    vp = _mul_shift(mv + _U64(2), mul, dist)
    vm = _mul_shift(mv - _U64(1) - mm_shift, mul, dist)
    vm_exact = exact & in_bounds & mm_shift
    vp -= exact & ~in_bounds
    if pow5.size:
        # binary exponents 0 to 73: 5**q may divide an end of the interval
        m, p5, shift, bounds = mv[pow5], _POW5[pow5_q[pow5]], mm_shift[pow5], in_bounds[pow5]
        fives = m % _U64(5) == 0
        vr_exact[pow5] = fives & (m % p5 == 0)
        vm_exact[pow5] = ~fives & bounds & ((m - _U64(1) - shift) % p5 == 0)
        vp[pow5] -= ~fives & ~bounds & ((m + _U64(2)) % p5 == 0)
    return vr, vp, vm, e10, vr_exact, vm_exact, in_bounds


def _shortest(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(digits, exponent) with digits * 10**exponent the shortest decimal
    that rounds to each positive finite double of ``bits``, the nearest
    such."""
    vr, vp, vm, e10, vr_exact, vm_exact, in_bounds = _interval(bits)
    # drop digits while the interval still holds a shorter decimal
    removed = np.zeros(bits.shape, np.int64)
    vm_cut = vm
    for s in _STEPS:
        vp_s = vp // _POW10[s]
        vm_s = vm_cut // _POW10[s]
        take = vp_s > vm_s
        if take.any():
            vp = np.where(take, vp_s, vp)
            vm_cut = np.where(take, vm_s, vm_cut)
            removed += take * s
    if vm_exact.any():
        # where vm is exact, and so is what is left of it (never 0), drop
        # the zeros it ends in as well
        vm_exact &= vm_cut * np.take(_POW10, removed) == vm
        k = np.flatnonzero(vm_exact)
        v, r = vm_cut[k], removed[k]
        for s in _STEPS:
            take = v % _POW10[s] == 0
            v = np.where(take, v // _POW10[s], v)
            r += take * s
        vm_cut[k], removed[k] = v, r
    # round at the last dropped digit, half to even when vr is exact
    last_place = np.take(_POW10, np.maximum(removed - 1, 0))
    vr_kept = vr // last_place
    has_last = removed > 0
    last = np.where(has_last, vr_kept % _U64(10), _U64(0))
    digits = np.where(has_last, vr_kept // _U64(10), vr_kept)
    vr_exact &= vr_kept * last_place == vr
    last[vr_exact & (last == 5) & ((digits & _U64(1)) == 0)] = 4
    digits += ((digits == vm_cut) & ~(in_bounds & vm_exact)) | (last >= 5)
    return digits, e10 + removed


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


def rows(line: str, columns) -> str:
    """``line % row`` for each row of the equal-length columns, joined.

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
    text = np.empty((len(columns[0]) if columns else 0, sum(sizes)), "<u8")
    at = 0
    for kind, column, separator, size in zip(kinds, columns, separators, sizes):
        put = _put_floats if kind == "r" else _put_ints
        put(text[:, at : at + size], column, separator)
        at += size
    text = text.view(np.uint8).reshape(-1)
    return text[text != 0].tobytes().decode("ascii")
