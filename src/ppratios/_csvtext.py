"""CSV rows formatted a block at a time with numpy.

A float cell reads exactly as ``float.__repr__`` writes it (shortest
round-trip text) and an integer cell as ``str(int)``; text cells arrive
encoded.  ``rows`` lays a block's cells out in one uint8 matrix, each from
its own first byte, puts each separator after its cell and keeps the bytes
from each cell's first to its separator.

Float digits.  For 1e-4 <= |v| < 1e16 with a significand that is not a
power of two, ``v * 10**k`` (k = 16 - E, E the decimal exponent) is exact as
a double-double (Dekker's product), so its 17-digit integer rounding P and
the sign of the remainder are exact.  Rounding P to m digits gives a
candidate q that reads back to v exactly when ``q * 10**j`` (one IEEE
multiply or divide, exact inputs) equals v: Clinger's fast path, which
needs q < 2**53 and |j| <= 22.  The rounding interval of such a v is
symmetric, and rounding to m + 1 digits is never farther from v than to m,
so the smallest m that reads back is repr's length; the 17-digit rounding
always reads back.  Every other float cell (zeros, nan, infinities,
subnormals, exponent notation, power-of-two significands, and 16-digit
candidates at or above 2**53 when 15 digits do not read back) is written
by ``float.__repr__``.

Text.  A numeric cell is 24 bytes, three little-endian uint64 words, so
placing the decimal point and the sign takes a few word masks and shifts.
"""

from __future__ import annotations

import numpy as np

#: Bytes of a numeric cell: the widest ``float.__repr__`` text, e.g.
#: ``-2.2250738585072014e-308``.
_CELL = 24
_WORD = np.dtype("<u8")  # a cell's bytes, eight per word

_P10 = 10.0 ** np.arange(23)  # exact doubles
_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp's splitter for 53-bit significands
_P10_HI = _SPLIT * _P10 - (_SPLIT * _P10 - _P10)
_P10_LO = _P10 - _P10_HI
# q * _UP[j + 22] / _DOWN[j + 22] is q * 10**j with one rounding, |j| <= 22
_UP = np.concatenate([np.ones(22), _P10])
_DOWN = np.concatenate([_P10[:0:-1], np.ones(23)])
_I10 = 10 ** np.arange(18, dtype=np.int64)
_U10 = 10 ** np.arange(1, 20, dtype=np.uint64)  # the least values of 2..20 digits
_EXACT = 2**53  # integers below it are exact doubles


def _word_major(table: np.ndarray) -> np.ndarray:
    """``table[key, ..., byte]`` of 24-byte cells as words ``[..., word, key]``."""
    words = table.view(_WORD).astype(np.uint64)
    return np.ascontiguousarray(np.moveaxis(words, 0, -1))


def _digit_table() -> np.ndarray:
    """The four ASCII digits of 0..9999, each as the low half of a word."""
    n = np.arange(10_000)
    chars = np.zeros((10_000, 8), np.uint8)
    chars[:, :4] = np.stack([n // 1000, n // 100 % 10, n // 10 % 10, n % 10], axis=1) + ord("0")
    return chars.view(_WORD).ravel().astype(np.uint64)


_DIGITS4 = _digit_table()
_ZEROS4 = _DIGITS4[0]


def _float_layout() -> np.ndarray:
    """Words ``[(low, high, fill), word, 20 * negative + point + 3]`` that lay
    out the digit words x of a 17-digit integer (first digit at byte 7)
    with the decimal point at ``point`` as ``(x >> 8 & low) | (x & high) |
    fill``: the digits before the point move one byte down, '.' goes at
    byte 6 + point, and '-' before the first character."""
    table = np.zeros((2, 20, 3, _CELL), np.uint8)
    for i, point in enumerate(range(-3, 17)):  # repr's fixed notation
        dot = 6 + point
        first = 6 if point >= 1 else dot - 1  # a first digit, or '0' of '0.'
        table[:, i, 0, :dot] = 0xFF
        table[:, i, 1, dot + 1:] = 0xFF
        table[:, i, 2, dot] = ord(".")
        table[1, i, 0, first - 1] = 0
        table[1, i, 2, first - 1] = ord("-")
    return _word_major(table.reshape(40, 3, _CELL))


def _minus_layout() -> np.ndarray:
    """Words ``[(keep, fill), word, width]`` that put '-' before a
    right-aligned integer of ``width`` digits."""
    table = np.zeros((21, 2, _CELL), np.uint8)
    table[:, 0] = 0xFF
    for width in range(1, 20):
        table[width, 0, 23 - width] = 0
        table[width, 1, 23 - width] = ord("-")
    return _word_major(table)


_FLOAT_LAYOUT = _float_layout()
_MINUS_LAYOUT = _minus_layout()


def _digit_words(mag: np.ndarray) -> np.ndarray:
    """Four '0's, then the 20 zero-padded digits of each uint64: (3, N) words."""
    top = mag // np.uint64(10**16)
    rest = (mag - top * np.uint64(10**16)).view(np.int64)
    words = np.empty((3, len(mag)), np.uint64)
    np.bitwise_or(_ZEROS4, _DIGITS4[top] << np.uint64(32), out=words[0])
    for i, eight in ((1, rest // 10**8), (2, rest - rest // 10**8 * 10**8)):
        four = eight // 10**4
        np.bitwise_or(_DIGITS4[four], _DIGITS4[eight - four * 10**4] << np.uint64(32),
                      out=words[i])
    return words


def _int_cells(values: np.ndarray):
    """``str(int)`` of each int64 or uint64: (3, N) words, first bytes and ends."""
    negative = values < 0
    mag = values.astype(np.uint64)
    np.negative(mag, out=mag, where=negative)  # modulo 2**64: |-2**63| too
    width = 1 + np.searchsorted(_U10, mag, side="right")
    words = _digit_words(mag)
    if negative.any():
        rows = np.flatnonzero(negative)
        keep, fill = np.take(_MINUS_LAYOUT, width[rows], axis=2)
        words[:, rows] = words[:, rows] & keep | fill
    return words, _CELL - width - negative, _CELL


def _scaled(v, e):
    """``v * 10**(16 - e)`` exactly, as a rounded product and its error."""
    k = 16 - e
    hi = v * _P10[k]
    ph, pl = _P10_HI[k], _P10_LO[k]
    t = _SPLIT * v
    vh = t - (t - v)
    vl = v - vh
    return hi, ((vh * ph - hi) + vh * pl + vl * ph) + vl * pl


def _reads_back(q, j, v):
    """Whether the decimal ``q * 10**j`` (q < 2**53, |j| <= 22) reads as v."""
    return q.astype(np.float64) * _UP[j + 22] / _DOWN[j + 22] == v


def _shortest(v: np.ndarray):
    """Shortest round-trip digits of positive doubles in the domain: as a
    17-digit integer (trailing zeros padded), the decimal point position,
    the digit count, and the cells that need ``float.__repr__`` after all."""
    e = np.floor(np.log10(v)).astype(np.int64)
    hi, lo = _scaled(v, e)
    off = np.flatnonzero((hi <= 1e16) | (hi >= 1e17))  # log10 may be one off
    if off.size:
        h, l = hi[off], lo[off]
        e[off] += (((h > 1e17) | ((h == 1e17) & (l >= 0))).astype(np.int64)
                   - ((h < 1e16) | ((h == 1e16) & (l < 0))))
        hi[off], lo[off] = _scaled(v[off], e[off])
    # p: the exact x = v * 10**(16 - e) rounded half to even, in [10**16, 10**17]
    whole = np.floor(lo)
    frac = lo - whole
    p = hi.astype(np.int64) + whole.astype(np.int64)
    up = frac > 0.5
    tie = np.flatnonzero(frac == 0.5)
    up[tie] = p[tie] & 1 == 1
    p += up
    exact = frac == 0
    # (below + D // 2) // D rounds x to a multiple of D, ties down where x <= p;
    # from m <= 15 digits a tie lies D / 2 >= 50 units from x, farther than
    # the half-ulp (< 2**-53 * 10**17 < 12) within which a decimal reads back
    below = p - (up | exact)
    top = np.flatnonzero(p == _I10[17])
    e[top] += 1
    p[top] = _I10[16]
    below[top] = _I10[16] - 1

    # 16 digits where they read back, else 17
    q = (below + 5) // 10
    ties = np.flatnonzero(exact & (p - 10 * q == 5))
    q[ties] += q[ties] & 1  # to even
    sixteen = (q < _EXACT) & _reads_back(q, e - 15, v)
    digits = np.where(sixteen, 10 * q, p)
    count = 17 - sixteen
    unsure = q >= _EXACT
    # where 15 digits read back, the shortest has 1..15, found by bisection
    q = (below + 50) // 100
    short = np.flatnonzero(_reads_back(q, e - 14, v))
    unsure[short] = False
    lo_m = np.zeros(len(short), np.int64)
    hi_m = np.full(len(short), 15)
    best = q[short]
    below_s, e_s, v_s = below[short], e[short], v[short]
    for _ in range(4):  # 15 candidates
        mid = np.maximum((lo_m + hi_m) >> 1, 1)
        scale = _I10[17 - mid]
        qm = (below_s + (scale >> 1)) // scale
        good = _reads_back(qm, e_s + 1 - mid, v_s)
        live = hi_m - lo_m > 1
        take = live & good
        hi_m[take] = mid[take]
        best[take] = qm[take]
        lo_m[live & ~good] = mid[live & ~good]
    count[short] = hi_m
    digits[short] = best * _I10[17 - hi_m]
    carry = digits == _I10[17]  # 1 digit, rounded up to 10
    e += carry
    digits[carry] = _I10[16]
    return digits, e + 1, count, np.flatnonzero(unsure)


def _float_cells(values: np.ndarray):
    """``float.__repr__`` of each float64: (3, N) words, first bytes and ends."""
    mag = np.abs(values)
    domain = (mag >= 1e-4) & (mag < 1e16) & (values.view(np.uint64) << np.uint64(12) != 0)
    digits, point, count, unsure = _shortest(np.where(domain, mag, 1.5))
    negative = values < 0
    x = _digit_words(digits.view(np.uint64))
    x_down = x >> np.uint64(8)
    x_down[:2] |= x[1:] << np.uint64(56)
    low, high, fill = np.take(_FLOAT_LAYOUT, point + 3 + 20 * negative, axis=2)
    words = x_down & low | x & high | fill
    start = np.where(point >= 1, 6, 5 + point) - negative
    end = 7 + np.maximum(count, point + 1)
    other = np.union1d(np.flatnonzero(~domain), unsure)
    if other.size:
        texts = list(map(float.__repr__, values[other].tolist()))
        words[:, other] = np.array(texts, f"S{_CELL}").view(_WORD).reshape(-1, 3).T
        start[other] = 0
        end[other] = list(map(len, texts))
    return words, start, end


def _cells(part, count: int):
    """One column's characters, (count or 1, width) uint8, with each
    cell's first byte and the end of its text."""
    if isinstance(part, bytes):
        return np.frombuffer(part, np.uint8)[None, :], 0, len(part)
    if isinstance(part, list):
        chars = np.array(part, f"S{max(map(len, part), default=0) or 1}")
        return chars.view(np.uint8).reshape(count, -1), 0, list(map(len, part))
    if part.dtype.kind == "f":
        words, start, end = _float_cells(part.astype(np.float64))
    else:
        words, start, end = _int_cells(
            part.astype(np.uint64 if part.dtype.kind == "u" else np.int64))
    return np.ascontiguousarray(words.T, _WORD).view(np.uint8), start, end


def rows(parts: list, count: int) -> bytes:
    """``count`` CSV rows, one cell per part, separated by ',' and ended by '\\n'.

    A part is a 1-D float or integer ndarray of ``count`` values, a list of
    ``count`` encoded texts, or one encoded text for every row.
    """
    cells = [_cells(part, count) for part in parts]
    width = max(chars.shape[1] for chars, _, _ in cells) + 1
    block = np.empty((count, len(parts), width), np.uint8)
    start = np.empty((count, len(parts)), np.intp)
    end = np.empty((count, len(parts)), np.intp)
    for j, (chars, first, stop) in enumerate(cells):
        block[:, j, :chars.shape[1]] = chars
        start[:, j] = first
        end[:, j] = stop
    separators = np.full((1, len(parts), 1), ord(","), np.uint8)
    separators[0, -1] = ord("\n")
    np.put_along_axis(block, end[..., None], separators, axis=2)
    # keep[a * width + b]: the bytes a..b of a cell, its text and separator
    at = np.arange(width)
    keep = ((at >= at[:_CELL, None, None]) & (at <= at[:, None])).reshape(-1, width)
    return block[np.take(keep, start * width + end, axis=0)].tobytes()
