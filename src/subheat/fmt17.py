"""Kernel table text, `x_index,y_index,value` lines with the value exactly
`format(v, ".17g")`, formatted a block of rows at a time in numpy.

The digits of a float64 x with 10^k <= |x| < 10^(k+1) are N, the integer
nearest y = |x| 10^(16-k), ties to even; 10^16 <= N <= 10^17. Here y is
formed as a double-double: Dekker's error-free product of |x| with hi, where
hi + lo is 10^(16-k) to about 2^-106, plus |x| lo. Its error is below 2^-45,
so rounding y to nearest is exact unless the fraction of y lies within 2^-30
of 1/2 (exact decimal ties land there), and k is exact unless y lies within
2^-30 of 10^16 or 10^17. Those values, the positional ones (exponent 1 to 16
after rounding), zeros, non-finite values and |x| outside [1e-280, 1e280],
where the products could leave the normal range, go through `_scalar`.

The powers-of-ten table is built on import, so a process that forks after
importing this module hands every child the built table.
"""

from fractions import Fraction

import numpy as np

_E_MIN, _E_MAX = -270, 300          # exponents 16 - k of the powers-of-ten table
_X_MIN, _X_MAX = 1e-280, 1e280
_BAND = 2.0 ** -30
_SPLIT = 134217729.0                # 2^27 + 1, Veltkamp's splitter
_BLOCK_VALUES = 1 << 15             # values per block: 64 rows of a 512-column table
_WIDTH = 29                         # the value slots of `_value_text`


def _powers_of_ten() -> tuple[np.ndarray, np.ndarray]:
    """(hi, lo), float64 arrays over e = _E_MIN.._E_MAX: hi is 10^e correctly
    rounded and lo is 10^e - hi correctly rounded, both from exact rationals."""
    exact = [Fraction(10) ** e for e in range(_E_MIN, _E_MAX + 1)]
    hi = [float(p) for p in exact]
    lo = [float(p - Fraction(h)) for p, h in zip(exact, hi)]
    return np.array(hi), np.array(lo)


_HI, _LO = _powers_of_ten()


def _scalar(value: float) -> str:
    """The text of one value the block path leaves out."""
    return format(value, ".17g")


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split: a = high + low, each with at most 26 significant bits."""
    c = _SPLIT * a
    high = c - (c - a)
    return high, a - high


def _scaled(a: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """floor(y) as int64 and the fraction of y, for y = a 10^(16-k)."""
    hi, lo = _HI[16 - k - _E_MIN], _LO[16 - k - _E_MIN]
    p = a * hi
    ah, al = _split(a)
    hh, hl = _split(hi)
    r = (((ah * hh - p) + ah * hl + al * hh) + al * hl) + a * lo
    whole = np.floor(r)
    return p.astype(np.int64) + whole.astype(np.int64), r - whole


def _digits(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(N, X, ambiguous) for positive normal a in [_X_MIN, _X_MAX]: the 17
    significant digits, the decimal exponent after rounding, and where the
    double-double cannot settle N or k."""
    k = np.floor(np.log10(a)).astype(np.int64)
    floor, frac = _scaled(a, k)
    off = (floor < 10 ** 16) | (floor >= 10 ** 17)     # log10 missed a decade
    if off.any():
        k[off] += np.where(floor[off] < 10 ** 16, -1, 1)
        floor[off], frac[off] = _scaled(a[off], k[off])
    ambiguous = ((np.abs(frac - 0.5) < _BAND)
                 | ((floor == 10 ** 16) & (frac < _BAND))
                 | ((floor == 10 ** 17 - 1) & (frac > 1.0 - _BAND)))
    n = floor + (frac > 0.5)
    carry = n == 10 ** 17
    n[carry] = 10 ** 16
    return n, k + carry, ambiguous


def _decimal_chars(n: np.ndarray) -> np.ndarray:
    """(len(n), 17) uint8, the ASCII digits of integers 10^16 <= n < 10^17."""
    digits = np.empty((17, len(n)), dtype=np.uint8)
    high, low = np.divmod(n, 10 ** 9)
    for part, rows in ((low.astype(np.int32), range(16, 7, -1)),
                       (high.astype(np.int32), range(7, -1, -1))):
        for j in rows:
            rest = part // 10
            digits[j] = part - 10 * rest
            part = rest
    digits += ord("0")
    return digits.T


def _value_text(x: np.ndarray, text: np.ndarray) -> None:
    """Fill `text`, (len(x), _WIDTH) uint8 slots, so that its non-NUL bytes
    spell `.17g` of each value: `_fast_text` where it can settle the text,
    else `_scalar(v)` (the values out of its range stand in as 1.0 there)."""
    a = np.abs(x)
    fast = (a >= _X_MIN) & (a <= _X_MAX)
    unsettled = _fast_text(np.where(fast, x, 1.0), text)
    slow = np.flatnonzero(~fast | unsettled)
    if slow.size:                       # each bit pattern once: a table may be all zeros
        bits, which = np.unique(x[slow].view(np.int64), return_inverse=True)
        chars = np.array([_scalar(v).encode() for v in bits.view(np.float64).tolist()],
                         dtype=f"S{_WIDTH}")
        text[slow] = chars.view(np.uint8).reshape(bits.size, _WIDTH)[which]


def _fast_text(x: np.ndarray, text: np.ndarray) -> np.ndarray:
    """Fill `text` with the `_value_text` slots of values 1e-280 <= |x| <=
    1e280; return where they are unsettled: ambiguous digits or a positional
    exponent 1..16.

    Slots: the sign; "0." and up to three zeros, for the exponents -4..-1;
    the 17 digits, with the point in the slot after the first; "e", the
    exponent's sign and its two or three digits.
    """
    n, exp, ambiguous = _digits(np.abs(x))
    chars = _decimal_chars(n)
    kept = 17 - np.argmax(chars[:, ::-1] != ord("0"), axis=1)
    exp = exp.astype(np.int16)
    scientific = (exp < -4) | (exp > 16)
    small = ~scientific & (exp < 0)
    dotted = ~small & (kept > 1)
    text[:, 0] = (x < 0) * np.uint8(ord("-"))
    text[:, 1] = small * np.uint8(ord("0"))
    text[:, 2] = small * np.uint8(ord("."))
    for zero in range(3):
        text[:, 3 + zero] = (small & (exp < -1 - zero)) * np.uint8(ord("0"))
    text[:, 6] = chars[:, 0]
    text[:, 7] = dotted * np.uint8(ord("."))
    text[:, 8:24] = chars[:, 1:] * (np.arange(1, 17) < kept[:, None])
    e = np.abs(exp)
    text[:, 24] = scientific * np.uint8(ord("e"))
    text[:, 25] = scientific * np.where(exp < 0, np.uint8(ord("-")), np.uint8(ord("+")))
    text[:, 26] = (scientific & (e >= 100)) * (e // 100 + ord("0")).astype(np.uint8)
    text[:, 27] = scientific * (e // 10 % 10 + ord("0")).astype(np.uint8)
    text[:, 28] = scientific * (e % 10 + ord("0")).astype(np.uint8)
    return ambiguous | ((exp >= 1) & (exp <= 16))


def _index_text(indices) -> np.ndarray:
    """NUL-padded uint8 rows "i," for each index."""
    text = np.array([f"{i}," for i in indices], dtype=bytes)
    return text.view(np.uint8).reshape(len(text), -1)


def table_chunks(table: np.ndarray):
    """Yield the `x_index,y_index,value` bytes of a 2-D float64 table, one
    chunk per block of about _BLOCK_VALUES values."""
    rows, cols = table.shape
    step = max(1, _BLOCK_VALUES // cols)
    y_text = _index_text(range(cols))
    for start in range(0, rows, step):
        block = table[start:start + step]
        x_text = _index_text(range(start, start + len(block)))
        wx, wy = x_text.shape[1], y_text.shape[1]
        lines = np.empty((block.size, wx + wy + _WIDTH + 1), dtype=np.uint8)
        by_row = lines.reshape(len(block), cols, -1)
        by_row[:, :, :wx] = x_text[:, None, :]
        by_row[:, :, wx:wx + wy] = y_text
        _value_text(block.ravel(), lines[:, wx + wy:-1])
        lines[:, -1] = ord("\n")
        flat = lines.ravel()
        yield flat[flat != 0].tobytes()
