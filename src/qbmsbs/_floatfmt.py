"""Exact "%.16e" text for float64 arrays, for the bulk CSV and JSON writers.

CPython prints each float with a correctly rounded dtoa, at about 1 us per
17-digit number, and a run writes 10^4-10^5 of them. Here a whole array is
converted at once, byte-identical to "%.16e" % x for every entry:

- e = floor(log10|x|), and y = |x| 10^(16-e) in long double, with the powers
  of ten parsed once from decimal strings, so each is correctly rounded;
- the digits are D = trunc(y) + [frac(y) > 1/2], printed with a
  "0000".."9999" table into fixed-width uint8 fields, then the sign and the
  2- or 3-digit exponent.

Below 10^17, y carries two long-double roundings of 2^-64 relative (the
power and the product), an absolute error of at most 0.011. An entry is
handed to CPython's own "%.16e" when |frac(y) - 1/2| < 0.012, when D does not
lie strictly between 10^16 and 10^17 - 1 (e was off by one, or rounding
carried into the next decade), when x is zero or not finite, and for every
entry when long double has fewer than 63 mantissa bits (a plain double) or
its decimal strings are parsed through a double.
Ryu-printf (Adams, OOPSLA 2019) solves the same fixed-precision problem
without a fallback.
"""

from __future__ import annotations

import numpy as np

WIDTH = 24  # the longest "%.16e" text: "-d.dddddddddddddddde-ddd"
BLOCK = 2048  # numbers per formatted block: bounds the buffers, fits in cache
_TIE_MARGIN = 0.012
_LONG_DOUBLE_OK = np.finfo(np.longdouble).nmant >= 63 and np.longdouble("0.1") != 0.1
# 10^(16-e) for e = floor(log10|x|), from -324 (the smallest subnormal) to 308
_E_MIN, _E_MAX = -324, 308
_SCALE = np.array([f"1e{16 - e}" for e in range(_E_MIN, _E_MAX + 1)], dtype=np.longdouble)
# "00".."99" and "0000".."9999" as one uint16 or uint32 each, in native byte order
_DIGITS = np.frombuffer("".join(f"{i:02d}" for i in range(100)).encode(),
                        np.uint8).reshape(100, 2)
_PAIRS = _DIGITS.view(np.uint16).ravel()
_QUADS = np.hstack((_DIGITS.repeat(100, axis=0), np.tile(_DIGITS, (100, 1)))) \
    .view(np.uint32).ravel()


def _fields(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(chars, keep), both (x.size, WIDTH + 1): row i's kept bytes are
    "%.16e" % x[i] followed by the separator column, preset to ','."""
    x = x.ravel()
    chars = np.empty((x.size, WIDTH + 1), np.uint8)
    keep = np.ones(chars.shape, bool)
    a = np.abs(x)
    fast = np.isfinite(a) & (a > 0) & _LONG_DOUBLE_OK
    a = np.where(fast, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.int64)
    y = a.astype(np.longdouble) * _SCALE[e - _E_MIN]
    whole = y.astype(np.int64)
    # float64 is enough for the fraction: it only decides the rounding
    # outside the tie band
    frac = (y - whole.astype(np.longdouble)).astype(float)
    digits = whole + (frac > 0.5)
    fast &= (np.abs(frac - 0.5) >= _TIE_MARGIN) & (digits > 10 ** 16) \
        & (digits < 10 ** 17 - 1)

    # digits = lead, then two 8-digit halves of two 4-digit groups each
    high, low = np.divmod(digits, 10 ** 8)
    lead, high = np.divmod(high, 10 ** 8)
    quads = np.empty((x.size, 4), np.uint32)
    for col, half in ((0, high), (2, low)):
        top = half // 10000
        quads[:, col] = np.take(_QUADS, top)
        quads[:, col + 1] = np.take(_QUADS, half - 10000 * top)
    chars[:, 0] = ord("-")
    keep[:, 0] = x < 0
    chars[:, 1] = lead + ord("0")
    chars[:, 2] = ord(".")
    chars[:, 3:19] = quads.view(np.uint8)
    chars[:, 19] = ord("e")
    chars[:, 20] = np.where(e < 0, ord("-"), ord("+"))
    e = np.abs(e)
    chars[:, 21] = e // 100 + ord("0")
    keep[:, 21] = e >= 100
    chars[:, 22:24] = np.take(_PAIRS, e % 100)[:, None].view(np.uint8)
    chars[:, WIDTH] = ord(",")

    exact = np.flatnonzero(~fast)
    if exact.size:
        texts = ["%.16e" % v for v in x[exact].tolist()]
        chars[exact, :WIDTH] = np.frombuffer(
            "".join(t.ljust(WIDTH) for t in texts).encode(), np.uint8).reshape(-1, WIDTH)
        keep[exact, :WIDTH] = np.arange(WIDTH) < np.array([len(t) for t in texts])[:, None]
    return chars, keep


def csv_blocks(table):
    """Yield the rows of a 2-D float table as CSV bytes, about BLOCK numbers
    at a time: "%.16e" fields joined by ',', each row ended by '\\n'."""
    table = np.asarray(table, dtype=float)
    rows, cols = table.shape
    step = max(1, BLOCK // cols)
    for start in range(0, rows, step):
        block = table[start:start + step]
        chars, keep = _fields(block)
        chars = chars.reshape(len(block), cols * (WIDTH + 1))
        chars[:, -1] = ord("\n")
        yield chars[keep.reshape(chars.shape)].tobytes()


def json_array(values):
    """Yield a float array as text chunks of an indented JSON list nested
    one level deep, one "%.16e" number per line: 17 significant digits,
    which parse back to the same doubles. NaN and infinities are spelled as
    json.dumps spells them."""
    values = np.asarray(values, dtype=float).reshape(-1, 1)
    if values.size == 0:
        yield "[]"
        return
    lead = "[\n    "
    for block in csv_blocks(values):
        block = block[:-1].replace(b"nan", b"NaN").replace(b"inf", b"Infinity")
        yield lead + block.replace(b"\n", b",\n    ").decode()
        lead = ",\n    "
    yield "\n  ]"
