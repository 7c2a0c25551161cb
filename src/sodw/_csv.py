"""A dataset's CSV bytes, each number byte for byte as "%.17g" % number formats it.

csv_blocks yields the header line, then one bytes object per block of rows.
A block is formatted by numpy operations over all of its cells at once.  For
each finite non-zero |x| in [1e-280, 1e280] it finds the decimal exponent k
and the 17 digits D = round(|x| * 10**(16 - k)) from a double-double product:
Dekker's exact two-product (Numer. Math. 18, 224, 1971) of |x| with hi, plus
|x| * lo, where hi + lo is 10**(16 - k) correctly rounded to 106 bits.
log10 only guesses k; the scaled value settles it, so 1e-07 (just below
10**-7) prints as 9.9999999999999995e-08.  D and k are laid out as %g does:
fixed notation for -4 <= k < 17, else d.ddd...e+XX, trailing zeros dropped.
Each cell is written into a fixed run of bytes, zero-padded, and the zero
bytes are dropped at the end.  The lookup tables and the powers of ten are
built on first use.

"%.17g" % itself formats every cell the fast path cannot certify: nan, inf,
|x| outside [1e-280, 1e280], and scaled values within 1e-6 of a rounding half:
exact ties, which % rounds half to even, and values that the double-double's
error of about 1e-14 could put on the wrong side.
Text columns are written as they are, UTF-8 encoded, each distinct string
encoded once; they hold no NUL.
"""

from __future__ import annotations

import functools

import numpy as np

# cells per block: sets the memory a write holds at once, not the bytes written
_BLOCK_CELLS = 4096

# decimal exponents with a power-of-ten entry; the fast path stays within them
_K_MIN, _K_MAX = -282, 282
_FAST_MIN, _FAST_MAX = 1e-280, 1e280

# A cell is _WORDS little-endian 8-byte words, written as integers of ASCII
# bytes (each < 0x80, so every word is a non-negative int64):
#   bytes 0-7    sign, "0." and up to three zeros (k < 0 in fixed notation), digit 1, point slot
#   bytes 8-39   digits 2 to 17, each followed by a point slot
#   bytes 40-47  "e", exponent sign and three digits (scientific notation); the separator last
_WORDS = 6
_CELL = 8 * _WORDS


@functools.cache
def _digit_tables():
    """Tables over four digits c (0 <= c < 10000) and over the count s of digits shown.

    spread[c]: the ASCII digits of c, a zero byte (a point slot) after each.
    last[c]: the place, 1 to 4, of the last non-zero digit of c, and -16
    when c == 0.  keep[j, s]: the mask of word 1 + j that keeps the digits
    among the first s shown, with their point slots.
    """
    c = np.arange(10000)
    spread = np.zeros(c.size, np.int64)
    last = np.full(c.size, -16)
    for place, scale in enumerate((1000, 100, 10, 1)):
        digit = c // scale
        c -= digit * scale
        spread |= (digit + 48) << 16 * place
        last[digit != 0] = place + 1
    masks = [(1 << 16 * m) - 1 for m in range(4)] + [-1]
    keep = [[masks[min(max(s - 1 - 4 * j, 0), 4)] for s in range(18)] for j in range(4)]
    return spread, last, np.array(keep)


@functools.cache
def _exponent_tables():
    """Tables over the decimal exponent k, in rows k - _K_MIN.

    units: the digits that fixed notation shows before the point.  point:
    the digit the point follows (0 in scientific notation; 16, none, for
    k < 0 in fixed notation, whose "0." is in the prefix).  prefix: word 0's
    "0." and -k - 1 zeros.  exponent: word 5's "e", sign and digits.
    """
    rows = []
    for k in range(_K_MIN, _K_MAX + 1):
        if -4 <= k < 17:
            prefix = b"\0" + b"0." + b"0" * (-k - 1) if k < 0 else b""
            rows.append((max(k + 1, 0), k if k >= 0 else 16, prefix, b""))
        else:
            sign = b"-" if k < 0 else b"+"
            hundreds = b"%d" % (abs(k) // 100) if abs(k) >= 100 else b"\0"
            rows.append((0, 0, b"", b"e" + sign + hundreds + b"%02d" % (abs(k) % 100)))
    units, point, prefix, exponent = zip(*rows)
    words = ([int.from_bytes(text, "little") for text in column] for column in (prefix, exponent))
    return np.array(units), np.array(point), *map(np.array, words)


_SPLIT = 134217729.0  # 2**27 + 1: Dekker's splitter for a 53-bit significand


def _split(a):
    """Dekker's split: hi + lo == a, each half with at most 26 significant bits."""
    c = _SPLIT * a
    hi = c - (c - a)
    return hi, a - hi


@functools.cache
def _powers():
    """hi, its Dekker halves and lo of 10**(16 - k), in rows k - _K_MIN, built on first use.

    hi is 10**(16 - k) correctly rounded and lo the correctly rounded rest,
    both from exact integer ratios (int / int rounds correctly).
    """
    hi, lo = [], []
    for k in range(_K_MIN, _K_MAX + 1):
        num, den = (10 ** (16 - k), 1) if k <= 16 else (1, 10 ** (k - 16))
        h = num / den
        h_num, h_den = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * h_den - h_num * den) / (den * h_den))
    hi = np.array(hi)
    return (hi, *_split(hi), np.array(lo))


def _scaled(x, k):
    """|x| * 10**(16 - k) as s + e, |e| <= ulp(s) / 2, to about 1e-30 relative (x > 0)."""
    row = k - _K_MIN
    hi, hi_h, hi_l, lo = (table.take(row) for table in _powers())
    p = x * hi
    x_h, x_l = _split(x)
    e = ((x_h * hi_h - p) + x_h * hi_l + x_l * hi_h) + x_l * hi_l + x * lo
    s = p + e
    return s, e - (s - p)


def _significand(x):
    """(D, k, unsure) of x > 0: its 17 digits, decimal exponent, and where D may be off."""
    k = np.floor(np.log10(x)).astype(np.int64)
    s, e = _scaled(x, k)
    for _ in range(3):
        up = (s > 1e17) | ((s == 1e17) & (e >= 0))
        down = (s < 1e16) | ((s == 1e16) & (e < 0))
        off = up | down
        if not off.any():
            break
        k[off] += np.where(up[off], 1, -1)
        s[off], e[off] = _scaled(x[off], k[off])
    r = np.floor(e + 0.5)
    unsure = off | (np.abs(np.abs(e - r) - 0.5) < 1e-6)
    digits = s.astype(np.int64) + r.astype(np.int64)
    carry = digits == 10**17
    digits[carry] = 10**16
    return digits, k + carry, unsure


def _number_cells(x):
    """(len(x), _WORDS) words of each number's bytes, zero-padded; the separator is left 0."""
    a = np.abs(x)
    zero = a == 0
    fast = zero | ((a >= _FAST_MIN) & (a <= _FAST_MAX))
    digits, k, unsure = _significand(np.where(fast & ~zero, a, 1.0))
    digits[zero] = 0
    k[zero] = 0
    fast &= ~unsure
    # the first digit, then four runs of four digits
    lead = digits // 10**16
    rest = digits - lead * 10**16
    chunks = []
    for scale in (10**12, 10**8, 10**4, 1):
        chunks.append(rest // scale)
        rest -= chunks[-1] * scale
    spread, last, keep = _digit_tables()
    units, point_at, prefix, exponent = _exponent_tables()
    length = np.ones(x.size, np.int64)
    for j, chunk in enumerate(chunks):
        np.maximum(length, last.take(chunk) + (1 + 4 * j), out=length)
    row = k - _K_MIN
    shown = np.maximum(length, units.take(row))
    point = point_at.take(row)

    cells = np.empty((x.size, _WORDS), "<i8")
    cells[:, 0] = prefix.take(row) | (lead + 48) << 48 | np.signbit(x) * ord("-")
    for j, (keep_j, chunk) in enumerate(zip(keep, chunks)):
        cells[:, 1 + j] = spread.take(chunk) & keep_j.take(shown)
    cells[:, 5] = exponent.take(row)
    dotted = np.flatnonzero(length > point + 1)
    cells.view(np.uint8).reshape(-1)[dotted * _CELL + 7 + 2 * point[dotted]] = ord(".")

    slow = np.flatnonzero(~fast)
    if slow.size:
        texts = [("%.17g" % v).encode() for v in x[slow].tolist()]
        cells[slow] = 0
        cells[slow, :3] = np.array(texts, dtype="S24").view("<i8").reshape(slow.size, 3)
    return cells


def _text_cells(column):
    """(len(column), width + 1) zero-padded UTF-8 bytes of each string, then a separator.

    Each distinct string is encoded once, and its cell copied to every row that holds it.
    """
    texts, rows = np.unique(column, return_inverse=True)
    encoded = np.array([text.encode() for text in texts.tolist()], dtype=bytes)
    width = encoded.dtype.itemsize
    cells = np.full((texts.size, width + 1), ord(","), np.uint8)
    cells[:, :width] = encoded.view(np.uint8).reshape(texts.size, width)
    return cells[rows.reshape(-1)]


def csv_blocks(ds):
    """The CSV bytes of a dataset: its header line, then one bytes object per block of rows.

    A dataset needs at least one numeric column.
    """
    columns = ds.columns
    rows = {len(column) for column in columns}
    if len(rows) > 1:
        raise ValueError(f"dataset {ds.name!r} has columns of unequal length: {sorted(rows)}")
    yield (",".join(ds.header) + "\n").encode()
    text = [column.dtype.kind == "U" for column in columns]
    numeric = [column for column, is_text in zip(columns, text) if not is_text]
    step = max(1, _BLOCK_CELLS // len(columns))
    for start in range(0, rows.pop(), step):
        block = slice(start, start + step)
        values = np.stack([np.asarray(column[block], dtype=float) for column in numeric], axis=1)
        cells = _number_cells(values.ravel()).view(np.uint8).reshape(len(values), -1)
        cells[:, _CELL - 1 :: _CELL] = ord(",")
        if any(text):
            number_cells = iter(np.hsplit(cells, len(numeric)))
            parts = [
                _text_cells(column[block]) if is_text else next(number_cells)
                for column, is_text in zip(columns, text)
            ]
            cells = np.concatenate(parts, axis=1)
        cells[:, -1] = ord("\n")
        yield cells.tobytes().translate(None, b"\0")
