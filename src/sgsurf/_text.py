"""Text of the geometry writers: "%.17g" floats and "%d" integers, byte for
byte, a block of rows per numpy pass.

``format_rows(literals, columns)`` prints the lines
literals[0] c_0 literals[1] ... c_{F-1} literals[F] of a block of rows.

"%.17g" rounds |x| half to even to 17 significant digits, d * 10^(e - 16)
with 10^16 <= d < 10^17, and prints them in fixed notation without trailing
zeros when -4 <= e < 17.  For 1e-4 <= |x| < 1e16 the decade e of |x| is found
exactly, so y = |x| 10^(16 - e) lies in [1e16, 1e17).  10^(16 - e) is an
exact double, so Dekker's two-product (Numer. Math. 18, 1971) gives
y = yh + yl exactly; yh >= 1e16 > 2^53 is an even integer, so
d = yh + rint(yl) is y rounded half to even (the fixed-precision route of
Adams, "Ryu revisited: printf floating point conversion", OOPSLA 2019).
d never rounds up to 10^17: every double below 10^(e + 1) lies below it by
at least 2^-54 of it, so y <= 10^17 - 5.  Every other float (zeros, tiny,
huge and non-finite values) is printed by "%.17g" itself.

A block is a (rows, width) byte array and a mask of the bytes to keep, in
slots of whole 4-byte words: one per literal ("v ", ",", "\n") and one per
field, whose digits are written as packed 4-digit groups.  Each column's slot
holds w groups of integer digits, w the fewest that hold the integer digits
of the column's widest value in the block.  A float slot (28 + 4w bytes)
holds "-" at byte 2, the "0" of a value below 1 at 3, the first 4w of the
digits 000ddddddddddddddddd at 4, "." at P = 4 + 4w and all 20 digits at
P + 4; w runs from 1 for |x| < 10 to 5 for |x| < 1e16.  The mask keeps the
integer digits from the first copy and the fraction digits from the second,
whose leading zeros print the zeros after the point of |x| < 0.1; a "%.17g"
fallback text sits at 4.  An integer slot (4 + 4w bytes) holds "-" at 3 and
the 4w zero-padded digits of |v| at 4.  The tables, and each width's masks,
are built on first use.
"""

from __future__ import annotations

import functools
import itertools
from typing import Sequence

import numpy as np

# Mask codes of a float slot: 2 * (17 * (e + 4) + trailing zeros) + sign for
# the fixed notation, then _FALLBACK + the length of a "%.17g" text.
_FALLBACK = 680


@functools.lru_cache(maxsize=None)
def _tables() -> dict:
    """The kernel's tables, built on first use: the packed 4-digit groups, the
    zeros that trail each group (4 for 0000), 10^p with its Veltkamp split,
    and the least double >= 10^e for e = -4..16."""
    i = np.arange(10000, dtype=np.uint16)
    digits = [(i // p % 10).astype(np.uint8) for p in (1000, 100, 10, 1)]
    trailing, zero = np.zeros(len(i), dtype=np.uint8), np.ones(len(i), dtype=bool)
    for d in digits[::-1]:
        zero &= d == 0
        trailing += zero
    pow10 = 10.0 ** np.arange(21)
    split = pow10 * 134217729.0
    pow10_hi = split - (split - pow10)
    return {
        "groups": (np.stack(digits, axis=1) + np.uint8(ord("0"))).view(np.uint32).ravel(),
        "trailing": trailing,
        "pow10": pow10, "pow10_hi": pow10_hi, "pow10_lo": pow10 - pow10_hi,
        "decades": np.array([float(f"1e{k}") for k in range(-4, 17)]),
    }


@functools.lru_cache(maxsize=None)
def _masks(is_float: bool, width: int) -> np.ndarray:
    """The byte mask of each slot code of a float or integer slot of width
    groups, built on the first block that needs that width."""
    if not is_float:
        pos = np.arange(4 + 4 * width)
        code = np.arange(8 * width + 2)[:, None]   # 2 * digits + sign
        keep = ((pos == 3) & (code % 2 == 1)) | (pos >= len(pos) - code // 2)
        return keep.view(f"V{len(pos)}").ravel()
    point = 4 + 4 * width
    pos = np.arange(point + 24)
    tz, neg = np.arange(34)[:, None] // 2, np.arange(34)[:, None] % 2
    # a decade past the width's integer digits never reaches its row
    fixed = [((pos == 2) & (neg == 1)) | ((pos == 3) & (e < 0))
             | ((pos >= 7) & (pos < 8 + e)) | ((pos == point) & (e + tz < 16))
             | ((pos >= point + 8 + e) & (pos < point + 24 - tz)) for e in range(-4, 16)]
    fallback = (pos >= 4) & (pos < 4 + np.arange(25)[:, None])
    return np.concatenate(fixed + [fallback]).view(f"V{len(pos)}").ravel()


def _groups(v: np.ndarray, count: int):
    """The last count 4-digit groups of the decimal digits of unsigned 64-bit
    v, the most significant first, one array at a time; the first takes what
    is left of v, at most 1844.  Overwrites v."""
    for k in range(4 * count - 4, -1, -4):
        g = v // 10 ** k
        v -= g * 10 ** k
        yield g.view(np.int64)   # table indices: take converts unsigned ones first


def _significand(a: np.ndarray, tables: dict) -> tuple[np.ndarray, np.ndarray]:
    """(e, d) of 1e-4 <= a < 1e16: a rounded half to even to 17 significant
    digits is d * 10^(e - 16), 10^16 <= d < 10^17.  Overwrites a."""
    # floor(b log10 2), which (b * 78913) >> 18 gives exactly for -20 <= b <= 60,
    # of the binary exponent b of a is e or e - 1
    e = ((a.view(np.int64) >> 52) - 1023) * 78913 >> 18
    e += a >= tables["decades"][e + 5]
    p = 16 - e
    yh = a * tables["pow10"][p]
    ph, pl = tables["pow10_hi"][p], tables["pow10_lo"][p]
    # yl = ((ah ph - yh) + ah pl + al ph) + al pl, in place to bound the memory
    ah = a * 134217729.0
    ah -= ah - a
    al = np.subtract(a, ah, out=a)
    yl = ah * ph
    yl -= yh
    yl += np.multiply(ah, pl, out=ah)
    yl += np.multiply(al, ph, out=ph)
    yl += np.multiply(al, pl, out=pl)
    d = yh.astype(np.int64)
    d += np.rint(yl, out=yl).astype(np.int64)
    return e, d.view(np.uint64)


def _float_fields(x: np.ndarray, tables: dict):
    """(slot codes, packed digits, widths, fallback) of a (fields, rows) block
    of float64 values.  A field's width holds the integer digits of its
    largest value.  The fallback (fields, rows, texts) holds the "%.17g" texts
    of the values outside the fixed window, NUL-padded to 24 bytes."""
    a = np.abs(x)
    fixed = (a >= 1e-4) & (a < 1e16)   # NaN compares False
    np.copyto(a, 1.0, where=~fixed)
    e, d = _significand(a, tables)
    digits = np.empty((5,) + x.shape, dtype=np.uint32)
    for j, g in enumerate(_groups(d, 5)):   # and the zero digits that trail them
        tables["groups"].take(g, out=digits[j])
        zeros = tables["trailing"].take(g)
        trailing = zeros if j == 0 else zeros + (g == 0) * trailing
    codes = 34 * e + 2 * trailing + (136 + np.signbit(x))
    fields, rows = np.divmod(np.flatnonzero(~fixed), x.shape[1])
    texts = [b"%.17g" % v for v in x[fields, rows].tolist()]
    codes[fields, rows] = _FALLBACK + np.fromiter(map(len, texts), np.intp, len(texts))
    texts = np.array(texts, dtype="S24").view(np.uint8).reshape(-1, 24)
    widths = (e.max(axis=1, initial=0) + 3) // 4 + 1   # e >= 0 where a fallback stood
    return codes, digits, widths.tolist(), (fields, rows, texts)


def _int_fields(v: np.ndarray, tables: dict):
    """(slot codes, packed digits, widths, None) of a (fields, rows) block of
    int64 values, -2^63 included.  A field's width holds the digits of its
    widest value, and only the groups of the widest field are formed."""
    neg = v < 0
    u = v.astype(np.uint64)
    u = np.where(neg, -u, u)
    widths = [-(-len(str(top)) // 4) for top in u.max(axis=1, initial=0).tolist()]
    count = max(widths)
    length = 1 + np.searchsorted(10 ** np.arange(1, 4 * count, dtype=np.uint64), u, "right")
    digits = np.empty((count,) + v.shape, dtype=np.uint32)
    for j, g in enumerate(_groups(u, count)):
        tables["groups"].take(g, out=digits[j])
    return 2 * length + neg, digits, widths, None


@functools.lru_cache(maxsize=64)   # a bound, as the widths vary from block to block
def _row_layout(literals: tuple[bytes, ...], slots: tuple[tuple[bool, int], ...]):
    """One row's template bytes and mask, and each field's slot offset, for
    fields of the given (is float, width)."""
    chars, keep, offsets = [], [], []
    for lit, slot in itertools.zip_longest(literals, slots):
        size = -(-len(lit) // 4) * 4
        chars.append(np.frombuffer(lit.ljust(size, b"\0"), dtype=np.uint8))
        keep.append(np.arange(size) < len(lit))
        if slot is None:
            break
        is_float, width = slot
        offsets.append(sum(map(len, chars)))
        chars.append(np.zeros(4 + 4 * width + 24 * is_float, dtype=np.uint8))
        if is_float:
            chars[-1][[2, 3, 4 + 4 * width]] = np.frombuffer(b"-0.", dtype=np.uint8)
        else:
            chars[-1][3] = ord("-")
        keep.append(np.zeros(len(chars[-1]), dtype=bool))
    return np.concatenate(chars), np.concatenate(keep), offsets


def format_rows(literals: tuple[bytes, ...], columns: Sequence[np.ndarray]) -> np.ndarray:
    """The lines literals[0] c_0 literals[1] ... c_{F-1} literals[F] of a block
    of rows as one uint8 array: a float64 column prints as "%.17g", an int64
    column as "%d"."""
    tables = _tables()
    floats = [c.dtype.kind == "f" for c in columns]
    # codes and digits first, so that their temporaries are gone before the rows exist
    kinds, slots = [], [None] * len(columns)
    for is_float in (True, False):
        fields = [i for i, f in enumerate(floats) if f == is_float]
        if fields:
            values = np.stack([columns[i] for i in fields])
            codes, digits, widths, fallback = (_float_fields if is_float else _int_fields)(
                values, tables)
            for i, w in zip(fields, widths):
                slots[i] = (is_float, w)
            kinds.append((is_float, fields, codes, digits, widths, fallback))
    template, keep_row, offsets = _row_layout(literals, tuple(slots))
    chars = np.empty((len(columns[0]), len(template)), dtype=np.uint8)
    chars[:] = template
    keep = np.empty(chars.shape, dtype=bool)
    keep[:] = keep_row
    words = chars.view(np.uint32)
    for is_float, fields, codes, digits, widths, fallback in kinds:
        starts = [offsets[i] // 4 for i in fields]
        for i, (start, w) in enumerate(zip(starts, widths)):
            if is_float:   # the first w groups, then the second copy after the point
                words[:, start + 1:start + 1 + w] = digits[:w, i].T
                words[:, start + 2 + w:start + 7 + w] = digits[:, i].T
            else:          # the last w groups
                words[:, start + 1:start + 1 + w] = digits[len(digits) - w:, i].T
            masks = _masks(is_float, w)
            keep[:, 4 * start:4 * start + masks.itemsize].view(masks.dtype)[:, 0] = \
                masks.take(codes[i])
        if fallback is not None:
            fields, rows, texts = fallback
            chars[rows[:, None], 4 * np.array(starts)[fields, None] + np.arange(4, 28)] = texts
    return chars[keep]
