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
field, whose digits are written as packed 4-digit groups.  A float slot (48
bytes) holds "-" at byte 2, the "0" of a value below 1 at 3, "." at 24 and
the digits 000ddddddddddddddddd twice, at 4-23 and at 28-47.  The mask keeps
the integer digits from the first copy and the fraction digits from the
second, whose leading zeros print the zeros after the point of |x| < 0.1; a
"%.17g" fallback text sits at 4.  An integer slot (24 bytes) holds "-" at 3
and the 20 zero-padded digits of |v| at 4-23.  The tables are built on first
use.
"""

from __future__ import annotations

import functools
import itertools
from typing import Sequence

import numpy as np

_FLOAT_SLOT, _INT_SLOT = 48, 24
# Mask codes of a float slot: 2 * (17 * (e + 4) + trailing zeros) + sign for
# the fixed notation, then _FALLBACK + the length of a "%.17g" text.
_FALLBACK = 680


@functools.lru_cache(maxsize=None)
def _tables() -> dict:
    """The kernel's tables, built on first use: the packed 4-digit groups, the
    zeros that lead and trail each group, 10^p with its Veltkamp split, the
    least double >= 10^e for e = -4..16, and the byte mask of each slot code."""
    i = np.arange(10000, dtype=np.uint16)
    digits = [(i // p % 10).astype(np.uint8) for p in (1000, 100, 10, 1)]

    def zero_run(columns):   # 4 for the group 0000
        run, zero = np.zeros(len(i), dtype=np.uint8), np.ones(len(i), dtype=bool)
        for d in columns:
            zero &= d == 0
            run += zero
        return run

    pow10 = 10.0 ** np.arange(21)
    split = pow10 * 134217729.0
    pow10_hi = split - (split - pow10)
    pos = np.arange(_FLOAT_SLOT)
    tz, neg = np.arange(34)[:, None] // 2, np.arange(34)[:, None] % 2
    fixed = [((pos == 2) & (neg == 1)) | ((pos == 3) & (e < 0))
             | ((pos >= 7) & (pos < 8 + e)) | ((pos == 24) & (e + tz < 16))
             | ((pos >= 32 + e) & (pos < 48 - tz)) for e in range(-4, 16)]
    fallback = (pos >= 4) & (pos < 4 + np.arange(25)[:, None])
    pos = np.arange(_INT_SLOT)
    length, neg = np.arange(42)[:, None] // 2, np.arange(42)[:, None] % 2
    ints = ((pos == 3) & (neg == 1)) | (pos >= _INT_SLOT - length)
    return {
        "groups": (np.stack(digits, axis=1) + np.uint8(ord("0"))).view(np.uint32).ravel(),
        "leading": zero_run(digits),
        "trailing": zero_run(digits[::-1]),
        "pow10": pow10, "pow10_hi": pow10_hi, "pow10_lo": pow10 - pow10_hi,
        "decades": np.array([float(f"1e{k}") for k in range(-4, 17)]),
        "float_masks": np.concatenate(fixed + [fallback]).view(f"V{_FLOAT_SLOT}").ravel(),
        "int_masks": ints.view(f"V{_INT_SLOT}").ravel(),
    }


def _groups(v: np.ndarray) -> np.ndarray:
    """The 20 decimal digits of unsigned 64-bit v as five 4-digit groups, the
    most significant first (a leading axis of length 5), as table indices."""
    g = np.empty((5,) + v.shape, dtype=np.intp)
    top = v // 10 ** 16
    g[0] = top
    rest = (v - top * 10 ** 16).astype(np.intp)
    q = rest // 10 ** 8
    for j, half in ((1, q), (3, rest - q * 10 ** 8)):
        np.floor_divide(half, 10000, out=g[j])
        np.subtract(half, g[j] * 10000, out=g[j + 1])
    return g


def _zero_run(zeros: np.ndarray, groups: np.ndarray) -> np.ndarray:
    """Zero digits in a row from the first group on, given each group's own
    run (``zeros``, 4 for a zero group) along the leading axis."""
    run = zeros[-1]
    for z, g in zip(zeros[-2::-1], groups[-2::-1]):
        run = z + (g == 0) * run
    return run


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
    """(slot codes, packed digits, fallback) of a (rows, fields) block of
    float64 values.  The fallback (rows, fields, texts) holds the "%.17g"
    texts of the values outside the fixed window, NUL-padded to 24 bytes."""
    a = np.abs(x)
    fixed = (a >= 1e-4) & (a < 1e16)   # NaN compares False
    a[~fixed] = 1.0
    e, d = _significand(a, tables)
    groups = _groups(d)
    trailing = _zero_run(tables["trailing"].take(groups[::-1]), groups[::-1])
    codes = 34 * e + 2 * trailing + (136 + np.signbit(x))
    rows, cols = np.nonzero(~fixed)
    texts = [b"%.17g" % v for v in x[rows, cols].tolist()]
    codes[rows, cols] = _FALLBACK + np.fromiter(map(len, texts), np.intp, len(texts))
    texts = np.array(texts, dtype="S24").view(np.uint8).reshape(-1, 24)
    return codes, tables["groups"].take(groups), (rows, cols, texts)


def _int_fields(v: np.ndarray, tables: dict):
    """(slot codes, packed digits, None) of a (rows, fields) block of int64
    values, -2^63 included."""
    neg = v < 0
    u = v.astype(np.uint64)
    groups = _groups(np.where(neg, -u, u))
    digits = np.maximum(20 - _zero_run(tables["leading"].take(groups), groups), 1)
    return 2 * digits + neg, tables["groups"].take(groups), None


@functools.lru_cache(maxsize=None)
def _row_layout(literals: tuple[bytes, ...], floats: tuple[bool, ...]):
    """One row's template bytes and mask, and each field's slot offset."""
    chars, keep, offsets = [], [], []
    for lit, is_float in itertools.zip_longest(literals, floats):
        size = -(-len(lit) // 4) * 4
        chars.append(np.frombuffer(lit.ljust(size, b"\0"), dtype=np.uint8))
        keep.append(np.arange(size) < len(lit))
        if is_float is None:
            break
        offsets.append(sum(map(len, chars)))
        slot = np.zeros(_FLOAT_SLOT if is_float else _INT_SLOT, dtype=np.uint8)
        if is_float:
            slot[[2, 3, 24]] = np.frombuffer(b"-0.", dtype=np.uint8)
        else:
            slot[3] = ord("-")
        chars.append(slot)
        keep.append(np.zeros(len(slot), dtype=bool))
    return np.concatenate(chars), np.concatenate(keep), offsets


def format_rows(literals: tuple[bytes, ...], columns: Sequence[np.ndarray]) -> np.ndarray:
    """The lines literals[0] c_0 literals[1] ... c_{F-1} literals[F] of a block
    of rows as one uint8 array: a float64 column prints as "%.17g", an int64
    column as "%d"."""
    tables = _tables()
    floats = tuple(c.dtype.kind == "f" for c in columns)
    template, keep_row, offsets = _row_layout(literals, floats)
    # codes and digits first, so that their temporaries are gone before the rows exist
    kinds = []
    for is_float in (True, False):
        values = [c for c, f in zip(columns, floats) if f == is_float]
        if values:
            starts = [o for o, f in zip(offsets, floats) if f == is_float]
            fields = (_float_fields if is_float else _int_fields)(np.stack(values, axis=1), tables)
            kinds.append((is_float, starts, *fields))
    chars = np.empty((len(columns[0]), len(template)), dtype=np.uint8)
    chars[:] = template
    keep = np.empty(chars.shape, dtype=bool)
    keep[:] = keep_row
    words = chars.view(np.uint32)
    for is_float, starts, codes, digits, fallback in kinds:
        for i, start in enumerate(starts):
            words[:, start // 4 + 1:start // 4 + 6] = digits[:, :, i].T
            if is_float:   # the second copy, which prints the fraction digits
                words[:, start // 4 + 7:start // 4 + 12] = digits[:, :, i].T
        if fallback is not None:
            rows, cols, texts = fallback
            chars[rows[:, None], np.array(starts)[cols, None] + np.arange(4, 28)] = texts
        masks = tables["float_masks" if is_float else "int_masks"]
        for i, start in enumerate(starts):
            keep[:, start:start + masks.itemsize].view(masks.dtype)[:, 0] = masks.take(codes[:, i])
    return chars[keep]
