"""Complex arithmetic on arrays, rounded exactly as CPython rounds it.

numpy's complex sin, cos and exp, complex addition and float * complex give
the same bits as cmath and Python's complex type, but numpy's complex
product, quotient and absolute value do not (its array loops fuse and
reorder the operations).  The theta, tau and sg layers evaluate their
formulas on whole arrays and must agree bit for bit with a single-site
evaluation, so they form those three operations here from real arrays,
term by term as CPython's ``_Py_c_prod``, ``_Py_c_quot`` and ``_Py_c_abs``
do.  Operands may be Python numbers, numpy scalars or arrays, real or
complex; a real operand x takes part as x + 0j, as in Python.  Results of
0-d operands are Python complex numbers or numpy scalars.
"""

from __future__ import annotations

import numpy as np


def pack(re, im):
    """The complex number or array re + i im, both parts kept bit for bit."""
    if getattr(re, "ndim", 0) or getattr(im, "ndim", 0):
        out = np.empty(np.broadcast(re, im).shape, dtype=complex)
        out.real = re
        out.imag = im
        return out
    return complex(re, im)


def mul(a, b):
    """a * b as CPython computes it."""
    ar, ai, br, bi = a.real, a.imag, b.real, b.imag
    return pack(ar * br - ai * bi, ar * bi + ai * br)


def div(a, b):
    """a / b as CPython computes it (Smith's method); raises ZeroDivisionError
    when any element of b is 0, as Python does."""
    ar, ai = a.real, a.imag
    br, bi = np.asarray(b.real, dtype=float), np.asarray(b.imag, dtype=float)
    by_re = np.abs(br) >= np.abs(bi)
    if np.any(by_re & (br == 0.0)):
        raise ZeroDivisionError("complex division by zero")
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(by_re, bi / br, br / bi)
        denom = np.where(by_re, br + bi * ratio, br * ratio + bi)
        re = np.where(by_re, ar + ai * ratio, ar * ratio + ai) / denom
        im = np.where(by_re, ai - ar * ratio, ai * ratio - ar) / denom
    return pack(re, im)


def cabs(a):
    """abs(a) as CPython computes it: hypot of the parts."""
    return np.hypot(a.real, a.imag)


def prod(*factors):
    """factors[0] * factors[1] * ..., multiplied left to right as Python does."""
    out = factors[0]
    for x in factors[1:]:
        out = mul(out, x)
    return out


def square(a):
    """a ** 2 as CPython computes it: by repeated squaring from 1, i.e. 1 * (a * a)."""
    return mul(1.0 + 0j, mul(a, a))


def item(x):
    """x, or the Python number of a 0-d array or numpy scalar."""
    return x.item() if getattr(x, "ndim", 1) == 0 else x
