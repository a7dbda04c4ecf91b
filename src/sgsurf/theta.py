"""Jacobi theta functions on pure-imaginary lattices, plus the Weierstrass scalars.

Index convention: theta_0 here is the classical theta_4 (the only index where
conventions diverge); theta_1, theta_2, theta_3 are standard.  All series are
summed in the unit-period normalization theta_3(v|tau) = 1 + 2 sum q^{n^2}
cos(2 pi n v) with q = exp(i pi tau) (https://dlmf.nist.gov/20.2#i).

Arguments are reduced into the fundamental band before summation: first by
v -> v - c tau using the quasi-period factor exp(-i pi c^2 tau - 2 pi i c v),
then by the unit real period.  The public entry points refuse non-finite
arguments (DomainError) and arguments whose imaginary part would overflow the
restored prefactor in double precision (ThetaOverflowError).

``theta_with_prime``, ``theta_j`` and ``jacobi_complex`` take complex arrays
of arguments as well as single values.  One band reduction serves every
index asked for at the same arguments (``_thetas``; ``theta_with_prime`` is
its one-index case).  On the band the lattice and the index fix how many
terms the q-series needs, so a call sums that many terms at every site in one
array pass from real sin, cos, sinh and cosh, one table of them per frequency
parity.  The arithmetic is numpy's, on arrays (a single argument is an array
of one site, returned as a Python complex), so an element does not depend on
how the sites are batched or on which other indices share the call; it can
differ from a per-site sum with complex sin and cos in the last bits.  ``ThetaOverflowError`` and ``PoleError`` are raised
when any element violates the condition.
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .elliptic import EllipticModulus
from .errors import DomainError, PoleError, ThetaOverflowError

_N_MAX = 64
# a series keeps its terms down to this fraction of its first term
_TRUNC_EPS = 1e-16
# |Im v| * pi / Im tau below this keeps the restored prefactor finite in binary64
_BAND_LIMIT = 30.0
_NEG_I_PI = -1j * math.pi
_TWO_I_PI = 2j * math.pi
_LOG_LARGE = math.log(sys.float_info.max / 4.0)


@dataclass(frozen=True)
class ThetaParams:
    """Lattice parameter of one theta lattice, with its nome q."""

    tau: complex
    q: complex = field(init=False)

    def __post_init__(self):
        if not self.tau.imag > 0.0:   # NaN fails too
            raise DomainError(f"lattice parameter needs Im(tau) > 0, got {self.tau}")
        if abs(self.tau.real) > 1e-15:
            raise DomainError("only pure-imaginary lattice parameters are supported")
        object.__setattr__(self, "q", cmath.exp(1j * math.pi * self.tau))


@functools.lru_cache(maxsize=256)
def lattice_params(mod: EllipticModulus, multiple: int = 1) -> ThetaParams:
    """ThetaParams for the taup lattice of a modulus, or an integer multiple of
    it; memoized, so each (modulus, multiple) builds its lattice once."""
    return ThetaParams(tau=multiple * mod.taup)


@functools.lru_cache(maxsize=256)
def _term_table(tau: complex, j: int):
    """(w, a): the frequency (N, 1) and the value and derivative weights
    (2, N, 1) of the N kept terms of the theta_j series in summation order,
    read-only and built with the Python scalar expressions of the series.

    theta_1, theta_2 sum over n >= 0 with weight q^((n + 1/2)^2) and frequency
    (2n + 1) pi; theta_0, theta_3 add to 1 the terms n >= 1 with weight q^(n^2)
    and frequency 2 n pi.  On the band |Im v| <= Im tau / 2, term n (value or
    derivative) is at most rho_n times the first term of its sum (or the
    constant 1), since |sin(r x) / sin x| <= r exp((r - 1) |Im x|), and so for
    cos: rho_n = (2n + 1)^2 |q|^(n^2) for theta_1, theta_2 and n^2 |q|^(n^2 - n)
    for theta_0, theta_3, with |q| = exp(-pi Im tau).  N counts the terms
    before the first with rho_n <= _TRUNC_EPS (at most _N_MAX): that term moves
    no sum by an ulp of the sum of the moduli of its terms.
    """
    q, odd, rows = cmath.exp(1j * math.pi * tau), j in (1, 2), []
    for n in range(0 if odd else 1, _N_MAX):
        r, e = (2 * n + 1, n * n) if odd else (n, n * n - n)   # rho_n = r^2 |q|^e
        if 2.0 * math.log(r) - math.pi * tau.imag * e <= math.log(_TRUNC_EPS):
            break
        s = -1.0 if j in (0, 1) and n % 2 else 1.0
        a = 2.0 * s * q ** ((n + 0.5) ** 2 if odd else n * n)
        w = (2 * n + 1) * math.pi if odd else 2 * n * math.pi
        rows.append((w, a, a * w if j == 1 else -a * w))
    w, a, da = zip(*rows)
    table = np.array(w)[:, None], np.array([a, da])[:, :, None]
    for col in table:
        col.flags.writeable = False
    return table


def _exp(z: np.ndarray) -> np.ndarray:
    """np.exp, except that the rare elements with Re z above log(DBL_MAX / 4)
    go through cmath, which raises OverflowError where the result overflows
    instead of returning inf."""
    if z.real.max(initial=0.0) <= _LOG_LARGE:
        return np.exp(z)
    big = z.real > _LOG_LARGE
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.exp(z)
    out[big] = [cmath.exp(x) for x in z[big].tolist()]
    return out


def _series(js, v: np.ndarray, p: ThetaParams) -> list:
    """[(raw q-series values, argument-derivatives) for j in js] at reduced
    arguments v (1-D, |Re v| <= 1/2, |Im v| <= Im tau / 2).

    Every site sums the same N terms of ``_term_table`` in one (N x sites)
    pass, with sin and cos of w v from real functions,
        sin(x + iy) = sin x cosh y + i cos x sinh y,
        cos(x + iy) = cos x cosh y - i sin x sinh y,
    and the rows added in term order.  The table of sin and cos is built once
    per frequency parity: theta_1 and theta_2 share the odd frequencies,
    theta_0 and theta_3 the even ones.  theta_1 pairs its value with sin and
    its derivative with cos, the others the other way round.
    """
    trig, out = {}, []
    for j in js:
        w, a = _term_table(p.tau, j)
        odd = j in (1, 2)
        if odd not in trig:
            x, y = w * v.real, w * v.imag
            # in place where an operand is not needed again: the largest calls
            # hold several (N x sites) arrays at once
            sin_x, sinh_y = np.sin(x), np.sinh(y)
            cos_x, cosh_y = np.cos(x, out=x), np.cosh(y, out=y)
            table = trig[odd] = np.empty((2,) + x.shape, dtype=complex)   # sin wv, cos wv
            np.multiply(sin_x, cosh_y, out=table[0].real)
            np.multiply(cos_x, sinh_y, out=table[0].imag)
            np.multiply(cos_x, cosh_y, out=table[1].real)
            np.multiply(sin_x, np.negative(sinh_y, out=sinh_y), out=table[1].imag)
        terms = a * (trig[odd] if j == 1 else trig[odd][::-1])
        if j in (0, 3):
            terms[0, 0] += 1.0
        sums = np.add.accumulate(terms, axis=1, out=terms)[:, -1]
        out.append((sums[0], sums[1]))
    return out


def _thetas(js, v, p: ThetaParams) -> list:
    """[(theta_j(v), theta_j'(v)) for j in js], from one band reduction of v.

    The finiteness and band checks, the reduction and the quasi-period
    prefactor are shared by the indices; v is a complex number or array and
    the results have its shape.
    """
    v = np.asarray(v, dtype=complex)
    flat = v.ravel()
    if not np.isfinite(flat).all():
        raise DomainError("theta argument must be finite")
    im_tau = p.tau.imag
    if np.abs(flat.imag).max(initial=0.0) * math.pi / im_tau >= _BAND_LIMIT:
        outside = flat.imag[np.abs(flat.imag) * math.pi / im_tau >= _BAND_LIMIT]
        raise ThetaOverflowError(
            f"Im(v) = {outside[0]:g} outside convergence band for Im(tau) = {im_tau:g}")
    c = np.rint(flat.imag / im_tau)
    v0 = flat - c * p.tau
    n1 = np.rint(v0.real)
    v0 -= n1
    two_i_pi_c = _TWO_I_PI * c
    pref = _exp(_NEG_I_PI * c * c * p.tau - two_i_pi_c * v0)
    out = []
    for j, (val, dval) in zip(js, _series(js, v0, p)):
        # the real period flips theta_1 and theta_2, the quasi-period theta_0 and theta_1
        pj = pref
        if j != 3:
            flips = c if j == 0 else n1 if j == 2 else n1 + c
            pj = np.negative(pref, out=pref.copy(), where=np.fmod(flips, 2.0) != 0.0)
        val, dval = pj * val, pj * (dval - two_i_pi_c * val)
        if v.ndim == 0:
            out.append((complex(val[0]), complex(dval[0])))
        else:
            out.append((val.reshape(v.shape), dval.reshape(v.shape)))
    return out


def theta_with_prime(j: int, v, p: ThetaParams):
    """(theta_j(v), theta_j'(v)); the derivative is with respect to v itself.

    v is a complex number or array; the results have its shape.
    """
    if j not in (0, 1, 2, 3):
        raise DomainError(f"theta index must be 0..3, got {j}")
    return _thetas((j,), v, p)[0]


def _theta_each(js, p: ThetaParams, *args) -> list:
    """[[(theta_j(a), theta_j'(a)) for j in js] for each argument a] (numbers or
    arrays), from one band reduction over all of them."""
    arrs = [np.asarray(a, dtype=complex) for a in args]
    each = _thetas(js, np.concatenate([a.ravel() for a in arrs]), p)
    ends = np.cumsum([a.size for a in arrs]).tolist()
    return [[(vals[e - a.size:e].reshape(a.shape), primes[e - a.size:e].reshape(a.shape))
             for vals, primes in each]
            for a, e in zip(arrs, ends)]


def theta_j(j: int, v, p: ThetaParams):
    return theta_with_prime(j, v, p)[0]


def jacobi_complex(u, mod: EllipticModulus):
    """(sn, cn, dn) of a complex argument through theta quotients on the taup lattice.

    Uses v = (u - K) / (2 i K') and the quotient triple
        sn u =    theta_0(v) theta_3(0) / (theta_3(v) theta_0(0)),
        cn u = -i theta_1(v) theta_2(0) / (theta_3(v) theta_0(0)),
        dn u =    theta_2(v) theta_2(0) / (theta_3(v) theta_3(0)).
    On real u this agrees with elliptic.jacobi and serves as its oracle.
    u is a number or an array; the four thetas are one call over v and 0.
    """
    p = lattice_params(mod)
    u = np.asarray(u, dtype=complex)
    v = (u.ravel() - mod.K) / (2j * mod.Kp)
    t0, t1, t2, t3 = (val for val, _ in _thetas((0, 1, 2, 3), np.append(v, 0.0), p))
    t3v, t00, t20, t30 = t3[:-1], t0[-1], t2[-1], t3[-1]
    near = abs(t3v) < 1e-12 * abs(t30)
    if near.any():
        raise PoleError(f"argument {u.ravel()[near][0]} too close to a pole of sn/cn/dn")
    den = t3v * t00
    sn = t0[:-1] * t30 / den
    cn = -1j * t1[:-1] * t20 / den
    dn = t2[:-1] * t20 / (t3v * t30)
    if u.ndim == 0:
        return complex(sn[0]), complex(cn[0]), complex(dn[0])
    return sn.reshape(u.shape), cn.reshape(u.shape), dn.reshape(u.shape)


@dataclass(frozen=True)
class WeierstrassConstants:
    """Branch points, half-periods and the zeta scalar of the spectral curve."""

    e1: complex
    e2: complex
    e3: complex
    omega: float
    omegap: complex
    zeta_omega_over_omega: float


def weierstrass_constants(mod: EllipticModulus) -> WeierstrassConstants:
    k, kp = mod.k, mod.kp
    e1 = (2.0 / 3.0) * (2.0 * k * k - 1.0)
    return WeierstrassConstants(
        e1=e1,
        e2=-(1.0 / 3.0) * (2.0 * k * k - 1.0) - 2j * k * kp,
        e3=-(1.0 / 3.0) * (2.0 * k * k - 1.0) + 2j * k * kp,
        omega=mod.Kp,
        omegap=(1j * mod.K + mod.Kp) / 2.0,
        zeta_omega_over_omega=2.0 * mod.Ep / mod.Kp - (e1 + 1.0),
    )


def weierstrass_p(z, mod: EllipticModulus):
    """Weierstrass p-function of the spectral curve, periods {2K', iK + K'}.

    Evaluated as (dn(2iz + iK') - i k sn(2iz + iK'))^2 + e1 through the
    complex-argument Jacobi functions.  PoleError marks the lattice points
    z in {2K', iK + K'} and also the odd half-lattice points a K' + i b K
    (a + b odd), where the quotient representation degenerates even though
    the limit of the combination is finite.  z is a number or an array.
    """
    z = np.asarray(z, dtype=complex)
    sn, _, dn = jacobi_complex(2j * z.ravel() + 1j * mod.Kp, mod)
    w = dn - 1j * mod.k * sn
    return (w * w + weierstrass_constants(mod).e1).reshape(z.shape)[()]
