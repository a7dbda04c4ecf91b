"""Jacobi theta functions on pure-imaginary lattices, plus the Weierstrass scalars.

Index convention: theta_0 here is the classical theta_4 (the only index where
conventions diverge); theta_1, theta_2, theta_3 are standard.  All series are
summed in the unit-period normalization theta_3(v|tau) = 1 + 2 sum q^{n^2}
cos(2 pi n v) with q = exp(i pi tau) (https://dlmf.nist.gov/20.2#i).

Arguments are reduced into the fundamental band before summation: first by
v -> v - c tau using the quasi-period factor exp(-i pi c^2 tau - 2 pi i c v),
then by the unit real period.  The public entry points refuse arguments whose
imaginary part would overflow the restored prefactor in double precision.

``theta_with_prime``, ``theta_j``, ``theta_j_prime`` and ``jacobi_complex``
take complex arrays of arguments as well as single values and sum the
q-series over all sites at once, each site stopping at the term where its
own truncation test passes.  The arithmetic is numpy's, on arrays (a single
argument is an array of one site, returned as a Python complex), so an
element does not depend on how the sites are batched; numpy may fuse the
parts of a complex product, so values can differ from Python's complex
arithmetic in the last bits.  ``ThetaOverflowError`` and ``PoleError`` are
raised when any element violates the condition.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .elliptic import EllipticModulus
from .errors import PoleError, ThetaOverflowError

_N_MAX = 64
# |Im v| * pi / Im tau below this keeps the restored prefactor finite in binary64
_BAND_LIMIT = 30.0
_NEG_I_PI = -1j * math.pi
_TWO_I_PI = 2j * math.pi
_LOG_LARGE = math.log(sys.float_info.max / 4.0)


@dataclass(frozen=True)
class ThetaParams:
    """Lattice parameter and truncation control for one theta lattice."""

    tau: complex
    trunc_eps: float = 1e-16
    q: complex = field(init=False)
    # per-index term constants of the q-series, built on first use
    _term_cache: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self):
        if self.tau.imag <= 0.0:
            raise ValueError(f"lattice parameter needs Im(tau) > 0, got {self.tau}")
        if abs(self.tau.real) > 1e-15:
            raise ValueError("only pure-imaginary lattice parameters are supported")
        object.__setattr__(self, "q", cmath.exp(1j * math.pi * self.tau))

    def _terms(self, j: int) -> list:
        """(n, w, weight of the value term, weight of the derivative term) for
        each term of the theta_j series in summation order, computed with the
        Python scalar expressions of the series.

        theta_1, theta_2 sum over n >= 0 with weight q^((n + 1/2)^2) and
        frequency (2n + 1) pi; theta_0, theta_3 add to 1 the terms n >= 1
        with weight q^(n^2) and frequency 2 n pi.  The list ends after the
        first weight that underflows to zero: every site has stopped by then.
        """
        if j in self._term_cache:
            return self._term_cache[j]
        terms = []
        q = self.q
        for n in range(0 if j in (1, 2) else 1, _N_MAX):
            if j in (1, 2):
                a = q ** ((n + 0.5) ** 2)
                w = (2 * n + 1) * math.pi
                if j == 1:
                    terms.append((n, w, 2.0 * (-1) ** n * a, 2.0 * (-1) ** n * a * w))
                else:
                    terms.append((n, w, 2.0 * a, -2.0 * a * w))
            else:
                a = q ** (n * n)
                s = -1.0 if (j == 0 and n % 2) else 1.0
                w = 2 * n * math.pi
                terms.append((n, w, 2.0 * s * a, -2.0 * s * a * w))
            if n >= 2 and a == 0:
                break
        self._term_cache[j] = terms
        return terms


def lattice_params(mod: EllipticModulus, multiple: int = 1) -> ThetaParams:
    """ThetaParams for the taup lattice of a modulus, or an integer multiple of it."""
    return ThetaParams(tau=multiple * mod.taup)


def _exp(z: np.ndarray) -> np.ndarray:
    """np.exp, except that the rare elements with Re z above log(DBL_MAX / 4)
    go through cmath, which raises OverflowError where the result overflows
    instead of returning inf."""
    big = z.real > _LOG_LARGE
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.exp(z)
    if big.any():
        out[big] = [cmath.exp(x) for x in z[big].tolist()]
    return out


def _series(j: int, v: np.ndarray, p: ThetaParams) -> tuple[np.ndarray, np.ndarray]:
    """Raw q-series values and argument-derivatives at reduced arguments v (1-D).

    theta_1 pairs its value with sin and its derivative with cos, the others
    the other way round.  A site leaves the sum at the first term n >= 2 with
    |t| + |dt| <= eps (|val| + |dval|), plus 1e-300 for theta_1 and theta_2.
    """
    tiny = 1e-300 if j in (1, 2) else 0.0
    val = np.full(v.size, 1.0 if j in (0, 3) else 0.0, dtype=complex)
    dval = np.zeros(v.size, dtype=complex)
    live = np.arange(v.size)
    lv, lval, ldval = v, val.copy(), dval.copy()
    for n, w, a, da in p._terms(j):
        wv = w * lv
        sin, cos = np.sin(wv), np.cos(wv)
        x, dx = (sin, cos) if j == 1 else (cos, sin)
        t, dt = a * x, da * dx
        lval += t
        ldval += dt
        if n < 2:
            continue
        done = abs(t) + abs(dt) <= p.trunc_eps * (abs(lval) + abs(ldval) + tiny)
        if done.any():
            val[live[done]], dval[live[done]] = lval[done], ldval[done]
            keep = ~done
            live, lv, lval, ldval = live[keep], lv[keep], lval[keep], ldval[keep]
            if not live.size:
                break
    val[live], dval[live] = lval, ldval
    return val, dval


def theta_with_prime(j: int, v, p: ThetaParams):
    """(theta_j(v), theta_j'(v)); the derivative is with respect to v itself.

    v is a complex number or array; the results have its shape.
    """
    if j not in (0, 1, 2, 3):
        raise ValueError(f"theta index must be 0..3, got {j}")
    v = np.asarray(v, dtype=complex)
    flat = v.ravel()
    im_tau = p.tau.imag
    outside = np.abs(flat.imag) * math.pi / im_tau >= _BAND_LIMIT
    if outside.any():
        raise ThetaOverflowError(
            f"Im(v) = {flat.imag[outside][0]:g} outside convergence band for Im(tau) = {im_tau:g}"
        )
    if not np.isfinite(flat).all():
        raise ValueError("theta argument must be finite")
    c = np.round(flat.imag / im_tau)
    v1 = flat - c * p.tau
    n1 = np.round(v1.real)
    v0 = v1 - n1
    # the real period flips theta_1 and theta_2, the quasi-period theta_0 and theta_1
    sign = (-1.0) ** ((n1 if j in (1, 2) else 0.0) + (c if j in (0, 1) else 0.0))
    two_i_pi_c = _TWO_I_PI * c
    pref = sign * _exp(_NEG_I_PI * c * c * p.tau - two_i_pi_c * v0)
    val, dval = _series(j, v0, p)
    val, dval = pref * val, pref * (dval - two_i_pi_c * val)
    if v.ndim == 0:
        return complex(val[0]), complex(dval[0])
    return val.reshape(v.shape), dval.reshape(v.shape)


def _theta_each(j: int, p: ThetaParams, *args) -> list:
    """[(theta_j(a), theta_j'(a)) for each argument a] (numbers or arrays),
    from one array call over all of them."""
    arrs = [np.asarray(a, dtype=complex) for a in args]
    vals, primes = theta_with_prime(j, np.concatenate([a.ravel() for a in arrs]), p)
    cuts = np.cumsum([a.size for a in arrs])[:-1]
    return [(v.reshape(a.shape), d.reshape(a.shape))
            for a, v, d in zip(arrs, np.split(vals, cuts), np.split(primes, cuts))]


def theta_j(j: int, v, p: ThetaParams):
    return theta_with_prime(j, v, p)[0]


def theta_j_prime(j: int, v, p: ThetaParams):
    return theta_with_prime(j, v, p)[1]


def jacobi_complex(u, mod: EllipticModulus):
    """(sn, cn, dn) of a complex argument through theta quotients on the taup lattice.

    Uses v = (u - K) / (2 i K') and the quotient triple
        sn u =    theta_0(v) theta_3(0) / (theta_3(v) theta_0(0)),
        cn u = -i theta_1(v) theta_2(0) / (theta_3(v) theta_0(0)),
        dn u =    theta_2(v) theta_2(0) / (theta_3(v) theta_3(0)).
    On real u this agrees with elliptic.jacobi and serves as its oracle.
    u is a number or an array; each theta_j is one call over v and 0.
    """
    p = lattice_params(mod)
    u = np.asarray(u, dtype=complex)
    v = (u.ravel() - mod.K) / (2j * mod.Kp)
    args = np.append(v, 0.0)
    t0, t1, t2, t3 = (theta_j(j, args, p) for j in range(4))
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
