"""Elliptic solution families of the semi-discrete and discrete sine-Gordon equations.

Fields are never stored as angles.  A sample is the pair
(cos w/2, sin w/2); residuals expand every trigonometric expression through
angle-addition identities on those pairs, and the quarter angles needed by the
fully discrete equation come from the half-angle construction below, with the
branch fixed by sign(sin w/4) = sign(sin w/2).

Two families per equation:
  dn:  cos(w/2) = dn(4K xi),  sin(w/2) = k sn(4K xi)
  cn:  cos(w/2) = cn(4K xi),  sin(w/2) = sn(4K xi)
with xi = m Omega + xi0 + A t (semi-discrete) or m Omega + n P + xi0
(discrete).  Default phases: xi0 = 1/2 for dn, 0 for cn.

Samples, residuals and the HalfAngle methods take arrays of sites (integer m,
n and times t that broadcast) as well as single sites: one ``jacobi`` call
covers a whole grid, and the products of the quarter exponentials are
numpy's complex products, with a single quad evaluated as an array of one,
so an element does not depend on how the sites are batched.  A HalfAngle
then holds arrays, and PoleError or the normalization check fires when any
element violates its condition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .elliptic import FAMILIES, EllipticModulus, check_family, jacobi  # noqa: F401
from .errors import DomainError, PoleError

_POLE_TOL = 1e-12


@dataclass(frozen=True)
class HalfAngle:
    """One field sample, or an array of them, stored as (cos w/2, sin w/2)
    plus optional d w/dt."""

    c: float
    s: float
    dwdt: Optional[float] = None

    def __post_init__(self):
        err = abs(self.c * self.c + self.s * self.s - 1.0)
        if getattr(err, "ndim", 0):
            err = err.max()
        if err > 1e-12:
            raise DomainError(f"half-angle pair not normalized: |c^2+s^2-1| = {err:.3e}")

    def half_exponential(self):
        """exp(i w/2)."""
        return self.c + 1j * self.s

    def quarter_exponential(self):
        """exp(i w/4) on the principal band, sign(sin w/4) = sign(s)."""
        cq = np.sqrt(np.maximum(0.0, 0.5 * (1.0 + self.c)))
        sq = np.copysign(np.sqrt(np.maximum(0.0, 0.5 * (1.0 - self.c))), self.s)
        return cq + 1j * sq

    def tan_quarter(self):
        """tan(w/4) = sin(w/2) / (1 + cos(w/2)); rejects cos(w/2) = -1."""
        if np.any(np.abs(1.0 + self.c) < _POLE_TOL):
            raise PoleError("tan(w/4) undefined at cos(w/2) = -1")
        return self.s / (1.0 + self.c)


def _unstack(w: HalfAngle) -> list[HalfAngle]:
    """The samples along the leading axis of an array HalfAngle."""
    dwdt = [None] * len(w.c) if w.dwdt is None else w.dwdt
    return [HalfAngle(c=c, s=s, dwdt=d) for c, s, d in zip(w.c, w.s, dwdt)]


def _default_phase(family: str) -> float:
    return 0.5 if family == "dn" else 0.0


@dataclass(frozen=True)
class SemiDiscreteParams:
    """Lattice step Omega, phase xi0 and time coefficient A of one semi-discrete field."""

    mod: EllipticModulus
    Omega: float
    A: float
    family: str = "dn"
    xi0: Optional[float] = None

    def __post_init__(self):
        check_family(self.family)
        if self.xi0 is None:
            object.__setattr__(self, "xi0", _default_phase(self.family))

    def xi(self, m: int, t: float) -> float:
        return m * self.Omega + self.xi0 + self.A * t


@dataclass(frozen=True)
class DiscreteParams:
    """Steps (Omega, P) and phase xi0 of one doubly discrete field."""

    mod: EllipticModulus
    Omega: float
    P: float
    family: str = "dn"
    xi0: Optional[float] = None

    def __post_init__(self):
        check_family(self.family)
        if self.xi0 is None:
            object.__setattr__(self, "xi0", _default_phase(self.family))

    def xi(self, m: int, n: int) -> float:
        return m * self.Omega + n * self.P + self.xi0


def semi_sample(p: SemiDiscreteParams, m: int, t: float) -> HalfAngle:
    """Field sample with its analytic time derivative (chain rule, no quadrature)."""
    u = 4.0 * p.mod.K * p.xi(m, t)
    sn, cn, dn = jacobi(u, p.mod)
    rate = 8.0 * p.mod.K * p.A
    if p.family == "dn":
        return HalfAngle(c=dn, s=p.mod.k * sn, dwdt=rate * p.mod.k * cn)
    return HalfAngle(c=cn, s=sn, dwdt=rate * dn)


def semi_sg_coeffs(p: SemiDiscreteParams) -> tuple[float, float]:
    """(sine-Gordon coefficient, mKdV coefficient) for the family of p.

    dn family: (-8KA sn dn / cn, 8KA cn / (sn dn)) at 2K Omega.
    cn family: (-8 k^2 KA sn cn / dn, 8KA dn / (sn cn)) at 2K Omega.
    """
    sn, cn, dn = jacobi(2.0 * p.mod.K * p.Omega, p.mod)
    rate = 8.0 * p.mod.K * p.A
    if p.family == "dn":
        if abs(cn) < _POLE_TOL or abs(sn * dn) < _POLE_TOL:
            raise PoleError("Omega at a half-period: sn dn / cn degenerate")
        return -rate * sn * dn / cn, rate * cn / (sn * dn)
    if abs(dn) < _POLE_TOL or abs(sn * cn) < _POLE_TOL:
        raise PoleError("Omega at a half-period: sn cn / dn degenerate")
    return -rate * p.mod.m * sn * cn / dn, rate * dn / (sn * cn)


def semi_residuals_from(w0: HalfAngle, w1: HalfAngle,
                        sg_coeff: float, mkdv_coeff: float) -> tuple[float, float]:
    """Residuals of the two lattice equations for one adjacent sample pair.

    sine-Gordon: dw_{m+1}/dt - dw_m/dt = c1 sin((w_{m+1} + w_m)/2)
    mKdV:        dw_{m+1}/dt + dw_m/dt = c2 sin((w_{m+1} - w_m)/2)
    """
    if w0.dwdt is None or w1.dwdt is None:
        raise DomainError("semi-discrete residuals need samples with dwdt")
    sin_sum = w1.s * w0.c + w1.c * w0.s
    sin_diff = w1.s * w0.c - w1.c * w0.s
    return (w1.dwdt - w0.dwdt) - sg_coeff * sin_sum, (w1.dwdt + w0.dwdt) - mkdv_coeff * sin_diff


def semi_residuals(p: SemiDiscreteParams, m, t):
    """(sine-Gordon, mKdV) residuals of the sampled solution at site m, time t;
    m and t may be broadcasting arrays (the sites m and m + 1 are one evaluation)."""
    c1, c2 = semi_sg_coeffs(p)
    m, t = np.broadcast_arrays(m, t)
    w0, w1 = _unstack(semi_sample(p, np.stack([m, m + 1]), np.stack([t, t])))
    return semi_residuals_from(w0, w1, c1, c2)


def discrete_sample(p: DiscreteParams, m, n) -> HalfAngle:
    sn, cn, dn = jacobi(4.0 * p.mod.K * p.xi(m, n), p.mod)
    return HalfAngle(c=dn, s=p.mod.k * sn) if p.family == "dn" else HalfAngle(c=cn, s=sn)


def discrete_quad(p: DiscreteParams, m, n) -> list[HalfAngle]:
    """Samples at the corners A = (m+1, n+1), B = (m, n), C = (m+1, n) and
    D = (m, n+1) of the quads at (m, n), from one evaluation."""
    m, n = np.broadcast_arrays(m, n)
    return _unstack(discrete_sample(p, np.stack([m + 1, m, m + 1, m]),
                                    np.stack([n + 1, n, n, n + 1])))


def discrete_sg_coeff(p: DiscreteParams) -> float:
    """Coupling constant of the discrete sine-Gordon equation for the family of p."""
    so, co, do = jacobi(2.0 * p.mod.K * p.Omega, p.mod)
    sp, cp, dp = jacobi(2.0 * p.mod.K * p.P, p.mod)
    if p.family == "dn":
        if min(abs(co), abs(cp)) < _POLE_TOL:
            raise PoleError("Omega or P at a half-period: cn denominator degenerate")
        return -(so * do / co) * (sp * dp / cp)
    if min(abs(do), abs(dp)) < _POLE_TOL:
        raise PoleError("Omega or P at a half-period: dn denominator degenerate")
    return -p.mod.m * (so * co / do) * (sp * cp / dp)


def discrete_sg_residual_from(wA: HalfAngle, wB: HalfAngle, wC: HalfAngle,
                              wD: HalfAngle, coeff: float):
    """Residual of sin((A-C)/4 - (D-B)/4) = coeff sin((A+C)/4 + (D+B)/4).

    Corner naming: A = w_{m+1,n+1}, B = w_{m,n}, C = w_{m+1,n}, D = w_{m,n+1}.
    """
    zA, zB = wA.quarter_exponential(), wB.quarter_exponential()
    zC, zD = wC.quarter_exponential(), wD.quarter_exponential()
    lhs = (zA * zC.conjugate() * zD.conjugate() * zB).imag
    rhs = (zA * zC * zD * zB).imag
    return lhs - coeff * rhs


def discrete_sg_residual(p: DiscreteParams, m, n):
    """Residual on the quads at (m, n); m and n may be broadcasting arrays
    (a single quad is evaluated as an array of one)."""
    shape = np.broadcast_shapes(np.shape(m), np.shape(n))
    quads = discrete_quad(p, np.atleast_1d(m), np.atleast_1d(n))
    return discrete_sg_residual_from(*quads, discrete_sg_coeff(p)).reshape(shape)[()]
