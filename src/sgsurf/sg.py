"""Elliptic solution families of the semi-discrete and discrete sine-Gordon equations.

The field is the one a lattice carries: ``surfaces.half_angles`` on the
phases psi_m = m gamma + beta t of a curve lattice (semi-discrete) or
psi_{m,n} = m gamma + n delta of a ``KParams`` (discrete),

  dn:  cos(w/2) = dn(psi),  sin(w/2) = -k sn(psi)
  cn:  cos(w/2) = cn(psi),  sin(w/2) = sn(psi),

so one lattice object fixes both a surface and the field it carries.  A
semi-discrete sample also carries dw/dt; a discrete sample does not.

Fields are never stored as angles.  A sample is the pair (cos w/2, sin w/2);
residuals expand every trigonometric expression through angle-addition
identities on those pairs, and the quarter angles needed by the fully
discrete equation come from ``HalfAngle.quarter_exponential``, with the
branch fixed by sign(sin w/4) = sign(sin w/2).

Residuals take arrays of sites (integer m, n and times t that broadcast) as
well as single sites: one ``jacobi`` call covers a whole grid, and the
products of the quarter exponentials are numpy's complex products, with a
single quad evaluated as an array of one, so an element does not depend on
how the sites are batched.
"""

from __future__ import annotations

import numpy as np

from .elliptic import jacobi
from .errors import DomainError, PoleError
from .ksurf import KParams
from .surfaces import CurveLattice, HalfAngle, half_angles

_POLE_TOL = 1e-12


def _unstack(w: HalfAngle) -> list[HalfAngle]:
    """The samples (with dw/dt) along the leading axis of an array HalfAngle."""
    return [HalfAngle(c=c, s=s, dwdt=d) for c, s, d in zip(w.c, w.s, w.dwdt)]


def semi_sg_coeffs(p: CurveLattice) -> tuple[float, float]:
    """(sine-Gordon coefficient, mKdV coefficient) of the field of the curve lattice p.

    dn family: (-2 beta sn dn / cn, 2 beta cn / (sn dn)) at gamma / 2.
    cn family: (-2 k^2 beta sn cn / dn, 2 beta dn / (sn cn)) at gamma / 2.
    """
    sn, cn, dn = jacobi(0.5 * p.gamma_step, p.mod)
    rate = 2.0 * p.beta_rate
    if p.family == "dn":
        if abs(cn) < _POLE_TOL or abs(sn * dn) < _POLE_TOL:
            raise PoleError("gamma at a half-period: sn dn / cn degenerate")
        return -rate * sn * dn / cn, rate * cn / (sn * dn)
    if abs(dn) < _POLE_TOL or abs(sn * cn) < _POLE_TOL:
        raise PoleError("gamma at a half-period: sn cn / dn degenerate")
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


def semi_residuals(p: CurveLattice, m, t):
    """(sine-Gordon, mKdV) residuals of the field of p at site m, time t;
    m and t may be broadcasting arrays (the sites m and m + 1 are one evaluation)."""
    c1, c2 = semi_sg_coeffs(p)
    m, t = np.broadcast_arrays(m, t)
    w0, w1 = _unstack(half_angles(p, np.stack([m, m + 1]), np.stack([t, t])))
    return semi_residuals_from(w0, w1, c1, c2)


def discrete_quad(p: KParams, m, n) -> list[HalfAngle]:
    """Samples (without dw/dt) at the corners A = (m+1, n+1), B = (m, n),
    C = (m+1, n) and D = (m, n+1) of the quads at (m, n), from one evaluation."""
    m, n = np.broadcast_arrays(m, n)
    w = half_angles(p, np.stack([m + 1, m, m + 1, m]), np.stack([n + 1, n, n, n + 1]))
    return [HalfAngle(c=c, s=s) for c, s in zip(w.c, w.s)]


def discrete_sg_coeff(p: KParams) -> float:
    """Coupling constant of the discrete sine-Gordon equation for the field of p."""
    so, co, do = jacobi(0.5 * p.gamma_step, p.mod)
    sp, cp, dp = jacobi(0.5 * p.delta_step, p.mod)
    if p.family == "dn":
        if min(abs(co), abs(cp)) < _POLE_TOL:
            raise PoleError("gamma or delta at a half-period: cn denominator degenerate")
        return -(so * do / co) * (sp * dp / cp)
    if min(abs(do), abs(dp)) < _POLE_TOL:
        raise PoleError("gamma or delta at a half-period: dn denominator degenerate")
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


def discrete_sg_residual(p: KParams, m, n):
    """Residual on the quads at (m, n); m and n may be broadcasting arrays
    (a single quad is evaluated as an array of one)."""
    shape = np.broadcast_shapes(np.shape(m), np.shape(n))
    quads = discrete_quad(p, np.atleast_1d(m), np.atleast_1d(n))
    return discrete_sg_residual_from(*quads, discrete_sg_coeff(p)).reshape(shape)[()]
