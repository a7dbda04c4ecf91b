"""Tau-function route to the semi-discrete surfaces, kept as an independent oracle.

For each family the four entire functions (f, g, f*, g*) are explicit theta
expressions on the 2 tau' lattice in shifted variables

  dn:  v_pm = v + (z i +- lam) / (k K'),         v = (psi_m - K) / (2 i K')
  cn:  v_pm = v + 1/2 + tau' + (z i +- lam) / K'

multiplied by the phase exp(-+ i phi_m / 2); the starred pair is the analytic
continuation of the complex conjugate (theta indices swap v_+ <-> v_- with a
sign on theta_2 in the cn family).  The twisted variants multiply f by i^m,
g by (-i)^m and the bilinear H by (-1)^m, which is the substitution
phi_m -> phi_m - m pi, and flip the edge sign to -1.

Everything the surface needs is bilinear: F = f f* + g g* collapses to a
single theta product, H is the Hirota lambda-derivative D_lam g . f* / (2i),
and the third coordinate combines i R_m (a closed form built from the
Weierstrass scalar 2E'/K') with the analytic z-derivative of log F.

The entry points take the very lattice the closed forms evaluate, a curve's
(``surfaces.CurveLattice``) or a K-surface's (``ksurf.KParams``, row n for t, where
``gamma_from_tau`` gives F and N (dn) or -N (cn)), and derive the rest from its
modulus and family: ``lambda0`` (k K'/2 or K'/2), the chain-rule denominator (k K'
or K') and the tau' and 2 tau' theta lattices (``theta.lattice_params``, once each).

Every entry point takes integer arrays of m (and arrays of t, lam, z that
broadcast with them) as well as single values, and evaluates them in one pass:
the phases once, the thetas in one band reduction per lattice (``_thetas``)
and the rest with numpy's complex arithmetic (``bilinear_checks`` takes m and
m + 1, ``cauchy_riemann`` four (lam, z) shifts).  Single values are arrays of
one site, returned as numpy scalars, so an element does not depend on how the
sites are batched.  A quotient whose denominator vanishes raises PoleError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import PoleError
from .surfaces import CurveLattice
from .theta import _thetas, lattice_params

_I_POWERS = np.array([1j ** r for r in range(4)])          # i^(m mod 4)
_NEG_I_POWERS = np.array([(-1j) ** r for r in range(4)])   # (-i)^(m mod 4)
_FD_STEP = 1e-5   # central-difference step of the Cauchy-Riemann check


def _chain_den(p: CurveLattice) -> float:
    """Denominator of the (lam, z) -> v chain rule: k K' (dn) or K' (cn)."""
    return p.mod.k * p.mod.Kp if p.family == "dn" else p.mod.Kp


def lambda0(p: CurveLattice) -> float:
    """The spectral parameter at which the quartet assembles the curve: k K'/2
    (dn) or K'/2 (cn)."""
    return _chain_den(p) / 2.0


@dataclass(frozen=True)
class TauSample:
    """Quartet values and derived bilinears at one (m, t, lam, z), or arrays
    of them over broadcast (m, t, lam, z)."""

    f: complex
    g: complex
    fstar: complex
    gstar: complex
    F: complex
    H: complex
    dlog: complex   # d log F / dz


# The evaluation runs on arrays of at least one dimension (a single site is an
# array of one); results take the broadcast shape of the arguments again.
def _shape(*args) -> tuple:
    return np.broadcast_shapes(*map(np.shape, args))


def _shaped(x, shape):
    return x.reshape(shape)[()]


def _evaluate(p: CurveLattice, m, t, lam, z):
    """(f, g, f*, g*, F, H, d log F / dz) at broadcast (m, t, lam, z), each
    with at least one dimension.

    The phases are evaluated once, and every theta argument is v = (psi - K)
    / (2 i K') plus its shift and (lam + i z)/den: the quartet's v_pm = v + off
    + (+-lam + i z)/den on the 2 tau' lattice, H's shift by a half period
    there, and F's collapsed product on the tau' lattice; z may be complex
    (analytic continuation).  Each lattice takes one theta call, over every
    index and argument it needs.
    """
    m, t, lam, z = (np.atleast_1d(x) for x in (m, t, lam, z))
    # H and d log F / dz do not depend on lam; z takes lam's shape, so that
    # they still have one value per site of a lam array
    lam, z = np.broadcast_arrays(lam, z)
    phi, psi, sign, _ = p._sites(m, t)
    base = (psi - p.mod.K) / (2j * p.mod.Kp)
    den = _chain_den(p)
    lattice, lattice2 = lattice_params(p.mod), lattice_params(p.mod, 2)   # tau', 2 tau'
    dn = p.family == "dn"
    off = 0.0 if dn else 0.5 + p.mod.taup
    half = 0.5 if dn else 1.0 + p.mod.taup
    iz = 1j * z
    v = base + iz / den
    ((t3p, _), (t2p, _)), ((t3m, _), (t2m, _)), ((t3h, d3h), (t2h, d2h)) = _thetas(
        (3, 2), lattice2, base + off + (lam + iz) / den, base + off + (-lam + iz) / den,
        base + half + iz / den)
    if dn:
        [(t3v, d3v)], [(tl, _)] = _thetas((3,), lattice, v, lam / den)
        tv = t3v
    else:
        [(tv, _), _], [(tl, _), _], [_, (t3v, d3v)] = _thetas(
            (0, 3), lattice, v + 0.5 + p.mod.taup, lam / den, v)

    # quartet: f = i^m e^{-i phi/2} (t3m + iu t2m), g = (-i)^m e^{i phi/2} (t3p + iu t2p)
    iu = 1j if dn else 1.0
    twf = _I_POWERS[m % 4] if p.twisted else 1.0
    twg = _NEG_I_POWERS[m % 4] if p.twisted else 1.0
    em = twf * np.exp(-0.5j * phi)
    ep = twg * np.exp(0.5j * phi)
    f = em * (t3m + iu * t2m)
    g = ep * (t3p + iu * t2p)
    fstar = ep * (t3p - iu * t2p)
    gstar = em * (t3m - iu * t2m)

    # F = f f* + g g* collapsed to one theta product, valid at any lam
    F = 2.0 * tv * tl

    # H = D_lam g . f* / (2i) = pref e^{i phi} (t2 t3' - t3 t2') at the half-period shift
    pref = (1.0 / den if dn else -1j / den) * sign
    H = pref * np.exp(1j * phi) * (t2h * d3h - t3h * d2h)

    if not np.all(t3v):
        raise PoleError("theta_3(v) = 0: d log F / dz has a pole there")
    dlog = 1j / den * d3v / t3v
    if not dn:
        # F carries exp(-pi i (2 v(z) + tau')): adds 2 pi / K' to the log-derivative
        dlog = dlog + 2.0 * math.pi / p.mod.Kp
    return f, g, fstar, gstar, F, H, dlog


def i_r_m(p: CurveLattice, m, t):
    """Closed form of i R_m = -(E'/chain_den) eta_m, a real number, with eta_m the phase
    function of the spectral prefactor: psi_m offset by pi/2E' (dn) or 3pi/2E' (cn), less
    k^2 K'/E' times count * int_0^step sn^2 for each z-drift pair of ``p._sites``."""
    _, psi, _, drift = p._sites(m, t)
    mod = p.mod
    eta = psi - (0.5 if p.family == "dn" else 1.5) * math.pi / mod.Ep
    for count, integral in drift:
        eta = eta - count * mod.m * mod.Kp * integral / mod.Ep
    return -(mod.Ep / _chain_den(p)) * eta


def tau_sample(p: CurveLattice, m, t, lam: Optional[float] = None,
               z=0.0) -> TauSample:
    """Evaluate the quartet and its bilinears; lam defaults to lambda0.

    m (int), t, lam and z may be arrays that broadcast against each other.
    """
    if lam is None:
        lam = lambda0(p)
    shape = _shape(m, t, lam, z)
    return TauSample(*(_shaped(x, shape) for x in _evaluate(p, m, t, lam, z)))


def gamma_from_tau(p: CurveLattice, m, t) -> tuple[np.ndarray, np.ndarray]:
    """(point, binormal) of the lattice assembled from the quartet at lam = lambda0, z = 0.

    m an int or an int array (the results carry a trailing axis of length 3).
    """
    shape = _shape(m, t) + (3,)
    f, g, fstar, gstar, F, H, dlog = _evaluate(p, m, t, lambda0(p), 0.0)
    if not np.all(F):
        raise PoleError("F = 0: the tau curve is not defined there")
    Hc, iF = np.conjugate(H), 1j * F
    fsg, fgs = fstar * g, f * gstar
    # the site sign of _sites, (-1)^n on a K-surface; a twisted curve's i^m factors carry it
    sign = 1.0 if p.twisted else p._sites(m, t)[2]
    gamma = (((H + Hc) / F).real,
             ((H - Hc) / iF).real,
             i_r_m(p, m, t) - 0.5 * dlog.real)
    b = (sign * ((fsg + fgs) / F).real,
         sign * ((fsg - fgs) / iF).real,
         ((f * fstar - g * gstar) / F).real)
    return (np.stack(np.broadcast_arrays(*gamma), axis=-1).reshape(shape),
            np.stack(b, axis=-1).reshape(shape))


def bilinear_checks(p: CurveLattice, m, t):
    """Residuals (fh_res, fr_res) of the two Hirota relations between the quartets at m and m + 1:

    fh_res: F_m H_{m+1} - H_m F_{m+1} = (eps/i) Psi^FH, with the quartic
            Psi^FH = f*_m f*_{m+1} (f_m g_{m+1} - f_{m+1} g_m)
                   + g_m g_{m+1} (f*_m g*_{m+1} - f*_{m+1} g*_m);
    fr_res: (1/2) D_z F_m . F_{m+1} + i(R_{m+1} - R_m) F_m F_{m+1}
            = (2 eps / i) Psi^FR  with  Psi^FR = f_{m+1} f*_m g_m g*_{m+1}
                                              - f*_{m+1} f_m g*_m g_{m+1}.

    Both residuals are normalized by the magnitude of their terms, since the
    quartet grows exponentially along m and an absolute residual would just
    measure that scale.  m (int) and t may be broadcasting arrays; m and m + 1
    (at lambda0, z = 0) are one pass.
    """
    shape = _shape(m, t)
    m, t = np.broadcast_arrays(np.atleast_1d(m), np.atleast_1d(t))
    f, g, fs, gs, F, H, dlog = _evaluate(p, np.stack([m, m + 1]), t, lambda0(p), 0.0)
    (f0, f1), (g0, g1), (fs0, fs1), (gs0, gs1), (F0, F1), (H0, H1) = f, g, fs, gs, F, H
    R0, R1 = i_r_m(p, m, t), i_r_m(p, m + 1, t)

    psi_fh = fs0 * fs1 * (f0 * g1 - f1 * g0) + g0 * g1 * (fs0 * gs1 - fs1 * gs0)
    scale = abs(F0 * H1) + abs(H0 * F1) + abs(psi_fh) + 1e-300
    fh_res = abs(F0 * H1 - H0 * F1 - p.epsilon_sign / 1j * psi_fh) / scale

    dF0, dF1 = dlog[0] * F0, dlog[1] * F1
    psi_fr = f1 * fs0 * g0 * gs1 - fs1 * f0 * gs0 * g1
    lhs2 = 0.5 * (dF0 * F1 - F0 * dF1) + (R1 - R0) * F0 * F1
    scale2 = abs(lhs2) + abs(psi_fr) + abs(F0 * F1) + 1e-300
    fr_res = abs(lhs2 - 2.0 * p.epsilon_sign / 1j * psi_fr) / scale2
    return _shaped(fh_res, shape), _shaped(fr_res, shape)


def cauchy_riemann(p: CurveLattice, m, t):
    """Max residual of the Cauchy-Riemann pairing f_lam = i f_z, f*_lam = -i f*_z,
    g_lam = -i g_z, g*_lam = i g*_z (the lam and z dependence is structural, entering
    only through v_pm) by central differences of step h = _FD_STEP, relative to
    max(1, |x_lam|).  m (int) and t may be broadcasting arrays; the four shifts
    (lambda0 +- h, 0) and (lambda0, +- h) are one pass."""
    shape, h = _shape(m, t), _FD_STEP
    column = (4,) + (1,) * max(len(shape), 1)   # the shifts, against the sites
    shifts = np.array([[h, -h, 0.0, 0.0], [0.0, 0.0, h, -h]]).reshape((2,) + column)
    f, g, fs, gs, *_ = _evaluate(p, m, t, lambda0(p) + shifts[0], shifts[1])
    cr_res = 0.0
    for x, sign in zip((f, g, fs, gs), (1.0, -1.0, -1.0, 1.0)):
        d_lam, d_z = (x[0] - x[1]) / (2.0 * h), (x[2] - x[3]) / (2.0 * h)
        cr_res = np.maximum(cr_res, abs(d_lam - sign * 1j * d_z) / np.maximum(1.0, abs(d_lam)))
    return _shaped(cr_res, shape)
