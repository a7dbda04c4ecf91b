"""Closed-form semi-discrete surfaces: discrete curves with an isoperimetric flow.

Four families, indexed by elliptic family and a twist flag.  With
phi_m = m alpha + beta k t (dn) or m alpha + beta t (cn) and
psi_m = m gamma + beta t:

  dn untwisted: Gamma = ( cos(phi) dn(psi)/k, sin(phi) dn(psi)/k, z(psi) ),
                B = ( cos(phi) sn(psi), sin(phi) sn(psi), -cn(psi) ),
                cos(alpha) = dn(gamma), sin(alpha) = k sn(gamma), eps = +1;
  dn twisted:   x, y components gain (-1)^m, cos(alpha) = -dn(gamma), eps = -1;
  cn untwisted: Gamma = ( k cos(phi) cn, k sin(phi) cn, z ),
                B = ( -k cos(phi) sn, -k sin(phi) sn, dn ),
                cos(alpha) = cn(gamma), sin(alpha) = sn(gamma), eps = +1;
  cn twisted:   (-1)^m on x, y, cos(alpha) = -cn(gamma), eps = -1;

with z(psi) = -k (int_0^psi sn^2 - m int_0^gamma sn^2) for dn and the same
expression scaled by k^2 for cn.  Every edge satisfies
Gamma_{m+1} - Gamma_m = eps B_{m+1} x B_m, the edge length is |sn gamma|
(dn) or |k sn gamma| (cn), and <B_m, B_{m+1}> is cn(gamma) resp. dn(gamma).

Frames: T_m = sigma (B_{m+1} x B_m) / s with s = sn(gamma) or k sn(gamma), and
N_m = B_m x T_m; ``snapshots`` forms B_{m+1} x B_m once per window, for the
frame and the edge identity.  The frame sign sigma = +-1 is derived: sigma s > 0
(untwisted) and sigma s < 0 (twisted) admit exactly sigma = sign(s) eps.  A
curve window holds frames as rows: ``tangents``, ``normals``, ``binormals``.

Field: a lattice carries the elliptic sine-Gordon field w_m at its phases
psi, (cos w/2, sin w/2) = (dn psi, -k sn psi) (dn) or (cn psi, sn psi) (cn).
``half_angles`` is its one evaluator, for a curve (psi_m = m gamma + beta t,
with dw/dt) and for a K-surface (``ksurf.KParams``, psi = m gamma + n delta)
alike, and returns a ``HalfAngle``; ``sg`` certifies the lattice equations.

The closed forms are evaluated on whole arrays of sites: ``gamma_point``,
``b_point`` and ``half_angles`` take integer arrays as well as integers,
``snapshots`` is one evaluation over the sites m and m + 1 at every time of
a (t, m) window, returned whole as a ``CurveWindow``, and every element
equals the single-site value bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .elliptic import (EllipticModulus, _closed_form, _lattice_step, check_family, jacobi,
                       make_modulus)
from .errors import DegenerateFrameError, DomainError, ValidationError, check_finite, max_abs

_SPEED_TOL = 1e-12
_SNAPSHOT_TOL = 1e-10   # absolute bound on a snapshot's edge and speed residuals


@dataclass(frozen=True)
class CurveLattice:
    """One curve lattice: family, twist and steps, with the derived rotation
    step alpha, edge sign eps, int_0^gamma sn^2 and signed edge scale s
    (sn gamma for dn, k sn gamma for cn), all but eps from one Landen pass.
    The closed forms and the tau quartet share these phases (phi_m, psi_m)."""

    mod: EllipticModulus
    family: str
    gamma_step: float
    beta_rate: float
    twisted: bool = False
    alpha_step: float = field(init=False)
    epsilon_sign: int = field(init=False)
    gamma_integral: float = field(init=False)   # int_0^gamma sn^2
    edge_speed: float = field(init=False)

    def __post_init__(self):
        check_family(self.family)
        check_finite(gamma_step=self.gamma_step, beta_rate=self.beta_rate)
        derived = _lattice_step(self.mod, self.family, self.gamma_step, self.twisted)
        for name, value in zip(("alpha_step", "gamma_integral", "edge_speed"), derived):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "epsilon_sign", -1 if self.twisted else 1)

    def phases(self, m, t):
        """(phi_m, psi_m); phi advances by beta k t for dn, beta t for cn."""
        rate = self.beta_rate * (self.mod.k if self.family == "dn" else 1.0)
        return m * self.alpha_step + rate * t, m * self.gamma_step + self.beta_rate * t

    def _sites(self, m, t):
        """(phi, psi, sign, drift) at sites m and times t: the phases, the twist sign
        (-1)^m (1.0 untwisted) and the z-drift pairs (count, int_0^step sn^2)."""
        sign = 1.0 - 2.0 * (m % 2) if self.twisted else 1.0
        return (*self.phases(m, t), sign, ((m, self.gamma_integral),))

    def closure_defect(self, dm):
        """How far the shift m -> m + dm ((dm, dn) for a K-surface) is from a period
        of the points, from the lattice constants alone: no point, no Landen pass.
        With j = rint(psi / 2K) for the shift's increments (phi, psi, sign), the
        points repeat iff |psi - 2jK|, |e^{i phi} sign s_j - 1| (s_j = 1 for dn,
        (-1)^j for cn) and the z drift |2j int_0^K sn^2 - sum of count *
        int_0^step sn^2| all vanish; the result is their largest, over the
        broadcast shifts.  Points only: for dn an odd j flips the normal's z."""
        return self._closure_defect(*self._sites(dm, 0.0))

    def _closure_defect(self, phi, psi, sign, drift):
        mod = self.mod
        j = np.rint(psi / (2.0 * mod.K))
        s_j = 1.0 if self.family == "dn" else 1.0 - 2.0 * (j % 2)
        z = 2.0 * j * (mod.K * mod.slope)   # int_0^K sn^2 = (K - E) / k^2
        for count, integral in drift:
            z = z - count * integral
        phase = np.abs(np.exp(1j * phi) * (sign * s_j) - 1.0)
        return np.maximum(np.maximum(np.abs(psi - 2.0 * j * mod.K), phase), np.abs(z))


@dataclass(frozen=True)
class SurfaceParams(CurveLattice):
    """One closed-form family member; alpha and the frame sign are derived."""

    sigma: float = field(init=False)

    def __post_init__(self):
        super().__post_init__()
        if abs(self.edge_speed) < _SPEED_TOL:
            raise DegenerateFrameError("sn(gamma) = 0: zero-length edges")
        # the one sign with sin(nu) = sigma * s > 0 untwisted, < 0 twisted
        object.__setattr__(self, "sigma", math.copysign(1.0, self.edge_speed) * self.epsilon_sign)


def _curve(p: CurveLattice, m, t) -> tuple[np.ndarray, np.ndarray]:
    """(points Gamma_m, binormals B_m) of the lattice p at integer sites m (an
    int or an int array) and times t (a float or an array that broadcasts
    against m); the results carry the broadcast shape plus a trailing axis of 3."""
    pts, nrm = _closed_form(*p._sites(m, t), p.mod, p.family)
    # the cn binormal is the K-surface normal of the same phases, reversed
    return pts, (nrm if p.family == "dn" else -nrm)


def gamma_point(p: SurfaceParams, m, t) -> np.ndarray:
    """Curve point Gamma_m; m an int or an int array, t a float or an array
    that broadcasts against m (trailing axis of 3)."""
    return _curve(p, m, t)[0]


def b_point(p: SurfaceParams, m, t: float) -> np.ndarray:
    """Binormal B_m; m an int or an int array (trailing axis of 3)."""
    return _curve(p, m, t)[1]


@dataclass(frozen=True)
class HalfAngle:
    """One field sample, or an array of them, stored as (cos w/2, sin w/2)
    plus optional d w/dt; the normalization check fires when any element
    violates it."""

    c: float
    s: float
    dwdt: Optional[float] = None

    def __post_init__(self):
        err = max_abs(self.c * self.c + self.s * self.s - 1.0)
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


def half_angles(p: CurveLattice, m, t) -> HalfAngle:
    """The field carried by the lattice p, with dw/dt, at integer sites m (int
    or array) and times t of a curve, or rows n of a K-surface (a float, int or
    array that broadcasts against m): cos(w/2), sin(w/2) = dn(psi), -k sn(psi)
    (dn) or cn(psi), sn(psi) (cn) at the phase psi of ``p.phases``."""
    _, psi = p.phases(m, t)
    sn, cn, dn = jacobi(psi, p.mod)
    k, b = p.mod.k, p.beta_rate
    if p.family == "dn":
        return HalfAngle(c=dn, s=-k * sn, dwdt=-2.0 * b * k * cn)
    return HalfAngle(c=cn, s=sn, dwdt=2.0 * b * dn)


def flow_velocity(p: SurfaceParams, m, t: float) -> np.ndarray:
    """Closed-form time derivative of the curve point (no finite differences);
    m an int or an int array (trailing axis of 3)."""
    phi, psi, sign, _ = p._sites(m, t)
    sn, cn, dn = jacobi(psi, p.mod)
    k, b = p.mod.k, p.beta_rate
    c, s = sign * np.cos(phi), sign * np.sin(phi)
    if p.family == "dn":
        v = (-s * dn - k * c * sn * cn, c * dn - k * s * sn * cn, -k * sn * sn)
        return b * np.stack(v, axis=-1)
    v = (-s * cn - c * sn * dn, c * cn - s * sn * dn, -k * sn * sn)
    return b * k * np.stack(v, axis=-1)


def flow_angle(p: SurfaceParams, m, t: float) -> HalfAngle:
    """(cos w_m, sin w_m) of the flow decomposition d Gamma / dt = sigma rho (cos w T + sin w N).

    w_m = (w_m - w_{m+1})/2 of the carried field for the untwisted families
    and (w_m + w_{m+1})/2 for the twisted ones; rho = beta (dn) or beta k (cn).
    m is an int or an int array, t a float or an array that broadcasts against m.
    """
    m, t = np.broadcast_arrays(m, t)
    w = half_angles(p, np.stack([m, m + 1]), np.stack([t, t]))
    (c0, c1), (s0, s1) = w.c, w.s
    if p.twisted:
        return HalfAngle(c=c0 * c1 - s0 * s1, s=s0 * c1 + c0 * s1)
    return HalfAngle(c=c0 * c1 + s0 * s1, s=s0 * c1 - c0 * s1)


@dataclass(frozen=True)
class CurveWindow:
    """The deforming curve over times ts and sites ms; element [i, j] of
    points, binormals, tangents and normals belongs to time ts[i] and site
    ms[j], and (tangents, normals, binormals)[i, j] is its frame (T, N, B)."""

    ts: np.ndarray         # (T,)
    ms: np.ndarray         # (M,)
    points: np.ndarray     # (T, M, 3)
    binormals: np.ndarray  # (T, M, 3)
    tangents: np.ndarray   # (T, M, 3)
    normals: np.ndarray    # (T, M, 3)


def snapshots(p: SurfaceParams, m_range: Sequence[int], ts: Sequence[float]) -> CurveWindow:
    """The validated curve window at the times ts and sites m_range, from one
    evaluation; raises ValidationError with the residuals of the first
    defective time slice."""
    ms = np.asarray(list(m_range), dtype=int)
    ts = np.asarray(ts, dtype=float)
    M = len(ms)
    # pairs (m, m + 1) inside the window; the other sites m + 1 are appended,
    # so a contiguous window costs M + 1 evaluations per time
    paired = np.zeros(M, dtype=bool)
    paired[:-1] = ms[1:] == ms[:-1] + 1
    pts, bs = _curve(p, np.concatenate([ms, ms[~paired] + 1]), ts[:, None])
    nxt = np.where(paired, np.arange(1, M + 1), M - 1 + np.cumsum(~paired))
    cross = np.cross(bs[:, nxt], bs[:, :M])   # = eps (Gamma_{m+1} - Gamma_m) = sigma s T_m
    pts, bs = pts[:, :M], bs[:, :M]
    T = p.sigma * cross / p.edge_speed
    N = np.cross(bs, T)
    adj = np.flatnonzero(paired)
    edge = pts[:, adj + 1] - pts[:, adj]
    edge_res = np.abs(edge - p.epsilon_sign * cross[:, adj]).max(axis=(1, 2), initial=0.0)
    speed_res = np.abs(np.linalg.norm(edge, axis=-1) - abs(p.edge_speed)).max(
        axis=1, initial=0.0)
    ok = (edge_res <= _SNAPSHOT_TOL) & (speed_res <= _SNAPSHOT_TOL)   # a NaN residual fails too
    if not ok.all():
        i = int(np.argmin(ok))
        report = {"edge_identity": float(edge_res[i]), "constant_speed": float(speed_res[i])}
        raise ValidationError(
            f"snapshot at t = {float(ts[i])!r} violates curve invariants", report)
    return CurveWindow(ts=ts, ms=ms, points=pts, binormals=bs, tangents=T, normals=N)


def _check_order(n) -> None:
    """Reject a kaleidocycle order that is not an integer n >= 3 with DomainError."""
    if not isinstance(n, (int, np.integer)) or n < 3:
        raise DomainError(f"kaleidocycle order must be an integer >= 3, got {n}")


def kaleidocycle_params(n: int, family: str = "dn", beta_rate: float = 1.0,
                        twisted: bool = False) -> SurfaceParams:
    """Closed-linkage parameters: k = sin(pi/n), gamma = K; closed with the
    period ``kaleidocycle_period(n, family)``.  Requires an integer n >= 3, so
    that the modulus stays inside (0, 1)."""
    _check_order(n)
    mod = make_modulus(math.sin(math.pi / n))
    return SurfaceParams(mod=mod, family=family, gamma_step=mod.K,
                         beta_rate=beta_rate, twisted=twisted)


def kaleidocycle_period(n: int, family: str) -> int:
    """The least period in m of the order-n kaleidocycle, twisted or not, that
    ``closure_defect`` accepts; a formula, as a search would cost O(n).
    Takes the orders and families that ``kaleidocycle_params`` takes."""
    _check_order(n)
    check_family(family)
    return 2 * n if family == "dn" else 2
