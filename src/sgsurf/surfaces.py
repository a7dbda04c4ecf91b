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

Frames: T_m = sigma (B_{m+1} x B_m) / s with s = sn(gamma) or k sn(gamma)
and sigma = +-1 from frame_sign; the admissible pairings are
sigma s > 0 (untwisted) and sigma s < 0 (twisted), checked at construction.

The closed forms are evaluated on whole arrays of sites: ``gamma_point``,
``b_point`` and ``half_angles`` take integer arrays as well as integers, a
snapshot is one evaluation over the sites m and m + 1, and every element
equals the single-site value bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .elliptic import EllipticModulus, _closed_form, jacobi, make_modulus, sn2_integral
from .errors import DegenerateFrameError, DomainError, ValidationError
from .frames import Frame
from .sg import HalfAngle

_SPEED_TOL = 1e-12


@dataclass(frozen=True)
class SurfaceParams:
    """One closed-form family member; alpha and the frame data are derived."""

    mod: EllipticModulus
    family: str
    gamma_step: float
    beta_rate: float
    twisted: bool = False
    frame_sign: str = "+"
    alpha_step: float = field(init=False)
    epsilon_sign: int = field(init=False)
    gamma_integral: float = field(init=False)   # int_0^gamma sn^2

    def __post_init__(self):
        if self.family not in ("dn", "cn"):
            raise DomainError(f"family must be 'dn' or 'cn', got {self.family!r}")
        if self.frame_sign not in ("+", "-"):
            raise DomainError(f"frame_sign must be '+' or '-', got {self.frame_sign!r}")
        sng, cng, dng = jacobi(self.gamma_step, self.mod)
        if self.family == "dn":
            alpha = math.atan2(self.mod.k * sng, -dng if self.twisted else dng)
        else:
            alpha = math.atan2(sng, -cng if self.twisted else cng)
        object.__setattr__(self, "alpha_step", alpha)
        object.__setattr__(self, "epsilon_sign", -1 if self.twisted else 1)
        object.__setattr__(self, "gamma_integral", sn2_integral(self.gamma_step, self.mod))
        s = self.edge_speed_signed()
        if abs(s) < _SPEED_TOL:
            raise DegenerateFrameError("sn(gamma) = 0: zero-length edges")
        sigma = 1.0 if self.frame_sign == "+" else -1.0
        # sin(nu) = sigma * s must be > 0 untwisted, < 0 twisted
        if (sigma * s > 0.0) == self.twisted:
            raise DomainError(
                f"frame_sign {self.frame_sign!r} inadmissible for sign(sn gamma) = "
                f"{math.copysign(1, s):+.0f} with twisted={self.twisted}"
            )

    def edge_speed_signed(self) -> float:
        """Signed edge scale s: sn(gamma) for dn, k sn(gamma) for cn."""
        sng = jacobi(self.gamma_step, self.mod)[0]
        return sng if self.family == "dn" else self.mod.k * sng

    @property
    def sigma(self) -> float:
        return 1.0 if self.frame_sign == "+" else -1.0

    def phases(self, m, t: float):
        rate = self.beta_rate * (self.mod.k if self.family == "dn" else 1.0)
        return m * self.alpha_step + rate * t, m * self.gamma_step + self.beta_rate * t


def _curve(p: SurfaceParams, m, t: float) -> tuple[np.ndarray, np.ndarray]:
    """(points Gamma_m, binormals B_m) at integer sites m (an int or an int
    array) and time t; the results carry a trailing axis of length 3."""
    phi, psi = p.phases(m, t)
    sign = 1.0 - 2.0 * (m % 2) if p.twisted else 1.0
    pts, nrm = _closed_form(phi, psi, sign, ((m, p.gamma_integral),), p.mod, p.family)
    # the cn binormal is the K-surface normal of the same phases, reversed
    return pts, (nrm if p.family == "dn" else -nrm)


def gamma_point(p: SurfaceParams, m, t: float) -> np.ndarray:
    """Curve point Gamma_m; m an int or an int array (trailing axis of 3)."""
    return _curve(p, m, t)[0]


def b_point(p: SurfaceParams, m, t: float) -> np.ndarray:
    """Binormal B_m; m an int or an int array (trailing axis of 3)."""
    return _curve(p, m, t)[1]


def half_angles(p: SurfaceParams, m, t: float):
    """(c, s, dw/dt) of the carried field at integer sites m (int or array)."""
    _, psi = p.phases(m, t)
    sn, cn, dn = jacobi(psi, p.mod)
    k, b = p.mod.k, p.beta_rate
    if p.family == "dn":
        return dn, -k * sn, -2.0 * b * k * cn
    return cn, sn, 2.0 * b * dn


def half_angle_at(p: SurfaceParams, m: int, t: float) -> HalfAngle:
    """Field sample carried by the surface: (dn, -k sn) for dn, (cn, sn) for cn.

    Includes the analytic time derivative so the sample chain can be fed to
    the semi-discrete residual evaluators.
    """
    c, s, dwdt = half_angles(p, m, t)
    return HalfAngle(c=c, s=s, dwdt=dwdt)


def _tangents_normals(p: SurfaceParams, b0: np.ndarray, b1: np.ndarray):
    """Frame vectors T and N from the binormals at m and m + 1 (rows alike)."""
    T = p.sigma * np.cross(b1, b0) / p.edge_speed_signed()
    return T, np.cross(b0, T)


def frame_at(p: SurfaceParams, m: int, t: float) -> Frame:
    """Frenet frame with T along the edge, oriented by frame_sign."""
    _, (b0, b1) = _curve(p, np.array([m, m + 1]), t)
    T, N = _tangents_normals(p, b0, b1)
    return Frame(T=T, N=N, B=b0)


def flow_velocity(p: SurfaceParams, m: int, t: float) -> np.ndarray:
    """Closed-form time derivative of the curve point (no finite differences)."""
    phi, psi = p.phases(m, t)
    sn, cn, dn = jacobi(psi, p.mod)
    k, b = p.mod.k, p.beta_rate
    pre = (-1.0) ** (m % 2) if p.twisted else 1.0
    if p.family == "dn":
        return b * np.array([
            pre * (-math.sin(phi) * dn - k * math.cos(phi) * sn * cn),
            pre * (math.cos(phi) * dn - k * math.sin(phi) * sn * cn),
            -k * sn * sn,
        ])
    return b * k * np.array([
        pre * (-math.sin(phi) * cn - math.cos(phi) * sn * dn),
        pre * (math.cos(phi) * cn - math.sin(phi) * sn * dn),
        -k * sn * sn,
    ])


def flow_angle(p: SurfaceParams, m: int, t: float) -> HalfAngle:
    """(cos w_m, sin w_m) of the flow decomposition d Gamma / dt = sigma rho (cos w T + sin w N).

    w_m = (w_m - w_{m+1})/2 of the carried field for the untwisted families
    and (w_m + w_{m+1})/2 for the twisted ones; rho = beta (dn) or beta k (cn).
    """
    h0 = half_angle_at(p, m, t)
    h1 = half_angle_at(p, m + 1, t)
    if p.twisted:
        return HalfAngle(c=h0.c * h1.c - h0.s * h1.s, s=h0.s * h1.c + h0.c * h1.s)
    return HalfAngle(c=h0.c * h1.c + h0.s * h1.s, s=h0.s * h1.c - h0.c * h1.s)


@dataclass(frozen=True)
class CurveSnapshot:
    """One time slice of the deforming curve with its frames."""

    t: float
    m_values: np.ndarray
    points: np.ndarray     # (M, 3)
    binormals: np.ndarray  # (M, 3)
    frames: tuple[Frame, ...]


def snapshot(p: SurfaceParams, m_range: Sequence[int], t: float,
             tol: float = 1e-10) -> CurveSnapshot:
    """Assemble and validate one snapshot; raises ValidationError on defects."""
    ms = np.asarray(list(m_range), dtype=int)
    M = len(ms)
    # pairs (m, m + 1) inside the window; the other sites m + 1 are appended,
    # so a contiguous window costs M + 1 evaluations
    paired = np.zeros(M, dtype=bool)
    paired[:-1] = ms[1:] == ms[:-1] + 1
    pts, bs = _curve(p, np.concatenate([ms, ms[~paired] + 1]), t)
    nxt = np.where(paired, np.arange(1, M + 1), M - 1 + np.cumsum(~paired))
    T, N = _tangents_normals(p, bs[:M], bs[nxt])
    pts, bs = pts[:M], bs[:M]
    frames = tuple(Frame(T=a, N=b, B=c) for a, b, c in zip(T, N, bs))
    adj = np.flatnonzero(paired)
    edge = pts[adj + 1] - pts[adj]
    edge_res = float(np.abs(
        edge - p.epsilon_sign * np.cross(bs[adj + 1], bs[adj])).max(initial=0.0))
    speed_res = float(np.abs(
        np.linalg.norm(edge, axis=1) - abs(p.edge_speed_signed())).max(initial=0.0))
    report = {"edge_identity": edge_res, "constant_speed": speed_res}
    if max(report.values()) > tol:
        raise ValidationError("snapshot violates curve invariants", report)
    return CurveSnapshot(t=t, m_values=ms, points=pts, binormals=bs, frames=frames)


def kaleidocycle_params(n: int, family: str = "dn", beta_rate: float = 1.0,
                        twisted: bool = False) -> SurfaceParams:
    """Closed-linkage parameters: k = sin(pi/n), gamma = K.

    The dn family closes with period 2n (hinge count 2n); the cn family
    closes with period 2 for any modulus.  Requires n >= 3 so that the
    modulus stays inside (0, 1).
    """
    if n < 3:
        raise DomainError(f"kaleidocycle order must be >= 3, got {n}")
    mod = make_modulus(math.sin(math.pi / n))
    sign = "-" if twisted else "+"
    return SurfaceParams(mod=mod, family=family, gamma_step=mod.K,
                         beta_rate=beta_rate, twisted=twisted, frame_sign=sign)
