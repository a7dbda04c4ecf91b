"""Discrete K-surfaces: quad lattices with planar vertex stars and equal opposite edges.

With phi_{m,n} = alpha m + beta n and psi_{m,n} = gamma m + delta n:

  dn family: F = ( (-1)^n cos(phi) dn(psi)/k, (-1)^n sin(phi) dn(psi)/k, z ),
             N = ( (-1)^n cos(phi) sn(psi), (-1)^n sin(phi) sn(psi), -cn(psi) ),
             cos(alpha) = dn(gamma), sin(alpha) = k sn(gamma),
             cos(beta) = -dn(delta), sin(beta) = k sn(delta);
  cn family: F = ( (-1)^n k cos(phi) cn, (-1)^n k sin(phi) cn, z ),
             N = ( (-1)^n k cos(phi) sn, (-1)^n k sin(phi) sn, -dn ),
             cos(alpha) = cn(gamma), sin(alpha) = sn(gamma),
             cos(beta) = -cn(delta), sin(beta) = sn(delta);

z = -k (int_0^psi sn^2 - m int_0^gamma sn^2 - n int_0^delta sn^2), scaled by
k^2 instead of k for the cn family.  The two defining edge identities are
F_{m+1,n} - F_{m,n} = N_{m+1,n} x N_{m,n} and
F_{m,n+1} - F_{m,n} = -N_{m,n+1} x N_{m,n}.

Quads are emitted with m-then-n winding so exported meshes orient uniformly.
The closed forms are evaluated on whole arrays of sites: ``k_point`` takes
integer arrays as well as integers, and a grid window is one evaluation whose
values equal those of the single vertices bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .elliptic import EllipticModulus, _closed_form, jacobi, make_modulus, sn2_integral
from .errors import DomainError, PoleError
from .sg import HalfAngle

_CASES = ("1a", "1b", "1c", "2a", "2b", "2c")


@dataclass(frozen=True)
class KParams:
    """Steps (gamma, delta) with the derived rotation angles (alpha, beta)
    and the sn^2 primitives of the steps that the z-coordinate subtracts."""

    mod: EllipticModulus
    family: str
    gamma_step: float
    delta_step: float
    alpha_step: float = field(init=False)
    beta_step: float = field(init=False)
    gamma_integral: float = field(init=False)
    delta_integral: float = field(init=False)

    def __post_init__(self):
        if self.family not in ("dn", "cn"):
            raise DomainError(f"family must be 'dn' or 'cn', got {self.family!r}")
        k = self.mod.k
        sng, cng, dng = jacobi(self.gamma_step, self.mod)
        snd, cnd, dnd = jacobi(self.delta_step, self.mod)
        if self.family == "dn":
            alpha = math.atan2(k * sng, dng)
            beta = math.atan2(k * snd, -dnd)
        else:
            alpha = math.atan2(sng, cng)
            beta = math.atan2(snd, -cnd)
        object.__setattr__(self, "alpha_step", alpha)
        object.__setattr__(self, "beta_step", beta)
        object.__setattr__(self, "gamma_integral", sn2_integral(self.gamma_step, self.mod))
        object.__setattr__(self, "delta_integral", sn2_integral(self.delta_step, self.mod))

    def phases(self, m, n):
        return (self.alpha_step * m + self.beta_step * n,
                self.gamma_step * m + self.delta_step * n)


def k_point(p: KParams, m, n) -> tuple[np.ndarray, np.ndarray]:
    """(surface point F_{m,n}, unit normal N_{m,n}).

    m and n are integers or integer arrays that broadcast against each other;
    F and N then carry the broadcast shape plus a trailing axis of length 3.
    """
    phi, psi = p.phases(m, n)
    lattice = ((m, p.gamma_integral), (n, p.delta_integral))
    return _closed_form(phi, psi, 1.0 - 2.0 * (n % 2), lattice, p.mod, p.family)


def k_edge_residuals(p: KParams, m: int, n: int) -> tuple[float, float]:
    """Norms of the two edge-identity defects at one vertex."""
    (F, Fm, Fn), (N, Nm, Nn) = k_point(p, np.array([m, m + 1, m]), np.array([n, n, n + 1]))
    res_m = float(np.linalg.norm(Fm - F - np.cross(Nm, N)))
    res_n = float(np.linalg.norm(Fn - F + np.cross(Nn, N)))
    return res_m, res_n


@dataclass(frozen=True)
class KGrid:
    """Rectangular window of the surface with its invariant residuals."""

    params: KParams
    m_values: np.ndarray
    n_values: np.ndarray
    points: np.ndarray   # (M, N, 3)
    normals: np.ndarray  # (M, N, 3)

    def edge_lengths(self) -> tuple[np.ndarray, np.ndarray]:
        """(A over m-edges, B over n-edges), shapes (M-1, N) and (M, N-1)."""
        a = np.linalg.norm(self.points[1:, :, :] - self.points[:-1, :, :], axis=2)
        b = np.linalg.norm(self.points[:, 1:, :] - self.points[:, :-1, :], axis=2)
        return a, b

    def invariant_residuals(self) -> dict[str, float]:
        """Planarity, opposite-edge equality and per-row/column length spreads."""
        pts, nrm = self.points, self.normals
        # all four star edges dotted against the centre normal
        d = [
            ((pts[1:, :] - pts[:-1, :]) * nrm[:-1, :]).sum(axis=2),   # m+1 edge at (m, n)
            ((pts[:-1, :] - pts[1:, :]) * nrm[1:, :]).sum(axis=2),    # m-1 edge at (m, n)
            ((pts[:, 1:] - pts[:, :-1]) * nrm[:, :-1]).sum(axis=2),   # n+1 edge
            ((pts[:, :-1] - pts[:, 1:]) * nrm[:, 1:]).sum(axis=2),    # n-1 edge
        ]
        planarity = max((float(np.abs(x).max()) for x in d if x.size), default=0.0)
        # scalar triple products of star-edge triples at interior vertices
        triple = 0.0
        if pts.shape[0] > 2 and pts.shape[1] > 2:
            c = pts[1:-1, 1:-1]
            edges = [pts[2:, 1:-1] - c, pts[:-2, 1:-1] - c,
                     pts[1:-1, 2:] - c, pts[1:-1, :-2] - c]
            for a in range(4):
                for b in range(a + 1, 4):
                    for e in range(b + 1, 4):
                        det = (np.cross(edges[a], edges[b]) * edges[e]).sum(axis=2)
                        triple = max(triple, float(np.abs(det).max()))
        planarity = max(planarity, triple)
        a, b = self.edge_lengths()
        opp = 0.0
        spread = 0.0
        if a.size and a.shape[1] > 1:
            opp = max(opp, float(np.abs(np.diff(a, axis=1)).max()))
            spread = max(spread, float((a.max(axis=1) - a.min(axis=1)).max()))
        if b.size and b.shape[0] > 1:
            opp = max(opp, float(np.abs(np.diff(b, axis=0)).max()))
            spread = max(spread, float((b.max(axis=0) - b.min(axis=0)).max()))
        return {"planarity": planarity, "opposite_edges": opp, "length_spread": spread}


def k_grid(p: KParams, m_values, n_values) -> KGrid:
    ms = np.asarray(list(m_values), dtype=int)
    ns = np.asarray(list(n_values), dtype=int)
    pts, nrm = k_point(p, ms[:, None], ns[None, :])
    return KGrid(params=p, m_values=ms, n_values=ns, points=pts, normals=nrm)


def tan_half(sin_nu: float, cos_nu: float) -> float:
    """tan(nu/2) = sin(nu) / (1 + cos(nu)); the cos(nu) = -1 ray is rejected."""
    if abs(1.0 + cos_nu) < 1e-12:
        raise PoleError("tan(nu/2) undefined at cos(nu) = -1")
    return sin_nu / (1.0 + cos_nu)


def compat_matrices(wA: HalfAngle, wB: HalfAngle, wC: HalfAngle, wD: HalfAngle,
                    nu1: float, nu2: float, signs: tuple[str, str] = ("+", "+")) -> float:
    """Frobenius defect of the gauge-fixed zero-curvature condition on one quad.

    Corner naming: A = w_{m+1,n+1}, B = w_{m,n}, C = w_{m+1,n}, D = w_{m,n+1}.
    The m-step matrix couples (B, C) through e^{-i(C-B)/2} on the diagonal;
    the n-step matrix couples (B, D) through e^{+i(D+B)/2} off the diagonal.
    Residual of L_{m,n} Lhat_{m+1,n} - Lhat_{m,n} L_{m,n+1}.
    """
    s1 = 1.0 if signs[0] == "+" else -1.0
    s2 = 1.0 if signs[1] == "+" else -1.0

    def l_step(b: HalfAngle, c: HalfAngle) -> np.ndarray:
        d = c.half_exponential().conjugate() * b.half_exponential()
        cv, sv = math.cos(0.5 * nu1), math.sin(0.5 * nu1)
        return np.array([[cv * d, s1 * sv], [-s1 * sv, cv * d.conjugate()]])

    def lhat_step(b: HalfAngle, d: HalfAngle) -> np.ndarray:
        u = d.half_exponential() * b.half_exponential()
        cv, sv = math.cos(0.5 * nu2), math.sin(0.5 * nu2)
        return np.array([[cv, s2 * sv * u], [-s2 * sv * u.conjugate(), cv]])

    defect = l_step(wB, wC) @ lhat_step(wC, wA) - lhat_step(wB, wD) @ l_step(wD, wA)
    return float(np.linalg.norm(defect))


def k_periodicity(case_id: str, order: int = 3, window: int = 8,
                  mod: Optional[EllipticModulus] = None) -> dict:
    """Verify the translation invariances of one enumerated periodic case.

    Cases 1a-1c are dn-family, 2a-2c cn-family; 1a/1b mandate the modulus
    k' = cos(pi/order) with order > 2, the others accept any modulus
    (default: the same one).  Returns a report with the checked shifts and
    the worst closure defect over a window x window block.
    """
    if case_id not in _CASES:
        raise DomainError(f"case_id must be one of {_CASES}, got {case_id!r}")
    if case_id in ("1a", "1b") and order <= 2:
        raise DomainError("cases 1a/1b need order > 2")
    if mod is None:
        mod = make_modulus(math.sin(math.pi / order))
    K = mod.K
    fam = "dn" if case_id.startswith("1") else "cn"
    steps = {
        "1a": (K, K), "1b": (K, 2 * K), "1c": (2 * K, K),
        "2a": (K, K), "2b": (K, 2 * K), "2c": (2 * K, K),
    }[case_id]
    shifts = {
        "1a": [(2 * order, 2 * order)],
        "1b": [(2 * order, 2)],
        "1c": [(1, 0)],
        "2a": [(4, 0), (0, 4), (2, 2)],
        "2b": [(4, 0), (0, 2), (4, 2)],
        "2c": [(2, 0), (0, 4), (1, 2)],
    }[case_id]
    p = KParams(mod=mod, family=fam, gamma_step=steps[0], delta_step=steps[1])
    worst = 0.0
    per_shift = {}
    ms, ns = np.arange(window)[:, None], np.arange(window)[None, :]
    F0, _ = k_point(p, ms, ns)
    for dm, dn_ in shifts:
        F1, _ = k_point(p, ms + dm, ns + dn_)
        defect = float(np.abs(F1 - F0).max(initial=0.0))
        per_shift[f"({dm},{dn_})"] = defect
        worst = max(worst, defect)
    return {
        "case": case_id,
        "family": fam,
        "modulus": mod.k,
        "gamma": steps[0],
        "delta": steps[1],
        "shifts": per_shift,
        "max_defect": worst,
    }
