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

A K-surface is the discrete flow of the untwisted curve of ``surfaces``:
``KParams`` is that curve lattice (mod, family, gamma) plus a row step
delta, and row n is the curve of beta_rate 1 at t = n delta moved rigidly,

  F_{m,n} = R_n Gamma_m(n delta) + (0, 0, c n int_0^delta sn^2),
  N_{m,n} = +R_n B_m(n delta) (dn),  -R_n B_m(n delta) (cn),

with R_n the rotation about z by n (beta + pi) - r n delta, where r = k,
c = k for dn and r = 1, c = k^2 for cn (Bobenko-Pinkall, J. Differential
Geom. 43 (1996): the semi-discrete -> discrete step).  The same ``KParams``
fixes the discrete sine-Gordon field the surface carries,
``surfaces.half_angles(p, m, n)`` at psi_{m,n}: ``sg`` certifies its lattice
equation and ``compat_matrices`` its zero-curvature condition, with the
torsion angles cos(nu) = <N_{m,n}, N_{m+1,n}> and <N_{m,n}, N_{m,n+1}>.

Quads are emitted with m-then-n winding so exported meshes orient uniformly.
The closed forms are evaluated on whole arrays of sites: ``k_point`` takes
integer arrays as well as integers, and a grid window is one evaluation whose
values equal those of the single vertices bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .elliptic import _closed_form, _lattice_step, make_modulus
from .errors import DomainError, check_finite, max_abs
from .surfaces import CurveLattice, HalfAngle

_CASES = ("1a", "1b", "1c", "2a", "2b", "2c")


@dataclass(frozen=True)
class KParams(CurveLattice):
    """The untwisted rate-1 curve lattice plus the row step delta, with the derived
    angle beta, int_0^delta sn^2 and n-edge scale delta_speed (sn delta for dn, k sn
    delta for cn) from one Landen pass; it takes exactly (mod, family, gamma_step, delta_step)."""

    beta_rate: float = field(init=False, default=1.0)
    twisted: bool = field(init=False, default=False)
    delta_step: float
    beta_step: float = field(init=False)
    delta_integral: float = field(init=False)
    delta_speed: float = field(init=False)

    def __post_init__(self):
        super().__post_init__()
        check_finite(delta_step=self.delta_step)
        derived = _lattice_step(self.mod, self.family, self.delta_step, True)
        for name, value in zip(("beta_step", "delta_integral", "delta_speed"), derived):
            object.__setattr__(self, name, value)

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
        return tuple(np.sqrt(_dot(e, e)) for e in _edges(self.points))

    def first_edge_lengths(self) -> tuple[np.ndarray, np.ndarray]:
        """The m-edge lengths of the first column and the n-edge lengths of the
        first row alone: edge_lengths()[0][:, 0] and [1][0, :], bit for bit."""
        em, en = _edges(self.points[:, :1])[0], _edges(self.points[:1])[1]
        return np.sqrt(_dot(em, em))[:, 0], np.sqrt(_dot(en, en))[0]

    def invariant_residuals(self) -> dict[str, float]:
        """Planarity, opposite-edge equality and per-row/column length spreads,
        from each edge formed once: a star edge that points backwards is its
        exact IEEE negation, which flips only the sign of the products it enters.
        Each product array is reduced as soon as it is formed (a NaN anywhere
        makes its residual NaN), and one cross product is alive at a time."""
        pts, nrm = self.points, np.moveaxis(self.normals, -1, 0)
        em, en = _edges(pts)
        # star-edge dots, then interior triple products; e1, e3 are the backward edges negated
        res = [max_abs(_dot(em, nrm[:, :-1])), max_abs(_dot(em, nrm[:, 1:])),
               max_abs(_dot(en, nrm[:, :, :-1])), max_abs(_dot(en, nrm[:, :, 1:]))]
        if pts.shape[0] > 2 and pts.shape[1] > 2:
            e0, e1, e2, e3 = em[:, 1:, 1:-1], em[:, :-1, 1:-1], en[:, 1:-1, 1:], en[:, 1:-1, :-1]
            for a, b, others in ((e0, e1, (e2, e3)), (e0, e2, (e3,)), (e1, e2, (e3,))):
                c = _cross(a, b)
                res += [max_abs(_dot(c, d)) for d in others]
                del c
        opp, spread = [], []
        for e, axis in ((em, 1), (en, 0)):   # opposite edges follow each other along axis
            lengths = np.sqrt(_dot(e, e))
            if lengths.size and lengths.shape[axis] > 1:
                opp.append(max_abs(np.diff(lengths, axis=axis)))
                spread.append(max_abs(np.ptp(lengths, axis=axis)))
        return {"planarity": max_abs(res), "opposite_edges": max_abs(opp),
                "length_spread": max_abs(spread)}


def _edges(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """m- and n-edges of an (M, N, 3) window, contiguous and component first."""
    P = np.moveaxis(points, -1, 0)
    return (np.subtract(P[:, 1:], P[:, :-1], order="C"),
            np.subtract(P[:, :, 1:], P[:, :, :-1], order="C"))


# Products of component-first vectors, each rounded as np.cross forms it and
# summed in the order in which ndarray.sum and np.linalg.norm sum an axis of 3.
def _dot(a, b):
    return (a[0] * b[0] + a[1] * b[1]) + a[2] * b[2]


def _cross(a, b):
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def k_grid(p: KParams, m_values, n_values) -> KGrid:
    ms = np.asarray(list(m_values), dtype=int)
    ns = np.asarray(list(n_values), dtype=int)
    pts, nrm = k_point(p, ms[:, None], ns[None, :])
    return KGrid(params=p, m_values=ms, n_values=ns, points=pts, normals=nrm)


def compat_matrices(wA: HalfAngle, wB: HalfAngle, wC: HalfAngle, wD: HalfAngle,
                    nu1: float, nu2: float, signs: tuple[str, str] = ("+", "+")):
    """Frobenius defect of the gauge-fixed zero-curvature condition on each quad.

    Corner naming: A = w_{m+1,n+1}, B = w_{m,n}, C = w_{m+1,n}, D = w_{m,n+1}.
    The m-step matrix couples (B, C) through e^{-i(C-B)/2} on the diagonal;
    the n-step matrix couples (B, D) through e^{+i(D+B)/2} off the diagonal.
    Residual of L_{m,n} Lhat_{m+1,n} - Lhat_{m,n} L_{m,n+1}.  The corners are
    HalfAngles of one shape (quads; one quad is evaluated as an array of one),
    over which the 2x2 matrices are stacked and the defects are returned.
    """
    s1 = 1.0 if signs[0] == "+" else -1.0
    s2 = 1.0 if signs[1] == "+" else -1.0
    shape = np.shape(wA.c)
    eA, eB, eC, eD = (np.atleast_1d(w.half_exponential()) for w in (wA, wB, wC, wD))

    def matrices(*entries):   # row by row
        entries = np.broadcast_arrays(*entries)
        return np.stack(entries, axis=-1).reshape(entries[0].shape + (2, 2))

    def l_step(b, c):   # from the half exponentials e^{iB/2}, e^{iC/2}
        d = c.conjugate() * b
        cv, sv = math.cos(0.5 * nu1), math.sin(0.5 * nu1)
        return matrices(cv * d, s1 * sv, -s1 * sv, cv * d.conjugate())

    def lhat_step(b, d):
        u = d * b
        cv, sv = math.cos(0.5 * nu2), math.sin(0.5 * nu2)
        return matrices(cv, s2 * sv * u, -s2 * sv * u.conjugate(), cv)

    defect = l_step(eB, eC) @ lhat_step(eC, eA) - lhat_step(eB, eD) @ l_step(eD, eA)
    return np.linalg.norm(defect, axis=(-2, -1)).reshape(shape)[()]


def k_periodicity(case_id: str, order: int = 3, window: int = 8) -> dict:
    """Verify the translation invariances of one enumerated periodic case.

    Cases 1a-1c are dn-family, 2a-2c cn-family; every case takes the modulus
    k' = cos(pi/order), which 1a/1b mandate with order > 2.  Returns a report
    with the checked shifts and the worst closure defect over a window x
    window block.
    """
    if case_id not in _CASES:
        raise DomainError(f"case_id must be one of {_CASES}, got {case_id!r}")
    if order < 1 or window < 1:
        raise DomainError(f"order and window must be >= 1, got order={order}, window={window}")
    if case_id in ("1a", "1b") and order <= 2:
        raise DomainError("cases 1a/1b need order > 2")
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
    per_shift = {}
    ms, ns = np.arange(window)[:, None], np.arange(window)[None, :]
    F0, _ = k_point(p, ms, ns)
    for dm, dn_ in shifts:
        F1, _ = k_point(p, ms + dm, ns + dn_)
        per_shift[f"({dm},{dn_})"] = max_abs(F1 - F0)
    return {
        "case": case_id,
        "family": fam,
        "modulus": mod.k,
        "gamma": steps[0],
        "delta": steps[1],
        "shifts": per_shift,
        "max_defect": max_abs(list(per_shift.values())),
    }
