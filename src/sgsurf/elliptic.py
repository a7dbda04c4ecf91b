"""Real-argument Jacobi elliptic functions and the integrals built on them.

The complete integrals K, K', E, E' come from the arithmetic-geometric mean
(https://dlmf.nist.gov/19.8#i): K = pi / (2 agm(1, k')) and
E = K (1 - sum 2^{n-1} c_n^2) over the AGM correction sequence.  Point
evaluation of sn, cn, dn delegates to scipy's descending-Landen
implementation after range reduction mod 4K, and the sn^2 primitive is
expressed through the Jacobi epsilon function so that every z-coordinate
downstream costs O(1) instead of a quadrature.

Every function takes scalars or arrays alike.  ``_closed_form``, the
package-internal evaluator behind ``ksurf`` and ``surfaces``, evaluates the
curve and K-surface closed forms on whole arrays of lattice sites with one
``jacobi`` and one ``sn2_integral`` call; each element goes through the same
operations in the same order as a scalar evaluation, so the values do not
depend on how the sites are batched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ellipeinc, ellipj

from .errors import DomainError

_AGM_TOL = 1e-16


@dataclass(frozen=True)
class EllipticModulus:
    """Modulus k with every derived constant used by the rest of the package.

    tau  = i K'/K and taup = i K/K' are the two lattice parameters; q is the
    nome exp(i pi taup) of the taup lattice, a real number in (0, 1).
    """

    k: float
    kp: float
    K: float
    Kp: float
    E: float
    Ep: float
    tau: complex
    taup: complex
    q: float

    @property
    def m(self) -> float:
        """Parameter m = k^2 as consumed by scipy."""
        return self.k * self.k

    def legendre_residual(self) -> float:
        return abs(self.E * self.Kp + self.Ep * self.K - self.K * self.Kp - math.pi / 2)


def _agm_ke(k: float) -> tuple[float, float]:
    """Complete integrals (K(k), E(k)) by AGM iteration.

    Stops when the gap c_n drops below tolerance or stops decreasing; the
    second clause matters because for some moduli the floating-point fixed
    point leaves |c| one ulp above any relative tolerance.
    """
    a, b, c = 1.0, math.sqrt(1.0 - k * k), k
    csum = 0.5 * c * c
    pow2 = 0.5
    prev = math.inf
    while _AGM_TOL * a < abs(c) < prev:
        prev = abs(c)
        a, b, c = 0.5 * (a + b), math.sqrt(a * b), 0.5 * (a - b)
        pow2 *= 2.0
        csum += pow2 * c * c
    K = math.pi / (2.0 * a)
    return K, K * (1.0 - csum)


def make_modulus(k: float) -> EllipticModulus:
    """Build the constant pack for a modulus in the open interval (0, 1)."""
    if not 0.0 < k < 1.0:
        raise DomainError(f"modulus must satisfy 0 < k < 1, got {k}")
    kp = math.sqrt(1.0 - k * k)
    K, E = _agm_ke(k)
    Kp, Ep = _agm_ke(kp)
    taup = 1j * K / Kp
    return EllipticModulus(
        k=k, kp=kp, K=K, Kp=Kp, E=E, Ep=Ep,
        tau=1j * Kp / K, taup=taup, q=math.exp(-math.pi * K / Kp),
    )


def jacobi(u, mod: EllipticModulus):
    """(sn u, cn u, dn u) at modulus mod.k; total on finite real arguments.

    Arguments are reduced mod 4K before the Landen chain so accuracy is
    uniform over the real line.
    """
    r = u - 4.0 * mod.K * np.round(u / (4.0 * mod.K))
    sn, cn, dn, _ = ellipj(r, mod.m)
    return sn, cn, dn


def jacobi_epsilon(u, mod: EllipticModulus):
    """Jacobi epsilon eps(u) = integral of dn^2 from 0 to u.

    Quasi-periodic: eps(u + 2K) = eps(u) + 2E, reduced explicitly so the
    incomplete integral is only ever evaluated on [-K, K].
    """
    n = np.round(u / (2.0 * mod.K))
    r = u - 2.0 * mod.K * n
    sn, _, _, _ = ellipj(r, mod.m)
    return 2.0 * mod.E * n + ellipeinc(np.arcsin(np.clip(sn, -1.0, 1.0)), mod.m)


def sn2_integral(u, mod: EllipticModulus):
    """Primitive of sn^2: integral of sn^2(psi) dpsi from 0 to u.

    Equals (u - eps(u)) / k^2; odd in u, with quasi-period increment
    2(K - E)/k^2 per 2K step.
    """
    return (u - jacobi_epsilon(u, mod)) / mod.m


def _closed_form(phi, psi, sign, lattice, mod: EllipticModulus, family: str):
    """Points F and unit normals N of the dn/cn closed forms at phases (phi, psi).

    With s = sign (the (-1)^n or (-1)^m factor of the x, y components, or
    1.0) and z = int_0^psi sn^2 - sum of count * int_0^step sn^2 over the
    ``lattice`` pairs (count, int_0^step sn^2), subtracted in order:

      dn: F = ( s cos(phi) dn/k,  s sin(phi) dn/k,  -k z ),
          N = ( s cos(phi) sn,    s sin(phi) sn,    -cn );
      cn: F = ( s k cos(phi) cn,  s k sin(phi) cn,  -k^2 z ),
          N = ( s k cos(phi) sn,  s k sin(phi) sn,  -dn ).

    phi and psi have one shape (the sites); sign and the counts broadcast
    against it.  F and N have that shape plus a trailing axis of length 3.
    """
    sn, cn, dn = jacobi(psi, mod)
    z = sn2_integral(psi, mod)
    for count, integral in lattice:
        z = z - count * integral
    k = mod.k
    x, y = sign * np.cos(phi), sign * np.sin(phi)
    if family == "dn":
        F = (x * dn / k, y * dn / k, -k * z)
        N = (x * sn, y * sn, -cn)
    else:
        x, y = k * x, k * y
        F = (x * cn, y * cn, -k * k * z)
        N = (x * sn, y * sn, -dn)
    return np.stack(F, axis=-1), np.stack(N, axis=-1)
