"""Real-argument Jacobi elliptic functions and the integrals built on them.

One arithmetic-geometric mean per modulus (https://dlmf.nist.gov/19.8#i) gives
everything: with a_0 = 1, b_0 = k', c_0 = k and the gap recursion
c_{n+1} = c_n^2 / (4 a_{n+1}), which never subtracts nearly equal numbers,
K = pi / (2 a_N) and E = K (1 - sum 2^{n-1} c_n^2).  The same sequence drives
the descending Landen transformation for sn, cn, dn (A&S 16.4,
https://dlmf.nist.gov/22.20#ii): from phi_N = 2^N a_N u,

  phi_{n-1} = (phi_n + asin((c_n / a_n) sin phi_n)) / 2,
  sn u = sin phi_0,  cn u = cos phi_0,  dn u = sqrt(k'^2 + k^2 cn^2 u),

and the Jacobi zeta function Z(u) = sum c_n sin phi_n (A&S 17.6) from the
same sines.  With Z, the primitive of sn^2 is

  int_0^u sn^2 = u (K - E) / (K k^2) - Z(u) / k^2,

where (K - E) / (K k^2) = 1/2 + sum 2^{n-1} (c_n / k)^2 and c_n / k^2 are
constants of the modulus, so no term cancels as k -> 0.  Arguments are
reduced mod 4K first (Z has period 2K), so accuracy is uniform over the real
line and every element costs O(1).

Every function takes scalars or arrays alike.  ``_closed_form``, the
package-internal evaluator behind ``ksurf`` and ``surfaces``, evaluates the
curve and K-surface closed forms on whole arrays of lattice sites with one
``jacobi`` call, which also returns the sn^2 primitive from the same Landen
pass; each element goes through the same operations in the same order as a
scalar evaluation, so the values do not depend on how the sites are batched.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

# The AGM stops at the first level whose ratio c_n/a_n and zeta weight c_n/k^2
# are both below this: that level and all later ones move phi_0 and Z/k^2 by
# less than one ulp of 1.
_AGM_TOL = 2.0 ** -53

FAMILIES = ("dn", "cn")


def check_family(family: str) -> None:
    """Reject anything but the two elliptic families with DomainError."""
    if family not in FAMILIES:
        raise DomainError(f"family must be one of {FAMILIES}, got {family!r}")


@dataclass(frozen=True)
class EllipticModulus:
    """Modulus k with every derived constant used by the rest of the package.

    tau  = i K'/K and taup = i K/K' are the two lattice parameters; q is the
    nome exp(i pi taup) of the taup lattice, a real number in (0, 1).

    The Landen constants come from the same AGM as K and E: ``landen`` holds
    the pairs (c_n/a_n, c_n/k^2) for n = N, ..., 1, ``scale`` is 2^N times
    the AGM limit pi/(2K), so phi_N = scale * u, and ``slope`` is
    (K - E)/(K k^2).
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
    landen: tuple[tuple[float, float], ...]
    scale: float
    slope: float

    @property
    def m(self) -> float:
        """Parameter m = k^2."""
        return self.k * self.k

    def legendre_residual(self) -> float:
        return abs(self.E * self.Kp + self.Ep * self.K - self.K * self.Kp - math.pi / 2)


def _agm(k: float, kp: float) -> tuple[list[float], list[float], list[float]]:
    """AGM of (1, k') with gaps c_0 = k, c_{n+1} = c_n^2 / (4 a_{n+1}).

    Returns the means a_n, the gaps c_n and the zeta weights w_n = c_n/k^2
    of the levels n = 0..L, where level L is the first whose ratio and
    weight are both below tolerance; the gaps shrink quadratically, so it
    exists.  The weights follow w_{n+1} = c_n w_n / (4 a_{n+1}) from
    c_0 w_0 = 1, so no k^2 is ever divided out.
    """
    a, c, w = [1.0], [k], [1.0 / k]
    b = kp
    while c[-1] > _AGM_TOL * a[-1] or w[-1] > _AGM_TOL:
        a_prev = a[-1]
        a.append(0.5 * (a_prev + b))
        b = math.sqrt(a_prev * b)
        w.append((1.0 if len(c) == 1 else c[-1] * w[-1]) / (4.0 * a[-1]))
        c.append(c[-1] * c[-1] / (4.0 * a[-1]))
    return a, c, w


def make_modulus(k: float) -> EllipticModulus:
    """The constant pack for a modulus in the open interval (0, 1).

    Packs are frozen and memoized on float(k), so equal moduli share one pack
    and ``mod.k`` is a Python float; an invalid k raises on every call.
    """
    if not 0.0 < k < 1.0:
        raise DomainError(f"modulus must satisfy 0 < k < 1, got {k}")
    return _modulus(float(k))


@functools.lru_cache(maxsize=256)
def _modulus(k: float) -> EllipticModulus:
    kp = math.sqrt((1.0 - k) * (1.0 + k))   # 1 - k^2 without cancellation near k = 1
    a, c, w = _agm(k, kp)
    L = len(a) - 1
    K = math.pi / (2.0 * a[L])
    # (K - E) / (K k^2) = 1/2 + sum_{n>=1} 2^{n-1} (c_n/k)^2, (c_n/k)^2 = c_n w_n
    slope = 0.5 + math.fsum(2.0 ** (n - 1) * c[n] * w[n] for n in range(1, L + 1))
    # the complementary pair: the same AGM with the roles of k and k' swapped
    ap, cp, _ = _agm(kp, k)
    Kp = math.pi / (2.0 * ap[-1])
    Ep = Kp * (1.0 - math.fsum(2.0 ** (n - 1) * g * g for n, g in enumerate(cp)))
    return EllipticModulus(
        k=k, kp=kp, K=K, Kp=Kp, E=K * (1.0 - k * k * slope), Ep=Ep,
        tau=1j * Kp / K, taup=1j * K / Kp, q=math.exp(-math.pi * K / Kp),
        # the Landen descent runs over the levels N = L - 1, ..., 1
        landen=tuple((c[n] / a[n], w[n]) for n in range(L - 1, 0, -1)),
        scale=2.0 ** (L - 1) * a[L], slope=slope,
    )


def _landen(u, mod: EllipticModulus):
    """(sn, cn, dn, int_0^u sn^2) by one descending Landen pass over u mod 4K."""
    r = u - 4.0 * mod.K * np.round(u / (4.0 * mod.K))
    phi = mod.scale * r
    zeta = 0.0   # Z(r) / k^2 = Z(u) / k^2, accumulated from the smallest term
    for ratio, weight in mod.landen:
        s = np.sin(phi)
        zeta = zeta + weight * s
        phi = 0.5 * (phi + np.arcsin(ratio * s))
    cn = np.cos(phi)
    dn = np.sqrt(mod.kp * mod.kp + mod.m * (cn * cn))
    return np.sin(phi), cn, dn, mod.slope * u - zeta


def jacobi(u, mod: EllipticModulus, integral: bool = False):
    """(sn u, cn u, dn u) at modulus mod.k; total on finite real arguments.
    With ``integral``, int_0^u sn^2 follows as a fourth array, from the same
    Landen pass."""
    values = _landen(u, mod)
    return values if integral else values[:3]


def sn2_integral(u, mod: EllipticModulus):
    """Primitive of sn^2: integral of sn^2(psi) dpsi from 0 to u.

    Odd in u, with quasi-period increment 2(K - E)/k^2 per 2K step.
    """
    return _landen(u, mod)[3]


def _lattice_step(mod: EllipticModulus, family: str, step: float, flipped: bool):
    """(rotation angle, int_0^step sn^2, signed edge scale) of a lattice step, from
    one Landen pass: cos = dn(step), sin = k sn(step) and scale sn(step) for the dn
    family, cos = cn, sin = sn and scale k sn for cn; ``flipped`` negates the cosine."""
    sn, cn, dn, integral = _landen(step, mod)
    if family == "dn":
        return math.atan2(mod.k * sn, -dn if flipped else dn), integral, sn
    return math.atan2(sn, -cn if flipped else cn), integral, mod.k * sn


def _closed_form(phi, psi, sign, drift, mod: EllipticModulus, family: str):
    """Points F and unit normals N of the dn/cn closed forms at the sites that a
    lattice's ``_sites`` describes, with s = sign and z = int_0^psi sn^2 minus
    count * int_0^step sn^2 for each drift pair (count, int_0^step sn^2) in turn:

      dn: F = ( s cos(phi) dn/k,  s sin(phi) dn/k,  -k z ),
          N = ( s cos(phi) sn,    s sin(phi) sn,    -cn );
      cn: F = ( s k cos(phi) cn,  s k sin(phi) cn,  -k^2 z ),
          N = ( s k cos(phi) sn,  s k sin(phi) sn,  -dn ).

    phi and psi have one shape (the sites); sign and the counts broadcast
    against it.  F and N have that shape plus a trailing axis of length 3.
    """
    sn, cn, dn, z = jacobi(psi, mod, integral=True)
    for count, integral in drift:
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
